"""The reference route through sympy's rational function field.

``to_frac(a)`` gives the field element a as an element of sympy's
``FracField`` QQ(x1..xr) over the names of its context.  The differential
tests compare the package's own results against this route: its
``numer``/``denom`` pair for the canonical form, ``str`` for the printer.
Not collected by pytest; the test modules import it."""

from functools import lru_cache

from sympy import QQ, grlex
from sympy.polys.fields import field


@lru_cache(maxsize=None)
def qq_field(ctx):
    """sympy's rational function field QQ(x1..xr) over the names of ctx
    (over the unused dummy generator of a context without variables)."""
    return field(ctx.ring.symbols, QQ, grlex)[0]


def to_frac(a):
    """The field element a in sympy's FracField QQ(x1..xr)."""
    qfield = qq_field(a.ctx)
    qring = qfield.ring
    return qfield.raw_new(a.num.set_ring(qring), a.den_poly().set_ring(qring))
