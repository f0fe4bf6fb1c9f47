"""Reference computations made with sympy's ring arithmetic alone.

Nothing here imports wittcycles: the values the benchmark checks the
program's outputs against are computed apart from the program, over
QQ[x, y] with sympy's sparse polynomials.  A field element of Q(x, y) is
a pair (num, den) of ring elements and two pairs are compared by
cross-multiplication, so no check needs a polynomial gcd.
"""

from fractions import Fraction

from sympy import QQ
from sympy.polys.rings import ring

R, X, Y = ring("x,y", QQ)
GENS = (X, Y)


def linear(c):
    """(p*x + q*y + r)/s for the integer quadruple c = (p, q, r, s)."""
    p, q, r, s = c
    return (p * X + q * Y + r) * QQ(1, s)


def linear_text(c):
    return "(%d*x%+d*y%+d)/%d" % c


def poly_text(poly):
    """A ring element in the program's expression grammar."""
    terms = []
    for mon, coef in poly.terms():
        factors = ["(%d/%d)" % (coef.numerator, coef.denominator)]
        factors += ["%s^%d" % (n, e) for n, e in zip("xy", mon) if e]
        terms.append("*".join(factors))
    return "+".join(terms) or "0"


def unit(c):
    """The ratio (x + a)/(y + b) for the integer pair c = (a, b)."""
    return (X + c[0], Y + c[1])


def unit_text(c):
    return "(x%+d)/(y%+d)" % c


def poly_from_json(data):
    """A ring element from the program's [[monomial, "p/q"], ...] form."""
    terms = {}
    for mon, coef in data:
        p, q = coef.split("/")
        terms[tuple(mon)] = QQ(int(p), int(q))
    return R(terms)


def elem_from_json(data):
    return (poly_from_json(data["num"]), poly_from_json(data["den"]))


def form_from_json(data):
    """{index subset: (num, den)} from a differential form's JSON."""
    return {tuple(s): elem_from_json(v) for s, v in data}


def ratio_equal(a, b):
    """a == b for (num, den) pairs with nonzero denominators."""
    return a[0] * b[1] == b[0] * a[1]


def forms_equal(got, want):
    """Two {subset: (num, den)} forms agree; zero coefficients may be absent."""
    for key in set(got) | set(want):
        a = got.get(key, (R.zero, R.one))
        b = want.get(key, (R.zero, R.one))
        if not ratio_equal(a, b):
            return False
    return True


# -- truncated series over QQ[x, y] ---------------------------------------

def series_mul(a, b, m):
    """The product of two coefficient lists mod t^(m+1)."""
    out = [R.zero] * (m + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(0, m + 1 - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def series_inv(u, m):
    """u^(-1) mod t^(m+1) for u with constant term 1, by the geometric
    recursion v_k = -sum_(j=1..k) u_j v_(k-j)."""
    v = [R.one]
    for k in range(1, m + 1):
        acc = R.zero
        for j in range(1, k + 1):
            if u[j]:
                acc -= u[j] * v[k - j]
        v.append(acc)
    return v


def series_log(u, m):
    """log u for a principal unit u, as the integral of u'/u."""
    du = [u[k + 1] * (k + 1) for k in range(m)] + [R.zero]
    w = series_mul(du, series_inv(u, m), m)
    return [R.zero] + [w[k - 1] * QQ(1, k) for k in range(1, m + 1)]


def gamma(a, m):
    """prod_i (1 - a_i t^i) mod t^(m+1) for Witt coordinates a_1..a_m."""
    out = [R.one] + [R.zero] * m
    for i, ai in enumerate(a, start=1):
        if ai:
            for k in range(m, i - 1, -1):
                if out[k - i]:
                    out[k] -= ai * out[k - i]
    return out


def ghost(a):
    """g_j = sum_(d | j) d a_d^(j/d)."""
    m = len(a)
    return [sum((a[d - 1] ** (j // d) * d for d in range(1, j + 1) if j % d == 0),
                R.zero)
            for j in range(1, m + 1)]


# -- differential forms in two variables ----------------------------------

def dlog(b):
    """dlog of the ratio b = (n, d): {(i,): (n_i d - n d_i, n d)}."""
    n, d = b
    return {(i,): (n.diff(g) * d - n * d.diff(g), n * d)
            for i, g in enumerate(GENS)}


def wedge11(a, b):
    """The 2-form a ^ b of two 1-forms, on the basis dx ^ dy."""
    (an, ad), (bn, bd) = a[(0,)], b[(1,)]
    (cn, cd), (dn, dd) = a[(1,)], b[(0,)]
    return {(0, 1): (an * bn * cd * dd - cn * dn * ad * bd, ad * bd * cd * dd)}


def scale_form(c, form):
    """c * form for a ring element or Fraction c."""
    if isinstance(c, Fraction):
        c = QQ(c.numerator, c.denominator)
    return {k: (n * c, d) for k, (n, d) in form.items()}


def d_of_scaled_closed(g, form):
    """d(g * w) = dg ^ w for a ring element g and a closed 1-form w."""
    dg = {(i,): (g.diff(x), R.one) for i, x in enumerate(GENS)}
    return wedge11(dg, form)
