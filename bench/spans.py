"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the functions and public methods of every
wittcycles module, plus sympy's polynomial gcd and factoring entry
points, and rebinds each wrapped function wherever a wittcycles module
imported it with ``from ... import``.  A call opens a span when it
crosses into a layer from a different one, so ``<layer>.calls`` counts
calls into the layer and most calls inside it cost one comparison.  The
sub-operations in GROUPS open a span on every call, so that their counts
include calls from inside their own layer.  Self time is a span's
duration minus the durations of the spans it opened.

Spans are kept in memory as per-operation totals and written out by
``dump``; recording is on only between ``begin`` and ``end``.
"""

import functools
import inspect
import json
import sys
import time

from sympy.polys.rings import PolyElement

LAYERS = ("scalars", "trunc", "forms", "witt", "drw", "relmilnor",
          "milnorfield", "addchow", "verify", "cli")

# Methods of the package's classes that count as calls into a layer
# besides the public ones.
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__")

# Sub-operations reported on their own: (layer, attribute name) -> group.
GROUPS = {
    ("scalars", "__mul__"): "mul", ("scalars", "__rmul__"): "mul",
    ("scalars", "__add__"): "add", ("scalars", "__radd__"): "add",
    ("trunc", "__mul__"): "mul", ("trunc", "__rmul__"): "mul",
    ("trunc", "inv"): "inv",
    ("trunc", "exp_t"): "exp_log", ("trunc", "log_t"): "exp_log",
    ("witt", "gamma_inv"): "gamma_inv",
    ("forms", "wedge"): "wedge", ("forms", "trunc_wedge"): "wedge",
    ("forms", "dlog_wedge"): "wedge",
    ("forms", "reduce_mod_exact"): "reduce_mod_exact",
    ("relmilnor", "normal_form"): "normal_form",
    ("milnorfield", "gersten_boundary"): "gersten_boundary",
    ("milnorfield", "tame_symbol"): "tame_symbol",
    ("addchow", "boundary"): "boundary",
    ("sympy", "cofactors"): "gcd", ("sympy", "gcd"): "gcd",
    ("sympy", "cancel"): "gcd",
    ("sympy", "factor_list"): "factor_list",
}

SYMPY_METHODS = ("cofactors", "gcd", "cancel", "factor_list")

# The per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = (
    "scalars.calls", "scalars.self_s", "scalars.mul.calls", "scalars.add.calls",
    "scalars.frac_results", "sympy.gcd.calls", "sympy.gcd.self_s",
    "trunc.calls", "trunc.self_s", "trunc.mul.calls", "trunc.inv.calls",
    "trunc.exp_log.calls", "trunc.exp_log.self_s",
    "witt.calls", "witt.self_s", "witt.gamma_inv.self_s", "drw.calls", "drw.self_s",
    "forms.calls", "forms.self_s", "forms.wedge.calls",
    "forms.reduce_mod_exact.self_s", "relmilnor.calls", "relmilnor.self_s",
    "relmilnor.normal_form.calls", "milnorfield.calls", "milnorfield.self_s",
    "milnorfield.gersten_boundary.calls", "milnorfield.tame_symbol.calls",
    "addchow.calls", "addchow.self_s", "addchow.boundary.calls",
    "sympy.factor_list.calls", "sympy.factor_list.self_s",
    "cli.calls", "cli.self_s", "verify.calls", "verify.self_s",
)


class Tracer:
    def __init__(self):
        self.on = False
        self.stack = []
        self.op = {}       # (layer, group) -> [calls, self_s] for the current op
        self.ops = []      # one record per finished operation
        self.total = {}    # (layer, group) -> [calls, self_s] over the run
        self.frac_results = 0

    # -- recording -------------------------------------------------------

    def begin(self):
        self.stack = [["bench", 0.0]]
        self.op = {}
        self.on = True

    def end(self, kind):
        self.on = False
        self.ops.append({"kind": kind, "layers": {
            "%s.%s" % key if key[1] else key[0]: [c, s]
            for key, (c, s) in sorted(self.op.items(), key=lambda kv: str(kv[0]))}})
        for key, (c, s) in self.op.items():
            acc = self.total.setdefault(key, [0, 0.0])
            acc[0] += c
            acc[1] += s

    def _wrap(self, layer, name, fn):
        tracer = self
        count_frac = layer == "scalars"
        group = GROUPS.get((layer, name))
        # a sub-operation of the package opens a span on every call, so its
        # count and self time include calls from inside its own layer
        always = group is not None and layer != "sympy"
        layer_key, group_key = (layer, None), (layer, group)
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            if not tracer.on:
                return fn(*args, **kwargs)
            crossing = stack[-1][0] != layer
            if not (crossing or always):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                stats = tracer.op
                acc = stats.get(layer_key)
                if acc is None:
                    acc = stats[layer_key] = [0, 0.0]
                acc[0] += crossing
                acc[1] += own
                if group is not None:
                    acc = stats.get(group_key)
                    if acc is None:
                        acc = stats[group_key] = [0, 0.0]
                    acc[0] += 1
                    acc[1] += own
            if count_frac and crossing and type(getattr(result, "den", 1)) is not int:
                tracer.frac_results += 1
            return result
        return span

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every layer and rebind the wrapped functions."""
        modules = {name: sys.modules["wittcycles." + name] for name in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for name in SYMPY_METHODS:
            setattr(PolyElement, name,
                    self._wrap("sympy", name, getattr(PolyElement, name)))
        for mod in list(modules.values()) + [sys.modules["wittcycles"]]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            if isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(layer, name, attr.__func__))
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(layer, name, attr.__func__))
            elif isinstance(attr, property):
                if attr.fget is None:
                    continue
                wrapped = property(self._wrap(layer, name, attr.fget),
                                   attr.fset, attr.fdel, attr.__doc__)
            elif inspect.isfunction(attr):
                wrapped = self._wrap(layer, name, attr)
            else:
                continue
            setattr(cls, name, wrapped)

    # -- results ---------------------------------------------------------

    def metrics(self):
        values = {}
        for name in METRICS:
            head, _, field = name.rpartition(".")
            layer, _, group = head.partition(".")
            calls, self_s = self.total.get((layer, group or None), (0, 0.0))
            values[name] = {"calls": calls, "self_s": self_s,
                            "frac_results": self.frac_results}[field]
        return values

    def dump(self, path):
        with open(path, "w") as out:
            for record in self.ops:
                out.write(json.dumps(record) + "\n")
