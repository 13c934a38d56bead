"""In-memory span recorder that wraps photonam's layers from outside.

`install()` replaces every public function of the layer modules, the public
methods of the classes they define, and the `OperatorMatrix` arithmetic
operators with wrappers that record a span: name, parent span, start, end
and, for a few calls, size counters computed from the call's arguments and
return value.  A name is replaced at every module that holds it, because
`suites`, `operators`, `constraints` and `dirac` bind `from .fock import ...`
at import time, and in the `SUITES` registry, so each span can be
attributed to the suite that caused it.

Counters are computed counts (dimensions, nonzeros, dense elements, grid
points), never timings.  Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "suites", "fock", "operators", "constraints", "fields", "dirac", "modes", "report")

# OperatorMatrix arithmetic; `__rmul__` is the same function as `__mul__`.
ARITH = {"__add__": "add", "__sub__": "sub", "__mul__": "mul", "__rmul__": "mul",
         "__neg__": "neg", "__matmul__": "matmul"}


def _lift_nnz(args, kwargs, out):
    return {"nnz": int(out.mat.nnz)}


def _fermionic_nnz(args, kwargs, out):
    return {"nnz": int(out.nnz)}


def _compress_block(args, kwargs, out):
    op, indices = args[0], args[1]
    return {"block": int(len(indices)), "dim": int(op.space.dim)}


def _space_dim(args, kwargs, out):
    return {"dim": int(out.dim)}


def _svd_elems(args, kwargs, out):
    fs, constraints = args[0], args[1]
    # stacked dense constraint matrix handed to the SVD: (#C * dim) x dim
    return {"dense_elems": len(constraints) * int(fs.dim) * int(fs.dim)}


def _grid_points(args, kwargs, out):
    n = int(args[0].grid_n)
    return {"grid_points": n * n * n}


COUNTERS = {
    "fock.lift_bilinear": _lift_nnz,
    "fock.compress": _compress_block,
    "fock.build_fock": _space_dim,
    "constraints.physical_subspace": _svd_elems,
    "dirac.fermionic_lift": _fermionic_nnz,
    "fields.eval_fields": _grid_points,
}


class Tracer:
    """Records nested spans as [name, parent, start, end, counters]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, out)
            return out

        return traced

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def _methods(cls):
    arith = ARITH if cls.__name__ == "OperatorMatrix" else {}
    for attr, value in vars(cls).items():
        if inspect.isfunction(value) and (attr in arith or not attr.startswith("_")):
            yield attr, value


def install(tracer: Tracer) -> None:
    """Wrap the layers of an imported photonam."""
    replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = sys.modules[f"photonam.{layer}"]
        for attr, value in vars(mod).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                replaced.setdefault(id(value), (value, tracer.wrap(f"{layer}.{attr}", value)))
            elif inspect.isclass(value):
                for meth, fn in _methods(value):
                    name = f"fock.arith.{ARITH[meth]}" if meth in ARITH else f"{layer}.{attr}.{meth}"
                    wrapped = replaced.setdefault(id(fn), (fn, tracer.wrap(name, fn)))[1]
                    setattr(value, meth, wrapped)
    # rebind every import site, including the package namespace
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "photonam" and not mod_name.startswith("photonam."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, attr, replaced[id(value)][1])
    suites = sys.modules["photonam.suites"].SUITES
    for key, fn in suites.items():
        if id(fn) in replaced:
            suites[key] = replaced[id(fn)][1]
