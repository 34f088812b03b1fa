"""Per-layer spans and counters, installed on freeunitary from outside.

The tracer replaces a function under every name its callers look up (a
module attribute bound to the same object anywhere in the package, or a
class attribute for operators) with a wrapper that records calls,
inclusive seconds and self seconds.  A span's self time is its duration
minus the time of the spans it directly contains.  Nothing in the program
is edited; installing the tracer is what a traced run adds.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from fractions import Fraction

perf = time.perf_counter  # wall-clock seconds, like the task times of worker.py

# span name -> (module, attribute); operators are wrapped on their class
SPANS = {
    "ncpart.weight_table": ("ncpart", "_weight_table"),
    "ncpart.kreweras": ("ncpart", "_kreweras_blocks"),
    "cumulants.z_mobius": ("cumulants", "z_mobius"),
    "cumulants.z_recursive": ("cumulants", "z_recursive"),
    "alternating.xi_by_recursion": ("alternating", "xi_by_recursion"),
    "alternating.xi_by_inversion": ("alternating", "xi_by_inversion"),
    "alternating.lambda_series": ("alternating", "lambda_series"),
    "alternating.lagrange_lambda": ("alternating", "lagrange_lambda"),
    "laplace.z_from_laplace": ("laplace", "z_from_laplace"),
    "laplace.check_f_identity": ("laplace", "check_f_identity"),
    "rdiag.alpha_sequence": ("rdiag", "alpha_sequence"),
    "rdiag.beta_mobius": ("rdiag", "beta_mobius"),
    "rdiag.beta_enumeration": ("rdiag", "beta_enumeration"),
    "rdiag.nc_omega_structured": ("rdiag", "nc_omega_structured"),
    "rdiag.mixed_q": ("rdiag", "mixed_q_cumulant"),
    "rdiag.nc_omega": ("rdiag", "nc_omega"),
}
OPERATORS = {
    "qpoly.poly_mul": ("Poly", ("__mul__", "__rmul__")),
    "qpoly.poly_add": ("Poly", ("__add__", "__radd__")),
    "qpoly.quasi_mul": ("QuasiPoly", ("__mul__", "__rmul__")),
}


def catalan(n: int) -> int:
    """|NC(n)|, the number of terms a Moebius sum over NC(n) visits."""
    return math.comb(2 * n, n) // (n + 1)


def _products(a, b) -> int:
    """Coefficient products Poly.__mul__ performs: it skips zero entries of a."""
    ca = a.coeffs
    if isinstance(b, (int, Fraction)):
        return len(ca)
    if not hasattr(b, "coeffs") or not ca or not b.coeffs:
        return 0
    return (len(ca) - ca.count(0)) * len(b.coeffs)


class Tracer:
    """Spans and counters for one process; merge() sums tracers of children."""

    def __init__(self):
        self.raw = {"calls": defaultdict(int), "s": defaultdict(float),
                    "self_s": defaultdict(float), "count": defaultdict(int)}
        self._stack: list = []  # [span name, seconds of direct children]
        self._depth = defaultdict(int)
        self._enumerating = False

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_call=None, on_return=None):
        raw, stack, depth = self.raw, self._stack, self._depth
        calls, incl, own = raw["calls"], raw["s"], raw["self_s"]

        def wrapper(*args, **kwargs):
            state = on_call(args) if on_call else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                own[name] += dt - frame[1]
                if not depth[name]:
                    incl[name] += dt
                if stack:
                    stack[-1][1] += dt
            if on_return:
                on_return(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn, on_return):
        def wrapper(*args):
            result = fn(*args)
            on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _enumeration(self, fn):
        """Time the outermost NC enumeration generator; nested calls run raw."""
        tracer = self
        raw = self.raw

        def timed(it):
            while True:
                owner = tracer._stack[-1][0] if tracer._stack else "-"
                tracer._enumerating = True
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf() - t0
                    tracer._enumerating = False
                    raw["s"]["ncpart.enumerate"] += dt
                    if tracer._stack:
                        tracer._stack[-1][1] += dt
                raw["count"]["ncpart.enumerate.partitions"] += 1
                raw["count"]["enumerated@" + owner] += 1
                yield item

        def wrapper(*args):
            if tracer._enumerating:
                return fn(*args)
            return timed(fn(*args))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the layers of the imported freeunitary package."""
        import freeunitary
        from freeunitary import cumulants, ncpart, qpoly, rdiag

        count = self.raw["count"]
        mods = [m for k, m in sys.modules.items()
                if k == "freeunitary" or k.startswith("freeunitary.")]

        def replace(fn, wrapper):
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)

        def memo_hit(args, result, before):
            if len(cumulants._MOBIUS_MEMO) == before:
                count["cumulants.mobius_memo.hits"] += 1

        table = ncpart._weight_table

        def table_miss(args, result, before):
            if table.cache_info().misses > before:
                count["ncpart.weight_table.partitions"] += len(result)

        hooks = {
            "cumulants.z_mobius": (lambda a: len(cumulants._MOBIUS_MEMO), memo_hit),
            "ncpart.weight_table": (lambda a: table.cache_info().misses, table_miss),
        }
        for name, (modname, attr) in SPANS.items():
            fn = getattr(getattr(freeunitary, modname), attr)
            on_call, on_return = hooks.get(name, (None, None))
            replace(fn, self._span(name, fn, on_call, on_return))

        def mul_products(args):
            count["qpoly.poly_mul.coeff_products"] += _products(*args)

        for name, (clsname, methods) in OPERATORS.items():
            cls = getattr(qpoly, clsname)
            fn = getattr(cls, methods[0])
            wrapper = self._span(name, fn, mul_products if name == "qpoly.poly_mul" else None)
            for meth in methods:
                setattr(cls, meth, wrapper)

        replace(ncpart._parts, self._enumeration(ncpart._parts))

        def mobius_terms(args, result):
            count["cumulants.mobius_terms"] += catalan(len(args[0]))

        replace(cumulants._mobius_value, self._counting(cumulants._mobius_value, mobius_terms))

        stack = self._stack

        def connects(args, result):
            if result and stack and stack[-1][0] == "rdiag.mixed_q":
                count["rdiag.mixed_q.kept"] += 1

        replace(rdiag._connects, self._counting(rdiag._connects, connects))

        omega_cached = rdiag._nc_omega_cached
        seen = [omega_cached.cache_info().misses]

        def omega_kept(args, result):
            misses = omega_cached.cache_info().misses
            if misses > seen[0]:
                seen[0] = misses
                count["rdiag.nc_omega.kept"] += len(result)

        replace(omega_cached, self._counting(omega_cached, omega_kept))
        self._mixed_start = rdiag._mixed_cached.cache_info()

    def snapshot_caches(self):
        """Memo sizes and lru hit counts at the end of the traced section."""
        from freeunitary import cumulants, rdiag

        info = rdiag._mixed_cached.cache_info()
        count = self.raw["count"]
        count["cumulants.mobius_memo.size"] = len(cumulants._MOBIUS_MEMO)
        count["cumulants.recursive_memo.size"] = len(cumulants._RECURSIVE_MEMO)
        count["rdiag.mixed_q.hits"] = info.hits - self._mixed_start.hits
        count["rdiag.mixed_q.lookups"] = (info.hits + info.misses
                                          - self._mixed_start.hits - self._mixed_start.misses)


def merge(raws) -> dict:
    """Sum the raw tables of several traced processes."""
    out = {"calls": defaultdict(int), "s": defaultdict(float),
           "self_s": defaultdict(float), "count": defaultdict(int)}
    for raw in raws:
        for table, values in raw.items():
            for key, val in values.items():
                out[table][key] += val
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(raw) -> dict:
    """Per-layer metric values (name -> number) from a raw table."""
    calls, s, own, count = raw["calls"], raw["s"], raw["self_s"], raw["count"]
    get = lambda table, key: table.get(key, 0)
    out = {
        "ncpart.weight_table.calls": get(calls, "ncpart.weight_table"),
        "ncpart.weight_table.s": get(s, "ncpart.weight_table"),
        "ncpart.weight_table.partitions": get(count, "ncpart.weight_table.partitions"),
        "ncpart.kreweras.calls": get(calls, "ncpart.kreweras"),
        "ncpart.kreweras.s": get(s, "ncpart.kreweras"),
        "ncpart.enumerate.partitions": get(count, "ncpart.enumerate.partitions"),
        "ncpart.enumerate.s": get(s, "ncpart.enumerate"),
        "cumulants.z_mobius.calls": get(calls, "cumulants.z_mobius"),
        "cumulants.z_mobius.self_s": get(own, "cumulants.z_mobius"),
        "cumulants.mobius_terms": get(count, "cumulants.mobius_terms"),
        "cumulants.mobius_memo.hit_ratio": _ratio(
            get(count, "cumulants.mobius_memo.hits"), get(calls, "cumulants.z_mobius")),
        "cumulants.mobius_memo.size": get(count, "cumulants.mobius_memo.size"),
        "cumulants.z_recursive.calls": get(calls, "cumulants.z_recursive"),
        "cumulants.z_recursive.self_s": get(own, "cumulants.z_recursive"),
        "cumulants.recursive_memo.size": get(count, "cumulants.recursive_memo.size"),
    }
    for name in ("poly_mul", "poly_add", "quasi_mul"):
        out[f"qpoly.{name}.calls"] = get(calls, f"qpoly.{name}")
        out[f"qpoly.{name}.s"] = get(s, f"qpoly.{name}")
    out["qpoly.poly_mul.coeff_products"] = get(count, "qpoly.poly_mul.coeff_products")
    for name in ("alternating.xi_by_recursion", "alternating.xi_by_inversion",
                 "alternating.lambda_series", "alternating.lagrange_lambda",
                 "laplace.z_from_laplace", "laplace.check_f_identity",
                 "rdiag.alpha_sequence", "rdiag.beta_mobius",
                 "rdiag.beta_enumeration", "rdiag.nc_omega_structured"):
        out[name + ".s"] = get(s, name)
    out["rdiag.mixed_q.s"] = get(s, "rdiag.mixed_q")
    out["rdiag.mixed_q.hit_ratio"] = _ratio(
        get(count, "rdiag.mixed_q.hits"), get(count, "rdiag.mixed_q.lookups"))
    out["rdiag.mixed_q.useful_ratio"] = _ratio(
        get(count, "rdiag.mixed_q.kept"), get(count, "enumerated@rdiag.mixed_q"))
    candidates = get(count, "enumerated@rdiag.nc_omega")
    out["rdiag.nc_omega.s"] = get(s, "rdiag.nc_omega")
    out["rdiag.nc_omega.candidates"] = candidates
    out["rdiag.nc_omega.kept"] = get(count, "rdiag.nc_omega.kept")
    out["rdiag.nc_omega.useful_ratio"] = _ratio(get(count, "rdiag.nc_omega.kept"), candidates)
    return out
