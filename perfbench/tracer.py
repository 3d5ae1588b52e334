"""Per-layer tracing of hfock from the outside.

``Tracer.install()`` replaces every public function of every hfock module by
a wrapper that records a span (name, start, end, parent).  A function is
wrapped once and the wrapper is bound wherever the function is: in its own
module, in every module that imported it by name, and in module-level dicts
such as ``verify.SUITES``, so calls made inside the package are seen too.
Spans are kept in flat arrays in memory and reduced to the per-layer
metrics when the run ends.
"""
from __future__ import annotations

import importlib
import json
import time
from array import array

MODULES = ("numerics", "expint", "moments", "space", "bargmann", "lerch", "dbar",
           "verify", "golden", "cli")

VERIFY_SUITES = ("numerics", "expint", "moments", "hfock", "bargmann", "lerch", "dbar")

# layer -> functions (module.attribute) whose spans make up the layer
LAYERS = {
    "numerics.gauss_rule": ("numerics.gauss_laguerre", "numerics.gauss_hermite"),
    "numerics.integrate": ("numerics.integrate_semi_infinite",),
    "numerics.min_eig": ("numerics.min_eig_hermitian",),
    "space.build_gram": ("space.build_gram",),
    "moments.table": ("moments.log_eta_sequence", "moments.residual_sequence"),
    "space.efun": ("space.efun",),
    "moments.eta_quadrature": ("moments.eta_quadrature",),
    "moments.generating_series": ("moments.generating_series",),
    "expint.e1": ("expint.e1",),
    "expint.en_family": ("expint.en_family",),
    "expint.laplace_en": ("expint.laplace_en",),
    "bargmann.hermite_psi": ("bargmann.hermite_psi",),
    "bargmann.bargmann_kernel": ("bargmann.bargmann_kernel",),
    "lerch.phi": ("lerch.phi",),
    "lerch.hurwitz_zeta_integral": ("lerch.hurwitz_zeta_integral",),
    "dbar.dbar_residual": ("dbar.dbar_residual",),
}
LAYERS.update({f"verify.{s}": (f"verify.suite_{s}",) for s in VERIFY_SUITES})

# lru-cached layers whose cache misses are counted as builds
CACHED = {"numerics.gauss_rule": LAYERS["numerics.gauss_rule"],
          "moments.table": LAYERS["moments.table"]}

# the per-layer metrics, in the order BENCHMARK.json lists them
METRICS = (
    ("numerics.gauss_rule.s", "s"), ("numerics.gauss_rule.builds", "count"),
    ("numerics.integrate.s", "s"), ("numerics.integrate.calls", "count"),
    ("numerics.integrate.evals", "count"),
    ("numerics.min_eig.s", "s"), ("space.build_gram.self_s", "s"),
    ("space.build_gram.entries", "count"),
    ("moments.table.s", "s"), ("moments.table.calls", "count"),
    ("moments.table.builds", "count"),
    ("space.efun.s", "s"), ("space.efun.calls", "count"),
    ("moments.eta_quadrature.s", "s"), ("moments.generating_series.s", "s"),
    ("expint.e1.s", "s"), ("expint.e1.calls", "count"),
    ("expint.en_family.s", "s"), ("expint.en_family.calls", "count"),
    ("expint.laplace_en.s", "s"), ("expint.laplace_en.calls", "count"),
    ("bargmann.hermite_psi.s", "s"), ("bargmann.bargmann_kernel.s", "s"),
    ("lerch.phi.s", "s"), ("lerch.phi.calls", "count"),
    ("lerch.hurwitz_zeta_integral.s", "s"),
) + tuple((f"verify.{s}.s", "s") for s in VERIFY_SUITES) + (
    ("dbar.dbar_residual.s", "s"), ("cli.import.s", "s"),
)


def _is_traceable(name: str, value) -> bool:
    if name.startswith("_") or isinstance(value, type) or not callable(value):
        return False
    return getattr(value, "__module__", "").startswith("hfock.")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.evals = 0          # nodes_used summed over integrate_semi_infinite
        self.entries = 0        # Gram entries requested from build_gram
        self._originals: dict[str, object] = {}
        self._miss0: dict[str, int] = {}

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        mods = {m: importlib.import_module(f"hfock.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> wrapper
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if not _is_traceable(attr, value):
                    continue
                home = value.__module__.rpartition(".")[2]
                qualname = f"{home}.{getattr(value, '__name__', attr)}"
                if id(value) not in wrappers:
                    self._originals[qualname] = value
                    wrappers[id(value)] = self._wrap(qualname, value)
                setattr(mod, attr, wrappers[id(value)])
        for mod in mods.values():
            for value in vars(mod).values():
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]
        self.reset()

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        t0, t1, names, parents, stack = self.t0, self.t1, self.span_name, self.span_parent, self._stack
        clock = time.perf_counter
        is_integrate = qualname == "numerics.integrate_semi_infinite"
        is_gram = qualname == "space.build_gram"

        def wrapper(*args, **kwargs):
            idx = len(t0)
            names.append(nid)
            parents.append(stack[-1])
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError as exc:
                if is_integrate and getattr(exc, "result", None) is not None:
                    self.evals += exc.result.nodes_used
                raise
            finally:
                t1[idx] = clock()
                stack.pop()
            if is_integrate:
                self.evals += result.nodes_used
            elif is_gram:
                m = len(result.points)
                self.entries += m * (m + 1) // 2
            return result

        return wrapper

    def reset(self) -> None:
        """Drop the spans and counts so far (the warm-up pass)."""
        for arr in (self.span_name, self.span_parent, self.t0, self.t1):
            del arr[:]
        self.evals = self.entries = 0
        if self._originals:
            self._miss0 = {f: self._misses(f) for fns in CACHED.values() for f in fns}

    def _misses(self, qualname: str) -> int:
        return self._originals[qualname].cache_info().misses

    # -- reduction --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans recorded since the last reset.

        ``.s`` and ``.calls`` count a layer's outermost spans (a layer
        called from inside itself counts once); ``.self_s`` is the time of
        its spans not covered by their child spans.
        """
        fn_layer = {f: layer for layer, fns in LAYERS.items() for f in fns}
        layer_of = {nid: fn_layer.get(q) for nid, q in enumerate(self.names)}
        out = {name: 0.0 for name, _ in METRICS}
        n = len(self.t0)
        child_time = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += self.t1[i] - self.t0[i]
        for i in range(n):
            layer = layer_of[self.span_name[i]]
            if layer is None:
                continue
            dur = self.t1[i] - self.t0[i]
            if f"{layer}.self_s" in out:
                out[f"{layer}.self_s"] += dur - child_time[i]
            p = self.span_parent[i]
            while p >= 0 and layer_of[self.span_name[p]] != layer:
                p = self.span_parent[p]
            if p < 0:
                for key, inc in ((f"{layer}.s", dur), (f"{layer}.calls", 1)):
                    if key in out:
                        out[key] += inc
        out["numerics.integrate.evals"] = float(self.evals)
        out["space.build_gram.entries"] = float(self.entries)
        for layer, fns in CACHED.items():
            out[f"{layer}.builds"] = float(sum(self._misses(f) - self._miss0[f] for f in fns))
        return out

    def dump(self, path: str, metrics: dict) -> None:
        """Write the raw spans (``path``.npz) and the metrics (``path``.json)."""
        import numpy as np

        np.savez(path + ".npz", names=np.array(self.names), name=np.asarray(self.span_name),
                 parent=np.asarray(self.span_parent), t0=np.asarray(self.t0),
                 t1=np.asarray(self.t1))
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=1, sort_keys=True)
