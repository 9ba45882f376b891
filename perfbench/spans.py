"""Span tracing of the package's layers, installed from outside the package.

The package binds names with ``from .x import y``, so a wrapper has to sit
on the attribute its *caller* looks up: ``risk.reg_inc_beta`` rather than
``special.reg_inc_beta``, ``minimax.golden_section_max`` rather than
``optim.golden_section_max``.  Each wrapper records one span (name, start,
end, parent, cell) in flat arrays and bumps counters; self time is a span's
duration minus the durations of its direct children.
"""

import time
from array import array
from collections import Counter

import numpy as np

_SPAN_NAMES = (
    "cell",
    "special.reg_inc_beta",
    "special.reg_inc_beta_grid",
    "special.f_quantile",
    "risk.risk_k_coefficients",
    "risk.risk_k_coefficients_grid",
    "risk.pt_risk",
    "risk.shrink_moments",
    "optim.golden_section_max",
    "optim.brent_root",
    "minimax.optimal_alpha",
    "minimax.optimal_k",
    "minimax.sup_regret_pt",
    "minimax.sup_regret_shrink",
    "minimax.pt_risk_crossings",
    "sim.mc_compare",
    "sim.mc_oracle_risk",
)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = [-1]
        self._cell = -1
        self._installed = []

    def wrap(self, name, fn, before=None, after=None):
        """fn inside a span; before(args) may rewrite args, after(result) counts."""
        nid = _SPAN_NAMES.index(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.cell.append(self._cell)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                if before is not None:
                    args = before(args)
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                self.end[idx] = clock()
            if after is not None:
                after(result)
            return result

        return traced

    def run_cell(self, index, fn, *args):
        """Call fn(*args) as the root span of cell `index`."""
        self._cell = index
        try:
            return self.wrap("cell", fn)(*args)
        finally:
            self._cell = -1

    def _count_arg(self, key, pos, measure):
        def before(args):
            self.counts[key] += measure(args[pos])
            return args
        return before

    def _count_evals(self, key):
        def before(args):
            f = args[0]

            def counted(x):
                self.counts[key] += 1
                return f(x)

            return (counted,) + tuple(args[1:])
        return before

    def _count_fallback(self, sol):
        self.counts["minimax.fallbacks"] += bool(sol.fallback)

    def install(self):
        """Patch every traced attribute; undo with uninstall()."""
        from recshrink import estimators, minimax, risk, sim

        def mc_draws(config):
            d = config.design
            return config.replicates * (d.n1 + d.n2) * len(config.theta2_grid)

        plan = [
            (risk, "reg_inc_beta", "special.reg_inc_beta", None, None),
            (risk, "reg_inc_beta_grid", "special.reg_inc_beta_grid",
             self._count_arg("special.reg_inc_beta_grid.points", 0, np.size), None),
            (estimators, "f_quantile", "special.f_quantile", None, None),
            (minimax, "risk_k_coefficients", "risk.risk_k_coefficients", None, None),
            (minimax, "risk_k_coefficients_grid", "risk.risk_k_coefficients_grid",
             self._count_arg("risk.risk_k_coefficients_grid.points", 1, np.size), None),
            (minimax, "pt_risk", "risk.pt_risk", None, None),
            (risk, "shrink_moments", "risk.shrink_moments", None, None),
            (minimax, "golden_section_max", "optim.golden_section_max",
             self._count_evals("optim.golden_section_max.evals"), None),
            (minimax, "brent_root", "optim.brent_root",
             self._count_evals("optim.brent_root.evals"), None),
            (minimax, "optimal_alpha", "minimax.optimal_alpha", None, self._count_fallback),
            (minimax, "optimal_k", "minimax.optimal_k", None, self._count_fallback),
            (minimax, "sup_regret_pt", "minimax.sup_regret_pt", None, None),
            (minimax, "sup_regret_shrink", "minimax.sup_regret_shrink", None, None),
            (minimax, "pt_risk_crossings", "minimax.pt_risk_crossings", None, None),
            (sim, "mc_compare", "sim.mc_compare",
             self._count_arg("sim.draws", 0, mc_draws), None),
            (sim, "mc_oracle_risk", "sim.mc_oracle_risk",
             self._count_arg("sim.draws", 4, lambda reps: 2 * reps), None),
        ]
        for module, attr, name, before, after in plan:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, before, after))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def span_totals(self) -> dict:
        """{span name: (calls, self seconds)} over every recorded span."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        calls = np.bincount(names, minlength=len(_SPAN_NAMES))
        self_s = np.bincount(names, weights=own, minlength=len(_SPAN_NAMES))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(_SPAN_NAMES)}

    def write(self, path) -> None:
        """Save the raw spans as arrays (names index into `names`)."""
        np.savez(
            path,
            names=np.array(_SPAN_NAMES),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            cell=np.frombuffer(self.cell, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def layer_metrics(self, cache) -> dict:
        """Per-layer metrics by name: span counts, self times and counters."""
        totals = self.span_totals()
        c = self.counts
        out = {}
        for name in _SPAN_NAMES[1:]:
            calls, self_s = totals[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name in ("special.reg_inc_beta_grid", "risk.risk_k_coefficients_grid"):
            out[f"{name}.points"] = c[f"{name}.points"]
        for name in ("optim.golden_section_max", "optim.brent_root"):
            calls = totals[name][0]
            out[f"{name}.evals"] = c[f"{name}.evals"]
            out[f"{name}.evals_per_call"] = c[f"{name}.evals"] / calls if calls else 0.0
        lookups = cache.hits + cache.misses
        out["estimators.critical_values.calls"] = lookups
        out["estimators.critical_values.misses"] = cache.misses
        out["estimators.critical_values.hit_ratio"] = cache.hits / lookups if lookups else 0.0
        # every grid evaluation of the regret comes from a sup search: one
        # lower grid per call, the rest are upper-scan passes
        sups = totals["minimax.sup_regret_pt"][0] + totals["minimax.sup_regret_shrink"][0]
        grids = totals["risk.risk_k_coefficients_grid"][0]
        out["minimax.upper_scans_per_sup"] = grids / sups - 1.0 if sups else 0.0
        out["minimax.fallbacks"] = c["minimax.fallbacks"]
        out["minimax.search_errors"] = sum(
            c[f"minimax.{f}.errors.SearchError"] for f in ("optimal_alpha", "optimal_k")
        )
        out["sim.draws"] = c["sim.draws"]
        out["trace.spans"] = len(self.start)
        return out
