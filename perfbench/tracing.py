"""Spans around matchspec's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
matchspec module that binds it, so calls through `from ... import` names
(`enumeration.parse_graph6`, `theorems.is_connected`, `families.are_isomorphic`,
...) are traced as well as calls through the defining module.  The program
itself is not modified; `uninstall()` puts the originals back.

Every call records one span (name, start, end, parent span, step index) in
flat arrays.  Self time is derived afterwards: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (span name, defining module, attribute).  Several attributes may share one
# span name; `graphs.structural` covers both structural filters.
TRACED = [
    ("graphs.parse_graph6", "matchspec.graphs", "parse_graph6"),
    ("graphs.structural", "matchspec.graphs", "is_connected"),
    ("graphs.structural", "matchspec.graphs", "min_degree"),
    ("graphs.are_isomorphic", "matchspec.graphs", "are_isomorphic"),
    ("spectral.spectral_radius", "matchspec.spectral", "spectral_radius"),
    ("spectral.characteristic_polynomial", "matchspec.spectral",
     "characteristic_polynomial"),
    ("spectral.largest_real_root", "matchspec.spectral", "largest_real_root"),
    ("theorems.hypothesis_status", "matchspec.theorems", "hypothesis_status"),
    ("matching.is_k_extendable", "matchspec.matching", "is_k_extendable"),
    ("matching.is_1_excludable", "matchspec.matching", "is_1_excludable"),
    ("matching.max_matching", "matchspec.matching", "max_matching"),
    ("matching.is_k_extendable_chen", "matchspec.matching", "is_k_extendable_chen"),
    ("matching.is_1_excludable_criterion", "matchspec.matching",
     "is_1_excludable_criterion"),
    ("matching.berge_tutte_deficiency", "matchspec.matching",
     "berge_tutte_deficiency"),
    ("families.recognize", "matchspec.families", "recognize"),
    ("families.build", "matchspec.families", "build"),
    ("enumeration.enumerate_connected", "matchspec.enumeration",
     "enumerate_connected"),
    ("enumeration.sweep_theorem", "matchspec.enumeration", "sweep_theorem"),
    ("cli.main", "matchspec.cli", "main"),
]
FILE_READ = "enumeration.file_read"  # File.graph6_lines, a method

# metric name -> unit.  `calls` are per operation, self times are means per
# call, `.s` metrics are inclusive seconds per operation.
PER_LAYER = {
    "graphs.parse_graph6.calls": "calls/op",
    "graphs.parse_graph6.self_us": "us/call",
    "graphs.structural.calls": "calls/op",
    "graphs.structural.self_us": "us/call",
    "graphs.are_isomorphic.calls": "calls/op",
    "graphs.are_isomorphic.self_ms": "ms/call",
    "spectral.spectral_radius.calls": "calls/op",
    "spectral.spectral_radius.self_us": "us/call",
    "spectral.characteristic_polynomial.calls": "calls/op",
    "spectral.characteristic_polynomial.self_ms": "ms/call",
    "spectral.largest_real_root.calls": "calls/op",
    "spectral.largest_real_root.self_ms": "ms/call",
    "theorems.hypothesis_status.calls": "calls/op",
    "theorems.hypothesis_status.self_us": "us/call",
    "theorems.hypothesis_met": "count/op",
    "theorems.eigensolve_yield": "ratio",
    "matching.is_k_extendable.calls": "calls/op",
    "matching.is_k_extendable.self_ms": "ms/call",
    "matching.is_1_excludable.calls": "calls/op",
    "matching.is_1_excludable.self_us": "us/call",
    "matching.max_matching.calls": "calls/op",
    "matching.max_matching.self_us": "us/call",
    "matching.is_k_extendable_chen.calls": "calls/op",
    "matching.is_k_extendable_chen.self_ms": "ms/call",
    "matching.is_1_excludable_criterion.calls": "calls/op",
    "matching.is_1_excludable_criterion.self_ms": "ms/call",
    "matching.berge_tutte_deficiency.calls": "calls/op",
    "matching.berge_tutte_deficiency.self_ms": "ms/call",
    "matching.conclusion_fail_ratio": "ratio",
    "families.recognize.calls": "calls/op",
    "families.recognize.self_ms": "ms/call",
    "families.build.calls": "calls/op",
    "enumeration.enumerate_connected.s": "s/op",
    "enumeration.file_read.s": "s/op",
    "enumeration.sweep_theorem.self_us_per_graph": "us/graph",
    "enumeration.pool_speedup_jobs2": "ratio",
    "cli.main.self_ms": "ms/call",
    "trace.overhead_frac": "ratio",
}

_SCALE = {"us": 1e6, "ms": 1e3}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.step = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_step = -1
        # (counter, step index) -> count, filled from return values
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.step.append(self.current_step)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_hypothesis(self, result) -> None:
        self.counts["hypothesis_met", self.current_step] += bool(result[0])

    def _on_conclusion(self, verdict) -> None:
        self.counts["conclusions_checked", self.current_step] += 1
        self.counts["conclusions_failed", self.current_step] += not verdict.holds

    def _on_sweep(self, report) -> None:
        self.counts["graphs_swept", self.current_step] += report.graphs_scanned

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        callbacks = {"theorems.hypothesis_status": self._on_hypothesis,
                     "matching.is_k_extendable": self._on_conclusion,
                     "matching.is_1_excludable": self._on_conclusion,
                     "enumeration.sweep_theorem": self._on_sweep}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "matchspec" or key.startswith("matchspec."))]
        for name, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, callbacks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        file_cls = sys.modules["matchspec.enumeration"].File
        original = file_cls.graph6_lines
        self._restore.append((file_cls, "graph6_lines", original))
        file_cls.graph6_lines = self._wrap(FILE_READ, original)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "step": np.frombuffer(self.step, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def count(self, counter: str, steps=None) -> int:
        return sum(v for (name, step), v in self.counts.items()
                   if name == counter and (steps is None or step in steps))

    def layer_totals(self, steps=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds.

        `steps` restricts the totals to spans of those step indices.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        keep = (np.ones(len(dur), dtype=bool) if steps is None
                else np.isin(a["step"], list(steps)))
        out = {}
        for nid, name in enumerate(self.names):
            sel = keep & (a["name"] == nid)
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        return out


def per_layer_metrics(tracer: Tracer, n_ops: int, overhead_frac: float,
                      pool_speedup: float) -> dict[str, float]:
    totals = tracer.layer_totals()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        t = totals.get(layer, zero)
        if stat == "calls":
            values[metric] = t["calls"] / n_ops
        elif stat in ("self_us", "self_ms"):
            values[metric] = ratio(t["self_s"], t["calls"]) * _SCALE[stat[5:]]
        elif stat == "s":
            values[metric] = t["total_s"] / n_ops
    sweep = totals.get("enumeration.sweep_theorem", zero)
    met = tracer.count("hypothesis_met")
    values.update({
        "theorems.hypothesis_met": met / n_ops,
        "theorems.eigensolve_yield": ratio(
            met, totals.get("spectral.spectral_radius", zero)["calls"]),
        "matching.conclusion_fail_ratio": ratio(
            tracer.count("conclusions_failed"), tracer.count("conclusions_checked")),
        "enumeration.sweep_theorem.self_us_per_graph":
            ratio(sweep["self_s"], tracer.count("graphs_swept")) * 1e6,
        "enumeration.pool_speedup_jobs2": pool_speedup,
        "trace.overhead_frac": overhead_frac,
    })
    return values
