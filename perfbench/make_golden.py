#!/usr/bin/env python3
"""Rewrite perfbench/golden/ from the code in src/.

The committed files were written by the seed commit's code; rerun this only
when a change is meant to alter a report.  Sweeps go through the public API
(`sweep_theorem(...).to_json(include_timing=False)`), not through the CLI
path the benchmark times, so the two are independent.

Run from the repository root:  python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.chdir(ROOT)

import workloads  # noqa: E402
from matchspec.enumeration import File, sweep_theorem, verify_lemma  # noqa: E402
from matchspec.theorems import parse_theorem_token  # noqa: E402

SWEEPS = {"t11-k1": ("t11", 1, None), "t13": ("t13", None, 2),
          "t14-k1": ("t14", 1, None), "t16": ("t16", None, 2)}


def main() -> None:
    workloads.write_shuffled_fixture(seed=0)
    source = File(workloads.SHUFFLED_N8)
    for name, (token, k, min_degree) in SWEEPS.items():
        report = sweep_theorem(source, parse_theorem_token(token, k),
                               min_degree=min_degree)
        with open(os.path.join(workloads.GOLDEN_DIR, f"sweep-{name}.json"), "w") as fh:
            fh.write(report.to_json(include_timing=False))

    op = workloads.suites_op(seed=0, cache_clear=lambda: None)
    *outputs, oracle = [call() for _, call in op.steps]
    instances = {name: json.loads(out)["instances"]
                 for name, (_, out) in zip(workloads.suite_argvs(seed=0), outputs)}
    # l2.9 / l2.10 through the API as well, to cross-check the CLI grid
    for lemma in ("l2.9", "l2.10"):
        report = verify_lemma(lemma, n_values=(4, 6, 8), sources={8: source})
        if report.instances != instances[lemma]:
            raise SystemExit(f"{lemma}: API and CLI instance counts differ")
    with open(os.path.join(workloads.GOLDEN_DIR, "verify-suites.json"), "w") as fh:
        json.dump({"instances": instances, "oracle": oracle}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    os.remove(workloads.SHUFFLED_N8)


if __name__ == "__main__":
    main()
