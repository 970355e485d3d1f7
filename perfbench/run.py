#!/usr/bin/env python3
"""matchspec benchmark: one command, four workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-spectral-n8 --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
alternates untraced and traced rounds of the same operations and reports
per-layer metrics from spans recorded around matchspec's public functions
(see tracing.py).  Either way every operation's output is checked, and the last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  perfbench/README.md gives
the reason for each workload and the map from layer metrics to end-to-end
metrics.
"""

import os

# One BLAS thread, set before numpy can be imported: the load is a single
# process and eigvalsh on 8x8 matrices gains nothing from threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from functools import partial  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402  (imports no matchspec or numpy at module level)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh interpreters
POOL_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_p90": "s",
                    "graphs_per_s": "graphs/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def missing_inputs() -> list[str]:
    need = [os.path.join("src", "matchspec", "__init__.py"), workloads.FIXTURE]
    return [path for path in need if not os.path.isfile(path)]


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
#
# On a shared 2-core Intel Xeon host (Python 3.11, numpy 2.4), a fixed
# pure-Python loop took anywhere from 70 to 115 ms, in CPU time as much as
# in wall time, drifting over seconds; runs of the same code differed by
# 30% (interquartile range over median).  So every timed step is followed
# by a fixed calibration kernel, and the step's wall time is scaled by
# REFERENCE_KERNEL_S over the mean kernel time just before and just after
# it.  Times so scaled are "reference seconds": the time the step would
# take on a host that runs the kernel in exactly REFERENCE_KERNEL_S.

REFERENCE_KERNEL_S = 0.010


def calibration_kernel() -> int:
    acc, table = 0, {}
    for i in range(40_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return acc


class HostClock:
    def __init__(self):
        calibration_kernel()  # the first run pays for warming the interpreter
        self.last = self._kernel_s()

    @staticmethod
    def _kernel_s() -> float:
        t0 = perf_counter()
        calibration_kernel()
        return perf_counter() - t0

    def time(self, fn):
        """Run fn(); return (its result, wall seconds, reference seconds)."""
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        after = self._kernel_s()
        scale = REFERENCE_KERNEL_S / ((self.last + after) / 2)
        self.last = after
        return result, wall, wall * scale


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, which imports matchspec cold."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--seconds", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

class Loop:
    """Whole rounds of operations; times only the operations' steps."""

    def __init__(self, wl, clock: HostClock):
        self.wl = wl
        self.clock = clock
        self.times: list[float] = []  # reference seconds per operation
        self.walls: list[float] = []  # wall seconds per operation
        self.outputs: list[str | None] = []
        self.step_kinds: list[str] = []
        self.graphs = 0
        self.failed = 0

    def run(self, seconds: float) -> None:
        start = perf_counter()
        r = 0
        while r == 0 or perf_counter() - start < seconds:
            self.run_round(r)
            r += 1

    def run_round(self, r: int, before_step=None) -> None:
        for op in self.wl.rounds[r % len(self.wl.rounds)]:
            raws, wall, ref = [], 0.0, 0.0
            try:
                for kind, call in op.steps:
                    if before_step is not None:
                        before_step(len(self.step_kinds))
                    self.step_kinds.append(kind)
                    raw, w, t = self.clock.time(call)
                    raws.append(raw)
                    wall += w
                    ref += t
                self.outputs.append(op.check(raws))
                self.graphs += op.graphs
            except Exception:  # one failed operation must not end the run
                self.outputs.append(None)
                self._fail(f"operation {len(self.times)} (step "
                           f"{self.step_kinds[-1]})")
            self.times.append(ref)
            self.walls.append(wall)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def pool_speedup() -> tuple[float, int, int]:
    """t16 wall at jobs=1 over wall at jobs=2, with at most nproc workers.

    Returns the ratio, the number of sweeps run and the number of them
    whose report differs from the golden one.
    """
    from matchspec.enumeration import File, sweep_theorem
    from matchspec.theorems import TheoremId
    workers = min(2, len(os.sched_getaffinity(0)))
    path = f"{workloads.WORK_DIR}/pool_n8.g6"
    workloads.write_shuffled_fixture(seed=0, path=path)
    golden = json.loads(workloads.load_golden("sweep-t16.json"))
    golden["source"] = f"file:{path}"
    walls: dict[int, list[float]] = {1: [], workers: []}
    failed = 0
    try:
        for _ in range(POOL_REPEATS):
            for jobs in walls:
                t0 = perf_counter()
                report = sweep_theorem(File(path), TheoremId("t16"),
                                       min_degree=2, jobs=jobs)
                walls[jobs].append(perf_counter() - t0)
                if report.to_json_dict(include_timing=False) != golden:
                    failed += 1
                    print(f"FAILED t16 sweep at jobs={jobs}: report differs "
                          "from golden", file=sys.stderr)
    finally:
        os.remove(path)
    ratio = statistics.median(walls[1]) / statistics.median(walls[workers])
    return ratio, sum(len(ws) for ws in walls.values()), failed


def traced_run(wl, clock: HostClock, seconds: float, name: str):
    """Untraced and traced rounds alternate, so both see the same host speed."""
    import tracing

    speedup, pool_sweeps, pool_failed = pool_speedup()
    tracer = tracing.Tracer()
    untraced, traced = Loop(wl, clock), Loop(wl, clock)

    def mark(idx: int) -> None:
        tracer.current_step = idx

    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        untraced.run_round(r)
        tracer.install()
        try:
            traced.run_round(r, before_step=mark)
        finally:
            tracer.uninstall()
        r += 1
    for i, (a, b) in enumerate(zip(untraced.outputs, traced.outputs)):
        if a is not None and b is not None and a != b:
            traced.failed += 1
            print(f"FAILED operation {i}: traced output differs from untraced",
                  file=sys.stderr)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    tracer.save(os.path.join(workloads.WORK_DIR, f"spans-{name}.npz"))

    overhead = sum(traced.times) / sum(untraced.times) - 1.0
    metrics = tracing.per_layer_metrics(tracer, len(traced.times), overhead, speedup)
    print_kind_breakdown(tracer, traced.step_kinds)
    attempted = len(untraced.times) + len(traced.times) + pool_sweeps
    failed = untraced.failed + traced.failed + pool_failed
    units = tracing.PER_LAYER
    return attempted, failed, {k: (metrics[k], units[k]) for k in units}


def print_kind_breakdown(tracer, kinds: list[str]) -> None:
    """Exact counts per step for each kind of step (t14, l2.9, ...)."""
    layers = ("graphs.parse_graph6", "spectral.spectral_radius",
              "matching.is_k_extendable_chen", "matching.is_1_excludable_criterion",
              "matching.berge_tutte_deficiency")
    for kind in sorted(set(kinds)):
        steps = {i for i, k in enumerate(kinds) if k == kind}
        totals = tracer.layer_totals(steps)
        parts = [f"{layer}.calls={totals.get(layer, {'calls': 0})['calls'] / len(steps):g}"
                 for layer in layers]
        parts.append(f"theorems.hypothesis_met="
                     f"{tracer.count('hypothesis_met', steps) / len(steps):g}")
        print(f"per-step counts [{kind}, {len(steps)} steps]: " + " ".join(parts))


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def provenance() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass  # checkouts without git metadata: src_sha256 identifies the code
    digest = hashlib.sha256()
    pkg = os.path.join("src", "matchspec")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    missing = missing_inputs()
    if missing:
        print("error: run from a matchspec checkout; missing " + ", ".join(missing),
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    build = partial(workloads.build, args.workload, args.seed)
    if args.setup_probe:
        wl, _, ref = HostClock().time(build)
        wl.cleanup()
        print(repr(ref))
        return 0

    setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    clock = HostClock()
    wl, _, ref = clock.time(build)
    setups.append(ref)
    notes = []
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(wl, clock, args.seconds,
                                                    args.workload)
        else:
            loop = Loop(wl, clock)
            loop.run(seconds=args.seconds)
            attempted, failed = len(loop.times), loop.failed
            notes.append(f"unscaled wall time per operation: median "
                         f"{statistics.median(loop.walls):.6g} s, 90th percentile "
                         f"{quantile(loop.walls, 90):.6g} s")
            values = {
                "setup_s": statistics.median(setups),
                "op_s_p50": statistics.median(loop.times),
                "op_s_p90": quantile(loop.times, 90),
                "graphs_per_s": loop.graphs / sum(loop.times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    finally:
        wl.cleanup()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {attempted}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<48} {value:>14.6g} {unit}")
    print(f"  {'ops_failed_frac':<48} {failed / attempted:>14.6g} "
          f"({failed}/{attempted})")
    for note in notes:
        print(f"  {note}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
