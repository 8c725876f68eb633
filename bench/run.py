"""Run one benchmark workload of ergospec and print its metrics.

    python3 bench/run.py --workload finite_small --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
`src/`. One op is the in-process equivalent of
`ergospec analyze <input.json> --format json` (or `ergospec spectrum ...`
on `large_spectrum`): the CLI entry point reads and parses the input,
analyzes it and serializes the report. An op passes when the exit code is
0, the report has no violations, it ends within its wall budget and its
verdict fingerprint matches the planted truth, completed by the
fingerprints recorded at the seed commit in `expected.json`. The result
is correct only if every op passes.

The seed draws one deck of cases (see workloads.py), and the run repeats
that deck in passes until `--seconds` have passed; only an untraced run
may stop inside a pass, and never inside the first. Every op is timed
in reference seconds (see calibration.py): its wall time scaled by how
fast the host ran a fixed kernel just before and after it, so that other
tenants slowing the host do not show as a slower program. A case's op
time is the median of its repetitions on its own input. `--trace 0`
prints the end-to-end metrics, `--trace 1` the per-layer metrics; there
every untraced pass over the deck is followed by a traced one. The last
line of standard output is the result object; the line before it records
the environment and the details, raw wall times among them.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = 1            # at most nproc; one thread is the steadiest
SETUP_REPEATS = 5
GLOBAL_BUDGET_S = 150       # no op starts after this; the run must end by 180 s
OP_BUDGET_S = {"finite_small": 15, "free_analyze": 15, "large_spectrum": 60}
P90_MIN_OPS = 100           # so that at least 10 samples lie beyond the p90

END_TO_END = {
    "analyze_s_p50": "s",
    "analyses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "kernel.svd.calls", "kernel.svd.self_s", "kernel.svd.u_entries",
    "linalg.subspace_intersect.self_s", "linalg.null_space.calls",
    "linalg.joint_block_decomposition.calls",
    "linalg.joint_block_decomposition.self_s",
    "kernel.schur.calls", "kernel.schur.self_s", "kernel.eigvals.calls",
    "kernel.qr.calls", "kernel.solve.calls",
    "spectrum.unitary_spectrum.calls", "ergodic.is_pole.calls",
    "ergodic.mean_ergodic_analysis.calls",
    "ergodic.peripheral_decomposition.calls",
    "characters.char_distance.calls", "characters.nearest_character.calls",
    "characters.enumerate_unitary_dual.calls",
    "linalg.operator_norm.calls", "linalg.operator_norm.self_s",
    "positivity.nisa_suite.total_s",
    "representations.validate_representation.self_s",
    "representations.certify_boundedness.calls",
    "spectrum.eigenspace.nonzero_ratio", "ergodic.cesaro_useful_ratio",
    "serialize.self_s", "representations.self_s", "semigroups.self_s",
    "characters.self_s", "linalg.self_s", "spectrum.self_s", "ergodic.self_s",
    "positivity.self_s", "report.self_s", "kernel.self_s",
    "trace.overhead_frac",
]


class OpTimeout(BaseException):
    """Raised inside an op that exceeds its wall budget. A BaseException,
    so that no `except Exception` in the package swallows it."""


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def percentile(values, q):
    """The q-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def p90_if_supported(values):
    """The 90th percentile, or None unless at least 10 samples lie beyond it."""
    if len(values) < P90_MIN_OPS:
        return None
    return percentile(values, 0.9)


def cesaro_steps(report, target):
    """(doubling steps up to the first that meets `target`, steps run) of
    the report's Cesaro trace; (0, 0) when the op ran no chain."""
    trace = report.get("ergodic", {}).get("cesaro_trace") or []
    for index, row in enumerate(trace):
        if row["composed"] is not None and row["composed"] <= target:
            return index + 1, len(trace)
    return 0, len(trace)


def git_commit(root):
    """The commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_seconds(src):
    """Time of `import ergospec.cli` in a fresh interpreter, which is
    what every CLI invocation pays before it does any work."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import ergospec.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def environment(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
    }


class Runner:
    """Executes ops, checks their outputs and counts the failures."""

    def __init__(self, workload, recorded, started):
        from calibration import Clock
        from ergospec import cli
        from ergospec.config import DEFAULT_CONFIG
        self.cli = cli
        self.target = DEFAULT_CONFIG.cesaro_target
        self.workload = workload
        self.recorded = recorded
        self.hard_stop = started + GLOBAL_BUDGET_S
        self.attempted = 0
        self.failures = []
        self.clock = Clock()

    def execute(self, case, path, tracer=None, calibrated=True):
        """Run one op. Returns (reference seconds, wall seconds, report), or
        (None, None, None) after recording in `failures` why the op failed.
        Uncalibrated, the reference seconds are the wall seconds."""
        from fingerprint import problem, run_op
        self.attempted += 1
        budget = min(OP_BUDGET_S[self.workload], self.hard_stop - time.perf_counter())
        if budget <= 0:
            return self._fail(case, "not started, run budget spent")
        main = tracer.wrap("bench.op", self.cli.main) if tracer else self.cli.main

        def op():
            code, report, wall = run_op(case, path, main)
            return (code, report), wall

        try:
            with deadline(budget):
                if calibrated:
                    (code, report), seconds, wall = self.clock.time(op)
                else:
                    (code, report), wall = op()
                    seconds = wall
        except OpTimeout:
            return self._fail(case, f"over its {budget:.3g} s budget")
        except Exception as exc:  # a crashing op fails like a wrong one
            return self._fail(case, f"raised {exc!r}")
        wrong = problem(case, code, report, self.recorded)
        if wrong:
            return self._fail(case, wrong)
        return seconds, wall, report

    def _fail(self, case, why):
        self.failures.append(f"{case.name}: {why}")
        return None, None, None


def timing_metrics(times):
    """`analyze_s_p50` and `analyses_per_s` from each case's op time (None
    for a case that never passed). None unless every case passed at least
    once, so that a case that fails cannot make the metrics better."""
    if not times or None in times:
        return None
    return {"analyze_s_p50": statistics.median(times),
            "analyses_per_s": len(times) / sum(times)}


def fold_spans(spans, totals):
    """Add each span's call, self time and inclusive time to `totals`,
    keyed by (kind, span name), and its self time to its layer's."""
    from tracer import self_times
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        totals["calls", name] += 1
        totals["self_s", name] += own
        totals["total_s", name] += span[2] - span[1]
        totals["layer_self_s", name.split(".")[0]] += own


def layer_metrics(totals, counters, op_count, cesaro, overhead):
    """The per-layer metrics, per traced op except the ratios."""
    summed = defaultdict(float)
    for (_, counter), value in counters.items():
        summed[counter] += value
    useful = sum(u for u, _ in cesaro)
    steps = sum(s for _, s in cesaro)

    def value(metric):
        base, _, kind = metric.rpartition(".")
        if metric == "trace.overhead_frac":
            return overhead
        if metric == "ergodic.cesaro_useful_ratio":
            return useful / steps if steps else 0.0
        if metric == "spectrum.eigenspace.nonzero_ratio":
            made = totals["calls", "spectrum.eigenspace"]
            return summed["spectrum.eigenspace.nonzero"] / made if made else 0.0
        if kind == "self_s" and "." not in base:
            return totals["layer_self_s", base] / op_count
        if kind in ("calls", "self_s", "total_s"):
            return totals[kind, base] / op_count
        return summed[metric] / op_count

    return {m: value(m) for m in PER_LAYER}


def case_medians(times):
    """Each case's median op time over its repetitions, None if it has none."""
    return [statistics.median(ts) if ts else None for ts in times]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "ergospec" / "__init__.py").is_file():
        print(f"error: no ergospec package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ergospec
    import ergospec.cli  # noqa: F401
    if Path(ergospec.__file__).resolve().parent != (src / "ergospec").resolve():
        print(f"error: imported ergospec from {ergospec.__file__}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    from calibration import Clock
    from tracer import Tracer, write_jsonl
    from workloads import WORKLOADS, make_deck
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    recorded = json.loads((BENCH_DIR / "expected.json").read_text())
    work_dir = BENCH_DIR / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        runner = Runner(args.workload, recorded, started)

        # set-up, on one CPU, so that the import's child process runs where
        # the kernel is timed: import in a fresh interpreter; generate and
        # serialize the deck, then one warm-up op
        os.sched_setaffinity(0, {cpus[0]})
        clock = Clock()

        def import_once():
            wall = import_seconds(src)
            return wall, wall

        def set_up():
            start = time.perf_counter()
            deck = make_deck(args.workload, args.seed)
            paths = [work_dir / f"case{index}.json" for index in range(len(deck))]
            for case, path in zip(deck, paths):
                path.write_text(case.text)
            runner.execute(deck[0], paths[0], calibrated=False)
            return (deck, paths), time.perf_counter() - start

        imports = [clock.time(import_once)[1:] for _ in range(SETUP_REPEATS)]
        setups = []
        for _ in range(SETUP_REPEATS):
            (deck, paths), seconds, wall = clock.time(set_up)
            setups.append((seconds, wall))
        setup_s = (statistics.median(s for s, _ in imports)
                   + statistics.median(s for s, _ in setups))

        untraced = [[] for _ in deck]
        untraced_walls = [[] for _ in deck]
        traced = [[] for _ in deck]
        cesaro = []
        tracer = Tracer() if args.trace else None
        totals = defaultdict(float)
        first_spans = None
        passes = 0
        measure_start = time.perf_counter()

        def time_up():
            return time.perf_counter() - measure_start >= args.seconds

        while not runner.failures:
            # rotate the passes over the allowed CPUs, so that a CPU slowed
            # by another tenant for a while slows at most every other pass
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            for index, (case, path) in enumerate(zip(deck, paths)):
                # untraced runs end on time, inside a pass after the first;
                # traced runs keep whole passes, so that counts per op repeat
                if tracer is None and passes > 0 and time_up():
                    break
                seconds, wall, report = runner.execute(case, path)
                if seconds is not None:
                    untraced[index].append(seconds)
                    untraced_walls[index].append(wall)
                    if passes == 0:
                        cesaro.append(cesaro_steps(report, runner.target))
            if tracer is not None:
                tracer.install()
                try:
                    for index, (case, path) in enumerate(zip(deck, paths)):
                        tracer.op = passes * len(deck) + index
                        seconds, _, _ = runner.execute(case, path, tracer)
                        if seconds is not None:
                            traced[index].append(seconds)
                finally:
                    tracer.uninstall()
                # fold each pass into the totals, so memory stays bounded
                if first_spans is None:
                    first_spans = list(tracer.spans)
                fold_spans(tracer.spans, totals)
                tracer.spans.clear()
            passes += 1
            if time_up():
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        os.sched_setaffinity(0, cpus)

    timing = timing_metrics(case_medians(untraced))
    failed = len(runner.failures)
    correct = failed == 0 and timing is not None
    walls = [w for ws in untraced_walls for w in ws]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cases": len(deck), "passes": passes, "ops_timed": len(walls),
        "failed_frac": failed / runner.attempted, "failures": runner.failures[:20],
        "case_s": {case.name: t for case, t in zip(deck, case_medians(untraced))},
        "wall_timing": timing_metrics(case_medians(untraced_walls)),
    }
    if not args.trace:
        metrics = dict(timing or {})
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        details["op_s_p50"] = statistics.median(walls) if walls else None
        details["op_s_p90"] = p90_if_supported(walls)
        details["op_samples"] = len(walls)
        details["import_s"] = [s for s, _ in imports]
        details["import_wall_s"] = [w for _, w in imports]
        details["setup_repeats_s"] = [s for s, _ in setups]
        details["setup_repeats_wall_s"] = [w for _, w in setups]
        units = END_TO_END
    else:
        traced_timing = timing_metrics(case_medians(traced))
        overhead = None
        if timing is not None and traced_timing is not None:
            overhead = timing["analyses_per_s"] / traced_timing["analyses_per_s"] - 1
        op_count = max(1, sum(len(ws) for ws in traced))
        metrics = layer_metrics(totals, tracer.counters, op_count, cesaro, overhead)
        spans_path = BENCH_DIR / "out" / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        write_jsonl(first_spans or [], spans_path)
        details["spans"] = str(spans_path.relative_to(ROOT))
        units = {m: "s" if m.endswith("_s") else
                 "count" if m.endswith((".calls", ".u_entries")) else "ratio"
                 for m in PER_LAYER}
    details["environment"] = environment(np, scipy)
    print(json.dumps({"info": details}))
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if metrics.get(name) is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
