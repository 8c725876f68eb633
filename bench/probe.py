"""One-shot scale probe: how far is the desk-scale promise from met?

    python3 bench/probe.py

Runs `ergospec spectrum` once on each case below, each in its own process
under a wall budget of BUDGET_S seconds. A case over budget is killed and
recorded as `timeout`, so the probe never hangs. The probe is not a
workload and gates nothing; it writes bench/out/probe.json and prints the
same table.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUDGET_S = 60
SEED = 1
CASES = ["Z24", "Z32", "Z48", "Z64", "Z128", "T7xZ4",
         "planted:64", "planted:128", "planted:256"]


def run_case(name):
    """Child side: generate one case, run the op, print one JSON line."""
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import numpy as np
    from fingerprint import problem, run_op
    from workloads import planted_case, regular_case

    rng = np.random.default_rng([SEED, 0])
    if name.startswith("planted:"):
        case = planted_case(rng, int(name.split(":")[1]), 2, (2, 1, 1), "spectrum")
    else:
        case = regular_case(rng, name, "spectrum")
        case.record_key = None           # only the planted truth is checked
    path = BENCH_DIR / ".work" / f"probe-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        path.write_text(case.text)
        code, report, wall = run_op(case, path)
    finally:
        path.unlink(missing_ok=True)
    print(json.dumps({"wall_s": wall, "exit": code,
                      "wrong": problem(case, code, report, {})}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if args.case:
        run_case(args.case)
        return 0

    results = []
    for name in CASES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--case", name]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=BUDGET_S)
        except subprocess.TimeoutExpired:
            row = {"case": name, "status": "timeout", "budget_s": BUDGET_S}
        else:
            if done.returncode == 0:
                row = {"case": name, **json.loads(done.stdout.splitlines()[-1])}
                row["status"] = "wrong" if row["wrong"] else "ok"
            else:
                row = {"case": name, "status": "error",
                       "stderr": done.stderr.strip().splitlines()[-1:]}
        results.append(row)
        print(json.dumps(row), flush=True)
    out = BENCH_DIR / "out" / "probe.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"budget_s": BUDGET_S, "seed": SEED,
                               "cases": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
