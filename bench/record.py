"""Record the verdict fingerprints that the planted truth does not fix.

    python3 bench/record.py

Runs every case of every workload that names a `record_key` on each of
RECORD_SEEDS, checks that the fingerprint is the same on each seed and
agrees with the planted truth, and writes the fingerprints to
bench/expected.json. Run it only on the commit whose verdicts are the
reference.
"""

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RECORD_SEEDS = (1, 2, 3)


def main():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from fingerprint import as_json, fingerprint, run_op
    from workloads import WORKLOADS, make_deck

    recorded, problems = {}, []
    work = BENCH_DIR / ".work" / f"record-{os.getpid()}.json"
    work.parent.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            for seed in RECORD_SEEDS:
                for case in make_deck(workload, seed):
                    if case.record_key is None:
                        continue
                    work.write_text(case.text)
                    code, report, _ = run_op(case, work)
                    if code != 0 or report.get("violations"):
                        problems.append(f"{case.name} seed {seed}: exit {code}")
                        continue
                    fp = as_json(fingerprint(report, case.perm))
                    for key, value in as_json(case.truth).items():
                        if fp.get(key) != value:
                            problems.append(f"{case.name} seed {seed}: {key} "
                                            f"{fp.get(key)} != planted {value}")
                    previous = recorded.setdefault(case.record_key, fp)
                    if previous != fp:
                        problems.append(f"{case.name} seed {seed}: fingerprint "
                                        "depends on the seed")
                    print(f"{workload} seed {seed} {case.name}", file=sys.stderr)
    finally:
        work.unlink(missing_ok=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    lines = [f"{json.dumps(key)}: {json.dumps(recorded[key], separators=(',', ':'))}"
             for key in sorted(recorded)]
    (BENCH_DIR / "expected.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
