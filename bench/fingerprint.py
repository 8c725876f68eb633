"""One op, the verdict fingerprint of its report, and the check of that
fingerprint against the truth.

A fingerprint keeps the verdicts of a report and drops everything that
may legitimately change (bases, residuals, timings, character order).
Finite-monoid characters are written by their exact angles in the
canonical labeling of the benchmark's generator, so the fingerprint of a
relabeled regular representation does not depend on the seed. Characters
of N^k are written by their generator values rounded to 6 decimals.
"""

import contextlib
import io
import json
import time

from workloads import gen_value_key


def run_op(case, path, main=None):
    """Run one op on the case's input, already written to `path`, through
    the CLI entry point `main` (default `ergospec.cli.main`). Returns
    (exit code, report or None if the exit code is not 0, wall seconds)."""
    if main is None:
        from ergospec.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = main([case.command, str(path), "--format", "json"])
        wall = time.perf_counter() - start
    return code, json.loads(out.getvalue()) if code == 0 else None, wall


def _char_key(entry, perm):
    if "angles" in entry:
        angles = [f"{p}/{q}" for p, q in entry["angles"]]
        return [angles[label] for label in perm]
    return [gen_value_key(complex(v["re"], v["im"])) for v in entry["gen_values"]]


def fingerprint(report, perm=None):
    """The verdict fingerprint of an `analyze` or `spectrum` report."""
    spectrum = report["unitary_spectrum"]
    keys = [_char_key(c, perm) for c in spectrum["characters"]]
    fp = {"count": spectrum["count"],
          "characters": sorted([key, dim] for key, dim
                               in zip(keys, spectrum["eigenspace_dims"]))}
    if "ergodic" in report:
        fp["fix_dim"] = report["ergodic"]["fix_dim"]
        fp["ume"] = report["ergodic"]["is_uniformly_mean_ergodic"]
    if "poles" in report:
        fp["poles"] = sorted(row["status"] for row in report["poles"])
    if "peripheral_decomposition" in report:
        fp["reversible_dim"] = report["peripheral_decomposition"]["reversible_dim"]
        fp["stable_dim"] = report["peripheral_decomposition"]["stable_dim"]
    if "stability" in report:
        fp["stability"] = report["stability"]["status"]
    if "quasi_compactness" in report:
        fp["quasi_compact"] = report["quasi_compactness"]["status"]
    if "positivity" in report:
        fp["nisa_agree"] = report["positivity"].get("nisa", {}).get("agree")
    return fp


def as_json(obj):
    """The object as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(obj))


def expected_fingerprint(case, recorded):
    """The planted truth, completed by the fingerprint recorded at the seed
    commit where the case names one. None if that record is missing."""
    expected = {}
    if case.record_key is not None:
        if case.record_key not in recorded:
            return None
        expected.update(recorded[case.record_key])
    expected.update(case.truth)
    return as_json(expected)


def mismatches(fp, expected):
    """Names of the expected fields the fingerprint gets wrong."""
    if expected is None:
        return ["no recorded fingerprint"]
    fp = as_json(fp)
    return sorted(key for key, value in expected.items() if fp.get(key) != value)


def problem(case, code, report, recorded):
    """What is wrong with an op's output, or None if it passes."""
    if code != 0:
        return f"exit code {code}"
    if report.get("violations"):
        return f"violations {report['violations']}"
    wrong = mismatches(fingerprint(report, case.perm), expected_fingerprint(case, recorded))
    return f"fingerprint mismatch in {wrong}" if wrong else None
