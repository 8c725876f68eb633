"""Every fixture's `analyze` verdicts, compared exactly with a recorded file.

`fixture_verdicts.json` holds, per fixture, the exit code, the violations
and every verdict of the report that is not a float: characters as exact
angles or as generator values rounded to 6 decimals, dimensions, statuses
and flags. Float residuals and bases stay out, so a different BLAS build
cannot change what the test compares.

Re-record only on purpose, after a change meant to alter verdicts:

    PYTHONPATH=src python tests/test_fixture_verdicts.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from ergospec.cli import main

from conftest import FIXTURES, REPO

RECORDED = FIXTURES.parent / "tests" / "fixture_verdicts.json"
NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def _character(entry):
    if "angles" in entry:
        return [f"{p}/{q}" for p, q in entry["angles"]]
    # adding 0.0 turns a rounded -0.0 into 0.0
    return [[round(v["re"], 6) + 0.0, round(v["im"], 6) + 0.0]
            for v in entry["gen_values"]]


def verdicts(name):
    """The exit code and the float-free verdicts of `analyze` on a fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", str(FIXTURES / f"{name}.json"), "--format", "json"])
    report = json.loads(out.getvalue())
    spectrum = report["unitary_spectrum"]
    ergodic = report["ergodic"]
    decomposition = report["peripheral_decomposition"]
    positivity = report["positivity"]
    return {
        "exit_code": code,
        "violations": report["violations"],
        "characters": [_character(c) for c in spectrum["characters"]],
        "eigenspace_dims": spectrum["eigenspace_dims"],
        "fix_dim": ergodic["fix_dim"],
        "is_uniformly_mean_ergodic": ergodic["is_uniformly_mean_ergodic"],
        "poles": [[row["status"], row["complement_clear"]] for row in report["poles"]],
        "reversible_dim": decomposition["reversible_dim"],
        "stable_dim": decomposition["stable_dim"],
        "stability": report["stability"]["status"],
        "quasi_compactness": report["quasi_compactness"]["status"],
        "is_positive": positivity["is_positive"],
        "nisa": positivity["nisa"],
    }


def test_every_fixture_is_recorded():
    assert sorted(json.loads(RECORDED.read_text())) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_fixture_verdicts_match_the_record(name):
    assert verdicts(name) == json.loads(RECORDED.read_text())[name]


# prints each fixture's `analyze` report without its timings, one a line
REPORTS = """
import sys
from ergospec.report import analyze
from ergospec.serialize import canonical_dumps, load_representation
for path in sys.argv[1:]:
    report = analyze(load_representation(path)).to_json()
    del report["timings"]
    print(canonical_dumps(report))
"""


def test_reports_do_not_depend_on_the_blas_thread_count():
    paths = [str(FIXTURES / f"{name}.json") for name in NAMES]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", REPORTS, *paths], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == len(NAMES)
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    RECORDED.write_text(json.dumps({name: verdicts(name) for name in NAMES},
                                   indent=1, sort_keys=True) + "\n")
