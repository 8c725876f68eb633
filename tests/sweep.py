"""Capture the `analyze` reports of a fixed deck of inputs, and compare two
captures.

    PYTHONPATH=src python tests/sweep.py OUT
    python tests/sweep.py --compare A B

The deck is the 9 fixtures, `random_certified_instance` seeds 0-299 and
`random_circulant_stochastic_instance` seeds 0-99, each analyzed at the
default configuration. A capture holds one line per input: its name and its
report, `timings` excluded, as canonical JSON. To compare two checkouts,
capture once with each one's `src` on PYTHONPATH.

`--compare` prints every input whose verdicts, spectrum or pole statuses
differ between the captures, then the counts of those inputs, of the
byte-identical reports and of the reports that differ only elsewhere. It
exits 1 when any input differs in those, or is missing from one capture.
This file is a script, not a test module: pytest does not collect it.
"""

import argparse
import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _inputs():
    """(name, representation) of every input of the deck, in order."""
    from ergospec.ensembles import (
        random_certified_instance,
        random_circulant_stochastic_instance,
    )
    from ergospec.serialize import load_representation

    for path in sorted(FIXTURES.glob("*.json")):
        yield path.stem, load_representation(str(path))
    for seed in range(300):
        yield f"certified-{seed}", random_certified_instance(seed)[0]
    for seed in range(100):
        yield f"circulant-{seed}", random_circulant_stochastic_instance(seed)


def capture(out):
    from ergospec.report import analyze
    from ergospec.serialize import canonical_dumps

    count = 0
    with open(out, "w") as fh:
        for name, rep in _inputs():
            data = dict(analyze(rep).to_json())
            data.pop("timings", None)
            fh.write(canonical_dumps({"name": name, "report": data}) + "\n")
            count += 1
    print(f"{count} reports written to {out}")


def _load(path):
    """The lines of a capture by input name, in their order."""
    with open(path) as fh:
        return {json.loads(line)["name"]: line for line in fh}


def _picked(entry, keys):
    """The given keys of a report section, or the section's error."""
    if entry is None:
        return None
    if "error" in entry:
        return {"error": entry["error"]}
    return {key: entry.get(key) for key in keys}


def summary(report):
    """The verdicts, spectrum and pole statuses of one report, the parts that
    a comparison must find equal."""
    spectrum = report.get("unitary_spectrum")
    positivity = report.get("positivity")
    return {
        "boundedness": _picked(report.get("boundedness"), ("status", "witness")),
        "spectrum": _picked(spectrum, ("characters", "eigenspace_dims")),
        "poles": [(row["status"], row["eigenspace_dim"], row["riesz"], row["complement_clear"])
                  for row in report.get("poles", [])],
        "ergodic": _picked(report.get("ergodic"),
                           ("is_uniformly_mean_ergodic", "fix_dim", "range_dim",
                            "net_divergence")),
        "decomposition": _picked(report.get("peripheral_decomposition"),
                                 ("reversible_dim", "stable_dim", "stability_witness")),
        "stability": _picked(report.get("stability"),
                             ("status", "witness", "budget_exceeded", "zero_in_range")),
        "quasi_compactness": _picked(report.get("quasi_compactness"),
                                     ("status", "riesz_all", "decomposition_consistent")),
        "positivity": None if positivity is None else {
            "is_positive": positivity["is_positive"],
            "nisa": positivity.get("nisa"),
            "domination": _picked(positivity.get("domination"), ("fix_dim", "profile"))},
        "violations": report.get("violations"),
    }


def compare(first, second):
    a, b = _load(first), _load(second)
    names = [*a, *(name for name in b if name not in a)]
    differing = identical = 0
    for name in names:
        if name not in a or name not in b:
            print(f"{name}: only in {first if name in a else second}")
            differing += 1
            continue
        if a[name] == b[name]:
            identical += 1
            continue
        left, right = (summary(json.loads(line)["report"]) for line in (a[name], b[name]))
        for part in left:
            if left[part] != right[part]:
                print(f"{name}: {part}\n  {first}: {left[part]}\n  {second}: {right[part]}")
        differing += left != right
    print(f"{len(names)} inputs: {differing} differ in verdicts, spectrum or pole statuses; "
          f"{identical} reports byte-identical, {len(names) - differing - identical} "
          f"differ only elsewhere")
    return 1 if differing else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="write a capture to this path")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two captures")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give a path to capture to, or --compare A B")
    capture(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
