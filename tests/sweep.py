"""Capture the `analyze` reports of a fixed deck of inputs, and compare two
captures.

    PYTHONPATH=src python tests/sweep.py OUT
    python tests/sweep.py --compare A B

The deck is the 9 fixtures, `random_certified_instance` seeds 0-299,
`random_circulant_stochastic_instance` seeds 0-99 and the regular
representations of the 33 finite monoids in `MONOIDS`, each under
relabelings seeded 0-2: 508 inputs, each analyzed at the default
configuration. A capture holds one line per input: its name and its report,
`timings` excluded, as canonical JSON. To compare two checkouts, capture
once with each one's `src` on PYTHONPATH.

`--compare` prints every input whose verdicts, spectrum or pole statuses
differ between the captures, then the counts of those inputs, of the
value-identical reports (the same values, types and signs of zero once
parsed, so a change of how numbers are spelled leaves a report
value-identical), of the byte-identical ones among them and of the reports
that differ only elsewhere. It exits 1 when any input differs in verdicts,
spectrum or pole statuses, or is missing from one capture.
This file is a script, not a test module: pytest does not collect it.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# products of the atoms Z<m> (a + b mod m), L<c> (the chain {0..c-1} under
# max) and T<c> (min(a + b, c) on {0..c}): cyclic groups, products of cyclic
# groups, semilattices times cyclic groups, truncated and chain monoids
MONOIDS = ("Z2", "Z3", "Z5", "Z7", "Z8", "Z12", "Z16", "Z24", "Z30", "Z48", "Z64",
           "Z2xZ2", "Z2xZ4", "Z3xZ6", "Z4xZ4", "Z2xZ2xZ2", "Z2xZ4xZ4", "Z6xZ10",
           "Z2xZ2xZ2xZ2xZ2xZ2",
           "L2xZ3", "L3xZ4", "L2xZ8", "L2xL2xZ6", "L4xZ2xZ4",
           "T3", "T7", "L4", "L6", "T3xT3", "T3xL3", "T2xZ4", "T5xZ6", "T7xZ4")


def _atom(token):
    """The Cayley table of one atom of a name in MONOIDS."""
    kind, c = token[0], int(token[1:])
    a = np.arange(c + (kind == "T"))
    if kind == "Z":
        return (a[:, None] + a) % c
    if kind == "L":
        return np.maximum(a[:, None], a)
    return np.minimum(a[:, None] + a, c)


def _cayley_table(name):
    """The table of a product of atoms, row-major in the factors, with
    neutral element 0."""
    table = np.zeros((1, 1), dtype=np.int64)
    for atom in map(_atom, name.split("x")):
        b = len(atom)
        table = (table[:, None, :, None] * b + atom[None, :, None, :]).reshape(
            len(table) * b, len(table) * b)
    return table


def _relabeled(table, seed):
    """(table, neutral) with the elements renamed by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(len(table))
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out.tolist(), int(perm[0])


def _inputs():
    """(name, representation) of every input of the deck, in order."""
    from ergospec import regular_representation, validate_monoid
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
    for name in MONOIDS:
        for seed in range(3):
            monoid = validate_monoid(*_relabeled(_cayley_table(name), seed))
            yield f"regular-{name}-{seed}", regular_representation(monoid)


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
    differing = identical = equal = 0
    for name in names:
        if name not in a or name not in b:
            print(f"{name}: only in {first if name in a else second}")
            differing += 1
            continue
        if a[name] == b[name]:
            identical += 1
            equal += 1
            continue
        left, right = (json.loads(line)["report"] for line in (a[name], b[name]))
        if json.dumps(left) == json.dumps(right):  # keeps 1 and 1.0, -0.0 and 0.0 apart
            equal += 1
            continue
        left, right = summary(left), summary(right)
        for part in left:
            if left[part] != right[part]:
                print(f"{name}: {part}\n  {first}: {left[part]}\n  {second}: {right[part]}")
        differing += left != right
    print(f"{len(names)} inputs: {differing} differ in verdicts, spectrum or pole statuses; "
          f"{equal} reports value-identical ({identical} of them byte-identical), "
          f"{len(names) - differing - equal} differ only elsewhere")
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
