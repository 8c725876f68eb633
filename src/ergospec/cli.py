"""Command-line front-end.

Subcommands: analyze | dual | spectrum | ergodic | decompose | stability |
quasicompact | nisa | falsify | ensemble. Exit code 0 only when every
applicable cross-check passed; 1 on verdict violations; 2 on input errors.
"""

import argparse
import csv
import sys
from functools import cache, partial

from .config import DEFAULT_SEED, ToleranceConfig
from .errors import ErgospecError, ParseError
from .characters import enumerate_unitary_dual
from .ensembles import (
    random_certified_instance,
    random_circulant_stochastic_instance,
    random_polynomial_instance,
)
from .ergodic import Analysis
from .positivity import domination_check, nisa_suite
from .representations import MAX_DIM, certify_boundedness
from .report import analyze, summarize
from .serialize import (
    _decoding,
    _integer,
    _read_json,
    canonical_dumps,
    load_character,
    load_representation,
)
from .spectrum import laplace_falsifier


def _build_config(args):
    fields = {"tol_rank": "tol_rank", "tol_char": "tol_char", "max_cesaro": "cesaro_max_side"}
    overrides = {field: getattr(args, flag) for flag, field in fields.items()
                 if getattr(args, flag) is not None}
    try:
        config = ToleranceConfig(**overrides)
    except ValueError as exc:  # an out-of-range flag is an input error
        raise ErgospecError(str(exc)) from exc
    if getattr(args, "seed", 0) < 0:   # only falsify and ensemble take one
        raise ErgospecError(f"seed must be non-negative, got {args.seed}")
    return config


def _add_common(parser):
    parser.add_argument("--tol-rank", dest="tol_rank", type=float, default=None)
    parser.add_argument("--tol-char", dest="tol_char", type=float, default=None)
    parser.add_argument("--max-cesaro", dest="max_cesaro", type=int, default=None)
    parser.add_argument("--report", type=str, default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--format", choices=["json", "text"], default="text")


def _emit(args, report):
    text = canonical_dumps(report.to_json())
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    if args.format == "json":
        print(text)
    else:
        print(summarize(report.to_json()))
    return 0 if report.ok else 1


def _run_sections(args):
    config = _build_config(args)
    rep = load_representation(args.path, config)
    report = analyze(rep, config, sections=args.sections)
    if getattr(args, "cesaro_csv", None):
        trace = report.to_json().get("ergodic", {}).get("cesaro_trace", [])
        with open(args.cesaro_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["side", "distance", "composed_distance"])
            for row in trace:
                writer.writerow([row["side"], row["plain"], row["composed"]])
    return _emit(args, report)


def cmd_dual(args):
    config = _build_config(args)
    rep = load_representation(args.path, config)
    if not rep.is_finite:
        print("the unitary dual of N^k is the k-torus; it is not enumerable",
              file=sys.stderr)
        return 2
    characters = enumerate_unitary_dual(rep.semigroup)
    if args.format == "json":
        print(canonical_dumps([chi.to_json() for chi in characters]))
    else:
        print(f"{len(characters)} unitary character(s)")
        header = "element:    " + "  ".join(f"{s:>6d}" for s in rep.semigroup.elements())
        print(header)
        for idx, chi in enumerate(characters):
            row = "  ".join(_short_complex(v) for v in chi.values())
            print(f"chi_{idx:<3d}     {row}")
    return 0


def _short_complex(z):
    if abs(z.imag) < 1e-12:
        return f"{z.real:+6.3f}"
    return f"{z.real:+.2f}{z.imag:+.2f}i"


def cmd_falsify(args):
    config = _build_config(args)
    if args.trials < 1:
        raise ErgospecError(f"trials must be at least 1, got {args.trials}")
    rep = load_representation(args.path, config)
    rep = certify_boundedness(rep, config)
    chi = load_character(args.character, rep.semigroup)
    verdict = laplace_falsifier(rep, chi, trials=args.trials, config=config,
                                seed=args.seed)
    if args.format == "json":
        payload = {"verdict": verdict.label, "trials": verdict.trials}
        if verdict.refuted:
            payload.update({
                "elements": verdict.elements,
                "coefficients": [{"re": c.real, "im": c.imag}
                                 for c in verdict.coefficients],
                "lhs": verdict.lhs,
                "rhs": verdict.rhs,
            })
        print(canonical_dumps(payload))
    else:
        print(verdict.label)
        if verdict.refuted:
            print(f"  elements     : {verdict.elements}")
            print(f"  coefficients : {verdict.coefficients}")
            print(f"  |sum b chi|  = {verdict.lhs:.6g} > ||sum b T|| = {verdict.rhs:.6g}")
    return 0


def cmd_ensemble(args):
    makers = {
        "circulant": random_circulant_stochastic_instance,
        "polynomial": random_polynomial_instance,
        "general": random_certified_instance,
    }
    if args.config:
        loaded = _read_json(args.config)
        with _decoding("ensemble config"):
            args.ensemble = loaded.get("ensemble", args.ensemble)
            if not isinstance(args.ensemble, str):
                raise TypeError(f"ensemble must be a string, got {args.ensemble!r}")
            for name in ("count", "n", "k", "seed"):
                setattr(args, name, _integer(loaded.get(name, getattr(args, name)), name))
        if args.ensemble not in makers:
            raise ParseError(f"unknown ensemble {args.ensemble!r} in the ensemble config")
    # checked after the merge, so that values read from the config are too
    config = _build_config(args)
    if args.count < 1:
        raise ErgospecError(f"count must be at least 1, got {args.count}")
    if not 2 <= args.n <= MAX_DIM:
        raise ErgospecError(f"n must lie in [2, {MAX_DIM}], got {args.n}")
    if args.k < 1:
        raise ErgospecError(f"k must be at least 1, got {args.k}")
    maker = makers[args.ensemble]
    failures = 0
    for index in range(args.count):
        seed = args.seed + index
        try:
            instance = maker(seed, max_rank=args.k, max_dim=args.n, config=config)
            rep = instance[0] if isinstance(instance, tuple) else instance
            if args.ensemble in ("circulant", "polynomial"):
                analysis = Analysis(rep, config)
                nisa_suite(analysis)  # raises on a non-positive instance
                domination_check(analysis)
            else:
                report = analyze(rep, config, seed,
                                 sections=["spectrum", "ergodic", "poles",
                                           "decomposition", "quasicompact"])
                if not report.ok:
                    raise ErgospecError("; ".join(report.violations))
        # a numerical or sampling error fails its instance, not the suite
        except (ErgospecError, ValueError, RuntimeError) as exc:
            failures += 1
            detail = exc if isinstance(exc, ErgospecError) \
                else f"{type(exc).__name__}: {exc}"
            print(f"instance {index} (seed {seed}): FAIL - {detail}")
            continue
        if args.verbose:
            print(f"instance {index} (seed {seed}): ok")
    print(f"{args.count - failures}/{args.count} pass")
    return 0 if failures == 0 else 1


def _add_sections(parser, sections, cesaro_csv=False):
    """Arguments of a command that reports the given sections (all when
    None) of one representation file."""
    parser.add_argument("path", help="representation JSON")
    _add_common(parser)
    if cesaro_csv:
        parser.add_argument("--cesaro-csv", dest="cesaro_csv", default=None,
                            help="export the Cesaro trace as CSV")
    parser.set_defaults(fn="_run_sections", sections=sections)


def _add_dual(parser):
    parser.add_argument("path")
    _add_common(parser)
    parser.set_defaults(fn="cmd_dual")


def _add_falsify(parser):
    parser.add_argument("path")
    parser.add_argument("character", help="character JSON file")
    parser.add_argument("--trials", type=int, default=64)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_common(parser)
    parser.set_defaults(fn="cmd_falsify")


def _add_ensemble(parser):
    parser.add_argument("--ensemble", choices=["circulant", "polynomial", "general"],
                        default="circulant")
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--config", default=None,
                        help='JSON config {"ensemble":..,"n":..,"k":..,"count":..,"seed":..}')
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_common(parser)
    parser.set_defaults(fn="cmd_ensemble")


# name -> (help listed by `ergospec --help`, or None; the function that adds
# the command's arguments and its `fn`)
COMMANDS = {
    "analyze": (None, partial(_add_sections, sections=None, cesaro_csv=True)),
    "spectrum": (None, partial(_add_sections, sections=("spectrum",))),
    "ergodic": (None, partial(_add_sections, sections=("spectrum", "ergodic"),
                              cesaro_csv=True)),
    "decompose": (None, partial(_add_sections, sections=("spectrum", "decomposition"))),
    "stability": (None, partial(_add_sections, sections=("spectrum", "stability"))),
    "quasicompact": (None, partial(_add_sections, sections=("spectrum", "quasicompact"))),
    "nisa": (None, partial(_add_sections,
                           sections=("spectrum", "ergodic", "positivity"))),
    "dual": ("enumerate the unitary dual of a finite monoid", _add_dual),
    "falsify": ("run the coefficient-inequality falsifier", _add_falsify),
    "ensemble": ("run a seeded random equivalence suite", _add_ensemble),
}


def _top_level_parser():
    """The parser of `ergospec` itself. Its commands take no arguments: it
    only prints the help, the usage or the error for a missing or unknown
    command."""
    parser = argparse.ArgumentParser(
        prog="ergospec",
        description="Spectral and ergodic analysis of bounded representations "
                    "of commutative semigroups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        sub.add_parser(name, **({} if help_text is None else {"help": help_text}))
    return parser


@cache
def _command_parser(name):
    """One command's parser, built once per process: ten times its parse."""
    parser = argparse.ArgumentParser(prog=f"ergospec {name}")
    COMMANDS[name][1](parser)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        parser = _top_level_parser()
        parser.parse_args(argv)  # exits 0 after the help, 2 after an error
        parser.error("the command must come first")  # should it return
    args = _command_parser(argv[0]).parse_args(argv[1:])
    try:
        return globals()[args.fn](args)   # by name: a patched handler is called
    # an unreadable path (missing, a directory) is an input error too
    except (ErgospecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
