"""Command-line front-end.

Subcommands: analyze | dual | spectrum | ergodic | decompose | stability |
quasicompact | nisa | falsify | ensemble. Exit code 0 only when every
applicable cross-check passed; 1 on verdict violations; 2 on input errors.
"""

import argparse
import csv
import sys

from .config import DEFAULT_SEED, ToleranceConfig
from .errors import ErgospecError, ParseError
from .characters import enumerate_unitary_dual
from .ensembles import (
    random_certified_instance,
    random_circulant_stochastic_instance,
    random_polynomial_instance,
)
from .ergodic import Analysis
from .positivity import check_positive, domination_check_of, nisa_suite_of
from .report import analyze, summarize
from .serialize import (
    _decoding,
    _read_json,
    canonical_dumps,
    load_character,
    load_representation,
)
from .spectrum import laplace_falsifier


def _build_config(args):
    overrides = {}
    if getattr(args, "tol_rank", None) is not None:
        overrides["tol_rank"] = args.tol_rank
    if getattr(args, "tol_char", None) is not None:
        overrides["tol_char"] = args.tol_char
    if getattr(args, "max_cesaro", None) is not None:
        overrides["cesaro_max_side"] = args.max_cesaro
    try:
        return ToleranceConfig(**overrides)
    except ValueError as exc:  # an out-of-range flag is an input error
        raise ErgospecError(str(exc)) from exc


def _add_common(parser):
    parser.add_argument("--tol-rank", dest="tol_rank", type=float, default=None)
    parser.add_argument("--tol-char", dest="tol_char", type=float, default=None)
    parser.add_argument("--max-cesaro", dest="max_cesaro", type=int, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
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


def _run_sections(args, sections):
    config = _build_config(args)
    rep, raw = load_representation(args.path, config)
    report = analyze(rep, config, args.seed, input_json=raw, sections=sections)
    if getattr(args, "cesaro_csv", None):
        trace = report.to_json().get("ergodic", {}).get("cesaro_trace", [])
        with open(args.cesaro_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["side", "distance", "composed_distance"])
            for row in trace:
                writer.writerow([row["side"], row["plain"], row["composed"]])
    return _emit(args, report)


def cmd_analyze(args):
    return _run_sections(args, None)


def cmd_spectrum(args):
    return _run_sections(args, ["spectrum"])


def cmd_ergodic(args):
    return _run_sections(args, ["spectrum", "ergodic"])


def cmd_decompose(args):
    return _run_sections(args, ["spectrum", "decomposition"])


def cmd_stability(args):
    return _run_sections(args, ["spectrum", "stability"])


def cmd_quasicompact(args):
    return _run_sections(args, ["spectrum", "quasicompact"])


def cmd_nisa(args):
    return _run_sections(args, ["spectrum", "ergodic", "positivity"])


def cmd_dual(args):
    config = _build_config(args)
    rep, _ = load_representation(args.path, config)
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
    rep, _ = load_representation(args.path, config)
    from .representations import certify_boundedness
    rep = certify_boundedness(rep, config, args.seed)
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
    config = _build_config(args)
    makers = {
        "circulant": random_circulant_stochastic_instance,
        "polynomial": random_polynomial_instance,
        "general": random_certified_instance,
    }
    if args.config:
        loaded = _read_json(args.config)
        with _decoding("ensemble config"):
            args.ensemble = loaded.get("ensemble", args.ensemble)
            args.count = int(loaded.get("count", args.count))
            args.n = int(loaded.get("n", args.n))
            args.k = int(loaded.get("k", args.k))
            args.seed = int(loaded.get("seed", args.seed))
        if args.ensemble not in makers:
            raise ParseError(f"unknown ensemble {args.ensemble!r} in the ensemble config")
    maker = makers[args.ensemble]
    failures = 0
    for index in range(args.count):
        seed = args.seed + index
        try:
            instance = maker(seed, max_rank=args.k, max_dim=args.n, config=config)
            rep = instance[0] if isinstance(instance, tuple) else instance
            if args.ensemble in ("circulant", "polynomial"):
                analysis = Analysis(rep, config, seed)
                nisa_suite_of(analysis)
                if check_positive(rep, config).is_positive:
                    domination_check_of(analysis)
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


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ergospec",
        description="Spectral and ergodic analysis of bounded representations "
                    "of commutative semigroups")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, extra_csv in [
        ("analyze", cmd_analyze, True),
        ("spectrum", cmd_spectrum, False),
        ("ergodic", cmd_ergodic, True),
        ("decompose", cmd_decompose, False),
        ("stability", cmd_stability, False),
        ("quasicompact", cmd_quasicompact, False),
        ("nisa", cmd_nisa, False),
    ]:
        p = sub.add_parser(name)
        p.add_argument("path", help="representation JSON")
        _add_common(p)
        if extra_csv:
            p.add_argument("--cesaro-csv", dest="cesaro_csv", default=None,
                           help="export the Cesaro trace as CSV")
        p.set_defaults(fn=fn)

    p = sub.add_parser("dual", help="enumerate the unitary dual of a finite monoid")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("falsify", help="run the coefficient-inequality falsifier")
    p.add_argument("path")
    p.add_argument("character", help="character JSON file")
    p.add_argument("--trials", type=int, default=64)
    _add_common(p)
    p.set_defaults(fn=cmd_falsify)

    p = sub.add_parser("ensemble", help="run a seeded random equivalence suite")
    p.add_argument("--ensemble", choices=["circulant", "polynomial", "general"],
                   default="circulant")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--config", default=None,
                   help='JSON config {"ensemble":..,"n":..,"k":..,"count":..,"seed":..}')
    p.add_argument("--verbose", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_ensemble)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # an unreadable path (missing, a directory) is an input error too
    except (ErgospecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
