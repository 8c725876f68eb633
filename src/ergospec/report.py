"""Full-pipeline analysis and its JSON report.

The report is deterministic for a fixed input, recorded seed and tolerance
configuration, except for the "timings" section, which is excluded from
the determinism contract.
"""

import time
from dataclasses import dataclass, field

from .config import DEFAULT_CONFIG, DEFAULT_SEED
from .ergodic import Analysis
from .errors import ErgospecError
from .positivity import domination_check, nisa_suite
from .representations import certify_boundedness
from .serialize import matrix_to_json, representation_digest


@dataclass
class AnalysisReport:
    data: dict
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return self.data


# On C^n a bounded representation has only poles in its unitary spectrum,
# and it is uniformly mean ergodic and quasi-compact (Engel-Nagel,
# One-Parameter Semigroups, V.4). A Certified input's analysis confirms
# each spectral character a pole or raises, so the report writes these
# verdicts as constants: is_uniformly_mean_ergodic, each pole's status,
# riesz and complement_clear (ker and rg of chi - T meet in 0), the
# quasi_compactness status and riesz_all, and the nisa suite's three
# verdicts and agree.


def analyze(rep, config=None, seed=DEFAULT_SEED, sections=None):
    """Run the full pipeline and collect a structured report.

    sections: optional iterable restricting the analysis
    ("spectrum", "ergodic", "poles", "decomposition", "stability",
    "quasicompact", "positivity"); the spectrum is always written, and no
    section writes another.
    Every section reads one shared Analysis, so each route runs at most once.
    No route reads `seed`; the report records it.
    """
    config = DEFAULT_CONFIG if config is None else config
    wanted = set(sections) if sections is not None else {
        "spectrum", "ergodic", "poles", "decomposition", "stability",
        "quasicompact", "positivity"}
    violations = []
    timings = {}
    report = {
        "schema": "v1",
        "input_digest": representation_digest(rep),
        "tolerances": config.to_dict(),
        "seed": seed,
        "conventions": {"dual_pairing": "transpose (bilinear)"},
    }

    def timed(name, fn):
        start = time.perf_counter()
        result = fn()
        timings[name] = round(time.perf_counter() - start, 6)
        return result

    def checked(key, name, fn):
        """timed(name, fn), or None once fn raised an ErgospecError: the
        input was accepted, so that is a failed cross-check, which the
        section `key` reports as its error and a violation."""
        try:
            return timed(name, fn)
        except ErgospecError as exc:
            report[key] = {"error": str(exc)}
            violations.append(f"{key.replace('_', ' ')}: {exc}")
            return None

    rep = timed("certify", lambda: certify_boundedness(rep, config))
    report["boundedness"] = rep.boundedness.to_json()
    if not rep.boundedness.is_certified:
        report["skipped"] = {"reason": "representation is not certified bounded; "
                                       "spectral and ergodic analyses refuse"}
        report["timings"] = timings
        return AnalysisReport(report, violations)

    analysis = Analysis(rep, config)
    spectrum = timed("spectrum", lambda: analysis.spectrum)
    report["unitary_spectrum"] = {
        "count": len(spectrum),
        "characters": [c.to_json() for c in spectrum.characters],
        "eigenspace_dims": [sp.dim for sp in spectrum.eigenspaces],
        "eigenspace_bases": [matrix_to_json(sp.basis) for sp in spectrum.eigenspaces],
    }

    if "ergodic" in wanted:
        ergodic = checked("ergodic", "ergodic", lambda: analysis.ergodic)
        if ergodic is not None:
            entry = {
                "is_uniformly_mean_ergodic": True,
                "fix_dim": ergodic.fix_dim,
                "range_dim": rep.dim - ergodic.fix_dim,   # rg(1 - T) = ker P
                "net_divergence": ergodic.net_divergence,
                "mean_projection": matrix_to_json(ergodic.mean_projection),
            }
            if ergodic.kernel_average_residual is not None:
                entry["kernel_average_residual"] = ergodic.kernel_average_residual
            if ergodic.cesaro_trace:
                entry["cesaro_trace"] = [
                    {"side": side, "plain": plain, "composed": comp}
                    for side, plain, comp in ergodic.cesaro_trace]
            report["ergodic"] = entry
            if ergodic.net_divergence:
                violations.append("generators move the mean projection P_1: relative residual "
                                  f"{ergodic.kernel_average_residual:.3e} exceeds tol_hom"
                                  if rep.is_finite else "ergodic net failed to reach "
                                  "cesaro_target although the algebraic verdict is ergodic")

    if "poles" in wanted:
        poles = checked("poles", "poles", lambda: analysis.poles)
        if poles is not None:
            report["poles"] = [{"character": chi.to_json(), "status": "pole",
                                "eigenspace_dim": verdict.eigenspace_dim,
                                "riesz": True, "complement_clear": True}
                               for chi, verdict in zip(spectrum.characters, poles)]

    if "decomposition" in wanted:
        decomposition = checked("peripheral_decomposition", "decomposition",
                                lambda: analysis.decomposition)
        if decomposition is not None:
            report["peripheral_decomposition"] = {
                "reversible_dim": decomposition.reversible.dim,
                "stable_dim": decomposition.stable.dim,
                "characters": report["unitary_spectrum"]["characters"],
                "projection": matrix_to_json(decomposition.projection),
                "cross_residual": decomposition.cross_residual,
                "stability_witness": list(decomposition.stability_witness)
                if isinstance(decomposition.stability_witness, tuple)
                else decomposition.stability_witness,
                "stability_norm": decomposition.stability_norm,
            }
            if decomposition.reversible.dim + decomposition.stable.dim != rep.dim:
                violations.append("peripheral decomposition does not span the space")
            if decomposition.cross_residual > 10 * config.tol_hom:
                violations.append("pairwise products of spectral projections do not vanish")

    if "stability" in wanted:
        stability = checked("stability", "stability", lambda: analysis.stability)
        if stability is not None:
            report["stability"] = {
                "status": stability.status,
                "witness": list(stability.witness) if isinstance(stability.witness, tuple)
                else stability.witness,
                "witness_norm": stability.witness_norm,
                "budget_exceeded": stability.budget_exceeded,
                "zero_in_range": stability.zero_in_range,
                "blocking_character": stability.blocking_character.to_json()
                if stability.blocking_character is not None else None,
            }
        if stability is not None and rep.is_finite:
            if stability.is_stable != bool(stability.zero_in_range):
                violations.append("finite-monoid stability disagrees with the "
                                  "zero-in-range criterion")
            infinity = timed("semigroup_at_infinity", lambda: analysis.infinity)
            report["semigroup_at_infinity"] = {
                "count": len(infinity.classes),
                "classes": infinity.classes,
                "class_residual": infinity.residual,
            }
            if infinity.residual > config.tol_hom:
                violations.append("operators at infinity disagree with the spectrum")

    if "quasicompact" in wanted:
        def split():
            """The pole test of each spectral character, which raises its
            NonPoleSpectrum, then dim E_r or the error the decomposition raised."""
            analysis.poles
            try:
                return analysis.decomposition.reversible.dim, None
            except ErgospecError as exc:
                return None, exc
        qc = checked("quasi_compactness", "quasicompact", split)
        if qc is not None:
            reversible_dim, error = qc
            dims = report["unitary_spectrum"]["eigenspace_dims"]
            consistent = error is None and reversible_dim == sum(dims)
            report["quasi_compactness"] = {
                "status": "quasi_compact",
                "eigenspace_dims": dims,
                "riesz_all": True,
                "decomposition_consistent": consistent,
            }
            if error is not None:
                report["quasi_compactness"]["decomposition_error"] = str(error)
            if not consistent:
                violations.append("quasi-compactness cross-checks disagree")

    if "positivity" in wanted:
        positivity = analysis.positivity
        entry = {"is_positive": positivity.is_positive}
        if not positivity.is_positive:
            idx, (i, j), value = positivity.first_violation
            entry["first_violation"] = {"matrix": idx, "row": i, "col": j,
                                        "value": f"{value.real:+.6f}{value.imag:+.6f}i"}
            entry["nisa"] = {"skipped": "representation is not positive"}
            entry["domination"] = {"skipped": "representation is not positive"}
        else:
            def positive_suites():
                out = {}
                try:
                    nisa = nisa_suite(analysis)
                    out["nisa"] = {
                        "quasi_compact": True,
                        "ume_with_finite_fix": True,
                        "trivial_char_riesz": True,
                        "fix_dim": nisa.fix_dim,
                        "projection_rank": nisa.projection_rank,
                        "agree": True,
                    }
                except ErgospecError as exc:  # a failed check is a violation
                    out["nisa"] = {"error": str(exc)}
                    violations.append(f"nisa suite: {exc}")
                try:
                    domination = domination_check(analysis)
                    out["domination"] = {
                        "fix_dim": domination.fix_dim,
                        "profile": [{"character": c.to_json(), "dim": d}
                                    for c, d in domination.profile],
                    }
                except ErgospecError as exc:
                    out["domination"] = {"error": str(exc)}
                    violations.append(f"domination check: {exc}")
                return out
            entry.update(timed("positivity", positive_suites))
        report["positivity"] = entry

    report["violations"] = list(violations)
    report["timings"] = timings
    return AnalysisReport(report, violations)


def summarize(report_data):
    """Short human-readable synopsis of a report dict."""
    lines = []
    lines.append(f"input digest : {report_data['input_digest'][:16]}...")
    bound = report_data.get("boundedness", {})
    lines.append(f"boundedness  : {bound.get('status')} {bound.get('detail', '')}".rstrip())
    spec = report_data.get("unitary_spectrum")
    if spec:
        lines.append(f"spectrum     : {spec['count']} character(s), "
                     f"eigenspace dims {spec['eigenspace_dims']}")
    sections = (
        ("ergodic", "ergodic",
         lambda erg: f"ume={erg['is_uniformly_mean_ergodic']} "
                     f"fix_dim={erg['fix_dim']} range_dim={erg['range_dim']}"),
        ("peripheral_decomposition", "decomposition",
         lambda dec: f"reversible {dec['reversible_dim']} + stable {dec['stable_dim']}"),
        ("stability", "stability",
         lambda stab: f"{stab['status']} witness={stab['witness']} "
                      f"norm={stab['witness_norm']}"),
        ("quasi_compactness", "quasicompact",
         lambda qc: f"{qc['status']} dims={qc['eigenspace_dims']}"),
    )
    for key, label, line in sections:
        entry = report_data.get(key)
        if entry:
            lines.append(f"{label:<13}: {entry['error'] if 'error' in entry else line(entry)}")
    pos = report_data.get("positivity")
    if pos:
        lines.append(f"positivity   : {pos['is_positive']}")
        if "nisa" in pos and "agree" in pos.get("nisa", {}):
            lines.append(f"nisa         : agree={pos['nisa']['agree']} "
                         f"fix_dim={pos['nisa']['fix_dim']}")
    violations = report_data.get("violations", [])
    lines.append(f"violations   : {len(violations)}")
    for v in violations:
        lines.append(f"  - {v}")
    return "\n".join(lines)
