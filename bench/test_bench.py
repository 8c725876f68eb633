"""Tests of the benchmark's own helpers.

    python3 -m pytest -q bench/test_bench.py

The spot checks at the end reproduce kernel call counts measured on the
seed commit; they hold only while the package makes the same calls.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import ergospec  # noqa: E402
import run  # noqa: E402
from fingerprint import expected_fingerprint, fingerprint, mismatches  # noqa: E402
from tracer import Tracer, self_times, svd_u_entries  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, direct_sum_case, make_deck, make_monoid, planted_case)


# -- percentile rule ---------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert run.p90_if_supported(list(range(99))) is None
    values = [float(v) for v in range(100)]
    p90 = run.p90_if_supported(values)
    assert p90 == pytest.approx(89.1)
    assert sum(v > p90 for v in values) >= 10


def test_percentile_interpolates():
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.percentile([0.0, 10.0], 0.25) == 2.5
    assert run.percentile([5.0], 0.9) == 5.0


# -- failed ops ----------------------------------------------------------------

def test_a_case_that_never_passes_leaves_the_timings_unset():
    assert run.timing_metrics([0.5, 1.5, 2.0]) == \
        {"analyze_s_p50": 1.5, "analyses_per_s": pytest.approx(0.75)}
    # dropping the slow case would give better numbers; it gives none
    assert run.timing_metrics([0.5, 1.5, None]) is None
    assert run.case_medians([[2.0, 1.0, 5.0], []]) == [2.0, None]


def test_an_op_over_its_budget_fails(tmp_path, monkeypatch):
    case = planted_case(np.random.default_rng(0), 8, 1, (1,), "spectrum")
    path = tmp_path / "case.json"
    path.write_text(case.text)
    monkeypatch.setitem(run.OP_BUDGET_S, "free_analyze", 0.05)
    runner = run.Runner("free_analyze", {}, time.perf_counter())
    monkeypatch.setattr(runner.cli, "main", lambda argv: time.sleep(5))
    assert runner.execute(case, path) == (None, None, None)
    assert runner.attempted == 1
    assert runner.failures == [f"{case.name}: over its 0.05 s budget"]



def test_reference_seconds_discount_a_slowed_host(monkeypatch):
    import calibration
    for slowdown in (1.0, 1.5):
        monkeypatch.setattr(calibration, "kernel_seconds",
                            lambda: calibration.REFERENCE_S * slowdown)
        clock = calibration.Clock()
        result, seconds, wall = clock.time(lambda: ("report", 0.2 * slowdown))
        assert result == "report"
        assert wall == pytest.approx(0.2 * slowdown)
        assert seconds == pytest.approx(0.2)


# -- self time -----------------------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 8]
    spans = [["root", 0.0, 10.0, -1, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["b", 5.0, 9.0, 0, 0],
             ["c", 6.0, 8.0, 2, 0]]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1, 0],
             ["a", 1.0, 6.0, 0, 0],
             ["b", 4.0, 12.0, 0, 0]]     # overlaps a, runs past the parent
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_svd_u_entries():
    a = np.zeros((1024, 32))
    assert svd_u_entries(a) == 1024 * 1024
    assert svd_u_entries(a, full_matrices=False) == 1024 * 32
    assert svd_u_entries(a, compute_uv=False) == 0
    assert svd_u_entries(np.zeros((3, 4, 5))) == 3 * 16


# -- fingerprints --------------------------------------------------------------

def _finite_report(order):
    chars = [{"angles": [["0", "1"], ["0", "1"]]}, {"angles": [["0", "1"], ["1", "2"]]}]
    return {"unitary_spectrum": {"count": 2,
                                 "characters": [chars[i] for i in order],
                                 "eigenspace_dims": [1, 1]},
            "ergodic": {"fix_dim": 1, "is_uniformly_mean_ergodic": True},
            "poles": [{"status": "pole"}, {"status": "pole"}]}


def test_fingerprint_ignores_character_order():
    assert fingerprint(_finite_report([0, 1]), [0, 1]) == \
        fingerprint(_finite_report([1, 0]), [0, 1])


def test_fingerprint_uses_the_canonical_labeling():
    fp = fingerprint(_finite_report([0, 1]), perm=[1, 0])
    assert [["1/2", "0/1"], 1] in fp["characters"]


def test_fingerprint_rounds_generator_values():
    value = np.exp(2j * np.pi / 3)
    report = {"unitary_spectrum": {"count": 1, "eigenspace_dims": [2], "characters": [
        {"gen_values": [{"re": value.real + 1e-12, "im": value.imag - 1e-12}]}]}}
    assert fingerprint(report)["characters"] == [[["-0.500000+0.866025i"], 2]]


def test_mismatches_name_the_wrong_fields():
    rng = np.random.default_rng(0)
    case = planted_case(rng, 8, 2, (2, 1), "spectrum")
    expected = expected_fingerprint(case, {})
    fp = dict(expected)
    assert mismatches(fp, expected) == []
    fp["count"] += 1
    assert mismatches(fp, expected) == ["count"]
    case.record_key = "absent"
    assert mismatches(fp, expected_fingerprint(case, {})) == ["no recorded fingerprint"]


# -- generated inputs ----------------------------------------------------------

@pytest.mark.parametrize("name", ["Z6", "L2xZ3", "T3", "T2xZ2", "Z2xZ2xZ2", "L4"])
def test_monoid_characters_are_multiplicative(name):
    monoid = make_monoid(name)
    assert monoid.table[0] == list(range(monoid.size))
    for char in monoid.chars:
        for s in range(monoid.size):
            for t in range(monoid.size):
                u = monoid.table[s][t]
                if char[s] is None or char[t] is None:
                    assert char[u] is None
                else:
                    assert char[u] == (char[s] + char[t]) % 1
    assert len(monoid.unitary_chars()) == monoid.kernel_size


def test_decks_depend_only_on_the_seed():
    for workload in WORKLOADS:
        first = [c.text for c in make_deck(workload, 5)]
        assert first == [c.text for c in make_deck(workload, 5)]
        assert first != [c.text for c in make_deck(workload, 6)]


def test_direct_sum_truth_matches_the_package():
    case = direct_sum_case(np.random.default_rng(3), "L2xZ3", (2, 1), 2)
    rep = ergospec.certify_boundedness(
        ergospec.serialize.representation_from_json(json.loads(case.text)))
    spectrum = ergospec.unitary_spectrum(rep)
    assert len(spectrum) == case.truth["count"]
    assert sorted(sp.dim for sp in spectrum.eigenspaces) == \
        sorted(dim for _, dim in case.truth["characters"])


# -- tracer --------------------------------------------------------------------

def _regular(m):
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return ergospec.regular_representation(ergospec.validate_monoid(table, 0))


def _calls(tracer, name):
    return sum(1 for span in tracer.spans if span[0] == name)


def test_tracer_rebinds_every_import_of_a_function():
    rep = _regular(4)
    original = ergospec.linalg.null_space
    tracer = Tracer()
    tracer.install()
    try:
        # spectrum binds null_space by name; ergodic reaches it through its
        # own binding of spectrum.eigenspace
        assert ergospec.linalg.null_space is not original
        assert ergospec.null_space is ergospec.linalg.null_space
        ergospec.spectrum.eigenspace(rep, ergospec.trivial_character(rep.semigroup))
        via_spectrum = _calls(tracer, "linalg.null_space")
        ergospec.ergodic.mean_ergodic_analysis(rep)
        via_ergodic = _calls(tracer, "linalg.null_space") - via_spectrum
    finally:
        tracer.uninstall()
    assert ergospec.linalg.null_space is original
    assert ergospec.null_space is original
    assert via_spectrum == 5           # 4 element kernels + 1 intersection
    assert via_ergodic == 5            # the fixed space is the same eigenspace
    parents = {tracer.spans[s[3]][0] for s in tracer.spans
               if s[0] == "linalg.null_space"}
    assert parents == {"spectrum.eigenspace", "linalg.subspace_intersect"}


def test_spot_check_z32_spectrum():
    rep = _regular(32)
    tracer = Tracer()
    tracer.install()
    try:
        ergospec.analyze(rep, sections=["spectrum"])
    finally:
        tracer.uninstall()
    assert _calls(tracer, "kernel.svd") == 1056
    assert _calls(tracer, "linalg.subspace_intersect") == 32
    assert _calls(tracer, "linalg.joint_block_decomposition") == 1


def test_spot_check_planted_n11_k3_analyze():
    from ergospec.ensembles import random_certified_instance
    rep, planted = random_certified_instance(7, max_rank=3, max_dim=16)
    assert (planted["n"], planted["k"]) == (11, 3)
    tracer = Tracer()
    tracer.install()
    try:
        ergospec.analyze(rep, seed=7)
    finally:
        tracer.uninstall()
    assert _calls(tracer, "kernel.svd") == 428
    assert _calls(tracer, "linalg.joint_block_decomposition") == 24


# -- the benchmark definition --------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
