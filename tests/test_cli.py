import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergospec import cli, ergodic
from ergospec.cli import main
from ergospec.config import DEFAULT_SEED, ToleranceConfig
from ergospec.errors import NotInvariant
from ergospec.serialize import matrix_to_json

from conftest import FIXTURES, REPO


def fixture_path(name):
    return str(FIXTURES / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_klein(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", fixture_path("klein_four"),
                       "--report", str(report_path))
    assert code == 0
    assert "spectrum     : 3 character(s)" in out
    assert "violations   : 0" in out
    data = json.loads(report_path.read_text())
    assert data["unitary_spectrum"]["count"] == 3
    assert sorted(data["unitary_spectrum"]["eigenspace_dims"]) == [1, 1, 2]


def test_analyze_json_format(capsys):
    code, out, _ = run(capsys, "analyze", fixture_path("jordan_half"),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["stability"]["status"] == "stable"
    assert data["unitary_spectrum"]["count"] == 0
    assert data["ergodic"]["is_uniformly_mean_ergodic"] is True


def test_analyze_determinism_modulo_timings(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "analyze", fixture_path("klein_four"),
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        data.pop("timings")
        runs.append(json.dumps(data, sort_keys=True))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["analyze", "stability", "dual"])
def test_only_falsify_and_ensemble_take_a_seed(capsys, command):
    # no analysis reads a seed; the report records the default one
    with pytest.raises(SystemExit) as exc:
        main([command, fixture_path("klein_four"), "--seed", "5"])
    assert exc.value.code == 2
    if command != "dual":
        code, out, _ = run(capsys, command, fixture_path("klein_four"), "--format", "json")
        assert code == 0 and json.loads(out)["seed"] == DEFAULT_SEED


def test_dual_prints_klein_table(capsys):
    code, out, _ = run(capsys, "dual", fixture_path("klein_four"))
    assert code == 0
    assert "4 unitary character(s)" in out
    assert out.count("-1.000") == 6  # three sign rows with two -1 entries each


def test_dual_refuses_free_monoid(capsys):
    code, _, err = run(capsys, "dual", fixture_path("jordan_half"))
    assert code == 2
    assert "torus" in err


def test_falsify_det(capsys, tmp_path):
    char_path = tmp_path / "det.json"
    char_path.write_text(json.dumps(
        {"angles": [["0", "1"], ["1", "2"], ["1", "2"], ["0", "1"]]}))
    code, out, _ = run(capsys, "falsify", fixture_path("klein_four"),
                       str(char_path))
    assert code == 0
    assert "Refuted" in out


def test_a_near_character_is_an_input_error(capsys, tmp_path):
    # angles within 1e-12 of 0, 1/3 and 2/3 pass the 1e-9 multiplicativity
    # test over Z3, but a character's angles are multiples of 1/|K| = 1/3
    rep_path, char_path = tmp_path / "z3.json", tmp_path / "near.json"
    rep_path.write_text(json.dumps({
        "semigroup": {"type": "cayley", "size": 3, "neutral": 0,
                      "table": [[(i + j) % 3 for j in range(3)] for i in range(3)]},
        "dim": 1, "matrices": {"per": "element", "list": [matrix_to_json(np.eye(1))] * 3}}))
    char_path.write_text(json.dumps({"angles": [
        ["0", "1"], ["333333333333", "1000000000000"], ["666666666666", "1000000000000"]]}))
    code, out, err = run(capsys, "falsify", str(rep_path), str(char_path))
    assert (code, out) == (2, "")
    assert err == ("error: angle 333333333333/1000000000000 at element 1 is not a multiple "
                   "of 1/3, one over the order of the kernel group\n")


def test_falsify_member_consistent(capsys, tmp_path):
    char_path = tmp_path / "one.json"
    char_path.write_text(json.dumps(
        {"angles": [["0", "1"], ["0", "1"], ["0", "1"], ["0", "1"]]}))
    code, out, _ = run(capsys, "falsify", fixture_path("klein_four"),
                       str(char_path))
    assert code == 0
    assert "ConsistentWithMembership" in out


@pytest.mark.parametrize("command", [
    "spectrum", "ergodic", "decompose", "stability", "quasicompact", "nisa"])
def test_subcommands_run_on_fixture(capsys, command):
    code, _, _ = run(capsys, command, fixture_path("circulant_stochastic_8"))
    assert code == 0


def test_cesaro_csv_export(capsys, tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "ergodic", fixture_path("jordan_half"),
                     "--cesaro-csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "side,distance,composed_distance"
    assert len(lines) > 10
    assert lines[1].startswith("1,")


def test_cesaro_chain_short_of_the_target_is_a_violation(capsys):
    # jordan_half's composed mean first meets 1e-6 at side 512
    code, out, _ = run(capsys, "ergodic", fixture_path("jordan_half"),
                       "--max-cesaro", "4", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert [row["side"] for row in data["ergodic"]["cesaro_trace"]] == [1, 2, 4]
    assert data["violations"] == ["ergodic net failed to reach cesaro_target "
                                  "although the algebraic verdict is ergodic"]


def test_ensemble_command(capsys):
    # general runs analyze on its sections, the others the positive suites
    for ensemble in ("circulant", "polynomial", "general"):
        code, out, _ = run(capsys, "ensemble", "--ensemble", ensemble,
                           "--count", "5", "--n", "6", "--k", "2")
        assert code == 0, ensemble
        assert "5/5 pass" in out


def test_ensemble_json_config(capsys, tmp_path):
    config = tmp_path / "ensemble.json"
    config.write_text(json.dumps({"ensemble": "polynomial", "n": 6, "k": 2,
                                  "count": 4, "seed": 11}))
    code, out, _ = run(capsys, "ensemble", "--config", str(config))
    assert code == 0
    assert "4/4 pass" in out


def test_ensemble_counts_a_raising_instance_as_failed(capsys, monkeypatch):
    sampler = cli.random_circulant_stochastic_instance

    def flaky(seed, **kwargs):
        if seed == 12:
            raise RuntimeError("could not sample a certified positive instance")
        return sampler(seed, **kwargs)

    monkeypatch.setattr(cli, "random_circulant_stochastic_instance", flaky)
    code, out, err = run(capsys, "ensemble", "--ensemble", "circulant",
                         "--count", "3", "--n", "6", "--k", "2", "--seed", "11")
    assert code == 1
    assert "instance 1 (seed 12): FAIL - RuntimeError: could not sample" in out
    assert "2/3 pass" in out
    assert "Traceback" not in out + err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "error" in err


def _drop_matrices(data):
    del data["matrices"]


def _ragged_table(data):
    data["semigroup"]["table"][1].pop()


def _text_entry(data):
    data["matrices"]["list"][0]["re"][0] = "one"


def _list_semigroup(data):
    data["semigroup"] = []


# each of these Cayley entries reads as the integer 1 under int()
def _fractional_entry(data):
    data["semigroup"]["table"][1][0] = 1.5


def _string_entry(data):
    data["semigroup"]["table"][1][0] = "1"


def _bool_entry(data):
    data["semigroup"]["table"][1][0] = True


# the message names the first bad Cayley entry
BAD_ENTRY_MESSAGES = {
    mutate: f"TypeError: a Cayley table entry must be an integer, got {value}\n"
    for mutate, value in ((_fractional_entry, "1.5"), (_string_entry, "'1'"),
                          (_bool_entry, "True"))}


def _wrong_size(data):
    data["semigroup"]["size"] = 7


def _fractional_dim(data):
    data["dim"] = 4.7


def _fractional_rank(data):
    data["semigroup"]["rank"] = 1.9


def _zero_dim(data):
    data["dim"] = 0
    for index in range(len(data["matrices"]["list"])):
        data["matrices"]["list"][index] = {"rows": 0, "cols": 0, "re": [], "im": []}


# rows * cols still matches the entry count
def _negative_rows(data):
    matrix = data["matrices"]["list"][0]
    matrix["rows"], matrix["cols"] = -matrix["rows"], -matrix["cols"]


# integers beyond int64 and float64, which NumPy refuses with OverflowError
def _oversized_entry(data):
    data["semigroup"]["table"][1][1] = 10**20


def _oversized_literal(data):
    data["matrices"]["list"][0]["re"][0] = 10**400


@pytest.mark.parametrize("name, mutate", [
    pytest.param("klein_four", mutate, id=mutate.__name__) for mutate in (
        _drop_matrices, _ragged_table, _text_entry, _list_semigroup,
        _fractional_entry, _string_entry, _bool_entry, _wrong_size,
        _fractional_dim, _zero_dim, _negative_rows, _oversized_entry)] + [
    pytest.param("identity_3", _fractional_rank, id="_fractional_rank"),
    pytest.param("identity_3", _zero_dim, id="_zero_dim_free"),
    pytest.param("identity_3", _oversized_literal, id="_oversized_literal")])
def test_malformed_representation_exit_code(capsys, tmp_path, name, mutate):
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert err.startswith("error: malformed representation: ")
    assert err.count("\n") == 1
    if mutate in BAD_ENTRY_MESSAGES:
        assert err == "error: malformed representation: " + BAD_ENTRY_MESSAGES[mutate]


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))
JUNK = [None, "x", [], True, -1, 0, 10**30]


def _keys(obj):
    """Every (dict, key) pair in a JSON tree."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield obj, key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


def _number_lists(data):
    """The re and im lists of every matrix and the rows of a Cayley table."""
    for matrix in data["matrices"]["list"]:
        yield matrix["re"]
        yield matrix["im"]
    yield from data["semigroup"].get("table", [])


def _some_node(data, draw):
    """(container, key) of a node of the tree, found by walking down from
    the root and stopping at each level with a drawn bit."""
    node = data
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        parent, node = node, node[key]
        if not (isinstance(node, (dict, list)) and node) or draw(st.booleans()):
            return parent, key


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_fixtures_exit_cleanly(tmp_path_factory, data):
    """A fixture with a key dropped, a value replaced by junk, or a number
    list cut or extended exits with 0, 1 or 2 and never raises."""
    draw = data.draw
    name = draw(st.sampled_from(FIXTURE_NAMES))
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    kind = draw(st.sampled_from(["drop", "replace", "resize"]))
    if kind == "drop":
        parent, key = draw(st.sampled_from(list(_keys(doc))))
        del parent[key]
    elif kind == "replace":
        parent, key = _some_node(doc, draw)
        parent[key] = draw(st.sampled_from(JUNK))
    else:
        numbers = draw(st.sampled_from(list(_number_lists(doc))))
        if draw(st.booleans()):
            del numbers[draw(st.integers(0, len(numbers) - 1)):]
        else:
            numbers.append(draw(st.sampled_from([0, 0.5])))
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["analyze", str(path)])
    assert code in (0, 1, 2)


def test_malformed_character_exit_code(capsys, tmp_path):
    # schema/v1 angles are pairs of strings holding integers, q nonzero
    for angles in ([["0"], ["0", "1"]],
                   [[0, 1], [1.5, 2], [1, 2], [True, 1]],
                   [["0", "1"], ["1.5", "2"], ["1", "2"], ["0", "1"]],
                   [["0", "1"], ["1", "2"], ["1", "2"], [True, "1"]],
                   [["0", "1"], ["1", "0"], ["0", "1"], ["0", "1"]]):
        char_path = tmp_path / "malformed.json"
        char_path.write_text(json.dumps({"angles": angles}))
        code, _, err = run(capsys, "falsify", fixture_path("klein_four"), str(char_path))
        assert code == 2, angles
        assert err.startswith("error: malformed character: ")
        assert err.count("\n") == 1, err


# N^1 with T = [[1, 1.5e-10], [0, 1]]: ker(1 - T) = rg(1 - T) = span(e_1),
# so 1 is no pole, and the certificate finds the Jordan defect 1.5e-10
# beyond tol_rank: T is Unbounded, with witness its generator
NON_POLE = {"semigroup": {"type": "free_commutative", "rank": 1}, "dim": 2,
            "matrices": {"per": "generator", "list": [
                {"rows": 2, "cols": 2, "re": [1.0, 1.5e-10, 0.0, 1.0],
                 "im": [0.0, 0.0, 0.0, 0.0]}]}}

ROUNDING_FAILURE = ("spectral character failed the pole test: rounding check "
                    "||W^H F - I|| = 1.000e+00 exceeds tol_rank 1.000e-10")


def _doubled_coordinates(monkeypatch, pick):
    """Double W^H of the spectral character that `pick` chooses, through a
    monkeypatched ergodic.unitary_spectrum, so that its pole's factors
    P = F W^H fail the rounding check ||W^H F - I|| <= tol_rank: W^H F - I
    is the identity."""
    spectrum = ergodic.unitary_spectrum

    def doubled(rep, config=None):
        result = spectrum(rep, config)
        index = pick(result.characters)
        result.coordinates[index] = 2 * result.coordinates[index]
        return result

    monkeypatch.setattr(ergodic, "unitary_spectrum", doubled)


@pytest.mark.parametrize("command, section", [
    ("analyze", "poles"),
    ("decompose", "peripheral_decomposition"),
    ("quasicompact", "quasi_compactness"),
    ("nisa", "ergodic"),
], ids=["analyze", "decompose", "quasicompact", "nisa"])
def test_non_pole_spectrum_is_a_violation(capsys, monkeypatch, command, section):
    # a pole that fails the rounding check raises NonPoleSpectrum: a
    # violation with exit 1 and a report, never 2 as an input error.
    # identity_3's one character is the trivial one, so under `nisa` the
    # ergodic section fails first, and the positive suites after it
    _doubled_coordinates(monkeypatch, lambda characters: 0)
    code, out, err = run(capsys, command, fixture_path("identity_3"), "--format", "json")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["boundedness"]["status"] == "certified"
    assert data["unitary_spectrum"]["count"] == 1
    assert data[section] == {"error": ROUNDING_FAILURE}
    assert f"{section.replace('_', ' ')}: {ROUNDING_FAILURE}" in data["violations"]
    if command == "nisa":
        assert data["positivity"]["nisa"] == {"error": ROUNDING_FAILURE}
        assert f"nisa suite: {ROUNDING_FAILURE}" in data["violations"]


# N^1 with T the swap of two coordinates: positive, with the spectral
# characters 1 and -1, each of a one-dimensional eigenspace
SWAP = {"semigroup": {"type": "free_commutative", "rank": 1}, "dim": 2,
        "matrices": {"per": "generator", "list": [
            {"rows": 2, "cols": 2, "re": [0.0, 1.0, 1.0, 0.0],
             "im": [0.0, 0.0, 0.0, 0.0]}]}}


def test_nisa_runs_the_pole_test_of_every_spectral_character(capsys, monkeypatch, tmp_path):
    # the character -1 fails the rounding check, the trivial one passes: the
    # ergodic section and the domination check stand, and the nisa suite,
    # which runs the pole test of every spectral character, is the one
    # violation
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(SWAP))
    _doubled_coordinates(monkeypatch, lambda characters: next(
        i for i, chi in enumerate(characters) if abs(chi.gen_values[0] + 1) < 1e-8))
    code, out, err = run(capsys, "nisa", str(path), "--format", "json")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["unitary_spectrum"]["count"] == 2
    assert (data["ergodic"]["fix_dim"], data["ergodic"]["net_divergence"]) == (1, False)
    assert data["positivity"]["domination"]["fix_dim"] == 1
    assert data["positivity"]["nisa"] == {"error": ROUNDING_FAILURE}
    assert data["violations"] == [f"nisa suite: {ROUNDING_FAILURE}"]


def test_nisa_checks_the_rank_of_the_mean_projection(capsys, monkeypatch):
    # rank P = dim fix(T) decides: a mean projection doubled here has trace
    # 2 on circulant_stochastic_8, whose fixed space is one-dimensional
    split = ergodic.Analysis.ergodic.func

    def doubled(self):
        report = split(self)
        return dataclasses.replace(report, mean_projection=2 * report.mean_projection)

    monkeypatch.setattr(ergodic.Analysis, "ergodic", property(doubled))
    code, out, err = run(capsys, "nisa", fixture_path("circulant_stochastic_8"), "--format", "json")
    assert (code, err) == (1, "")
    data = json.loads(out)
    error = "theorem-equivalence check failed: mean projection rank 2 != fix dimension 1"
    assert data["positivity"]["nisa"] == {"error": error}
    assert data["violations"] == [f"nisa suite: {error}"]


def _count_analysis_calls(monkeypatch, name):
    """The number of calls of the Analysis method `name`, in a list."""
    original = getattr(ergodic.Analysis, name)
    calls = []

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(ergodic.Analysis, name, counted)
    return calls


@pytest.mark.parametrize("command", ["analyze", "nisa"])
def test_a_failed_pole_test_runs_once(capsys, monkeypatch, command):
    # the ergodic, poles, quasi-compactness and positivity sections all read
    # the one character's pole: its rounding check runs once, and each
    # section still reports the error it raised
    _doubled_coordinates(monkeypatch, lambda characters: 0)
    riesz = _count_analysis_calls(monkeypatch, "_riesz_pole")
    code, out, _ = run(capsys, command, fixture_path("identity_3"), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["ergodic"] == {"error": ROUNDING_FAILURE}
    assert data["positivity"]["nisa"] == {"error": ROUNDING_FAILURE}
    assert f"nisa suite: {ROUNDING_FAILURE}" in data["violations"]
    assert len(riesz) == 1


@pytest.mark.parametrize("command, splits", [("nisa", 0), ("analyze", 1)])
def test_nisa_builds_no_decomposition(capsys, monkeypatch, command, splits):
    # the nisa suite runs the pole test of each spectral character itself,
    # not through the quasi-compactness verdict, which splits C^n too
    split = _count_analysis_calls(monkeypatch, "_split")
    riesz = _count_analysis_calls(monkeypatch, "_riesz_pole")
    code, out, _ = run(capsys, command, fixture_path("circulant_stochastic_8"), "--format", "json")
    assert code == 0
    count = json.loads(out)["unitary_spectrum"]["count"]
    assert (len(split), sorted(index for index, in riesz)) == (splits, list(range(count)))


def test_no_cesaro_chain_without_a_mean_projection(capsys, tmp_path):
    # NON_POLE is Unbounded, so no analysis has a mean projection: no chain
    # runs, the report has no ergodic section and the CSV only its header
    path, csv_path = tmp_path / "non_pole.json", tmp_path / "trace.csv"
    path.write_text(json.dumps(NON_POLE))
    code, out, err = run(capsys, "ergodic", str(path), "--format", "json",
                         "--cesaro-csv", str(csv_path))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["boundedness"]["status"], data["boundedness"]["witness"]) == ("unbounded", [1])
    assert "ergodic" not in data
    assert csv_path.read_text().splitlines() == ["side,distance,composed_distance"]


def _ill_conditioned_roots_of_unity(seed):
    """T = S D S^-1 over N: D holds the 7th roots of unity e^(2 pi i j / 7),
    j = 0..5, and S = Q_1 diag(logspace(0, 3, 6)) Q_2 for seeded QR
    unitaries, so that S has condition 1e3."""
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
              for _ in range(2))
    s = q1 @ np.diag(np.logspace(0, 3, 6)) @ q2
    t = s @ np.diag(np.exp(2j * np.pi * np.arange(6) / 7)) @ np.linalg.inv(s)
    return {"semigroup": {"type": "free_commutative", "rank": 1}, "dim": 6,
            "matrices": {"per": "generator", "list": [matrix_to_json(t)]}}


def _ill_conditioned_regular_z8(condition, seed=0):
    """The regular representation of Z8, T_s = S P^s S^-1 for the cyclic
    shift P, with S = Q_1 diag(logspace(0, log10(condition), 8)) Q_2 for
    seeded QR unitaries, so that S has the given condition number."""
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
              for _ in range(2))
    s = q1 @ np.diag(np.logspace(0, np.log10(condition), 8)) @ q2
    inverse = np.linalg.inv(s)
    shift = np.roll(np.eye(8), 1, axis=0)
    return {"semigroup": {"type": "cayley", "size": 8, "neutral": 0,
                          "table": [[(i + j) % 8 for j in range(8)] for i in range(8)]},
            "dim": 8, "matrices": {"per": "element", "list": [
                matrix_to_json(s @ np.linalg.matrix_power(shift, k) @ inverse)
                for k in range(8)]}}


@pytest.mark.parametrize("condition", [1e3, 1e5, pytest.param(1e7, marks=pytest.mark.xfail(
    strict=True, reason="F3: E_s is 0-dimensional, but the isotypic projections reach "
                        "a cross residual max ||P_chi P_tau|| of 4.6e-4, above the absolute "
                        "bound 10 tol_hom of the report"))],
    ids=["1e3", "1e5", "1e7"])
def test_an_ill_conditioned_regular_z8_passes(capsys, tmp_path, condition):
    # every pole is an isotypic projection, whose trace gives its rank, and
    # E_r and E_s take their known dimensions 8 and 0, so no rank cutoff or
    # pairing threshold meets the similarity's condition
    path = tmp_path / "z8.json"
    path.write_text(json.dumps(_ill_conditioned_regular_z8(condition)))
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    data = json.loads(out)
    assert (code, err, data["violations"]) == (0, "", [])
    assert data["unitary_spectrum"]["eigenspace_dims"] == [1] * 8
    assert data["peripheral_decomposition"]["reversible_dim"] == 8


def _analyze_in_a_fresh_process(paths):
    """[exit codes, whether scipy.linalg was loaded] of a fresh interpreter
    that imports ergospec.cli and runs main(["analyze", path, "--format",
    "json"]) on each path."""
    code = ("import contextlib, io, json, sys\n"
            "import ergospec.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [ergospec.cli.main(['analyze', path, '--format', 'json'])\n"
            "             for path in sys.argv[1:]]\n"
            "print(json.dumps([codes, 'scipy.linalg' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return json.loads(done.stdout)


def test_a_finite_analyze_never_loads_scipy_linalg():
    # a finite monoid's answers come from numpy alone, in the whole
    # process; the N^k certificate's Schur forms are what loads scipy.linalg
    finite = sorted(str(path) for path in FIXTURES.glob("*.json")
                    if '"cayley"' in path.read_text())
    assert len(finite) == 3
    assert _analyze_in_a_fresh_process(finite) == [[0] * len(finite), False]
    assert _analyze_in_a_fresh_process([fixture_path("identity_3")]) == [[0], True]


@pytest.mark.parametrize("command", ["analyze", "decompose", "quasicompact"])
def test_a_failed_restriction_is_a_violation(capsys, tmp_path, command, monkeypatch):
    # six roots of unity on C^6 under a similarity of condition 1e3: E_r
    # and E_s take their known dimensions 6 and 0, where a rank cutoff once
    # gave E_s two spurious dimensions and failed its restriction. The
    # Cesaro chain still misses cesaro_target: its composed distance is
    # least, 3.7e-5, at side 256, and then doubles with the side as the
    # rounding of T^N grows
    path = tmp_path / "roots_of_unity.json"
    path.write_text(json.dumps(_ill_conditioned_roots_of_unity(0)))
    code, out, err = run(capsys, command, str(path), "--format", "json")
    data = json.loads(out)
    missed = [] if command == "decompose" else [
        "ergodic net failed to reach cesaro_target although the algebraic verdict is ergodic"]
    assert (code, err, data["violations"]) == (1 if missed else 0, "", missed)
    assert data["unitary_spectrum"]["count"] == 6
    if command != "quasicompact":
        assert (data["peripheral_decomposition"]["reversible_dim"],
                data["peripheral_decomposition"]["stable_dim"]) == (6, 0)
    # a restriction to E_s that fails its invariance check raises inside
    # the analysis of an accepted input, a failed cross-check: exit 1 with
    # a report, never 2 as an input error
    def failing(rep, subspace, config=None):
        raise NotInvariant((1,), 0.25)

    monkeypatch.setattr(ergodic, "restrict", failing)
    code, out, err = run(capsys, command, str(FIXTURES / "jordan_half.json"),
                         "--format", "json")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["boundedness"]["status"] == "certified"
    assert data["unitary_spectrum"]["count"] == 0
    prefix = "subspace not invariant under matrix for (1,), residual "
    if command != "quasicompact":
        error = data["peripheral_decomposition"]["error"]
        assert error.startswith(prefix)
        assert f"peripheral decomposition: {error}" in data["violations"]
    if command != "decompose":
        # quasi-compactness keeps its own verdict, which the failed split
        # cannot confirm
        qc = data["quasi_compactness"]
        assert (qc["riesz_all"], qc["eigenspace_dims"]) == (True, [])
        assert qc["decomposition_consistent"] is False
        assert qc["decomposition_error"].startswith(prefix)
        assert "quasi-compactness cross-checks disagree" in data["violations"]
    assert len(set(data["violations"])) == len(data["violations"])


def test_classes_at_infinity_off_their_operators_are_a_violation(capsys, monkeypatch):
    # a class whose members' operators differ by more than tol_hom means
    # the spectrum missed a character that tells them apart
    off = ergodic.InfinitySemigroup(classes=[[0, 1, 2, 3]], residual=2.0)
    monkeypatch.setattr(ergodic.Analysis, "infinity", property(lambda self: off))
    code, out, _ = run(capsys, "stability", fixture_path("klein_four"), "--format", "json")
    data = json.loads(out)
    assert code == 1
    assert data["semigroup_at_infinity"] == {"count": 1, "classes": [[0, 1, 2, 3]],
                                             "class_residual": 2.0}
    assert data["violations"] == ["operators at infinity disagree with the spectrum"]


def test_a_moved_finite_mean_projection_is_a_violation(capsys, monkeypatch):
    # a finite monoid runs no Cesaro chain: its cross-check is the residual
    # of P_1 under the generators
    ergodic_of = ergodic.Analysis.ergodic.func

    def moved(self):
        report = ergodic_of(self)
        report.kernel_average_residual, report.net_divergence = 2.5e-9, True
        return report

    monkeypatch.setattr(ergodic.Analysis, "ergodic", property(moved))
    code, out, _ = run(capsys, "ergodic", fixture_path("klein_four"), "--format", "json")
    data = json.loads(out)
    assert code == 1
    assert data["ergodic"]["kernel_average_residual"] == 2.5e-9
    assert data["violations"] == [
        "generators move the mean projection P_1: relative residual 2.500e-09 exceeds tol_hom"]


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/rep.json")
    assert code == 2


@pytest.mark.parametrize("flags, expected", [
    (["--tol-rank", "0"], 2),
    (["--max-cesaro", "0"], 2),
    (["--tol-rank", "1e-13"], 0),
    (["falsify", "--seed", "-1"], 2),
    (["dual", "--tol-rank", "0"], 2),
    (["falsify", "--trials", "0"], 2),
    (["falsify", "--trials", "-1"], 2),
    (["ensemble", "--count", "-3"], 2),
    (["ensemble", "--count", "0"], 2),
    (["ensemble", "--count", "1", "--n", "1"], 2),
    (["ensemble", "--count", "1", "--n", "257"], 2),
    (["ensemble", "--count", "1", "--k", "0"], 2),
    (["ensemble", "--count", "1", "--seed", "-5"], 2),
    # NaN fails every comparison, so a bare test of <= 0 lets it through
    (["--tol-rank", "nan"], 2),
    (["--tol-rank", "inf"], 2),
    (["--tol-char", "nan"], 2),
# explicit ids, so that a row inserted anywhere renames no other case; they
# keep the names the index-based ids gave the first sixteen rows
], ids=["flags0-2", "flags1-2", "flags2-0", "flags3-2", "flags4-2", "flags5-2",
        "flags6-2", "flags7-2", "flags8-2", "flags9-2", "flags10-2", "flags11-2",
        "flags12-2", "flags13-2", "flags14-2", "flags15-2"])
def test_tolerance_flags_exit_codes(capsys, tmp_path, flags, expected):
    # an out-of-range flag is an input error: one line on stderr, exit 2;
    # flags that name no command are given to analyze
    command, *flags = flags if flags[0] in cli.COMMANDS else ["analyze", *flags]
    char_path = tmp_path / "one.json"
    char_path.write_text(json.dumps({"angles": [["0", "1"]] * 4}))
    inputs = {"ensemble": [], "falsify": [fixture_path("klein_four"), str(char_path)]}
    code, _, err = run(capsys, command,
                       *inputs.get(command, [fixture_path("klein_four")]), *flags)
    assert code == expected
    assert "Traceback" not in err
    if expected == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_custom_tolerances_recorded(capsys):
    code, out, _ = run(capsys, "analyze", fixture_path("identity_3"),
                       "--format", "json", "--tol-rank", "1e-9",
                       "--max-cesaro", "256")
    assert code == 0
    data = json.loads(out)
    assert data["tolerances"] == {"tol_rank": 1e-9, "tol_char": 1e-8, "tol_cluster": 1e-7,
                                  "tol_hom": 1e-8, "cesaro_max_side": 256,
                                  "cesaro_target": 1e-6}
    sides = [row["side"] for row in data["ergodic"]["cesaro_trace"]]
    assert max(sides) <= 256


def test_directory_input_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_into_a_directory_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", fixture_path("klein_four"),
                       "--report", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_binary_input_exit_code(capsys, tmp_path):
    binary = tmp_path / "rep.json"
    binary.write_bytes(bytes(range(128, 256)))
    code, _, err = run(capsys, "analyze", str(binary))
    assert code == 2
    assert err.startswith("error: not a text file: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"semigroup": ' + "[" * 5_000 + "]" * 5_000 + ', "angles": [], "count": 1}'],
    ids=["200000_deep", "5000_deep_under_a_key"])
@pytest.mark.parametrize("command", [
    ["analyze", "DEEP"], ["falsify", fixture_path("klein_four"), "DEEP"],
    ["ensemble", "--config", "DEEP"]], ids=["analyze", "falsify", "ensemble"])
def test_deeply_nested_input_exit_code(capsys, tmp_path, command, text):
    # json raises RecursionError on such a text; orjson, which has no depth
    # limit, must never see it, since it would overflow the C stack
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    code, out, err = run(capsys, *[str(deep) if arg == "DEEP" else arg for arg in command])
    assert (code, out, err) == (2, "", "error: the JSON text is nested too deeply\n")


def _set(*keys):
    def mutate(data, value):
        *path, last = keys
        for key in path:
            data = data[key]
        data[last] = value
    return mutate


@pytest.mark.parametrize("value", [2**64, 10**20], ids=["2**64", "10**20"])
@pytest.mark.parametrize("name, mutate", [
    ("klein_four", _set("semigroup", "size")),
    ("klein_four", _set("semigroup", "neutral")),
    ("klein_four", _set("semigroup", "table", 1, 1)),
    ("klein_four", _set("matrices", "list", 0, "rows")),
    ("klein_four", _set("matrices", "list", 0, "cols")),
    ("klein_four", _set("dim")),
    ("identity_3", _set("semigroup", "rank"))],
    ids=["size", "neutral", "table_entry", "rows", "cols", "dim", "rank"])
def test_an_integer_beyond_64_bits_is_malformed(capsys, tmp_path, name, mutate, value):
    # orjson reads such a literal as the nearest double, which no integer
    # field accepts
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    mutate(data, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert err.startswith("error: malformed representation: ") and err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("{bad", "error: Expecting property name enclosed in double quotes"),
    ('{"count": "many"}', "error: malformed ensemble config: TypeError: count must be an "
                          "integer, got 'many'"),
    ("[1, 2]", "error: malformed ensemble config: AttributeError: "),
    ('{"ensemble": []}', "error: malformed ensemble config: TypeError: ensemble must be a "
                         "string, got []"),
    ('{"ensemble": {}}', "error: malformed ensemble config: TypeError: ensemble must be a "
                         "string, got {}"),
    ('{"count": 8.7}', "error: malformed ensemble config: TypeError: count must be an "
                       "integer, got 8.7"),
    ('{"n": "8"}', "error: malformed ensemble config: TypeError: n must be an integer, "
                   "got '8'"),
    ('{"k": true}', "error: malformed ensemble config: TypeError: k must be an integer, "
                    "got True"),
    # beyond 64 bits the parser gives the nearest double, not the integer
    ('{"seed": 18446744073709551617}', "error: malformed ensemble config: TypeError: seed "
                                       "must be an integer, got 1.8446744073709552e+19"),
    ('{"ensemble": "nope"}', "error: unknown ensemble 'nope' in the ensemble config"),
    ('{"count": 0}', "error: count must be at least 1, got 0"),
    ('{"n": 1}', "error: n must lie in [2, 256], got 1"),
    ('{"k": 0}', "error: k must be at least 1, got 0"),
    ('{"seed": -5}', "error: seed must be non-negative, got -5"),
], ids=["not_json", "text_count", "list", "list_ensemble", "object_ensemble",
        "float_count", "text_n", "bool_k", "wide_seed", "unknown_ensemble",
        "zero_count", "n_one", "k_zero", "negative_seed"])
def test_malformed_ensemble_config_exit_code(capsys, tmp_path, text, message):
    config = tmp_path / "ensemble.json"
    config.write_text(text)
    code, out, err = run(capsys, "ensemble", "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_known_command_builds_one_parser(capsys, monkeypatch):
    # only the invoked command's parser is built, not all ten, and only on
    # the command's first call in the process
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._command_parser.cache_clear()
    for _ in range(2):
        code, _, _ = run(capsys, "analyze", fixture_path("klein_four"), "--format", "json")
        assert code == 0
    assert built == ["ergospec analyze"]


def test_top_level_help_and_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ergospec ")
    for name in cli.COMMANDS:
        assert name in out
    for help_text in ["enumerate the unitary dual of a finite monoid",
                      "run the coefficient-inequality falsifier",
                      "run a seeded random equivalence suite"]:
        assert help_text in out
    for argv in [[], ["bogus"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ergospec ") and "ergospec: error: " in err


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ergospec {command} ")


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ergospec", "dual", fixture_path("klein_four"),
                                      "--format", "json"])
    code = main()
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)) == 4


def test_flags_do_not_outlive_a_call(capsys):
    # nothing built by one call, parser or parsed flags, reaches the next
    first = run(capsys, "analyze", fixture_path("identity_3"), "--format", "json",
                "--tol-rank", "1e-9")
    second = run(capsys, "analyze", fixture_path("identity_3"), "--format", "json")
    assert (first[0], second[0]) == (0, 0)
    assert json.loads(first[1])["tolerances"]["tol_rank"] == 1e-9
    assert json.loads(second[1])["tolerances"]["tol_rank"] == ToleranceConfig().tol_rank
