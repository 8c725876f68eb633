import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import struct
import tracemalloc

import numpy as np
import pytest

import ergospec as es
from ergospec import serialize
from ergospec.cli import main
from ergospec.errors import ParseError
from ergospec.serialize import (
    _read_json,
    canonical_dumps,
    character_from_json,
    load_representation,
    matrix_from_json,
    matrix_to_json,
    representation_digest,
    representation_from_json,
    semigroup_from_json,
)

from conftest import (
    FIXTURES,
    REPO,
    SCHEMAS,
    angles,
    cyclic_monoid,
    free,
    load_fixture,
    monoid_pool,
)


def representation_to_json(rep):
    """The wire format of a representation, which representation_from_json
    reads back."""
    return {
        "semigroup": rep.semigroup.to_json(),
        "dim": rep.dim,
        "matrices": {
            "per": "element" if rep.is_finite else "generator",
            "list": [matrix_to_json(a) for a in rep.matrices],
        },
    }


def test_semigroup_round_trip(klein_monoid):
    data = klein_monoid.to_json()
    assert semigroup_from_json(data) == klein_monoid
    n2 = free(2)
    assert semigroup_from_json(n2.to_json()) == n2


def test_semigroup_unknown_type():
    with pytest.raises(ParseError):
        semigroup_from_json({"type": "group_presentation"})


def test_matrix_round_trip():
    mat = np.array([[1.0 + 2.0j, 0.0], [-0.5, 3.0 - 1.0j]])
    again = matrix_from_json(matrix_to_json(mat))
    np.testing.assert_allclose(again, mat)


def test_matrix_entry_count_mismatch():
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})


def test_representation_round_trip(klein_rep):
    data = representation_to_json(klein_rep)
    again = representation_from_json(data)
    assert again.dim == klein_rep.dim
    for a, b in zip(again.matrices, klein_rep.matrices):
        np.testing.assert_allclose(a, b)


def test_representation_wrong_per_tag(klein_rep):
    data = representation_to_json(klein_rep)
    data["matrices"]["per"] = "generator"
    with pytest.raises(ParseError, match="element"):
        representation_from_json(data)


def test_representation_dim_mismatch(klein_rep):
    data = representation_to_json(klein_rep)
    data["dim"] = 5
    with pytest.raises(ParseError, match="does not match"):
        representation_from_json(data)


def test_parse_error_carries_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "semigroup": [,]\n}\n')
    with pytest.raises(ParseError) as err:
        load_representation(bad)
    assert err.value.line == 2


def test_character_round_trip_exact(klein_monoid):
    dual = es.enumerate_unitary_dual(klein_monoid)
    for chi in dual:
        again = character_from_json(chi.to_json(), klein_monoid)
        assert again == chi and angles(again) == angles(chi)


# bench/workloads.py monoids, which list their characters as Fractions
WORKLOAD_MONOIDS = ("Z12", "Z2xZ4", "Z2xZ2xZ8", "L3xZ6", "T2xZ4", "L2xT3xZ10")


def test_to_json_writes_each_angle_in_lowest_terms():
    workloads = _bench_workloads()
    for monoid in monoid_pool() + [es.validate_monoid(workloads.make_monoid(name).table, 0)
                                   for name in WORKLOAD_MONOIDS]:
        for chi in es.enumerate_unitary_dual(monoid):
            assert chi.to_json() == {"angles": [[str(a.numerator), str(a.denominator)]
                                                for a in angles(chi)]}
    for name in WORKLOAD_MONOIDS:
        planted = workloads.make_monoid(name)
        dual = es.enumerate_unitary_dual(es.validate_monoid(planted.table, 0))
        assert sorted(tuple("/".join(pair) for pair in chi.to_json()["angles"])
                      for chi in dual) == \
            sorted(workloads._char_key(c) for c in planted.unitary_chars()), name


def test_any_form_of_an_angle_loads_the_spectrum_character():
    # unreduced, negative-denominator and out-of-range pairs name the same
    # angle, and load equal to the spectrum's own character
    rep = es.regular_representation(cyclic_monoid(6))
    spectrum = es.unitary_spectrum(rep)
    for index, chi in enumerate(spectrum.characters):
        reduced = [(a.numerator, a.denominator) for a in angles(chi)]
        for form in (lambda p, q: (3 * p, 3 * q), lambda p, q: (-p, -q),
                     lambda p, q: (p - 2 * q, q), lambda p, q: (q - p, -q)):
            data = {"angles": [[str(x) for x in form(p, q)] for p, q in reduced]}
            loaded = character_from_json(data, rep.semigroup)
            assert loaded == chi and hash(loaded) == hash(chi)
            assert spectrum.index(loaded) == index


def test_character_round_trip_gen_values():
    n2 = free(2)
    chi = es.character_from_gen_values(n2, [1j, np.exp(0.7j)])
    again = character_from_json(chi.to_json(), n2)
    for a, b in zip(again.gen_values, chi.gen_values):
        assert abs(a - b) < 1e-15


def test_character_rejects_non_multiplicative(semilattice_monoid):
    data = {"angles": [["0", "1"], ["1", "2"]]}  # -1 at the absorbing element
    with pytest.raises(ParseError, match="multiplicative"):
        character_from_json(data, semilattice_monoid)


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def _entrywise(data):
    """The fixture's representation with each entry built as complex(re, im),
    which keeps an imaginary -0.0 that the decoder's re + 1j * im drops."""
    mats = []
    for m in data["matrices"]["list"]:
        entries = [complex(x, y) for x, y in zip(m["re"], m["im"])]
        mats.append(np.array(entries).reshape(m["rows"], m["cols"]))
    return es.validate_representation(semigroup_from_json(data["semigroup"]), mats)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cli_and_in_memory_inputs_share_the_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["spectrum", str(FIXTURES / f"{name}.json"), "--format", "json"])
    assert code == 0
    from_file = json.loads(out.getvalue())["input_digest"]
    for rep in (representation_from_json(load_fixture(name)), _entrywise(load_fixture(name))):
        report = es.analyze(rep, sections=["spectrum"])
        assert report.data["input_digest"] == from_file


# each fixture's input_digest as recorded when json wrote the header: a
# change of encoder, or of how the header is spelled, fails here
FIXTURE_DIGESTS = {
    "circle_discretization_16": "628bc64c6dca1fe09371842077390977e36873e47cf1db28bf153d7d84d136b1",
    "circle_discretization_4": "8bed1c33dd2246784fd36981c02a9968ee66fcb7eb0daaa0df7be0447dcb7e9f",
    "circle_discretization_8": "f1e2787775eed4af6d017998870f78a1305bf7b032f2a1b18272bf04cda98bbc",
    "circulant_stochastic_8": "a224cc47f833fe0497e133878b1b239c71170e3e6da7c4a6947e8ff509079829",
    "identity_3": "4955761eaeddbc86726d6afc6aaeaf08cc5f537815fccfee76c7a0e9f9987889",
    "jordan_half": "eb43af80e48b4a23e3530da364ff8e3e66f059631261aeb599e7fe96eafed234",
    "klein_four": "953a2d5cb10e85d10483e7e8bcdf8cc29b706680256ebd53bac2aab760188fe2",
    "semilattice": "4b2b23bf89f7c72249530244494eb8df4d27c029e2569eba96f7d11c91c70358",
    "threshold": "3d03b3b32b1ef18515bd9cd2a2673adc96edf1a7e5c055a0f972e21c0810a2b8",
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_digests_are_pinned(name):
    rep = load_representation(str(FIXTURES / f"{name}.json"))
    assert representation_digest(rep) == FIXTURE_DIGESTS[name]


def _rewritten(obj, leaf=lambda x: x, order=list):
    """A copy of a JSON tree with each dict's keys in order(dict) and each
    leaf x replaced by leaf(x)."""
    if isinstance(obj, dict):
        return {key: _rewritten(obj[key], leaf, order) for key in order(obj)}
    if isinstance(obj, list):
        return [_rewritten(x, leaf, order) for x in obj]
    return leaf(obj)


REWRITES = {
    "indent_2": lambda data: json.dumps(data, indent=2),
    "reversed_keys": lambda data: json.dumps(
        _rewritten(data, order=lambda d: reversed(list(d)))),
    "1.0_as_1": lambda data: json.dumps(_rewritten(
        data, lambda x: int(x) if isinstance(x, float) and x.is_integer() else x)),
    "-0.0_as_0.0": lambda data: json.dumps(_rewritten(
        data, lambda x: x + 0.0 if isinstance(x, float) else x)),
}


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
def test_digest_is_stable_under_rewriting_the_file(rewrite, tmp_path):
    # the circle fixtures hold -0.0 entries, most fixtures 1.0
    for name in FIXTURE_NAMES:
        path = FIXTURES / f"{name}.json"
        again = tmp_path / f"{name}.json"
        again.write_text(REWRITES[rewrite](load_fixture(name)))
        assert (representation_digest(load_representation(again))
                == representation_digest(load_representation(path))), name


def _one_ulp_up(data):
    data["matrices"]["list"][0]["re"][0] = float(np.nextafter(
        data["matrices"]["list"][0]["re"][0], np.inf))


def _swap_matrices(data):
    mats = data["matrices"]["list"]
    mats[0], mats[1] = mats[1], mats[0]


@pytest.mark.parametrize("name, change", [
    ("klein_four", _one_ulp_up),
    ("circle_discretization_4", _one_ulp_up),
    ("circle_discretization_4", _swap_matrices),
])
def test_digest_sees_the_matrices(name, change):
    data = load_fixture(name)
    before = representation_digest(representation_from_json(data))
    change(data)
    assert representation_digest(representation_from_json(data)) != before


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_digest_hashes_the_matrices_in_input_order(path):
    # the one update over the stack gives the bytes of one update per
    # matrix, in input order, of a + 0.0 as little-endian complex128
    rep = load_representation(str(path))
    header = canonical_dumps({"dim": rep.dim, "semigroup": rep.semigroup.to_json()})
    expected = hashlib.sha256(header.encode())
    for entry in load_fixture(path.stem)["matrices"]["list"]:
        a = matrix_from_json(entry)
        expected.update(np.ascontiguousarray(a + 0.0, dtype="<c16"))
    assert representation_digest(rep) == expected.hexdigest()


def test_digest_sees_the_semigroup():
    # the trivial representations of the semilattice {0, 1} and of Z2,
    # whose Cayley tables differ in the entry 1 + 1 alone
    def trivial(table):
        return representation_from_json({
            "semigroup": {"type": "cayley", "size": 2, "neutral": 0, "table": table},
            "dim": 1,
            "matrices": {"per": "element", "list": [matrix_to_json(np.eye(1))] * 2}})

    semilattice, z2 = trivial([[0, 1], [1, 1]]), trivial([[0, 1], [1, 0]])
    assert representation_digest(semilattice) != representation_digest(z2)
    moved = dataclasses.replace(
        semilattice, semigroup=dataclasses.replace(semilattice.semigroup, neutral=1))
    assert representation_digest(moved) != representation_digest(semilattice)


def test_fixture_files_load_and_validate():
    names = ["klein_four", "semilattice", "threshold", "jordan_half",
             "identity_3", "circulant_stochastic_8",
             "circle_discretization_4", "circle_discretization_8",
             "circle_discretization_16"]
    for name in names:
        rep = representation_from_json(load_fixture(name))
        assert rep.dim >= 1


def test_fixtures_conform_to_schema():
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMAS / "representation.schema.json") as fh:
        schema = json.load(fh)
    with open(SCHEMAS / "semigroup.schema.json") as fh:
        semigroup_schema = json.load(fh)
    # inline the cross-file reference so no registry wiring is needed
    semigroup_schema.pop("$schema", None)
    semigroup_schema.pop("$id", None)
    schema["properties"]["semigroup"] = semigroup_schema
    validator = jsonschema.Draft202012Validator(schema)
    for path in sorted(FIXTURES.glob("*.json")):
        with open(path) as fh:
            data = json.load(fh)
        validator.validate(data)


def test_report_schema_accepts_real_report(klein_rep):
    jsonschema = pytest.importorskip("jsonschema")
    from ergospec.report import analyze
    report = analyze(klein_rep, seed=7)
    with open(SCHEMAS / "report.schema.json") as fh:
        schema = json.load(fh)
    jsonschema.Draft202012Validator(schema).validate(report.to_json())


def test_canonical_dumps_round_trip(klein_rep):
    data = representation_to_json(klein_rep)
    text = canonical_dumps(data)
    assert canonical_dumps(json.loads(text)) == text


def test_decoding_holds_the_matrices_once():
    # each matrix is written into its row of the stack that the
    # representation keeps, so decoding never holds the input twice: the
    # peak above what is retained stays below it
    data = representation_to_json(es.regular_representation(cyclic_monoid(128)))
    tracemalloc.start()
    try:
        rep = representation_from_json(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.dim == 128
    assert peak - retained < retained


# the parse path: _read_json must return what json.loads returns

json_loads = json.loads   # bound before the `parsers` fixture wraps it


def _bits(obj):
    """`obj` with each float as its IEEE 754 bytes and each other leaf with
    its type, so that == tells -0.0 from 0.0, an int from a float and dict
    keys in another order apart, and NaN equals itself."""
    if isinstance(obj, dict):
        return dict, [(key, _bits(value)) for key, value in obj.items()]
    if isinstance(obj, list):
        return [_bits(x) for x in obj]
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    return type(obj), obj


@pytest.fixture
def parsers(monkeypatch):
    """The names of the parsers that _read_json ran, in order."""
    ran = []

    def spy(name, parse):
        def wrapped(*args, **kwargs):
            ran.append(name)
            return parse(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(serialize.orjson, "loads", spy("orjson", serialize.orjson.loads))
    monkeypatch.setattr(serialize.json, "loads", spy("json", json_loads))
    return ran


def _read_back(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    return _read_json(path)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_read_json_matches_json_on_the_fixtures(tmp_path, parsers, name):
    text = (FIXTURES / f"{name}.json").read_text(encoding="utf-8")
    assert _bits(_read_back(tmp_path, text)) == _bits(json_loads(text))
    assert parsers == ["orjson"]


def _bench_workloads():
    """bench/workloads.py, imported from its file without a change to
    sys.path."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["finite_small", "free_analyze", "large_spectrum"])
def test_read_json_matches_json_on_a_bench_deck(tmp_path, parsers, workload):
    deck = _bench_workloads().make_deck(workload, 1)
    for case in deck:
        assert _bits(_read_back(tmp_path, case.text)) == _bits(json_loads(case.text)), case.name
    assert parsers == ["orjson"] * len(deck)


def test_read_json_matches_json_on_random_doubles(tmp_path, parsers):
    rng = np.random.default_rng(31)
    values = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    values = [float(x) for x in values[np.isfinite(values)]] + [0.0, -0.0]
    text = "[" + ", ".join(map(repr, values)) + "]"
    assert _bits(_read_back(tmp_path, text)) == _bits(values) == _bits(json_loads(text))
    assert parsers == ["orjson"]


HARD_LITERALS = [
    "-0.0", "-0e0", "0e-999", "1e-400", "1e23", "8.988465674311579e307",
    "2.2250738585072011e-308", "2.2250738585072012e-308",       # near the least normal
    "4.9406564584124654e-324", "2.4703282292062327e-324",       # near the least subnormal
    "2.4703282292062328e-324", "1.7976931348623157e308", "1.7976931348623158e308",
    "9007199254740993.0", "9007199254740993e0",                  # 2^53 + 1 ties to even
    "0.1000000000000000055511151231257827021181583404541015625",
    "1.00000000000000011102230246251565404236316680908203125",   # 1 + 2^-53, a tie
    "1.00000000000000011102230246251565404236316680908203125" + "0" * 900 + "1",
    "1" + "0" * 400 + "e-400", "0." + "0" * 400 + "1e401",
]


def test_read_json_matches_json_on_long_literals(tmp_path, parsers):
    # seeded mantissas of 1 to 40 digits, at exponents from the subnormals to 1e300
    rng = np.random.default_rng(32)
    literals = list(HARD_LITERALS)
    for _ in range(5_000):
        digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(1, 41)))))
        literals.append(f"{rng.integers(1, 10)}.{digits}e{rng.integers(-330, 301)}")
    text = "[" + ", ".join(literals) + "]"
    got = _bits(_read_back(tmp_path, text))
    assert got == _bits([float(x) for x in literals]) == _bits(json_loads(text))
    assert parsers == ["orjson"]


@pytest.mark.parametrize("text", [
    "NaN", "[Infinity, -Infinity]", "[1e400]", "[1.7976931348623159e308]",
    "[" + str(10**400) + "]", '["\\ud800"]', '{"type": "\\udfff"}'],
    ids=["nan", "infinity", "1e400", "past_max", "10**400", "lone_high", "lone_low"])
def test_texts_orjson_rejects_are_read_by_json(tmp_path, parsers, text):
    assert _bits(_read_back(tmp_path, text)) == _bits(json_loads(text))
    assert parsers == ["orjson", "json"]


def test_the_largest_cayley_input_takes_orjson(tmp_path, parsers):
    m = 512
    data = {"semigroup": {"type": "cayley", "size": m, "neutral": 0,
                          "table": [[(i + j) % m for j in range(m)] for i in range(m)]},
            "dim": 1,
            "matrices": {"per": "element",
                         "list": [{"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}] * m}}
    text = json.dumps(data)
    assert text.count("[") + text.count("{") == 4 * m + 5 == 2053
    assert _bits(_read_back(tmp_path, text)) == _bits(data)
    assert parsers == ["orjson"]


@pytest.mark.parametrize("openers, ran", [(4096, ["orjson"]), (4097, ["json"])])
def test_texts_with_more_openers_than_the_guard_skip_orjson(tmp_path, parsers, openers, ran):
    # shallow, but the guard counts openers, a bound on the depth
    text = "[" + ", ".join(["[]"] * (openers - 1)) + "]"
    assert _read_back(tmp_path, text) == [[]] * (openers - 1)
    assert parsers == ran
