"""JSON wire formats.

Semigroups:      {"type": "cayley", "size": m, "neutral": i, "table": [[...], ...]}
                 {"type": "free_commutative", "rank": k}
Matrices:        {"rows": n, "cols": n, "re": [...], "im": [...]}   (row-major)
Representations: {"semigroup": {...}, "dim": n,
                  "matrices": {"per": "element" | "generator", "list": [...]}}
Characters:      {"angles": [["p", "q"], ...]} or {"gen_values": [{"re": .., "im": ..}, ...]}

Input files are read once as bytes and parsed by orjson, whose correctly
rounded number parser gives the doubles json gives, several times faster.
orjson has no nesting limit and overflows the C stack on a deep enough
text, so a text with more "[" and "{" than twice what a representation of
the largest finite monoid holds goes to json, whose RecursionError becomes
a ParseError. So does a text orjson rejects: json reads NaN, Infinity,
literals beyond float64 and lone surrogates, and reports any other fault
with a line and column. orjson reads an integer literal beyond 64 bits as
the nearest double, which every integer field of schema/v1 rejects.

Every JSON text the package writes, reports and the digest header alike,
comes from `canonical_dumps`: orjson with sorted keys and no whitespace.
It prints the shortest digits that read back as the same double, as json
does, but spells the exponent its own way: 1e-05 as 0.00001, 1.5e-07 as
1.5e-7, 1e+16 as 1e16. It would write a non-finite float as null; no report
holds one. A report's keys are strings and its text is ASCII.
"""

import contextlib
import hashlib
import itertools
import json
import re

import numpy as np
import orjson

from .characters import UnitaryCharacter, _root, character_from_gen_values
from .errors import ParseError
from .representations import validate_representation
from .semigroups import (
    MAX_MONOID_SIZE,
    FiniteCommutativeMonoid,
    FreeCommutativeMonoid,
    validate_monoid,
)

# a text's nesting depth is at most its count of "[" and "{"; a Cayley
# representation at MAX_MONOID_SIZE opens 4m + 5 of them, about half this bound
_MAX_OPENERS = 8 * MAX_MONOID_SIZE


def canonical_dumps(obj):
    """`obj` as compact JSON text with sorted keys, as orjson writes it."""
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS).decode()


def representation_digest(rep):
    """The report's `input_digest`: SHA-256 over canonical_dumps({"dim": n,
    "semigroup": rep.semigroup.to_json()}), then over each matrix in input
    order as the row-major little-endian complex128 bytes of a + 0.0, which
    folds -0.0 into 0.0: one update with the whole stack. How the input
    file was written does not enter it."""
    header = canonical_dumps({"dim": rep.dim, "semigroup": rep.semigroup.to_json()})
    h = hashlib.sha256(header.encode())
    h.update(np.ascontiguousarray(rep.matrices + 0.0, dtype="<c16"))
    return h.hexdigest()


def _integer(value, name):
    """`value`, which schema/v1 requires to be an integer. Python counts a
    bool as an int, JSON does not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def semigroup_from_json(data):
    kind = data.get("type")
    if kind == "cayley":
        table = data["table"]
        size = _integer(data["size"], "size")
        if size != len(table):
            raise ValueError(f"size {size} does not match the {len(table)} rows of the table")
        # one pass over the entries' types; the loop names the first bad one
        if not {int}.issuperset(map(type, itertools.chain.from_iterable(table))):
            for row in table:
                for entry in row:
                    _integer(entry, "a Cayley table entry")
        return validate_monoid(table, _integer(data["neutral"], "neutral"))
    if kind == "free_commutative":
        return FreeCommutativeMonoid(rank=_integer(data["rank"], "rank"))
    raise ParseError(f"unknown semigroup type {kind!r}")


def matrix_to_json(mat):
    mat = np.asarray(mat, dtype=np.complex128)
    return {"rows": mat.shape[0], "cols": mat.shape[1],
            "re": mat.real.ravel().tolist(), "im": mat.imag.ravel().tolist()}


def matrix_from_json(data):
    rows, cols = _integer(data["rows"], "rows"), _integer(data["cols"], "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"rows and cols must be nonnegative, got {rows} x {cols}")
    re = np.asarray(data["re"], dtype=np.float64)
    im = np.asarray(data["im"], dtype=np.float64)
    if re.size != rows * cols or im.size != rows * cols:
        raise ParseError("matrix entry count does not match rows * cols")
    return (re + 1j * im).reshape(rows, cols)


def representation_from_json(data, config=None):
    semigroup = semigroup_from_json(data["semigroup"])
    per = data["matrices"]["per"]
    expected = "element" if isinstance(semigroup, FiniteCommutativeMonoid) else "generator"
    if per != expected:
        raise ParseError(f'matrices must be given per "{expected}" for this semigroup')
    # each matrix goes into its row of the one stack that validation keeps
    entries, stack = data["matrices"]["list"], []
    for index, entry in enumerate(entries):
        a = matrix_from_json(entry)
        if not index:
            stack = np.empty((len(entries),) + a.shape, dtype=np.complex128)
        elif a.shape != stack.shape[1:]:
            raise ValueError("all matrices must be square of equal dimension")
        stack[index] = a
    rep = validate_representation(semigroup, stack, config)
    if rep.dim != _integer(data["dim"], "dim"):
        raise ParseError(f'declared dim {data["dim"]} does not match matrices ({rep.dim})')
    return rep


def _read_json(path):
    """The decoded JSON text of the file at `path`, by the two parsers the
    module docstring describes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.count(b"[") + raw.count(b"{") <= _MAX_OPENERS:
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # a binary file is not JSON text
        raise ParseError(f"not a text file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("the JSON text is nested too deeply") from exc


@contextlib.contextmanager
def _decoding(what):
    """Report data that does not have the shape the decoder reads as a
    ParseError: a missing key, a ragged table, a non-numeric entry, an
    integer too large for its machine type, a list where an object belongs."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, IndexError,
            OverflowError) as exc:
        raise ParseError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def load_representation(path, config=None):
    data = _read_json(path)
    with _decoding("representation"):
        return representation_from_json(data, config)


def load_character(path, semigroup):
    data = _read_json(path)
    with _decoding("character"):
        return character_from_json(data, semigroup)


def _angle(pair):
    """The angle p/q mod 1 of a pair ["p", "q"], two strings holding
    integers as schema/v1 requires, as (p, q) with q > 0 and 0 <= p < q."""
    p, q = pair
    for part in (p, q):
        if not isinstance(part, str) or not re.fullmatch(r"-?[0-9]+", part):
            raise ValueError(f"an angle part must be a string holding an integer, got {part!r}")
    num, den = int(p), int(q)
    if den == 0:
        raise ValueError(f"angle {p}/{q} has a zero denominator")
    if den < 0:
        num, den = -num, -den
    return num % den, den


def character_from_json(data, semigroup):
    if "angles" in data:
        if not isinstance(semigroup, FiniteCommutativeMonoid):
            raise ParseError("angle characters require a finite monoid")
        angles = tuple(_angle(pair) for pair in data["angles"])
        if len(angles) != semigroup.size:
            raise ParseError("need one angle per element")
        values = [_root(p, q) for p, q in angles]
        for s in semigroup.elements():
            for t in semigroup.elements():
                if abs(values[s] * values[t] - values[semigroup.add(s, t)]) > 1e-9:
                    raise ParseError(f"angles are not multiplicative at ({s}, {t})")
        # a character's angles are multiples of 1/|K|; see characters
        order = len(semigroup.kernel.carrier)
        for s, (p, q) in enumerate(angles):
            if p * order % q:
                raise ParseError(f"angle {p}/{q} at element {s} is not a multiple of "
                                 f"1/{order}, one over the order of the kernel group")
        return UnitaryCharacter(semigroup,
                                numerators=tuple(p * order // q for p, q in angles))
    if "gen_values" in data:
        values = [complex(v["re"], v["im"]) for v in data["gen_values"]]
        return character_from_gen_values(semigroup, values)
    raise ParseError("character needs either angles or gen_values")
