"""JSON codecs for the file formats documented in docs/formats.md.

Complex scalars are [re, im] pairs; matrices are nested row lists.
``loads`` reads a spec with each matrix held as one float64 ndarray of its
pairs where it can, ``text_loads`` reads ring and module files.  All
loaders raise SchemaError with a path-like location for malformed data,
which the CLI maps to the validation exit code.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import sys
import time
from collections.abc import Mapping, Sequence
from io import BytesIO, TextIOWrapper
from itertools import chain
from typing import Any

import numpy as np

from .algebra import MultiMatrixAlgebra, StarHomomorphism, TraceWeights
from .fusion import FusionModule, FusionRing

__all__ = [
    "SchemaError", "loads", "text_loads", "canonical_text", "canonical_object",
    "algebra_from_json", "expectation_spec_from_json",
    "ring_to_text", "ring_to_bytes", "ring_from_bytes", "ring_from_json",
    "module_from_json",
]

log = logging.getLogger("qindex.io")


class SchemaError(ValueError):
    """Input does not match a documented schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _matrix_from_json(data: Any, path: str) -> np.ndarray:
    """The complex matrix held as a list of rows of [re, im] pairs, or as
    the (rows, cols, 2) ndarray of its pairs that ``loads`` read for it."""
    if isinstance(data, np.ndarray):
        _expect(data.ndim == 3 and data.shape[2] == 2 and data.size
                and data.dtype.kind in "iuf", path, "matrix is a nonempty list of rows")
        pairs = data
    else:
        pairs = _pairs_from_lists(data, path)
    pairs = pairs.astype(np.float64, copy=False)
    if not np.isfinite(pairs).all():  # JSON NaN, Infinity or 1e400
        i, j, _ = np.argwhere(~np.isfinite(pairs))[0]
        raise SchemaError(f"{path}[{i}][{j}]", "number is not finite")
    # [re, im] float64 pairs are the memory layout of complex128
    return pairs.view(complex)[..., 0]


def _pairs_from_lists(data: Any, path: str) -> np.ndarray:
    _expect(isinstance(data, list) and data, path, "matrix is a nonempty list of rows")
    try:
        pairs = np.array(data)
    except ValueError:  # rows or entries of unequal length
        pairs = None
    if (pairs is None or pairs.ndim != 3 or pairs.shape[2] != 2
            or pairs.dtype.kind not in "iuf"
            or not all(isinstance(row, list) for row in data)
            # numpy reads JSON true as 1
            or bool in set(map(type, chain.from_iterable(chain.from_iterable(data))))):
        # name the first bad row or entry; if there is none, some int
        # does not fit int64
        for i, row in enumerate(data):
            _expect(isinstance(row, list) and row, f"{path}[{i}]", "row is a nonempty list")
            _expect(len(row) == len(data[0]), f"{path}[{i}]", "ragged matrix")
            for j, pair in enumerate(row):
                _expect(isinstance(pair, (list, tuple)) and len(pair) == 2,
                        f"{path}[{i}][{j}]", "complex entries are [re, im] pairs")
                _expect(all(map(_is_number, pair)), f"{path}[{i}][{j}]",
                        "complex entries are [re, im] pairs of numbers")
                _expect(all(map(_fits_float, pair)), f"{path}[{i}][{j}]",
                        "number is too large for a float")
        pairs = np.array(data, dtype=np.float64)
    return pairs


def _is_number(x, kinds=(int, float)) -> bool:
    """An instance of ``kinds`` other than a bool: JSON true is not 1."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def _fits_float(x: int | float) -> bool:
    try:
        float(x)
    except OverflowError:  # an int of 309 digits or more
        return False
    return True


# -- documents ---------------------------------------------------------------

#: JSON whitespace but the carriage return, which the text path never
#: sees, and maps of each byte of a JSON number to 0 and of brackets to spaces
_SPACE = b" \t\n"
_NUMBERS_AS_ZERO = bytes.maketrans(b"123456789.eE+-", b"0" * 14)
_BRACKETS_AS_SPACES = bytes.maketrans(b"[]", b"  ")


def loads(raw: bytes) -> Any:
    """``text_loads(raw)``, the document in the bytes ``raw``, except that
    an array of rows of [re, im] number pairs that is the value of an
    object key may come back as the (rows, cols, 2) float64 ndarray of its
    pairs.  Arrays are read so only from a document whose text is its
    bytes: ASCII, with no escape and no carriage return.  Malformed JSON
    raises the ``json.JSONDecodeError`` of ``json.loads``, invalid UTF-8 a
    ``UnicodeDecodeError``."""
    if b"[[[" in raw and raw.isascii() and b"\\" not in raw and b"\r" not in raw:
        count, text = _splice_arrays(raw)
        if count:
            try:
                data = json.loads(text.decode())
                # a placeholder in a list is not swapped, so the counts differ
                if type(data) is dict and _swap_placeholders(data) == count:
                    return data
            except (json.JSONDecodeError, OverflowError):  # or an int past 1e308
                pass  # decoded again below, so an error names its place in raw
    return text_loads(raw)


def text_loads(raw: bytes) -> Any:
    """``json.loads`` of the text a text-mode ``open`` reads from ``raw``."""
    return json.loads(TextIOWrapper(BytesIO(raw), encoding="utf-8").read())


def _splice_arrays(raw: bytes) -> tuple[int, bytes]:
    """The number of arrays of pairs in ``raw`` whose layout
    ``_pairs_layout`` accepts, and ``raw`` with each replaced by the
    placeholder {"\\u0000": [rows, cols, [numbers]]}, the numbers being
    its text with each bracket read as a space.

    ``raw`` has no backslash, so a string ends at the next quote, and a
    "[[[" outside a string follows an even number of quotes.  The array
    that starts there ends, if it is one, at the last "]" before the next
    quote or "}", since neither can sit in an array of numbers.  The
    placeholder is a JSON value exactly when the array is one, since
    ``json``'s grammar then rejects a malformed number, such as 01, +1,
    .5 or 1., and a slot between two commas that holds no number or two.
    So the spliced text is valid JSON exactly when ``raw`` is; a string
    would be valid as a key too.  A string in ``raw`` holds no NUL, so only
    a placeholder has the key "\\u0000"."""
    count, parts = 0, []
    done = counted = quotes = 0
    start = raw.find(b"[[[")
    while start >= 0:
        quotes += raw.count(b'"', counted, start)
        counted = after = start + 3
        if quotes % 2 == 0:
            # find returns -1 for a byte not found: read it as the end
            stop = min(raw.find(b'"', start) % (len(raw) + 1),
                       raw.find(b"}", start) % (len(raw) + 1))
            end = raw.rfind(b"]", start, stop) + 1
            text = raw[start:end]
            shape = _pairs_layout(text) if end > start else None
            if shape is not None:
                parts += [raw[done:start], b'{"\\u0000":[%d,%d,[' % shape,
                          text.translate(_BRACKETS_AS_SPACES), b"]]}"]
                count += 1
                done = end
            after = counted = max(end, after)
        start = raw.find(b"[[[", after)
    parts.append(raw[done:])
    return count, b"".join(parts)


def _pairs_layout(text: bytes) -> tuple[int, int] | None:
    """(rows, cols) when, without spaces and numbers, ``text`` is the
    brackets and commas of an array of rows of [re, im] pairs, and each
    number sits in its pair; None otherwise.

    Without spaces, and with each number byte written as 0, the comma of
    each of the rows * cols pairs then reads "0,0".  ``json`` checks that
    each slot between two commas holds one number (see ``_splice_arrays``).
    A number outside its pair then leaves a pair slot empty, and a comma
    between pairs reads "0,0" only when the pairs on both sides have one.
    Along the pairs in order that is at most one comma fewer than such
    pairs, so fewer commas read "0,0"."""
    layout = text.translate(_NUMBERS_AS_ZERO, _SPACE)
    skeleton = layout.translate(None, b"0")
    cols = skeleton.find(b"]]") // 4
    rows = len(skeleton) // (4 * cols + 2)
    row = b"[%b]" % b",".join([b"[,]"] * cols)
    if skeleton != b"[%b]" % b",".join([row] * rows) or layout.count(b"0,0") != rows * cols:
        return None
    return rows, cols


def _swap_placeholders(data: dict) -> int:
    """Replace each placeholder of ``_splice_arrays`` that is the value of a
    key of ``data``, or of an object nested in it through objects, by the
    float64 array of its pairs; return how many there were.  An int past
    the float range raises OverflowError."""
    swapped = 0
    for key, value in data.items():
        if type(value) is dict:
            if "\0" in value:
                rows, cols, numbers = value["\0"]
                # float() of each int, as numpy converts one in a float array
                pairs = np.fromiter(numbers, np.float64, len(numbers))
                data[key] = pairs.reshape(rows, cols, 2)
                swapped += 1
            else:
                swapped += _swap_placeholders(value)
    return swapped


# -- algebras and homomorphisms ----------------------------------------------

def algebra_from_json(data: Any, path: str = "algebra") -> MultiMatrixAlgebra:
    _expect(isinstance(data, Mapping), path, "algebra is an object")
    blocks = data.get("blocks")
    _expect(isinstance(blocks, list) and blocks, f"{path}.blocks",
            "blocks is a nonempty list of positive integers")
    _expect(all(_is_number(b, int) and b >= 1 for b in blocks),
            f"{path}.blocks",
            "blocks is a nonempty list of positive integers")
    return MultiMatrixAlgebra(tuple(blocks))


def _homomorphism_parts(data: Any, path: str
                        ) -> tuple[MultiMatrixAlgebra, MultiMatrixAlgebra, np.ndarray]:
    """The source, target and matrix of a homomorphism, checked against the
    schema only."""
    _expect(isinstance(data, Mapping), path, "homomorphism is an object")
    source = algebra_from_json(data.get("source"), f"{path}.source")
    target = algebra_from_json(data.get("target"), f"{path}.target")
    matrix = _matrix_from_json(data.get("matrix"), f"{path}.matrix")
    _expect(matrix.shape == (target.total_dim, source.total_dim), f"{path}.matrix",
            f"matrix must be {target.total_dim}x{source.total_dim}, got {matrix.shape}")
    return source, target, matrix


# -- expectations ------------------------------------------------------------

def expectation_spec_from_json(data: Any, path: str = "expectation"
                               ) -> tuple[StarHomomorphism, np.ndarray | None, TraceWeights]:
    """Parse an expectation spec: inclusion, optional map, trace weights.

    When "map" is omitted the caller should build the canonical
    trace-preserving expectation; when "trace_weights" is omitted the
    normalized trace is used.  The inclusion is built, and so checked to
    be a unital injective *-homomorphism, once the whole spec has been
    read: an error of the schema comes first.
    """
    start = time.perf_counter()
    inclusion, mat, _ = spec = _expectation_spec_from_json(data, path)
    if log.isEnabledFor(logging.INFO):
        held = [data["inclusion"]["matrix"]] + ([data["map"]] if mat is not None else [])
        from_text = sum(isinstance(m, np.ndarray) for m in held)
        log.info("expectation_spec_from_json: D %d, dim A %d, %s, "
                 "matrices %d from text, %d through json, %.3f s",
                 inclusion.target.total_dim, inclusion.source.total_dim,
                 "explicit map" if mat is not None else "no map", from_text,
                 len(held) - from_text, time.perf_counter() - start)
    return spec


def _expectation_spec_from_json(data: Any, path: str
                                ) -> tuple[StarHomomorphism, np.ndarray | None, TraceWeights]:
    _expect(isinstance(data, Mapping), path, "expectation is an object")
    source, big, matrix = _homomorphism_parts(data.get("inclusion"), f"{path}.inclusion")
    mat = None
    if data.get("map") is not None:
        mat = _matrix_from_json(data["map"], f"{path}.map")
        d = big.total_dim
        _expect(mat.shape == (d, d), f"{path}.map", f"map must be {d}x{d}")
    weights = data.get("trace_weights")
    if weights is None:
        tau = TraceWeights.normalized(big)
    else:
        # an array of pairs read from text is an ndarray; its len is its rows
        _expect(isinstance(weights, (list, np.ndarray)) and len(weights) == len(big.blocks),
                f"{path}.trace_weights", "one positive weight per target block")
        _expect(all(_is_number(w) and 0 < w <= sys.float_info.max for w in weights),
                f"{path}.trace_weights", "one finite positive weight per target block")
        tau = TraceWeights(big, tuple(float(w) for w in weights))
    return StarHomomorphism(source, big, matrix), mat, tau


# -- fusion data -------------------------------------------------------------

RING2 = "qindex.ring/2"


#: the encoder of ``canonical_text``, made once: ``json.dumps`` makes one
#: per call when given arguments
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_text(value) -> str:
    """The canonical JSON text of reports and artifacts: keys sorted, no
    spaces, and an infinite float written as the string "inf"."""
    try:
        return _CANONICAL.encode(value)
    except ValueError:  # an infinite index, or fusion jones --value inf
        return _CANONICAL.encode(_inf_as_string(value))


def _inf_as_string(value):
    if isinstance(value, dict):
        return {k: _inf_as_string(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_inf_as_string(v) for v in value]
    return "inf" if isinstance(value, float) and math.isinf(value) else value


def canonical_object(texts: Mapping[str, str]) -> str:
    """The canonical text of an object whose values are given as their
    canonical texts: keys sorted and joined as ``canonical_text`` does."""
    return "{" + ",".join(f"{json.dumps(key)}:{text}"
                          for key, text in sorted(texts.items())) + "}"


def _sparse_text(tensor: np.ndarray, labels: Sequence[Sequence[str]]) -> str:
    """The canonical text of the map "A,B" -> {C: mult} of the nonzero
    entries of a 3-tensor, whose axes are named by ``labels``.

    Each axis is permuted into the order in which ``sort_keys`` writes it,
    so that ``np.nonzero`` walks the entries in the order of the text.  The
    key "A,B" sorts as the pair (A + ",", B): no label holds a comma, so
    A + "," is a prefix of no other such string, and two keys with
    different A differ within it.  Each label is escaped once, and the key
    is written as ``esc(A)[:-1] + "," + esc(B)[1:]``, which is ``esc("A,B")``
    since ``json.dumps`` escapes a string one character at a time.
    """
    a, b, c = labels
    orders = [np.array(sorted(range(len(axis)), key=key), dtype=np.intp)
              for axis, key in ((a, lambda i: a[i] + ","), (b, b.__getitem__),
                                (c, c.__getitem__))]
    oa, ob, oc = orders
    rows, ws = np.nonzero((tensor != 0).take(oa, 0).take(ob, 1).take(oc, 2)
                          .reshape(-1, len(c)))
    if not rows.size:
        return "{}"
    ea, eb, ec = ([json.dumps(axis[i]) for i in order.tolist()]
                  for axis, order in zip(labels, orders))
    us, vs = np.divmod(rows, len(b))
    values, which = np.unique(tensor[oa[us], ob[vs], oc[ws]], return_inverse=True)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    us, vs = us[starts], vs[starts]
    # per entry: its separator (a row opens with its key), "C": and mult
    cells = np.empty((rows.size, 3), dtype=object)
    cells[:, 0] = ","
    cells[starts, 0] = (np.array([f"}},{e[:-1]}," for e in ea], dtype=object)[us]
                        + np.array([f"{e[1:]}:{{" for e in eb], dtype=object)[vs])
    cells[0, 0] = cells[0, 0][2:]
    cells[:, 1] = np.array([e + ":" for e in ec], dtype=object)[ws]
    cells[:, 2] = np.array(list(map(str, values.tolist())), dtype=object)[which]
    return "{" + "".join(cells.ravel().tolist()) + "}}"


def _sparse_from_json(data: Mapping, name: str, path: str,
                      labels: Sequence[Sequence[str]], keys: str, target: str) -> np.ndarray:
    """The read-only int64 3-tensor held as the map "A,B" -> {C: mult} at
    ``data[name]``, stored one entry at a time in the order ``json``
    decoded them, raising at the first bad key, row or entry; absent
    entries, and an absent map, are zero.  ``keys`` and ``target`` describe
    a malformed key and an unknown C."""
    entries = data.get(name, {})
    path = f"{path}.{name}"
    _expect(isinstance(entries, Mapping), path, f"{name} is an object")
    first, second, third = ({lab: i for i, lab in enumerate(axis)} for axis in labels)
    tensor = np.zeros((len(first), len(second), len(third)), dtype=np.int64)
    for key, row in entries.items():
        parts = key.split(",")
        if not (len(parts) == 2 and parts[0] in first and parts[1] in second):
            raise SchemaError(f"{path}[{key!r}]", keys)
        if not isinstance(row, Mapping):
            raise SchemaError(f"{path}[{key!r}]", "value is an object")
        cell = tensor[first[parts[0]], second[parts[1]]]
        for w, mult in row.items():
            if w not in third:
                raise SchemaError(f"{path}[{key!r}][{w!r}]", target)
            if not (type(mult) is int and mult >= 0):  # JSON true is not 1
                raise SchemaError(f"{path}[{key!r}][{w!r}]",
                                  "multiplicities are nonnegative ints")
            if mult >= 2 ** 63:
                raise SchemaError(f"{path}[{key!r}][{w!r}]",
                                  "multiplicities are nonnegative ints below 2^63")
            cell[third[w]] = mult
    tensor.flags.writeable = False
    return tensor


def ring_to_text(ring: FusionRing) -> str:
    """The canonical JSON text of the ring's file, written directly from
    the multiplicity tensor."""
    return canonical_object({"irr": canonical_text(list(ring.labels)),
                             "unit": canonical_text(ring.unit),
                             "dual": canonical_text(dict(ring.dual)),
                             "N": _sparse_text(ring.tensor, (ring.labels,) * 3)})


def ring_from_json(data: Any, path: str = "fusion_ring") -> FusionRing:
    start = time.perf_counter()
    irr, unit, dual = _ring_header(data, path)
    tensor = _sparse_from_json(data, "N", path, (irr,) * 3, "keys are 'U,V' label pairs",
                               "unknown target label")
    return _built_ring(irr, unit, dual, tensor, start,
                       "ring_from_json: rank %d, %d nonzero, N through json, %.3f s")


def _ring_header(data: Any, path: str) -> tuple[list[str], str, Mapping]:
    """The labels, unit and dual of the ring file's document ``data``."""
    _expect(isinstance(data, Mapping), path, "fusion ring is an object")
    irr = _labels_from_json(data, "irr", path)
    unit = data.get("unit")
    _expect(isinstance(unit, str) and unit in irr, f"{path}.unit",
            "unit must be one of the labels")
    dual = data.get("dual")
    _expect(isinstance(dual, Mapping) and set(dual) == set(irr)
            and all(isinstance(v, str) and v in irr for v in dual.values()),
            f"{path}.dual", "dual must map every label to a label")
    return irr, unit, dual


def _built_ring(irr: list[str], unit: str, dual: Mapping, tensor: np.ndarray,
                start: float, message: str) -> FusionRing:
    """The ring, logged by ``message`` with its rank, its nonzero count and
    the time since ``start``."""
    ring = FusionRing(tuple(irr), unit, tuple(dual.items()), tensor)
    if log.isEnabledFor(logging.INFO):
        log.info(message, ring.rank, np.count_nonzero(ring.tensor), time.perf_counter() - start)
    return ring


def ring_to_bytes(ring: FusionRing) -> bytes:
    """The canonical JSON text, as bytes, of the ring's qindex.ring/2 file
    (see docs/formats.md)."""
    flat = ring.tensor.reshape(-1)
    nonzero = flat != 0
    width = np.min_scalar_type(flat.max()).itemsize  # 1 for an all-zero tensor
    n = {"mask": base64.b64encode(np.packbits(nonzero)).decode(),
         "mult": base64.b64encode(flat[nonzero].astype(f"<u{width}")).decode()}
    return canonical_text({"N": n, "dual": dict(ring.dual), "irr": list(ring.labels),
                           "schema": RING2, "unit": ring.unit}).encode()


def ring_from_bytes(raw: bytes) -> FusionRing:
    """The ring of the ring file whose bytes are ``raw``, decoded by ``json``."""
    start = time.perf_counter()
    return _ring_document(text_loads(raw), "fusion_ring", start)


def _ring_document(data: Any, path: str, start: float) -> FusionRing:
    """The ring of a ring document that ``json`` decoded, read since ``start``:
    a qindex.ring/2 tensor is scattered from its mask, any other document
    goes to ``ring_from_json``."""
    if not (isinstance(data, Mapping) and data.get("schema") == RING2):
        return ring_from_json(data, path)
    irr, unit, dual = _ring_header(data, path)
    tensor = _mask_tensor(data.get("N"), len(irr), f"{path}.N")
    return _built_ring(irr, unit, dual, tensor, start,
                       "ring_from_bytes: rank %d, %d nonzero, N from base64, %.3f s")


def _mask_tensor(data: Any, r: int, path: str) -> np.ndarray:
    """The read-only int64 r x r x r tensor of a qindex.ring/2 "N", which
    has one text per tensor, so no order or range is left to check."""
    _expect(isinstance(data, Mapping), path, "N is an object")
    _expect(set(data) <= {"mask", "mult"}, path, "N holds only mask and mult")
    mask, mult = (_base64_bytes(data.get(key), f"{path}.{key}", key) for key in ("mask", "mult"))
    # checked before any bit is unpacked; the pad bits end the last byte
    size = (r ** 3 + 7) // 8
    _expect(len(mask) == size and not mask[-1] & (1 << -r ** 3 % 8) - 1, f"{path}.mask",
            f"mask has {size} bytes, one bit per entry, and zero pad bits")
    nonzero = np.unpackbits(np.frombuffer(mask, np.uint8), count=r ** 3).view(bool)
    count = np.count_nonzero(nonzero)
    width = len(mult) // count if count else 1
    _expect(width in (1, 2, 4, 8) and len(mult) == width * count, f"{path}.mult",
            "one multiplicity of 1, 2, 4 or 8 bytes per set mask bit")
    mults = np.frombuffer(mult, f"<u{width}")
    top = int(mults.max()) if count else 1
    _expect(mults.all(), f"{path}.mult", "multiplicities are positive")
    _expect(top < 2 ** 63, f"{path}.mult", "multiplicities are below 2^63")
    _expect(width == 1 or top >= 1 << 4 * width, f"{path}.mult",
            "multiplicities have the narrowest width that holds the largest")
    tensor = np.zeros((r, r, r), dtype=np.int64)
    tensor.reshape(-1)[nonzero] = mults
    tensor.flags.writeable = False
    return tensor


def _base64_bytes(text: Any, path: str, name: str) -> bytes:
    """The bytes whose base64 is ``text``, which is canonical: no padding
    missing, no trailing bit set and no character that b64decode drops."""
    try:
        raw = base64.b64decode(text) if isinstance(text, str) else None
    except ValueError:  # bad padding, or a character that is not ASCII
        raw = None
    _expect(raw is not None and base64.b64encode(raw).decode() == text, path,
            f"{name} is a string of canonical base64")
    return raw


def _labels_from_json(data: Mapping, key: str, path: str) -> list[str]:
    labels = data.get(key)
    path = f"{path}.{key}"
    _expect(isinstance(labels, list) and labels and all(isinstance(x, str) for x in labels),
            path, f"{key} is a nonempty list of string labels")
    _expect(len(set(labels)) == len(labels), path, "labels must be distinct")
    _expect(not any("," in x for x in labels), path, "labels must not contain commas")
    return labels


def module_from_json(data: Any, path: str = "fusion_module") -> FusionModule:
    start = time.perf_counter()
    _expect(isinstance(data, Mapping), path, "fusion module is an object")
    ring = _ring_document(data.get("ring"), f"{path}.ring", start)
    irr_m = _labels_from_json(data, "irrM", path)
    action = _sparse_from_json(data, "n", path, (ring.labels, irr_m, irr_m),
                               "keys are 'U,i' pairs", "unknown module label")
    module = FusionModule(ring, tuple(irr_m), action)
    if log.isEnabledFor(logging.INFO):
        log.info("module_from_json: rank %d, module size %d, %d nonzero, %.3f s",
                 module.ring.rank, module.size, np.count_nonzero(module.action),
                 time.perf_counter() - start)
    return module
