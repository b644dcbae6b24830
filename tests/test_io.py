import base64
import copy
import io
import json
import logging
import re
import tracemalloc
from operator import attrgetter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qindex import io as qio
from qindex.algebra import MultiMatrixAlgebra, TraceWeights
from qindex.expectation import ConditionalExpectation, canonical_expectation
from qindex.fusion import (FusionModule, FusionRing, validate_fusion,
                           validate_module)
from qindex.generators import (gen_pointed, gen_quotient_module,
                               gen_regular_module, gen_tlj)

from conftest import (diagonal_inclusion, module_to_json, random_element,
                      random_multimatrix_inclusion, ring_from_bytes_spied, ring_to_json)
from oracles import (algebra_to_json, element_from_json, element_to_json,
                     expectation_to_json, homomorphism_to_json, matrix_to_json,
                     module_to_json_reference, module_to_text, ring2_reference,
                     ring_to_json_reference, sparse_from_json_reference)


def test_algebra_round_trip():
    alg = MultiMatrixAlgebra((2, 3))
    assert qio.algebra_from_json(algebra_to_json(alg)).blocks == alg.blocks


def test_element_round_trip(rng):
    alg = MultiMatrixAlgebra((2, 1))
    x = random_element(alg, rng)
    back = element_from_json(element_to_json(x), alg)
    assert (back - x).norm() <= 1e-15


def test_homomorphism_round_trip(rng):
    incl, _ = random_multimatrix_inclusion(rng)
    back, _, _ = qio.expectation_spec_from_json({"inclusion": homomorphism_to_json(incl)})
    assert back.source.blocks == incl.source.blocks
    assert back.target.blocks == incl.target.blocks
    assert np.allclose(back.matrix, incl.matrix)


def test_expectation_round_trip():
    big = MultiMatrixAlgebra((2,))
    tau = TraceWeights(big, (0.5,))
    expectation = canonical_expectation(diagonal_inclusion(2), tau)
    data = expectation_to_json(expectation, tau)
    inclusion, mat, tau2 = qio.expectation_spec_from_json(data)
    assert np.allclose(mat, expectation.matrix)
    assert tau2.weights == tau.weights


def test_expectation_spec_defaults():
    big = MultiMatrixAlgebra((2,))
    tau = TraceWeights(big, (0.5,))
    expectation = canonical_expectation(diagonal_inclusion(2), tau)
    data = expectation_to_json(expectation)
    del data["map"]
    inclusion, mat, tau2 = qio.expectation_spec_from_json(data)
    assert mat is None
    assert tau2.weights == (0.5,)  # normalized trace on M_2


def test_ring_and_module_round_trip():
    for make in (lambda: gen_tlj(5)[0], lambda: gen_pointed([2, 2])):
        ring = make()
        back = qio.ring_from_json(ring_to_json(ring))
        assert back.labels == ring.labels
        assert back.unit == ring.unit
        assert dict(back.dual) == dict(ring.dual)
        assert np.array_equal(back.tensor, ring.tensor)
        assert validate_fusion(back) == []

        module = gen_regular_module(ring)
        back_m = qio.module_from_json(module_to_json(module))
        assert back_m.labels == module.labels
        assert np.array_equal(back_m.action, module.action)
        assert validate_module(back_m) == []


def canonical_order(entries):
    """The sparse map with its keys, and the keys of each row, sorted."""
    return [(key, sorted(row.items())) for key, row in sorted(entries.items())]


def test_ring_to_json_matches_per_entry_reference(rng):
    # a noncommutative tensor, so that the (u, v) key order is observable,
    # and TLJ 12, whose labels do not sort in index order ("10" < "2")
    ring = FusionRing(("a", "b", "c"), "a", (("a", "a"), ("b", "c"), ("c", "b")),
                      rng.integers(0, 3, size=(3, 3, 3)))
    for ring in (ring, gen_pointed([2, 3]), gen_tlj(12)[0]):
        want = {}
        for u in ring.labels:
            for v in ring.labels:
                row = {w: ring.n(u, v, w) for w in ring.labels if ring.n(u, v, w)}
                if row:
                    want[f"{u},{v}"] = row
        got = ring_to_json(ring)["N"]
        assert got == want
        # keys in canonical order, as the parsed canonical text holds them
        assert [(key, list(row.items())) for key, row in got.items()] == \
            canonical_order(want)
        assert all(type(n) is int for row in got.values() for n in row.values())
    assert list(want) != sorted(want)  # TLJ 12, last, tells the orders apart
    # the module codec is the same sparse map, over (ring, module, module) labels
    for module in (gen_regular_module(gen_tlj(12)[0]),
                   gen_quotient_module(gen_pointed([2, 2]), [2, 2], [(0, 0), (1, 0)])):
        want = {}
        for u in module.ring.labels:
            for i in module.labels:
                mat = module.action[module.ring.index(u)]
                row = {j: int(mat[module.index(i), module.index(j)])
                       for j in module.labels if mat[module.index(i), module.index(j)]}
                if row:
                    want[f"{u},{i}"] = row
        got = module_to_json(module)["n"]
        assert [(key, list(row.items())) for key, row in got.items()] == \
            canonical_order(want)


#: labels whose escapes or sort order a key writer can get wrong: quotes,
#: backslashes, non-ASCII and control characters, the empty label, and
#: prefixes that sort on either side of the "," of a "U,V" key
HARD_LABELS = ['"', "\\", "é", "☃", "\x01", "", "1", "10", "1+", "1 ", "\U0001f600", '1"']


def label_lists(size):
    return st.lists(st.one_of(st.sampled_from(HARD_LABELS),
                              st.text(st.characters(exclude_characters=","), max_size=3)),
                    min_size=size, max_size=size, unique=True)


def relabelled_ring_and_module(data, labels):
    """A generator ring and module (TLJ or pointed), or random
    multiplicities up to 2^62 with empty rows and empty maps, relabelled
    with lists drawn from ``labels(size)``."""
    kind = data.draw(st.sampled_from(["tlj", "pointed", "random"]))
    if kind == "tlj":
        base = gen_tlj(data.draw(st.integers(3, 9)))[0]
        module = gen_regular_module(base)
    elif kind == "pointed":
        base = gen_pointed([2, 4])
        module = gen_quotient_module(base, [2, 4], [(0, 0), (0, 2)])
    else:
        r, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        mults = st.sampled_from([0, 0, 0, 1, 2, 7, 10, 2 ** 62])
        base = FusionRing(tuple(map(str, range(r))), "0", (),
                          np.array(data.draw(st.lists(mults, min_size=r ** 3, max_size=r ** 3)))
                          .reshape(r, r, r))
        module = FusionModule(base, tuple(map(str, range(m))),
                              np.array(data.draw(st.lists(mults, min_size=r * m * m,
                                                          max_size=r * m * m)))
                              .reshape(r, m, m))
    names = data.draw(labels(base.rank))
    ring = FusionRing(names, names[0], tuple(zip(names, reversed(names))), base.tensor)
    return ring, FusionModule(ring, data.draw(labels(module.size)), module.action)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_text_encoder_writes_the_bytes_of_the_dict_encoder(data):
    ring, module = relabelled_ring_and_module(data, label_lists)
    assert qio.ring_to_text(ring) == qio.canonical_text(ring_to_json_reference(ring))
    assert module_to_text(module) == \
        qio.canonical_text(module_to_json_reference(module))
    assert module_to_json(module) == module_to_json_reference(module)


#: labels that a reader of map bytes can get wrong: JSON punctuation, a
#: space, digits with and without a leading zero, the map keys, text that
#: spells the start of a map (with quotes, which are escaped) and labels
#: of more than one 8-byte word
BYTE_LABELS = ["{", "}", ":", "[", " ", "1", "10", "01", "N", "n", "N:{", '"N":{', "}}",
               "abcdefgh", "abcdefghi", "x" * 12]


def byte_label_lists(size):
    printable = st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=",")
    return st.lists(st.one_of(st.sampled_from(BYTE_LABELS), st.text(printable, min_size=1,
                                                                     max_size=12)),
                    min_size=size, max_size=size, unique=True)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_loads_reads_sparse_maps_as_json_reads_them(data):
    # compact and indented ring and module files: loads returns what json
    # returns, and the decoders the same tensors from both.  ring_from_bytes
    # reads each ring/1 file through json, and the ring's qindex.ring/2
    # file, whose labels are JSON strings as in ring/1, without it
    ring, module = relabelled_ring_and_module(data, byte_label_lists)
    cases = ((qio.ring_to_text(ring), qio.ring_from_json, attrgetter("tensor"), ring),
             (module_to_text(module), qio.module_from_json, attrgetter("action"), module))
    for text, decode, tensor, written in cases:
        want = tensor(written)
        for raw in (text.encode(), json.dumps(json.loads(text), indent=2).encode()):
            got, reference = qio.loads(raw), json_text_loads(raw)
            assert got == reference
            assert np.array_equal(tensor(decode(got)), want)
            assert np.array_equal(tensor(decode(reference)), want)
            if decode is qio.ring_from_json:
                for file, ring2 in ((raw, False), (qio.ring_to_bytes(ring), True)):
                    read, from_bytes = ring_from_bytes_spied(file)
                    assert (read.labels, read.unit) == (ring.labels, ring.unit)
                    assert dict(read.dual) == dict(ring.dual)
                    assert np.array_equal(read.tensor, want)
                    assert from_bytes == ring2


#: multiplicities at the edges of the widths of a qindex.ring/2 file
RING2_MULTIPLICITIES = [0, 1, 255, 256, 65535, 65536, 2 ** 32, 2 ** 63 - 1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring2_files_round_trip(data):
    # random tensors of rank 1 to 12, whose largest multiplicity picks the
    # width: the writer writes the bytes of the per-bit reference, and the
    # reader gives the tensor back
    r = data.draw(st.integers(1, 12))
    top = data.draw(st.sampled_from(RING2_MULTIPLICITIES))
    tensor = data.draw(arrays(np.int64, (r, r, r), elements=st.sampled_from(
        [m for m in RING2_MULTIPLICITIES if m <= top])))
    labels = tuple(map(str, range(r)))
    ring = FusionRing(labels, "0", tuple(zip(labels, labels)), tensor)
    raw = qio.ring_to_bytes(ring)
    assert raw == qio.canonical_text(ring2_reference(ring)).encode()
    read = qio.ring_from_bytes(raw)
    assert read.labels == labels and np.array_equal(read.tensor, tensor)
    n = json.loads(raw)["N"]
    mults = base64.b64decode(n["mult"])
    count = np.count_nonzero(tensor)
    assert len(base64.b64decode(n["mask"])) == -(-r ** 3 // 8)
    assert len(mults) == count * next(w for w in (1, 2, 4, 8) if tensor.max() < 1 << 8 * w)


def test_ring2_files_take_every_width():
    # each multiplicity alone in a rank-2 tensor, read back from the width
    # that holds it
    widths = {}
    for mult in RING2_MULTIPLICITIES[1:]:
        tensor = np.zeros((2, 2, 2), dtype=np.int64)
        tensor[1, 0, 1] = mult
        ring = FusionRing(("a", "b"), "a", (("a", "a"), ("b", "b")), tensor)
        raw = qio.ring_to_bytes(ring)
        assert np.array_equal(qio.ring_from_bytes(raw).tensor, tensor)
        widths[mult] = len(base64.b64decode(json.loads(raw)["N"]["mult"]))
    assert widths == {1: 1, 255: 1, 256: 2, 65535: 2, 65536: 4, 2 ** 32: 8, 2 ** 63 - 1: 8}


def test_a_mask_of_the_wrong_length_fails_before_its_bits_are_unpacked():
    # 300 labels and a 1-byte mask: the length is checked first, so the
    # 300^3 flags are never built
    labels = [str(i) for i in range(300)]
    raw = qio.canonical_text({"N": {"mask": "AA==", "mult": ""}, "dual": dict(zip(labels, labels)),
                              "irr": labels, "schema": "qindex.ring/2", "unit": "0"}).encode()
    tracemalloc.start()
    try:
        with pytest.raises(qio.SchemaError) as err:
            qio.ring_from_bytes(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("fusion_ring.N.mask: mask has 3375000 bytes, one bit per entry, "
                              "and zero pad bits")
    assert peak < 2 ** 20


def test_schema_errors_carry_paths():
    with pytest.raises(qio.SchemaError) as err:
        qio.algebra_from_json({"blocks": [0]})
    assert "blocks" in str(err.value)
    with pytest.raises(qio.SchemaError):
        qio.ring_from_json({"irr": ["a"], "unit": "b", "dual": {"a": "a"}, "N": {}})
    with pytest.raises(qio.SchemaError):
        qio.ring_from_json({"irr": ["a,b"], "unit": "a,b",
                            "dual": {"a,b": "a,b"}, "N": {}})
    with pytest.raises(qio.SchemaError):
        element_from_json({"blocks": [[[1, 2], [3, 4]]]},
                              MultiMatrixAlgebra((2,)))


def test_ring_labels_read_as_pair_arrays_are_no_labels():
    # loads reads an array of pairs as an ndarray, which is no label, so
    # both ring readers name the key, as json's lists do
    text = qio.ring_to_text(gen_tlj(5)[0])
    pairs = "[[[1,2],[3,4]]]"
    for old, new, message in (('"unit":"0"', f'"unit":{pairs}', "fusion_ring.unit: unit "
                               "must be one of the labels"),
                              ('"dual":{"0":"0"', f'"dual":{{"0":{pairs}', "fusion_ring.dual: "
                               "dual must map every label to a label")):
        compact = text.replace(old, new)
        for raw in (compact.encode(), json.dumps(json.loads(compact), indent=2).encode()):
            for read in (qio.ring_from_bytes, lambda raw: qio.ring_from_json(qio.loads(raw))):
                with pytest.raises(qio.SchemaError) as err:
                    read(raw)
                assert str(err.value) == message


@pytest.mark.parametrize("data, message", [
    ("rows", "m: matrix is a nonempty list of rows"),
    ([], "m: matrix is a nonempty list of rows"),
    ([[[1, 0]], "row"], "m[1]: row is a nonempty list"),
    ([[[1, 0]], []], "m[1]: row is a nonempty list"),
    ([[[1, 0]], [[1, 0], [0, 0]]], "m[1]: ragged matrix"),
    ([[[1, 0], [1]]], "m[0][1]: complex entries are [re, im] pairs"),
    ([[[1, 0], [1, 2, 3]]], "m[0][1]: complex entries are [re, im] pairs"),
    ([[[1, 0], 5]], "m[0][1]: complex entries are [re, im] pairs"),
    ([[[1, "0"]]], "m[0][0]: complex entries are [re, im] pairs of numbers"),
    ([[["1", "2"]]], "m[0][0]: complex entries are [re, im] pairs of numbers"),
    ([[[1, None]]], "m[0][0]: complex entries are [re, im] pairs of numbers"),
    # the first bad entry in row order, before a later ragged row
    ([[[0, 0], [1, "x"]], [[0, 0]]], "m[0][1]: complex entries are [re, im] pairs of numbers"),
    # ints too large for a float; 2 ** 70 fits (see below)
    ([[[10 ** 400, 0]]], "m[0][0]: number is too large for a float"),
    ([[[0, 0], [0, -10 ** 400]]], "m[0][1]: number is too large for a float"),
    # JSON NaN and Infinity, and float literals past the range such as 1e400
    ([[[0, 0], [float("nan"), 0]]], "m[0][1]: number is not finite"),
    ([[[0, 0]], [[0, float("-inf")]]], "m[1][0]: number is not finite"),
    ([[[2 ** 70, 0]], [[0, float("inf")]]], "m[1][0]: number is not finite"),
    # JSON true and false are not numbers, alone or among numbers
    ([[[True, False]]], "m[0][0]: complex entries are [re, im] pairs of numbers"),
    ([[[0, 0.5], [1, True]]], "m[0][1]: complex entries are [re, im] pairs of numbers"),
])
def test_matrix_schema_errors_name_the_first_bad_entry(data, message):
    with pytest.raises(qio.SchemaError) as err:
        qio._matrix_from_json(data, "m")
    assert str(err.value) == message


def test_matrix_codec_keeps_every_float():
    data = [[[0, 1e308], [-0.0, 1.5]], [[1, 0], [2 ** 70, -5e-324]]]
    mat = qio._matrix_from_json(data, "m")
    want = np.array([[complex(0, 1e308), complex(-0.0, 1.5)],
                     [complex(1, 0), complex(2 ** 70, -5e-324)]])
    assert mat.tobytes() == want.tobytes()
    back = matrix_to_json(mat)
    assert back == [[[0.0, 1e308], [-0.0, 1.5]], [[1.0, 0.0], [float(2 ** 70), -5e-324]]]
    assert all(type(x) is float for row in back for pair in row for x in pair)


def test_matrix_writers_round_trip_extreme_floats_and_reject_non_finite():
    big = MultiMatrixAlgebra((2,))
    expectation = canonical_expectation(diagonal_inclusion(2), TraceWeights(big, (0.5,)))
    extreme = np.array(expectation.matrix)
    extreme[0, 1], extreme[3, 2] = 1e308, complex(0, -5e-324)
    wild = ConditionalExpectation(expectation.inclusion, extreme)
    inclusion, mat, _ = qio.expectation_spec_from_json(expectation_to_json(wild))
    assert mat.tobytes() == extreme.tobytes()
    assert inclusion.matrix.tobytes() == expectation.inclusion.matrix.tobytes()
    x = big.element([np.array([[1e308, -5e-324], [0, 1]])])
    assert element_from_json(element_to_json(x), big).data[0].tobytes() \
        == x.data[0].tobytes()
    def not_finite(where):
        return pytest.raises(ValueError, match=re.escape(f"{where}: number is not finite"))

    for bad in (np.inf, -np.inf, np.nan, complex(0, np.nan)):
        broken = np.array(extreme)
        broken[2, 1] = bad
        with not_finite("expectation.map[2][1]"):
            expectation_to_json(ConditionalExpectation(expectation.inclusion, broken))
        # a StarHomomorphism rejects a non-finite matrix, so the writer is
        # handed the three fields it reads
        hom = SimpleNamespace(source=expectation.inclusion.source, target=big,
                              matrix=np.where(np.arange(2) == 1, bad,
                                              expectation.inclusion.matrix))
        with not_finite("homomorphism.matrix[0][1]"):
            homomorphism_to_json(hom)
        with not_finite("element.blocks[0][1][0]"):
            element_to_json(big.element([np.array([[1, 0], [bad, 1]])]))


def c_in_c2_spec(weights):
    """C in C + C, K = [[1], [1]], with the given trace weights."""
    return {"inclusion": {"source": {"blocks": [1]}, "target": {"blocks": [1, 1]},
                          "matrix": [[[1, 0]], [[1, 0]]]},
            "trace_weights": weights}


@pytest.mark.parametrize("weights", [[float("inf"), 1], [1, float("nan")], [10 ** 400, 1],
                                     [True, 1]])
def test_trace_weights_must_be_finite(weights):
    with pytest.raises(qio.SchemaError) as err:
        qio.expectation_spec_from_json(c_in_c2_spec(weights))
    assert str(err.value) == ("expectation.trace_weights: "
                              "one finite positive weight per target block")


def test_block_sizes_must_not_be_booleans():
    with pytest.raises(qio.SchemaError) as err:
        qio.algebra_from_json({"blocks": [2, True]})
    assert str(err.value) == "algebra.blocks: blocks is a nonempty list of positive integers"


def test_multiplicities_must_not_be_booleans():
    payload = ring_to_json(gen_tlj(4)[0])
    payload["N"]["1,1"]["2"] = True
    with pytest.raises(qio.SchemaError) as err:
        qio.ring_from_json(payload)
    assert str(err.value) == "fusion_ring.N['1,1']['2']: multiplicities are nonnegative ints"

    payload = module_to_json(gen_regular_module(gen_pointed([2])))
    payload["n"]["1,0"]["1"] = True
    with pytest.raises(qio.SchemaError) as err:
        qio.module_from_json(payload)
    assert str(err.value) == "fusion_module.n['1,0']['1']: multiplicities are nonnegative ints"


def json_text_loads(raw: bytes):
    """The reference of ``qio.loads``: ``json`` on the text of a text-mode
    ``open``."""
    return json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())


def number_texts():
    """JSON spellings of ints and floats: signed exponents in e and E,
    17 significant digits, -0.0, and ints past 2^53 and int64."""
    ints = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-2 ** 70, 2 ** 70),
                     st.sampled_from([2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 63, 2 ** 64 + 1])).map(str)
    floats = st.floats(allow_nan=False, allow_infinity=False)
    spelled = st.tuples(floats, st.sampled_from(["{!r}", "{:.17g}", "{:.16e}", "{:.3E}"])).map(
        lambda pair: pair[1].format(pair[0]))
    return st.one_of(ints, spelled, st.sampled_from(["-0.0", "-0", "0E+0", "1e-0", "2.5E-3"]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_loads_reads_pair_arrays_as_json_and_numpy_do(data):
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    space = st.sampled_from(["", "", " ", "\n", "\t", " \n  "])

    def spaced(text, lead=True):
        return (data.draw(space) if lead else "") + text + data.draw(space)

    def pair(lead):
        return spaced("[" + spaced(data.draw(number_texts())) + ","
                      + spaced(data.draw(number_texts())) + "]", lead)

    # the text path starts at the first "[[[", so those brackets touch
    array = "[" + ",".join(spaced("[" + ",".join(pair(i or j) for j in range(cols)) + "]", i)
                           for i in range(rows)) + "]"
    raw = ('{"m": %s, "rest": {"n": [[1, 2]], "s": "[[[1, 2]]]"}, "last": %s}'
           % (array, array)).encode()
    got, want = qio.loads(raw), json_text_loads(raw)
    for key in ("m", "last"):
        pairs = got.pop(key)
        assert isinstance(pairs, np.ndarray) and pairs.shape == (rows, cols, 2)
        assert (pairs.view(np.uint64)
                == np.array(want.pop(key)).astype(np.float64).view(np.uint64)).all()
    assert got == want


def test_loads_reads_arrays_only_where_they_are_values_of_keys():
    array = "[[[1, 0.5]]]"
    for text in ['{"a": %s, "b": [%s, {"c": %s}]}', '{"a": [{"c": %s}, %s, %s]}',
                 '%s', '{"a": %s, "a": %s, "b": "%s"}']:
        raw = text.replace("%s", array).encode()
        got = qio.loads(raw)
        assert canonical_with_arrays(got) == qio.canonical_text(json_text_loads(raw))
    assert isinstance(qio.loads(b'{"a": [[[1, 0.5]]]}')["a"], np.ndarray)


def canonical_with_arrays(value):
    if isinstance(value, dict):
        return qio.canonical_object({k: canonical_with_arrays(v) for k, v in value.items()})
    if isinstance(value, np.ndarray):
        return qio.canonical_text(value.tolist())
    if isinstance(value, list):
        return "[" + ",".join(map(canonical_with_arrays, value)) + "]"
    return qio.canonical_text(value)


def test_expectation_spec_decoder_logs_sizes_and_sources(caplog):
    spec = expectation_to_json(canonical_expectation(
        diagonal_inclusion(2), TraceWeights(MultiMatrixAlgebra((2,)), (0.5,))))
    with caplog.at_level(logging.INFO, logger="qindex.io"):
        qio.expectation_spec_from_json(qio.loads(json.dumps(spec).encode()))
        del spec["map"]
        qio.expectation_spec_from_json(spec)
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "qindex.io"]
    patterns = [r"expectation_spec_from_json: D 4, dim A 2, explicit map, "
                r"matrices 2 from text, 0 through json, \d+\.\d{3} s",
                r"expectation_spec_from_json: D 4, dim A 2, no map, "
                r"matrices 0 from text, 1 through json, \d+\.\d{3} s"]
    assert len(messages) == len(patterns)
    for message, pattern in zip(messages, patterns):
        assert re.fullmatch(pattern, message), message


def test_module_labels_must_not_contain_commas():
    # every n key 'U,i' that named the label 'a,b' would split in three
    payload = module_to_json(gen_regular_module(gen_pointed([2])))
    payload["irrM"] = ["a,b", "c"]
    with pytest.raises(qio.SchemaError) as err:
        qio.module_from_json(payload)
    assert str(err.value) == "fusion_module.irrM: labels must not contain commas"


def test_labels_with_commas_fail_at_construction():
    # so module_to_json never writes a file that module_from_json refuses
    ring = gen_pointed([2])
    with pytest.raises(ValueError, match="labels must not contain commas"):
        FusionModule(ring, ("a,b", "c"), gen_regular_module(ring).action)
    with pytest.raises(ValueError, match="labels must not contain commas"):
        FusionRing(("0", "1,"), "0", (("0", "0"), ("1,", "1,")), ring.tensor)


def test_repeated_labels_fail_at_construction():
    # as in qindex.io: the ring could not tell a label's dual apart, and a
    # module's d_function would merge the two labels
    ring = gen_pointed([2])
    with pytest.raises(ValueError, match="labels must be distinct"):
        FusionRing(("a", "a"), "a", (("a", "a"),), ring.tensor)
    with pytest.raises(ValueError, match="labels must be distinct"):
        FusionModule(ring, ("x", "x"), gen_regular_module(ring).action)


def test_module_rows_must_be_objects():
    payload = module_to_json(gen_regular_module(gen_pointed([2])))
    payload["n"]["1,0"] = [1]
    with pytest.raises(qio.SchemaError) as err:
        qio.module_from_json(payload)
    assert str(err.value) == "fusion_module.n['1,0']: value is an object"


def test_multiplicities_must_fit_int64():
    ring = gen_tlj(4)[0]
    payload = ring_to_json(ring)
    payload["N"]["1,1"]["2"] = 2 ** 63
    with pytest.raises(qio.SchemaError) as err:
        qio.ring_from_json(payload)
    assert str(err.value) == ("fusion_ring.N['1,1']['2']: "
                              "multiplicities are nonnegative ints below 2^63")
    payload["N"]["1,1"]["2"] = 2 ** 63 - 1
    assert qio.ring_from_json(payload).n("1", "1", "2") == 2 ** 63 - 1

    payload = module_to_json(gen_regular_module(ring))
    payload["n"]["2,1"]["1"] = 10 ** 30
    with pytest.raises(qio.SchemaError) as err:
        qio.module_from_json(payload)
    assert str(err.value) == ("fusion_module.n['2,1']['1']: "
                              "multiplicities are nonnegative ints below 2^63")


#: replacements for one multiplicity: each bad in its own way, or good
ODD_MULTIPLICITIES = [-1, 2 ** 63, 2 ** 63 - 1, 10 ** 30, -(2 ** 64), 1.0, "1",
                      None, [1], {"1": 1}, True, False, 0, 3]


def corrupted_maps(payload, name, rng, count):
    """Copies of ``payload`` with 1 to 3 random edits of its sparse map
    ``name``: a multiplicity replaced from ODD_MULTIPLICITIES, an unknown
    target, a malformed or unknown key, a row that is not an object, a
    row dropped, or the whole map replaced."""
    for _ in range(count):
        data = copy.deepcopy(payload)
        entries = data[name]
        for _ in range(rng.integers(1, 4)):
            if not isinstance(entries, dict) or not entries:
                break
            key = list(entries)[rng.integers(len(entries))]
            row = entries[key]
            kind = rng.integers(7)
            if kind <= 2 and isinstance(row, dict) and row:
                target = list(row)[rng.integers(len(row))]
                row[target] = ODD_MULTIPLICITIES[rng.integers(len(ODD_MULTIPLICITIES))]
            elif kind == 3 and isinstance(row, dict):
                row[["nope", "1,1", ""][rng.integers(3)]] = 1
            elif kind == 4:
                entries[["x", "0,0,0", "nope,0", ",", key + ","][rng.integers(5)]] = {}
            elif kind == 5:
                entries[key] = [[1], "1", None][rng.integers(3)]
            elif rng.integers(20):
                del entries[key]
            else:
                data[name] = [entries]
        yield data


def decoded(decode, *args):
    try:
        return ("tensor", decode(*args).tobytes())
    except qio.SchemaError as err:
        return ("error", str(err))


def test_sparse_decoder_matches_per_entry_reference():
    rng = np.random.default_rng(11)
    ring = gen_tlj(7)[0]
    module = gen_quotient_module(gen_pointed([2, 4]), [2, 4], [(0, 0), (0, 2)])
    # rings get more edits: each tensor a ring document decodes to is
    # also written as qindex.ring/2 and read back
    cases = [(400, module_to_json(module), "n", "fusion_module",
              (module.ring.labels, module.labels, module.labels),
              "keys are 'U,i' pairs", "unknown module label"),
             (1600, ring_to_json(ring), "N", "fusion_ring", (ring.labels,) * 3,
              "keys are 'U,V' label pairs", "unknown target label")]
    seen, ring2 = set(), set()
    for count, payload, name, *rest in cases:
        for data in corrupted_maps(payload, name, rng, count):
            want = decoded(sparse_from_json_reference, data, name, *rest)
            raw = json.dumps(data, separators=(",", ":")).encode()
            # the dict, and the document read back by loads
            for doc in (data, qio.loads(raw)):
                assert decoded(qio._sparse_from_json, doc, name, *rest) == want
            if name == "N":  # and the ring file, read through json
                try:
                    got, read = ring_from_bytes_spied(raw)
                    assert ("tensor", got.tensor.tobytes()) == want and not read
                except qio.SchemaError as err:
                    assert ("error", str(err)) == want
                else:
                    got, read = ring_from_bytes_spied(qio.ring_to_bytes(got))
                    assert ("tensor", got.tensor.tobytes()) == want and read
                    ring2.add(want[1])
            seen.add(want[0] if want[0] == "tensor" else want[1].split(": ")[-1])
    # distinct tensors read back from their ring/2 files
    assert len(ring2) >= 100
    assert seen == {"tensor", "N is an object", "n is an object",
                    "keys are 'U,V' label pairs", "keys are 'U,i' pairs",
                    "value is an object", "unknown target label",
                    "unknown module label", "multiplicities are nonnegative ints",
                    "multiplicities are nonnegative ints below 2^63"}


def test_fusion_decoders_log_sizes_and_durations(caplog):
    ring = gen_tlj(5)[0]
    payload = module_to_json(gen_regular_module(ring))
    with caplog.at_level(logging.INFO, logger="qindex.io"):
        qio.module_from_json(payload)
        qio.module_from_json(qio.loads(json.dumps(payload, separators=(",", ":")).encode()))
        qio.ring_from_bytes(qio.ring_to_bytes(ring))
        qio.ring_from_bytes(qio.ring_to_text(ring).encode())
        qio.ring_from_bytes(json.dumps(ring_to_json(ring), indent=2).encode())
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "qindex.io"]
    # a module file's maps are read by json; a ring/2 file's from base64,
    # a compact or indented ring/1 file's by json
    through_json = r"ring_from_json: rank 4, 20 nonzero, N through json, \d+\.\d{3} s"
    module = [through_json,
              r"module_from_json: rank 4, module size 4, 20 nonzero, \d+\.\d{3} s"]
    patterns = module * 2 + [r"ring_from_bytes: rank 4, 20 nonzero, N from base64, \d+\.\d{3} s",
                             through_json, through_json]
    assert len(messages) == len(patterns)
    for message, pattern in zip(messages, patterns):
        assert re.fullmatch(pattern, message), message
