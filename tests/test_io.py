import numpy as np
import pytest

from qindex import io as qio
from qindex.algebra import MultiMatrixAlgebra, TraceWeights
from qindex.expectation import canonical_expectation
from qindex.fusion import FusionRing, validate_fusion, validate_module
from qindex.generators import (gen_pointed, gen_quotient_module,
                               gen_regular_module, gen_tlj)

from conftest import diagonal_inclusion, random_multimatrix_inclusion


def test_algebra_round_trip():
    alg = MultiMatrixAlgebra((2, 3))
    assert qio.algebra_from_json(qio.algebra_to_json(alg)).blocks == alg.blocks


def test_element_round_trip(rng):
    alg = MultiMatrixAlgebra((2, 1))
    x = alg.random_element(rng)
    back = qio.element_from_json(qio.element_to_json(x), alg)
    assert (back - x).norm() <= 1e-15


def test_homomorphism_round_trip(rng):
    incl, _ = random_multimatrix_inclusion(rng)
    back = qio.homomorphism_from_json(qio.homomorphism_to_json(incl))
    assert back.source.blocks == incl.source.blocks
    assert back.target.blocks == incl.target.blocks
    assert np.allclose(back.matrix, incl.matrix)


def test_expectation_round_trip():
    big = MultiMatrixAlgebra((2,))
    tau = TraceWeights(big, (0.5,))
    expectation = canonical_expectation(diagonal_inclusion(2), tau)
    data = qio.expectation_to_json(expectation, tau)
    inclusion, mat, tau2 = qio.expectation_spec_from_json(data)
    assert np.allclose(mat, expectation.matrix)
    assert tau2.weights == tau.weights


def test_expectation_spec_defaults():
    big = MultiMatrixAlgebra((2,))
    tau = TraceWeights(big, (0.5,))
    expectation = canonical_expectation(diagonal_inclusion(2), tau)
    data = qio.expectation_to_json(expectation)
    del data["map"]
    inclusion, mat, tau2 = qio.expectation_spec_from_json(data)
    assert mat is None
    assert tau2.weights == (0.5,)  # normalized trace on M_2


def test_ring_and_module_round_trip():
    for make in (lambda: gen_tlj(5)[0], lambda: gen_pointed([2, 2])):
        ring = make()
        back = qio.ring_from_json(qio.ring_to_json(ring))
        assert back.labels == ring.labels
        assert back.unit == ring.unit
        assert dict(back.dual) == dict(ring.dual)
        assert np.array_equal(back.tensor, ring.tensor)
        assert validate_fusion(back) == []

        module = gen_regular_module(ring)
        back_m = qio.module_from_json(qio.module_to_json(module))
        assert back_m.labels == module.labels
        assert np.array_equal(back_m.action, module.action)
        assert validate_module(back_m) == []


def test_ring_to_json_matches_per_entry_reference(rng):
    # a noncommutative tensor, so that the (u, v) key order is observable
    ring = FusionRing(("a", "b", "c"), "a", (("a", "a"), ("b", "c"), ("c", "b")),
                      rng.integers(0, 3, size=(3, 3, 3)))
    for ring in (ring, gen_tlj(6)[0], gen_pointed([2, 3])):
        want = {}
        for u in ring.labels:
            for v in ring.labels:
                row = {w: ring.n(u, v, w) for w in ring.labels if ring.n(u, v, w)}
                if row:
                    want[f"{u},{v}"] = row
        got = qio.ring_to_json(ring)["N"]
        assert list(got.items()) == list(want.items())
        assert all(type(n) is int for row in got.values() for n in row.values())
    # the module codec is the same sparse map, over (ring, module, module) labels
    for module in (gen_regular_module(ring),
                   gen_quotient_module(gen_pointed([2, 2]), [2, 2], [(0, 0), (1, 0)])):
        want = {}
        for u in module.ring.labels:
            for i in module.labels:
                row = {j: int(module.action_matrix(u)[module.index(i), module.index(j)])
                       for j in module.labels
                       if module.action_matrix(u)[module.index(i), module.index(j)]}
                if row:
                    want[f"{u},{i}"] = row
        got = qio.module_to_json(module)["n"]
        assert list(got.items()) == list(want.items())


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
        qio.element_from_json({"blocks": [[[1, 2], [3, 4]]]},
                              MultiMatrixAlgebra((2,)))


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
])
def test_matrix_schema_errors_name_the_first_bad_entry(data, message):
    with pytest.raises(qio.SchemaError) as err:
        qio._matrix_from_json(data, "m")
    assert str(err.value) == message


def test_matrix_codec_keeps_every_float():
    inf = float("inf")
    data = [[[0, inf], [-0.0, 1.5]], [[True, False], [2 ** 70, -inf]]]
    mat = qio._matrix_from_json(data, "m")
    want = np.array([[complex(0, inf), complex(-0.0, 1.5)],
                     [complex(1, 0), complex(2 ** 70, -inf)]])
    assert mat.tobytes() == want.tobytes()
    back = qio._matrix_to_json(mat)
    assert back == [[[0.0, inf], [-0.0, 1.5]], [[1.0, 0.0], [float(2 ** 70), -inf]]]
    assert all(type(x) is float for row in back for pair in row for x in pair)


def test_module_rows_must_be_objects():
    payload = qio.module_to_json(gen_regular_module(gen_pointed([2])))
    payload["n"]["1,0"] = [1]
    with pytest.raises(qio.SchemaError) as err:
        qio.module_from_json(payload)
    assert str(err.value) == "fusion_module.n['1,0']: value is an object"
