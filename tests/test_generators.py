import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qindex.fusion import (module_trace_solve, pf_dimensions, validate_fusion,
                           validate_module)
from qindex.generators import (gen_pointed, gen_quotient_module,
                               gen_regular_module, gen_tlj, pointed_elements)


def test_tlj3_level_one():
    ring, dims = gen_tlj(3)
    assert ring.labels == ("0", "1")
    assert ring.n("1", "1", "0") == 1
    assert ring.n("1", "1", "1") == 0
    assert abs(dims["0"] - 1.0) <= 1e-12 and abs(dims["1"] - 1.0) <= 1e-12


def test_tlj4_level_two():
    ring, dims = gen_tlj(4)
    assert ring.labels == ("0", "1", "2")
    # 1 x 1 = 0 + 2
    assert ring.n("1", "1", "0") == 1
    assert ring.n("1", "1", "1") == 0
    assert ring.n("1", "1", "2") == 1
    assert abs(dims["1"] - np.sqrt(2.0)) <= 1e-12


def test_tlj5_golden():
    _, dims = gen_tlj(5)
    assert abs(dims["1"] - (1.0 + np.sqrt(5.0)) / 2.0) <= 1e-10


def test_tlj_matches_defining_formula():
    for n in range(3, 41):
        ring, _ = gen_tlj(n)
        k = n - 2
        want = np.zeros((k + 1,) * 3, dtype=np.int64)
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    if (a + b + c) % 2 == 0 and abs(a - b) <= c <= min(a + b, 2 * k - a - b):
                        want[a, b, c] = 1
        assert ring.tensor.dtype == np.int64
        assert np.array_equal(ring.tensor, want), n


def test_tlj_rejects_small_n():
    with pytest.raises(ValueError):
        gen_tlj(2)


def test_tlj_dims_satisfy_character_equation():
    for n in range(3, 13):
        ring, dims = gen_tlj(n)
        vec = np.array([dims[lab] for lab in ring.labels])
        for u, lab in enumerate(ring.labels):
            resid = ring.tensor[u].astype(float) @ vec - dims[lab] * vec
            assert np.max(np.abs(resid)) <= 1e-12
        assert abs(dims["1"] ** 2 - 4.0 * np.cos(np.pi / n) ** 2) <= 1e-12


def test_generator_outputs_validate_exactly():
    for n in range(3, 13):
        ring, _ = gen_tlj(n)
        assert validate_fusion(ring) == []
        assert validate_module(gen_regular_module(ring)) == []
    for factors in ([2], [4], [2, 2], [2, 4], [3]):
        ring = gen_pointed(factors)
        assert validate_fusion(ring) == []
        assert validate_module(gen_regular_module(ring)) == []


def test_pointed_rings():
    z2 = gen_pointed([2])
    assert z2.labels == ("0", "1") and z2.n("1", "1", "0") == 1
    z4 = gen_pointed([4])
    assert z4.n("1", "3", "0") == 1 and z4.dual_label("1") == "3"
    v4 = gen_pointed([2, 2])
    assert len(v4.labels) == 4
    assert all(v4.dual_label(lab) == lab for lab in v4.labels)
    dims = pf_dimensions(v4)
    assert all(abs(dims[lab] - 1.0) <= 1e-12 for lab in v4.labels)


def test_quotient_module_cosets():
    z4 = gen_pointed([4])
    halved = gen_quotient_module(z4, [4], [(0,), (2,)])
    assert halved.size == 2
    assert validate_module(halved) == []

    whole = gen_quotient_module(z4, [4], [(0,), (1,), (2,), (3,)])
    assert whole.size == 1

    regular = gen_quotient_module(z4, [4], [(0,)])
    assert regular.size == 4
    assert np.array_equal(regular.action, gen_regular_module(z4).action)


def test_quotient_module_rejects_non_subgroup():
    z4 = gen_pointed([4])
    with pytest.raises(ValueError):
        gen_quotient_module(z4, [4], [(0,), (1,)])
    with pytest.raises(ValueError):
        gen_quotient_module(z4, [4], [(1,), (3,)])


@pytest.mark.parametrize("ring_factors, subgroup, message", [
    ([2], [(0,)], "ring is not the pointed ring of the given factors"),
    ([4], [(0,), (1,), (3,)], "subgroup not closed under addition"),
], ids=["other-ring", "not-closed-under-addition"])
def test_quotient_module_names_what_is_wrong(ring_factors, subgroup, message):
    with pytest.raises(ValueError) as err:
        gen_quotient_module(gen_pointed(ring_factors), [4], subgroup)
    assert str(err.value) == message


def test_pointed_rejects_bad_factors():
    with pytest.raises(ValueError):
        gen_pointed([])
    with pytest.raises(ValueError):
        gen_pointed([0, 2])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=2))
def test_pointed_ring_properties(factors):
    ring = gen_pointed(factors)
    assert validate_fusion(ring) == []
    dims = pf_dimensions(ring)
    assert all(abs(dims[lab] - 1.0) <= 1e-12 for lab in ring.labels)
    module = gen_regular_module(ring)
    assert validate_module(module) == []
    result = module_trace_solve(module, dims)
    assert result.status == "ok"
    assert all(abs(v - 1.0) <= 1e-9 for v in result.trace.as_dict().values())


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.integers(1, 12))
def test_quotient_module_by_cyclic_subgroup(n, gen):
    ring = gen_pointed([n])
    gen = gen % n
    subgroup = {(0,)}
    g = (gen,)
    while g not in subgroup:
        subgroup.add(g)
        g = ((g[0] + gen) % n,)
    module = gen_quotient_module(ring, [n], sorted(subgroup))
    assert module.size == n // len(subgroup)
    assert validate_module(module) == []
    result = module_trace_solve(module, pf_dimensions(ring))
    assert result.status == "ok"
