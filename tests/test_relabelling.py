"""Relabelling invariance of the index reports and of the fusion data.

The index of an inclusion and the Perron-Frobenius data of a fusion ring
do not depend on the order in which blocks or labels are listed.  These
derandomized Hypothesis tests permute the blocks of canonical inclusions
and rename and permute the labels of fusion rings, and compare the results
to a relative 1e-12: a permutation of the B blocks reorders the sums
K^T w, so the last bits may move.

Not yet covered: scaling the trace weights by 10^k.  Weights pushed below
the normal float range reach the known exit-3 defect on [1, 1e-320] trace
weights (ROADMAP item 3), so that invariance waits for its fix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qindex.algebra import StarHomomorphism, TraceWeights
from qindex.expectation import canonical_expectation, compute_index_report
from qindex.fusion import FusionRing, module_trace_solve, pf_dimensions
from qindex.generators import gen_pointed, gen_regular_module, gen_tlj

from conftest import _random_multiplicities

RTOL = 1e-12


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def canonical_report(a_blocks, k, w):
    inclusion = StarHomomorphism.from_multiplicities(a_blocks, k)
    tau = TraceWeights(inclusion.target, tuple(map(float, w)))
    return compute_index_report(canonical_expectation(inclusion, tau))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data(), st.sampled_from(["A", "B"]))
def test_index_report_is_invariant_under_relabelling_blocks(data, side):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a_blocks, k = _random_multiplicities(rng, 3, 3, 3, 3)
    w = 10.0 ** rng.uniform(-4.0, 4.0, size=len(k))
    if side == "B":  # rows of K and the weights
        perm = np.array(data.draw(st.permutations(range(len(k)))))
        moved = canonical_report(a_blocks, k[perm], w[perm])
    else:  # columns of K and the A block sizes
        perm = np.array(data.draw(st.permutations(range(len(a_blocks)))))
        moved = canonical_report(tuple(np.array(a_blocks)[perm].tolist()), k[:, perm], w)
    report = canonical_report(a_blocks, k, w)
    assert close(moved.scalar_index, report.scalar_index)
    assert close(moved.prob_lower, report.prob_lower)
    values = report.block_values
    if side == "B":
        values = tuple(values[t] for t in perm)
    assert all(close(x, y) for x, y in zip(moved.block_values, values, strict=True))
    assert moved.quasi_basis_size == report.quasi_basis_size


def relabelled(ring: FusionRing, names: dict[str, str], perm: list[int]) -> FusionRing:
    """``ring`` with label u renamed names[u] and listed in the order ``perm``."""
    return FusionRing(tuple(names[ring.labels[i]] for i in perm), names[ring.unit],
                      tuple((names[a], names[b]) for a, b in ring.dual),
                      ring.tensor[np.ix_(perm, perm, perm)])


@pytest.mark.parametrize("ring", [gen_tlj(n)[0] for n in (5, 9, 17, 40)]
                         + [gen_pointed([2, 4]), gen_pointed([3, 3])],
                         ids=["tlj5", "tlj9", "tlj17", "tlj40", "pointed2x4", "pointed3x3"])
@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data())
def test_fusion_data_is_invariant_under_relabelling(ring, data):
    # the unit stays first: a module trace is normalised at the module's
    # first label, which for the regular module is the ring's first label
    r = ring.rank
    unit = ring.index(ring.unit)
    rest = [i for i in range(r) if i != unit]
    perm = [unit] + data.draw(st.permutations(rest))
    codes = data.draw(st.permutations(range(r)))
    names = {lab: f"x{codes[i]}" for i, lab in enumerate(ring.labels)}
    moved = relabelled(ring, names, perm)

    dims, moved_dims = pf_dimensions(ring), pf_dimensions(moved)
    trace = module_trace_solve(gen_regular_module(ring), dims).trace
    moved_trace = module_trace_solve(gen_regular_module(moved), moved_dims).trace
    for lab in ring.labels:
        assert close(moved_dims[names[lab]], dims[lab])
        assert close(moved_trace[names[lab]], trace[lab])
