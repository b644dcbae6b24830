import contextlib
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qindex.algebra import (MultiMatrixAlgebra, StarHomomorphism, TraceWeights,
                            group_algebra_inclusion, identity_homomorphism)
from qindex.cli import main
from qindex.expectation import (ConditionalExpectation, QuasiBasis,
                                _central_in_image, _closed_form_indices,
                                _frame_map, _rebuild, canonical_expectation,
                                compute_index_report, equivariantize,
                                index_in_subalgebra, probabilistic_index_bounds,
                                quasi_basis_report, restrict_to_intermediate,
                                scalar_index, validate_expectation,
                                watatani_index)
from qindex.fusion import jones_value
from report_diff import jones_tower

from conftest import (_random_multiplicities, ad_homomorphism, compose,
                      diagonal_inclusion, identity_expectation, inclusion_from_multiplicities,
                      index_element, pinching_expectation,
                      random_connected_inclusion, random_element,
                      random_multimatrix_inclusion, random_unitary, scalars_inclusion,
                      trace_expectation)
from oracles import (ascent_probabilistic_bounds, choi_blocks,
                     choi_scalar_index, closed_form_indices_reference,
                     densities_reference, expectation_from_densities,
                     embed_block_diagonal, four_axiom_failures, greedy_quasi_basis,
                     homomorphism_to_json, in_span, left_mult_matrix, matrix_unit, nested_densities,
                     normal_form_reference, orthonormal_columns, pinv_restriction,
                     rebuild_reference, solve_average, tau_projection)
from test_acceptance import _monomial_actions


def state_expectation(n, rho):
    """E(x) = tr(rho x) 1 onto the scalars of M_n."""
    big = MultiMatrixAlgebra((n,))
    one_vec = big.identity().to_vector()
    row = np.array([np.trace(rho @ e.data[0]) for e in big.basis()])
    return ConditionalExpectation(scalars_inclusion(n), np.outer(one_vec, row))


def scalar_index_bisect(expectation, hi_cap=1e7):
    """Independent oracle: bisection on c with a Choi PSD test of cE - id."""
    big = expectation.algebra

    def is_cp(c):
        def phi(x):
            return embed_block_diagonal(c * expectation(x) - x)
        return all(np.linalg.eigvalsh(blk)[0] >= -1e-11
                   for blk in choi_blocks(phi, big))

    lo, hi = 1.0, 2.0
    while not is_cp(hi):
        hi *= 2.0
        if hi > hi_cap:
            return math.inf
    for _ in range(60):
        mid = (lo + hi) / 2
        if is_cp(mid):
            hi = mid
        else:
            lo = mid
    return hi


# -- validation --------------------------------------------------------------

def test_validate_identity_expectation():
    expectation, _ = identity_expectation(2)
    assert validate_expectation(expectation).ok


def test_validate_pinching():
    expectation, _ = pinching_expectation(2)
    report = validate_expectation(expectation)
    assert report.ok and report.failures == ()


def test_validate_rejects_corner_compression():
    # x -> e_11 x e_11 fails unitality
    big = MultiMatrixAlgebra((2,))
    p = matrix_unit(big, 0, 0, 0)
    cols = [(p * x * p).to_vector() for x in big.basis()]
    bad = ConditionalExpectation(identity_homomorphism(big),
                                 np.stack(cols, axis=1))
    report = validate_expectation(bad)
    assert not report.ok
    assert "unitality" in report.failures


def test_validate_rejects_non_idempotent():
    big = MultiMatrixAlgebra((2,))
    half = 0.5 * np.eye(4) + 0.5 * np.eye(4)[::-1]
    bad = ConditionalExpectation(identity_homomorphism(big), half)
    report = validate_expectation(bad)
    assert report.failures == ("bimodularity",)


def test_validate_rejects_non_positive_density():
    # E(x) = tr(rho x) 1 with rho = diag(3/2, -1/2) is a unital bimodule
    # map whose one density is not positive
    bad = state_expectation(2, np.diag([1.5, -0.5]))
    assert validate_expectation(bad).failures == ("positivity",)
    assert four_axiom_failures(bad) == ("positivity",)


def test_each_density_is_eigendecomposed_once(rng, monkeypatch):
    # validation, faithfulness, the quasi-basis, the closed-form indices and
    # the log line all read one cached batched eigh per density size of an
    # explicit map; the scalar densities of the canonical expectation are
    # their own spectra and need none, and the index element is tested
    # without any eigendecomposition
    inclusion = inclusion_from_multiplicities((1, 2), np.array([[1, 0], [2, 1]]), rng)
    tau = TraceWeights(inclusion.target, (0.3, 0.7))
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    canonical = canonical_expectation(inclusion, tau)
    compute_index_report(canonical)
    assert validate_expectation(canonical).ok
    assert quasi_basis_report(canonical, tau).basis is not None
    assert calls == []
    # three densities, of sizes 1, 2 and 1
    sizes = sorted(h.shape[1] for _, h in canonical.densities)
    assert sizes == [1, 2]
    for (idx, h), (at, vals, vecs) in zip(canonical.densities, canonical.spectra):
        k = h.shape[1]
        assert np.array_equal(at, idx)
        assert np.array_equal(vals, np.repeat(canonical._scalars[idx, None], k, axis=1))
        assert np.array_equal(vecs, np.broadcast_to(np.eye(k), (idx.size, k, k)))

    calls.clear()
    explicit = ConditionalExpectation(inclusion, canonical.matrix)
    assert validate_expectation(explicit).ok
    compute_index_report(explicit)
    assert len(calls) == len(sizes)


def test_expectation_leaves_caller_array_writeable():
    expectation, _ = pinching_expectation(2)
    mat = np.array(expectation.matrix)
    ConditionalExpectation(expectation.inclusion, mat)
    mat[0, 0] = 2.0


# -- canonical construction ---------------------------------------------------

def test_canonical_trace_onto_scalars():
    expectation, _ = trace_expectation(2)
    big = expectation.algebra
    for e in big.basis():
        want = np.trace(e.data[0]) / 2.0 * np.eye(2)
        assert np.allclose(expectation(e).data[0], want, atol=1e-12)


def test_canonical_pinching_kills_offdiagonal():
    expectation, _ = pinching_expectation(2)
    x = expectation.algebra.element([np.array([[1.0, 5.0], [7.0, 2.0]])])
    assert np.allclose(expectation(x).data[0], np.diag([1.0, 2.0]), atol=1e-12)


def test_canonical_identity_when_a_equals_b():
    expectation, _ = identity_expectation(3)
    assert np.allclose(expectation.matrix, np.eye(9), atol=1e-12)


# -- quasi-basis -------------------------------------------------------------

def test_quasi_basis_identity_after_pruning():
    # greedy pruning (oracle): the unit alone spans when A = B
    expectation, tau = identity_expectation(3)
    result = greedy_quasi_basis(expectation, tau)
    assert result.basis is not None
    assert len(result.basis) == 1
    assert (result.basis.elements[0] - expectation.algebra.identity()).norm() <= 1e-9


def test_quasi_basis_pinching_and_hand_checked_family():
    expectation, tau = pinching_expectation(2)
    result = quasi_basis_report(expectation, tau)
    assert result.basis is not None
    assert result.basis.defect(expectation) <= 1e-9
    # a 2-element quasi-basis exists: {1, e_12 + e_21} reproduces
    # diag(x) + offdiag(x) = x
    big = expectation.algebra
    family = QuasiBasis((big.identity(),
                         matrix_unit(big, 0, 0, 1) + matrix_unit(big, 0, 1, 0)))
    assert family.defect(expectation) <= 1e-12


def test_quasi_basis_trace_case():
    expectation, tau = trace_expectation(2)
    result = quasi_basis_report(expectation, tau)
    assert result.basis is not None
    assert len(result.basis) == 4
    # hand-checked family sqrt(2) e_ij: sum 2 e_ij tr(e_ji x)/2 = x
    big = expectation.algebra
    family = QuasiBasis(tuple(np.sqrt(2.0) * matrix_unit(big, 0, i, j)
                              for i in range(2) for j in range(2)))
    assert family.defect(expectation) <= 1e-12


def test_quasi_basis_none_for_non_faithful():
    rho = np.diag([1.0, 0.0])
    expectation = state_expectation(2, rho)
    assert validate_expectation(expectation).ok
    tau = TraceWeights(expectation.algebra, (0.5,))
    result = quasi_basis_report(expectation, tau)
    assert result.basis is None
    assert result.min_eigenvalue < 1e-10


@pytest.mark.parametrize("n", range(2, 7))
def test_quasi_basis_sizes_pinned(n):
    # the Pimsner-Popa basis has sum_t m_t sum_p k_tp elements: n * n for
    # both the pinching (k = 1 for n blocks) and the trace (k = n).  Greedy
    # pruning over (1, e_11, e_12, ...) (oracle): for the pinching the unit
    # covers the diagonal units and each off-diagonal unit adds a direction;
    # for the trace every unit is kept but e_nn, which 1 and the other
    # diagonal units already span
    expectation, tau = pinching_expectation(n)
    assert len(quasi_basis_report(expectation, tau).basis) == n * n
    assert len(greedy_quasi_basis(expectation, tau).basis) == n * n - n + 1
    expectation, tau = trace_expectation(n)
    assert len(quasi_basis_report(expectation, tau).basis) == n * n
    assert len(greedy_quasi_basis(expectation, tau).basis) == n * n


def test_frame_map_and_defect_match_dense_reference(rng):
    # reference: the dense Kronecker assembly sum_k L_u E L_u* and the
    # column norms of its difference from the identity
    for _ in range(40):
        inclusion, tau = random_multimatrix_inclusion(rng)
        expectation = canonical_expectation(inclusion, tau)
        big = expectation.algebra
        family = QuasiBasis(tuple(random_element(big, rng)
                                  for _ in range(int(rng.integers(1, 5)))))
        dense = sum(left_mult_matrix(u) @ expectation.matrix
                    @ left_mult_matrix(u.adjoint()) for u in family.elements)
        cols = np.stack([u.to_vector() for u in family.elements], axis=1)
        frame = _frame_map(big, expectation.matrix, cols)
        assert np.abs(frame - dense).max() <= 1e-12 * np.abs(dense).max()
        want = max(big.from_vector(col).norm()
                   for col in (dense - np.eye(big.total_dim)).T)
        assert abs(family.defect(expectation) - want) <= 1e-12 * want


def test_quasi_basis_report_logs_its_evidence(caplog):
    # one line per stage: the normal form, the quasi-basis, the indices
    inclusion = diagonal_inclusion(3)
    tau = TraceWeights(inclusion.target, (1.0 / 3,))
    with caplog.at_level(logging.INFO, logger="qindex.expectation"):
        canonical = canonical_expectation(inclusion, tau)
        explicit = ConditionalExpectation(inclusion, canonical.matrix)
        assert validate_expectation(explicit).ok
        result = quasi_basis_report(explicit, tau)
        compute_index_report(explicit)
    assert result.basis is not None
    lines = [r.getMessage() for r in caplog.records]
    assert all(line.endswith(" s") for line in lines)
    forms = [line for line in lines if line.startswith("normal form:")]
    assert len(forms) == 2
    assert "K=[[1, 1, 1]]" in forms[0]
    # canonical densities are exact: faithful iff positive
    assert "h eigenvalues in [1.000e+00, 1.000e+00] (faithful above 0.0e+00)" in forms[0]
    assert "(faithful above 1.0e-10)" in forms[1]
    assert "rebuild residual 0 by construction" in forms[0]
    assert re.search(r"rebuild residual \S+ \(tolerance 1\.0e-09\)", forms[1])
    # the quasi-basis line comes from quasi_basis_report alone: the index
    # report reads the index element off the densities
    bases = [line for line in lines if line.startswith("quasi-basis:")]
    assert len(bases) == 1
    assert re.match(r"quasi-basis: 9 elements, defect \S+ \(bound 3\.0e-09\)", bases[0])
    indices = [line for line in lines if line.startswith("closed-form indices:")]
    assert indices == [indices[0]]
    assert "scalar 3, probabilistic 3," in indices[0]
    assert len(lines) == len(forms) + len(bases) + len(indices)


def test_quasi_basis_custom_spanning_sets_agree(rng):
    # the index element does not depend on the quasi-basis: greedy families
    # (oracle) grown from random spanning sets agree with the closed form
    expectation, tau = pinching_expectation(2)
    big = expectation.algebra
    indices = [watatani_index(expectation, quasi_basis_report(expectation, tau).basis)]
    for _ in range(2):
        spanning = [random_element(big, rng) for _ in range(big.total_dim + 2)]
        basis = greedy_quasi_basis(expectation, tau, spanning=spanning).basis
        assert basis is not None
        indices.append(watatani_index(expectation, basis))
    assert (indices[0] - indices[1]).norm() <= 1e-8
    assert (indices[0] - indices[2]).norm() <= 1e-8


# -- index element -----------------------------------------------------------

def test_watatani_warns_on_drift_in_a_later_block(rng):
    # B = M_1 + M_2: block 0 is central whatever it holds, so only block 1,
    # diag(1, 4) = 5/2 1 - 3/2 diag(1, -1), can drift
    inclusion = inclusion_from_multiplicities((1,), np.array([[1], [2]]), rng)
    expectation = canonical_expectation(inclusion, TraceWeights(inclusion.target,
                                                                (1.0, 1.0)))
    big = expectation.algebra
    central = QuasiBasis((matrix_unit(big, 0, 0, 0), matrix_unit(big, 1, 0, 0),
                          matrix_unit(big, 1, 1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (watatani_index(expectation, central) - big.identity()).norm() == 0
    skew = QuasiBasis((matrix_unit(big, 0, 0, 0), matrix_unit(big, 1, 0, 0),
                       2.0 * matrix_unit(big, 1, 1, 1)))
    with pytest.warns(UserWarning, match=re.escape("fails centrality in B by 1.500e+00")):
        watatani_index(expectation, skew)
    # sum u u* = (1, diag(1, 0)) is singular in block 1
    singular = QuasiBasis((matrix_unit(big, 0, 0, 0), matrix_unit(big, 1, 0, 0)))
    with pytest.warns(UserWarning), \
            pytest.raises(ValueError, match="not positive invertible"):
        watatani_index(expectation, singular)


def test_watatani_index_values():
    expectation, tau = identity_expectation(2)
    idx = watatani_index(expectation, quasi_basis_report(expectation, tau).basis)
    assert (idx - expectation.algebra.identity()).norm() <= 1e-9

    expectation, tau = pinching_expectation(2)
    idx = watatani_index(expectation, quasi_basis_report(expectation, tau).basis)
    assert (idx - 2.0 * expectation.algebra.identity()).norm() <= 1e-9

    expectation, tau = trace_expectation(2)
    idx = watatani_index(expectation, quasi_basis_report(expectation, tau).basis)
    assert (idx - 4.0 * expectation.algebra.identity()).norm() <= 1e-9


def test_watatani_warns_on_invalid_family():
    expectation, tau = pinching_expectation(2)
    big = expectation.algebra
    bogus = QuasiBasis((big.identity(), matrix_unit(big, 0, 0, 1)))
    with pytest.warns(UserWarning):
        watatani_index(expectation, bogus)
    # sum u u* = diag(1, 4) is positive invertible but not central
    skew = QuasiBasis((matrix_unit(big, 0, 0, 0), 2.0 * matrix_unit(big, 0, 1, 1)))
    with pytest.warns(UserWarning):
        watatani_index(expectation, skew)


def _wide_weight_case(ratio):
    """A = C + M_2 in B = M_3 + M_4 with multiplicities [[1, 1], [2, 1]] and
    trace weights (1, ratio); the index grows like 3 ratio."""
    inclusion = inclusion_from_multiplicities((1, 2), np.array([[1, 1], [2, 1]]),
                                              np.random.default_rng(7))
    tau = TraceWeights(inclusion.target, (1.0, ratio))
    return canonical_expectation(inclusion, tau), tau


@pytest.mark.parametrize("weights, index", [((1e308, 1e308), 2.0),
                                            ((1e308, 1e307), 11.0)])
def test_index_finite_at_weights_near_the_float_range_end(weights, index):
    # C in C + C, K = [[1], [1]]: h_t = w_t / (w_1 + w_2) does not depend on
    # the scale of w, though w_1 + w_2 overflows here
    big, sub = MultiMatrixAlgebra((1, 1)), MultiMatrixAlgebra((1,))
    inclusion = StarHomomorphism(sub, big, np.array([[1.0], [1.0]]))
    report = compute_index_report(canonical_expectation(inclusion, TraceWeights(big, weights)))
    assert report.scalar_index == report.index_norm == report.prob_lower == index


@pytest.mark.parametrize("ratio", [1.0, 1e2, 1e4, 1e6, 1e8])
def test_index_report_finite_across_weight_ratios(ratio):
    # the scalar index is finite at every ratio, so the index element must
    # be found too; index_norm = inf here would be a wrong answer
    expectation, _ = _wide_weight_case(ratio)
    report = compute_index_report(expectation)
    # sum_t m_t sum_p k_tp = 3 * 2 + 4 * 3
    assert report.quasi_basis_size == 18
    assert abs(report.index_norm - report.scalar_index) <= 1e-8 * report.scalar_index


@pytest.mark.parametrize("explicit", [False, True])
def test_defect_bound_is_relative_to_the_index(explicit):
    # A = M_2 + M_2 in B = M_4 + M_4, K = [[1, 1], [2, 0]], trace weights
    # (1.5e-4, 3.4e3): the index is 4.5e7 and the defect of the exact basis
    # sits at the rounding floor, about 2e-9 here, which an absolute 1e-9
    # bound would reject
    k = np.array([[1, 1], [2, 0]])
    inclusion = inclusion_from_multiplicities((2, 2), k, np.random.default_rng(0))
    w = np.array([1.5e-4, 3.4e3])
    tau = TraceWeights(inclusion.target, tuple(w))
    expectation = canonical_expectation(inclusion, tau)
    if explicit:
        expectation = ConditionalExpectation(inclusion, expectation.matrix)
        assert validate_expectation(expectation).ok
    want = float(np.max(k @ (k.T @ w) / w))
    result = quasi_basis_report(expectation, tau)
    assert result.basis is not None
    assert result.defect <= 1e-9 * want
    assert abs(watatani_index(expectation, result.basis).norm() - want) <= 1e-8 * want


def test_refinement_step_kept_only_when_it_lowers_the_defect():
    # greedy quasi-basis (oracle): E is an expectation only up to rounding,
    # so the refinement step can raise a defect already at that floor, and
    # the family with the smaller defect is kept
    k = np.array([[2, 1], [0, 1]])
    inclusion = inclusion_from_multiplicities((2, 1), k, np.random.default_rng(0))
    w = np.array([1.0, 1e6])
    tau = TraceWeights(inclusion.target, tuple(w))
    expectation = canonical_expectation(inclusion, tau)
    result = greedy_quasi_basis(expectation, tau)
    assert result.defect == min(result.defect_before, result.defect_after)
    assert (result.basis is not None) == (result.defect <= 1e-9)
    want = float(np.max(k @ (k.T @ w) / w))
    if result.basis is not None:
        norm = watatani_index(expectation, result.basis).norm()
        assert abs(norm - want) <= 1e-8 * want
    # the closed-form basis is never rejected here
    basis = quasi_basis_report(expectation, tau).basis
    assert abs(watatani_index(expectation, basis).norm() - want) <= 1e-8 * want


@pytest.mark.parametrize("ratio", [1e4, 1e8])
def test_centrality_warning_is_relative_to_the_index(ratio):
    # at ratio 1e8 the commutator drift is about 1e-6 on an index of 3e8,
    # a relative drift of about 1e-15
    expectation, tau = _wide_weight_case(ratio)
    basis = quasi_basis_report(expectation, tau).basis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = watatani_index(expectation, basis)
    assert index.norm() >= ratio


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_index_norm_is_reference_or_basis_rejected(data):
    # two B blocks with trace weights 10^U(-4, 4): the quasi-basis is never
    # rejected, its index norm is max_t (K K^T w)_t / w_t, and its defect is
    # within the relative bound 1e-9 * max(1, index)
    a_blocks = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    nb = 2
    k = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 2), min_size=len(a_blocks), max_size=len(a_blocks)),
        min_size=nb, max_size=nb)))
    assume(k.sum(axis=1).all() and k.sum(axis=0).all())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = 10.0 ** rng.uniform(-4.0, 4.0, size=nb)
    inclusion = inclusion_from_multiplicities(a_blocks, k, rng)
    tau = TraceWeights(inclusion.target, tuple(map(float, w)))
    expectation = canonical_expectation(inclusion, tau)
    basis = quasi_basis_report(expectation, tau).basis
    assert basis is not None
    want = float(np.max(k @ (k.T @ w) / w))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        norm = watatani_index(expectation, basis).norm()
    assert abs(norm - want) <= 1e-8 * want
    assert basis.defect(expectation) <= 1e-9 * max(1.0, want)


# -- scalar index ------------------------------------------------------------

def test_scalar_index_examples():
    expectation, _ = pinching_expectation(2)
    assert abs(scalar_index(expectation) - 2.0) <= 1e-10
    expectation, _ = trace_expectation(2)
    assert abs(scalar_index(expectation) - 4.0) <= 1e-10
    expectation, _ = identity_expectation(2)
    assert abs(scalar_index(expectation) - 1.0) <= 1e-12


def test_scalar_index_against_bisection_oracle(rng):
    for _ in range(6):
        inclusion, tau = random_multimatrix_inclusion(rng)
        expectation = canonical_expectation(inclusion, tau)
        assert abs(scalar_index(expectation) - scalar_index_bisect(expectation)) <= 1e-7


def test_scalar_index_infinite_for_rank_deficient():
    expectation = state_expectation(2, np.diag([1.0, 0.0]))
    assert math.isinf(scalar_index(expectation))


# -- probabilistic index -----------------------------------------------------

def test_probabilistic_bounds_pinching():
    expectation, _ = pinching_expectation(2)
    lower, upper = probabilistic_index_bounds(expectation, budget=400)
    # oracle: v = (1,1)/sqrt(2) gives E(vv*) = diag(1/2, 1/2) and value 2
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    image = expectation(expectation.algebra.element([np.outer(v, v)])).data[0]
    oracle = float(np.real(v @ np.linalg.pinv(image) @ v))
    assert abs(oracle - 2.0) <= 1e-12
    assert abs(lower - 2.0) <= 1e-9
    assert abs(upper - 2.0) <= 1e-9


def test_probabilistic_bounds_trace_gap():
    for n in (2, 3):
        expectation, _ = trace_expectation(n)
        lower, upper = probabilistic_index_bounds(expectation, budget=400)
        assert abs(lower - n) <= 1e-9
        assert abs(upper - n * n) <= 1e-9


def test_probabilistic_bounds_identity():
    expectation, _ = identity_expectation(2)
    assert probabilistic_index_bounds(expectation, budget=100) == (1.0, 1.0)


def test_fk00_shadow_infinite_both_ways():
    expectation = state_expectation(2, np.diag([1.0, 0.0]))
    lower, upper = probabilistic_index_bounds(expectation, budget=100)
    assert math.isinf(lower) and math.isinf(upper)
    assert math.isinf(scalar_index(expectation))


def test_probabilistic_ascent_climbs_rotated_state(rng):
    # E(x) = tr(rho x) 1 with rotated non-uniform rho: the objective
    # 1/(v* rho v) peaks at the smallest eigenvector, away from every
    # deterministic start, so the gradient ascent has to move
    for _ in range(3):
        u = random_unitary(3, rng)
        evals = np.sort(rng.uniform(0.1, 1.0, size=3))
        rho = u @ np.diag(evals) @ u.conj().T
        rho = rho / np.trace(rho)
        lam = np.linalg.eigvalsh(rho)
        expectation = state_expectation(3, rho)
        lower, upper = probabilistic_index_bounds(expectation, budget=2000)
        assert abs(lower - 1.0 / lam[0]) <= 1e-6 * (1.0 / lam[0])
        # analytic scalar index of a state expectation: sum of 1/lambda_i
        assert abs(upper - np.sum(1.0 / lam)) <= 1e-8 * np.sum(1.0 / lam)
        assert abs(scalar_index(expectation) - np.sum(1.0 / lam)) <= 1e-8


# -- ordering chain and randomized invariants --------------------------------

def test_index_report_ordering_chain(rng):
    for _ in range(5):
        inclusion, tau = random_multimatrix_inclusion(rng)
        expectation = canonical_expectation(inclusion, tau)
        report = compute_index_report(expectation)
        assert report.prob_lower <= report.prob_upper + 1e-9
        assert report.prob_upper <= report.scalar_index + 1e-9
        assert report.scalar_index <= report.index_norm + 1e-7
        assert abs(report.scalar_index - report.index_norm) <= 1e-7


def test_index_report_reads_the_density_spectra_only(rng, monkeypatch):
    # no quasi-basis, defect or sum u u* on the report path: the index
    # element (K K^T w)_t / w_t 1 is read off the densities, of the canonical
    # expectation and of the same map given explicitly and validated
    def forbidden(*args, **kwargs):
        raise AssertionError("the index report left the density spectra")

    for name in ("quasi_basis_report", "watatani_index", "_frame_map"):
        monkeypatch.setattr(f"qindex.expectation.{name}", forbidden)
    k = np.array([[1, 1], [2, 0]])
    inclusion = inclusion_from_multiplicities((2, 1), k, rng)
    w = np.array([0.3, 2.0])
    tau = TraceWeights(inclusion.target, tuple(w))
    canonical = canonical_expectation(inclusion, tau)
    explicit = ConditionalExpectation(inclusion, canonical.matrix)
    assert validate_expectation(explicit).ok
    want = k @ (k.T @ w) / w
    for expectation in (canonical, explicit):
        report = compute_index_report(expectation)
        for block, c in zip(index_element(report).data, want):
            assert np.abs(block - c * np.eye(len(block))).max() <= 1e-12 * c
        assert report.index_norm == report.scalar_index
        assert abs(report.scalar_index - want.max()) <= 1e-12 * want.max()
        # B = M_3 + M_4: sum_t m_t sum_p k_tp = 3 * 2 + 4 * 2
        assert report.quasi_basis_size == 14
        assert report.index_in_subalgebra is False


def test_canonical_index_path_never_builds_the_matrix(rng, tmp_path, monkeypatch):
    # the report of the canonical expectation, in the library and through
    # index compute on a spec without a map, reads only K and w
    def forbidden(*args, **kwargs):
        raise AssertionError("the canonical index path built the expectation matrix")

    monkeypatch.setattr("qindex.expectation._rebuild", forbidden)
    k = np.array([[1, 1], [2, 0], [0, 3]])
    inclusion = inclusion_from_multiplicities((2, 1), k, rng)
    w = np.array([0.3, 2.0, 1e-3])
    report = compute_index_report(canonical_expectation(
        inclusion, TraceWeights(inclusion.target, tuple(w))))
    want = k @ (k.T @ w) / w
    assert abs(report.scalar_index - want.max()) <= 1e-12 * want.max()

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"inclusion": homomorphism_to_json(inclusion),
                                "trace_weights": w.tolist()}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["index", "compute", "--spec", str(spec)]) == 0
    assert json.loads(out.getvalue())["results"]["scalar_index"] == report.scalar_index


def test_index_element_is_built_on_first_read(rng):
    # the report holds the block values c_t; its index element is c_t 1
    k = np.array([[1, 1], [2, 0]])
    inclusion = inclusion_from_multiplicities((2, 1), k, rng)
    w = np.array([0.3, 2.0])
    report = compute_index_report(canonical_expectation(
        inclusion, TraceWeights(inclusion.target, tuple(w))))
    element = index_element(report)
    want = k @ (k.T @ w) / w
    for block, c, value, m in zip(element.data, report.block_values, want,
                                  inclusion.target.blocks):
        assert np.array_equal(block, c * np.eye(m))
        assert abs(c - value) <= 1e-12 * value
    assert max(report.block_values) == report.scalar_index


def test_expectation_is_given_by_its_matrix_or_its_scalar_densities():
    expectation, _ = pinching_expectation(2)
    for kwargs in ({}, {"matrix": expectation.matrix, "scalars": [0.5, 0.5]}):
        with pytest.raises(ValueError, match="by its matrix or by its scalar densities"):
            ConditionalExpectation(expectation.inclusion, **kwargs)


def _z2_action(inclusion: StarHomomorphism) -> list[StarHomomorphism]:
    """{1, Ad phi(v)} for the self-adjoint unitary v = diag(1, -1, 1, ...) on
    every block of A: a group of *-automorphisms of B that maps the image
    of A onto itself."""
    sub = inclusion.source
    v = sub.element([np.diag((-1.0) ** np.arange(a)) for a in sub.blocks])
    u = inclusion(v)
    g = np.zeros((inclusion.target.total_dim,) * 2, dtype=complex)
    ofs = 0
    for block in u.data:
        n = block.size
        g[ofs:ofs + n, ofs:ofs + n] = np.kron(block, block.conj())
        ofs += n
    big = inclusion.target
    return [identity_homomorphism(big), StarHomomorphism(big, big, g)]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.data())
def test_lazy_canonical_matrix_matches_the_dense_oracle(data):
    # trace weights 10^U(-4, 4) and multiplicities up to 12: the matrix the
    # canonical expectation builds on first read is the tau-orthogonal
    # projection onto the image of A, and the calls that read it give what
    # they give on that matrix passed explicitly
    a_blocks = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    nb = data.draw(st.integers(1, 2))
    k = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 12), min_size=len(a_blocks), max_size=len(a_blocks)),
        min_size=nb, max_size=nb)))
    assume(k.sum(axis=1).all() and k.sum(axis=0).all())
    assume(int(np.sum((k @ np.array(a_blocks)) ** 2)) <= 300)  # keeps the dense maps small
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inclusion = inclusion_from_multiplicities(tuple(a_blocks), k, rng)
    w = 10.0 ** rng.uniform(-4.0, 4.0, size=nb)
    tau = TraceWeights(inclusion.target, tuple(map(float, w)))

    lazy = canonical_expectation(inclusion, tau)
    assert "matrix" not in vars(lazy)
    want = tau_projection(inclusion, w)
    assert np.abs(lazy.matrix - want).max() <= 1e-12 * np.abs(want).max()
    assert lazy.matrix is lazy.matrix and not lazy.matrix.flags.writeable

    explicit = ConditionalExpectation(inclusion, lazy.matrix)
    action = _z2_action(inclusion)
    assert np.array_equal(equivariantize(canonical_expectation(inclusion, tau), action).matrix,
                          equivariantize(explicit, action).matrix)
    whole = identity_homomorphism(inclusion.target)
    got = restrict_to_intermediate(canonical_expectation(inclusion, tau), whole)
    ref = restrict_to_intermediate(explicit, whole)
    assert np.array_equal(got.matrix, ref.matrix)
    assert np.array_equal(got.inclusion.matrix, ref.inclusion.matrix)
    # the scalar densities and those read back off the matrix agree to
    # rounding, and so do the bases built from them
    got = quasi_basis_report(canonical_expectation(inclusion, tau), tau)
    ref = quasi_basis_report(explicit, tau)
    index = scalar_index(explicit)
    assert got.basis is not None and ref.basis is not None
    assert got.defect <= 1e-9 * max(1.0, index) and ref.defect <= 1e-9 * max(1.0, index)
    assert abs(got.min_eigenvalue - ref.min_eigenvalue) <= 1e-12 * ref.max_eigenvalue
    assert abs(got.max_eigenvalue - ref.max_eigenvalue) <= 1e-12 * ref.max_eigenvalue
    assert len(got.basis) == len(ref.basis)
    for u, v in zip(got.basis.elements, ref.basis.elements):
        assert np.abs(u.to_vector() - v.to_vector()).max() <= 1e-9 * math.sqrt(index)


def test_index_element_location_report():
    # scalar index element lies in the image of A; a two-block index
    # element with distinct block scalars does not
    expectation, _ = pinching_expectation(2)
    report = compute_index_report(expectation)
    assert report.index_in_subalgebra is True

    big = MultiMatrixAlgebra((1, 1))
    sub = MultiMatrixAlgebra((1,))
    incl = StarHomomorphism(sub, big, np.array([[1.0], [1.0]]))
    expectation2 = canonical_expectation(incl, TraceWeights(big, (0.5, 0.5)))
    skew = big.element([np.array([[1.0]]), np.array([[2.0]])])
    assert not index_in_subalgebra(expectation2, skew)
    assert index_in_subalgebra(expectation2, big.identity())


def test_tower_multiplicativity():
    # C in diag in M_2: canonical indices multiply, 2 x 2 = 4
    big = MultiMatrixAlgebra((2,))
    tau = TraceWeights(big, (0.5,))
    e_diag = canonical_expectation(diagonal_inclusion(2), tau)
    diag_alg = e_diag.subalgebra
    tau_diag = TraceWeights(diag_alg, (0.5, 0.5))
    scalars_in_diag = StarHomomorphism(
        MultiMatrixAlgebra((1,)), diag_alg,
        diag_alg.identity().to_vector().reshape(-1, 1))
    e_scalars = canonical_expectation(scalars_in_diag, tau_diag)
    e_comp = canonical_expectation(scalars_inclusion(2), tau)

    n1 = watatani_index(e_diag, quasi_basis_report(e_diag, tau).basis).norm()
    n2 = watatani_index(e_scalars, quasi_basis_report(e_scalars, tau_diag).basis).norm()
    n3 = watatani_index(e_comp, quasi_basis_report(e_comp, tau).basis).norm()
    assert abs(n1 * n2 - n3) <= 1e-9
    assert abs(n3 - 4.0) <= 1e-9


@pytest.mark.parametrize("n", [*range(4, 61), 100, 150, 200])
def test_jones_towers_give_the_discrete_series_from_their_multiplicities(n):
    # T(n) given by (a, K) reaches 4 cos^2(pi/n) from its normal form alone:
    # neither U nor the matrix is built, so every report peaks under 1 MB,
    # T(16) (D = 2 674 440) and T(200) (block sizes past 2^190) alike
    a, k, w = jones_tower(n)
    tracemalloc.start()
    try:
        inclusion = StarHomomorphism.from_multiplicities(a, k)
        report = compute_index_report(canonical_expectation(
            inclusion, TraceWeights(inclusion.target, w)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    beta = jones_value(n)
    sizes = [sum(k_tp * a_p for k_tp, a_p in zip(row, a)) for row in k.tolist()]
    assert abs(report.scalar_index - beta) <= 1e-14 * beta
    assert inclusion.target.blocks == tuple(sizes)
    assert report.quasi_basis_size == sum(m * k_tp for m, row in zip(sizes, k.tolist())
                                          for k_tp in row)
    assert report.index_in_subalgebra is True
    assert "matrix" not in inclusion.__dict__ and "unitary" not in inclusion.__dict__
    assert peak < 2**20
    if n <= 9:
        given = StarHomomorphism(inclusion.source, inclusion.target, inclusion.matrix)
        read = compute_index_report(canonical_expectation(given, TraceWeights(given.target, w)))
        assert abs(read.scalar_index - report.scalar_index) <= 1e-12 * report.scalar_index


PAST_INT64 = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
sys.path[:0] = sys.argv[1:]
from qindex.algebra import StarHomomorphism, TraceWeights
from qindex.expectation import canonical_expectation, compute_index_report
from report_diff import jones_tower

def report(inclusion, weights):
    tau = TraceWeights(inclusion.target, weights)
    return compute_index_report(canonical_expectation(inclusion, tau))

out = {}
for n in (38, 39, 60):
    a, k, w = jones_tower(n)
    out[n] = report(StarHomomorphism.from_multiplicities(a, k), w).scalar_index
one = report(StarHomomorphism.from_multiplicities((2**31,), [[1]]), (1.0,))
out["one"] = [one.scalar_index, one.quasi_basis_size]
big = StarHomomorphism.from_multiplicities((2**62, 2**62), [[1, 1]])
out["blocks"] = big.target.blocks
for name, read in (("matrix", lambda: big.matrix), ("unitary", lambda: big.unitary),
                   ("block_rows", lambda: big.target.block_rows)):
    try:
        read()
    except ValueError as error:
        out[name] = str(error)
print(json.dumps(out))
"""


def test_a_dense_read_past_int64_raises_and_never_wraps():
    # in a child capped at 512 MB of address space: towers whose D passes
    # 2^63 (T(38)), whose largest block squared does (T(39)) and T(60)
    # report from (a, K); so does D = 2^62, whose U would take 64 EiB;
    # past np.intp every dense read raises the one named error
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-I", "-B", "-c", PAST_INT64,
                           str(root / "src"), str(root / "tools")],
                          capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    for n in (38, 39, 60):
        assert abs(out[str(n)] - jones_value(n)) <= 1e-14 * jones_value(n)
    assert out["one"] == [1.0, 2**31]
    assert out["blocks"] == [2**63]
    for name in ("matrix", "unitary", "block_rows"):
        assert out[name] == (f"an algebra of dimension {2**126} is too large "
                             "for a dense path")


def test_group_algebra_integer_index():
    for n in range(1, 13):
        for d in range(1, n + 1):
            if n % d:
                continue
            inclusion, tau = group_algebra_inclusion(n, d)
            expectation = canonical_expectation(inclusion, tau)
            norm = watatani_index(
                expectation, quasi_basis_report(expectation, tau).basis).norm()
            assert abs(norm - round(norm)) <= 1e-9
            assert abs(norm - n / d) <= 1e-9


def test_perron_frobenius_trace_gives_scalar_index(rng):
    # oracle from classical multimatrix index theory: weighting B by the
    # Perron-Frobenius eigenvector of k k^T makes the index element the
    # scalar lambda_max(k k^T) 1, computable from the integer inclusion
    # matrix alone
    for _ in range(10):
        inclusion, k = random_connected_inclusion(rng)
        gram = (k @ k.T).astype(float)
        evals, evecs = np.linalg.eigh(gram)
        beta = float(evals[-1])
        weights = np.abs(evecs[:, -1])
        weights = weights / np.dot(weights, inclusion.target.blocks)
        tau = TraceWeights(inclusion.target, tuple(map(float, weights)))
        expectation = canonical_expectation(inclusion, tau)
        index = watatani_index(expectation, quasi_basis_report(expectation, tau).basis)
        assert (index - beta * inclusion.target.identity()).norm() <= 1e-8
        assert abs(scalar_index(expectation) - beta) <= 1e-8


def _components(k):
    """The connected component of each B block in the bipartite graph of k."""
    comp = list(range(k.shape[0]))
    for p in range(k.shape[1]):
        ts = [comp[t] for t in np.flatnonzero(k[:, p])]
        comp = [ts[0] if c in ts else c for c in comp]
    return np.array(comp)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.data())
def test_closed_form_membership_matches_the_svd_oracle(data):
    # central elements c_t 1 of B: constant on the components of the
    # Bratteli graph (in the image) or free, times 10^U(-3, 3), plus a
    # perturbation around the tolerance 1e-8 relative to their norm
    a_blocks = tuple(data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    nb = data.draw(st.integers(1, 6))
    k = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 2), min_size=len(a_blocks), max_size=len(a_blocks)),
        min_size=nb, max_size=nb)))
    assume(k.sum(axis=1).all() and k.sum(axis=0).all())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inclusion = inclusion_from_multiplicities(a_blocks, k, rng)
    c = rng.uniform(1.0, 10.0, size=nb)
    if data.draw(st.booleans()):
        c = c[_components(k)]
    c *= 10.0 ** rng.uniform(-3.0, 3.0)
    size = data.draw(st.sampled_from([0.0, 1e-10, 3e-9, 1e-8, 3e-8, 1e-6]))
    c = c + size * np.linalg.norm(c) * rng.standard_normal(nb)
    tol = 1e-8
    vec = np.concatenate([ct * np.eye(m).ravel() for ct, m in zip(c, inclusion.target.blocks)])
    onb = orthonormal_columns(inclusion.matrix)
    residual = np.linalg.norm(vec - onb @ (onb.conj().T @ vec))
    # clear of the threshold by more than the rounding of either test
    assume(abs(residual - tol * max(1.0, np.linalg.norm(vec))) > 1e-6 * tol * np.linalg.norm(vec))
    assert _central_in_image(inclusion, c, tol) == in_span(vec, onb, tol)


# -- equivariantization ------------------------------------------------------

def test_equivariantize_trivial_group():
    expectation, _ = pinching_expectation(2)
    big = expectation.algebra
    averaged = equivariantize(expectation, [identity_homomorphism(big)])
    assert np.allclose(averaged.matrix, expectation.matrix, atol=1e-12)


def test_equivariantize_swap_recovers_trace():
    big = MultiMatrixAlgebra((2,))
    expectation = state_expectation(2, np.diag([1.0, 0.0]))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    action = [identity_homomorphism(big), ad_homomorphism(swap, big)]
    averaged = equivariantize(expectation, action)
    want = state_expectation(2, np.eye(2) / 2.0)
    assert np.allclose(averaged.matrix, want.matrix, atol=1e-12)
    assert validate_expectation(averaged).ok


def test_equivariantize_fixes_equivariant_input():
    expectation, _ = pinching_expectation(2)
    big = expectation.algebra
    gz = ad_homomorphism(np.diag([1.0, -1.0]), big)
    averaged = equivariantize(expectation, [identity_homomorphism(big), gz])
    assert np.allclose(averaged.matrix, expectation.matrix, atol=1e-12)


def test_equivariantize_rejects_bad_action():
    # an action element that is not a *-automorphism fails when it is
    # constructed, before it can reach equivariantize
    big = MultiMatrixAlgebra((2,))
    # kills e_12 and e_21: neither injective nor multiplicative
    not_auto = np.diag([1.0, 0.0, 0.0, 1.0])
    # Ad(s) for an invertible, non-unitary s is an algebra automorphism that
    # preserves the diagonal, but not a *-map
    s = np.diag([1.0, 2.0])
    not_star = np.stack([(s @ e.data[0] @ np.linalg.inv(s)).ravel() for e in big.basis()],
                        axis=1)
    for g in (not_auto, not_star):
        with pytest.raises(ValueError, match="inclusion is not a \\*-homomorphism: the "
                                             "adapted basis of B block 0 fails unitarity"):
            StarHomomorphism(big, big, g)


def test_equivariantize_rejects_actions_off_b_or_off_the_image_of_a():
    expectation, _ = pinching_expectation(2)
    with pytest.raises(ValueError, match="at least one group element"):
        equivariantize(expectation, [])
    m3 = MultiMatrixAlgebra((3,))
    with pytest.raises(ValueError, match="must consist of endomorphisms of B"):
        equivariantize(expectation, [identity_homomorphism(m3)])
    # Ad of the Hadamard rotation is a *-automorphism of M_2 that carries
    # the diagonal to the span of 1 and the flip
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    action = [identity_homomorphism(expectation.algebra),
              ad_homomorphism(hadamard, expectation.algebra)]
    with pytest.raises(ValueError, match="does not preserve the subalgebra setwise"):
        equivariantize(expectation, action)


def test_equivariantize_monotone_scalar_index(rng):
    big = MultiMatrixAlgebra((2,))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    action = [identity_homomorphism(big), ad_homomorphism(swap, big)]
    for _ in range(6):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = z @ z.conj().T
        rho = rho / np.trace(rho)
        expectation = state_expectation(2, rho)
        averaged = equivariantize(expectation, action)
        assert scalar_index(averaged) <= scalar_index(expectation) + 1e-9


# -- restriction -------------------------------------------------------------

def test_restrict_to_diagonal_gives_index_two():
    expectation, tau = trace_expectation(2)
    restricted = restrict_to_intermediate(expectation, diagonal_inclusion(2))
    assert restricted.algebra.blocks == (1, 1)
    tau_c = TraceWeights(restricted.algebra, (0.5, 0.5))
    basis = quasi_basis_report(restricted, tau_c).basis
    assert basis is not None
    assert abs(watatani_index(restricted, basis).norm() - 2.0) <= 1e-9


def test_restrict_to_full_algebra_is_identity_case():
    expectation, tau = trace_expectation(2)
    restricted = restrict_to_intermediate(
        expectation, identity_homomorphism(expectation.algebra))
    assert restricted.algebra.blocks == (2,)
    assert abs(scalar_index(restricted) - 4.0) <= 1e-9


def test_restrict_to_subalgebra_itself():
    expectation, tau = trace_expectation(2)
    restricted = restrict_to_intermediate(expectation, scalars_inclusion(2))
    assert restricted.algebra.blocks == (1,)
    assert abs(scalar_index(restricted) - 1.0) <= 1e-9


def test_restrict_rejects_non_subalgebra():
    # twice the diagonal inclusion is linear and contains the scalars, but
    # is not multiplicative, so it fails when it is constructed, before it
    # can reach restrict_to_intermediate
    with pytest.raises(ValueError, match=r"inclusion is not a \*-homomorphism"):
        StarHomomorphism(MultiMatrixAlgebra((1, 1)), MultiMatrixAlgebra((2,)),
                         2 * diagonal_inclusion(2).matrix)


def test_restrict_rejects_algebra_without_the_image_of_a():
    expectation, _ = pinching_expectation(2)
    with pytest.raises(ValueError, match="does not contain the image of A"):
        restrict_to_intermediate(expectation, scalars_inclusion(2))


def test_restrict_rejects_inclusion_into_another_algebra():
    expectation, _ = trace_expectation(2)
    with pytest.raises(ValueError, match=r"included in blocks \(3,\), not in B's \(2,\)"):
        restrict_to_intermediate(expectation, scalars_inclusion(3))


def test_restrict_preserves_quasi_basis_existence(rng):
    # if E has a quasi-basis, the restriction does too
    inclusion, tau = random_multimatrix_inclusion(rng)
    expectation = canonical_expectation(inclusion, tau)
    restricted = restrict_to_intermediate(expectation, expectation.inclusion)
    tau_c = TraceWeights(restricted.algebra,
                         (1.0,) * len(restricted.algebra.blocks))
    assert quasi_basis_report(restricted, tau_c).basis is not None


def test_restriction_to_a_tower_is_the_canonical_expectation_of_a_in_c(rng):
    # for A < C < B, the trace-preserving E of A in B restricts to the
    # trace-preserving expectation of A in C for tau restricted to C, whose
    # weights are w_C = K_CB^T w
    towers = 0
    while towers < 6:
        a_to_c, _ = random_multimatrix_inclusion(rng)
        k_cb = rng.integers(0, 3, size=(int(rng.integers(1, 3)), len(a_to_c.target.blocks)))
        if not (k_cb.sum(axis=0).all() and k_cb.sum(axis=1).all()):
            continue
        c_to_b = inclusion_from_multiplicities(a_to_c.target.blocks, k_cb, rng)
        if c_to_b.target.total_dim > 200:  # keeps the dense maps small
            continue
        towers += 1
        w = rng.uniform(0.2, 2.0, size=k_cb.shape[0])
        tau = TraceWeights(c_to_b.target, tuple(w))
        expectation = canonical_expectation(compose(c_to_b, a_to_c), tau)
        restricted = restrict_to_intermediate(expectation, c_to_b)
        expected = canonical_expectation(a_to_c, TraceWeights(a_to_c.target, tuple(k_cb.T @ w)))
        assert restricted.algebra.blocks == a_to_c.target.blocks
        assert (np.linalg.norm(restricted.inclusion.matrix - a_to_c.matrix)
                <= 1e-12 * np.linalg.norm(a_to_c.matrix))
        assert (np.linalg.norm(restricted.matrix - expected.matrix)
                <= 1e-12 * np.linalg.norm(expected.matrix))


def test_closed_form_images_match_pinv_svd_and_solve():
    # 100 random inclusions with up to 3 A blocks and 100 towers A < C < B:
    # preimage against pinv, membership against the SVD verdict away from
    # its threshold, restriction against the pinv-built one
    rng = np.random.default_rng(14)
    verdicts = set()
    for _ in range(100):
        inclusion, tau = random_multimatrix_inclusion(rng, max_a_blocks=3)
        big = inclusion.target
        vecs = np.stack([random_element(big, rng).to_vector() for _ in range(3)], axis=1)
        want = np.linalg.pinv(inclusion.matrix) @ vecs
        assert np.linalg.norm(inclusion.preimage(vecs) - want) <= 1e-12 * np.linalg.norm(want)

        expectation = canonical_expectation(inclusion, tau)
        onb = orthonormal_columns(inclusion.matrix)
        for size in (0.0, 1e-12, 1e-10, 3e-9, 1e-6, 1.0):
            vec = inclusion(random_element(inclusion.source, rng)).to_vector()
            vec = vec + size * np.linalg.norm(vec) * random_element(big, rng).to_vector()
            residual = np.linalg.norm(vec - onb @ (onb.conj().T @ vec))
            bound = 1e-9 * max(1.0, np.linalg.norm(vec))
            if abs(residual - bound) <= 1e-3 * bound:
                continue
            verdict = in_span(vec, onb, 1e-9)
            assert index_in_subalgebra(expectation, big.from_vector(vec)) == verdict
            verdicts.add(verdict)

        while True:
            a_to_c, _ = random_multimatrix_inclusion(rng, max_a_blocks=3)
            k_cb = rng.integers(0, 3, size=(int(rng.integers(1, 3)), len(a_to_c.target.blocks)))
            if k_cb.sum(axis=0).all() and k_cb.sum(axis=1).all():
                break
        c_to_b = inclusion_from_multiplicities(a_to_c.target.blocks, k_cb, rng)
        tau = TraceWeights(c_to_b.target, tuple(rng.uniform(0.2, 2.0, size=k_cb.shape[0])))
        expectation = canonical_expectation(compose(c_to_b, a_to_c), tau)
        restricted = restrict_to_intermediate(expectation, c_to_b)
        for got, want in zip((restricted.inclusion.matrix, restricted.matrix),
                             pinv_restriction(expectation, c_to_b)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert verdicts == {False, True}


def test_equivariantize_matches_the_solve_average_on_monomial_actions():
    # the actions of criterion 11 fix the range of E, the scalars; the
    # order-6 shift of C^6 permutes the image (a, b, c, a, b, c) of C^3 by
    # a 3-cycle, so g and g^{-1} differ on it
    rng = np.random.default_rng(11)
    cases = []
    for action, big in _monomial_actions():
        n = big.blocks[0]
        for _ in range(4):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            cases.append((state_expectation(n, z @ z.conj().T / np.trace(z @ z.conj().T)),
                          action))
    big = MultiMatrixAlgebra((1,) * 6)
    inclusion = StarHomomorphism(MultiMatrixAlgebra((1,) * 3), big, np.eye(3)[[0, 1, 2] * 2])
    shift = np.roll(np.eye(6), 1, axis=0)
    action = [StarHomomorphism(big, big, np.linalg.matrix_power(shift, j)) for j in range(6)]
    for _ in range(4):
        tau = TraceWeights(big, tuple(rng.uniform(0.2, 2.0, size=6)))
        cases.append((canonical_expectation(inclusion, tau), action))
    for expectation, action in cases:
        want = solve_average(expectation, action)
        got = equivariantize(expectation, action).matrix
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# -- density normal form against the dense oracles ------------------------------

def _random_density(k, rng, singular):
    """k x k PSD with eigenvalues in [1, 10], the smallest set to 0 when
    ``singular``."""
    vals = rng.uniform(1.0, 10.0, size=k)
    if singular:
        vals[0] = 0.0
    u = random_unitary(k, rng)
    return (u * vals) @ u.conj().T


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.data())
def test_closed_forms_match_dense_oracles(data):
    # explicit maps built from random non-scalar densities h_tp = w_t R_tp / N_p
    # (R_tp of condition number <= 10, N_p normalising sum_t Tr h_tp = 1),
    # trace weights 10^U(-4, 4), one density made singular in some draws
    a_blocks = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    nb = data.draw(st.integers(1, 2))
    k = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=len(a_blocks), max_size=len(a_blocks)),
        min_size=nb, max_size=nb)))
    assume(k.sum(axis=1).all() and k.sum(axis=0).all())
    singular = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = 10.0 ** rng.uniform(-4.0, 4.0, size=nb)
    raw = [[_random_density(k[t, p], rng, False) for p in range(len(a_blocks))]
           for t in range(nb)]
    if singular:
        # a density that may vanish on a direction while sum_t Tr h_tp = 1 holds
        spare = np.argwhere((k > 1) | ((k > 0) & ((k > 0).sum(axis=0) > 1)))
        assume(len(spare))
        t, p = map(int, spare[int(rng.integers(len(spare)))])
        raw[t][p] = _random_density(k[t, p], rng, True)
    norm = [sum(w[t] * np.trace(raw[t][p]).real for t in range(nb))
            for p in range(len(a_blocks))]
    h = [[w[t] * raw[t][p] / norm[p] for p in range(len(a_blocks))] for t in range(nb)]
    b_blocks = k @ np.array(a_blocks)
    unitaries = [random_unitary(int(m), rng) for m in b_blocks]
    expectation = expectation_from_densities(a_blocks, k, unitaries, h)
    tau = TraceWeights(expectation.algebra, tuple(map(float, w)))

    assert validate_expectation(expectation).ok
    assert four_axiom_failures(expectation) == ()
    # the densities are read back up to a unitary of each multiplicity space
    pairs = expectation.inclusion.pairs
    assert np.array_equal(np.sort(np.concatenate([idx for idx, _ in expectation.densities])),
                          np.arange(np.count_nonzero(k)))
    for idx, got in expectation.densities:
        for n, g in zip(idx, got):
            d = h[pairs.t[n]][pairs.p[n]]
            assert np.abs(np.linalg.eigvalsh(g) - np.linalg.eigvalsh(d)).max() <= 1e-12
    # the batched density reading, rebuilt map and closed forms against
    # their per-pair references: the same densities give the same indices
    inclusion = expectation.inclusion
    corners, _ = normal_form_reference(inclusion.source, inclusion.target, inclusion.matrix)
    batched = nested_densities(expectation)
    for got, want in zip(batched, densities_reference(expectation, corners)):
        for g, d in zip(got, want):
            assert np.abs(g - d).max(initial=0) <= 1e-12
    rebuilt = _rebuild(expectation.inclusion, expectation.densities)
    assert np.abs(rebuilt - rebuild_reference(expectation.inclusion, corners, batched)).max() \
        <= 1e-12 * np.abs(rebuilt).max()
    prob, sums = _closed_form_indices(expectation)
    assert (prob, list(sums)) == closed_form_indices_reference(a_blocks, batched)
    lower, scalar = probabilistic_index_bounds(expectation)
    basis = quasi_basis_report(expectation, tau).basis
    report = compute_index_report(expectation)
    assert report.index_norm == report.scalar_index == scalar
    if singular:
        assert math.isinf(lower) and math.isinf(scalar)
        assert math.isinf(choi_scalar_index(expectation))
        assert basis is None
        assert index_element(report) is None and report.quasi_basis_size == 0
        assert greedy_quasi_basis(expectation, tau).basis is None
        return
    assert 1.0 - 1e-12 <= lower <= scalar
    # the closed forms are exact; the dense solvers lose about eps * index
    # relative accuracy to the smallest density eigenvalue
    slack = 1e-12 * scalar
    assert abs(choi_scalar_index(expectation) - scalar) <= max(1e-9, slack) * scalar
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        index = watatani_index(expectation, basis)
        norm = index.norm()
        greedy = greedy_quasi_basis(expectation, tau).basis
        if greedy is not None:
            assert abs(watatani_index(expectation, greedy).norm() - norm) \
                <= max(1e-8, slack) * norm
    assert abs(norm - scalar) <= 1e-9 * scalar
    assert basis.defect(expectation) <= 1e-9 * max(1.0, scalar)
    # the report's closed-form index element is sum u u* of that basis
    for got, want in zip(index_element(report).data, index.data):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert report.quasi_basis_size == len(basis)
    assert report.index_in_subalgebra == index_in_subalgebra(expectation, index, 1e-8)
    ascent, _ = ascent_probabilistic_bounds(expectation, budget=20)
    assert ascent <= lower * (1 + max(1e-9, slack))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_canonical_closed_forms_match_the_reference_bit_for_bit(data):
    # scalar densities w_t / (K^T w)_p, k_tp up to 12 and mixed a_p, so the
    # sums of the min(a_p, k_tp) largest inverse eigenvalues and of the
    # rest run from empty to 12 entries: each is np.sum of the same slice
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    while True:
        a_blocks, k = _random_multiplicities(rng, 3, 3, 3, 12)
        if int(np.sum((k @ np.array(a_blocks)) ** 2)) <= 900:
            break
    inclusion = inclusion_from_multiplicities(a_blocks, k, rng)
    w = 10.0 ** rng.uniform(-4.0, 4.0, size=len(k))
    expectation = canonical_expectation(inclusion,
                                        TraceWeights(inclusion.target, tuple(map(float, w))))
    prob, sums = _closed_form_indices(expectation)
    assert (prob, list(sums)) == closed_form_indices_reference(
        a_blocks, nested_densities(expectation))


def test_closed_forms_match_the_reference_on_long_eigenvalue_sums():
    # k_tp of 12 and 11: sums of 10 and 11 eigenvalues, where numpy's
    # unrolled summation would group zero-padded rows differently from
    # slices, and differ in the last bits for some draws
    k = np.array([[12], [11]])
    for seed in range(16):
        rng = np.random.default_rng(seed)
        inclusion = inclusion_from_multiplicities((1,), k, rng)
        h = [_random_density(int(n), rng, False)[None] for n in k[:, 0]]
        expectation = ConditionalExpectation(
            inclusion, _rebuild(inclusion, ((np.array([0]), h[0]), (np.array([1]), h[1]))))
        prob, sums = _closed_form_indices(expectation)
        assert (prob, list(sums)) == closed_form_indices_reference(
            (1,), nested_densities(expectation))
