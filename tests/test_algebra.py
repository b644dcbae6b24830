import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qindex.algebra import (MultiMatrixAlgebra, StarHomomorphism, TraceWeights,
                            column_norms, group_algebra_inclusion)
from qindex.expectation import canonical_expectation, compute_index_report

from conftest import (_random_multiplicities, compose, diagonal_inclusion,
                      inclusion_from_multiplicities, random_element)
from oracles import (choi_blocks, choi_is_psd, is_positive, left_mult_matrix, matrix_unit,
                     multiply_columns, normal_form_reference, right_mult_matrix)


def test_total_dim_and_rep_dim():
    alg = MultiMatrixAlgebra((2, 3))
    assert alg.total_dim == 13
    assert alg.rep_dim == 5
    assert len(alg.basis()) == 13


def test_rejects_bad_blocks():
    with pytest.raises(ValueError):
        MultiMatrixAlgebra(())
    with pytest.raises(ValueError):
        MultiMatrixAlgebra((2, 0))


def test_vector_round_trip(rng):
    alg = MultiMatrixAlgebra((2, 3, 1))
    x = random_element(alg, rng)
    assert np.allclose(alg.from_vector(x.to_vector()).to_vector(), x.to_vector())


def test_cstar_identity_on_random_elements(rng):
    # ||x* x|| = ||x||^2, 100 random elements per algebra
    for blocks in [(2,), (3,), (2, 3), (1, 2, 2)]:
        alg = MultiMatrixAlgebra(blocks)
        for _ in range(100):
            x = random_element(alg, rng)
            lhs = (x.adjoint() * x).norm()
            rhs = x.norm() ** 2
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_left_right_mult_matrices(rng):
    alg = MultiMatrixAlgebra((2, 3))
    for _ in range(10):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        assert np.allclose(left_mult_matrix(x) @ y.to_vector(), (x * y).to_vector())
        assert np.allclose(right_mult_matrix(x) @ y.to_vector(), (y * x).to_vector())


def test_blockwise_helpers_match_kronecker_reference(rng):
    # the dense Kronecker matrices are the reference for the blockwise
    # products of the test oracles and for the library's column_norms
    for blocks in [(1,), (3,), (2, 3), (1, 2, 2, 1, 3), (1, 1, 1, 1)]:
        alg = MultiMatrixAlgebra(blocks)
        cols = np.stack([random_element(alg, rng).to_vector() for _ in range(4)],
                        axis=1)
        for _ in range(5):
            x = random_element(alg, rng)
            assert np.allclose(multiply_columns(x, cols),
                               left_mult_matrix(x) @ cols, rtol=0, atol=1e-13)
            assert np.allclose(multiply_columns(x, cols, right=True),
                               right_mult_matrix(x) @ cols, rtol=0, atol=1e-13)
        assert np.allclose(column_norms(alg, cols),
                           [alg.from_vector(c).norm() for c in cols.T],
                           rtol=1e-14, atol=0)


def test_is_positive_identity_and_signature():
    alg = MultiMatrixAlgebra((2, 3))
    assert is_positive(alg.identity(), 1e-9)
    m2 = MultiMatrixAlgebra((2,))
    assert not is_positive(m2.element([np.diag([1.0, -1.0])]), 1e-9)


def test_is_positive_squares(rng):
    # oracle: Rayleigh quotients of x* x are nonnegative
    alg = MultiMatrixAlgebra((3,))
    for _ in range(20):
        x = random_element(alg, rng)
        sq = x.adjoint() * x
        for _ in range(10):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert np.real(v.conj() @ sq.data[0] @ v) >= -1e-10
        assert is_positive(sq, 1e-9)


def test_is_positive_rejects_non_hermitian():
    alg = MultiMatrixAlgebra((2,))
    with pytest.raises(ValueError):
        is_positive(alg.element([np.array([[0, 1], [0, 0.0]])]), 1e-9)


def test_choi_identity_map():
    m2 = MultiMatrixAlgebra((2,))
    [c] = choi_blocks(lambda x: x.data[0], m2)
    # oracle: 2 * outer product of the maximally entangled vector
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0 / np.sqrt(2)
    assert np.allclose(c, 2.0 * np.outer(omega, omega.conj()))
    evals = np.linalg.eigvalsh(c)
    assert np.allclose(evals, [0, 0, 0, 2.0], atol=1e-12)


def test_choi_transpose_not_cp():
    m2 = MultiMatrixAlgebra((2,))
    [c] = choi_blocks(lambda x: x.data[0].T, m2)
    # oracle: the swap matrix, spectrum {1, 1, 1, -1}
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.allclose(c, swap)
    assert np.linalg.eigvalsh(c)[0] < -0.5
    assert not choi_is_psd(c)


def test_choi_normalized_trace():
    m2 = MultiMatrixAlgebra((2,))
    [c] = choi_blocks(lambda x: np.trace(x.data[0]) / 2.0 * np.eye(2), m2)
    assert np.allclose(c, np.eye(4) / 2.0)
    assert choi_is_psd(c)


def test_choi_conjugation_maps_are_cp(rng):
    alg = MultiMatrixAlgebra((2, 2))
    for _ in range(10):
        v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))

        def phi(x, v=v):
            big = np.zeros((4, 4), dtype=complex)
            big[:2, :2] = x.data[0]
            big[2:, 2:] = x.data[1]
            return v.conj().T @ big @ v

        for c in choi_blocks(phi, alg):
            assert np.linalg.eigvalsh(c)[0] >= -1e-10


def _choi_kron_reference(phi, domain):
    """The definition sum_ij phi(e_ij) (x) e_ij, with one np.kron per unit."""
    out = []
    for t, m in enumerate(domain.blocks):
        n = np.asarray(phi(matrix_unit(domain, t, 0, 0))).shape[0]
        c = np.zeros((n * m, n * m), dtype=complex)
        for i in range(m):
            for j in range(m):
                unit = np.zeros((m, m))
                unit[i, j] = 1.0
                img = np.asarray(phi(matrix_unit(domain, t, i, j)), dtype=complex)
                c += np.kron(img, unit)
        out.append((c + c.conj().T) / 2)
    return out


@pytest.mark.parametrize("blocks", [(1,), (3,), (1, 2), (2, 2), (3, 1, 2), (4, 1)])
def test_choi_blocks_match_kronecker_reference(blocks, rng):
    alg = MultiMatrixAlgebra(blocks)
    n = 3
    kernel = (rng.standard_normal((n, n, alg.total_dim))
              + 1j * rng.standard_normal((n, n, alg.total_dim)))
    # images with exact and negative zeros: the bytes must match too
    kernel[0, 1] = 0.0
    kernel[1, 0] *= -0.0

    def phi(x):
        return kernel @ x.to_vector()

    got = choi_blocks(phi, alg)
    want = _choi_kron_reference(phi, alg)
    assert len(got) == len(want)
    for c, ref in zip(got, want):
        assert np.array_equal(c, ref) and c.tobytes() == ref.tobytes()


def test_group_algebra_inclusion_shapes():
    incl, tau = group_algebra_inclusion(4, 2)
    assert incl.source.blocks == (1, 1)
    assert incl.target.blocks == (1,) * 4
    # character k of Z/4 restricts to character k mod 2 of the subgroup
    assert incl.multiplicities.tolist() == [[1, 0], [0, 1], [1, 0], [0, 1]]
    # each subalgebra character appears n/d = 2 times
    counts = np.asarray(np.real(incl.matrix)).sum(axis=0)
    assert list(counts) == [2.0, 2.0]
    assert tau.weights == (0.25,) * 4

    trivial, _ = group_algebra_inclusion(1, 1)
    assert trivial.source.blocks == (1,) and trivial.target.blocks == (1,)


def test_group_algebra_inclusion_character_oracle(rng):
    # oracle: embed group elements of the order-d subgroup of Z/n and
    # Fourier-transform both sides independently
    for (n, d) in [(4, 2), (6, 3), (6, 2), (12, 4)]:
        incl, _ = group_algebra_inclusion(n, d)
        dft_a = np.array([[np.exp(2j * np.pi * m * l / d) for m in range(d)]
                          for l in range(d)])
        dft_b = np.array([[np.exp(2j * np.pi * j * k / n) for j in range(n)]
                          for k in range(n)])
        for _ in range(5):
            coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            a_hat = dft_a @ coeffs
            # lambda'_m embeds as lambda_{m n/d} in C*(Z/n)
            b_coeffs = np.zeros(n, dtype=complex)
            for m in range(d):
                b_coeffs[(m * (n // d)) % n] += coeffs[m]
            b_hat = dft_b @ b_coeffs
            assert np.allclose(incl.matrix @ a_hat, b_hat, atol=1e-10)


def test_group_algebra_inclusion_rejects_nondivisor():
    with pytest.raises(ValueError):
        group_algebra_inclusion(6, 4)


def test_group_algebra_inclusion_composes():
    for (n, d, e) in [(12, 6, 3), (8, 4, 2), (24, 12, 4), (6, 6, 1)]:
        outer, _ = group_algebra_inclusion(n, d)
        inner, _ = group_algebra_inclusion(d, e)
        direct, _ = group_algebra_inclusion(n, e)
        assert np.array_equal(compose(outer, inner).matrix, direct.matrix)


def test_trace_weights_faithful_tracial(rng):
    alg = MultiMatrixAlgebra((2, 3))
    tau = TraceWeights(alg, (0.7, 1.3))
    for _ in range(20):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        assert abs(tau(x * y) - tau(y * x)) <= 1e-9
        assert np.real(tau(x.adjoint() * x)) > 0
    with pytest.raises(ValueError):
        TraceWeights(alg, (1.0, 0.0))


@pytest.mark.parametrize("weight", [float("inf"), float("nan"), 10 ** 400])
def test_trace_weights_are_finite_and_positive(weight):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        TraceWeights(MultiMatrixAlgebra((2, 3)), (1.0, weight))


def test_elements_immutable_after_construction(rng):
    # concurrency contract: element data and map matrices are read-only
    alg = MultiMatrixAlgebra((2, 3))
    x = random_element(alg, rng)
    with pytest.raises(ValueError):
        x.data[0][0, 0] = 5.0
    incl, tau = group_algebra_inclusion(4, 2)
    with pytest.raises(ValueError):
        incl.matrix[0, 0] = 9.0


# -- inclusion normal form ---------------------------------------------------

def test_normal_form_recovers_multiplicities_and_unitaries(rng):
    for _ in range(10):
        a_blocks = tuple(int(x) for x in rng.integers(1, 3, size=int(rng.integers(1, 3))))
        k = rng.integers(0, 3, size=(int(rng.integers(1, 3)), len(a_blocks)))
        if not (k.sum(axis=1).all() and k.sum(axis=0).all()):
            continue
        inclusion = inclusion_from_multiplicities(a_blocks, k, rng)
        assert np.array_equal(inclusion.multiplicities, k)
        x = random_element(inclusion.source, rng)
        image = inclusion(x)
        for t, u in enumerate(inclusion.target.from_vector(inclusion.unitary).data):
            assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-12
            # U_t* phi(x)_t U_t = sum_p x_p (x) 1_{k_tp}
            want = copies(x, k[t])
            assert np.abs(u.conj().T @ image.data[t] @ u - want).max() <= 1e-12


def copies(x, row):
    """sum_p x_p (x) 1_{row[p]}, block diagonal in p."""
    size = sum(xp.shape[0] * kp for xp, kp in zip(x.data, row))
    out = np.zeros((size, size), dtype=complex)
    ofs = 0
    for xp, kp in zip(x.data, row):
        n = xp.shape[0] * kp
        out[ofs:ofs + n, ofs:ofs + n] = np.kron(xp, np.eye(kp))
        ofs += n
    return out


def test_multiplicity_form_builds_the_direct_sum_of_copies(rng):
    # the matrix built on first read is phi(x)_t = sum_p x_p (x) 1_{k_tp}
    # exactly, read only; read off again it gives K, and the matrix-given
    # copy has the same canonical report
    for _ in range(200):
        a_blocks, k = _random_multiplicities(rng, 3, 3, 3, 3)
        inclusion = StarHomomorphism.from_multiplicities(a_blocks, k)
        x = random_element(inclusion.source, rng)
        image = inclusion(x)
        for t, block in enumerate(image.data):
            assert np.array_equal(block, copies(x, k[t]))
        given = StarHomomorphism(inclusion.source, inclusion.target, inclusion.matrix)
        assert np.array_equal(given.multiplicities, k)
        tau = TraceWeights(inclusion.target,
                           tuple(rng.uniform(0.2, 2.0, len(inclusion.target.blocks))))
        want, got = (compute_index_report(canonical_expectation(h, tau))
                     for h in (inclusion, given))
        np.testing.assert_allclose(got.block_values, want.block_values, rtol=1e-12, atol=0)
        np.testing.assert_allclose([got.scalar_index, got.prob_lower],
                                   [want.scalar_index, want.prob_lower], rtol=1e-12, atol=0)
        assert got.index_in_subalgebra == want.index_in_subalgebra
        with pytest.raises(ValueError, match="read-only"):
            inclusion.matrix[0, 0] = 2.0


@pytest.mark.parametrize("k, message", [
    (np.ones(2, dtype=np.int64), "multiplicities must be a matrix with 2 columns"),
    (np.ones((2, 3), dtype=np.int64), "multiplicities must be a matrix with 2 columns"),
    ([[1, -1]], "multiplicities must be nonnegative integers"),
    ([[1, 1.5]], "multiplicities must be nonnegative integers"),
    ([[1, 0], [2, 0]], "inclusion is not injective: A block 1 has multiplicity 0 "
                       "in every block of B"),
    ([[1, 1], [0, 0]], "block sizes must be >= 1"),
], ids=["not-2d", "columns", "negative", "not-integer", "zero-column", "zero-row"])
def test_from_multiplicities_rejects_invalid_multiplicities(k, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        StarHomomorphism.from_multiplicities((1, 2), k)


@pytest.mark.parametrize("m", [1.5, 2.5, 0.5])
def test_block_sizes_must_be_integers(m):
    # a block size is never truncated to an integer, in an algebra or in the
    # source of an inclusion given by its multiplicities
    message = re.escape(f"got ({m},)")
    with pytest.raises(ValueError, match=f"block sizes must be .*{message}"):
        MultiMatrixAlgebra((m,))
    with pytest.raises(ValueError, match=f"block sizes must be .*{message}"):
        StarHomomorphism.from_multiplicities((m,), [[2]])
    for size in (np.int64(2), 2.0):
        assert MultiMatrixAlgebra((size,)).blocks == (2,)
        assert StarHomomorphism.from_multiplicities((1,), [[size]]).target.blocks == (2,)
        assert StarHomomorphism.from_multiplicities((size,), [[1]]).target.blocks == (2,)


def test_normal_form_rejects_non_homomorphisms():
    # each map fails at construction, with the per-pair oracle's error
    sub, big = MultiMatrixAlgebra((1, 1)), MultiMatrixAlgebra((2,))
    good = diagonal_inclusion(2).matrix
    cases = [
        # e_1 -> e_11 + e_12 is not a projection, so not multiplicative
        (sub, big, good + np.outer(np.eye(4)[1], np.eye(2)[0]), "not a *-homomorphism"),
        # e_2 -> 0: not unital
        (sub, big, good * np.array([1.0, 0.0]), "not a unital *-homomorphism"),
        # M_2 -> M_2 doubling e_12: the adapted basis is unitary, but
        # phi(e_12) phi(e_21) = 2 e_11 is not phi(e_11)
        (big, big, np.diag([1.0, 2.0, 1.0, 1.0]), "differs from e_ij (x) 1 by 1.000e+00"),
        # C + C -> C by (a, b) -> a: unital in the target, but block 2 of A is lost
        (sub, MultiMatrixAlgebra((1,)), np.array([[1.0, 0.0]]), "not injective"),
    ]
    for source, target, mat, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)) as want:
            normal_form_reference(source, target, mat)
        with pytest.raises(ValueError) as got:
            StarHomomorphism(source, target, mat)
        assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, complex(0, np.nan), np.inf])
@pytest.mark.parametrize("at", [(0, 0), (0, 1), (3, 1)])
def test_non_finite_matrix_fails_at_construction(bad, at):
    # a NaN gap fails the normal form's tests as a large one does
    mat = np.array(diagonal_inclusion(2).matrix)
    mat[at] = bad
    with pytest.raises(ValueError, match=re.escape("inclusion is not a")):
        StarHomomorphism(MultiMatrixAlgebra((1, 1)), MultiMatrixAlgebra((2,)), mat)
    mat = np.eye(4, dtype=complex)
    mat[1, 2] = bad
    with pytest.raises(ValueError, match=re.escape("inclusion is not a")):
        StarHomomorphism(MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((2,)), mat)


CORRUPTIONS = (None, "scaled unit", "dropped projection", "lost A block", "stray image")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_normal_form_matches_the_per_pair_oracle(data):
    # up to 8 B blocks, whose sizes repeat, with zero multiplicities and
    # Haar conjugations; a corrupted map raises the oracle's ValueError.
    # In the commutative draws, about half, every A block has size 1 and
    # every B block holds one copy of one of them, so every B block has
    # size 1
    if data.draw(st.booleans()):
        a_blocks = (1,) * data.draw(st.integers(1, 3))
        nb = data.draw(st.integers(1, 8))
        k = np.eye(len(a_blocks), dtype=int)[data.draw(st.lists(
            st.integers(0, len(a_blocks) - 1), min_size=nb, max_size=nb))]
    else:
        a_blocks = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        nb = data.draw(st.integers(1, 8))
        k = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 2), min_size=len(a_blocks), max_size=len(a_blocks)),
            min_size=nb, max_size=nb)))
    assume(k.sum(axis=1).all() and k.sum(axis=0).all())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inclusion = inclusion_from_multiplicities(a_blocks, k, rng)
    sub, big = inclusion.source, inclusion.target
    mat = np.array(inclusion.matrix)
    corruption = data.draw(st.sampled_from(CORRUPTIONS))
    # a stray image lands where k_tp = 0, the other corruptions where k_tp > 0
    chosen = np.argwhere(k == 0 if corruption == "stray image" else k)
    assume(len(chosen))
    t, p = map(int, chosen[data.draw(st.integers(0, len(chosen) - 1))])
    rows = slice(sum(m * m for m in big.blocks[:t]), sum(m * m for m in big.blocks[:t + 1]))
    first = sum(a * a for a in a_blocks[:p])
    if corruption == "scaled unit":
        # e^p_12 (e^p_11 when a_p = 1) doubled in block t
        mat[rows, first + (a_blocks[p] > 1)] *= 2.0
    elif corruption == "dropped projection":
        mat[rows, first] = 0.0
    elif corruption == "lost A block":
        sub = MultiMatrixAlgebra(a_blocks + (1,))
        mat = np.concatenate([mat, np.zeros((big.total_dim, 1))], axis=1)
    elif corruption == "stray image":
        # e^p_aa gets an image in block t, too small to add a multiplicity
        mat[rows.start, first + a_blocks[p] ** 2 - 1] = 0.25
    try:
        corners, want = normal_form_reference(sub, big, mat)
    except ValueError as err:
        assert corruption is not None
        with pytest.raises(ValueError) as got:
            StarHomomorphism(sub, big, mat)
        assert str(got.value) == str(err)
        return
    assert corruption is None
    hom = StarHomomorphism(sub, big, mat)
    assert np.array_equal(hom.multiplicities, want)
    for u, block in zip(big.from_vector(hom.unitary).data, corners):
        ref = np.concatenate([c.reshape(c.shape[0], -1) for c in block], axis=1)
        assert np.abs(u - ref).max() <= 1e-12
    for n in range(hom.pairs.t.size):
        t, p, m, a, kk = (int(getattr(hom.pairs, f)[n]) for f in "tpmak")
        corner = hom.corner_columns(np.array([n]), a * kk).reshape(m, a, kk)
        assert np.abs(corner - corners[t][p]).max() <= 1e-12


def test_normal_form_cost_is_independent_of_block_count(monkeypatch):
    # read off a matrix: one batched eigh per size class of B blocks of
    # size > 1 in the constructor, none for the class of size 1, and none
    # after it, since the canonical densities are scalars: C[Z_24] in
    # C[Z_24] costs what C[Z_4] in C[Z_4] does, none, and B blocks of
    # sizes 1, 2, 4, 2 cost two; given by its multiplicities, the normal
    # form costs none
    calls = []
    real = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    counts = {"matrix": [], "multiplicities": []}
    for a_blocks, k in (((1,) * 4, np.eye(4, dtype=int)), ((1,) * 24, np.eye(24, dtype=int)),
                        ((1, 2), [[1, 0], [0, 1], [2, 1], [0, 1]])):
        for form in counts:
            calls.clear()
            inclusion = StarHomomorphism.from_multiplicities(a_blocks, k)
            if form == "matrix":
                inclusion = StarHomomorphism(inclusion.source, inclusion.target,
                                             inclusion.matrix)
            constructed = len(calls)
            compute_index_report(canonical_expectation(
                inclusion, TraceWeights.normalized(inclusion.target)))
            counts[form].append((constructed, len(calls) - constructed))
    assert counts == {"matrix": [(0, 0), (0, 0), (2, 0)],
                      "multiplicities": [(0, 0), (0, 0), (0, 0)]}


def test_constructors_leave_caller_arrays_writeable():
    alg = MultiMatrixAlgebra((2,))
    block = np.eye(2, dtype=complex)
    alg.element([block])
    block[0, 1] = 1.0
    mat = np.array(diagonal_inclusion(2).matrix)
    StarHomomorphism(MultiMatrixAlgebra((1, 1)), alg, mat)
    mat[0, 0] = 2.0
