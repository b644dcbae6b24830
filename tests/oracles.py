"""Dense reference solvers for the expectation layer.

The library reads every index of an expectation off its per-block
densities (see ``qindex.expectation``).  The solvers here are the dense
numerical methods it used before, kept as independent references: the
greedy frame-operator quasi-basis with its refinement step, the
Choi-pencil scalar index, the finite-difference Pimsner-Popa ascent and
the four-axiom validation, all built on the blockwise products of
``multiply_columns`` and the Choi matrices of ``choi_blocks``.  The dense
Kronecker multiplication matrices ``left_mult_matrix`` and
``right_mult_matrix`` are the reference for those products, and
``image_basis`` spans the image of an inclusion.
``orthonormal_columns`` and ``in_span`` decide membership in a span by an
SVD of its spanning columns, and ``pinv_restriction`` and
``solve_average`` restrict and average expectations through ``pinv`` and
``solve``: the references for the closed-form images of inclusions.
``tau_projection`` is the trace-preserving expectation as the orthogonal
projection onto the image of A in the trace inner product, through
``solve``: the reference for the matrix rebuilt from its densities.
``expectation_from_densities`` builds explicit expectation maps from
chosen densities without the library's normal form.
``normal_form_reference``, ``densities_reference``,
``rebuild_reference`` and ``closed_form_indices_reference`` are the
normal form, the density reading, the rebuilt map and the closed-form
indices one block pair at a time, the references for the batched ones
of the library.
``matrix_to_json``, ``algebra_to_json``, ``homomorphism_to_json`` and
``expectation_to_json`` write algebra data in the formats of
``docs/formats.md``, to build the files that ``qindex.io`` reads.
``element_to_json`` and ``element_from_json`` write and read an element
as ``{"blocks": [...]}``, one matrix per block, a format of the tests
alone that puts each matrix through the reader of ``qindex.io``.
``sparse_from_json_reference`` decodes the sparse fusion multiplicity
map one entry at a time, the reference for the whole-array decoder of
``qindex.io``, and ``ring_to_json_reference`` and
``module_to_json_reference`` build the payload dicts that
``qindex.io`` once encoded with ``json.dumps``: the references for its
text encoder.  ``module_to_text`` writes a module file with that encoder;
the CLI writes none.  ``ring2_reference`` builds the payload of a
qindex.ring/2 file one bit and one multiplicity at a time, the reference
for ``qindex.io.ring_to_bytes``.  ``trace_solve_reference`` solves for a
module trace by the thin SVD of the whole stacked system, the reference
for the stack restricted to an eigenspace of the summed action.  ``equivalence_classes_reference`` joins
linked module labels by union-find, the reference for the label
propagation of ``equivalence_classes``.
``smith_normal_form_reference`` scans the whole trailing block for every
Smith pivot, and ``classify_reference`` builds each sublattice by integer
elimination of the Cartan columns joined with lifted subgroup generators:
the references for the pivot scan and the quotient construction of
``qindex.lattice``; ``weight_class`` maps a weight to its class in P/Q.
``words_rank`` is the rank over Q of the words in a set of fusion labels,
the reference for the generation certificate of ``qindex.fusion``, and
``validate_fusion_every_label`` is the ring validation that checks the
associativity of every label, the baseline of its cost.  ``su3_ring``
builds the Verlinde ring SU(3)_k, whose generator's words reach labels
only in combination.
``matrix_unit`` and ``embed_block_diagonal`` build matrix units and the
block-diagonal representation of an element.
``is_positive``, ``plancherel_weight`` and ``functor_trace`` are checks
that no command calls: positivity of an element by its block spectra,
the Plancherel weight of a module trace, and the closed-form functor
trace cross-checked against both insertions of
``qindex.fusion.functor_trace_components``.
"""

from __future__ import annotations

import base64
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from qindex.algebra import (DEFAULT_TOL, INCLUSION_TOL, RANK_RTOL, AlgebraElement,
                            MultiMatrixAlgebra, StarHomomorphism, TraceWeights)
from qindex.expectation import (ConditionalExpectation, QuasiBasis, _defect,
                                _frame_map)
from qindex.fusion import (NULLITY_RTOL, DimensionVector, FusionModule, FusionRing,
                           MultiplicityFunctor, TraceSolveResult,
                           _associativity_violations, _conjugation_mismatch,
                           functor_trace_components)
from qindex.io import (SchemaError, _expect, _matrix_from_json, _sparse_text, canonical_object,
                       canonical_text, ring_to_text)
from qindex.lattice import (CartanData, CenterData, FiniteAbelianGroup, SublatticeSpec,
                            _hnf_elements, _hnf_generators, _subgroup_hnfs,
                            hermite_normal_form)


# -- dense references and blockwise products --------------------------------------

def left_mult_matrix(x: AlgebraElement) -> np.ndarray:
    """Matrix of y -> x y on coefficient vectors (row-major convention)."""
    return _block_diag([mat if m == 1 else np.kron(mat, np.eye(m))
                        for mat, m in zip(x.data, x.parent.blocks)])


def right_mult_matrix(x: AlgebraElement) -> np.ndarray:
    """Matrix of y -> y x on coefficient vectors (row-major convention)."""
    return _block_diag([mat if m == 1 else np.kron(np.eye(m), mat.T)
                        for mat, m in zip(x.data, x.parent.blocks)])


def embed_block_diagonal(x: AlgebraElement) -> np.ndarray:
    """Faithful representation of x as one block-diagonal rep_dim matrix."""
    return _block_diag(list(x.data))


def matrix_unit(algebra: MultiMatrixAlgebra, t: int, i: int, j: int) -> AlgebraElement:
    """The matrix unit e^t_{ij} of ``algebra``."""
    mats = [np.zeros((s, s)) for s in algebra.blocks]
    mats[t][i, j] = 1.0
    return algebra.element(mats)


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    ofs = 0
    for b in blocks:
        k = b.shape[0]
        out[ofs:ofs + k, ofs:ofs + k] = b
        ofs += k
    return out


def orthonormal_columns(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the columns of ``a``."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > rtol * max(s[0], 1.0)))
    return u[:, :rank]


def in_span(vec: np.ndarray, onb: np.ndarray, tol: float) -> bool:
    """Whether ``vec`` (a vector, or a matrix of columns tested together
    in the Frobenius norm) lies in the span of the orthonormal columns
    ``onb``, to ``tol`` relative to its norm."""
    resid = vec - onb @ (onb.conj().T @ vec)
    return float(np.linalg.norm(resid)) <= tol * max(1.0, float(np.linalg.norm(vec)))


def pinv_restriction(expectation: ConditionalExpectation, intermediate: StarHomomorphism
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of A -> C and E|_C for C -> B, through pinv(C -> B)."""
    c_pinv = np.linalg.pinv(intermediate.matrix)
    return (c_pinv @ expectation.inclusion.matrix,
            c_pinv @ expectation.matrix @ intermediate.matrix)


def solve_average(expectation: ConditionalExpectation, action) -> np.ndarray:
    """|G|^{-1} sum_g g^{-1} E g, with g^{-1} applied by a linear solve."""
    avg = np.zeros_like(expectation.matrix)
    for g in action:
        avg += np.linalg.solve(g.matrix, expectation.matrix @ g.matrix)
    return avg / len(action)


def tau_projection(inclusion: StarHomomorphism, weights) -> np.ndarray:
    """The matrix of the orthogonal projection onto the image of A in
    <x, y> = sum_t w_t tr(x_t* y_t): Phi (Phi* W Phi)^{-1} Phi* W."""
    w = np.concatenate([np.full(m * m, wt) for m, wt in zip(inclusion.target.blocks, weights)])
    phi = inclusion.matrix
    return phi @ np.linalg.solve(phi.conj().T @ (w[:, None] * phi), phi.conj().T * w)


def image_basis(hom: StarHomomorphism) -> list[AlgebraElement]:
    """The images of the matrix units of the source: a spanning set of the
    image of ``hom``."""
    return [hom(e) for e in hom.source.basis()]


def choi_blocks(phi: Callable[[AlgebraElement], np.ndarray],
                domain: MultiMatrixAlgebra) -> list[np.ndarray]:
    """Choi matrices of a linear map from a multimatrix algebra into M_N.

    For each domain block t of size m, returns
    ``C_t = sum_{ij} phi(e^t_{ij}) (x) e_{ij}``, an N*m by N*m Hermitian
    matrix.  phi is completely positive iff every C_t is positive
    semidefinite.
    """
    out = []
    for t, m in enumerate(domain.blocks):
        n = np.asarray(phi(matrix_unit(domain, t, 0, 0)), dtype=complex).shape[0]
        c = np.zeros((n * m, n * m), dtype=complex)
        # phi(e_ij) (x) e_ij fills exactly the entries (p, i, q, j) of c
        # viewed as n x m x n x m
        blocks = c.reshape(n, m, n, m)
        for i in range(m):
            for j in range(m):
                blocks[:, i, :, j] += np.asarray(phi(matrix_unit(domain, t, i, j)),
                                                 dtype=complex)
        out.append((c + c.conj().T) / 2)
    return out


def choi_is_psd(c: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return float(np.linalg.eigvalsh(c)[0]) >= -tol


def multiply_columns(x: AlgebraElement, cols: np.ndarray,
                     right: bool = False) -> np.ndarray:
    """x y, or y x with ``right``, for every coefficient column y of ``cols``.

    Equals ``left_mult_matrix(x) @ cols`` (``right_mult_matrix(x) @ cols``)
    without forming the D x D Kronecker matrix: a block of size m costs one
    m x m by m x (m k) product, and blocks of equal size share one batched
    matmul.
    """
    cols = np.asarray(cols)
    k = cols.shape[1]
    xv = x.to_vector()
    out = np.empty(cols.shape, dtype=np.result_type(cols, xv))
    for m, rows in x.parent.block_rows:
        xs = xv[rows]
        ys = cols[rows]
        n = rows.shape[0]
        if right:
            # (y x)_ij = sum_l y_il x_lj, with the column index moved inside
            prod = np.matmul(ys.transpose(0, 1, 3, 2).reshape(n, m * k, m), xs)
            out[rows] = prod.reshape(n, m, k, m).transpose(0, 1, 3, 2)
        else:
            out[rows] = np.matmul(xs, ys.reshape(n, m, m * k)).reshape(n, m, m, k)
    return out


# -- validation ----------------------------------------------------------------

def four_axiom_failures(expectation: ConditionalExpectation,
                        tol: float = DEFAULT_TOL) -> tuple[str, ...]:
    """Unitality, idempotence, bimodularity and Choi positivity, each checked
    on the dense matrix of E."""
    big = expectation.algebra
    e_mat = expectation.matrix
    failures = []

    one = big.identity()
    if (expectation(one) - one).norm() > tol:
        failures.append("unitality")

    if np.max(np.abs(e_mat @ e_mat - e_mat)) > tol:
        failures.append("idempotence")

    # E(a x b) = a E(x) b for spanning a, b is the pair of matrix identities
    # E L_a = L_a E and E R_a = R_a E over the image basis of A.  Blockwise,
    # E L_a = (K R_a K E^T)^T and E R_a = (K L_a K E^T)^T, where the
    # permutation K transposes every block of a coefficient vector
    swap = np.empty(big.total_dim, dtype=int)
    for _, rows in big.block_rows:
        swap[rows] = rows.transpose(0, 2, 1)
    e_swapped = e_mat.T[swap]
    bimod = 0.0
    for a in image_basis(expectation.inclusion):
        for right in (False, True):
            comm = (multiply_columns(a, e_swapped, not right)[swap].T
                    - multiply_columns(a, e_mat, right))
            bimod = max(bimod, float(np.max(np.abs(comm))))
    if bimod > tol:
        failures.append("bimodularity")

    def phi(x: AlgebraElement) -> np.ndarray:
        return embed_block_diagonal(expectation(x))

    if not all(choi_is_psd(c, tol) for c in choi_blocks(phi, big)):
        failures.append("positivity")
    return tuple(failures)


# -- greedy quasi-basis ----------------------------------------------------------

@dataclass(frozen=True)
class GreedyResult:
    """Outcome of the greedy construction; ``defect_before`` and
    ``defect_after`` bracket the refinement step, ``defect`` is the smaller."""

    basis: QuasiBasis | None
    min_eigenvalue: float
    max_eigenvalue: float
    defect: float | None = None
    defect_before: float | None = None
    defect_after: float | None = None
    tried: int = 0


def _gns_blocks(expectation: ConditionalExpectation, weights) -> list[np.ndarray]:
    """Blocks F_t of the Gram matrix G = sum_t 1 (x) F_t of
    <x, y> = tau(E(x* y)) in the matrix-unit basis."""
    big = expectation.algebra
    tau_row = np.concatenate([w * np.eye(m).ravel()
                              for w, m in zip(weights, big.blocks)])
    func = big.from_vector(tau_row @ expectation.matrix)
    return [(f + f.conj().T) / 2 for f in func.data]


def greedy_quasi_basis(expectation: ConditionalExpectation, tau,
                       spanning=None, tol: float = DEFAULT_TOL) -> GreedyResult:
    """Frame-operator quasi-basis grown greedily from ``spanning`` (default:
    the unit, then every matrix unit), with one refinement step kept only
    when it lowers the defect; the defect is tested against max(tol, 1e-9).

    A candidate v is kept when the range of its piece L_v P, with
    P P* = G^{1/2} E G^{-1/2}, leaves the span of the pieces kept so far;
    u = S^{-1/2} v for the frame operator S of the kept family."""
    big = expectation.algebra
    dim = big.total_dim
    if spanning is None:
        spanning = [big.identity()] + big.basis()

    grams = [np.linalg.eigh(f) for f in _gns_blocks(expectation, tau.weights)]
    gmax = max(float(vals[-1]) for vals, _ in grams)
    gmin = min(float(vals[0]) for vals, _ in grams)
    if gmax <= 0 or gmin < RANK_RTOL * gmax:
        return GreedyResult(None, 0.0, max(gmax, 0.0))
    g_half = big.element([((vecs * np.sqrt(vals)) @ vecs.conj().T).T
                          for vals, vecs in grams])
    g_half_inv = big.element([((vecs / np.sqrt(vals)) @ vecs.conj().T).T
                              for vals, vecs in grams])

    def whiten(mat: np.ndarray) -> np.ndarray:
        """Hermitian part of G^{1/2} mat G^{-1/2}."""
        scaled = multiply_columns(g_half_inv, mat.conj().T, right=True).conj().T
        out = multiply_columns(g_half, scaled, right=True)
        return (out + out.conj().T) / 2

    def inv_sqrt_apply(vals, vecs, cols):
        """G^{-1/2} X^{-1/2} G^{1/2} cols, X = vecs diag(vals) vecs* whitened."""
        half = multiply_columns(g_half, cols, right=True)
        half = (vecs / np.sqrt(vals)) @ (vecs.conj().T @ half)
        return multiply_columns(g_half_inv, half, right=True)

    e_vals, e_vecs = np.linalg.eigh(whiten(expectation.matrix))
    on = e_vals > RANK_RTOL * max(float(e_vals[-1]), 0.0)
    factor = e_vecs[:, on] * np.sqrt(e_vals[on])

    onb = np.empty((dim, dim), dtype=complex)
    rank = 0
    s_tilde = np.zeros((dim, dim), dtype=complex)
    kept = []
    top = 0.0
    tried = 0
    for v in spanning:
        if rank == dim:
            break
        tried += 1
        piece = multiply_columns(v, factor)
        rows = np.flatnonzero(np.any(piece != 0, axis=1))
        if rows.size == 0:
            continue
        z, sigma, _ = np.linalg.svd(piece[rows], full_matrices=False)
        f = z * sigma
        top = max(top, float(sigma[0]) ** 2)
        inner = onb[rows, :rank].conj().T @ f
        resid = np.diag(sigma ** 2) - inner.conj().T @ inner
        r_vals, r_vecs = np.linalg.eigh((resid + resid.conj().T) / 2)
        new = r_vals > RANK_RTOL * top
        if not new.any():
            continue
        kept.append(v)
        s_tilde[np.ix_(rows, rows)] += f @ f.conj().T
        grow = -onb[:, :rank] @ (inner @ r_vecs[:, new])
        grow[rows] += f @ r_vecs[:, new]
        grow -= onb[:, :rank] @ (onb[:, :rank].conj().T @ grow)
        grow, _ = np.linalg.qr(grow)
        onb[:, rank:rank + grow.shape[1]] = grow
        rank += grow.shape[1]

    s_vals, s_vecs = np.linalg.eigh(s_tilde)
    smin, smax = float(s_vals[0]), float(s_vals[-1])
    if smax <= 0 or smin < RANK_RTOL * smax:
        return GreedyResult(None, smin, smax, tried=tried)

    v_cols = np.stack([v.to_vector() for v in kept], axis=1)
    u_cols = inv_sqrt_apply(s_vals, s_vecs, v_cols)
    frame = _frame_map(big, expectation.matrix, u_cols)
    before = _defect(big, frame)
    t_vals, t_vecs = np.linalg.eigh(whiten(frame))
    refined = inv_sqrt_apply(t_vals, t_vecs, u_cols)
    after = _defect(big, _frame_map(big, expectation.matrix, refined))
    defect = before
    if after < before:
        u_cols, defect = refined, after
    if not defect <= max(tol, 1e-9):
        return GreedyResult(None, smin, smax, defect, before, after, tried)
    basis = QuasiBasis(tuple(big.from_vector(col) for col in u_cols.T))
    return GreedyResult(basis, smin, smax, defect, before, after, tried)


# -- scalar and probabilistic index ------------------------------------------------

def choi_scalar_index(expectation: ConditionalExpectation,
                      rank_rtol: float = RANK_RTOL) -> float:
    """min{c : cE - id completely positive} from the generalized eigenvalue
    pencil of the Choi matrices of id and E, per source block; infinite when
    range(C_id) leaves range(C_E)."""
    big = expectation.algebra
    c_es = choi_blocks(lambda x: embed_block_diagonal(expectation(x)), big)
    c_ids = choi_blocks(embed_block_diagonal, big)
    best = 1.0
    for c_e, c_id in zip(c_es, c_ids):
        evals, evecs = np.linalg.eigh(c_e)
        emax = float(evals[-1]) if evals.size else 0.0
        keep = evals > rank_rtol * max(emax, 1.0e-300)
        v = evecs[:, keep]
        resid = c_id - (v @ (v.conj().T @ c_id))
        scale = max(float(np.linalg.norm(c_id, 2)), 1.0)
        if float(np.linalg.norm(resid, 2)) > 1e-8 * scale:
            return math.inf
        whitener = v / np.sqrt(evals[keep])
        pencil = whitener.conj().T @ c_id @ whitener
        top = float(np.linalg.eigvalsh((pencil + pencil.conj().T) / 2)[-1])
        best = max(best, top)
    return best


def _pp_value(expectation: ConditionalExpectation, t: int, v: np.ndarray) -> float:
    """v* (E(vv*)_t)^+ v for a unit vector v in block t."""
    big = expectation.algebra
    mats = [np.zeros((s, s), dtype=complex) for s in big.blocks]
    mats[t] = np.outer(v, v.conj())
    image = expectation(big.element(mats)).data[t]
    evals, evecs = np.linalg.eigh((image + image.conj().T) / 2)
    emax = float(evals[-1]) if evals.size else 0.0
    if emax <= 0:
        return math.inf
    keep = evals > RANK_RTOL * emax
    coords = evecs[:, keep].conj().T @ v
    outside = np.linalg.norm(v) ** 2 - np.linalg.norm(coords) ** 2
    if outside > 1e-10 * np.linalg.norm(v) ** 2:
        return math.inf
    return float(np.real(np.sum(np.abs(coords) ** 2 / evals[keep])))


def _ascend_block(expectation: ConditionalExpectation, t: int,
                  v0: np.ndarray, iters: int) -> float:
    """Projected finite-difference gradient ascent of v -> v* E(vv*)^+ v."""
    m = v0.size
    v = v0 / np.linalg.norm(v0)
    best = _pp_value(expectation, t, v)
    if math.isinf(best) or m == 1:
        return best
    step = 0.1
    h = 1e-6
    for _ in range(iters):
        grad = np.zeros(2 * m)
        base = _pp_value(expectation, t, v)
        if math.isinf(base):
            return base
        for j in range(m):
            for part, delta in ((0, h), (1, h * 1j)):
                w = v.copy()
                w[j] += delta
                val = _pp_value(expectation, t, w / np.linalg.norm(w))
                if math.isinf(val):
                    return val
                grad[2 * j + part] = (val - base) / h
        gvec = grad[0::2] + 1j * grad[1::2]
        gnorm = np.linalg.norm(gvec)
        if gnorm < 1e-12:
            break
        improved = False
        while step > 1e-12:
            w = v + step * gvec / gnorm
            w = w / np.linalg.norm(w)
            val = _pp_value(expectation, t, w)
            if math.isinf(val):
                return val
            if val > base + 1e-15:
                v, best, improved = w, max(best, val), True
                step *= 1.5
                break
            step *= 0.5
        if not improved:
            break
    return best


def ascent_probabilistic_bounds(expectation: ConditionalExpectation,
                                budget: int = 2000,
                                seed: int = 0) -> tuple[float, float]:
    """Lower bound of Index^p by multistart ascent (every evaluated v gives a
    valid lower bound), and the Choi-pencil scalar index as upper bound."""
    big = expectation.algebra
    rng = np.random.default_rng(seed)
    upper = choi_scalar_index(expectation)
    lower = 1.0
    for t, m in enumerate(big.blocks):
        starts = [np.eye(m, dtype=complex)[:, j] for j in range(m)]
        starts.append(np.full(m, 1.0 / np.sqrt(m), dtype=complex))
        for _ in range(4):
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            starts.append(v / np.linalg.norm(v))
        iters = max(1, budget // len(starts))
        for v0 in starts:
            val = _ascend_block(expectation, t, v0, iters)
            if math.isinf(val):
                return math.inf, upper
            lower = max(lower, val)
    return (lower if math.isinf(upper) else min(lower, upper)), upper


def is_positive(x: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """True iff x = x* and every block's minimum eigenvalue is >= -tol.

    Raises ValueError on non-self-adjoint input: positivity of a
    non-Hermitian element is a caller bug, not a falsy answer.
    """
    if (x - x.adjoint()).norm() > tol:
        raise ValueError("is_positive called on a non-self-adjoint element")
    for m in x.data:
        h = (m + m.conj().T) / 2
        if float(np.linalg.eigvalsh(h)[0]) < -tol:
            return False
    return True


# -- explicit maps from densities --------------------------------------------------

def expectation_from_densities(a_blocks, k, unitaries, densities
                               ) -> ConditionalExpectation:
    """The inclusion with multiplicities k[t, p] conjugated by ``unitaries``
    (B block t holds k[t, p] copies of A block p down its diagonal, copies
    of block 0 first), and the expectation
    E(x)_p = sum_t sum_{alpha, beta} h_tp[beta, alpha] x_t[(p, alpha), (p, beta)],
    where x_t[(p, alpha), (p, beta)] is the a_p x a_p block between copies
    alpha and beta of A block p after undoing the conjugation.

    ``densities[t][p]`` is h_tp, a k[t, p] x k[t, p] matrix.  Built entry by
    entry from this formula, independently of the library's normal form.
    """
    sub = MultiMatrixAlgebra(tuple(a_blocks))
    b_blocks = tuple(int(sum(k[t, p] * a for p, a in enumerate(a_blocks)))
                     for t in range(k.shape[0]))
    big = MultiMatrixAlgebra(b_blocks)

    def offset(t, p, alpha):
        return sum(k[t, q] * a_blocks[q] for q in range(p)) + alpha * a_blocks[p]

    incl_cols = []
    for p, a in enumerate(a_blocks):
        for i in range(a):
            for j in range(a):
                mats = []
                for t, m in enumerate(b_blocks):
                    block = np.zeros((m, m), dtype=complex)
                    for alpha in range(k[t, p]):
                        o = offset(t, p, alpha)
                        block[o + i, o + j] = 1.0
                    mats.append(unitaries[t] @ block @ unitaries[t].conj().T)
                incl_cols.append(big.element(mats).to_vector())
    inclusion = StarHomomorphism(sub, big, np.stack(incl_cols, axis=1))

    e_cols = []
    for x in big.basis():
        z = []
        for p, a in enumerate(a_blocks):
            zp = np.zeros((a, a), dtype=complex)
            for t, u in enumerate(unitaries):
                y = u.conj().T @ x.data[t] @ u
                for alpha in range(k[t, p]):
                    for beta in range(k[t, p]):
                        oa, ob = offset(t, p, alpha), offset(t, p, beta)
                        zp += densities[t][p][beta, alpha] * y[oa:oa + a, ob:ob + a]
            z.append(zp)
        e_cols.append(inclusion(sub.element(z)).to_vector())
    return ConditionalExpectation(inclusion, np.stack(e_cols, axis=1))


# -- the index layer one block pair at a time -------------------------------------

def normal_form_reference(src: MultiMatrixAlgebra, tgt: MultiMatrixAlgebra,
                          matrix: np.ndarray
                          ) -> tuple[list[list[np.ndarray]], np.ndarray]:
    """(corners, K) of the map src -> tgt with this matrix, found one pair
    (B block t, A block p) at a time: corners[t][p] is the (m_t, a_p, k_tp)
    corner of U_t, as ``StarHomomorphism`` holds it.  Raises the ValueError
    of the first failing B block, with the messages of the
    ``StarHomomorphism`` constructor."""
    cols = np.cumsum((0,) + tuple(a * a for a in src.blocks))
    mult = np.zeros((len(tgt.blocks), len(src.blocks)), dtype=np.int64)
    corners = []
    row = 0
    for t, m in enumerate(tgt.blocks):
        images = matrix[row:row + m * m].T.reshape(-1, m, m)
        row += m * m
        block = []
        for p, a in enumerate(src.blocks):
            e11 = images[cols[p]]
            vals, vecs = np.linalg.eigh((e11 + e11.conj().T) / 2)
            first = vecs[:, vals > 0.5]
            mult[t, p] = first.shape[1]
            block.append(np.stack([images[cols[p] + i * a] @ first
                                   for i in range(a)], axis=1))
        unitary = np.concatenate([c.reshape(m, -1) for c in block], axis=1)
        if unitary.shape[1] != m:
            raise ValueError(
                f"inclusion is not a unital *-homomorphism: B block {t} "
                f"has size {m}, the images of A's minimal projections "
                f"span {unitary.shape[1]}")
        gap = float(np.max(np.abs(unitary.conj().T @ unitary - np.eye(m))))
        if gap > INCLUSION_TOL:
            raise ValueError(
                "inclusion is not a *-homomorphism: the adapted basis of "
                f"B block {t} fails unitarity by {gap:.3e}")
        gap = max(float(np.max(np.abs(
            images[cols[p]:cols[p + 1]].reshape(a, a, m, m)
            - np.einsum("ria,cja->ijrc", c, c.conj()))))
            for p, (a, c) in enumerate(zip(src.blocks, block)))
        if gap > INCLUSION_TOL:
            raise ValueError(
                "inclusion is not a *-homomorphism: in B block "
                f"{t}, U* phi(e^p_ij) U differs from e_ij (x) 1 by {gap:.3e}")
        corners.append(block)
    missing = np.flatnonzero(mult.sum(axis=0) == 0)
    if missing.size:
        raise ValueError(f"inclusion is not injective: A block {missing[0]} "
                         "has multiplicity 0 in every block of B")
    return corners, mult


def densities_reference(expectation: ConditionalExpectation,
                        corners: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
    """h[t][p], read off E one pair at a time in the adapted bases
    ``corners`` (k_tp = 0 gives a 0 x 0 matrix)."""
    out = []
    row = 0
    for m, block_corners in zip(expectation.algebra.blocks, corners):
        block = expectation.matrix[row:row + m * m, row:row + m * m]
        row += m * m
        hs = []
        for corner in block_corners:
            first = corner[:, 0, :]
            k = first.shape[1]
            if k == 0:
                hs.append(np.zeros((0, 0), dtype=complex))
                continue
            probe = np.outer(first[:, 0].conj(), first[:, 0]).ravel()
            units = np.einsum("rg,ca->rcga", first, first.conj()).reshape(m * m, k * k)
            hs.append(((probe @ block) @ units).reshape(k, k).T)
        out.append(hs)
    return out


def rebuild_reference(inclusion: StarHomomorphism, corners: list[list[np.ndarray]],
                      densities: list[list[np.ndarray]]) -> np.ndarray:
    """The matrix of the expectation with densities h[t][p] in the adapted
    bases ``corners``, one pair at a time."""
    src_ofs = np.cumsum((0,) + tuple(a * a for a in inclusion.source.blocks))
    reduce = np.zeros((inclusion.source.total_dim, inclusion.target.total_dim),
                      dtype=complex)
    col = 0
    for m, block_corners, hs in zip(inclusion.target.blocks, corners, densities):
        for p, (corner, h) in enumerate(zip(block_corners, hs)):
            a, k = corner.shape[1:]
            if k == 0:
                continue
            left = (corner.conj() @ h.T).reshape(m * a, k)
            part = (left @ corner.reshape(m * a, k).T).reshape(m, a, m, a)
            reduce[src_ofs[p]:src_ofs[p + 1], col:col + m * m] = \
                part.transpose(1, 3, 0, 2).reshape(a * a, m * m)
        col += m * m
    return inclusion.matrix @ reduce


def closed_form_indices_reference(a_blocks, densities: list[list[np.ndarray]]
                                  ) -> tuple[float, list[float]]:
    """(Index^p, [c_t]) from densities h[t][p], one eigh per density and
    one pair at a time, all infinite when a density eigenvalue is at most
    RANK_RTOL times the largest."""
    spectra = [[np.linalg.eigh((h + h.conj().T) / 2)[0] for h in hs]
               for hs in densities]
    vals = np.concatenate([v for row in spectra for v in row])
    if not vals.min() > RANK_RTOL * max(float(vals.max()), 0.0):
        return math.inf, [math.inf] * len(densities)
    prob, sums = 0.0, []
    for row in spectra:
        prob_t = scalar_t = 0.0
        for a, v in zip(a_blocks, row):
            inv = 1.0 / v  # descending
            top = float(np.sum(inv[:a]))
            prob_t += top
            scalar_t += top + float(np.sum(inv[a:]))
        prob = max(prob, prob_t)
        sums.append(scalar_t)
    return prob, sums


def nested_densities(expectation: ConditionalExpectation) -> list[list[np.ndarray]]:
    """The batched densities of the library as h[t][p], 0 x 0 where k_tp = 0."""
    k = expectation.inclusion.multiplicities
    pairs = expectation.inclusion.pairs
    out = [[np.zeros((0, 0), dtype=complex) for _ in row] for row in k]
    for idx, h in expectation.densities:
        for n, d in zip(idx, h):
            out[pairs.t[n]][pairs.p[n]] = d
    return out


# -- JSON writers of algebra data ---------------------------------------------------

def matrix_to_json(mat: np.ndarray, path: str = "matrix") -> list:
    """Rows of [re, im] pairs.  A non-finite entry raises ValueError: JSON
    has no such number, and the readers reject the NaN and Infinity tokens
    that ``json`` would write."""
    mat = np.asarray(mat, dtype=complex)
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise ValueError(f"{path}[{i}][{j}]: number is not finite")
    return np.stack((mat.real, mat.imag), -1).tolist()


def algebra_to_json(algebra: MultiMatrixAlgebra) -> dict:
    return {"blocks": list(algebra.blocks)}


def element_to_json(x: AlgebraElement) -> dict:
    return {"blocks": [matrix_to_json(m, f"element.blocks[{t}]")
                       for t, m in enumerate(x.data)]}


def element_from_json(data, algebra: MultiMatrixAlgebra,
                      path: str = "element") -> AlgebraElement:
    _expect(isinstance(data, Mapping), path, "element is an object")
    blocks = data.get("blocks")
    _expect(isinstance(blocks, list) and len(blocks) == len(algebra.blocks),
            f"{path}.blocks", f"expected {len(algebra.blocks)} blocks")
    mats = [_matrix_from_json(b, f"{path}.blocks[{t}]") for t, b in enumerate(blocks)]
    return algebra.element(mats)


def homomorphism_to_json(hom: StarHomomorphism, path: str = "homomorphism") -> dict:
    return {"source": algebra_to_json(hom.source),
            "target": algebra_to_json(hom.target),
            "matrix": matrix_to_json(hom.matrix, f"{path}.matrix")}


def expectation_to_json(expectation: ConditionalExpectation,
                        tau: TraceWeights | None = None) -> dict:
    out = {"inclusion": homomorphism_to_json(expectation.inclusion, "expectation.inclusion"),
           "map": matrix_to_json(expectation.matrix, "expectation.map")}
    if tau is not None:
        out["trace_weights"] = list(tau.weights)
    return out


# -- sparse fusion maps -------------------------------------------------------------

def sparse_from_json_reference(data, name, path, labels, keys, target) -> np.ndarray:
    """The 3-tensor held as the map "A,B" -> {C: mult} at ``data[name]``,
    decoded one entry at a time in the map's order; the SchemaError of the
    first bad entry otherwise.  Same arguments and result as
    ``qindex.io._sparse_from_json``."""
    first, second, third = ({lab: i for i, lab in enumerate(axis)} for axis in labels)
    tensor = np.zeros((len(first), len(second), len(third)), dtype=np.int64)
    entries = data.get(name, {})
    path = f"{path}.{name}"
    if not isinstance(entries, Mapping):
        raise SchemaError(path, f"{name} is an object")
    for key, row in entries.items():
        parts = key.split(",")
        if not (len(parts) == 2 and parts[0] in first and parts[1] in second):
            raise SchemaError(f"{path}[{key!r}]", keys)
        if not isinstance(row, Mapping):
            raise SchemaError(f"{path}[{key!r}]", "value is an object")
        for w, mult in row.items():
            where = f"{path}[{key!r}][{w!r}]"
            if w not in third:
                raise SchemaError(where, target)
            if not (isinstance(mult, int) and not isinstance(mult, bool) and mult >= 0):
                raise SchemaError(where, "multiplicities are nonnegative ints")
            if mult >= 2 ** 63:
                raise SchemaError(where, "multiplicities are nonnegative ints below 2^63")
            tensor[first[parts[0]], second[parts[1]], third[w]] = mult
    return tensor


def sparse_to_json_reference(tensor: np.ndarray, labels) -> dict:
    """The map "A,B" -> {C: mult} of the nonzero entries of a 3-tensor,
    whose axes are named by ``labels``, in (A, B, C) index order."""
    a, b, c = labels
    nb = tensor.shape[1]
    flat = tensor.reshape(-1, tensor.shape[2])
    rows, ws = np.nonzero(flat)
    names = list(map(c.__getitem__, ws.tolist()))
    mults = flat[rows, ws].tolist()
    starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
    return {f"{a[row // nb]},{b[row % nb]}": dict(zip(names[s:e], mults[s:e]))
            for row, s, e in zip(rows[starts].tolist(), starts, [*starts[1:], len(mults)])}


def ring_to_json_reference(ring: FusionRing) -> dict:
    return {"irr": list(ring.labels), "unit": ring.unit, "dual": dict(ring.dual),
            "N": sparse_to_json_reference(ring.tensor, (ring.labels,) * 3)}


def module_to_json_reference(module: FusionModule) -> dict:
    labels = (module.ring.labels, module.labels, module.labels)
    return {"ring": ring_to_json_reference(module.ring), "irrM": list(module.labels),
            "n": sparse_to_json_reference(module.action, labels)}


def module_to_text(module: FusionModule) -> str:
    """The canonical JSON text of the module's file, written directly from
    the action tensor."""
    labels = (module.ring.labels, module.labels, module.labels)
    return canonical_object({"ring": ring_to_text(module.ring),
                             "irrM": canonical_text(list(module.labels)),
                             "n": _sparse_text(module.action, labels)})


def ring2_reference(ring: FusionRing) -> dict:
    """The payload of the ring's qindex.ring/2 file: bit n of the mask,
    counted from the high bit of byte n // 8, is set when entry n of the
    tensor in C order is nonzero, and the nonzero entries follow in that
    order as little-endian ints of the fewest of 1, 2, 4 or 8 bytes that
    hold the largest."""
    r = ring.rank
    mask = bytearray((r ** 3 + 7) // 8)
    mults = []
    for n, (u, v, w) in enumerate(itertools.product(range(r), repeat=3)):
        mult = int(ring.tensor[u, v, w])
        if mult:
            mask[n // 8] |= 0x80 >> n % 8
            mults.append(mult)
    width = next(w for w in (1, 2, 4, 8) if max(mults, default=0) < 1 << 8 * w)
    values = b"".join(mult.to_bytes(width, "little") for mult in mults)
    return {"N": {"mask": base64.b64encode(bytes(mask)).decode(),
                  "mult": base64.b64encode(values).decode()},
            "dual": dict(ring.dual), "irr": list(ring.labels), "schema": "qindex.ring/2",
            "unit": ring.unit}


# -- fusion rings -------------------------------------------------------------------

def validate_fusion_every_label(ring: FusionRing) -> list[str]:
    """``validate_fusion`` as it ran before the generation certificate: the
    unit laws one (v, w) pair at a time, the associativity products of
    every label, then duality and reciprocity.  The baseline for the cost
    of the certificate."""
    r, t, labels = ring.rank, ring.tensor, ring.labels
    if ring.unit not in labels:
        return [f"unit label {ring.unit!r} is not in the label set"]
    dual_map = dict(ring.dual)
    if set(dual_map) != set(labels) or set(dual_map.values()) != set(labels):
        return ["dual involution is not a bijection on the labels"]
    for a in labels:
        if dual_map[dual_map[a]] != a:
            return [f"dual is not an involution at {a!r}"]
    e = ring.index(ring.unit)
    violations = []
    for v in range(r):
        for w in range(r):
            want = 1 if v == w else 0
            if t[e, v, w] != want:
                violations.append(f"unit: N[1,{labels[v]}]^{labels[w]} = {t[e, v, w]}")
            if t[v, e, w] != want:
                violations.append(f"unit: N[{labels[v]},1]^{labels[w]} = {t[v, e, w]}")
            if violations:
                return violations
    mismatch, _ = _associativity_violations(
        "associativity", t, t,
        lambda u, v, w, y: f"({labels[u]},{labels[v]},{labels[w]})->{labels[y]}",
        range(r))
    if mismatch:
        return mismatch
    dual_idx = [ring.index(dual_map[lab]) for lab in labels]
    wrong = np.argwhere(t[:, :, e] != np.eye(r, dtype=np.int64)[dual_idx])
    if wrong.size:
        u, v = wrong[0]
        return [f"duality: N[{labels[u]},{labels[v]}]^1 = {t[u, v, e]}"]
    bad = _conjugation_mismatch(t, dual_idx)
    if bad is not None:
        u, v, w = bad
        return [f"reciprocity: N[{labels[dual_idx[u]]},{labels[w]}]^{labels[v]}"
                f" != N[{labels[u]},{labels[v]}]^{labels[w]}"]
    return []


def words_rank(tensor: np.ndarray, unit: int, gens) -> int:
    """Rank over Q of the span of the right-nested words
    s_1 (s_2 (... (s_k 1))) in the labels ``gens`` (s x = x @ N[s]), by a
    breadth-first closure in exact rationals: the reference for the
    generation certificate of ``qindex.fusion``."""
    r = tensor.shape[0]
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot, row), pivot entry 1

    def add(vec) -> list[Fraction] | None:
        vec = [Fraction(int(x)) for x in vec]
        for pivot, row in basis:
            if vec[pivot]:
                f = vec[pivot]
                vec = [x - f * y for x, y in zip(vec, row)]
        if not any(vec):
            return None
        pivot = next(i for i, x in enumerate(vec) if x)
        basis.append((pivot, [x / vec[pivot] for x in vec]))
        return vec

    queue = [add(np.eye(r, dtype=np.int64)[unit])]
    while queue:
        x = queue.pop()
        for s in gens:
            y = add([sum(x[v] * int(tensor[s, v, w]) for v in range(r)) for w in range(r)])
            if y is not None:
                queue.append(y)
    return len(basis)


def su3_ring(k: int) -> FusionRing:
    """The Verlinde ring SU(3)_k: labels ``a.b`` (Dynkin labels, a + b <= k)
    with unit ``0.0`` and the dual of ``a.b`` being ``b.a``, and N from the
    Verlinde formula on the Kac-Peterson S-matrix
    S_{lm} ~ sum_{w in S3} sign(w) exp(-2 pi i (w(l + rho), m + rho) / (k + 3)),
    where (w_i, w_j) = [[2/3, 1/3], [1/3, 2/3]].  The words of ``0.1`` reach
    ``0.1 0.1 = 1.0 + 0.2`` only in combination."""
    weights = [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]
    form = np.array([[2, 1], [1, 2]]) / 3
    # the Weyl group on Dynkin labels, from s1 (a, b) = (-a, a + b) and
    # s2 (a, b) = (a + b, -b), with the sign of each element
    s1, s2 = np.array([[-1, 0], [1, 1]]), np.array([[1, 1], [0, -1]])
    group = [(np.eye(2, dtype=int), 1), (s1, -1), (s2, -1), (s1 @ s2, 1), (s2 @ s1, 1),
             (s1 @ s2 @ s1, -1)]
    shifted = np.array(weights) + 1  # + rho
    s = sum(sign * np.exp(-2j * np.pi * (shifted @ w.T) @ form @ shifted.T / (k + 3))
            for w, sign in group)
    s /= np.linalg.norm(s[0])
    verlinde = np.einsum("us,vs,ws->uvw", s, s, s.conj() / s[0])
    tensor = np.rint(verlinde.real).astype(np.int64)
    assert np.abs(verlinde - tensor).max() < 1e-8
    labels = tuple(f"{a}.{b}" for a, b in weights)
    return FusionRing(labels, "0.0", tuple((f"{a}.{b}", f"{b}.{a}") for a, b in weights),
                      tensor)


def plancherel_weight(trace: DimensionVector, a: Mapping[str, complex]) -> complex:
    """sum_i m(i)^2 a_i over the irreducibles of the module."""
    return complex(sum((m ** 2) * complex(a.get(i, 0.0)) for i, m in trace.values))


def functor_trace(functor: MultiplicityFunctor, trace: DimensionVector,
                  eta: Mapping[tuple[int, int], np.ndarray],
                  tol: float = 1e-9) -> float:
    """Closed-form functor trace, cross-checked against both insertions.

    A disagreement beyond tol means the attached vectors are not standard
    and is raised as an error.
    """
    left, right, closed = functor_trace_components(functor, trace, eta)
    scale = max(1.0, abs(closed))
    if abs(left - closed) > tol * scale or abs(right - closed) > tol * scale:
        raise ValueError(
            f"insertions disagree with closed form: left={left!r}, "
            f"right={right!r}, closed={closed!r}")
    return closed


def trace_solve_reference(module: FusionModule,
                          ring_dims: DimensionVector) -> TraceSolveResult:
    """``module_trace_solve`` by the thin SVD of the stack of
    A_u - d(u) I, built one label at a time."""
    m = module.size
    stacked = np.concatenate([module.action[u].astype(float) - ring_dims[lab] * np.eye(m)
                              for u, lab in enumerate(module.ring.labels)])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    smax = float(svals[0]) if svals.size else 0.0
    nullity = int(np.sum(svals <= NULLITY_RTOL * max(smax, 1.0)))
    if nullity != 1:
        return TraceSolveResult("no_solution" if nullity == 0 else "decomposable",
                                None, nullity)
    v = vh[-1] / vh[-1][int(np.argmax(np.abs(vh[-1])))]
    if np.any(v <= NULLITY_RTOL):
        return TraceSolveResult("no_positive_solution", None, 1)
    return TraceSolveResult(
        "ok", DimensionVector(tuple(zip(module.labels, map(float, v / v[0])))), 1)


def equivalence_classes_reference(module: FusionModule,
                                  subring) -> list[tuple[str, ...]]:
    """``equivalence_classes`` by union-find over the linked pairs, each
    class under its smallest member, for a subring that is closed under
    duals and fusion."""
    parent = list(range(module.size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    idx = [module.ring.index(u) for u in subring]
    for i, j in np.argwhere(np.any(module.action[idx] != 0, axis=0)).tolist():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[str]] = {}
    for i, lab in enumerate(module.labels):
        groups.setdefault(find(i), []).append(lab)
    return [tuple(groups[k]) for k in sorted(groups)]


# -- sublattices ---------------------------------------------------------------------

def weight_class(center: CenterData, weight) -> tuple[int, ...]:
    """Image of a weight in the invariant-factor coordinates of P/Q:
    (u @ weight) mod the invariant factors."""
    return tuple(sum(u_ij * int(w) for u_ij, w in zip(row, weight)) % f
                 for row, f in zip(center.u, center.group.invariant_factors))


def smith_normal_form_reference(mat) -> tuple[list[list[int]], list[list[int]],
                                              list[list[int]]]:
    """(u, d, v) with u m v = d, each pivot a first smallest nonzero entry
    of a full scan of the trailing block, and the divisibility scan run
    after every pivot."""
    m = [list(map(int, row)) for row in mat]
    rows, cols = len(m), len(m[0])
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(src, dst, q):
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in m + v:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[t], m[i] = m[i], m[t]
        u[t], u[i] = u[i], u[t]
        for row in m + v:
            row[t], row[j] = row[j], row[t]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                add_row(t, i, -(m[i][t] // m[t][t]))
                dirty = dirty or m[i][t] != 0
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                add_col(t, j, -(m[t][j] // m[t][t]))
                dirty = dirty or m[t][j] != 0
        if dirty:
            continue
        bad = next((i for i in range(t + 1, rows) for j in range(t + 1, cols)
                    if m[i][j] % m[t][t] != 0), None)
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return u, m, v


def classify_reference(cartan: CartanData, limit: int = 10_000) -> list[SublatticeSpec]:
    """The sublattice table by elimination: for each subgroup of P/Q, its
    generators lifted to weights through u^-1 = C^T v D^-1, joined with the
    simple roots, the Cartan rows, and put in column Hermite normal form
    (r x (r + k))."""
    c = [list(col) for col in zip(*cartan.cartan)]  # C^T: Q is its column lattice
    r = cartan.rank
    u, snf, v = smith_normal_form_reference(c)
    divisors = [snf[i][i] for i in range(r)]
    nontrivial = [p for p in range(r) if divisors[p] > 1]
    d = tuple(divisors[p] for p in nontrivial)
    lifts = []
    for p in nontrivial:
        col = [sum(c[i][m] * v[m][p] for m in range(r)) for i in range(r)]
        assert all(x % divisors[p] == 0 for x in col)
        lifts.append([x // divisors[p] for x in col])
    roots = [list(row) for row in cartan.cartan]
    specs = []
    if math.prod(d) > limit:
        raise ValueError(f"group order {math.prod(d)} exceeds the limit {limit}")
    for h in _subgroup_hnfs(FiniteAbelianGroup(d)):
        cols = roots + [[sum(g[q] * lifts[q][i] for q in range(len(g)))
                         for i in range(r)] for g in _hnf_generators(h, d)]
        basis = hermite_normal_form([[col[i] for col in cols] for i in range(r)])
        specs.append(SublatticeSpec(tuple(tuple(row) for row in basis),
                                    _hnf_elements(h, d)))
    specs.sort(key=lambda s: (s.index_in_p, s.generators))
    return specs
