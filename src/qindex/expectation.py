"""Conditional expectations on multimatrix inclusions and their indices.

Implements validation of expectation axioms, quasi-basis construction by a
frame-operator square root in O(D^3), the Watatani index element, the
scalar index through Choi-matrix pencils, certified interval bounds for
the probabilistic (Pimsner-Popa) index, finite-group averaging, and
restriction to intermediate subalgebras.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    RANK_RTOL,
    AlgebraElement,
    MultiMatrixAlgebra,
    StarHomomorphism,
    TraceWeights,
    choi_blocks,
    column_norms,
    max_commutator,
    multiply_columns,
    orthonormal_columns,
    subalgebra_structure,
)

log = logging.getLogger("qindex.expectation")

__all__ = [
    "ConditionalExpectation", "QuasiBasis", "QuasiBasisResult", "IndexReport",
    "ValidationReport", "validate_expectation", "canonical_expectation",
    "find_quasi_basis", "quasi_basis_report", "watatani_index", "scalar_index",
    "probabilistic_index_bounds", "equivariantize", "restrict_to_intermediate",
    "compute_index_report", "index_in_subalgebra",
]


@dataclass(frozen=True)
class ConditionalExpectation:
    """A linear idempotent A-bimodule projection E: B -> image(A).

    ``inclusion`` embeds A into B; ``matrix`` acts on B's coefficient
    vectors.  Nothing is checked at construction time; use
    :func:`validate_expectation`.
    """

    inclusion: StarHomomorphism
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.algebra.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"expectation matrix must be {d}x{d}, got {mat.shape}")
        mat = np.ascontiguousarray(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def algebra(self) -> MultiMatrixAlgebra:
        """The big algebra B."""
        return self.inclusion.target

    @property
    def subalgebra(self) -> MultiMatrixAlgebra:
        """The abstract small algebra A."""
        return self.inclusion.source

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.algebra.from_vector(self.matrix @ x.to_vector())


@dataclass(frozen=True)
class QuasiBasis:
    """A finite family (u_i) in B with x = sum_i u_i E(u_i* x) for all x."""

    elements: tuple[AlgebraElement, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def defect(self, expectation: ConditionalExpectation) -> float:
        """Worst violation of the quasi-basis identity over a basis of B.

        The map T: x -> sum_i u_i E(u_i* x) is assembled as one matrix by
        the O(D^3) contraction of :func:`_frame_map`; the columns of T - 1
        against the matrix-unit basis are the defect elements.
        """
        big = expectation.algebra
        cols = np.stack([u.to_vector() for u in self.elements], axis=1)
        return _defect(big, _frame_map(big, expectation.matrix, cols))


@dataclass(frozen=True)
class QuasiBasisResult:
    """Outcome of the frame-operator construction.

    ``basis`` is None when the frame operator is numerically singular, in
    which case ``min_eigenvalue`` names the obstruction.
    """

    basis: QuasiBasis | None
    min_eigenvalue: float
    max_eigenvalue: float
    defect: float | None = None


@dataclass(frozen=True)
class IndexReport:
    """All index data of one expectation.

    ``index_in_subalgebra`` records whether the index element lies in the
    image of A; centrality in B is checked separately by watatani_index.
    """

    index_element: AlgebraElement | None
    index_norm: float
    scalar_index: float
    prob_lower: float
    prob_upper: float
    quasi_basis_size: int
    seed: int
    index_in_subalgebra: bool | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]


def validate_expectation(expectation: ConditionalExpectation,
                         tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check unitality, idempotence, bimodularity, and positivity.

    Positivity is checked through the Choi matrices of E in the
    block-diagonal representation; for a unital idempotent bimodule
    projection this is equivalent to positivity of the map.
    """
    big = expectation.algebra
    failures = []

    one = big.identity()
    if (expectation(one) - one).norm() > tol:
        failures.append("unitality")

    e2 = expectation.matrix @ expectation.matrix
    if np.max(np.abs(e2 - expectation.matrix)) > tol:
        failures.append("idempotence")

    # E(a x b) = a E(x) b for spanning a, b is the pair of matrix identities
    # E L_a = L_a E and E R_a = R_a E over the image basis of A.  Blockwise,
    # E L_a = (K R_a K E^T)^T and E R_a = (K L_a K E^T)^T, where the
    # permutation K transposes every block of a coefficient vector
    e_mat = expectation.matrix
    swap = np.empty(big.total_dim, dtype=int)
    for _, rows in big.block_rows:
        swap[rows] = rows.transpose(0, 2, 1)
    e_swapped = e_mat.T[swap]
    bimod = 0.0
    for a in expectation.inclusion.image_basis():
        for right in (False, True):
            comm = (multiply_columns(a, e_swapped, not right)[swap].T
                    - multiply_columns(a, e_mat, right))
            bimod = max(bimod, float(np.max(np.abs(comm))))
        if bimod > tol:
            break
    if bimod > tol:
        failures.append("bimodularity")

    if not _expectation_is_cp(expectation, tol):
        failures.append("positivity")

    return ValidationReport(not failures, tuple(failures))


def _expectation_is_cp(expectation: ConditionalExpectation, tol: float) -> bool:
    big = expectation.algebra

    def phi(x: AlgebraElement) -> np.ndarray:
        return big.embed_block_diagonal(expectation(x))

    return all(float(np.linalg.eigvalsh(c)[0]) >= -tol
               for c in choi_blocks(phi, big))


def canonical_expectation(inclusion: StarHomomorphism,
                          tau: TraceWeights,
                          tol: float = DEFAULT_TOL) -> ConditionalExpectation:
    """The unique tau-preserving expectation onto the image of A.

    Constructed as the orthogonal projection onto the image of A in the
    GNS inner product <x, y> = tau(x* y).  Bimodularity is verified and a
    failure is reported as an error: it would mean tau is not a trace for
    this inclusion, which must not be silently repaired.
    """
    big = inclusion.target
    if tau.algebra.blocks != big.blocks:
        raise ValueError("trace weights are not on the big algebra")
    w = tau.coordinate_weights()
    a_mat = inclusion.matrix
    gram = a_mat.conj().T @ (w[:, None] * a_mat)
    proj = a_mat @ np.linalg.solve(gram, a_mat.conj().T * w[None, :])
    expectation = ConditionalExpectation(inclusion, proj)

    report = validate_expectation(expectation, max(tol, 1e-8))
    if not report.ok:
        raise ValueError(
            "GNS projection is not a conditional expectation "
            f"(failed: {', '.join(report.failures)}); "
            "the trace is not compatible with this inclusion")
    return expectation


# ---------------------------------------------------------------------------
# Quasi-basis via the frame operator
# ---------------------------------------------------------------------------

def quasi_basis_report(expectation: ConditionalExpectation,
                       tau: TraceWeights,
                       spanning: Sequence[AlgebraElement] | None = None,
                       tol: float = DEFAULT_TOL) -> QuasiBasisResult:
    """Quasi-basis construction through the frame operator, in O(D^3).

    Greedily grows a generating family from ``spanning`` (default: the unit
    followed by all matrix units), keeping candidates that enlarge the rank
    of the frame operator S(x) = sum_k v_k E(v_k* x).  S is self-adjoint
    positive on the GNS space of tau o E and commutes with the right
    A-action, so u_k = S^{-1/2}(v_k) stays A-linear and satisfies the
    quasi-basis identity whenever S is invertible.

    The GNS Gram matrix G = sum_t 1 (x) F_t commutes with every left
    multiplication L_v, so in GNS coordinates S = sum_k L_v P P* L_v* with
    P P* = G^{1/2} E G^{-1/2} factored once.  A candidate's piece is then
    the factor L_v P, a row gather for a matrix unit, and it is kept when
    its range leaves the span of the pieces kept so far.  The frame
    operator T of u = S^{-1/2} v is assembled once; one refinement step
    u <- T^{-1/2} u removes the roundoff of S^{-1/2}.  The family with the
    smaller defect, read off the same T, is tested against max(tol, 1e-9).

    Returns a result with ``basis=None`` (plus the offending smallest
    eigenvalue of S) when S stays singular over the whole spanning set.
    """
    start = time.perf_counter()
    big = expectation.algebra
    dim = big.total_dim
    if spanning is None:
        spanning = [big.identity()] + big.basis()

    # G^{+-1/2} x = x h with h_t = (F_t^{+-1/2})^T: right multiplications
    grams = [np.linalg.eigh(f) for f in _gns_blocks(expectation, tau)]
    gmax = max(float(vals[-1]) for vals, _ in grams)
    gmin = min(float(vals[0]) for vals, _ in grams)
    if gmax <= 0 or gmin < RANK_RTOL * gmax:
        # degenerate GNS form: E is not faithful, no quasi-basis exists
        log.info("quasi-basis: D=%d, GNS form degenerate (%.3e of %.3e)",
                 dim, gmin, gmax)
        return QuasiBasisResult(None, 0.0, max(gmax, 0.0))
    g_half = big.element([((vecs * np.sqrt(vals)) @ vecs.conj().T).T
                          for vals, vecs in grams])
    g_half_inv = big.element([((vecs / np.sqrt(vals)) @ vecs.conj().T).T
                              for vals, vecs in grams])

    def whiten(mat: np.ndarray) -> np.ndarray:
        """Hermitian part of G^{1/2} mat G^{-1/2}."""
        # mat G^{-1/2} = (G^{-1/2} mat*)* since G is Hermitian
        scaled = multiply_columns(g_half_inv, mat.conj().T, right=True).conj().T
        out = multiply_columns(g_half, scaled, right=True)
        return (out + out.conj().T) / 2

    def inv_sqrt_apply(vals: np.ndarray, vecs: np.ndarray,
                       cols: np.ndarray) -> np.ndarray:
        """G^{-1/2} X^{-1/2} G^{1/2} cols, X = vecs diag(vals) vecs* whitened."""
        half = multiply_columns(g_half, cols, right=True)
        half = (vecs / np.sqrt(vals)) @ (vecs.conj().T @ half)
        return multiply_columns(g_half_inv, half, right=True)

    e_vals, e_vecs = np.linalg.eigh(whiten(expectation.matrix))
    on = e_vals > RANK_RTOL * max(float(e_vals[-1]), 0.0)
    factor = e_vecs[:, on] * np.sqrt(e_vals[on])

    # orthonormal basis of the kept ranges, and S~ = sum of kept F F*
    onb = np.empty((dim, dim), dtype=complex)
    rank = 0
    s_tilde = np.zeros((dim, dim), dtype=complex)
    kept: list[AlgebraElement] = []
    # largest squared norm of a piece so far: the rank test's scale, a lower
    # bound of the largest eigenvalue of S~
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
        # F = Z diag(sigma) has the range and the F F* of L_v P
        z, sigma, _ = np.linalg.svd(piece[rows], full_matrices=False)
        f = z * sigma
        top = max(top, float(sigma[0]) ** 2)
        # R* R for R = (1 - Q Q*) F: its eigenvalues are the new directions
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
        log.info("quasi-basis: D=%d, %d candidates tried, %d kept, frame "
                 "operator singular (smin=%.3e smax=%.3e), %.3f s",
                 dim, tried, len(kept), smin, smax, time.perf_counter() - start)
        return QuasiBasisResult(None, smin, smax)

    v_cols = np.stack([v.to_vector() for v in kept], axis=1)
    u_cols = inv_sqrt_apply(s_vals, s_vecs, v_cols)
    frame = _frame_map(big, expectation.matrix, u_cols)
    first = _defect(big, frame)
    # the frame operator of u is T, so T^{-1/2} u has the identity as its
    # frame operator: exactly one step, never iterated to a tolerance.  It
    # is kept only when it lowers the defect: E is an expectation only up
    # to rounding, so a defect already at that floor can rise.
    t_vals, t_vecs = np.linalg.eigh(whiten(frame))
    refined = inv_sqrt_apply(t_vals, t_vecs, u_cols)
    refined_defect = _defect(big, _frame_map(big, expectation.matrix, refined))
    defect = first
    if refined_defect < first:
        u_cols, defect = refined, refined_defect
    bound = max(tol, 1e-9)
    log.info("quasi-basis: D=%d, %d candidates tried, %d kept, smin=%.3e "
             "smax=%.3e, defect %.3e before refinement, %.3e after "
             "(bound %.1e), %.3f s", dim, tried, len(kept), smin, smax,
             first, refined_defect, bound, time.perf_counter() - start)
    if not defect <= bound:
        return QuasiBasisResult(None, smin, smax, defect)
    qb = QuasiBasis(tuple(big.from_vector(col) for col in u_cols.T))
    return QuasiBasisResult(qb, smin, smax, defect)


def find_quasi_basis(expectation: ConditionalExpectation,
                     tau: TraceWeights,
                     spanning: Sequence[AlgebraElement] | None = None,
                     tol: float = DEFAULT_TOL) -> QuasiBasis | None:
    return quasi_basis_report(expectation, tau, spanning, tol).basis


def _gns_blocks(expectation: ConditionalExpectation,
                tau: TraceWeights) -> list[np.ndarray]:
    """Blocks F_t of the Gram matrix G = sum_t 1 (x) F_t of
    <x, y> = tau(E(x* y)) in the matrix-unit basis.

    Since e^t_{ij}* e^s_{kl} = delta_{ts} delta_{ik} e^t_{jl}, only the
    values F_t[j, l] = tau(E(e^t_{jl})) of the functional are needed.
    """
    big = expectation.algebra
    tau_row = np.concatenate([w * np.eye(m).ravel()
                              for w, m in zip(tau.weights, big.blocks)])
    func = big.from_vector(tau_row @ expectation.matrix)
    return [(f + f.conj().T) / 2 for f in func.data]


def _frame_map(algebra: MultiMatrixAlgebra, mat: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """sum_k L_{c_k} mat L_{c_k}* for the coefficient columns c_k of ``cols``.

    With W = C C*, block (t, s) of the sum is
    T[(i,k),(j,l)] = sum_{i'j'} W[(i,i'),(j,j')] mat[(i',k),(j',l)],
    one matrix product once both operands are regrouped by (i,j) x (i',j').
    Block pairs of equal sizes share one batched matmul; the cost is
    D^2 K for W and (sum_t m_t^3)^2 <= D^3 for the products.
    """
    dim = algebra.total_dim
    w = (cols @ cols.conj().T).ravel()
    m_flat = np.asarray(mat).ravel()
    out = np.empty(dim * dim, dtype=complex)
    groups = algebra.block_rows
    for a, rows_a in groups:
        for b, rows_b in groups:
            # idx[t, s, p, q, r, c]: row o_t + p a + r, column o_s + q b + c
            idx = (rows_a[:, None, :, None, :, None] * dim
                   + rows_b[None, :, None, :, None, :]).reshape(-1, a * b, a * b)
            out[idx] = np.matmul(w[idx], m_flat[idx])
    return out.reshape(dim, dim)


def _defect(algebra: MultiMatrixAlgebra, frame: np.ndarray) -> float:
    """Largest norm of a column of frame - 1, as an element."""
    return float(column_norms(algebra, frame - np.eye(algebra.total_dim)).max())


def watatani_index(expectation: ConditionalExpectation,
                   quasi_basis: QuasiBasis) -> AlgebraElement:
    """The index element sum_i u_i u_i*.

    Checks that the element commutes with all of B and is positive
    invertible; a centrality violation beyond 1e-8 max(1, ||sum u u*||)
    is reported as a warning since it indicates an invalid quasi-basis.
    """
    big = expectation.algebra
    acc = big.zero()
    for u in quasi_basis.elements:
        acc = acc + u * u.adjoint()
    drift = max_commutator(acc, big.basis())
    if drift > 1e-8 * max(1.0, acc.norm()):
        warnings.warn(f"index element fails centrality in B by {drift:.3e}; "
                      "the quasi-basis is probably invalid", stacklevel=2)
    eigs = np.concatenate([np.linalg.eigvalsh((m + m.conj().T) / 2) for m in acc.data])
    if float(eigs.min()) <= RANK_RTOL * float(eigs.max()):
        raise ValueError("index element is not positive invertible")
    return acc


# ---------------------------------------------------------------------------
# Scalar index: the smallest c with cE - id completely positive
# ---------------------------------------------------------------------------

def scalar_index(expectation: ConditionalExpectation,
                 rank_rtol: float = RANK_RTOL) -> float:
    """min{c : cE - id completely positive}, or math.inf.

    Solved exactly per source block through the generalized eigenvalue
    pencil of the Choi matrices of id and E: the optimal c is the largest
    eigenvalue of C_id in the metric of C_E on range(C_E).  When
    range(C_id) is not contained in range(C_E) no finite c works and the
    index is reported as infinite, never as a large float.
    """
    big = expectation.algebra

    def phi_e(x: AlgebraElement) -> np.ndarray:
        return big.embed_block_diagonal(expectation(x))

    def phi_id(x: AlgebraElement) -> np.ndarray:
        return big.embed_block_diagonal(x)

    c_es = choi_blocks(phi_e, big)
    c_ids = choi_blocks(phi_id, big)

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
        pencil = (pencil + pencil.conj().T) / 2
        top = float(np.linalg.eigvalsh(pencil)[-1])
        best = max(best, top)
    return best


# ---------------------------------------------------------------------------
# Probabilistic index: certified interval
# ---------------------------------------------------------------------------

def probabilistic_index_bounds(expectation: ConditionalExpectation,
                               budget: int = 2000,
                               seed: int = 0) -> tuple[float, float]:
    """Certified bounds for Index^p = min{c : cE - id positive}.

    Positivity of cE - id only needs to be tested on rank-one positives
    v v*, and for fixed v the smallest admissible c is
    f(v) = v* E(v v*)^+ v (infinite when v is outside the range).  Any
    evaluated v therefore yields a valid lower bound; the supremum is
    approached by multistart projected-gradient ascent.  The upper bound
    is the scalar index, since Index^p <= Index^s always holds.
    """
    big = expectation.algebra
    rng = np.random.default_rng(seed)
    upper = scalar_index(expectation)

    lower = 1.0
    for t, m in enumerate(big.blocks):
        starts: list[np.ndarray] = [np.eye(m, dtype=complex)[:, j] for j in range(m)]
        starts.append(np.full(m, 1.0 / np.sqrt(m), dtype=complex))
        n_random = 4
        for _ in range(n_random):
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            starts.append(v / np.linalg.norm(v))
        iters = max(1, budget // max(1, len(starts)))
        for v0 in starts:
            val = _ascend_block(expectation, t, v0, iters)
            if math.isinf(val):
                return math.inf, upper
            lower = max(lower, val)
    return min(lower, upper) if not math.isinf(upper) else lower, upper


def _pp_value(expectation: ConditionalExpectation, t: int, v: np.ndarray) -> float:
    """v* (E(vv*)_t)^+ v for a unit vector v in block t."""
    big = expectation.algebra
    m = big.blocks[t]
    mats = [np.zeros((s, s), dtype=complex) for s in big.blocks]
    mats[t] = np.outer(v, v.conj())
    image = expectation(big.element(mats)).data[t]
    image = (image + image.conj().T) / 2
    evals, evecs = np.linalg.eigh(image)
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
    """Projected-gradient ascent of the Pimsner-Popa objective on a block."""
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


# ---------------------------------------------------------------------------
# Equivariantization and restriction
# ---------------------------------------------------------------------------

def equivariantize(expectation: ConditionalExpectation,
                   action: Sequence[StarHomomorphism],
                   tol: float = 1e-8) -> ConditionalExpectation:
    """Average E over a finite group acting by *-automorphisms of B.

    ``action`` lists every group element as an automorphism of B mapping
    the image of A onto itself.  Returns the averaged expectation
    x -> |G|^{-1} sum_g g^{-1}(E(g(x))), which is G-equivariant and
    satisfies scalar_index(avg) <= scalar_index(E).
    """
    big = expectation.algebra
    a_vecs = np.stack([a.to_vector() for a in expectation.inclusion.image_basis()],
                      axis=1)
    q = orthonormal_columns([a_vecs[:, k] for k in range(a_vecs.shape[1])])
    for g in action:
        if g.source.blocks != big.blocks or g.target.blocks != big.blocks:
            raise ValueError("action must consist of endomorphisms of B")
        if not g.check(tol):
            raise ValueError("action element is not a *-homomorphism")
        if abs(np.linalg.det(g.matrix)) < 1e-12:
            raise ValueError("action element is not invertible")
        moved = g.matrix @ a_vecs
        resid = moved - q @ (q.conj().T @ moved)
        if float(np.linalg.norm(resid)) > tol * max(1.0, float(np.linalg.norm(moved))):
            raise ValueError("action does not preserve the subalgebra setwise")

    dim = big.total_dim
    avg = np.zeros((dim, dim), dtype=complex)
    for g in action:
        avg += np.linalg.solve(g.matrix, expectation.matrix @ g.matrix)
    avg /= len(action)
    return ConditionalExpectation(expectation.inclusion, avg)


def restrict_to_intermediate(expectation: ConditionalExpectation,
                             span: Sequence[AlgebraElement],
                             tol: float = 1e-8) -> ConditionalExpectation:
    """Restriction E|_C to an intermediate subalgebra A <= C <= B.

    ``span`` spans C inside B.  The subalgebra is put into multimatrix
    form, so the result is a first-class expectation on which quasi-basis
    and index computations run unchanged.
    """
    embed_c = subalgebra_structure(span, tol=tol)
    big = expectation.algebra
    c_abs = embed_c.source
    c_pinv = np.linalg.pinv(embed_c.matrix)

    a_mat = expectation.inclusion.matrix
    resid = embed_c.matrix @ (c_pinv @ a_mat) - a_mat
    if float(np.linalg.norm(resid)) > tol * max(1.0, float(np.linalg.norm(a_mat))):
        raise ValueError("intermediate algebra does not contain the image of A")

    incl = StarHomomorphism(expectation.subalgebra, c_abs, c_pinv @ a_mat)
    e_mat = c_pinv @ expectation.matrix @ embed_c.matrix
    restricted = ConditionalExpectation(incl, e_mat)

    report = validate_expectation(restricted, max(tol, 1e-8))
    if not report.ok:
        raise ValueError("restriction is not a conditional expectation "
                         f"(failed: {', '.join(report.failures)})")
    return restricted


def index_in_subalgebra(expectation: ConditionalExpectation,
                        element: AlgebraElement,
                        tol: float = DEFAULT_TOL) -> bool:
    """Whether an element lies in the image of A inside B."""
    vecs = [a.to_vector() for a in expectation.inclusion.image_basis()]
    onb = orthonormal_columns(vecs)
    v = element.to_vector()
    resid = v - onb @ (onb.conj().T @ v)
    return float(np.linalg.norm(resid)) <= tol * max(1.0, float(np.linalg.norm(v)))


def compute_index_report(expectation: ConditionalExpectation,
                         tau: TraceWeights,
                         tol: float = DEFAULT_TOL,
                         budget: int = 2000,
                         seed: int = 0) -> IndexReport:
    """Full index pipeline: quasi-basis, index element, scalar and
    probabilistic indices."""
    result = quasi_basis_report(expectation, tau, tol=tol)
    # the certified upper bound of the probabilistic index is the scalar index
    lower, scalar = probabilistic_index_bounds(expectation, budget, seed)
    if result.basis is None:
        return IndexReport(None, math.inf, scalar, lower, scalar, 0, seed)
    index = watatani_index(expectation, result.basis)
    return IndexReport(index, index.norm(), scalar, lower, scalar,
                       len(result.basis), seed,
                       index_in_subalgebra(expectation, index, max(tol, 1e-8)))
