"""Conditional expectations on multimatrix inclusions and their indices.

Every expectation E onto the image of A in B has a density normal form
(Pimsner-Popa, Ann. Sci. ENS 19, 1986).  In the adapted bases of the
inclusion (held by its :class:`StarHomomorphism`), B block t is
sum_p C^{a_p} (x) C^{k_tp}, and

    E(x)_p = sum_t (id (x) Tr)((1 (x) h_tp) x_t^{(p)})

with one density h_tp >= 0 per pair of blocks and sum_t Tr h_tp = 1.
Validation, the trace-preserving expectation, the Pimsner-Popa
quasi-basis, the Watatani index element (sum_p Tr h_tp^{-1} on B block t),
the scalar index (its largest block value) and the exact probabilistic
index are all read off h and its spectra, batched over the block pairs
with k_tp > 0 by density size; the spectra are held once per size.  The
trace-preserving expectation is held by its scalar densities
h_tp = w_t / (K^T w)_p, each its own spectrum, so none of its densities
is eigendecomposed, and its matrix is built only when read.  The
defect of a quasi-basis, the index element sum u_i u_i* of any family
and finite-group averaging work on any expectation matrix.  Restriction
to an intermediate subalgebra A <= C <= B takes C by its inclusion into
B, as A is taken everywhere.
Images of inclusions are inverted in closed form, by
:meth:`StarHomomorphism.preimage`; no inclusion matrix is factored.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    INCLUSION_TOL,
    RANK_RTOL,
    AlgebraElement,
    MultiMatrixAlgebra,
    StarHomomorphism,
    TraceWeights,
    _image_preimage,
    column_norms,
    group_indices,
    submatrices,
)

log = logging.getLogger("qindex.expectation")

__all__ = [
    "ConditionalExpectation", "QuasiBasis", "QuasiBasisResult", "IndexReport",
    "ValidationReport", "validate_expectation", "canonical_expectation",
    "quasi_basis_report", "watatani_index", "scalar_index",
    "probabilistic_index_bounds", "equivariantize", "restrict_to_intermediate",
    "compute_index_report", "index_in_subalgebra",
]


class ConditionalExpectation:
    """A linear idempotent A-bimodule projection E: B -> image(A).

    ``inclusion`` embeds A into B.  E is given by ``matrix``, acting on
    B's coefficient vectors, or by ``scalars``: one number per pair of
    ``inclusion.pairs``, E's density h_tp = scalars[n] 1 on
    pair n, the form of the trace-preserving expectation.  The matrix
    of E given by its densities is built on first read and then cached;
    the index report reads only the densities.  Nothing is checked at
    construction time; use :func:`validate_expectation`.
    """

    def __init__(self, inclusion: StarHomomorphism, matrix: np.ndarray | None = None,
                 *, scalars: np.ndarray | None = None):
        if (matrix is None) == (scalars is None):
            raise ValueError("an expectation is given by its matrix or by its "
                             "scalar densities, and not by both")
        self.inclusion = inclusion
        self._scalars = None if scalars is None else np.asarray(scalars, dtype=float)
        if matrix is not None:
            mat = np.array(matrix, dtype=complex, order="C")
            d = self.algebra.total_dim
            if mat.shape != (d, d):
                raise ValueError(f"expectation matrix must be {d}x{d}, got {mat.shape}")
            mat.flags.writeable = False
            self.__dict__["matrix"] = mat

    @property
    def algebra(self) -> MultiMatrixAlgebra:
        """The big algebra B."""
        return self.inclusion.target

    @property
    def subalgebra(self) -> MultiMatrixAlgebra:
        """The abstract small algebra A."""
        return self.inclusion.source

    @cached_property
    def matrix(self) -> np.ndarray:
        """E's matrix on B's coefficient vectors, rebuilt from its
        densities when it was not given."""
        mat = _rebuild(self.inclusion, self.densities)
        mat.flags.writeable = False
        return mat

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.algebra.from_vector(self.matrix @ x.to_vector())

    @cached_property
    def densities(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The densities of E, batched by size: one pair (idx, h) per
        distinct multiplicity k, with h[n] the k x k density h_tp of the
        pair idx[n] of ``inclusion.pairs``.

        Scalar densities are as given.  Otherwise entry (alpha, gamma) of
        h_tp is read off E on the element of B block t that is
        e_11 (x) e_{gamma alpha} in the adapted basis: its image is
        h[alpha, gamma] e_11 in A block p.  The pairs of one density size
        and B block size share one batched product with E's diagonal
        blocks.  The matrices are as read, not symmetrised, so that
        :func:`validate_expectation` can test them.
        """
        pairs = self.inclusion.pairs
        if self._scalars is not None:
            return tuple((idx, self._scalars[idx, None, None] * np.eye(pairs.k[idx[0]]))
                         for idx in group_indices(pairs.k))
        out = []
        for idx in group_indices(pairs.k):
            k = int(pairs.k[idx[0]])
            h = np.empty((idx.size, k, k), dtype=complex)
            for sub in group_indices(pairs.m[idx]):
                at = idx[sub]
                m = int(pairs.m[at[0]])
                first = self.inclusion.corner_columns(at, k)
                # E's diagonal block on each B block of these pairs, read
                # once; the pairs of one block are slots against it
                offsets, block = np.unique(pairs.b_ofs[at], return_inverse=True)
                slot = np.arange(at.size) - np.searchsorted(block, block)
                # the (1,1) entry of A block p, read in copy 0 of block t
                probes = np.zeros((offsets.size, slot.max() + 1, 1, m * m), dtype=complex)
                probes[block, slot, 0] = (first[:, :, :1].conj()
                                          * first[:, None, :, 0]).reshape(-1, m * m)
                read = probes @ submatrices(self.matrix, offsets, offsets,
                                            m * m, m * m)[:, None]
                units = np.einsum("nrg,nca->nrcga", first, first.conj()).reshape(-1, m * m, k * k)
                h[sub] = (read[block, slot] @ units).reshape(-1, k, k).swapaxes(1, 2)
            out.append((idx, h))
        return tuple(out)

    @cached_property
    def spectra(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(idx, ascending eigenvalues, eigenvectors) of the Hermitian part
        of the densities, in the order of :attr:`densities`, the only
        density eigenvalues held: one batched eigh per density size of a
        map, while a scalar density s 1 is its own spectrum, s repeated
        with identity eigenvectors.  Positivity, the quasi-basis and the
        closed-form indices read them from here."""
        if self._scalars is None:
            return tuple((idx, *np.linalg.eigh((h + h.conj().swapaxes(1, 2)) / 2))
                         for idx, h in self.densities)
        k = self.inclusion.pairs.k
        return tuple((idx, self._scalars[idx, None].repeat(k[idx[0]], axis=1),
                      np.eye(k[idx[0]])[None].repeat(idx.size, axis=0))
                     for idx in group_indices(k))

    @cached_property
    def _eigenvalue_range(self) -> tuple[float, float, float]:
        """(smallest, largest) density eigenvalue and the threshold that E
        is faithful iff every eigenvalue exceeds.  Scalar densities, those
        of the canonical expectation w_t / (K^T w)_p, are exact: faithful
        iff positive, so their threshold is 0 and only a density that
        underflows to 0 fails it.  A density read off an explicit map
        carries its rounding, and its threshold is RANK_RTOL times the
        largest."""
        if self._scalars is not None:
            return float(self._scalars.min()), float(self._scalars.max()), 0.0
        lo = min(float(vals.min()) for _, vals, _ in self.spectra)
        hi = max(float(vals.max()) for _, vals, _ in self.spectra)
        return lo, hi, RANK_RTOL * max(hi, 0.0)


def _rebuild(inclusion: StarHomomorphism,
             densities: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The matrix of the expectation with densities h, batched as
    :attr:`ConditionalExpectation.densities`: phi composed with x -> z,
    z_p = sum_t (id (x) Tr)((1 (x) h_tp) (U_t* x_t U_t) on corner p)."""
    pairs = inclusion.pairs
    reduce = np.zeros((inclusion.source.total_dim, inclusion.target.total_dim),
                      dtype=complex)
    for idx, h in densities:
        k = h.shape[1]
        for sub in group_indices(pairs.m[idx], pairs.a[idx]):
            at = idx[sub]
            m, a = int(pairs.m[at[0]]), int(pairs.a[at[0]])
            corner = inclusion.corner_columns(at, a * k).reshape(-1, m, a, k)
            # z[i, j] = sum_{r c alpha gamma} conj(W[r,i,gamma]) h[alpha,gamma]
            #           W[c,j,alpha] x[r, c]
            left = (corner.conj() @ h[sub, None].swapaxes(-1, -2)).reshape(-1, m * a, k)
            part = (left @ corner.reshape(-1, m * a, k).swapaxes(1, 2)).reshape(-1, m, a, m, a)
            rows = pairs.a_ofs[at, None, None] + np.arange(a * a)[:, None]
            cols = pairs.b_ofs[at, None, None] + np.arange(m * m)
            reduce[rows, cols] = part.transpose(0, 2, 4, 1, 3).reshape(-1, a * a, m * m)
    return inclusion.matrix @ reduce


def _log_normal_form(expectation: ConditionalExpectation, start: float,
                     residual: float | None = None, tol: float = 0.0) -> None:
    """The normal-form line at INFO; a residual of None is 0 by construction."""
    if not log.isEnabledFor(logging.INFO):
        return
    lo, hi, threshold = expectation._eigenvalue_range
    log.info("normal form: K=%s, h eigenvalues in [%.3e, %.3e] (faithful "
             "above %.1e), rebuild residual %s, %.3f s",
             expectation.inclusion.multiplicities.tolist(), lo, hi,
             threshold, "0 by construction" if residual is None
             else f"{residual:.3e} (tolerance {tol:.1e})",
             time.perf_counter() - start)


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
    """Outcome of the quasi-basis construction.

    ``min_eigenvalue`` and ``max_eigenvalue`` bound the spectra of the
    densities.  ``basis`` is None when E is not faithful (a density is
    singular) or when the basis fails its defect bound.
    """

    basis: QuasiBasis | None
    min_eigenvalue: float
    max_eigenvalue: float
    defect: float | None = None


@dataclass(frozen=True)
class IndexReport:
    """All index data of one expectation.

    The index element is c_t 1 on block t of B, for the ``block_values``
    c_t (None when E is not faithful).  It is central in B by
    construction; ``index_in_subalgebra`` records whether it lies in the
    image of A.
    """

    algebra: MultiMatrixAlgebra
    block_values: tuple[float, ...] | None
    index_norm: float
    scalar_index: float
    prob_lower: float
    prob_upper: float
    quasi_basis_size: int
    index_in_subalgebra: bool | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]


def validate_expectation(expectation: ConditionalExpectation,
                         tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check unitality, bimodularity and positivity on the densities.

    The A-bimodule maps B -> image(A) are exactly the maps rebuilt from
    some densities h, so E is bimodular iff it equals the map rebuilt from
    its own h, to ``tol`` relative to its largest entry.  Such a map is
    idempotent once it is unital, and positive iff every h_tp is Hermitian
    positive semidefinite.
    """
    start = time.perf_counter()
    big = expectation.algebra
    failures = []

    one = big.identity().to_vector()
    if column_norms(big, (expectation.matrix @ one - one)[:, None])[0] > tol:
        failures.append("unitality")

    h = expectation.densities
    mat = expectation.matrix
    residual = float(np.max(np.abs(mat - _rebuild(expectation.inclusion, h)))) \
        / max(1.0, float(np.max(np.abs(mat))))
    if residual > tol:
        failures.append("bimodularity")

    if any(np.max(np.abs(d - d.conj().swapaxes(1, 2))) > tol or vals[:, 0].min() < -tol
           for (_, d), (_, vals, _) in zip(h, expectation.spectra)):
        failures.append("positivity")

    _log_normal_form(expectation, start, residual, tol)
    return ValidationReport(not failures, tuple(failures))


def canonical_expectation(inclusion: StarHomomorphism,
                          tau: TraceWeights) -> ConditionalExpectation:
    """The unique tau-preserving expectation onto the image of A.

    Its densities are h_tp = w_t / (K^T w)_p times the identity: for x in
    corner p of block t, tau(E(x)) = tau(x) fixes h_tp, and
    sum_t Tr h_tp = 1 follows.
    """
    start = time.perf_counter()
    big = inclusion.target
    if tau.algebra.blocks != big.blocks:
        raise ValueError("trace weights are not on the big algebra")
    k = inclusion.multiplicities
    # h does not change when w is scaled; an exact power of two keeps K^T w
    # finite for weights near the float range's end
    w = np.asarray(tau.weights)
    w = np.ldexp(w, -np.frexp(w.max())[1])
    pairs = inclusion.pairs
    expectation = ConditionalExpectation(inclusion,
                                         scalars=w[pairs.t] / (k.T @ w)[pairs.p])
    _log_normal_form(expectation, start)
    return expectation


# ---------------------------------------------------------------------------
# Quasi-basis and index element
# ---------------------------------------------------------------------------

def quasi_basis_report(expectation: ConditionalExpectation,
                       tau: TraceWeights | None = None) -> QuasiBasisResult:
    """The Pimsner-Popa quasi-basis of E, in closed form.

    In B block t, with adapted unitary U_t, the family is the matrix units
    e_{rho,(p,1,alpha)} (1 (x) h_tp^{-1/2}) U_t* over rows rho of the block,
    A blocks p and copies alpha: sum_t m_t sum_p k_tp elements, and
    sum_i u_i E(u_i* x) = x holds exactly when every h_tp is invertible.
    The index element is sum_p Tr h_tp^{-1} on block t.  The defect of the
    basis against E itself is tested against
    DEFAULT_TOL * max(1, ||index element||): it is at most about the
    index times the rounding residual of E.  ``tau`` is not needed and
    is accepted for compatibility.

    Returns a result with ``basis=None`` when E is not faithful.
    """
    start = time.perf_counter()
    big = expectation.algebra
    inclusion = expectation.inclusion
    lo, hi, threshold = expectation._eigenvalue_range
    if not lo > threshold:
        log.info("quasi-basis: none, density eigenvalue %.3e is below the "
                 "faithfulness threshold %.1e, %.3f s", lo, threshold,
                 time.perf_counter() - start)
        return QuasiBasisResult(None, lo, hi)

    pairs = inclusion.pairs
    k = inclusion.multiplicities
    sizes = np.asarray(big.blocks)
    copies = k.sum(axis=1)
    # block t holds m_t sum_p k_tp elements (rho, copy), from column
    # first_col[t] on; the copies of pair (t, p) start at copy_ofs
    first_col = np.cumsum(sizes * copies) - sizes * copies
    copy_ofs = (np.cumsum(k, axis=1) - k)[pairs.t, pairs.p]
    cols = np.zeros((big.total_dim, int(sizes @ copies)), dtype=complex)
    for idx, vals, vecs in expectation.spectra:
        for sub in group_indices(pairs.m[idx]):
            at, t = idx[sub], pairs.t[idx[sub]]
            m, width = int(pairs.m[at[0]]), vals.shape[1]
            # c_alpha = U_t (e_1 (x) h^{-1/2} e_alpha) on corner p, so the
            # elements of block t are the rows e_rho (x) conj(c_alpha)
            c = inclusion.corner_columns(at, width) @ (
                (vecs[sub] / np.sqrt(vals[sub])[:, None, :]) @ vecs[sub].conj().swapaxes(1, 2))
            rho = np.arange(m)[:, None, None]
            rows = pairs.b_ofs[at, None, None, None] + rho * m + np.arange(m)[:, None]
            where = ((first_col[t] + copy_ofs[at])[:, None, None, None]
                     + rho * copies[t, None, None, None] + np.arange(width))
            cols[rows, where] = c.conj()[:, None]

    defect = _defect(big, _frame_map(big, expectation.matrix, cols))
    bound = DEFAULT_TOL * max(1.0, max(_closed_form_indices(expectation)[1]))
    log.info("quasi-basis: %d elements, defect %.3e (bound %.1e), %.3f s",
             cols.shape[1], defect, bound, time.perf_counter() - start)
    if not defect <= bound:
        return QuasiBasisResult(None, lo, hi, defect)
    qb = QuasiBasis(tuple(big.from_vector(c) for c in cols.T))
    return QuasiBasisResult(qb, lo, hi, defect)


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
    """The index element x = sum_i u_i u_i*.

    The centre of B is the block scalars, so the centrality drift of x is
    max_t ||x_t - (tr x_t / m_t) 1||; a drift beyond 1e-8 max(1, ||x||)
    is reported as a warning since it indicates an invalid quasi-basis.
    x is positive by construction, and it is invertible when every
    eigenvalue lower bound tr x_t / m_t - ||x_t - (tr x_t / m_t) 1||
    exceeds RANK_RTOL ||x||; otherwise ValueError.
    """
    acc = expectation.algebra.zero()
    for u in quasi_basis.elements:
        acc = acc + u * u.adjoint()
    norm = acc.norm()
    scalars = [float(np.trace(m).real) / len(m) for m in acc.data]
    drifts = [float(np.linalg.norm(m - c * np.eye(len(m)), ord=2))
              for m, c in zip(acc.data, scalars)]
    if max(drifts) > 1e-8 * max(1.0, norm):
        warnings.warn(f"index element fails centrality in B by {max(drifts):.3e}; "
                      "the quasi-basis is probably invalid", stacklevel=2)
    if min(c - d for c, d in zip(scalars, drifts)) <= RANK_RTOL * norm:
        raise ValueError("index element is not positive invertible")
    return acc


# ---------------------------------------------------------------------------
# Scalar and probabilistic index in closed form
# ---------------------------------------------------------------------------

def _closed_form_indices(expectation: ConditionalExpectation
                         ) -> tuple[float, tuple[float, ...]]:
    """Index^p of E and the per-block sums c_t = sum_p Tr h_tp^{-1}, all
    infinite when E is not faithful.

    c_t is the index element on B block t, and the scalar index
    min{c : cE - id completely positive} is max_t c_t.  For v in block t
    with components V_p, v* E(vv*)^+ v = sum_p tr(h_tp^{-1} Pi_p), Pi_p the
    projection onto the row space of V_p h_tp^{1/2}, of rank at most
    min(a_p, k_tp); by Ky Fan's maximum principle Index^p = min{c : cE - id
    positive} is max_t sum_p (sum of the min(a_p, k_tp) largest eigenvalues
    of h_tp^{-1}), and it is attained.

    The inverse eigenvalues of each pair, descending, come from
    :attr:`ConditionalExpectation.spectra`: its min(a_p, k_tp) first
    entries and its others are two slices at their own lengths, each
    summed as np.sum sums it.
    """
    lo, _, threshold = expectation._eigenvalue_range
    n_blocks = len(expectation.algebra.blocks)
    if not lo > threshold:
        return math.inf, (math.inf,) * n_blocks
    pairs = expectation.inclusion.pairs
    top, rest = np.empty(pairs.k.size), np.empty(pairs.k.size)
    with np.errstate(over="ignore"):  # past the float range: an infinite index
        for idx, vals, _ in expectation.spectra:
            inv = 1.0 / vals
            top_len = np.minimum(pairs.a[idx], vals.shape[1])
            for sub in group_indices(top_len):
                n = top_len[sub[0]]
                top[idx[sub]] = inv[sub, :n].sum(axis=1)
                rest[idx[sub]] = inv[sub, n:].sum(axis=1)
    # per-block sums in the order of the pairs, p ascending; top plus the
    # rest, so that prob_t <= scalar_t after rounding
    prob = float(np.bincount(pairs.t, top, n_blocks).max())
    return prob, tuple(np.bincount(pairs.t, top + rest, n_blocks).tolist())


def scalar_index(expectation: ConditionalExpectation) -> float:
    """min{c : cE - id completely positive} = max_t sum_p Tr h_tp^{-1}, or
    math.inf when a density is singular, never a large float."""
    return max(_closed_form_indices(expectation)[1])


def probabilistic_index_bounds(expectation: ConditionalExpectation,
                               budget: int = 2000) -> tuple[float, float]:
    """(Index^p, scalar index) for Index^p = min{c : cE - id positive}.

    The lower end is the exact probabilistic index in closed form (see
    :func:`_closed_form_indices`); the upper end is the scalar index, since
    Index^p <= Index^s always holds.  ``budget`` is accepted for
    compatibility and unused: nothing is searched.
    """
    lower, sums = _closed_form_indices(expectation)
    return lower, max(sums)


# ---------------------------------------------------------------------------
# Equivariantization and restriction
# ---------------------------------------------------------------------------

def equivariantize(expectation: ConditionalExpectation,
                   action: Sequence[StarHomomorphism]) -> ConditionalExpectation:
    """Average E over a finite group acting by *-automorphisms of B.

    ``action`` lists every group element as an automorphism of B mapping
    the image of A onto itself, to INCLUSION_TOL.  Each element, a
    :class:`StarHomomorphism`, is a unital injective *-endomorphism of B,
    so an automorphism whose matrix is unitary, and g^{-1} is g*.  Returns the averaged expectation
    x -> |G|^{-1} sum_g g^{-1}(E(g(x))), which is G-equivariant and
    satisfies scalar_index(avg) <= scalar_index(E).
    """
    if not action:
        raise ValueError("action must list at least one group element")
    big = expectation.algebra
    a_mat = expectation.inclusion.matrix
    for g in action:
        if g.source.blocks != big.blocks or g.target.blocks != big.blocks:
            raise ValueError("action must consist of endomorphisms of B")
        if _image_preimage(expectation.inclusion, g.matrix @ a_mat, INCLUSION_TOL) is None:
            raise ValueError("action does not preserve the subalgebra setwise")

    avg = sum(g.matrix.conj().T @ expectation.matrix @ g.matrix for g in action)
    return ConditionalExpectation(expectation.inclusion, avg / len(action))


def restrict_to_intermediate(expectation: ConditionalExpectation,
                             intermediate: StarHomomorphism) -> ConditionalExpectation:
    """Restriction E|_C to an intermediate subalgebra A <= C <= B.

    ``intermediate`` is the inclusion C -> B; its image must contain the
    image of A, to INCLUSION_TOL.  The result, the preimage of E on C, is an
    expectation of C onto the image of A, validated to INCLUSION_TOL, on which
    quasi-basis and index computations run unchanged.
    """
    if intermediate.target.blocks != expectation.algebra.blocks:
        raise ValueError("intermediate algebra is included in blocks "
                         f"{intermediate.target.blocks}, not in B's "
                         f"{expectation.algebra.blocks}")
    a_pre = _image_preimage(intermediate, expectation.inclusion.matrix, INCLUSION_TOL)
    if a_pre is None:
        raise ValueError("intermediate algebra does not contain the image of A")

    incl = StarHomomorphism(expectation.subalgebra, intermediate.source, a_pre)
    restricted = ConditionalExpectation(
        incl, intermediate.preimage(expectation.matrix @ intermediate.matrix))

    report = validate_expectation(restricted, INCLUSION_TOL)
    if not report.ok:
        raise ValueError("restriction is not a conditional expectation "
                         f"(failed: {', '.join(report.failures)})")
    return restricted


def index_in_subalgebra(expectation: ConditionalExpectation,
                        element: AlgebraElement,
                        tol: float = DEFAULT_TOL) -> bool:
    """Whether an element lies in the image of A inside B."""
    return _image_preimage(expectation.inclusion, element.to_vector(), tol) is not None


def compute_index_report(expectation: ConditionalExpectation,
                         tol: float = DEFAULT_TOL) -> IndexReport:
    """All index data of a valid expectation (canonical, or passed by
    :func:`validate_expectation`), read off its density eigenvalues in one
    pass; E's matrix is not read.

    The index element is c_t 1 on B block t, c_t = sum_p Tr h_tp^{-1}: it is
    sum u_i u_i* for the Pimsner-Popa basis of :func:`quasi_basis_report`,
    which has sum_t m_t sum_p k_tp elements and satisfies the quasi-basis
    identity exactly once E equals the map rebuilt from h.  Its norm is the
    scalar index.  Whether it lies in the image of A is decided in closed
    form (:func:`_central_in_image`), to max(tol, 1e-8).
    """
    start = time.perf_counter()
    lower, sums = _closed_form_indices(expectation)
    scalar = max(sums)
    log.info("closed-form indices: scalar %.12g, probabilistic %.12g, %.3f s",
             scalar, lower, time.perf_counter() - start)
    big = expectation.algebra
    if math.isinf(scalar):
        return IndexReport(big, None, math.inf, scalar, lower, scalar, 0)
    inclusion = expectation.inclusion
    return IndexReport(big, sums, scalar, scalar, lower, scalar,
                       int(inclusion.pairs.m @ inclusion.pairs.k),
                       _central_in_image(inclusion, np.asarray(sums), max(tol, 1e-8)))


def _central_in_image(inclusion: StarHomomorphism, c: np.ndarray, tol: float) -> bool:
    """Whether the central element c_t 1 of B lies in the image of A, to
    ``tol`` relative to its norm as :func:`index_in_subalgebra` decides.

    The element of the image nearest to it is central in A, z_p on every
    corner p, so its distance is sqrt(sum_tp a_p k_tp (c_t - z_p)^2) with
    z_p the a_p k_tp-weighted mean of c_t over the blocks t.
    """
    pairs = inclusion.pairs
    weight = pairs.a * pairs.k
    # c scaled by a power of two near 1/max c, so that no square overflows
    # for an index up to the float range; while no value leaves the normal
    # range, the test gives what it gives on c itself, bit for bit
    exponent = math.frexp(float(c.max()))[1]
    c = np.ldexp(c, -exponent)
    ct = c[pairs.t]
    z = np.bincount(pairs.p, weight * ct) / np.bincount(pairs.p, weight)
    residual = math.sqrt(float(np.sum(weight * (ct - z[pairs.p]) ** 2)))
    norm = math.sqrt(float(np.asarray(inclusion.target.blocks) @ (c * c)))
    return residual <= tol * max(math.ldexp(1.0, -exponent), norm)
