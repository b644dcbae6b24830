"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

A multimatrix algebra ``M_{m_1} + ... + M_{m_T}`` is the universe for all
index computations in this package.  Elements carry one complex matrix per
block; the coefficient vector of an element is the concatenation of the
row-major flattened blocks, which fixes the matrix convention for every
linear map (homomorphisms, expectations) in the package.  A subalgebra is
always given by its inclusion, a :class:`StarHomomorphism`, which holds
its normal form: given by its matrix, its constructor finds the normal
form and rejects a map that is not a unital injective *-homomorphism;
given by its multiplicities (:meth:`StarHomomorphism.from_multiplicities`),
the normal form is given and the matrix is built on first read.  Its
pseudo-inverse is a closed form in its matrix,
:meth:`StarHomomorphism.preimage`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

#: relative eigenvalue threshold used for every rank / invertibility decision
RANK_RTOL = 1e-10

#: default tolerance for Hermiticity and axiom checks
DEFAULT_TOL = 1e-9

#: tolerance of the normal-form checks of :class:`StarHomomorphism`.  The
#: images of matrix units are partial isometries, whose entries have modulus
#: at most 1, so this absolute bound on them is a relative one
INCLUSION_TOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only copy, so the caller's array stays writeable."""
    a = np.array(a, dtype=complex, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """A direct sum of full matrix algebras, given by its block sizes."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) == 0:
            raise ValueError("multimatrix algebra needs at least one block")
        if any(m < 1 for m in self.blocks):
            raise ValueError(f"block sizes must be >= 1, got {self.blocks}")
        if any(m % 1 != 0 for m in self.blocks):  # NaN and inf too
            raise ValueError(f"block sizes must be integers, got {self.blocks}")
        object.__setattr__(self, "blocks", tuple(int(m) for m in self.blocks))

    @cached_property
    def total_dim(self) -> int:
        """Length of an element's coefficient vector, sum of m_t^2."""
        return int(sum(m * m for m in self.blocks))

    @property
    def rep_dim(self) -> int:
        """Dimension of the block-diagonal faithful representation."""
        return int(sum(self.blocks))

    @cached_property
    def block_rows(self) -> tuple[tuple[int, np.ndarray], ...]:
        """Coefficient rows of the blocks, grouped by size: pairs (m, rows)
        with rows[b, i, j] the row of entry (i, j) of the b-th block of size m."""
        offsets = np.cumsum((0,) + tuple(m * m for m in self.blocks))[:-1]
        groups = []
        for m in sorted(set(self.blocks)):
            starts = np.array([o for o, size in zip(offsets, self.blocks) if size == m])
            rows = starts[:, None, None] + np.arange(m * m).reshape(m, m)
            rows.flags.writeable = False
            groups.append((m, rows))
        return tuple(groups)

    def element(self, mats: Sequence[np.ndarray]) -> AlgebraElement:
        mats = tuple(_freeze(m) for m in mats)
        if len(mats) != len(self.blocks):
            raise ValueError("wrong number of blocks")
        for m, size in zip(mats, self.blocks):
            if m.shape != (size, size):
                raise ValueError(f"block shape {m.shape} does not match size {size}")
        return AlgebraElement(self, mats)

    def zero(self) -> AlgebraElement:
        return self.element([np.zeros((m, m)) for m in self.blocks])

    def identity(self) -> AlgebraElement:
        return self.element([np.eye(m) for m in self.blocks])

    def from_vector(self, vec: np.ndarray) -> AlgebraElement:
        vec = np.asarray(vec, dtype=complex).ravel()
        if vec.size != self.total_dim:
            raise ValueError("coefficient vector has wrong length")
        mats, ofs = [], 0
        for m in self.blocks:
            mats.append(vec[ofs:ofs + m * m].reshape(m, m))
            ofs += m * m
        return self.element(mats)

    def basis(self) -> list[AlgebraElement]:
        """Matrix units e^t_{ij}, ordered block by block, row-major."""
        out = []
        for t, m in enumerate(self.blocks):
            for i in range(m):
                for j in range(m):
                    mats = [np.zeros((s, s)) for s in self.blocks]
                    mats[t][i, j] = 1.0
                    out.append(self.element(mats))
        return out


@dataclass(frozen=True)
class AlgebraElement:
    """An element of a multimatrix algebra, one matrix per block."""

    parent: MultiMatrixAlgebra
    data: tuple[np.ndarray, ...]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([m.ravel() for m in self.data])

    def adjoint(self) -> AlgebraElement:
        return self.parent.element([m.conj().T for m in self.data])

    def norm(self) -> float:
        """Operator norm: the largest singular value over all blocks."""
        return max(float(abs(m[0, 0])) if m.shape == (1, 1)
                   else float(np.linalg.norm(m, ord=2)) for m in self.data)

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._check_parent(other)
        return self.parent.element([a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        self._check_parent(other)
        return self.parent.element([a - b for a, b in zip(self.data, other.data)])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_parent(other)
            return self.parent.element([a @ b for a, b in zip(self.data, other.data)])
        return self.parent.element([other * a for a in self.data])

    def __rmul__(self, scalar) -> AlgebraElement:
        return self.parent.element([scalar * a for a in self.data])

    def __neg__(self) -> AlgebraElement:
        return self.parent.element([-a for a in self.data])

    def _check_parent(self, other: AlgebraElement):
        if other.parent.blocks != self.parent.blocks:
            raise ValueError("elements live in different algebras")


class StarHomomorphism:
    """A unital injective *-homomorphism phi: A -> B between multimatrix
    algebras, held with its normal form: B block t is
    sum_p C^{a_p} (x) C^{k_tp}, and phi(x)_t = U_t (sum_p x_p (x) 1) U_t*.

    ``matrix`` acts on coefficient vectors, shape (target.total_dim,
    source.total_dim).  ``unitary`` is the coefficient vector of U = (U_t)
    in B.  The columns of U_t run over (p, i, alpha): corner p is the
    a_p k_tp columns from ``pairs.col`` on, and its column (i, alpha) spans
    row i of copy alpha.  ``multiplicities`` is the inclusion matrix
    K[t, p] = k_tp.  Given by its matrix, the constructor finds the normal
    form (:func:`_normal_form`) and raises ValueError on a map that is not
    a unital injective *-homomorphism.  Given by its multiplicities
    (:meth:`from_multiplicities`), the normal form is given, and the
    matrix is built on first read and then cached.
    """

    def __init__(self, source: MultiMatrixAlgebra, target: MultiMatrixAlgebra,
                 matrix: np.ndarray):
        mat = _freeze(matrix)
        if mat.shape != (target.total_dim, source.total_dim):
            raise ValueError(f"homomorphism matrix has shape {mat.shape}, "
                             f"expected {(target.total_dim, source.total_dim)}")
        self.source = source
        self.target = target
        self.__dict__["matrix"] = mat
        self.unitary, self.multiplicities = _normal_form(source, target, mat)

    @classmethod
    def from_multiplicities(cls, a_blocks: Sequence[int], k) -> StarHomomorphism:
        """The inclusion of A = sum_p M_{a_p} with B block t holding k[t, p]
        copies of A block p, phi(x)_t = sum_p x_p (x) 1_{k_tp}: its normal
        form with every U_t = 1.  B's block sizes are K a.  Raises
        ValueError unless k is a matrix of nonnegative integers with one
        column per A block and no zero row or column.
        """
        source = MultiMatrixAlgebra(tuple(a_blocks))
        k = np.asarray(k)
        if k.ndim != 2 or k.shape[1] != len(source.blocks):
            raise ValueError(f"multiplicities must be a matrix with "
                             f"{len(source.blocks)} columns, got shape {k.shape}")
        mult = k.astype(np.int64)
        if not np.array_equal(mult, k) or np.any(mult < 0):
            raise ValueError("multiplicities must be nonnegative integers")
        _check_injective(mult)
        target = MultiMatrixAlgebra(tuple((mult @ source.blocks).tolist()))
        unitary = np.concatenate([np.eye(m, dtype=complex).ravel() for m in target.blocks])
        mult.flags.writeable = False
        unitary.flags.writeable = False
        hom = cls.__new__(cls)
        hom.source, hom.target = source, target
        hom.unitary, hom.multiplicities = unitary, mult
        return hom

    @cached_property
    def matrix(self) -> np.ndarray:
        """The matrix, read only: as given, or built on first read for a
        homomorphism given by its multiplicities, whose image of e^p_ij in
        B block t is e_ij (x) 1_{k_tp} on corner p, in the normal form's
        (p, i, alpha) column order."""
        pairs = self.pairs
        mat = np.zeros((self.target.total_dim, self.source.total_dim), dtype=complex)
        for g in group_indices(pairs.a, pairs.k):
            a, k = int(pairs.a[g[0]]), int(pairs.k[g[0]])
            i, j, alpha = np.ix_(range(a), range(a), range(k))
            col, m, b_ofs, a_ofs = (v[g, None, None, None] for v in
                                    (pairs.col, pairs.m, pairs.b_ofs, pairs.a_ofs))
            # entry (r, c) of B block t, in row i and column j of copy alpha
            r, c = col + i * k + alpha, col + j * k + alpha
            mat[b_ofs + r * m + c, a_ofs + i * a + j] = 1.0
        mat.flags.writeable = False
        return mat

    @cached_property
    def pairs(self) -> BlockPairs:
        """The block pairs with k_tp > 0, the unit of the batched work."""
        k = self.multiplicities
        a, m = np.asarray(self.source.blocks), np.asarray(self.target.blocks)
        widths = k * a
        t, p = np.nonzero(k)
        return BlockPairs(t, p, m[t], a[p], k[t, p],
                          (np.cumsum(widths, axis=1) - widths)[t, p],
                          (np.cumsum(m * m) - m * m)[t], (np.cumsum(a * a) - a * a)[p])

    def corner_columns(self, idx: np.ndarray, width: int) -> np.ndarray:
        """The first ``width`` columns of the corners of the pairs ``idx``,
        which share one B block size m: shape (len(idx), m, width)."""
        m = int(self.pairs.m[idx[0]])
        start = self.pairs.b_ofs[idx] + self.pairs.col[idx]
        return self.unitary[start[:, None, None] + m * np.arange(m)[:, None]
                            + np.arange(width)]

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.parent.blocks != self.source.blocks:
            raise ValueError("element is not in the source algebra")
        return self.target.from_vector(self.matrix @ x.to_vector())

    def preimage(self, vecs: np.ndarray) -> np.ndarray:
        """Phi* vecs / n, the least-squares preimage of the coefficient
        vector (or columns) ``vecs`` under the matrix Phi.

        The images of A's matrix units are pairwise orthogonal, with
        ||phi(e^p_ij)||^2 = Tr phi(e^p_jj) = sum_t k_tp = n_p, so Phi* Phi
        is diag(n) and Phi* / n is the pseudo-inverse of Phi.
        """
        a = np.asarray(self.source.blocks)
        n = np.repeat(self.multiplicities.sum(axis=0), a * a)
        return (np.asarray(vecs).T @ self.matrix.conj() / n).T


def _normal_form(source: MultiMatrixAlgebra, target: MultiMatrixAlgebra,
                 matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unitary, multiplicities) of the map with this matrix, read only, as
    :class:`StarHomomorphism` holds them.

    The range of the image of e^p_11 in B block t is the multiplicity
    space of A block p there, and the images of e^p_i1 carry it to row
    i of the corner.  Raises ValueError when the map is not a unital,
    injective *-homomorphism, tested as: every U_t is unitary and
    phi(e^p_ij)_t is U_t (e_ij (x) 1) U_t*, read off the corner of p.
    The first failing B block is named.

    The work is batched per size class of B blocks: one eigh of the
    images of every e^p_11 in the class, then one product per shape
    (a_p, k_tp) of the pairs.  A pair with k_tp = 0 has an empty
    corner, so its images must vanish.  Each image is read once.
    """
    a, sizes = np.asarray(source.blocks), np.asarray(target.blocks)
    first = np.cumsum(a * a) - a * a  # the column of e^p_11
    mult = np.zeros((sizes.size, a.size), dtype=np.int64)
    unitary = np.zeros(target.total_dim, dtype=complex)
    failures = []
    for m, rows in target.block_rows:
        ts = np.flatnonzero(sizes == m)
        e11 = matrix[rows[..., None], first].transpose(0, 3, 1, 2)  # (block, p, m, m)
        vals, vecs = np.linalg.eigh((e11 + e11.conj().swapaxes(-1, -2)) / 2)
        k = (vals > 0.5).sum(axis=2)
        mult[ts] = k
        span = k @ a
        u = np.zeros((ts.size, m, m), dtype=complex)
        gaps = np.zeros((2, ts.size))
        # every pair of the blocks whose adapted basis spans, by shape
        b, p = np.nonzero(np.repeat((span == m)[:, None], a.size, axis=1))
        col = (np.cumsum(k * a, axis=1) - k * a)[b, p]
        for g in group_indices(a[p], k[b, p]):
            ag, kg, bg = a[p[g[0]]], k[b[g[0]], p[g[0]]], b[g]
            # images[n, r, c, i, j] is entry (r, c) of phi(e^p_ij)_t
            images = submatrices(matrix, rows[bg, 0, 0], first[p[g]],
                                 m * m, ag * ag).reshape(-1, m, m, ag, ag)
            if kg == 0:
                np.maximum.at(gaps[1], bg, np.abs(images).max(axis=(1, 2, 3, 4)))
                continue
            # corner[:, (r, i), alpha] is phi(e^p_i1)_t times the
            # eigenvector alpha of phi(e^p_11)_t with eigenvalue 1
            corner = (images[..., 0].transpose(0, 1, 3, 2).reshape(-1, m * ag, m)
                      @ vecs[bg, p[g], :, m - kg:])
            u[bg[:, None, None], np.arange(m)[:, None],
              col[g, None, None] + np.arange(ag * kg)] = corner.reshape(-1, m, ag * kg)
            # with U_t unitary, U_t* phi(e^p_ij) U_t = e_ij (x) 1 exactly
            # when phi(e^p_ij)_t is the product of columns (p, i, .) and
            # (p, j, .)*
            own = (corner @ corner.conj().swapaxes(1, 2)).reshape(-1, m, ag, m, ag)
            own -= images.transpose(0, 1, 3, 2, 4)
            np.maximum.at(gaps[1], bg, np.abs(own).max(axis=(1, 2, 3, 4)))
        gaps[0] = np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(m)).max(axis=(1, 2))
        unitary[rows] = u
        # a NaN gap fails too
        bad = np.flatnonzero((span != m) | ~(gaps <= INCLUSION_TOL).all(axis=0))
        if bad.size:
            j = bad[0]
            failures.append((ts[j], _normal_form_failure(ts[j], m, span[j], gaps[:, j])))
    if failures:
        raise ValueError(min(failures)[1])
    _check_injective(mult)
    mult.flags.writeable = False
    unitary.flags.writeable = False
    return unitary, mult


def submatrices(mat: np.ndarray, row0: np.ndarray, col0: np.ndarray,
                rows: int, cols: int) -> np.ndarray:
    """mat[row0[n] + r, col0[n] + c] as an (n, rows, cols) array.  A single
    submatrix is a view, so a large block is not copied."""
    if row0.size == 1:
        return mat[row0[0]:row0[0] + rows, col0[0]:col0[0] + cols][None]
    return mat[row0[:, None, None] + np.arange(rows)[:, None],
               col0[:, None, None] + np.arange(cols)]


def _check_injective(mult: np.ndarray) -> None:
    """Raise ValueError when an A block has no copy in B."""
    missing = np.flatnonzero(mult.sum(axis=0) == 0)
    if missing.size:
        raise ValueError(f"inclusion is not injective: A block {missing[0]} "
                         "has multiplicity 0 in every block of B")


def _normal_form_failure(t: int, m: int, span: int, gaps: np.ndarray) -> str:
    """The message for B block t of size m, whose adapted basis has
    ``span`` columns and the unitarity and e_ij (x) 1 gaps ``gaps``."""
    if span != m:
        return (f"inclusion is not a unital *-homomorphism: B block {t} "
                f"has size {m}, the images of A's minimal projections "
                f"span {span}")
    if not gaps[0] <= INCLUSION_TOL:
        return ("inclusion is not a *-homomorphism: the adapted basis of "
                f"B block {t} fails unitarity by {gaps[0]:.3e}")
    return ("inclusion is not a *-homomorphism: in B block "
            f"{t}, U* phi(e^p_ij) U differs from e_ij (x) 1 by {gaps[1]:.3e}")


@dataclass(frozen=True)
class BlockPairs:
    """The pairs (B block t, A block p) with k_tp > 0, in row-major order
    of K, as parallel arrays: the blocks t and p, their sizes m and a, the
    multiplicity k, the first column ``col`` of corner p in U_t, and the
    offsets of block t in B's and of block p in A's coefficient vectors."""

    t: np.ndarray
    p: np.ndarray
    m: np.ndarray
    a: np.ndarray
    k: np.ndarray
    col: np.ndarray
    b_ofs: np.ndarray
    a_ofs: np.ndarray


def group_indices(*keys: np.ndarray) -> list[np.ndarray]:
    """The positions of the entries that agree on every key (arrays of
    nonnegative ints), one ascending array per distinct value, in
    ascending order of the values."""
    key = keys[0]
    for more in keys[1:]:
        key = key * (int(more.max(initial=0)) + 1) + more
    if key.size and key.min() == key.max():
        return [np.arange(key.size)]
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    ends = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), key.size]
    return [order[s:e] for s, e in zip(ends, ends[1:])] if key.size else []


def identity_homomorphism(algebra: MultiMatrixAlgebra) -> StarHomomorphism:
    return StarHomomorphism.from_multiplicities(algebra.blocks,
                                                np.eye(len(algebra.blocks), dtype=np.int64))


def column_norms(algebra: MultiMatrixAlgebra, cols: np.ndarray) -> np.ndarray:
    """Operator norm of the element held in each coefficient column."""
    worst = np.zeros(cols.shape[1])
    for m, rows in algebra.block_rows:
        ys = cols[rows]
        if m == 1:
            norms = np.abs(ys[:, 0, 0, :])
        else:
            norms = np.linalg.norm(ys.transpose(0, 3, 1, 2), ord=2, axis=(-2, -1))
        worst = np.maximum(worst, norms.max(axis=0))
    return worst


@dataclass(frozen=True)
class TraceWeights:
    """Faithful positive trace tau(x) = sum_t w_t tr(x_t), all w_t finite
    and > 0."""

    algebra: MultiMatrixAlgebra
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.algebra.blocks):
            raise ValueError("one weight per block required")
        # an exact comparison, so an int past the float range is rejected
        if not all(0 < w <= sys.float_info.max for w in self.weights):
            raise ValueError("trace weights must be finite and strictly positive")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    def __call__(self, x: AlgebraElement) -> complex:
        return complex(sum(w * np.trace(m) for w, m in zip(self.weights, x.data)))

    @staticmethod
    def normalized(algebra: MultiMatrixAlgebra) -> TraceWeights:
        """The tracial state with equal block weights summing against dim."""
        n = algebra.rep_dim
        return TraceWeights(algebra, tuple(1.0 / n for _ in algebra.blocks))


def group_algebra_inclusion(n: int, d: int) -> tuple[StarHomomorphism, TraceWeights]:
    """Group algebra of the order-d subgroup of Z/n inside C*(Z/n).

    Both algebras are diagonalized by the Fourier transform: C*(Z/n) is the
    n-block algebra of its characters and the subalgebra is the d-block
    algebra of characters of the order-d subgroup <n/d>.  A character k of
    Z/n restricts to the subgroup character k mod d, so the inclusion sends
    (a_0, ..., a_{d-1}) to (a_{k mod d})_{k < n}; each subalgebra character
    appears n/d times.  The trace weights are the Haar trace, 1/n per
    character.
    """
    if n < 1 or d < 1 or n % d != 0:
        raise ValueError(f"d must divide n, got n={n}, d={d}")
    inclusion = StarHomomorphism.from_multiplicities(
        (1,) * d, np.arange(n)[:, None] % d == np.arange(d))
    return inclusion, TraceWeights(inclusion.target, (1.0 / n,) * n)


def _image_preimage(hom: StarHomomorphism, vecs: np.ndarray, tol: float) -> np.ndarray | None:
    """``hom.preimage(vecs)`` when ``vecs`` (a coefficient vector of the
    target, or a matrix of columns tested together in the Frobenius norm)
    lies in the image of ``hom``, to ``tol`` relative to its norm, and None
    otherwise.  hom.matrix @ hom.preimage is the orthogonal projection onto
    the image."""
    pre = hom.preimage(vecs)
    resid = vecs - hom.matrix @ pre
    if float(np.linalg.norm(resid)) <= tol * max(1.0, float(np.linalg.norm(vecs))):
        return pre
    return None
