"""Finite-index sublattices between root and weight lattices.

Everything is exact integer arithmetic in the fundamental-weight basis:
P = Z^r and Q is the column lattice of the Cartan matrix.  The quotient
P/Q is computed by Smith normal form, its subgroups are listed directly
as Hermite normal forms and pulled back to sublattices Q <= Lambda <= P,
and the resulting lattice indices are cross-checked against the Watatani
index of the matching cyclic group-algebra inclusion.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Sequence


__all__ = [
    "CartanData", "FiniteAbelianGroup", "SublatticeSpec", "IrrepLabel",
    "CenterData", "CrosscheckReport", "cartan_data", "standard_cartan_matrix",
    "smith_normal_form", "hermite_normal_form", "center_group",
    "enumerate_subgroups", "classify_subgroups", "irrep_membership",
    "crosscheck_torus_index",
]

log = logging.getLogger("qindex.lattice")

SUPPORTED_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


def standard_cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """The standard Cartan matrix of a simple Lie type."""
    def chain(r):
        m = [[0] * r for _ in range(r)]
        for i in range(r):
            m[i][i] = 2
            if i + 1 < r:
                m[i][i + 1] = -1
                m[i + 1][i] = -1
        return m

    if family == "A":
        if rank < 1:
            raise ValueError("A_r needs r >= 1")
        return chain(rank)
    if family == "B":
        if rank < 2:
            raise ValueError("B_r needs r >= 2")
        m = chain(rank)
        m[rank - 2][rank - 1] = -2
        return m
    if family == "C":
        if rank < 2:
            raise ValueError("C_r needs r >= 2")
        m = chain(rank)
        m[rank - 1][rank - 2] = -2
        return m
    if family == "D":
        if rank < 3:
            raise ValueError("D_r needs r >= 3")
        m = chain(rank)
        m[rank - 2][rank - 1] = 0
        m[rank - 1][rank - 2] = 0
        m[rank - 3][rank - 1] = -1
        m[rank - 1][rank - 3] = -1
        return m
    if family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E supports ranks 6, 7, 8")
        # nodes 1..rank-1 form a chain, the last node attaches to node 3
        m = chain(rank)
        m[rank - 2][rank - 1] = 0
        m[rank - 1][rank - 2] = 0
        m[2][rank - 1] = -1
        m[rank - 1][2] = -1
        return m
    if family == "F":
        if rank != 4:
            raise ValueError("F supports rank 4")
        m = chain(4)
        m[1][2] = -2
        return m
    if family == "G":
        if rank != 2:
            raise ValueError("G supports rank 2")
        return [[2, -1], [-3, 2]]
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class CartanData:
    lie_type: str
    cartan: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        family, rank = _parse_type(self.lie_type)
        want = standard_cartan_matrix(family, rank)
        got = [list(row) for row in self.cartan]
        if got != want:
            raise ValueError(f"matrix does not match the standard Cartan "
                             f"matrix of {self.lie_type}")

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def matrix(self) -> list[list[int]]:
        return [list(row) for row in self.cartan]


def _parse_type(lie_type: str) -> tuple[str, int]:
    s = lie_type.strip().upper().replace("_", "")
    if len(s) < 2 or s[0] not in SUPPORTED_FAMILIES or not s[1:].isdigit():
        raise ValueError(f"cannot parse Lie type {lie_type!r}")
    return s[0], int(s[1:])


def cartan_data(lie_type: str) -> CartanData:
    family, rank = _parse_type(lie_type)
    m = standard_cartan_matrix(family, rank)
    return CartanData(f"{family}{rank}", tuple(tuple(row) for row in m))


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant-factor form d_1 | d_2 | ... with all d_i > 1."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        f = tuple(int(d) for d in self.invariant_factors)
        if any(d < 2 for d in f):
            raise ValueError("invariant factors must be > 1")
        for a, b in zip(f, f[1:]):
            if b % a != 0:
                raise ValueError("divisibility chain violated")
        object.__setattr__(self, "invariant_factors", f)

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


@dataclass(frozen=True)
class CenterData:
    """P/Q with the unimodular transforms of the Smith decomposition.

    ``u @ cartan @ v = diag(divisors)``; the class of a weight x in P/Q is
    (u @ x) mod divisors, and only the coordinates with divisor > 1 carry
    information (they are listed in ``nontrivial``).
    """

    group: FiniteAbelianGroup
    divisors: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    nontrivial: tuple[int, ...]

    def weight_class(self, weight: Sequence[int]) -> tuple[int, ...]:
        """Image of a weight in the invariant-factor coordinates of P/Q."""
        u = [list(r) for r in self.u]
        x = [sum(u[i][j] * int(weight[j]) for j in range(len(weight)))
             for i in range(len(u))]
        return tuple(x[i] % self.divisors[i] for i in self.nontrivial)


@dataclass(frozen=True)
class SublatticeSpec:
    """A sublattice Q <= Lambda <= P in fundamental-weight coordinates.

    ``generators`` is the column Hermite normal form basis of Lambda;
    ``index_in_p`` = [P : Lambda]; ``subgroup`` lists the corresponding
    subgroup of P/Q by its elements in invariant-factor coordinates.
    """

    generators: tuple[tuple[int, ...], ...]
    index_in_p: int
    subgroup: tuple[tuple[int, ...], ...]

    @property
    def subgroup_order(self) -> int:
        return len(self.subgroup)


@dataclass(frozen=True)
class IrrepLabel:
    """Dominant weight in fundamental-weight coordinates."""

    weight: tuple[int, ...]

    def __post_init__(self):
        w = tuple(int(x) for x in self.weight)
        if any(x < 0 for x in w):
            raise ValueError("dominant weights have nonnegative coordinates")
        object.__setattr__(self, "weight", w)


# ---------------------------------------------------------------------------
# Exact integer normal forms
# ---------------------------------------------------------------------------

def smith_normal_form(mat: Sequence[Sequence[int]]
                      ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (u, d, v) with u m v = d.

    u and v are unimodular, d is diagonal with d_1 | d_2 | ...  Exact
    integer arithmetic throughout.
    """
    m = [list(map(int, row)) for row in mat]
    rows, cols = len(m), len(m[0])
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        for k in range(cols):
            m[dst][k] += q * m[src][k]
        for k in range(rows):
            u[dst][k] += q * u[src][k]

    def add_col(src, dst, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # move a smallest nonzero entry of the trailing block to (t, t)
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if m[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                add_row(t, i, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                add_col(t, j, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: fold any non-multiple into the pivot row and retry
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return u, m, v


def hermite_normal_form(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column Hermite normal form of a full-column-span integer matrix.

    Returns the unique lower-triangular column basis with positive
    diagonal and off-diagonal entries reduced modulo the diagonal of the
    same row (0 <= h[i][j] < h[i][i] for j < i after triangularization).
    Zero columns are dropped.
    """
    m = [list(map(int, row)) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0

    # rows above ``row`` are zero in columns >= col, so every column
    # operation runs over rows row..rows-1 only
    col = 0
    for row in range(rows):
        # gcd-reduce the entries of this row across columns col..end
        pivot = None
        for j in range(col, cols):
            if m[row][j] != 0:
                pivot = j
                break
        if pivot is None:
            continue
        below = range(row, rows)
        for j in range(pivot + 1, cols):
            while m[row][j] != 0:
                if abs(m[row][pivot]) > abs(m[row][j]):
                    for i in below:
                        m[i][pivot], m[i][j] = m[i][j], m[i][pivot]
                q = m[row][j] // m[row][pivot]
                for i in below:
                    m[i][j] -= q * m[i][pivot]
        if pivot != col:
            for i in below:
                m[i][pivot], m[i][col] = m[i][col], m[i][pivot]
        if m[row][col] < 0:
            for i in below:
                m[i][col] = -m[i][col]
        # reduce earlier columns against this pivot
        for j in range(col):
            q = m[row][j] // m[row][col]
            if q != 0:
                for i in below:
                    m[i][j] -= q * m[i][col]
        col += 1

    kept = [[m[i][j] for j in range(col)] for i in range(rows)]
    return kept


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Center, subgroups, classification
# ---------------------------------------------------------------------------

def center_group(cartan: CartanData) -> CenterData:
    """P/Q from the Smith normal form of the Cartan matrix."""
    u, d, v = smith_normal_form(cartan.matrix())
    divisors = tuple(d[i][i] for i in range(cartan.rank))
    nontrivial = tuple(i for i, x in enumerate(divisors) if x > 1)
    factors = tuple(divisors[i] for i in nontrivial)
    group = FiniteAbelianGroup(factors) if factors else FiniteAbelianGroup(())
    return CenterData(group, divisors,
                      tuple(tuple(r) for r in u), tuple(tuple(r) for r in v),
                      nontrivial)


def enumerate_subgroups(group: FiniteAbelianGroup,
                        limit: int = 10_000) -> list[tuple[tuple[int, ...], ...]]:
    """All subgroups, each as a tuple of generators in invariant-factor
    coordinates.

    A subgroup of Z^k / diag(d) Z^k is a lattice diag(d) Z^k <= L <= Z^k;
    the lattices are listed directly by their column Hermite normal form
    H, ordered by (det H, H), and the generators are the nonzero columns
    of H mod d.  Refuses groups above ``limit``.
    """
    d = group.invariant_factors
    return [_hnf_generators(h, d) for h in _subgroup_hnfs(group, limit)]


def _subgroup_hnfs(group: FiniteAbelianGroup, limit: int
                   ) -> list[tuple[tuple[int, ...], ...]]:
    """Column HNFs H of the lattices diag(d) Z^k <= L <= Z^k, by (det H, H).

    Every such H has h_ii | d_i and 0 <= h_ij < h_ii for j < i; a candidate
    is kept when each d_j e_j lies in its column lattice (Cohen, GTM 138,
    section 2.4).
    """
    if group.order > limit:
        raise ValueError(f"group order {group.order} exceeds the limit {limit}")
    d = group.invariant_factors
    k = len(d)
    d_cols = [tuple(d[j] if i == j else 0 for i in range(k)) for j in range(k)]
    found = []
    for diag in product(*([x for x in range(1, f + 1) if f % x == 0] for f in d)):
        for rows in product(*(product(range(diag[i]), repeat=i) for i in range(k))):
            h = tuple(rows[i] + (diag[i],) + (0,) * (k - 1 - i) for i in range(k))
            if all(_in_lattice(h, col) for col in d_cols):
                found.append(h)
    return sorted(found, key=lambda h: (prod(h[i][i] for i in range(k)), h))


def _hnf_generators(h, d: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The nonzero columns of h mod d."""
    cols = (tuple(h[i][j] % d[i] for i in range(len(d))) for j in range(len(d)))
    return tuple(c for c in cols if any(c))


def _hnf_elements(h, d: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The sorted elements of L / diag(d) Z^k for the column HNF h of L.

    h is triangular, so y -> h y mod d with 0 <= y_j < d_j / h_jj is a
    bijection onto the subgroup.
    """
    k = len(d)
    return tuple(sorted(
        tuple(sum(h[i][j] * y[j] for j in range(i + 1)) % d[i] for i in range(k))
        for y in product(*(range(d[j] // h[j][j]) for j in range(k)))))


def _in_lattice(h: Sequence[Sequence[int]], w: Sequence[int]) -> bool:
    """Whether w lies in the column lattice of h, which must be lower
    triangular with a positive diagonal (a Hermite normal form of a
    full-rank lattice).

    Exact forward substitution over the integers.
    """
    y: list[int] = []
    for i, row in enumerate(h):
        acc = int(w[i]) - sum(row[j] * y[j] for j in range(i))
        if acc % row[i]:
            return False
        y.append(acc // row[i])
    return True


def classify_subgroups(cartan: CartanData,
                       limit: int = 10_000) -> list[SublatticeSpec]:
    """Sublattices Q <= Lambda <= P for every subgroup of P/Q.

    Each subgroup comes from the Hermite normal form listing of
    ``enumerate_subgroups``; its generators are lifted to weight
    coordinates through u^-1 = C v D^-1 and joined with the Cartan
    columns.  Lambda = P corresponds to the full dual (index 1) and
    Lambda = Q to the minimal finite-index subgroup.  Output is sorted by
    index, then by the Hermite normal form of the generators.
    """
    start = time.perf_counter()
    specs = _classify(cartan, limit)
    log.info("classify_subgroups: %s, %d subgroups, %.3f s", cartan.lie_type,
             len(specs), time.perf_counter() - start)
    return specs


def _classify(cartan: CartanData, limit: int) -> list[SublatticeSpec]:
    center = center_group(cartan)
    c = cartan.matrix()
    r = cartan.rank
    d = center.group.invariant_factors
    # column p of u^-1 = C v D^-1, for each nontrivial Smith coordinate p
    lifts = []
    for p in center.nontrivial:
        col = [sum(c[i][m] * center.v[m][p] for m in range(r)) for i in range(r)]
        assert all(x % center.divisors[p] == 0 for x in col)
        lifts.append([x // center.divisors[p] for x in col])
    roots = [list(col) for col in zip(*c)]
    specs = []
    for h in _subgroup_hnfs(center.group, limit):
        cols = roots + [[sum(g[q] * lifts[q][i] for q in range(len(g)))
                         for i in range(r)] for g in _hnf_generators(h, d)]
        basis = hermite_normal_form([[col[i] for col in cols] for i in range(r)])
        specs.append(SublatticeSpec(tuple(tuple(row) for row in basis),
                                    prod(basis[i][i] for i in range(r)),
                                    _hnf_elements(h, d)))
    specs.sort(key=lambda s: (s.index_in_p, s.generators))
    return specs


def irrep_membership(label: IrrepLabel, spec: SublatticeSpec) -> bool:
    """Whether the irrep with this highest weight factors through Lambda.

    Every weight of the irrep is congruent to the highest weight modulo Q,
    so membership of the class of the highest weight in Lambda/Q decides
    the question; computed by exact triangular solve against the Hermite
    basis of Lambda.
    """
    if len(label.weight) != len(spec.generators):
        raise ValueError("weight has wrong rank")
    return _in_lattice(spec.generators, label.weight)


@dataclass(frozen=True)
class CrosscheckReport:
    n: int
    d: int
    expected_index: int
    index_norm: float
    scalar_index: float
    passed: bool


def crosscheck_torus_index(n: int, d: int) -> CrosscheckReport:
    """Desk model of the torus expectation behind the classification.

    Builds the cyclic group-algebra inclusion of colevel d in C*(Z/n),
    computes the index report of its canonical expectation, and checks
    that the norm of the Watatani index element equals the lattice index
    n/d (within DEFAULT_TOL).
    """
    from .algebra import DEFAULT_TOL, group_algebra_inclusion
    from .expectation import canonical_expectation, compute_index_report

    inclusion, tau = group_algebra_inclusion(n, d)
    report = compute_index_report(canonical_expectation(inclusion, tau))
    expected = n // d
    # scalar_index is the same float as index_norm, so one test covers both
    passed = abs(report.index_norm - expected) <= DEFAULT_TOL
    return CrosscheckReport(n, d, expected, report.index_norm,
                            report.scalar_index, passed)
