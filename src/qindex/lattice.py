"""Finite-index sublattices between root and weight lattices.

Everything is exact integer arithmetic in the fundamental-weight basis:
P = Z^r and Q is the row lattice of the Cartan matrix, whose row i is the
simple root alpha_i (a_ij = <alpha_i, alpha_j^vee>).  A Cartan datum is
given by its Lie type alone, and P/Q by its invariant factors and its
class map, both read off the Smith normal form of the transposed Cartan
matrix.  The subgroups H of P/Q are listed directly as Hermite normal
forms, and each is pulled back along the class map P -> P/Q to a sublattice
Q <= Lambda <= P.  The Hermite basis of Lambda is read off the finite
quotient P/Lambda = (P/Q)/H, so only matrices with as many rows as P/Q
has invariant factors are reduced.  The resulting lattice indices are
cross-checked against the Watatani index of the matching cyclic
group-algebra inclusion.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
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
#: the largest group order whose subgroups are enumerated
SUBGROUP_LIMIT = 10_000


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
    """A simple Lie type, such as "A2" or "e_8"; the name is normalised and
    ``cartan`` is its standard Cartan matrix."""

    lie_type: str
    cartan: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        family, rank = _parse_type(self.lie_type)
        object.__setattr__(self, "lie_type", f"{family}{rank}")
        object.__setattr__(self, "cartan", tuple(
            tuple(row) for row in standard_cartan_matrix(family, rank)))

    @property
    def rank(self) -> int:
        return len(self.cartan)


def _parse_type(lie_type: str) -> tuple[str, int]:
    s = lie_type.strip().upper().replace("_", "")
    if len(s) < 2 or s[0] not in SUPPORTED_FAMILIES or not s[1:].isdigit():
        raise ValueError(f"cannot parse Lie type {lie_type!r}")
    return s[0], int(s[1:])


cartan_data = CartanData


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
        return prod(self.invariant_factors)


@dataclass(frozen=True)
class CenterData:
    """P/Q and its class map.

    ``u`` holds the rows of the Smith row transform that belong to the
    invariant factors of ``group``: the class of a weight x in P/Q is
    (u @ x) mod ``group.invariant_factors``.
    """

    group: FiniteAbelianGroup
    u: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SublatticeSpec:
    """A sublattice Q <= Lambda <= P in fundamental-weight coordinates.

    ``generators`` is the column Hermite normal form basis of Lambda;
    ``subgroup`` lists the corresponding subgroup of P/Q by its elements
    in invariant-factor coordinates.
    """

    generators: tuple[tuple[int, ...], ...]
    subgroup: tuple[tuple[int, ...], ...]

    @property
    def index_in_p(self) -> int:
        """[P : Lambda], the product of the Hermite diagonal."""
        return prod(row[i] for i, row in enumerate(self.generators))

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

def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Smith normal form with its row transform: returns (u, d) with
    u m v = d for some v.

    u and v are unimodular, d is diagonal with d_1 | d_2 | ...  Exact
    integer arithmetic throughout.
    """
    m = [list(map(int, row)) for row in mat]
    rows, cols = len(m), len(m[0])
    u = _identity(rows)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        for k in range(cols):
            m[dst][k] += q * m[src][k]
        for k in range(rows):
            u[dst][k] += q * u[src][k]

    def add_col(src, dst, q):
        for row in m:
            row[dst] += q * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # move a smallest nonzero entry of the trailing block to (t, t); the
        # first one found wins ties, so the scan may stop at an entry of 1
        pivot, least = None, 0
        for i in range(t, rows):
            for j in range(t, cols):
                a = abs(m[i][j])
                if a and (pivot is None or a < least):
                    pivot, least = (i, j), a
                    if a == 1:
                        break
            if least == 1:
                break
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
        if m[t][t] == 1:
            t += 1
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
    return u, m


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
    """P/Q from the Smith normal form of the transposed Cartan matrix,
    whose columns are the simple roots."""
    u, d = smith_normal_form([list(c) for c in zip(*cartan.cartan)])
    kept = [i for i in range(cartan.rank) if d[i][i] > 1]
    return CenterData(FiniteAbelianGroup(tuple(d[i][i] for i in kept)),
                      tuple(tuple(u[i]) for i in kept))


def enumerate_subgroups(group: FiniteAbelianGroup) -> list[tuple[tuple[int, ...], ...]]:
    """All subgroups, each as a tuple of generators in invariant-factor
    coordinates.

    A subgroup of Z^k / diag(d) Z^k is a lattice diag(d) Z^k <= L <= Z^k;
    the lattices are listed directly by their column Hermite normal form
    H, ordered by (det H, H), and the generators are the nonzero columns
    of H mod d.  Refuses groups above ``SUBGROUP_LIMIT``.
    """
    start = time.perf_counter()
    d = group.invariant_factors
    subgroups = [_hnf_generators(h, d) for h in _subgroup_hnfs(group)]
    log.info("enumerate_subgroups: order %d, %d subgroups, %.3f s", group.order,
             len(subgroups), time.perf_counter() - start)
    return subgroups


def _subgroup_hnfs(group: FiniteAbelianGroup) -> list[tuple[tuple[int, ...], ...]]:
    """Column HNFs H of the lattices diag(d) Z^k <= L <= Z^k, by (det H, H).

    Every such H has h_ii | d_i and 0 <= h_ij < h_ii for j < i; a candidate
    is kept when each d_j e_j lies in its column lattice (Cohen, GTM 138,
    section 2.4).
    """
    if group.order > SUBGROUP_LIMIT:
        raise ValueError(f"group order {group.order} exceeds the limit {SUBGROUP_LIMIT}")
    d = group.invariant_factors
    k = len(d)
    d_cols = [tuple(d[j] if i == j else 0 for i in range(k)) for j in range(k)]
    found = []
    for diag in product(*([x for x in range(1, f + 1) if f % x == 0] for f in d)):
        for rows in product(*(product(range(diag[i]), repeat=i) for i in range(k))):
            h = tuple(rows[i] + (diag[i],) + (0,) * (k - 1 - i) for i in range(k))
            if not any(any(_coset_rep(col, h)) for col in d_cols):
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


def classify_subgroups(cartan: CartanData) -> list[SublatticeSpec]:
    """Sublattices Q <= Lambda <= P for every subgroup of P/Q.

    Each subgroup H comes from the Hermite normal form listing of
    ``enumerate_subgroups``, and Lambda is its preimage under the class
    map P -> P/Q.  The Hermite basis of Lambda is read off the finite
    quotient P/Lambda = (P/Q)/H, one weight coordinate at a time (see
    ``_preimage_hnf``), with no elimination on r x r integer matrices.
    Lambda = P corresponds to the full dual (index 1) and Lambda = Q to the
    minimal finite-index subgroup.  Output is sorted by index, then by the
    Hermite normal form of the generators.
    """
    start = time.perf_counter()
    specs = _classify(cartan)
    log.info("classify_subgroups: %s, %d subgroups, %.3f s", cartan.lie_type,
             len(specs), time.perf_counter() - start)
    return specs


def _classify(cartan: CartanData) -> list[SublatticeSpec]:
    center = center_group(cartan)
    d = center.group.invariant_factors
    # the class of e_i in P/Q: column i of u
    classes = [tuple(row[i] % f for row, f in zip(center.u, d)) for i in range(cartan.rank)]
    specs = (SublatticeSpec(_preimage_hnf(h, classes), _hnf_elements(h, d))
             for h in _subgroup_hnfs(center.group))
    return sorted(specs, key=lambda s: (s.index_in_p, s.generators))


def _preimage_hnf(h, classes: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Column HNF of Lambda = {x in Z^r : sum_i x_i classes[i] in L}, where
    L is the column lattice of the k x k Hermite form h and contains
    diag(d) Z^k.

    Z^r / Lambda = Z^k / L.  Let N_i = L + span(classes[i:]).  The part of
    Lambda supported on coordinates >= i has index det L / det N_i in that
    coordinate space, so the diagonal entry is b_ii = det N_{i+1} / det N_i,
    and N_i / N_{i+1} is cyclic of order b_ii, generated by classes[i].
    Column i is b_ii e_i + sum_{j > i} c_j e_j with 0 <= c_j < b_jj: the
    c_j are the digits of -b_ii classes[i] in N_{i+1} / L, taken from
    j = i + 1 upward, each one a lookup of a coset representative modulo
    N_{j+1}.  Only k-row matrices are put in Hermite form, and at most
    log2 [P : Lambda] of the b_ii exceed 1.
    """
    r, k = len(classes), len(h)
    lattice = [list(row) for row in h]
    det = prod(h[a][a] for a in range(k))
    diag = [1] * r
    digits = {}  # j with b_jj > 1 -> (N_{j+1}, {coset rep of c classes[j]: c})
    for i in reversed(range(r)):
        if det == 1:
            break
        if not any(_coset_rep(classes[i], lattice)):
            continue
        wider = hermite_normal_form([row + [classes[i][a]] for a, row in enumerate(lattice)])
        wider_det = prod(wider[a][a] for a in range(k))
        diag[i] = det // wider_det
        digits[i] = (lattice, {_coset_rep([c * x for x in classes[i]], lattice): c
                               for c in range(diag[i])})
        lattice, det = wider, wider_det
    steps = sorted(digits)
    basis = [[0] * r for _ in range(r)]
    for i in range(r):
        basis[i][i] = diag[i]
        target = [-diag[i] * x for x in classes[i]]
        for j in steps:
            if j <= i:
                continue
            below, table = digits[j]
            c = table[_coset_rep(target, below)]
            basis[j][i] = c
            target = [t - c * x for t, x in zip(target, classes[j])]
    return tuple(tuple(row) for row in basis)


def _coset_rep(x: Sequence[int], h: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The representative of x + L with 0 <= x_a < h_aa, for the column
    Hermite form h of a full-rank lattice L; it is zero exactly when x
    lies in L."""
    x = list(x)
    for a, row in enumerate(h):
        q = x[a] // row[a]
        if q:
            for b in range(a, len(h)):
                x[b] -= q * h[b][a]
    return tuple(x)


def irrep_membership(label: IrrepLabel, spec: SublatticeSpec) -> bool:
    """Whether the irrep with this highest weight factors through Lambda.

    Every weight of the irrep is congruent to the highest weight modulo Q,
    so membership of the class of the highest weight in Lambda/Q decides
    the question; it is decided by reducing the highest weight against the
    Hermite basis of Lambda, which must be square and lower triangular
    with a positive diagonal.
    """
    start = time.perf_counter()
    h = spec.generators
    r = len(h)
    if any(len(row) != r or row[i] <= 0 or any(row[i + 1:]) for i, row in enumerate(h)):
        raise ValueError("lattice generators must be square and lower triangular "
                         "with a positive diagonal")
    if len(label.weight) != r:
        raise ValueError("weight has wrong rank")
    member = not any(_coset_rep(label.weight, h))
    log.info("irrep_membership: rank %d, %s, %.3f s", r,
             "member" if member else "not a member", time.perf_counter() - start)
    return member


@dataclass(frozen=True)
class CrosscheckReport:
    n: int
    d: int
    expected_index: int
    index_norm: float
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
    passed = abs(report.index_norm - expected) <= DEFAULT_TOL
    return CrosscheckReport(n, d, expected, report.index_norm, passed)
