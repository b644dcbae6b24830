"""Multiplicity-level engine for fusion rings and tracial module categories.

All structure constants are exact integers; dimension data (Perron-
Frobenius characters, module traces, standard-solution norms) is
double-precision with verification against the defining equations.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "FusionRing", "FusionModule", "DimensionVector", "TraceSolveResult",
    "BigradedDims", "MultiplicityFunctor", "StandardSolution",
    "validate_fusion", "validate_module", "pf_dimensions", "module_trace_solve",
    "equivalence_classes", "functor_dims", "d_function",
    "check_locally_constant", "standard_solution_components",
    "functor_trace_components", "jones_membership",
    "qsystem_degree", "action_functor", "jones_value", "dense_shape",
]

log = logging.getLogger("qindex.fusion")

#: bound on the relative character residual and dual drift of pf_dimensions
CHARACTER_TOL = 1e-10
#: relative eigenvalue window and singular-value threshold of a module trace
NULLITY_RTOL = 1e-10


def dense_shape(r: int, m: int, n: int) -> tuple[int, int, int]:
    """(r, m, n), or a ValueError past 2^24 entries (128 MiB of int64): the bound on
    a multiplicity tensor built dense, r^3 for a ring of rank r, r m^2 for a module."""
    if r * m * n > 2 ** 24:
        raise ValueError(f"a {r} x {m} x {n} multiplicity tensor has {r * m * n} entries, "
                         "more than the 2^24 held dense")
    return r, m, n


def _held(array) -> np.ndarray:
    """A read-only view of ``array`` when it is a read-only C-contiguous
    int64 array, which is kept as given; else of a read-only copy of it."""
    if not (isinstance(array, np.ndarray) and array.dtype == np.int64
            and array.flags.c_contiguous and not array.flags.writeable):
        array = np.array(array, dtype=np.int64, order="C")
        array.flags.writeable = False
    return array.view()


@dataclass(frozen=True)
class FusionRing:
    """Based ring of a rigid C*-tensor category at the multiplicity level.

    ``tensor[u, v, w]`` is the multiplicity of w in u (x) v; ``dual`` is the
    label involution with N_{u v}^{unit} = delta_{v, dual(u)}.

    ``tensor``, like ``FusionModule.action`` and ``BigradedDims.dims``, is
    read-only by contract (``_held``); its ``.base`` is outside it.
    """

    labels: tuple[str, ...]
    unit: str
    dual: tuple[tuple[str, str], ...]
    tensor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _labels(self.labels))
        r = len(self.labels)
        t = _held(self.tensor)
        if t.shape != (r, r, r):
            raise ValueError(f"tensor must be {r}x{r}x{r}")
        if np.any(t < 0):
            raise ValueError("multiplicities must be nonnegative")
        object.__setattr__(self, "tensor", t)
        object.__setattr__(self, "dual", tuple((str(a), str(b)) for a, b in self.dual))

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def dual_label(self, label: str) -> str:
        return self.labels[self._dual_index[self.index(label)]]

    @functools.cached_property
    def _dual_index(self) -> np.ndarray:
        """The index of the dual of each label, in label order."""
        position = dict(zip(self.labels, range(self.rank)))
        dual = dict(self.dual)
        return np.array([position[dual[lab]] for lab in self.labels], dtype=np.intp)

    def n(self, u: str, v: str, w: str) -> int:
        return int(self.tensor[self.index(u), self.index(v), self.index(w)])

    @functools.cached_property
    def _generators(self) -> tuple[int, ...]:
        """The indices of ``_generating_set``, computed once per ring."""
        return _generating_set(self.tensor, self.index(self.unit))


def _labels(labels) -> tuple[str, ...]:
    """Labels as distinct strings.  The sparse JSON maps key entries by
    "U,V" pairs, so a label must not contain a comma."""
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    if any("," in x for x in labels):
        raise ValueError("labels must not contain commas")
    return labels


def _generating_set(tensor: np.ndarray, unit: int) -> tuple[int, ...]:
    """Indices of a set S of labels that generates the ring, picked
    greedily in label order: a label joins S when the words of the labels
    before it do not reach it.

    The word s x of s in S and a label x holds the labels w with
    N_{sx}^w > 0 (x -> s x is x @ N[s]).  The unit is reached, and a label
    is reached when a word s x with x reached holds it and every other
    label in it is reached; so s 1 = s reaches each s in S, as the unit
    laws must hold.  Then a positive multiple of each reached label is an
    integer combination of words of S, so S generates the ring once every
    label is reached, with no arithmetic.  A word that holds two or more
    unreached labels is read again each time a label is reached, so the
    reached labels, and S, depend only on label order.

    Reading the |S| r words costs O(|S| r^2), and spares a check of every
    label they reach.  Once they have reached fewer labels than S holds,
    as on rings in which few labels generate more than themselves, every
    label not yet reached joins S, which then generates the ring with no
    more words.
    """
    r = tensor.shape[0]
    reached = {unit}
    gens: list[int] = []
    stuck: list[set[int]] = []  # the unreached labels of words holding two or more

    def words(by: Iterable[int], xs: Iterable[int]) -> list[set[int]]:
        """The labels of the words s x, s in ``by`` and x in ``xs``."""
        return [set(np.flatnonzero(tensor[s, x]).tolist()) for s in by for x in xs]

    for u in range(r):
        if u in reached:
            continue
        if u - len(gens) < len(gens):  # of the labels before u, the words reached fewer than S
            return (*gens, *(x for x in range(u, r) if x not in reached))
        gens.append(u)
        todo = words([u], reached)
        while todo:
            word = todo.pop() - reached
            if len(word) > 1:
                stuck.append(word)
            elif word:
                reached |= word
                todo += stuck + words(gens, word)
                stuck = []
    return tuple(gens)


def _associativity_violations(what: str, t: np.ndarray, a: np.ndarray,
                              where: Callable[..., str],
                              generators: Sequence[int]) -> tuple[list[str], int]:
    """Exact check of sum_x N_{uv}^x a_{x,i}^j = sum_k a_{v,i}^k a_{u,k}^j,
    with ``t`` = N: mixed associativity of a module, and associativity of
    the ring for a = N.  Returns the violations and the number of labels
    checked.

    The labels u that pass span a subring that holds the unit: if a and b
    pass, so does ab (Light's associativity test; Clifford-Preston, The
    Algebraic Theory of Semigroups I, section 1.2).  For a module this
    needs the ring to be associative and its unit to act trivially, which
    are checked first.  So only the labels of ``generators``, a set S that
    generates the ring, are checked: |S| label checks in place of r.  When
    one of them fails, every label is checked in order, so the first
    violation is the same as when all are.

    Each label u is one pair of products of floating-point copies, as
    (v, (i, j)) and ((v, i), j) matrices.  The sums have r terms up to
    max(N) * max(a) and m terms up to max(a)^2.  Below 2^24 every partial
    sum is an integer that float32 holds exactly, in any order, so the
    copies are float32; below 2^53 they are float64, which holds them
    exactly; above it the violation is ``exactness bound``.  The first
    mismatch is named by ``where(u, v, i, j)``.
    """
    r, m = a.shape[:2]
    big_t = int(t.max())
    big_a = big_t if a is t else int(a.max(initial=0))
    for terms, left, right in ((r, big_t, big_a), (m, big_a, big_a)):
        if terms * left * right >= 2 ** 53:
            return [f"exactness bound: {what} sums {terms} products of "
                    f"multiplicities up to {left} x {right} = {terms * left * right} "
                    ">= 2^53; too large to check exactly"], 0
    exact32 = max(r * big_t * big_a, m * big_a * big_a) < 2 ** 24
    tf = t.astype(np.float32 if exact32 else np.float64)
    af = tf if a is t else a.astype(tf.dtype)

    def mismatch(u: int) -> str | None:
        """The first violation of label u, in (v, i, j) order, or None."""
        lhs = (tf[u] @ af.reshape(r, m * m)).reshape(r, m, m)
        rhs = (af.reshape(r * m, m) @ af[u]).reshape(r, m, m)
        wrong = lhs != rhs
        if not wrong.any():
            return None
        v, i, j = np.argwhere(wrong)[0]
        return f"{what}: {where(u, v, i, j)}: {int(lhs[v, i, j])} != {int(rhs[v, i, j])}"

    if not any(map(mismatch, generators)):
        return [], len(generators)
    u, found = next((u, bad) for u in range(r) if (bad := mismatch(u)))
    return [found], len(set(generators).union(range(u + 1)))


def _conjugation_mismatch(a: np.ndarray, dual_idx: np.ndarray) -> tuple | None:
    """The first (u, i, j) where a_{ubar,j}^i != a_{u,i}^j, or None: the
    conjugate transpose law of a module, and Frobenius reciprocity of the
    ring for a = N.  ``dual_idx[u]`` is the index of ubar."""
    bad = a[dual_idx].transpose(0, 2, 1) != a
    return tuple(np.argwhere(bad)[0]) if bad.any() else None


def validate_fusion(ring: FusionRing) -> list[str]:
    """Exact check of the unit, associativity, and duality axioms.

    Associativity is checked on a set S of labels that generates the ring,
    certified by the labels its words reach (``_generating_set``, |S| r
    words of r entries each): a positive multiple of each label is an
    integer combination of words of S, and the labels that pass form a
    subring of a torsion-free ring, so S passing proves every label does.
    Each label of S costs a pair of r x r by r x r^2 floating-point
    products, so the check costs |S| r^4 in place of r^5 (|S| = 1 for
    TLJ).  They are exact while r * max(N)^2 stays below the bound: float32
    below 2^24, float64 below 2^53, and above 2^53 an ``exactness bound``
    violation.  When a label of S fails, every label is checked in order,
    so the first violation named is the first in label order.  Memory is
    O(r^3).

    Returns an empty list for a valid ring; otherwise the violations in the
    order they were found, each naming the identity and the indices.
    """
    start = time.perf_counter()
    violations, checked = _fusion_violations(ring)
    if log.isEnabledFor(logging.INFO):  # small rings validate in tens of microseconds
        log.info("validate_fusion: rank %d, %s, %d violations, %.3f s", ring.rank,
                 _labels_checked(ring, checked), len(violations),
                 time.perf_counter() - start)
    return violations


def _labels_checked(ring: FusionRing, checked: int) -> str:
    """The log clause of how many labels ran the associativity products."""
    clause = f"{checked} of {ring.rank} labels checked"
    if checked:
        clause += f" (generating set of {len(ring._generators)})"
    return clause


def _fusion_violations(ring: FusionRing) -> tuple[list[str], int]:
    """The violations of ``validate_fusion`` and the number of labels whose
    associativity was checked."""
    violations = []
    r = ring.rank
    t = ring.tensor
    labels = ring.labels
    if ring.unit not in labels:
        return [f"unit label {ring.unit!r} is not in the label set"], 0
    dual_map = dict(ring.dual)
    if set(dual_map) != set(labels) or set(dual_map.values()) != set(labels):
        return ["dual involution is not a bijection on the labels"], 0
    for a in labels:
        if dual_map[dual_map[a]] != a:
            return [f"dual is not an involution at {a!r}"], 0

    # the unit laws at the first (v, w) where either fails
    e = ring.index(ring.unit)
    eye = np.eye(r, dtype=np.int64)
    wrong = (t[e] != eye) | (t[:, e] != eye)
    if wrong.any():
        v, w = np.argwhere(wrong)[0]
        if t[e, v, w] != eye[v, w]:
            violations.append(f"unit: N[1,{labels[v]}]^{labels[w]} = {t[e, v, w]}")
        if t[v, e, w] != eye[v, w]:
            violations.append(f"unit: N[{labels[v]},1]^{labels[w]} = {t[v, e, w]}")
        return violations, 0

    mismatch, checked = _associativity_violations(
        "associativity", t, t,
        lambda u, v, w, y: f"({labels[u]},{labels[v]},{labels[w]})->{labels[y]}",
        ring._generators)
    if mismatch:
        return mismatch, checked

    # Frobenius reciprocity at multiplicity level: N_{ubar w}^v = N_{u v}^w.
    # At w = 1 it is duality, N_{uv}^1 = N_{ubar 1}^v = delta_{v, ubar} by
    # the unit laws, so duality is searched only when reciprocity fails,
    # and its first failure in (u, v) order is named before reciprocity's
    dual_idx = ring._dual_index
    bad = _conjugation_mismatch(t, dual_idx)
    if bad is None:
        return [], checked
    wrong = t[:, :, e] != eye[dual_idx]
    if wrong.any():
        u, v = np.argwhere(wrong)[0]
        return [f"duality: N[{labels[u]},{labels[v]}]^1 = {t[u, v, e]}"], checked
    u, v, w = bad
    ubar = dual_idx[u]
    return [f"reciprocity: N[{labels[ubar]},{labels[w]}]^{labels[v]}"
            f" != N[{labels[u]},{labels[v]}]^{labels[w]}"], checked


@dataclass(frozen=True)
class FusionModule:
    """Module category data: action[u, i, j] = n_{u,i}^j = dim M(j, u (x) i)."""

    ring: FusionRing
    labels: tuple[str, ...]
    action: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _labels(self.labels))
        r = self.ring.rank
        m = len(self.labels)
        a = _held(self.action)
        if a.shape != (r, m, m):
            raise ValueError(f"action tensor must be {r}x{m}x{m}")
        # the ring checked its own tensor, which the regular module holds
        if a.__array_interface__ != self.ring.tensor.__array_interface__ and np.any(a < 0):
            raise ValueError("action multiplicities must be nonnegative")
        object.__setattr__(self, "action", a)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


def validate_module(module: FusionModule) -> list[str]:
    """Exact check of the ring, unit action, mixed associativity, and
    conjugation.

    Mixed associativity is checked as the ring's associativity is, on the
    ring's generating set S, certified by the labels its words reach
    (|S| r m^2 (r + m) products): the labels that pass form a subring once
    the ring is associative and its unit acts trivially, and a positive
    multiple of each label is an integer combination of words of S.  The
    bounds are on r * max(N) * max(n) and m * max(n)^2 (m the module
    size): float32 products below 2^24, float64 below 2^53, and an
    ``exactness bound`` violation above.  Memory is O(r^3 + r m^2).  Ring
    violations are returned prefixed with ``ring:``.
    """
    start = time.perf_counter()
    violations, checked = _module_violations(module)
    if log.isEnabledFor(logging.INFO):
        log.info("validate_module: rank %d, module size %d, %s, %d violations, %.3f s",
                 module.ring.rank, module.size, _labels_checked(module.ring, checked),
                 len(violations), time.perf_counter() - start)
    return violations


def _module_violations(module: FusionModule) -> tuple[list[str], int]:
    """The violations of ``validate_module`` and the number of labels whose
    mixed associativity was checked."""
    ring = module.ring
    ring_violations = validate_fusion(ring)
    if ring_violations:
        return [f"ring: {v}" for v in ring_violations], 0
    a = module.action
    if not np.array_equal(a[ring.index(ring.unit)],
                          np.eye(module.size, dtype=np.int64)):
        return ["unit does not act trivially"], 0
    mismatch, checked = _associativity_violations(
        "mixed associativity", ring.tensor, a,
        lambda u, v, i, j: (f"({ring.labels[u]},{ring.labels[v]}) at "
                            f"({module.labels[i]},{module.labels[j]})"),
        ring._generators)
    if mismatch:
        return mismatch, checked
    bad = _conjugation_mismatch(a, ring._dual_index)
    if bad is not None:
        return [f"conjugate transpose law fails at {ring.labels[bad[0]]}"], checked
    return [], checked


@dataclass(frozen=True)
class DimensionVector:
    """Strictly positive dimension function on a label set."""

    values: tuple[tuple[str, float], ...]

    @functools.cached_property
    def _by_label(self) -> dict[str, float]:
        return dict(self.values)

    def __getitem__(self, label: str) -> float:
        return self._by_label[label]

    def vector(self) -> np.ndarray:
        return np.array([v for _, v in self.values])

    def as_dict(self) -> dict[str, float]:
        return dict(self.values)


def _symmetric_eigh(total: np.ndarray, law: str) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of the integer matrix ``total``, which ``law`` makes symmetric."""
    if not np.array_equal(total, total.T):
        raise ValueError(f"summed multiplicity matrix is not symmetric; {law} fails")
    return np.linalg.eigh(total.astype(float))


def pf_dimensions(ring: FusionRing) -> DimensionVector:
    """The positive character of the ring from its Perron-Frobenius data.

    The dimensions are the top eigenvector of sum_u N_u by ``eigh``, O(r^3):
    Frobenius reciprocity, N_ubar = N_u^T, makes the sum symmetric (checked
    exactly).  Normalized by d(unit) = 1, they are verified against
    sum_w N_{uv}^w d(w) = d(u) d(v) and dual invariance, relative to
    max(d)^2 and max(d), both at least 1; failure raises with the worst
    violation since it means the ring has no positive character to
    CHARACTER_TOL.
    """
    start = time.perf_counter()
    r = ring.rank
    _, evecs = _symmetric_eigh(np.sum(ring.tensor, axis=0), "Frobenius reciprocity")
    v = evecs[:, -1]
    if v[ring.index(ring.unit)] < 0:
        v = -v
    if np.any(v <= 0):
        raise ValueError("leading eigenvector is not strictly positive; "
                         "ring admits no positive character")
    v = v / v[ring.index(ring.unit)]

    # resid[u, x] = sum_w N_{ux}^w d(w) - d(u) d(x), as one (r^2 x r) product
    resid = (ring.tensor.reshape(r * r, r).astype(float) @ v).reshape(r, r) - np.outer(v, v)
    worst = float(np.max(np.abs(resid)) / v.max() ** 2)
    if worst > CHARACTER_TOL:
        raise ValueError(f"character equation fails by {worst:.3e}; "
                         "no positive character at this accuracy")
    dual_drift = np.abs(v[ring._dual_index] - v).max() / v.max()
    if dual_drift > CHARACTER_TOL:
        raise ValueError(f"dimension function not dual-invariant ({dual_drift:.3e})")
    log.info("pf_dimensions: rank %d, character residual %.3e, %.3f s",
             r, worst, time.perf_counter() - start)
    return DimensionVector(tuple(zip(ring.labels, map(float, v))))


@dataclass(frozen=True)
class TraceSolveResult:
    """Outcome of module_trace_solve.

    status is one of "ok", "no_solution", "no_positive_solution",
    "decomposable" (solution space dimension > 1).  When it is "ok",
    ``trace`` is the module trace m: a dimension function on the module's
    labels with sum_j n_{u,i}^j m(j) = d(u) m(i), and m = 1 at the first
    label.
    """

    status: str
    trace: DimensionVector | None
    solution_dim: int


def module_trace_solve(module: FusionModule, ring_dims: DimensionVector) -> TraceSolveResult:
    """Solve the simultaneous eigenvector equations A_u m = d(u) m.

    The conjugate transpose law, A_ubar = A_u^T, makes S = sum_u A_u
    symmetric (checked exactly), and each solution is an eigenvector of S
    at sum_u d(u).  Every label's equations are stacked on the k, usually
    1, eigenvectors of ``eigh(S)`` there, and the SVD of that (r m) x k
    stack gives the solutions, both to NULLITY_RTOL: O(m^3 + r m^2 k) for a
    module of size m.  A unique (up to scale) strictly positive solution
    gives the module trace; none, an indefinite one, or several (the
    module is decomposable) are reported as distinct failures.
    """
    start = time.perf_counter()
    result = _trace_solve(module, ring_dims)
    log.info("module_trace_solve: rank %d, module size %d, %s, %.3f s",
             module.ring.rank, module.size, result.status,
             time.perf_counter() - start)
    return result


def _trace_solve(module: FusionModule, ring_dims: DimensionVector) -> TraceSolveResult:
    d = np.array([ring_dims[lab] for lab in module.ring.labels])
    evals, evecs = _symmetric_eigh(np.sum(module.action, axis=0), "conjugate transpose law")
    target = float(d.sum())
    scale = max(1.0, target, float(np.abs(evals).max(initial=0.0)))
    span = evecs[:, np.abs(evals - target) <= NULLITY_RTOL * scale]
    stacked = (module.action @ span - d[:, None, None] * span).reshape(d.size * module.size, -1)
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    nullity = int(np.sum(svals <= NULLITY_RTOL * scale))
    if nullity != 1:
        return TraceSolveResult("no_solution" if nullity == 0 else "decomposable",
                                None, nullity)
    v = span @ vh[-1]
    v = v / v[int(np.argmax(np.abs(v)))]
    if np.any(v <= NULLITY_RTOL):
        return TraceSolveResult("no_positive_solution", None, 1)
    trace = DimensionVector(tuple(zip(module.labels, map(float, v / v[0]))))
    return TraceSolveResult("ok", trace, 1)


def equivalence_classes(module: FusionModule,
                        subring: Iterable[str]) -> list[tuple[str, ...]]:
    """Partition of the module labels under linking by the subring.

    i ~ j when some u in the subring has n_{u,j}^i != 0; the relation is
    symmetric by the conjugate transpose law once the subring is closed
    under duals, and the returned partition is its transitive closure.
    Raises if the subring is not closed under duals and fusion.
    """
    ring = module.ring
    sub = list(dict.fromkeys(subring))
    for u in sub:
        if u not in ring.labels:
            raise ValueError(f"unknown ring label {u!r}")
        if ring.dual_label(u) not in sub:
            raise ValueError(f"subring not closed under duals at {u!r}")
    idx = [ring.index(u) for u in sub]
    outside = np.ones(ring.rank, dtype=bool)
    outside[idx] = False
    # first (u, v, w) in subring order for u, v and label order for w
    escapes = np.argwhere((ring.tensor[np.ix_(idx, idx)] != 0) & outside)
    if escapes.size:
        a, b, w = escapes[0]
        raise ValueError(f"subring not closed under fusion: "
                         f"{sub[a]} x {sub[b]} contains {ring.labels[w]}")

    linked = np.any(module.action[idx] != 0, axis=0)
    linked = linked | linked.T | np.eye(module.size, dtype=bool)
    # each label takes the smallest label linked to it until none changes,
    # and then holds the smallest member of its class
    first = np.arange(module.size)
    while True:
        grown = np.where(linked, first, module.size).min(axis=1)
        if np.array_equal(grown, first):
            break
        first = grown
    classes: dict[int, list[str]] = {}
    for k, lab in zip(first.tolist(), module.labels):
        classes.setdefault(k, []).append(lab)
    return [tuple(c) for c in classes.values()]


@dataclass(frozen=True)
class BigradedDims:
    """Integer dimensions of an irrM x irrM graded family of Hilbert spaces."""

    dims: np.ndarray

    def __post_init__(self):
        d = _held(self.dims)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("dims must be a square integer matrix")
        if np.any(d < 0):
            raise ValueError("dims must be nonnegative")
        object.__setattr__(self, "dims", d)


@dataclass(frozen=True)
class MultiplicityFunctor:
    """An endofunctor of a module category at the multiplicity level.

    ``dims[j, i]`` is dim M(j, F(i)).  When the functor is the action by a
    ring object, standard-solution vectors are attached for trace
    computations.
    """

    module: FusionModule
    dims: BigradedDims
    solution: "StandardSolution | None" = None


def functor_dims(module: FusionModule, u: str) -> BigradedDims:
    """Bigraded dims of the action-by-u functor: dims[j, i] = n_{u,i}^j."""
    return BigradedDims(module.action[module.ring.index(u)].T)


def action_functor(module: FusionModule, trace: DimensionVector,
                   u: str) -> MultiplicityFunctor:
    return MultiplicityFunctor(module, functor_dims(module, u),
                               standard_solution_components(module, trace, u))


def d_function(functor: MultiplicityFunctor, trace: DimensionVector) -> dict[str, float]:
    """d_F(i) = d(F(i)) / d(i) = sum_j dims[j, i] m(j) / m(i)."""
    m = trace.vector()
    dims = functor.dims.dims.astype(float)
    vals = (dims.T @ m) / m
    return {lab: float(v) for lab, v in zip(functor.module.labels, vals)}


def check_locally_constant(d_f: Mapping[str, float],
                           partition: Sequence[Sequence[str]],
                           tol: float = 1e-9) -> tuple[bool, list[str]]:
    """True iff d_F is constant within tol on every class of the partition."""
    problems = []
    for cls in partition:
        vals = [d_f[i] for i in cls]
        spread = max(vals) - min(vals)
        if spread > tol:
            problems.append(f"class {tuple(cls)} has spread {spread:.3e}")
    return (not problems), problems


@dataclass(frozen=True)
class StandardSolution:
    """Standard conjugate-solution data of an action functor, per (j, i).

    norms_r_sq[j, i]    = (m(j)/m(i)) n_{u,i}^j  (squared norm of R_ji)
    norms_rbar_sq[j, i] = (m(i)/m(j)) n_{u,i}^j  (squared norm of Rbar_ji)

    The explicit vectors realize each component as a scaled maximally
    entangled vector over an orthonormal basis pair of the multiplicity
    spaces M(i, ubar j) and M(j, u i); R_ji lives in their tensor product
    in that order, Rbar_ji in the opposite order.  ``r_vectors`` and
    ``rbar_vectors`` map each (j, i) with n_{u,i}^j != 0 to R_ji and Rbar_ji.
    """

    norms_r_sq: np.ndarray
    norms_rbar_sq: np.ndarray
    r_vectors: Mapping[tuple[int, int], np.ndarray]
    rbar_vectors: Mapping[tuple[int, int], np.ndarray]

    def r_vector(self, j: int, i: int) -> np.ndarray:
        return self.r_vectors.get((j, i), np.zeros(0, dtype=complex))

    def rbar_vector(self, j: int, i: int) -> np.ndarray:
        return self.rbar_vectors.get((j, i), np.zeros(0, dtype=complex))


def standard_solution_components(module: FusionModule, trace: DimensionVector,
                                 u: str) -> StandardSolution:
    """Component norms and explicit vectors of the standard solution.

    The product norms_r_sq * norms_rbar_sq equals (n_{u,i}^j)^2 entrywise.
    """
    mvals = trace.vector()
    action = module.action[module.ring.index(u)]
    size = module.size
    nr = np.zeros((size, size))
    nrbar = np.zeros((size, size))
    r_vecs = {}
    rbar_vecs = {}
    for i in range(size):
        for j in range(size):
            mult = int(action[i, j])
            if mult == 0:
                continue
            ratio = mvals[j] / mvals[i]
            nr[j, i] = ratio * mult
            nrbar[j, i] = mult / ratio
            ent = np.eye(mult, dtype=complex).ravel() / np.sqrt(mult)
            r_vecs[j, i] = np.sqrt(nr[j, i]) * ent
            rbar_vecs[j, i] = np.sqrt(nrbar[j, i]) * ent
    return StandardSolution(nr, nrbar, r_vecs, rbar_vecs)


def functor_trace_components(functor: MultiplicityFunctor, trace: DimensionVector,
                             eta: Mapping[tuple[int, int], np.ndarray],
                             ) -> tuple[float, float, float]:
    """Left insertion, right insertion, and closed-form functor trace.

    eta maps (j, i) to a PSD matrix on the multiplicity space M(j, F(i)):
    its Hermitian defect and its smallest eigenvalue are checked against
    1e-9 times its largest absolute entry, so a zero block passes.
    The left value is omega(R* (id (x) eta) R) evaluated with the explicit
    standard vectors, the right value the mirrored insertion through Rbar,
    and the closed form is sum_{ij} m(i) m(j) tr(eta_{ji}).
    """
    if functor.solution is None:
        raise ValueError("functor carries no standard-solution vectors")
    sol = functor.solution
    mvals = trace.vector()
    dims = functor.dims.dims
    left = 0.0
    right = 0.0
    closed = 0.0
    for (j, i), block in eta.items():
        mult = int(dims[j, i])
        block = np.asarray(block, dtype=complex)
        if block.shape != (mult, mult):
            raise ValueError(f"eta block at {(j, i)} must be {mult}x{mult}")
        if mult == 0:
            continue
        tol = 1e-9 * float(np.max(np.abs(block)))
        if float(np.max(np.abs(block - block.conj().T))) > tol or \
                float(np.linalg.eigvalsh(block)[0]) < -tol:
            raise ValueError(f"eta block at {(j, i)} is not positive semidefinite")
        tr_eta = float(np.real(np.trace(block)))
        closed += mvals[i] * mvals[j] * tr_eta

        # R_ji in M(i, ubar j) (x) M(j, u i): eta acts on the second factor
        r = sol.r_vector(j, i).reshape(mult, mult)
        left += mvals[i] ** 2 * float(np.real(
            np.sum(r.conj() * (r @ block.T))))
        # Rbar_ji in M(j, u i) (x) M(i, ubar j): eta acts on the first factor
        rbar = sol.rbar_vector(j, i).reshape(mult, mult)
        right += mvals[j] ** 2 * float(np.real(
            np.sum(rbar.conj() * (block @ rbar))))
    return left, right, closed


def jones_value(n: int) -> float:
    """The Jones number 4 cos^2(pi/n)."""
    return float(4.0 * np.cos(np.pi / n) ** 2)


def jones_membership(d: float, tol: float = 1e-9) -> tuple[bool, int | str | None]:
    """Membership of d in {4 cos^2(pi/n) : n >= 3} union [4, infinity).

    Returns (True, n) for a discrete-series match within tol, (True,
    "continuum") for d >= 4 - tol, and (False, None) for values in the
    gaps below 4.  The candidate n is found by inverting the strictly
    increasing map n -> 4 cos^2(pi/n), so arbitrarily large witnesses near
    the accumulation point 4 are still detected.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if d < 4.0:
        n_real = np.pi / np.arccos(np.sqrt(d) / 2.0)
        candidates = range(max(3, int(np.floor(n_real)) - 1),
                           int(np.ceil(n_real)) + 2)
        best = min(candidates, key=lambda n: abs(d - jones_value(n)))
        if abs(d - jones_value(best)) <= tol:
            return True, best
    if d >= 4.0 - tol:
        return True, "continuum"
    return False, None


def qsystem_degree(ring_dims: DimensionVector, label: str) -> float:
    """Covering degree d(X)^2 of the canonical extension built on X."""
    return float(ring_dims[label] ** 2)
