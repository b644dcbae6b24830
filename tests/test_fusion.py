import json
import logging
import re
import time
import tracemalloc

import numpy as np
import pytest

from qindex.fusion import (BigradedDims, DimensionVector, FusionModule, FusionRing,
                           MultiplicityFunctor, _associativity_violations,
                           action_functor,
                           check_locally_constant, d_function,
                           equivalence_classes, functor_dims,
                           functor_trace_components, jones_membership,
                           jones_value, module_trace_solve, pf_dimensions,
                           qsystem_degree,
                           standard_solution_components, validate_fusion,
                           validate_module)
from qindex import io as qio
from qindex.generators import (gen_pointed, gen_quotient_module, gen_regular_module,
                               gen_tlj, pointed_elements, pointed_label)

from conftest import golden_ring
from oracles import (equivalence_classes_reference, functor_trace, plancherel_weight,
                     su3_ring, trace_solve_reference, validate_fusion_every_label,
                     words_rank)


def regular_with_trace(n):
    ring, _ = gen_tlj(n)
    module = gen_regular_module(ring)
    dims = pf_dimensions(ring)
    result = module_trace_solve(module, dims)
    assert result.status == "ok"
    return ring, module, dims, result.trace


# -- validation --------------------------------------------------------------

def test_validate_tlj_rings():
    for n in range(3, 41):
        ring, _ = gen_tlj(n)
        assert validate_fusion(ring) == oracle_validate_fusion(ring) == []
        module = gen_regular_module(ring)
        assert validate_module(module) == oracle_validate_module(module) == []


def test_validate_pointed_rings_and_quotient_modules():
    for factors, subgroup in (([2, 2, 2], [(0, 0, 0), (0, 0, 1)]),
                              ([2, 4, 6], [(0, 0, 0), (0, 2, 0), (1, 0, 3), (1, 2, 3)]),
                              ([3, 3], [(0, 0), (1, 1), (2, 2)]),
                              ([12], [(0,), (4,), (8,)])):
        ring = gen_pointed(factors)
        assert validate_fusion(ring) == oracle_validate_fusion(ring) == []
        modules = [gen_quotient_module(ring, factors, subgroup)]
        if ring.rank < 48:  # the regular module's oracle costs r^5
            modules.append(gen_regular_module(ring))
        for module in modules:
            assert validate_module(module) == oracle_validate_module(module) == []


def rep_a4():
    """The representation ring of A4: Z/3 = {1, w, w2}, and 3 with
    3 w = 3 and 3 3 = 1 + w + w2 + 2 3.  A word of 3 is stuck at once:
    3 3 holds two labels, w and w2, that the words of 3 have not reached,
    and it reaches w2 once w joins S."""
    labels = ("1", "3", "w", "w2")
    one, three, w, w2 = range(4)
    tensor = np.zeros((4, 4, 4), dtype=np.int64)
    for a in (one, w, w2):
        for b in (one, w, w2):
            tensor[a, b, (one, w, w2)[((a > 0) * (a - 1) + (b > 0) * (b - 1)) % 3]] = 1
        tensor[a, three, three] = tensor[three, a, three] = 1
    tensor[three, three] = [1, 2, 1, 1]
    return FusionRing(labels, "1", (("1", "1"), ("3", "3"), ("w", "w2"), ("w2", "w")),
                      tensor)


def generating_labels(ring):
    return tuple(ring.labels[i] for i in ring._generators)


def test_generating_set_is_greedy_and_spans_the_ring():
    # 1 generates TLJ(n); a pointed ring needs one label per cyclic factor
    # that the labels before it do not reach
    for n in range(3, 41):
        assert generating_labels(gen_tlj(n)[0]) == ("1",)
    for factors, want in (([2, 2, 2], ("0.0.1", "0.1.0", "1.0.0")),
                          ([2, 4, 6], ("0.0.1", "0.1.0", "1.0.0")),
                          ([3, 3], ("0.1", "1.0")), ([12], ("1",))):
        assert generating_labels(gen_pointed(factors)) == want
    assert generating_labels(rep_a4()) == ("3", "w")
    # over Q, the words of S span the ring, and each label of S adds to
    # the span of the words of those before it
    for ring in [gen_tlj(n)[0] for n in (3, 5, 9)] + [
            gen_pointed(f) for f in ([2, 2, 2], [2, 4], [3, 3])] + [rep_a4()]:
        gens, unit = ring._generators, ring.index(ring.unit)
        ranks = [words_rank(ring.tensor, unit, gens[:k]) for k in range(len(gens) + 1)]
        assert ranks[-1] == ring.rank
        assert all(a < b for a, b in zip(ranks, ranks[1:]))


def test_validate_rep_a4_and_its_corruptions():
    # a word that holds two unreached labels, read again when one is reached
    ring = rep_a4()
    assert validate_fusion(ring) == oracle_validate_fusion(ring) == []
    module = gen_regular_module(ring)
    assert validate_module(module) == oracle_validate_module(module) == []
    assert pf_dimensions(ring).as_dict() == pytest.approx({"1": 1, "3": 3, "w": 1, "w2": 1})
    for bad in single_entry_corruptions(ring.tensor):
        assert validate_fusion(with_tensor(ring, bad)) == \
            oracle_validate_fusion(with_tensor(ring, bad))


def test_su3_words_reach_labels_only_in_combination():
    # 0.1 0.1 = 1.0 + 0.2: over Q the words of 0.1 span SU(3)_k, but each
    # of them holds two or more labels they have not reached, so 0.2 joins
    # S, and its words reach the rest
    rng = np.random.default_rng(7)
    kinds = set()
    for k in (2, 3, 4):
        ring = su3_ring(k)
        assert generating_labels(ring) == ("0.1", "0.2")
        assert words_rank(ring.tensor, ring.index(ring.unit), ring._generators) == ring.rank
        module = gen_regular_module(ring)
        assert validate_fusion(ring) == oracle_validate_fusion(ring) == []
        assert validate_module(module) == oracle_validate_module(module) == []
        for bad in random_corruptions(ring.tensor, rng, 40):
            for got, want in ((validate_fusion(with_tensor(ring, bad)),
                               oracle_validate_fusion(with_tensor(ring, bad))),
                              (validate_module(with_action(module, bad)),
                               oracle_validate_module(with_action(module, bad)))):
                assert got == want
                kinds.update(v.split(":")[0] for v in want)
    assert {"associativity", "mixed associativity"} <= kinds


def test_validate_detects_corrupted_unit():
    ring, _ = gen_tlj(4)
    tensor = np.array(ring.tensor)
    tensor[ring.index("0"), 1, 1] = 0
    broken = FusionRing(ring.labels, ring.unit, ring.dual, tensor)
    problems = validate_fusion(broken)
    assert problems and "unit" in problems[0]


Z2 = gen_pointed([2])


def _no_positive_character():
    # the summed matrix diag(2, 1) is symmetric, and its top eigenvector
    # is zero at the second label
    tensor = np.zeros((2, 2, 2), dtype=np.int64)
    tensor[0] = np.eye(2, dtype=np.int64)
    tensor[1, 0, 0] = 1
    return pf_dimensions(FusionRing(Z2.labels, Z2.unit, Z2.dual, tensor))


def _functor_trace(eta, solved=True):
    _, module, _, trace = regular_with_trace(4)
    functor = (action_functor(module, trace, "0") if solved
               else MultiplicityFunctor(module, functor_dims(module, "0")))
    return functor_trace_components(functor, trace, eta)


@pytest.mark.parametrize("build, message", [
    (lambda: FusionRing(Z2.labels, Z2.unit, Z2.dual, np.zeros((2, 2, 1))),
     "tensor must be 2x2x2"),
    (lambda: FusionRing(Z2.labels, Z2.unit, Z2.dual, -Z2.tensor),
     "multiplicities must be nonnegative"),
    (lambda: FusionModule(Z2, ("a",), Z2.tensor), "action tensor must be 2x1x1"),
    (_no_positive_character,
     "leading eigenvector is not strictly positive; ring admits no positive character"),
    (lambda: BigradedDims(np.zeros((2, 3))), "dims must be a square integer matrix"),
    (lambda: BigradedDims(-np.eye(2)), "dims must be nonnegative"),
    (lambda: _functor_trace({}, solved=False), "functor carries no standard-solution vectors"),
    (lambda: _functor_trace({(0, 0): np.eye(2)}), "eta block at (0, 0) must be 1x1"),
], ids=["tensor-shape", "negative", "action-shape", "no-positive-character", "dims-shape",
        "negative-dims", "no-solution", "eta-shape"])
def test_malformed_fusion_data_is_named(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_a_unit_outside_the_labels_is_a_violation():
    assert validate_fusion(FusionRing(Z2.labels, "x", Z2.dual, Z2.tensor)) == [
        "unit label 'x' is not in the label set"]


def test_validate_pointed_z3():
    assert validate_fusion(gen_pointed([3])) == []


def test_validate_detects_broken_associativity():
    # tamper a single multiplicity of TLJ(5)
    ring, _ = gen_tlj(5)
    tensor = np.array(ring.tensor)
    tensor[1, 1, 2] += 1
    broken = FusionRing(ring.labels, ring.unit, ring.dual, tensor)
    problems = validate_fusion(broken)
    assert problems


# -- validation against the int64 einsum oracle -----------------------------

def oracle_validate_fusion(ring):
    """Independent oracle: r^4 int64 einsums for associativity and a loop
    over all (u, v, w) for reciprocity, with the library's messages."""
    violations = []
    r = ring.rank
    t = ring.tensor
    labels = ring.labels
    if ring.unit not in labels:
        return [f"unit label {ring.unit!r} is not in the label set"]
    dual_map = dict(ring.dual)
    if set(dual_map) != set(labels) or set(dual_map.values()) != set(labels):
        return ["dual involution is not a bijection on the labels"]
    for a in labels:
        if dual_map[dual_map[a]] != a:
            return [f"dual is not an involution at {a!r}"]
    e = ring.index(ring.unit)
    for v in range(r):
        for w in range(r):
            want = 1 if v == w else 0
            if t[e, v, w] != want:
                violations.append(f"unit: N[1,{labels[v]}]^{labels[w]} = {t[e, v, w]}")
            if t[v, e, w] != want:
                violations.append(f"unit: N[{labels[v]},1]^{labels[w]} = {t[v, e, w]}")
            if violations:
                return violations
    lhs = np.einsum("uvx,xwy->uvwy", t, t)
    rhs = np.einsum("vwx,uxy->uvwy", t, t)
    if not np.array_equal(lhs, rhs):
        u, v, w, y = np.argwhere(lhs != rhs)[0]
        return ["associativity: "
                f"({labels[u]},{labels[v]},{labels[w]})->{labels[y]}: "
                f"{lhs[u, v, w, y]} != {rhs[u, v, w, y]}"]
    for u in range(r):
        ubar = ring.index(dual_map[labels[u]])
        for v in range(r):
            want = 1 if v == ubar else 0
            if t[u, v, e] != want:
                return [f"duality: N[{labels[u]},{labels[v]}]^1 = {t[u, v, e]}"]
    for u in range(r):
        ubar = ring.index(dual_map[labels[u]])
        for v in range(r):
            for w in range(r):
                if t[ubar, w, v] != t[u, v, w]:
                    return [f"reciprocity: N[{labels[ubar]},{labels[w]}]^{labels[v]}"
                            f" != N[{labels[u]},{labels[v]}]^{labels[w]}"]
    return violations


def oracle_validate_module(module):
    ring = module.ring
    ring_violations = oracle_validate_fusion(ring)
    if ring_violations:
        return [f"ring: {v}" for v in ring_violations]
    a = module.action
    t = ring.tensor
    if not np.array_equal(a[ring.index(ring.unit)],
                          np.eye(module.size, dtype=np.int64)):
        return ["unit does not act trivially"]
    lhs = np.einsum("uvx,xij->uvij", t, a)
    rhs = np.einsum("vik,ukj->uvij", a, a)
    if not np.array_equal(lhs, rhs):
        u, v, i, j = np.argwhere(lhs != rhs)[0]
        return ["mixed associativity: "
                f"({ring.labels[u]},{ring.labels[v]}) at ({module.labels[i]},"
                f"{module.labels[j]}): {lhs[u, v, i, j]} != {rhs[u, v, i, j]}"]
    for u, lab in enumerate(ring.labels):
        ubar = ring.index(ring.dual_label(lab))
        if not np.array_equal(a[ubar], a[u].T):
            return [f"conjugate transpose law fails at {lab}"]
    return []


def single_entry_corruptions(tensor):
    """Every tensor that differs from ``tensor`` by +-1 in one entry."""
    for idx in np.ndindex(tensor.shape):
        for delta in (1, -1):
            if tensor[idx] + delta >= 0:
                bad = np.array(tensor)
                bad[idx] += delta
                yield bad


def random_corruptions(tensor, rng, count):
    """Tensors with 1 to 3 entries [u, v, w] reset to a value in 0..2,
    where neither u nor v is the unit (index 0), so that most of them get
    past the unit check."""
    r = tensor.shape[0]
    for _ in range(count):
        bad = np.array(tensor)
        for _ in range(rng.integers(1, 4)):
            bad[rng.integers(1, r), rng.integers(1, r),
                rng.integers(0, tensor.shape[2])] = rng.integers(0, 3)
        yield bad


def with_tensor(ring, tensor):
    return FusionRing(ring.labels, ring.unit, ring.dual, tensor)


def with_action(module, action):
    return FusionModule(module.ring, module.labels, action)


def test_validate_fusion_matches_oracle_on_corruptions():
    rings = [gen_tlj(n)[0] for n in range(3, 9)] + [gen_pointed([2, 2]),
                                                    gen_pointed([2, 2, 2])]
    cases = [with_tensor(ring, bad) for ring in rings
             for bad in single_entry_corruptions(ring.tensor)]
    rng = np.random.default_rng(5)
    for ring in (gen_tlj(12)[0], gen_tlj(20)[0], gen_pointed([4, 6])):
        cases += [with_tensor(ring, bad)
                  for bad in random_corruptions(ring.tensor, rng, 40)]
    kinds = set()
    for ring in cases:
        want = oracle_validate_fusion(ring)
        assert validate_fusion(ring) == validate_fusion_every_label(ring) == want
        kinds.update(v.split(":")[0] for v in want)
    assert {"unit", "associativity"} <= kinds


def test_reciprocity_alone_rejects():
    # x (x) x = y, x (x) y = y (x) x = 1 + x, y (x) y = x + y, with y = dual x:
    # unital, associative and dual, but N[y,x]^x = 1 != N[x,x]^x = 0
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    for v in range(3):
        tensor[0, v, v] = tensor[v, 0, v] = 1
    tensor[1, 1, 2] = 1
    tensor[1, 2, 0] = tensor[1, 2, 1] = 1
    tensor[2, 1, 0] = tensor[2, 1, 1] = 1
    tensor[2, 2, 1] = tensor[2, 2, 2] = 1
    ring = FusionRing(("1", "x", "y"), "1",
                      (("1", "1"), ("x", "y"), ("y", "x")), tensor)
    want = ["reciprocity: N[y,x]^x != N[x,x]^x"]
    assert oracle_validate_fusion(ring) == want
    assert validate_fusion(ring) == want


def test_validate_module_matches_oracle_on_corruptions():
    modules = [gen_regular_module(gen_tlj(n)[0]) for n in range(3, 7)]
    modules.append(gen_quotient_module(gen_pointed([2, 2]), [2, 2],
                                       [(0, 0), (1, 0)]))
    modules.append(gen_quotient_module(gen_pointed([2, 2, 2]), [2, 2, 2],
                                       [(0, 0, 0), (0, 0, 1)]))
    cases = [with_action(mod, bad) for mod in modules
             for bad in single_entry_corruptions(mod.action)]
    rng = np.random.default_rng(6)
    cases += [with_action(mod, bad)
              for mod in (gen_regular_module(gen_tlj(12)[0]),
                          gen_regular_module(gen_pointed([4, 6])))
              for bad in random_corruptions(mod.action, rng, 40)]
    kinds = set()
    for mod in cases:
        want = oracle_validate_module(mod)
        assert validate_module(mod) == want
        kinds.update(v.split(":")[0] for v in want)
    assert {"unit does not act trivially", "mixed associativity"} <= kinds


def test_first_violation_outside_the_generating_set_is_found_by_the_rescan():
    # The labels before the first failing one pass, and so does every
    # label their words reach, so the first failing label is in the greedy
    # S.  Handed a generating set without it, the check still names it: a
    # failing generator starts a rescan of every label in order.
    ring = gen_tlj(7)[0]
    labels = ring.labels
    rescanned = 0
    for bad in single_entry_corruptions(ring.tensor):
        want = oracle_validate_fusion(with_tensor(ring, bad))
        if not want or not want[0].startswith("associativity"):
            continue
        first = ring.index(want[0].split("(")[1].split(",")[0])
        assert first in with_tensor(ring, bad)._generators
        others = tuple(u for u in range(ring.rank) if u != first)
        if words_rank(bad, 0, others) < ring.rank:
            continue
        found = _associativity_violations(
            "associativity", bad, bad,
            lambda u, v, w, y: f"({labels[u]},{labels[v]},{labels[w]})->{labels[y]}",
            others)
        assert found == (want, ring.rank)
        rescanned += 1
    assert rescanned > 20


def idempotent_ring(r):
    """1, x_1, ..., x_{r-1} with x_i x_j = delta_ij x_i: associative, and
    no label is a word in the others, so S holds every label but the unit.
    There is no duality, so validation checks associativity, then fails."""
    tensor = np.zeros((r, r, r), dtype=np.int64)
    for v in range(r):
        tensor[0, v, v] = tensor[v, 0, v] = 1
    for i in range(1, r):
        tensor[i, i, i] = 1
    labels = tuple(map(str, range(r)))
    return FusionRing(labels, "0", tuple(zip(labels, labels)), tensor)


def test_every_label_a_generator(caplog):
    ring = idempotent_ring(12)
    assert ring._generators == tuple(range(1, 12))
    with caplog.at_level(logging.INFO, logger="qindex.fusion"):
        assert validate_fusion(ring) == oracle_validate_fusion(ring) == [
            "duality: N[1,1]^1 = 0"]
    assert "11 of 12 labels checked (generating set of 11)" in \
        caplog.records[-1].getMessage()


def test_validation_is_no_slower_when_every_label_is_a_generator():
    # the certificate gives up once it has reached fewer labels than it
    # picked, so here it adds two closures to 47 label checks, against the
    # 48 checks of the validation that ran before it
    certified, every_label = [], []
    for _ in range(5):
        ring = idempotent_ring(48)  # the generating set is cached per ring
        start = time.perf_counter()
        got = validate_fusion(ring)
        certified.append(time.perf_counter() - start)
        start = time.perf_counter()
        want = validate_fusion_every_label(ring)
        every_label.append(time.perf_counter() - start)
        assert got == want
    assert min(certified) <= 1.1 * min(every_label)


def test_exactness_bound_is_a_named_violation():
    ring, _ = gen_tlj(4)
    tensor = np.array(ring.tensor)
    tensor[1, 1, 2] = 2 ** 27
    assert validate_fusion(with_tensor(ring, tensor)) == [
        "exactness bound: associativity sums 3 products of multiplicities "
        f"up to {2 ** 27} x {2 ** 27} = {3 * 2 ** 54} >= 2^53; "
        "too large to check exactly"]
    # a valid ring with a module multiplicity past each of the two bounds
    module = gen_regular_module(ring)
    for big, left in ((2 ** 27, 2 ** 27), (2 ** 52, 1)):
        action = np.array(module.action)
        action[1, 1, 2] = big
        [problem] = validate_module(with_action(module, action))
        assert problem.startswith("exactness bound: mixed associativity sums 3 "
                                  f"products of multiplicities up to {left} x {big}")
    # just below the bound the check runs, and finds the corruption
    tensor = np.array(tensor)
    tensor[1, 1, 2] = 2 ** 25
    [problem] = validate_fusion(with_tensor(ring, tensor))
    assert problem.startswith("associativity:")


def test_float32_products_stop_at_their_exactness_bound():
    # x x = 1 + K y, x y = K x + y, y y = 1 + x + K y is a valid ring for
    # every K; with K = 2^25 its sums reach 2^50, past the 2^24 bound of
    # float32 and below the 2^53 bound of float64
    big = 2 ** 25
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    for v in range(3):
        tensor[0, v, v] = tensor[v, 0, v] = 1
    tensor[1, 1, 0] = tensor[2, 2, 0] = 1
    tensor[1, 1, 2] = tensor[1, 2, 1] = tensor[2, 1, 1] = big
    tensor[1, 2, 2] = tensor[2, 1, 2] = tensor[2, 2, 1] = 1
    tensor[2, 2, 2] = big
    ring = FusionRing(("1", "x", "y"), "1",
                      (("1", "1"), ("x", "x"), ("y", "y")), tensor)
    assert validate_fusion(ring) == []
    assert validate_module(gen_regular_module(ring)) == []
    # N[x,x]^x = 1 moves one sum of size 2^50 by 1
    bad = np.array(tensor)
    bad[1, 1, 1] = 1
    want = [f"associativity: (x,x,y)->y: {big ** 2 + 2} != {big ** 2 + 1}"]
    assert oracle_validate_fusion(with_tensor(ring, bad)) == want
    assert validate_fusion(with_tensor(ring, bad)) == want

    # on the regular module of x x = 1 + K x, an action of x with trace K
    # and determinant -2 is off by the identity: by 1 at K + 1 and K^2 - K + 1
    tensor = np.zeros((2, 2, 2), dtype=np.int64)
    tensor[0] = tensor[1, ::-1] = np.eye(2, dtype=np.int64)
    tensor[1, 1, 1] = big
    module = gen_regular_module(FusionRing(("1", "x"), "1",
                                           (("1", "1"), ("x", "x")), tensor))
    assert validate_module(module) == []
    action = np.array(module.action)
    action[1] = [[1, 1], [big + 1, big - 1]]
    want = [f"mixed associativity: (x,x) at (1,1): {big + 1} != {big + 2}"]
    assert oracle_validate_module(with_action(module, action)) == want
    assert validate_module(with_action(module, action)) == want


def test_validate_module_memory_is_cubic_in_rank(caplog):
    # rank 59: the r^4 int64 tensors of an einsum check take 97 MB each,
    # while the per-label check holds a few r^3 float64 arrays (1.6 MB
    # each); label 1 generates, so it is the one label checked
    module = gen_regular_module(gen_tlj(60)[0])
    tracemalloc.start()
    try:
        with caplog.at_level(logging.INFO, logger="qindex.fusion"):
            assert validate_module(module) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    checked = "1 of 59 labels checked (generating set of 1)"
    assert [checked in rec.getMessage() for rec in caplog.records] == [True, True]


def test_fusion_stages_log_sizes_and_durations(caplog):
    ring, _ = gen_tlj(5)
    module = gen_regular_module(ring)
    with caplog.at_level(logging.INFO, logger="qindex.fusion"):
        assert validate_module(module) == []
        dims = pf_dimensions(ring)
        assert module_trace_solve(module, dims).status == "ok"
    messages = [rec.getMessage() for rec in caplog.records
                if rec.name == "qindex.fusion"]
    checked = r"1 of 4 labels checked \(generating set of 1\)"
    patterns = [rf"validate_fusion: rank 4, {checked}, 0 violations, \d+\.\d{{3}} s",
                rf"validate_module: rank 4, module size 4, {checked}, 0 violations, "
                r"\d+\.\d{3} s",
                r"pf_dimensions: rank 4, character residual \S+, \d+\.\d{3} s",
                r"module_trace_solve: rank 4, module size 4, ok, \d+\.\d{3} s"]
    assert len(messages) == len(patterns)
    for message, pattern in zip(messages, patterns):
        assert re.fullmatch(pattern, message), message


# -- dimensions --------------------------------------------------------------

def test_pf_dimensions_pointed_all_one():
    ring = gen_pointed([5])
    dims = pf_dimensions(ring)
    assert all(abs(dims[lab] - 1.0) <= 1e-12 for lab in ring.labels)


def test_pf_dimensions_tlj5_golden_ratio():
    ring, stated = gen_tlj(5)
    dims = pf_dimensions(ring)
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    assert abs(dims["1"] - phi) <= 1e-10
    # cross-check against the sine-ratio formula
    for a, lab in enumerate(ring.labels):
        want = np.sin((a + 1) * np.pi / 5) / np.sin(np.pi / 5)
        assert abs(dims[lab] - want) <= 1e-10
        assert abs(stated[lab] - want) <= 1e-12


def test_pf_dimensions_tlj4():
    dims = pf_dimensions(gen_tlj(4)[0])
    assert abs(dims["0"] - 1.0) <= 1e-12
    assert abs(dims["1"] - np.sqrt(2.0)) <= 1e-10
    assert abs(dims["2"] - 1.0) <= 1e-10


def test_pf_dimensions_character_equation(rng):
    for n in (4, 6, 9):
        ring, _ = gen_tlj(n)
        dims = pf_dimensions(ring)
        vec = np.array([dims[lab] for lab in ring.labels])
        for u, lab in enumerate(ring.labels):
            resid = ring.tensor[u].astype(float) @ vec - dims[lab] * vec
            assert np.max(np.abs(resid)) <= 1e-10


def test_pf_uniqueness_under_perturbation(rng):
    # the leading eigenvector of sum N_U is simple: no second positive
    # eigenvector exists for the irreducible total matrix
    ring, _ = gen_tlj(6)
    total = np.sum(ring.tensor, axis=0).astype(float)
    evals, evecs = np.linalg.eig(total)
    order = np.argsort(-evals.real)
    lead, second = evals[order[0]].real, evals[order[1]].real
    assert lead > second + 1e-9
    v2 = evecs[:, order[1]].real
    assert np.min(v2) < -1e-9 or np.max(v2) < 0  # not a positive vector


# -- module traces -----------------------------------------------------------

def test_module_trace_regular_reproduces_pf():
    for n in range(3, 13):
        ring, module, dims, trace = regular_with_trace(n)
        for lab in ring.labels:
            assert abs(trace[lab] - dims[lab]) <= 1e-10


def test_module_trace_point_module():
    ring = gen_pointed([2])
    module = gen_quotient_module(ring, [2], [(0,), (1,)])
    assert module.size == 1
    result = module_trace_solve(module, pf_dimensions(ring))
    assert result.status == "ok"
    assert abs(result.trace[module.labels[0]] - 1.0) <= 1e-12


def test_module_trace_decomposable_detected():
    ring, _ = gen_tlj(3)
    base = gen_regular_module(ring).action
    double = np.zeros((ring.rank, 4, 4), dtype=np.int64)
    double[:, :2, :2] = base
    double[:, 2:, 2:] = base
    module = FusionModule(ring, ("a0", "a1", "b0", "b1"), double)
    assert validate_module(module) == []
    result = module_trace_solve(module, pf_dimensions(ring))
    assert result.status == "decomposable"
    assert result.solution_dim == 2


def test_module_trace_no_solution():
    # a fake "module" whose action matrix has the wrong eigenvalue
    ring = gen_pointed([2])
    action = np.zeros((2, 2, 2), dtype=np.int64)
    action[0] = np.eye(2, dtype=np.int64)
    action[1] = 2 * np.eye(2, dtype=np.int64)  # eigenvalue 2 != d = 1
    module = FusionModule(ring, ("x", "y"), action)
    result = module_trace_solve(module, pf_dimensions(ring))
    assert result.status == "no_solution"


def test_module_trace_no_positive_solution():
    # the null space is spanned by (1, 0), which is not strictly positive
    ring = gen_pointed([2])
    action = np.zeros((2, 2, 2), dtype=np.int64)
    action[0] = np.eye(2, dtype=np.int64)
    action[1, 0, 0] = 1
    module = FusionModule(ring, ("x", "y"), action)
    result = module_trace_solve(module, pf_dimensions(ring))
    assert (result.status, result.solution_dim) == ("no_positive_solution", 1)


def direct_sum(*modules):
    """The direct sum of modules of one ring, labels prefixed a, b, ..."""
    ring = modules[0].ring
    m = sum(module.size for module in modules)
    action = np.zeros((ring.rank, m, m), dtype=np.int64)
    start = 0
    for module in modules:
        action[:, start:start + module.size, start:start + module.size] = module.action
        start += module.size
    return FusionModule(ring, [f"{chr(97 + k)}{x}" for k, module in enumerate(modules)
                               for x in module.labels], action)


def trace_solve_cases():
    """Modules of every module_trace_solve status."""
    cases = [gen_regular_module(gen_tlj(n)[0]) for n in range(3, 61)]
    cases += [gen_regular_module(gen_pointed(f)) for f in ([2], [5], [2, 4], [3, 3])]
    z2x4 = gen_pointed([2, 4])
    cases += [gen_quotient_module(z2x4, [2, 4], [(0, 0), (0, 2)]),
              gen_regular_module(rep_a4()),
              direct_sum(gen_quotient_module(z2x4, [2, 4], [(0, 0), (0, 2)]),
                         gen_quotient_module(z2x4, [2, 4], [(0, 0), (1, 0)]))]
    z2 = gen_pointed([2])
    for bottom in ([[1, 0], [0, 0]], [[2, 0], [0, 2]], [[0, 1], [1, 0]]):
        action = np.zeros((2, 2, 2), dtype=np.int64)
        action[0], action[1] = np.eye(2, dtype=np.int64), bottom
        cases.append(FusionModule(z2, ("x", "y"), action))
    # fakes whose summed action [[1,1,0],[1,1,0],[0,0,2]] is symmetric with
    # the eigenspace span{(1,1,0), (0,0,1)} at d(0) + d(1) = 2: in the first
    # (1,1,0) alone solves both labels, in the second nothing does
    for top in ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[1, 1, 0], [0, 0, 0], [0, 0, 0]]):
        action = np.zeros((2, 3, 3), dtype=np.int64)
        action[0] = top
        action[1] = [[1, 1, 0], [1, 1, 0], [0, 0, 2]] - action[0]
        cases.append(FusionModule(z2, ("x", "y", "z"), action))
    regular = gen_regular_module(gen_tlj(6)[0])
    cases.append(direct_sum(regular, regular))
    return cases


def test_module_trace_solve_matches_the_stacked_svd():
    statuses = set()
    for module in trace_solve_cases():
        dims = pf_dimensions(module.ring)
        got, want = module_trace_solve(module, dims), trace_solve_reference(module, dims)
        assert (got.status, got.solution_dim) == (want.status, want.solution_dim)
        statuses.add(got.status)
        if got.trace is not None:
            assert got.trace.as_dict() == pytest.approx(want.trace.as_dict(), rel=1e-12)
    assert statuses == {"ok", "no_solution", "no_positive_solution", "decomposable"}


def test_an_eigenspace_of_the_summed_action_is_cut_down_by_every_label():
    # the fakes of trace_solve_cases: the summed action has a plane at
    # eigenvalue 2, in which one line or none solves both labels
    *_, one, none, _ = trace_solve_cases()
    total = np.sum(one.action, axis=0)
    assert np.array_equal(total, np.sum(none.action, axis=0))
    assert np.sum(np.isclose(np.linalg.eigvalsh(total), 2.0)) == 2
    dims = pf_dimensions(one.ring)
    assert [(g.status, g.solution_dim) for g in (module_trace_solve(one, dims),
                                                 module_trace_solve(none, dims))] == \
        [("no_positive_solution", 1), ("no_solution", 0)]


@pytest.mark.parametrize("n", [106, 128, 150])
def test_large_tlj_dimensions_and_regular_trace_match_the_closed_form(n):
    ring, _ = gen_tlj(n)
    want = np.sin(np.arange(1, n) * np.pi / n) / np.sin(np.pi / n)
    dims = pf_dimensions(ring)
    result = module_trace_solve(gen_regular_module(ring), dims)
    assert result.status == "ok"
    assert np.abs(np.array([dims[lab] for lab in ring.labels]) - want).max() <= 1e-12
    assert np.abs(result.trace.vector() - want).max() <= 1e-12


@pytest.mark.parametrize("k", [10 ** 4, 10 ** 6])
def test_pf_dimensions_are_relative_to_the_scale_of_the_ring(k):
    ring = golden_ring(k)
    assert validate_fusion(ring) == []
    assert pf_dimensions(ring)["x"] == pytest.approx((k + np.sqrt(k * k + 4)) / 2, rel=1e-12)
    # N[1,x]^x = 2 moves only the diagonal of the summed matrix, which stays
    # symmetric; the character equation fails at (1, x) by d(x), 1 / d(x)
    # of its scale
    broken = ring.tensor.copy()
    broken[0, 1, 1] = 2
    with pytest.raises(ValueError, match="character equation fails"):
        pf_dimensions(FusionRing(ring.labels, ring.unit, ring.dual, broken))


def test_summed_matrices_that_are_not_symmetric_are_rejected():
    ring = gen_tlj(5)[0]
    broken = ring.tensor.copy()
    broken[1, 2, 3] += 1
    with pytest.raises(ValueError, match="not symmetric; Frobenius reciprocity fails"):
        pf_dimensions(FusionRing(ring.labels, ring.unit, ring.dual, broken))
    action = ring.tensor.copy()
    action[1, 0, 3] += 1
    module = FusionModule(ring, ring.labels, action)
    assert validate_module(module)
    with pytest.raises(ValueError, match="not symmetric; conjugate transpose law fails"):
        module_trace_solve(module, pf_dimensions(ring))


def test_a_dual_that_moves_the_dimensions_is_rejected():
    # TLJ 4 with the duals of 0 and 1 swapped keeps the character equation,
    # and d(1) = sqrt 2 drifts from d(0) = 1 by (sqrt 2 - 1) / sqrt 2 of max(d)
    r = gen_tlj(4)[0]
    swapped = FusionRing(r.labels, "0", (("0", "1"), ("1", "0"), ("2", "2")), r.tensor)
    with pytest.raises(ValueError,
                       match=re.escape("dimension function not dual-invariant (2.929e-01)")):
        pf_dimensions(swapped)


def test_a_module_trace_is_a_dimension_vector_on_the_module_labels():
    ring = gen_tlj(5)[0]
    module = FusionModule(ring, ("a", "b", "c", "d"), ring.tensor)
    dims = pf_dimensions(ring)
    trace = module_trace_solve(module, dims).trace
    assert isinstance(trace, DimensionVector)
    assert [lab for lab, _ in trace.values] == ["a", "b", "c", "d"]
    assert trace["a"] == 1.0
    assert trace.vector() == pytest.approx(dims.vector(), rel=1e-12)


# -- Plancherel weight -------------------------------------------------------

def test_plancherel_global_dimension_tlj4():
    _, module, _, trace = regular_with_trace(4)
    total = plancherel_weight(trace, {lab: 1.0 for lab in module.labels})
    assert abs(total - 4.0) <= 1e-9


def test_plancherel_indicator():
    _, _, _, trace = regular_with_trace(4)
    assert abs(plancherel_weight(trace, {"0": 1.0}) - 1.0) <= 1e-12


def test_plancherel_pointed_group_order():
    for n in (2, 5, 8):
        ring = gen_pointed([n])
        module = gen_regular_module(ring)
        result = module_trace_solve(module, pf_dimensions(ring))
        total = plancherel_weight(result.trace,
                                  {lab: 1.0 for lab in module.labels})
        assert abs(total - n) <= 1e-9


# -- equivalence classes -----------------------------------------------------

def test_classes_full_ring_connected():
    ring, module, _, _ = regular_with_trace(4)
    assert equivalence_classes(module, ring.labels) == [("0", "1", "2")]


def test_classes_even_part_tlj4():
    _, module, _, _ = regular_with_trace(4)
    assert equivalence_classes(module, ["0", "2"]) == [("0", "2"), ("1",)]


def test_classes_trivial_subring_singletons():
    ring, module, _, _ = regular_with_trace(4)
    assert equivalence_classes(module, ["0"]) == [("0",), ("1",), ("2",)]


def test_classes_rejects_unclosed_subring():
    ring, module, _, _ = regular_with_trace(4)
    with pytest.raises(ValueError):
        equivalence_classes(module, ["0", "1"])  # 1 x 1 contains 2
    # the first escape in subring order: 2 x 2 = 0 + 2 + 4 comes before
    # 1 x 2 = 1 + 3 when the subring lists 2 first
    module = gen_regular_module(gen_tlj(6)[0])
    with pytest.raises(ValueError, match="^subring not closed under fusion: "
                                         "2 x 2 contains 4$"):
        equivalence_classes(module, ["2", "1", "0"])


# -- d_F and local constancy -------------------------------------------------

def test_d_function_identity_functor():
    _, module, _, trace = regular_with_trace(4)
    identity = MultiplicityFunctor(module, BigradedDims(np.eye(3, dtype=np.int64)))
    d_f = d_function(identity, trace)
    assert all(abs(v - 1.0) <= 1e-12 for v in d_f.values())


def test_d_function_action_functor_is_constant_d_u():
    ring, module, dims, trace = regular_with_trace(5)
    for u in ring.labels:
        functor = MultiplicityFunctor(module, functor_dims(module, u))
        d_f = d_function(functor, trace)
        for v in d_f.values():
            assert abs(v - dims[u]) <= 1e-10


def test_d_function_pointed_permutation():
    ring = gen_pointed([2])
    module = gen_regular_module(ring)
    trace = module_trace_solve(module, pf_dimensions(ring)).trace
    # permutation functor: swap the two points
    perm = BigradedDims(np.array([[0, 1], [1, 0]], dtype=np.int64))
    d_f = d_function(MultiplicityFunctor(module, perm), trace)
    assert all(abs(v - 1.0) <= 1e-12 for v in d_f.values())


def test_locally_constant_detects_spread():
    _, module, _, trace = regular_with_trace(4)
    partition = equivalence_classes(module, ["0", "2"])
    # artificial functor scaling the isolated class {1} differently
    scaled = BigradedDims(np.diag([1, 3, 1]).astype(np.int64))
    d_f = d_function(MultiplicityFunctor(module, scaled), trace)
    ok, _ = check_locally_constant(d_f, partition)
    assert ok
    merged = [("0", "1", "2")]
    ok, problems = check_locally_constant(d_f, merged)
    assert not ok and problems


# -- standard solutions ------------------------------------------------------

def test_standard_solution_norms_tlj4():
    _, module, _, trace = regular_with_trace(4)
    sol = standard_solution_components(module, trace, "1")
    i, j = module.index("0"), module.index("1")
    assert abs(sol.norms_r_sq[j, i] - np.sqrt(2.0)) <= 1e-10
    # vanishing component: i = j = 0 has n = 0
    assert sol.norms_r_sq[0, 0] == 0.0
    assert sol.r_vector(0, 0).size == 0


def test_standard_solution_norm_product_squares():
    for n in (4, 5, 7):
        _, module, _, trace = regular_with_trace(n)
        for u in module.ring.labels:
            sol = standard_solution_components(module, trace, u)
            mult = module.action[module.ring.index(u)].T.astype(float)
            prod = sol.norms_r_sq * sol.norms_rbar_sq
            assert np.max(np.abs(prod - mult ** 2)) <= 1e-12


def test_standard_solution_pointed_all_ones():
    ring = gen_pointed([3])
    module = gen_regular_module(ring)
    trace = module_trace_solve(module, pf_dimensions(ring)).trace
    sol = standard_solution_components(module, trace, ring.labels[1])
    nz = sol.norms_r_sq[sol.norms_r_sq > 0]
    assert np.allclose(nz, 1.0, atol=1e-12)
    assert np.allclose(sol.norms_rbar_sq[sol.norms_rbar_sq > 0], 1.0, atol=1e-12)


# -- functor trace -----------------------------------------------------------

def identity_eta(functor):
    dims = functor.dims.dims
    return {(j, i): np.eye(int(dims[j, i]))
            for j in range(dims.shape[0]) for i in range(dims.shape[1])
            if dims[j, i] > 0}


def random_psd_eta(functor, rng):
    dims = functor.dims.dims
    eta = {}
    for j in range(dims.shape[0]):
        for i in range(dims.shape[1]):
            if dims[j, i] > 0:
                k = int(dims[j, i])
                z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                eta[(j, i)] = z @ z.conj().T
    return eta


def test_functor_trace_identity_eta_is_global_dim_times_d():
    ring, module, dims, trace = regular_with_trace(4)
    functor = action_functor(module, trace, "1")
    value = functor_trace(functor, trace, identity_eta(functor))
    global_dim = plancherel_weight(trace, {lab: 1.0 for lab in module.labels})
    assert abs(value - dims["1"] * global_dim.real) <= 1e-9


def test_functor_trace_zero_eta():
    _, module, _, trace = regular_with_trace(4)
    functor = action_functor(module, trace, "1")
    eta = {k: np.zeros_like(v) for k, v in identity_eta(functor).items()}
    assert functor_trace(functor, trace, eta) == 0.0


def test_functor_trace_accepts_rank_one_eta_at_any_scale(rng):
    # the smallest eigenvalue of a rank-one block sits at the rounding
    # floor of its scale, about -1e-8 at 1e8, which a bound of -1e-9 rejected
    ring = rep_a4()
    module = gen_regular_module(ring)
    trace = module_trace_solve(module, pf_dimensions(ring)).trace
    functor = action_functor(module, trace, "3")
    dims = functor.dims.dims
    for scale in (1e8, 1e12):
        for _ in range(50):
            eta = {}
            for j, i in zip(*np.nonzero(dims)):
                v = rng.standard_normal(dims[j, i]) + 1j * rng.standard_normal(dims[j, i])
                eta[(j, i)] = scale * np.outer(v, v.conj())
            left, right, closed = functor_trace_components(functor, trace, eta)
            assert abs(left - closed) <= 1e-9 * closed
            assert abs(right - closed) <= 1e-9 * closed


def test_functor_trace_rejects_small_negative_eta():
    # -1e-10 times the identity passed a bound of -1e-9 and gave a
    # negative trace
    _, module, _, trace = regular_with_trace(6)
    functor = action_functor(module, trace, "1")
    eta = {key: -1e-10 * block for key, block in identity_eta(functor).items()}
    with pytest.raises(ValueError, match="not positive semidefinite"):
        functor_trace_components(functor, trace, eta)


def test_functor_trace_single_block_unit():
    # only the (i0, i0) block of the identity-object functor, trace 1
    _, module, _, trace = regular_with_trace(4)
    functor = action_functor(module, trace, "0")
    value = functor_trace(functor, trace, {(0, 0): np.eye(1)})
    assert abs(value - 1.0) <= 1e-12


def test_functor_trace_insertions_agree_randomized(rng):
    for n in (4, 5):
        ring, module, _, trace = regular_with_trace(n)
        for u in ring.labels:
            functor = action_functor(module, trace, u)
            for _ in range(25):
                eta = random_psd_eta(functor, rng)
                left, right, closed = functor_trace_components(functor, trace, eta)
                scale = max(1.0, abs(closed))
                assert abs(left - closed) <= 1e-9 * scale
                assert abs(right - closed) <= 1e-9 * scale


def test_functor_trace_flags_nonstandard_vectors():
    _, module, _, trace = regular_with_trace(4)
    functor = action_functor(module, trace, "1")
    bad = MultiplicityFunctor(
        module, functor.dims,
        standard_solution_components(module, trace, "1"))
    # tamper one vector: double it
    sol = bad.solution
    doctored = {key: 2.0 * v for key, v in sol.r_vectors.items()}
    from dataclasses import replace
    bad = MultiplicityFunctor(module, functor.dims, replace(sol, r_vectors=doctored))
    with pytest.raises(ValueError):
        functor_trace(bad, trace, identity_eta(functor))


# -- Jones spectrum ----------------------------------------------------------

def test_jones_membership_examples():
    member, witness = jones_membership((3.0 + np.sqrt(5.0)) / 2.0)
    assert member and witness == 5
    member, witness = jones_membership(5.0)
    assert member and witness == "continuum"
    member, witness = jones_membership(3.5)
    assert not member and witness is None
    assert not jones_membership(3.9)[0]


def test_jones_values_increase_to_four():
    values = [jones_value(n) for n in range(3, 65)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 4.0


def test_jones_rejects_nonpositive():
    with pytest.raises(ValueError):
        jones_membership(0.0)


# -- covering degrees --------------------------------------------------------

def test_qsystem_degree_tlj():
    for n in range(3, 10):
        ring, dims = gen_tlj(n)
        assert abs(qsystem_degree(dims, "1") - 4.0 * np.cos(np.pi / n) ** 2) <= 1e-12
        assert abs(qsystem_degree(dims, "0") - 1.0) <= 1e-12


def test_qsystem_degree_pointed():
    ring = gen_pointed([4])
    dims = pf_dimensions(ring)
    for lab in ring.labels:
        assert abs(qsystem_degree(dims, lab) - 1.0) <= 1e-12


def test_constructors_leave_caller_arrays_writeable():
    # a writeable array is copied: the caller may still edit it, and the
    # ring, module or dims do not see the edit
    ring, _ = gen_tlj(4)
    tensor = np.array(ring.tensor)
    copied = FusionRing(ring.labels, ring.unit, ring.dual, tensor)
    tensor[0, 0, 0] = 1
    assert np.array_equal(copied.tensor, ring.tensor)
    module = gen_regular_module(ring)
    action = np.array(module.action)
    copied = FusionModule(ring, module.labels, action)
    action[0, 0, 0] = 1
    assert np.array_equal(copied.action, module.action)
    dims = np.eye(3, dtype=np.int64)
    copied = BigradedDims(dims)
    dims[0, 0] = 2
    assert np.array_equal(copied.dims, np.eye(3))


def test_constructors_keep_frozen_tensors():
    # a read-only C-contiguous int64 array is kept, held as a view that
    # cannot be made writeable: the library's own tensors, a caller's, and
    # the tensors both decoders build
    ring, _ = gen_tlj(5)
    owned = ring.tensor.copy()
    owned.flags.writeable = False
    ring2 = json.loads(qio.ring_to_bytes(ring))
    decoded = (qio._mask_tensor(ring2["N"], ring.rank, "fusion_ring.N"),
               qio._sparse_from_json(json.loads(qio.ring_to_text(ring)), "N", "fusion_ring",
                                     (ring.labels,) * 3, "keys", "target"))
    assert np.shares_memory(gen_regular_module(ring).action, ring.tensor)
    for array in (ring.tensor, owned, owned.view(), *decoded):
        held = (FusionRing(ring.labels, ring.unit, ring.dual, array).tensor,
                FusionModule(ring, ring.labels, array).action)
        for kept in held:
            assert np.shares_memory(kept, array) and not kept.flags.writeable
            with pytest.raises(ValueError):
                kept.flags.writeable = True
    dims = np.eye(3, dtype=np.int64)
    dims.flags.writeable = False
    assert np.shares_memory(BigradedDims(dims).dims, dims)
    # a writeable array, another dtype or a non-contiguous array is copied
    # into a read-only int64 array
    transposed = ring.tensor.transpose(1, 0, 2)  # TLJ fusion is commutative
    frozen32 = ring.tensor.astype(np.int32)
    frozen32.flags.writeable = False
    for other in (ring.tensor.copy(), ring.tensor.astype(np.int32), frozen32, transposed):
        for kept in (FusionRing(ring.labels, ring.unit, ring.dual, other).tensor,
                     FusionModule(ring, ring.labels, other).action):
            assert not np.shares_memory(kept, other) and np.array_equal(kept, ring.tensor)
            assert kept.dtype == np.int64 and kept.flags.c_contiguous
            assert not kept.flags.writeable
    for other in (np.eye(3, dtype=np.int64), np.eye(3), np.eye(3, dtype=np.int64)[:, ::-1]):
        kept = BigradedDims(other).dims
        assert not np.shares_memory(kept, other) and np.array_equal(kept, other)
        assert kept.dtype == np.int64 and kept.flags.c_contiguous and not kept.flags.writeable


def test_a_read_ring_and_its_regular_module_share_one_tensor():
    # ring_from_bytes keeps the tensor it scatters, and the regular module
    # keeps the ring's: a copy of the 59^3 int64 tensor of TLJ 60 would
    # raise either peak by its size
    raw = qio.ring_to_bytes(gen_tlj(60)[0])
    size = 59 ** 3 * 8
    tracemalloc.start()
    try:
        ring = qio.ring_from_bytes(raw)
        held, read_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        module = gen_regular_module(ring)
        module_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_peak < 1.5 * size
    assert module_peak - held < size / 4
    assert np.shares_memory(module.action, ring.tensor)


def test_the_regular_module_does_not_recheck_its_rings_tensor():
    # the ring checked its tensor; an r^3 bool array of TLJ 60 is 205 KB
    ring = gen_tlj(60)[0]
    tracemalloc.start()
    try:
        gen_regular_module(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # a copy with a negative entry is checked, whether it is copied again
    # or kept, read-only
    negative = ring.tensor.copy()
    negative[3, 2, 1] = -1
    kept = negative.copy()
    kept.flags.writeable = False
    for action in (negative, kept):
        with pytest.raises(ValueError, match="action multiplicities must be nonnegative"):
            FusionModule(ring, ring.labels, action)


@pytest.mark.parametrize("n", range(3, 13))
def test_classes_match_union_find_on_tlj(n):
    ring, _ = gen_tlj(n)
    module = gen_regular_module(ring)
    even = [lab for lab in ring.labels if int(lab) % 2 == 0]
    for subring in (even, ["0"], ring.labels):
        assert (equivalence_classes(module, subring)
                == equivalence_classes_reference(module, subring))


def test_classes_are_the_transitive_closure_of_linking():
    # an action that is no module links labels along chains and one way
    # only; the classes are still the components of the linking graph
    rng = np.random.default_rng(23)
    ring = gen_pointed([1])
    for m in range(1, 40):
        action = (rng.random((1, m, m)) < rng.uniform(0, 3 / m)).astype(np.int64)
        module = FusionModule(ring, tuple(str(i) for i in range(m)), action)
        assert (equivalence_classes(module, ["0"])
                == equivalence_classes_reference(module, ["0"]))


def _subgroups(factors):
    """Every subgroup of the group with these factors, as element sets."""
    elements = pointed_elements(factors)

    def closure(gens):
        group = {tuple(0 for _ in factors)}
        while True:
            grown = group | {tuple((a + b) % f for a, b, f in zip(g, h, factors))
                             for g in group for h in gens}
            if grown == group:
                return frozenset(group)
            group = grown

    found = {closure(set())}
    frontier = set(found)
    while frontier:
        frontier = {closure(group | {g}) for group in frontier for g in elements} - found
        found |= frontier
    return sorted(found, key=sorted)


@pytest.mark.parametrize("factors", [[1], [2], [3], [4], [5], [6], [7], [8], [9],
                                     [10], [11], [12], [2, 2], [2, 4], [2, 6],
                                     [3, 3], [4, 3], [2, 2, 2], [2, 2, 3]])
def test_classes_match_union_find_on_pointed(factors):
    ring = gen_pointed(factors)
    subgroups = _subgroups(factors)
    modules = [gen_regular_module(ring)]
    modules += [gen_quotient_module(ring, factors, sub) for sub in subgroups]
    for sub in subgroups:
        subring = [pointed_label(e) for e in sorted(sub)]
        for module in modules:
            assert (equivalence_classes(module, subring)
                    == equivalence_classes_reference(module, subring))
