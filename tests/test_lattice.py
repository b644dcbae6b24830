import logging
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qindex.lattice
from qindex.lattice import (CartanData, FiniteAbelianGroup, IrrepLabel,
                            SublatticeSpec, cartan_data, center_group,
                            classify_subgroups, crosscheck_torus_index,
                            enumerate_subgroups, hermite_normal_form,
                            irrep_membership, smith_normal_form,
                            standard_cartan_matrix)

from oracles import classify_reference, smith_normal_form_reference, weight_class


EXPECTED_CENTERS = {
    "A1": (2,), "A2": (3,), "A3": (4,), "A4": (5,),
    "B2": (2,), "B4": (2,), "C3": (2,), "C4": (2,),
    "D3": (4,), "D4": (2, 2), "D5": (4,), "D6": (2, 2),
    "E6": (3,), "E7": (2,), "E8": (), "F4": (), "G2": (),
}


def _det(mat):
    """Exact integer determinant by Gaussian elimination over the rationals:
    the independent reference of the SNF and HNF tests."""
    m = [[Fraction(int(x)) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] / inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    assert det.denominator == 1
    return int(det)


def close(gens, factors):
    """The subgroup of Z/factors generated by gens, as a set of elements."""
    seen = {tuple(0 for _ in factors)}
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        for h in list(seen):
            s = tuple((a + b) % f for a, b, f in zip(g, h, factors))
            if s not in seen:
                seen.add(s)
                frontier.append(s)
        seen.add(g)
    return frozenset(seen)


def brute_force_subgroups(factors):
    """Independent oracle: close every generator set of size <= rank."""
    if not factors:
        return {frozenset({()})}
    elements = [tuple(e) for e in product(*(range(f) for f in factors))]
    subgroups = {close([], factors)}
    rank = len(factors)
    for size in range(1, rank + 1):
        for gens in combinations(elements, size):
            subgroups.add(close(list(gens), factors))
    return subgroups


# -- normal forms ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_smith_normal_form_properties(mat):
    n = len(mat)
    u, d = smith_normal_form(mat)
    u_ref, d_ref, v = smith_normal_form_reference(mat)
    assert (u, d) == (u_ref, d_ref)

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    assert matmul(matmul(u, mat), v) == d
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1
    diag = [d[i][i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert all(x >= 0 for x in diag)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.integers(-3, 3)), max_size=8))))
def test_hermite_normal_form_column_invariance(data):
    mat, ops = data
    n = len(mat)
    if _det(mat) == 0:
        return
    h1 = hermite_normal_form(mat)
    moved = [row[:] for row in mat]
    for a, b, k in ops:
        if a == b:
            continue
        for i in range(n):
            moved[i][a] += k * moved[i][b]
    assert hermite_normal_form(moved) == h1
    for i in range(n):
        assert h1[i][i] > 0
        for j in range(i + 1, n):
            assert h1[i][j] == 0
        for j in range(i):
            assert 0 <= h1[i][j] < h1[i][i]


# -- Cartan data and centers --------------------------------------------------

def test_cartan_determinants_match_center_orders():
    expected_det = {"A": lambda r: r + 1, "B": lambda r: 2, "C": lambda r: 2,
                    "D": lambda r: 4, "F": lambda r: 1, "G": lambda r: 1}
    for family, rmin, rmax in [("A", 1, 8), ("B", 2, 8), ("C", 2, 8), ("D", 3, 8)]:
        for r in range(rmin, rmax + 1):
            mat = standard_cartan_matrix(family, r)
            assert _det(mat) == expected_det[family](r)
    assert _det(standard_cartan_matrix("E", 6)) == 3
    assert _det(standard_cartan_matrix("E", 7)) == 2
    assert _det(standard_cartan_matrix("E", 8)) == 1
    assert _det(standard_cartan_matrix("F", 4)) == 1
    assert _det(standard_cartan_matrix("G", 2)) == 1


def test_center_groups():
    for lie_type, factors in EXPECTED_CENTERS.items():
        center = center_group(cartan_data(lie_type))
        assert center.group.invariant_factors == factors, lie_type
        assert center.group.order == _det(cartan_data(lie_type).cartan)


def test_cartan_data_is_its_type():
    assert CartanData(" a_2") == cartan_data("A2")
    assert cartan_data("A2").lie_type == "A2"
    for lie_type in ("A2", "B3", "C3", "D5", "E8", "F4", "G2"):
        cartan = cartan_data(lie_type)
        want = standard_cartan_matrix(lie_type[0], int(lie_type[1:]))
        assert cartan.cartan == tuple(map(tuple, want)), lie_type
    with pytest.raises(TypeError):
        CartanData("A2", ((2, -2), (-1, 2)))
    with pytest.raises(ValueError):
        cartan_data("H4")
    with pytest.raises(ValueError) as err:
        standard_cartan_matrix("H", 3)
    assert str(err.value) == "unknown family 'H'"


@pytest.mark.parametrize("factors, message", [
    ((1,), "invariant factors must be > 1"), ((2, 3), "divisibility chain violated"),
])
def test_invariant_factors_must_form_a_divisibility_chain(factors, message):
    with pytest.raises(ValueError) as err:
        FiniteAbelianGroup(factors)
    assert str(err.value) == message


# -- subgroup enumeration ----------------------------------------------------

def test_enumerate_small_groups():
    assert len(enumerate_subgroups(FiniteAbelianGroup((4,)))) == 3
    assert len(enumerate_subgroups(FiniteAbelianGroup((2, 2)))) == 5
    assert enumerate_subgroups(FiniteAbelianGroup(())) == [()]
    # three factors, and a non-elementary pair; counts from the oracle above
    for factors, count in (((2, 2, 2), 16), ((2, 2, 4), 27), ((6, 12), 48)):
        subs = enumerate_subgroups(FiniteAbelianGroup(factors))
        assert len(subs) == count, factors
        assert len({close(gens, factors) for gens in subs}) == count, factors


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4]), min_size=0, max_size=2))
def test_enumerate_matches_brute_force(raw):
    # massage into a divisibility chain
    factors = []
    for f in sorted(raw):
        if not factors or f % factors[-1] == 0:
            factors.append(f)
        else:
            factors.append(factors[-1] * f)
    group = FiniteAbelianGroup(tuple(factors)) if factors else FiniteAbelianGroup(())
    got = len(enumerate_subgroups(group))
    want = len(brute_force_subgroups(tuple(factors)))
    assert got == want


def test_enumerate_respects_limit():
    with pytest.raises(ValueError, match="group order 20014 exceeds the limit 10000"):
        enumerate_subgroups(FiniteAbelianGroup((10007 * 2,)))


# -- classification ----------------------------------------------------------

def test_classify_subgroups_logs_type_count_and_duration(caplog):
    with caplog.at_level(logging.INFO, logger="qindex.lattice"):
        classify_subgroups(cartan_data("D4"))
    [message] = [rec.getMessage() for rec in caplog.records
                 if rec.name == "qindex.lattice"]
    assert re.fullmatch(r"classify_subgroups: D4, 5 subgroups, \d+\.\d{3} s", message)


def test_enumerate_subgroups_logs_order_count_and_duration(caplog):
    with caplog.at_level(logging.INFO, logger="qindex.lattice"):
        enumerate_subgroups(FiniteAbelianGroup((2, 2)))
    [message] = [rec.getMessage() for rec in caplog.records
                 if rec.name == "qindex.lattice"]
    assert re.fullmatch(r"enumerate_subgroups: order 4, 5 subgroups, \d+\.\d{3} s", message)


def test_irrep_membership_logs_rank_verdict_and_duration(caplog):
    specs = classify_subgroups(cartan_data("A1"))
    with caplog.at_level(logging.INFO, logger="qindex.lattice"):
        irrep_membership(IrrepLabel((1,)), specs[-1])
        irrep_membership(IrrepLabel((2,)), specs[-1])
    messages = [rec.getMessage() for rec in caplog.records
                if rec.name == "qindex.lattice"]
    assert len(messages) == 2
    assert re.fullmatch(r"irrep_membership: rank 1, not a member, \d+\.\d{3} s", messages[0])
    assert re.fullmatch(r"irrep_membership: rank 1, member, \d+\.\d{3} s", messages[1])


SIMPLE_TYPES = ([f"A{r}" for r in range(1, 65)] + [f"B{r}" for r in range(2, 17)]
                + [f"C{r}" for r in range(2, 17)] + [f"D{r}" for r in range(3, 25)]
                + ["E6", "E7", "E8", "F4", "G2"])


def test_classify_matches_elimination_reference():
    for lie_type in SIMPLE_TYPES:
        cartan = cartan_data(lie_type)
        assert classify_subgroups(cartan) == classify_reference(cartan), lie_type


def test_classify_puts_only_k_row_matrices_in_hermite_form(monkeypatch):
    """The quotient construction reduces k x (k + 1) matrices, k the number
    of invariant factors of P/Q, never the r-row Cartan elimination."""
    shapes = []

    def counting(mat):
        shapes.append((len(mat), len(mat[0])))
        return hermite_normal_form(mat)

    monkeypatch.setattr(qindex.lattice, "hermite_normal_form", counting)
    for lie_type in ("A1", "A23", "A59", "D8", "D9", "E6", "E7", "E8"):
        k = len(center_group(cartan_data(lie_type)).group.invariant_factors)
        shapes.clear()
        classify_subgroups(cartan_data(lie_type))
        assert all(shape == (k, k + 1) for shape in shapes), (lie_type, shapes)
        assert bool(shapes) == (k > 0), lie_type  # P = Q leaves nothing to reduce


def test_classification_tables():
    want = {
        "A1": [1, 2],
        "A3": [1, 2, 4],
        "D4": [1, 2, 2, 2, 4],
        "E6": [1, 3],
        "E8": [1],
    }
    for lie_type, indices in want.items():
        specs = classify_subgroups(cartan_data(lie_type))
        assert [s.index_in_p for s in specs] == indices, lie_type
        # bijectivity with the subgroup enumeration, HNF keys distinct
        center = center_group(cartan_data(lie_type))
        assert len(specs) == len(enumerate_subgroups(center.group))
        assert len({s.generators for s in specs}) == len(specs)


def test_classification_contains_q_and_p():
    for lie_type in ("A2", "B3", "C3", "D5", "E7"):
        cartan = cartan_data(lie_type)
        specs = classify_subgroups(cartan)
        order = center_group(cartan).group.order
        indices = [s.index_in_p for s in specs]
        assert min(indices) == 1
        assert max(indices) == order
        for spec in specs:
            assert spec.index_in_p * spec.subgroup_order == order
            # Q <= Lambda: every simple root, a Cartan row, solves integrally
            for root in cartan.cartan:
                assert _lattice_contains(spec.generators, root)


@pytest.mark.parametrize("lie_type", [f"{f}{r}" for f in "BC" for r in range(2, 9)])
def test_fundamental_weights_in_the_root_lattice_of_b_and_c(lie_type):
    # Bourbaki's tables, independent of how the Cartan matrix is read:
    # omega_i of B_r is in Q iff i < r (omega_r is the spin representation),
    # and omega_i of C_r is in Q iff i is even (-1 in Sp(2r) acts by (-1)^i)
    family, rank = lie_type[0], int(lie_type[1:])
    q_spec = max(classify_subgroups(cartan_data(lie_type)), key=lambda s: s.index_in_p)
    for i in range(1, rank + 1):
        omega = IrrepLabel(tuple(int(k == i) for k in range(1, rank + 1)))
        assert irrep_membership(omega, q_spec) == (i < rank if family == "B" else i % 2 == 0), i


def test_subgroup_is_closure_of_lattice_generator_classes():
    types = [f"A{r}" for r in range(1, 8)] + ["D4", "D5", "D6", "E6", "E7"]
    for lie_type in types:
        center = center_group(cartan_data(lie_type))
        factors = center.group.invariant_factors
        for spec in classify_subgroups(cartan_data(lie_type)):
            classes = [weight_class(center, col) for col in zip(*spec.generators)]
            want = close(classes, factors)
            assert set(spec.subgroup) == want, (lie_type, spec)
            assert list(spec.subgroup) == sorted(want)


def _lattice_contains(generators, vector):
    h = [list(r) for r in generators]
    n = len(h)
    y = [Fraction(0)] * n
    for i in range(n):
        acc = Fraction(int(vector[i]))
        for j in range(i):
            acc -= h[i][j] * y[j]
        if h[i][i] == 0:
            if acc != 0:
                return False
            continue
        y[i] = acc / h[i][i]
    return all(x.denominator == 1 for x in y)


def test_index_multiplicativity_on_chains():
    for lie_type in ("A3", "D4"):
        specs = classify_subgroups(cartan_data(lie_type))
        for s1 in specs:
            for s2 in specs:
                cols2 = list(zip(*s2.generators))
                if all(_lattice_contains(s1.generators, c) for c in cols2):
                    # s2 <= s1: [P:s2] = [P:s1] * [s1:s2]
                    relative = s2.index_in_p // s1.index_in_p
                    assert s1.index_in_p * relative == s2.index_in_p
                    assert s2.index_in_p % s1.index_in_p == 0


def test_irrep_membership_a1():
    specs = classify_subgroups(cartan_data("A1"))
    q_spec = max(specs, key=lambda s: s.index_in_p)
    p_spec = min(specs, key=lambda s: s.index_in_p)
    assert irrep_membership(IrrepLabel((2,)), q_spec)      # adjoint
    assert not irrep_membership(IrrepLabel((1,)), q_spec)  # fundamental
    assert irrep_membership(IrrepLabel((0,)), q_spec)      # trivial
    assert irrep_membership(IrrepLabel((1,)), p_spec)


def test_irrep_membership_coherence(rng):
    for lie_type in ("A3", "D4", "E6"):
        cartan = cartan_data(lie_type)
        specs = classify_subgroups(cartan)
        p_spec = min(specs, key=lambda s: s.index_in_p)
        r = cartan.rank
        for spec in specs:
            members = []
            for _ in range(40):
                w = tuple(int(x) for x in rng.integers(0, 5, size=r))
                assert irrep_membership(IrrepLabel(w), p_spec)
                if irrep_membership(IrrepLabel(w), spec):
                    members.append(w)
            for a in members[:6]:
                for b in members[:6]:
                    s = tuple(x + y for x, y in zip(a, b))
                    assert irrep_membership(IrrepLabel(s), spec)


def test_irrep_membership_rejects_malformed_generators():
    label = IrrepLabel((1, 1))
    for generators in (((1, 0), (0, 0)),      # zero on the diagonal
                       ((1, 0), (0, -2)),     # negative diagonal
                       ((1, 1), (0, 1)),      # not lower triangular
                       ((1, 0), (0,)),        # ragged
                       ((1, 0, 0), (0, 1, 0))):  # not square
        spec = SublatticeSpec(generators, ((0,),))
        with pytest.raises(ValueError, match="lower triangular with a positive diagonal"):
            irrep_membership(label, spec)
    with pytest.raises(ValueError) as err:
        irrep_membership(IrrepLabel((1,)), SublatticeSpec(((1, 0), (0, 1)), ((0,),)))
    assert str(err.value) == "weight has wrong rank"


def test_irrep_label_rejects_negative():
    with pytest.raises(ValueError):
        IrrepLabel((1, -1))


# -- cross-module coherence ---------------------------------------------------

def test_crosscheck_examples():
    assert crosscheck_torus_index(4, 2).passed
    assert crosscheck_torus_index(1, 1).passed
    report = crosscheck_torus_index(6, 2)
    assert report.passed and report.expected_index == 3
