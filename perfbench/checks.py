"""Reference checks of CLI reports against analytic values.

``check(cmd, code, stdout)`` classifies one command as
  "ok"     exit code 0 and every reference value matched,
  "failed" an unexpected exit code: the program reported that it could
           not answer,
  "wrong"  exit code 0 but the report is malformed or disagrees with the
           reference: a silent wrong answer.
``self_check`` corrupts reports that passed and confirms that each
corruption is caught, so a checker that accepts everything cannot go
unnoticed.
"""

from __future__ import annotations

import copy
import json
import math
from fractions import Fraction
from functools import lru_cache
from numbers import Real

from inputs import tlj_dims

#: relative tolerance for every floating-point reference value
RTOL = 1e-8


def check(cmd, code, stdout: str) -> tuple[str, str]:
    if code != 0:
        return "failed", f"exit code {code}"
    try:
        problems = _CHECKS[cmd.kind](cmd.ref, json.loads(stdout)["results"])
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as err:
        return "wrong", f"malformed report: {err!r}"
    return ("wrong", "; ".join(problems)) if problems else ("ok", "")


def _finite(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _close(value, want: float, scale: float | None = None) -> bool:
    """|value - want| <= RTOL * scale, with scale defaulting to |want|."""
    return _finite(value) and \
        abs(value - want) <= RTOL * max(abs(want) if scale is None else scale, 1e-300)


# -- index compute -----------------------------------------------------------

def _check_index(ref: dict, res: dict) -> list[str]:
    want = ref["index"]
    problems = [f"{key} = {res.get(key)!r}, expected {want!r}"
                for key in ("index_norm", "scalar_index")
                if not _close(res.get(key), want)]
    lower, upper, scalar = (res.get(k) for k in ("prob_lower", "prob_upper",
                                                  "scalar_index"))
    if not (_finite(scalar) and _close(upper, scalar, want)
            and _finite(lower) and 1.0 - RTOL <= lower <= upper * (1 + RTOL)):
        problems.append(f"Pimsner-Popa interval [{lower!r}, {upper!r}] is not "
                        "[>=1, scalar index]")
    point = ref.get("pp_contains")
    if point is not None and not problems and \
            not lower * (1 - RTOL) <= point <= upper * (1 + RTOL):
        problems.append(f"Pimsner-Popa interval [{lower}, {upper}] misses {point}")
    size = res.get("quasi_basis_size")
    if not isinstance(size, int) or size < 1:
        problems.append(f"quasi_basis_size = {size!r}")
    return problems


# -- fusion ------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tlj_rules(n: int) -> str:
    """Canonical JSON of the truncated SU(2) fusion rules at level n - 2."""
    k = n - 2
    rules = {}
    for a in range(k + 1):
        for b in range(k + 1):
            row = {str(c): 1 for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)}
            if row:
                rules[f"{a},{b}"] = row
    return json.dumps(rules, sort_keys=True)


def _check_dims(got, n: int, what: str) -> list[str]:
    dims = tlj_dims(n)
    if not isinstance(got, dict) or len(got) != len(dims) or \
            not all(_close(got.get(str(a)), d) for a, d in enumerate(dims)):
        return [f"{what} differ from sin((a+1)pi/n)/sin(pi/n)"]
    return []


def _check_trace(trace, n: int) -> list[str]:
    """A module trace of the regular module is proportional to the PF dims."""
    dims = tlj_dims(n)
    if not isinstance(trace, dict) or len(trace) != len(dims) \
            or not _finite(trace.get("0")):
        return ["module trace missing or incomplete"]
    base = trace["0"]
    if not all(_close(trace.get(str(a)), base * d) for a, d in enumerate(dims)):
        return ["module trace is not proportional to the PF dimensions"]
    return []


def _check_generate(ref: dict, res: dict) -> list[str]:
    n = ref["n"]
    ring = res.get("ring") or {}
    labels = [str(a) for a in range(n - 1)]
    problems = _check_dims(res.get("dims"), n, "dims")
    if ring.get("irr") != labels or ring.get("unit") != "0" \
            or ring.get("dual") != {x: x for x in labels}:
        problems.append("ring labels, unit or duals differ from TLJ")
    if json.dumps(ring.get("N"), sort_keys=True) != _tlj_rules(n):
        problems.append("fusion rules differ from truncated SU(2)")
    return problems


def _check_fusion_trace(ref: dict, res: dict) -> list[str]:
    n = ref["n"]
    problems = _check_dims(res.get("ring_dims"), n, "ring_dims")
    if res.get("status") != "ok" or res.get("solution_dim") != 1:
        problems.append(f"status {res.get('status')!r}, "
                        f"solution_dim {res.get('solution_dim')!r}")
    return problems + _check_trace(res.get("trace"), n)


def _check_descent(ref: dict, res: dict) -> list[str]:
    """Even labels link to even labels only, so the classes are the two
    parities; acting by u multiplies every PF dimension by d(u), so
    d_F = d(u) everywhere."""
    n = ref["n"]
    dims = tlj_dims(n)
    problems = _check_trace(res.get("trace"), n)
    classes = res.get("classes")
    parity = {frozenset(str(a) for a in range(p, n - 1, 2)) for p in (0, 1)}
    if not isinstance(classes, list) or {frozenset(c) for c in classes} != parity \
            or len(classes) != 2:
        problems.append("classes are not the even and odd labels")
    functors = res.get("functors")
    if not isinstance(functors, dict) or set(functors) != {str(a) for a in range(n - 1)}:
        return problems + ["functors missing"]
    for u, entry in functors.items():
        d_f = entry.get("d_F") or {}
        if len(d_f) != n - 1 or not all(_close(v, dims[int(u)]) for v in d_f.values()):
            problems.append(f"d_F of {u} is not constantly d({u})")
        if entry.get("locally_constant") is not True or entry.get("violations"):
            problems.append(f"d_F of {u} reported as not locally constant")
    return problems


# -- classification ----------------------------------------------------------

def _cartan(lie_type: str) -> list[list[int]]:
    """Simply-laced Cartan matrices (symmetric) in the labelling of
    docs: A_r a chain; D_r a chain whose last node hangs off node r-3;
    E_r a chain of r-1 nodes plus one node on node 3."""
    family, rank = lie_type[0], int(lie_type[1:])
    edges = [(i, i + 1) for i in range(rank - 1)]
    if family == "D":
        edges[-1] = (rank - 3, rank - 1)
    elif family == "E":
        edges[-1] = (2, rank - 1)
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
    return c


def _center_order(lie_type: str) -> int:
    return {"A": int(lie_type[1:]) + 1, "D": 4, "E": 1}[lie_type[0]]


def _table_indices(lie_type: str) -> list[int]:
    """Indices [P : Lambda] over all subgroups of P/Q, sorted."""
    order = _center_order(lie_type)
    if lie_type[0] == "D":
        return [1, 2, 2, 2, 4]
    return [d for d in range(1, order + 1) if order % d == 0]


def _in_lattice(h: list[list[int]], v: list[int]) -> bool:
    """v in the lattice spanned by the columns of lower-triangular h."""
    y = []
    for i, row in enumerate(h):
        acc = v[i] - sum(row[j] * y[j] for j in range(i))
        if acc % row[i]:
            return False
        y.append(acc // row[i])
    return True


def _check_table(ref: dict, res: dict) -> list[str]:
    lie_type = ref["type"]
    rows = res.get("entries")
    want = _table_indices(lie_type)
    if not isinstance(rows, list) or len(rows) != len(want):
        return [f"{len(rows) if isinstance(rows, list) else rows!r} table rows, "
                f"expected {len(want)} subgroups of P/Q"]
    if [r.get("index") for r in rows] != want:
        return [f"indices {[r.get('index') for r in rows]}, expected {want}"]
    cartan = _cartan(lie_type)
    rank = len(cartan)
    problems = []
    for pos, row in enumerate(rows):
        h = row.get("lattice_generators")
        if not (isinstance(h, list) and len(h) == rank
                and all(h[i][i] > 0 and not any(h[i][i + 1:]) for i in range(rank))):
            problems.append(f"row {pos}: generators are not lower triangular")
            continue
        if math.prod(h[i][i] for i in range(rank)) != row["index"] or \
                row.get("subgroup_order") * row["index"] != _center_order(lie_type):
            problems.append(f"row {pos}: det or subgroup order disagrees with the index")
        if not all(_in_lattice(h, [cartan[i][j] for i in range(rank)]) for j in range(rank)):
            problems.append(f"row {pos}: lattice does not contain the root lattice")
    return problems


def _in_root_lattice(cartan: list[list[int]], weight: list[int]) -> bool:
    """Solve C x = weight over the rationals; the weight is in Q iff x is integral."""
    n = len(cartan)
    a = [[Fraction(x) for x in row] + [Fraction(w)] for row, w in zip(cartan, weight)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return all((a[i][n] / a[i][i]).denominator == 1 for i in range(n))


def _check_irrep(ref: dict, res: dict) -> list[str]:
    """Membership through the weight's congruence class: for A_r it is
    sum_j j*w_j mod r+1 and lies in the subgroup of index i iff i divides
    it; for the other types only P (always) and Q (class 0) are queried."""
    lie_type, weight, sub = ref["type"], ref["weight"], ref["subgroup"]
    indices = _table_indices(lie_type)
    index = {"P": 1, "Q": indices[-1]}.get(sub) or indices[int(sub)]
    if lie_type[0] == "A":
        cls = sum(j * w for j, w in enumerate(weight, start=1)) % _center_order(lie_type)
        member = cls % index == 0
    else:
        member = index == 1 or _in_root_lattice(_cartan(lie_type), weight)
    problems = []
    if res.get("index") != index:
        problems.append(f"index {res.get('index')!r}, expected {index}")
    if res.get("member") is not member:
        problems.append(f"member {res.get('member')!r}, expected {member}")
    return problems


_CHECKS = {"index": _check_index, "fusion-generate": _check_generate,
           "fusion-trace": _check_fusion_trace, "fusion-descent": _check_descent,
           "classify-table": _check_table, "classify-irrep": _check_irrep}


# -- checking the checker ----------------------------------------------------

def _scale(key, factor=1.01):
    def corrupt(res):
        res[key] = res[key] * factor
    corrupt.__name__ = f"scale_{key}"
    return corrupt


def _drop(key):
    def corrupt(res):
        del res[key]
    corrupt.__name__ = f"drop_{key}"
    return corrupt


def _first_trace_entry(res):
    res["trace"]["1"] *= 1.01


def _flip_constancy(res):
    entry = next(iter(res["functors"].values()))
    entry["locally_constant"] = False


def _drop_row(res):
    res["entries"].pop()


def _flip_member(res):
    res["member"] = not res["member"]


#: per command kind, corruptions that the checker must reject
CORRUPTIONS = {
    "index": [_scale("index_norm"), _drop("scalar_index"), _scale("prob_upper")],
    "fusion-generate": [_drop("dims")],
    "fusion-trace": [_drop("trace"), _first_trace_entry],
    "fusion-descent": [_flip_constancy, _drop("trace")],
    "classify-table": [_drop_row],
    "classify-irrep": [_flip_member],
}


def self_check(commands, codes, stdouts) -> list[str]:
    """Corrupt one passing report of each kind; return every corruption,
    and every nonzero exit code, that the checker let through."""
    escaped = []
    seen = set()
    for cmd, code, out in zip(commands, codes, stdouts):
        if cmd.kind in seen or check(cmd, code, out)[0] != "ok":
            continue
        seen.add(cmd.kind)
        if check(cmd, 3, out)[0] != "failed":
            escaped.append(f"{cmd.kind}: exit code 3 accepted")
        report = json.loads(out)
        for corrupt in CORRUPTIONS[cmd.kind]:
            bad = copy.deepcopy(report)
            corrupt(bad["results"])
            if check(cmd, 0, json.dumps(bad))[0] != "wrong":
                escaped.append(f"{cmd.kind}: corruption {corrupt.__name__} accepted")
    return escaped
