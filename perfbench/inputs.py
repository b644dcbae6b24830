"""Seeded inputs for the two benchmark workloads.

``build(workload, seed, workdir)`` writes every spec file the workload
needs into ``workdir`` and returns the fixed command list of one pass.
Each command carries the analytic reference its report is checked
against (see checks.py).  Spec files follow docs/formats.md and are
built here with numpy alone, so input generation does not run the
program under test.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("large", "many")

#: largest inclusion size allowed in index-many, D = sum of squared B blocks
MANY_MAX_DIM = 64
#: number of random multimatrix inclusions in index-many
MANY_RANDOM = 50
#: trace weights of the wide half span ratios up to 10**WIDE_DECADES
WIDE_DECADES = 8.0
#: seed of the one fixed draw of index-many's inclusion shapes
MANY_SHAPE_SEED = 0


@dataclass
class Command:
    """One CLI invocation with the reference its report must match.

    ``kind`` selects the check in checks.py; ``ref`` holds the analytic
    values that check needs.
    """

    argv: list[str]
    kind: str
    ref: dict = field(default_factory=dict)


# -- spec files --------------------------------------------------------------

def _pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _inclusion_matrix(a_blocks, k, unitaries) -> np.ndarray:
    """Coefficient matrix of the unital inclusion with multiplicities k[t, p].

    B block t holds k[t, p] copies of A block p down its diagonal,
    conjugated by ``unitaries[t]``; columns are the images of A's matrix
    units in row-major block order.
    """
    b_blocks = [int(sum(k[t, p] * a_blocks[p] for p in range(len(a_blocks))))
                for t in range(k.shape[0])]
    cols = []
    for p, a in enumerate(a_blocks):
        for i in range(a):
            for j in range(a):
                parts = []
                for t, m in enumerate(b_blocks):
                    block = np.zeros((m, m), dtype=complex)
                    ofs = sum(k[t, q] * a_blocks[q] for q in range(p))
                    for _ in range(int(k[t, p])):
                        block[ofs + i, ofs + j] = 1.0
                        ofs += a
                    u = unitaries[t]
                    parts.append((u @ block @ u.conj().T).ravel())
                cols.append(np.concatenate(parts))
    return np.stack(cols, axis=1)


def _gns_projection(incl: np.ndarray, b_blocks, weights) -> np.ndarray:
    """The trace-preserving expectation: orthogonal projection onto the
    image of A in <x, y> = sum_t w_t tr(x_t* y_t)."""
    w = np.concatenate([np.full(m * m, wt) for m, wt in zip(b_blocks, weights)])
    gram = incl.conj().T @ (w[:, None] * incl)
    return incl @ np.linalg.solve(gram, incl.conj().T * w[None, :])


def index_reference(k: np.ndarray, weights) -> float:
    """Norm of the Watatani index element of the trace-preserving
    expectation: max over B blocks t of (K K^T w)_t / w_t."""
    w = np.asarray(weights, dtype=float)
    return float(np.max((k @ (k.T @ w)) / w))


def _index_spec(a_blocks, k, weights, rng, explicit_map: bool) -> dict:
    b_blocks = [int(sum(k[t, p] * a_blocks[p] for p in range(len(a_blocks))))
                for t in range(k.shape[0])]
    unitaries = [_haar_unitary(m, rng) if rng is not None else np.eye(m)
                 for m in b_blocks]
    incl = _inclusion_matrix(a_blocks, k, unitaries)
    spec = {"inclusion": {"source": {"blocks": [int(a) for a in a_blocks]},
                          "target": {"blocks": b_blocks},
                          "matrix": _pairs(incl)},
            "trace_weights": [float(x) for x in weights]}
    if explicit_map:
        spec["map"] = _pairs(_gns_projection(incl, b_blocks, weights))
    return spec


def _write(workdir: str, name: str, payload: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _index_command(path: str, rng: np.random.Generator, **ref) -> Command:
    seed = int(rng.integers(0, 2**31 - 1))
    return Command(["index", "compute", "--spec", path, "--seed", str(seed)],
                   "index", ref)


# -- workloads ---------------------------------------------------------------

def _index_large(rng, workdir) -> list[Command]:
    """pinch(n) = diag_n in M_n with an explicit map, trace(n) = C in M_n
    on the canonical path.

    pinch(6) makes the command count of the large workload odd, so that
    its median latency is one command's, not the mean of two commands of
    different cost."""
    cmds = []
    for kind, n in [("pinch", 6), ("pinch", 9), ("pinch", 12), ("pinch", 15),
                    ("trace", 9), ("trace", 12)]:
        if kind == "pinch":
            a_blocks, k = (1,) * n, np.ones((1, n), dtype=int)
        else:
            a_blocks, k = (1,), np.array([[n]])
        weights = [1.0 / n]
        spec = _index_spec(a_blocks, k, weights, None, kind == "pinch")
        path = _write(workdir, f"{kind}{n}.json", spec)
        cmds.append(_index_command(path, rng, index=index_reference(k, weights),
                                   pp_contains=float(n)))
    order = rng.permutation(len(cmds))
    return [cmds[j] for j in order]


def _random_multiplicities(rng):
    """A blocks <= 2 of size <= 2, B blocks <= 2, multiplicities <= 2,
    unital and injective (no zero row or column), D <= MANY_MAX_DIM."""
    while True:
        a_blocks = tuple(int(x) for x in rng.integers(1, 3, size=int(rng.integers(1, 3))))
        k = rng.integers(0, 3, size=(int(rng.integers(1, 3)), len(a_blocks)))
        if not (k.sum(axis=1).all() and k.sum(axis=0).all()):
            continue
        b_blocks = k @ np.array(a_blocks)
        if int(np.sum(b_blocks ** 2)) <= MANY_MAX_DIM:
            return a_blocks, k


def _index_many(rng, workdir) -> list[Command]:
    """50 random inclusions (half with explicit map, half with trace weights
    log-uniform over ratios up to 1e8) and every cyclic group-algebra
    inclusion C[Z_d] in C[Z_n], d | n, n <= 24.

    The shapes (A blocks and multiplicities) are one fixed random draw: the
    cost of a spec grows steeply with its size, so redrawing them per seed
    would make the heaviest commands, and the tail latency, depend on the
    seed.  Unitaries, trace weights and command order come from the seed."""
    shapes = np.random.default_rng(MANY_SHAPE_SEED)
    cmds = []
    for i in range(MANY_RANDOM):
        a_blocks, k = _random_multiplicities(shapes)
        if (i // 2) % 2 == 0:
            half = WIDE_DECADES / 2
            weights = [10.0 ** rng.uniform(-half, half) for _ in range(k.shape[0])]
        else:
            weights = [rng.uniform(0.2, 2.0) for _ in range(k.shape[0])]
        spec = _index_spec(a_blocks, k, weights, rng, explicit_map=i % 2 == 0)
        path = _write(workdir, f"random{i:02d}.json", spec)
        cmds.append(_index_command(path, rng, index=index_reference(k, weights)))
    for n in range(1, 25):
        for d in range(1, n + 1):
            if n % d:
                continue
            k = np.array([[1 if c % d == p else 0 for p in range(d)]
                          for c in range(n)])
            weights = [1.0 / n] * n
            spec = _index_spec((1,) * d, k, weights, None, explicit_map=False)
            path = _write(workdir, f"cyclic{n}_{d}.json", spec)
            cmds.append(_index_command(path, rng, index=float(n // d)))
    order = rng.permutation(len(cmds))
    return [cmds[j] for j in order]


def tlj_dims(n: int) -> list[float]:
    """Perron-Frobenius dimensions sin((a+1) pi/n) / sin(pi/n), a = 0..n-2."""
    return [math.sin((a + 1) * math.pi / n) / math.sin(math.pi / n)
            for a in range(n - 1)]


def _fusion_tlj(rng, workdir) -> list[Command]:
    """TLJ n = 40, 60: generate then regular-module trace; descent on TLJ 40
    with the even-label subring.  The seed orders the two rings and
    places the descent after its ring is written."""
    groups = []
    for n in (40, 60):
        path = os.path.join(workdir, f"tlj{n}.json")
        group = [Command(["fusion", "generate", "tlj", "--n", str(n), "-o", path],
                         "fusion-generate", {"n": n}),
                 Command(["fusion", "trace", "--ring", path, "--module", "regular"],
                         "fusion-trace", {"n": n})]
        if n == 40:
            evens = ",".join(str(a) for a in range(0, n - 1, 2))
            group.append(Command(["fusion", "descent", "--ring", path, "--module",
                                  "regular", "--subring", evens],
                                 "fusion-descent", {"n": n}))
        groups.append(group)
    if rng.integers(2):
        groups.reverse()
    return [c for g in groups for c in g]


#: P/Q of each classified type: cyclic of order N for A_{N-1}, Z2 x Z2 for D8
CLASSIFY_TYPES = ("A23", "A47", "A59", "D8", "E8")
IRREP_QUERIES = 4


def _classify_lattice(rng, workdir) -> list[Command]:
    """classify --lie-type for A23, A47, A59, D8, E8 and four irrep queries
    each on A23 and D8 with seeded dominant weights."""
    cmds = [Command(["classify", "--lie-type", t], "classify-table", {"type": t})
            for t in CLASSIFY_TYPES]
    for lie_type, rank, choices in (("A23", 23, ["P", "Q"] + [str(i) for i in range(8)]),
                                    ("D8", 8, ["P", "Q", "0", "4"])):
        for _ in range(IRREP_QUERIES):
            weight = [int(x) for x in rng.integers(0, 3, size=rank)]
            subgroup = choices[int(rng.integers(len(choices)))]
            cmds.append(Command(["classify", "irrep", "--lie-type", lie_type,
                                 "--weight", ",".join(map(str, weight)),
                                 "--subgroup", subgroup],
                                "classify-irrep",
                                {"type": lie_type, "weight": weight,
                                 "subgroup": subgroup}))
    order = rng.permutation(len(cmds))
    return [cmds[j] for j in order]


#: the parts each workload is made of; a pass runs them one after the other
_PARTS = {"large": (_index_large, _fusion_tlj),
          "many": (_index_many, _classify_lattice)}


def build(workload: str, seed: int, workdir: str) -> list[Command]:
    """Write the workload's spec files into ``workdir`` and return its
    command list; the same seed gives the same files and commands.

    Each part draws from its own stream of the seed and orders its own
    commands.  The parts always run in the same order: interleaving them
    made the worker's peak RSS depend on the seed."""
    streams = np.random.SeedSequence([seed, WORKLOADS.index(workload)]).spawn(
        len(_PARTS[workload]))
    return [cmd for part, stream in zip(_PARTS[workload], streams)
            for cmd in part(np.random.default_rng(stream), workdir)]
