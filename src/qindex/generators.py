"""Constructors for fusion-ring and module fixtures.

Temperley-Lieb-Jones rings at loop parameter 2 cos(pi/n), pointed rings of
finite abelian groups, regular modules, and coset quotient modules.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .fusion import DimensionVector, FusionModule, FusionRing

__all__ = [
    "gen_tlj", "gen_pointed", "gen_regular_module", "gen_quotient_module",
    "pointed_label", "pointed_elements",
]


def gen_tlj(n: int) -> tuple[FusionRing, DimensionVector]:
    """Temperley-Lieb-Jones fusion data at level k = n - 2.

    Labels 0..k with truncated SU(2) fusion
    N_{ab}^c = 1 iff |a-b| <= c <= min(a+b, 2k-a-b) and a+b+c even,
    all labels self-dual, and dimensions d(a) = sin((a+1)pi/n)/sin(pi/n),
    so d(1) = 2 cos(pi/n).
    """
    if n < 3:
        raise ValueError("TLJ parameter must satisfy n >= 3")
    k = n - 2
    labels = tuple(str(a) for a in range(k + 1))
    r = k + 1
    a, b, c = np.ogrid[:r, :r, :r]
    # (a + b) % 2 == c % 2 is the parity rule without an r^3 int array
    tensor = (((a + b) % 2 == c % 2) & (abs(a - b) <= c)
              & (c <= np.minimum(a + b, 2 * k - a - b)))
    ring = FusionRing(labels, "0", tuple((lab, lab) for lab in labels), tensor)
    dims = DimensionVector(tuple(
        (str(a), float(np.sin((a + 1) * np.pi / n) / np.sin(np.pi / n)))
        for a in range(r)))
    return ring, dims


def pointed_label(element: Sequence[int]) -> str:
    """Label of a group element, components joined by dots."""
    return ".".join(str(int(x)) for x in element)


def pointed_elements(factors: Sequence[int]) -> list[tuple[int, ...]]:
    return [tuple(e) for e in product(*(range(f) for f in factors))]


def gen_pointed(factors: Sequence[int]) -> FusionRing:
    """Group ring of the finite abelian group with the given factors.

    All multiplicities are delta functions of the group law, every
    dimension is 1, and the dual is the group inverse.
    """
    factors = [int(f) for f in factors]
    if not factors or any(f < 1 for f in factors):
        raise ValueError("factors must be positive integers")
    elements = pointed_elements(factors)
    labels = tuple(pointed_label(e) for e in elements)
    index = {e: i for i, e in enumerate(elements)}
    r = len(elements)
    tensor = np.zeros((r, r, r), dtype=np.int64)
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            s = tuple((a + b) % f for a, b, f in zip(g, h, factors))
            tensor[i, j, index[s]] = 1
    dual = tuple(
        (pointed_label(g), pointed_label(tuple((-a) % f for a, f in zip(g, factors))))
        for g in elements)
    return FusionRing(labels, labels[0], dual, tensor)


def gen_regular_module(ring: FusionRing) -> FusionModule:
    """The ring acting on itself: n_{u,i}^j = N_{u i}^j."""
    return FusionModule(ring, ring.labels, ring.tensor)


def gen_quotient_module(ring: FusionRing, factors: Sequence[int],
                        subgroup: Iterable[Sequence[int]]) -> FusionModule:
    """Translation action of a pointed ring on the cosets of a subgroup.

    ``ring`` must be gen_pointed(factors); ``subgroup`` lists the elements
    of a subgroup of the underlying group (validated).  The module labels
    are the cosets, named by their smallest representative, and the module
    trace is identically 1.
    """
    factors = [int(f) for f in factors]
    elements = pointed_elements(factors)
    if ring.labels != tuple(pointed_label(e) for e in elements):
        raise ValueError("ring is not the pointed ring of the given factors")
    sub = {tuple(int(x) % f for x, f in zip(e, factors)) for e in subgroup}
    zero = tuple(0 for _ in factors)
    if zero not in sub:
        raise ValueError("subgroup must contain the identity")
    for a in sub:
        if tuple((-x) % f for x, f in zip(a, factors)) not in sub:
            raise ValueError("subgroup not closed under inverses")
        for b in sub:
            if tuple((x + y) % f for x, y, f in zip(a, b, factors)) not in sub:
                raise ValueError("subgroup not closed under addition")

    def coset(g: tuple[int, ...]) -> tuple[int, ...]:
        return min(tuple((x + s) % f for x, s, f in zip(g, h, factors))
                   for h in sub)

    reps = sorted({coset(g) for g in elements})
    rep_index = {c: i for i, c in enumerate(reps)}
    m = len(reps)
    action = np.zeros((ring.rank, m, m), dtype=np.int64)
    for u, g in enumerate(elements):
        for i, c in enumerate(reps):
            target = coset(tuple((a + b) % f for a, b, f in zip(g, c, factors)))
            action[u, i, rep_index[target]] = 1
    labels = tuple(pointed_label(c) for c in reps)
    return FusionModule(ring, labels, action)
