"""Shared fixtures: canonical small expectations and random inclusions."""

import json
from unittest import mock

import numpy as np
import pytest

from qindex import io as qio
from qindex.algebra import (MultiMatrixAlgebra, StarHomomorphism, TraceWeights,
                            identity_homomorphism)
from qindex.expectation import canonical_expectation
from qindex.fusion import FusionRing

from oracles import module_to_text


def ring_to_json(ring):
    """The payload of a ring file: the ring's canonical text, parsed."""
    return json.loads(qio.ring_to_text(ring))


def module_to_json(module):
    """The payload of a module file: the module's canonical text, parsed."""
    return json.loads(module_to_text(module))


def golden_ring(k):
    """The rank-2 fusion ring x x = 1 + k x, with d(x) = (k + sqrt(k^2 + 4)) / 2."""
    tensor = np.zeros((2, 2, 2), dtype=np.int64)
    tensor[0] = tensor[:, 0] = np.eye(2, dtype=np.int64)
    tensor[1, 1] = [1, k]
    return FusionRing(("1", "x"), "1", (("1", "1"), ("x", "x")), tensor)


def ring_from_bytes_spied(raw):
    """``qio.ring_from_bytes(raw)``, and whether it read the ring as a
    qindex.ring/2 file, that is, without calling ``qio.ring_from_json``."""
    with mock.patch.object(qio, "ring_from_json", wraps=qio.ring_from_json) as spy:
        ring = qio.ring_from_bytes(raw)
    return ring, not spy.called


def compose(outer, inner):
    """The inclusion ``outer`` after ``inner``."""
    if inner.target.blocks != outer.source.blocks:
        raise ValueError("composition mismatch")
    return StarHomomorphism(inner.source, outer.target, outer.matrix @ inner.matrix)


def index_element(report):
    """The index element c_t 1 on every block t of B of an index report,
    or None when its expectation is not faithful."""
    if report.block_values is None:
        return None
    return report.algebra.element([c * np.eye(m) for c, m
                                   in zip(report.block_values, report.algebra.blocks)])


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_element(algebra, rng):
    """An element of ``algebra`` with standard complex normal entries."""
    return algebra.element([rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                            for m in algebra.blocks])


def ad_homomorphism(u, algebra, block=0):
    """Ad(u) on a single-block algebra (u unitary on that block)."""
    cols = []
    for e in algebra.basis():
        mats = [np.array(m) for m in e.data]
        mats[block] = u @ mats[block] @ u.conj().T
        cols.append(algebra.element(mats).to_vector())
    return StarHomomorphism(algebra, algebra, np.stack(cols, axis=1))


def diagonal_inclusion(n=2):
    """diag_n inside M_n."""
    return StarHomomorphism.from_multiplicities((1,) * n, [[1] * n])


def scalars_inclusion(n=2):
    """C inside M_n."""
    return StarHomomorphism.from_multiplicities((1,), [[n]])


def pinching_expectation(n=2):
    big = MultiMatrixAlgebra((n,))
    tau = TraceWeights(big, (1.0 / n,))
    return canonical_expectation(diagonal_inclusion(n), tau), tau


def trace_expectation(n=2):
    big = MultiMatrixAlgebra((n,))
    tau = TraceWeights(big, (1.0 / n,))
    return canonical_expectation(scalars_inclusion(n), tau), tau


def identity_expectation(n=2):
    big = MultiMatrixAlgebra((n,))
    tau = TraceWeights(big, (1.0 / n,))
    return canonical_expectation(identity_homomorphism(big), tau), tau


def inclusion_from_multiplicities(a_blocks, k, rng):
    """Unital inclusion determined by an inclusion matrix k[t, p], given by
    its matrix.

    B block t carries k[t, p] copies of A block p, conjugated by a random
    unitary; every row and column of k must be nonzero so the embedding is
    unital and injective.
    """
    given = StarHomomorphism.from_multiplicities(a_blocks, k)
    unitaries = [random_unitary(m, rng) for m in given.target.blocks]
    mat = np.array(given.matrix)
    ofs = 0
    for u in unitaries:
        # the coefficient vector of U x U* is (U (x) conj(U)) times that of x
        mat[ofs:ofs + u.size] = np.kron(u, u.conj()) @ mat[ofs:ofs + u.size]
        ofs += u.size
    return StarHomomorphism(given.source, given.target, mat)


def _random_multiplicities(rng, max_a_blocks, max_a_size, max_b_blocks, max_mult):
    while True:
        a_blocks = tuple(int(rng.integers(1, max_a_size + 1))
                         for _ in range(int(rng.integers(1, max_a_blocks + 1))))
        nb = int(rng.integers(1, max_b_blocks + 1))
        k = rng.integers(0, max_mult + 1, size=(nb, len(a_blocks)))
        if all(k[t].sum() > 0 for t in range(nb)) and \
                all(k[:, p].sum() > 0 for p in range(len(a_blocks))):
            return a_blocks, k


def random_multimatrix_inclusion(rng, max_a_blocks=2, max_a_size=2,
                                 max_b_blocks=2, max_mult=2):
    """Random unital inclusion with random positive trace weights."""
    a_blocks, k = _random_multiplicities(rng, max_a_blocks, max_a_size,
                                         max_b_blocks, max_mult)
    inclusion = inclusion_from_multiplicities(a_blocks, k, rng)
    tau = TraceWeights(inclusion.target,
                       tuple(float(rng.uniform(0.2, 2.0))
                             for _ in inclusion.target.blocks))
    return inclusion, tau


def random_connected_inclusion(rng, max_a_blocks=2, max_a_size=2,
                               max_b_blocks=2, max_mult=2):
    """Random inclusion with an irreducible k k^T (connected Bratteli graph).

    Returns (inclusion, k); connectivity makes the Perron-Frobenius data
    of k k^T meaningful.
    """
    while True:
        a_blocks, k = _random_multiplicities(rng, max_a_blocks, max_a_size,
                                             max_b_blocks, max_mult)
        nb = k.shape[0]
        gram = k @ k.T
        power = np.linalg.matrix_power(np.eye(nb, dtype=np.int64) + gram, nb)
        if np.all(power > 0):
            return inclusion_from_multiplicities(a_blocks, k, rng), k


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
