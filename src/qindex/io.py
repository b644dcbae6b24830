"""JSON codecs for the file formats documented in docs/formats.md.

Complex scalars are [re, im] pairs; matrices are nested row lists.  All
loaders raise SchemaError with a path-like location for malformed data,
which the CLI maps to the validation exit code.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .algebra import (AlgebraElement, MultiMatrixAlgebra, StarHomomorphism,
                      TraceWeights)
from .expectation import ConditionalExpectation
from .fusion import FusionModule, FusionRing

__all__ = [
    "SchemaError",
    "algebra_to_json", "algebra_from_json",
    "element_to_json", "element_from_json",
    "homomorphism_to_json", "homomorphism_from_json",
    "expectation_to_json", "expectation_spec_from_json",
    "ring_to_json", "ring_from_json",
    "module_to_json", "module_from_json",
]


class SchemaError(ValueError):
    """Input does not match a documented schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _pair_to_complex(pair: Any, path: str) -> complex:
    _expect(isinstance(pair, (list, tuple)) and len(pair) == 2,
            path, "complex entries are [re, im] pairs")
    re, im = pair
    _expect(isinstance(re, (int, float)) and isinstance(im, (int, float)),
            path, "complex entries are [re, im] pairs of numbers")
    return complex(re, im)


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[_complex_to_pair(z) for z in row] for row in np.asarray(mat, dtype=complex)]


def _matrix_from_json(data: Any, path: str) -> np.ndarray:
    _expect(isinstance(data, list) and data, path, "matrix is a nonempty list of rows")
    rows = []
    width = None
    for i, row in enumerate(data):
        _expect(isinstance(row, list) and row, f"{path}[{i}]", "row is a nonempty list")
        if width is None:
            width = len(row)
        _expect(len(row) == width, f"{path}[{i}]", "ragged matrix")
        rows.append([_pair_to_complex(z, f"{path}[{i}][{j}]")
                     for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


# -- algebras and elements ---------------------------------------------------

def algebra_to_json(algebra: MultiMatrixAlgebra) -> dict:
    return {"blocks": list(algebra.blocks)}


def algebra_from_json(data: Any, path: str = "algebra") -> MultiMatrixAlgebra:
    _expect(isinstance(data, Mapping), path, "algebra is an object")
    blocks = data.get("blocks")
    _expect(isinstance(blocks, list) and blocks, f"{path}.blocks",
            "blocks is a nonempty list of positive integers")
    _expect(all(isinstance(b, int) and b >= 1 for b in blocks), f"{path}.blocks",
            "blocks is a nonempty list of positive integers")
    return MultiMatrixAlgebra(tuple(blocks))


def element_to_json(x: AlgebraElement) -> dict:
    return {"blocks": [_matrix_to_json(m) for m in x.data]}


def element_from_json(data: Any, algebra: MultiMatrixAlgebra,
                      path: str = "element") -> AlgebraElement:
    _expect(isinstance(data, Mapping), path, "element is an object")
    blocks = data.get("blocks")
    _expect(isinstance(blocks, list) and len(blocks) == len(algebra.blocks),
            f"{path}.blocks", f"expected {len(algebra.blocks)} blocks")
    mats = [_matrix_from_json(b, f"{path}.blocks[{t}]") for t, b in enumerate(blocks)]
    return algebra.element(mats)


def homomorphism_to_json(hom: StarHomomorphism) -> dict:
    return {"source": algebra_to_json(hom.source),
            "target": algebra_to_json(hom.target),
            "matrix": _matrix_to_json(hom.matrix)}


def homomorphism_from_json(data: Any, path: str = "homomorphism") -> StarHomomorphism:
    _expect(isinstance(data, Mapping), path, "homomorphism is an object")
    source = algebra_from_json(data.get("source"), f"{path}.source")
    target = algebra_from_json(data.get("target"), f"{path}.target")
    matrix = _matrix_from_json(data.get("matrix"), f"{path}.matrix")
    _expect(matrix.shape == (target.total_dim, source.total_dim), f"{path}.matrix",
            f"matrix must be {target.total_dim}x{source.total_dim}, got {matrix.shape}")
    return StarHomomorphism(source, target, matrix)


# -- expectations ------------------------------------------------------------

def expectation_to_json(expectation: ConditionalExpectation,
                        tau: TraceWeights | None = None) -> dict:
    out = {"inclusion": homomorphism_to_json(expectation.inclusion),
           "map": _matrix_to_json(expectation.matrix)}
    if tau is not None:
        out["trace_weights"] = list(tau.weights)
    return out


def expectation_spec_from_json(data: Any, path: str = "expectation"
                               ) -> tuple[StarHomomorphism, np.ndarray | None, TraceWeights]:
    """Parse an expectation spec: inclusion, optional map, trace weights.

    When "map" is omitted the caller should build the canonical
    trace-preserving expectation; when "trace_weights" is omitted the
    normalized trace is used.
    """
    _expect(isinstance(data, Mapping), path, "expectation is an object")
    inclusion = homomorphism_from_json(data.get("inclusion"), f"{path}.inclusion")
    big = inclusion.target
    mat = None
    if data.get("map") is not None:
        mat = _matrix_from_json(data["map"], f"{path}.map")
        d = big.total_dim
        _expect(mat.shape == (d, d), f"{path}.map", f"map must be {d}x{d}")
    weights = data.get("trace_weights")
    if weights is None:
        tau = TraceWeights.normalized(big)
    else:
        _expect(isinstance(weights, list) and len(weights) == len(big.blocks),
                f"{path}.trace_weights", "one positive weight per target block")
        _expect(all(isinstance(w, (int, float)) and w > 0 for w in weights),
                f"{path}.trace_weights", "one positive weight per target block")
        tau = TraceWeights(big, tuple(float(w) for w in weights))
    return inclusion, mat, tau


# -- fusion data -------------------------------------------------------------

def ring_to_json(ring: FusionRing) -> dict:
    n_entries: dict[str, dict[str, int]] = {}
    labels, t = ring.labels, ring.tensor
    # np.nonzero walks in C order, so keys and rows keep the (u, v, w) order
    for u, v, w in zip(*np.nonzero(t)):
        n_entries.setdefault(f"{labels[u]},{labels[v]}", {})[labels[w]] = int(t[u, v, w])
    return {"irr": list(ring.labels), "unit": ring.unit,
            "dual": dict(ring.dual), "N": n_entries}


def ring_from_json(data: Any, path: str = "fusion_ring") -> FusionRing:
    _expect(isinstance(data, Mapping), path, "fusion ring is an object")
    irr = data.get("irr")
    _expect(isinstance(irr, list) and irr and all(isinstance(x, str) for x in irr),
            f"{path}.irr", "irr is a nonempty list of string labels")
    _expect(len(set(irr)) == len(irr), f"{path}.irr", "labels must be distinct")
    _expect(not any("," in x for x in irr), f"{path}.irr",
            "labels must not contain commas")
    unit = data.get("unit")
    _expect(unit in irr, f"{path}.unit", "unit must be one of the labels")
    dual = data.get("dual")
    _expect(isinstance(dual, Mapping) and set(dual) == set(irr)
            and all(v in irr for v in dual.values()),
            f"{path}.dual", "dual must map every label to a label")
    index = {lab: i for i, lab in enumerate(irr)}
    r = len(irr)
    tensor = np.zeros((r, r, r), dtype=np.int64)
    entries = data.get("N", {})
    _expect(isinstance(entries, Mapping), f"{path}.N", "N is an object")
    for key, row in entries.items():
        parts = key.split(",")
        _expect(len(parts) == 2 and parts[0] in index and parts[1] in index,
                f"{path}.N[{key!r}]", "keys are 'U,V' label pairs")
        _expect(isinstance(row, Mapping), f"{path}.N[{key!r}]", "value is an object")
        for w, mult in row.items():
            _expect(w in index, f"{path}.N[{key!r}][{w!r}]", "unknown target label")
            _expect(isinstance(mult, int) and mult >= 0,
                    f"{path}.N[{key!r}][{w!r}]", "multiplicities are nonnegative ints")
            tensor[index[parts[0]], index[parts[1]], index[w]] = mult
    return FusionRing(tuple(irr), unit, tuple(dual.items()), tensor)


def module_to_json(module: FusionModule) -> dict:
    entries: dict[str, dict[str, int]] = {}
    action = module.action
    for u, ulab in enumerate(module.ring.labels):
        for i, ilab in enumerate(module.labels):
            row = {jlab: int(action[u, i, j])
                   for j, jlab in enumerate(module.labels) if action[u, i, j]}
            if row:
                entries[f"{ulab},{ilab}"] = row
    return {"ring": ring_to_json(module.ring),
            "irrM": list(module.labels), "n": entries}


def module_from_json(data: Any, path: str = "fusion_module") -> FusionModule:
    _expect(isinstance(data, Mapping), path, "fusion module is an object")
    ring = ring_from_json(data.get("ring"), f"{path}.ring")
    irr_m = data.get("irrM")
    _expect(isinstance(irr_m, list) and irr_m
            and all(isinstance(x, str) for x in irr_m),
            f"{path}.irrM", "irrM is a nonempty list of string labels")
    _expect(len(set(irr_m)) == len(irr_m), f"{path}.irrM", "labels must be distinct")
    index = {lab: i for i, lab in enumerate(irr_m)}
    action = np.zeros((ring.rank, len(irr_m), len(irr_m)), dtype=np.int64)
    entries = data.get("n", {})
    _expect(isinstance(entries, Mapping), f"{path}.n", "n is an object")
    for key, row in entries.items():
        parts = key.split(",")
        _expect(len(parts) == 2 and parts[0] in ring.labels and parts[1] in index,
                f"{path}.n[{key!r}]", "keys are 'U,i' pairs")
        for j, mult in row.items():
            _expect(j in index, f"{path}.n[{key!r}][{j!r}]", "unknown module label")
            _expect(isinstance(mult, int) and mult >= 0,
                    f"{path}.n[{key!r}][{j!r}]", "multiplicities are nonnegative ints")
            action[ring.index(parts[0]), index[parts[1]], index[j]] = mult
    return FusionModule(ring, tuple(irr_m), action)
