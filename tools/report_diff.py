#!/usr/bin/env python3
"""Compare the CLI output of two qindex source trees over the benchmark inputs.

Usage, from the root of a checkout:

    python3 tools/report_diff.py BASE_SRC HEAD_SRC [--rtol R]

BASE_SRC and HEAD_SRC are the ``src`` directories of the two trees.  For
every benchmark workload and each seed of ``SEEDS`` (1 to 5), the commands
of one benchmark pass are built with ``perfbench/inputs.build`` of this
checkout, and ``-o FILE`` is appended to every command that accepts it
and has none.  Five fixed
sets of commands that the benchmark never runs come last.  The fusion set is
``fusion generate`` of pointed and TLJ rings with and without ``-o``, and
``fusion trace`` and ``fusion descent`` with module files, a
decomposable one and one of another ring among them, and on the regular
module of Rep(A4), the one ring whose generating set has a word that
holds two labels its words have not reached.  The index set is
``index compute``, on the canonical expectation and on its explicit map,
of the Jones towers T(4) to T(9) and of inclusions with multiplicities
from 2 to 12 and A blocks of mixed sizes, where the sums of the
closed-form indices run over rows of different lengths.  The spec set is
``index compute`` on every file of ``spec_corpus``: malformed and edge
specs that reach each way ``qindex.io.loads`` leaves its text path for
``json`` (see there), with the valid spellings next to them, and
inclusions that are not unital injective *-homomorphisms, so both
trees' exit codes and error messages on them are compared.  The ring
set is ``fusion trace`` and ``fusion descent`` on every file of
``ring_corpus``: malformed and edge qindex.ring/1 and module files, whose
sparse maps ``qindex.io`` walks entry by entry as ``json`` decodes them,
with the valid spellings next to them.  The lattice set is ``classify
--lie-type X`` and ``classify irrep --subgroup Q`` at each fundamental
weight of X, for X in A1-A8, B2-B8, C2-C8, D3-D8, E6-E8, F4 and G2, so
every family's Cartan matrix is read.  Each tree runs the commands of
one workload and seed (or a fixed set) in its own interpreter, through
``qindex.cli.main(argv)``, in its own copy of the input directory, so
the command lines are the same on both sides.

Every difference in exit code, stderr, stdout (with the ``wall_ms``
value masked) or artifact is printed, one line each.  With ``--rtol``, a
float in a JSON report or artifact may differ by that much relative to
the larger of the two values; such a difference is printed as
``allowed`` and does not fail the comparison.  The exit code is 0 when
every other output is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALL_MS = re.compile(r'"wall_ms":-?[0-9.eE+-]+')
SEEDS = range(1, 6)  # fixed, as in bench_record.py, so that records compare


# -- one tree, in its own interpreter -------------------------------------------

def run_commands(jobs: list[dict]) -> list[dict]:
    """Run each command in the working directory and record its exit code,
    stdout, stderr and artifact (the text of its -o file, or None).  A job
    is {"argv": [...], "output": bool}; with "output", ``-o FILE`` is
    appended when the command accepts it and has none."""
    import qindex.cli

    out = []
    for n, job in enumerate(jobs):
        argv = job["argv"]
        if job["output"] and "-o" not in argv and \
                _accepts_output(qindex.cli.build_parser(), argv):
            argv = argv + ["-o", f"artifact{n}.json"]
        path = argv[argv.index("-o") + 1] if "-o" in argv else None
        if path is not None and os.path.exists(path):
            os.remove(path)
        stdout, stderr = io.StringIO(), io.StringIO()
        # a fresh handler per command, bound to this command's stderr, as
        # in a new process
        logging.getLogger().handlers.clear()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = qindex.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        artifact = None
        if path is not None and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                artifact = fh.read()
        out.append({"argv": argv, "code": code, "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue(), "artifact": artifact})
    return out


def _accepts_output(parser: argparse.ArgumentParser, argv: list[str]) -> bool:
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            parser.parse_args(argv + ["-o", "x"])
        except SystemExit:
            return False
    return True


def run_tree(src: str, workdir: str, jobs: list) -> list:
    """The result of ``run_commands`` on ``jobs`` in a new interpreter that
    imports qindex from ``src``."""
    job, result = os.path.join(workdir, "job.json"), os.path.join(workdir, "result.json")
    with open(job, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("QINDEX_LOG", None)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", job, result],
                   cwd=workdir, env=env, check=True)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


# -- the fixed fusion set ------------------------------------------------------------

def _tlj_ring(n: int) -> dict:
    """The fusion_ring file of TLJ(n), from the truncated SU(2) rule."""
    k = n - 2
    labels = [str(a) for a in range(k + 1)]
    rules = {f"{a},{b}": {str(c): 1 for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)}
             for a in range(k + 1) for b in range(k + 1)}
    return {"irr": labels, "unit": "0", "dual": {x: x for x in labels}, "N": rules}


def _regular_module(ring: dict, copies: int) -> dict:
    """``copies`` regular modules of ``ring`` side by side, its labels
    renamed, as a fusion_module file."""
    names = {x: [f"m{c}_{x}" for c in range(copies)] for x in ring["irr"]}
    action = {}
    for key, row in ring["N"].items():
        u, i = key.split(",")
        for c in range(copies):
            action[f"{u},{names[i][c]}"] = {names[j][c]: n for j, n in row.items()}
    return {"ring": ring, "irrM": [m for x in ring["irr"] for m in names[x]], "n": action}


def _rep_a4_ring() -> dict:
    """The fusion_ring file of Rep(A4): Z/3 = {1, w, w2}, and 3 with
    3 w = 3 and 3 3 = 1 + w + w2 + 2 3.  The word 3 3 of its generator 3
    holds two labels that the words of 3 have not reached."""
    z3 = ["1", "w", "w2"]
    rules = {f"{a},{b}": {z3[(i + j) % 3]: 1}
             for i, a in enumerate(z3) for j, b in enumerate(z3)}
    for a in z3:
        rules[f"{a},3"] = rules[f"3,{a}"] = {"3": 1}
    rules["3,3"] = {"1": 1, "w": 1, "w2": 1, "3": 2}
    return {"irr": ["1", "3", "w", "w2"], "unit": "1",
            "dual": {"1": "1", "3": "3", "w": "w2", "w2": "w"}, "N": rules}


def fixed_fusion_set() -> list[dict]:
    """Write the ring and module files of the fixed set into the working
    directory and return its jobs."""
    files = {"tlj9.json": _tlj_ring(9), "tlj9_module.json": _regular_module(_tlj_ring(9), 1),
             "tlj9_twice.json": _regular_module(_tlj_ring(9), 2),
             "tlj7_module.json": _regular_module(_tlj_ring(7), 1),
             "rep_a4.json": _rep_a4_ring()}
    for name, payload in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    evens = ["--subring", "0,2,4,6"]
    argvs = [(["fusion", "generate", "pointed", "--factors", "2,4"], True),
             (["fusion", "generate", "pointed", "--factors", "3,2,2"], False),
             (["fusion", "generate", "tlj", "--n", "9"], False),
             (["fusion", "generate", "tlj", "--n", "60"], False),
             (["fusion", "generate", "tlj", "--n", "12"], True)]
    for module in ("tlj9_module.json", "tlj9_twice.json", "tlj7_module.json"):
        argvs += [(["fusion", "trace", "--ring", "tlj9.json", "--module", module], True),
                  (["fusion", "descent", "--ring", "tlj9.json", "--module", module] + evens,
                   False)]
    argvs += [(["fusion", "trace", "--ring", "rep_a4.json", "--module", "regular"], True),
              (["fusion", "descent", "--ring", "rep_a4.json", "--module", "regular",
                "--subring", "1,w,w2"], False)]
    return [{"argv": argv, "output": output} for argv, output in argvs]


# -- the fixed index set -------------------------------------------------------------

def jones_tower(n: int) -> tuple[list[int], np.ndarray, list[float]]:
    """(A blocks, K, B trace weights) of the Jones tower T(n), n >= 4.

    A and B are levels n-3 and n-2 of the Bratteli diagram of the graph
    A_{n-1}, whose vertices are 0..n-2: the block sizes are the numbers
    of paths from vertex 0, K is the adjacency between the two levels, and
    the weight of B vertex j is d_j beta^{-(n-2)/2}, with
    d_j = sin((j+1) pi/n) / sin(pi/n) and beta = 4 cos^2(pi/n), the index.
    """
    paths = [np.eye(n - 1, dtype=np.int64)[0]]
    for _ in range(n - 2):
        step = np.zeros(n - 1, dtype=np.int64)
        step[1:] += paths[-1][:-1]
        step[:-1] += paths[-1][1:]
        paths.append(step)
    a_vertices, b_vertices = np.flatnonzero(paths[n - 3]), np.flatnonzero(paths[n - 2])
    k = (np.abs(b_vertices[:, None] - a_vertices[None, :]) == 1).astype(np.int64)
    beta = 4.0 * math.cos(math.pi / n) ** 2
    weights = [math.sin((j + 1) * math.pi / n) / math.sin(math.pi / n)
               * beta ** (-(n - 2) / 2) for j in b_vertices]
    return paths[n - 3][a_vertices].tolist(), k, weights


#: (A blocks, K) of the inclusions with mixed multiplicities
MIXED_INCLUSIONS = (((1,), [[12], [4], [5], [6], [7]]),
                    ((1, 2), [[12, 1], [3, 2], [5, 3]]),
                    ((2, 1, 3), [[2, 5, 1], [0, 7, 2], [4, 0, 0]]),
                    ((1, 3), [[9, 1], [5, 2]]))


def fixed_index_set() -> list[dict]:
    """Write the specs of the fixed index set into the working directory
    and return its jobs: T(n) with identity unitaries, the mixed
    inclusions with Haar unitaries and trace weights 10^U(-4, 4)."""
    import inputs

    rng = np.random.default_rng(0)
    specs = []
    for n in range(4, 10):
        a_blocks, k, weights = jones_tower(n)
        specs.append((f"tower{n}", a_blocks, k, weights, None))
    for i, (a_blocks, k) in enumerate(MIXED_INCLUSIONS):
        k = np.array(k)
        specs.append((f"mixed{i}", a_blocks, k,
                      (10.0 ** rng.uniform(-4, 4, size=len(k))).tolist(), rng))
    jobs = []
    for name, a_blocks, k, weights, haar in specs:
        for explicit in (False, True):
            path = f"{name}{'_map' if explicit else ''}.json"
            spec = inputs._index_spec(a_blocks, k, weights, haar, explicit)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            jobs.append({"argv": ["index", "compute", "--spec", path], "output": True})
    return jobs


# -- the fixed spec corpus ----------------------------------------------------------

#: rows of [re, im] pairs of the diagonal subalgebra of M_2 and of its
#: trace-preserving expectation, as ``json.dump`` writes them
_INCLUSION = ("[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], "
              "[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]")
_ZERO_ROW = "[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]"
_MAP = (f"[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], {_ZERO_ROW}, {_ZERO_ROW}, "
        "[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]")

#: inclusion matrices, with A's block sizes, that are not unital injective
#: *-homomorphisms into M_2: M_2 -> M_2 with e_12 doubled (not
#: multiplicative), C + C -> M_2 with the image of the second unit dropped
#: (not unital), and C + C -> M_2 sending the first unit onto 1 (A block 1
#: lost, so not injective)
_NOT_UNITAL = ("[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], "
               "[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]")
_INVALID_INCLUSIONS = {
    "not-multiplicative": ("[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "
                           "[[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "
                           "[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], "
                           "[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]", "[2]"),
    "not-unital": (_NOT_UNITAL, "[1, 1]"),
    "not-injective": ("[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], "
                      "[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]", "[1, 1]"),
}

#: replacements of the first map entry [1.0, 0.0]: each malformed, past
#: the float range, or a valid spelling of a number
_ENTRIES = {
    "one-number": "[1.0]", "three-numbers": "[1.0, 0.0, 0.0]", "true": "[true, 0.0]",
    "false": "[1.0, false]", "null": "[null, 0.0]", "string": '["1", 0.0]',
    "nan": "[NaN, 0.0]", "infinity": "[Infinity, 0.0]", "minus-infinity": "[1.0, -Infinity]",
    "1e400": "[1e400, 0.0]", "int-400-digits": "[1" + "0" * 400 + ", 0.0]",
    "ints-400-digits": "[-1" + "0" * 400 + ", 0]", "int-30-digits": "[1" + "0" * 30 + ", 0]",
    "leading-zero": "[01, 0.0]", "plus": "[+1, 0.0]", "bare-fraction": "[.5, 0.0]",
    "bare-point": "[1., 0.0]", "two-numbers-one-slot": "[1 2, 0.0]", "bare-exponent": "[1e, 0.0]",
    "bare-minus": "[-, 0.0]", "empty-second": "[1.0, ]", "empty-first": "[, 0.0]",
    "trailing-comma": "[1.0, 0.0,]", "number-outside-pair": "[1.0,]0.0",
    "number-before-pair": "1.0[, 0.0]", "nested-pair": "[[1.0, 0.0]]", "unclosed-pair": "[1.0, 0.0",
    "extra-bracket": "[1.0, 0.0]]", "no-brackets": "1.0, 0.0", "object": '{"re": 1.0}',
    "exponents": "[1E0, -0E+0]", "ints": "[1, -0]", "2^53+1": "[9007199254740993, 0]",
    "2^64": "[18446744073709551616, 0]", "17-digits": "[1.0000000000000002, 5e-324]",
    "spaces": "[ 1.0 ,\t0.0\n]",
}


def _spec(matrix: str = _INCLUSION, spec_map: str | None = _MAP, blocks: str = "[1, 1]",
          weights: str = "[0.5]", extra: str = "") -> str:
    text = ('{"inclusion": {"source": {"blocks": %s}, "target": {"blocks": [2]}, '
            '"matrix": %s}' % (blocks, matrix))
    if spec_map is not None:
        text += ', "map": ' + spec_map
    return text + ', "trace_weights": ' + weights + extra + "}"


def spec_corpus() -> dict[str, bytes]:
    """Expectation spec files, by name, that reach every way ``qio.loads``
    leaves its text path, and the valid spellings next to them: malformed
    numbers, pairs and rows, JSON true and non-finite numbers, arrays that
    are not values of a key, strings that hold brackets, escapes, CRLF, a
    byte order mark and non-ASCII bytes.  Inclusions that are not unital
    injective *-homomorphisms come with and without a map, and once with
    a schema error in the trace weights too, which is reported first."""
    base = _spec()
    texts = {"valid": base, "valid-no-map": _spec(spec_map=None),
             "canonical-map-last": _spec(spec_map=None, extra=', "map": ' + _MAP)}
    for name, entry in _ENTRIES.items():
        texts[f"map-{name}"] = _spec(spec_map=_MAP.replace("[1.0, 0.0]", entry, 1))
        texts[f"matrix-{name}"] = _spec(matrix=_INCLUSION.replace("[1.0, 0.0]", entry, 1))
    short_row = "[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]"
    texts.update({
        "map-ragged": _spec(spec_map=_MAP.replace(_ZERO_ROW, short_row, 1)),
        "map-empty-row": _spec(spec_map=_MAP.replace(_ZERO_ROW, "[]", 1)),
        "map-empty-slot": _spec(spec_map=_MAP.replace(_ZERO_ROW + ", ", _ZERO_ROW + ", , ", 1)),
        "map-trailing-comma": _spec(spec_map=_MAP[:-1] + ",]"),
        "map-4-deep": _spec(spec_map="[" + _MAP + "]"),
        "map-empty": _spec(spec_map="[[[]]]"),
        "map-3x4": _spec(spec_map=_MAP.replace(_ZERO_ROW + ", ", "", 1)),
        "map-all-ints": _spec(spec_map=_MAP.replace(".0", "")),
        "map-negative-zeros": _spec(spec_map=_MAP.replace("0.0", "-0.0")),
        "blocks-true": _spec(blocks="[1, true]"),
        "weights-true": _spec(weights="[true]"),
        "weights-1e400": _spec(weights="[1e400]"),
        "array-key": "{[[[1, 2]]]: 1}",
        "array-key-after-value": _spec(extra=", [[[1, 0]]]: 2"),
        "top-level-array": "[[[1, 0]]]",
        "array-in-list": _spec(extra=', "extra": [[[[1, 0]]], {"a": [[[1, 0]]]}]'),
        "array-in-object-in-list": _spec(extra=', "extra": [{"m": [[[1, 0]]]}]'),
        "duplicate-map": _spec(extra=', "map": ' + _MAP),
        "array-in-string": _spec(extra=', "note": "[[[1, 2]]]", "n2": "x[[[1, 2]]]y"'),
        "escaped-quote": _spec(extra=', "note": "a\\"[[[1, 2]]]"'),
        "escaped-key": base.replace('"map"', '"m\\u0061p"'),
        "nul-key": _spec(extra=', "\\u0000": 0'),
        "unterminated-string": base.replace('"trace_weights"', '"trace_weights'),
        "truncated": base[:len(base) // 2],
        "missing-comma": base.replace(', "map"', ' "map"'),
        "crlf": base.replace(", ", ",\r\n"),
        "cr": base.replace(", ", ",\r"),
        "tabs-and-newlines": base.replace(", ", ",\n\t").replace("]", " \n]"),
        "compact": base.replace(", ", ",").replace(": ", ":"),
        "non-ascii-key": _spec(extra=', "é": 1'),
        "weights-true-not-unital": _spec(matrix=_NOT_UNITAL, weights="[true]"),
        "empty": "", "null": "null", "empty-object": "{}", "empty-list": "[]",
    })
    for name, (matrix, blocks) in _INVALID_INCLUSIONS.items():
        texts[name] = _spec(matrix=matrix, blocks=blocks)
        texts[f"{name}-no-map"] = _spec(matrix=matrix, spec_map=None, blocks=blocks)
    out = {name: text.encode() for name, text in texts.items()}
    out["bom"] = b"\xef\xbb\xbf" + base.encode()
    out["invalid-utf8"] = base.encode() + b"\xff"
    out["invalid-utf8-key"] = _spec(extra=', "é": 1').encode().replace(b"\xc3", b"\xff")
    return out


def fixed_spec_set() -> list[dict]:
    """Write the spec corpus into the working directory and return its
    ``index compute`` jobs."""
    jobs = []
    for name, raw in spec_corpus().items():
        path = f"corpus-{name}.json"
        with open(path, "wb") as fh:
            fh.write(raw)
        jobs.append({"argv": ["index", "compute", "--spec", path], "output": True})
    return jobs


# -- the fixed ring corpus ----------------------------------------------------------

def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _relabel(ring: dict, names: dict) -> dict:
    """The fusion_ring file ``ring`` with its labels renamed by ``names``."""
    def name(x):
        return names.get(x, x)
    return {"irr": [name(x) for x in ring["irr"]], "unit": name(ring["unit"]),
            "dual": {name(k): name(v) for k, v in ring["dual"].items()},
            "N": {",".join(map(name, key.split(","))): {name(w): n for w, n in row.items()}
                  for key, row in ring["N"].items()}}


#: replacements of the multiplicity of the first entry of a map: each
#: malformed, past int64 or a valid spelling of an int
_MULTIPLICITIES = {
    "leading-zero": "01", "zeros": "00", "minus-zero": "-0", "float": "1.0", "exponent": "1e0",
    "true": "true", "null": "null", "string": '"1"', "list": "[1]", "minus-one": "-1",
    "zero": "0", "space": " 1 ", "two-numbers": "1 2", "split-literal": "tr ue",
    "2^62": str(2 ** 62), "18-digits": "9" * 18,
    "19-digits": "1" + "0" * 18, "2^63-1": str(2 ** 63 - 1), "2^63": str(2 ** 63),
    "30-digits": "1" + "0" * 29,
}


def ring_corpus() -> dict[str, bytes]:
    """Fusion ring files of TLJ(5) in qindex.ring/1, and module files of its
    regular module (named module-*), by name: edge and malformed sparse
    maps and documents, with the valid spellings next to them: repeated keys,
    malformed, negative, float, boolean and null multiplicities and ints
    past int64, empty rows and maps, trailing commas and missing colons,
    unknown labels and keys that are not pairs, labels of JSON punctuation,
    of exactly 8 bytes and of more, whitespace between tokens, escapes, CR
    and CRLF, a byte order mark, non-ASCII bytes, and a later "N" key, a
    map or null."""
    ring = _tlj_ring(5)
    base = _canonical(ring)
    first = '"0,0":{"0":1}'
    texts = {"valid": base, "valid-indent": json.dumps(ring, indent=2, sort_keys=True),
             "valid-spaces": json.dumps(ring, sort_keys=True), "valid-map-last": json.dumps(
                 {key: ring[key] for key in ("irr", "unit", "dual", "N")}, separators=(",", ":")),
             "trailing-newline": base + "\n"}
    for name, value in _MULTIPLICITIES.items():
        texts[f"mult-{name}"] = base.replace(first, '"0,0":{"0":%s}' % value)
    edits = {
        "repeated-row-key": ('"N":{', '"N":{"1,1":{"3":1},'),
        "repeated-row-key-last-wrong": ('"3,3":{"0":1}', '"3,3":{"0":1},"1,1":{"3":1}'),
        "repeated-entry-key": (first, '"0,0":{"0":2,"0":1}'),
        "repeated-entry-key-last-wrong": (first, '"0,0":{"0":1,"0":2}'),
        "empty-row": ('"0,1":{"1":1}', '"0,1":{}'),
        "empty-last-row": ('"3,3":{"0":1}', '"3,3":{}'),
        "empty-rows-only": ('"N":{', '"N":{"0,1":{},"0,2":{},'),
        "trailing-comma-row": (first, '"0,0":{"0":1,}'),
        "trailing-comma-map": ('"3,3":{"0":1}}', '"3,3":{"0":1},}'),
        "missing-colon": (first, '"0,0"{"0":1}'),
        "missing-entry-colon": (first, '"0,0":{"0"1}'),
        "unknown-target": (first, '"0,0":{"9":1}'),
        "unknown-row-label": (first, '"0,9":{"0":1}'),
        "key-0": (first, '"0":{"0":1}'),
        "key-0,0,0": (first, '"0,0,0":{"0":1}'),
        "key-empty": (first, '"":{"0":1}'),
        "row-number": (first, '"0,0":1'),
        "row-list": (first, '"0,0":[1]'),
        "row-nested": (first, '"0,0":{"0":{"0":1}}'),
        "row-nested-pair": (first, '"0,0":{"1,1":{"0":1}}'),
        "entry-in-map": ('"0,1":{"1":1}', '"1":2,"0,1":{"1":1}'),
        "trailing-comma-empty-row": ('"3,3":{"0":1}}', '"3,3":{},},"3,3":{"0":1}}'),
        "junk-after-open": (first, '"0,0":{x"0":1}'),
        "junk-after-entry": (first, '"0,0":{"0":1,2,"1":1}'),
        "junk-after-row": ('"0,1":{"1":1}', 'x"0,1":{"1":1}'),
        "escaped-key": (first, '"0,\\u0030":{"0":1}'),
        "control-in-key": (first, '"0,0\x01":{"0":1}'),
        "duplicate-map": ('"dual"', '"N":{"0,0":{"0":1}},"dual"'),
        "duplicate-map-null": ('"dual"', '"N":null,"dual"'),
        "unterminated-key": (first, '"0,0:{"0":1}'),
    }
    for name, (old, new) in edits.items():
        texts[name] = base.replace(old, new, 1)
    start, end = base.index('"N":') + 4, base.index(',"dual"')
    texts["empty-map"] = base[:start] + "{}" + base[end:]
    texts["map-list"] = base[:start] + "[" + base[start:end] + "]" + base[end:]
    texts["truncated"] = base[:len(base) // 2]
    texts["in-list"] = "[" + base + "]"
    relabels = {"punctuation": {"1": "}}", "2": "{:[", "3": " "},
                "digits": {"1": "10", "2": "01", "3": "1"},
                "map-keys": {"1": "N", "2": "n", "3": "N:{"},
                "long": {"1": "abcdefghi", "2": "abcdefghijkl", "3": "abcdefgh"},
                "8-bytes": {"1": "{:[]}}01", "3": "N:{ }n:{"},
                "9-bytes": {"1": "abcdefghi", "3": "{:[]}}01x"},
                "quotes": {"3": '"N":{'}, "non-ascii": {"3": "é"},
                "escaped": {"3": "☃"}, "tab": {"3": "a\tb"}}
    for name, names in relabels.items():
        relabeled = _relabel(ring, names)
        texts[f"labels-{name}"] = _canonical(relabeled)
        texts[f"labels-{name}-indent"] = json.dumps(relabeled, indent=2)
    texts["labels-non-ascii"] = json.dumps(_relabel(ring, relabels["non-ascii"]),
                                           ensure_ascii=False)
    texts["labels-raw-tab"] = texts["labels-tab"].replace("\\t", "\t")
    # labels of 100 bytes, the last entry of the map a few bytes from the end
    long_labels = _relabel(ring, {"1": "y" * 100, "3": "x" * 100})
    texts["labels-100-bytes-map-last"] = json.dumps(
        {key: long_labels[key] for key in ("irr", "unit", "dual", "N")})
    # a label of 16 bytes, and a string of 16 bytes that differs from it,
    # in its place as one entry key: the walk names the unknown key
    label, string = "collide0!6x$6%-J", "kollide0yU$*jWqX"
    texts["labels-colliding-key"] = _canonical(_relabel(ring, {"3": label})).replace(
        '"0,%s":{"%s":1}' % (label, label), '"0,%s":{"%s":1}' % (label, string))
    indent = texts["valid-indent"]
    texts.update({"crlf": indent.replace("\n", "\r\n"), "cr": indent.replace("\n", "\r"),
                  "tabs": indent.replace("  ", "\t"), "empty": ""})
    module = _regular_module(ring, 1)
    action = _canonical(module["n"])
    module_edits = {"valid": action, "unknown-label": action.replace('"m0_1"', '"m9"', 1),
                    "bad-key": action.replace('"1,m0_0"', '"1,m0_0,x"', 1),
                    "2^63": action.replace(':1', ':%d' % 2 ** 63, 1),
                    "repeated-row-key": "{" + action[1:action.index("}") + 1] + "," + action[1:]}
    for name, n in module_edits.items():
        texts[f"module-{name}"] = '{"irrM":%s,"n":%s,"ring":%s}' % (
            json.dumps(module["irrM"]), n, base)
    texts["module-non-ascii"] = json.dumps(
        {**module, "irrM": module["irrM"][:-1] + ["é"],
         "n": json.loads(action.replace('"m0_3"', '"é"'))}, ensure_ascii=False)
    texts["module-indent"] = json.dumps(module, indent=2)
    out = {name: text.encode() for name, text in texts.items()}
    out["bom"] = b"\xef\xbb\xbf" + base.encode()
    out["invalid-utf8"] = base.encode().replace(b'"3"', b'"\xff"')
    return out


def ring_corpus_argvs(name: str, path: str, ring: str) -> list[list[str]]:
    """The ``fusion trace`` and ``fusion descent`` commands of the file
    ``name`` of ``ring_corpus`` at ``path``: a ring file with its regular
    module, a module file with the ring file ``ring``."""
    if name.startswith("module-"):
        args = ["--ring", ring, "--module", path]
    else:
        args = ["--ring", path, "--module", "regular"]
    return [["fusion", "trace", *args], ["fusion", "descent", *args, "--subring", "0,2"]]


def fixed_ring_set() -> list[dict]:
    """Write the ring corpus into the working directory and return its
    ``fusion trace`` and ``fusion descent`` jobs."""
    jobs = []
    for name, raw in ring_corpus().items():
        path = f"ring-{name}.json"
        with open(path, "wb") as fh:
            fh.write(raw)
        jobs += [{"argv": argv, "output": True}
                 for argv in ring_corpus_argvs(name, path, "ring-valid.json")]
    return jobs


# -- the fixed lattice set -----------------------------------------------------------

#: the Lie types of the lattice set: every family, non-simply-laced ones among them
LATTICE_TYPES = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
                 + [f"C{r}" for r in range(2, 9)] + [f"D{r}" for r in range(3, 9)]
                 + ["E6", "E7", "E8", "F4", "G2"])


def fixed_lattice_set() -> list[dict]:
    """The ``classify`` table of each type of ``LATTICE_TYPES``, and the
    membership of each of its fundamental weights in Q."""
    jobs = []
    for lie_type in LATTICE_TYPES:
        rank = int(lie_type[1:])
        jobs.append({"argv": ["classify", "--lie-type", lie_type], "output": True})
        for i in range(rank):
            weight = ",".join("1" if k == i else "0" for k in range(rank))
            jobs.append({"argv": ["classify", "irrep", "--lie-type", lie_type,
                                  "--weight", weight, "--subgroup", "Q"], "output": True})
    return jobs


# -- comparison ---------------------------------------------------------------------

def json_differences(base, head, rtol: float, path: str = ""):
    """(path, base value, head value, allowed) for every leaf that differs;
    allowed when both are floats within ``rtol`` of each other."""
    if isinstance(base, dict) and isinstance(head, dict):
        for key in sorted(set(base) | set(head)):
            sub = f"{path}.{key}" if path else key
            if key not in base or key not in head:
                yield sub, base.get(key), head.get(key), False
            else:
                yield from json_differences(base[key], head[key], rtol, sub)
    elif isinstance(base, list) and isinstance(head, list) and len(base) == len(head):
        for n, (b, h) in enumerate(zip(base, head)):
            yield from json_differences(b, h, rtol, f"{path}[{n}]")
    elif type(base) is not type(head) or base != head:
        close = (isinstance(base, float) and isinstance(head, float)
                 and abs(base - head) <= rtol * max(abs(base), abs(head)))
        yield path, base, head, close


def text_differences(field: str, base: str | None, head: str | None, rtol: float):
    if base == head:
        return
    try:
        parsed = json.loads(base), json.loads(head)
    except (TypeError, ValueError):
        yield field, base, head, False
        return
    found = list(json_differences(*parsed, rtol))
    if not found:  # same values, different text
        found = [("", base, head, False)]
    for path, b, h, allowed in found:
        yield f"{field} {path}".rstrip(), b, h, allowed


def compare(base: list[dict], head: list[dict], rtol: float):
    """(command number, argv, field, base, head, verdict) per difference:
    "DIFF", or "allowed" within ``rtol``."""
    for n, (b, h) in enumerate(zip(base, head)):
        if b["argv"] != h["argv"]:
            yield n, b["argv"], "argv", b["argv"], h["argv"], "DIFF"
            continue
        for field in ("code", "stderr"):
            if b[field] != h[field]:
                yield n, b["argv"], field, b[field], h[field], "DIFF"
        for field, mask in (("stdout", True), ("artifact", False)):
            bt, ht = b[field], h[field]
            if mask:
                bt, ht = WALL_MS.sub('"wall_ms":0', bt), WALL_MS.sub('"wall_ms":0', ht)
            for where, bv, hv, allowed in text_differences(field, bt, ht, rtol):
                yield n, b["argv"], where, bv, hv, "allowed" if allowed else "DIFF"


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        with open(sys.argv[2], encoding="utf-8") as fh:
            jobs = json.load(fh)
        with open(sys.argv[3], "w", encoding="utf-8") as fh:
            json.dump(run_commands(jobs), fh)
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative difference allowed in a float field (default 0)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import inputs

    def benchmark_pass(workload, seed):
        return lambda: [{"argv": cmd.argv, "output": True}
                        for cmd in inputs.build(workload, seed, ".")]

    cases = [(f"{workload} seed {seed}", benchmark_pass(workload, seed))
             for workload in inputs.WORKLOADS for seed in SEEDS]
    cases += [("fixed fusion set", fixed_fusion_set), ("fixed index set", fixed_index_set),
              ("fixed spec set", fixed_spec_set), ("fixed ring set", fixed_ring_set),
              ("fixed lattice set", fixed_lattice_set)]
    total = failed = allowed_count = 0
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        for k, (name, build) in enumerate(cases):
            case = os.path.join(tmp, str(k))
            os.makedirs(os.path.join(case, "inputs"))
            cwd = os.getcwd()
            os.chdir(os.path.join(case, "inputs"))
            try:  # relative paths, so both trees run the same command lines
                jobs = build()
            finally:
                os.chdir(cwd)
            runs = []
            for side, src in (("base", args.base_src), ("head", args.head_src)):
                shutil.copytree(os.path.join(case, "inputs"), os.path.join(case, side))
                runs.append(run_tree(src, os.path.join(case, side), jobs))
            total += len(jobs)
            for n, argv, field, b, h, verdict in compare(*runs, args.rtol):
                allowed_count += verdict == "allowed"
                failed += verdict == "DIFF"
                print(f"{verdict} {name} #{n} {' '.join(argv)}: {field}: {b!r} != {h!r}")
    print(f"{total} commands: {failed} differences, {allowed_count} allowed "
          f"within rtol {args.rtol:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
