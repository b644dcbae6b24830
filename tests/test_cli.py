import argparse
import base64
import contextlib
import hashlib
import io
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

import qindex.cli
from qindex import io as qio
from qindex.algebra import group_algebra_inclusion
from qindex.cli import main
from qindex.fusion import FusionModule, validate_fusion
from qindex.generators import gen_pointed, gen_regular_module, gen_tlj

from report_diff import (CLI_ARGVS, WALL_MS, ring_corpus, ring_corpus_argvs,
                         spec_corpus)

from conftest import golden_ring, module_to_json, ring_from_bytes_spied, ring_to_json
from oracles import homomorphism_to_json, module_to_text, ring2_reference


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def pinching_spec(tmp_path):
    spec = {
        "inclusion": {
            "source": {"blocks": [1, 1]},
            "target": {"blocks": [2]},
            "matrix": [[[1, 0]] + [[0, 0]],
                       [[0, 0], [0, 0]],
                       [[0, 0], [0, 0]],
                       [[0, 0], [1, 0]]],
        }
    }
    path = tmp_path / "pinch.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_index_compute_pinching(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "index", "compute", "--spec", pinching_spec(tmp_path),
                       "-o", str(out_path))
    assert code == 0
    report = report_of(out)
    assert report["tolerances"] == {"tol": 1e-9}
    results = report["results"]
    assert abs(results["index_norm"] - 2.0) <= 1e-9
    assert abs(results["scalar_index"] - 2.0) <= 1e-9
    assert abs(results["prob_lower"] - 2.0) <= 1e-9
    # sum_t m_t sum_p k_tp = 2 * (1 + 1)
    assert results["quasi_basis_size"] == 4
    assert json.loads(out_path.read_text()) == results


def test_each_call_logs_to_its_own_stderr_at_its_own_level(tmp_path, capsys, monkeypatch):
    spec = pinching_spec(tmp_path)

    def stage_lines(level):
        monkeypatch.setenv("QINDEX_LOG", level)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["index", "compute", "--spec", spec]) == 0
        return [line.split(":")[2] for line in err.getvalue().splitlines()]

    first, second = stage_lines("info"), stage_lines("info")
    assert first == second == ["expectation_spec_from_json", "normal form",
                               "closed-form indices"]
    assert stage_lines("warning") == []
    capsys.readouterr()


def test_index_compute_identity(tmp_path, capsys):
    spec = {
        "inclusion": {
            "source": {"blocks": [2]},
            "target": {"blocks": [2]},
            "matrix": [[[1, 0], [0, 0], [0, 0], [0, 0]],
                       [[0, 0], [1, 0], [0, 0], [0, 0]],
                       [[0, 0], [0, 0], [1, 0], [0, 0]],
                       [[0, 0], [0, 0], [0, 0], [1, 0]]],
        }
    }
    path = tmp_path / "id.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "index", "compute", "--spec", str(path))
    assert code == 0
    results = report_of(out)["results"]
    for key in ("index_norm", "scalar_index", "prob_lower", "prob_upper"):
        assert abs(results[key] - 1.0) <= 1e-9


def test_index_compute_rank_deficient_exits_3(tmp_path, capsys):
    spec = {
        "inclusion": {
            "source": {"blocks": [1]},
            "target": {"blocks": [2]},
            "matrix": [[[1, 0]], [[0, 0]], [[0, 0]], [[1, 0]]],
        },
        "map": [
            [[1, 0], [0, 0], [0, 0], [0, 0]],
            [[0, 0], [0, 0], [0, 0], [0, 0]],
            [[0, 0], [0, 0], [0, 0], [0, 0]],
            [[1, 0], [0, 0], [0, 0], [0, 0]],
        ],
    }
    path = tmp_path / "rankdef.json"
    path.write_text(json.dumps(spec))
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "index", "compute", "--spec", str(path),
                       "-o", str(out_path))
    assert code == 3
    results = report_of(out)["results"]
    assert results["scalar_index"] == "inf"
    assert out_path.read_text() == json.dumps(results, sort_keys=True,
                                              separators=(",", ":")) + "\n"


@pytest.mark.parametrize("w", [1e-9, 2e-10, 1e-11, 1e-300])
def test_canonical_index_is_finite_at_any_weight_ratio(tmp_path, capsys, w):
    # C in C + C with trace weights [1, w]: the densities 1/(1+w) and
    # w/(1+w) are positive, so the index (1+w)/w is finite however small w is
    spec = {"inclusion": {"source": {"blocks": [1]}, "target": {"blocks": [1, 1]},
                          "matrix": [[[1, 0]], [[1, 0]]]},
            "trace_weights": [1, w]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "index", "compute", "--spec", str(path))
    assert (code, err) == (0, "")
    results = report_of(out)["results"]
    for key in ("scalar_index", "index_norm", "prob_lower", "prob_upper"):
        assert abs(results[key] - (1 + w) / w) <= 1e-12 * (1 + w) / w
    assert results["index_in_subalgebra"] is False


def test_a_report_is_the_object_of_its_key_texts():
    # main prints the canonical texts of the report's keys joined as one
    # object: the same bytes as encoding the whole report, "inf" included
    results = {"b": [1.5, float("inf")], "a": (1, 2), "\u00e9": {"0": -float("inf")}}
    for report in ({"results": results, "seed": 0},
                   {"results": {"ring": results, "dims": {"0": 1.0}}, "command": ["x", "\u00e9"]},
                   {"results": {"ring": results}, "wall_ms": float("inf")},
                   {"results": {}, "tolerances": {"tol": 1e-9}, "input_digest": "ab"}):
        texts = {key: qio.canonical_text(value) for key, value in report.items()}
        assert qio.canonical_object(texts) == qio.canonical_text(report)


def test_fusion_generate_encodes_the_ring_once(tmp_path, capsys, monkeypatch):
    # io writes the ring's text once, and its ring/2 file only with -o; cli
    # writes that text into the report and the file to -o, and no object
    # that holds the ring is encoded again
    def holds(value, part):
        return value == part or (isinstance(value, dict)
                                 and any(holds(v, part) for v in value.values()))

    texts, files, encoded = [], [], []
    ring_to_text, ring_to_bytes = qio.ring_to_text, qio.ring_to_bytes
    canonical = qio.canonical_text
    monkeypatch.setattr(qio, "ring_to_text",
                        lambda ring: texts.append(ring_to_text(ring)) or texts[-1])
    monkeypatch.setattr(qio, "ring_to_bytes",
                        lambda ring: files.append(ring_to_bytes(ring)) or files[-1])
    monkeypatch.setattr(qio, "canonical_text",
                        lambda payload: encoded.append(payload) or canonical(payload))
    out_path = tmp_path / "tlj9.json"
    for output in (["-o", str(out_path)], []):
        code, out, _ = run(capsys, "fusion", "generate", "tlj", "--n", "9", *output)
        assert code == 0
        ring = report_of(out)["results"]["ring"]
        assert texts == [canonical(ring)]
        assert not any(holds(payload, ring) or holds(payload, texts[0])
                       for payload in encoded)
        assert out == canonical(report_of(out)) + "\n"
        texts.clear()
    assert len(files) == 1 and out_path.read_bytes() == files[0] + b"\n"


@pytest.mark.parametrize("kind", [["tlj", "--n", "12"], ["pointed", "--factors", "2,6"]])
def test_fusion_generate_output_is_the_same_with_and_without_o(tmp_path, capsys, kind):
    # byte for byte, but for the command echo and the timing; the -o file
    # is the qindex.ring/2 file of the ring the report holds
    out_path = tmp_path / "ring.json"
    reports = []
    for output in (["-o", str(out_path)], []):
        code, out, err = run(capsys, "fusion", "generate", *kind, *output)
        assert (code, err) == (0, "")
        report = report_of(out)
        assert out.count('"command":' + json.dumps(report["command"], separators=(",", ":"))) == 1
        reports.append(out.replace(json.dumps(report["command"], separators=(",", ":")), "[]")
                       .replace(f'"wall_ms":{report["wall_ms"]!r}', '"wall_ms":0'))
    assert reports[0] == reports[1]
    ring = qio.ring_from_json(report_of(reports[0])["results"]["ring"])
    assert out_path.read_bytes() == qio.ring_to_bytes(ring) + b"\n"
    assert qio.ring_to_text(qio.ring_from_bytes(out_path.read_bytes())) == qio.ring_to_text(ring)


def test_each_input_file_is_read_once(tmp_path, capsys, monkeypatch):
    # the digest hashes the bytes that were parsed, in the order of the
    # paths: sha256 of the files as before; a command that reads no file
    # hashes the JSON of its parameters
    ring = gen_tlj(7)[0]
    ring_path, module_path = tmp_path / "ring.json", tmp_path / "module.json"
    ring_path.write_text(qio.ring_to_text(ring))
    module_path.write_text(module_to_text(gen_regular_module(ring)))
    spec_path = pinching_spec(tmp_path)
    reads = []
    monkeypatch.setattr(qindex.cli, "open", lambda path, mode="r", **kw: (
        reads.append(str(path)) if "r" in mode else None) or open(path, mode, **kw),
        raising=False)
    both = hashlib.sha256(module_path.read_bytes() + ring_path.read_bytes()).hexdigest()

    def params(**kw):
        return hashlib.sha256(json.dumps(kw, sort_keys=True, separators=(",", ":"))
                              .encode()).hexdigest()

    for argv, paths, digest in (
            (["index", "compute", "--spec", spec_path], [spec_path],
             hashlib.sha256(open(spec_path, "rb").read()).hexdigest()),
            (["fusion", "trace", "--ring", str(ring_path), "--module", str(module_path)],
             [str(ring_path), str(module_path)], both),
            (["fusion", "descent", "--ring", str(ring_path), "--module", str(module_path),
              "--subring", "0,2,4"], [str(ring_path), str(module_path)], both),
            (["fusion", "generate", "tlj", "--n", "5"], [], params(kind="tlj", n=5)),
            (["fusion", "generate", "pointed", "--factors", "2,,3"], [],
             params(kind="pointed", factors=[2, 3])),
            (["fusion", "jones", "--value", "inf"], [], params(value=float("inf"))),
            (["classify", "--lie-type", "a2"], [], params(lie_type="A2")),
            (["classify", "irrep", "--lie-type", "a2", "--weight", "1,0", "--subgroup", "q"],
             [], params(lie_type="A2", weight=[1, 0], subgroup="q"))):
        reads.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert reads == paths
        assert report_of(out)["input_digest"] == digest


def test_unreadable_text_fails_as_text_mode_reading_does(tmp_path, capsys):
    # invalid UTF-8 is a validation failure (exit 2); malformed JSON is
    # exit 1, at the line and column of the text with its newlines
    # translated, as open() in text mode reads it
    for raw, code in ((b'\xff{"inclusion": 1}', 2), (b'{\r\n"a":\r\n}', 1),
                      (b'{\r"a":\r}', 1), (b'{"a": "\r"}', 1), (b"\xef\xbb\xbf{}", 1)):
        path = tmp_path / "spec.json"
        path.write_bytes(raw)
        try:
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
        except UnicodeDecodeError as err:
            want = f"error: {err}\n"
        except json.JSONDecodeError as err:
            want = (f"error: {path}: malformed JSON at line {err.lineno} "
                    f"column {err.colno}: {err.msg}\n")
        assert run(capsys, "index", "compute", "--spec", str(path)) == (code, "", want)


@pytest.mark.parametrize("name", list(spec_corpus()))
def test_spec_corpus_reads_as_json_reads_it(tmp_path, capsys, monkeypatch, name):
    # each spec, malformed or not, gives the outputs it gives when every
    # matrix is decoded by json and checked as lists
    monkeypatch.delenv("QINDEX_LOG", raising=False)
    path = tmp_path / "spec.json"
    path.write_bytes(spec_corpus()[name])

    def outputs():
        code, out, err = run(capsys, "index", "compute", "--spec", str(path))
        return code, WALL_MS.sub('"wall_ms":0', out), err

    fast = outputs()
    monkeypatch.setattr(qio, "loads", lambda raw: json.loads(
        io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()))
    assert outputs() == fast


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("with_map", [False, True])
def test_trace_weights_of_pairs_fail_alike_on_either_path(tmp_path, capsys, blocks, rows,
                                                          with_map):
    # "trace_weights" given as an array of pairs is an ndarray on the text
    # path and nested lists after an escaped string; both exit alike
    pair = [[1, 0]]
    spec = {"inclusion": {"source": {"blocks": [1]}, "target": {"blocks": [1] * blocks},
                          "matrix": [pair] * blocks},
            "trace_weights": [pair] * rows}
    if with_map:
        spec["map"] = [[[int(i == j), 0] for j in range(blocks)] for i in range(blocks)]
    text = json.dumps(spec)
    outputs = []
    for raw in (text, text[:-1] + ', "x": "\\u0041"}'):
        got = qio.loads(raw.encode())["trace_weights"]
        assert isinstance(got, np.ndarray) == ("\\" not in raw)
        path = tmp_path / "spec.json"
        path.write_text(raw)
        code, _, err = run(capsys, "index", "compute", "--spec", str(path))
        outputs.append((code, err))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 2
    message = ("one finite positive weight per target block" if rows == blocks
               else "one positive weight per target block")
    assert f"expectation.trace_weights: {message}" in outputs[0][1]


def test_spec_corpus_takes_the_text_path_on_valid_specs():
    corpus = spec_corpus()
    for name in ("valid", "map-exponents", "map-2^53+1", "map-spaces", "compact",
                 "tabs-and-newlines", "array-in-string", "map-all-ints", "map-1e400"):
        assert isinstance(qio.loads(corpus[name])["map"], np.ndarray), name
    for name in ("map-true", "map-nan", "map-int-400-digits",
                 "escaped-key", "crlf", "non-ascii-key"):
        assert not isinstance(qio.loads(corpus[name]).get("map"), np.ndarray), name


@pytest.mark.parametrize("name", list(ring_corpus()))
def test_ring_corpus_reads_as_json_reads_it(tmp_path, capsys, monkeypatch, name):
    # each ring or module file, malformed or not, gives the outputs of
    # fusion trace and fusion descent that it gives when every map is
    # decoded by json and walked entry by entry
    monkeypatch.delenv("QINDEX_LOG", raising=False)
    corpus = ring_corpus()
    ring, path = tmp_path / "ring.json", tmp_path / "file.json"
    ring.write_bytes(corpus["valid"])
    path.write_bytes(corpus[name])

    def outputs():
        out = []
        for argv in ring_corpus_argvs(name, str(path), str(ring)):
            code, stdout, stderr = run(capsys, *argv)
            out.append((code, WALL_MS.sub('"wall_ms":0', stdout), stderr))
        return out

    fast = outputs()
    read = []

    def text_loads(raw):
        return json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())

    def ring_reference(raw):
        read.append(raw)
        return qio.ring_from_json(text_loads(raw))

    monkeypatch.setattr(qio, "loads", text_loads)
    monkeypatch.setattr(qio, "ring_from_bytes", ring_reference)
    assert outputs() == fast
    assert read


def test_ring_corpus_goes_through_the_entry_walk():
    # a file read as qindex.ring/2 says so in its "schema"; every file of
    # the corpus, a ring/1 or module file, valid or not, goes through json
    # and the entry walk of ring_from_json, and so do the valid ring's
    # ring/1 text under another schema and its ring/2 text without one
    corpus = ring_corpus()
    unclosed = corpus["valid"][:-1]  # the valid ring/1 text but its last brace
    texts = {**corpus, "schema-other": unclosed + b',"schema":"qindex.ring/3"}',
             "schema-list": unclosed + b',"schema":["qindex.ring/2"]}',
             "schema-pairs": unclosed + b',"schema":[[[1,2]]]}'}
    for name, raw in texts.items():
        try:
            _, read = ring_from_bytes_spied(raw)
        except ValueError:  # the error of the file's text, raised through json
            read = False
        assert not read, name
    ring2 = json.loads(qio.ring_to_bytes(qio.ring_from_json(json.loads(corpus["valid"]))))
    _, read = ring_from_bytes_spied(json.dumps(ring2).encode())
    assert read
    del ring2["schema"]
    with pytest.raises(qio.SchemaError, match=r"fusion_ring.N\['mask'\]: keys are"):
        ring_from_bytes_spied(json.dumps(ring2).encode())


def ring2_damage() -> dict[str, tuple[dict, str]]:
    """The qindex.ring/2 file of TLJ(6), whose 125 mask bits leave 3 pad
    bits, with one kind of damage to its "N" each, by name, and the error
    that each gives."""
    valid = json.loads(qio.ring_to_bytes(gen_tlj(6)[0]))
    n = valid["N"]
    mask = base64.b64decode(n["mask"])
    mults = np.frombuffer(base64.b64decode(n["mult"]), np.uint8)
    unset = next(k for k in range(125) if not mask[k // 8] & 0x80 >> k % 8)
    more = bytearray(mask)
    more[unset // 8] |= 0x80 >> unset % 8
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    # the last base64 digit of 16 bytes carries 2 bits and 4 trailing zero bits
    trailing = n["mask"][:21] + alphabet[alphabet.index(n["mask"][21]) + 1] + "=="

    def b64(raw) -> str:
        return base64.b64encode(bytes(raw)).decode()

    mask_error = "fusion_ring.N.mask: mask is a string of canonical base64"
    mult_error = "fusion_ring.N.mult: mult is a string of canonical base64"
    mask_bits_error = "fusion_ring.N.mask: mask has 16 bytes, one bit per entry, and zero pad bits"
    count_error = "fusion_ring.N.mult: one multiplicity of 1, 2, 4 or 8 bytes per set mask bit"
    cases = {
        "mask-short": ({**n, "mask": b64(mask[:-1])}, mask_bits_error),
        "mask-long": ({**n, "mask": b64(mask + b"\0")}, mask_bits_error),
        "pad-bit": ({**n, "mask": b64(mask[:-1] + bytes([mask[-1] | 1]))}, mask_bits_error),
        "more-bits": ({**n, "mask": b64(more)}, count_error),
        "more-mults": ({**n, "mult": b64(np.append(mults, 1))}, count_error),
        "no-mults": ({**n, "mult": ""}, count_error),
        "zero-mult": ({**n, "mult": b64(np.append(0, mults[1:]))},
                      "fusion_ring.N.mult: multiplicities are positive"),
        "wider-than-needed": ({**n, "mult": b64(mults.astype("<u2").tobytes())},
                              "fusion_ring.N.mult: multiplicities have the narrowest width "
                              "that holds the largest"),
        "2^63": ({**n, "mult": b64(np.append(np.uint64(2 ** 63), mults[1:]).astype("<u8")
                                   .tobytes())},
                 "fusion_ring.N.mult: multiplicities are below 2^63"),
        "missing-padding": ({**n, "mask": n["mask"].rstrip("=")}, mask_error),
        "newline": ({**n, "mult": n["mult"][:8] + "\n" + n["mult"][8:]}, mult_error),
        "non-alphabet": ({**n, "mult": n["mult"][:8] + "!" + n["mult"][8:]}, mult_error),
        "non-ascii": ({**n, "mask": "é" + n["mask"][1:]}, mask_error),
        "trailing-bits": ({**n, "mask": trailing}, mask_error),
        "mask-number": ({**n, "mask": 5}, mask_error),
        "mask-list": ({**n, "mask": [n["mask"]]}, mask_error),
        "mask-missing": ({"mult": n["mult"]}, mask_error),
        "mult-missing": ({"mask": n["mask"]}, mult_error),
        "extra-key": ({**n, "index": ""}, "fusion_ring.N: N holds only mask and mult"),
        "not-an-object": ([n["mask"], n["mult"]], "fusion_ring.N: N is an object"),
    }
    return {name: ({**valid, "N": damaged}, message)
            for name, (damaged, message) in cases.items()}


@pytest.mark.parametrize("name", list(ring2_damage()))
def test_fusion_trace_rejects_damaged_ring2_files(tmp_path, capsys, name):
    # each is a validation failure that names the part of N that fails
    payload, message = ring2_damage()[name]
    path = tmp_path / "ring.json"
    path.write_text(qio.canonical_text(payload) + "\n")
    assert run(capsys, "fusion", "trace", "--ring", str(path), "--module", "regular") == \
        (2, "", f"error: {message}\n")


def json_values_only(value) -> bool:
    """Whether ``value`` is built of dicts, lists, strings, numbers,
    booleans and None only, as ``json`` returns."""
    if type(value) is dict:
        return all(map(json_values_only, value.values()))
    if type(value) is list:
        return all(map(json_values_only, value))
    return value is None or type(value) in (str, int, float, bool)


def test_ring_corpus_loads_as_json_loads_it():
    # a ring or module file holds no array of pairs: loads returns what
    # json returns, of dicts and lists only
    for name, raw in ring_corpus().items():
        try:
            want = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
        except ValueError as err:
            with pytest.raises(type(err)) as got:
                qio.loads(raw)
            assert str(got.value) == str(err), name
            continue
        got = qio.loads(raw)
        assert got == want and json_values_only(got), name


def test_generated_ring_files_are_read_as_ring2(tmp_path, capsys, monkeypatch):
    # fusion trace and fusion descent read the ring files that fusion
    # generate -o writes, as the benchmark runs them, as qindex.ring/2
    path = str(tmp_path / "ring.json")
    evens = ",".join(map(str, range(0, 39, 2)))
    for argv, subring in ((["tlj", "--n", "40"], evens), (["pointed", "--factors", "2,6"], "0.0")):
        monkeypatch.delenv("QINDEX_LOG", raising=False)
        assert run(capsys, "fusion", "generate", *argv, "-o", path)[0] == 0
        monkeypatch.setenv("QINDEX_LOG", "info")
        for command in (["trace"], ["descent", "--subring", subring]):
            code, _, err = run(capsys, "fusion", *command, "--ring", path, "--module", "regular")
            assert code == 0, (argv, command)
            assert re.search(r"ring_from_bytes: rank \d+, \d+ nonzero, N from base64", err), err
            assert "ring_from_json" not in err


@pytest.mark.parametrize("where, message", [
    (("inclusion", "matrix", 3, 1, 0), "expectation.inclusion.matrix[3][1]: "
     "complex entries are [re, im] pairs of numbers"),
    (("map", 0, 0, 0), "expectation.map[0][0]: complex entries are [re, im] pairs of numbers"),
    (("trace_weights", 0), "expectation.trace_weights: one finite positive weight per "
     "target block"),
    (("inclusion", "source", "blocks", 1), "expectation.inclusion.source.blocks: "
     "blocks is a nonempty list of positive integers"),
])
def test_index_compute_rejects_json_true(tmp_path, capsys, where, message):
    # true was read as 1, and this spec reported index 2
    spec = json.loads(open(pinching_spec(tmp_path)).read())
    spec["map"] = [[[float(i == j and i in (0, 3)), 0] for j in range(4)] for i in range(4)]
    spec["trace_weights"] = [1]
    *keys, last = where
    target = spec
    for key in keys:
        target = target[key]
    assert target[last] == 1
    target[last] = True
    path = tmp_path / "true.json"
    path.write_text(json.dumps(spec))
    assert run(capsys, "index", "compute", "--spec", str(path)) == (2, "", f"error: {message}\n")


def test_fusion_trace_rejects_json_true_multiplicity(tmp_path, capsys):
    ring_path = tmp_path / "tlj4.json"
    ring_path.write_text(qio.ring_to_text(gen_tlj(4)[0]).replace('"1,1":{"0":1',
                                                                '"1,1":{"0":true'))
    code, out, err = run(capsys, "fusion", "trace", "--ring", str(ring_path),
                         "--module", "regular")
    assert (code, out, err) == (2, "", "error: fusion_ring.N['1,1']['0']: "
                                "multiplicities are nonnegative ints\n")


def test_index_compute_rejects_non_multiplicative_inclusion(tmp_path, capsys):
    # C + C -> M_2 sending the first unit to e_11 + e_12, which is not a
    # projection; on both the canonical and the explicit-map path
    with open(pinching_spec(tmp_path), encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["inclusion"]["matrix"][1][0] = [1, 0]
    for explicit in (False, True):
        if explicit:
            spec["map"] = [[[float(i == j), 0] for j in range(4)] for i in range(4)]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "index", "compute", "--spec", str(path))
        assert code == 2
        assert out == ""
        assert "inclusion is not a *-homomorphism" in err


@pytest.mark.parametrize("broken, message", [
    (("map", 0, 0, 0), "expectation.map[0][0]: complex entries are [re, im] pairs of numbers"),
    (("trace_weights", 0), "expectation.trace_weights: one finite positive weight per "
     "target block"),
    (None, "inclusion is not a unital *-homomorphism: B block 0 has size 2, the images "
     "of A's minimal projections span 1"),
], ids=["map", "trace-weights", "none"])
def test_index_compute_reports_schema_errors_before_the_inclusion(tmp_path, capsys, broken,
                                                                  message):
    # the inclusion drops the image of the second unit, so it is not
    # unital; a schema error in the map or the trace weights, read after
    # the inclusion, is still the one reported
    with open(pinching_spec(tmp_path), encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["inclusion"]["matrix"][3][1] = [0, 0]
    spec["map"] = [[[float(i == j and i in (0, 3)), 0] for j in range(4)] for i in range(4)]
    spec["trace_weights"] = [1]
    if broken is not None:
        *keys, last = broken
        target = spec
        for key in keys:
            target = target[key]
        target[last] = True
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec))
    assert run(capsys, "index", "compute", "--spec", str(path)) == (2, "", f"error: {message}\n")


def test_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys):
    # a map that fails unitality and bimodularity at the default tol; a NaN
    # tol made every "> tol" comparison False, so it passed validation
    with open(pinching_spec(tmp_path), encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["map"] = [[[2.0 * (i == j), 0] for j in range(4)] for i in range(4)]
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "index", "compute", "--spec", str(path))
    assert code == 2 and out == "" and "unitality" in err
    for tol, message in (("nan", "not a number: 'nan'"),
                         ("abc", "not a number: 'abc'"),
                         ("inf", "not a finite number >= 0: 'inf'"),
                         ("-1e-9", "not a finite number >= 0: '-1e-9'")):
        with pytest.raises(SystemExit) as exc:
            main(["index", "compute", "--spec", str(path), f"--tol={tol}"])
        assert exc.value.code == 2
        assert f"argument --tol: {message}" in capsys.readouterr().err


def test_a_valid_tolerance_reaches_the_validation(tmp_path, capsys):
    # the pinching map of M_2 off by 1e-7 in entry [1][0] fails at the
    # default tol and passes at --tol 1e-6, which the report records
    with open(pinching_spec(tmp_path), encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["map"] = [[[float(i == j and i in (0, 3)), 0] for j in range(4)] for i in range(4)]
    spec["map"][1][0][0] = 1e-7
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "index", "compute", "--spec", str(path))
    assert code == 2 and out == ""
    assert "failed axioms: unitality, bimodularity" in err
    code, out, _ = run(capsys, "index", "compute", "--spec", str(path), "--tol", "1e-6")
    assert code == 0
    assert '"tolerances":{"tol":1e-06}' in out
    assert abs(report_of(out)["results"]["scalar_index"] - 2.0) <= 1e-6


@pytest.mark.parametrize("argv", [
    ["fusion", "generate", "tlj", "--n", "3"],
    ["fusion", "generate", "pointed", "--factors", "2"],
    ["fusion", "trace", "--ring", "ring.json", "--module", "regular"],
    ["classify", "--lie-type", "A1"],
    ["classify", "irrep", "--lie-type", "A1", "--weight", "1", "--subgroup", "Q"],
])
def test_commands_without_a_tolerance_reject_tol(tmp_path, capsys, monkeypatch, argv):
    # these commands test against no tolerance; their reports say
    # "tolerances": {}
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol=1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol=1e-9" in capsys.readouterr().err
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ring.json").write_bytes(qio.ring_to_bytes(gen_tlj(4)[0]))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert report_of(out)["tolerances"] == {}


def test_commands_with_a_tolerance_report_it(tmp_path, capsys):
    # fusion jones and fusion descent accept --tol; their reports record it
    ring_path = tmp_path / "ring.json"
    ring_path.write_bytes(qio.ring_to_bytes(gen_tlj(5)[0]))
    for argv in (["fusion", "jones", "--value", "3"],
                 ["fusion", "descent", "--ring", str(ring_path), "--module", "regular",
                  "--subring", "0,2"]):
        for tol, want in (([], {"tol": 1e-9}), (["--tol", "1e-6"], {"tol": 1e-6})):
            code, out, _ = run(capsys, *argv, *tol)
            assert code == 0
            assert report_of(out)["tolerances"] == want


#: exit code, stdout and stderr of each command line of ``CLI_ARGVS`` at
#: COLUMNS=80: usage errors at each level of the parser tree and help text
CLI_SURFACE = {
    "": (2, "", (
        "usage: qindex [-h] {index,fusion,classify} ...\n"
        "qindex: error: the following arguments are required: cmd\n")),
    "index": (2, "", (
        "usage: qindex index [-h] {compute} ...\n"
        "qindex index: error: the following arguments are required: index_cmd\n")),
    "index compute": (2, "", (
        "usage: qindex index compute [-h] [--seed SEED] [--tol TOL] --spec SPEC\n"
        "                            [-o OUTPUT]\n"
        "qindex index compute: error: the following arguments are required: --spec\n")),
    "index compute --spec F --tol abc": (2, "", (
        "usage: qindex index compute [-h] [--seed SEED] [--tol TOL] --spec SPEC\n"
        "                            [-o OUTPUT]\n"
        "qindex index compute: error: argument --tol: not a number: 'abc'\n")),
    "bogus": (2, "", (
        "usage: qindex [-h] {index,fusion,classify} ...\n"
        "qindex: error: argument cmd: invalid choice: 'bogus' (choose from 'index', "
        "'fusion', 'classify')\n")),
    "fusion generate": (2, "", (
        "usage: qindex fusion generate [-h] {tlj,pointed} ...\n"
        "qindex fusion generate: error: the following arguments are required: kind\n")),
    "classify": (2, "", (
        "usage: qindex [-h] {index,fusion,classify} ...\n"
        "qindex: error: classify requires --lie-type\n")),
    "classify irrep --lie-type A2": (2, "", (
        "usage: qindex classify irrep [-h] [--seed SEED] --lie-type LIE_TYPE --weight\n"
        "                             WEIGHT --subgroup SUBGROUP\n"
        "qindex classify irrep: error: the following arguments are required: "
        "--weight, --subgroup\n")),
    "-h": (0, (
        "usage: qindex [-h] {index,fusion,classify} ...\n"
        "\n"
        "Index theory of conditional expectations, fusion-module traces, and\n"
        "root/weight lattice classification.\n"
        "\n"
        "positional arguments:\n"
        "  {index,fusion,classify}\n"
        "    index               conditional-expectation indices\n"
        "    fusion              fusion rings and module traces\n"
        "    classify            finite-index subgroup tables\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"), ""),
    "index -h": (0, (
        "usage: qindex index [-h] {compute} ...\n"
        "\n"
        "positional arguments:\n"
        "  {compute}\n"
        "    compute   index report from a JSON spec\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"), ""),
    "index compute -h": (0, (
        "usage: qindex index compute [-h] [--seed SEED] [--tol TOL] --spec SPEC\n"
        "                            [-o OUTPUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED           seed recorded in the report (default 0)\n"
        "  --tol TOL             numerical tolerance (default 1e-9)\n"
        "  --spec SPEC           expectation spec file\n"
        "  -o OUTPUT, --output OUTPUT\n"), ""),
    "classify -h": (0, (
        "usage: qindex classify [-h] [--seed SEED] [--lie-type LIE_TYPE] [-o OUTPUT]\n"
        "                       {irrep} ...\n"
        "\n"
        "positional arguments:\n"
        "  {irrep}\n"
        "    irrep               irrep membership in a subgroup\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED           seed recorded in the report (default 0)\n"
        "  --lie-type LIE_TYPE\n"
        "  -o OUTPUT, --output OUTPUT\n"), ""),
    "classify irrep -h": (0, (
        "usage: qindex classify irrep [-h] [--seed SEED] --lie-type LIE_TYPE --weight\n"
        "                             WEIGHT --subgroup SUBGROUP\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --seed SEED          seed recorded in the report (default 0)\n"
        "  --lie-type LIE_TYPE\n"
        "  --weight WEIGHT      comma-separated dominant weight\n"
        "  --subgroup SUBGROUP  P, Q, or a position in the classification table\n"), ""),
}


@pytest.mark.parametrize("argv", CLI_ARGVS, ids=" ".join)
def test_usage_errors_and_help_are_pinned(capsys, monkeypatch, argv):
    # each parser prints its own help and errors, whether it is built alone
    # or in the full tree; report_diff's cli set runs the same command lines
    assert set(CLI_SURFACE) == {" ".join(a) for a in CLI_ARGVS}
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == CLI_SURFACE[" ".join(argv)]


def test_cyclic_index_compute_builds_one_parser_and_no_eigh(tmp_path, capsys, monkeypatch):
    # C[Z_12] in C[Z_24] read off its matrix: every B block has size 1, so
    # the normal form needs no eigendecomposition, the canonical densities
    # are scalars, and only the parser of index compute is built
    inclusion, _ = group_algebra_inclusion(24, 12)
    path = tmp_path / "cyclic24_12.json"
    path.write_text(json.dumps({"inclusion": homomorphism_to_json(inclusion)}))
    eigh, built = [], []
    real_eigh, real_init = np.linalg.eigh, argparse.ArgumentParser.__init__

    def counted_eigh(*args, **kwargs):
        eigh.append(args[0].shape)
        return real_eigh(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.prog)

    # the CLI's cached parsers are emptied, so the command builds the
    # parsers it uses
    caches = [f for f in vars(qindex.cli).values() if hasattr(f, "cache_clear")]
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for cache in caches:
        cache.cache_clear()
    try:
        code, out, _ = run(capsys, "index", "compute", "--spec", str(path))
    finally:
        for cache in caches:
            cache.cache_clear()
    assert code == 0
    assert report_of(out)["results"]["scalar_index"] == 2.0
    assert eigh == []
    assert built == ["qindex index compute"]


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"oops":')
    code, _, err = run(capsys, "index", "compute", "--spec", str(path))
    assert code == 1
    assert "line" in err


def test_schema_violation_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"inclusion": {"source": {"blocks": []},
                                              "target": {"blocks": [2]},
                                              "matrix": []}}))
    code, _, err = run(capsys, "index", "compute", "--spec", str(path))
    assert code == 2


def test_generate_round_trips(tmp_path, capsys):
    out_path = tmp_path / "tlj7.json"
    code, _, _ = run(capsys, "fusion", "generate", "tlj", "--n", "7",
                     "-o", str(out_path))
    assert code == 0
    ring = qio.ring_from_bytes(out_path.read_bytes())
    assert len(ring.labels) == 6
    assert validate_fusion(ring) == []

    out_path = tmp_path / "v4.json"
    code, _, _ = run(capsys, "fusion", "generate", "pointed", "--factors", "2,2",
                     "-o", str(out_path))
    assert code == 0
    ring = qio.ring_from_bytes(out_path.read_bytes())
    assert len(ring.labels) == 4
    assert validate_fusion(ring) == []


def test_artifacts_are_canonical_compact_json(tmp_path, capsys):
    # -o files use the encoding of the report line: sorted keys, no
    # spaces; a ring file is the qindex.ring/2 payload of the report's ring
    ring_path = tmp_path / "tlj4.json"
    code, out, _ = run(capsys, "fusion", "generate", "tlj", "--n", "4",
                       "-o", str(ring_path))
    assert code == 0
    ring = qio.ring_from_json(report_of(out)["results"]["ring"])
    assert ring_path.read_text() == json.dumps(ring2_reference(ring), sort_keys=True,
                                               separators=(",", ":")) + "\n"


def test_generate_tlj4_has_three_labels(tmp_path, capsys):
    out_path = tmp_path / "tlj4.json"
    code, out, _ = run(capsys, "fusion", "generate", "tlj", "--n", "4",
                       "-o", str(out_path))
    assert code == 0
    assert len(json.loads(out_path.read_text())["irr"]) == 3


def test_fusion_trace_regular(tmp_path, capsys):
    ring_path = tmp_path / "tlj4.json"
    run(capsys, "fusion", "generate", "tlj", "--n", "4", "-o", str(ring_path))
    code, out, _ = run(capsys, "fusion", "trace", "--ring", str(ring_path),
                       "--module", "regular")
    assert code == 0
    trace = report_of(out)["results"]["trace"]
    assert abs(trace["0"] - 1.0) <= 1e-9
    assert abs(trace["1"] - 1.41421356) <= 1e-7
    assert abs(trace["2"] - 1.0) <= 1e-9


@pytest.mark.parametrize("k", [10 ** 4, 10 ** 6])
def test_fusion_trace_of_a_ring_with_large_multiplicities(tmp_path, capsys, k):
    # x x = 1 + k x, whose character equation is checked relative to d(x)^2
    ring_path = tmp_path / "ring.json"
    ring_path.write_bytes(qio.ring_to_bytes(golden_ring(k)))
    code, out, _ = run(capsys, "fusion", "trace", "--ring", str(ring_path),
                       "--module", "regular")
    assert code == 0
    assert report_of(out)["results"]["trace"]["x"] == \
        pytest.approx((k + np.sqrt(k * k + 4)) / 2, rel=1e-12)


def test_fusion_trace_of_tlj150(tmp_path, capsys):
    ring_path = tmp_path / "tlj150.json"
    run(capsys, "fusion", "generate", "tlj", "--n", "150", "-o", str(ring_path))
    code, out, _ = run(capsys, "fusion", "trace", "--ring", str(ring_path),
                       "--module", "regular")
    assert code == 0
    trace = report_of(out)["results"]["trace"]
    assert trace["148"] == pytest.approx(1.0, rel=1e-12)
    assert trace["74"] == pytest.approx(1 / np.sin(np.pi / 150), rel=1e-12)


def test_fusion_trace_module_file(tmp_path, capsys):
    ring_path = tmp_path / "z4.json"
    run(capsys, "fusion", "generate", "pointed", "--factors", "4",
        "-o", str(ring_path))
    ring = qio.ring_from_bytes(ring_path.read_bytes())
    module_path = tmp_path / "reg.json"
    module_path.write_text(json.dumps(module_to_json(gen_regular_module(ring))))
    code, out, _ = run(capsys, "fusion", "trace", "--ring", str(ring_path),
                       "--module", str(module_path))
    assert code == 0
    assert report_of(out)["results"]["status"] == "ok"


def test_module_files_take_either_ring_form(tmp_path, capsys):
    # a module whose "ring" is the qindex.ring/2 object of fusion generate
    # -o gives the fusion trace and fusion descent reports of the same
    # module with the qindex.ring/1 ring, the input digest aside
    ring_path, module_path = tmp_path / "tlj6.json", tmp_path / "module.json"
    run(capsys, "fusion", "generate", "tlj", "--n", "6", "-o", str(ring_path))
    module = module_to_json(gen_regular_module(qio.ring_from_bytes(ring_path.read_bytes())))
    ring2 = json.loads(ring_path.read_bytes())
    assert ring2["schema"] == "qindex.ring/2" and "schema" not in module["ring"]
    outputs = []
    for ring in (module["ring"], ring2):
        module_path.write_text(json.dumps({**module, "ring": ring}))
        for command in (["trace"], ["descent", "--subring", "0,2,4"]):
            code, out, err = run(capsys, "fusion", *command, "--ring", str(ring_path),
                                 "--module", str(module_path))
            report = report_of(out)
            assert (code, err) == (0, "")
            outputs.append({**report, "input_digest": None, "wall_ms": None})
    assert outputs[:2] == outputs[2:]


@pytest.mark.parametrize("name", ["mask-short", "zero-mult", "extra-key"])
def test_module_files_reject_damaged_ring2_rings(tmp_path, capsys, name):
    # the ring/2 checks of a --ring file hold for a module's ring, at its path
    payload, message = ring2_damage()[name]
    ring_path, module_path = tmp_path / "tlj6.json", tmp_path / "module.json"
    ring = gen_tlj(6)[0]
    ring_path.write_bytes(qio.ring_to_bytes(ring))
    module = module_to_json(gen_regular_module(ring))
    module_path.write_text(json.dumps({**module, "ring": payload}))
    assert message.startswith("fusion_ring.N")
    message = message.replace("fusion_ring", "fusion_module.ring", 1)
    assert run(capsys, "fusion", "trace", "--ring", str(ring_path), "--module",
               str(module_path)) == (2, "", f"error: {message}\n")


def test_fusion_trace_validates_the_regular_module_as_its_ring(tmp_path, capsys, caplog):
    # the regular module's laws are the ring's axioms: one ring validation,
    # so the associativity products run once per label; a module file
    # still runs the module validation
    ring_path = tmp_path / "tlj5.json"
    run(capsys, "fusion", "generate", "tlj", "--n", "5", "-o", str(ring_path))
    ring = qio.ring_from_bytes(ring_path.read_bytes())
    module_path = tmp_path / "reg.json"
    module_path.write_text(json.dumps(module_to_json(gen_regular_module(ring))))
    cases = [(("fusion", "trace", "--module", "regular"), 0),
             (("fusion", "descent", "--module", "regular", "--subring", "0,2"), 0),
             (("fusion", "trace", "--module", str(module_path)), 1)]
    for (cmd, sub, *rest), modules in cases:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="qindex.fusion"):
            code, _, _ = run(capsys, cmd, sub, "--ring", str(ring_path), *rest)
        assert code == 0
        stages = [rec.getMessage().split(":")[0] for rec in caplog.records
                  if rec.name == "qindex.fusion"]
        assert stages.count("validate_fusion") == 1
        assert stages.count("validate_module") == modules


def test_fusion_trace_rejects_module_row_that_is_not_an_object(tmp_path, capsys):
    ring_path = tmp_path / "z2.json"
    run(capsys, "fusion", "generate", "pointed", "--factors", "2",
        "-o", str(ring_path))
    ring = qio.ring_from_bytes(ring_path.read_bytes())
    payload = module_to_json(gen_regular_module(ring))
    payload["n"]["1,0"] = [1]
    module_path = tmp_path / "bad.json"
    module_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "fusion", "trace", "--ring", str(ring_path),
                         "--module", str(module_path))
    assert code == 2
    assert out == ""
    assert "fusion_module.n['1,0']: value is an object" in err


def test_fusion_trace_rejects_ring_axiom_violation(tmp_path, capsys):
    payload = ring_to_json(gen_pointed([2]))
    payload["N"]["1,1"] = {"0": 2}  # breaks duality: N[1,1]^0 must be 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert validate_fusion(qio.ring_from_json(json.loads(broken.read_text())))
    code, _, err = run(capsys, "fusion", "trace", "--ring", str(broken),
                       "--module", "regular")
    assert code == 2
    assert "ring:" in err


def test_fusion_trace_rejects_multiplicities_past_exactness_bound(tmp_path, capsys):
    payload = ring_to_json(gen_tlj(4)[0])
    payload["N"]["1,1"]["2"] = 2 ** 27
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(payload))
    code, _, err = run(capsys, "fusion", "trace", "--ring", str(huge),
                       "--module", "regular")
    assert code == 2
    assert "ring: exactness bound: associativity" in err


def test_fusion_trace_rejects_multiplicity_past_int64(tmp_path, capsys):
    payload = ring_to_json(gen_tlj(4)[0])
    payload["N"]["1,1"]["2"] = 2 ** 63
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(payload))
    code, out, err = run(capsys, "fusion", "trace", "--ring", str(huge),
                         "--module", "regular")
    assert (code, out) == (2, "")
    assert err == ("error: fusion_ring.N['1,1']['2']: "
                   "multiplicities are nonnegative ints below 2^63\n")


def test_index_compute_rejects_int_too_large_for_a_float(tmp_path, capsys):
    path = pinching_spec(tmp_path)
    spec = json.loads(open(path).read())
    spec["inclusion"]["matrix"][3][1][0] = 10 ** 400
    with open(path, "w") as fh:
        json.dump(spec, fh)
    code, out, err = run(capsys, "index", "compute", "--spec", path)
    assert (code, out) == (2, "")
    assert err == ("error: expectation.inclusion.matrix[3][1]: "
                   "number is too large for a float\n")


@pytest.mark.parametrize("field, value, message", [
    ("map", [[[float(i == j) if (i, j) != (0, 0) else float("nan"), 0] for j in range(4)]
             for i in range(4)], "expectation.map[0][0]: number is not finite"),
    ("trace_weights", [float("inf")],
     "expectation.trace_weights: one finite positive weight per target block"),
])
def test_index_compute_rejects_non_finite_numbers(tmp_path, capsys, field, value, message):
    # NaN passed every axiom check, since each comparison with it is False,
    # and was reported as an infinite index with exit 3
    path = pinching_spec(tmp_path)
    spec = json.loads(open(path).read())
    spec[field] = value
    with open(path, "w") as fh:
        json.dump(spec, fh)  # writes NaN, Infinity and -Infinity
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "index", "compute", "--spec", path, "-o", str(out_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


def contract_files(tmp_path):
    """The ring of Z/2, the regular module of Z/4, and the direct sum of two
    regular modules of Z/2, whose module traces form a plane."""
    z2 = gen_pointed([2])
    twice = np.zeros((2, 4, 4), dtype=np.int64)
    twice[:, :2, :2] = twice[:, 2:, 2:] = gen_regular_module(z2).action
    payloads = {
        "ring": ring_to_json(z2),
        "z4_module": module_to_json(gen_regular_module(gen_pointed([4]))),
        "decomposable": module_to_json(FusionModule(z2, ("a", "b", "c", "d"), twice)),
    }
    paths = {"missing": str(tmp_path / "missing.json"), "out": str(tmp_path / "out.json"),
             "directory": str(tmp_path / "inputs")}
    (tmp_path / "inputs").mkdir()
    for name, payload in payloads.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(payload, fh)
    return paths


@pytest.mark.parametrize("argv, code, message", [
    (["index", "compute", "--spec", "{missing}", "-o", "{out}"], 1, "cannot open {missing}"),
    (["index", "compute", "--spec", "{directory}", "-o", "{out}"], 1,
     "cannot open {directory}"),
    (["fusion", "trace", "--ring", "{directory}", "--module", "regular", "-o", "{out}"], 1,
     "cannot open {directory}"),
    (["fusion", "trace", "--ring", "{ring}", "--module", "{directory}", "-o", "{out}"], 1,
     "cannot open {directory}"),
    (["fusion", "generate", "pointed", "--factors", "2,x", "-o", "{out}"], 1,
     "cannot parse factors '2,x'"),
    (["classify", "-o", "{out}", "irrep", "--lie-type", "A1", "--weight", "1,x",
      "--subgroup", "Q"], 1, "cannot parse weight '1,x'"),
    (["fusion", "trace", "--ring", "{ring}", "--module", "{z4_module}", "-o", "{out}"], 2,
     "module file carries a different ring than --ring"),
    (["fusion", "descent", "--ring", "{ring}", "--module", "regular", "--subring", "0",
      "--action-by", "q"], 2, "unknown ring label 'q'"),
    (["classify", "-o", "{out}", "irrep", "--lie-type", "A2", "--weight", "1",
      "--subgroup", "Q"], 2, "weight must have 2 coordinates"),
    (["classify", "-o", "{out}", "irrep", "--lie-type", "A2", "--weight", "1,1",
      "--subgroup", "99"], 2, "table position 99 out of range (0..1)"),
    (["fusion", "jones", "--value", "-1"], 2, "d must be positive"),
    (["fusion", "descent", "--ring", "{ring}", "--module", "{decomposable}",
      "--subring", "0"], 3, "no module trace: decomposable"),
], ids=["missing-spec", "directory-spec", "directory-ring", "directory-module", "bad-factors", "bad-weight", "module-ring-mismatch",
        "unknown-action-by", "weight-length", "subgroup-out-of-range", "negative-jones",
        "descent-without-trace"])
def test_failures_print_only_the_error(tmp_path, capsys, argv, code, message):
    # every failure: its exit code, one error line on stderr, no report on
    # stdout and no -o file
    paths = contract_files(tmp_path)
    got = run(capsys, *(arg.format(**paths) for arg in argv))
    assert got == (code, "", f"error: {message.format(**paths)}\n")
    assert not (tmp_path / "out.json").exists()


def test_classify_irrep_writes_no_artifact(tmp_path, capsys):
    # classify -o F irrep parses -o, but irrep has no artifact to write
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "classify", "-o", str(out_path), "irrep",
                       "--lie-type", "A1", "--weight", "2", "--subgroup", "Q")
    assert code == 0
    assert report_of(out)["results"]["member"] is True
    assert not out_path.exists()


def report_digest(stdout):
    """sha256 of the report without its timing field, as canonical JSON."""
    report = report_of(stdout)
    del report["wall_ms"]
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_tlj40_fusion_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    # digests of the outputs from before the fusion path worked on whole
    # arrays, read from the ring/1 file that fusion generate -o once wrote;
    # then of the qindex.ring/2 file it writes now and of the reports read
    # from it, which differ from the others only in their input digest.
    # The trace and descent digests are of the symmetric eigensolves of
    # pf_dimensions and module_trace_solve.  The relative ring path keeps
    # the command echo fixed
    evens = ",".join(str(a) for a in range(0, 39, 2))
    digests = {}
    for name in ("ring1", "ring2"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        if name == "ring1":
            Path("tlj40.json").write_text(qio.ring_to_text(gen_tlj(40)[0]) + "\n")
        else:
            code, out, _ = run(capsys, "fusion", "generate", "tlj", "--n", "40",
                               "-o", "tlj40.json")
            assert code == 0
            digests["generate"] = report_digest(out)
        digests[name] = hashlib.sha256(Path("tlj40.json").read_bytes()).hexdigest()
        reports = []
        for command, *subring in (["trace"], ["descent", "--subring", evens]):
            code, out, _ = run(capsys, "fusion", command, "--ring", "tlj40.json",
                               "--module", "regular", *subring)
            assert code == 0
            digests[f"{name} {command}"] = report_digest(out)
            report = report_of(out)
            del report["wall_ms"], report["input_digest"]
            reports.append(report)
        digests[f"{name} reports"] = reports
    assert digests.pop("ring1 reports") == digests.pop("ring2 reports")
    assert digests == {
        "ring1": "b9fb3cc542231bc0ad98743fe988d3d2becf07994da5714151a840b389e7d656",
        "ring1 trace": "8a15a7ab39207cb39f2324dde90367a3984373f83eff9b1be3643067039a66d0",
        "ring1 descent": "51cda1c47b8b2d95a7176695afafac65da3655990d36cedfa4dd5d174069882f",
        "generate": "400f99d6bc808e5ff9148224b8c66b2a30fa38d4ec54dc4b09284b5d9f995d16",
        "ring2": "4b4844b26a8d735aa275823463a47131e21c818435cab15e04e12d0b974209f9",
        "ring2 trace": "0da66e9f1a29fbde669bbb74527bb26b6034fd35f24ffa333c8c3347b3d249c7",
        "ring2 descent": "37d13d497c08146b5b96918064c2c0bd66a6167b4599e1d33160231113972d48",
    }


def test_fusion_jones(capsys):
    code, out, _ = run(capsys, "fusion", "jones", "--value", "2.618033988")
    assert code == 0
    results = report_of(out)["results"]
    assert results["member"] is True and results["witness"] == 5

    code, out, _ = run(capsys, "fusion", "jones", "--value", "3.5")
    results = report_of(out)["results"]
    assert results["member"] is False


def test_fusion_jones_value_must_be_a_number(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fusion", "jones", "--value", "nan"])
    assert exc.value.code == 2
    assert "argument --value: not a number: 'nan'" in capsys.readouterr().err
    # infinity is a number: in the continuum, reported as the string "inf"
    code, out, _ = run(capsys, "fusion", "jones", "--value", "inf")
    assert code == 0
    results = report_of(out)["results"]
    assert results == {"value": "inf", "member": True, "witness": "continuum"}


def test_fusion_descent(tmp_path, capsys):
    ring_path = tmp_path / "tlj4.json"
    run(capsys, "fusion", "generate", "tlj", "--n", "4", "-o", str(ring_path))
    code, out, _ = run(capsys, "fusion", "descent", "--ring", str(ring_path),
                       "--module", "regular", "--subring", "0,2")
    assert code == 0
    results = report_of(out)["results"]
    assert results["classes"] == [["0", "2"], ["1"]]
    for u, entry in results["functors"].items():
        assert entry["locally_constant"] is True

    # restricted to a single action functor
    code, out, _ = run(capsys, "fusion", "descent", "--ring", str(ring_path),
                       "--module", "regular", "--subring", "0,2",
                       "--action-by", "1")
    assert code == 0
    functors = report_of(out)["results"]["functors"]
    assert list(functors) == ["1"]

    # unclosed subring is a validation failure
    code, _, _ = run(capsys, "fusion", "descent", "--ring", str(ring_path),
                     "--module", "regular", "--subring", "0,1")
    assert code == 2


def test_classify_table(capsys):
    code, out, _ = run(capsys, "classify", "--lie-type", "D4")
    assert code == 0
    entries = report_of(out)["results"]["entries"]
    assert [e["index"] for e in entries] == [1, 2, 2, 2, 4]
    assert [e["subgroup"] for e in entries] == [
        [[0, 0], [0, 1], [1, 0], [1, 1]],
        [[0, 0], [1, 0]],
        [[0, 0], [1, 1]],
        [[0, 0], [0, 1]],
        [[0, 0]],
    ]
    assert [e["subgroup_order"] for e in entries] == [4, 2, 2, 2, 1]
    assert [e["lattice_generators"] for e in entries] == [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 2]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 2]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 2, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]],
    ]

    code, out, _ = run(capsys, "classify", "--lie-type", "E8")
    entries = report_of(out)["results"]["entries"]
    assert [e["index"] for e in entries] == [1]


def test_classify_irrep(capsys):
    code, out, _ = run(capsys, "classify", "irrep", "--lie-type", "A1",
                       "--weight", "1", "--subgroup", "Q")
    assert code == 0
    assert report_of(out)["results"]["member"] is False

    code, out, _ = run(capsys, "classify", "irrep", "--lie-type", "A1",
                       "--weight", "2", "--subgroup", "Q")
    assert report_of(out)["results"]["member"] is True

    code, out, _ = run(capsys, "classify", "irrep", "--lie-type", "E6",
                       "--weight", "0,0,0,0,0,0", "--subgroup", "Q")
    assert report_of(out)["results"]["member"] is True


@pytest.mark.parametrize("lie_type, member", [("B3", True), ("C3", False)])
def test_classify_irrep_reads_the_root_lattice_off_the_cartan_rows(capsys, lie_type, member):
    # omega_1 of B3 is the vector representation of SO(7) = Spin(7)/Z, so it
    # lies in Q; of C3 it is the defining one of Sp(6), on which -1 acts by -1
    code, out, _ = run(capsys, "classify", "irrep", "--lie-type", lie_type,
                       "--weight", "1,0,0", "--subgroup", "Q")
    assert code == 0
    assert report_of(out)["results"]["member"] is member


def test_classify_irrep_selects_p_and_table_positions(capsys):
    # P is the whole weight lattice; D4 position 1 is the index-2 lattice
    # with HNF rows (1,0,0,0), (0,1,0,0), (0,0,1,0), (0,0,1,2)
    code, out, _ = run(capsys, "classify", "irrep", "--lie-type", "A1",
                       "--weight", "1", "--subgroup", "P")
    assert code == 0
    results = report_of(out)["results"]
    assert results["member"] is True and results["index"] == 1
    for weight, member in (("0,0,0,1", False), ("0,0,1,1", True)):
        code, out, _ = run(capsys, "classify", "irrep", "--lie-type", "D4",
                           "--weight", weight, "--subgroup", "1")
        assert code == 0
        results = report_of(out)["results"]
        assert results["member"] is member and results["index"] == 2


def test_classify_rejects_unknown_type(capsys):
    code, _, err = run(capsys, "classify", "--lie-type", "Z9")
    assert code == 2


def test_reports_byte_stable_for_fixed_seed(tmp_path, capsys):
    spec = pinching_spec(tmp_path)
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "index", "compute", "--spec", spec,
                           "--seed", "7")
        assert code == 0
        report = report_of(out)
        report.pop("wall_ms")  # the one run-dependent field
        outputs.append(json.dumps(report, sort_keys=True))
    assert outputs[0] == outputs[1]
