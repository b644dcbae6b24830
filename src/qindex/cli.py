"""Command-line surface: file-driven index computation, fixture generation,
fusion analysis, and lattice classification.

Each ``cmd_*`` computes and returns ``(results, params, exit_code,
artifact)``.  ``results`` is a dict, or its canonical JSON text when the
command has made that text (``fusion generate``).  ``params`` is the
object whose digest stands for the input of a command that reads no file,
else None.  The artifact is None when the command writes no ``-o`` file,
``results`` itself when the file holds the results text, or the bytes of
the file (``fusion generate -o``).  ``main`` alone decides the report: it
times the command, writes the artifact, and prints one RunReport as
canonical JSON on stdout.  Its ``input_digest`` hashes the files that
``_load_json`` read, or ``params``; its ``tolerances`` are ``{"tol": ...}``
for exactly the commands that accept --tol.  Exit codes:
0 success, 1 unreadable input (CliFailure), 2 validation failure (any
ValueError), 3 infinite or unsolvable result.  An exit code a command
returns, 0 or 3, comes with the report and the artifact.  A raised failure
(exit 1, exit 2, or the CliFailure of ``fusion descent``'s exit 3) prints
``error: <message>`` on stderr, nothing on stdout, and writes no file.
Reports are deterministic for a fixed seed except for the wall_ms field.

``main`` parses argv with the parser of the command that its leading
words name (``index compute``, ``fusion trace``, ``classify irrep``, ...),
which holds the parsers of its subcommands and is built on first use.
The full parser tree is built only where argparse reports at its top:
for ``qindex -h``, a word that names no command, an argument that the
command does not know, and ``classify`` without --lie-type.  Help, usage
and error text are those of the full tree either way.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import io as qio
from .expectation import (ConditionalExpectation, canonical_expectation,
                          compute_index_report, validate_expectation)
from .fusion import (MultiplicityFunctor, check_locally_constant, d_function,
                     equivalence_classes, functor_dims, jones_membership,
                     module_trace_solve, pf_dimensions, validate_fusion,
                     validate_module)
from .generators import gen_pointed, gen_regular_module, gen_tlj
from .lattice import (IrrepLabel, cartan_data, classify_subgroups,
                      irrep_membership)

SCHEMA = "qindex.report/1"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_INFINITE = 3

log = logging.getLogger("qindex")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to the ``sys.stderr`` current when it is
    emitted, so a redirected stderr receives the lines of its own call."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):
        pass


_HANDLER = _StderrHandler()
_HANDLER.setFormatter(logging.Formatter(logging.BASIC_FORMAT))


class CliFailure(Exception):
    """A failure with an exit code of its own: 1 for unreadable input, 3
    when ``fusion descent`` has no module trace to work with."""

    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _load_json(args, path: str, decode):
    """The file at ``path`` decoded from its bytes by ``decode``.  The file
    is read once: ``main`` digests the bytes recorded in ``args.read``.
    A path that cannot be opened or read (missing, a directory, not
    readable) and malformed JSON are a CliFailure; invalid UTF-8 raises
    UnicodeDecodeError, a ValueError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        raise CliFailure(EXIT_PARSE, f"cannot open {path}")
    args.read.append((path, raw))
    try:
        return decode(raw)
    except json.JSONDecodeError as err:
        raise CliFailure(EXIT_PARSE,
                         f"{path}: malformed JSON at line {err.lineno} "
                         f"column {err.colno}: {err.msg}")


def _digest(payload) -> str:
    # hashed as Python's json writes it, so --value inf hashes "Infinity"
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _digest_files(inputs: list[tuple[str, bytes]]) -> str:
    """sha256 of the bytes of the files read, in the order of their paths."""
    h = hashlib.sha256()
    for _, raw in sorted(inputs, key=lambda item: item[0]):
        h.update(raw)
    return h.hexdigest()


# -- index -------------------------------------------------------------------

def cmd_index_compute(args):
    inclusion, mat, tau = qio.expectation_spec_from_json(_load_json(args, args.spec, qio.loads))
    if mat is None:
        expectation = canonical_expectation(inclusion, tau)
    else:
        expectation = ConditionalExpectation(inclusion, mat)
        report = validate_expectation(expectation, tol=args.tol)
        if not report.ok:
            raise ValueError("not a conditional expectation; failed axioms: "
                             + ", ".join(report.failures))

    index = compute_index_report(expectation, tol=args.tol)
    results = {
        "index_norm": index.index_norm,
        "scalar_index": index.scalar_index,
        "prob_lower": index.prob_lower,
        "prob_upper": index.prob_upper,
        "quasi_basis_size": index.quasi_basis_size,
        "seed": args.seed,
        "index_in_subalgebra": index.index_in_subalgebra,
    }
    code = EXIT_OK
    if math.isinf(index.scalar_index):
        log.warning("infinite scalar index")
        code = EXIT_INFINITE
    return results, None, code, results


# -- fusion ------------------------------------------------------------------

def cmd_fusion_generate(args):
    if args.kind == "tlj":
        ring, dims = gen_tlj(args.n)
        texts = {"dims": qio.canonical_text(dims.as_dict())}
        params = {"kind": "tlj", "n": args.n}
    else:
        factors = _parse_int_list(args.factors, "factors")
        ring = gen_pointed(factors)
        texts = {}
        params = {"kind": "pointed", "factors": factors}
    # the report holds the ring/1 text, the -o file is qindex.ring/2
    texts["ring"] = qio.ring_to_text(ring)
    data = qio.ring_to_bytes(ring) if args.output is not None else None
    return qio.canonical_object(texts), params, EXIT_OK, data


def cmd_fusion_trace(args):
    _, dims, result = _solved_module(args)
    results = {
        "status": result.status,
        "solution_dim": result.solution_dim,
        "ring_dims": dims.as_dict(),
        "trace": result.trace.as_dict() if result.trace else None,
    }
    code = EXIT_OK if result.status == "ok" else EXIT_INFINITE
    return results, None, code, results


def cmd_fusion_jones(args):
    member, witness = jones_membership(args.value, args.tol)
    results = {"value": args.value, "member": member, "witness": witness}
    return results, {"value": args.value}, EXIT_OK, None


def cmd_fusion_descent(args):
    module, _, solved = _solved_module(args)
    if solved.trace is None:
        raise CliFailure(EXIT_INFINITE, f"no module trace: {solved.status}")
    classes = equivalence_classes(module, [x for x in args.subring.split(",") if x])
    labels = module.ring.labels
    functors = {}
    for u in [args.action_by] if args.action_by else labels:
        if u not in labels:
            raise ValueError(f"unknown ring label {u!r}")
        functor = MultiplicityFunctor(module, functor_dims(module, u))
        d_f = d_function(functor, solved.trace)
        constant, violations = check_locally_constant(d_f, classes, args.tol)
        functors[u] = {"d_F": d_f, "locally_constant": constant,
                       "violations": violations}
    results = {"classes": [list(c) for c in classes],
               "trace": solved.trace.as_dict(),
               "functors": functors}
    return results, None, EXIT_OK, None


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise CliFailure(EXIT_PARSE, f"cannot parse {what} {text!r}")


def _solved_module(args):
    """The validated module of --module over the ring of --ring, the ring's
    PF dimensions, and the module trace solved with them.  The regular
    module's laws are its ring's axioms, so it is validated as its ring."""
    ring = _load_json(args, args.ring, qio.ring_from_bytes)
    if args.module == "regular":
        module = gen_regular_module(ring)
        problems = [f"ring: {v}" for v in validate_fusion(ring)]
    else:
        module = qio.module_from_json(_load_json(args, args.module, qio.text_loads))
        if module.ring.labels != ring.labels or \
                not np.array_equal(module.ring.tensor, ring.tensor):
            raise ValueError("module file carries a different ring than --ring")
        problems = validate_module(module)
    if problems:
        raise ValueError("; ".join(problems))
    dims = pf_dimensions(ring)
    return module, dims, module_trace_solve(module, dims)


# -- classify ----------------------------------------------------------------

def cmd_classify_table(args):
    cartan = cartan_data(args.lie_type)
    specs = classify_subgroups(cartan)
    rows = [{
        "subgroup": [list(g) for g in spec.subgroup],
        "subgroup_order": spec.subgroup_order,
        "lattice_generators": [list(r) for r in spec.generators],
        "index": spec.index_in_p,
    } for spec in specs]
    results = {"lie_type": cartan.lie_type, "entries": rows}
    return results, {"lie_type": cartan.lie_type}, EXIT_OK, results


def cmd_classify_irrep(args):
    cartan = cartan_data(args.lie_type)
    specs = classify_subgroups(cartan)
    weight = tuple(_parse_int_list(args.weight, "weight"))
    if len(weight) != cartan.rank:
        raise ValueError(f"weight must have {cartan.rank} coordinates")
    spec = _select_subgroup(specs, args.subgroup)
    member = irrep_membership(IrrepLabel(weight), spec)
    results = {"lie_type": cartan.lie_type, "weight": list(weight),
               "subgroup": args.subgroup, "index": spec.index_in_p,
               "member": member}
    params = {key: results[key] for key in ("lie_type", "weight", "subgroup")}
    return results, params, EXIT_OK, None


def _select_subgroup(specs, name: str):
    if name.upper() == "P":
        return min(specs, key=lambda s: s.index_in_p)
    if name.upper() == "Q":
        return max(specs, key=lambda s: s.index_in_p)
    try:
        pos = int(name)
    except ValueError:
        raise ValueError(f"--subgroup must be P, Q, or a table position, got {name!r}")
    if not 0 <= pos < len(specs):
        raise ValueError(f"table position {pos} out of range (0..{len(specs) - 1})")
    return specs[pos]


# -- parser ------------------------------------------------------------------

def _number(text: str) -> float:
    """A float that is not NaN (--value)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A finite float >= 0 (--tol)."""
    if not 0 <= _number(text) < math.inf:
        raise argparse.ArgumentTypeError(f"not a finite number >= 0: {text!r}")
    return float(text)


def _seeded(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the report (default 0)")


def _with_tolerance(parser: argparse.ArgumentParser) -> None:
    _seeded(parser)
    parser.add_argument("--tol", type=_tolerance, default=1e-9,
                        help="numerical tolerance (default 1e-9)")


def _index_compute(p: argparse.ArgumentParser) -> None:
    _with_tolerance(p)
    p.add_argument("--spec", required=True, help="expectation spec file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_index_compute)


def _fusion_generate_tlj(p: argparse.ArgumentParser) -> None:
    _seeded(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fusion_generate, kind="tlj")


def _fusion_generate_pointed(p: argparse.ArgumentParser) -> None:
    _seeded(p)
    p.add_argument("--factors", required=True,
                   help="comma-separated invariant factors, e.g. 2,2")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fusion_generate, kind="pointed")


def _fusion_trace(p: argparse.ArgumentParser) -> None:
    _seeded(p)
    p.add_argument("--ring", required=True)
    p.add_argument("--module", required=True, help="module file, or 'regular'")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fusion_trace)


def _fusion_jones(p: argparse.ArgumentParser) -> None:
    _with_tolerance(p)
    p.add_argument("--value", type=_number, required=True)
    p.set_defaults(func=cmd_fusion_jones)


def _fusion_descent(p: argparse.ArgumentParser) -> None:
    _with_tolerance(p)
    p.add_argument("--ring", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--subring", required=True, help="comma-separated ring labels")
    p.add_argument("--action-by", default=None, help="single ring label (default: all)")
    p.set_defaults(func=cmd_fusion_descent)


def _classify(p: argparse.ArgumentParser) -> None:
    _seeded(p)
    p.add_argument("--lie-type", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_classify_table)


def _classify_irrep(p: argparse.ArgumentParser) -> None:
    _seeded(p)
    p.add_argument("--lie-type", required=True)
    p.add_argument("--weight", required=True, help="comma-separated dominant weight")
    p.add_argument("--subgroup", required=True,
                   help="P, Q, or a position in the classification table")
    p.set_defaults(func=cmd_classify_irrep)


#: every command by the words that name it: its line in its parent's help,
#: the function that adds its own arguments, and the dest of its
#: subcommand, which it requires unless it also runs on its own.  Only the
#: commands that test against a tolerance accept --tol.
_COMMANDS = {
    (): (None, None, "cmd"),
    ("index",): ("conditional-expectation indices", None, "index_cmd"),
    ("index", "compute"): ("index report from a JSON spec", _index_compute, None),
    ("fusion",): ("fusion rings and module traces", None, "fusion_cmd"),
    ("fusion", "generate"): ("write fixture rings", None, "kind"),
    ("fusion", "generate", "tlj"): ("Temperley-Lieb-Jones ring", _fusion_generate_tlj, None),
    ("fusion", "generate", "pointed"): ("group ring of an abelian group",
                                        _fusion_generate_pointed, None),
    ("fusion", "trace"): ("solve for the module trace", _fusion_trace, None),
    ("fusion", "jones"): ("Jones spectrum membership", _fusion_jones, None),
    ("fusion", "descent"): ("equivalence classes and d_F constancy in one pass",
                            _fusion_descent, None),
    ("classify",): ("finite-index subgroup tables", _classify, "classify_cmd"),
    ("classify", "irrep"): ("irrep membership in a subgroup", _classify_irrep, None),
}


def _configure(parser: argparse.ArgumentParser,
               words: tuple[str, ...]) -> argparse.ArgumentParser:
    """``parser`` with the arguments of the command named by ``words`` and
    the parsers of its subcommands."""
    _, arguments, dest = _COMMANDS[words]
    if arguments is not None:
        arguments(parser)
    if dest is not None:
        sub = parser.add_subparsers(dest=dest, required=arguments is None)
        for child in _COMMANDS:
            if child and child[:-1] == words:
                _configure(sub.add_parser(child[-1], help=_COMMANDS[child][0]), child)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: for
    ``qindex -h`` and for the errors that argparse reports at the top."""
    return _configure(argparse.ArgumentParser(
        prog="qindex",
        description="Index theory of conditional expectations, fusion-module "
                    "traces, and root/weight lattice classification."), ())


@functools.cache
def _command_parser(words: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of the command named by ``words`` alone, with its
    subcommands, as the full parser holds it; built on first use."""
    if not words:
        return build_parser()
    return _configure(argparse.ArgumentParser(prog=" ".join(("qindex",) + words)), words)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by the parser of the command its leading words name.
    Help and its errors are those of that parser in the full tree; an
    argument it does not know is reported by the full parser, as argparse
    reports it there."""
    words = ()
    while len(words) < len(argv) and words + (argv[len(words)],) in _COMMANDS:
        words += (argv[len(words)],)
    args, unknown = _command_parser(words).parse_known_args(argv[len(words):])
    if unknown:
        return build_parser().parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    level = os.environ.get("QINDEX_LOG", "warning").upper()
    log.setLevel(getattr(logging, level, logging.WARNING))
    log.addHandler(_HANDLER)
    args = _parse_args(argv)
    if getattr(args, "func", None) is cmd_classify_table and args.lie_type is None:
        build_parser().error("classify requires --lie-type")
    args.read = []
    t0 = time.perf_counter()
    try:
        results, params, code, artifact = args.func(args)
        text = results if isinstance(results, str) else qio.canonical_text(results)
        # classify -o F irrep parses -o but has no artifact
        if artifact is not None and getattr(args, "output", None) is not None:
            with open(args.output, "wb") as fh:
                fh.write((artifact if isinstance(artifact, bytes) else text.encode()) + b"\n")
        report = {
            "schema": SCHEMA,
            "command": argv,
            "input_digest": _digest_files(args.read) if params is None else _digest(params),
            "tolerances": {"tol": args.tol} if "tol" in args else {},
            "seed": args.seed,
            "wall_ms": round(1000.0 * (time.perf_counter() - t0), 3),
        }
        # the results text is made once, and spliced into the report
        print(qio.canonical_object({**{key: qio.canonical_text(value)
                                       for key, value in report.items()}, "results": text}))
        return code
    except (CliFailure, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code if isinstance(err, CliFailure) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
