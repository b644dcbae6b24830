#!/usr/bin/env python3
"""Record the benchmark of two qindex source trees, alternated ABBA.

Usage, from the root of a checkout:

    python3 tools/bench_record.py BASE_SRC HEAD_SRC --out BENCH.json

BASE_SRC and HEAD_SRC are the ``src`` directories of the two trees.  Each
is copied into a scratch root next to this checkout's ``perfbench/`` and
``BENCHMARK.json``, so both run the same, unchanged harness.  For every
workload and each seed of ``SEEDS``, ``perfbench/run.py --workload W
--seed S --trace 0`` runs once on each tree, in a fresh process, with
``__pycache__`` removed first; the order is base, head for even pair
numbers and head, base for odd ones (ABBA).  Then each tree generates
the TLJ 40 and TLJ 60 ring files with ``fusion generate -o``, and these
``python -m qindex.cli`` commands are timed from start to exit in fresh
interpreters, the trees alternating, ``COLD`` times each, after one
untimed run, which writes the bytecode unless ``PYTHONDONTWRITEBYTECODE``
is set: ``fusion trace --ring FILE --module regular`` on each tree's own
ring files, ``classify --lie-type A23``, and ``index compute --spec`` on
the ``many`` spec ``SPEC``, written by ``perfbench/inputs.build``.  The
seeds and counts are fixed, so that records of different changes compare.

The JSON written to ``--out`` holds the host (``nproc``, the BLAS thread
count of the harness, the Python and numpy versions), each source tree's
digest, git commit and whether it differs from that commit, every run's
result line, and per workload and metric the median
and quartiles of each tree, the change of the medians and the number of
pairs in which the head was better.  A table of the same goes to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("large", "many")
TLJ = (40, 60)
SEEDS = range(1, 13)  # one ABBA pair per seed and workload
COLD = 10  # timed fresh processes per tree and command
SPEC = "cyclic24_12.json"  # the C[Z_12] in C[Z_24] spec of the many workload


def tree_digest(src: str) -> str:
    """sha256 over the relative path and bytes of every .py file in ``src``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def make_root(src: str, root: str) -> str:
    """A scratch checkout at ``root``: a copy of ``src`` and this
    checkout's harness."""
    ignore = shutil.ignore_patterns("__pycache__", ".work")
    shutil.copytree(src, os.path.join(root, "src"), ignore=ignore)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(root, "perfbench"),
                    ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


def clear_bytecode(root: str) -> None:
    for dirpath, dirnames, _ in os.walk(os.path.join(root, "src")):
        if "__pycache__" in dirnames:
            shutil.rmtree(os.path.join(dirpath, "__pycache__"))


def run_bench(root: str, workload: str, seed: int) -> dict:
    """One run of the harness: its result line, its BLAS thread count and
    its wall time."""
    clear_bytecode(root)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "0"], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    threads = re.search(r"BLAS threads (\d+)", proc.stdout)
    return {"result": json.loads(lines[-1]), "blas_threads": int(threads.group(1)),
            "run_s": round(wall, 3)}


def cli_env(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("QINDEX_LOG", None)
    return env


def cold_wall(root: str, argv: list[str]) -> float:
    """Seconds from start to exit of one ``python -m qindex.cli`` process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "qindex.cli", *argv], cwd=root, env=cli_env(root),
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def summary(base: list[float], head: list[float]) -> dict:
    """Median and quartiles of each side, the relative change of the
    medians, and the pairs in which the head was lower (better)."""
    def quartiles(xs):
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return {"median": q2, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / q2 if q2 else 0.0}
    b, h = quartiles(base), quartiles(head)
    return {"base": b, "head": h,
            "median_change": h["median"] / b["median"] - 1.0 if b["median"] else 0.0,
            "head_wins": sum(y < x for x, y in zip(base, head)), "pairs": len(base)}


def tree_state(src: str) -> dict:
    """The digest of ``src``, and the git commit of the checkout that holds
    it and whether ``src`` differs from that commit (None outside git)."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=src, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None
    status = git("status", "--porcelain", ".")
    return {"digest": tree_digest(src), "commit": git("rev-parse", "HEAD"),
            "changed": None if status is None else bool(status)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args()
    sides = ("base", "head")
    record = {"host": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                       "machine": platform.machine(), "python": platform.python_version(),
                       "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
              "trees": {side: tree_state(src)
                        for side, src in zip(sides, (args.base_src, args.head_src))},
              "seeds": list(SEEDS), "runs": [], "workloads": {}, "cold": {}}
    import numpy
    record["host"]["numpy"] = numpy.__version__
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        roots = {side: make_root(src, os.path.join(tmp, side))
                 for side, src in zip(sides, (args.base_src, args.head_src))}
        for workload in WORKLOADS:
            values = {side: {} for side in sides}
            for pair, seed in enumerate(SEEDS):
                order = sides if pair % 2 == 0 else sides[::-1]
                for side in order:
                    run = run_bench(roots[side], workload, seed)
                    record["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                           "tree": side, **run})
                    record["host"]["blas_threads"] = run["blas_threads"]
                    for name, metric in run["result"]["metrics"].items():
                        values[side].setdefault(name, []).append(metric["value"])
                    print(f"{workload} seed {seed} {side}: " + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in run["result"]["metrics"].items())
                        + f" failed={run['result']['failed']}", flush=True)
            record["workloads"][workload] = {name: summary(values["base"][name],
                                                           values["head"][name])
                                             for name in values["base"]}
        rings = {}
        for side, root in roots.items():
            for n in TLJ:
                path = os.path.join(root, f"tlj{n}.json")
                subprocess.run([sys.executable, "-m", "qindex.cli", "fusion", "generate", "tlj",
                                "--n", str(n), "-o", path], cwd=root, env=cli_env(root),
                               stdout=subprocess.DEVNULL, check=True)
                rings[side, n] = path
        specs = os.path.join(tmp, "many")
        os.mkdir(specs)
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import inputs
        inputs.build("many", SEEDS[0], specs)
        # name -> tree -> argv
        commands = {f"fusion trace tlj{n}": {side: ["fusion", "trace", "--ring", rings[side, n],
                                                    "--module", "regular"] for side in sides}
                    for n in TLJ}
        commands["classify A23"] = dict.fromkeys(sides, ["classify", "--lie-type", "A23"])
        commands[f"index compute {SPEC}"] = dict.fromkeys(
            sides, ["index", "compute", "--spec", os.path.join(specs, SPEC)])
        for name, argv in commands.items():
            walls = {side: [] for side in sides}
            for side in sides:  # untimed
                cold_wall(roots[side], argv[side])
            for k in range(COLD):
                for side in (sides if k % 2 == 0 else sides[::-1]):
                    walls[side].append(cold_wall(roots[side], argv[side]))
            record["cold"][name] = {**{f"{side}_s": walls[side] for side in sides},
                                    **summary(walls["base"], walls["head"])}
        for (side, n), path in rings.items():
            record["cold"][f"fusion trace tlj{n}"][f"{side}_bytes"] = os.path.getsize(path)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for group, table in (*record["workloads"].items(), ("cold", record["cold"])):
        for name, s in table.items():
            cells = "  ".join(f"{side} {s[side]['median']:.4g} (IQR "
                              f"{100 * s[side]['iqr_frac']:.0f}%)" for side in ("base", "head"))
            print(f"{group:<6} {name:<30} {cells}  change {100 * s['median_change']:+.1f}%  "
                  f"head better in {s['head_wins']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
