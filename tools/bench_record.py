#!/usr/bin/env python3
"""Record the benchmark of two qindex source trees, alternated ABBA, or of
several git revisions in one session.

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
The record also holds tower timings: ``index compute`` on the Jones
tower T(N) (``report_diff.jones_tower``, written by
``perfbench/inputs._index_spec`` with identity unitaries), canonical for N
in ``TOWER_CANONICAL`` and with the explicit ``map`` for N in
``TOWER_MAP``, run through ``qindex.cli.main``, ``TOWER_RUNS`` times each,
in ``TOWER_LAUNCHES`` interpreters per tree, launched with the trees
alternating (ABBA) as the cold walls are.  Every launch is recorded; for
each spec the record keeps the minimum across launches of the total, of
the time inside ``qindex.io.loads`` and
``qindex.io.expectation_spec_from_json`` (spec parsing, with the
inclusion's normal form, which its constructor finds) and of the
remainder (index work), and the relative error of ``scalar_index``
against ``qindex.fusion.jones_value(N)`` of the same tree.

    python3 tools/bench_record.py --trajectory REV [REV ...] --out TRAJ.json

measures the ``src`` of each git revision of this checkout (extracted
with ``git archive``) in one session: for each workload and each seed of
``TRAJECTORY_SEEDS``, one run per tree, the order of the trees reversed
on every other seed.  Its record says that it was measured after the
fact, on one host, and gives per tree and metric the median and quartiles
of its runs.
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
TOWER_CANONICAL = range(4, 11)
TOWER_MAP = range(4, 10)  # T(10)'s map has 1430^2 complex entries
TOWER_RUNS = 5
TOWER_LAUNCHES = 4  # interpreters per tree, alternated ABBA
TRAJECTORY_SEEDS = range(1, 4)


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
    its wall time, or its error when it exits nonzero."""
    clear_bytecode(root)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "0"], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return {"error": f"perfbench/run.py exited {proc.returncode}: {proc.stderr[-2000:]}"}
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


def quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / q2 if q2 else 0.0}


def summary(base: list[float], head: list[float]) -> dict:
    """Median and quartiles of each side, the relative change of the
    medians, and the pairs in which the head was lower (better)."""
    b, h = quartiles(base), quartiles(head)
    return {"base": b, "head": h,
            "median_change": h["median"] / b["median"] - 1.0 if b["median"] else 0.0,
            "head_wins": sum(y < x for x, y in zip(base, head)), "pairs": len(base)}


def git(cwd: str, *args) -> str | None:
    proc = subprocess.run(["git", *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_state(src: str) -> dict:
    """The digest of ``src``, and the git commit of the checkout that holds
    it and whether ``src`` differs from that commit (None outside git)."""
    status = git(src, "status", "--porcelain", ".")
    return {"digest": tree_digest(src), "commit": git(src, "rev-parse", "HEAD"),
            "changed": None if status is None else bool(status)}


def host_info() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


# -- tower timings ---------------------------------------------------------------

def write_towers(workdir: str) -> str:
    """Write the spec of T(N) for every tower timing into ``workdir`` and
    the list of jobs next to them; return the path of that list."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import inputs
    from report_diff import jones_tower

    jobs = []
    for explicit, ns in ((False, TOWER_CANONICAL), (True, TOWER_MAP)):
        for n in ns:
            a_blocks, k, weights = jones_tower(n)
            path = os.path.join(workdir, f"tower{n}{'_map' if explicit else ''}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inputs._index_spec(a_blocks, k, weights, None, explicit), fh)
            jobs.append({"n": n, "map": explicit, "spec": path})
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    return jobs_path


def tower_worker(jobs_path: str) -> int:
    """Time ``index compute`` on each job's spec through ``qindex.cli.main``
    in this interpreter, the time inside the spec readers counted apart,
    and print the timings as one JSON line."""
    import contextlib
    import io

    import qindex.cli
    from qindex import io as qio
    from qindex.fusion import jones_value

    parsing = {"depth": 0, "s": 0.0}

    def timed(fn):
        def wrapper(*args, **kwargs):
            parsing["depth"] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                parsing["depth"] -= 1
                if parsing["depth"] == 0:
                    parsing["s"] += time.perf_counter() - start
        return wrapper

    qio.loads = timed(qio.loads)
    qio.expectation_spec_from_json = timed(qio.expectation_spec_from_json)
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    out = []
    for job in jobs:
        totals, parses = [], []
        for _ in range(TOWER_RUNS):
            parsing["s"] = 0.0
            stdout = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = qindex.cli.main(["index", "compute", "--spec", job["spec"]])
            totals.append(time.perf_counter() - start)
            parses.append(parsing["s"])
        scalar = float(json.loads(stdout.getvalue())["results"]["scalar_index"])
        beta = jones_value(job["n"])
        out.append({"n": job["n"], "map": job["map"], "exit": code,
                    "total_s": min(totals), "parse_s": min(parses),
                    "index_s": min(t - p for t, p in zip(totals, parses)),
                    "scalar_index": scalar, "jones_value": beta,
                    "rel_error": abs(scalar - beta) / beta})
    print(json.dumps(out))
    return 0


def tower_times(root: str, jobs_path: str) -> list[dict]:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--tower-worker",
                           jobs_path], cwd=root, env=cli_env(root), stdout=subprocess.PIPE,
                          check=True, text=True)
    return json.loads(proc.stdout)


def tower_minima(launches: list[list[dict]]) -> list[dict]:
    """Per job, its entry of the first launch with each time the minimum
    across the launches."""
    return [{**jobs[0], **{key: min(job[key] for job in jobs)
                           for key in ("total_s", "parse_s", "index_s")}}
            for jobs in zip(*launches)]


# -- records ---------------------------------------------------------------------

def record_pairs(base_src: str, head_src: str) -> dict:
    """The ABBA record of two source trees: benchmark runs, cold walls and
    tower timings."""
    sides = ("base", "head")
    record = {"host": host_info(),
              "trees": {side: tree_state(src) for side, src in zip(sides, (base_src, head_src))},
              "seeds": list(SEEDS), "runs": [], "workloads": {}, "cold": {}, "tower": {},
              "tower_launches": {side: [] for side in sides}}
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        roots = {side: make_root(src, os.path.join(tmp, side))
                 for side, src in zip(sides, (base_src, head_src))}
        values = run_interleaved(roots, SEEDS, record)
        failed = [run for run in record["runs"] if "error" in run]
        if failed:
            raise RuntimeError(failed[0]["error"])
        for workload, trees in values.items():
            record["workloads"][workload] = {name: summary(trees["base"][name],
                                                           trees["head"][name])
                                             for name in trees["base"]}
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
        towers = os.path.join(tmp, "tower")
        os.mkdir(towers)
        jobs_path = write_towers(towers)
        for k in range(TOWER_LAUNCHES):
            for side in (sides if k % 2 == 0 else sides[::-1]):
                record["tower_launches"][side].append(tower_times(roots[side], jobs_path))
        for side, launches in record["tower_launches"].items():
            record["tower"][side] = tower_minima(launches)
    for group, table in (*record["workloads"].items(), ("cold", record["cold"])):
        for name, s in table.items():
            cells = "  ".join(f"{side} {s[side]['median']:.4g} (IQR "
                              f"{100 * s[side]['iqr_frac']:.0f}%)" for side in sides)
            print(f"{group:<6} {name:<30} {cells}  change {100 * s['median_change']:+.1f}%  "
                  f"head better in {s['head_wins']}/{s['pairs']}")
    for base, head in zip(*(record["tower"][side] for side in sides)):
        name = f"T({base['n']}){' map' if base['map'] else ''}"
        cells = "  ".join(f"{side} parse {t['parse_s']:.4g} s index {t['index_s']:.4g} s"
                          for side, t in zip(sides, (base, head)))
        print(f"tower  {name:<30} {cells}  rel error {head['rel_error']:.1e}")
    return record


def record_trajectory(revs: list[str]) -> dict:
    """One session's runs of the ``src`` of each git revision, interleaved."""
    record = {"measured_after_the_fact": True,
              "note": "every tree was measured in this one session on this host, "
                      "not when its commit was made",
              "host": host_info(), "seeds": list(TRAJECTORY_SEEDS), "trees": {},
              "runs": [], "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_trajectory_") as tmp:
        roots = {}
        for rev in revs:
            commit = git(ROOT, "rev-parse", "--verify", rev + "^{commit}")
            if commit is None:
                raise SystemExit(f"not a commit: {rev}")
            staging = os.path.join(tmp, "archive", commit)
            os.makedirs(staging)
            archive = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT,
                                     stdout=subprocess.PIPE, check=True)
            subprocess.run(["tar", "-x", "-C", staging], input=archive.stdout, check=True)
            src = os.path.join(staging, "src")
            roots[rev] = make_root(src, os.path.join(tmp, commit))
            record["trees"][rev] = {"commit": commit, "digest": tree_digest(src)}
        for workload, values in run_interleaved(roots, TRAJECTORY_SEEDS, record).items():
            record["workloads"][workload] = {
                rev: {name: quartiles(xs) for name, xs in tree.items() if len(xs) > 1}
                for rev, tree in values.items()}
    for workload, trees in record["workloads"].items():
        for rev, table in trees.items():
            print(f"{workload:<6} {rev:<12} " + "  ".join(
                f"{name} {s['median']:.4g}" for name, s in sorted(table.items())))
    return record


def run_interleaved(roots: dict[str, str], seeds, record: dict) -> dict:
    """For each workload and seed, one benchmark run on each tree of
    ``roots``, in their order on even seed positions and reversed on odd
    ones (ABBA for two trees).  Every run is appended to
    ``record["runs"]``; returns workload -> tree -> metric -> values."""
    values = {}
    for workload in WORKLOADS:
        values[workload] = {name: {} for name in roots}
        for pair, seed in enumerate(seeds):
            for name in list(roots)[::1 if pair % 2 == 0 else -1]:
                run = run_bench(roots[name], workload, seed)
                record["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                       "tree": name, **run})
                if "error" in run:
                    print(f"{workload} seed {seed} {name}: {run['error'][-200:]}", flush=True)
                    continue
                record["host"]["blas_threads"] = run["blas_threads"]
                for metric, value in run["result"]["metrics"].items():
                    values[workload][name].setdefault(metric, []).append(value["value"])
                print(f"{workload} seed {seed} {name}: {metrics_line(run)}", flush=True)
    return values


def metrics_line(run: dict) -> str:
    result = run["result"]
    return (" ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            + f" failed={result['failed']}/{result['attempted']}")


def main() -> int:
    if sys.argv[1:2] == ["--tower-worker"]:
        return tower_worker(sys.argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+",
                        help="BASE_SRC HEAD_SRC, or with --trajectory git revisions")
    parser.add_argument("--trajectory", action="store_true",
                        help="measure the src of each revision in one session")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args()
    if args.trajectory:
        record = record_trajectory(args.trees)
    elif len(args.trees) == 2:
        record = record_pairs(*args.trees)
    else:
        parser.error("give BASE_SRC and HEAD_SRC, or --trajectory and revisions")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
