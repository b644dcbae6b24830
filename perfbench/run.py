#!/usr/bin/env python3
"""CLI-level benchmark of qindex over two seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of large, many, or ``all``.  One client sends one command at
a time (closed loop).  Each pass runs the workload's fixed command list
through ``qindex.cli.main(argv)`` in a fresh worker interpreter, so no
cache survives between passes.  Every report is checked against an analytic
reference (checks.py).  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are measured with tracing off; with ``--trace 1`` traced
and untraced passes alternate and the per-layer metrics come from the
traced ones.  A table goes to stdout, followed by one JSON result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

#: BLAS threads of a worker: one, so a pass runs on one core and the
#: parent and the OS keep the other one of a 2-core machine
BLAS_THREADS = 1
#: passes per run at --seconds REFERENCE_S, and in proportion at other
#: lengths.  A pass takes 16 to 19 s on large and 12 to 16 s on many on a
#: busy 2-core x86-64 machine.  large gets four: at three, its tail order
#: statistic fell between commands of different cost and swung by a
#: quarter from run to run.
PASSES = {"large": 4, "many": 3}
REFERENCE_S = 55.0
MIN_PASSES = 3
#: past MIN_PASSES, a pass starts only if the passes should end by OVERRUN * seconds
OVERRUN = 1.3
#: extra set-up-only launches per untraced run, after one discarded warm-up
SETUP_LAUNCHES = 6
#: after two passes, no pass starts this many seconds after the first one started
DEADLINE_S = 120.0
#: a worker still running this many seconds into the run is killed
KILL_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of a command)."""


class Runner:
    """Launches worker interpreters against one checkout."""

    def __init__(self, root: str, workdir: str, threads: int):
        self.root = root
        self.workdir = workdir
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        self.launches = 0
        self.kill_at = time.monotonic() + KILL_S

    def launch(self, argvs: list[list[str]], trace: bool) -> dict:
        self.launches += 1
        job = os.path.join(self.workdir, f"job{self.launches}.json")
        result = os.path.join(self.workdir, f"result{self.launches}.json")
        with open(job, "w", encoding="utf-8") as fh:
            json.dump({"src": self.src, "trace": trace, "commands": argvs}, fh)
        argv = [sys.executable, WORKER, job, result]
        proc = subprocess.run(argv + [repr(time.monotonic())], cwd=self.root,
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(self.kill_at - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        os.remove(result)
        return out


def nominal_passes(workload: str, seconds: float) -> int:
    """A fixed pass count, so that every run of a workload measures the same
    work and its latency samples have the same make-up."""
    return max(MIN_PASSES, round(PASSES[workload] * seconds / REFERENCE_S))


def tail_quantile(workload: str, seconds: float, per_pass: int) -> float:
    """The quantile of the highest order statistic that has at least ten
    samples above it, at the nominal sample count.  It stays fixed when a
    slow run is cut short."""
    n = nominal_passes(workload, seconds) * per_pass
    return max(n - 11, 0) / max(n - 1, 1)


def quantile(samples: list[float], q: float) -> float:
    """Order statistic at rank q * (n - 1), interpolated linearly."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


class Verdicts:
    """Check results of every command, memoised on the report content
    (timing fields removed) since passes repeat the same commands."""

    def __init__(self, commands):
        self.commands = commands
        self.memo: dict = {}
        self.counts = {"ok": 0, "failed": 0, "wrong": 0}
        self.first_reason: dict[str, str] = {}

    def add_pass(self, result: dict) -> None:
        for i, (cmd, out) in enumerate(zip(self.commands, result["commands"])):
            try:
                report = json.loads(out["stdout"])
                report.pop("wall_ms", None)
                key = (i, out["code"], json.dumps(report, sort_keys=True))
            except ValueError:
                key = (i, out["code"], out["stdout"])
            if key not in self.memo:
                self.memo[key] = checks.check(cmd, out["code"], out["stdout"])
            verdict, reason = self.memo[key]
            self.counts[verdict] += 1
            if verdict != "ok":
                self.first_reason.setdefault(
                    " ".join(cmd.argv[:2]) + f" #{i}",
                    f"{verdict}: {reason} {out['stderr'].strip()[-200:]}")

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.counts["failed"] + self.counts["wrong"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: str, spec: dict) -> dict:
    workdir = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        commands = inputs.build(workload, seed, os.path.relpath(workdir, root))
        argvs = [c.argv for c in commands]
        runner = Runner(root, workdir, BLAS_THREADS)
        runner.launch([], False)  # warm-up: byte-compiles the checkout
        setups = [] if trace else [runner.launch([], False)["setup_s"]
                                   for _ in range(SETUP_LAUNCHES)]
        verdicts = Verdicts(commands)
        plain, traced, walls = [], [], []
        start = time.monotonic()
        for k in range(nominal_passes(workload, seconds)):
            elapsed = time.monotonic() - start
            if k >= MIN_PASSES and elapsed + statistics.median(walls) > OVERRUN * seconds:
                break
            if k >= 2 and elapsed > DEADLINE_S:
                break
            traced_pass = trace and k % 2 == 0
            result = runner.launch(argvs, traced_pass)
            walls.append(time.monotonic() - start - elapsed)
            (traced if traced_pass else plain).append(result)
            verdicts.add_pass(result)
        first = (plain or traced)[0]
        escaped = checks.self_check(commands, [c["code"] for c in first["commands"]],
                                    [c["stdout"] for c in first["commands"]])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": workload, "seed": seed, "blas_threads": first["blas_threads"],
            "passes": len(plain) + len(traced), "commands_per_pass": len(argvs),
            "verdicts": verdicts, "escaped": escaped}
    if trace:
        metrics = layer_metrics(spec["per_layer"], commands, traced, plain, verdicts, info)
    else:
        setups += [r["setup_s"] for r in plain]
        metrics = end_to_end_metrics(spec["end_to_end"], plain, setups,
                                     tail_quantile(workload, seconds, len(argvs)), info)
    return {"correct": verdicts.counts["wrong"] == 0 and not escaped,
            "attempted": verdicts.attempted, "failed": verdicts.failed,
            "metrics": metrics, "info": info}


def end_to_end_metrics(wanted: list[dict], plain: list[dict], setups: list[float],
                       tail_q: float, info: dict) -> dict:
    latencies = [c["ms"] for r in plain for c in r["commands"]]
    solve = [r["pass_s"] for r in plain]
    values = {"setup_s": statistics.median(setups),
              "solve_s": statistics.median(solve),
              "cmd_ms_p50": statistics.median(latencies),
              "cmd_ms_tail": quantile(latencies, tail_q),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    info["samples"] = {"setup_s": len(setups), "solve_s": len(solve),
                       "cmd_ms_p50": len(latencies), "cmd_ms_tail": len(latencies),
                       "peak_rss_mb": len(plain)}
    info["tail_percentile"] = 100.0 * tail_q
    info["solve_quartiles"] = statistics.quantiles(solve, n=4)
    info["pass_times"] = solve
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def layer_metrics(wanted: list[dict], commands, traced: list[dict], plain: list[dict],
                  verdicts: Verdicts, info: dict) -> dict:
    # per-layer numbers come from one traced pass, the median by wall time,
    # so that self times and remainder add up to that pass's time
    chosen = sorted(traced, key=lambda r: r["pass_s"])[(len(traced) - 1) // 2]
    derived = spans.derive(chosen["names"], chosen["spans"])
    funcs, layers = derived["functions"], derived["layers"]
    calls_seen = {json.dumps(sorted((n, f["calls"]) for n, f in
                                    spans.derive(r["names"], r["spans"])["functions"].items()))
                  for r in traced}
    info["calls_repeat"] = len(calls_seen) == 1
    info["traced_passes"] = len(traced)

    tables = [i for i, c in enumerate(commands) if c.kind == "classify-table"]
    rows = sum(len(json.loads(chosen["commands"][i]["stdout"])["results"]["entries"])
               for i in tables if chosen["commands"][i]["code"] == 0)
    hnf_in_tables = sum(1 for s in chosen["spans"]
                        if chosen["names"][s[0]] == "lattice.hermite_normal_form"
                        and s[4] in tables)
    special = {
        "trace.pass_s": chosen["pass_s"],
        "trace.remainder_s": chosen["pass_s"] - derived["self_total_s"],
        "trace.overhead_ratio": (statistics.median(r["pass_s"] for r in traced)
                                 / statistics.median(r["pass_s"] for r in plain) - 1.0),
        "lattice.hnf_calls_per_row": hnf_in_tables / rows if rows else 0.0,
        "error_rate": verdicts.failed / max(verdicts.attempted, 1),
    }

    def value(name: str) -> float:
        if name in special:
            return special[name]
        parts = name.split(".")
        if len(parts) == 2:
            return layers.get(parts[0], {}).get(parts[1], 0)
        entry = funcs.get(".".join(parts[:2]))
        if entry is None:
            return 0
        if parts[2] == "calls_per_cmd":
            return entry["calls"] / len(entry["commands"])
        return entry[parts[2]]

    return {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in wanted}


def print_table(res: dict, spec: dict, trace: bool) -> None:
    info = res["info"]
    v = info["verdicts"]
    print(f"== {info['workload']}  seed {info['seed']}  {info['passes']} passes x "
          f"{info['commands_per_pass']} commands  closed loop, 1 client  "
          f"BLAS threads {info['blas_threads']}")
    if trace:
        print(f"   traced passes {info['traced_passes']}, calls repeat exactly: "
              f"{info['calls_repeat']}")
        for m in spec["per_layer"]:
            print(f"   {m['name']:<46} {res['metrics'][m['name']]['value']:>14.6g} {m['unit']}")
        metrics = res["metrics"]
        layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
        print(f"   sum of layer self_s {layer_sum:.4f} s + remainder "
              f"{metrics['trace.remainder_s']['value']:.4f} s = traced pass "
              f"{metrics['trace.pass_s']['value']:.4f} s")
    else:
        samples = info["samples"]
        for m in spec["end_to_end"]:
            name = m["name"]
            extra = f"n={samples[name]}"
            if name == "solve_s":
                extra += (" q1/q3 " + "/".join(f"{q:.4f}" for q in info["solve_quartiles"][::2])
                          + " passes " + " ".join(f"{t:.3f}" for t in info["pass_times"]))
            if name == "cmd_ms_tail":
                extra += f" at p{info['tail_percentile']:.1f}"
            print(f"   {name:<14} {res['metrics'][name]['value']:>12.4f} {m['unit']:<6} {extra}")
    print(f"   {'error_rate':<14} {v.failed / max(v.attempted, 1):>12.4f} ratio  "
          f"{v.failed} of {v.attempted} commands (failed {v.counts['failed']}, "
          f"wrong {v.counts['wrong']})")
    for what, reason in sorted(info["verdicts"].first_reason.items()):
        print(f"   ! {what}: {reason}")
    for problem in info["escaped"]:
        print(f"   ! checker self-check: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(PASSES) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=REFERENCE_S)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and run_workload removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qindex", "cli.py")):
        print("run from the root of a qindex checkout: src/qindex/cli.py not found",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    names = list(PASSES) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), root, spec)
        except (BenchError, subprocess.TimeoutExpired) as err:
            print(f"benchmark error on {name}: {err}", file=sys.stderr)
            return 1
        print_table(res, spec, bool(args.trace))
        sys.stdout.flush()
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
