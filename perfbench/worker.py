"""One benchmark pass in a fresh interpreter.

Usage: worker.py JOB RESULT LAUNCH_TIME

Imports qindex.cli, records the time since LAUNCH_TIME (time.monotonic
of the parent just before it started this process), then runs the job's
commands back to back through ``qindex.cli.main(argv)`` with stdout and
stderr captured per command.  A job with no commands only measures
set-up.  With ``trace`` set, spans.Tracer wraps the library first.  The
result (latencies, exit codes, reports, peak RSS, spans) is written as
JSON to RESULT.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    job_path, result_path, launched = sys.argv[1], sys.argv[2], float(sys.argv[3])
    import qindex.cli
    setup_s = time.monotonic() - launched
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(qindex.cli.__file__).startswith(src + os.sep):
        print(f"qindex imported from {qindex.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    commands = []
    clock = time.perf_counter
    start = clock()
    for cmd_id, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.command = cmd_id
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qindex.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = "exception"
                err.write(traceback.format_exc())
        t1 = clock()
        commands.append({"ms": 1000.0 * (t1 - t0), "code": code,
                         "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    pass_s = clock() - start

    result = {"setup_s": setup_s, "pass_s": pass_s, "commands": commands,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    if tracer is not None:
        result["names"] = tracer.names
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
