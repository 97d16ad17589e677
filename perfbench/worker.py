"""One workload process: set up, warm up, then measure or trace.

Started by ``run.py`` in a fresh interpreter, with the program's ``src``
directory on ``sys.path``.  Prints ``ready`` on stdout once set-up is done
(import, first round of inputs, one warm-up command), then writes its
results as JSON to ``--result``.

Modes:
  setup    exit right after ``ready`` (a set-up time sample).
  measure  closed loop, one client: whole rounds of operations until
           ``--seconds`` have passed; per-operation latency and work.
  trace    a fixed number of rounds, run once untraced and once traced with
           spans around every public paulimix function.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

TRACE_ROUNDS = {"simplex-scan": 10, "analyze-configs": 8, "verify-suite": 6}


class Runner:
    """Runs operations in this process and checks each one."""

    def __init__(self, paulimix):
        self.pm = paulimix
        self.attempted = 0
        self.failed = 0
        self.known: dict[str, int] = {}
        self.problems: list[str] = []

    def execute(self, op):
        """Run one operation; return (seconds, result). Output is captured."""
        if op.argv is None:
            start = time.perf_counter()
            result = op.call(self.pm)
            return time.perf_counter() - start, result
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = self.pm.cli.main(op.argv)
            elapsed = time.perf_counter() - start
        return elapsed, (rc, out.getvalue(), err.getvalue())

    @staticmethod
    def problems_of(check, result) -> list:
        try:
            return check(result)
        except Exception as exc:  # a malformed output fails its check
            return [f"output could not be checked: {exc!r}"]

    def run(self, op) -> dict:
        elapsed, result = self.execute(op)
        self.attempted += 1
        problems = self.problems_of(op.check, result)
        status = "ok"
        if problems and op.defect_check and not self.problems_of(op.defect_check, result):
            status = "known-defect"
            self.known[op.known_defect] = self.known.get(op.known_defect, 0) + 1
        elif problems:
            status = "failed"
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.kind}: {'; '.join(problems)}")
        return {"kind": op.kind, "s": elapsed, "units": op.units, "status": status,
                "result": result}


def digest(ops, records) -> str:
    """sha256 over the output files (or rendered results) of a list of operations."""
    h = hashlib.sha256()
    for op, rec in zip(ops, records):
        for path in op.outputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        if op.digest_text is not None:
            h.update(op.digest_text(rec["result"]).encode())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--out", required=True, help="scratch directory for inputs and outputs")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="trace mode: write every span here (gzip TSV)")
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for self-tests")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import paulimix
    import paulimix.cli
    import paulimix.dynamics

    from workloads import make_round

    runner = Runner(paulimix)

    def round_ops(index):
        return make_round(args.workload, args.seed, index, args.out, args.tiny, paulimix)

    first = round_ops(0)
    warm = [runner.run(first[0])]
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    warm += [runner.run(op) for op in first[1:]]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "output_sha256": digest(first, warm),
        "env": environment(),
    }

    if args.mode == "measure":
        records, index = [], 1
        start = time.perf_counter()
        while True:
            records += [runner.run(op) for op in round_ops(index)]
            index += 1
            if time.perf_counter() - start >= args.seconds:
                break
        doc["rounds"] = index - 1
        doc["ops"] = [{k: r[k] for k in ("kind", "s", "units", "status")} for r in records]
    else:
        from tracer import Tracer

        def timed_round(index, tracer=None):
            if tracer is None:
                return sum(runner.run(op)["s"] for op in round_ops(index))
            paulimix.mubgen.weyl_set.cache_clear()  # so the trace sees the uncached builds
            tracer.install()
            try:
                return sum(runner.run(op)["s"] for op in round_ops(index))
            finally:
                tracer.uninstall()

        # Each round runs untraced and traced back to back, alternating which
        # goes first, so that drifts in machine speed cancel in the overhead.
        rounds = 1 if args.tiny else TRACE_ROUNDS[args.workload]
        tracer = Tracer()
        untraced = traced = 0.0
        for i in range(1, rounds + 1):
            if i % 2:
                untraced += timed_round(i)
                traced += timed_round(i, tracer)
            else:
                traced += timed_round(i, tracer)
                untraced += timed_round(i)
        layers = tracer.layer_metrics()
        layers["trace_overhead_frac"] = traced / untraced - 1.0
        top = tracer.top_level_ns() / 1e9
        doc["rounds"] = rounds
        doc["trace"] = {
            "untraced_s": untraced,
            "traced_s": traced,
            "top_level_span_s": top,
            "spans": len(tracer.spans),
            "min_self_s": min(tracer.self_times_ns(), default=0) / 1e9,
            "self_time_table": tracer.self_time_table(),
            "metrics": layers,
        }
        if args.spans:
            tracer.write(args.spans)

    doc["attempted"] = runner.attempted
    doc["failed"] = runner.failed
    doc["known_defects"] = runner.known
    doc["problems"] = runner.problems
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
