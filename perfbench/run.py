"""paulimix benchmark: seeded scan / analyze / verify workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload simplex-scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each workload runs in fresh processes with one BLAS/OpenMP thread and
``PAULIMIX_OUT`` pointing at a scratch directory under ``.perfbench_out/``.
A single client drives ``paulimix.cli.main(argv)`` (and, on verify-suite,
``dynamics.intermediate_map_check``) in a closed loop: the next command
starts when the previous one returns.  Every output is checked against
``oracle.py``, which does not call paulimix.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs a fixed number of rounds untraced and then traced and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, and in
trace mode every span, are kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILE = 90

# Workload-specific names of the generic end-to-end metrics, as printed.
THROUGHPUT_NAME = {
    "simplex-scan": ("scan_mixtures_per_s", ("mixtures",)),
    "analyze-configs": ("analyze_configs_per_s", ("configs",)),
    "verify-suite": ("verdicts_per_s", ("trials", "cp_checks")),
}
LATENCY_NAME = {"simplex-scan": "scan", "analyze-configs": "analyze", "verify-suite": "verify_op"}


class BenchError(RuntimeError):
    pass


class Worker:
    """A workload process; always reaped, killed if it overruns the deadline."""

    def __init__(self, root, out_dir, workload, seed, seconds, mode, tiny, extra=()):
        self.result = os.path.join(out_dir, f"result-{mode}-{time.monotonic_ns()}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--mode", mode, "--out", out_dir, "--result", self.result, *extra]
        if tiny:
            cmd.append("--tiny")
        env = dict(os.environ, PAULIMIX_OUT=out_dir, PYTHONHASHSEED="0")
        env.update({k: "1" for k in THREAD_VARS})
        self.stderr_path = self.result + ".stderr"
        with open(self.stderr_path, "w", encoding="utf-8") as err:
            self.start = time.perf_counter()
            self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                         stderr=err, text=True)

    def stderr_tail(self) -> str:
        with open(self.stderr_path, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]

    def wait_ready(self, timeout: float) -> float:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 1.0))
        line = self.proc.stdout.readline() if ready else ""
        if line.strip() != "ready":
            self.kill()
            raise BenchError(f"workload process failed during set-up: {self.stderr_tail()}")
        return time.perf_counter() - self.start

    def finish(self, timeout: float) -> dict:
        try:
            self.proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("workload process overran the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(
                f"workload process exited {self.proc.returncode}: {self.stderr_tail()}"
            )
        if not os.path.exists(self.result):
            return {}
        with open(self.result, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def end_to_end(workload, doc, setup):
    """Metrics from an untraced run, plus the workload-named lines to print."""
    ops = doc["ops"]
    name, units = THROUGHPUT_NAME[workload]
    lat = [o["s"] * 1e3 for o in ops]
    busy = sum(o["s"] for o in ops)
    work = sum(o["units"].get(u, 0) for o in ops for u in units)
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    beyond = sum(1 for v in lat if v > tail)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MiB"),
        "throughput_per_s": (work / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        f"latency_p{TAIL_PERCENTILE}_ms": (tail, "ms"),
    }
    op = LATENCY_NAME[workload]
    lines = [
        f"{name} = {work / busy:.6g} 1/s  (throughput_per_s; {work} units in {busy:.3f} s "
        f"of {len(ops)} operations)",
        f"{op}_p50_ms = {metrics['latency_p50_ms'][0]:.6g} ms  (latency_p50_ms; n={len(lat)})",
        f"{op}_tail_ms = {metrics[f'latency_p{TAIL_PERCENTILE}_ms'][0]:.6g} ms  "
        f"(latency_p{TAIL_PERCENTILE}_ms; p{TAIL_PERCENTILE}, n={len(lat)}, {beyond} beyond)",
        f"setup_s = {metrics['setup_s'][0]:.6g} s  (median of n={len(setup)} fresh interpreters)",
        f"peak_rss_mb = {doc['peak_rss_mb']:.6g} MiB  (the measuring process)",
    ]
    if workload == "verify-suite":
        for label, kinds, unit in (
            ("scanner_trials_per_s", ("verify-theorem1", "verify-theorem2"), "trials"),
            ("cp_checks_per_s", ("verify-cptp", "imap-d3"), "cp_checks"),
        ):
            sel = [o for o in ops if o["kind"] in kinds]
            t = sum(o["s"] for o in sel)
            u = sum(o["units"].get(unit, 0) for o in sel)
            lines.append(f"{label} = {u / t:.6g} 1/s  ({u} {unit} in {t:.3f} s, n={len(sel)})")
    return metrics, lines


def run_workload(root, base, workload, seed, seconds, trace, tiny):
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base)
    tag = f"{workload}-seed{seed}-trace{trace}"
    workers = []
    try:
        deadline = time.monotonic() + DEADLINE_S
        if trace:
            spans = os.path.join(base, tag + "-spans.tsv.gz")
            w = Worker(root, out_dir, workload, seed, seconds, "trace", tiny, ["--spans", spans])
            workers.append(w)
            w.wait_ready(deadline - time.monotonic())
            doc = w.finish(deadline - time.monotonic())
            layers = doc["trace"]["metrics"]
            metrics = {k: (v, _layer_unit(k)) for k, v in layers.items()}
            lines = [f"{k} = {v:.6g} {_layer_unit(k)}" for k, v in layers.items()]
            lines.append(f"spans = {doc['trace']['spans']} (written to {spans})")
            lines.append("largest self times: " + ", ".join(
                f"{n} {s:.3f} s" for n, s, _ in doc["trace"]["self_time_table"][:5]))
        else:
            setup = []
            for i in range(SETUP_SAMPLES):
                mode = "measure" if i == SETUP_SAMPLES - 1 else "setup"
                w = Worker(root, out_dir, workload, seed, seconds, mode, tiny)
                workers.append(w)
                setup.append(w.wait_ready(deadline - time.monotonic()))
                doc = w.finish(deadline - time.monotonic())
            metrics, lines = end_to_end(workload, doc, setup)
        doc["metrics"] = {k: v for k, (v, _) in metrics.items()}
        with open(os.path.join(base, tag + ".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    finally:
        for w in workers:
            w.kill()
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted, failed = doc["attempted"], doc["failed"]
    known = sum(doc["known_defects"].values())
    lines += [
        f"failed_frac = {failed / attempted:.6g} ratio  ({failed}/{attempted} operations)",
        f"known_defect_frac = {known / attempted:.6g} ratio  ({known}/{attempted}; "
        "reported, not counted as failed)",
    ]
    lines += [f"known defect: {k} ({n} operations)" for k, n in doc["known_defects"].items()]
    lines += [f"FAILED {p}" for p in doc["problems"]]
    lines.append(f"output_sha256 = {doc['output_sha256']}  (first round, informational)")
    env = doc["env"]
    lines.append(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
                 f"nproc {env['nproc']}, rounds {doc['rounds']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, lines


def _layer_unit(name):
    if name == "trace_overhead_frac":
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for self-tests")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that the workers are killed and reaped
    # by the cleanup in run_workload.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "paulimix", "__init__.py")):
        print(f"error: no paulimix sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench_out")
    os.makedirs(base, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, lines = run_workload(root, base, name, args.seed, args.seconds,
                                         args.trace, args.tiny)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"== {name} (seed {args.seed}, trace {args.trace}): {WORKLOADS[name]}")
        for line in lines:
            print("  " + line)
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
