"""Self-tests of the benchmark.  Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from worker import Runner  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench_out", "selftest")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_doc(workload, seed, trace):
    path = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runner():
    import paulimix
    import paulimix.cli

    os.makedirs(SCRATCH, exist_ok=True)
    return Runner(paulimix)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_at_tiny_size(trace):
    want = {m["name"] for m in spec()["end_to_end" if trace == 0 else "per_layer"]}
    for w in spec()["workloads"]:
        proc = bench("--workload", w["name"], "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert set(last["metrics"]) == want
        if trace == 0:
            assert all(m["value"] > 0 for m in last["metrics"].values())


def test_trace_counts_repeat_and_spans_are_consistent():
    docs = []
    for _ in range(2):
        proc = bench("--workload", "analyze-configs", "--seed", "9", "--seconds", "1",
                     "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        docs.append(result_doc("analyze-configs", 9, 1)["trace"])
    counts = [
        {k: v for k, v in d["metrics"].items() if isinstance(v, int)} for d in docs
    ]
    assert counts[0] and counts[0] == counts[1]
    for d in docs:
        assert d["min_self_s"] >= 0
        assert all(v >= 0 for k, v in d["metrics"].items() if k.endswith("self_s"))
        assert d["top_level_span_s"] <= d["traced_s"]


def test_oracle_flags_flipped_is_semigroup(runner):
    op = workloads.scan_op(SCRATCH, 0, 3, "semigroup", 2, 1.0)
    result = runner.execute(op)[1]
    assert op.check(result) == []
    path = op.outputs[0]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cols = lines[0].split(",")
    k = cols.index("is_semigroup")
    row = lines[1].split(",")
    row[k] = "false" if row[k] == "true" else "true"
    lines[1] = ",".join(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert op.check(result)


def test_oracle_flags_shifted_singular_time(runner):
    rng = workloads.np.random.default_rng(3)
    for _ in range(20):
        mix, t_max, expect = workloads.all_channels_case(rng, 2)
        if any(v == "noninvertible" for v, _ in expect.inputs):
            break
    op = workloads.analyze_op(SCRATCH, 0, "all-channels-d2", mix, t_max, 256, expect)
    result = runner.execute(op)[1]
    assert op.check(result) == []
    path = op.outputs[1]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for entry in doc["inputs"]:
        if entry["singular_times"]:
            entry["singular_times"][0] += 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert any("input" in p for p in op.check(result))


def test_refuses_to_run_without_the_program():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simplex-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_every_binding(runner):
    from tracer import MODULES, Tracer

    import paulimix

    mods = [paulimix] + [getattr(paulimix, m) for m in MODULES]
    before = [dict(vars(m)) for m in mods]
    methods = {c: dict(vars(getattr(paulimix.channelcore, c))) for c in
               ("ExpRelax", "Expression", "SampledGrid")}
    tracer = Tracer()
    tracer.install()
    assert paulimix.semigroupforge.mixture_eigenvalues is not before[0]["mixture_eigenvalues"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in mods] == before
    assert {c: dict(vars(getattr(paulimix.channelcore, c))) for c in methods} == methods
