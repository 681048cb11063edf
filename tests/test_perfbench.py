"""The benchmark harness runs every workload correctly on this tree.

Each workload runs once, traced, with `--seconds 0` (the two passes the
harness always makes), in a copy of src/, perfbench/ and tests/, so the
checkout's .perfbench/ state is left alone.  A run must report every
operation correct: the CLI workloads check their exit codes, exact texts
and pinned SHA-256s, and the tracer must still find the layer functions
its counters read.  The work counters of the two `bax` workloads are
pinned as well.  The traced pass follows an untraced one, and an axiom
keeps its membership programs by width, so that pass reaches
`compile_membership`, the formula-keyed cache, for no axiom: its
`evaluate.membership_rows` is 0.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bax-sparse", "bax-dense", "search-canon", "oneshot")
COUNTERS = {
    "bax-sparse": {
        "kernels.filter_famasks": 65536,
        "kernels.filter_hits": 256,
        "kernels.upset_results": 19,
        "evaluate.membership_rows": 0,
    },
    "bax-dense": {
        "kernels.filter_famasks": 65536,
        "kernels.filter_hits": 32768,
        "kernels.upset_results": 7581,
        "evaluate.membership_rows": 0,
        "cli.stdout_bytes": 1102125,
    },
}


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    copy = tmp_path_factory.mktemp("bench")
    for name in ("src", "perfbench", "tests"):
        shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    return copy


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correct(bench_copy, workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    # The harness refuses to run under the variables that change what it measures.
    env = {key: value for key, value in os.environ.items() if key not in ("NBHD_MAX_N", "NBHD_PURE_PYTHON")}
    done = subprocess.run(argv, cwd=bench_copy, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["correct"] is True, done.stderr
    assert report["failed"] == 0
    assert report["attempted"] > 0
    metrics = {name: metric["value"] for name, metric in report["metrics"].items()}
    for name, value in COUNTERS.get(workload, {}).items():
        assert metrics[name] == value, name
