#!/usr/bin/env python3
"""nbhd benchmark: one workload per run, end-to-end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each run is a fresh interpreter that
imports `nbhd` from ./src and drives one workload through the public entry
points: `nbhd.cli.main(argv)` in-process with stdout captured (bax-sparse,
bax-dense, search-canon) or library calls (oneshot).  A pass runs the
workload's operations once, each one timed on its own; passes repeat until
the next one would end more than S seconds after the first began, and at
least two run.  Every operation's output is checked after its timer stops;
an exception, an unexpected exit code or a wrong answer counts as a failed
operation.

Times are calibrated (clock.py): each operation's measured time is scaled
by how fast a fixed calibration kernel ran around it, which takes out the
drift of core speed on a shared host.  An operation's time is the median
of its calibrated times over the passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records provenance:
backend, Python version, nproc, git revision (when the tree is a git
checkout), a hash of the sources under src/nbhd and the seed, then each
pass's raw and calibrated time.

--trace 0 reports what a user sees:
  setup_s      median over 11 fresh interpreters, spawned between passes,
               of the time from spawn to `import nbhd, nbhd.cli` done,
               calibrated by the kernel run in the child right after
  wall_s       one pass: the sum of the operations' times
  req_p50_us, req_p99_us, req_per_s
               median and 99th percentile over the operations' times (a
               request on oneshot, 2,400 per pass; a CLI command elsewhere,
               where p99 is the slowest command) and operations per second
               of wall_s
  peak_rss_mb  the run's peak resident memory

--trace 1 wraps the layer functions (tracer.py), alternates untraced and
traced passes, and reports per layer `<layer>.calls` and `<layer>.self_s`
(self time: span time minus child spans, uncalibrated, fastest traced
pass), the work counters below, `trace.wall_s` (wall_s over the traced
passes) and `trace.overhead_s` (that minus wall_s over the untraced ones).
Spans of the first traced pass go to .perfbench/spans-<workload>.jsonl.
Counters must repeat exactly across traced passes and across runs of one
seed on the same sources and backend; the run compares them with the
previous run's, kept in .perfbench/, and reports correct=false on a
mismatch.

  kernels.filter_famasks    famasks swept by family_filter
  kernels.filter_hits       famasks it accepted; filter_hit_ratio = hits / famasks
  kernels.upset_results     families upset_enumerate returned
  evaluate.membership_rows  rows of the programs compile_membership returned
  kernels.refute_calls      algebra_refute calls
  kernels.refute_assignments  assignments they swept
  kernels.refute_full_sweeps  calls that found no refuting assignment
  search.target_checks      find_refuting_assignment calls made by search
  search.canonical_calls    canonical_form calls
  search.relabelings        sum of n! over those calls
  search.canonical_ratio    share of canonical_form inputs already canonical
  core.families_built       family_from_famask calls
  cli.stdout_bytes          bytes cli.main wrote to stdout

The run refuses to start when NBHD_MAX_N or NBHD_PURE_PYTHON is set:
either one changes what is measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

from clock import NOMINAL_NS, Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("bax-sparse", "bax-dense", "search-canon", "oneshot")
SETUP_SPAWNS = 11
MIN_PASSES = 2
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import nbhd, nbhd.cli; "
    "sys.stdout.write(nbhd.__file__ + '\\n'); sys.stdout.flush(); "
    "sys.path.insert(0, sys.argv[2]); import clock; print(clock.calibrate(), clock.calibrate())"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


class SetupProbe:
    """Times fresh interpreters from spawn until nbhd and nbhd.cli are
    imported, calibrated by two runs of the kernel in the child after that.
    One spawn runs before each pass and the rest at the end, so the median
    of SETUP_SPAWNS spans the run rather than one busy moment."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def spawn(self) -> None:
        start = perf_counter_ns()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE, str(SRC), str(HERE)], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            ready = perf_counter_ns()
            rest = proc.stdout.read()
        cal = rest.split()
        if proc.returncode != 0 or not line.startswith(str(SRC)) or len(cal) != 2:
            raise BenchError(f"set-up probe failed (exit {proc.returncode}, printed {line + rest!r})")
        self.times.append((ready - start) * 2 * NOMINAL_NS / (int(cal[0]) + int(cal[1])) / 1e9)

    def before_pass(self) -> None:
        if len(self.times) < SETUP_SPAWNS:
            self.spawn()

    def median(self) -> float:
        while len(self.times) < SETUP_SPAWNS:
            self.spawn()
        return statistics.median(self.times)


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nbhd").rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(workload: str, seed: int, trace: int) -> dict:
    import nbhd

    backend_name = getattr(nbhd, "backend_name", None)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "backend": backend_name() if backend_name else "none",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_hash(),
    }


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def run_passes(workload, seconds: float, tracer, setup: SetupProbe | None):
    """Alternate untraced and traced passes when tracing, else untraced
    only, until the next pass would end more than `seconds` after the
    first began; at least MIN_PASSES run.  Returns the pass records and,
    for untraced and traced passes apart, each operation's median
    calibrated time in ns."""
    budget = seconds * 1e9
    began = perf_counter_ns()
    clock = Clock()
    passes = []
    times: dict[bool, list[list[float]]] = {}
    while True:
        pass_start = perf_counter_ns()
        if setup is not None:
            setup.before_pass()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.keep_spans = not any(p["traced"] for p in passes)
            tracer.active = True
        try:
            failures = workload.run_pass(clock, tracer if traced else None)
        finally:
            if tracer is not None:
                tracer.active = tracer.keep_spans = False
        raw, scaled = clock.take()
        if traced in times:
            for per_op, ns in zip(times[traced], scaled):
                per_op.append(ns)
        else:
            times[traced] = [[ns] for ns in scaled]
        record = {"traced": traced, "ops": len(raw), "ns": sum(raw), "scaled_ns": sum(scaled), "failures": failures}
        if traced:
            record["counts"] = tracer.pass_counts()
            record["self_s"] = tracer.pass_self_s()
        passes.append(record)
        now = perf_counter_ns()
        if len(passes) >= MIN_PASSES and now + (now - pass_start) - began > budget:
            return passes, {traced: list(map(statistics.median, per_op)) for traced, per_op in times.items()}


def end_to_end(times: list[float], setup_s: float) -> dict:
    wall = sum(times) / 1e9
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "req_p50_us": (percentile(times, 50) / 1e3, "us"),
        "req_p99_us": (percentile(times, 99) / 1e3, "us"),
        "req_per_s": (len(times) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(passes: list[dict], times: dict[bool, list[float]], problems: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics and the counts that must repeat exactly."""
    traced = [p for p in passes if p["traced"]]
    counts = traced[0]["counts"]
    for p in traced[1:]:
        if p["counts"] != counts:
            problems.append(f"work counters differ between traced passes: {counts} vs {p['counts']}")
    out = {}
    for key, value in counts.items():
        out[key] = (value, "ratio" if key.endswith("_ratio") else "count")
    for key in traced[0]["self_s"]:
        out[key] = (min(p["self_s"][key] for p in traced), "s")
    traced_wall = sum(times[True]) / 1e9
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - sum(times[False]) / 1e9, "s")
    return out, counts


def compare_with_previous(prov: dict, counts: dict, problems: list[str]) -> None:
    """Counts of one seed must repeat across runs on the same sources and
    backend; runs on another backend are never compared."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (
        f"counters-{prov['workload']}-seed{prov['seed']}-{prov['backend']}-{prov['source_sha256'][:16]}.json"
    )
    if path.exists():
        previous = json.loads(path.read_text())
        if previous != counts:
            problems.append(f"work counters differ from the previous run of this seed ({path.name})")
        return
    path.write_text(json.dumps(counts, sort_keys=True))


def write_spans(prov: dict, spans) -> None:
    """Provenance, then one [id, name, start_ns, end_ns, parent id] per line."""
    OUT_DIR.mkdir(exist_ok=True)
    with (OUT_DIR / f"spans-{prov['workload']}.jsonl").open("w") as fh:
        fh.write(json.dumps(prov) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("NBHD_MAX_N", "NBHD_PURE_PYTHON"):
        if var in os.environ:
            raise BenchError(f"{var} is set; unset it, since it changes what is measured")
    if not (SRC / "nbhd" / "__init__.py").is_file():
        raise BenchError(f"no nbhd sources under {SRC}")

    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import nbhd

    if Path(nbhd.__file__).resolve().parent != SRC / "nbhd":
        raise BenchError(f"imported nbhd from {nbhd.__file__}, not from {SRC}")
    prov = provenance(args.workload, args.seed, args.trace)

    if args.workload == "oneshot":
        from oneshot import OneshotWorkload as Workload
    else:
        from batch import BatchWorkload as Workload
    workload = Workload(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup = None if tracer else SetupProbe()
    passes, times = run_passes(workload, args.seconds, tracer, setup)
    failures = [msg for p in passes for msg in p["failures"]]
    problems: list[str] = []
    if tracer is None:
        metrics = end_to_end(times[False], setup.median())
    else:
        metrics, counts = per_layer(passes, times, problems)
        compare_with_previous(prov, counts, problems)
        write_spans(prov, tracer.spans)

    for msg in failures[:20] + problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    attempted = sum(p["ops"] for p in passes)
    print(
        json.dumps(
            {
                "provenance": prov,
                "pass_s": [p["ns"] / 1e9 for p in passes],
                "calibrated_pass_s": [p["scaled_ns"] / 1e9 for p in passes],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not failures and not problems,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
