#!/usr/bin/env python3
"""End-to-end benchmark of the INCA simulator's driver-level workloads.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds bench_e2e/ (and the simulator
library from src/) into .bench_build/bench_e2e, then runs one workload:

  --trace 0  the measuring process, then SETUP_PROBES more processes
             that only set up; prints the end-to-end metrics, with
             setup_s the median over all of them.
  --trace 1  one traced process; prints the per-layer metrics and
             writes its spans to .bench_build/trace/.

The last stdout line is one JSON object with exactly the keys
correct, attempted, failed and metrics; the metric names and units
are the ones BENCHMARK.json lists. See bench_e2e/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench_e2e"
BUILD_DIR = ROOT / ".bench_build" / "bench_e2e"
TRACE_DIR = ROOT / ".bench_build" / "trace"
BINARY = BUILD_DIR / "inca_bench_e2e"

# Simulator switches the benchmark pins itself; removed from the
# environment of every process it starts.
PINNED_ENV = ("INCA_TRACE", "INCA_METRICS", "INCA_CACHE",
              "INCA_KERNEL_ISA", "INCA_NUM_THREADS")

# Extra set-up-only processes per untraced run; setup_s is the median
# of their set-up times and the measuring process's.
SETUP_PROBES = 4

# No single process may run longer than this [s].
CHILD_TIMEOUT_S = 150

CHILD_KEYS = {"correct", "attempted", "failed", "digest", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def _no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def _no_constants(name):
    raise ValueError(f"non-finite number {name}")


def strict_json(text):
    """json.loads that rejects duplicate keys, NaN and Infinity."""
    return json.loads(text, object_pairs_hook=_no_duplicates,
                      parse_constant=_no_constants)


def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool)


def parse_child_result(line, units):
    """Strictly parse a harness process's result line.

    @p units maps every metric name the line must carry to its unit.
    Returns the parsed object; raises ValueError on any deviation.
    """
    doc = strict_json(line)
    if not isinstance(doc, dict) or set(doc) != CHILD_KEYS:
        raise ValueError(f"result keys {sorted(doc) if isinstance(doc, dict) else doc!r} "
                         f"!= {sorted(CHILD_KEYS)}")
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct is not a boolean")
    if not _is_count(doc["attempted"]) or doc["attempted"] < 1:
        raise ValueError("attempted is not a positive integer")
    if not _is_count(doc["failed"]) or not 0 <= doc["failed"] <= doc["attempted"]:
        raise ValueError("failed is not an integer in [0, attempted]")
    if not isinstance(doc["digest"], str) or len(doc["digest"]) != 16:
        raise ValueError("digest is not 16 hex digits")
    metrics = doc["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(units):
        raise ValueError(f"metric names {sorted(metrics) if isinstance(metrics, dict) else metrics!r} "
                         f"!= {sorted(units)}")
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name} is not {{value, unit}}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"metric {name} value {v!r} is not a finite number")
        if m["unit"] != units[name]:
            raise ValueError(f"metric {name} unit {m['unit']!r} != {units[name]!r}")
    return doc


def combine(main, probes, order):
    """The run's result from the measuring process and the set-up probes.

    setup_s becomes the median over every process; attempted, failed
    and ok_frac count every operation of every process, and a probe
    whose cold-operation digest differs from the measuring process's
    counts as a failed operation.
    """
    attempted = main["attempted"] + sum(p["attempted"] for p in probes)
    failed = main["failed"] + sum(
        p["failed"] or (p["digest"] != main["digest"]) for p in probes)
    failed = min(failed, attempted)
    values = {k: m["value"] for k, m in main["metrics"].items()}
    values["setup_s"] = statistics.median(
        [main["metrics"]["setup_s"]["value"]]
        + [p["metrics"]["setup_s"]["value"] for p in probes])
    values["ok_frac"] = (attempted - failed) / attempted
    units = {k: m["unit"] for k, m in main["metrics"].items()}
    return {
        "correct": main["correct"] and all(p["correct"] for p in probes)
                   and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in order},
    }


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = strict_json(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return spec


def source_digest():
    """sha256 over the simulator sources and the benchmark's own files."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "inca_bench_e2e", "-j", jobs])
    for cmd in steps:
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout)
            fail(f"build step failed: {' '.join(cmd)}")


def run_child(args, env, units):
    """Run the harness once; forward its record lines; parse its result."""
    cmd = [str(BINARY)] + args
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} ran past {CHILD_TIMEOUT_S} s")
    lines = out.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if out.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited with {out.returncode}")
    try:
        return parse_child_result(lines[-1], units)
    except ValueError as e:
        fail(f"malformed result from {' '.join(cmd)}: {e}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args(argv)
    if a.seed < 0 or not a.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload {a.workload!r}; choose from {names}")
    build()

    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    neutralised = [k for k in PINNED_ENV if k in os.environ]
    print(f"# record commit={git_commit()} sources={source_digest()} "
          f"python={sys.version.split()[0]} "
          f"neutralised_env={','.join(neutralised) or 'none'}")

    base = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds)]
    if a.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        spans = TRACE_DIR / f"{a.workload}-seed{a.seed}.spans.json"
        res = run_child(base + ["--trace", "1", "--spans", str(spans)],
                        env, units)
        result = {k: res[k] for k in ("correct", "attempted", "failed")}
        result["metrics"] = {m["name"]: res["metrics"][m["name"]]
                             for m in spec["per_layer"]}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        main_res = run_child(base + ["--trace", "0"], env, units)
        probes = [run_child(base + ["--setup-only"], env,
                            {"setup_s": units["setup_s"]})
                  for _ in range(SETUP_PROBES)]
        result = combine(main_res, probes,
                         [m["name"] for m in spec["end_to_end"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
