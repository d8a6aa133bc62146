#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (a CMake package that compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. The benchmark binary's stdout is relayed unchanged, so
its last line is the run's result: {"correct", "attempted", "failed",
"metrics"}. Before it, this script prints one {"harness": ...} line naming
the source revision and any PGPUB_* variables it removed from the
environment (the library reads them; they would change the program under
test). `--workload all` runs every workload in turn and prints each metric
with its unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sal_tds_cold", "incognito_cold", "serve_mix", "breach_audit"]
# A run's wall time is its set-up and warm-up, then --seconds of timed work
# (more when it finishes a pass over its inputs), then, when traced, a second
# pass of paired and layer-by-layer operations.
RUN_TIMEOUT_BASE_S = 100
RUN_TIMEOUT_PER_SECOND = 4


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found at " + os.path.join(ROOT, "src"))
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, parsed result)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGPUB_")}
    cleared = sorted(k for k in os.environ if k.startswith("PGPUB_"))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout_s = RUN_TIMEOUT_BASE_S + RUN_TIMEOUT_PER_SECOND * seconds
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("%s did not finish within %g s" % (workload, timeout_s))
        return 1, [], None
    harness = {"harness": {"source_id": source_id(), "cleared_env": cleared,
                           "command": cmd[1:]}}
    lines = [json.dumps(harness)] + stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("%s printed no result line" % workload)
        return proc.returncode or 1, lines, None
    expected = declared_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        log("%s metrics %s differ from BENCHMARK.json %s"
            % (workload, sorted(result["metrics"]), sorted(expected)))
        return 1, lines, None
    return proc.returncode, lines, result


def render_self_time(lines):
    """Prints a traced run's per-span self-time table to stderr."""
    for line in lines:
        if not line.startswith('{"self_time"'):
            continue
        rows = json.loads(line)["self_time"]
        log("%-34s %7s %11s %11s" % ("span", "count", "total_s", "self_s"))
        for r in rows:
            log("%-34s %7d %11.4f %11.4f" % (r["span"], r["count"], r["total_s"], r["self_s"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError) as err:
        log(str(err))
        return 1

    if args.workload != "all":
        code, lines, result = run_one(binary, args.workload, args.seed,
                                      args.seconds, args.trace)
        if result is None:
            for line in lines:
                print(line, file=sys.stderr)
            return code or 1
        if args.trace:
            render_self_time(lines)
        print("\n".join(lines), flush=True)
        return code

    # Every workload in turn: a per-metric table, then one combined result.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run_one(binary, workload, args.seed,
                                      args.seconds, args.trace)
        worst = worst or code or (1 if result is None else 0)
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print("%-16s %-36s %16.6g %s" % (workload, name, metric["value"], metric["unit"]))
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
