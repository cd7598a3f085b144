#!/usr/bin/env python3
"""Build and run the roomsense benchmark.

Benchmark command (what BENCHMARK.json names), run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the benchmark package (release, offline) into $CARGO_TARGET_DIR
(default .bench_build), runs the workload in a fresh process with one worker
and disk-fault injection off, adds the process's peak resident set to the
end-to-end metrics, and prints one JSON object as the last line.

Other commands:

    python3 perfbench/run.py all [--seed 20150309] [--seconds 35] [--trace 0|1] [--smoke]
        every workload in turn, each in its own process; --smoke runs the
        reduced sizes, which perform every check in seconds.
    python3 perfbench/run.py steady [--runs 10] [--sets 2] [--seconds 35]
                                    [--workloads a,b] [--seed 20150309] [--out FILE]
        runs each workload --runs times per set, in alternating order with a
        new seed each run, prints median, quartiles and relative spread of
        every end-to-end metric, and compares the sets (an A/A comparison).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["office_day", "lecture_surge", "archive_history"]
CHILD_TIMEOUT_S = 170
# Fresh processes per untraced run; see run_measured.
PROCESSES = 3


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return None
    binary = target_dir() / "release" / "roomsense-perfbench"
    if done.returncode != 0 or not binary.is_file():
        print("error: the benchmark did not build", file=sys.stderr)
        return None
    return binary


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROOMSENSE_")}
    env["ROOMSENSE_THREADS"] = "1"
    return env


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload process and waits for it to end.

    Returns (exit code, output lines, result). An untraced result gains
    `peak_rss_mb`: the workload process's peak resident set, as the kernel
    reports it when the process is reaped.
    """
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        return code or 1, lines, None
    if not trace:
        metrics = {}
        for name, value in result["metrics"].items():
            metrics[name] = value
            if name == "setup_s":
                metrics["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
        result["metrics"] = metrics
    return code, lines[:-1], result


def run_measured(binary, workload, seed, seconds, trace, smoke=False):
    """One benchmark run.

    An untraced run splits its seconds over PROCESSES fresh processes, one
    after another on the same inputs, and reports each metric's median over
    them: how fast one process runs depends on where its memory lands, and
    the median of several processes is steadier than any one. Operation
    counts add up. A traced run is one process.
    """
    if trace or smoke:
        return run_workload(binary, workload, seed, seconds, trace, smoke)
    runs = []
    for index in range(PROCESSES):
        code, lines, result = run_workload(binary, workload, seed, seconds / PROCESSES, 0)
        runs.append((lines, result))
        if result is None or code != 0:
            return code or 1, [l for ls, _ in runs for l in ls], result
    lines = [f"process {i + 1}: {l}" for i, (ls, _) in enumerate(runs) for l in ls]
    results = [r for _, r in runs]
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                   "unit": metric["unit"]}
            for name, metric in results[0]["metrics"].items()
        },
    }
    return 0, lines, merged


def bench(args):
    binary = build()
    if binary is None:
        return 1
    code, lines, result = run_measured(binary, args.workload, args.seed, args.seconds,
                                       args.trace)
    for line in lines:
        print(line)
    if result is None:
        print("error: the workload printed no result", file=sys.stderr)
        return code or 1
    print(json.dumps(result))
    return code


def run_all(args):
    binary = build()
    if binary is None:
        return 1
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run_measured(binary, workload, args.seed, args.seconds,
                                           args.trace, smoke=args.smoke)
        print("\n".join(lines))
        if result is None or code != 0:
            print(f"{workload}: FAILED (exit {code})")
            worst = 1
            continue
        print(json.dumps(result), flush=True)
    return worst


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(args):
    binary = build()
    if binary is None:
        return 1
    spec = {}
    bench_json = ROOT / "BENCHMARK.json"
    if bench_json.is_file():
        spec = {m["name"]: m for m in json.loads(bench_json.read_text())["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    sets = []
    seed = args.seed
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            order = workloads if (s * args.runs + i) % 2 == 0 else workloads[::-1]
            for workload in order:
                code, lines, result = run_measured(binary, workload, seed, args.seconds, 0)
                if result is None or code != 0 or not result["correct"]:
                    print(f"{workload} seed {seed}: FAILED (exit {code})")
                    print("\n".join(lines))
                    return 1
                runs[workload].append({"seed": seed, **result})
                print(f"set {s + 1} run {i + 1} {workload} seed {seed}: "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)
            seed += 1
        sets.append(runs)
    report = {}
    worst = 0
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':24} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>7} {'bound':>6}")
        report[workload] = {}
        for name in sets[0][workload][0]["metrics"]:
            rows = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                med, q1, q3, rel = spread(values)
                rows.append({"median": med, "q1": q1, "q3": q3, "spread": rel,
                             "values": values})
                bound = spec.get(name, {}).get("bound")
                flag = ""
                if bound is not None and name != "setup_s" and rel > bound:
                    flag = "  > bound"
                    worst = 1
                elif bound is not None and rel > bound / 3:
                    flag = "  > bound/3"
                print(f"  {name:24} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{rel:>7.3f} {bound if bound is not None else '':>6}{flag}")
            if len(rows) > 1 and name in spec:
                first, second = rows[0]["median"], rows[1]["median"]
                lower = spec[name]["better"] == "lower"
                worse = (second - first) / first if lower else (first - second) / first
                flag = "  WORSE THAN BOUND" if worse > spec[name]["bound"] else ""
                if flag:
                    worst = 1
                print(f"  {'':24} A/A: set 2 is {100 * worse:+.2f} % worse than set 1{flag}")
            report[workload][name] = rows
        shares = [sum(r["failed"] for r in runs[workload]) /
                  sum(r["attempted"] for r in runs[workload]) for runs in sets]
        per_run = {(r["failed"], r["attempted"]) for runs in sets for r in runs[workload]}
        ratios = {f / a for f, a in per_run}
        print(f"  failed share per set: {shares}; distinct per-run shares: {sorted(ratios)}")
        if len(ratios) > 1:
            worst = 1
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return worst


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "all":
        parser = argparse.ArgumentParser(prog="run.py all")
        parser.add_argument("--seed", type=int, default=20150309)
        parser.add_argument("--seconds", type=int, default=35)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--smoke", action="store_true")
        return run_all(parser.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        parser = argparse.ArgumentParser(prog="run.py steady")
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--sets", type=int, default=2)
        parser.add_argument("--seconds", type=int, default=35)
        parser.add_argument("--workloads", default="")
        parser.add_argument("--seed", type=int, default=20150309)
        parser.add_argument("--out", default="")
        return steady(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description="Run one roomsense benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return bench(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
