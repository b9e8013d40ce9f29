"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--out perfbench/baseline.json]
        [--compare EARLIER.json]

Run from the repository root. For each workload it runs the benchmark
command once per seed (first-seed, first-seed+1, ...), then twice traced.
For every end-to-end metric it reports the median and the distance between
the first and third quartile as a share of the median, next to the metric's
bound from BENCHMARK.json; it checks that the two traced runs agree on
every count. With --compare it also gives each median's change from the
same workload's median in an earlier summary, which must not be worse by
more than the bound. The summary, with the Python version, CPU count and
git revision, is written to --out. The exit code is 1 when a spread is not
below a third of its bound, a median moved too far, or the traced counts
differ.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

import harness


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return result


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out", default=os.path.join("perfbench", "baseline.json"))
    p.add_argument("--compare", help="an earlier summary written by this script")
    args = p.parse_args(argv)
    earlier = {}
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["workloads"]

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    doc = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "date": datetime.date.today().isoformat(),
        "run_seconds": seconds,
        "runs_per_workload": args.runs,
        "workloads": {},
    }
    steady = True
    for w in spec["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        values = {m: [] for m in bounds}
        for seed in seeds:
            result = run_once(spec["command"], name, seed, seconds, 0)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        end_to_end = {}
        print(f"{name}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}")
        for m, vals in values.items():
            spread = harness.quartile_spread(vals)
            q1, median, q3 = statistics.quantiles(vals, n=4)
            ok = spread < bounds[m] / 3
            entry = end_to_end[m] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bounds[m],
                "values": vals,
            }
            line = f"  {m:<16} median {median:<12.6g} spread {spread:.4f}  bound {bounds[m]}  {'ok' if ok else 'WIDE'}"
            if m in earlier.get(name, {}).get("end_to_end", {}):
                before = earlier[name]["end_to_end"][m]["median"]
                change = entry["change_from_earlier"] = (median - before) / before
                moved_ok = (change if lower_better[m] else -change) <= bounds[m]
                ok &= moved_ok
                line += f"  change from earlier median {change:+.4f} {'ok' if moved_ok else 'WORSE'}"
            steady &= ok
            print(line)
        traced = [run_once(spec["command"], name, seeds[0], seconds, 1)["metrics"] for _ in range(2)]
        counts = [m for m, u in units.items() if u == "count"]
        repeat = all(traced[0][m]["value"] == traced[1][m]["value"] for m in counts)
        steady &= repeat
        print(f"  traced twice: counts {'identical' if repeat else 'DIFFER'}")
        doc["workloads"][name] = {
            "why": w["why"],
            "seeds": seeds,
            "end_to_end": end_to_end,
            "per_layer": {m: traced[0][m]["value"] for m in units},
            "trace_counts_repeat": repeat,
        }
    with open(args.out, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
