"""crystmono benchmark: time to a checked verdict, one fresh process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
        [--known PATH]

Run from the root of a checkout. Each measured execution is a fresh,
single-threaded child interpreter (perfbench/child.py) with the checkout's
``src`` on PYTHONPATH, because the package's module caches would make
in-process repeats warm and users pay the cold start on every command.
Children run one after another (a closed loop with one client).

Workloads (see BENCHMARK.json for why each exists):
  catalogue  `crystmono verify all`, the user's command, in its fixed order
  dilation   the dilation check of the seven diagrams other than D4_3, in
             both characters, in an order the seed picks
  intrinsic  symmetry table, projective families, intrinsic diagram checks,
             the seven reference groups and three negative controls, in an
             order the seed picks

Every child's verdicts are compared, by case and claim_id, with the
hand-written perfbench/known_answers.json; on dilation and intrinsic each
run also executes at least two call orders and requires identical verdicts.

--trace 0 measures for --seconds and reports the end-to-end metrics:
  run_s           median over workload children of wall time, spawn to exit
  setup_s         median over setup-only children, spread through the run,
                  of spawn to the end of dataset loading
  slowest_case_s  over cases, the largest of each case's median wall time
  peak_rss_mb     median over children of ru_maxrss
Every time is the child's wall time scaled by the host speed the child
sampled while it ran (perfbench/speed.py), a case's time by the speed
sampled during that case, so it reads in seconds on a host that runs the
speed kernel in speed.REFERENCE_S; the unscaled wall times and the factors
are printed beside them.
--trace 1 runs plain, traced and microbenchmark children in turn and
reports the per-layer metrics; it ignores --seconds.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. The exit code is 0 when every verdict agrees, 1 when
one does not, 2 when the checkout holds no crystmono sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import harness

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
RUN_DEADLINE_S = 165  # a run must end within 180 s
SETUP_CHILDREN = 3  # setup-only children before each workload child and after the last
# a run with few workload children (catalogue) tops up its setup children
# to this many, so the setup_s median rests on enough samples
MIN_SETUP_SAMPLES = 15
# dilation and intrinsic run at least two call orders; a catalogue child
# takes 20-40 s, so a run may hold only one
MIN_CHILDREN = {"catalogue": 1, "dilation": 2, "intrinsic": 2}
# a traced run has TRACE_ROUNDS rounds, each of a microbenchmark child and,
# in the first TRACED_PAIRS rounds, a plain and a traced workload child (a
# catalogue pair takes about a minute)
TRACE_ROUNDS = 3
TRACED_PAIRS = {"catalogue": 1, "dilation": 2, "intrinsic": 3}


class Run:
    """Children of one benchmark run and their scores."""

    def __init__(self, root: str, workload: str, known: dict):
        self.workload = workload
        self.known = known
        self.tmp = os.path.join(root, ".perfbench_tmp")
        os.makedirs(self.tmp, exist_ok=True)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.setup_s: list[float] = []
        self.children: list[tuple[harness.ChildRun, dict | None]] = []
        self.attempted = 0
        self.failed = 0
        self.claims = 0
        self.decided = 0
        self.problems: list[str] = []
        self._count = 0

    def spawn(self, mode: str, *extra: str) -> tuple[harness.ChildRun, dict | None]:
        self._count += 1
        argv = [sys.executable, CHILD, mode, "--tmp", self.tmp, *extra]
        child = harness.run_child(
            argv, self.env, self.deadline - time.monotonic(), self.tmp, f"{os.getpid()}-{self._count}"
        )
        result = None
        if child.status == 0 and not child.timed_out:
            try:
                result = json.loads(child.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = None
        if result is not None and "setup_end" in result:
            self.setup_s.append((result["setup_end"] - child.spawned_at) * factor(result))
        return child, result

    def workload_child(self, order_seed: int, traced: bool = False) -> tuple[harness.ChildRun, dict | None]:
        extra = ["--order-seed", str(order_seed)] + (["--trace"] if traced else [])
        child, result = self.spawn(self.workload, *extra)
        got = None if result is None else result["cases"]
        errors = None if result is None else result["errors"]
        s = harness.score(self.known, got, errors)
        if child.timed_out:
            self.problems.append(f"child timed out after {child.wall_s:.1f} s")
        elif result is None:
            self.problems.append(f"child exited with {child.status}: {child.stderr.strip()[-500:]}")
        self.attempted += s.attempted
        self.failed += s.failed
        self.claims += s.claims
        self.decided += s.decided
        self.problems.extend(s.problems)
        self.children.append((child, result))
        return child, result

    def check_order_independence(self) -> None:
        """Every call order must give the verdicts the first order gave."""
        reports = [r for _, r in self.children if r is not None]
        for r in reports[1:]:
            for case, verdicts in r["cases"].items():
                if reports[0]["cases"].get(case) != verdicts:
                    self.failed += 1
                    self.problems.append(f"{case}: verdicts depend on call order")

    def walls(self) -> list[float]:
        """Scaled wall times of the workload children that reported a result."""
        return [c.wall_s * factor(r) for c, r in self.children if r is not None]


def factor(result: dict) -> float:
    """The child's host speed relative to speed.REFERENCE_S (see speed.py)."""
    return result["speed"]["factor"]


def order_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def setup_children(run: Run) -> None:
    for _ in range(SETUP_CHILDREN):
        run.spawn("setup")


def measure(run: Run, seed: int, seconds: float) -> dict:
    """Run workload children for about `seconds`, at least MIN_CHILDREN of them.

    run_s is the median child of the run, and slowest_case_s the largest
    of the cases' median times, both scaled by each child's host speed;
    the tail is printed beside them. setup_s is the median of the
    setup-only children, which are spread over the whole run.
    """
    start = time.monotonic()
    k = 0
    while True:
        setup_children(run)
        _, result = run.workload_child(order_seed(seed, k))
        k += 1
        if result is None:
            break
        typical = statistics.median(c.wall_s for c, _ in run.children)
        now = time.monotonic()
        if k >= MIN_CHILDREN[run.workload] and now - start + typical > seconds:
            break
        if now + typical > run.deadline:
            break
    setup_children(run)
    for _ in range(MIN_SETUP_SAMPLES - len(run.setup_s)):
        run.spawn("setup")
    run.check_order_independence()
    case_s: dict[str, list[float]] = {}
    for _, r in run.children:
        for case, wall in (r or {}).get("case_s", {}).items():
            case_s.setdefault(case, []).append(wall * r["speed"]["case_factor"].get(case, factor(r)))
    rss = [c.rss_kb / 1024 for c, _ in run.children]
    return {
        "run_s": statistics.median(run.walls()) if run.walls() else None,
        "setup_s": statistics.median(run.setup_s) if run.setup_s else None,
        "slowest_case_s": max(statistics.median(walls) for walls in case_s.values()) if case_s else None,
        "peak_rss_mb": statistics.median(rss),
    }


def trace(run: Run, seed: int, units: dict) -> dict:
    """Per-layer metrics from traced children, beside plain and micro ones.

    Every traced child runs the same call order, so their counts agree;
    times come from the fastest one, scaled by its host speed. Micro
    children scale each sample themselves. trace.overhead_ratio is the
    fastest traced child over the fastest plain child, which runs another
    call order. Each microbenchmark is the median over its children.
    """
    traced, micro, plain = [], [], []
    for k in range(TRACE_ROUNDS):
        if k < TRACED_PAIRS[run.workload]:
            child, result = run.workload_child(order_seed(seed, 1))
            if result is not None:
                plain.append(child.wall_s * factor(result))
            child, result = run.workload_child(order_seed(seed, 0), traced=True)
            if result is not None:
                f = factor(result)
                layers = {n: v * f if units.get(n) == "s" else v for n, v in result["layers"].items()}
                traced.append((child.wall_s * f, layers))
        _, result = run.spawn("micro")
        if result is not None:
            micro.append(result["layers"])
    run.check_order_independence()
    if not traced or not micro or not plain:
        return {}
    fastest_wall, layers = min(traced, key=lambda t: t[0])
    layers.update({name: statistics.median(m[name] for m in micro) for name in micro[0]})
    layers["trace.overhead_ratio"] = fastest_wall / min(plain)
    return layers


def report(run: Run, metrics: dict, units: dict) -> None:
    walls = run.walls()
    tail = harness.tail_percentile(walls)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "no percentile has ten samples beyond it"
    print(f"workload {run.workload}: {len(walls)} workload children, {len(run.setup_s)} setup samples")
    if walls:
        print(f"  scaled child wall times: n={len(walls)}, median {statistics.median(walls):.4f} s, {tail_text}")
        print(f"    {' '.join(f'{w:.4f}' for w in walls)}")
    done = [(c, r) for c, r in run.children if r is not None]
    print(f"  unscaled wall times: {' '.join(f'{c.wall_s:.4f}' for c, _ in done)}")
    print(f"  host speed factors: {' '.join(f'{factor(r):.4f}' for _, r in done)}")
    if run.setup_s:
        print(f"  setup times: n={len(run.setup_s)}, median {statistics.median(run.setup_s):.4f} s")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:.6g} {units[name]}")
    share = run.failed / run.attempted if run.attempted else 1.0
    decided = run.decided / run.claims if run.claims else 0.0
    print(f"  failed_share {share:.4g} ({run.failed}/{run.attempted} cases)")
    print(f"  decided_share {decided:.4g} ({run.decided}/{run.claims} claims)")
    for p in run.problems[:20]:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="crystmono benchmark")
    p.add_argument("--workload", required=True, choices=sorted(MIN_CHILDREN))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--known", default=os.path.join(BENCH_DIR, "known_answers.json"))
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "crystmono", "__init__.py")):
        print("error: run from a checkout root holding src/crystmono", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(args.known) as fh:
        known = json.load(fh)[args.workload]

    run = Run(root, args.workload, known)
    # warm the bytecode cache and check the package imports; not measured
    warm, result = run.spawn("setup")
    run.setup_s.clear()
    if result is None:
        print(f"error: setup child failed ({warm.status}): {warm.stderr.strip()[-2000:]}", file=sys.stderr)
        return 2

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    got = trace(run, args.seed, units) if args.trace else measure(run, args.seed, args.seconds)
    missing = {name for name in units if got.get(name) is None}
    if missing:
        print(f"error: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {name: got[name] for name in units}
    report(run, metrics, units)
    correct = run.failed == 0 and run.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
