"""Child-process runner, known-answer scoring and summary statistics,
kept apart from run.py so the tests can exercise them with fake children
and fake verdicts.
"""

from __future__ import annotations

import math
import os
import select
import signal
import statistics
import time
from dataclasses import dataclass

# a known-answer verdict that accepts either decided outcome (used for the
# knock-on claims of the negative controls, which are not asserted by hand)
EITHER = "pass-or-fail"

_DECIDED = ("pass", "fail")


@dataclass(frozen=True)
class ChildRun:
    """One finished child process."""

    spawned_at: float  # time.monotonic() just before the spawn
    wall_s: float  # spawn to exit
    rss_kb: int  # ru_maxrss from wait4
    status: int  # exit code, or -signal when killed
    timed_out: bool
    stdout: str
    stderr: str


def run_child(argv: list[str], env: dict, timeout: float, out_dir: str, tag: str) -> ChildRun:
    """Spawn argv, wait at most `timeout` seconds, and reap it with its rusage.

    stdout and stderr go to files under out_dir, removed once read; the
    child is killed with SIGKILL once the timeout passes, and always
    reaped before returning.
    """
    out_path = os.path.join(out_dir, f"{tag}.out")
    err_path = os.path.join(out_dir, f"{tag}.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    start = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        end = time.monotonic()
        timed_out = not ready
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, wstatus, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return ChildRun(
        spawned_at=start,
        wall_s=end - start,
        rss_kb=usage.ru_maxrss,
        status=os.waitstatus_to_exitcode(wstatus),
        timed_out=timed_out,
        stdout=stdout,
        stderr=stderr,
    )


@dataclass(frozen=True)
class Score:
    attempted: int  # cases
    failed: int  # cases that raised, timed out, or disagreed with the known answers
    claims: int
    decided: int  # claims with verdict pass or fail
    problems: tuple[str, ...]


def _claims_agree(want: dict, got: dict) -> bool:
    if set(want) != set(got):
        return False
    for claim, verdict in want.items():
        if verdict == EITHER:
            if got[claim] not in _DECIDED:
                return False
        elif got[claim] != verdict:
            return False
    return True


def score(expected: dict, got: dict | None, errors: dict | None = None) -> Score:
    """Compare a child's verdicts with the known answers, case by case.

    expected and got map case -> {claim_id: verdict}. got is None when the
    child produced no result (it crashed or timed out): every expected case
    then counts as attempted and failed. A case the child reports but the
    known answers lack also counts as attempted and failed.
    """
    errors = errors or {}
    if got is None:
        claims = sum(len(v) for v in expected.values())
        return Score(len(expected), len(expected), claims, 0, ("no result from child",))
    problems = []
    cases = set(expected) | set(got) | set(errors)
    for case in sorted(cases):
        if case in errors:
            problems.append(f"{case}: raised {errors[case]}")
        elif case not in got:
            problems.append(f"{case}: missing")
        elif case not in expected:
            problems.append(f"{case}: not in the known answers")
        elif not _claims_agree(expected[case], got[case]):
            problems.append(f"{case}: expected {expected[case]}, got {got[case]}")
    claims = sum(len(v) for v in got.values())
    decided = sum(1 for v in got.values() for verdict in v.values() if verdict in _DECIDED)
    return Score(len(cases), len(problems), claims, decided, tuple(problems))


# -- statistics -------------------------------------------------------------

_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values, min_beyond: int = 10):
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least `min_beyond`
    samples above it, as (p, value) by nearest rank; None when even the
    median has fewer than `min_beyond` samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for p in _LADDER:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            rank = max(1, math.ceil(p / 100.0 * n))
            return p, ordered[rank - 1]
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
