"""The benchmark's own arithmetic: self time, percentiles, scoring, timeouts,
host-speed scaling.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import json
import os
import signal
import time

import pytest

import harness
import run
import speed
import tracing

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(start, end, parent=-1):
    return [0, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, 100),  # root
        span(10, 30, 0),  # child A
        span(15, 20, 1),  # grandchild inside A: not subtracted from the root again
        span(30, 50, 0),  # child B, adjacent to A
        span(60, 70, 0),  # child C, after a gap
    ]
    assert tracing.self_times(spans) == [100 - 20 - 20 - 10, 20 - 5, 5, 20, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, 100), span(10, 40, 0), span(30, 60, 0), span(90, 120, 0)]
    # union of [10,40] and [30,60] is 50 long; [90,120] is clipped to [90,100]
    assert tracing.self_times(spans)[0] == 100 - 50 - 10


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(list(range(19))) is None
    assert harness.tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert harness.tail_percentile(list(range(1, 41))) == (75.0, 30)
    assert harness.tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert harness.tail_percentile(list(range(1, 201))) == (95.0, 190)
    assert harness.tail_percentile(list(range(1, 1001))) == (99.0, 990)


def test_quartile_spread_is_a_share_of_the_median():
    assert harness.quartile_spread([10.0] * 5) == 0.0
    assert harness.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


KNOWN = {
    "A": {"x": "pass", "y": "pass"},
    "B": {"x": "fail", "y": harness.EITHER},
}


def test_matching_verdicts_score_clean():
    s = harness.score(KNOWN, {"A": {"x": "pass", "y": "pass"}, "B": {"x": "fail", "y": "pass"}})
    assert (s.attempted, s.failed, s.claims, s.decided) == (2, 0, 4, 4)


def test_wrong_verdict_counts_the_case_as_failed():
    s = harness.score(KNOWN, {"A": {"x": "pass", "y": "fail"}, "B": {"x": "fail", "y": "fail"}})
    assert (s.attempted, s.failed) == (2, 1)
    assert s.problems[0].startswith("A:")


def test_dropped_extra_and_undecided_claims_fail():
    dropped = harness.score(KNOWN, {"A": {"x": "pass"}, "B": {"x": "fail", "y": "pass"}})
    extra = harness.score(KNOWN, {"A": {"x": "pass", "y": "pass", "z": "pass"}, "B": {"x": "fail", "y": "pass"}})
    undecided = harness.score(KNOWN, {"A": {"x": "pass", "y": "pass"}, "B": {"x": "fail", "y": "inconclusive"}})
    assert dropped.failed == extra.failed == undecided.failed == 1
    assert undecided.decided == 3


def test_missing_raising_and_unknown_cases_fail():
    s = harness.score(KNOWN, {"A": {"x": "pass", "y": "pass"}, "C": {}}, errors={"B": "ValueError: x"})
    assert (s.attempted, s.failed) == (3, 2)


def test_no_result_fails_every_case():
    s = harness.score(KNOWN, None)
    assert (s.attempted, s.failed, s.decided) == (2, 2, 0)


def test_timed_out_child_is_killed_and_counted_failed(tmp_path, monkeypatch):
    fake = tmp_path / "sleeper.py"
    fake.write_text("import time\ntime.sleep(30)\n")
    monkeypatch.setattr(run, "CHILD", str(fake))
    monkeypatch.setattr(run, "RUN_DEADLINE_S", 0.5)
    r = run.Run(str(tmp_path), "intrinsic", KNOWN)
    child, result = r.workload_child(0)
    assert child.timed_out and result is None
    assert child.wall_s < 5
    assert (r.attempted, r.failed) == (2, 2)


def test_flipped_known_answer_makes_the_command_fail(tmp_path, monkeypatch, capsys):
    with open(os.path.join(run.BENCH_DIR, "known_answers.json")) as fh:
        known = json.load(fh)
    known["intrinsic"]["P8/Z4"]["smoothability"] = "fail"
    flipped = tmp_path / "known.json"
    flipped.write_text(json.dumps(known))
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "SETUP_CHILDREN", 1)
    code = run.main(["--workload", "intrinsic", "--seed", "1", "--seconds", "0", "--known", str(flipped)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == 2  # one case, in each of the two call orders


def test_without_sources_the_command_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "catalogue", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""



def test_speed_factor_is_the_mean_host_speed_over_the_reference():
    ref = speed.REFERENCE_S
    assert speed.speed_factor([ref, ref]) == pytest.approx(1.0)
    # half the time at full speed, half at half speed: 0.75 of the reference
    assert speed.speed_factor([ref, 2 * ref]) == pytest.approx(0.75)


def test_probe_samples_while_busy_and_restores_the_alarm():
    probe = speed.Probe()
    probe.start()
    begin = time.perf_counter()
    while time.perf_counter() < begin + (speed.WINDOW_SAMPLES + 1.5) * speed.INTERVAL_S:
        sum(range(1000))
    end = time.perf_counter()
    got = probe.stop({"long": (begin, end), "short": (begin, begin + speed.INTERVAL_S)})
    assert got["samples"] >= speed.WINDOW_SAMPLES + 2  # start, the alarms, stop
    assert got["factor"] > 0
    # too few samples in a window leave that case the whole child's factor
    assert set(got["case_factor"]) == {"long"}
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
