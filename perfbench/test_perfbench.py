"""Tests of the benchmark itself, at reduced sizes (about a minute).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import passes  # noqa: E402
import workloads  # noqa: E402
from benford_lab import cli  # noqa: E402


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in bench.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reduced_timed_run_is_correct(name, capsys):
    wl = workloads.build(name, 3, reduced=True)
    metrics, runner = bench.timed_run(wl, 0.1, [1.0])
    assert runner.failures == []
    assert runner.attempted == passes.MIN_PASSES * len(wl.commands)
    assert set(metrics) == {m[0] for m in bench.END_TO_END}
    assert all(v > 0 for v in metrics.values())


def test_reduced_traced_run_reports_every_layer(capsys):
    groups = [workloads.build(n, 5, reduced=True) for n in workloads.WORKLOADS]
    metrics, runner = bench.traced_run(groups, 5, [1.0])
    assert runner.failures == []
    assert list(metrics) == [m[0] for m in bench.PER_LAYER]


def test_corrupted_histogram_counts_as_failed():
    wl = workloads.build("census", 0, reduced=True)
    oracle = checks.oracle_for(wl)
    cmd = wl.commands[0]

    def corrupting_main(argv):
        rc = cli.main(argv)
        doc = json.loads(sys.stdout.getvalue())
        sys.stdout.seek(0)
        sys.stdout.truncate()
        obs = doc["observed"]
        obs[0], obs[1] = obs[1], obs[0]   # totals still agree
        print(json.dumps(doc))
        return rc

    good = bench.Runner(cli.main)
    good.run(wl, cmd, oracle)
    assert good.failed == 0
    bad = bench.Runner(corrupting_main)
    bad.run(wl, cmd, oracle)
    assert bad.failed == 1 and "histogram" in bad.failures[0]


def test_replay_matches_the_command():
    x0 = workloads.trajectory(1, reduced=True).inputs["x0"]["small"]
    from benford_lab import collatz

    for mode in workloads.TRAJECTORY_MODES:
        rep = checks.Replay(x0, mode, timed=True)
        res = collatz.iterate_digit_experiment(x0, mode, base=checks.BASE)
        assert rep.n_recorded == res.n_recorded
        assert rep.counts == res.histogram.counts.tolist()
    remove2 = checks.Replay(x0, "remove_all_twos")
    assert checks.single_step_count(x0, remove2) == \
        checks.Replay(x0, "single_step").n_recorded


def test_trajectory_oracle_audits_digits_at_any_seed(monkeypatch):
    """A digit error away from the d*10^k boundaries, where the oracle and
    the command share ``leading_digit``, is caught by the exact audit."""
    wl = workloads.trajectory(3, reduced=True)
    checks.oracle_for(wl)
    real = checks.leading_digit

    def wrong_off_boundary(x, base):
        d = real(x, base)
        return d if x % 1000 in (0, 999) else d % 9 + 1

    monkeypatch.setattr(checks, "leading_digit", wrong_off_boundary)
    with pytest.raises(checks.CheckError, match="exact digit"):
        checks.oracle_for(wl)
