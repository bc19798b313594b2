"""The pair summary of scripts/bench_pairs.py, on canned runs."""

import glob
import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _bench_pairs():
    path = os.path.join(ROOT, "scripts", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair(parent, change):
    return {
        side: {"run_cal": x, "peak_rss_mb": 50.0, "setup_s": 0.25, "failed": 0, "digest": "00000000"}
        for side, x in (("parent", parent), ("change", change))
    }


def test_summary_of_hand_pairs():
    pairs = [_pair(p, c) for p, c in ((10, 8), (12, 13), (11, 7), (13, 9), (9, 6))]
    summary = _bench_pairs().summarize(pairs)
    assert summary["run_cal"] == {
        "parent_median": 11,
        "parent_quartiles": [10, 12],
        "change_median": 8,
        "change_quartiles": [7, 9],
        "change_lower_pairs": 4,
        "pairs": 5,
    }
    # equal values are not lower
    assert summary["peak_rss_mb"]["change_lower_pairs"] == 0
    assert summary["setup_s"]["parent_quartiles"] == [0.25, 0.25]


def test_summary_interpolates_quartiles_and_handles_one_pair():
    bench_pairs = _bench_pairs()
    pairs = [_pair(p, p - 1.0) for p in (1.0, 2.0, 3.0, 4.0)]
    row = bench_pairs.summarize(pairs)["run_cal"]
    assert row["parent_median"] == 2.5
    assert row["parent_quartiles"] == [1.75, 3.25]
    assert row["change_lower_pairs"] == 4
    one = bench_pairs.summarize(pairs[:1])["run_cal"]
    assert one["change_quartiles"] == [0.0, 0.0] and one["pairs"] == 1


BENCH_FILES = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json")))


@pytest.mark.parametrize("name", BENCH_FILES)
def test_summary_reproduces_the_checked_in_files(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    bench_pairs = _bench_pairs()
    for entry in doc["workloads"].values():
        assert bench_pairs.summarize(entry["pairs"]) == entry["summary"]


def test_host_line_comes_from_the_run_metadata():
    meta = {"nproc": 2, "versions": {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.0"}}
    line = _bench_pairs().host(meta)
    assert line.startswith("2-core ") and "Python 3.11.7, numpy 2.4.6," in line
    assert line.endswith("OPENBLAS_NUM_THREADS=1 (set by perfbench/run.py)")


def test_pair_row_reads_the_run_output():
    meta = {"digest": "5313db40aa", "src_entlab_lines": 4100}
    result = {
        "failed": 0,
        "metrics": {
            "run_cal": {"value": 152.123456, "unit": "cal"},
            "peak_rss_mb": {"value": 63.04, "unit": "MB"},
            "setup_s": {"value": 0.25, "unit": "s"},
        },
    }
    assert _bench_pairs().pair_row(meta, result) == {
        "run_cal": 152.1235,
        "peak_rss_mb": 63.04,
        "setup_s": 0.25,
        "failed": 0,
        "digest": "5313db40",
    }


def test_traced_row_keeps_every_per_layer_metric():
    # the spectrum layers sit outside entlab.locc and must be recorded too
    result = {
        "failed": 0,
        "metrics": {
            "spectrum.tensor_power_spectrum.calls": {"value": 4, "unit": "count"},
            "spectrum.tensor_power_spectrum.useful_ratio": {"value": 1.0, "unit": "ratio"},
            "locc.runner.run_protocol.self_s": {"value": 0.123456, "unit": "s"},
            "trace.overhead_s": {"value": 0.01, "unit": "s"},
        },
    }
    assert _bench_pairs().traced_row(result) == {
        "spectrum.tensor_power_spectrum.calls": 4,
        "spectrum.tensor_power_spectrum.useful_ratio": 1.0,
        "locc.runner.run_protocol.self_s": 0.1235,
        "trace.overhead_s": 0.01,
    }


def test_traced_summary_gives_each_metric_its_median_and_range():
    bench_pairs = _bench_pairs()
    assert bench_pairs.TRACE_RUNS == 3
    rows = [
        {"locc.runner.run_protocol.self_s": 0.0452, "spectrum.tensor_power_spectrum.calls": 4},
        {"locc.runner.run_protocol.self_s": 0.035, "spectrum.tensor_power_spectrum.calls": 4},
        {"locc.runner.run_protocol.self_s": 0.0398, "spectrum.tensor_power_spectrum.calls": 4},
    ]
    assert bench_pairs.traced_summary(rows) == {
        "locc.runner.run_protocol.self_s": {"median": 0.0398, "min": 0.035, "max": 0.0452},
        "spectrum.tensor_power_spectrum.calls": {"median": 4, "min": 4, "max": 4},
    }
    # an even count takes the mean of the middle two, rounded as the rows are
    two = bench_pairs.traced_summary(rows[:2])["locc.runner.run_protocol.self_s"]
    assert two == {"median": 0.0401, "min": 0.035, "max": 0.0452}
