"""The reach sweep of scripts/reach.py, on a few small children."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _reach():
    path = os.path.join(ROOT, "scripts", "reach.py")
    spec = importlib.util.spec_from_file_location("reach", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cap_name_is_the_constant_the_error_names():
    reach = _reach()
    assert reach.cap_name("error: n = 20001 passes EXACT_MULT_MAX_N = 20000") == "EXACT_MULT_MAX_N"
    assert reach.cap_name(
        "error: 800060001 compositions of n = 40000 into d = 3 parts exceed CLASS_CAP_DEFAULT = 50000000"
    ) == "CLASS_CAP_DEFAULT"
    assert reach.cap_name("error: dense dimension exceeds 16384 (128 per side)") is None


def test_a_row_stops_at_the_first_exit_3_and_names_its_cap():
    row = _reach().reach_row(ROOT, "communication", (0.75, 0.25), (8, 20001, 40000), 60.0, 2048.0)
    assert row["reached_n"] == 8 and row["peak_rss_mb"] > 0.0
    stop = row["stop"]
    assert (stop["n"], stop["reason"], stop["cap"]) == (20001, "exit 3", "EXACT_MULT_MAX_N")
    assert "n = 20001" in stop["message"]


def test_a_child_past_its_time_or_memory_budget_is_killed():
    reach = _reach()
    for seconds, rss, why in ((0.01, 2048.0, "time"), (60.0, 1.0, "memory")):
        row = reach.reach_row(ROOT, "spectrum", (0.75, 0.25), (64, 128), seconds, rss)
        assert row["reached_n"] is None
        assert row["stop"]["n"] == 64 and row["stop"]["reason"] == why
        assert "cap" not in row["stop"]


def test_table_names_what_stopped_each_row():
    rows = {
        "communication d2": {
            "reached_n": 16384, "wall_s": 0.5, "peak_rss_mb": 50.0,
            "stop": {"n": 32768, "reason": "exit 3", "cap": "EXACT_MULT_MAX_N"},
        },
        "spectrum d2": {"reached_n": None, "stop": {"n": 64, "reason": "time"}},
        "spectrum d3": {"reached_n": 50, "wall_s": 0.3, "peak_rss_mb": 30.0,
                        "stop": {"n": None, "reason": "grid end"}},
    }
    lines = _reach().table(rows).splitlines()
    assert lines[0].split() == [
        "communication", "d2", "16384", "(0.5", "s,", "50.0", "MB)",
        "exit", "3", "EXACT_MULT_MAX_N", "at", "n", "=", "32768",
    ]
    assert lines[1].split() == ["spectrum", "d2", "none", "time", "at", "n", "=", "64"]
    assert lines[2].split()[-2:] == ["grid", "end"]
