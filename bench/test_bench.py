"""Self-tests of the chain benchmark.

    python3 -m pytest -q bench/test_bench.py
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import aesa_chain  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("n, pct", [(1000, 99), (100, 90), (37, 72), (20, 50)])
def test_tail_leaves_ten_units_beyond(n, pct):
    values = [float(v) for v in range(n, 0, -1)]
    p, value = stats.tail(values)
    assert p == pct
    assert sum(v > value for v in values) >= stats.TAIL_BEYOND
    # one percentile higher would leave fewer than ten beyond
    assert p == 99 or n - math.ceil((p + 1) * n / 100) < stats.TAIL_BEYOND


@pytest.mark.parametrize("n", [1, 10, 11, 19])
def test_tail_not_reported_for_short_runs(n):
    assert stats.tail([1.0] * n) is None


def _span(i, start, end, parent=None):
    return spans.Span(i, f"s{i}", start, end, parent, 0)


def test_self_time_nested_children():
    # 0 [0, 10] holds 1 [1, 4] which holds 2 [2, 3]; 3 [6, 7]
    st = spans.self_times([_span(0, 0, 10), _span(1, 1, 4, 0),
                           _span(2, 2, 3, 1), _span(3, 6, 7, 0)])
    assert st == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_overlapping_children():
    # children [1, 5] and [3, 8] overlap: covered is their union [1, 8];
    # a child sticking out of the parent counts only inside it
    st = spans.self_times([_span(0, 0, 10), _span(1, 1, 5, 0), _span(2, 3, 8, 0),
                           _span(3, 9, 12, 0)])
    assert st[0] == pytest.approx(10 - 7 - 1)


def test_verdict_rule():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert stats.verdict(parent, faster, "lower", 0.1) == (1.0, "improved")
    assert stats.verdict(parent, slower, "lower", 0.1)[1] == "worse"
    assert stats.verdict(parent, parent, "lower", 0.1) == (0.0, "no worse")
    noisy = [1.0, 1.5, 0.7, 1.4, 0.8, 1.3, 0.6, 1.2, 0.9, 1.1]
    assert stats.verdict(noisy, noisy[::-1], "lower", 0.1)[1] == "unresolved"


@pytest.fixture(scope="module")
def t2_report(tmp_path_factory):
    work = tmp_path_factory.mktemp("t2")
    scenario = wl.prepare_scenario(ROOT, wl.WORKLOADS["jammer_t2"], work)
    out = work / "report"
    cfg = wl.run_unit(aesa_chain, scenario, 11, out)
    return cfg, out


def test_t2_check_passes_and_rejects_tampered_table(t2_report):
    cfg, out = t2_report
    assert wl.check_t2(cfg, out) >= 25.0
    table = out / "rejection.csv"
    good = table.read_text()
    lines = good.splitlines()
    steer, _rej, ref = lines[1].split(",")
    table.write_text("\n".join([lines[0], f"{steer},12.000000,{ref}"] + lines[2:]) + "\n")
    try:
        with pytest.raises(wl.CheckFailed):
            wl.check_t2(cfg, out)
    finally:
        table.write_text(good)


def test_t1_check_rejects_tampered_summary(tmp_path):
    work = tmp_path / "w"
    scenario = wl.prepare_scenario(ROOT, wl.WORKLOADS["swath_t1"], work)
    cfg = aesa_chain.load_config(scenario)
    out = tmp_path / "report"
    out.mkdir()
    (out / "detections.csv").write_text(
        "range_bin,doppler_bin,range_m,radial_velocity_mps,peak_power_db,threshold_db\n"
        "1166,72,4999.178,3.750000,40.0,20.0\n")
    summary = ("aesa-chain report\nazimuth_estimate_deg = 5.057741\n"
               "angular_error_deg = 0.057741\ntrack_name = Stelio Montomoli\n"
               "within_target = true\n")
    (out / "summary.txt").write_text(summary)
    assert wl.check_t1(cfg, out) == pytest.approx(0.057741)
    (out / "summary.txt").write_text(summary.replace("= 5.057741", "= 5.657741"))
    with pytest.raises(wl.CheckFailed):
        wl.check_t1(cfg, out)


def test_tracer_wraps_every_binding_and_undoes(t2_report):
    cfg, _ = t2_report
    original = aesa_chain.experiments.cfar_detect
    tracer = spans.Tracer()
    tracer.unit = 0
    uninstall = spans.install(tracer, aesa_chain)
    try:
        assert aesa_chain.experiments.cfar_detect is not original
        assert aesa_chain.cfar_detect is aesa_chain.detect.cfar_detect
        aesa_chain.run_experiment(cfg)
    finally:
        uninstall()
    assert aesa_chain.experiments.cfar_detect is original
    assert aesa_chain.detect.cfar_detect is original
    per_unit = tracer.per_unit([0])
    assert per_unit["detect.cfar_detect.calls"] == 5
    assert per_unit["beamform.mvdr_weights.calls"] == 101
    assert per_unit["rdproc.range_compress.fft_calls"] == 3
    run_span = next(s for s in tracer.spans if s.name == "experiments.run_experiment")
    assert run_span.parent is None
    assert all(s.parent is not None for s in tracer.spans if s is not run_span)
