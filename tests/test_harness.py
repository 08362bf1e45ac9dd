import concurrent.futures.thread
import filecmp
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.fft import next_fast_len

import aesa_chain
from aesa_chain import (ConfigError, RadarParams, apply_beamformer, beamform,
                        conventional_weights, experiments, isar, load_config, range_compress,
                        rd_map, rdproc, read_grid, resolve_config, run_experiment,
                        simulate_dwell, simulate_isar_sequence, write_report)
from aesa_chain.cli import _steer_list, main

from helpers import traced_peak
from test_config import MALFORMED, T4_SHORT, amplitude_bound

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_t1(tmp_path, **extra):
    tree = {
        "mode": "t1",
        "seed": 2,
        "radar": {"n_pulses": 64, "r_max_m": 3000.0},
        "targets": [{"range_m": 1740.0, "radial_velocity_mps": 4.6875,
                     "azimuth_deg": 5.0, "snr_db": 25.0}],
        "steering_deg": [5.0],
    }
    tree.update(extra)
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(tree))
    return path


def small_t2(tmp_path):
    tree = {
        "mode": "t2",
        "seed": 4,
        "radar": {"n_pulses": 64, "r_max_m": 3000.0},
        "jammer": {"active": True, "azimuth_deg": 21.4, "jnr_db": 40.0},
        "steering_deg": [-10.0, 0.0, 10.0],
    }
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(tree))
    return path


def read_summary(out_dir):
    lines = (Path(out_dir) / "summary.txt").read_text().splitlines()
    pairs = {}
    for line in lines[1:]:
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def test_steer_list_parsing():
    assert _steer_list("-20,-10") == [-20.0, -10.0]
    assert _steer_list("5") == [5.0]
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        _steer_list("a,b")
    with pytest.raises(argparse.ArgumentTypeError):
        _steer_list("")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "aesa-chain" in capsys.readouterr().out


def test_run_writes_report(tmp_path, capsys):
    scenario = small_t1(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out / "summary.txt")
    summary = read_summary(out)
    assert summary["mode"] == "t1"
    assert summary["seed"] == "2"
    assert summary["config_sha256"] == load_config(scenario).hash()
    # the target plus its strongest compression sidelobes
    assert int(summary["n_detections"]) >= 1
    assert float(summary["azimuth_estimate_deg"]) == pytest.approx(5.0, abs=0.5)
    assert (out / "detections.csv").exists()
    assert (out / "spectrum.csv").exists()
    # metric keys are emitted in sorted order
    keys = [line.split(" = ")[0]
            for line in (out / "summary.txt").read_text().splitlines()[6:-1]]
    assert keys == sorted(keys)


def test_cli_overrides(tmp_path):
    scenario = small_t1(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scenario), "--out", str(out),
               "--seed", "9", "--adaptive", "off", "--steer=2.5"])
    assert rc == 0
    summary = read_summary(out)
    assert summary["seed"] == "9"
    assert summary["adaptive"] == "false"
    assert summary["steer_azimuth_deg"] == "2.500000"
    # mode override flows into validation: t3 needs a jammer
    assert main(["run", "--scenario", str(scenario), "--out", str(out),
                 "--mode", "t3"]) == 2


GOOD_TRACK = "2025-07-08T09:12:00Z,Stelio Montomoli,1740.0,5.0,36.0,93.0,16.0"

#: malformed truth-track rows (on line 3) and the columns each message must name
MALFORMED_TRACKS = (
    ("2025-07-09T08:40:00Z,Mega Express,abc,0.0,35.3,176.0,24.0", "column range_m"),
    ("2025-07-09T08:40:00Z,Mega Express,7680.0,0.0", "column heading_deg"),
    ("2025-07-09T08:40:00Z,Mega Express,7680.0,0.0,35.3,nan,24.0", "column length_m"),
    ("2025-07-09T08:40:00Z,Mega Express,7680.0,0.0,35.3,20.0,24.0",
     "columns length_m and beam_m"),
)


def test_exit_codes(tmp_path, caplog, monkeypatch):
    missing = tmp_path / "absent.yaml"
    assert main(["run", "--scenario", str(missing), "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"mode": "t9"}))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    # a scenario file that is not UTF-8 text
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes(b"# caf\xe9\nmode: t2\n")
    caplog.clear()
    assert main(["run", "--scenario", str(latin1), "--out", str(tmp_path / "o")]) == 2
    assert str(latin1) in caplog.text
    # no --out and no out_dir in the scenario
    assert main(["run", "--scenario", str(small_t1(tmp_path))]) == 2
    # a value that would only fail mid-run is a configuration error
    zero_train = small_t1(tmp_path, processing={"cfar_train": 0})
    assert main(["run", "--scenario", str(zero_train), "--out", str(tmp_path / "o")]) == 2
    assert "processing.cfar_train" in caplog.text
    for i, (tree, path) in enumerate(MALFORMED):
        scenario = tmp_path / f"malformed{i}.yaml"
        scenario.write_text(yaml.safe_dump(tree))
        caplog.clear()
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
        assert re.search(path, caplog.text), path
    # t4 with too few slow-time samples for autofocus, with a body that leaves
    # the receive window mid-sequence, and with a noise power that overflows
    short = yaml.safe_load((CONFIG_DIR / "t4.yaml").read_text())
    short["radar"]["n_pulses"], short["isar"]["n_dwells"] = 32, 1
    fast = yaml.safe_load((CONFIG_DIR / "t4.yaml").read_text())
    fast["isar"]["body"]["translational_velocity_mps"] = 150.0
    loud = {"mode": "t4", "noise_power": 1.0e300, "isar": {"n_dwells": 4}}
    for tree, message in ((short, "isar.n_dwells"), (fast, "receive window"),
                          (loud, "noise_power is too large")):
        scenario = tmp_path / "t4.yaml"
        scenario.write_text(yaml.safe_dump(tree))
        caplog.clear()
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
        assert message in caplog.text
    # a malformed truth-track file is reported before any dwell is simulated
    monkeypatch.setattr(experiments, "_echo_dwell", None)
    tracks = tmp_path / "tracks.csv"
    for row, column in MALFORMED_TRACKS:
        tracks.write_text("timestamp,name,range_m,azimuth_deg,heading_deg,length_m,beam_m\n"
                          f"{GOOD_TRACK}\n{row}\n")
        caplog.clear()
        scenario = small_t1(tmp_path, truth_tracks="tracks.csv")
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
        assert f"track file {tracks}, line 3, {column}" in caplog.text, row
    # and so is a truth-track file that is not UTF-8 text
    tracks.write_bytes(b"timestamp,name,range_m,azimuth_deg,heading_deg,length_m,beam_m\n"
                       + GOOD_TRACK.encode().replace(b"Stelio", b"St\xe9lio") + b"\n")
    caplog.clear()
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    assert f"track file {tracks} is not UTF-8" in caplog.text
    # an output path that runs into a regular file or a dangling link is
    # refused before the run
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "absent" / "dir")
    for out, blocker in ((tracks, tracks), (tracks / "sub", tracks), (dangling, dangling)):
        caplog.clear()
        assert main(["run", "--scenario", str(CONFIG_DIR / "t2.yaml"), "--out", str(out)]) == 2
        assert f"{blocker} is not a directory" in caplog.text


def test_t1_without_music_peak_reports_incomplete(tmp_path):
    # a 20 deg step leaves one interior point of the MUSIC grid (-22.5, -2.5
    # and 17.5 deg), which here is no local maximum: the run writes
    # music_complete = false in place of the bearing and the track metrics
    scenario = tmp_path / "scene.yaml"
    scenario.write_text(yaml.safe_dump({
        "mode": "t1", "seed": 1, "steering_deg": [20.0],
        "radar": {"r_min_m": 4000.0, "r_max_m": 6000.0},
        "targets": [{"range_m": 5000.0, "azimuth_deg": 20.0, "snr_db": 25.0}],
        "clutter": {"enabled": True, "n_range_bins": 300},
        "processing": {"music_grid_step_deg": 20.0, "cfar_guard": 0},
        "truth_tracks": str(CONFIG_DIR / "tracks.csv"),
    }))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 0
    summary = read_summary(tmp_path / "o")
    assert summary["music_complete"] == "false"
    assert int(summary["n_detections"]) >= 1 and "detection_range_m" in summary
    assert not {"azimuth_estimate_deg", "track_name", "angular_error_deg"} & set(summary)


def test_numerical_failure_exit_code(tmp_path):
    scenario = tmp_path / "hot.yaml"
    scenario.write_text(yaml.safe_dump({
        "mode": "t2",
        "radar": {"n_pulses": 64, "r_max_m": 3000.0},
        "jammer": {"active": True, "jnr_db": 250.0},
    }))
    assert main(["run", "--scenario", str(scenario),
                 "--out", str(tmp_path / "o")]) == 3
    # 9 cells around the detection, fewer than twice the 6 channels
    few_cells = small_t1(tmp_path, processing={"music_window_bins": [1, 1]})
    assert main(["run", "--scenario", str(few_cells), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("tree", [
    {**T4_SHORT, "isar": {"n_dwells": 4, "autofocus_order": order}} for order in (2, 3, 4)
] + [{"mode": "t3", "seed": 3, "radar": {"r_min_m": 1500.0, "r_max_m": 3000.0},
      "targets": [{"range_m": 1740.0, "azimuth_deg": -5.0, "snr_db": 15.0}],
      "jammer": {"active": True}}], ids=["t4-order2", "t4-order3", "t4-order4", "t3"])
def test_chain_runs_at_the_power_bound(tree):
    # a noise power at the bound: the chain's largest powers and their sums stay
    # finite; 1e300 ended t4 in an OverflowError and t3 in a LinAlgError
    noise = amplitude_bound(tree)
    if tree["mode"] == "t3":  # the 50 dB jammer and the target share the bound
        radar = RadarParams(r_min=1500.0, r_max=3000.0)
        noise /= (1.0 + 10.0 ** 2.5 + np.sqrt(10.0 ** 1.5 / (radar.replica_length
                                                            * radar.n_pulses))) ** 2
    else:  # the one unit scatterer
        noise = (np.sqrt(noise) - 1.0) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(resolve_config({**tree, "noise_power": noise * (1 - 1e-9)}))
    assert all(np.isfinite(v) for v in report.metrics.values() if isinstance(v, float))
    with pytest.raises(ConfigError, match="too large"):
        resolve_config({**tree, "noise_power": 1.0e300})


def test_t4_image_grid_is_finite_at_the_power_bound(tmp_path):
    # the t4 image keeps 1/n_slow of a cell's power and its grid holds the
    # magnitude as a float32: that bound binds long before the contrast's, and
    # at the bound the report is written, at order 4 too, without an overflow
    tree = {**T4_SHORT, "isar": {"n_dwells": 4, "autofocus_order": 4}}
    noise = (np.sqrt(amplitude_bound(tree)) - 1.0) ** 2  # beside the one unit scatterer
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_report(run_experiment(resolve_config({**tree, "noise_power": noise * (1 - 1e-9)})),
                     tmp_path)
    assert np.isfinite(read_grid(tmp_path / "isar_image.aesg").values).all()
    with pytest.raises(ConfigError, match="t4 image grid"):
        resolve_config({**tree, "noise_power": noise * (1 + 1e-9)})


def test_t4_runs_on_two_range_bins(tmp_path):
    # the smallest receive window t4 takes: two range bins, both imaged
    scenario = tmp_path / "two.yaml"
    scenario.write_text(yaml.safe_dump({
        "mode": "t4", "radar": {"r_min_m": 1700.0, "r_max_m": 1702.0},
        "isar": {"body": {"center_range_m": 1700.2, "scatterers": [[0.0, 0.0, 1.0]]}}}))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 0
    assert read_grid(tmp_path / "o" / "isar_image.aesg").values.shape[0] == 2


def test_dump_geometry_and_emit_raw(tmp_path):
    # the raw grids hold every channel of the reference simulator's dwell as float32,
    # with a jammer and a clutter band too
    for make in (small_t1, small_t2, small_mixed):
        scenario = make(tmp_path)
        out = tmp_path / make.__name__
        rc = main(["run", "--scenario", str(scenario), "--out", str(out),
                   "--dump-geometry", "--emit-raw"])
        assert rc == 0
        geometry = (out / "geometry.csv").read_text().splitlines()
        assert len(geometry) == 49  # header + one row per element
        assert geometry[0] == "x_m,y_m,subarray_id"
        raw = sorted(p.name for p in out.glob("raw_ch*.aesg"))
        assert raw == [f"raw_ch{c}.aesg" for c in range(6)]
        cfg = load_config(scenario)
        cube = simulate_dwell(cfg.radar, cfg.targets, cfg.jammer, cfg.noise_power, cfg.seed,
                              cfg.clutter).values
        for c, name in enumerate(raw):
            grid = read_grid(out / name).values
            assert grid.tobytes() == cube[c].astype(np.complex64).tobytes(), (make, c)


@pytest.mark.parametrize("make", (small_t1, small_t2))
def test_raw_cube_released_before_detection(tmp_path, monkeypatch, make):
    # t2: the raw cube lives on only as the storage of the range-Doppler cube;
    # t1: no six-channel map is made, only the beam's one-channel map, and the raw
    # cube, kept for the MUSIC window, is dead once the window's rows are taken;
    # with --emit-raw too, whose raw grids come from a dwell simulated apart
    cubes, maps, channels, states = [], [], [], []
    simulate, stream = experiments._echo_dwell, experiments._rd_stream
    cfar, select = experiments.cfar_detect, experiments.select_training_subset

    def recording_simulate(*args, **kwargs):
        raw, rng = simulate(*args, **kwargs)
        cubes.append(weakref.ref(raw.values))
        return raw, rng

    def recording_stream(*args, **kwargs):
        rd = stream(*args, **kwargs)
        maps.append(weakref.ref(rd.values))
        channels.append(rd.values.shape[0])
        return rd

    def checking_cfar(*args, **kwargs):
        # "kept" is a raw array alive apart from the range-Doppler cube: a second cube
        raw, rd = cubes[-1](), maps[-1]()
        states.append("dead" if raw is None
                      else "shared" if np.shares_memory(raw, rd) else "kept")
        return cfar(*args, **kwargs)

    def checking_select(*args, **kwargs):
        states.append("dead" if cubes[-1]() is None else "alive")
        return select(*args, **kwargs)

    monkeypatch.setattr(experiments, "_echo_dwell", recording_simulate)
    monkeypatch.setattr(experiments, "_rd_stream", recording_stream)
    monkeypatch.setattr(experiments, "cfar_detect", checking_cfar)
    monkeypatch.setattr(experiments, "select_training_subset", checking_select)
    cfg = load_config(make(tmp_path))
    for emit_raw in (False, True):
        states.clear()
        channels.clear()
        report = run_experiment(cfg, emit_raw=emit_raw)
        if make is small_t2:
            assert states and set(states) == {"shared"}
            continue
        assert "azimuth_estimate_deg" in report.metrics  # and so MUSIC ran
        assert channels == [1]
        assert states == ["kept", "dead"]


def small_mixed(tmp_path):
    """A short t3 dwell with a target, a jammer and a clutter band."""
    return small_t1(tmp_path, mode="t3",
                    jammer={"active": True, "azimuth_deg": -14.0, "jnr_db": 30.0},
                    clutter={"enabled": True, "n_range_bins": 20, "mean_power": 60.0})


@pytest.mark.parametrize("workers", [1, 2, 4, 6])
def test_dwell_rd_cube_matches_rd_map(tmp_path, monkeypatch, fast_switching, workers):
    # 1, 2, 4 or 6 threads share the 6 channels as 6, 3+3, 2+2+1+1 or 1 each,
    # while the calling thread draws the noise that each channel waits for;
    # each slot of the map heads its own raw channel's storage, except at
    # oversample 2, where a slot does not fit and the map gets a fresh cube
    monkeypatch.setattr(rdproc, "_workers", lambda n_ch: min(workers, n_ch))
    for make in (small_t1, small_t2, small_mixed):
        for oversample in (1, 2):
            cfg = load_config(make(tmp_path))
            cfg = replace(cfg, processing=replace(cfg.processing,
                                                  doppler_oversample=oversample))
            raw = simulate_dwell(cfg.radar, cfg.targets, cfg.jammer, cfg.noise_power,
                                 cfg.seed, cfg.clutter)
            want = rd_map(raw, window=cfg.processing.window, oversample=oversample)
            rd, _mask = experiments._dwell(cfg)
            assert rd.values.tobytes() == want.values.tobytes(), (make, oversample)
            np.testing.assert_array_equal(rd.velocity_axis, want.velocity_axis)
            assert all(slot.flags.c_contiguous for slot in rd.values)
            reused = rd.values.base is not None
            assert reused == (oversample == 1)
            if reused:
                channels = rd.values.base.reshape(raw.values.shape)
                for c, slot in enumerate(rd.values):
                    assert [np.shares_memory(slot, ch) for ch in channels] == \
                        [k == c for k in range(len(channels))]


def _t1_block_nbytes(radar) -> tuple:
    """(beam, padded spectrum) bytes of the t1 front end's one block."""
    return (radar.n_fast * radar.n_pulses * 16,
            radar.n_pulses * next_fast_len(radar.n_fast) * 16)


def test_full_swath_dwell_holds_one_cube():
    # t1 beamforms the raw cube as its channels are drawn and makes the beam's map
    # over the beam's storage and its power over the spectrum's, so the peak is the
    # raw cube and that one block, not two cubes; past them, 531 KiB measured: the
    # 256 KiB noise block, the 256 KiB scratch of the beam's sum and, within 64
    # KiB, the fixed costs
    cfg = load_config(CONFIG_DIR / "t1.yaml")
    (rd, power, raw), peak = traced_peak(
        experiments._beam_dwell, cfg, conventional_weights(cfg.steering_deg[0]))
    raw_nbytes = 6 * cfg.radar.n_fast * cfg.radar.n_pulses * 16
    beam_nbytes, spectrum_nbytes = _t1_block_nbytes(cfg.radar)
    assert peak <= raw_nbytes + beam_nbytes + spectrum_nbytes + 2 * 2**18 + 2**16
    assert raw.values.nbytes == raw_nbytes
    block = rd.values.base
    while block.base is not None:
        block = block.base
    assert block.nbytes == beam_nbytes + spectrum_nbytes
    assert np.shares_memory(power, block) and not np.shares_memory(power, rd.values)
    assert rd.values.shape == (1,) + power.shape


@pytest.mark.parametrize("scenario", ["t1.yaml", "t2.yaml"], ids=["t1", "t2"])
def test_dwell_peak_over_raw_is_two_spectra(monkeypatch, scenario):
    # t2: two threads hold one padded channel spectrum each, and nothing else of
    # the channel's size: no compressed block, no Doppler copy; a short dwell has
    # less room for the fixed costs (replica, window, the stages' checks): 3
    # spectra.  t1: one worker, whatever the count, sums the beam, a channel's
    # size, and the kernel makes its map through one padded spectrum, the two one
    # block; past them, the 256 KiB noise block, the 256 KiB scratch of the sum
    # and 64 KiB of fixed costs
    monkeypatch.setattr(rdproc, "_workers", lambda n_ch: min(2, n_ch))
    cfg = load_config(CONFIG_DIR / scenario)
    raw_nbytes = 6 * cfg.radar.n_fast * cfg.radar.n_pulses * 16
    if scenario == "t1.yaml":
        _, peak = traced_peak(experiments._beam_dwell, cfg,
                              conventional_weights(cfg.steering_deg[0]))
        assert peak - raw_nbytes <= sum(_t1_block_nbytes(cfg.radar)) + 2 * 2**18 + 2**16
    else:
        _, peak = traced_peak(experiments._dwell, cfg)
        spectrum_nbytes = cfg.radar.n_pulses * next_fast_len(cfg.radar.n_fast) * 16
        assert peak - raw_nbytes <= 3.0 * spectrum_nbytes


def test_emit_raw_peak_is_one_cube_and_its_float32_grids(tmp_path, monkeypatch):
    # --emit-raw simulates dwell 0 apart, once the chain has dropped its raw cube,
    # and keeps only its complex64 grids, so a t1 run holds one raw cube and, first,
    # the chain's beam-and-spectrum block (1.5 MB), then the grids (2.2 MiB);
    # 1.5 MiB covers the fixed costs, 0.4-1.0 MiB measured: the 256 KiB noise
    # block, the scratch of the beam's sum, the CFAR's temporaries and the MUSIC
    # window; were the grids taken from the chain's raw cube, the run would hold
    # that cube, the block and the grids at once
    monkeypatch.setattr(rdproc, "_workers", lambda n_ch: min(2, n_ch))
    cfg = load_config(small_t1(tmp_path))
    run_experiment(cfg)  # so that the one-time caches are not counted
    report, peak = traced_peak(run_experiment, cfg, emit_raw=True)
    raw_nbytes = 6 * cfg.radar.n_fast * cfg.radar.n_pulses * 16
    block_nbytes = sum(_t1_block_nbytes(cfg.radar))
    assert peak < raw_nbytes + max(block_nbytes, raw_nbytes // 2) + 1.5 * 2**20
    grids = [g.values for name, g in report.grids.items() if name.startswith("raw_ch")]
    assert len(grids) == 6 and sum(g.nbytes for g in grids) == raw_nbytes // 2


@pytest.mark.parametrize("mode", ["t2", "t3"])
def test_adaptive_back_end_makes_no_cube_sized_copy(tmp_path, monkeypatch, mode):
    # the covariances and the beamscan's scatter matrix are summed over blocks
    # of SCATTER_CELLS cells, and each dB map is made in place and kept as the
    # float32 its grid holds, so a run holds one cube, its float32 grids, three
    # complex maps (t2: the last steering's two maps and the rejection's
    # temporaries; t3: its two maps and the CFAR's), one block's snapshots and
    # 256 KiB of fixed costs: measured 7.4 MiB (t2) and 6.8 MiB (t3), where
    # gathering the training cells and conjugating them, two copies of about
    # the cube, peaked at 11.8 and 12.4 MiB
    monkeypatch.setattr(rdproc, "_workers", lambda n_ch: min(2, n_ch))
    if mode == "t2":
        cfg = load_config(small_t2(tmp_path))
    else:
        tree = yaml.safe_load((CONFIG_DIR / "t3.yaml").read_text())
        cfg = resolve_config({**tree, "radar": {"n_pulses": 64, "r_min_m": 1500.0,
                                                "r_max_m": 3000.0}})
    run_experiment(cfg)  # so that the one-time caches are not counted
    report, peak = traced_peak(run_experiment, cfg)
    if mode == "t3":
        assert report.metrics["mvdr_target_detected"]  # and so MUSIC ran
    grids = [g.values for g in report.grids.values()]
    assert all(g.dtype == np.float32 for g in grids)
    raw_nbytes = 6 * cfg.radar.n_fast * cfg.radar.n_pulses * 16
    map_nbytes = grids[0].size * 16
    block_nbytes = 6 * beamform.SCATTER_CELLS * 16
    assert peak <= raw_nbytes + sum(g.nbytes for g in grids) + 3 * map_nbytes + block_nbytes \
        + 2**18


def test_t2_beamscans_share_one_scatter_sum(tmp_path, monkeypatch):
    # the conventional and the MVDR scan read one sum of the cube's scatter
    # matrix, the bytes of the sum each scan made for itself
    sums, scatter = [], beamform._scatter

    def counting_scatter(values, mask=None):
        if mask is None:
            sums.append(values.shape)
        return scatter(values, mask)

    monkeypatch.setattr(beamform, "_scatter", counting_scatter)
    monkeypatch.setattr(experiments, "_scatter", counting_scatter)
    cfg = load_config(small_t2(tmp_path))
    report = run_experiment(cfg)
    assert len(sums) == 1 and "beamscan.csv" in report.tables
    rd, _mask = experiments._dwell(cfg)
    grid = np.arange(-30.0, 30.5, 0.5)
    cov = beamform.covariance_from_snapshots(rd.values[:, :40, 0])
    s = scatter(rd.values)[0]
    for kwargs in ({}, {"cov": cov}):
        alone = beamform.beamscan(rd, grid, **kwargs).energy
        shared = beamform.beamscan(rd, grid, scatter=s, **kwargs).energy
        assert alone.tobytes() == shared.tobytes()


def small_t4(n_dwells, **body):
    cfg = load_config(CONFIG_DIR / "t4.yaml")
    return replace(cfg, isar=replace(cfg.isar, n_dwells=n_dwells,
                                     body=replace(cfg.isar.body, **body)))


def test_t4_raw_dwells_alive_at_most_one_per_worker(monkeypatch):
    # each of the chain's dwells is simulated into one of `workers` raw cubes
    # that the run allocates before its threads start, one per thread, which
    # owns it for every dwell it runs, so at most one raw dwell per worker is ever
    # alive; --emit-raw adds one simulation of dwell 0 into a fresh cube, whose
    # float32 casts are the raw grids and share no memory with a reused cube
    monkeypatch.setattr(experiments, "_workers", lambda n: min(2, n))
    cfg = small_t4(8)
    lock, calls = threading.Lock(), []
    simulate = experiments._isar_dwell

    def recording_simulate(params, body, d, *args, out=None, **kwargs):
        raw = simulate(params, body, d, *args, out=out, **kwargs)
        with lock:
            calls.append((d, out, raw.values, raw.values.copy() if out is None else None))
        return raw

    monkeypatch.setattr(experiments, "_isar_dwell", recording_simulate)
    for emit_raw in (False, True):
        calls.clear()
        report = run_experiment(cfg, emit_raw=emit_raw)
        reused = [(d, out) for d, out, values, _ in calls if out is not None and values is out]
        fresh = [(d, copy) for d, out, _, copy in calls if out is None]
        assert len(calls) == 8 + emit_raw
        assert sorted(d for d, _ in reused) == list(range(8))
        assert [d for d, _ in fresh] == ([0] if emit_raw else [])
        given = {id(out): out for _, out in reused}
        assert 1 <= len(given) <= experiments._workers(7)
        grids = [report.grids[f"raw_ch{c}.aesg"].values for c in range(6) if emit_raw]
        assert sorted(report.grids) == ["isar_image.aesg"] + [f"raw_ch{c}.aesg"
                                                              for c in range(len(grids))]
        for c, grid in enumerate(grids):
            assert grid.dtype == np.complex64
            assert not any(np.shares_memory(grid, cube) for cube in given.values())
            assert grid.tobytes() == fresh[0][1][c].astype(np.complex64).tobytes()


def test_t4_few_compressed_dwells_alive(monkeypatch):
    # every dwell is beamformed and compressed once, in one of exactly
    # `workers` padded spectra, which were alive when the pool was created (a
    # block with each spectrum's allocation traceback and size is in the
    # snapshot taken then); each dwell writes its own rows of the history, so
    # no compressed dwell passes through the extraction, which the run no
    # longer calls, and none has more than its one beamformed channel
    monkeypatch.setattr(experiments, "_workers", lambda n: min(2, n))
    monkeypatch.setattr(isar, "extract_target_history", None)
    assert not hasattr(experiments, "extract_target_history")
    cfg = load_config(CONFIG_DIR / "t4.yaml")
    params = cfg.radar
    lock, dwell_of, specs, at_start = threading.Lock(), threading.local(), {}, []
    simulate, match_rows = experiments._isar_dwell, experiments._match_rows

    def recording_simulate(params, body, d, *args, **kwargs):
        dwell_of.d = d
        return simulate(params, body, d, *args, **kwargs)

    def recording_match_rows(spec, match, n_fast):
        with lock:
            specs.setdefault(dwell_of.d, []).append(spec)
        return match_rows(spec, match, n_fast)

    class SnapshottingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            at_start.append(tracemalloc.take_snapshot())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "_isar_dwell", recording_simulate)
    monkeypatch.setattr(experiments, "_match_rows", recording_match_rows)
    monkeypatch.setattr(rdproc, "ThreadPoolExecutor", SnapshottingPool)
    tracemalloc.start(5)
    try:
        run_experiment(cfg)
        owners = {id(spec): spec for calls in specs.values() for spec in calls}
        born = [(tracemalloc.get_object_traceback(s), s.nbytes) for s in owners.values()]
    finally:
        tracemalloc.stop()
    assert sorted(specs) == list(range(cfg.isar.n_dwells))
    assert all(len(calls) == 1 for calls in specs.values())
    assert {spec.shape for spec in owners.values()} == {
        (params.n_pulses, next_fast_len(params.n_fast))}
    assert len(owners) == experiments._workers(cfg.isar.n_dwells - 1) == 2
    start_traces = at_start[0].traces
    assert all(any(t.traceback == tb and t.size == nbytes for t in start_traces)
               for tb, nbytes in born)


def test_t4_peak_is_compressed_dwells_and_two_workers(monkeypatch):
    # the raw sequence never exists whole, nor do its compressed dwells or
    # their beamformed rows: the front end holds per worker one buffer set (a
    # raw dwell and a one-channel padded range spectrum, where the dwell is
    # beamformed and compressed) and the echo temporaries of the dwell it
    # simulates, and every dwell writes its rows into the one history; the
    # rest of the peak, its fixed costs such as the replica and the axes, came to
    # 501-519 KiB over 42 runs, and 1 MiB covers them; simulating every raw
    # dwell first peaked at 79.6 MiB, holding every compressed dwell until the
    # extraction at 37.9 MiB, and stacking the extraction's rows into a second
    # history at 14.45 MiB
    monkeypatch.setattr(experiments, "_workers", lambda n: min(2, n))
    cfg = load_config(CONFIG_DIR / "t4.yaml")
    params, n_ch, workers = cfg.radar, 6, experiments._workers(cfg.isar.n_dwells - 1)
    raw_nbytes = n_ch * params.n_fast * params.n_pulses * 16
    spectrum_nbytes = params.n_pulses * next_fast_len(params.n_fast) * 16
    cube = np.empty((n_ch, params.n_fast, params.n_pulses), dtype=complex)
    _, echo_nbytes = traced_peak(experiments._isar_dwell, params, cfg.isar.body, 0, cfg.seed,
                                 cfg.noise_power, out=cube)
    report, peak = traced_peak(run_experiment, cfg)
    lo, hi = report.metrics["window_range_bins"]
    history_nbytes = cfg.isar.n_dwells * params.n_pulses * (hi - lo) * 16
    assert peak <= workers * (raw_nbytes + spectrum_nbytes + echo_nbytes) + history_nbytes + 2**20


def test_t4_threads_allocate_no_dwell_sized_block(monkeypatch):
    # every dwell-sized array of the t4 front end is allocated on the calling
    # thread, so no block of 512 KiB or more that a dwell thread allocated is
    # ever alive (a raw dwell is 2.4 MiB, the history 3.0 MiB; a dwell's
    # padded spectrum is 0.40 MiB, its rows of the history 96 KiB); such
    # blocks stay in the thread's malloc arena
    monkeypatch.setattr(experiments, "_workers", lambda n: min(2, n))
    cfg = small_t4(6)
    on_thread = tracemalloc.Filter(True, concurrent.futures.thread.__file__, all_frames=True)
    lock, snapshots, blocks = threading.Lock(), [], []
    match_rows = experiments._match_rows

    def snapshot():
        with lock:
            taken = tracemalloc.take_snapshot().filter_traces([on_thread])
            snapshots.append(threading.current_thread().name)
            blocks.extend(t for t in taken.traces if t.size >= 2**19)

    def snapshotting_match_rows(*args):
        # once the dwell is simulated and beamformed, and once it is compressed,
        # just before its rows are written, both on the threads
        snapshot()
        match_rows(*args)
        snapshot()

    monkeypatch.setattr(experiments, "_match_rows", snapshotting_match_rows)
    tracemalloc.start(25)
    try:
        run_experiment(cfg)
    finally:
        tracemalloc.stop()
    assert any(name.startswith("isar_dwell") for name in snapshots)
    assert blocks == []


def test_t4_emit_raw_keeps_dwell_0_and_every_other_byte(tmp_path, monkeypatch):
    # --emit-raw simulates dwell 0 once more, into a fresh cube, for its raw
    # grids, and leaves the chain's own dwells, and so every other byte, alone
    monkeypatch.setattr(experiments, "_workers", lambda n: min(2, n))
    cfg = small_t4(6)
    for emit_raw in (False, True):
        write_report(run_experiment(cfg, emit_raw=emit_raw), tmp_path / str(emit_raw))
    dwell0 = simulate_isar_sequence(cfg.radar, cfg.isar.body, 1, cfg.seed, cfg.noise_power)[0]
    raw = [f"raw_ch{c}.aesg" for c in range(6)]
    for c, name in enumerate(raw):
        got = read_grid(tmp_path / "True" / name).values
        assert got.tobytes() == dwell0.values[c].astype(np.complex64).tobytes()
    names = sorted(p.name for p in (tmp_path / "False").iterdir())
    assert sorted(p.name for p in (tmp_path / "True").iterdir()) == sorted(names + raw)
    # the summary differs only in listing the raw grids among its artifacts
    summary = (tmp_path / "False" / "summary.txt").read_text()
    assert (tmp_path / "True" / "summary.txt").read_text() == summary.replace(
        "isar_image.aesg]", f"isar_image.aesg, {', '.join(raw)}]")
    names.remove("summary.txt")
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "False", tmp_path / "True", names,
                                               shallow=False)
    assert len(match) == 3 and mismatch == [] and errors == []


def test_t4_report_same_for_any_worker_count(tmp_path, monkeypatch, fast_switching):
    # the dwells run in any order on any thread and give the same report and
    # the same F-ordered history, which is, but for rounding, the one that
    # extract_target_history stacks from the sequence simulator's dwells,
    # compressed one by one and then beamformed; the threads interleave often,
    # and 6 workers outnumber the cores, so a buffer set reused too early would
    # change the bytes
    cfg = small_t4(6)
    histories, align = [], experiments.range_align

    def recording_align(history):
        histories.append(history)
        return align(history)

    monkeypatch.setattr(experiments, "range_align", recording_align)
    for workers in (1, 2, 6):
        monkeypatch.setattr(experiments, "_workers", lambda n, w=workers: min(w, n))
        report = run_experiment(cfg)
        write_report(report, tmp_path / str(workers))
    dwells = simulate_isar_sequence(cfg.radar, cfg.isar.body, 6, cfg.seed, cfg.noise_power)
    want = isar.extract_target_history([range_compress(d) for d in dwells],
                                       conventional_weights(cfg.steering_deg[0]),
                                       tuple(report.metrics["window_range_bins"]))
    assert [h.values.tobytes() for h in histories] == [histories[0].values.tobytes()] * 3
    assert [h.range_axis.tobytes() for h in histories] == [want.range_axis.tobytes()] * 3
    assert all(h.values.flags.f_contiguous for h in histories)
    np.testing.assert_allclose(histories[0].values, want.values, rtol=0,
                               atol=1e-12 * np.abs(want.values).max())
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    for workers in ("2", "6"):
        assert names == sorted(p.name for p in (tmp_path / workers).iterdir())
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "1", tmp_path / workers, names,
                                                   shallow=False)
        assert mismatch == [] and errors == []


def test_t4_sequence_warns_once_and_stops_on_failed_dwell(monkeypatch):
    # the sequence checks run once on the calling thread: 8 dwells at
    # 1 rad/s rotate the body by 0.5 rad, which warns once, not per dwell
    monkeypatch.setattr(experiments, "_workers", lambda n: min(2, n))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(small_t4(8, rotation_rate=1.0))
    assert [str(w.message) for w in caught if "rotation" in str(w.message)] == [
        "total rotation 0.500 rad exceeds the small-angle regime; "
        "cross-range scaling will be approximate"]
    # a dwell that leaves the receive window cancels the dwells not yet started
    started, simulate = [], experiments._isar_dwell

    def failing_simulate(params, body, d, *args, **kwargs):
        started.append(d)
        if d == 3:
            raise ConfigError("rigid body leaves the receive window during the sequence")
        return simulate(params, body, d, *args, **kwargs)

    monkeypatch.setattr(experiments, "_isar_dwell", failing_simulate)
    with pytest.raises(ConfigError, match="receive window"):
        run_experiment(small_t4(32))
    assert 3 in started and len(started) < 32


def test_t4_falls_back_to_strongest_range_bin():
    # t4 runs no CFAR: the window centres on the strongest range bin of the
    # first dwell's beamformed map, whatever the CFAR settings (a window of
    # 2 * (60 + 2) + 1 = 125 cells would not fit the 84 range bins of the
    # imaging swath); a CFAR there left the 18 bins at each edge of the swath
    # untested, and on these seeds windowed a body at 1612 m (bin 5) or 1785 m
    # (bin 77) on a noise false alarm that missed it
    base = load_config(CONFIG_DIR / "t4.yaml")
    n_bins, hw = base.radar.n_range_bins, base.isar.window_halfwidth_bins
    assert n_bins == 84
    bundled = replace(base, isar=replace(base.isar, n_dwells=4),
                      processing=replace(base.processing, cfar_train=60))
    edges = [replace(base, seed=seed, isar=replace(base.isar, n_dwells=4, body=replace(
        base.isar.body, center_range_m=centre)))
        for centre, seeds in ((1612.0, (0, 2, 8, 11, 19)), (1785.0, (0, 1, 2, 11, 14, 19)))
        for seed in seeds]
    for cfg in [bundled] + edges:
        body = cfg.isar.body
        first = simulate_isar_sequence(cfg.radar, body, 1, cfg.seed, cfg.noise_power)[0]
        rd = rd_map(first, window=cfg.processing.window,
                    oversample=cfg.processing.doppler_oversample)
        bmap = apply_beamformer(rd, conventional_weights(cfg.steering_deg[0]))
        center = int(np.argmax((np.abs(bmap) ** 2).max(axis=1)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "cfar_detect", None)
            lo, hi = run_experiment(cfg).metrics["window_range_bins"]
        assert [lo, hi] == [max(center - hw, 0), min(center + hw + 1, n_bins)]
        assert lo <= cfg.radar.range_bin_of(body.center_range_m) < hi, (body, cfg.seed)


def test_emit_raw_refuses_raw_samples_past_float32(tmp_path, caplog):
    # --emit-raw checks the float32 dwell it writes: at a noise power of 1e200
    # every raw part overflows, and at 8.9e76, where the summed rms amplitude of
    # the returns still fits a float32, the Gaussian tail of the noise overflows
    # about a tenth of them; either is a configuration error naming the largest
    # return, raised with no overflow warning and before any file is written,
    # while the run without --emit-raw takes the scenario
    tree = {"mode": "t1", "radar": {"r_min_m": 4000.0, "r_max_m": 6000.0},
            "targets": [{"range_m": 5000.0, "azimuth_deg": 5.0, "snr_db": 25.0}]}
    scenario = tmp_path / "loud.yaml"
    argv = ["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]
    for noise_power in (1.0e200, 8.9e76):
        scenario.write_text(yaml.safe_dump({**tree, "noise_power": noise_power}))
        caplog.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--emit-raw"]) == 2, noise_power
        assert caplog.records[-1].getMessage().startswith(
            "--emit-raw: noise_power is too large"), caplog.text
        assert not (tmp_path / "o").exists()
    assert main(argv) == 0 and not list((tmp_path / "o").glob("raw_ch*"))
    # a quiet run writes finite raw grids
    report = run_experiment(resolve_config({**tree, "noise_power": 1.0}), emit_raw=True)
    grids = [report.grids[f"raw_ch{c}.aesg"].values for c in range(6)]
    assert all(np.isfinite(grid).all() for grid in grids)


def test_emit_raw_refuses_malformed_track_file_before_any_simulation(tmp_path, monkeypatch):
    # --emit-raw simulates dwell 0 again only once the chain has run, so with
    # the flag, too, a malformed truth-track file is refused before any dwell
    # is simulated
    def refuse(*args, **kwargs):
        raise AssertionError("a dwell was simulated")

    for simulator in ("_echo_dwell", "simulate_dwell", "_isar_dwell"):
        monkeypatch.setattr(experiments, simulator, refuse)
    row, column = MALFORMED_TRACKS[0]
    (tmp_path / "tracks.csv").write_text(
        "timestamp,name,range_m,azimuth_deg,heading_deg,length_m,beam_m\n"
        f"{GOOD_TRACK}\n{row}\n")
    cfg = load_config(small_t1(tmp_path, truth_tracks="tracks.csv"))
    with pytest.raises(ConfigError, match=f"line 3, {column}"):
        run_experiment(cfg, emit_raw=True)


def test_t2_steering_angles_need_distinct_map_names(tmp_path, caplog):
    # t2 names each steering's map files to 0.1 deg, so 0.04 and 0.01 deg, both
    # "+0.0", would write one pair of maps over the other: a configuration error
    # by dotted path; -0.04 deg is "-0.0", a name of its own
    argv = ["run", "--scenario", str(CONFIG_DIR / "t2.yaml"), "--out", str(tmp_path / "o")]
    assert main(argv + ["--steer=0.04,0.01,-0.04"]) == 2
    assert "steering_deg must" in caplog.text and not (tmp_path / "o").exists()
    tree = {"mode": "t2", "jammer": {"active": True}, "steering_deg": [0.04, -0.04]}
    assert resolve_config(tree).steering_deg == (0.04, -0.04)


def test_repeated_runs_are_byte_identical(tmp_path):
    scenario = small_t1(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(scenario), "--out", str(a)]) == 0
    assert main(["run", "--scenario", str(scenario), "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_write_report_returns_paths(tmp_path):
    cfg = load_config(small_t1(tmp_path))
    report = run_experiment(cfg)
    written = write_report(report, tmp_path / "direct")
    assert all(p.exists() for p in written)
    assert (tmp_path / "direct" / "summary.txt") in written


def test_t2_without_adaptive_writes_conventional_maps_only(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(small_t2(tmp_path)), "--out", str(out),
               "--adaptive", "off"])
    assert rc == 0
    assert read_summary(out)["adaptive"] == "false"
    assert sorted(p.name for p in out.glob("map_*.aesg")) == sorted(
        f"map_conventional_steer{s:+.1f}deg.aesg" for s in (-10.0, 0.0, 10.0))
    for path in out.glob("map_*.aesg"):
        assert read_grid(path).values.max() == 0.0


def test_outputs_independent_of_blas_thread_count(tmp_path):
    # one interpreter per thread setting: BLAS reads these only at load time
    script = ("import sys; from aesa_chain.cli import main\n"
              "for name in ('t1', 't2', 't3', 't4'):\n"
              "    assert main(['run', '--scenario', f'{sys.argv[1]}/{name}.yaml',\n"
              "                 '--out', f'{sys.argv[2]}/{name}']) == 0\n")
    src = str(Path(aesa_chain.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=path)
        subprocess.run([sys.executable, "-c", script, str(CONFIG_DIR),
                        str(tmp_path / threads)],
                       env=env, check=True, capture_output=True, timeout=300)
    for name in ("t1", "t2", "t3", "t4"):
        one, two = tmp_path / "1" / name, tmp_path / "2" / name
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(one, two, names, shallow=False)
        assert mismatch == [] and errors == [], name


def test_start_up_and_t2_load_no_scipy_submodule():
    # a fresh interpreter runs t2 and an autofocus on numpy alone
    script = ("import sys\n"
              "import numpy as np\n"
              "from aesa_chain import (RangeProfileHistory, icba_autofocus, load_config,\n"
              "                        run_experiment)\n"
              "def scipy_modules():\n"
              "    return ' '.join(m for m in sys.modules\n"
              "                    if m == 'scipy' or m.startswith('scipy.'))\n"
              "run_experiment(load_config(sys.argv[1]))\n"
              "print(scipy_modules())\n"
              "x = np.exp(1j * np.arange(64 * 4).reshape(64, 4))\n"
              "icba_autofocus(RangeProfileHistory(x, 500.0, np.arange(4.0), 0.03))\n"
              "print(scipy_modules())\n")
    src = str(Path(aesa_chain.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(CONFIG_DIR / "t2.yaml")],
                          env=env, check=True, capture_output=True, text=True, timeout=300)
    after_t2, after_autofocus = proc.stdout.split("\n")[:2]
    assert after_t2 == ""
    assert after_autofocus == ""


def test_t4_runs_with_scipy_blocked(tmp_path):
    # with every scipy import failing, a fresh interpreter runs t4 through the
    # command line and writes the report an in-process run writes
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from aesa_chain.cli import main\n"
              "sys.exit(main(['run', '--scenario', sys.argv[1], '--out', sys.argv[2]]))\n")
    src = str(Path(aesa_chain.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    blocked, here = tmp_path / "blocked", tmp_path / "here"
    proc = subprocess.run([sys.executable, "-c", script, str(CONFIG_DIR / "t4.yaml"),
                           str(blocked)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert main(["run", "--scenario", str(CONFIG_DIR / "t4.yaml"), "--out", str(here)]) == 0
    names = sorted(p.name for p in here.iterdir())
    assert names == sorted(p.name for p in blocked.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(here, blocked, names, shallow=False)
    assert mismatch == [] and errors == []


def test_readme_library_example_runs(capsys):
    # the "Library use" block of the README runs as written against this API
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    range_m, velocity = map(float, capsys.readouterr().out.split())
    assert range_m == pytest.approx(1740.0, abs=2.4) and velocity == pytest.approx(3.75)
