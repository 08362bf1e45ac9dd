import filecmp
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import aesa_chain
from aesa_chain import (apply_beamformer, conventional_weights, experiments, load_config,
                        rd_map, rdproc, read_grid, run_experiment, simulate_dwell,
                        simulate_isar_sequence, write_report)
from aesa_chain.cli import _steer_list, main

from helpers import traced_peak
from test_config import MALFORMED
from test_rdproc import _channel_bytes

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
    # a malformed truth-track file is reported before any dwell is simulated
    monkeypatch.setattr(experiments, "simulate_dwell", None)
    tracks = tmp_path / "tracks.csv"
    for row, column in MALFORMED_TRACKS:
        tracks.write_text("timestamp,name,range_m,azimuth_deg,heading_deg,length_m,beam_m\n"
                          f"{GOOD_TRACK}\n{row}\n")
        caplog.clear()
        scenario = small_t1(tmp_path, truth_tracks="tracks.csv")
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
        assert f"track file {tracks}, line 3, {column}" in caplog.text, row


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


def test_dump_geometry_and_emit_raw(tmp_path):
    scenario = small_t1(tmp_path)
    out = tmp_path / "out"
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
    np.testing.assert_array_equal(read_grid(out / "raw_ch0.aesg").values,
                                  cube[0].astype(np.complex64))


def _empty_report(cfg):
    return experiments.ExperimentReport(mode=cfg.mode, seed=cfg.seed, config_sha256="",
                                        package_version="", adaptive=cfg.adaptive)


@pytest.mark.parametrize("make", (small_t1, small_t2))
def test_raw_cube_released_before_detection(tmp_path, monkeypatch, make):
    cubes, maps, states = [], [], []
    simulate, stream = experiments.simulate_dwell, experiments._rd_stream
    cfar = experiments.cfar_detect

    def recording_simulate(*args, **kwargs):
        raw = simulate(*args, **kwargs)
        cubes.append(weakref.ref(raw.values))
        return raw

    def recording_stream(*args, **kwargs):
        rd = stream(*args, **kwargs)
        maps.append(weakref.ref(rd.values))
        return rd

    def checking_cfar(*args, **kwargs):
        # "kept" is a raw array alive apart from the range-Doppler cube: a second cube
        raw, rd = cubes[-1](), maps[-1]()
        states.append("dead" if raw is None
                      else "shared" if np.shares_memory(raw, rd) else "kept")
        return cfar(*args, **kwargs)

    monkeypatch.setattr(experiments, "simulate_dwell", recording_simulate)
    monkeypatch.setattr(experiments, "_rd_stream", recording_stream)
    monkeypatch.setattr(experiments, "cfar_detect", checking_cfar)
    cfg = load_config(make(tmp_path))
    # one block: the raw cube is dead at detection time; one channel per
    # block: it lives on only as the storage of the range-Doppler cube
    for per_block, state in ((6, "dead"), (1, "shared")):
        monkeypatch.setattr(rdproc, "BLOCK_BYTES", per_block * _channel_bytes(cfg.radar))
        states.clear()
        run_experiment(cfg)
        assert states and set(states) == {state}
        # the raw grids of --emit-raw are what keeps the cube
        states.clear()
        run_experiment(cfg, emit_raw=True)
        assert states and set(states) == {"kept"}


@pytest.mark.parametrize("per_block", [1, 4, 6])
def test_dwell_rd_cube_matches_rd_map(tmp_path, monkeypatch, per_block):
    # a budget of 1, 4 or 6 channels splits the 6 channels as 1x6, 4+2 or 6;
    # at oversample 2 the map does not fit the raw storage and gets a fresh cube
    for oversample in (1, 2):
        cfg = load_config(small_t1(tmp_path, processing={"doppler_oversample": oversample}))
        params = cfg.radar
        monkeypatch.setattr(rdproc, "BLOCK_BYTES", per_block * _channel_bytes(params))
        raw = simulate_dwell(params, cfg.targets, cfg.jammer, cfg.noise_power, cfg.seed,
                             cfg.clutter)
        want = rd_map(raw, window=cfg.processing.window, oversample=oversample)
        for emit_raw in (False, True):
            report = _empty_report(cfg)
            _geom, rd, _mask = experiments._dwell(cfg, report, emit_raw)
            assert rd.values.tobytes() == want.values.tobytes()
            np.testing.assert_array_equal(rd.velocity_axis, want.velocity_axis)
            assert rd.values.flags.c_contiguous
            reused = not emit_raw and oversample == 1 and per_block < 6
            assert (rd.values.base is not None) == reused
            if reused:
                assert rd.values.base.nbytes == raw.values.nbytes
            if emit_raw:  # the raw grids still hold the simulated cube
                for c in range(6):
                    grid = report.grids[f"raw_ch{c}.aesg"].values
                    assert grid.tobytes() == raw.values[c].tobytes()


def test_full_swath_dwell_holds_one_cube():
    # the t1 map is written over the raw cube's storage one channel at a time,
    # so the peak is the raw cube plus one block's transforms, not two cubes
    cfg = load_config(CONFIG_DIR / "t1.yaml")
    (_geom, rd, _mask), peak = traced_peak(experiments._dwell, cfg, _empty_report(cfg), False)
    raw_nbytes = 6 * cfg.radar.n_fast * cfg.radar.n_pulses * 16
    assert peak < 1.5 * raw_nbytes
    assert rd.values.base is not None and rd.values.base.nbytes == raw_nbytes


def test_raw_dwells_released_while_compressing(monkeypatch):
    cfg = load_config(CONFIG_DIR / "t4.yaml")
    cfg = replace(cfg, isar=replace(cfg.isar, n_dwells=4))
    raws, alive = [], []
    simulate, compress = experiments.simulate_isar_sequence, experiments.range_compress

    def recording_simulate(*args, **kwargs):
        dwells = simulate(*args, **kwargs)
        raws.extend(weakref.ref(d.values) for d in dwells)
        return dwells

    def checking_compress(raw):
        alive.append([ref() is not None for ref in raws])
        return compress(raw)

    monkeypatch.setattr(experiments, "simulate_isar_sequence", recording_simulate)
    monkeypatch.setattr(experiments, "range_compress", checking_compress)
    run_experiment(cfg)
    # when dwell k is compressed, the dwells before it are gone
    assert alive == [[False] * k + [True] * (4 - k) for k in range(4)]
    # the raw grids of --emit-raw keep dwell 0
    raws.clear()
    alive.clear()
    run_experiment(cfg, emit_raw=True)
    assert alive[2][:2] == [True, False]


def test_t4_falls_back_to_strongest_range_bin():
    # a CFAR window of 2 * (60 + 2) + 1 = 125 cells does not fit the 84 range
    # bins of the imaging swath: the window centres on the strongest range bin
    # of the first dwell's beamformed map, and no CFAR runs
    cfg = load_config(CONFIG_DIR / "t4.yaml")
    cfg = replace(cfg, isar=replace(cfg.isar, n_dwells=4),
                  processing=replace(cfg.processing, cfar_train=60))
    n_bins = cfg.radar.n_range_bins
    assert n_bins == 84
    first = simulate_isar_sequence(cfg.radar, cfg.isar.body, 1, cfg.seed, cfg.noise_power)[0]
    rd = rd_map(first, window=cfg.processing.window,
                oversample=cfg.processing.doppler_oversample)
    bmap = apply_beamformer(rd, conventional_weights(experiments._geom(cfg),
                                                     cfg.steering_deg[0]))
    center = int(np.argmax((np.abs(bmap) ** 2).max(axis=1)))
    hw = cfg.isar.window_halfwidth_bins
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "cfar_detect", None)
        report = run_experiment(cfg)
    assert report.metrics["window_range_bins"] == [max(center - hw, 0),
                                                   min(center + hw + 1, n_bins)]


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
