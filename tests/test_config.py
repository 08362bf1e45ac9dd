import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aesa_chain import (ConfigError, ExperimentConfig, RadarParams, cfar_detect, experiments,
                        load_config, load_tree, resolve_config)
from aesa_chain.cli import main
from aesa_chain.config import _REQUIRED, _SCHEMA, MODES, config_hash, dump_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def t1_tree(**extra):
    tree = {"mode": "t1",
            "targets": [{"range_m": 5000.0, "azimuth_deg": 5.0, "snr_db": 25.0}]}
    tree.update(extra)
    return tree


#: (tree, pattern its ConfigError must contain): nodes of the wrong type,
#: values that break a rule and non-finite scene values, which must not end
#: in a traceback
MALFORMED = [
    (t1_tree(radar=5), "radar must be a mapping"),
    (t1_tree(clutter="x"), "clutter must be a mapping"),
    (t1_tree(processing=[1]), "processing must be a mapping"),
    (t1_tree(targets=3), "targets must be a list"),
    (t1_tree(targets=[3]), r"targets\[0\] must be a mapping"),
    (t1_tree(steering_deg=["a"]), r"steering_deg\[0\]"),
    (t1_tree(targets=[{"range_m": 5000.0, "azimuth_deg": float("nan"), "snr_db": 25.0}]),
     r"targets\[0\].azimuth_deg"),
    (t1_tree(clutter={"enabled": True, "mean_power": float("nan")}), "clutter:"),
    ({"mode": "t2", "jammer": {"active": True, "azimuth_deg": float("nan")}}, "jammer:"),
    ({"mode": "t4", "isar": {"body": {"azimuth_deg": float("nan")}}}, "isar.body:"),
    ({"mode": "t4", "isar": {"body": {"rotation_rate_rad_s": -0.02}}},
     "isar.body.rotation_rate_rad_s"),
    (t1_tree(processing={"pfa": "x"}), "processing.pfa"),
    (t1_tree(noise_power=[1]), "noise_power"),
    (t1_tree(isar={"n_dwells": "x"}), "isar.n_dwells"),
    (t1_tree(radar_heading_deg="x"), "radar_heading_deg"),
    (t1_tree(processing={"music_window_bins": 3}), "processing.music_window_bins"),
    (t1_tree(truth_tracks=5), "truth_tracks"),
    (t1_tree(out_dir=5), "out_dir"),
    (t1_tree(radar={"pulse_width_s": float("inf")}), "radar:"),
    (t1_tree(radar={"n_pulses": float("inf")}), "radar.n_pulses"),
    (t1_tree(radar={"pulse_width_s": 1e300, "sample_rate_hz": 1e300}), "radar:"),
    (t1_tree(adaptive="no"), "adaptive"),
    ({"mode": "t2", "jammer": {"active": "no"}}, "jammer.active"),
    # keys retired with the autofocus seeding grid
    ({"mode": "t4", "isar": {"autofocus_grid_points": 4}},
     r"unknown configuration key isar\.autofocus_grid_points"),
    ({"mode": "t4", "isar": {"autofocus_phase_span_rad": 100.0}},
     r"unknown configuration key isar\.autofocus_phase_span_rad"),
    (t1_tree(processing={"music_window_bins": [1]}), "processing.music_window_bins"),
    (t1_tree(processing={"window": "bogus"}), "processing.window"),
    (t1_tree(seed=2.5), "seed"),
    (t1_tree(seed=2**64), "seed"),
    (t1_tree(clutter={"enabled": 1}), "clutter.enabled"),
    (t1_tree(noise_power=True), "noise_power"),
    ({"mode": "t1", "targets": [{"range_m": 5000.0}]}, r"targets\[0\].azimuth_deg"),
    ({"mode": "t4", "isar": {"window_halfwidth_bins": 0}}, "isar.window_halfwidth_bins"),
    # a t4 receive window of one range bin, around its one scatterer
    ({"mode": "t4", "radar": {"r_min_m": 1700.0, "r_max_m": 1700.5},
      "isar": {"body": {"center_range_m": 1700.2, "scatterers": [[0.0, 0.0, 1.0]]}}},
     r"radar\.r_max_m: t4 needs at least 2 range bins"),
    (t1_tree(processing={"cfar_train": 5000}), "processing.cfar_train"),
    # a 2-point MUSIC grid, which peak picking cannot use
    (t1_tree(processing={"music_grid_step_deg": 45.0}), "processing.music_grid_step_deg"),
    ({"mode": "t2", "jammer": {"active": True}, "processing": {"cfar_train": 5000}},
     "processing.cfar_train"),
    # two steerings whose map files share the name "+0.0"
    ({"mode": "t2", "jammer": {"active": True}, "steering_deg": [0.04, 0.01]}, "steering_deg"),
]


def t3_tree(**extra):
    tree = {"mode": "t3",
            "jammer": {"active": True},
            "targets": [{"range_m": 5000.0, "azimuth_deg": -5.0, "snr_db": 15.0}]}
    tree.update(extra)
    return tree


def test_minimal_tree_takes_defaults():
    cfg = resolve_config(t1_tree())
    assert cfg.mode == "t1" and cfg.seed == 0 and cfg.adaptive is True
    assert cfg.steering_deg == (0.0,)
    assert cfg.radar_heading_deg == 252.0
    assert cfg.radar.prf == 2000.0 and cfg.radar.n_pulses == 128
    assert cfg.radar.r_min == 1500.0 and cfg.radar.r_max == 23500.0
    assert cfg.radar == RadarParams()
    assert cfg.jammer is None and not cfg.clutter.enabled
    assert cfg.processing.window == "hann" and cfg.processing.pfa == 1.0e-4
    assert cfg.targets[0].radial_velocity == 0.0
    assert cfg.isar is None and cfg.truth_tracks is None and cfg.out_dir is None


def test_leaf_conversions():
    cfg = resolve_config(t1_tree(radar={"pulse_width_s": "2e-6", "n_pulses": 128.0},
                                 processing={"window": "Hamming", "music_guard_bins": [1, 1]}))
    assert cfg.radar == RadarParams() and isinstance(cfg.radar.n_pulses, int)
    assert cfg.processing.window == "hamming" and cfg.processing.music_guard_bins == (1, 1)


def test_music_window_defaults_by_mode():
    assert resolve_config(t1_tree()).processing.music_window_bins == (4, 4)
    assert resolve_config(t3_tree()).processing.music_window_bins == (3, 3)
    override = t3_tree(processing={"music_window_bins": [2, 5]})
    assert resolve_config(override).processing.music_window_bins == (2, 5)


def test_unknown_keys_reported_with_dotted_paths():
    bad = t1_tree(radr={}, processing={"pfaa": 0.1})
    bad["targets"][0]["rng"] = 1.0
    with pytest.raises(ConfigError) as err:
        resolve_config(bad)
    msg = str(err.value)
    assert "processing.pfaa" in msg and "radr" in msg and "targets[0].rng" in msg


def test_mode_jammer_consistency():
    with pytest.raises(ConfigError, match="jammer.active = false"):
        resolve_config(t1_tree(jammer={"active": True}))
    with pytest.raises(ConfigError, match="jammer.active = true"):
        resolve_config({"mode": "t2"})
    with pytest.raises(ConfigError, match="at least one target"):
        resolve_config({"mode": "t3", "jammer": {"active": True}})
    # an inactive jammer is no jammer: its values are not checked
    idle = {"active": False, "azimuth_deg": 95.0, "jnr_db": float("inf")}
    assert resolve_config(t1_tree(jammer=idle)).jammer is None
    with pytest.raises(ConfigError, match="mode must be one of"):
        resolve_config({"mode": "t9"})
    with pytest.raises(ConfigError, match="seed"):
        resolve_config(t1_tree(seed=-1))
    with pytest.raises(ConfigError, match="seed"):
        resolve_config(t1_tree(seed=True))


def test_target_window_and_aliasing_checks():
    with pytest.raises(ConfigError, match="outside the receive window"):
        resolve_config(t1_tree(targets=[{"range_m": 500.0, "azimuth_deg": 0.0,
                                         "snr_db": 10.0}]))
    with pytest.raises(ConfigError, match="aliases"):
        resolve_config(t1_tree(targets=[{"range_m": 5000.0, "azimuth_deg": 0.0,
                                         "snr_db": 10.0,
                                         "radial_velocity_mps": 20.0}]))


def test_cfar_window_rule_matches_the_detector():
    # the widest window resolve_config accepts is the widest cfar_detect runs
    n_r = resolve_config(t1_tree()).radar.n_range_bins
    guard = 2
    train = (n_r - 1) // 2 - guard
    fits = resolve_config(t1_tree(processing={"cfar_train": train, "cfar_guard": guard}))
    cfar_detect(np.ones((n_r, 3)), 1e-3, n_train=fits.processing.cfar_train,
                n_guard=fits.processing.cfar_guard)
    with pytest.raises(ConfigError, match="exceeds the map"):
        cfar_detect(np.ones((n_r, 3)), 1e-3, n_train=train + 1, n_guard=guard)
    with pytest.raises(ConfigError, match="processing.cfar_train"):
        resolve_config(t1_tree(processing={"cfar_train": train + 1, "cfar_guard": guard}))


def test_music_grid_rule_matches_peak_picking():
    # the coarsest step resolve_config accepts gives the 3-point MUSIC grid
    # that peak picking needs at least; the next coarser step is refused
    coarsest = resolve_config(t1_tree(processing={"music_grid_step_deg": 30.0}))
    assert experiments._music_grid(coarsest).size == 3
    with pytest.raises(ConfigError, match="processing.music_grid_step_deg"):
        resolve_config(t1_tree(processing={"music_grid_step_deg": np.nextafter(30.0, 31.0)}))


def test_steering_validation():
    with pytest.raises(ConfigError, match=r"\+/-22.5"):
        resolve_config(t1_tree(steering_deg=[30.0]))
    assert resolve_config(t1_tree(steering_deg=5.0)).steering_deg == (5.0,)
    with pytest.raises(ConfigError, match="non-empty"):
        resolve_config(t1_tree(steering_deg=[]))


def test_isar_body_validation():
    base = {"mode": "t4"}
    with pytest.raises(ConfigError, match="autofocus_order"):
        resolve_config({**base, "isar": {"autofocus_order": 5}})
    with pytest.raises(ConfigError, match="rotation_rate"):
        resolve_config({**base, "isar": {"body": {"rotation_rate_rad_s": 0.0}}})
    # 32 slow-time samples are too few for autofocus; 64 are enough
    with pytest.raises(ConfigError, match=r"isar\.n_dwells"):
        resolve_config({**base, "radar": {"n_pulses": 32}, "isar": {"n_dwells": 1}})
    assert resolve_config({**base, "radar": {"n_pulses": 32}, "isar": {"n_dwells": 2}}).isar
    cfg = resolve_config({**base, "isar": {"omega_for_scaling_rad_s": 0.025}})
    assert cfg.isar.omega_for_scaling_rad_s == 0.025
    assert cfg.isar.body.center_range_m == 1700.0
    spun = {"body": {"rotation_rate_rad_s": -0.02}, "omega_for_scaling_rad_s": 0.02}
    assert resolve_config({**base, "isar": spun}).isar.body.rotation_rate == -0.02


def test_truth_tracks_resolved_against_base_dir(tmp_path):
    (tmp_path / "tracks.csv").write_text(
        "timestamp,name,range_m,azimuth_deg,heading_deg,length_m,beam_m\n")
    cfg = resolve_config(t1_tree(truth_tracks="tracks.csv"), base_dir=tmp_path)
    assert cfg.truth_tracks == tmp_path / "tracks.csv"
    with pytest.raises(ConfigError, match="not found"):
        resolve_config(t1_tree(truth_tracks="absent.csv"), base_dir=tmp_path)


def test_hash_is_canonical_sha256():
    cfg = resolve_config(t1_tree())
    digest = hashlib.sha256(
        json.dumps(cfg.tree, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert cfg.hash() == digest == config_hash(cfg.tree)
    assert resolve_config(t1_tree()).hash() == cfg.hash()
    assert resolve_config(t1_tree(seed=1)).hash() != cfg.hash()


#: t2 respellings of one value each; (section or None, key, value)
RESPELLED_T2 = [(None, "seed", 11.0), (None, "seed", "11"),
                (None, "steering_deg", [-20, -10, 0, 10, 20]),
                ("processing", "window", "HANN"), ("radar", "pulse_width_s", "2e-6")]


@pytest.mark.parametrize("section,key,value", RESPELLED_T2)
def test_hash_is_of_the_resolved_tree(section, key, value):
    # a value spelled another way resolves to the same tree, so to the same hash
    want = load_config(CONFIG_DIR / "t2.yaml")
    tree = load_tree(CONFIG_DIR / "t2.yaml")
    (tree.setdefault(section, {}) if section else tree)[key] = value
    got = resolve_config(tree)
    assert got.tree == want.tree
    assert got.hash() == want.hash()


def test_load_tree_and_config_errors(tmp_path):
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(t1_tree()))
    assert load_config(path).mode == "t1"
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_tree(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_tree(tmp_path / "missing.yaml")
    deep = tmp_path / "deep.yaml"
    deep.write_text("a: " + "[" * 3000 + "]" * 3000)
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_tree(deep)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_tree(empty) == {}


def test_load_tree_rejects_duplicate_keys(tmp_path):
    scenario = tmp_path / "dup.yaml"
    scenario.write_text("mode: t4\nseed: 1\nseed: 2\n"
                        "isar:\n  n_dwells: 8\nisar:\n  image_window: hann\n")
    with pytest.raises(ConfigError, match="duplicate key seed at line 3"):
        load_tree(scenario)
    scenario.write_text("mode: t4\nisar:\n  n_dwells: 8\nisar:\n  image_window: hann\n")
    with pytest.raises(ConfigError, match="duplicate key isar at line 4"):
        load_tree(scenario)
    scenario.write_text("mode: t1\ntargets:\n  - range_m: 5000.0\n    snr_db: 25.0\n"
                        "    snr_db: 20.0\n")
    with pytest.raises(ConfigError, match=r"duplicate key targets\[0\]\.snr_db at line 5"):
        load_tree(scenario)
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    # equal keys in different mappings, a merged key and an alias are no repeats
    scenario.write_text("a: &x {b: 1}\nc:\n  <<: *x\n  b: 2\nd: *x\n")
    assert load_tree(scenario) == {"a": {"b": 1}, "c": {"b": 2}, "d": {"b": 1}}
    scenario.write_text("a: &x [*x]\n")  # a node that contains itself is walked once
    loop = load_tree(scenario)["a"]
    assert loop[0] is loop


def test_dump_config_roundtrip(tmp_path):
    cfg = resolve_config(t1_tree(seed=3))
    path = dump_config(cfg, tmp_path / "resolved.yaml")
    assert yaml.safe_load(path.read_text()) == cfg.tree


def test_bundled_scenarios_resolve():
    modes = {}
    for name in ("t1", "t2", "t3", "t4"):
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        modes[name] = cfg.mode
        assert cfg.out_dir is not None
    assert modes == {"t1": "t1", "t2": "t2", "t3": "t3", "t4": "t4"}


def test_numeric_bounds():
    with pytest.raises(ConfigError, match="noise_power"):
        resolve_config(t1_tree(noise_power=0.0))
    with pytest.raises(ConfigError, match="pfa"):
        resolve_config(t1_tree(processing={"pfa": 1.5}))
    with pytest.raises(ConfigError, match="music_sources"):
        resolve_config(t1_tree(processing={"music_sources": 6}))
    with pytest.raises(ConfigError, match="radar:"):
        resolve_config(t1_tree(radar={"sample_rate_hz": 1.0e6}))
    for key, value in (("doppler_oversample", 0), ("cfar_train", 0),
                       ("cfar_guard", -1), ("music_window_bins", [4, -1])):
        with pytest.raises(ConfigError, match=f"processing.{key}"):
            resolve_config(t1_tree(processing={key: value}))
    nan_snr = [{"range_m": 5000.0, "azimuth_deg": 5.0, "snr_db": float("nan")}]
    with pytest.raises(ConfigError, match=r"targets\[0\].snr_db"):
        resolve_config(t1_tree(targets=nan_snr))
    for tree, path in MALFORMED:
        with pytest.raises(ConfigError, match=path):
            resolve_config(tree)


def amplitude_bound(tree) -> float:
    """The largest squared sum of raw per-channel return amplitudes a scenario may
    reach: the largest float over the chain's cells, to the root of the exponent the
    chain takes its cell powers to (1 in t1-t3, 2 in t4 at every autofocus order), or
    in t4 the float32 image magnitude squared times the slow-time samples if smaller,
    over the coherent gain of the replica, the channels and the slow-time samples."""
    cfg = resolve_config(tree)
    radar = cfg.radar
    n_slow = radar.n_pulses * (cfg.isar.n_dwells if cfg.isar else 1)
    cells = radar.n_range_bins * n_slow * cfg.processing.doppler_oversample
    gain = radar.replica_length * 6 * n_slow**2
    if cfg.isar is None:
        return np.finfo(float).max / cells / gain
    image = float(np.finfo(np.float32).max) ** 2 * n_slow
    return min(np.sqrt(np.finfo(float).max / cells), image) / gain


T4_SHORT = {"mode": "t4", "radar": {"r_min_m": 1600.0, "r_max_m": 1800.0}, "isar": {"n_dwells": 4}}
L_T1 = RadarParams().replica_length * RadarParams().n_pulses

#: (path, tree for a value, that value at the bound from ``amplitude_bound`` and whether
#: it is in dB); every other return is at least 1e30 times weaker in amplitude
POWER_PATHS = [
    ("noise_power", lambda v: {**T4_SHORT, "noise_power": v}, lambda a2: a2, False),
    ("isar.body.scatterers[1][2]",
     lambda v: {**T4_SHORT, "noise_power": 1.0, "isar": {"n_dwells": 4, "body": {
         "scatterers": [[0.0, 0.0, 1.0], [4.0, 0.0, v]]}}}, lambda a2: np.sqrt(a2), False),
    ("targets[0].snr_db",
     lambda v: t1_tree(targets=[{"range_m": 5000.0, "azimuth_deg": 5.0, "snr_db": v}]),
     lambda a2: 10.0 * np.log10(a2 * L_T1), True),
    ("jammer.jnr_db", lambda v: {"mode": "t2", "jammer": {"active": True, "jnr_db": v}},
     lambda a2: 10.0 * np.log10(a2), True),
    ("clutter.mean_power", lambda v: t1_tree(clutter={"enabled": True, "mean_power": v}),
     lambda a2: a2 * RadarParams().replica_length, False),
]


@pytest.mark.parametrize("path, tree, at_bound, db", POWER_PATHS, ids=[p[0] for p in POWER_PATHS])
def test_power_bounds(path, tree, at_bound, db):
    # the returns' powers stop where the largest power the chain squares (or,
    # in t1-t3, sums) would overflow a float: at the bound the scenario
    # resolves, just past it the error names the value
    value = at_bound(amplitude_bound(tree(1.0)))
    inside, past = (value - 1e-6, value + 1e-6) if db else (value * (1 - 1e-9), value * (1 + 1e-9))
    resolve_config(tree(inside))
    with pytest.raises(ConfigError, match=f"^{re.escape(path)} is too large"):
        resolve_config(tree(past))


#: any YAML-like value: scalars, lists and mappings
ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=6)
#: values at the edges of the leaf kinds
EDGES = st.sampled_from([0, -1, 2.5, 10**400, float("nan"), float("inf"), "2e-6", "x", "",
                         None, True, [], [1], [1, 1], [[1, 2, 3]], {}])


def trees(spec):
    """Trees over the schema's keys; about one node in five is an edge or arbitrary value."""
    if isinstance(spec, dict):
        required = {key for key, sub in spec.items() if getattr(sub, "default", None) is _REQUIRED}
        good = st.fixed_dictionaries(
            {key: trees(spec[key]) for key in required},
            optional={key: trees(sub) for key, sub in spec.items() if key not in required})
    elif isinstance(spec, list):
        good = st.lists(trees(spec[0]), max_size=2)
    elif spec is _SCHEMA["mode"]:
        good = st.sampled_from(MODES)
    elif spec.default is _REQUIRED:  # a target field
        good = st.sampled_from((5.0, 5000.0))
    elif isinstance(spec.default, bool):
        good = st.booleans()
    else:
        good = st.just(spec.default)
    return st.integers(0, 9).flatmap(lambda i: (ANY, EDGES)[i] if i < 2 else good)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trees(_SCHEMA))
def test_resolve_config_is_total(tree):
    try:
        assert isinstance(resolve_config(tree), ExperimentConfig)
    except ConfigError:
        pass
