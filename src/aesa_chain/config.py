"""Experiment configuration: YAML schema, validation and hashing.

Scenario files are a UTF-8 YAML key-value tree.  Unknown keys anywhere in
the tree are rejected with their dotted paths, missing keys take defaults,
and mode-specific consistency is enforced (t2/t3 require an active jammer,
t1/t4 require none; t1/t3 need at least one target; t4 needs a rigid body).
The configuration hash is the SHA-256 of the canonical JSON rendering of the
fully resolved tree, so reports can state exactly what produced them.
"""

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .scene import (ClutterBand, JammerSource, PointTarget, RadarParams,
                    RigidBodyTarget)

MODES = ("t1", "t2", "t3", "t4")

#: maximum steering / target azimuth magnitude, degrees
SECTOR_HALF_WIDTH_DEG = 22.5

#: scenario key under ``radar`` -> RadarParams field
_RADAR_FIELDS = {
    "wavelength_m": "wavelength",
    "bandwidth_hz": "bandwidth",
    "pulse_width_s": "pulse_width",
    "prf_hz": "prf",
    "n_pulses": "n_pulses",
    "sample_rate_hz": "sample_rate",
    "r_min_m": "r_min",
    "r_max_m": "r_max",
}

_DEFAULTS = {
    "mode": None,
    "seed": 0,
    "adaptive": True,
    "steering_deg": [0.0],
    "radar_heading_deg": 252.0,
    "noise_power": 1.0,
    "radar": {key: getattr(RadarParams(), name) for key, name in _RADAR_FIELDS.items()},
    "targets": [],
    "jammer": {
        "active": False,
        "azimuth_deg": 21.4,
        "jnr_db": 50.0,
    },
    "clutter": {
        "enabled": False,
        "n_range_bins": 12,
        "mean_power": 100.0,
    },
    "processing": {
        "window": "hann",
        "doppler_oversample": 1,
        "loading_db": 10.0,
        "pfa": 1.0e-4,
        "cfar_train": 16,
        "cfar_guard": 2,
        "detection_guard": 3,
        "music_grid_step_deg": 0.05,
        "music_window_bins": None,     # (range, doppler) half-widths
        "music_guard_bins": None,
        "music_sources": None,         # default by mode: t1 -> 1, t3 -> 2
        "assoc_tolerance_m": 1000.0,
    },
    "isar": {
        "n_dwells": 16,
        "window_halfwidth_bins": 24,
        "autofocus_order": 3,
        "autofocus_grid_points": 21,
        "autofocus_phase_span_rad": 32.0 * np.pi,
        "omega_for_scaling_rad_s": None,
        "image_window": "hann",
        "body": {
            "center_range_m": 1700.0,
            "azimuth_deg": 0.0,
            "rotation_rate_rad_s": 0.02,
            "translational_velocity_mps": 0.0,
            "scatterers": [[0.0, 0.0, 1.0]],
        },
    },
    "truth_tracks": None,
    "out_dir": None,
}

#: scenario key under ``targets[i]`` -> PointTarget field
_TARGET_FIELDS = {
    "range_m": "range_m",
    "radial_velocity_mps": "radial_velocity",
    "azimuth_deg": "azimuth_deg",
    "snr_db": "snr_db",
}

#: per-mode default MUSIC window half-widths (range, doppler)
_MUSIC_WINDOW_BY_MODE = {"t1": (4, 4), "t3": (3, 3)}


@dataclass
class ProcessingParams:
    """Resolved ``processing`` section; defaults live in ``_DEFAULTS``."""

    window: str
    doppler_oversample: int
    loading_db: float
    pfa: float
    cfar_train: int
    cfar_guard: int
    detection_guard: int
    music_grid_step_deg: float
    music_window_bins: tuple
    music_guard_bins: tuple | None
    music_sources: int | None
    assoc_tolerance_m: float


@dataclass
class IsarParams:
    """Resolved ``isar`` section; defaults live in ``_DEFAULTS``."""

    body: RigidBodyTarget
    n_dwells: int
    window_halfwidth_bins: int
    autofocus_order: int
    autofocus_grid_points: int
    autofocus_phase_span_rad: float
    omega_for_scaling_rad_s: float | None
    image_window: str


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description."""

    mode: str
    seed: int
    adaptive: bool
    steering_deg: tuple
    radar_heading_deg: float
    noise_power: float
    radar: RadarParams
    targets: tuple
    jammer: JammerSource | None
    clutter: ClutterBand
    processing: ProcessingParams
    isar: IsarParams | None
    truth_tracks: Path | None
    out_dir: Path | None
    tree: dict = field(repr=False, compare=False, default_factory=dict)

    def hash(self) -> str:
        return config_hash(self.tree)


def _walk_schema(tree, schema, prefix, unknown, errors):
    """Collect unknown keys, and sections that are not mappings, by dotted path."""
    for key, value in tree.items():
        if key not in schema:
            unknown.append(prefix + key)
        elif isinstance(schema[key], dict):
            if isinstance(value, dict):
                _walk_schema(value, schema[key], prefix + key + ".", unknown, errors)
            else:
                errors.append(f"{prefix}{key} must be a mapping, got {value!r}")


def _merge(defaults, overrides):
    out = copy.deepcopy(defaults)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _require(condition, message, errors):
    if not condition:
        errors.append(message)


def resolve_config(tree: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a raw configuration tree and build the typed config."""
    if not isinstance(tree, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown, errors = [], []
    _walk_schema(tree, _DEFAULTS, "", unknown, errors)
    target_list = tree.get("targets", [])
    if not isinstance(target_list, list):
        errors.append(f"targets must be a list, got {target_list!r}")
        target_list = []
    for i, tgt in enumerate(target_list):
        if not isinstance(tgt, dict):
            errors.append(f"targets[{i}] must be a mapping, got {tgt!r}")
            continue
        for key in tgt:
            if key not in _TARGET_FIELDS:
                unknown.append(f"targets[{i}].{key}")
    if unknown:
        errors.insert(0, "unknown configuration keys: " + ", ".join(sorted(unknown)))
    if errors:
        raise ConfigError("; ".join(errors))

    full = _merge(_DEFAULTS, tree)

    mode = full["mode"]
    _require(mode in MODES, f"mode must be one of {MODES}, got {mode!r}", errors)
    seed = full["seed"]
    _require(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
             "seed must be a non-negative integer", errors)
    if errors:
        raise ConfigError("; ".join(errors))

    try:
        # each value takes the type of its RadarParams default
        radar = RadarParams(**{
            name: type(_DEFAULTS["radar"][key])(full["radar"][key])
            for key, name in _RADAR_FIELDS.items()
        })
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"radar: {exc}") from None

    noise_power = float(full["noise_power"])
    _require(noise_power > 0.0, "noise_power must be positive", errors)

    steering = full["steering_deg"]
    if isinstance(steering, (int, float)):
        steering = [steering]
    _require(isinstance(steering, list) and len(steering) >= 1,
             "steering_deg must be a non-empty list", errors)
    if isinstance(steering, list):
        for i, s in enumerate(steering):
            try:
                angle = float(s)
            except (TypeError, ValueError):
                errors.append(f"steering_deg[{i}] must be a number, got {s!r}")
                continue
            _require(abs(angle) <= SECTOR_HALF_WIDTH_DEG,
                     f"steering angle {s} outside +/-{SECTOR_HALF_WIDTH_DEG} deg", errors)

    targets = []
    for i, tgt in enumerate(full["targets"]):
        try:
            values = {key: float(tgt.get(key, 0.0) if key == "radial_velocity_mps" else tgt[key])
                      for key in _TARGET_FIELDS}
            nonfinite = [f"targets[{i}].{key}" for key, v in values.items() if not np.isfinite(v)]
            if nonfinite:
                errors.append(", ".join(nonfinite) + " must be finite")
                continue
            target = PointTarget(**{_TARGET_FIELDS[key]: v for key, v in values.items()})
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"targets[{i}]: {exc}")
            continue
        _require(radar.r_min <= target.range_m <= radar.r_max,
                 f"targets[{i}] range {target.range_m} outside the receive window", errors)
        _require(abs(target.radial_velocity) <= radar.unambiguous_velocity,
                 f"targets[{i}] velocity {target.radial_velocity} aliases "
                 f"(|v| <= {radar.unambiguous_velocity:.3f} m/s)", errors)
        targets.append(target)

    jam_tree = full["jammer"]
    jammer = None
    if jam_tree["active"]:
        try:
            jammer = JammerSource(
                azimuth_deg=float(jam_tree["azimuth_deg"]),
                jnr_db=float(jam_tree["jnr_db"]),
                active=True,
            )
        except (TypeError, ValueError) as exc:
            errors.append(f"jammer: {exc}")
    if mode in ("t2", "t3"):
        _require(jam_tree["active"], f"mode {mode} requires jammer.active = true", errors)
    if mode in ("t1", "t4"):
        _require(not jam_tree["active"], f"mode {mode} requires jammer.active = false", errors)
    if mode in ("t1", "t3"):
        _require(len(full["targets"]) >= 1, f"mode {mode} requires at least one target", errors)

    try:
        clutter = ClutterBand(
            enabled=bool(full["clutter"]["enabled"]),
            n_range_bins=int(full["clutter"]["n_range_bins"]),
            mean_power=float(full["clutter"]["mean_power"]),
        )
    except (TypeError, ValueError) as exc:
        errors.append(f"clutter: {exc}")
        clutter = ClutterBand()

    proc_tree = full["processing"]
    music_window = proc_tree["music_window_bins"]
    if music_window is None:
        music_window = _MUSIC_WINDOW_BY_MODE.get(mode, (4, 4))
    music_guard = proc_tree["music_guard_bins"]
    processing = ProcessingParams(
        window=str(proc_tree["window"]).lower(),
        doppler_oversample=int(proc_tree["doppler_oversample"]),
        loading_db=float(proc_tree["loading_db"]),
        pfa=float(proc_tree["pfa"]),
        cfar_train=int(proc_tree["cfar_train"]),
        cfar_guard=int(proc_tree["cfar_guard"]),
        detection_guard=int(proc_tree["detection_guard"]),
        music_grid_step_deg=float(proc_tree["music_grid_step_deg"]),
        music_window_bins=tuple(int(b) for b in music_window),
        music_guard_bins=None if music_guard is None else tuple(int(b) for b in music_guard),
        music_sources=None if proc_tree["music_sources"] is None else int(proc_tree["music_sources"]),
        assoc_tolerance_m=float(proc_tree["assoc_tolerance_m"]),
    )
    _require(0.0 < processing.pfa < 1.0, "processing.pfa must lie in (0, 1)", errors)
    _require(processing.doppler_oversample >= 1,
             "processing.doppler_oversample must be >= 1", errors)
    _require(processing.cfar_train >= 1, "processing.cfar_train must be >= 1", errors)
    _require(processing.cfar_guard >= 0, "processing.cfar_guard must be >= 0", errors)
    _require(all(b >= 0 for b in processing.music_window_bins),
             "processing.music_window_bins must be non-negative", errors)
    _require(processing.music_grid_step_deg > 0.0,
             "processing.music_grid_step_deg must be positive", errors)
    if processing.music_sources is not None:
        _require(1 <= processing.music_sources <= 5,
                 "processing.music_sources must lie in [1, 5]", errors)

    isar_params = None
    if mode == "t4":
        isar_tree = full["isar"]
        body_tree = isar_tree["body"]
        try:
            body = RigidBodyTarget(
                center_range_m=float(body_tree["center_range_m"]),
                azimuth_deg=float(body_tree["azimuth_deg"]),
                rotation_rate=float(body_tree["rotation_rate_rad_s"]),
                translational_velocity=float(body_tree["translational_velocity_mps"]),
                scatterers=tuple(tuple(s) for s in body_tree["scatterers"]),
            )
        except (TypeError, ValueError) as exc:
            errors.append(f"isar.body: {exc}")
            body = None
        if body is not None:
            _require(body.rotation_rate != 0.0,
                     "isar.body.rotation_rate_rad_s must be nonzero", errors)
            order = int(isar_tree["autofocus_order"])
            _require(2 <= order <= 4, "isar.autofocus_order must lie in [2, 4]", errors)
            omega_scale = isar_tree["omega_for_scaling_rad_s"]
            isar_params = IsarParams(
                body=body,
                n_dwells=int(isar_tree["n_dwells"]),
                window_halfwidth_bins=int(isar_tree["window_halfwidth_bins"]),
                autofocus_order=order,
                autofocus_grid_points=int(isar_tree["autofocus_grid_points"]),
                autofocus_phase_span_rad=float(isar_tree["autofocus_phase_span_rad"]),
                omega_for_scaling_rad_s=None if omega_scale is None else float(omega_scale),
                image_window=str(isar_tree["image_window"]).lower(),
            )
            _require(isar_params.n_dwells >= 1, "isar.n_dwells must be >= 1", errors)

    truth = full["truth_tracks"]
    truth_path = None
    if truth is not None:
        truth_path = Path(truth)
        if base_dir is not None and not truth_path.is_absolute():
            truth_path = base_dir / truth_path
        _require(truth_path.is_file(), f"truth_tracks file not found: {truth_path}", errors)

    out_dir = Path(full["out_dir"]) if full["out_dir"] is not None else None

    if errors:
        raise ConfigError("; ".join(errors))

    return ExperimentConfig(
        mode=mode,
        seed=int(seed),
        adaptive=bool(full["adaptive"]),
        steering_deg=tuple(float(s) for s in steering),
        radar_heading_deg=float(full["radar_heading_deg"]),
        noise_power=noise_power,
        radar=radar,
        targets=tuple(targets),
        jammer=jammer,
        clutter=clutter,
        processing=processing,
        isar=isar_params,
        truth_tracks=truth_path,
        out_dir=out_dir,
        tree=_canonical_tree(full),
    )


def _canonical_tree(full: dict) -> dict:
    """Resolved tree with plain JSON-compatible scalar types."""

    def convert(node):
        if isinstance(node, dict):
            return {k: convert(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [convert(v) for v in node]
        if isinstance(node, (np.floating, np.integer)):
            return node.item()
        if isinstance(node, Path):
            return str(node)
        return node

    return convert(full)


def load_tree(path) -> dict:
    """Read a scenario file into its raw (unvalidated) tree."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario file {path} is not valid YAML: {exc}") from None
    return tree if tree is not None else {}


def load_config(path) -> ExperimentConfig:
    """Load and validate a scenario file."""
    path = Path(path)
    return resolve_config(load_tree(path), base_dir=path.parent)


def dump_config(cfg: ExperimentConfig, path) -> Path:
    """Write the fully resolved configuration tree as YAML."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(cfg.tree, fh, default_flow_style=False, sort_keys=True)
    return path


def config_hash(tree: dict) -> str:
    """SHA-256 of the canonical JSON rendering of a configuration tree."""
    canon = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
