"""Experiment configuration: YAML schema, validation and hashing.

Scenario files are a UTF-8 YAML key-value tree described by one table,
``_SCHEMA``: each leaf has a default, a converter and an optional rule.  One
walk rejects unknown keys, sections that are not mappings, values that do not
convert and broken rules by dotted path; missing keys take defaults.  The
scene dataclasses then check their own values, and mode-specific consistency
is enforced (t2/t3 require an active jammer, t1/t4 require none; t1/t3 need
at least one target).
The configuration hash is the SHA-256 of the canonical JSON rendering of the
converted tree (every schema key, its default where the scenario gives none,
each value as its converter returns it), so two spellings of one value hash alike.
"""

import hashlib
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .detect import cfar_window_cells
from .errors import ConfigError
from .geometry import SECTOR_HALF_WIDTH_DEG
from .isar import MIN_IMAGING_SAMPLES
from .rdproc import WINDOWS
from .scene import (ClutterBand, JammerSource, PointTarget, RadarParams,
                    RigidBodyTarget)

MODES = ("t1", "t2", "t3", "t4")

#: scenario key -> scene dataclass field, where the two differ
_FIELD_OF = {
    "wavelength_m": "wavelength",
    "bandwidth_hz": "bandwidth",
    "pulse_width_s": "pulse_width",
    "prf_hz": "prf",
    "sample_rate_hz": "sample_rate",
    "r_min_m": "r_min",
    "r_max_m": "r_max",
    "radial_velocity_mps": "radial_velocity",
    "rotation_rate_rad_s": "rotation_rate",
    "translational_velocity_mps": "translational_velocity",
}


def _fail(path, need, value):
    raise ValueError(f"{path} must be {need}, got {value!r}")


# Converters: (raw value, dotted path) -> typed value, or a ValueError that
# names the path.  Numbers may be given as strings ("2e-6"); booleans are not
# numbers.  ``_real`` lets non-finite values through to the scene dataclasses,
# which reject them in their own terms.

def _real(value, path, need="a number"):
    try:
        if not isinstance(value, bool) and isinstance(value, (numbers.Real, str)):
            return float(value)
    except (OverflowError, ValueError):
        pass
    _fail(path, need, value)


def _finite(value, path):
    number = _real(value, path)
    if not np.isfinite(number):
        _fail(path, "finite", value)
    return number


def _int(value, path):
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    number = _real(value, path, "an integer")
    if not number.is_integer():
        _fail(path, "an integer", value)
    return int(number)


def _bool(value, path):
    if not isinstance(value, bool):
        _fail(path, "true or false", value)
    return value


def _name(names, fold=str):
    """Converter to one of ``names``, compared after ``fold``."""
    def to_name(value, path):
        if not isinstance(value, str) or fold(value) not in names:
            _fail(path, f"one of {sorted(names)}", value)
        return fold(value)
    return to_name


def _tuple_of(convert, length=None, need="a non-empty list"):
    """Converter of a non-empty list, of ``length`` items if given, each taken by ``convert``."""
    def to_tuple(value, path):
        if not isinstance(value, (list, tuple)) or not value or length not in (None, len(value)):
            _fail(path, need, value)
        return tuple(convert(item, f"{path}[{i}]") for i, item in enumerate(value))
    return to_tuple


def _angles(value, path):
    """One angle or a non-empty list of angles, degrees."""
    return _tuple_of(_finite)(value if isinstance(value, (list, tuple)) else [value], path)


def _path(value, path):
    if not isinstance(value, (str, Path)):
        _fail(path, "a path", value)
    return Path(value)


#: default of a leaf the scenario must give
_REQUIRED = object()


class _Leaf(NamedTuple):
    default: object
    convert: Callable
    rule: tuple | None = None  # (predicate on the converted value, what it must be)


_AT_LEAST_1 = (lambda v: v >= 1, "be >= 1")
_NON_NEGATIVE = (lambda v: v >= 0, "be >= 0")
_POSITIVE = (lambda v: v > 0.0, "be positive")
_NON_NEGATIVE_PAIR = (lambda bins: min(bins) >= 0, "be non-negative")
_PAIR = _tuple_of(_int, 2, "a [range, doppler] pair")

#: The scenario format.  A dict is a section, a one-element list a list of
#: such sections, a ``_Leaf`` a value.  A leaf whose default is None may be
#: null; one whose default is ``_REQUIRED`` must be given.
_SCHEMA = {
    "mode": _Leaf(_REQUIRED, _name(MODES)),
    # seed + dwell index keys a Philox generator, whose keys stay below 2**128
    "seed": _Leaf(0, _int, (lambda s: 0 <= s < 2**64, "lie in [0, 2**64)")),
    "adaptive": _Leaf(True, _bool),
    "steering_deg": _Leaf([0.0], _angles, (
        lambda angles: max(map(abs, angles)) <= SECTOR_HALF_WIDTH_DEG,
        f"lie within +/-{SECTOR_HALF_WIDTH_DEG} deg")),
    "radar_heading_deg": _Leaf(252.0, _finite),
    "noise_power": _Leaf(1.0, _finite, _POSITIVE),
    "radar": {key: _Leaf(getattr(RadarParams(), _FIELD_OF.get(key, key)),
                         _int if key == "n_pulses" else _real)
              for key in ("wavelength_m", "bandwidth_hz", "pulse_width_s", "prf_hz",
                          "n_pulses", "sample_rate_hz", "r_min_m", "r_max_m")},
    "targets": [{
        "range_m": _Leaf(_REQUIRED, _finite),
        "radial_velocity_mps": _Leaf(0.0, _finite),
        "azimuth_deg": _Leaf(_REQUIRED, _finite),
        "snr_db": _Leaf(_REQUIRED, _finite),
    }],
    "jammer": {
        "active": _Leaf(False, _bool),
        "azimuth_deg": _Leaf(21.4, _real),
        "jnr_db": _Leaf(50.0, _real),
    },
    "clutter": {
        "enabled": _Leaf(False, _bool),
        "n_range_bins": _Leaf(12, _int),
        "mean_power": _Leaf(100.0, _real),
    },
    "processing": {
        "window": _Leaf("hann", _name(WINDOWS, str.lower)),
        "doppler_oversample": _Leaf(1, _int, _AT_LEAST_1),
        "loading_db": _Leaf(10.0, _finite),
        "pfa": _Leaf(1.0e-4, _finite, (lambda p: 0.0 < p < 1.0, "lie in (0, 1)")),
        "cfar_train": _Leaf(16, _int, _AT_LEAST_1),
        "cfar_guard": _Leaf(2, _int, _NON_NEGATIVE),
        "detection_guard": _Leaf(3, _int, _NON_NEGATIVE),
        "music_grid_step_deg": _Leaf(0.05, _finite, _POSITIVE),
        "music_window_bins": _Leaf(None, _PAIR, _NON_NEGATIVE_PAIR),  # default by mode
        "music_guard_bins": _Leaf(None, _PAIR, _NON_NEGATIVE_PAIR),
        "music_sources": _Leaf(None, _int, (lambda n: 1 <= n <= 5, "lie in [1, 5]")),
        "assoc_tolerance_m": _Leaf(1000.0, _finite, _NON_NEGATIVE),
    },
    "isar": {
        "n_dwells": _Leaf(16, _int, _AT_LEAST_1),
        # the range axis of the image history needs two bins at least
        "window_halfwidth_bins": _Leaf(24, _int, _AT_LEAST_1),
        "autofocus_order": _Leaf(3, _int, (lambda n: 2 <= n <= 4, "lie in [2, 4]")),
        "omega_for_scaling_rad_s": _Leaf(None, _finite, _POSITIVE),
        "image_window": _Leaf("hann", _name(WINDOWS, str.lower)),
        "body": {
            "center_range_m": _Leaf(1700.0, _real),
            "azimuth_deg": _Leaf(0.0, _real),
            "rotation_rate_rad_s": _Leaf(0.02, _real, (lambda w: w != 0.0, "be nonzero")),
            "translational_velocity_mps": _Leaf(0.0, _real),
            "scatterers": _Leaf([[0.0, 0.0, 1.0]], _tuple_of(_tuple_of(
                _real, 3, "a [down_range_m, cross_range_m, amplitude] triple"))),
        },
    },
    "truth_tracks": _Leaf(None, _path),
    "out_dir": _Leaf(None, _path),
}


#: per-mode default MUSIC window half-widths (range, doppler)
_MUSIC_WINDOW_BY_MODE = {"t1": (4, 4), "t3": (3, 3)}


@dataclass
class ProcessingParams:
    """Resolved ``processing`` section; defaults live in ``_SCHEMA``."""

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
    """Resolved ``isar`` section; defaults live in ``_SCHEMA``."""

    body: RigidBodyTarget
    n_dwells: int
    window_halfwidth_bins: int
    autofocus_order: int
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


def _walk(node, schema: dict, path: str, errors: list) -> dict | None:
    """Converted values of one section, defaults filled in.

    Unknown keys, sections that are not mappings, values that do not convert
    and broken rules are appended to ``errors`` by dotted path.
    """
    if not isinstance(node, dict):
        errors.append(f"{path} must be a mapping, got {node!r}")
        return None
    prefix = f"{path}." if path else ""
    errors.extend(f"unknown configuration key {prefix}{key}" for key in node if key not in schema)
    values = {}
    for key, spec in schema.items():
        where = prefix + key
        if isinstance(spec, dict):
            values[key] = _walk(node.get(key, {}), spec, where, errors)
        elif isinstance(spec, list):
            items = node.get(key, [])
            if not isinstance(items, list):
                errors.append(f"{where} must be a list, got {items!r}")
                continue
            values[key] = [_walk(item, spec[0], f"{where}[{i}]", errors)
                           for i, item in enumerate(items)]
        else:
            value = node.get(key, spec.default)
            if value is _REQUIRED:
                errors.append(f"{where} is required")
            elif value is None and spec.default is None:
                values[key] = None
            else:
                try:
                    values[key] = value = spec.convert(value, where)
                except ValueError as exc:
                    errors.append(str(exc))
                    continue
                if spec.rule is not None and not spec.rule[0](value):
                    errors.append(f"{where} must {spec.rule[1]}")
    return values


def _build(section: str, cls, values: dict, errors: list):
    """A scene dataclass from converted values; its own checks report as ``section: ...``."""
    try:
        return cls(**{_FIELD_OF.get(key, key): value for key, value in values.items()})
    except ValueError as exc:
        errors.append(f"{section}: {exc}")
        return None


def resolve_config(tree: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a raw configuration tree and build the typed config."""
    if not isinstance(tree, dict):
        raise ConfigError("configuration root must be a mapping")
    errors = []
    values = _walk(tree, _SCHEMA, "", errors)
    if errors:
        raise ConfigError("; ".join(errors))
    # the hashed tree: each value as converted, however the scenario spelled it,
    # taken before the mode defaults and the pops below change ``values``
    resolved = _canonical_tree(values)

    mode, jam, proc, isar = (values[key] for key in ("mode", "jammer", "processing", "isar"))
    radar = _build("radar", RadarParams, values["radar"], errors)
    targets = [_build(f"targets[{i}]", PointTarget, tgt, errors)
               for i, tgt in enumerate(values["targets"])]
    for i, target in enumerate(targets):
        if radar is None or target is None:
            continue
        if not radar.r_min <= target.range_m <= radar.r_max:
            errors.append(f"targets[{i}] range {target.range_m} outside the receive window")
        if abs(target.radial_velocity) > radar.unambiguous_velocity:
            errors.append(f"targets[{i}] velocity {target.radial_velocity} aliases "
                          f"(|v| <= {radar.unambiguous_velocity:.3f} m/s)")
    # an inactive jammer is no jammer (None), so its values go unchecked
    jam_active = jam.pop("active")
    if mode in ("t2", "t3") and not jam_active:
        errors.append(f"mode {mode} requires jammer.active = true")
    if mode in ("t1", "t4") and jam_active:
        errors.append(f"mode {mode} requires jammer.active = false")
    if mode in ("t1", "t3") and not targets:
        errors.append(f"mode {mode} requires at least one target")
    # t4 falls back to the strongest range bin when the CFAR window does not fit
    cfar_cells = cfar_window_cells(proc["cfar_train"], proc["cfar_guard"])
    if mode != "t4" and radar is not None and cfar_cells > radar.n_range_bins:
        errors.append(f"processing.cfar_train: a CFAR window of {cfar_cells} range cells "
                      f"exceeds the {radar.n_range_bins} range bins of the receive window")
    if proc["music_window_bins"] is None:
        proc["music_window_bins"] = _MUSIC_WINDOW_BY_MODE.get(mode, (4, 4))
    body = isar.pop("body")
    if (mode == "t4" and body["rotation_rate_rad_s"] < 0.0
            and isar["omega_for_scaling_rad_s"] is None):
        errors.append("isar.body.rotation_rate_rad_s must be positive when "
                      "isar.omega_for_scaling_rad_s does not set the cross-range scale")
    body = _build("isar.body", RigidBodyTarget, body, errors)
    if (mode == "t4" and radar is not None
            and isar["n_dwells"] * radar.n_pulses < MIN_IMAGING_SAMPLES):
        errors.append(f"isar.n_dwells * radar.n_pulses must be >= {MIN_IMAGING_SAMPLES}")
    truth = values["truth_tracks"]
    if truth is not None:
        if base_dir is not None and not truth.is_absolute():
            truth = base_dir / truth
        if not truth.is_file():
            errors.append(f"truth_tracks file not found: {truth}")
    values.update(
        radar=radar,
        targets=tuple(targets),
        jammer=_build("jammer", JammerSource, jam, errors) if jam_active else None,
        clutter=_build("clutter", ClutterBand, values["clutter"], errors),
        processing=ProcessingParams(**proc),
        isar=IsarParams(body=body, **isar) if mode == "t4" else None,
        truth_tracks=truth,
    )
    if errors:
        raise ConfigError("; ".join(errors))
    return ExperimentConfig(**values, tree=resolved)


def _canonical_tree(full: dict) -> dict:
    """A new copy of a converted tree in plain JSON types: lists for tuples, numpy
    scalars and paths as the numbers and strings they hold."""
    return json.loads(json.dumps(full, default=lambda v: v.item() if isinstance(v, np.generic)
                                 else str(v)))


def _duplicate_key(root) -> str | None:
    """Where a key is repeated within one mapping of a YAML node tree, by dotted
    path and line, or None; a node reached again through an alias is walked once."""
    stack, walked = [("", root)], set()
    while stack:
        path, node = stack.pop()
        if not isinstance(node, yaml.CollectionNode) or id(node) in walked:
            continue
        walked.add(id(node))
        if isinstance(node, yaml.SequenceNode):
            stack += [(f"{path}[{i}]", item) for i, item in enumerate(node.value)]
            continue
        keys = set()
        for key, child in node.value:
            where = f"{path}.{key.value}" if path else str(key.value)
            if (key.tag, str(key.value)) in keys:
                return f"duplicate key {where} at line {key.start_mark.line + 1}"
            keys.add((key.tag, str(key.value)))
            stack.append((where, child))
    return None


def load_tree(path) -> dict:
    """Read a scenario file into its raw (unvalidated) tree; a repeated key is an error."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    try:
        loader = yaml.SafeLoader(text)
        node = loader.get_single_node()
        if duplicate := _duplicate_key(node):
            raise ConfigError(f"scenario file {path}: {duplicate}")
        tree = loader.construct_document(node) if node is not None else None
    except (yaml.YAMLError, RecursionError) as exc:  # RecursionError: nesting too deep
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
