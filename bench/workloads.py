"""The benchmark's workloads: scenario, seed range and output check each.

One unit is the work behind one ``aesa-chain run --seed N``: read the
scenario tree, override its seed, ``resolve_config``, ``run_experiment`` and
``write_report`` into a fresh directory.  The check then reads the written
report back, so a tampered or truncated report fails it.
"""

import csv
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: the associated truth track of the t1 target (configs/tracks.csv)
T1_TRACK = "Stelio Montomoli"

#: seed spacing between units; t4 keys dwell d with seed + d, so units
#: stay apart by more than any dwell count
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # bundled scenario file under configs/
    quality: str           # name of the per-workload quality figure


WORKLOADS = {
    w.name: w for w in (
        Workload("swath_t1", "t1.yaml", "az_rms_deg"),
        Workload("jammer_t2", "t2.yaml", "rejection_db_mean"),
        Workload("isar_t4", "t4.yaml", "focus_contrast"),
    )
}


def unit_seeds(workload: str, seed: int):
    """Endless unit seeds derived from the benchmark seed and workload."""
    base = random.Random(f"{workload}/{seed}").randrange(1, 2**30)
    k = 0
    while True:
        yield base + k * SEED_STRIDE
        k += 1


def prepare_scenario(root: Path, workload: Workload, work: Path) -> Path:
    """Copy the bundled scenario (and the truth tracks it names) into
    ``work``; the program reads only this copy."""
    scen = work / "scenario"
    scen.mkdir(parents=True, exist_ok=True)
    for name in (workload.scenario, "tracks.csv"):
        shutil.copyfile(root / "configs" / name, scen / name)
    return scen / workload.scenario


def run_unit(chain, scenario: Path, seed: int, out_dir: Path):
    """One ``aesa-chain run``: returns the resolved config."""
    tree = chain.load_tree(scenario)
    tree["seed"] = seed
    cfg = chain.resolve_config(tree, base_dir=scenario.parent)
    chain.write_report(chain.run_experiment(cfg), out_dir)
    return cfg


def read_summary(out_dir: Path) -> dict:
    out = {}
    for line in (out_dir / "summary.txt").read_text().splitlines()[1:]:
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class CheckFailed(Exception):
    pass


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_t1(cfg, out_dir: Path) -> float:
    """Detection, bearing and track association; returns the angular error."""
    s = read_summary(out_dir)
    tgt = cfg.targets[0]
    radar = cfg.radar
    rbin = radar.range_bin_m
    vbin = radar.prf / (radar.n_pulses * cfg.processing.doppler_oversample) \
        * radar.wavelength / 2.0
    near = [d for d in read_csv(out_dir / "detections.csv")
            if abs(float(d["range_m"]) - tgt.range_m) <= rbin
            and abs(float(d["radial_velocity_mps"]) - tgt.radial_velocity) <= vbin]
    _need(bool(near), "no detection within one bin of the target")
    az = float(s["azimuth_estimate_deg"])
    _need(abs(az - tgt.azimuth_deg) <= 0.5, f"azimuth {az:.3f} deg off target")
    _need(s.get("track_name") == T1_TRACK, f"track {s.get('track_name')!r}")
    _need(s.get("within_target") == "true", "estimate not within the target span")
    return float(s["angular_error_deg"])


def check_t2(cfg, out_dir: Path) -> float:
    """Criterion 1: average >= 25 dB, >= 28 dB at 4 of 5 steers."""
    s = read_summary(out_dir)
    rej = [float(r["rejection_db"]) for r in read_csv(out_dir / "rejection.csv")]
    avg = float(s["average_rejection_db"])
    _need(len(rej) == 5, f"{len(rej)} steering angles")
    _need(math.isclose(avg, sum(rej) / len(rej), abs_tol=1e-5),
          "average does not match the per-steer table")
    _need(avg >= 25.0, f"average rejection {avg:.2f} dB")
    _need(sum(r >= 28.0 for r in rej) >= 4, f"per-steer rejection {rej}")
    return avg


def check_t4(cfg, out_dir: Path) -> float:
    """The three strongest image peaks sit on the body's three scatterers,
    each within one range and one cross-range bin; focus never worsens."""
    s = read_summary(out_dir)
    before = float(s["contrast_before_autofocus"])
    after = float(s["contrast_after_autofocus"])
    _need(after >= before, f"contrast fell {before:.3f} -> {after:.3f}")
    rows = sorted(read_csv(out_dir / "scatterers.csv"),
                  key=lambda r: float(r["relative_db"]), reverse=True)[:3]
    body = cfg.isar.body
    rbin = cfg.radar.range_bin_m
    xbin = float(s["cross_range_bin_m"])
    free = [(float(r["range_m"]), float(r["cross_range_m"])) for r in rows]
    for down, cross, _amp in body.scatterers:
        want_r = body.center_range_m + down
        match = [p for p in free
                 if abs(p[0] - want_r) <= rbin + 1e-6 and abs(p[1] - cross) <= xbin + 1e-6]
        _need(bool(match), f"no peak near scatterer ({down}, {cross})")
        free.remove(match[0])
    return after


CHECKS = {"swath_t1": check_t1, "jammer_t2": check_t2, "isar_t4": check_t4}


def quality(workload: str, values: list) -> float:
    """Per-workload quality figure over the checked units."""
    if not values:
        return math.nan
    if workload == "swath_t1":
        return math.sqrt(sum(v * v for v in values) / len(values))
    return sum(values) / len(values)


def unit_cube(chain, cfg) -> tuple:
    """(channels, fast-time samples, pulses) of one dwell, and dwells per unit."""
    n_ch = chain.ArrayGeometry.demonstrator(cfg.radar.wavelength).n_subarrays
    dwells = cfg.isar.n_dwells if cfg.mode == "t4" else 1
    return (n_ch, cfg.radar.n_fast, cfg.radar.n_pulses), dwells


def samples_per_unit(chain, cfg) -> int:
    """Raw complex samples: channels x fast time x pulses x dwells."""
    shape, dwells = unit_cube(chain, cfg)
    return math.prod(shape) * dwells


#: generator key of the reference kernel's draws
REFERENCE_KEY = 20260101


def reference_seconds(shape: tuple, repeats: int) -> float:
    """Wall seconds of a fixed numpy-only kernel on cubes of ``shape``.

    It repeats the chain's three bulk operations: a complex Gaussian draw,
    an FFT along fast time and broadcast adds over the cube.  Unit times are
    divided by it, measured around each unit, so that the host's speed
    drifts cancel; the package's own code never runs in it.
    """
    rng = np.random.Generator(np.random.Philox(REFERENCE_KEY))
    ramp = np.linspace(0.0, 1.0, shape[1])[None, :, None]
    t0 = time.perf_counter()
    for _ in range(repeats):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = np.fft.fft(x, axis=1)
        for _ in range(4):
            x += ramp
    return time.perf_counter() - t0
