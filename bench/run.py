"""Chain benchmark: one workload per invocation, closed loop, one caller.

    python3 bench/run.py --workload swath_t1 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each unit is one ``aesa-chain run`` of the workload's
bundled scenario with a seed derived from ``--seed``; the loop starts the
next unit when the previous one has been checked, until ``--seconds`` have
passed.  There is no queue, so no unit ever waits: the benchmark reports no
waiting time.

``--trace 0`` prints the end-to-end figures; the JSON result carries those
that BENCHMARK.json names.  ``unit_ref_p50`` divides each unit's wall time
by a fixed numpy-only reference kernel timed just before and after it, so
that the shared host's speed drifts cancel; raw wall time is printed too.
``--trace 1`` alternates untraced and traced units on the same seeds and
prints the per-layer metrics, the per-function split and the tracing
overhead; its spans go to ``.bench_out/spans/`` as JSON lines.  Every run
stores a result file with its facts under ``.bench_out/results/``, which
``bench/compare.py`` reads.  The last line of standard output is the
result as one JSON object.
"""

import argparse
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import facts  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402

OUT = ROOT / ".bench_out"

#: fresh interpreters timed per run for setup_s; their median discounts the
#: first start in a fresh checkout, which also compiles the bytecode cache
SETUP_RUNS = 3

#: every end-to-end figure a run prints, with its unit; BENCHMARK.json names
#: the ones the JSON result carries
FIGURES = {"unit_ref_p50": "ref", "unit_s_p50": "s", "msamples_per_s": "Msample/s",
           "peak_rss_mb": "MB", "setup_s": "s"}

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import aesa_chain; "
              "aesa_chain.load_config(sys.argv[2]); print('ready', flush=True)")

#: a fresh interpreter that is not ready by then has hung
SETUP_TIMEOUT_S = 60


def preflight() -> dict:
    """The benchmark definition, or exit when the checkout lacks the source."""
    missing = [p for p in ("BENCHMARK.json", "src/aesa_chain/__init__.py",
                           "configs/t1.yaml", "configs/t2.yaml", "configs/t4.yaml",
                           "configs/tracks.csv")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"bench: not a source checkout, missing {', '.join(missing)}")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_chain():
    sys.path.insert(0, str(ROOT / "src"))
    import aesa_chain

    if Path(aesa_chain.__file__).resolve().parent != ROOT / "src" / "aesa_chain":
        sys.exit(f"bench: imported aesa_chain from {aesa_chain.__file__}, "
                 f"not from this checkout")
    return aesa_chain


def time_setup(scenario: Path) -> float:
    """Seconds from starting a fresh interpreter to config loaded."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
                           str(scenario)], stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"bench: setup interpreter failed (exit {proc.returncode})")
    return elapsed


def report_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


class Loop:
    """Runs and checks units, keeping every outcome."""

    def __init__(self, chain, workload, scenario: Path, work: Path):
        self.chain = chain
        self.scenario = scenario
        self.work = work
        self.check = wl.CHECKS[workload.name]
        self.units = []      # dicts: seed, seconds, traced, ok, error
        self.quality = []
        self.samples = None

    def run(self, seed: int, traced: bool = False, keep: bool = False):
        """One timed unit and its check; returns the report dir if kept."""
        out_dir = self.work / f"unit-{len(self.units)}"
        unit = {"seed": seed, "traced": traced, "ok": False, "error": None}
        t0 = time.perf_counter()
        try:
            cfg = wl.run_unit(self.chain, self.scenario, seed, out_dir)
            unit["seconds"] = time.perf_counter() - t0
            q = self.check(cfg, out_dir)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            unit.setdefault("seconds", time.perf_counter() - t0)
            unit["error"] = f"{type(exc).__name__}: {exc}"
        else:
            unit["ok"] = True
            self.samples = wl.samples_per_unit(self.chain, cfg)
            if not traced:
                self.quality.append(q)
        self.units.append(unit)
        if not keep:
            shutil.rmtree(out_dir, ignore_errors=True)
        return unit, out_dir

    def timed(self, traced: bool = False) -> list:
        return [u for u in self.units
                if u["ok"] and u["traced"] == traced and not u.get("warmup")]

    def times(self, traced: bool = False) -> list:
        return [u["seconds"] for u in self.timed(traced)]


def end_to_end(loop: Loop, setup: list) -> dict:
    p50 = statistics.median(loop.times())
    return {
        "unit_ref_p50": statistics.median(u["seconds"] / u["ref_s"] for u in loop.timed()),
        "unit_s_p50": p50,
        "msamples_per_s": loop.samples / p50 / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(tracer, unit_ids) -> dict:
    """Per-function means, plus layer sums for names that are a layer."""
    values = tracer.per_unit(unit_ids)
    layers = {}
    for key, v in values.items():
        name, _, counter = key.rpartition(".")
        layer = name.split(".")[0]
        layers[f"{layer}.{counter}"] = layers.get(f"{layer}.{counter}", 0.0) + v
    return {**layers, **values}


def select(values: dict, wanted: list) -> dict:
    """The named metrics with their units; a counter never hit reads 0."""
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    definition = preflight()
    workload = wl.WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    try:
        scenario = wl.prepare_scenario(ROOT, workload, work)
        setup = []
        if not args.trace:
            setup = [time_setup(scenario) for _ in range(SETUP_RUNS)]
        chain = load_chain()
        result = measure(args, definition, chain, workload, scenario, work, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, definition, chain, workload, scenario, work, setup) -> dict:
    started = time.time()
    loop = Loop(chain, workload, scenario, work)
    seeds = wl.unit_seeds(workload.name, args.seed)
    shape, dwells = wl.unit_cube(chain, chain.load_config(scenario))
    repeats = max(dwells // 4, 1)
    reference = functools.partial(wl.reference_seconds, shape, repeats)
    # The untimed warm-up unit fills caches; the first timed unit repeats
    # its seed, and the two reports must match byte for byte.
    seed = next(seeds)
    unit, out_dir = loop.run(seed, keep=True)
    unit["warmup"] = True
    digest = report_digest(out_dir) if unit["ok"] else None
    shutil.rmtree(out_dir, ignore_errors=True)
    first = True

    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        reference()
        ref_before = reference()
    deadline = time.perf_counter() + args.seconds
    while True:
        unit, out_dir = loop.run(seed, keep=first)
        if tracer is None:
            # the reference kernel runs between units, so both neighbours
            # of a unit bracket the host speed it ran at
            ref_after = reference()
            unit["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
        if first:
            # None when either run failed: those failures are counted already
            deterministic = (report_digest(out_dir) == digest
                             if unit["ok"] and digest else None)
            shutil.rmtree(out_dir, ignore_errors=True)
            first = False
        if tracer is not None:
            tracer.unit = len(loop.units)
            uninstall = spans.install(tracer, chain)
            try:
                loop.run(seed, traced=True)
            finally:
                uninstall()
                tracer.unit = None
        if time.perf_counter() >= deadline:
            break
        seed = next(seeds)

    failed = sum(not u["ok"] for u in loop.units) + (deterministic is False)
    attempted = len(loop.units)
    times = loop.times()
    print(f"workload {workload.name}: seed {args.seed}, {len(times)} timed units "
          f"in a closed loop with one caller (no queue, so no waiting time)")
    same = {True: "identical", False: "DIFFERS", None: "not compared"}[deterministic]
    print(f"determinism: warm-up report {same} on its second run, sha256 {digest}")
    for u in loop.units:
        if u["error"]:
            print(f"FAILED unit seed {u['seed']}: {u['error']}")
    print(f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted} units)")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "started": started,
              "determinism_sha256": digest, "deterministic": deterministic,
              "units": loop.units}

    if not times or (args.trace and not loop.times(True)):
        sys.exit("bench: no unit passed its check, so there is nothing to report")
    if args.trace:
        traced_ids = [i for i, u in enumerate(loop.units) if u["traced"] and u["ok"]]
        values = per_layer(tracer, traced_ids)
        print_split(values)
        p50, p50_traced = statistics.median(times), statistics.median(loop.times(True))
        print(f"tracing overhead: traced unit_s_p50 {p50_traced:.6f} s - untraced "
              f"{p50:.6f} s = {p50_traced - p50:+.6f} s")
        record["per_function"] = values
        record["tracing_overhead_s"] = p50_traced - p50
        metrics = select(values, definition["per_layer"])
        path = OUT / "spans" / f"{workload.name}-seed{args.seed}-{time.time_ns()}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        values = end_to_end(loop, setup)
        metrics = select(values, definition["end_to_end"])
        for name, v in values.items():
            print(f"{name} = {v:.6f} {FIGURES[name]}")
        print(f"reference kernel: median {statistics.median(u['ref_s'] for u in loop.timed()):.6f} s "
              f"over {repeats} cube(s) of {shape}")
        record["figures"] = values
        t = stats.tail(times)
        if t is None:
            print(f"unit_s_tail: not reported, {len(times)} units leave fewer than "
                  f"{stats.TAIL_BEYOND} beyond any percentile from p{stats.TAIL_MIN_PERCENTILE}")
        else:
            print(f"unit_s_tail = {t[1]:.6f} s at p{t[0]} of {len(times)} units")
        q = wl.quality(workload.name, loop.quality)
        print(f"{workload.quality} = {q:.6f} over {len(loop.quality)} units")
        record.update(setup_s_runs=setup, tail=t, quality={workload.quality: q})

    record["metrics"] = metrics
    record["facts"] = {
        "machine": facts.machine(), "software": facts.software(),
        "git_commit": facts.git_commit(ROOT),
        "source_sha256": facts.tree_digest(ROOT, "src/**/*.py"),
        "scenario_sha256": facts.tree_digest(scenario.parent, "*"),
    }
    print("facts: " + json.dumps(record["facts"]))
    path = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_split(values: dict) -> None:
    """Per-function self time, calls and computed output bytes, largest first."""
    names = sorted({k.rpartition(".")[0] for k in values if k.count(".") >= 2},
                   key=lambda n: -values.get(f"{n}.self_s", 0.0))
    print(f"{'function':36s} {'self_s':>10s} {'calls':>8s} {'bytes_out':>12s}  extra")
    for n in names:
        extra = {k.rpartition(".")[2]: v for k, v in values.items()
                 if k.rpartition(".")[0] == n
                 and k.rpartition(".")[2] not in ("self_s", "calls", "bytes_out")}
        print(f"{n:36s} {values.get(n + '.self_s', 0.0):10.6f} "
              f"{values.get(n + '.calls', 0.0):8.1f} "
              f"{values.get(n + '.bytes_out', 0.0):12.0f}  "
              + " ".join(f"{k}={v:g}" for k, v in sorted(extra.items())))
    layers = sorted((k for k in values if k.count(".") == 1 and k.endswith(".self_s")),
                    key=lambda k: -values[k])
    print("layer self_s: " + ", ".join(f"{k[:-7]} {values[k]:.6f}" for k in layers))
    print("bytes_out is computed from the nbytes of the returned arrays")


if __name__ == "__main__":
    sys.exit(main())
