"""Compare two result sets of the chain benchmark, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that ``bench/run.py`` writes under
``.bench_out/results/``.  Untraced runs are grouped by workload and paired
in the order they started, so run parent and change alternately.  One row
per workload and end-to-end metric shows each side's median and quartiles,
the fraction of pairs the change wins and the verdict (see stats.verdict).
Raw ``unit_s_p50`` gets a row as well.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

#: raw wall time, compared besides the BENCHMARK.json metrics; on a shared
#: host its run-to-run spread often exceeds the bound, so expect "unresolved"
WALL = {"name": "unit_s_p50", "unit": "s", "better": "lower", "bound": 0.25}


def load(directory) -> dict:
    """workload -> runs (untraced, oldest first) of one result set."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0 and record.get("figures"):
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started"])
    return runs


def rows(parent: dict, change: dict, metrics: list) -> list:
    out = []
    for workload in sorted(set(parent) & set(change)):
        for m in metrics:
            name = m["name"]
            p = [r["figures"][name] for r in parent[workload]]
            c = [r["figures"][name] for r in change[workload]]
            win, verdict = stats.verdict(p, c, m["better"], m["bound"])
            out.append((workload, name, m["unit"], stats.quartiles(p),
                        stats.quartiles(c), len(p), len(c), win, verdict))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    definition = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    if not set(parent) & set(change):
        sys.exit("compare: the two result sets share no workload")
    print(f"{'workload':10s} {'metric':15s} {'unit':10s} "
          f"{'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} {'n':>5s} "
          f"{'wins':>5s}  verdict")
    for wl, name, unit, pq, cq, np_, nc, win, verdict in rows(
            parent, change, definition["end_to_end"] + [WALL]):
        print(f"{wl:10s} {name:15s} {unit:10s} "
              f"{'/'.join(f'{v:.4g}' for v in pq):>32s} "
              f"{'/'.join(f'{v:.4g}' for v in cq):>32s} {np_:>2d}/{nc:<2d} "
              f"{win:5.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
