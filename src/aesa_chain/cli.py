"""Command line front end.

``aesa-chain run`` loads a scenario file, applies any command-line overrides,
runs the selected chain test, and writes the report artifacts into the output
directory.

Exit codes: 0 on success, 2 on a configuration problem, 3 on a numerical
failure (an ill-conditioned covariance, too few snapshots for an estimate).
"""

import argparse
import logging
import sys
from pathlib import Path

from .config import MODES, load_tree, resolve_config
from .errors import ConfigError, EstimationError, NumericalError
from .experiments import run_experiment, write_report
from .version import __version__

log = logging.getLogger("aesa_chain")


def _steer_list(text: str) -> list:
    """Comma-separated steering angles; use --steer=-20,-10 for a leading minus."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated angle list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("steering list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aesa-chain",
        description="Subarrayed phased-array processing chain test harness.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one chain test and write its report")
    run.add_argument("--scenario", required=True,
                     help="scenario description file (YAML)")
    run.add_argument("--mode", choices=MODES,
                     help="override the scenario mode")
    run.add_argument("--seed", type=int, help="override the random seed")
    run.add_argument("--out", help="output directory (default: scenario out_dir)")
    run.add_argument("--adaptive", choices=("on", "off"),
                     help="override adaptive (MVDR) processing")
    run.add_argument("--steer", type=_steer_list, metavar="A,B,...",
                     help="override steering angles in degrees "
                          "(write --steer=-20,-10 when the first is negative)")
    run.add_argument("--dump-geometry", action="store_true",
                     help="also write the element position table (geometry.csv)")
    run.add_argument("--emit-raw", action="store_true",
                     help="also write the raw per-channel cube of the first dwell")
    run.set_defaults(handler=_cmd_run)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    tree = load_tree(args.scenario)
    if not isinstance(tree, dict):
        raise ConfigError("scenario root must be a mapping")
    if args.mode is not None:
        tree["mode"] = args.mode
    if args.seed is not None:
        tree["seed"] = args.seed
    if args.adaptive is not None:
        tree["adaptive"] = args.adaptive == "on"
    if args.steer is not None:
        tree["steering_deg"] = args.steer
    cfg = resolve_config(tree, base_dir=Path(args.scenario).parent)

    out_dir = Path(args.out) if args.out is not None else cfg.out_dir
    if out_dir is None:
        raise ConfigError("no output directory: pass --out or set out_dir "
                          "in the scenario file")

    log.info("running mode %s, seed %d, config %s",
             cfg.mode, cfg.seed, cfg.hash()[:12])
    report = run_experiment(cfg, emit_raw=args.emit_raw)
    written = write_report(report, out_dir, dump_geometry=args.dump_geometry)
    log.info("wrote %d artifacts to %s", len(written), out_dir)
    print(out_dir / "summary.txt")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except (EstimationError, NumericalError) as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
