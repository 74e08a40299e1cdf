"""Command-line entry point: ``hris-sim run`` and ``hris-sim init-config``."""

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .runner import (emit_csv, run_battery_experiment, run_energy_experiment,
                     run_sumrate_experiment)
from .scenario import (Scenario, ScenarioError, load_scenario, save_scenario)

_EXPERIMENTS = {
    "sumrate": run_sumrate_experiment,
    "energy": run_energy_experiment,
    "battery": run_battery_experiment,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hris-sim",
        description="Monte-Carlo simulator of a self-configuring, "
                    "energy-harvesting hybrid RIS")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and emit CSV files")
    run_p.add_argument("--config", required=True, help="scenario JSON file")
    run_p.add_argument("--experiment", required=True,
                       choices=sorted(_EXPERIMENTS))
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--drops", type=int,
                       help="override the scenario drop count")
    run_p.add_argument("--workers", type=int, default=1,
                       help="parallel drop workers (default 1)")

    init_p = sub.add_parser("init-config",
                            help="write the default scenario file")
    init_p.add_argument("--out", required=True, help="destination JSON path")
    return parser


def _run(args):
    """(scenario, report) of a run, or a ScenarioError before any drop runs."""
    # the nearest existing path up from --out must be a directory
    out = Path(args.out)
    found = next(p for p in (out, *out.parents) if p.exists())
    if not found.is_dir():
        raise ScenarioError(f"--out {out}: {found} is not a directory")
    scenario = load_scenario(args.config)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.drops is not None:
        scenario = replace(scenario, n_drops=args.drops)
    return scenario, _EXPERIMENTS[args.experiment](scenario, workers=args.workers)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        # log verbosity comes from the environment so scripted runs stay quiet
        level = os.environ.get("HRIS_SIM_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):
            raise ScenarioError(f"HRIS_SIM_LOG={level} is not a log level")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        if args.command == "run":
            scenario, report = _run(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "init-config":
            print(f"wrote default scenario to {save_scenario(Scenario(), out)}")
            return 0
        written = emit_csv(report, out)
        save_scenario(scenario, out / "scenario.json")
    except OSError as exc:
        print(f"configuration error: --out {out}: {exc.strerror}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
