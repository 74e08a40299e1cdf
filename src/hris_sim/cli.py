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


def main(argv=None) -> int:
    # log verbosity comes from the environment so scripted runs stay quiet
    logging.basicConfig(
        level=os.environ.get("HRIS_SIM_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)

    if args.command == "init-config":
        path = save_scenario(Scenario(), args.out)
        print(f"wrote default scenario to {path}")
        return 0

    try:
        scenario = load_scenario(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.drops is not None:
            overrides["n_drops"] = args.drops
        if overrides:
            scenario = replace(scenario, **overrides)
        report = _EXPERIMENTS[args.experiment](scenario, workers=args.workers)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    written = emit_csv(report, out_dir)
    save_scenario(scenario, out_dir / "scenario.json")
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
