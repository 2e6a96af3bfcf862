"""Command-line driver: ``pixelinv <experiment> [options]``.

Exit status is 0 on success, 1 when a property check fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    load_config,
    run_nonuniqueness_sweep,
    run_property_suite,
    run_residual_landscape,
    run_stability_study,
    write_csv,
)

_RUNNERS = {
    "nonuniqueness": run_nonuniqueness_sweep,
    "landscape": run_residual_landscape,
    "stability": run_stability_study,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pixelinv",
        description="Forward-operator experiments for pixel-based inverse diffusion",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_RUNNERS) + ["properties"],
        help="which study to run",
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--out", help="output path (CSV, or JSON for properties)")
    parser.add_argument("--nx", type=int, help="pixels per side")
    parser.add_argument("--k", type=int, help="mesh elements per pixel side")
    parser.add_argument("--seed", type=int, help="random seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        config.experiment = args.experiment
        if args.nx is not None:
            config.nx = args.nx
        if args.k is not None:
            config.k = args.k
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.out = args.out
        config.validate()
        out = config.out or ("properties.json" if args.experiment == "properties" else f"{args.experiment}.csv")
        if not Path(out).parent.is_dir():
            raise ValueError(f"out={out}: directory {Path(out).parent} does not exist")
    except (OSError, ValueError) as err:
        print(f"pixelinv: bad config: {err}", file=sys.stderr)
        return 2

    if args.experiment == "properties":
        report = run_property_suite(config)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        for check in report["checks"]:
            state = "pass" if check["passed"] else "FAIL"
            print(f"{state}  {check['name']}: measured {check['measured']:.3e} "
                  f"(tolerance {check['tolerance']:.3e})")
        print(f"report written to {out}")
        return 0 if report["all_passed"] else 1

    result = _RUNNERS[args.experiment](config)
    write_csv(result, out)
    print(f"{len(result.rows)} rows written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
