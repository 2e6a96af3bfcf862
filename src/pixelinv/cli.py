"""Command-line driver: ``pixelinv <experiment> [options]``.

Exit status is 0 on success, 1 when a property check fails, 2 on usage errors,
a failed solve (``SolverError``) or an input a study refuses (``ValueError``), which write no output.
The studies are imported inside :func:`main`, so that ``--help`` and a
usage error load neither numpy nor scipy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Each experiment and the function of ``pixelinv.experiments`` that runs it.
_RUNNERS = {
    "landscape": "run_residual_landscape",
    "nonuniqueness": "run_nonuniqueness_sweep",
    "stability": "run_stability_study",
    "properties": "run_property_suite",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pixelinv",
        description="Forward-operator experiments for pixel-based inverse diffusion",
    )
    parser.add_argument(
        "experiment",
        choices=list(_RUNNERS),
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
    from . import experiments
    from .linsolve import SolverError

    try:
        flags = {name: value for name, value in vars(args).items() if name != "config" and value is not None}
        config = experiments.load_config(args.config, **flags) if args.config else experiments.ExperimentConfig(**flags)
        out = config.out or ("properties.json" if args.experiment == "properties" else f"{args.experiment}.csv")
        if not Path(out).parent.is_dir():
            raise ValueError(f"out={out}: directory {Path(out).parent} does not exist")
        if Path(out).is_dir():
            raise ValueError(f"out={out} is a directory")
    except (OSError, ValueError) as err:
        print(f"pixelinv: bad config: {err}", file=sys.stderr)
        return 2

    try:
        result = getattr(experiments, _RUNNERS[args.experiment])(config)
    except (SolverError, ValueError) as err:
        print(f"pixelinv: {args.experiment} failed: {err}", file=sys.stderr)
        return 2

    if args.experiment == "properties":
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        for check in result["checks"]:
            state = "pass" if check["passed"] else "FAIL"
            print(f"{state}  {check['name']}: measured {check['measured']:.3e} "
                  f"(tolerance {check['tolerance']:.3e})")
        print(f"report written to {out}")
        return 0 if result["all_passed"] else 1

    experiments.write_csv(result, out)
    print(f"{len(result.rows)} rows written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
