"""Command-line front end for the benchmark, planning, and scenario runners."""

from __future__ import annotations

import argparse
import sys

from . import bench
from .errors import QuadkitError


def _add_common(parser, transcript_default):
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument("--provider", choices=("scripted", "live"), default="scripted")
    parser.add_argument("--transcript", default=None,
                        help=f"scripted transcript file ({transcript_default})")
    parser.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadkit",
                                     description="Quadruped agent toolkit experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_adapt = sub.add_parser("adapt", help="locomotion-adaptation benchmark")
    _add_common(p_adapt, "defaults to the bundled benchmark transcript")
    p_adapt.add_argument("--runs", type=int, default=10)
    p_adapt.add_argument("--terrains", default=",".join(bench.DEFAULT_TERRAINS),
                         help="comma-separated terrain names")
    p_adapt.add_argument("--variants", default=",".join(bench.DEFAULT_VARIANTS),
                         help="comma-separated variant names")
    p_adapt.add_argument("--noise-scale", type=float, default=None)
    p_adapt.add_argument("--manual-params", default=None,
                         help="params file for the manual variant")

    p_plan = sub.add_parser("plan", help="cost-map path planning on a scene")
    _add_common(p_plan, "required with --provider scripted")
    p_plan.add_argument("--scene", required=True)
    p_plan.add_argument("--instruction", required=True)
    p_plan.add_argument("--no-cost", action="store_true",
                        help="ablation: plan with all costs zeroed")

    p_task = sub.add_parser("task", help="long-horizon scenario execution")
    _add_common(p_task, "defaults to the scenario's transcript")
    p_task.add_argument("--scenario", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "adapt":
            rows = bench.cmd_adapt(
                terrains=[t for t in args.terrains.split(",") if t],
                variants=[v for v in args.variants.split(",") if v],
                runs=args.runs, config_path=args.config, seed=args.seed,
                provider=args.provider, transcript=args.transcript,
                out_dir=args.out, noise_scale=args.noise_scale,
                manual_params_file=args.manual_params)
            for row in rows:
                print(row.csv_row())
            return 0
        if args.command == "plan":
            result, _ = bench.cmd_plan(
                scene_path=args.scene, instruction=args.instruction,
                config_path=args.config, seed=args.seed, provider=args.provider,
                transcript=args.transcript, out_dir=args.out, no_cost=args.no_cost)
            print(f"target={result['target']} reached={result['reached']} "
                  f"distance={result['distance_m']}")
            return 0 if result["reached"] else 1
        if args.command == "task":
            trace, plan, _ = bench.cmd_task(
                scenario_path=args.scenario, config_path=args.config, seed=args.seed,
                out_dir=args.out, provider=args.provider, transcript=args.transcript)
            for sg in plan:
                print(f"{sg.skill_name}: {sg.status}")
            print(f"task_complete={trace.task_complete}")
            return 0 if trace.task_complete else 1
    except QuadkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
