"""Command-line front end.

Subcommands: region, solve, check, oracle, counterexample, montecarlo.
Scenarios come in as JSON documents (see scenario.py for the field
reference); results go to stdout as JSON, or CSV for the tabular
subcommands, with all floats printed to 6 significant digits.

Exit codes: 0 success (for ``check``: achievable), 2 target provably
unachievable, 64 usage error, 65 malformed scenario, 70 a size guard or
feasibility guard tripped.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .errors import InfeasibleError, ScenarioError, SizeLimitError
from .fading import FadingConfig, ebf_experiment
from .oracle import brute_force_min_time
from .policy import (
    Policy,
    check_achievability,
    incompleteness_demo,
    maxweight_counterexample,
    verify_policy,
)
from .region import capacity_set, pareto_frontier, weak_pareto_frontier
from .scenario import Scenario, parse_scenario
from .solver import SolverOptions, solve

EXIT_OK = 0
EXIT_UNACHIEVABLE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_GUARD = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise _UsageError(message)


def _round6(obj):
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round6(float(v)) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _round6(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(payload: dict, out: str | None):
    _emit(json.dumps(_round6(payload), indent=2), out)


def _load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    return parse_scenario(text)


def _stats_payload(stats) -> dict:
    return {
        "expanded": stats.expanded_nodes,
        "generated": stats.generated_nodes,
        "pruned": stats.pruned_nodes,
        "ebf": stats.ebf,
        "wall_ms": stats.wall_time * 1e3,
        "refined_size": stats.refined_size,
    }


def _policy_payload(policy: Policy) -> dict:
    return {
        "horizon": policy.horizon,
        "target": list(policy.target),
        "average_rate": policy.average_rate(),
        "slots": [
            {"t": t + 1, "rate": list(rate), "power": list(power)}
            for t, (rate, power) in enumerate(policy.pairs)
        ],
    }


def _policy_table(policy: Policy) -> str:
    lines = ["slot  rate" + " " * (14 * len(policy.target) - 4) + "power"]
    for t, (rate, power) in enumerate(policy.pairs):
        rates = " ".join(f"{r:13.6g}" for r in rate)
        powers = " ".join(f"{p:g}" for p in power)
        lines.append(f"{t + 1:4d}  {rates}  [{powers}]")
    avg = " ".join(f"{r:13.6g}" for r in policy.average_rate())
    lines.append(f" avg  {avg}")
    return "\n".join(lines) + "\n"


def _cmd_region(args) -> int:
    scenario = _load_scenario(args.scenario)
    channel = scenario.channel()
    points = capacity_set(channel)
    rates = [p.rate for p in points]
    weak = {r for r in (tuple(x) for x in weak_pareto_frontier(rates))}
    strict = {r for r in (tuple(x) for x in pareto_frontier(rates))}
    n = channel.num_pairs
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [f"s{j + 1}" for j in range(n)]
        + [f"c{j + 1}" for j in range(n)]
        + ["weak_frontier", "frontier"]
    )
    for point in points:
        writer.writerow(
            [f"{v:.6g}" for v in point.power]
            + [f"{v:.6g}" for v in point.rate]
            + [int(point.rate in weak), int(point.rate in strict)]
        )
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    scenario = _load_scenario(args.scenario)
    channel = scenario.channel()
    options = SolverOptions(horizon=scenario.horizon)
    solution = solve(channel, scenario.initial_queue(), options)
    payload = {
        "p_star": solution.p_star,
        "actions": [list(a) for a in solution.actions],
        "queue_trajectory": [q for q in solution.queue_trajectory],
        "stats": _stats_payload(solution.stats),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    scenario = _load_scenario(args.scenario)
    channel = scenario.channel()
    report = check_achievability(
        channel, scenario.target_rate, scenario.horizon, cutoff=args.cutoff
    )
    payload = {
        "achievable": report.achievable,
        "horizon": report.horizon,
        "p_star": report.p_star,
        "certified_lower_bound": report.certified_lower_bound,
        "stats": _stats_payload(report.stats),
        "policy": _policy_payload(report.policy) if report.policy else None,
    }
    if report.policy is not None:
        payload["verification_ok"] = verify_policy(channel, report.policy).ok
    if args.format == "table" and report.policy is not None:
        _emit(_policy_table(report.policy), args.out)
    else:
        _emit_json(payload, args.out)
    return EXIT_OK if report.achievable else EXIT_UNACHIEVABLE


def _cmd_oracle(args) -> int:
    scenario = _load_scenario(args.scenario)
    channel = scenario.channel()
    depth_cap = args.depth_cap if args.depth_cap is not None else scenario.horizon
    result = brute_force_min_time(
        channel, scenario.initial_queue(), depth_cap, use_refined=not args.full
    )
    payload = {
        "p_star": result.p_star,
        "depth_cap": depth_cap,
        "witness_actions": [list(a) for a in result.witness_actions],
        "explored_nodes": result.explored_nodes,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    if args.scenario:
        scenario = _load_scenario(args.scenario)
        channel, mu, horizon = scenario.channel(), scenario.target_rate, scenario.horizon
    else:
        channel, mu, horizon = maxweight_counterexample()
    report = incompleteness_demo(channel, mu, horizon)
    mw = report.max_weight
    payload = {
        "quadrant": report.quadrant,
        "astar": {"achievable": report.astar.achievable, "p_star": report.astar.p_star},
        "max_weight": {
            "cleared": mw.cleared,
            "final_queue": mw.final_queue,
            "powers": [list(p) for _, p in mw.policy.pairs],
        },
    }
    if args.format == "table":
        _emit(_policy_table(mw.policy), args.out)
    else:
        _emit_json(payload, args.out)
    return EXIT_OK


def _parse_m_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise _UsageError(f"invalid m list: {text!r}") from None


def _cmd_montecarlo(args) -> int:
    scenario = _load_scenario(args.scenario)
    seed = args.seed
    env_seed = os.environ.get("FHTP_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise _UsageError(f"FHTP_SEED must be an integer, got {env_seed!r}") from None
    rows = []
    for m in _parse_m_list(args.m):
        config = FadingConfig(
            m=m,
            mean_power_direct=args.omega_direct,
            mean_power_cross=args.omega_cross,
            trials=args.trials,
            seed=seed,
            horizon=scenario.horizon,
            slot_duration=scenario.slot_duration,
            power_sets=scenario.power_sets,
            noise=scenario.noise,
            target_rate=scenario.target_rate,
        )
        rows.append(ebf_experiment(config, jobs=args.jobs))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["m", "trials", "solved", "avg_ebf", "avg_expanded", "avg_wall_ms"]
        + ["unachievable", "failed", "achievable_fraction", "max_refined_size"]
    )
    for r in rows:
        writer.writerow(
            [
                f"{r.m:g}",
                r.trials,
                r.solved,
                f"{r.avg_ebf:.6g}",
                f"{r.avg_expanded:.6g}",
                f"{r.avg_wall_ms:.6g}",
                r.unachievable,
                r.failed,
                f"{r.achievable_fraction:.6g}",
                r.max_refined_size,
            ]
        )
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="fhtp", description="finite-horizon rate scheduling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, scenario_required=True):
        p = sub.add_parser(name, help=help_text)
        if scenario_required:
            p.add_argument("scenario", help="scenario JSON file")
        else:
            p.add_argument("scenario", nargs="?", default=None, help="scenario JSON file")
        p.add_argument("--out", help="write the result to this file instead of stdout")
        p.set_defaults(func=func)
        return p

    add("region", _cmd_region, "emit the one-slot capacity set and frontier flags as CSV")
    add("solve", _cmd_solve, "minimum slots to drain the scenario backlog, as JSON")

    p = add("check", _cmd_check, "decide whether the target rate is achievable")
    p.add_argument("--cutoff", action="store_true", help="stop once p* > horizon is certain")
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = add("oracle", _cmd_oracle, "brute-force reference search (slow, for validation)")
    p.add_argument("--depth-cap", type=int, default=None, help="default: the scenario horizon")
    p.add_argument("--full", action="store_true", help="search the full power-vector set")

    p = add(
        "counterexample",
        _cmd_counterexample,
        "compare the exact check against the max-weight rule",
        scenario_required=False,
    )
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = add("montecarlo", _cmd_montecarlo, "fading sweep of search statistics, as CSV")
    p.add_argument("--m", default="1,2,3,4,5", help="comma-separated Nakagami shapes")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0, help="overridden by FHTP_SEED if set")
    p.add_argument("--omega-direct", type=float, default=0.6)
    p.add_argument("--omega-cross", type=float, default=0.2)
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SizeLimitError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:  # bad flag values (negative caps, trials, ...)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
