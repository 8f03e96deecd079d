"""Command-line front end for scenario experiments.

Subcommands
-----------
optimize   solve one scenario and write the policy, trace, and audits (JSON)
simulate   Monte Carlo outage estimate with confidence intervals (JSON)
validate   audit a stored policy file against a scenario (JSON)
sweep      re-optimize across one parameter axis and write a CSV table
compare    run the optimizer and all baseline policies, write a CSV table

sweep and compare are one table command (`cmd_table`) that differ only in
the methods solved per axis point and in the CSV columns.  Every CSV row is
a dict keyed by column name; cells a row lacks are written empty.

All artifacts are deterministic: JSON objects are emitted with sorted keys
and CSV rows follow the order in which axis values were given, so identical
inputs (plus seed, for simulate) produce byte-identical outputs.

Exit codes: 0 success, 2 invalid input, 3 infeasible (scenario or policy),
4 solver failure.  Failures print a machine-parsable JSON error record to
stdout; `main` maps a ValueError to exit 2 and a RuntimeError to exit 4.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import os
import sys

import numpy as np

from .baselines import (
    depleted_energy_policy,
    no_transfer_policy,
    nonc_df_policy,
    uniform_power_policy,
)
from .model import (
    Policy,
    ScenarioConfig,
    energy_efficiency,
    total_energy,
    validate_policy,
)
from .montecarlo import estimate_outage
from .outage import network_outage_report
# dinkelbach_optimize is not called here; it stays bound because the
# benchmark's span tracer rebinds it on this module
from .solver import dinkelbach_optimize, optimize

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

SWEEP_AXES = ("pr_out_0", "delta", "eta", "m")
COMPARE_METHODS = ("optimized", "no_transfer", "depleted_energy",
                   "uniform_power", "nonc_df")


class CliError(Exception):
    """Input or environment problem mapped to a specific exit code."""

    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


# ---------------------------------------------------------------------------
# input handling


def _clean(msg) -> str:
    return " ".join(str(msg).split())


def _apply_override(data: dict, item: str) -> None:
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise CliError(EXIT_INVALID, "invalid_input",
                       f"override must look like key=value, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        raise CliError(EXIT_INVALID, "invalid_input",
                       f"override value {raw!r} is not valid JSON")
    node = data
    parts = key.split(".")
    try:
        for part in parts[:-1]:
            node = node[int(part)] if isinstance(node, list) else node[part]
        leaf = parts[-1]
        if isinstance(node, list):
            node[int(leaf)] = value
        else:
            node[leaf] = value
    except (KeyError, IndexError, ValueError, TypeError):
        raise CliError(EXIT_INVALID, "invalid_input",
                       f"override path {key!r} does not fit the scenario")


def _read_json_object(path, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise CliError(EXIT_INVALID, "invalid_input",
                       f"cannot read {what}: {_clean(e)}")
    except json.JSONDecodeError as e:
        raise CliError(EXIT_INVALID, "invalid_input",
                       f"{what} is not valid JSON: {_clean(e)}")
    if not isinstance(data, dict):
        raise CliError(EXIT_INVALID, "invalid_input",
                       f"{what} file must hold a JSON object")
    return data


def _load_scenario_data(args) -> dict:
    data = _read_json_object(args.scenario, "scenario")
    for item in args.overrides:
        _apply_override(data, item)
    return data


def _build_config(data: dict) -> ScenarioConfig:
    try:
        return ScenarioConfig(**data)
    except (TypeError, ValueError) as e:
        raise CliError(EXIT_INVALID, "invalid_input",
                       f"scenario rejected: {_clean(e)}")


def _load_config(args) -> ScenarioConfig:
    return _build_config(_load_scenario_data(args))


def _load_policy(path) -> Policy:
    data = _read_json_object(path, "policy")
    if "p_u" not in data and isinstance(data.get("policy"), dict):
        data = data["policy"]  # accept a stored `optimize` artifact directly
    try:
        return Policy.from_dict(data)
    except (KeyError, ValueError, TypeError) as e:
        raise CliError(EXIT_INVALID, "invalid_input",
                       f"policy rejected: {_clean(e)}")


def _parse_sweep(specs) -> tuple:
    if len(specs) != 1:
        raise CliError(EXIT_INVALID, "invalid_input",
                       "exactly one sweep axis is allowed")
    spec = specs[0]
    axis, sep, raw = spec.partition("=")
    if not sep or axis not in SWEEP_AXES:
        raise CliError(EXIT_INVALID, "invalid_input",
                       f"sweep must look like axis=v1,v2,... with axis in "
                       f"{SWEEP_AXES}, got {spec!r}")
    try:
        values = [float(v) for v in raw.split(",") if v != ""]
    except ValueError:
        raise CliError(EXIT_INVALID, "invalid_input",
                       f"sweep values {raw!r} are not numbers")
    if not values:
        raise CliError(EXIT_INVALID, "invalid_input", "sweep needs values")
    return axis, values


def _apply_axis(data: dict, axis: str, value: float):
    """A copy of the scenario dict with one axis point applied.

    Returns None when the point violates the geometry guard (a shifted
    distance would be nonpositive).
    """
    out = copy.deepcopy(data)
    if axis == "delta":
        d_h = np.asarray(out["d_h"], dtype=float) + value
        d_g = np.asarray(out["d_g"], dtype=float) - value
        if np.any(d_h <= 0.0) or np.any(d_g <= 0.0):
            return None
        out["d_h"] = d_h.tolist()
        out["d_g"] = d_g.tolist()
    else:
        out[axis] = value
    return out


# ---------------------------------------------------------------------------
# output handling


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _emit(record: dict, out_path) -> None:
    text = json.dumps(record, sort_keys=True, indent=2,
                      default=_json_default) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_record(kind: str, code: int, message: str, **extra) -> int:
    body = {"kind": kind, "code": code, "message": _clean(message)}
    body.update(extra)
    sys.stdout.write(json.dumps({"error": body}, sort_keys=True, indent=2)
                     + "\n")
    return code


def _write_csv(out_path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# ---------------------------------------------------------------------------
# shared solve-to-record plumbing


def _feasibility_block(report) -> dict:
    return {"feasible": bool(report.feasible),
            "worst": {k: float(v) for k, v in report.worst.items()},
            "messages": list(report.messages)}


def _outage_block(config: ScenarioConfig, policy: Policy, mode: str,
                  exact) -> dict:
    """The artifact's outage block; exact is the audit's exact report,
    used as is in exact mode rather than evaluated a second time."""
    rep = (exact if mode == "exact" else
           network_outage_report(config, policy, mode=mode))
    return {"mode": mode,
            "pr_out": np.atleast_1d(rep.pr_out).tolist(),
            "pr_A": np.atleast_1d(rep.pr_A).tolist(),
            "pr_B": np.atleast_1d(rep.pr_B).tolist()}


def _solve_record(config: ScenarioConfig, res, mode: str) -> dict:
    record = {
        "command": "optimize",
        "status": res.status,
        "path": res.path,
        "q_star": None if res.q_star is None else float(res.q_star),
        "ee_exact": None if res.ee_exact is None else float(res.ee_exact),
        "e_tot": None if res.e_tot is None else float(res.e_tot),
        "binding_class": res.binding_class,
        "newton_iters_total": int(res.newton_iters_total),
        "phase1_newton_iters": int(res.phase1_newton_iters),
        "stalled_stages": int(res.stalled_stages),
        "trace": [[float(q), float(v), int(it)] for q, v, it in res.trace],
    }
    if res.policy is not None:
        record["policy"] = res.policy.to_dict()
        record["outage"] = _outage_block(config, res.policy, mode,
                                         res.outage_exact)
        record["transfers_total"] = float(res.policy.transfers.sum())
    if res.feasibility is not None:
        record["feasibility"] = _feasibility_block(res.feasibility)
    return record


def _point_worker(task):
    """One sweep/compare point; module-level so a process pool can run it.

    Returns (index, rows, failed).  rows holds one dict per method, keyed
    by CSV column, in the order of `methods`; given an outage mode
    (sweep), the optimized row also carries per-period outage in that mode
    as pr_out_1 ... pr_out_K.  failed is True when a solve crashed or ended
    in a non-infeasible failure state.
    """
    idx, data, axis, value, mode, methods = task
    config = ScenarioConfig(**data)
    full_res = None
    # the names are looked up at call time, so rebinding one on this
    # module reaches every point run in this process
    solves = {
        "optimized": lambda: optimize(config),
        # a one-period optimum is also the transfer-free one
        "no_transfer": lambda: no_transfer_policy(config, full_res),
        "depleted_energy": lambda: depleted_energy_policy(config),
        "uniform_power": lambda: uniform_power_policy(
            config, relay_powers_from=full_res),
        "nonc_df": lambda: nonc_df_policy(config),
    }
    failed = False
    rows = []
    for method in methods:
        row = dict(axis=axis, value=value, method=method, feasible=False)
        rows.append(row)
        try:
            res = solves[method]()
        except Exception as e:  # keep the table alive, flag the point
            failed = True
            row["reason"] = f"solver_failure: {_clean(e)}"
            continue
        if method == "optimized":
            full_res = res
        if method == "uniform_power":  # a PolicyEvaluation
            if res.status != "ok":
                row["reason"] = (res.extra.get("binding_class")
                                 or res.extra.get("reason") or res.status)
                continue
            ee, pr_out = res.ee, res.pr_out
        else:
            if res.status == "infeasible":
                row["reason"] = res.binding_class or ""
                continue
            if not res.feasible:
                failed = True
                row["reason"] = res.status
                continue
            ee, pr_out = res.ee_exact, res.outage_exact.pr_out
            row["q_star"] = float(res.q_star)
        row.update(feasible=True, reason="", ee=float(ee),
                   e_tot=float(res.e_tot),
                   transfers_total=float(res.policy.transfers.sum()),
                   pr_out_max=float(np.max(pr_out)))

    if mode and rows[0]["feasible"]:
        rep = (full_res.outage_exact if mode == "exact" else
               network_outage_report(config, full_res.policy, mode=mode))
        for k, p in enumerate(np.atleast_1d(rep.pr_out)):
            rows[0][f"pr_out_{k + 1}"] = float(p)
    return idx, rows, failed


def _run_points(points):
    """Run _point_worker tasks, in a process pool if possible."""
    if len(points) > 1:
        workers = min(len(points), os.cpu_count() or 1)
        if workers > 1:
            try:
                from concurrent.futures import ProcessPoolExecutor
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(_point_worker, points))
            except (OSError, PermissionError, ImportError):
                pass  # sandboxes without fork/semaphores: fall back
    return [_point_worker(p) for p in points]


# ---------------------------------------------------------------------------
# subcommands


def cmd_optimize(args) -> int:
    config = _load_config(args)
    res = optimize(config)
    if res.status == "infeasible":
        return _error_record("infeasible", EXIT_INFEASIBLE,
                             "no feasible policy exists for this scenario",
                             binding_class=res.binding_class)
    _emit(_solve_record(config, res, args.outage_mode), args.out)
    if not res.feasible:
        return _error_record("solver_failure", EXIT_SOLVER,
                             f"solver ended with status {res.status}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args)
    if args.trials < 1:
        raise CliError(EXIT_INVALID, "invalid_input",
                       "trials must be at least 1")
    if args.policy:
        policy = _load_policy(args.policy)
        source = "file"
    else:
        res = optimize(config)
        if res.status == "infeasible":
            return _error_record("infeasible", EXIT_INFEASIBLE,
                                 "no feasible policy exists to simulate",
                                 binding_class=res.binding_class)
        if not res.feasible:
            return _error_record("solver_failure", EXIT_SOLVER,
                                 f"solver ended with status {res.status}")
        policy, source = res.policy, "optimized"
    mc = estimate_outage(config, policy, trials=args.trials, seed=args.seed)
    exact = network_outage_report(config, policy, mode="exact")
    record = {
        "command": "simulate",
        "trials": int(args.trials),
        "seed": int(args.seed),
        "streams": 1,     # always 1: stored artifacts keep their bytes
        "policy_source": source,
        "pr_out_empirical": mc.pr_out.tolist(),
        "ci_lo": mc.ci_lo.tolist(),
        "ci_hi": mc.ci_hi.tolist(),
        "outage_count": mc.outage_count.tolist(),
        "pr_out_exact": np.atleast_1d(exact.pr_out).tolist(),
        "bits": float(mc.bits),
        "e_tot": float(mc.e_tot),
        "ee_empirical": float(mc.ee),
    }
    _emit(record, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    config = _load_config(args)
    policy = _load_policy(args.policy)
    report = validate_policy(config, policy)
    record = {
        "command": "validate",
        "feasible": bool(report.feasible),
        "feasibility": _feasibility_block(report),
        "outage": None,
        "ee_exact": None,
        "e_tot": float(total_energy(config, policy)),
    }
    if policy.outage_defined:
        record["ee_exact"] = float(energy_efficiency(
            config, policy, report.outage_report.pr_out))
        # approximate outage is undefined at a switched-off relay
        if args.outage_mode == "exact" or np.all(policy.p_r > 0.0):
            record["outage"] = _outage_block(config, policy,
                                             args.outage_mode,
                                             report.outage_report)
    _emit(record, args.out)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_table(args) -> int:
    """sweep and compare: solve each axis point, one CSV row per method."""
    data = _load_scenario_data(args)
    config = _build_config(data)  # validate the base scenario up front
    if args.sweep:
        axis, values = _parse_sweep(args.sweep)
    else:
        axis, values = "pr_out_0", [config.pr_out_0]
    if args.compare:
        methods = COMPARE_METHODS
        header = ["axis", "value", "method", "feasible", "reason", "ee",
                  "e_tot", "transfers_total", "pr_out_max"]
        failed_what = "compared solve"
    else:
        methods = COMPARE_METHODS[:1]
        header = (["axis", "value", "feasible", "reason", "ee", "e_tot",
                   "q_star", "transfers_total", "pr_out_max"]
                  + [f"pr_out_{k + 1}" for k in range(config.K)])
        failed_what = "sweep point"

    rows_by_idx = {}
    tasks = []
    for i, v in enumerate(values):
        point = _apply_axis(data, axis, v)
        if point is None:
            rows_by_idx[i] = [dict(axis=axis, value=v, method=m,
                                   feasible=False, reason="geometry")
                              for m in methods]
            continue
        _build_config(point)  # reject invalid axis values before solving
        tasks.append((i, point, axis, v, args.outage_mode, methods))

    any_failed = False
    for idx, rows, failed in _run_points(tasks):
        rows_by_idx[idx] = rows
        any_failed = any_failed or failed

    _write_csv(args.out, header,
               [[_cell(row.get(c)) for c in header]
                for i in range(len(values)) for row in rows_by_idx[i]])
    if any_failed:
        return _error_record("solver_failure", EXIT_SOLVER,
                             f"at least one {failed_what} failed; see the "
                             "reason column")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sp) -> None:
    sp.add_argument("--scenario", required=True,
                    help="path to a scenario JSON file")
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="override a scenario entry before validation; "
                    "dotted paths index into arrays (repeatable)")


def _add_outage_mode(sp) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="outage_mode", action="store_const",
                       const="exact", help="report exact outage (default)")
    group.add_argument("--approx", dest="outage_mode", action="store_const",
                       const="approx", help="report high-SNR outage")
    sp.set_defaults(outage_mode="exact")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals become the exit-2 JSON record.

    The usage text still goes to stderr; the subcommand parsers share the
    class, so their refusals take the same path.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(EXIT_INVALID, "invalid_input", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eecoop",
        description="Energy-efficiency experiments for network-coded "
                    "multi-user relay networks")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("optimize", help="solve one scenario")
    _add_common(sp)
    _add_outage_mode(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("simulate", help="Monte Carlo outage estimate")
    _add_common(sp)
    sp.add_argument("--policy", help="policy JSON to simulate (default: "
                    "optimize first, then simulate the optimum)")
    sp.add_argument("--trials", type=int, default=200000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("validate", help="audit a stored policy")
    _add_common(sp)
    _add_outage_mode(sp)
    sp.add_argument("--policy", required=True,
                    help="policy JSON (bare policy or optimize artifact)")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("sweep", help="re-optimize across one axis")
    _add_common(sp)
    _add_outage_mode(sp)
    sp.add_argument("--sweep", required=True, action="append",
                    metavar="AXIS=V1,V2,...", help=f"axis in {SWEEP_AXES}")
    sp.set_defaults(func=cmd_table, compare=False)

    sp = sub.add_parser("compare", help="optimizer vs baseline policies")
    _add_common(sp)
    sp.add_argument("--sweep", action="append", metavar="AXIS=V1,V2,...",
                    help="optional axis; default: one point at the "
                    "scenario's own outage threshold")
    # compare's CSV has no per-period outage columns
    sp.set_defaults(func=cmd_table, compare=True, outage_mode=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as e:
        return _error_record(e.kind, e.code, str(e))
    except ValueError as e:
        return _error_record("invalid_input", EXIT_INVALID, str(e))
    except RuntimeError as e:
        return _error_record("solver_failure", EXIT_SOLVER, str(e))


if __name__ == "__main__":
    sys.exit(main())
