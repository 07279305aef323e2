"""Command-line entry point: generate, solve, simulate, check, and batch.

All randomness flows from explicit seeds; no wall-clock or entropy sources
touch any output, so identical configurations reproduce byte-identical CSV
reports.  Exit codes: 0 success, 1 property failure (with --strict), 2
I/O or configuration error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

from .errors import ActivityCapExceeded, CapExceeded, ConfigError, StodepError
from .model import (
    DEFAULT_ACTIVITY_CAP,
    DEFAULT_STATE_CAP,
    Instance,
    require_tolerance,
    validate_instance,
)
from .dp import OPTIMAL, bellman_operator, solve_and_evaluate, solve_clairvoyant
from .policies import ApproxMyopicPolicy, MyopicPolicy, optimal_policy_from_table, policy_from_name
from .properties import (
    DEFAULT_TOL,
    check_assumption1,
    check_ir,
    check_ratio,
    check_submodular,
    check_vfm,
    value_ratio,
)
from .rewards import SubmodularReward
from .serialize import instance_fingerprint, load_instance, save_instance
from .simulate import _episodes, mix64, summarize_totals
from . import apps


def _fmt(value) -> str:
    """Fixed 17-significant-digit decimals for exact round-trip in CSV."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _family_seed(seed: int | None) -> int:
    """The seed a random family is built from, refused when there is none."""
    if seed is None:
        raise ConfigError("random families require a seed")
    return seed


# Application name -> builder(params, seed, activity_cap).  Each looks its
# apps function up when called, so a wrapper put on stodep.apps sees the call.
_APPS = {
    "worstcase": lambda p, seed, cap: apps.build_worst_case_instance(float(p["epsilon"])),
    "setcover": lambda p, seed, cap: apps.build_set_cover_instance(
        p["ground_set"], p["cover_sets"], int(p["k"]), activity_cap=cap),
    "queueing": lambda p, seed, cap: apps.build_queueing_instance(
        apps.queueing_params_from_dict(p), seed, activity_cap=cap),
    "broadcast": lambda p, seed, cap: apps.build_broadcast_instance(
        apps.broadcast_params_from_dict(p), seed, activity_cap=cap),
    "productline": lambda p, seed, cap: apps.build_product_line_instance(
        apps.product_line_params_from_dict(p), activity_cap=cap),
    "adwords": lambda p, seed, cap: apps.build_adwords_instance(
        apps.adwords_params_from_dict(p), activity_cap=cap),
    "matroid-card": lambda p, seed, cap: apps.build_cardinality_matroid_instance(
        apps.matroid_params_from_dict(p), activity_cap=cap),
    "matroid-part": lambda p, seed, cap: apps.build_partition_matroid_instance(
        apps.matroid_params_from_dict(p), activity_cap=cap),
    "random-submodular": lambda p, seed, cap: apps.random_submodular_instance(
        _family_seed(seed), **p),
    "random-linear-decaying": lambda p, seed, cap: apps.random_linear_decaying_instance(
        _family_seed(seed), **p),
}


def _app_builder(app):
    """The builder _APPS holds for app, refused (ConfigError) unless app names one."""
    builder = _APPS.get(app) if isinstance(app, str) else None
    if builder is None:
        raise ConfigError(f"unknown application {app!r}")
    return builder


def _load_params(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load(args, *, rewards: bool = True) -> Instance:
    """The --instance file (load_instance), with more activities than --cap-activities refused."""
    instance = load_instance(args.instance, rewards=rewards)
    n, cap = instance.num_activities, args.cap_activities
    if n > cap:
        raise ActivityCapExceeded(f"{n} activities exceed cap {cap}")
    return instance


def _make_policy(name: str, instance: Instance, state_cap: int):
    """The policy name stands for, with any decision table it reads built under state_cap."""
    if name == "optimal":
        return optimal_policy_from_table(solve_clairvoyant(instance, state_cap=state_cap))
    policy = policy_from_name(name)
    if isinstance(policy, (MyopicPolicy, ApproxMyopicPolicy)):
        policy.decisions(instance, state_cap)  # kept for select; it would use the default cap
    return policy


def cmd_generate(args) -> int:
    params = _load_params(args.params)
    instance = _app_builder(args.app)(params, args.seed, args.cap_activities)
    report = validate_instance(instance)
    if not report.passed:
        raise ConfigError(f"generated instance failed validation: {report.to_dict()}")
    save_instance(instance, args.out or sys.stdout)
    print(
        f"generated app={args.app} types={instance.num_types} horizon={instance.horizon} "
        f"activities={instance.num_activities} fingerprint={instance_fingerprint(instance)[:12]}",
        file=sys.stderr,
    )
    return 0


def cmd_solve(args) -> int:
    instance = _load(args)
    table = solve_clairvoyant(instance, state_cap=args.cap_states)
    j_star = float(table.values[table.state_index(instance.initial_items), 0])
    print(f"J*={j_star!r}")
    if args.dump_table:
        table.save_json(args.dump_table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"j_star": j_star, "fingerprint": table.fingerprint, "policy": "optimal"},
                fh,
                indent=2,
            )
    return 0


def cmd_simulate(args) -> int:
    instance = _load(args)
    policy = _make_policy(args.policy, instance, args.cap_states)
    op = bellman_operator(instance, args.cap_states)
    seeds = (mix64(args.seed, k) for k in range(args.reps))
    totals = []
    out_fh = open(args.out, "w", encoding="utf-8") if args.out else None
    try:
        for trace in _episodes(instance, policy, seeds, op):
            totals.append(trace.total_reward)
            if out_fh:
                out_fh.write(json.dumps(trace.to_dict()) + "\n")
    finally:
        if out_fh:
            out_fh.close()
    summary = summarize_totals(totals, args.seed, policy.name)
    print(json.dumps(summary.to_dict()))
    return 0


def _parse_property(spec: str) -> tuple[str, str, float | None]:
    """(label, name, bound) of a property spec such as vfm or ratio:2."""
    if spec.startswith("ratio"):
        _, _, arg = spec.partition(":")
        if not arg:
            raise ConfigError("ratio property needs a bound, e.g. ratio:2")
        bound = float(arg)
        if not math.isfinite(bound):
            raise ConfigError(f"ratio bound {arg!r} is not a finite number")
        return f"ratio:{bound:g}", "ratio", bound
    if spec in ("vfm", "ir", "submodular", "assumption1"):
        return spec, spec, None
    raise ConfigError(f"unknown property {spec!r}")


def _sweep_policy(name: str):
    """The policy a name stands for in a solve_and_evaluate call: optimal is the solve's own."""
    return OPTIMAL if name == "optimal" else policy_from_name(name)


class _Certifier:
    """Runs parsed properties on one instance.

    J* is computed at most once, when a property first needs it; when the
    specs bound a ratio, the same sweep evaluates the policy the ratio is
    checked against.  Both may be supplied already computed.
    """

    def __init__(self, instance: Instance, tol: float, state_cap: int, ratio_policy: str,
                 specs, *, j_star=None, policy_table=None):
        self.instance, self.tol, self.state_cap = instance, require_tolerance(tol), state_cap
        # Parsed whatever is checked, so a bad name is refused even with no ratio asked for.
        self.ratio_policy = _sweep_policy(ratio_policy)
        self._ratio = any(name == "ratio" for _, name, _ in specs)
        self._j_star, self._policy_table = j_star, policy_table

    def j_star(self):
        if self._j_star is None:
            policies = [self.ratio_policy] if self._ratio else []
            self._j_star, evaluated = solve_and_evaluate(
                self.instance, policies, state_cap=self.state_cap
            )
            self._policy_table = evaluated[0] if evaluated else None
        return self._j_star

    def run(self, name: str, bound: float | None):
        """The report for one property; None for submodular on another reward kind."""
        instance, tol = self.instance, self.tol
        if name == "assumption1":
            return check_assumption1(instance, tol)
        if name == "submodular":
            if not isinstance(instance.reward, SubmodularReward):
                return None
            return check_submodular(instance.reward, instance.capacities, tol)
        if name == "vfm":
            return check_vfm(instance, self.j_star(), tol)
        if name == "ir":
            return check_ir(instance, self.j_star(), tol)
        policy = self.ratio_policy
        if policy == OPTIMAL:
            policy = optimal_policy_from_table(self.j_star())
        return check_ratio(
            instance, policy, bound, tol, j_star=self.j_star(), j_policy=self._policy_table
        )


def cmd_check(args) -> int:
    # The reward value rules are left to assumption1: reporting them is what check is for.
    instance = _load(args, rewards=False)
    specs = [_parse_property(s.strip()) for s in args.properties.split(",") if s.strip()]
    certifier = _Certifier(instance, args.tol, args.cap_states, args.policy, specs)
    reports = []
    all_passed = True
    for label, name, bound in specs:
        report = certifier.run(name, bound)
        if report is None:
            raise ConfigError("submodular check requires a submodular reward")
        print(f"{label}: {'pass' if report.passed else 'FAIL'}")
        all_passed = all_passed and report.passed
        reports.append((label, report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({label: rep.to_dict() for label, rep in reports}, fh, indent=2)
    if args.strict and not all_passed:
        return 1
    return 0


def _is(kind: type, value) -> bool:
    """Is value a kind?  A bool is not an int here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _config_list(config: dict, field: str, default: list, kind: type) -> list:
    """config[field], or default, refused unless it is a list of kind values."""
    value = config.get(field, default)
    if not (isinstance(value, list) and all(_is(kind, v) for v in value)):
        raise ConfigError(f"batch config {field!r} must be a list of {kind.__name__} values, "
                          f"not {value!r}")
    return value


def _config_int(config: dict, field: str, default: int, low: int | None = None) -> int:
    """config[field], or default, refused unless it is an integer, at least low if given."""
    value = config.get(field, default)
    if not _is(int, value) or (low is not None and value < low):
        at_least = "" if low is None else f" >= {low}"
        raise ConfigError(f"batch config {field!r} must be an integer{at_least}, not {value!r}")
    return value


def _batch_rows(config: dict, args):
    build = _app_builder(config["app"])  # an unknown app refuses the config
    params = config.get("params", {})
    policies = _config_list(config, "policies", ["myopic"], str)
    prop_specs = [_parse_property(s) for s in _config_list(config, "properties", [], str)]
    ratio = any(name == "ratio" for _, name, _ in prop_specs)
    # Ratio bounds in batch are the myopic guarantee's; myopic joins the row's sweep.
    names = policies + ["myopic"] * (ratio and "myopic" not in policies)
    sweep = [_sweep_policy(name) for name in names]  # a bad name refuses the config
    tol = require_tolerance(config.get("tol", args.tol), "batch config 'tol'")
    if "seeds" in config:
        seeds = _config_list(config, "seeds", [], int)
    else:
        start = _config_int(config, "seed_start", 0)
        seeds = list(range(start, start + _config_int(config, "seed_count", 0, low=0)))
    columns = ["seed", "fingerprint", "family", "num_types", "horizon", "num_activities", "j_star"]
    for pol in policies:
        columns += [f"j[{pol}]", f"ratio[{pol}]"]
    columns += [label for label, _, _ in prop_specs]
    columns.append("error")
    rows = []
    for seed in seeds:
        row = {c: None for c in columns}
        row["seed"] = seed
        started = time.perf_counter()
        try:
            instance = build(params, seed, args.cap_activities)
            row["fingerprint"] = instance_fingerprint(instance)
            row["family"] = instance.reward.kind
            row["num_types"] = instance.num_types
            row["horizon"] = instance.horizon
            row["num_activities"] = instance.num_activities
            table, evaluated = solve_and_evaluate(instance, sweep, state_cap=args.cap_states)
            si0 = table.state_index(instance.initial_items)
            j_star = float(table.values[si0, 0])
            row["j_star"] = j_star
            policy_tables = dict(zip(names, evaluated))
            for pol_name in policies:
                j_pol = float(policy_tables[pol_name].values[si0, 0])
                row[f"j[{pol_name}]"] = j_pol
                row[f"ratio[{pol_name}]"] = value_ratio(j_star, j_pol)
            certifier = _Certifier(instance, tol, args.cap_states, "myopic", prop_specs,
                                   j_star=table, policy_table=policy_tables.get("myopic"))
            for label, name, bound in prop_specs:
                report = certifier.run(name, bound)
                row[label] = None if report is None else report.passed
        except StodepError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        rows.append((row, elapsed))
    return columns, rows


def cmd_batch(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    columns, rows = _batch_rows(config, args)
    base = args.out or "batch_report"
    # Timing stays out of the CSV so identical configs give byte-identical files.
    if args.format in ("csv", "both"):
        with open(base + ".csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row, _ in rows:
                writer.writerow([_fmt(row[c]) for c in columns])
    if args.format in ("json", "both"):
        payload = [dict(row, elapsed_seconds=elapsed) for row, elapsed in rows]
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump({"columns": columns, "rows": payload}, fh, indent=2)
    failures = sum(
        1
        for row, _ in rows
        if row["error"] is not None or any(row[c] is False for c in columns)
    )
    print(f"batch: {len(rows)} rows, {failures} with failures")
    if args.strict and failures:
        return 1
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cap-states", type=int, default=DEFAULT_STATE_CAP)
    parser.add_argument("--cap-activities", type=int, default=DEFAULT_ACTIVITY_CAP)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--out", type=str, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built on the first main call, not at import, then
    reused by every later call in the process.  Each cmd_* function looks its
    callees up when it runs, so a wrapper or patch put on them later still
    applies."""
    parser = argparse.ArgumentParser(prog="stodep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build an instance from application parameters")
    p.add_argument("--app", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("solve", help="exact optimal value by backward induction")
    p.add_argument("--instance", required=True)
    p.add_argument("--dump-table", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="seeded Monte Carlo episodes")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", default="myopic")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("check", help="certify structural properties")
    p.add_argument("--instance", required=True)
    p.add_argument("--properties", default="vfm,ir,ratio:2,assumption1")
    p.add_argument("--policy", default="myopic")
    p.add_argument("--strict", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("batch", help="per-seed generate/solve/check report (CSV + JSON)")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument("--strict", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 3
    except (StodepError, OSError, LookupError, ValueError, TypeError) as exc:
        # Besides bad data and I/O: input of the wrong shape, such as a
        # parameter file missing a field or holding a list too short, an
        # out-of-range argument such as --reps 0, or JSON that is not an
        # object (or not JSON).
        message = str(exc)
        if isinstance(exc, FileNotFoundError):
            message = f"instance not found: {exc.filename}"
        print(json.dumps({"error": type(exc).__name__, "message": message}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
