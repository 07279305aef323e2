"""The three benchmark workloads: exact-ladder, batch-small and monte-carlo.

Each workload builds its inputs from the workload seed in ``setup`` (the
program only ever sees the generated files and objects), runs its fixed work
once per ``run_pass`` and checks every output it produced.  Bookkeeping the
program never sees, such as picking the batch seeds, happens once in
``prepare``, outside the timed set-ups.  Timing covers only calls into stodep;
the checks run outside the timed regions.

An operation is the unit counted in ``attempted``: a ladder rung, a batch row,
or an (instance, policy) Monte Carlo run.  A row is the unit whose latency is
sampled: a rung, a batch row, or one ``monte_carlo_value`` call.  Rows and
certify samples are kept as (perf_counter start, seconds) spans, so that the
driver can scale each by the host speed at the time it ran.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import stodep
from stodep import apps, cli

DEFAULT_SEED = 0
RELATIVE_TOL = 1e-9
AUDIT_TOL = 1e-12
MC_SIGMAS = 4.0

# Ladder rungs: (name, reward route, capacities, horizon, activities).  The
# queueing rung's shape comes from its application parameters instead.  With
# seven rungs whose latencies sit at least 2x apart around the 4th and the
# slowest, the pooled p50 and p95 of rung latency each fall inside one rung's
# samples instead of between two rungs whose order noise can swap.
LADDER = (
    ("lin-108", "linear_decaying", (2, 3), 8, 3),
    ("cov-189", "coverage", (2, 2, 2), 6, 3),
    ("tab-288", "tabulated", (3, 3, 2), 5, 3),
    ("bud-704", "budgeted", (3, 3, 3), 10, 3),
    ("queue-1280", "queueing", None, None, None),
    ("cov-1701", "coverage", (2, 2, 2, 2), 20, 2),
    ("lin-3776", "linear_decaying", (3, 3, 3), 58, 2),
)

QUEUEING_RUNG = [route for _, route, *_ in LADDER].index("queueing")

# Rungs of the full ladder this solver cannot reach within one run.
SKIPPED_RUNG_ENTRIES = (10**4, 10**5, 10**6, 10**7)

BATCH_FAMILIES = (
    ("random-submodular", ("vfm", "ir", "ratio:2", "assumption1", "submodular")),
    ("random-linear-decaying", ("vfm", "ir", "ratio:2", "assumption1")),
)
BATCH_POLICIES = ("myopic", "approx:2", "optimal")
MC_POLICIES = ("myopic", "approx:2", "optimal")


@dataclass(frozen=True)
class Scale:
    """How much fixed work one pass does; tests shrink it, runs use FULL."""

    rungs: tuple[int, ...]
    batch_seeds: int
    mc_instances: tuple[str, ...]
    mc_calls: int
    mc_reps: int


FULL = Scale(
    rungs=tuple(range(len(LADDER))),
    batch_seeds=200,
    mc_instances=("queueing", "coverage"),
    mc_calls=40,
    mc_reps=250,
)
SMOKE = Scale(rungs=(0, 1, 2), batch_seeds=3, mc_instances=("coverage",), mc_calls=2, mc_reps=50)


def run_cli(argv: list[str]) -> int:
    """stodep.cli.main in-process, with its console output discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def dense_entries(instance) -> int:
    return stodep.state_space_size(instance)


def _close(a: float, b: float, tol: float = RELATIVE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# Seeded instance generators.  Every rung draws from its own stream, so the
# rungs do not depend on each other.

def _linear_decaying(rng, m, horizon):
    return stodep.LinearDecayingReward(
        tuple(tuple(sorted((float(v) for v in rng.random(horizon)), reverse=True)) for _ in range(m))
    )


def _coverage_function(rng, m):
    n = m + 2
    covers = []
    for _ in range(m):
        cover = {e for e in range(n) if rng.random() < 0.4}
        cover.add(int(rng.integers(n)))
        covers.append(frozenset(cover))
    weights = tuple(float(0.1 + rng.random()) for _ in range(n))
    return stodep.CoverageFunction(n, tuple(covers), weights)


def _budgeted_function(rng, m):
    return stodep.BudgetedLinearFunction(
        budgets=tuple(float(1.0 + 2.0 * rng.random()) for _ in range(2)),
        values=tuple(float(0.2 + rng.random()) for _ in range(m)),
        groups=tuple(k % 2 for k in range(m)),
    )


def build_rung_instance(route, caps, horizon, activities, rng):
    m = len(caps)
    if route == "linear_decaying":
        reward = _linear_decaying(rng, m, horizon)
    elif route == "coverage":
        reward = stodep.SubmodularReward(_coverage_function(rng, m))
    elif route == "budgeted":
        reward = stodep.SubmodularReward(_budgeted_function(rng, m))
    elif route == "tabulated":
        reward = stodep.GeneralTabulatedReward.from_potential(
            _coverage_function(rng, m), caps, horizon
        )
    else:
        raise ValueError(f"unknown reward route {route!r}")
    return stodep.Instance(
        num_types=m,
        capacities=caps,
        initial_items=caps,
        horizon=horizon,
        activities=tuple(f"a{j}" for j in range(activities)),
        schedule=rng.random((horizon, activities, m)),
        reward=reward,
        metadata={"bench": "perfbench", "route": route},
    )


def queueing_params(rng) -> dict:
    """2 buffers, 2 servers, horizon 4: 8 unit-capacity types, 73 matchings.

    Every buffer receives a job in every slot, so the shape of the solve (which
    types can be depleted when) is the same for every seed; the seed draws the
    service means and the rewards.
    """
    return {
        "num_buffers": 2,
        "num_servers": 2,
        "horizon": 4,
        "service_means": [[float(1.0 + 3.0 * rng.random()) for _ in range(2)] for _ in range(2)],
        "rewards": [sorted((float(0.2 + rng.random()) for _ in range(4)), reverse=True)
                    for _ in range(2)],
        "arrival_trace": [[1, 1, 1, 1], [1, 1, 1, 1]],
    }


def _rung_rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def mc_coverage_instance(seed: int):
    return build_rung_instance("coverage", (2, 2, 2, 2), 6, 4, np.random.default_rng([seed, 101]))


class Workload:
    """Shared bookkeeping: operations, failures and latency samples."""

    name = "abstract"

    def __init__(self, seed: int, work_dir: Path, scale: Scale = FULL, reference: dict | None = None):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.scale = scale
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.row_spans: list[tuple[float, float]] = []
        self.certify_spans: list[tuple[float, float]] = []
        self.shapes: list[dict] = []

    def fail(self, op: str, message: str) -> None:
        self.failures.append(f"{op}: {message}")

    def prepare(self) -> None:
        """Benchmark bookkeeping done once, before and outside the timed set-ups."""

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer) -> float:
        """Do the fixed work once; return the seconds spent inside stodep."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need work outside the timed passes."""


class ExactLadder(Workload):
    """generate -> solve -> check -> audit on a fixed, seeded ladder of sizes."""

    name = "exact-ladder"

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.rungs = []
        self.shapes = []
        for index in self.scale.rungs:
            name, route, caps, horizon, activities = LADDER[index]
            rng = _rung_rng(self.seed, index)
            path = self.work_dir / f"{name}.json"
            if route == "queueing":
                params_path = self.work_dir / f"{name}.params.json"
                params_path.write_text(json.dumps(queueing_params(rng)), encoding="utf-8")
                rc = run_cli(["generate", "--app", "queueing", "--params", str(params_path),
                              "--out", str(path)])
                if rc != 0:
                    raise RuntimeError(f"generate for rung {name} exited with {rc}")
                instance = stodep.load_instance(path)
            else:
                instance = build_rung_instance(route, caps, horizon, activities, rng)
                stodep.save_instance(instance, path)
            props = ["vfm", "ir", "ratio:2", "assumption1"]
            if isinstance(instance.reward, stodep.SubmodularReward):
                props.append("submodular")
            self.rungs.append({"name": name, "path": path, "properties": ",".join(props)})
            self.shapes.append({
                "rung": name,
                "route": route,
                "capacities": list(instance.capacities),
                "horizon": instance.horizon,
                "activities": instance.num_activities,
                "dense_entries": dense_entries(instance),
            })
        self.largest = max(range(len(self.shapes)), key=lambda k: self.shapes[k]["dense_entries"])
        self.j_star: dict[str, float] = {}

    def run_pass(self, tracer) -> float:
        busy = 0.0
        for k, rung in enumerate(self.rungs):
            self.attempted += 1
            name, path = rung["name"], str(rung["path"])
            table_path = self.work_dir / f"{name}.table.json"
            solve_path = self.work_dir / f"{name}.solve.json"
            check_path = self.work_dir / f"{name}.check.json"
            with tracer.op(f"rung:{name}"):
                started = time.perf_counter()
                rc_solve = run_cli(["solve", "--instance", path, "--dump-table", str(table_path),
                                    "--out", str(solve_path)])
                rc_check = run_cli(["check", "--instance", path, "--properties", rung["properties"],
                                    "--strict", "--out", str(check_path)])
                instance = stodep.load_instance(path)
                with open(table_path, "r", encoding="utf-8") as fh:
                    table = stodep.ValueTable.from_dict(json.load(fh))
                audit = stodep.audit_table(instance, table, tol=AUDIT_TOL)
                elapsed = time.perf_counter() - started
            busy += elapsed
            self.row_spans.append((started, elapsed))
            if k == self.largest:
                self.certify_spans.append((started, elapsed))
            self._check_rung(name, rc_solve, rc_check, audit, solve_path, check_path)
        return busy

    def _check_rung(self, name, rc_solve, rc_check, audit, solve_path, check_path) -> None:
        op = f"rung {name}"
        if rc_solve != 0:
            return self.fail(op, f"solve exited with {rc_solve}")
        if rc_check != 0:
            return self.fail(op, f"check --strict exited with {rc_check}")
        if not audit.passed:
            return self.fail(op, f"audit failed at {len(audit.failures)} entries "
                                 f"(max residual {audit.max_residual:.3g})")
        j_star = json.loads(solve_path.read_text(encoding="utf-8"))["j_star"]
        ratio = json.loads(check_path.read_text(encoding="utf-8"))["ratio:2"]
        j_myopic = ratio["j_policy_initial"]
        if not _close(ratio["j_star_initial"], j_star):
            return self.fail(op, f"check's J* {ratio['j_star_initial']!r} != solve's {j_star!r}")
        slack = RELATIVE_TOL * max(1.0, abs(j_star))
        if not (j_myopic <= j_star + slack and j_star <= 2.0 * j_myopic + slack):
            return self.fail(op, f"J^myopic={j_myopic!r} <= J*={j_star!r} <= 2 J^myopic fails")
        self.j_star[name] = j_star
        expected = (self.reference or {}).get(name)
        if expected is not None and not _close(j_star, expected):
            return self.fail(op, f"J*={j_star!r} differs from the reference {expected!r}")

    def reference_data(self) -> dict:
        return dict(self.j_star)


class BatchSmall(Workload):
    """`stodep batch` on a random-submodular and a random-linear-decaying config."""

    name = "batch-small"

    def prepare(self) -> None:
        """Pick the instance seeds and record their table sizes.

        The seed scan builds thousands of candidate instances, a number that
        depends on the workload seed, and stodep never sees them; so it stays
        out of setup_s, which covers only what a user of `stodep batch` pays.
        """
        builders = {
            "random-submodular": apps.random_submodular_instance,
            "random-linear-decaying": apps.random_linear_decaying_instance,
        }
        self.seeds: dict[str, list[int]] = {}
        self.entries: dict[tuple[str, int], int] = {}
        for app, _ in BATCH_FAMILIES:
            self.seeds[app] = stratified_seeds(builders[app], self.seed, self.scale.batch_seeds)
            for s in self.seeds[app]:
                self.entries[(app, s)] = dense_entries(builders[app](s))
        self.largest = max(self.entries.values())
        self.shapes = [{
            "config": app,
            "rows": self.scale.batch_seeds,
            "max_dense_entries": max(v for (a, _), v in self.entries.items() if a == app),
            "dense_entries_total": sum(v for (a, _), v in self.entries.items() if a == app),
        } for app, _ in BATCH_FAMILIES]

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.configs = []
        for app, props in BATCH_FAMILIES:
            config = {
                "app": app,
                "seeds": self.seeds[app],
                "policies": list(BATCH_POLICIES),
                "properties": list(props),
            }
            path = self.work_dir / f"{app}.config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.configs.append((app, path, self.work_dir / f"{app}.report"))
        self.rows: dict[str, list[dict]] = {}

    def run_pass(self, tracer) -> float:
        busy = 0.0
        for app, path, base in self.configs:
            with tracer.op(f"batch:{app}", row_span="apps.build"):
                started = time.perf_counter()
                rc = run_cli(["batch", "--config", str(path), "--out", str(base),
                              "--format", "both", "--strict"])
                busy += time.perf_counter() - started
            self.attempted += self.scale.batch_seeds
            try:
                with open(f"{base}.json", "r", encoding="utf-8") as fh:
                    rows = json.load(fh)["rows"]
            except (OSError, ValueError, KeyError) as exc:
                rows = []
                self.fail(f"batch {app}", f"no readable report ({exc})")
            failed_rows = self._check_rows(app, rows, started)
            if rc != 0 and not failed_rows:
                self.fail(f"batch {app}", f"batch --strict exited with {rc}")
        return busy

    def _check_rows(self, app, rows, started: float) -> int:
        """Check every row; a configured seed without a row fails too.  Returns the failures.

        Rows run back to back from `started`, so each starts where the last ended.
        """
        reference = (self.reference or {}).get(app, {})
        missing = {s for (a, s) in self.entries if a == app} - {row["seed"] for row in rows}
        for seed in sorted(missing):
            self.fail(f"batch {app} seed {seed}", "no row in the report")
        failed = len(missing)
        for row in rows:
            seed = row["seed"]
            span = (started, row["elapsed_seconds"])
            started += row["elapsed_seconds"]
            self.row_spans.append(span)
            if self.entries.get((app, seed)) == self.largest:
                self.certify_spans.append(span)
            problem = _row_problem(row, reference.get(str(seed)))
            if problem:
                self.fail(f"batch {app} seed {seed}", problem)
                failed += 1
        self.rows[app] = rows
        return failed

    def reference_data(self) -> dict:
        return {
            app: {str(row["seed"]): {k: row[k] for k in _reference_keys(row)} for row in rows}
            for app, rows in self.rows.items()
        }


def _shape_key(instance) -> tuple:
    """What the work of a batch row depends on: the reward form and the table shape."""
    return (instance.reward.kind, tuple(sorted(instance.capacities)), instance.horizon,
            instance.num_activities)


def stratified_seeds(builder, seed: int, count: int) -> list[int]:
    """count instance seeds with the same mix of shapes as seeds 0 .. count-1.

    Instance shapes are drawn at random by the family, and the work of a batch
    spreads by about 20% between ranges of 200 seeds.  Scanning seed * 10**6,
    seed * 10**6 + 1, ... and keeping a seed only while its shape is still
    wanted fixes the amount of work; the seed still draws every probability
    and reward.  For seed 0 this returns 0 .. count-1.
    """
    wanted = Counter(_shape_key(builder(k)) for k in range(count))
    picked = []
    k = seed * 10**6
    while len(picked) < count:
        key = _shape_key(builder(k))
        if wanted[key] > 0:
            wanted[key] -= 1
            picked.append(k)
        k += 1
    return picked


def _reference_keys(row: dict) -> list[str]:
    skip = {"fingerprint", "error", "elapsed_seconds"}
    return [k for k in row if k not in skip]


def _row_problem(row: dict, expected: dict | None) -> str | None:
    if row.get("error") is not None:
        return f"error {row['error']}"
    failed = [k for k, v in row.items() if v is False]
    if failed:
        return f"properties failed: {failed}"
    if not _close(row["j[optimal]"], row["j_star"]):
        return f"j[optimal]={row['j[optimal]']!r} != j_star={row['j_star']!r}"
    if expected is None:
        return None
    for key, want in expected.items():
        got = row.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
            if not _close(float(got), want):
                return f"{key}={got!r} differs from the reference {want!r}"
        elif got != want:
            return f"{key}={got!r} differs from the reference {want!r}"
    return None


class MonteCarlo(Workload):
    """Seeded Monte Carlo for myopic, approx:2 and table-backed optimal policies."""

    name = "monte-carlo"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.summaries: dict[tuple[str, str], list] = {}

    def setup(self) -> None:
        self.instances = {}
        self.tables = {}
        self.shapes = []
        timings = {}
        for label in self.scale.mc_instances:
            if label == "queueing":
                # The ladder's queueing rung, drawn from the same stream.
                rng = _rung_rng(self.seed, QUEUEING_RUNG)
                params = apps.queueing_params_from_dict(queueing_params(rng))
                instance = apps.build_queueing_instance(params)
            else:
                instance = mc_coverage_instance(self.seed)
            started = time.perf_counter()
            table = stodep.solve_clairvoyant(instance)
            audit = stodep.audit_table(instance, table, tol=AUDIT_TOL)
            timings[label] = (started, time.perf_counter() - started)
            if not audit.passed:
                self.fail(f"mc {label}", f"audit of the optimal table failed at "
                                         f"{len(audit.failures)} entries")
            self.instances[label] = instance
            self.tables[label] = table
            self.shapes.append({
                "instance": label,
                "capacities": list(instance.capacities),
                "horizon": instance.horizon,
                "activities": instance.num_activities,
                "dense_entries": dense_entries(instance),
            })
        largest = max(self.shapes, key=lambda s: s["dense_entries"])["instance"]
        self.certify_spans.append(timings[largest])

    def _policy(self, label, name):
        if name == "optimal":
            return stodep.optimal_policy_from_table(self.tables[label])
        return stodep.policy_from_name(name)

    def _master_seed(self, i, p, c) -> int:
        return ((self.seed * 16 + i) * 16 + p) * 4096 + c

    def run_pass(self, tracer) -> float:
        busy = 0.0
        for i, label in enumerate(self.scale.mc_instances):
            instance = self.instances[label]
            for p, name in enumerate(MC_POLICIES):
                self.attempted += 1
                summaries = []
                # A fresh policy per run, so the myopic memo starts cold as in a CLI invocation.
                policy = self._policy(label, name)
                with tracer.op(f"mc:{label}:{name}"):
                    for c in range(self.scale.mc_calls):
                        started = time.perf_counter()
                        summary = stodep.monte_carlo_value(
                            instance, policy, self.scale.mc_reps, self._master_seed(i, p, c)
                        )
                        elapsed = time.perf_counter() - started
                        busy += elapsed
                        self.row_spans.append((started, elapsed))
                        summaries.append(summary)
                self.summaries.setdefault((label, name), []).append(summaries)
        return busy

    def finish(self) -> None:
        """Each pooled mean must lie within 4 standard errors of the exact value.

        When every replication gave the same total the standard error is 0,
        though a rare outcome may simply not have been drawn; the error is
        then floored at one replication's share of the mean, |mean| / n.
        """
        for (label, name), passes in self.summaries.items():
            instance = self.instances[label]
            exact_table = stodep.evaluate_policy_exact(instance, self._policy(label, name))
            exact = float(exact_table.values[exact_table.state_index(instance.initial_items), 0])
            for summaries in passes:
                mean, se = pooled_mean_se(summaries)
                n = sum(s.n_reps for s in summaries)
                se = max(se, abs(mean) / n)
                allowed = MC_SIGMAS * se + RELATIVE_TOL * max(1.0, abs(exact))
                if abs(mean - exact) > allowed:
                    self.fail(f"mc {label} {name}", f"mean {mean!r} with standard error "
                                                    f"{se!r} misses the exact {exact!r}")


def pooled_mean_se(summaries) -> tuple[float, float]:
    """Mean and standard error over all replications of several summaries."""
    n = sum(s.n_reps for s in summaries)
    mean = math.fsum(s.n_reps * s.mean for s in summaries) / n
    if n < 2:
        return mean, 0.0
    within = math.fsum((s.n_reps - 1) * s.stddev**2 for s in summaries)
    between = math.fsum(s.n_reps * (s.mean - mean) ** 2 for s in summaries)
    return mean, math.sqrt((within + between) / (n - 1) / n)


WORKLOADS = {cls.name: cls for cls in (ExactLadder, BatchSmall, MonteCarlo)}
