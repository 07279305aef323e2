import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

import stodep
from stodep import GeneralTabulatedReward, LinearDecayingReward
from stodep import cli
from stodep.cli import main
from stodep.serialize import instance_fingerprint, instance_to_dict, load_instance, save_instance
from stodep.apps import build_worst_case_instance

from conftest import SHAPE_FAULTS


@pytest.fixture
def worst_case_file(tmp_path):
    path = tmp_path / "instance.json"
    save_instance(build_worst_case_instance(0.1), path)
    return path


def test_generate_and_solve(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"epsilon": 0.1}))
    out = tmp_path / "inst.json"
    assert main(["generate", "--app", "worstcase", "--params", str(params), "--out", str(out)]) == 0
    inst = load_instance(out)
    assert inst.horizon == 2
    assert main(["solve", "--instance", str(out)]) == 0
    captured = capsys.readouterr()
    assert "J*=1.9" in captured.out


def test_one_parser_serves_every_main_call(worst_case_file, tmp_path, capsys):
    """The parser is built once per process; later calls with other
    subcommands, and a bad argument, still parse as a fresh parser would."""
    assert main(["solve", "--instance", str(worst_case_file)]) == 0
    assert "J*=1.9" in capsys.readouterr().out
    assert main(["check", "--instance", str(worst_case_file), "--properties", "vfm"]) == 0
    assert "vfm: pass" in capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", str(worst_case_file), "--tol", "small"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: stodep solve") and "--tol: invalid float value: 'small'" in err


def test_solve_dumps_table(worst_case_file, tmp_path, capsys):
    dump = tmp_path / "table.json"
    assert main(["solve", "--instance", str(worst_case_file), "--dump-table", str(dump)]) == 0
    payload = json.loads(dump.read_text())
    assert payload["horizon"] == 2
    assert len(payload["values"]) == 4


def test_missing_instance_exits_2(tmp_path, capsys):
    assert main(["solve", "--instance", str(tmp_path / "nope.json")]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "not found" in err["message"]


def test_cap_violation_exits_3(worst_case_file, capsys):
    assert main(["solve", "--instance", str(worst_case_file), "--cap-states", "2"]) == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "StateSpaceCapExceeded"


def test_check_command(worst_case_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "check",
            "--instance",
            str(worst_case_file),
            "--properties",
            "vfm,ir,ratio:2,assumption1",
            "--tol",
            "1e-9",
            "--out",
            str(report_path),
            "--strict",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for line in ("vfm: pass", "ir: pass", "ratio:2: pass", "assumption1: pass"):
        assert line in out
    report = json.loads(report_path.read_text())
    assert report["ratio:2"]["max_ratio"] == pytest.approx(1.9, abs=1e-12)
    assert report["vfm"]["passed"] is True


def test_check_strict_fails_on_violation(tmp_path, capsys):
    # non-submodular tabulated reward with a reachable monotonicity break
    from conftest import make_instance

    reward = GeneralTabulatedReward.from_potential(
        lambda y: float((y[0] + y[1]) ** 2), (1, 1), 1
    )
    inst = make_instance(capacities=(1, 1), horizon=1, schedule=[[[0.0, 1.0]]], reward=reward)
    path = tmp_path / "bad.json"
    save_instance(inst, path)
    code = main(["check", "--instance", str(path), "--properties", "vfm", "--strict"])
    assert code == 1
    assert "vfm: FAIL" in capsys.readouterr().out


def test_check_reports_reward_structure_failure(tmp_path, capsys):
    from conftest import make_instance

    table = {
        ((1,), (0,), 0): 1.0,
        ((1,), (0,), 1): 2.0,  # reward increases over time
        ((1,), (1,), 0): 0.0,
        ((1,), (1,), 1): 0.0,
        ((0,), (0,), 0): 0.0,
        ((0,), (0,), 1): 0.0,
    }
    inst = make_instance(
        capacities=(1,), horizon=2, schedule=[[[0.5]], [[0.5]]],
        reward=GeneralTabulatedReward(table),
    )
    path = tmp_path / "bad.json"
    save_instance(inst, path)
    report_path = tmp_path / "report.json"
    code = main(
        ["check", "--instance", str(path), "--properties", "assumption1",
         "--out", str(report_path), "--strict"]
    )
    assert code == 1
    assert "assumption1: FAIL" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["assumption1"]["violations"]  # witnesses are serialized


def test_simulate_traces(worst_case_file, tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    code = main(
        [
            "simulate",
            "--instance",
            str(worst_case_file),
            "--policy",
            "optimal",
            "--reps",
            "3",
            "--seed",
            "9",
            "--out",
            str(traces),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["mean"] == pytest.approx(1.9, abs=1e-12)
    lines = traces.read_text().strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["total_reward"] == pytest.approx(1.9, abs=1e-12)


def test_batch_csv_byte_identical(tmp_path):
    config = tmp_path / "batch.json"
    config.write_text(
        json.dumps(
            {
                "app": "random-linear-decaying",
                "seed_start": 0,
                "seed_count": 4,
                "policies": ["myopic", "approx:2"],
                "properties": ["vfm", "ir", "ratio:2"],
            }
        )
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["batch", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["batch", "--config", str(config), "--out", str(out2)]) == 0
    csv1 = (tmp_path / "r1.csv").read_bytes()
    assert csv1 == (tmp_path / "r2.csv").read_bytes()
    header = csv1.decode().splitlines()[0].split(",")
    assert header[:7] == [
        "seed",
        "fingerprint",
        "family",
        "num_types",
        "horizon",
        "num_activities",
        "j_star",
    ]
    rows = csv1.decode().splitlines()[1:]
    assert len(rows) == 4
    # ratios must be consistent with the J columns they came from
    for row in rows:
        cells = dict(zip(header, row.split(",")))
        j_star, j_myopic = float(cells["j_star"]), float(cells["j[myopic]"])
        if j_myopic > 0:
            assert abs(float(cells["ratio[myopic]"]) - j_star / j_myopic) <= 1e-12
    payload = json.loads((tmp_path / "r1.json").read_text())
    assert all("elapsed_seconds" in row for row in payload["rows"])


def test_batch_empty_seed_range(tmp_path, capsys):
    config = tmp_path / "batch.json"
    config.write_text(json.dumps({"app": "random-submodular", "seed_count": 0}))
    assert main(["batch", "--config", str(config), "--out", str(tmp_path / "empty")]) == 0
    assert (tmp_path / "empty.csv").read_text().count("\n") == 1  # header only


def test_generate_unknown_app_exits_2(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text("{}")
    assert main(["generate", "--app", "bogus", "--params", str(params)]) == 2


def _error_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_missing_app_parameter_exits_2(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text("{}")
    assert main(["generate", "--app", "worstcase", "--params", str(params)]) == 2
    err = _error_line(capsys)
    assert err["error"] == "KeyError" and "epsilon" in err["message"]


def test_app_parameter_list_too_short_exits_2(capsys, tmp_path):
    """One selection sequence for two elements: an IndexError, once a traceback and exit 1."""
    params = tmp_path / "p.json"
    params.write_text(json.dumps(dict(MINIMAL_PARAMS["matroid-card"], selection_probs=[[0.5]])))
    assert main(["generate", "--app", "matroid-card", "--params", str(params)]) == 2
    assert _error_line(capsys) == {"error": "IndexError", "message": "list index out of range"}


def test_matroid_selection_probs_read_as_a_list_or_an_object(capsys, tmp_path):
    """An object names each element by its index as a string: it once
    failed with KeyError: 0.  A key that names no element is refused."""
    params, fingerprints = tmp_path / "p.json", []
    for probs in ([[0.5], [0.25]], {"1": [0.25], "0": [0.5]}, {"0": [0.5], "2": [0.25]}):
        params.write_text(json.dumps(dict(MINIMAL_PARAMS["matroid-card"], selection_probs=probs)))
        out = tmp_path / f"instance{len(fingerprints)}.json"
        code = main(["generate", "--app", "matroid-card", "--params", str(params), "--out", str(out)])
        fingerprints.append(instance_fingerprint(load_instance(out)) if code == 0 else code)
    assert fingerprints[0] == fingerprints[1] and fingerprints[2] == 2
    assert _error_line(capsys) == {"error": "ConfigError", "message": "selection_probs key '2' "
                                   "is not an element index in [0, 2)"}


def test_simulate_zero_reps_exits_2(worst_case_file, capsys):
    assert main(["simulate", "--instance", str(worst_case_file), "--reps", "0"]) == 2
    assert _error_line(capsys)["error"] == "ValueError"


@pytest.mark.parametrize("policy", ["myopic", "fixed:0", "round_robin", "random:3"])
def test_simulate_reads_rewards_under_the_state_cap(policy, worst_case_file, capsys):
    # 12 table entries: every policy's rollout reads g from the operator.
    argv = ["simulate", "--instance", str(worst_case_file), "--policy", policy, "--reps", "2"]
    assert main(argv + ["--cap-states", "11"]) == 3
    assert _error_line(capsys)["error"] == "StateSpaceCapExceeded"
    assert main(argv + ["--cap-states", "12"]) == 0


@pytest.mark.parametrize("policy", ["myopic", "approx:2", "optimal"])
def test_simulate_builds_every_table_under_cap_states(policy, worst_case_file, monkeypatch, capsys):
    # Every module that binds bellman_operator records the cap it is called with.
    build, caps = stodep.dp.bellman_operator, []

    def recording(instance, state_cap=stodep.DEFAULT_STATE_CAP):
        caps.append(state_cap)
        return build(instance, state_cap)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "stodep"]:
        if getattr(module, "bellman_operator", None) is build:
            monkeypatch.setattr(module, "bellman_operator", recording)
    argv = ["simulate", "--instance", str(worst_case_file), "--policy", policy, "--reps", "2"]
    assert main(argv + ["--cap-states", "13"]) == 0
    assert caps and set(caps) == {13}


def test_non_object_instance_json_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["solve", "--instance", str(path)]) == 2
    assert _error_line(capsys)["error"] == "TypeError"


BAD_TOLERANCES = ("nan", "inf", "-1")
BATCH_CONFIG = {"app": "worstcase", "params": {"epsilon": 0.1}, "seed_count": 1,
                "properties": ["vfm"]}
# Batch config values of the wrong shape: (the field named, the fields set).
BAD_BATCH_CONFIGS = {
    "seeds-string": ("seeds", {"seeds": "12"}),
    "seeds-bool-and-float": ("seeds", {"seeds": [True, 1.9]}),
    "seed-count-float": ("seed_count", {"seed_count": 2.7}),
    "seed-count-negative": ("seed_count", {"seed_count": -1}),
    "seed-start-string": ("seed_start", {"seed_start": "0"}),
    "policies-string": ("policies", {"policies": "myopic"}),
    "properties-string": ("properties", {"properties": "vfm"}),
}


def _hostile_inputs():
    """(file JSON, extra flags, exit code, error, commands) per hostile case.

    The file is the --instance of solve, simulate and check, and the
    --config of batch; commands are the COMMANDS the case runs under.
    """
    base = instance_to_dict(build_worst_case_instance(0.1))
    cases = {name: (dict(base, reward=spec), [], 2, "ConfigError")
             for name, spec in SHAPE_FAULTS.items()}
    # A tabulated reward with a missing entry: every command refuses it when
    # it builds the instance, whatever the size of its domain.
    missing = {"kind": "general_tabulated", "entries": [[[1, 1], [0, 0], 0, 1.0]]}
    cases["tabulated-missing-entry"] = (dict(base, reward=missing), [], 2, "ConfigError")
    # Malformed tabulated entries: every command refuses them when it builds the instance.
    table = GeneralTabulatedReward.from_potential(lambda y: float(sum(y)), (1, 1), 2).spec_dict()
    malformed = {
        "tabulated-duplicate-key": [[1, 1], [0, 0], 0, 99.0],
        "tabulated-non-integral-key": [[1, 0.5], [0, 0], 0, 1.0],
        "tabulated-three-fields": [[1, 1], [0, 0], 0],
    }
    for name, entry in malformed.items():
        spec = dict(table, entries=table["entries"] + [entry])
        cases[name] = (dict(base, reward=spec), [], 2, "ConfigError")
    empty = {"kind": "general_tabulated", "entries": []}
    cases["tabulated-no-entries"] = (dict(base, reward=empty), [], 2, "ConfigError")
    # Value faults outside the reward: every command refuses them when it builds the instance.
    value_faults = {
        "nan-schedule-entry": {"schedule": [[[float("nan"), 0.0], [0.0, 1.0]],
                                            [[1.0, 0.0], [0.0, 0.0]]]},
        "probability-above-one": {"schedule": [[[1.5, 0.0], [0.0, 1.0]],
                                               [[1.0, 0.0], [0.0, 0.0]]]},
        "negative-probability": {"schedule": [[[1.0, 0.0], [0.0, -0.5]],
                                              [[1.0, 0.0], [0.0, 0.0]]]},
        "capacity-zero": {"capacities": [0, 1], "initial_items": [0, 1]},
        "initial-items-above-capacity": {"initial_items": [2, 1]},
        "negative-initial-items": {"initial_items": [1, -1]},
        "deadline-before-arrival": {"arrivals": [1, 0], "deadlines": [0, 2]},
        "deadline-past-horizon": {"arrivals": [0, 0], "deadlines": [3, 2]},
        "probability-outside-window": {"arrivals": [0, 1], "deadlines": [2, 2]},
    }
    for name, fields in value_faults.items():
        cases[name] = (dict(base, **fields), [], 2, "ConfigError")
    # Non-finite reward data: the Instance constructor refuses it, so check,
    # which leaves the reward value rules to assumption1, refuses it too.
    first, *rest = table["entries"]
    non_finite = {
        "linear-weight-infinite": {"kind": "linear", "weights": [math.inf, 0.9]},
        "linear-weight-nan": {"kind": "linear", "weights": [math.nan, 0.9]},
        "coverage-weight-infinite": {"kind": "submodular_coverage", "num_elements": 2,
                                     "covers": [[0], [1]], "element_weights": [math.inf, 1.0]},
        "budgeted-value-infinite": {"kind": "submodular_budgeted", "budgets": [None],
                                    "values": [math.inf, 1.0], "groups": [0, 0]},
        "tabulated-value-infinite": dict(table, entries=[first[:3] + [math.inf], *rest]),
    }
    for name, spec in non_finite.items():
        cases[name] = (dict(base, reward=spec), [], 2, "ConfigError")
    cases["activities-over-cap"] = (base, ["--cap-activities", "1"], 3, "ActivityCapExceeded")
    # Eight types of capacity 64, past the state cap, and of capacity 5,
    # within it: a table of one entry has 4.5e26 and 7.6e10 missing ones.
    for name, cap in (("tabulated-huge-grid", 64), ("tabulated-huge-dense-reward", 5)):
        one_entry = {"kind": "general_tabulated", "entries": [[[cap] * 8, [0] * 8, 0, 1.0]]}
        cases[name] = (
            dict(base, num_types=8, capacities=[cap] * 8, initial_items=[cap] * 8,
                 schedule=[[[0.5] * 8] * 2] * 2, reward=one_entry),
            [], 2, "ConfigError",
        )
    cases = {name: case + (("check", "simulate", "solve"),) for name, case in cases.items()}
    # A ratio bound or an alpha that is not a number is a configuration
    # error (exit 2), not a property failure (exit 1).
    for bound in ("nan", "inf"):
        cases[f"ratio-{bound}"] = (
            base, ["--properties", f"ratio:{bound}", "--strict"], 2, "ConfigError", ("check",),
        )
        config = {"app": "worstcase", "params": {"epsilon": 0.1}, "seed_count": 1,
                  "properties": ["vfm", f"ratio:{bound}"]}
        cases[f"batch-ratio-{bound}"] = (config, ["--strict"], 2, "ConfigError", ("batch",))
    cases["approx-nan"] = (
        base, ["--policy", "approx:nan"], 2, "ConfigError", ("check", "simulate"),
    )
    # A bad policy is refused whether or not a ratio property would use it,
    # and a batch config's policies before any row is built.
    for policy in ("bogus", "approx:nan"):
        cases[f"policy-{policy}-without-ratio"] = (
            base, ["--properties", "vfm", "--policy", policy, "--strict"], 2, "ConfigError",
            ("check",),
        )
        config = {"app": "worstcase", "params": {"epsilon": 0.1}, "seed_count": 1,
                  "policies": [policy]}
        cases[f"batch-policy-{policy}"] = (config, ["--strict"], 2, "ConfigError", ("batch",))
    # So is an unknown app: it used to fill every row's error cell and exit 0.
    cases["batch-app-bogus"] = (
        {"app": "bogus", "seed_count": 2}, ["--strict"], 2, "ConfigError", ("batch",),
    )
    # A tolerance that is not finite and >= 0 certifies nothing, so it is a
    # configuration error even on weights that rise over time (assumption1 fails).
    rising = {"kind": "linear_decaying", "weights": [[0.1, 0.9], [0.1, 0.9]]}
    for tol in BAD_TOLERANCES:
        cases[f"tol-{tol}"] = (
            dict(base, reward=rising), ["--tol", tol, "--strict"], 2, "ConfigError", ("check",),
        )
    # Four types of capacity 55: 56^4 states fit the state cap, but w would be
    # read at 57^4 > 1e7 points of the box [0, capacities + 1]; refused first.
    coverage = {"kind": "submodular_coverage", "num_elements": 4, "covers": [[0], [1], [2], [3]],
                "element_weights": [1.0, 1.0, 1.0, 1.0]}
    cases["submodular-over-box-cap"] = (
        dict(base, num_types=4, capacities=[55] * 4, initial_items=[55] * 4,
             schedule=[[[0.5] * 4] * 2] * 2, reward=coverage),
        ["--properties", "submodular"], 3, "EnumerationCapExceeded", ("check",),
    )
    return cases


HOSTILE = _hostile_inputs()
COMMANDS = {
    "solve": ["solve", "--instance"],
    "simulate": ["simulate", "--reps", "2", "--instance"],
    "check": ["check", "--properties", "vfm,ir,ratio:2,assumption1", "--instance"],
    "batch": ["batch", "--config"],
}
HOSTILE_RUNS = [(case, command) for case in sorted(HOSTILE) for command in HOSTILE[case][4]]


@pytest.mark.parametrize("case, command", HOSTILE_RUNS, ids=[f"{c}-{m}" for c, m in HOSTILE_RUNS])
def test_hostile_input_ends_in_one_json_error(case, command, tmp_path, capsys, monkeypatch):
    data, flags, code, error, _ = HOSTILE[case]
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)  # where batch would write its report
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(COMMANDS[command] + [str(path)] + flags) == code
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    lines = capsys.readouterr().out.strip().splitlines()
    assert not any(line.endswith(": pass") for line in lines)
    err = json.loads(lines[-1])
    assert set(err) == {"error", "message"} and "\n" not in err["message"]
    assert err["error"] == error
    assert all(not line.startswith("{") for line in lines[:-1])


def _instance_faults():
    """(text the message holds, edits) per fault the Instance constructor
    refuses, each a one-field edit of the worst-case example's file."""
    base = instance_to_dict(build_worst_case_instance(0.1))

    def schedule(t, a, m, value):
        rows = json.loads(json.dumps(base["schedule"]))
        rows[t][a][m] = value
        return {"schedule": rows}

    def reward(**spec):
        return {"reward": spec}

    def table(value, t):
        entries = GeneralTabulatedReward.from_potential(
            lambda y: float(sum(y)), (1, 1), 2).spec_dict()["entries"]
        entries = [e[:3] + [value if e[2] == t else e[3]] for e in entries]
        if t == 2:
            entries.append([[1, 1], [0, 0], 2, value])
        return reward(kind="general_tabulated", entries=entries)

    linear, budgeted = dict(kind="linear"), dict(kind="submodular_budgeted", groups=[0, 0])
    coverage = dict(kind="submodular_coverage", num_elements=2, covers=[[0], [1]],
                    element_weights=[1.0, 1.0])
    faults = {
        "num-types-zero": ("num_types", {"num_types": 0}),
        "num-types-bool": ("num_types is True", {"num_types": True}),
        "horizon-zero": ("horizon", {"horizon": 0}),
        "horizon-float": ("horizon is 2.7", {"horizon": 2.7}),
        "activities-empty": ("activities", {"activities": []}),
        "capacities-short": ("capacities", {"capacities": [1]}),
        "capacity-zero": ("capacities[0] is 0", {"capacities": [0, 1], "initial_items": [0, 1]}),
        "capacity-above-cap": ("capacities[0] is 65", {"capacities": [65, 1]}),
        "capacity-float": ("capacities[0] is 1.5", {"capacities": [1.5, 1]}),
        "capacity-string": ("capacities[0] is '1'", {"capacities": ["1", 1]}),
        "initial-items-long": ("initial_items", {"initial_items": [1, 1, 1]}),
        "initial-items-negative": ("initial_items[1] is -1", {"initial_items": [1, -1]}),
        "initial-items-above-capacity": ("initial_items[0] is 2", {"initial_items": [2, 1]}),
        "initial-items-bool": ("initial_items[0] is True", {"initial_items": [True, 1]}),
        "schedule-shape": ("schedule shape", {"schedule": [[[0.5] * 3] * 2] * 2}),
        "schedule-ragged": ("schedule", {"schedule": [[[0.5, 0.5], [0.5]]] * 2}),
        "schedule-above-one": ("schedule[0][0][0] is 1.5", schedule(0, 0, 0, 1.5)),
        "schedule-negative": ("schedule[0][1][1] is -0.5", schedule(0, 1, 1, -0.5)),
        "schedule-nan": ("schedule[1][0][0] is nan", schedule(1, 0, 0, math.nan)),
        "schedule-bool": ("schedule[0][0][0] is True", schedule(0, 0, 0, True)),
        "schedule-string": ("schedule[1][0][0] is '0.5'", schedule(1, 0, 0, "0.5")),
        "arrivals-short": ("arrivals", {"arrivals": [0]}),
        "arrival-float": ("arrivals[0] is 0.9", {"arrivals": [0.9, 0]}),
        "deadlines-long": ("deadlines", {"deadlines": [2, 2, 2]}),
        "deadline-before-arrival": ("deadlines[0] is 0", {"arrivals": [1, 0], "deadlines": [0, 2]}),
        "deadline-past-horizon": ("deadlines[0] is 3", {"deadlines": [3, 2]}),
        "outside-window": ("schedule[0][1][1] is 1.0", {"arrivals": [0, 1], "deadlines": [2, 2]}),
        "weight-string": ("reward.weights[0] is '1.0'", reward(**linear, weights=["1.0", 0.9])),
        "weight-bool": ("reward.weights[0] is True", reward(**linear, weights=[True, 0.9])),
        "weight-nan": ("reward.weights[0] is nan", reward(**linear, weights=[math.nan, 0.9])),
        "weight-infinite": ("reward.weights[1] is inf", reward(**linear, weights=[1.0, math.inf])),
        "decaying-weight-nan": ("reward.weights[1][0] is nan", reward(
            kind="linear_decaying", weights=[[1.0, 0.5], [math.nan, 0.5]])),
        "weights-total-overflow": ("largest reward total over one episode is inf",
                                   reward(**linear, weights=[1e308, 1e308])),
        "coverage-count-float": ("reward.num_elements is 1.5",
                                 reward(**dict(coverage, num_elements=1.5))),
        "coverage-element-float": ("reward.covers[1][0] is 0.5",
                                   reward(**dict(coverage, covers=[[0], [0.5]]))),
        "coverage-weight-nan": ("reward.element_weights[1] is nan",
                                reward(**dict(coverage, element_weights=[1.0, math.nan]))),
        "budget-string": ("reward.budgets[0] is '1'",
                          reward(**budgeted, budgets=["1"], values=[1.0, 1.0])),
        "budget-minus-infinity": ("reward.budgets[0] is -inf",
                                  reward(**budgeted, budgets=[-math.inf], values=[1.0, 1.0])),
        "budgeted-value-infinite": ("reward.values[0] is inf",
                                    reward(**budgeted, budgets=[None], values=[math.inf, 1.0])),
        "group-float": ("reward.groups[0] is 0.5", reward(**dict(
            budgeted, groups=[0.5, 0]), budgets=[1.0], values=[1.0, 1.0])),
        "tabulated-value-nan": ("reward.entries: the value at ((0, 0), (0, 0), 1) is nan",
                                table(math.nan, 1)),
        "tabulated-terminal-infinite": ("reward.entries: the value at ((1, 1), (0, 0), 2) is inf",
                                        table(math.inf, 2)),
        "tabulated-value-bool": ("reward.entries[1]", table(True, 1)),
        "tabulated-total-overflow": ("largest reward total over one episode is inf",
                                     table(-1e308, 0)),
    }
    return {name: (named, dict(base, **edits)) for name, (named, edits) in faults.items()}


INSTANCE_FAULTS = _instance_faults()


@pytest.mark.parametrize("case", sorted(INSTANCE_FAULTS))
def test_an_instance_fault_is_refused_naming_its_field(case, tmp_path, capsys):
    """Each fault raises ConfigError from the Instance constructor, or from
    the reward spec it is given, whether built directly, from a dict or
    from a file by the CLI, which exits 2 with one JSON line."""
    named, data = INSTANCE_FAULTS[case]
    data = json.loads(json.dumps(data))  # as a file reads
    fields = {k: data.get(k) for k in ("num_types", "capacities", "initial_items", "horizon",
                                       "activities", "schedule", "arrivals", "deadlines")}
    with pytest.raises(stodep.ConfigError, match=re.escape(named)):
        stodep.Instance(**fields, reward=stodep.reward_from_dict(data["reward"]))
    with pytest.raises(stodep.ConfigError, match=re.escape(named)):
        stodep.instance_from_dict(data)
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(data))
    for command in (["solve"], ["check", "--properties", "assumption1"], ["simulate"]):
        assert main(command + ["--instance", str(path)]) == 2
        (line,) = capsys.readouterr().out.strip().splitlines()
        err = json.loads(line)
        assert err["error"] == "ConfigError" and named in err["message"], command


def _heavy_instance(tmp_path, weight, p=0.9) -> str:
    """The file of two types of capacity 2, linear weights (weight, weight),
    T = 2 and one activity with probability p, written as JSON: the Instance
    constructor refuses the largest weights."""
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({
        "num_types": 2, "capacities": [2, 2], "initial_items": [2, 2], "horizon": 2,
        "activities": ["a"], "schedule": [[[p, p]]] * 2, "metadata": {},
        "reward": {"kind": "linear", "weights": [weight, weight]},
    }))
    return str(path)


@pytest.mark.parametrize("command", [
    ["solve"],
    ["check", "--properties", "vfm,ir", "--policy", "fixed:0"],
    ["simulate", "--policy", "fixed:0"],
], ids=lambda command: command[0])
def test_reward_totals_past_double_precision_exit_2(command, tmp_path, capsys):
    """(1e308, 1e308) once solved to J*=inf, simulated to a mean of Infinity,
    and failed vfm and ir; the instance is refused when it is built."""
    assert main(command + ["--instance", _heavy_instance(tmp_path, 1e308)]) == 2
    out = capsys.readouterr().out
    assert "Infinity" not in out and "NaN" not in out
    assert json.loads(out) == {"error": "ConfigError", "message": "the largest reward total over "
                               "one episode is inf: the reward data must be finite"}


@pytest.mark.parametrize("weight, p, statistic", [(1e155, 0.5, "variance"), (4e307, 0.9, "mean")])
def test_simulate_statistics_past_double_precision_exit_2(weight, p, statistic, tmp_path, capsys):
    """Finite totals whose squared deviations, or whose sum, overflow."""
    path = _heavy_instance(tmp_path, weight, p)
    assert main(["simulate", "--instance", path, "--policy", "fixed:0", "--reps", "20"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "ConfigError", "message": f"the {statistic} of the episode totals overflows a double"}


def test_check_names_the_first_missing_entry_of_a_huge_tabulated_reward(tmp_path, capsys):
    """6**8 states and 7.6e10 (x, x', t) keys: the first missing key,
    lexicographically, is named before any array of S entries, let alone
    S * S, is built."""
    data = HOSTILE["tabulated-huge-dense-reward"][0]
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        assert main(["check", "--instance", str(path), "--properties", "vfm"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = _error_line(capsys)
    assert err["error"] == "ConfigError"
    assert err["message"] == f"reward.entries: no entry for ({(0,) * 8}, {(0,) * 8}, 0)"
    assert peak < 8 * 6**8  # one array of S doubles


@pytest.mark.parametrize("prop", ["vfm", "ir", "ratio:2", "assumption1"])
@pytest.mark.parametrize("case", sorted(SHAPE_FAULTS))
def test_check_rejects_shape_faults_for_any_property(case, prop, tmp_path, capsys):
    data = HOSTILE[case][0]
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--instance", str(path), "--properties", prop]) == 2
    assert _error_line(capsys)["error"] == "ConfigError"


# Tabulated entries whose key has the wrong length or lies outside the
# domain of the two-type, two-epoch worst-case example.
STRAY_ENTRIES = {
    "three-types": [[1, 1, 1], [0, 0, 0], 0, 99.0],
    "epoch-past-horizon": [[1, 1], [0, 0], 5, 99.0],
    "items-above-capacity": [[2, 1], [0, 0], 0, 99.0],
    "next-above-items": [[0, 1], [1, 1], 0, 99.0],
    "negative-next": [[1, 1], [-1, 0], 0, 99.0],
    "negative-epoch": [[1, 1], [0, 0], -1, 99.0],
}


STRAY_COMMANDS = {
    "solve": ["solve"],
    "check": ["check"],
    "check-assumption1": ["check", "--properties", "assumption1"],
}


@pytest.mark.parametrize("command", sorted(STRAY_COMMANDS))
@pytest.mark.parametrize("case", sorted(STRAY_ENTRIES))
def test_tabulated_entry_outside_the_domain_exits_2(case, command, tmp_path, capsys):
    inst = build_worst_case_instance(0.1)
    reward = GeneralTabulatedReward.from_potential(lambda y: float(sum(y)), inst.capacities,
                                                   inst.horizon)
    data = dict(instance_to_dict(inst), reward=reward.spec_dict())
    path = tmp_path / "clean.json"
    path.write_text(json.dumps(data))
    assert main(STRAY_COMMANDS[command] + ["--instance", str(path)]) == 0
    capsys.readouterr()
    data["reward"]["entries"].append(STRAY_ENTRIES[case])
    path.write_text(json.dumps(data))
    assert main(STRAY_COMMANDS[command] + ["--instance", str(path)]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError"


def test_activity_cap_admits_the_count_itself(worst_case_file, capsys):
    assert main(["solve", "--instance", str(worst_case_file), "--cap-activities", "2"]) == 0
    assert "J*=1.9" in capsys.readouterr().out


def test_batch_tol_flag_applies_when_the_config_has_none(tmp_path, capsys):
    # J*/J^myopic = 1.9 on the worst-case example, so ratio:1.89 holds only
    # under a tolerance of at least about 0.0053.
    config = {"app": "worstcase", "params": {"epsilon": 0.1}, "seeds": [0],
              "properties": ["ratio:1.89"]}

    def ratio_cell(cfg, *flags):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "report"
        assert main(["batch", "--config", str(path), "--out", str(out), *flags]) == 0
        header, row = out.with_suffix(".csv").read_text().splitlines()
        return dict(zip(header.split(","), row.split(",")))["ratio:1.89"]

    assert ratio_cell(config) == "false"
    assert ratio_cell(config, "--tol", "0.01") == "true"
    assert ratio_cell(dict(config, tol=1e-9), "--tol", "0.01") == "false"  # the config wins


@pytest.mark.parametrize("case", sorted(BAD_BATCH_CONFIGS))
def test_batch_config_of_the_wrong_shape_is_refused_by_field(case, tmp_path, capsys):
    field, fields = BAD_BATCH_CONFIGS[case]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(dict(BATCH_CONFIG, **fields)))
    out = tmp_path / "report"
    assert main(["batch", "--config", str(path), "--out", str(out)]) == 2
    err = _error_line(capsys)
    assert err["error"] == "ConfigError" and f"'{field}'" in err["message"]
    assert not list(tmp_path.glob("report*"))


@pytest.mark.parametrize("fields, error, named", [
    ({"app": "bogus", "seed_count": 2}, "ConfigError", "'bogus'"),
    ({"app": ["worstcase"]}, "ConfigError", "['worstcase']"),
    ({"params": {"epsilon": "x"}, "seed_count": 2}, "ValueError", "'x'"),
])
def test_batch_config_that_builds_no_instance_writes_no_report(fields, error, named,
                                                               tmp_path, capsys):
    # An unknown app is refused before the first row; malformed params
    # escape the first row's build, and the run ends before the report too.
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(dict(BATCH_CONFIG, **fields)))
    out = tmp_path / "report"
    assert main(["batch", "--config", str(path), "--out", str(out)]) == 2
    err = _error_line(capsys)
    assert err["error"] == error and named in err["message"]
    assert not list(tmp_path.glob("report*"))


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_tolerance_that_certifies_nothing_is_refused(tol, tmp_path, capsys):
    rising = LinearDecayingReward(((0.1, 0.9), (0.1, 0.9)))
    inst = dataclasses.replace(build_worst_case_instance(0.1), reward=rising)
    path = tmp_path / "rising.json"
    save_instance(inst, path)
    check = ["check", "--instance", str(path), "--properties", "assumption1", "--strict"]
    assert main(check) == 1  # the default tolerance certifies the failure
    capsys.readouterr()
    assert main(check + ["--tol", tol]) == 2
    assert repr(float(tol)) in _error_line(capsys)["message"]
    config = tmp_path / "batch.json"
    config.write_text(json.dumps(dict(BATCH_CONFIG, tol=float(tol))))
    assert main(["batch", "--config", str(config), "--out", str(tmp_path / "report")]) == 2
    assert "'tol'" in _error_line(capsys)["message"]
    assert not list(tmp_path.glob("report*"))


MINIMAL_PARAMS = {
    "worstcase": {"epsilon": 0.5},
    "setcover": {"ground_set": ["a", "b"], "cover_sets": [["a"], ["a", "b"]], "k": 1},
    "queueing": {
        "num_buffers": 1,
        "num_servers": 1,
        "horizon": 2,
        "service_means": [[2.0]],
        "rewards": [[1.0, 0.5]],
        "arrival_rates": [0.7],
    },
    "broadcast": {
        "num_users": 2,
        "num_pages": 1,
        "horizon": 2,
        "cap": 1,
        "rewards": [[1.0, 0.5]],
        "channels": [0.8, 0.6],
        "requests": [[0, 0, 0, 2], [1, 0, 1, 2]],
    },
    "productline": {
        "num_products": 2,
        "assortment_cap": 1,
        "segment_sizes": [1],
        "prices": [1.0],
        "horizon": 1,
        "purchase_probs": {"0": [[0.5]], "1": [[0.25]]},
    },
    "adwords": {
        "num_advertisers": 2,
        "num_keywords": 1,
        "budgets": [1.5, None],
        "valuations": [[1.0], [2.0]],
        "keyword_sequence": [0, 0],
        "slot_cap": 1,
        "click_probs": [[0.5], [0.25]],
    },
    "matroid-card": {
        "elements": ["a", "b"],
        "cardinality": 1,
        "value": {
            "kind": "submodular_coverage",
            "num_elements": 2,
            "covers": [[0], [0, 1]],
            "element_weights": [1.0, 0.5],
        },
    },
    "matroid-part": {
        "elements": ["a", "b"],
        "partition": [{"elements": [0], "k": 1}, {"elements": [1], "k": 1}],
        "value": {
            "kind": "submodular_budgeted",
            "budgets": [2.0],
            "values": [1.0, 3.0],
            "groups": [0, 0],
        },
    },
    "random-submodular": {},
    "random-linear-decaying": {},
}


@pytest.mark.parametrize("app", sorted(MINIMAL_PARAMS))
def test_generate_every_app(app, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(MINIMAL_PARAMS[app]))
    out = tmp_path / "inst.json"
    code = main(
        ["generate", "--app", app, "--params", str(params), "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    inst = load_instance(out)  # loader re-validates
    assert inst.num_types >= 1
    assert main(["solve", "--instance", str(out)]) == 0


# Sizes whose subsets would take terabytes to list: (params, the message of exit 3).
HUGE_ENUMERATIONS = {
    "adwords": (dict(MINIMAL_PARAMS["adwords"], num_advertisers=40, slot_cap=20,
                     budgets=[None] * 40, valuations=[[1.0]] * 40, click_probs=[[0.5]] * 40),
                "618679078298 advertiser subsets exceed cap 100000"),
    "broadcast": (dict(MINIMAL_PARAMS["broadcast"], num_users=40, cap=20,
                       rewards=[[1.0] * 40], channels=[0.5] * 40),
                  "618679078297 (page, users) activities exceed cap 100000"),
    "productline": (dict(MINIMAL_PARAMS["productline"], num_products=40, assortment_cap=20),
                    "618679078297 assortments exceed cap 100000"),
}


@pytest.mark.parametrize("app", sorted(HUGE_ENUMERATIONS))
def test_generate_counts_subsets_before_it_builds_any(app, tmp_path, capsys):
    params, message = HUGE_ENUMERATIONS[app]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert main(["generate", "--app", app, "--params", str(path), "--seed", "3"]) == 3
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _error_line(capsys) == {"error": "ActivityCapExceeded", "message": message}
    assert peak < 2**20 and elapsed < 0.5


def test_generate_prints_the_bytes_it_saves(tmp_path, capsysbinary):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(MINIMAL_PARAMS["queueing"]))
    out = tmp_path / "inst.json"
    args = ["generate", "--app", "queueing", "--params", str(params), "--seed", "3"]
    assert main(args + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(args) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_check_submodular_property_via_cli(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(MINIMAL_PARAMS["matroid-card"]))
    out = tmp_path / "inst.json"
    assert main(["generate", "--app", "matroid-card", "--params", str(params), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", "--instance", str(out), "--properties", "submodular,vfm", "--strict"]) == 0
    text = capsys.readouterr().out
    assert "submodular: pass" in text and "vfm: pass" in text


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-m", "stodep", "--help"], capture_output=True,
                         text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: stodep")
