"""In-memory span tracer and the wrappers that attach it to stodep's public functions.

A traced call opens a frame on a stack when it starts and closes it when it
returns.  Closing a frame adds its duration to its parent's child time, so a
frame's self time is its duration minus the time its direct children covered
(calls are sequential, so the children never overlap).  Busy time counts only
the outermost frame of a name, so a function that re-enters itself is not
counted twice.

Wrappers come in three kinds:

* SPAN: timed, and each call is kept as a span (name, start, end, parent, op).
* TIMED: timed and aggregated, but not kept one by one (hot per-item calls).
* COUNT: counted only; their time stays in the caller's self time.

Functions are wrapped in every module namespace that binds them, because
stodep modules import functions by name (cli, properties and dp each hold
their own reference to ``solve_clairvoyant`` or ``instance_fingerprint``).
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

SPAN, TIMED, COUNT = "span", "timed", "count"


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_id", "record", "op")

    def __init__(self, name, start, span_id, parent_id, record, op):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.record = record
        self.op = op


class Tracer:
    """Collects spans and per-name call counts, busy time and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (span_id, name, start, end, parent_id, op)
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # quantities observed by hooks
        self.maxima: dict = {}
        self.distinct: defaultdict = defaultdict(set)
        self._stack: list[_Frame] = []
        self._depth: Counter = Counter()
        self._next_id = 0
        self._next_serial = 0
        self._serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._op = None
        self._op_label = None
        self._row_span = None
        self._rows = 0

    @contextmanager
    def op(self, op_id: str, row_span: str | None = None):
        """Label every span opened inside with op_id.

        With row_span set, each call of that name starts a new row, labelled
        op_id/row<k>: the rows of one batch command are told apart this way.
        """
        self._op, self._op_label, self._row_span, self._rows = op_id, op_id, row_span, 0
        try:
            yield
        finally:
            self._op = self._op_label = self._row_span = None

    def begin(self, name: str, record: bool = True) -> _Frame:
        if name == self._row_span:
            self._rows += 1
            self._op_label = f"{self._op}/row{self._rows}"
        parent_id = self._stack[-1].span_id if self._stack else None
        if record:
            self._next_id += 1
            span_id = self._next_id
        else:
            span_id = parent_id  # unrecorded frames pass their parent on
        frame = _Frame(name, self.clock(), span_id, parent_id, record, self._op_label)
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def end(self, frame: _Frame) -> None:
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        name = frame.name
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - frame.child
        if self._depth[name] == 0:
            self.busy[name] += duration
        if self._stack:
            self._stack[-1].child += duration
        if frame.record:
            self.spans.append((frame.span_id, name, frame.start, end, frame.parent_id, frame.op))

    def serial(self, obj) -> int:
        """A number for obj that is never reused while the tracer lives."""
        number = self._serials.get(obj)
        if number is None:
            self._next_serial += 1
            number = self._serials[obj] = self._next_serial
        return number

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def snapshot(self) -> dict:
        return {
            "calls": Counter(self.calls),
            "busy": dict(self.busy),
            "self_time": dict(self.self_time),
            "counts": Counter(self.counts),
        }


def _wrap(tracer: Tracer, fn, name: str, kind: str, before=None, after=None):
    if kind == COUNT:

        @wraps(fn)
        def counted(*args, **kwargs):
            tracer.calls[name] += 1
            if before is not None:
                before(tracer, args)
            return fn(*args, **kwargs)

        return counted

    record = kind == SPAN

    @wraps(fn)
    def timed(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        frame = tracer.begin(name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    return timed


# Hooks that turn arguments and results into layer counts.

def _table_bytes(tracer, args, table):
    tracer.note_max("dp.table.bytes", table.values.nbytes + table.best_activity.nbytes)


def _solved(tracer, args, table):
    tracer.counts["dp.solve.entries"] += table.values.size
    _table_bytes(tracer, args, table)


def _ir_pairs(tracer, args, report):
    tracer.counts["properties.ir.pairs"] += report.checked


def _dump_bytes(tracer, args, result):
    tracer.counts["dp.table_dump.bytes"] += os.path.getsize(args[1])


def _potential_hit(tracer, args):
    reward, y = args[0], args[1]
    if y in reward._cache:
        tracer.counts["rewards.potential.hits"] += 1


def _select_state(tracer, args):
    policy, state, instance = args[0], args[1], args[2]
    tracer.distinct["policies.select"].add(
        (tracer.serial(policy), tracer.serial(instance), state.items, state.epoch)
    )


def _targets():
    """Functions as (name, function, kind, before, after) and methods as
    (name, class, attribute, kind, before, after)."""
    from stodep import apps, cli, dp, model, policies, properties, rewards, serialize, simulate

    functions = [
        ("dp.solve", dp.solve_clairvoyant, SPAN, None, _solved),
        ("dp.evaluate", dp.evaluate_policy_exact, SPAN, None, _table_bytes),
        ("dp.audit", dp.audit_table, SPAN, None, None),
        ("properties.vfm", properties.check_vfm, SPAN, None, None),
        ("properties.ir", properties.check_ir, SPAN, None, _ir_pairs),
        ("properties.ratio", properties.check_ratio, SPAN, None, None),
        ("properties.assumption1", properties.check_assumption1, SPAN, None, None),
        ("properties.submodular", properties.check_submodular, SPAN, None, None),
        ("model.validate", model.validate_instance, SPAN, None, None),
        ("model.one_step", model.expected_one_step_reward, COUNT, None, None),
        ("model.sample", model.sample_depletion, COUNT, None, None),
        ("model.reward", model.reward, COUNT, None, None),
        ("serialize.fingerprint", serialize.instance_fingerprint, SPAN, None, None),
        ("serialize.load", serialize.load_instance, SPAN, None, None),
        ("simulate.episode", simulate.simulate_episode, TIMED, None, None),
        ("simulate.monte_carlo", simulate.monte_carlo_value, SPAN, None, None),
        ("cli.main", cli.main, SPAN, None, None),
    ]
    functions += [
        ("apps.build", getattr(apps, attr), SPAN, None, None)
        for attr in apps.__all__
        if attr.endswith("_instance")
    ]
    methods = [
        ("dp.table_dump", dp.ValueTable, "save_json", SPAN, None, _dump_bytes),
        ("rewards.potential", rewards.SubmodularReward, "w", COUNT, _potential_hit, None),
    ]
    methods += [
        ("policies.select", cls, "select", TIMED, _select_state, None)
        for cls in vars(policies).values()
        if isinstance(cls, type) and issubclass(cls, policies.Policy) and "select" in vars(cls)
    ]
    return functions, methods


def _stodep_modules():
    import stodep

    names = ["stodep"] + [
        info.name for info in pkgutil.walk_packages(stodep.__path__, prefix="stodep.")
    ]
    return [importlib.import_module(n) for n in names]


class Instrumentation:
    """Context manager that wraps the public functions while it is active."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patched: list[tuple] = []

    def __enter__(self):
        functions, methods = _targets()
        modules = _stodep_modules()
        for name, fn, kind, before, after in functions:
            wrapper = _wrap(self.tracer, fn, name, kind, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        for name, cls, attr, kind, before, after in methods:
            self._patch(cls, attr, _wrap(self.tracer, vars(cls)[attr], name, kind, before, after))
        return self.tracer

    def _patch(self, namespace, attr, wrapper):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def __exit__(self, *exc):
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)
        return False


def write_spans(tracer: Tracer, path) -> None:
    """One JSON array per line: [span_id, name, start_s, end_s, parent_id, op]."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


