"""Canonical JSON instance format and instance fingerprinting.

Numbers are serialized as shortest round-trip decimals (Python's default JSON
float formatting), so a save/load cycle reproduces the in-memory floats
bit-exactly.

The fingerprint binds solver outputs to their instance.  It is the SHA-256
of a head followed by the raw bytes of the instance's bulk arrays:

* The head is the instance's JSON form (sorted keys, no whitespace, UTF-8)
  with every bulk array replaced by its ``[dtype, shape]``: ``schedule``
  becomes ``["<f8", [T, A, M]]``.  The reward keeps its ``kind`` and
  its small fields (coverage ``num_elements``, ``covers`` and
  ``element_weights``; budgeted ``budgets``, ``values`` and ``groups``).
  A linear or linear-decaying reward's ``weights`` become
  ``["<f8", [M]]`` or ``["<f8", [M, T]]``.  A tabulated reward's
  ``entries`` become ``keys`` ``["<i8", [n, 2M + 1]]`` (rows (x, x', t)
  in lexicographic order) and ``values`` ``["<f8", [n]]``.  A custom
  evaluator, which has no JSON form, gives ``label`` and ``values``
  ``["<f8", [c_0 + 1, ..., c_{M-1} + 1]]``: its potential on the capacity
  box.
* The arrays follow in this order: the schedule, then the reward's
  ``weights``, or ``keys`` then ``values``, or ``values``.  Each is hashed
  as little-endian bytes in C order.

Instances are immutable, so the digest is computed once per instance and
kept on it.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Mapping

import numpy as np

from .errors import ConfigError
from .model import Instance, thaw, validate_instance
from .rewards import (GeneralTabulatedReward, LinearDecayingReward, LinearReward, potential_on_box,
                      reward_from_dict)


def instance_to_dict(instance: Instance) -> dict:
    """Canonical on-disk form of an instance."""
    return _canonical(instance, instance.schedule.tolist(), instance.reward.spec_dict())


def _canonical(instance: Instance, schedule: list, reward: dict) -> dict:
    out = {
        "num_types": instance.num_types,
        "capacities": list(instance.capacities),
        "initial_items": list(instance.initial_items),
        "horizon": instance.horizon,
        "activities": list(instance.activities),
        "schedule": schedule,
        "reward": reward,
        "metadata": thaw(instance.metadata),
    }
    if instance.arrivals is not None:
        out["arrivals"] = list(instance.arrivals)
    if instance.deadlines is not None:
        out["deadlines"] = list(instance.deadlines)
    return out


def instance_from_dict(data: Mapping) -> Instance:
    try:
        return Instance(
            num_types=data["num_types"],
            capacities=data["capacities"],
            initial_items=data["initial_items"],
            horizon=data["horizon"],
            activities=data["activities"],
            schedule=data["schedule"],
            reward=reward_from_dict(data["reward"]),
            arrivals=data.get("arrivals"),
            deadlines=data.get("deadlines"),
            metadata=dict(data.get("metadata", {})),
        )
    except KeyError as exc:
        raise ConfigError(f"instance JSON missing field {exc}") from exc


def save_instance(instance: Instance, path_or_file) -> None:
    """Write the instance's JSON: one line per top-level field, keys sorted.

    Each value is encoded on its own line by json's C encoder (which runs
    only without indent); the loader reads any layout.
    """
    data = instance_to_dict(instance)
    # instance_to_dict builds a tree, so the encoder need not look for cycles.
    fields = ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(data[k], sort_keys=True, check_circular=False)}"
        for k in sorted(data)
    )
    payload = "{\n" + fields + "\n}\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(payload)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(payload)


def load_instance(path_or_file, *, rewards: bool = True) -> Instance:
    """Load an instance, raising ConfigError on bad data.

    The Instance constructor refuses every fault that would make a number
    wrong.  rewards=True also refuses a reward that breaks a value rule
    (stodep.model.validate_instance); rewards=False leaves those rules to
    the caller, as stodep check does, which reports them as assumption1.
    """
    if hasattr(path_or_file, "read"):
        data = json.load(path_or_file)
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    instance = instance_from_dict(data)
    violations = validate_instance(instance).violations if rewards else []
    if violations:
        first = violations[0]
        raise ConfigError(f"{first.field}{list(first.indices)}: {first.rule} (the first of "
                          f"{len(violations)} broken reward value rule(s))")
    return instance


def _fingerprint_layout(instance: Instance) -> tuple[bytes, list[np.ndarray]]:
    """The fingerprint's canonical JSON head and its arrays, in hashing order."""
    rew = instance.reward
    reward, arrays = {"kind": rew.kind}, {}
    if isinstance(rew, (LinearReward, LinearDecayingReward)):
        arrays["weights"] = np.array(rew.weights, dtype="<f8")
    elif isinstance(rew, GeneralTabulatedReward):
        arrays["keys"] = np.ascontiguousarray(rew.keys, dtype="<i8")
        arrays["values"] = np.ascontiguousarray(rew.values, dtype="<f8")
    else:
        try:
            reward = rew.spec_dict()
        except ConfigError:
            # Custom evaluators are not serializable, so their values on the
            # capacity box stand in for them: two evaluators that share a label
            # but differ anywhere a table can reach get different fingerprints.
            reward = {"kind": "submodular_custom", "label": rew.label}
            arrays["values"] = potential_on_box(rew.evaluator, instance.capacities).astype("<f8")
    schedule = np.ascontiguousarray(instance.schedule, dtype="<f8")
    for name, array in arrays.items():
        reward[name] = [array.dtype.str, list(array.shape)]
    head = _canonical(instance, [schedule.dtype.str, list(schedule.shape)], reward)
    encoded = json.dumps(head, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return encoded, [schedule, *arrays.values()]


def instance_fingerprint(instance: Instance) -> str:
    """SHA-256 hex digest of the head and the arrays' bytes (see the module docstring).

    The digest is computed on the first call and kept on the instance, in
    the way functools.cached_property keeps a value.
    """
    cache = vars(instance)
    digest = cache.get("_fingerprint")
    if digest is None:
        head, arrays = _fingerprint_layout(instance)
        sha = hashlib.sha256(head)
        for array in arrays:
            sha.update(array)
        digest = cache["_fingerprint"] = sha.hexdigest()
    return digest
