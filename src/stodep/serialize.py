"""Canonical JSON instance format and instance fingerprinting.

Numbers are serialized as shortest round-trip decimals (Python's default JSON
float formatting), so a save/load cycle reproduces the in-memory floats
bit-exactly.  The fingerprint is the SHA-256 of the canonical serialization
(sorted keys, no whitespace) and binds solver outputs to their instance.
Instances are immutable, so it is computed once per instance and kept on it.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Mapping

from .errors import ConfigError
from .model import Instance, _iter_box, thaw, validate_instance
from .rewards import reward_from_dict


def instance_to_dict(instance: Instance) -> dict:
    """Canonical on-disk form of an instance."""
    return _canonical(instance, instance.reward.spec_dict())


def _canonical(instance: Instance, reward: dict) -> dict:
    out = {
        "num_types": instance.num_types,
        "capacities": list(instance.capacities),
        "initial_items": list(instance.initial_items),
        "horizon": instance.horizon,
        "activities": list(instance.activities),
        "schedule": instance.schedule.tolist(),
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
    payload = json.dumps(instance_to_dict(instance), indent=2, sort_keys=True)
    if hasattr(path_or_file, "write"):
        path_or_file.write(payload + "\n")
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")


def load_instance(path_or_file, *, validate: bool = True, rewards: bool = True) -> Instance:
    """Load and (by default) validate an instance, raising ConfigError on bad data.

    rewards=False validates everything but the reward value rules (see
    stodep.model.validate_instance).
    """
    if hasattr(path_or_file, "read"):
        data = json.load(path_or_file)
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    instance = instance_from_dict(data)
    if validate:
        report = validate_instance(instance, rewards=rewards)
        if not report.passed:
            first = report.violations[0]
            raise ConfigError(
                f"instance failed validation with {len(report.violations)} violation(s); "
                f"first: {first.field}{list(first.indices)}: {first.rule}"
            )
    return instance


def _fingerprint_payload(instance: Instance) -> dict:
    rew = instance.reward
    try:
        reward = rew.spec_dict()
    except ConfigError:
        # Custom evaluators are not serializable, so their values on the
        # capacity box stand in for them: two evaluators that share a label
        # but differ anywhere a table can reach get different fingerprints.
        reward = {
            "kind": "submodular_custom",
            "label": rew.label,
            "values": [rew.w(y) for y in _iter_box(instance.capacities)],
        }
    return _canonical(instance, reward)


def instance_fingerprint(instance: Instance) -> str:
    """SHA-256 hex digest of the canonical serialization.

    The digest is computed on the first call and kept on the instance, in
    the way functools.cached_property keeps a value.
    """
    cache = vars(instance)
    digest = cache.get("_fingerprint")
    if digest is None:
        payload = _fingerprint_payload(instance)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = cache["_fingerprint"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return digest
