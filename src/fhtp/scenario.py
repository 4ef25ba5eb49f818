"""Scenario documents: the JSON input format shared by all CLI subcommands.

Field reference (all required unless noted):

  num_pairs      positive integer N
  horizon        number of slots T, positive integer
  slot_duration  slot length in seconds, positive
  power_sets     N arrays of nonnegative power levels, each containing 0
  noise          N positive noise powers
  gains          N x N row-major matrix, gains[m][n] is the power gain from
                 transmitter m to receiver n (diagonal = desired links)
  target_rate    N nonnegative average rates to achieve
  gamma          optional N SNR-gap factors >= 1, divided into the diagonal
                 gains before the channel is built (default: all 1.0)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .errors import ScenarioError


@dataclass(frozen=True)
class Scenario:
    num_pairs: int
    horizon: int
    slot_duration: float
    power_sets: tuple[tuple[float, ...], ...]
    noise: tuple[float, ...]
    gains: tuple[tuple[float, ...], ...]
    target_rate: tuple[float, ...]
    gamma: tuple[float, ...]

    def channel(self) -> ChannelModel:
        """Channel with the gap factors absorbed into the desired-link gains."""
        gains = [list(row) for row in self.gains]
        for n in range(self.num_pairs):
            gains[n][n] = gains[n][n] / self.gamma[n]
        return ChannelModel(
            gains=tuple(tuple(row) for row in gains),
            noise=self.noise,
            power_sets=self.power_sets,
            slot_duration=self.slot_duration,
        )

    def initial_queue(self) -> np.ndarray:
        return self.slot_duration * self.horizon * np.asarray(self.target_rate)


def _require(doc: dict, name: str):
    if name not in doc:
        raise ScenarioError(f"missing field: {name}")
    return doc[name]


def _is_number(x) -> bool:
    """A JSON number that is finite; ``json`` also reads NaN and Infinity."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def _positive_int(doc: dict, name: str) -> int:
    value = _require(doc, name)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioError(f"{name}: expected a positive integer, got {value!r}")
    return value


def _positive_real(doc: dict, name: str) -> float:
    value = _require(doc, name)
    if not _is_number(value) or value <= 0:
        raise ScenarioError(f"{name}: expected a positive finite number, got {value!r}")
    return float(value)


def _real_vector(doc: dict, name: str, n: int, minimum: float, strict: bool) -> tuple[float, ...]:
    value = _require(doc, name)
    if not isinstance(value, list) or len(value) != n:
        raise ScenarioError(f"{name}: expected an array of {n} numbers")
    out = []
    for i, x in enumerate(value):
        if not _is_number(x):
            raise ScenarioError(f"{name}[{i}]: expected a finite number, got {x!r}")
        if x < minimum or (strict and x == minimum):
            bound = f"> {minimum}" if strict else f">= {minimum}"
            raise ScenarioError(f"{name}[{i}]: must be {bound}, got {x!r}")
        out.append(float(x))
    return tuple(out)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    n = _positive_int(doc, "num_pairs")
    horizon = _positive_int(doc, "horizon")
    slot_duration = _positive_real(doc, "slot_duration")

    raw_sets = _require(doc, "power_sets")
    if not isinstance(raw_sets, list) or len(raw_sets) != n:
        raise ScenarioError(f"power_sets: expected {n} arrays")
    power_sets = []
    for i, levels in enumerate(raw_sets):
        if not isinstance(levels, list) or not levels:
            raise ScenarioError(f"power_sets[{i}]: expected a nonempty array")
        for k, p in enumerate(levels):
            if not _is_number(p) or p < 0:
                raise ScenarioError(f"power_sets[{i}][{k}]: must be finite and >= 0, got {p!r}")
        levels = tuple(sorted({float(p) for p in levels}))
        if 0.0 not in levels:
            raise ScenarioError(f"power_sets[{i}]: must include the level 0")
        power_sets.append(levels)

    noise = _real_vector(doc, "noise", n, 0.0, strict=True)

    raw_gains = _require(doc, "gains")
    if not isinstance(raw_gains, list) or len(raw_gains) != n:
        raise ScenarioError(f"gains: expected {n} rows, got {len(raw_gains) if isinstance(raw_gains, list) else type(raw_gains).__name__}")
    gains = []
    for m, row in enumerate(raw_gains):
        if not isinstance(row, list) or len(row) != n:
            raise ScenarioError(f"gains[{m}]: expected {n} entries, got {len(row) if isinstance(row, list) else type(row).__name__}")
        for k, g in enumerate(row):
            if not _is_number(g) or g < 0:
                raise ScenarioError(f"gains[{m}][{k}]: must be finite and >= 0, got {g!r}")
        gains.append(tuple(float(g) for g in row))
    for m in range(n):
        if gains[m][m] <= 0:
            raise ScenarioError(f"gains[{m}][{m}]: desired-link gain must be > 0")

    target = _real_vector(doc, "target_rate", n, 0.0, strict=False)

    if "gamma" in doc:
        gamma = _real_vector(doc, "gamma", n, 1.0, strict=False)
    else:
        gamma = (1.0,) * n

    return Scenario(
        num_pairs=n,
        horizon=horizon,
        slot_duration=slot_duration,
        power_sets=tuple(power_sets),
        noise=noise,
        gains=tuple(gains),
        target_rate=target,
        gamma=gamma,
    )


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from None
    return scenario_from_dict(doc)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "num_pairs": scenario.num_pairs,
        "horizon": scenario.horizon,
        "slot_duration": scenario.slot_duration,
        "power_sets": [list(s) for s in scenario.power_sets],
        "noise": list(scenario.noise),
        "gains": [list(row) for row in scenario.gains],
        "target_rate": list(scenario.target_rate),
        "gamma": list(scenario.gamma),
    }
