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

Every number must be finite. `scenario_from_dict` checks the JSON types and
the shapes of power_sets, noise and gains. `Scenario` checks the scenario
rules: num_pairs against the data, the horizon, target_rate and gamma, and
that each backlog slot_duration * horizon * target_rate[n] is a finite float.
`ChannelModel` checks every other rule on the channel that the scenario
builds, with the gap factors divided in: the signs of slot_duration, power
levels, noise and gains, the level 0 in every power set, and finite received
powers and peak SINRs. Messages name the field, as in ``noise[1]`` or
``gains[0][0]``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .errors import ScenarioError


@dataclass(frozen=True)
class Scenario:
    """One scenario, checked on construction.

    A broken rule raises ValueError naming the field: ``num_pairs`` must equal
    the number of noise entries, ``horizon`` must be a positive integer,
    ``target_rate`` and ``gamma`` must hold ``num_pairs`` finite numbers,
    each ``>= 0`` and ``>= 1`` respectively, and each backlog
    ``slot_duration * horizon * target_rate[n]`` must be a finite float.
    `ChannelModel` checks the channel fields.
    """

    num_pairs: int
    horizon: int
    slot_duration: float
    power_sets: tuple[tuple[float, ...], ...]
    noise: tuple[float, ...]
    gains: tuple[tuple[float, ...], ...]
    target_rate: tuple[float, ...]
    gamma: tuple[float, ...]

    _channel: ChannelModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.num_pairs
        if n != len(self.noise):
            raise ValueError(f"num_pairs: expected {len(self.noise)}, the number of noise entries, got {n!r}")
        horizon = self.horizon
        if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 1:
            raise ValueError(f"horizon: expected a positive integer, got {horizon!r}")
        target = _numbers(self.target_rate, "target_rate", n, minimum=0.0)
        gamma = _numbers(self.gamma, "gamma", n, minimum=1.0)
        # ChannelModel rejects gains with a row count other than n
        gains = tuple(
            tuple(g / gamma[m] if m == k < n else g for k, g in enumerate(row))
            for m, row in enumerate(self.gains)
        )
        channel = ChannelModel(
            gains=gains, noise=self.noise, power_sets=self.power_sets, slot_duration=self.slot_duration
        )
        try:
            span = channel.slot_duration * horizon
        except OverflowError:  # a horizon too large for a float
            span = math.inf
        for j, rate in enumerate(target):
            if not math.isfinite(span * rate):
                raise ValueError(f"target_rate[{j}]: backlog slot_duration * horizon * rate overflows")
        object.__setattr__(self, "target_rate", target)
        object.__setattr__(self, "gamma", gamma)
        # the model's sorted, deduplicated power sets
        object.__setattr__(self, "power_sets", channel.power_sets)
        object.__setattr__(self, "_channel", channel)

    def channel(self) -> ChannelModel:
        """Channel with the gap factors absorbed into the desired-link gains."""
        return self._channel

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


def _array(value, name: str, n: int | None) -> list:
    if not isinstance(value, (list, tuple)) or (n is not None and len(value) != n):
        raise ValueError(f"{name}: expected an array" + (f" of {n} entries" if n is not None else ""))
    return value


def _numbers(value, name: str, n: int | None, minimum: float = -math.inf) -> tuple[float, ...]:
    """An array of finite numbers, ``n`` of them unless None, each >= ``minimum``."""
    for i, x in enumerate(_array(value, name, n)):
        if not _is_number(x):
            raise ValueError(f"{name}[{i}]: expected a finite number, got {x!r}")
        if x < minimum:
            raise ValueError(f"{name}[{i}]: must be >= {minimum}, got {x!r}")
    return tuple(float(x) for x in value)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    try:
        n = _positive_int(doc, "num_pairs")
        slot_duration = _require(doc, "slot_duration")
        if not _is_number(slot_duration):
            raise ScenarioError(f"slot_duration: expected a finite number, got {slot_duration!r}")
        power_sets = tuple(
            _numbers(s, f"power_sets[{i}]", None)
            for i, s in enumerate(_array(_require(doc, "power_sets"), "power_sets", n))
        )
        noise = _numbers(_require(doc, "noise"), "noise", n)
        gains = tuple(_numbers(row, f"gains[{m}]", n) for m, row in enumerate(_array(_require(doc, "gains"), "gains", n)))
        return Scenario(
            n,
            _require(doc, "horizon"),
            float(slot_duration),
            power_sets,
            noise,
            gains,
            _require(doc, "target_rate"),
            doc.get("gamma", (1.0,) * n),
        )
    except ValueError as exc:  # a scenario or channel rule
        raise ScenarioError(str(exc)) from None


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
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
