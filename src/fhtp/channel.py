"""Static interference channel: power gains, noise, discrete transmit-power sets.

The model is shared-spectrum with interference treated as noise, so each
receiver sees its own transmitter's signal against the sum of everyone
else's plus thermal noise. Per-slot link capacity is the Shannon rate of
that SINR in bits/s/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError

# A transmit-power choice for all pairs in one slot; component n must be a
# member of the corresponding pair's power set.
PowerVector = tuple[float, ...]


def _float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class ChannelModel:
    """N transmitter-receiver pairs with fixed power gains over the horizon.

    ``gains[m][n]`` is the power gain from transmitter m to receiver n, so the
    diagonal carries the desired links and off-diagonal entries drive the
    interference terms. Any SNR-gap factor is expected to be divided into the
    diagonal before construction (the model stores post-gap gains only).

    Construction is the one place that decides whether a channel is valid:
    every value finite; N >= 1 pairs with N x N ``gains`` and N power sets;
    ``noise[n] > 0``, ``gains[m][n] >= 0``, ``gains[n][n] > 0`` and
    ``slot_duration > 0``; power levels >= 0, with 0 in every power set; and
    in float range, each received power ``sum_m gains[m][n] *
    max(power_sets[m])`` and peak SINR ``gains[n][n] * max(power_sets[n]) /
    noise[n]`` finite. A broken rule raises ValueError naming the field, as
    in ``noise[1]``, ``gains[0][2]`` or ``power_sets[2]``.

    Instances are immutable and safe to share between concurrent solver runs;
    every method here is a pure function of its arguments.
    """

    gains: tuple[tuple[float, ...], ...]
    noise: tuple[float, ...]
    power_sets: tuple[tuple[float, ...], ...]
    slot_duration: float = 1.0

    # cached array views, derived from the tuple fields
    _gain_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _noise_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gains = tuple(_float_tuple(row) for row in self.gains)
        noise = _float_tuple(self.noise)
        # power levels are kept sorted and deduplicated so the maximum is the
        # last entry and enumeration order is reproducible
        power_sets = tuple(tuple(sorted(set(_float_tuple(s)))) for s in self.power_sets)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "power_sets", power_sets)
        object.__setattr__(self, "slot_duration", float(self.slot_duration))

        n = len(noise)
        values = (self.slot_duration, *noise, *(g for row in gains for g in row), *(p for s in power_sets for p in s))
        if not all(map(math.isfinite, values)):
            raise ValueError("gains, noise, power levels and slot duration must be finite")
        if n == 0:
            raise ValueError("channel needs at least one pair")
        if len(gains) != n or any(len(row) != n for row in gains):
            raise ValueError(f"gains must be {n}x{n} to match noise length {n}")
        if len(power_sets) != n:
            raise ValueError(f"expected {n} power sets, got {len(power_sets)}")
        for i, w in enumerate(noise):
            if w <= 0:
                raise ValueError(f"noise[{i}] must be > 0, got {w!r}")
        for m, row in enumerate(gains):
            for k, g in enumerate(row):
                if g < 0 or (m == k and g == 0):
                    bound = "> 0 (desired link)" if m == k else ">= 0"
                    raise ValueError(f"gains[{m}][{k}] must be {bound}, got {g!r}")
        for i, s in enumerate(power_sets):
            if s and s[0] < 0:
                raise ValueError(f"power_sets[{i}] has a negative level {s[0]!r}")
            if 0.0 not in s:
                raise ValueError(f"power_sets[{i}] must contain the level 0 (no transmission)")
        if self.slot_duration <= 0:
            raise ValueError(f"slot_duration must be > 0, got {self.slot_duration!r}")
        # Python floats overflow to inf without the warning NumPy would give;
        # the terms are nonnegative, so a sum overflows if any term does
        peak = [s[-1] for s in power_sets]
        for r in range(n):
            if not math.isfinite(sum(gains[m][r] * peak[m] for m in range(n))):
                raise ValueError(f"received power at receiver {r} overflows")
            if not math.isfinite(gains[r][r] * peak[r] / noise[r]):
                raise ValueError(f"peak SINR of pair {r} overflows")

        object.__setattr__(self, "_gain_arr", np.array(gains, dtype=float))
        object.__setattr__(self, "_noise_arr", np.array(noise, dtype=float))
        self._gain_arr.setflags(write=False)
        self._noise_arr.setflags(write=False)

    @property
    def num_pairs(self) -> int:
        return len(self.noise)

    def max_power(self, n: int) -> float:
        """Largest transmit power available to pair n."""
        return self.power_sets[n][-1]

    def sinr(self, s, n: int) -> float:
        """Signal-to-interference-plus-noise ratio of pair n under power vector s."""
        if not 0 <= n < self.num_pairs:
            raise IndexError(f"pair index {n} out of range for {self.num_pairs} pairs")
        if len(s) != self.num_pairs:
            raise ValueError(f"power vector has {len(s)} entries, expected {self.num_pairs}")
        signal = self.gains[n][n] * s[n]
        interference = 0.0
        for m in range(self.num_pairs):
            if m != n:
                interference += self.gains[m][n] * s[m]
        return signal / (self.noise[n] + interference)

    def capacity_vector(self, s) -> np.ndarray:
        """Per-pair capacity (bits/s/Hz) achieved by power vector s in one slot.

        Component n is log2(1 + SINR_n); transmitting nothing yields rate 0.
        """
        sv = np.asarray(s, dtype=float)
        if sv.shape != (self.num_pairs,):
            raise ValueError(f"power vector has shape {sv.shape}, expected ({self.num_pairs},)")
        return self.capacity_matrix(sv[None])[0]

    def capacity_matrix(self, powers) -> np.ndarray:
        """One-slot capacities of many power vectors: row k is ``capacity_vector(powers[k])``.

        The interference sum runs over transmitters in index order for every
        row, so a row is bitwise equal whether it is computed alone or in a
        batch.
        """
        sv = np.asarray(powers, dtype=float)
        if sv.ndim != 2 or sv.shape[1] != self.num_pairs:
            raise ValueError(f"power matrix has shape {sv.shape}, expected (K, {self.num_pairs})")
        received = sv[:, :, None] * self._gain_arr  # entry (k, m, n): power of Tx m at Rx n
        desired = np.diagonal(received, axis1=1, axis2=2)
        interference = received.sum(axis=1) - desired
        return np.log2(1.0 + desired / (self._noise_arr + interference))

    def interference_free_rate(self, n: int) -> float:
        """Capacity of pair n transmitting alone at its highest power level.

        This is the hard upper bound on anything pair n can ever get in one
        slot, so it is the natural per-slot optimistic rate.
        """
        if not 0 <= n < self.num_pairs:
            raise IndexError(f"pair index {n} out of range for {self.num_pairs} pairs")
        s_max = self.max_power(n)
        if s_max <= 0.0:
            raise InfeasibleError(f"pair {n} has no positive power level and can never transmit")
        return float(np.log2(1.0 + self.gains[n][n] * s_max / self.noise[n]))
