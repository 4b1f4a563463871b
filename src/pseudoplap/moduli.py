"""Modulus-of-continuity families used by the regularity machinery.

Both variants are increasing and strictly concave near zero with w(0) = 0:

* Hölder:    w(s) = s^gamma,                 0 < gamma < 1, valid on (0, 1)
* Lipschitz: w(s) = s - omega0 s^{1+tau},    valid for s < s0 = ((1+tau) omega0)^{-1/tau}

omega0 must keep s0 > 1.  For s below delta with delta^tau omega0 (1+tau) < 1/2
the Lipschitz variant has 1/2 <= w'(s) < 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class HolderModulus:
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")

    @property
    def validity_sup(self) -> float:
        return 1.0

    def omega_prime(self, s):
        g = self.gamma
        return g * np.asarray(s, dtype=float) ** (g - 1.0)

    def omega_second(self, s):
        g = self.gamma
        return g * (g - 1.0) * np.asarray(s, dtype=float) ** (g - 2.0)


@dataclass(frozen=True)
class LipschitzModulus:
    tau: float
    omega0: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not self.s0 > 1.0:
            raise ValueError(
                f"omega0 = {self.omega0} gives s0 = {self.s0:.6g} <= 1; "
                f"need omega0 < {1.0 / (1.0 + self.tau):.6g}"
            )

    @property
    def s0(self) -> float:
        return (1.0 / ((1.0 + self.tau) * self.omega0)) ** (1.0 / self.tau)

    @property
    def validity_sup(self) -> float:
        return self.s0

    def omega_prime(self, s):
        s = np.asarray(s, dtype=float)
        return 1.0 - self.omega0 * (1.0 + self.tau) * s**self.tau

    def omega_second(self, s):
        s = np.asarray(s, dtype=float)
        return -self.omega0 * self.tau * (1.0 + self.tau) * s ** (self.tau - 1.0)


Modulus = Union[HolderModulus, LipschitzModulus]


def check_validity(modulus: Modulus, s: float) -> None:
    if not 0.0 < s < modulus.validity_sup:
        raise ValueError(
            f"s = {s} outside the modulus validity range (0, {modulus.validity_sup:.6g})"
        )
