"""Modulus-of-continuity families used by the regularity machinery.

Both variants are increasing and strictly concave near zero with w(0) = 0:

* Hölder:    w(s) = s^gamma,                 0 < gamma < 1, valid on (0, 1)
* Lipschitz: w(s) = s - omega0 s^{1+tau},    valid for s < s0 = ((1+tau) omega0)^{-1/tau}

omega0 must keep s0 > 1, so every family is valid on (0, 1), the domain
0 < |x| < 1 that jets.jet_scalars enforces.  For s below delta with
delta^tau omega0 (1+tau) < 1/2 the Lipschitz variant has 1/2 <= w'(s) < 1.

A parameter may also be an array with one entry per jet of a stack: the
modulus then evaluates jet k's own modulus at s[k], entry for entry as the
modulus of that one parameter does.  ModulusMix picks, per jet, between a
Hölder and a Lipschitz stack of moduli.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

import numpy as np


@dataclass(frozen=True)
class HolderModulus:
    gamma: float

    def __post_init__(self):
        if not np.all((0.0 < self.gamma) & (self.gamma < 1.0)):
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")

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
        if not np.all(self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not np.all(self.omega0 > 0):
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not np.all(self.s0 > 1.0):
            raise ValueError(
                f"omega0 = {self.omega0} gives s0 = {np.min(self.s0):.6g} <= 1; "
                f"need omega0 < {np.min(1.0 / (1.0 + np.asarray(self.tau))):.6g}"
            )

    @property
    def s0(self) -> float:
        return (1.0 / ((1.0 + self.tau) * self.omega0)) ** (1.0 / self.tau)

    def omega_prime(self, s):
        s = np.asarray(s, dtype=float)
        return 1.0 - self.omega0 * (1.0 + self.tau) * s**self.tau

    def omega_second(self, s):
        s = np.asarray(s, dtype=float)
        return -self.omega0 * self.tau * (1.0 + self.tau) * s ** (self.tau - 1.0)


@dataclass(frozen=True)
class ModulusMix:
    """The moduli of a stack of jets that mixes both families: jet k takes
    lipschitz's modulus where pick[k] is true, else holder's.  Each family
    holds one parameter per jet and is evaluated at every jet."""

    holder: HolderModulus
    lipschitz: LipschitzModulus
    pick: np.ndarray

    def omega_prime(self, s):
        return np.where(self.pick, self.lipschitz.omega_prime(s), self.holder.omega_prime(s))

    def omega_second(self, s):
        return np.where(self.pick, self.lipschitz.omega_second(s), self.holder.omega_second(s))


Modulus = Union[HolderModulus, LipschitzModulus, ModulusMix]


def stacked(moduli) -> Modulus:
    """One modulus of the family of `moduli` whose parameters are arrays, one
    entry per given modulus, in order; raises ValueError on mixed families."""
    family = type(moduli[0])
    if any(type(m) is not family for m in moduli):
        raise ValueError("the moduli of one stack must be of one family")
    return family(*(np.array([getattr(m, f.name) for m in moduli]) for f in fields(family)))
