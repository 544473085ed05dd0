"""Two-atom-per-cell 1D lattice: dipole couplings and exciton bands.

The lattice has N unit cells of pitch ``a``; each cell holds two identical
two-level atoms a distance ``R`` apart (R < a).  Resonant dipole-dipole
coupling between atoms at distance r is

    J(r) = mu^2 (1 - 3 cos^2 theta) / (4 pi eps0 r^3),

with theta the angle between the transition dipole and the lattice axis.
Inside a cell the coupling J0 = J(R) splits the single-excitation doublet
into a symmetric (bright) level E_s = E_A + J0 and an antisymmetric (dark)
level E_a = E_A - J0.  Between cells, nearest-neighbour hopping J = J(a)
disperses the bright level into the band

    E_s(k) = E_A + J0 + 4 J cos(k a),

while the dark level stays flat at E_a.  A config derives J0, J, E_s and
E_a once (``cfg.levels``); the formulas broadcast over arrays of distances,
wavenumbers and (as a ``theta`` override) dipole angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError

#: Angle where 1 - 3 cos^2(theta) vanishes and all couplings turn off.
MAGIC_ANGLE = math.acos(1.0 / math.sqrt(3.0))


@dataclass(frozen=True)
class SuperLatticeConfig:
    """Geometry and transition parameters of the lattice.

    E_A: atomic transition energy (eV); a: cell pitch (Angstrom);
    R: in-cell atom separation (Angstrom); mu: transition dipole
    (e*Angstrom); theta: dipole angle to the axis (rad); N: number of
    unit cells (odd, N = 2M + 1).
    """

    E_A: float
    a: float
    R: float
    mu: float
    theta: float
    N: int

    def __post_init__(self):
        _check_finite(self)
        if self.a <= 0:
            raise DomainError("cell pitch a must be positive")
        if not 0 < self.R < self.a:
            raise DomainError("need 0 < R < a")
        if self.mu <= 0:
            raise DomainError("transition dipole mu must be positive")
        if self.E_A <= 0:
            raise DomainError("transition energy E_A must be positive")
        if not 0 <= self.theta <= math.pi / 2:
            raise DomainError("theta must lie in [0, pi/2]")
        check_cell_count(self.N)
        with np.errstate(all="ignore"):
            _finite(lambda: self.levels.J0 ** 2, "coupling J0 = J(R), J = J(a) or "
                    f"J0^2 overflows at R = {self.R}, a = {self.a}, mu = {self.mu}")

    @property
    def M(self) -> int:
        return (self.N - 1) // 2

    @cached_property
    def levels(self) -> ExcitonLevels:
        """J0, J, E_s and E_a, derived once when the config is built; not a
        field, so ``fields``, ``==`` and ``hash`` see only the inputs."""
        return _levels(self, None)


@dataclass(frozen=True)
class ExcitonLevels:
    """In-cell splitting and nearest-neighbour hopping energies (eV)."""

    J0: float
    J: float
    E_s: float
    E_a: float


def check_cell_count(N: int) -> None:
    """Reject a ring of N unit cells unless N is odd and at least 3."""
    if N < 3 or N % 2 == 0:
        raise DomainError("N must be odd and >= 3")


def _check_finite(config) -> None:
    """Reject NaN and infinite fields of a config dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value}")


# Helpers of the broadcasting formulas; scalars skip numpy's per-call cost.

#: The numpy scalars scalar calls return most, and their Python types.
_SCALAR_TYPES = {np.float64: float, np.complex128: complex}


def _unwrap(x):
    """Python scalar for a 0-d numpy result, so scalar calls return floats."""
    cast = _SCALAR_TYPES.get(type(x))
    if cast is not None:   # the bits of .item(), at a third of its cost
        return cast(x)
    return x.item() if isinstance(x, (np.ndarray, np.generic)) and x.ndim == 0 else x


def _any(mask) -> bool:
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def _where(cond, a, b):
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _finite(compute, message: str):
    """compute(), or ``DomainError(message)`` where it overflows (a float
    ``**`` raises; numpy gives inf, so array callers silence its warning)."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) if isinstance(value, float)
            else np.isfinite(value).all()):
        raise DomainError(message)
    return value


def _repulsion(delta, c):
    """(D, rep) of the 2x2 block of bare levels E, E + 2 delta coupled by c:
    D = hypot(delta, c), and the levels are min - rep and max + rep, with
    rep = c^2 / (D + |delta|) (0 where D is), no difference of large numbers."""
    d = np.hypot(delta, c)
    return d, c ** 2 / (d + abs(delta) + (d == 0.0))    # 0, not 0/0, at D = 0


def dipole_coupling(r, cfg: SuperLatticeConfig, *, theta=None):
    """Resonant dipole-dipole coupling at distance r (Angstrom), in eV.

    Positive for theta beyond the magic angle, negative below it.  ``theta``
    (rad) overrides ``cfg.theta``.
    """
    if _any(r <= 0):
        raise DomainError(f"distance must be positive, got {np.min(r)}")
    if theta is None:
        theta = cfg.theta
    elif not np.all((np.asarray(theta) >= 0.0) & (np.asarray(theta) <= math.pi / 2)):
        raise DomainError("theta must lie in [0, pi/2]")
    angular = 1.0 - 3.0 * np.cos(theta) ** 2
    return _unwrap(CONSTANTS.coulomb_mu2_prefactor * cfg.mu ** 2 * angular / r ** 3)


def _levels(cfg: SuperLatticeConfig, theta) -> ExcitonLevels:
    J0 = dipole_coupling(cfg.R, cfg, theta=theta)
    J = dipole_coupling(cfg.a, cfg, theta=theta)
    return ExcitonLevels(J0=J0, J=J, E_s=cfg.E_A + J0, E_a=cfg.E_A - J0)


def exciton_levels(cfg: SuperLatticeConfig, *, theta=None) -> ExcitonLevels:
    """Level energies and hopping constants (arrays over an array theta);
    without ``theta``, those the config derived once."""
    return cfg.levels if theta is None else _levels(cfg, theta)


def intercell_couplings(cfg: SuperLatticeConfig) -> tuple[float, float, float]:
    """The three distinct couplings between adjacent cells: (J11, J12, J21).

    J11 pairs like atoms (distance a), J12 the outer pair (a + R), J21 the
    inner pair (a - R).  Their spread quantifies the error of the a >> R
    single-hopping approximation.
    """
    j11 = dipole_coupling(cfg.a, cfg)
    j12 = dipole_coupling(cfg.a + cfg.R, cfg)
    j21 = dipole_coupling(cfg.a - cfg.R, cfg)
    return j11, j12, j21


def symmetric_band(k, cfg: SuperLatticeConfig, *, theta=None):
    """Bright-exciton band E_A + J0 + 4 J cos(k a) at wavenumber k, which
    must lie in the first Brillouin zone |k| <= pi/a."""
    if _any(abs(k) > math.pi / cfg.a * (1.0 + 1e-12)):
        raise DomainError(f"k = {np.max(np.abs(k))} outside the first Brillouin zone")
    return _band(k, cfg, theta)


def _band(k, cfg: SuperLatticeConfig, theta=None):
    """symmetric_band without the zone check, for k known to lie in it."""
    lv = exciton_levels(cfg, theta=theta)
    return _unwrap(cfg.E_A + lv.J0 + 4.0 * lv.J * np.cos(k * cfg.a))


def antisymmetric_energy(cfg: SuperLatticeConfig) -> float:
    """Flat dark-exciton energy E_A - J0 (k-independent)."""
    return cfg.levels.E_a


def allowed_wavenumbers(cfg: SuperLatticeConfig) -> np.ndarray:
    """The N wavenumbers 2 pi p / (N a), p = 0, +-1, ..., +-M, ascending."""
    p = np.arange(-cfg.M, cfg.M + 1)
    return 2.0 * math.pi * p / (cfg.N * cfg.a)
