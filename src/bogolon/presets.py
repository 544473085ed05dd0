"""Bundled reference parameter set.

One consistent operating point used by the demos, the command-line presets
and the acceptance checks: a 1.5 eV transition on a 1000 Angstrom lattice
(in-cell spacing 100 Angstrom, dipole 2.5 e*Angstrom at 80 degrees, about
1 cm long), a guide with eps = 2 resonant at the transition, and a pump
at the wavenumber where the lower branch crosses the dark level with unit
occupation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .kinematic import InteractionParams, interaction_params
from .lattice import SuperLatticeConfig, antisymmetric_energy
from .polariton import HopfieldMode, find_resonance_k, hopfield
from .pumpprobe import DriveConfig, pump_occupation
from .waveguide import WaveguideConfig, resonant_q0


@dataclass(frozen=True)
class RunSetup:
    """Fully resolved operating point."""

    cfg: SuperLatticeConfig
    wg: WaveguideConfig
    drive: DriveConfig
    mode: HopfieldMode
    ip: InteractionParams


def reference_lattice() -> SuperLatticeConfig:
    # N is the odd cell count closest to a 1 cm lattice.
    return SuperLatticeConfig(E_A=1.5, a=1000.0, R=100.0, mu=2.5,
                              theta=math.radians(80.0), N=100_001)


def reference_waveguide(cfg: SuperLatticeConfig | None = None) -> WaveguideConfig:
    cfg = cfg or reference_lattice()
    return WaveguideConfig(epsilon=2.0, q0=resonant_q0(2.0, cfg.E_A), u_b=0.25,
                           S_bar=math.pi * cfg.a ** 2)


def operating_point(cfg: SuperLatticeConfig, wg: WaveguideConfig,
                    k_pump: float) -> tuple[HopfieldMode, InteractionParams]:
    """The pumped lower-branch mode at k_pump and its contact constants."""
    mode = hopfield(k_pump, wg, cfg)
    return mode, interaction_params(wg, cfg, mode.X_lower ** 2)


def sustaining_drive(drive: DriveConfig, cfg: SuperLatticeConfig,
                     wg: WaveguideConfig) -> DriveConfig:
    """``drive``, whose ``n_pump`` is set, with the pump amplitude that
    sustains that occupation at its operating point."""
    pump = pump_occupation(drive, *operating_point(cfg, wg, drive.k_pump))
    return replace(drive, F_pump=pump.f_pump_magnitude)


def reference_setup() -> RunSetup:
    """Lattice + guide + pump-probe drive at the dark-level crossing.

    Resolved once per process and then shared: every field is a frozen
    dataclass of numbers.
    """
    return _reference_setup()


@functools.cache
def _reference_setup() -> RunSetup:
    cfg = reference_lattice()
    wg = reference_waveguide(cfg)
    e_a = antisymmetric_energy(cfg)
    k_star = find_resonance_k(e_a, wg, cfg)
    drive = sustaining_drive(DriveConfig(
        E_drive=e_a, F_pump=0.0, F_probe_plus=1e-9, F_probe_minus=0.0,
        hGamma_ph=1e-10, hGamma_s=1e-8, hGamma_a=1e-12,
        k_pump=k_star, q=1e-6, n_pump=1.0), cfg, wg)
    mode, ip = operating_point(cfg, wg, k_star)
    return RunSetup(cfg=cfg, wg=wg, drive=drive, mode=mode, ip=ip)
