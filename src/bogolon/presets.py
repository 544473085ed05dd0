"""Bundled reference parameter set.

:data:`PAPER` holds the settings the paper gives, as the config sections a
user would write: a 1.5 eV transition on a 1000 Angstrom lattice (in-cell
spacing 100 Angstrom, dipole 2.5 e*Angstrom at 80 degrees, about 1 cm
long), a guide with eps = 2, three dampings and unit pump occupation.
``--preset paper`` overlays a config on these sections key by key, and
``cli.build_run_config`` then derives the settings they leave unset, by the
rules of any config: the guide resonant at the transition, the drive on the
dark level, and the pump at the wavenumber where the lower branch crosses
it, with the amplitude that sustains the occupation.
:func:`reference_setup` is :data:`PAPER` so resolved; the demos and the
acceptance checks use that one operating point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .kinematic import InteractionParams, interaction_params
from .lattice import SuperLatticeConfig
from .polariton import HopfieldMode, hopfield
from .pumpprobe import DriveConfig
from .waveguide import WaveguideConfig

PAPER = {
    # N is the odd cell count closest to a 1 cm lattice.
    "lattice": {"E_A": 1.5, "a": 1000.0, "R": 100.0, "mu": 2.5,
                "theta_deg": 80, "N": 100_001},
    "waveguide": {"epsilon": 2.0, "u_b": 0.25, "S_bar": math.pi * 1000.0 ** 2},
    "drive": {"hGamma_ph": 1e-10, "hGamma_s": 1e-8, "hGamma_a": 1e-12,
              "n_pump": 1.0},
}


@dataclass(frozen=True)
class RunSetup:
    """Fully resolved operating point."""

    cfg: SuperLatticeConfig
    wg: WaveguideConfig
    drive: DriveConfig
    mode: HopfieldMode
    ip: InteractionParams


def operating_point(cfg: SuperLatticeConfig, wg: WaveguideConfig,
                    k_pump: float) -> tuple[HopfieldMode, InteractionParams]:
    """The pumped lower-branch mode at k_pump and its contact constants."""
    mode = hopfield(k_pump, wg, cfg)
    return mode, interaction_params(wg, cfg, mode.X_lower * mode.X_lower)


def reference_setup() -> RunSetup:
    """:data:`PAPER` resolved, with the pumped mode at the dark-level crossing.

    Resolved once per process and then shared: every field is a frozen
    dataclass of numbers.
    """
    return _reference_setup()


@functools.cache
def _reference_setup() -> RunSetup:
    from .cli import build_run_config   # cli imports this module
    run = build_run_config(PAPER)
    mode, ip = operating_point(run.lattice, run.waveguide, run.drive.k_pump)
    return RunSetup(cfg=run.lattice, wg=run.waveguide, drive=run.drive,
                    mode=mode, ip=ip)
