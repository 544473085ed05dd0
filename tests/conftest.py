import math

import pytest

from bogolon import SuperLatticeConfig, WaveguideConfig, reference_setup


@pytest.fixture(scope="session")
def cfg() -> SuperLatticeConfig:
    return reference_setup().cfg


@pytest.fixture(scope="session")
def wg() -> WaveguideConfig:
    return reference_setup().wg


@pytest.fixture(scope="session")
def setup():
    """Fully resolved reference operating point (pump at the dark crossing)."""
    return reference_setup()


@pytest.fixture()
def small_cfg() -> SuperLatticeConfig:
    """A small odd lattice for oracle work."""
    return SuperLatticeConfig(E_A=1.5, a=1000.0, R=100.0, mu=2.5,
                              theta=math.radians(80.0), N=5)
