from bogolon import PAPER, reference_setup
from bogolon.cli import build_run_config


def test_reference_setup_is_resolved_once():
    setup = reference_setup()
    assert reference_setup() is setup
    run = build_run_config({}, preset=True)
    assert (run.lattice, run.waveguide, run.drive) == (setup.cfg, setup.wg,
                                                       setup.drive)


def test_reference_setup_is_the_paper_config_resolved():
    # the preset is config data: read without --preset it gives the same
    # lattice, guide and derived drive
    setup = reference_setup()
    run = build_run_config(PAPER)
    assert (run.lattice, run.waveguide, run.drive) == (setup.cfg, setup.wg,
                                                       setup.drive)
