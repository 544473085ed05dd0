from bogolon import reference_setup
from bogolon.cli import build_run_config


def test_reference_setup_is_resolved_once():
    setup = reference_setup()
    assert reference_setup() is setup
    run = build_run_config({}, preset=True)
    assert (run.lattice, run.waveguide, run.drive) == (setup.cfg, setup.wg,
                                                       setup.drive)
