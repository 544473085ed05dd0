"""The three benchmark workloads: inputs from a seed, one pass, checks.

A workload object builds its inputs once from ``--seed``; every pass then
runs the same inputs, so per-pass work counts repeat exactly and pass times
are medians over identical work.  The harness times the host-speed kernel
(``hostspeed``) between operations, outside their timed region.  ``run_pass`` calls the package only
through module attributes (``pumpprobe.spectrum(...)``), so the tracer's
wrappers are seen.  ``check`` recomputes each result by an independent
route (see ``reference``) after the pass, outside the timed region, and
returns one failure reason (or None) per operation.

All three are closed loops with one client: the next operation starts when
the previous one returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from bogolon import bogoliubov, cli, kinematic, oracle, polariton, presets, pumpprobe
from bogolon.constants import CONSTANTS

import hostspeed
import reference


@dataclass
class Op:
    label: str
    raw_s: float
    #: raw_s in reference seconds (see hostspeed)
    seconds: float
    value: object = None
    error: str | None = None


class Harness:
    """Times each operation and records its result or exception."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records: list[Op] = []
        self.next_id = 0
        self.kernel_s = hostspeed.kernel_s()

    def run(self, label: str, fn, *args) -> None:
        if self.tracer is not None:
            self.tracer.op_id = self.next_id
        self.next_id += 1
        start = perf_counter()
        try:
            value, error = fn(*args), None
        except Exception as err:  # a failed operation is counted, not fatal
            value, error = None, f"{type(err).__name__}: {err}"
        raw = perf_counter() - start
        before, self.kernel_s = self.kernel_s, hostspeed.kernel_s()
        self.records.append(Op(label, raw, raw * hostspeed.scale(before, self.kernel_s),
                               value, error))


def _model(cfg, wg) -> reference.Model:
    return reference.Model(cfg, wg, CONSTANTS.hbar_c, CONSTANTS.coulomb_mu2_prefactor)


def _rel(a, b) -> float:
    """Largest elementwise relative difference of a from b."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def _first_failure(checks) -> str | None:
    for name, ok in checks:
        if not ok:
            return name
    return None


class Figures:
    """``cli.main`` for levels / dispersion / fractions / spectrum.

    Each pass runs every command SWEEPS times, each time on its own seeded
    sweep at ``--preset paper``, writing CSV to a scratch directory.  Sweeps
    have ROWS rows, spectra twice that, so the slowest quarter of operations
    is one command and op_p90_ms measures it rather than scheduling noise.
    Almost all the time is the per-row scalar path (hopfield, the bands and
    couplings, steady_state per spectrum point, Dataset.render); RK4 and the
    oracle are never reached.
    """

    ROWS = 5_000
    SWEEPS = 3
    SAMPLE = 64

    def __init__(self, seed: int, workdir):
        self.seed, self.workdir = seed, workdir
        setup = presets.reference_setup()
        self.drive = setup.drive
        self.model = _model(setup.cfg, setup.wg)
        self.e_a = float(self.model.levels()[3])
        delta, x2 = self.model.interaction(self.drive.k_pump)
        v = delta * x2 * self.drive.n_pump
        rng = np.random.default_rng(seed)
        self.sweeps = []
        for _ in range(self.SWEEPS):
            self.sweeps += [
                ("levels", "theta", rng.uniform(0.0, 30.0), rng.uniform(60.0, 90.0)),
                ("dispersion", "k", rng.uniform(0.0, 1e-5), rng.uniform(6e-5, 1e-4)),
                ("fractions", "k", rng.uniform(0.0, 1e-5), rng.uniform(6e-5, 1e-4)),
                ("spectrum", "E_drive", self.e_a + rng.uniform(-0.5, 0.5) * v,
                 self.e_a + rng.uniform(3.5, 4.5) * v),
            ]

    def _rows(self, command: str) -> int:
        return 2 * self.ROWS if command == "spectrum" else self.ROWS

    def _path(self, i: int, command: str):
        return self.workdir / f"{i}-{command}.csv"

    def run_pass(self, h: Harness) -> None:
        for i, (command, var, lo, hi) in enumerate(self.sweeps):
            argv = [command, "--preset", "paper", "--sweep",
                    f"{var}:{lo!r}:{hi!r}:{self._rows(command)}",
                    "--out", str(self._path(i, command))]
            h.run(command, cli.main, argv)

    def check(self, records: list[Op]) -> list[str | None]:
        return [self._check_one(i, op) for i, op in enumerate(records)]

    def _check_one(self, i: int, op: Op) -> str | None:
        if op.error is not None:
            return op.error
        if op.value != 0:
            return f"exit code {op.value}"
        command, _, lo, hi = self.sweeps[i]
        body = [line for line in self._path(i, command).read_text().splitlines()
                if not line.startswith("#")]
        rows, count = body[1:], self._rows(command)
        if len(rows) != count:
            return f"{len(rows)} rows, expected {count}"
        rng = np.random.default_rng([self.seed, i])
        idx = np.sort(rng.choice(count, self.SAMPLE, replace=False))
        got = np.array([[float(x) for x in rows[j].split(",")] for j in idx])
        x = np.linspace(lo, hi, count)[idx]
        m, e_abs = self.model, 1e-12 * self.model.cfg.E_A
        if command in ("levels", "dispersion", "fractions"):
            if command == "levels":
                b = m.branches(0.0, theta=np.radians(x))
                _, _, e_s, e_a = m.levels(np.radians(x))
                want = [b["E_up"], b["E_lo"], e_s, e_a]
            elif command == "dispersion":
                b = m.branches(x)
                want = [b["E_up"], b["E_lo"], b["E_ph"], b["E_s"],
                        np.full_like(x, self.e_a)]
            else:
                b = m.branches(x)
                want = [b["X2_up"], b["Y2_up"], b["X2_lo"], b["Y2_lo"]]
            shift = 0.0 if command == "fractions" else m.cfg.E_A
            tol = 1e-12 if command == "fractions" else e_abs
            return _first_failure([
                ("grid column", np.array_equal(got[:, 0], x)),
                ("closed-form columns", all(
                    np.max(np.abs(got[:, c + 1] - (w - shift))) <= tol
                    for c, w in enumerate(want))),
            ])
        # spectrum: the preset's pump wavenumber must sit on the dark level
        k_ok = abs(float(m.branches(self.drive.k_pump)["E_lo"]) - self.e_a) <= 2e-12
        st = m.steady(self.drive, x)
        i_probe = abs(self.drive.F_probe_plus) ** 2 + abs(self.drive.F_probe_minus) ** 2
        return _first_failure([
            ("pump wavenumber on dark level", k_ok),
            ("E_offset column", np.max(np.abs(got[:, 0] - (x - self.e_a))) <= e_abs),
            ("I_minus", _rel(got[:, 1], np.abs(st["B_minus"]) ** 2 / i_probe) <= 1e-9),
            ("I_plus", _rel(got[:, 2], np.abs(st["B_plus"]) ** 2 / i_probe) <= 1e-9),
        ])


class Scan:
    """Many small operating points through the scalar API.

    Seeded theta, R, F_pump and polariton damping; ``n_pump`` is unset so
    the pump occupation is solved self-consistently.  theta in [60, 89] deg
    with R in [120, 250] Angstrom keeps the dark-level crossing inside the
    zone (below R ~ 90 Angstrom it leaves the lower-branch range).  The dark
    damping is zero so the undamped pair rotation must match the direct
    solve exactly; the spectrum stays at or below the dark level, where the
    occupation fixed point has a single root.  A quarter of the points ask
    for a four times finer spectrum; which ones is seeded, so every seed
    does the same work and op_p90_ms measures that class of point.
    """

    POINTS = 40
    SPECTRUM_POINTS = 200
    FINE_SPECTRUM_POINTS = 800

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        fine = self.POINTS // 4
        lengths = rng.permutation([self.FINE_SPECTRUM_POINTS] * fine
                                  + [self.SPECTRUM_POINTS] * (self.POINTS - fine))
        self.points = []
        for length in lengths:
            data = {
                "lattice": {"theta_deg": rng.uniform(60.0, 89.0),
                            "R": rng.uniform(120.0, 250.0)},
                "drive": {"F_pump": 10.0 ** rng.uniform(-5.0, -4.0),
                          "hGamma_ph": 10.0 ** rng.uniform(-9.0, -6.0),
                          "hGamma_s": 10.0 ** rng.uniform(-9.0, -6.0),
                          "hGamma_a": 0.0, "n_pump": None},
            }
            self.points.append((data, rng.uniform(5e-4, 2e-3), 1e-6, int(length)))

    def run_pass(self, h: Harness) -> None:
        for point in self.points:
            h.run("point", self._point, *point)

    def _point(self, data, v_dyn, tol, length):
        run = cli.build_run_config(data, preset=True)
        cfg, wg, drive = run.lattice, run.waveguide, run.drive
        mode = polariton.hopfield(drive.k_pump, wg, cfg)
        ip = kinematic.interaction_params(wg, cfg, mode.X_lower ** 2)
        pump = pumpprobe.pump_occupation(drive, mode, ip)
        ss = pumpprobe.steady_state(drive, mode, ip, cfg)
        co = bogoliubov.coefficients(ss.E_a_tilde, ss.V_mf, drive.E_drive)
        c_plus, c_minus = bogoliubov.bogolon_steady_state(co, drive.F_probe_plus)
        b_pair = bogoliubov.reconstruct_dark_amplitudes(co, c_plus, c_minus)
        residual = polariton.verify_diagonalization(mode, wg, cfg)
        excl = kinematic.double_excitation_excluded(cfg, wg, v_dyn, tol, drive.k_pump)
        energies = np.linspace(drive.E_drive - 4.0 * ss.V_mf, drive.E_drive, length)
        spec = pumpprobe.spectrum(drive, mode, ip, cfg, energies)
        return SimpleNamespace(run=run, mode=mode, pump=pump, ss=ss, co=co,
                               b_pair=b_pair, residual=residual, excl=excl,
                               v_dyn=v_dyn, tol=tol, energies=energies, spec=spec)

    def check(self, records: list[Op]) -> list[str | None]:
        return [op.error if op.error is not None else self._check_one(op.value)
                for op in records]

    @staticmethod
    def _check_one(r) -> str | None:
        cfg, drive, mode, ss = r.run.lattice, r.run.drive, r.mode, r.ss
        m = _model(cfg, r.run.waveguide)
        _, _, e_s, e_a = m.levels()
        e_abs = 1e-12 * cfg.E_A
        direct = m.steady(drive)
        scale = max(abs(ss.B_plus), abs(ss.B_minus))
        pair_rel = max(abs(r.b_pair[0] - ss.B_plus),
                       abs(r.b_pair[1] - ss.B_minus)) / scale
        e_e = 2.0 * cfg.E_A + 2.0 * r.v_dyn
        e_pump = float(m.branches(drive.k_pump)["E_lo"])
        gaps = [abs(e_e - 2.0 * e) for e in (e_s, e_a, cfg.E_A, e_pump)]
        got_gaps = [gap for _, gap in r.excl.channels.values()]
        spec = m.steady(drive, r.energies)
        i_probe = abs(drive.F_probe_plus) ** 2 + abs(drive.F_probe_minus) ** 2
        return _first_failure([
            ("pump wavenumber on dark level", abs(e_pump - e_a) <= 2e-12),
            ("hopfield residual", m.hopfield_residual(
                mode.k, mode.X_upper, mode.Y_upper, mode.X_lower, mode.Y_lower) < e_abs),
            ("reported hopfield residual", r.residual < e_abs),
            ("fixed point", r.pump.iterations > 0
             and m.fixed_point_residual(drive, r.pump.n_pump) <= 1e-9),
            ("direct solve", _rel([ss.A_amp, ss.B_plus, ss.B_minus],
                                  [direct["A"][0], direct["B_plus"][0],
                                   direct["B_minus"][0]]) <= 1e-9),
            ("bogoliubov vs direct", pair_rel <= 1e-10),
            ("u^2 - v^2", abs(r.co.u ** 2 - r.co.v ** 2 - 1.0) <= 1e-12),
            ("exclusion gaps", np.max(np.abs(np.subtract(got_gaps, gaps))) <= e_abs
             and r.excl.excluded == all(g > r.tol for g in gaps)),
            ("spectrum size", len(r.spec) == len(r.energies)),
            ("spectrum", _rel([p.I_minus_scaled for p in r.spec],
                              np.abs(spec["B_minus"]) ** 2 / i_probe) <= 1e-8
             and _rel([p.I_plus_scaled for p in r.spec],
                      np.abs(spec["B_plus"]) ** 2 / i_probe) <= 1e-8),
        ])


class Crosscheck:
    """The independent second routes: RK4 and exact diagonalization.

    RK4: seeded damped drives as in acceptance criterion 6, with twice its
    damping so t = 20 / hG_a takes half the steps, integrated with a fixed
    step count (dt * scale <= 0.09 over the seeded ranges, as there) and
    compared with the steady state.  Oracle: ``validate_band`` at 3/5/7
    cells and ``validate_blocking`` on BLOCKS seeded lattices of
    BLOCK_CELLS cells (dim 66).  The two halves take about equal time; the
    blocking checks are a sixth of the operations and four times slower
    than a trajectory, so op_p90_ms falls inside them.
    """

    DRIVES = 16
    BLOCKS = 4
    BLOCK_CELLS = 6
    HG_A = 2e-6
    T_END = 20.0 / HG_A
    STEPS = 22_500

    def __init__(self, seed: int, workdir):
        setup = presets.reference_setup()
        self.cfg, self.mode, self.ip = setup.cfg, setup.mode, setup.ip
        self.model = _model(setup.cfg, setup.wg)
        e_a = float(self.model.levels()[3])
        rng = np.random.default_rng(seed)
        self.drives = [pumpprobe.DriveConfig(
            E_drive=e_a - rng.uniform(0.0, 4e-5),
            F_pump=complex(rng.uniform(1e-9, 1e-6)),
            F_probe_plus=complex(*rng.uniform(-1e-9, 1e-9, 2)),
            F_probe_minus=complex(*rng.uniform(-1e-9, 1e-9, 2)),
            hGamma_ph=rng.uniform(4e-6, 4e-5), hGamma_s=rng.uniform(4e-6, 4e-5),
            hGamma_a=self.HG_A, k_pump=self.mode.k, q=1e-6,
            n_pump=rng.uniform(0.2, 0.8)) for _ in range(self.DRIVES)]
        self.bands = [(n, replace(self.cfg, theta=math.radians(rng.uniform(60.0, 89.0))))
                      for n in (3, 5, 7)]
        self.blocks = [(self.BLOCK_CELLS,
                        replace(self.cfg, theta=math.radians(rng.uniform(70.0, 89.0)),
                                R=rng.uniform(80.0, 150.0)), rng.uniform(5e-4, 2e-3))
                       for _ in range(self.BLOCKS)]

    def run_pass(self, h: Harness) -> None:
        for drive in self.drives:
            h.run("rk4", self._rk4, drive)
        for n, cfg in self.bands:
            h.run(f"band{n}", oracle.validate_band, cfg, n)
        for n, cfg, v_dyn in self.blocks:
            h.run(f"blocking{n}", oracle.validate_blocking, cfg, n, v_dyn)

    def _rk4(self, drive):
        traj = pumpprobe.time_evolve(drive, self.mode, self.ip, self.cfg, self.T_END,
                                     self.T_END / self.STEPS, 10 ** 9)
        ss = pumpprobe.steady_state(drive, self.mode, self.ip, self.cfg)
        return traj, ss

    def check(self, records: list[Op]) -> list[str | None]:
        inputs = ([("rk4", d) for d in self.drives] + [("band", b) for b in self.bands]
                  + [("blocking", b) for b in self.blocks])
        return [op.error if op.error is not None else getattr(self, f"_check_{kind}")(op.value, x)
                for op, (kind, x) in zip(records, inputs)]

    def _check_rk4(self, value, drive) -> str | None:
        traj, ss = value
        want = self.model.steady(drive)
        target = [want["A"][0], want["B_plus"][0], want["B_minus"][0]]
        final = [traj.A[-1], traj.B_plus[-1], traj.B_minus[-1]]
        return _first_failure([
            ("integrated to t_end", abs(traj.times[-1] - self.T_END) <= 1e-9 * self.T_END),
            # per amplitude: |A| dwarfs |B+-|, so a norm would hide B errors
            ("rk4 vs steady state", _rel(final, target) <= 1e-6),
            ("steady state", _rel([ss.A_amp, ss.B_plus, ss.B_minus], target) <= 1e-9),
        ])

    def _check_band(self, rep, spec) -> str | None:
        n, cfg = spec
        small = replace(cfg, R=cfg.a / 100.0, N=n)
        mine = reference.band(_model(small, None), n)
        # leading distance-splitting residual of the single-hopping band
        residual = 12.0 * (small.R / small.a) ** 2
        return _first_failure([
            ("eigenvalue count", rep.eigenvalues.shape == (2 * n,)),
            ("eigenvalues vs LAPACK", np.max(np.abs(rep.eigenvalues - mine["eigenvalues"]))
             <= 1e-12 * cfg.E_A),
            ("deviation = 12 (R/a)^2 |J|", abs(rep.deviation_over_J - residual) <= 0.01 * residual
             and abs(mine["deviation_over_J"] - residual) <= 0.01 * residual),
        ])

    def _check_blocking(self, rep, spec) -> str | None:
        n, cfg, v_dyn = spec
        mine = reference.blocking(_model(cfg, None), n, v_dyn)
        e_abs = 1e-12 * cfg.E_A
        return _first_failure([
            ("dimension C(2N,2)", rep.dimension == rep.expected_dimension == math.comb(2 * n, 2)
             == mine["dimension"]),
            ("no double occupation", rep.no_double_occupation),
            ("separated", rep.separated and rep.cluster_size == n == mine["cluster_size"]),
            ("separation vs LAPACK", abs(rep.separation - mine["separation"]) <= e_abs),
            ("min gap vs LAPACK", abs(rep.min_gap - mine["min_gap"]) <= e_abs),
        ])


WORKLOADS = {"figures": Figures, "scan": Scan, "crosscheck": Crosscheck}
