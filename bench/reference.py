"""Independent numpy re-derivation of the quantities the benchmark checks.

Nothing here calls into bogolon's numerics.  Configuration objects are read
as plain inputs and every result is recomputed from the model's defining
formulas, vectorized over numpy arrays, with LAPACK (``np.linalg``) in place
of the package's own solvers: a 2x2 complex solve instead of the Cramer
closed form, bisection instead of the damped fixed-point iteration, and
``eigh`` on a combinations-built basis instead of Jacobi on a bitmask scan.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


class Model:
    """Closed forms for one lattice + guide pair.

    ``cfg`` and ``wg`` are the package's config dataclasses (read only);
    ``hbar_c`` and ``coulomb`` are the physical constants in eV*Angstrom.
    """

    def __init__(self, cfg, wg, hbar_c: float, coulomb: float):
        self.cfg, self.wg = cfg, wg
        self.hbar_c, self.coulomb = hbar_c, coulomb

    def coupling(self, r, theta=None):
        """Dipole-dipole energy mu^2 (1 - 3 cos^2 theta) / (4 pi eps0 r^3)."""
        theta = self.cfg.theta if theta is None else theta
        return (self.coulomb * self.cfg.mu ** 2
                * (1.0 - 3.0 * np.cos(theta) ** 2) / np.asarray(r) ** 3)

    def levels(self, theta=None):
        """(J0, J, E_s, E_a): in-cell and nearest-cell couplings, levels."""
        j0 = self.coupling(self.cfg.R, theta)
        j = self.coupling(self.cfg.a, theta)
        return j0, j, self.cfg.E_A + j0, self.cfg.E_A - j0

    def branches(self, k, theta=None) -> dict:
        """Bright exciton, photon and both polariton branches at k."""
        cfg, wg = self.cfg, self.wg
        k = np.asarray(k, dtype=float)
        j0, j, _, _ = self.levels(theta)
        e_s = cfg.E_A + j0 + 4.0 * j * np.cos(k * cfg.a)
        e_ph = self.hbar_c / math.sqrt(wg.epsilon) * np.hypot(wg.q0, k)
        inv_eps0 = 4.0 * math.pi * self.coulomb
        f = (np.sqrt(e_ph * inv_eps0 / (wg.S_bar * cfg.a)) * wg.u_b * cfg.mu
             * np.abs(np.cos(k * cfg.R / 2.0)))
        delta = (e_ph - e_s) / 2.0
        d = np.hypot(delta, f)
        mean = (e_ph + e_s) / 2.0
        x2_up = 0.5 * (1.0 - delta / d)
        x2_lo = 0.5 * (1.0 + delta / d)
        return dict(E_s=e_s, E_ph=e_ph, f=f, E_up=mean + d, E_lo=mean - d,
                    X2_up=x2_up, Y2_up=x2_lo, X2_lo=x2_lo, Y2_lo=x2_up)

    def hopfield_residual(self, k, x_up, y_up, x_lo, y_lo) -> float:
        """max |offdiag| of U H(k) U^T for given mixing amplitudes."""
        b = self.branches(k)
        h = np.array([[b["E_s"], b["f"]], [b["f"], b["E_ph"]]], dtype=float)
        u = np.array([[x_up, y_up], [x_lo, y_lo]])
        rotated = u @ h @ u.T
        return float(max(abs(rotated[0, 1]), abs(rotated[1, 0])))

    def interaction(self, k_pump) -> tuple[float, float]:
        """(Delta, X2) of the pumped lower-branch mode."""
        wg, cfg = self.wg, self.cfg
        m_c2 = self.hbar_c * wg.q0 * math.sqrt(wg.epsilon)
        delta = 4.0 * math.pi * self.hbar_c ** 2 / (m_c2 * cfg.a ** 2) / cfg.N
        return delta, float(self.branches(k_pump)["X2_lo"])

    def _pump_terms(self, drive):
        """(E_pol, s = Delta X^4, hG_pol) of the pumped lower-branch mode."""
        b = self.branches(drive.k_pump)
        delta, x2 = self.interaction(drive.k_pump)
        hg = 0.5 * (b["X2_lo"] * drive.hGamma_s + b["Y2_lo"] * drive.hGamma_ph)
        return float(b["E_lo"]), delta * x2 ** 2, float(hg)

    def pump(self, drive, e_drive):
        """Pump occupation and renormalized energies at drive energies E.

        Returns (n, E_pol~, hG_pol).  A prescribed ``drive.n_pump`` is used
        as is; otherwise n solves n ((E - E_pol - s n)^2 + hG^2) = |F|^2 by
        bisection on [0, |F|^2 / hG^2], which holds one root while
        E <= E_pol + s n.
        """
        e = np.asarray(e_drive, dtype=float)
        e_pol, s, hg = self._pump_terms(drive)
        if drive.n_pump is not None:
            n = np.full_like(e, drive.n_pump)
        else:
            if hg <= 0.0:
                raise ValueError("bisection bracket needs polariton damping")
            f2 = abs(drive.F_pump) ** 2
            lo, hi = np.zeros_like(e), np.full_like(e, f2 / hg ** 2)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                over = mid * ((e - e_pol - s * mid) ** 2 + hg ** 2) > f2
                hi = np.where(over, mid, hi)
                lo = np.where(over, lo, mid)
            n = 0.5 * (lo + hi)
        return n, e_pol + s * n, hg

    def fixed_point_residual(self, drive, n) -> float:
        """Relative residual of N = |F|^2 / ((E - E_pol~(N))^2 + hG^2)."""
        e_pol, s, hg = self._pump_terms(drive)
        rhs = abs(drive.F_pump) ** 2 / ((drive.E_drive - e_pol - s * n) ** 2 + hg ** 2)
        return float(abs(n - rhs) / max(abs(n), 1e-300))

    def steady(self, drive, e_drive=None) -> dict:
        """Stationary (A, B+, B-) from a batched 2x2 complex solve."""
        e = np.atleast_1d(np.asarray(
            drive.E_drive if e_drive is None else e_drive, dtype=float))
        n, e_pol_t, hg_pol = self.pump(drive, e)
        delta, x2 = self.interaction(drive.k_pump)
        v = delta * x2 * n
        e_a_t = self.levels()[3] + 2.0 * v
        z = e_a_t - e - 1j * drive.hGamma_a
        # (E_a~ - E - i hG_a) B+ + V conj(B-) + F+ = 0 and its conjugate
        # partner, unknowns (B+, conj(B-)).
        m = np.empty(e.shape + (2, 2), dtype=complex)
        m[..., 0, 0], m[..., 0, 1] = z, v
        m[..., 1, 0], m[..., 1, 1] = v, np.conj(z)
        rhs = np.empty(e.shape + (2, 1), dtype=complex)
        rhs[..., 0, 0] = -complex(drive.F_probe_plus)
        rhs[..., 1, 0] = -complex(drive.F_probe_minus).conjugate()
        sol = np.linalg.solve(m, rhs)[..., 0]
        a_amp = complex(drive.F_pump) / (e - e_pol_t + 1j * hg_pol)
        return dict(A=a_amp, B_plus=sol[..., 0], B_minus=np.conj(sol[..., 1]),
                    N=n, V=v, E_a_tilde=e_a_t)


def _positions(cfg, n_cells: int) -> np.ndarray:
    idx = np.arange(2 * n_cells)
    return (idx // 2) * cfg.a + (idx % 2 - 0.5) * cfg.R


def _hopping(model: Model, n_cells: int) -> np.ndarray:
    """Nearest-neighbour-cell couplings with periodic minimum images."""
    cfg = model.cfg
    n_atoms = 2 * n_cells
    z = _positions(cfg, n_cells)
    cell = np.arange(n_atoms) // 2
    dcell = np.abs(cell[:, None] - cell[None, :])
    dcell = np.minimum(dcell, n_cells - dcell)
    d = np.abs(z[:, None] - z[None, :])
    d = np.minimum(d, n_cells * cfg.a - d)
    c = np.zeros((n_atoms, n_atoms))
    mask = (dcell <= 1) & ~np.eye(n_atoms, dtype=bool)
    c[mask] = model.coupling(d[mask])
    return c


def sector(model: Model, n_cells: int, n_exc: int, v_dyn: float):
    """(basis, H, doubly-excited-cell mask) of the n_exc-excitation sector."""
    n_atoms = 2 * n_cells
    basis = list(combinations(range(n_atoms), n_exc))
    index = {s: i for i, s in enumerate(basis)}
    c = _hopping(model, n_cells)
    h = np.zeros((len(basis), len(basis)))
    double = np.zeros(len(basis), dtype=bool)
    for row, s in enumerate(basis):
        cells = [i // 2 for i in s]
        double[row] = len(set(cells)) < len(cells)
        h[row, row] = n_exc * model.cfg.E_A + (2.0 * v_dyn if double[row] else 0.0)
        occupied = set(s)
        for i in s:
            for j in range(n_atoms):
                if j not in occupied:
                    t = tuple(sorted((occupied - {i}) | {j}))
                    h[row, index[t]] = c[i, j]
    return basis, h, double


def band(model: Model, n_cells: int) -> dict:
    """Single-excitation spectrum (LAPACK) against the analytic level set."""
    _, h, _ = sector(model, n_cells, 1, 0.0)
    w = np.linalg.eigvalsh(h)
    j0, j, _, e_a = model.levels()
    k = 2.0 * math.pi * np.arange(-(n_cells // 2), n_cells // 2 + 1) / (
        n_cells * model.cfg.a)
    analytic = np.sort(np.concatenate([
        np.full(n_cells, e_a),
        model.cfg.E_A + j0 + 4.0 * j * np.cos(k * model.cfg.a)]))
    return dict(eigenvalues=w, J=float(j),
                deviation_over_J=float(np.max(np.abs(w - analytic)) / abs(j)))


def blocking(model: Model, n_cells: int, v_dyn: float) -> dict:
    """Bound-cluster placement in the two-excitation sector (LAPACK)."""
    basis, h, double = sector(model, n_cells, 2, v_dyn)
    w, vecs = np.linalg.eigh(h)
    weights = np.sum(vecs[double, :] ** 2, axis=0)
    cluster, manifold = w[weights > 0.5], w[weights <= 0.5]
    return dict(dimension=len(basis), cluster_size=int(cluster.size),
                separation=float(np.mean(cluster) - np.mean(manifold)),
                min_gap=float(np.min(np.abs(cluster[:, None] - manifold[None, :]))))
