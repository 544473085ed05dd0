"""In-cell level splitting and the bright-exciton band.

Two atoms per cell split the single-excitation line into a bright
(symmetric) level E_s = E_A + J0 and a dark (antisymmetric) level
E_a = E_A - J0.  The dipole angle tunes J0 through zero at the magic
angle, flipping which level lies higher.
"""

import math
from dataclasses import replace

import numpy as np

from bogolon import (MAGIC_ANGLE, allowed_wavenumbers, exciton_levels,
                     intercell_couplings, reference_setup, symmetric_band)

cfg = reference_setup().cfg
lv = exciton_levels(cfg)

print("reference lattice:")
print(f"  E_A = {cfg.E_A} eV, a = {cfg.a} A, R = {cfg.R} A, "
      f"mu = {cfg.mu} e*A, theta = {math.degrees(cfg.theta):.1f} deg")
print(f"  in-cell coupling  J0 = {lv.J0:+.4e} eV")
print(f"  inter-cell hop     J = {lv.J:+.4e} eV")
print(f"  bright level  E_s - E_A = {lv.E_s - cfg.E_A:+.4e} eV")
print(f"  dark level    E_a - E_A = {lv.E_a - cfg.E_A:+.4e} eV")

print("\nsplitting vs dipole angle (magic angle "
      f"{math.degrees(MAGIC_ANGLE):.4f} deg):")
degrees = (0, 30, 54.7356, 70, 80, 90)
by_angle = exciton_levels(cfg, theta=np.radians(degrees))
for deg, split in zip(degrees, by_angle.E_s - by_angle.E_a):
    print(f"  theta = {deg:7.4f} deg   E_s - E_a = {split:+.4e} eV")

print("\nbright band E_s(k) = E_A + J0 + 4J cos(ka) over the zone "
      "(5-cell lattice):")
small = replace(cfg, N=5)
ks = allowed_wavenumbers(small)
for k, e_s in zip(ks, symmetric_band(ks, small) - cfg.E_A):
    print(f"  k = {k:+.5e} 1/A   E_s(k) - E_A = {e_s:+.6e} eV")

j11, j12, j21 = intercell_couplings(cfg)
print("\nthe single-hop band uses one inter-cell coupling; the actual three")
print(f"  J11 (a)     = {j11:.4e} eV")
print(f"  J12 (a + R) = {j12:.4e} eV")
print(f"  J21 (a - R) = {j21:.4e} eV")
spread = max(j12, j21) / j11 - 1.0
print(f"  relative spread {spread:+.2%}: the a >> R approximation at work")
