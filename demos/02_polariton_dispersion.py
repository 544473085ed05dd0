"""Strong coupling of the bright exciton to the guided photon.

The guide is tuned so its band bottom sits on the atomic line.  Mixing
opens a gap 2 f_k between upper and lower branches; the flat dark level
crosses the lower branch at a finite wavenumber k*, the operating point
for the pump-probe scheme.
"""

import numpy as np

from bogolon import (antisymmetric_energy, coupling_bright, coupling_dark,
                     hopfield, photon_dispersion, reference_setup,
                     symmetric_band, verify_diagonalization)
from bogolon.polariton import find_resonance_k

setup = reference_setup()
cfg, wg = setup.cfg, setup.wg
e_a = antisymmetric_energy(cfg)

print(f"photon band bottom E_ph(0) = {photon_dispersion(0.0, wg):.6f} eV")
print(f"bright coupling f(0)       = {coupling_bright(0.0, wg, cfg):.4e} eV")
print(f"dark/bright coupling ratio at k = 1.4e-5: "
      f"{coupling_dark(1.4e-5, wg, cfg) / coupling_bright(1.4e-5, wg, cfg):.2e}")

k_star = find_resonance_k(e_a, wg, cfg)
mode_star = hopfield(k_star, wg, cfg)
print(f"\ndark level crosses the lower branch at k* = {k_star:.4e} 1/A")
print(f"excitonic fraction there |X|^2 = {mode_star.X_lower ** 2:.4f}")
print(f"diagonalization residual = {verify_diagonalization(mode_star, wg, cfg):.2e} eV")

print("\n   k (1/A)      E_+ - E_A    E_- - E_A    E_ph - E_A   E_s - E_A    |X_-|^2")
ks = np.linspace(0.0, 4.0e-5, 9)
m = hopfield(ks, wg, cfg)
for row in zip(ks, m.E_upper - cfg.E_A, m.E_lower - cfg.E_A,
               photon_dispersion(ks, wg) - cfg.E_A,
               symmetric_band(ks, cfg) - cfg.E_A, m.X_lower ** 2):
    print("  {:10.3e}  {:+.4e}  {:+.4e}  {:+.4e}  {:+.4e}  {:7.4f}".format(*row))
print(f"\nflat dark level: E_a - E_A = {e_a - cfg.E_A:+.4e} eV at every k")
