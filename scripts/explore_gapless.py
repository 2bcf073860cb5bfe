#!/usr/bin/env python3
"""Exploratory: low-temperature Fisher information of a gapless probe (eps = 0).

Prior work finds F_Q ~ 1/T^2 for a gapless thermalized probe at T << omega_c.
This setup probes out of equilibrium at finite times, so the script simply
reports the fitted log-log slope at several probing times; the divergence
regime needs probing times that grow as T falls.  Not part of the acceptance
gate.
"""
import numpy as np

from qubit_thermometry import ProbeConfig, SpectralDensity
from qubit_thermometry.metrology import loglog_slope, stencil_scans


def main():
    sd = SpectralDensity(eta=0.05, omega_c=1.0)
    temps = np.geomspace(0.02, 0.2, 7)
    times = (5.0, 20.0, 50.0)
    cfgs = [ProbeConfig(epsilon=0.0, alpha=0.5, T=float(T), sd=sd, t_end=max(times),
                        dt=0.01) for T in temps]
    _, scans = stencil_scans(cfgs, times)
    qfi = {t: [] for t in times}
    for T, scan in zip(temps, scans):
        for r in scan:
            qfi[r.t].append(r.qfi)
        print(f"T = {T:.4f}: " + "  ".join(
            f"F_Q(t={t:g}) = {qfi[t][-1]:.4g}" for t in times))
    for t in times:
        print(f"log-log slope at t = {t:g}: {loglog_slope(temps, qfi[t]):+.3f}"
              "   (gapless equilibrium reference: -2)")


if __name__ == "__main__":
    main()
