#!/usr/bin/env python3
"""Coherence trapping and re-coherence vs the coupling mix (figure 1 pipeline).

Writes fig1_sweep.csv, fig1_sweep_witness.svg and fig1_equator.svg under
results/fig1 (2.5 s on one core of a 2-vCPU VM).  fig1 builds no stencil:
it integrates every alpha as a lane of one pass, in this process, at any
--workers.
"""
import sys

from qubit_thermometry.cli import main

if __name__ == "__main__":
    sys.exit(main(["reproduce", "fig1", "--out", "results/fig1", *sys.argv[1:]]))
