#!/usr/bin/env python3
"""QFI vs the coupling mix at short, intermediate and long probing times
(figure 2 pipeline).  Writes fig2_sweep.csv and SVG plots under results/fig2.

The interior QFI maximum over alpha needs the slow mixed channels to settle.
The pipeline fixes t_end = 50, so to see the maximum emerge run
``qtherm sweep-alpha --t-end 100 --times 1,5,20,100 --svg`` instead.
"""
import sys

from qubit_thermometry.cli import main

if __name__ == "__main__":
    sys.exit(main(["reproduce", "fig2", "--out", "results/fig2", *sys.argv[1:]]))
