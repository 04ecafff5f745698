#!/usr/bin/env python3
"""Field-equation residuals and curvature of the black-hole exterior.

Samples the isotropic-chart tetrad and its closed-form spin connection on
a modest grid and watches the covariant torsion and the vacuum equation
residual decay under refinement, outside the excluded ball.
"""

import time

import numpy as np

from pcgrav.action import einstein_residual, torsion_residual
from pcgrav.geometry import SchwarzschildIsotropic
from pcgrav.grid import Grid4

MASS = 1.0
chart = SchwarzschildIsotropic(MASS)
print(f"mass {MASS}, core continuation inside rho = {chart.core_radius}")
print("residual max-norms outside the spatial ball rho <= 4 "
      "(two box layers dropped):\n")

norms = {"torsion": [], "einstein": []}
spacings = []
for n in (13, 17, 25):
    start = time.time()
    # the grid excises the spatial ball rho <= 4: the norms run outside it
    grid = Grid4(20.0, n, inner_radius=4.0, radius_mode="spatial")
    e, omega = chart.tetrad(grid), chart.connection(grid)
    _, tn = torsion_residual(e, omega)
    _, en = einstein_residual(e, omega, 0.0)
    norms["torsion"].append(tn)
    norms["einstein"].append(en)
    spacings.append(grid.spacing)
    print(f"  N = {n:2d}  h = {grid.spacing:.3f}  torsion = {tn:.3e}  "
          f"einstein = {en:.3e}   ({time.time() - start:.1f}s)")

for name, values in norms.items():
    slope = np.polyfit(np.log(spacings), np.log(values), 1)[0]
    print(f"{name} slope: {slope:.2f} (>= 2 means the vacuum equations "
          "hold to discretization order)")
