#!/usr/bin/env python3
"""Which isometries survive outside the ball?

For each Poincare generator, evaluates the tetrad symmetry residual X.e
and the cutoff-localized coupling term on the black-hole exterior.  The
static-spherical four decay under refinement; the other six hit a floor:
enforcing them would force the geometry flat.
"""

from pcgrav.action import EquivariantTestForm, extra_eom_term
from pcgrav.geometry import SchwarzschildIsotropic
from pcgrav.grid import Grid4
from pcgrav.scenarios import standard_test_form
from pcgrav.symmetry import CutoffFunction, PoincareElement, symmetry_residual

NAMES = ("P0", "L1", "L2", "L3", "P1", "P2", "P3", "K1", "K2", "K3")
R_IN, R_OUT = 6.0, 10.0
chart = SchwarzschildIsotropic(1.0)

table = {name: [] for name in NAMES}
spacings = []
for n in (13, 17, 25):
    # the grid excises the spatial ball rho <= R_IN: every norm runs outside
    grid = Grid4(16.0, n, inner_radius=R_IN, radius_mode="spatial")
    cutoff = CutoffFunction(R_IN, R_OUT)
    alpha = standard_test_form(grid, cutoff)
    e = chart.tetrad(grid)
    spacings.append(grid.spacing)
    for name in NAMES:
        gen = PoincareElement.from_name(name)
        form = EquivariantTestForm(alpha, gen)
        _, extra = extra_eom_term(e, form, cutoff)
        table[name].append((symmetry_residual(e, gen).region_norm(), extra))

print(f"symmetry residual | coupling term, outside rho = {R_IN} "
      f"(h = {', '.join('%.2f' % h for h in spacings)})\n")
for name in NAMES:
    sym = "  ".join(f"{s:9.2e}" for s, _ in table[name])
    ext = "  ".join(f"{x:9.2e}" for _, x in table[name])
    trend = table[name][0][0] / max(table[name][-1][0], 1e-300)
    tag = ("exact" if table[name][-1][0] < 1e-12
           else "decaying" if trend > 4 else "FLOOR")
    print(f"  {name:3s}  X.e: {sym}   coupling: {ext}   -> {tag}")

print("\ntime translation and the three rotations decay (they are the "
      "Killing fields\nof the exterior); translations and boosts do not, "
      "so the equivariant term\nobstructs any flat-space isometry beyond "
      "the static-spherical algebra.")
