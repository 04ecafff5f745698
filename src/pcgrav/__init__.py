"""Tetrad gravity on a 4D grid, with exact graded-algebra tooling.

Modules:

- ``graded`` / ``algebras``: differential graded Lie algebras over exact
  rationals, with full axiom checking and action (semidirect-sum)
  constructions.
- ``grid`` / ``fields``: finite-difference exterior calculus for
  vector-valued forms on a uniform 4D box grid.
- ``geometry``: reference tetrads (flat space, isotropic static black hole).
- ``action``: first-order tetrad action, its field-equation residuals, and
  the cutoff-localized equivariant coupling.
- ``symmetry``: Poincare generators as vector fields, symmetry/Killing
  residuals, cutoff functions.
- ``scenarios``: scenario configs, convergence verdicts, the runner.
- ``mass``: ADM energy and Komar mass as large-sphere surface integrals.
- ``cli``: the ``pcgrav`` command-line entry point.

All sign/index conventions are fixed once in :mod:`pcgrav.conventions` and
documented in ``docs/conventions.md``.
"""

__version__ = "0.1.0"

from .grid import Grid4                                    # noqa: E402,F401
from .fields import (FormField, MetricField, cov_d, curvature,  # noqa: F401
                     ext_d, form_dgla_bracket, integrate,
                     levi_civita_connection, metric_from_tetrad,
                     tetrad_field, trace4, wedge)
from .geometry import (SchwarzschildIsotropic,             # noqa: F401
                       minkowski_metric, minkowski_tetrad)
from .action import (EquivariantTestForm, action_pc,       # noqa: F401
                     einstein_residual, equivariant_action,
                     equivariant_coupling, extra_eom_term,
                     standard_test_form, torsion_residual)
from .symmetry import (CutoffFunction, PoincareElement,   # noqa: F401
                       generated_vector_field, killing_residual,
                       symmetry_residual)
from .mass import (adm_energy, komar_mass,                # noqa: F401
                   positivity_check, sphere_quadrature)
from .scenarios import Scenario, load_scenario, run_scenario  # noqa: F401
