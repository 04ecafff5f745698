"""Index and sign conventions, fixed once for the whole package.

Everything downstream (exact algebra, grid fields, scenarios, reports)
reads these tables; nothing else is allowed to redefine them.

* Metric signature: ``eta = diag(-1, +1, +1, +1)``; index 0 is time.
* Internal antisymmetric bases are ordered lexicographically:
  ``LAMBDA2 = [(0,1), (0,2), (0,3), (1,2), (1,3), (2,3)]`` and
  ``LAMBDA3 = [(0,1,2), (0,1,3), (0,2,3), (1,2,3)]``.
* Totally antisymmetric symbol: ``eps(0,1,2,3) = +1``, all indices down,
  never raised with the metric.
* Lorentz generators on V: ``(J_ab)^c_d = delta^c_a eta_bd - delta^c_b eta_ad``.
* Rotation aliases satisfying ``[L_i, L_j] = eps_ijk L_k``:
  ``L1 = -J23``, ``L2 = +J13``, ``L3 = -J12``; boosts ``K_i = J_0i``.
* Affine vector field of a Poincare element ``(T, R)``:
  ``xi^mu(x) = T^mu + R^mu_nu x^nu`` (so ``xi_[X,Y] = -[xi_X, xi_Y]``).
"""

from __future__ import annotations

import itertools

import numpy as np

# Minkowski metric on the internal space V, and on spacetime indices.
ETA_DIAG = (-1, 1, 1, 1)
ETA = np.diag(ETA_DIAG).astype(np.int64)

# Increasing multi-index bases for antisymmetric powers of a 4-dim space.
LAMBDA_BASES = {
    0: [()],
    1: [(0,), (1,), (2,), (3,)],
    2: list(itertools.combinations(range(4), 2)),
    3: list(itertools.combinations(range(4), 3)),
    4: [(0, 1, 2, 3)],
}
LAMBDA2 = LAMBDA_BASES[2]
LAMBDA3 = LAMBDA_BASES[3]
PAIR_INDEX = {pair: n for n, pair in enumerate(LAMBDA2)}


def perm_sign(seq) -> int:
    """Sign of the permutation sorting ``seq``; 0 if an entry repeats."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def lorentz_generator(a: int, b: int) -> np.ndarray:
    """Matrix of J_ab acting on V: (J_ab)^c_d = d^c_a eta_bd - d^c_b eta_ad."""
    m = np.zeros((4, 4), dtype=np.int64)
    for d in range(4):
        m[a, d] += ETA_DIAG[b] if b == d else 0
        m[b, d] -= ETA_DIAG[a] if a == d else 0
    return m


# J matrices in the LAMBDA2 basis order; J_MATS[p] acts on V.
J_MATS = np.stack([lorentz_generator(a, b) for a, b in LAMBDA2])


# Action of Lambda^2 V = so(3,1) on Lambda^k V, as matrices in the
# increasing-multi-index bases: (RHO[k][p])[i, j] is the coefficient of
# basis element j in J_p . (basis element i).
def _rho_on_lambda(k: int) -> np.ndarray:
    basis = LAMBDA_BASES[k]
    index = {mi: n for n, mi in enumerate(basis)}
    rho = np.zeros((6, len(basis), len(basis)), dtype=np.int64)
    for p in range(6):
        jm = J_MATS[p]
        for i, mi in enumerate(basis):
            for slot in range(k):
                for cnew in range(4):
                    coeff = jm[cnew, mi[slot]]
                    if coeff == 0:
                        continue
                    replaced = list(mi)
                    replaced[slot] = cnew
                    sign = perm_sign(replaced)
                    if sign == 0:
                        continue
                    j = index[tuple(sorted(replaced))]
                    rho[p, i, j] += sign * coeff
    return rho


RHO_ON_LAMBDA = {k: _rho_on_lambda(k) for k in (1, 2, 3, 4)}

# so(3,1) structure constants, [J_p, J_q] = sum_s f[p][q][s] J_s: the
# adjoint action is the action on Lambda^2 V.
SO31_STRUCTURE = RHO_ON_LAMBDA[2]

# Poincare generator names, in basis order used everywhere.
TRANSLATION_NAMES = ("P0", "P1", "P2", "P3")
LORENTZ_NAMES = tuple("J%d%d" % pair for pair in LAMBDA2)
POINCARE_NAMES = TRANSLATION_NAMES + LORENTZ_NAMES

# Aliases: rotations with [L_i, L_j] = eps_ijk L_k, boosts K_i = J_0i,
# time translation dt = P0.  Values are {basis name: integer coefficient}.
GENERATOR_ALIASES = {
    "dt": {"P0": 1},
    "L1": {"J23": -1},
    "L2": {"J13": 1},
    "L3": {"J12": -1},
    "K1": {"J01": 1},
    "K2": {"J02": 1},
    "K3": {"J03": 1},
}

