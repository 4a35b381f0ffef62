"""Lift diagnostics for the tests: the geometricity defect of a lift and the
residuals of the Chen identities over every grid triple, with the pair tables
folded by ``roughtaylor.lift.chen_compose``."""

import numpy as np

from roughtaylor.lift import RoughLift, chen_compose


def geometricity_defect(lift: RoughLift) -> float:
    """Max entrywise deviation of Sym(X2) from x⊗x/2 over all intervals;
    zero for lifts of piecewise-linear (or any smooth) paths."""
    v = lift.increments
    sym = 0.5 * (lift.level2 + np.transpose(lift.level2, (0, 2, 1)))
    target = 0.5 * np.einsum("ni,nj->nij", v, v)
    return float(np.max(np.abs(sym - target)))


def _interval(lift: RoughLift, r: int):
    X3 = lift.level3[r] if lift.has_level3 else None
    return lift.increments[r], lift.level2[r], X3


def _pair_tables(lift: RoughLift):
    """Tensors over every node pair, T1[i,j] etc., built by row-wise folds.

    Quadratic memory; intended for validation at modest N.
    """
    n = lift.grid.N + 1
    m = lift.m
    T1 = np.zeros((n, n, m))
    T2 = np.zeros((n, n, m, m))
    T3 = np.zeros((n, n, m, m, m)) if lift.has_level3 else None
    for i in range(n - 1):
        acc = _interval(lift, i)
        T1[i, i + 1], T2[i, i + 1] = acc[0], acc[1]
        if T3 is not None:
            T3[i, i + 1] = acc[2]
        for j in range(i + 2, n):
            acc = chen_compose(acc, _interval(lift, j - 1))
            T1[i, j], T2[i, j] = acc[0], acc[1]
            if T3 is not None:
                T3[i, j] = acc[2]
    return T1, T2, T3


def chen_defect(lift: RoughLift) -> tuple[float, float]:
    """Max residuals of the level-2 and level-3 Chen identities over all grid
    triples s < u < t (level-3 residual is 0.0 when the lift has no level3)."""
    n = lift.grid.N + 1
    if n > 256:
        raise ValueError("chen_defect tabulates all node pairs; use N <= 255")
    T1, T2, T3 = _pair_tables(lift)
    # residual[s, u, t] = X_{s,t} - X_{s,u} - X_{u,t} - (cross terms)
    R2 = (
        T2[:, None, :, :, :]
        - T2[:, :, None, :, :]
        - T2[None, :, :, :, :]
        - T1[:, :, None, :, None] * T1[None, :, :, None, :]
    )
    s_idx, u_idx, t_idx = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    valid = (s_idx < u_idx) & (u_idx < t_idx)
    res2 = float(np.max(np.abs(R2[valid]))) if valid.any() else 0.0
    res3 = 0.0
    if T3 is not None:
        R3 = (
            T3[:, None, :, :, :, :]
            - T3[:, :, None, :, :, :]
            - T3[None, :, :, :, :, :]
            - T2[:, :, None, :, :, None] * T1[None, :, :, None, None, :]
            - T1[:, :, None, :, None, None] * T2[None, :, :, None, :, :]
        )
        res3 = float(np.max(np.abs(R3[valid]))) if valid.any() else 0.0
    return res2, res3
