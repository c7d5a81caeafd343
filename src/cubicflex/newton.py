"""Batched Newton iteration for square polynomial systems.

Every Newton solve in cubicflex goes through solve(): the flexes as the
common zeros of F and its Hessian, the singular points that name a
stratum, the crossings of a pencil with the discriminant, the cuspidal
members of a net, and the corrector of the path tracker.  A caller
supplies only its residuals and Jacobians; the iteration, the linear
solves, the rule that retires a failed row and the stopping test live
here alone.
"""

from __future__ import annotations

import numpy as np

ESCAPE = 1e8          # a row whose iterate leaves this box has diverged
STEP_FLOOR = 1e-15    # relative step size below which a row has stopped
_ADJUGATE_SIGNS = np.array([[1, -1], [-1, 1]])


def linear_solve(A, b):
    """Solutions x of the batched systems A x = b, for A (n, k, k) and
    b (n, k).  Rows where A is singular or holds a NaN come back NaN."""
    with np.errstate(invalid='ignore', divide='ignore', over='ignore'):
        if A.shape[-1] == 2:
            # closed form, adj(A) b / det A: on the 60-row batches of the
            # singular-point search LAPACK's per-matrix calls take twice as
            # long, and on 9 rows the two are even
            det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
            det[det == 0] = np.nan
            adj = A[:, ::-1, ::-1].swapaxes(1, 2) * _ADJUGATE_SIGNS
            return (adj @ b[:, :, None])[:, :, 0] / det[:, None]
        try:
            return np.linalg.solve(A, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # LAPACK rejects the whole batch for one exactly singular row
            singular = np.linalg.det(A) == 0
            A = np.where(singular[:, None, None], np.eye(A.shape[-1]), A)
            x = np.linalg.solve(A, b[..., None])[..., 0]
            x[singular] = np.nan
            return x


def solve(system, x0, max_iters, tol=0.0):
    """Newton iteration from every row of x0 (n, k) at once.

    system(x) returns the residuals (n, k) and the Jacobians (n, k, k) at
    the rows of x.  A row stops when its largest residual is at most tol
    or its step falls below STEP_FLOOR * (1 + |x|); it becomes NaN when
    its Jacobian is singular or not finite, or when it leaves the box
    |x| <= ESCAPE (|.| is the max-norm).  system is evaluated at most
    max_iters times, and once more at the final rows when max_iters runs
    out, since the last step moved some of them.

    Returns (x, converged, r, J): the final rows, which rows stopped
    before max_iters ran out, and the residuals and Jacobians at x.  NaN
    rows never count as converged.
    """
    x = np.array(x0, dtype=complex)
    live = np.isfinite(x).all(axis=1)
    with np.errstate(invalid='ignore', over='ignore'):
        for _ in range(max_iters):
            r, J = system(x)
            live &= ~(np.abs(r).max(axis=1) <= tol)
            if not live.any():
                break
            step = linear_solve(J, r)
            step[~live] = 0.0
            x -= step
            size = np.abs(x).max(axis=1)
            x[size > ESCAPE] = np.nan
            # false for NaN rows, so a diverged row stops here as well
            live &= np.abs(step).max(axis=1) >= STEP_FLOOR * (1 + size)
        else:
            r, J = system(x)
    return x, ~live & np.isfinite(x).all(axis=1), r, J
