"""The batched Newton core.

Oracle notes:
 - x^2 + y^2 = 5, x y = 2 has the four solutions (1, 2), (2, 1),
   (-1, -2), (-2, -1).
 - x + y + z = 6, xy + yz + zx = 11, xyz = 6 are the elementary
   symmetric functions of {1, 2, 3}, so its solutions are the six
   orderings of (1, 2, 3).  Its Jacobian is singular wherever two
   coordinates agree.
 - On x^2 = 1, y^2 = 1 the Jacobian diag(2x, 2y) is singular at x = 0,
   and a start at x = 1e-10 takes a first step of about 5e9, beyond the
   escape box.
"""

import numpy as np
import pytest

from cubicflex import newton


def circle_hyperbola(x):
    a, b = x[:, 0], x[:, 1]
    r = np.stack([a * a + b * b - 5, a * b - 2], axis=1)
    J = np.stack([np.stack([2 * a, 2 * b], axis=1),
                  np.stack([b, a], axis=1)], axis=1)
    return r, J


def symmetric_123(x):
    a, b, c = x[:, 0], x[:, 1], x[:, 2]
    one = np.ones_like(a)
    r = np.stack([a + b + c - 6, a * b + b * c + c * a - 11, a * b * c - 6],
                 axis=1)
    J = np.stack([np.stack([one, one, one], axis=1),
                  np.stack([b + c, a + c, a + b], axis=1),
                  np.stack([b * c, a * c, a * b], axis=1)], axis=1)
    return r, J


def unit_squares(x):
    r = x * x - 1
    J = np.zeros(x.shape + (2,), dtype=complex)
    J[:, 0, 0] = 2 * x[:, 0]
    J[:, 1, 1] = 2 * x[:, 1]
    return r, J


def test_converges_on_2x2_batch():
    x0 = [[1.1, 2.2], [2.3, 0.8], [-0.9 + 0.1j, -2.1], [-2.2, -1.1j - 0.9]]
    x, ok, _, _ = newton.solve(circle_hyperbola, x0, 30)
    assert ok.all()
    assert np.allclose(x, [[1, 2], [2, 1], [-1, -2], [-2, -1]], atol=1e-12)
    assert np.abs(circle_hyperbola(x)[0]).max() < 1e-12


def test_converges_on_3x3_batch():
    x0 = [[1.1, 2.1, 2.9], [2.9, 0.9 + 0.1j, 2.2]]
    x, ok, _, _ = newton.solve(symmetric_123, x0, 40)
    assert ok.all()
    assert np.allclose(x, [[1, 2, 3], [3, 1, 2]], atol=1e-10)


def test_singular_and_diverging_rows_become_nan():
    good = [[1.3, 0.7]]
    x0 = good + [[0.0, 0.5], [1e-10, 0.5]]
    x, ok, _, _ = newton.solve(unit_squares, x0, 30)
    assert ok.tolist() == [True, False, False]
    assert np.isnan(x[1:]).all()
    alone = newton.solve(unit_squares, good, 30)[0]
    assert np.array_equal(x[:1], alone)


def test_singular_row_in_lapack_batch_becomes_nan():
    # (1, 1, 1) makes the 3x3 Jacobian exactly singular
    x, ok, _, _ = newton.solve(symmetric_123,
                               [[1.1, 2.1, 2.9], [1, 1, 1]], 40)
    assert ok.tolist() == [True, False]
    assert np.allclose(x[0], [1, 2, 3], atol=1e-10)
    assert np.isnan(x[1]).all()


def test_row_within_tol_is_returned_unchanged():
    x0 = np.array([[1 + 1e-13, 1.0], [1.5, 0.6]], dtype=complex)
    x, ok, _, _ = newton.solve(unit_squares, x0, 30, tol=1e-10)
    assert ok.all()
    assert np.array_equal(x[0], x0[0])
    assert np.abs(x[1] - 1).max() < 1e-10


def test_running_out_of_iterations_is_not_converged():
    x, ok, _, _ = newton.solve(unit_squares, [[40.0, 1.0]], 3)
    assert not ok[0]
    assert np.isfinite(x).all()


@pytest.mark.parametrize("k", [2, 3])
def test_linear_solve_marks_singular_rows(k):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k))
    A[1] = 0.0
    b = rng.standard_normal((3, k)) + 0j
    x = newton.linear_solve(A, b)
    assert np.isnan(x[1]).all()
    for i in (0, 2):
        assert np.allclose(A[i] @ x[i], b[i])


class Recorded:
    """A system that records the rows it is evaluated at."""

    def __init__(self, system):
        self.system, self.calls = system, []

    def __call__(self, x):
        self.calls.append(x.copy())
        return self.system(x)


@pytest.mark.parametrize("iters", [0, 3, 30])
def test_residual_and_jacobian_at_the_returned_rows(iters):
    # 0 and 3 iterations run out, 30 end when every row has stopped
    recorded = Recorded(circle_hyperbola)
    x0 = [[1.1, 2.2], [2.3, 0.8], [-0.9 + 0.1j, -2.1]]
    x, _, r, J = newton.solve(recorded, x0, iters)
    r_at, J_at = circle_hyperbola(x)
    assert np.array_equal(r, r_at) and np.array_equal(J, J_at)
    assert np.array_equal(recorded.calls[-1], x)
    # one evaluation per iteration, and one more when they run out
    if iters < 30:
        assert len(recorded.calls) == iters + 1
    else:
        assert len(recorded.calls) < iters


def test_no_extra_evaluation_when_every_row_meets_tol():
    recorded = Recorded(unit_squares)
    x, ok, r, _ = newton.solve(recorded, [[1.2, 0.9], [-1.1, 1.3]], 30,
                               tol=1e-12)
    assert ok.all() and np.abs(r).max() <= 1e-12
    assert np.array_equal(r, unit_squares(x)[0])
    # the last evaluation is the one that met tol, at x; none repeats it
    assert np.array_equal(recorded.calls[-1], x)
    assert not np.array_equal(recorded.calls[-2], x)
    assert len(recorded.calls) < 30
