from __future__ import annotations

import json

import numpy as np
import pytest

from cubicflex import (CubicForm, ProjPoint, Pencil, Net, SchemaError,
                       DegenerateInputError, proj_distance,
                       fermat_cubic, triangle_cubic, node_family, cusp_family)
from cubicflex.forms import (MONOMIALS, hessian_coeffs, hessian_directional,
                             eval_coeffs, eval_gradient, substitute_linear,
                             second_partials_matrix)


def rand_form(rng):
    return CubicForm(rng.standard_normal(10) + 1j * rng.standard_normal(10))


def sympy_hessian(coeffs):
    """Independent oracle: expand det(d2F/dzi dzj) with sympy."""
    import sympy as sp
    z1, z2, z3 = sp.symbols('z1 z2 z3')
    zs = (z1, z2, z3)
    F = sum(sp.nsimplify(c, rational=False) * z1**i * z2**j * z3**(3 - i - j)
            for c, (i, j) in zip(coeffs, MONOMIALS))
    H = sp.det(sp.Matrix(3, 3, lambda u, v: sp.diff(F, zs[u], zs[v])))
    H = sp.expand(H)
    out = np.zeros(10, dtype=complex)
    for n, (i, j) in enumerate(MONOMIALS):
        out[n] = complex(H.coeff(z1, i).coeff(z2, j).coeff(z3, 3 - i - j))
    return out


def test_fermat_hessian_is_triangle():
    h = fermat_cubic().hessian_form()
    expected = np.zeros(10, dtype=complex)
    expected[MONOMIALS.index((1, 1))] = 216.0
    assert np.allclose(h.coeffs, expected)


def test_node_family_hessian_closed_form():
    # det of second partials of z1z2z3 + a z1^3 + b z2^3 + c z3^3 expands to
    # (216abc + 2) z1z2z3 - 6(a z1^3 + b z2^3 + c z3^3); the sign of the
    # cubes is fixed here by direct expansion (and the sympy oracle below).
    a, b, c = 0.3 + 0.1j, -0.7, 1.25j
    h = node_family(a, b, c).hessian_form()
    expected = node_family(-6 * a, -6 * b, -6 * c)
    expected = CubicForm(expected.coeffs
                         + (216 * a * b * c + 2 - 1)
                         * triangle_cubic().coeffs)
    assert np.allclose(h.coeffs, expected.coeffs)


def test_cusp_family_hessian_closed_form():
    # hessian of z1^3 + z2^2 z3 + tau z3^3 is 24 z1 (3 tau z3^2 - z2^2)
    tau = 0.05 - 0.7j
    h = cusp_family(tau).hessian_form()
    expected = CubicForm.from_monomials({(1, 0): 72 * tau, (1, 2): -24})
    assert np.allclose(h.coeffs, expected.coeffs)


def test_hessian_matches_sympy_oracle_on_random_forms():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = rand_form(rng)
        ours = hessian_coeffs(f.coeffs)
        oracle = sympy_hessian(f.coeffs)
        assert np.allclose(ours, oracle, rtol=1e-12, atol=1e-12)


def test_hessian_is_cubic_in_coefficients():
    rng = np.random.default_rng(8)
    f = rand_form(rng)
    lam = 0.37 - 2.2j
    assert np.allclose(hessian_coeffs(lam * f.coeffs),
                       lam**3 * hessian_coeffs(f.coeffs))


def test_hessian_directional_derivative():
    rng = np.random.default_rng(9)
    a = rand_form(rng).coeffs
    b = rand_form(rng).coeffs
    eps = 1e-7
    fd = (hessian_coeffs(a + eps * b) - hessian_coeffs(a - eps * b)) / (2 * eps)
    assert np.allclose(hessian_directional(a, b), fd, rtol=1e-6, atol=1e-6)


def test_euler_identity_on_random_samples():
    # z . grad F = 3 F for homogeneous cubics
    rng = np.random.default_rng(10)
    for _ in range(50):
        f = rand_form(rng)
        p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = np.dot(p, eval_gradient(f.coeffs, p))
        rhs = 3.0 * eval_coeffs(f.coeffs, p)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_second_partials_matrix_consistent_with_hessian_det():
    rng = np.random.default_rng(11)
    f = rand_form(rng)
    p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    M = second_partials_matrix(f.coeffs, p)
    assert np.allclose(np.linalg.det(M), eval_coeffs(hessian_coeffs(f.coeffs), p))
    assert np.allclose(M, M.T)
    # a batch of points gives the stack of the single-point matrices
    P = np.array([p, 2 * p, rng.standard_normal(3)])
    assert np.allclose(second_partials_matrix(f.coeffs, P),
                       [second_partials_matrix(f.coeffs, q) for q in P])


def test_transform_is_substitution():
    rng = np.random.default_rng(12)
    f = rand_form(rng)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = f.transform(M)
    for _ in range(10):
        p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(g(p), f(M @ p))


def test_hessian_transform_covariance():
    # H(f o M) = det(M)^2 (H(f) o M)
    rng = np.random.default_rng(13)
    f = rand_form(rng)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = f.transform(M).hessian_form()
    rhs = f.hessian_form().transform(M)
    assert np.allclose(lhs.coeffs, np.linalg.det(M)**2 * rhs.coeffs)


def test_normalization_max_modulus_one():
    rng = np.random.default_rng(14)
    f = rand_form(rng).normalize()
    m = np.abs(f.coeffs)
    assert np.isclose(m.max(), 1.0)
    assert f.coeffs[np.argmax(m)] == 1.0 + 0.0j


def test_projpoint_normalization_exact():
    p = ProjPoint([3.0, -6.0j, 2.0 + 1.0j])
    assert p.coords[1] == 1.0 + 0.0j  # -6j has the largest modulus
    with pytest.raises(DegenerateInputError):
        ProjPoint([0, 0, 0])


def test_zero_form_rejected():
    with pytest.raises(DegenerateInputError):
        CubicForm(np.zeros(10))


def test_pencil_and_net_members():
    pen = Pencil(fermat_cubic(), triangle_cubic())
    m = pen.member((1.0, 0.05))
    assert np.isclose(np.abs(m.coeffs).max(), 1.0)
    with pytest.raises(DegenerateInputError):
        pen.member((0.0, 0.0))
    with pytest.raises(DegenerateInputError):
        Pencil(fermat_cubic(), fermat_cubic() * 2.0)
    net = Net(triangle_cubic(),
              CubicForm.from_monomials({(3, 0): 1}),
              CubicForm.from_monomials({(0, 3): 1}))
    assert net.member((1, 0.2, 0.3)) is not None


def test_json_round_trip_and_schema_errors():
    f = node_family(0.1 + 0.2j, -0.3, 0.7j)
    d = f.to_json_dict()
    g = CubicForm.from_json_dict(json.loads(json.dumps(d)))
    assert np.allclose(f.coeffs, g.coeffs)
    # exactly ten entries required
    with pytest.raises(SchemaError):
        CubicForm.from_json_dict({"coeffs": d["coeffs"][:9]})
    # lexicographic order enforced
    bad = json.loads(json.dumps(d))
    bad["coeffs"][0], bad["coeffs"][1] = bad["coeffs"][1], bad["coeffs"][0]
    with pytest.raises(SchemaError):
        CubicForm.from_json_dict(bad)
    with pytest.raises(SchemaError):
        CubicForm.from_json_dict({})


def test_proj_distance_scale_invariance():
    rng = np.random.default_rng(15)
    p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.isclose(proj_distance(p, q),
                      proj_distance((2 - 3j) * p, 0.01j * q))
    assert proj_distance(p, (1 + 1j) * p) < 1e-12
    # rows of a 2-D second argument each get their distance
    Q = np.array([q, (1 + 1j) * p, p + q])
    assert np.array_equal(proj_distance(p, Q),
                          [proj_distance(p, r) for r in Q])
