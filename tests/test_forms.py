from __future__ import annotations

import json

import mpmath
import numpy as np
import pytest

from cubicflex import (CubicForm, ProjPoint, Pencil, Net, SchemaError,
                       DegenerateInputError, proj_distance,
                       fermat_cubic, triangle_cubic, node_family, cusp_family)
from cubicflex.forms import (DERIV, HESSIAN_TENSOR, HESSIAN_TERMS,
                             MONOMIAL_INDEX, MONOMIALS, MONOMIALS2, PAIR,
                             THIRD, TRIP, exact_hessian_coeffs, hessian_coeffs,
                             hessian_directional,
                             eval_coeffs, eval_gradient, substitute_linear,
                             third_partials)


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


def dense_hessian(a):
    """Reference: the full contraction of the 10^4-entry tensor."""
    return np.einsum('mabc,a,b,c->m', HESSIAN_TENSOR, a, a, a)


def dense_hessian_directional(a, b):
    return (np.einsum('mabc,a,b,c->m', HESSIAN_TENSOR, b, a, a)
            + np.einsum('mabc,a,b,c->m', HESSIAN_TENSOR, a, b, a)
            + np.einsum('mabc,a,b,c->m', HESSIAN_TENSOR, a, a, b))


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, 0.0 + 0.0j) + c1 * c2
    return out


def _poly_pow(p, n):
    out = {(0, 0, 0): 1.0 + 0.0j}
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def dict_substitute_linear(coeffs, M):
    """Reference: f(M z) by expanding each monomial as a dict polynomial."""
    M = np.asarray(M, dtype=complex)
    rows = [{(1, 0, 0): M[r, 0], (0, 1, 0): M[r, 1], (0, 0, 1): M[r, 2]}
            for r in range(3)]
    rows = [{e: c for e, c in row.items() if c != 0} for row in rows]
    acc = {}
    a = np.asarray(coeffs, dtype=complex)
    for n, (i, j) in enumerate(MONOMIALS):
        if a[n] == 0:
            continue
        k = 3 - i - j
        term = _poly_mul(_poly_mul(_poly_pow(rows[0], i),
                                   _poly_pow(rows[1], j)),
                         _poly_pow(rows[2], k))
        for e, c in term.items():
            acc[e] = acc.get(e, 0.0 + 0.0j) + a[n] * c
    out = np.zeros(10, dtype=complex)
    for (i, j, k), c in acc.items():
        out[MONOMIAL_INDEX[(i, j)]] = c
    return out


def rand_integer_vector(rng, shape):
    """Gaussian integers with small parts, as complex floats."""
    return (rng.integers(-9, 10, shape)
            + 1j * rng.integers(-9, 10, shape)).astype(complex)


def rel_err(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


def _sympy_monomial(zs, exps):
    return zs[0] ** exps[0] * zs[1] ** exps[1] * zs[2] ** exps[2]


@pytest.mark.parametrize("n", range(10))
def test_product_tables_against_sympy(n):
    """Column n of THIRD, DERIV and TRIP for z^e, the n-th cubic
    monomial, against sympy's derivatives and expansions."""
    import sympy as sp
    zs = sp.symbols('z1 z2 z3')
    i, j = MONOMIALS[n]
    F = _sympy_monomial(zs, (i, j, 3 - i - j))
    for u, v, w in np.ndindex(3, 3, 3):
        assert THIRD[u, v, w, n] == int(sp.diff(F, zs[u], zs[v], zs[w]))
        assert TRIP[u, v, w, n] == (sp.expand(zs[u] * zs[v] * zs[w]) == F)
    for v in range(3):
        dF = sp.diff(F, zs[v])
        for m, (a, b) in enumerate(MONOMIALS2):
            mono = _sympy_monomial(zs, (a, b, 2 - a - b))
            want = sp.Poly(dF, *zs).coeff_monomial(mono)
            assert DERIV[v, m, n] == int(want)


def test_pair_table_against_sympy():
    import sympy as sp
    zs = sp.symbols('z1 z2 z3')
    for u, v in np.ndindex(3, 3):
        for m, (a, b) in enumerate(MONOMIALS2):
            mono = _sympy_monomial(zs, (a, b, 2 - a - b))
            assert PAIR[u, v, m] == (sp.expand(zs[u] * zs[v]) == mono)


def test_sparse_hessian_table_has_102_terms():
    # a rebuilt tensor that went dense or lost terms would change this
    assert HESSIAN_TERMS.shape == (4, 102)
    assert np.count_nonzero(HESSIAN_TENSOR) == 102
    assert np.all(HESSIAN_TENSOR[tuple(HESSIAN_TERMS)] != 0)


def test_sparse_hessian_matches_dense_contraction():
    rng = np.random.default_rng(16)
    for _ in range(50):
        a = rand_integer_vector(rng, 10)
        b = rand_integer_vector(rng, 10)
        assert np.array_equal(hessian_coeffs(a), dense_hessian(a))
        assert np.array_equal(hessian_coeffs(a.real), dense_hessian(a.real))
        assert np.array_equal(hessian_directional(a, b),
                              dense_hessian_directional(a, b))
    for _ in range(50):
        a = rand_form(rng).coeffs
        b = rand_form(rng).coeffs
        assert rel_err(hessian_coeffs(a), dense_hessian(a)) <= 1e-13
        assert rel_err(hessian_directional(a, b),
                       dense_hessian_directional(a, b)) <= 1e-13


def test_substitute_linear_matches_dict_expansion():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rand_integer_vector(rng, 10)
        M = rand_integer_vector(rng, (3, 3))
        M[rng.integers(3), rng.integers(3)] = 0
        assert np.array_equal(substitute_linear(a, M),
                              dict_substitute_linear(a, M))
        assert np.array_equal(substitute_linear(a.real, M.real),
                              dict_substitute_linear(a.real, M.real))
    for _ in range(50):
        a = rand_form(rng).coeffs
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert rel_err(substitute_linear(a, M),
                       dict_substitute_linear(a, M)) <= 1e-13


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
    # a second partial of a cubic is linear, so by Euler's relation the
    # matrix of second partials at p is the third partials contracted
    # with p
    M = np.einsum('u,uvw->vw', p, third_partials(f.coeffs))
    assert np.allclose(np.linalg.det(M), eval_coeffs(hessian_coeffs(f.coeffs), p))
    assert np.allclose(M, M.T)
    # a stack of cubics gives the stack of the single-cubic partials
    g = rand_form(rng)
    assert np.allclose(third_partials([f.coeffs, g.coeffs]),
                       [third_partials(f.coeffs), third_partials(g.coeffs)])


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


def test_projpoint_pivot_ignores_last_bits():
    # (0, 1, -1) and the like tie for the largest modulus; rounding must
    # not decide which coordinate becomes 1
    rng = np.random.default_rng(3)
    w = np.exp(2j * np.pi / 3)
    for q in ([0, 1, -1], [1, -w, 0], [w, 0, -1], [1, 1, 1]):
        q = np.asarray(q, dtype=complex)
        for _ in range(20):
            bits = 1 + 4e-16 * (rng.standard_normal(3)
                                + 1j * rng.standard_normal(3))
            scale = rng.standard_normal() + 1j * rng.standard_normal()
            got = ProjPoint(scale * q * bits).coords
            assert np.allclose(got, ProjPoint(q).coords, atol=1e-14)
            assert abs(got[np.argmax(np.abs(q))] - 1) < 1e-15


def test_exact_hessian_is_correctly_rounded():
    # integer forms give integer Hessians either way
    for f in (fermat_cubic(), node_family(2, 3, 5), cusp_family(7)):
        assert np.array_equal(exact_hessian_coeffs(f.coeffs),
                              hessian_coeffs(f.coeffs))
    # on a nodal image the 102 terms cancel; 60-digit sums of the same
    # terms, rounded once, must agree to the last bit
    rng = np.random.default_rng(177)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = node_family(1, 1, 0).transform(M).normalize().coeffs
    m, i, j, k = HESSIAN_TERMS
    with mpmath.workdps(60):
        c = [mpmath.mpc(complex(x)) for x in a]
        ref = [complex(mpmath.fsum(HESSIAN_TENSOR[s, i[t], j[t], k[t]]
                                   * c[i[t]] * c[j[t]] * c[k[t]]
                                   for t in np.flatnonzero(m == s)))
               for s in range(10)]
    assert np.array_equal(exact_hessian_coeffs(a), ref)


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


def test_equality_and_hash_by_value():
    f = fermat_cubic()
    assert f == fermat_cubic() and hash(f) == hash(fermat_cubic())
    assert f != triangle_cubic() and f != f * 2.0 and f != "fermat"
    # -0.0 equals 0.0, so the two must hash alike
    signed = CubicForm(np.where(f.coeffs == 0, -0.0, f.coeffs))
    assert signed == f and hash(signed) == hash(f)
    p = ProjPoint([2.0, 4.0, -0.0])
    assert p == ProjPoint([1, 2, 0]) and hash(p) == hash(ProjPoint([1, 2, 0]))
    assert p != ProjPoint([1, 2, 1e-9])
    pencil = Pencil(fermat_cubic(), triangle_cubic())
    assert pencil == Pencil(fermat_cubic(), triangle_cubic())
    assert pencil != Pencil(triangle_cubic(), fermat_cubic())
    net = Net(f, triangle_cubic(), cusp_family(0))
    assert net == Net(f, triangle_cubic(), cusp_family(0))
    assert len({pencil, Pencil(fermat_cubic(), triangle_cubic()), net,
                Net(f, triangle_cubic(), cusp_family(0))}) == 2


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


def test_proj_distance_minors_and_pairs():
    rng = np.random.default_rng(16)
    for n in (2, 3, 10):
        p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        Q = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        Q[1] = (1 + 1e-9) * p
        # the 2x2 minors written out, as before their index pairs were
        # kept per length
        i, j = np.triu_indices(n, k=1)
        wedge = p[i] * Q[:, j] - p[j] * Q[:, i]
        want = np.minimum(1.0, np.linalg.norm(wedge, axis=1)
                          / (np.linalg.norm(p) * np.linalg.norm(Q, axis=1)))
        assert np.array_equal(proj_distance(p, Q), want)
        # a 2-D first argument gives every pair of rows
        D = proj_distance(Q[:3], Q)
        assert D.shape == (3, 4)
        assert np.allclose(D, [proj_distance(r, Q) for r in Q[:3]],
                           rtol=1e-14, atol=0)
