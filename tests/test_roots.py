from __future__ import annotations

import numpy as np
import pytest

from cubicflex import (CommonComponentError, DegenerateInputError,
                       RootFindingError)
from cubicflex.forms import cusp_family, fermat_cubic, triangle_cubic
from cubicflex.roots import (UniPoly, all_roots, resultant_on_chart, trim,
                             cubic_in_variable)

# resultant_on_chart eliminates z3 on the line (z1, z2) = (1, t).  The
# pullback f(P z) by a permutation matrix P eliminates another variable:
#   rows e3, e1, e2: f(P z) at (1, t, w) is f(w, 1, t), z1 over (z2, z3) = (1, t)
#   rows e3, e2, e1: f(w, t, 1), z1 over (z2, z3) = (t, 1)
#   rows e1, e3, e2: f(1, w, t), z2 over (z1, z3) = (1, t)
Z1_OVER_Z2_Z3 = np.eye(3)[[2, 0, 1]]
Z1_OVER_Z3_Z2 = np.eye(3)[[2, 1, 0]]
Z2_OVER_Z1_Z3 = np.eye(3)[[0, 2, 1]]


def test_trim_drops_tiny_leading_coefficients():
    c = trim(np.array([1.0, 2.0, 1e-16, 1e-15]))
    assert len(c) == 2


def test_roots_of_unity_all_simple():
    c = np.zeros(10, dtype=complex)
    c[0], c[9] = -1.0, 1.0
    rs = all_roots(c)
    assert rs.total_multiplicity() == 9
    assert sorted(rs.multiplicities) == [1] * 9
    assert rs.residuals.max() < 1e-12
    expected = np.exp(2j * np.pi * np.arange(9) / 9)
    for r in rs.roots:
        assert np.min(np.abs(expected - r)) < 1e-10


def test_triple_root_merges_into_cluster():
    # (z - 2)^3 expanded
    rs = all_roots(np.array([-8.0, 12.0, -6.0, 1.0]))
    assert sorted(rs.multiplicities) == [3]
    assert abs(rs.roots[0] - 2.0) < 1e-4


def test_random_polynomials_match_numpy_roots_oracle():
    rng = np.random.default_rng(42)
    for deg in (3, 5, 9, 12):
        for _ in range(5):
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            rs = all_roots(c)
            assert rs.total_multiplicity() == deg
            ours = np.sort_complex(rs.roots)
            oracle = np.sort_complex(np.roots(c[::-1]))
            assert np.abs(ours - oracle).max() < 1e-8


def test_degree_conservation_with_multiplicity():
    # z^2 (z - 1) (z - 3j)^2
    p = np.polynomial.polynomial.polyfromroots([0, 0, 1.0, 3j, 3j])
    rs = all_roots(p)
    assert rs.total_multiplicity() == 5
    assert sorted(rs.multiplicities) == [1, 2, 2]


def test_zero_polynomial_rejected():
    with pytest.raises(DegenerateInputError):
        all_roots(np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(RootFindingError, match="not finite"):
        all_roots(np.array([1, bad, 1]))


def test_unipoly_degree_and_derivative():
    p = UniPoly(np.array([1.0, 0.0, 3.0]))
    assert p.degree == 2
    assert np.allclose(p.derivative().coeffs, [0.0, 6.0])
    assert np.isclose(p(2.0 + 0j), 13.0)


def test_polynomials_and_root_sets_compare_by_value():
    p = UniPoly([1, -3, 2])
    assert p == UniPoly([1.0, -3.0, 2.0])
    assert p != UniPoly([1, -3]) and p != UniPoly([1, -3, 3]) and p != "p"
    rs = all_roots(p)
    assert rs == all_roots(UniPoly([1, -3, 2]))
    assert rs != all_roots(UniPoly([1, -4, 2]))


def test_fermat_triangle_resultant_closed_form():
    # eliminating z3 on the line (z1, z2) = (1, t), the resultant of the
    # Fermat cubic and z1 z2 z3 is proportional to t^3 (1 + t^3):
    # the three inflection points on z2 = 0 project to t = 0 and the three
    # vertices on z3 = 0 project to the cube roots of -1.
    R = resultant_on_chart(fermat_cubic(), triangle_cubic())
    expected = np.zeros(7, dtype=complex)
    expected[3], expected[6] = 1.0, 1.0
    assert np.allclose(R.coeffs / R.coeffs[-1], expected)
    rs = all_roots(R)
    assert sorted(rs.multiplicities) == [1, 1, 1, 3]


def test_cuspidal_resultant_multiplicity_structure():
    # the inflection system of the cuspidal cubic z1^3 + z2^2 z3:
    # eliminating z1 over (z2, z3) = (t, 1) all intersection multiplicity
    # sits in an exact multiplicity-8 cluster at the cusp projection;
    # over (z2, z3) = (1, t) the remaining simple inflection point shows.
    g = cusp_family(0.0)
    h = g.hessian_form()
    rs = all_roots(resultant_on_chart(g.transform(Z1_OVER_Z3_Z2),
                                      h.transform(Z1_OVER_Z3_Z2)))
    assert sorted(rs.multiplicities) == [8]
    assert abs(rs.roots[0]) < 1e-6
    rs2 = all_roots(resultant_on_chart(g.transform(Z1_OVER_Z2_Z3),
                                       h.transform(Z1_OVER_Z2_Z3)))
    assert sorted(rs2.multiplicities) == [1]


def test_identical_curves_raise_common_component():
    f = fermat_cubic()
    with pytest.raises(CommonComponentError):
        resultant_on_chart(f, f * (2.0 + 1.0j))
    # the triangle's hessian is the triangle again
    t = triangle_cubic()
    with pytest.raises(CommonComponentError):
        resultant_on_chart(t.transform(Z2_OVER_Z1_Z3),
                           t.hessian_form().transform(Z2_OVER_Z1_Z3))


def test_resultant_degree_nine_for_generic_pair():
    rng = np.random.default_rng(5)
    for _ in range(5):
        from cubicflex import CubicForm
        f = CubicForm(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        g = CubicForm(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        assert resultant_on_chart(f, g).degree == 9


def test_resultant_matches_sympy_oracle():
    import sympy as sp
    rng = np.random.default_rng(6)
    from cubicflex import CubicForm
    from cubicflex.forms import MONOMIALS
    f = CubicForm(np.round(3 * rng.standard_normal(10)))
    g = CubicForm(np.round(3 * rng.standard_normal(10)))
    z3, t = sp.symbols('x t')
    subs = {0: 1, 1: t}

    def poly_of(c):
        expr = 0
        for n, (i, j) in enumerate(MONOMIALS):
            expr += sp.Rational(int(c[n].real)) * 1**i * t**j * z3**(3 - i - j)
        return sp.Poly(expr, z3)

    R_oracle = sp.resultant(poly_of(f.coeffs).as_expr(),
                            poly_of(g.coeffs).as_expr(), z3)
    R_ours = resultant_on_chart(f, g)
    oracle_coeffs = np.array(
        [complex(sp.Poly(R_oracle, t).coeff_monomial(t**k))
         for k in range(R_ours.degree + 1)])
    ratio = R_ours.coeffs[-1] / oracle_coeffs[-1]
    assert np.allclose(R_ours.coeffs, ratio * oracle_coeffs, rtol=1e-10)
    assert np.isclose(abs(ratio), 1.0)  # same normalization up to sign


def test_cubic_in_variable_restriction():
    f = fermat_cubic()
    # eliminate z1 over (z2, z3) = (1, t): f = z1^3 + 1 + t^3
    c = cubic_in_variable(f.transform(Z1_OVER_Z2_Z3).coeffs)
    assert np.allclose(c[3], [1.0])
    assert np.allclose(c[0], [1.0, 0.0, 0.0, 1.0])
    assert len(c[1]) == 0 and len(c[2]) == 0
