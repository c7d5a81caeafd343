"""The benchmark's oracles against sympy on a few fixed cubics.

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402

Z = sp.symbols("z1 z2 z3")

# ten coefficients each, over z1^i z2^j z3^(3-i-j) with (i, j) lexicographic
CUBICS = {
    "fermat": [1, 0, 0, 1, 0, 0, 0, 0, 0, 1],
    "nodal": [0, 0, 0, 1, 0, 1, 0, 0, 0, 1],        # z1 z2 z3 + z1^3 + z2^3
    "cusp": [0, 0, 1, 0, 0, 0, 0, 0, 0, 1],         # z2^2 z3 + z1^3
    "mixed": [2, -1, 3, 1 + 2j, -2, 5, 1j, 4, -3, 1],
}
POINTS = [(1, 2, 3), (0.5 - 1j, 2j, 1), (1, 0, 0), (-1.5, 0.25, 2 - 1j)]


def sympy_form(coeffs):
    return sum(c * Z[0] ** i * Z[1] ** j * Z[2] ** (3 - i - j)
               for c, (i, j, _) in zip(coeffs, oracle.EXPONENTS))


def at(expr, point):
    return complex(expr.subs(dict(zip(Z, point))).evalf())


@pytest.mark.parametrize("name", CUBICS)
@pytest.mark.parametrize("point", POINTS)
def test_value_gradient_second_partials(name, point):
    c = np.array(CUBICS[name], dtype=complex)
    F = sympy_form(CUBICS[name])
    assert oracle.value(c, point) == pytest.approx(at(F, point), rel=1e-12)
    grad = [at(sp.diff(F, v), point) for v in Z]
    np.testing.assert_allclose(oracle.gradient(c, point), grad, rtol=1e-12)
    hess = sp.hessian(F, Z)
    want = [[at(hess[u, v], point) for v in range(3)] for u in range(3)]
    np.testing.assert_allclose(oracle.second_partials(c, point), want,
                               rtol=1e-12, atol=1e-12)
    assert oracle.hessian(c, point) == pytest.approx(
        at(hess.det(), point), rel=1e-10, abs=1e-9)


def test_fermat_table_is_the_flex_set():
    c = np.array(CUBICS["fermat"], dtype=complex)
    pts = oracle.fermat_flexes()
    assert not oracle.check_flexes(c, "smooth", pts, [1] * 9)
    # a point of the curve that is not a flex is rejected
    off = np.array([1, 1, -2 ** (1 / 3)], dtype=complex)
    assert oracle.check_flexes(c, "smooth", [off, *pts[1:]], [1] * 9)


def test_fermat_image_lands_on_pulled_back_table():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = sp.Matrix(M.tolist()) * sp.Matrix(Z)
    G = sp.Poly(sp.expand(sympy_form(CUBICS["fermat"]).subs(
        dict(zip(Z, x)), simultaneous=True)), *Z)
    g = np.array([complex(G.coeff_monomial(Z[0] ** i * Z[1] ** j * Z[2] ** k))
                  for i, j, k in oracle.EXPONENTS])
    expected = oracle.fermat_flexes() @ np.linalg.inv(M).T
    assert not oracle.check_flexes(g, "fermat", expected, [1] * 9, expected)


def test_singular_signatures_and_nodes():
    e3 = np.array([0, 0, 1], dtype=complex)
    nodal = np.array(CUBICS["nodal"], dtype=complex)
    # z1^3 + z2^3 + z1 z2 z3: node at e3, flexes on z3 = 0 and the cusp
    # of the Hessian; the full check needs all of them, so test the parts
    assert not oracle.check_node(nodal, e3)
    cusp = np.array(CUBICS["cusp"], dtype=complex)
    assert oracle.check_node(cusp, e3)            # rank 1: not a node
    flex = np.array([0, 1, 0], dtype=complex)     # z2^2 z3 + z1^3 at [0:1:0]
    assert not oracle.check_flexes(cusp, "cusp", [e3, flex], [8, 1], e3)
    assert oracle.check_flexes(cusp, "cusp", [e3, flex], [6, 1], e3)


def test_permutations():
    hesse = oracle.group_closure([oracle.G0, oracle.G1])
    assert len(hesse) == 216
    assert {oracle.G2, oracle.G3, oracle.G4} <= hesse
    assert oracle.cycle_type(oracle.G2) == (3, 3, 1, 1, 1)
    p = oracle.from_cycles([(1, 2)])
    q = oracle.from_cycles([(2, 3)])
    assert oracle.compose(p, q) == oracle.from_cycles([(1, 3, 2)])
    assert oracle.compose(p, oracle.inverse(p)) == oracle.IDENTITY
