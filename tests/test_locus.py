"""Tests for inflection and singular point extraction.

Expected point tables are frozen here from closed-form solutions so the
numerical pipeline is checked against independent data, not against
itself.
"""

import mpmath
import numpy as np
import pytest
import sympy

from cubicflex import locus
from cubicflex.errors import (CommonComponentError, MatchingError,
                              NumericalError)
from cubicflex.forms import (EXP3, MONOMIALS, THIRD, CubicForm, ProjPoint,
                             cusp_family, eval_gradient, fermat_cubic,
                             hesse_pencil, node_family, proj_distance,
                             third_partials, triangle_cubic)
from cubicflex.locus import (InflectionSet, SingularSet, hesse_base_points,
                             inflection_points, label_against,
                             nearest_labels, singular_points, singular_sets)
from cubicflex.roots import cubic_in_variable
from cubicflex.strata import StratumLabel, classify
from cubicflex.verify import CLASSIFY_CORPUS

W = np.exp(2j * np.pi / 3)

# the nine common inflection points of the Fermat/triangle pencil,
# solved by hand from z1^3 + z2^3 + z3^3 = 0 = z1 z2 z3
BASE_POINTS = [
    (0, 1, -1), (1, 0, -1), (1, -1, 0),
    (0, 1, -W), (1, 0, -W * W), (1, -W, 0),
    (0, 1, -W * W), (1, 0, -W), (1, -W * W, 0),
]


def from_mono(d):
    return CubicForm.from_monomials(d)


def match_sets(got_points, expected_rows, tol=1e-8):
    """Each expected point appears exactly once among the computed ones."""
    exp = [np.asarray(r, dtype=complex) for r in expected_rows]
    assert len(got_points) == len(exp)
    used = set()
    for e in exp:
        d = [proj_distance(g.coords, e) for g in got_points]
        j = int(np.argmin(d))
        assert d[j] < tol, f"expected point {e} missing (nearest {d[j]:.2e})"
        assert j not in used
        used.add(j)


class TestSmoothCubics:
    def test_fermat_against_frozen_table(self):
        fl = inflection_points(fermat_cubic())
        assert fl.multiplicity_signature() == (1,) * 9
        match_sets([p.point for p in fl.points], BASE_POINTS, tol=1e-8)

    def test_hesse_member_shares_base_points(self):
        member = hesse_pencil().member((1.0, 0.3 - 0.2j))
        fl = inflection_points(member)
        match_sets([p.point for p in fl.points], BASE_POINTS, tol=1e-8)

    def test_transformed_fermat_exact_pushforward(self):
        # inflection points of f(Mz) are M^{-1} times those of f
        M = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 3.0]])
        Minv = np.linalg.inv(M)
        fl = inflection_points(fermat_cubic().transform(M))
        expected = [Minv @ np.asarray(q, dtype=complex) for q in BASE_POINTS]
        match_sets([p.point for p in fl.points], expected, tol=1e-8)

    def test_cusp_family_smooth_member_closed_form(self):
        tau = 0.3
        fl = inflection_points(cusp_family(tau))
        s = 1j * np.sqrt(tau)
        r = (-4.0 * tau + 0j) ** (1.0 / 3.0)
        expected = [(0, 1, 0), (0, s, 1), (0, -s, 1)]
        for sign in (1, -1):
            for k in range(3):
                expected.append((r * W ** k, sign * np.sqrt(3 * tau), 1))
        match_sets([p.point for p in fl.points], expected, tol=1e-8)

    def test_random_smooth_all_simple(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            fl = inflection_points(CubicForm(c))
            assert fl.multiplicity_signature() == (1,) * 9
            pts = [p.point for p in fl.points]
            for i in range(9):
                for j in range(i + 1, 9):
                    assert proj_distance(pts[i].coords, pts[j].coords) > 1e-6

    def test_projective_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            f = CubicForm(c)
            M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            fl = inflection_points(f)
            flM = inflection_points(f.transform(M))
            expected = [np.linalg.solve(M, p.point.coords)
                        for p in fl.points]
            match_sets([p.point for p in flM.points], expected, tol=1e-7)


class TestSingularCubics:
    def test_nodal_signature_and_node_location(self):
        fl = inflection_points(node_family(1.0, 1.0, 0.0))
        assert fl.multiplicity_signature() == (6, 1, 1, 1)
        six = [p for p in fl.points if p.multiplicity == 6]
        assert proj_distance(six[0].point.coords,
                             np.array([0, 0, 1], dtype=complex)) < 1e-9

    def test_cuspidal_signature_and_exact_points(self):
        fl = inflection_points(cusp_family(0.0))
        assert fl.multiplicity_signature() == (8, 1)
        eight = [p for p in fl.points if p.multiplicity == 8][0]
        one = [p for p in fl.points if p.multiplicity == 1][0]
        assert proj_distance(eight.point.coords,
                             np.array([0, 0, 1], dtype=complex)) < 1e-9
        assert proj_distance(one.point.coords,
                             np.array([0, 1, 0], dtype=complex)) < 1e-9

    def test_nodal_transformed_keeps_signature(self):
        M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        fl = inflection_points(node_family(1.0, 1.0, 0.0).transform(M))
        assert fl.multiplicity_signature() == (6, 1, 1, 1)

    def test_rank_deficient_pullback_is_degenerate(self):
        # f(Mz) with singular M is a cone of concurrent lines; its
        # hessian vanishes identically up to rounding noise
        M = np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        assert abs(np.linalg.det(M)) < 1e-12
        with pytest.raises(CommonComponentError):
            inflection_points(fermat_cubic().transform(M))

    def test_line_components_raise_common_component(self):
        line_cubics = {
            "triangle": triangle_cubic(),
            "conic+line": from_mono({(2, 0): 1, (0, 2): 1, (0, 0): -1}),
            "conic+tangent": from_mono({(0, 2): 1, (1, 0): -1}),
            "concurrent": from_mono({(2, 1): 1, (1, 2): 1}),
            "double line": from_mono({(2, 1): 1}),
            "triple line": from_mono({(3, 0): 1}),
        }
        for name, f in line_cubics.items():
            with pytest.raises(CommonComponentError):
                inflection_points(f)


class TestSingularPoints:
    def test_singular_line_compares_and_hashes_by_value(self):
        f = from_mono({(2, 1): 1})          # singular along z1 = 0
        s = singular_points(f)
        assert s.singular_line is not None
        assert s == singular_points(f)
        assert hash(s) == hash(singular_points(f))
        assert s != singular_points(from_mono({(1, 2): 1}))
        assert s != SingularSet(s.points)    # an array never equals None
        assert SingularSet(()) == SingularSet(()) != s

    def test_smooth_has_none(self):
        assert singular_points(fermat_cubic()).is_empty()
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = CubicForm(rng.standard_normal(10)
                          + 1j * rng.standard_normal(10))
            assert singular_points(f).is_empty()
        # near a cusp two polar intersections still collapse, so the point
        # is pinned as a cusp, which the smooth cubic has not; pinned as a
        # node it passed the strict gate
        for eps, k, real in [(1e-11, 39, False), (1e-9, 7, True),
                             (1e-10, 117, True)]:
            f = perturbed(cusp_family(0.0), eps, k, real)
            assert singular_points(f).is_empty()
            assert classify(f)[0] is StratumLabel.SMOOTH

    def test_local_types_by_stratum(self):
        cases = [
            (node_family(1.0, 1.0, 0.0), ('node',)),
            (from_mono({(2, 0): 1, (0, 2): 1, (0, 0): -1}),
             ('node', 'node')),                      # conic + secant line
            (from_mono({(2, 1): 1, (1, 2): 1, (1, 1): 1}),
             ('node', 'node', 'node')),              # three general lines
            (cusp_family(0.0), ('cusp',)),
            (from_mono({(0, 2): 1, (1, 0): -1}), ('tacnode',)),
            (from_mono({(2, 1): 1, (1, 2): 1}), ('triple',)),
        ]
        for f, expected in cases:
            assert singular_points(f).local_types() == expected

    def test_local_types_stable_under_transform(self):
        M = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 3.0]])
        for f, expected in [
            (cusp_family(0.0), ('cusp',)),
            (from_mono({(0, 2): 1, (1, 0): -1}), ('tacnode',)),
            (from_mono({(2, 1): 1, (1, 2): 1}), ('triple',)),
        ]:
            assert singular_points(f.transform(M)).local_types() == expected

    def test_concurrent_lines_vertex_location(self):
        M = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 3.0]])
        s = singular_points(from_mono({(2, 1): 1, (1, 2): 1}).transform(M))
        expected = np.linalg.solve(M, np.array([0, 0, 1], dtype=complex))
        assert proj_distance(s.points[0].point.coords, expected) < 1e-9

    def test_repeated_line_detected(self):
        for d in ({(2, 1): 1}, {(3, 0): 1}):
            s = singular_points(from_mono(d))
            assert s.singular_line is not None
            # the line z1 = 0 in both cases
            line = s.singular_line / s.singular_line[0]
            assert np.allclose(line, [1, 0, 0], atol=1e-9)

    def test_singular_point_lies_on_inflection_set(self):
        fl = inflection_points(node_family(1.0, 1.0, 0.0))
        sp = singular_points(node_family(1.0, 1.0, 0.0)).points[0]
        d = min(proj_distance(sp.point.coords, p.point.coords)
               for p in fl.points)
        assert d < 1e-9


def images(f, exact):
    """(image of f, exact singular point of the image) under the identity
    and the PGL(3) matrices of default_rng(0), (1), (2); f(M z) is singular
    at M^-1 p."""
    out = [(f, np.asarray(exact, dtype=complex))]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out.append((f.transform(M),
                    np.linalg.solve(M, np.asarray(exact, dtype=complex))))
    return out


class TestSingularPointAccuracy:
    """Singular points against their exact positions.  The conic
    intersection gives nodes at once; a cusp or tacnode is pinned on a
    deflated system, where Newton on the gradient alone stalls near
    1e-8 and 5e-6."""

    @pytest.mark.parametrize("f,exact,kind", [
        (node_family(1.0, 1.0, 0.0), (0, 0, 1), 'node'),
        (cusp_family(0.0), (0, 0, 1), 'cusp'),
        (from_mono({(1, 0): 1, (0, 2): -1}), (1, 0, 0), 'tacnode'),
    ], ids=["node", "cusp", "tacnode"])
    def test_within_1e12_of_exact_point(self, f, exact, kind):
        for g, p in images(f, exact):
            s = singular_points(g)
            assert s.local_types() == (kind,)
            assert proj_distance(s.points[0].point.coords, p) < 1e-12

    @pytest.mark.parametrize("key", [10345, 10796, 10938])
    def test_tacnode_from_a_triple_root(self, key):
        # found by a search over 2000 images: the line pair through a
        # tacnode sits at a triple root of det(Q1 + t Q2), which comes
        # back as a cluster of spread ~eps^(1/3); a member taken at one
        # root of the cluster, not its mean, puts the vertex off by up to
        # 1e-3, enough to misname the point or report it three times
        rng = np.random.default_rng(key)
        M = rng.uniform(-2, 2, (3, 3)) + 1j * rng.uniform(-2, 2, (3, 3))
        f = from_mono({(1, 0): 1, (0, 2): -1}).transform(M).normalize()
        s = singular_points(f)
        assert s.local_types() == ('tacnode',)
        p = np.linalg.solve(M, np.array([1, 0, 0], dtype=complex))
        assert proj_distance(s.points[0].point.coords, p) < 1e-12

    def test_several_nodes_exact(self):
        # three general lines z1 z2 (z1 + z2 + z3), and the conic
        # z1^2 + z2^2 = z3^2 with the secant line z3 = 0
        for f, exact in [
            (from_mono({(2, 1): 1, (1, 2): 1, (1, 1): 1}),
             [(0, 0, 1), (0, 1, -1), (1, 0, -1)]),
            (from_mono({(2, 0): 1, (0, 2): 1, (0, 0): -1}),
             [(1, 1j, 0), (1, -1j, 0)]),
        ]:
            pts = singular_points(f).points
            assert all(sp.local_type == 'node' for sp in pts)
            match_sets([sp.point for sp in pts], exact, tol=1e-12)

    def test_frame_with_weights_at_a_singular_point(self):
        # a weight vector at a singular point makes its conic the tangent
        # cone there, a line pair, and the next frame takes over
        (w1, w2), (v1, _) = locus._CONIC_FRAMES
        rng = np.random.default_rng(0)
        for w in (w1, w2):
            M = np.linalg.inv(np.column_stack(
                [rng.standard_normal(3), rng.standard_normal(3), w]))
            s = singular_points(node_family(1.0, 1.0, 0.0).transform(M))
            assert s.local_types() == ('node',)
            assert proj_distance(s.points[0].point.coords, w) < 1e-12
        # three lines with nodes at a weight point of each frame
        r = rng.standard_normal((2, 3))
        M = np.array([np.cross(w1, v1), np.cross(w1, r[0]),
                      np.cross(v1, r[1])])
        with pytest.raises(NumericalError, match="usable line pair"):
            singular_points(triangle_cubic().transform(M))

    def test_frame_without_line_pair(self, monkeypatch):
        # equal weights make Q1 = Q2, a pencil with no line pair in it
        good = locus._CONIC_FRAMES[0]
        bad = np.array([good[0], good[0]])
        monkeypatch.setattr(locus, "_CONIC_FRAMES", (bad, good))
        s = singular_points(cusp_family(0.0))
        assert s.local_types() == ('cusp',)
        assert proj_distance(s.points[0].point.coords, [0, 0, 1]) < 1e-12
        monkeypatch.setattr(locus, "_CONIC_FRAMES", (bad, bad))
        with pytest.raises(NumericalError, match="usable line pair"):
            singular_points(cusp_family(0.0))


def gaussian_image(f, key):
    """f(M z) and M, for M = standard_normal((3,3)) + 1j*standard_normal((3,3))
    from default_rng(key)."""
    rng = np.random.default_rng(key)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return f.transform(M), M


def perturbed(base, eps, k, real=False):
    """base + eps g, with g = standard_normal(10) + 1j*standard_normal(10)
    from default_rng(k), or (1 + 1j) standard_normal(10) when real."""
    rng = np.random.default_rng(k)
    g = ((1 + 1j) * rng.standard_normal(10) if real
         else rng.standard_normal(10) + 1j * rng.standard_normal(10))
    return CubicForm(base.coeffs + eps * g)


def mp_flex(coeffs, z, digits=40):
    """The solution of {F, H} = 0 at `digits` digits, by Newton from z
    with the largest coordinate of z held at 1; the Hessian is the
    determinant of the second partials, from the exact third partials."""
    with mpmath.workdps(digits):
        c = [mpmath.mpc(complex(a)) for a in coeffs]
        T = [[[mpmath.fsum(t * a for t, a in zip(THIRD[u, v, w], c))
               for w in range(3)] for v in range(3)] for u in range(3)]
        k = int(np.argmax(np.abs(z)))
        free = [v for v in range(3) if v != k]

        def point(x, y):
            p = [mpmath.mpf(1)] * 3
            p[free[0]], p[free[1]] = x, y
            return p

        def F(x, y):
            p = point(x, y)
            return mpmath.fsum(a * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]
                               for a, e in zip(c, EXP3))

        def H(x, y):
            p = point(x, y)
            return mpmath.det(mpmath.matrix(
                [[mpmath.fsum(T[u][v][w] * p[w] for w in range(3))
                  for v in range(3)] for u in range(3)]))

        z = np.asarray(z) / z[k]
        x, y = mpmath.findroot([F, H], (mpmath.mpc(z[free[0]]),
                                        mpmath.mpc(z[free[1]])))
        return np.array([complex(v) for v in point(x, y)])


class TestFixedFrame:
    """One resultant in a fixed generic frame, with the known multiplicity
    of the single node or cusp divided out of it."""

    @pytest.mark.parametrize("key", [39, 52, 131, 134])
    def test_cuspidal_images(self, key):
        # the 8-fold root of the resultant comes back spread by about
        # eps^(1/8); on these images clustering the roots cannot tell the
        # cusp's share from the simple flex
        f, M = gaussian_image(cusp_family(0.0), key)
        fl = inflection_points(f)
        assert fl.multiplicity_signature() == (8, 1)
        assert proj_distance(fl.points[0].point.coords,
                             np.linalg.solve(M, [0, 0, 1])) < 1e-12

    @pytest.mark.parametrize("eps", [1e-5, 1e-9])
    @pytest.mark.parametrize("base,count", [
        (node_family(1.0, 1.0, 0.0), 6), (cusp_family(0.0), 8)],
        ids=["node", "cusp"])
    def test_flexes_collapse_onto_the_singular_point(self, base, count, eps):
        # f + eps g is smooth for small eps, and its nine simple flexes
        # converge as eps -> 0: 6 onto a node and 8 onto a cusp, the
        # multiplicities of the singular cubic (a Cauchy endgame view).
        # At 1e-9 the resultant's roots near the singular point are too
        # clustered to give one start per flex
        for seed in range(3):
            fl = inflection_points(perturbed(base, eps, seed))
            assert fl.multiplicity_signature() == (1,) * 9
            near = proj_distance([0, 0, 1],
                                 [ip.point.coords for ip in fl.points]) < 0.2
            assert near.sum() == count

    @pytest.mark.parametrize("kind,eps,k,real", [
        *[("cusp", 1e-11, k, False) for k in (*range(6), *range(100, 110))],
        ("cusp", 1e-8, 7, True),
        *[("cusp", eps, k, False)
          for eps, k in ((1e-10, 12), (1e-11, 12), (1e-11, 39), (1e-11, 70))],
        *[("cusp", eps, k, True) for eps, k in (
            (1e-8, 117), (1e-9, 117), (1e-10, 117), (1e-9, 7), (1e-10, 7))],
        *[("node", 1e-10, k, False) for k in (59, 137, 150)]])
    def test_nine_flexes_close_to_the_singular_point(self, kind, eps, k,
                                                     real):
        # the crowded flexes lie as little as 4e-6 apart, and the starts
        # from the resultant's clustered roots are off by more than that;
        # one Newton solve on the cubic itself still reaches each of them
        base, count = {"cusp": (cusp_family(0.0), 8),
                       "node": (node_family(1.0, 1.0, 0.0), 6)}[kind]
        fl = inflection_points(perturbed(base, eps, k, real))
        assert fl.multiplicity_signature() == (1,) * 9
        near = proj_distance([0, 0, 1],
                             [ip.point.coords for ip in fl.points]) < 0.2
        assert near.sum() == count

    def test_near_cusp_flexes_against_an_80_digit_resultant(self):
        # the exact resultant in w3 of g = f(P w) and its Hessian on the
        # line (1, t, w3), for a fixed rational frame P; its roots, and the
        # common point of g and the Hessian on each line, at 80 digits
        f = perturbed(cusp_family(0.0), 1e-11, 0)
        P = [[1, 2, -1], [3, -1, 2], [1, 1, 3]]
        z = sympy.symbols("z1 z2 z3")
        t = sympy.Symbol("t")
        w = sympy.Matrix(P) * sympy.Matrix(z)
        g = sympy.expand(sum(
            (sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag))
            * w[0] ** i * w[1] ** j * w[2] ** (3 - i - j)
            for c, (i, j) in zip(f.coeffs, MONOMIALS)))
        h = sympy.expand(sympy.hessian(g, z).det(method="berkowitz"))
        line = {z[0]: 1, z[1]: t}
        R = sympy.Poly(sympy.resultant(g.subs(line), h.subs(line), z[2]), t)
        assert R.degree() == 9
        g_on = [sympy.lambdify(t, c, "mpmath")
                for c in sympy.Poly(g.subs(line), z[2]).all_coeffs()]
        h_on = sympy.lambdify((t, z[2]), h.subs(line), "mpmath")
        got = [ip.point.coords for ip in inflection_points(f).points]
        with mpmath.workdps(80):
            for r in mpmath.polyroots(
                    [mpmath.mpc(sympy.re(c).evalf(90), sympy.im(c).evalf(90))
                     for c in R.all_coeffs()], maxsteps=500, extraprec=400):
                w3 = min(mpmath.polyroots([c(r) for c in g_on], maxsteps=200,
                                          extraprec=200),
                         key=lambda x: abs(h_on(r, x)))
                ref = [complex(a + b * r + c * w3) for a, b, c in P]
                assert proj_distance(ref, got).min() < 1e-15

    @pytest.mark.parametrize("base,key", [
        (node_family(1.0, 1.0, 0.0), 177), (fermat_cubic(), 151)],
        ids=["nodal-177", "fermat-151"])
    def test_simple_flexes_against_mpmath(self, base, key):
        f, _ = gaussian_image(base, key)
        simple = [ip for ip in inflection_points(f).points
                  if ip.multiplicity == 1]
        for ip in simple:
            z = ip.point.coords
            assert proj_distance(z, mp_flex(f.coeffs, z)) < 1e-12

    def test_line_candidates_match_numpy_roots(self):
        # without a z1^3 term the line t = 0 meets g at z3 = 0, a zero
        # constant coefficient that np.roots strips before its companion
        # matrix; the 3x3 companion eigenvalues give the same points
        rng = np.random.default_rng(5)
        g = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        g[MONOMIALS.index((3, 0))] = 0.0
        ts = np.array([0.0, 0.5 + 1.0j, -2.0])
        got = locus._line_candidates(g, ts).reshape(-1, 3, 3)
        for t, pts in zip(ts, got):
            vals = [c @ t ** np.arange(len(c)) for c in cubic_in_variable(g)]
            want = np.sort_complex(np.roots(vals[::-1]))
            assert np.abs(np.sort_complex(pts[:, 2]) - want).max() < 1e-14
            assert np.array_equal(pts[:, :2], np.tile([1.0, t], (3, 1)))
        assert 0.0 in got[0, :, 2]

    @pytest.mark.parametrize("key", [20223, 22389])
    def test_badly_conditioned_nodal_images(self, key):
        # cond 535 and 178: the rank cut of the local type names the node
        # a cusp, and the cusp pin finds no point; the node pin does
        f, M = gaussian_image(node_family(1.0, 1.0, 0.0), key)
        assert classify(f)[0] is StratumLabel.B1
        s = singular_points(f)
        assert s.local_types() == ('node',)
        assert proj_distance(s.points[0].point.coords,
                             np.linalg.solve(M, [0, 0, 1])) < 1e-12
        assert inflection_points(f).multiplicity_signature() == (6, 1, 1, 1)


class TestLabelling:
    def test_fermat_labels_bijectively(self):
        fl = inflection_points(fermat_cubic())
        lab = label_against(fl, hesse_base_points())
        assert sorted(lab.labels()) == list(range(1, 10))
        table = {ip.label: ip.point for ip in lab.points}
        for k, q in enumerate(hesse_base_points(), start=1):
            assert proj_distance(table[k].coords, q.coords) < 1e-8

    def test_label_against_labelled_reference(self):
        fl = label_against(inflection_points(fermat_cubic()),
                           hesse_base_points())
        again = label_against(inflection_points(fermat_cubic()), fl)
        assert again.labels() == fl.labels()

    def test_cardinality_mismatch(self):
        fl = inflection_points(fermat_cubic())
        with pytest.raises(MatchingError, match="cardinality"):
            label_against(fl, hesse_base_points()[:5])

    def test_out_of_radius_rejected(self):
        fl = inflection_points(fermat_cubic())
        rng = np.random.default_rng(3)
        refs = [ProjPoint(np.asarray(q, dtype=complex)
                          + 0.01 * rng.standard_normal(3))
                for q in BASE_POINTS]
        with pytest.raises(MatchingError, match="beyond the matching radius"):
            nearest_labels([ip.point.coords for ip in fl.points],
                           [q.coords for q in refs], list(range(1, 10)),
                           radius=1e-4)

    def test_ambiguous_matching_rejected(self):
        fl = inflection_points(fermat_cubic())
        # collapse two references to nearly the same location
        refs = hesse_base_points()
        refs[1] = ProjPoint(refs[0].coords + 1e-9)
        with pytest.raises(MatchingError):
            label_against(fl, refs)

    def test_nearest_labels_in_row_order(self):
        refs = np.array(BASE_POINTS, dtype=complex)
        rows = refs[::-1] * (1 + 1e-6)
        assert nearest_labels(rows, refs, range(1, 10)) == list(range(9, 0, -1))

    def test_two_rows_on_one_reference_rejected(self):
        # rows 0 and 1 are both nearest reference 1, each unambiguously
        # and well within the radius; only the bijection check fails
        refs = np.array(BASE_POINTS, dtype=complex)
        rows = refs.copy()
        rows[1] = refs[0] + 1e-6
        with pytest.raises(MatchingError, match="two points matched reference 1"):
            nearest_labels(rows, refs, range(1, 10))


def frame_weight_cases():
    """The inputs of test_frame_with_weights_at_a_singular_point: nodal
    cubics whose node sits at a weight vector of the first conic frame,
    and three lines with nodes at weight points of both frames."""
    (w1, w2), (v1, _) = locus._CONIC_FRAMES
    rng = np.random.default_rng(0)
    nodal = [node_family(1.0, 1.0, 0.0).transform(np.linalg.inv(
        np.column_stack([rng.standard_normal(3), rng.standard_normal(3), w])))
        for w in (w1, w2)]
    r = rng.standard_normal((2, 3))
    M = np.array([np.cross(w1, v1), np.cross(w1, r[0]), np.cross(v1, r[1])])
    return nodal, triangle_cubic().transform(M)


class TestSingularSets:
    """singular_sets on one stack against singular_points row by row."""

    def mixed_stack(self):
        # the nine named cubics (those of test_strata's NAMED_CASES) and
        # two Gaussian images of each, a smooth cubic, a cone and a cubic
        # with a singular line, and rows that need the second conic frame
        named = [make() for _, make, _ in CLASSIFY_CORPUS]
        rng = np.random.default_rng(9)
        return (named + [gaussian_image(f, key)[0] for f in named
                         for key in (21, 22)]
                + [CubicForm(rng.standard_normal(10)
                             + 1j * rng.standard_normal(10)),
                   from_mono({(2, 1): 1, (1, 2): -3}),
                   from_mono({(2, 1): 1, (2, 0): 1})]
                + frame_weight_cases()[0])

    def test_stack_equals_single_calls(self):
        stack = self.mixed_stack()
        nodal = frame_weight_cases()[0]
        first = locus._CONIC_FRAMES[0]
        conics = third_partials([f.normalize().coeffs for f in nodal])
        assert not locus._conic_candidates(conics, first)[1].any()
        sets = singular_sets([f.coeffs for f in stack])
        assert len(sets) == len(stack)
        for f, got in zip(stack, sets):
            want = singular_points(f)
            assert got.local_types() == want.local_types()
            # the same points, matched by type; candidates with equal
            # residuals may come in either order
            for sp in want.points:
                assert min(proj_distance(sp.point.coords, g.point.coords)
                           for g in got.points
                           if g.local_type == sp.local_type) < 1e-12
            assert (got.singular_line is None) == (want.singular_line is None)
            if want.singular_line is not None:
                assert proj_distance(got.singular_line,
                                     want.singular_line) < 1e-12

    def test_points_in_canonical_order(self):
        # exact nodes tie in their residuals at rounding level, so only
        # type and rounded coordinates may order a set; the two nodes of
        # the triangle under the matrix of default_rng(5) came back in
        # either order when the residuals did
        forms = [make() for _, make, _ in CLASSIFY_CORPUS]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            forms += [make().transform(M) for _, make, _ in CLASSIFY_CORPUS]
        for s in singular_sets([f.coeffs for f in forms]):
            keys = [(sp.local_type, np.round(sp.point.coords.real, 9).tolist(),
                     np.round(sp.point.coords.imag, 9).tolist())
                    for sp in s.points]
            assert keys == sorted(keys)

    def test_stack_raises_the_single_error(self):
        bad = frame_weight_cases()[1]
        with pytest.raises(NumericalError, match="usable line pair") as one:
            singular_points(bad)
        stack = [fermat_cubic(), node_family(1.0, 1.0, 0.0), bad,
                 cusp_family(0.0)]
        with pytest.raises(NumericalError) as stacked:
            singular_sets([f.coeffs for f in stack])
        assert str(stacked.value) == str(one.value)


class TestJet:
    """locus._jet against the member's own gradient and second partials,
    and its derivatives against central differences, on a fixed cubic
    (K = 1), a pencil (K = 2) and a net (K = 3) of random cubics."""

    @staticmethod
    def draw(K, n=6):
        rng = np.random.default_rng(40 + K)
        cs = rng.standard_normal((n, K, 10)) + 1j * rng.standard_normal(
            (n, K, 10))
        free = locus._FREE[rng.integers(0, 3, n)]
        x = rng.standard_normal((n, K + 1)) + 1j * rng.standard_normal(
            (n, K + 1))
        return cs, free, x

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_values_are_the_members(self, K):
        cs, free, x = self.draw(K)
        g, _, H, _ = locus._jet(third_partials(cs), free, x)
        for k in range(len(x)):
            member = cs[k, 0] + x[k, 2:] @ cs[k, 1:]
            z = np.ones(3, dtype=complex)
            z[free[k]] = x[k, :2]
            assert np.allclose(g[k], eval_gradient(member, z), atol=1e-12)
            second = np.einsum('uvwm,m,w->uv', THIRD, member, z)
            assert np.allclose(H[k], second[np.ix_(free[k], free[k])],
                               atol=1e-12)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_derivatives_match_central_differences(self, K):
        cs, free, x = self.draw(K)
        T = third_partials(cs)
        _, Jg, H, dH = locus._jet(T, free, x)
        _, ddet = locus._det_jet(H, dH)
        h = 1e-6
        for j in range(K + 1):
            e = np.zeros(K + 1)
            e[j] = h
            gp, _, Hp, _ = locus._jet(T, free, x + e)
            gm, _, Hm, _ = locus._jet(T, free, x - e)
            dp, dm = locus._det_jet(Hp, dH)[0], locus._det_jet(Hm, dH)[0]
            for got, want in (((gp - gm) / (2 * h), Jg[:, :, j]),
                              ((Hp - Hm) / (2 * h), dH[..., j]),
                              ((dp - dm) / (2 * h), ddet[:, j])):
                assert np.abs(got - want).max() < 1e-7 * (
                    1 + np.abs(want).max())
