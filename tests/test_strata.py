"""Classification of cubics into equisingular classes and crossing search.

Oracle notes:
 - The discriminant of the Fermat cubic is the resultant of the gradient
   quadrics (3 z1^2, 3 z2^2, 3 z3^2).  The resultant of (z1^2, z2^2,
   z3^2) is 1, and scaling each quadric by 3 multiplies the resultant by
   3^(2*2) per polynomial, so the value is exactly 3^12 = 531441.
 - On the pencil z1^3+z2^3+z3^3 + u*z1 z2 z3 the singular members are
   the coordinate triangle (u = infinity) and the three triangles at
   u^3 = -27; each triangle carries multiplicity three, which forces the
   chart polynomial 27(u^3+27)^3 frozen below.
 - The family z1^3 + z2^2 z3 + tau*z3^3 is smooth except at tau = 0
   (cuspidal) and tau = infinity (the triple line z3^3), so its
   discriminant on the tau chart has a root of multiplicity 2 at 0 and
   degree drop 10.
"""

import itertools
import math
from fractions import Fraction
from functools import cache

import mpmath
import numpy as np
import pytest

from cubicflex import (Certificate, CrossingError, CubicForm, Net,
                       NumericalError, Pencil, StratumLabel, classify,
                       cusp_family, discriminant_value, fermat_cubic,
                       hesse_pencil, inflection_points, net_cusp_members,
                       node_family, pencil_crossings, pencil_discriminant_fit,
                       proj_distance, triangle_cubic)
from cubicflex import newton, strata
from cubicflex.errors import RootFindingError
from cubicflex.forms import (EXP2, MONOMIAL_INDEX, eval_gradient,
                             greedy_distinct)
from cubicflex.roots import UniPoly, all_roots
from cubicflex.strata import (MILNOR, _crossing_newton,
                              _line_multiplication_matrix, classify_all,
                              line_division_residuals)
from cubicflex.track import bypass_loop
from cubicflex.verify import CLASSIFY_CORPUS

M = CubicForm.from_monomials
# z1^2 z2 + z2^2 z3 + z3^2 z1: smooth, with S = 0 and T = 2/9
KLEIN = M({(2, 1): 1, (0, 2): 1, (1, 0): 1})
EPS = np.finfo(float).eps


def rand_cubic(rng):
    return CubicForm(rng.standard_normal(10) + 1j * rng.standard_normal(10))


def nodal_at_e3(rng):
    """A Gaussian cubic singular at e3: no z3^3, z1 z3^2 or z2 z3^2."""
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    c[[MONOMIAL_INDEX[e] for e in ((0, 0), (1, 0), (0, 1))]] = 0
    return CubicForm(c)


def inside_pencils():
    """Three pencils of singular cubics: two with the common line z1 = 0,
    two with a common node at e3, and those two moved by a unitary."""
    rng = np.random.default_rng(70)
    f0, f1 = nodal_at_e3(rng), nodal_at_e3(rng)
    U = np.linalg.qr(rng.standard_normal((3, 3))
                     + 1j * rng.standard_normal((3, 3)))[0]
    return [(triangle_cubic(), M({(1, 2): 1, (1, 0): 1})), (f0, f1),
            (f0.transform(U), f1.transform(U))]


NAMED_CASES = [
    (fermat_cubic(), "Smooth", "irreducible", 0),
    (triangle_cubic(), "B31", "three-lines", 3),
    (node_family(1, 1, 0), "B1", "irreducible", 1),
    (M({(1, 1): 1, (3, 0): 1}), "B21", "conic+line", 2),
    (cusp_family(0), "B22", "irreducible", 1),
    (M({(1, 0): 1, (0, 2): -1}), "B32", "conic+line", 1),
    (M({(2, 1): 1, (1, 2): 1}), "B4", "three-lines", 1),
    (M({(2, 1): 1}), "B5", "double-line+line", 0),
    (M({(3, 0): 1}), "B7", "triple-line", 0),
]


class TestClassify:
    @pytest.mark.parametrize("f,want,structure,npoints", NAMED_CASES,
                             ids=[c[1] for c in NAMED_CASES])
    def test_named_cubics(self, f, want, structure, npoints):
        label, cert = classify(f)
        assert label is StratumLabel(want)
        assert isinstance(cert, Certificate)
        assert cert.component_structure == structure
        assert len(cert.singular.points) == npoints

    def test_tangency_flags(self):
        _, transversal = classify(M({(1, 1): 1, (3, 0): 1}))
        assert transversal.tangency_flags == (False, False)
        _, tangent = classify(M({(1, 0): 1, (0, 2): -1}))
        assert tangent.tangency_flags == (True,)

    def test_certificate_json(self):
        _, cert = classify(node_family(1, 1, 0))
        d = cert.to_json_dict()
        assert d["component_structure"] == "irreducible"
        assert d["singular_points"][0]["local_type"] == "node"
        assert len(d["singular_points"][0]["coords"]) == 3

    def test_b5_b7_report_singular_line(self):
        for f in (M({(2, 1): 1}), M({(3, 0): 1})):
            _, cert = classify(f)
            line = cert.singular.singular_line
            assert line is not None
            # the singular line of z1^2 z2 and z1^3 is z1 = 0
            assert abs(line[1]) < 1e-9 and abs(line[2]) < 1e-9

    @pytest.mark.parametrize("case", range(4))
    def test_projective_invariance(self, case):
        f, want, _, _ = NAMED_CASES[[0, 2, 4, 5][case]]
        rng = np.random.default_rng(400 + case)
        for _ in range(6):
            T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            label, _ = classify(f.transform(T))
            assert label is StratumLabel(want)

    def test_cuspidal_family_members_smooth_off_origin(self):
        for tau in (0.3, -1.2 + 0.7j):
            label, _ = classify(cusp_family(tau))
            assert label is StratumLabel.SMOOTH


    def test_classify_all_equals_classify(self):
        rng = np.random.default_rng(31)
        forms = [make() for _, make, _ in CLASSIFY_CORPUS]
        forms += [f.transform(rng.standard_normal((3, 3))
                              + 1j * rng.standard_normal((3, 3)))
                  for f in forms]
        got = classify_all(forms)
        assert [label for label, _ in got] == [classify(f)[0] for f in forms]
        assert [str(label) for label, _ in got[:9]] == [
            want for _, _, want in CLASSIFY_CORPUS]
        assert [cert.notes for _, cert in got] == [
            classify(f)[1].notes for f in forms]

    def test_line_multiplication_matrix_bitwise(self):
        def loop(ell):
            # the double loop the index table replaced
            L = np.zeros((10, 6), dtype=complex)
            for j, e2 in enumerate(EXP2):
                for v in range(3):
                    e3 = list(e2)
                    e3[v] += 1
                    L[MONOMIAL_INDEX[(e3[0], e3[1])], j] += ell[v]
            return L

        rng = np.random.default_rng(4)
        for ell in [rng.standard_normal(3) + 1j * rng.standard_normal(3),
                    np.array([1.0, -0.0, 0.5j]), np.array([-0.0j, 1, -2])]:
            ell = np.asarray(ell, dtype=complex)
            assert _line_multiplication_matrix(ell).tobytes() == \
                loop(ell).tobytes()

    def test_stacked_line_division_residuals(self):
        rng = np.random.default_rng(5)
        ells = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal(
            (4, 2, 3))
        stack = _line_multiplication_matrix(ells)
        for L, ell in zip(stack.reshape(-1, 10, 6), ells.reshape(-1, 3)):
            assert L.tobytes() == _line_multiplication_matrix(ell).tobytes()
        # a cubic with a line component divides by it, and the residual of
        # any other line is the least-squares one
        cs = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
        q = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        cs[0] = _line_multiplication_matrix(ells[0, 0]) @ q
        got = line_division_residuals(cs, ells)
        assert got[0, 0] < 1e-15
        for c, row, res in zip(cs, ells, got):
            for ell, r in zip(row, res):
                L = _line_multiplication_matrix(ell / np.abs(ell).max())
                want = np.linalg.norm(c - L @ np.linalg.lstsq(
                    L, c, rcond=None)[0]) / np.linalg.norm(c)
                assert abs(r - want) <= 1e-13 * want + 1e-15


class TestDiscriminant:
    def test_fermat_value_exact(self):
        assert discriminant_value(fermat_cubic()) == pytest.approx(
            531441.0, rel=1e-10)

    def test_degree_twelve_scaling(self):
        f = fermat_cubic()
        d1 = discriminant_value(f)
        d2 = discriminant_value(CubicForm(2.0 * f.coeffs))
        assert d2 / d1 == pytest.approx(4096.0, rel=1e-10)

    def test_vanishes_on_singular_cubics(self):
        smooth = abs(discriminant_value(fermat_cubic()))
        for f, want, _, _ in NAMED_CASES[1:]:
            assert abs(discriminant_value(f)) < 1e-8 * smooth

    def test_nonzero_on_random_smooth(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            f = rand_cubic(rng)
            label, _ = classify(f)
            assert label is StratumLabel.SMOOTH
            assert abs(discriminant_value(f)) > 1e-6

    @pytest.mark.parametrize("case", range(4))
    def test_frame_independent(self, case):
        # disc(f(T z)) = det(T)^12 disc(f), for the Klein cubic and three
        # Gaussian cubics
        rng = np.random.default_rng(90 + case)
        f = KLEIN if case == 0 else rand_cubic(rng)
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert discriminant_value(f.transform(T)) == pytest.approx(
            np.linalg.det(T) ** 12 * discriminant_value(f), rel=1e-9)

    def test_klein_value(self):
        # real, as for any cubic with real coefficients, and not the
        # det(U)^12 multiple a frame change would leave in
        assert discriminant_value(KLEIN) == pytest.approx(729, rel=1e-9)

    def test_pencil_with_a_vanishing_macaulay_minor(self):
        # f1 is scaled so that the member at u = 1 has a vanishing
        # extraneous minor of the Macaulay matrix in the generic frame that
        # once gave the discriminant: the polynomial does not care
        rng = np.random.default_rng(4)
        f0, f1 = rand_cubic(rng), rand_cubic(rng)
        root = 0.302713802278694 - 0.023069959126429063j
        pencil = Pencil(f0, CubicForm(root * f1.coeffs))
        poly = UniPoly(pencil_discriminant_fit(pencil), rel=0.0)
        for u in (0.3 + 0.2j, -0.5j, 2.0):
            assert poly(u) == pytest.approx(discriminant_value(
                CubicForm(f0.coeffs + u * pencil.f1.coeffs)), rel=1e-9)
        assert pencil_crossings(pencil).total_multiplicity() == 12

    def test_hesse_chart_polynomial_frozen(self):
        # 27 (u^3 + 27)^3, ascending coefficients
        want = np.zeros(13)
        want[0], want[3], want[6], want[9] = 531441.0, 59049.0, 2187.0, 27.0
        fit = pencil_discriminant_fit(hesse_pencil())
        assert np.allclose(fit, want, rtol=1e-9, atol=1e-4)

    @pytest.mark.parametrize("case", range(3), ids=["Klein", "rng131",
                                                    "rng132"])
    def test_invariants_against_the_expanded_brackets(self, case):
        # the brackets summed in 40 digits from the float coefficients;
        # the Klein cubic's S = 0 and T = 2/9 are exact, and give its
        # discriminant (3^10 / 4)(2/9)^2 = 729
        f = KLEIN if case == 0 else rand_cubic(
            np.random.default_rng(130 + case))
        with mpmath.workdps(40):
            want = [complex(_bracket_value(name, f.coeffs)) for name in "ST"]
        for (value, error), w in zip(strata._invariants(f.coeffs[None]),
                                     want):
            assert abs(value[0] - w) <= 16 * EPS * error[0]
        if case == 0:
            assert [_bracket_value(name, f.coeffs) for name in "ST"] == [
                0, Fraction(2, 9)]

    def test_invariants_on_a_net(self):
        # the grids of a net: at each (alpha, beta), S or T of the member
        # f0 + alpha f1 + beta f2 within both rounding bounds, and the
        # beta^0 column is the line of the pencil (f0, f1)
        rng = np.random.default_rng(133)
        cs = np.array([rand_cubic(rng).coeffs for _ in range(3)])
        grids = strata._invariants(cs)
        for alpha, beta in [(0.3 - 0.2j, 1.1), (-0.7j, 0.4 + 0.5j),
                            (1.5, -2j)]:
            member = strata._invariants(
                (cs[0] + alpha * cs[1] + beta * cs[2])[None])
            for (grid, error), (value, bound) in zip(grids, member):
                power = (alpha ** np.arange(len(grid))[:, None]
                         * beta ** np.arange(len(grid)))
                assert abs((grid * power).sum() - value[0]) <= 16 * EPS * (
                    (error * abs(power)).sum() + bound[0])
        for (grid, error), (value, bound) in zip(grids,
                                                 strata._invariants(cs[:2])):
            assert np.all(abs(grid[:, 0] - value) <= 16 * EPS * bound)
            assert np.allclose(error[:, 0], bound, rtol=1e-14, atol=0)

    def test_null_cone(self):
        # S = T = 0 on the cusp and on every stratum below it, and not
        # both on the nodal strata
        null = {"B22", "B32", "B4", "B5", "B7"}
        for f, want, _, _ in NAMED_CASES[1:]:
            (s, s_err), (t, t_err) = strata._invariants(f.coeffs[None])
            zero = abs(s[0]) <= EPS * s_err[0], abs(t[0]) <= EPS * t_err[0]
            assert all(zero) if want in null else not any(zero)

    @pytest.mark.parametrize("stratum", list(MILNOR))
    def test_degree_drop_at_a_special_end(self, stratum):
        # Gaussian images of the named cubics with an isolated singular
        # point, at u = infinity: the top coefficients within rounding are
        # as many as the Milnor number
        S = {want: f for f, want, _, _ in NAMED_CASES}[str(stratum)]
        rng = np.random.default_rng(140)
        for _ in range(5):
            g = rand_cubic(rng)
            image = S.transform(rng.standard_normal((3, 3))
                                + 1j * rng.standard_normal((3, 3)))
            fit = pencil_discriminant_fit(Pencil(g, image))
            assert 12 - np.flatnonzero(fit)[-1] == MILNOR[stratum]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_roots_near_the_triple_line(self, seed):
        # the probe lines of the triple line pass through x^3 + 0.01 Fermat,
        # where the 8 crossings near x^3 cluster within about 0.01: every
        # root against a 60-digit reference from the same brackets
        f0 = CubicForm(M({(3, 0): 1}).coeffs + 0.01 * fermat_cubic().coeffs)
        g = rand_cubic(np.random.default_rng(seed))
        fit = pencil_discriminant_fit(Pencil(f0, g))
        got = all_roots(UniPoly(fit, rel=0.0), cluster_radius=0.0).roots
        with mpmath.workdps(60):
            want = np.array(_reference_roots(f0.coeffs, g.coeffs),
                            dtype=complex)
        assert len(got) == len(want) == 12
        assert np.abs(got[:, None] - want).min(axis=1).max() < 1e-8
        assert np.abs(got[:, None] - want).min(axis=0).max() < 1e-8


def _bracket_product(brackets):
    """The product of the brackets (k l m), each the determinant of the
    coordinates of symbols k, l and m, expanded by sympy, as a polynomial
    in the ten coefficients c of the cubic: {exponents of c: coefficient}.
    A monomial a^e of degree 3 in the coordinates of one symbol a becomes
    c_e divided by the multinomial 3! / e!, since (a . z)^3 = f."""
    import sympy

    n = 1 + max(max(b) for b in brackets)
    ring, *z = sympy.ring([f"z{i}" for i in range(3 * n)], sympy.ZZ)
    product = ring.one
    for b in brackets:
        x, y, w = (z[3 * k:3 * k + 3] for k in b)
        product *= sum(int(sympy.LeviCivita(*p)) * x[p[0]] * y[p[1]] * w[p[2]]
                       for p in itertools.permutations(range(3)))
    out = {}
    for exps, coeff in product.terms():
        key, den = [0] * 10, 1
        for k in range(n):
            e = exps[3 * k:3 * k + 3]
            key[MONOMIAL_INDEX[e[:2]]] += 1
            den *= 6 // math.prod(map(math.factorial, e))
        out[tuple(key)] = out.get(tuple(key), 0) + Fraction(int(coeff), den)
    return {k: v for k, v in out.items() if v}


@cache
def _brackets(name):
    """S = (abc)(abd)(acd)(bcd) or T = (abc)(abd)(ace)(bcf)(def)^2."""
    return _bracket_product({
        "S": [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        "T": [(0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5),
              (3, 4, 5)]}[name])


def _bracket_value(name, coeffs):
    """S or T at the coefficients: exact for integer coefficients, else
    in mpmath's working precision."""
    if all(c.imag == 0 and c.real == int(c.real) for c in coeffs):
        c = [int(x.real) for x in coeffs]
    else:
        c = [mpmath.mpc(x) for x in coeffs]
    return sum(w * math.prod(ci ** k for ci, k in zip(c, key))
               for key, w in _brackets(name).items())


def _reference_roots(c0, c1):
    """The 12 roots of the discriminant of c0 + u c1, from the brackets in
    mpmath's working precision."""
    def mul(p, q):
        return [sum(p[i] * q[k - i] for i in range(max(0, k - len(q) + 1),
                                                   min(k, len(p) - 1) + 1))
                for k in range(len(p) + len(q) - 1)]

    lines = [[mpmath.mpc(a), mpmath.mpc(b)] for a, b in zip(c0, c1)]
    S, T = [0] * 5, [0] * 7
    for name, poly in (("S", S), ("T", T)):
        for key, w in _brackets(name).items():
            term = [mpmath.mpf(w.numerator) / w.denominator]
            for line, k in zip(lines, key):
                for _ in range(k):
                    term = mul(term, line)
            for i, x in enumerate(term):
                poly[i] += x
    disc = [a - b / 6 for a, b in zip(mul(T, T), mul(mul(S, S), S))]
    return mpmath.polyroots(disc[::-1], maxsteps=200, extraprec=400)


class TestPencilCrossings:
    def test_equality_and_hash_by_value(self):
        pc, again = (pencil_crossings(hesse_pencil()) for _ in range(2))
        assert pc == again and hash(pc) == hash(again)
        assert pc.crossings[0] == again.crossings[0]
        assert pc.crossings[0] != pc.crossings[1]
        assert len(set(pc.crossings + again.crossings)) == 4
        # z1^2 z2 is singular along the line z1 = 0
        _, cert = classify(M({(2, 1): 1}))
        _, same = classify(M({(2, 1): 1}))
        assert cert.singular.singular_line is not None
        assert cert == same and hash(cert) == hash(same)
        assert cert != classify(M({(1, 2): 1}))[1]

    def test_hesse_pencil_four_triangles(self):
        pc = pencil_crossings(hesse_pencil())
        assert len(pc.crossings) == 4
        assert all(c.multiplicity == 3 for c in pc.crossings)
        assert all(c.label is StratumLabel.B31 for c in pc.crossings)
        assert pc.total_multiplicity() == 12
        assert pc.infinite_multiplicity == 3
        # two triangles tie in the real part, so order by values rounded
        # to 9 places, as pencil_crossings does
        def order(u):
            return np.round(u.real, 9), np.round(u.imag, 9)

        finite = sorted((c.parameter[1] / c.parameter[0]
                         for c in pc.crossings if abs(c.parameter[0]) > 0.5),
                        key=order)
        roots = sorted(np.roots([1, 0, 0, 27]), key=order)
        assert np.allclose(finite, roots, atol=1e-8)

    def test_pencil_through_fermat_twelve_simple_nodes(self):
        rng = np.random.default_rng(11)
        pc = pencil_crossings(Pencil(fermat_cubic(), rand_cubic(rng)))
        assert len(pc.crossings) == 12
        assert all(c.multiplicity == 1 for c in pc.crossings)
        assert all(c.label is StratumLabel.B1 for c in pc.crossings)
        assert pc.infinite_multiplicity == 0

    def test_cuspidal_family_crossings(self):
        p = Pencil(cusp_family(0), M({(0, 0): 1}))
        pc = pencil_crossings(p)
        by_label = {c.label.value: c for c in pc.crossings}
        assert set(by_label) == {"B22", "B7"}
        cusp = by_label["B22"]
        assert cusp.multiplicity == 2
        assert abs(cusp.parameter[1] / cusp.parameter[0]) < 1e-8
        assert by_label["B7"].multiplicity == 10
        assert pc.total_multiplicity() == 12

    @pytest.mark.parametrize("c", [1, 3, 216, 1000])
    def test_scaled_hesse_pencil(self, c):
        # Pencil(f0, c f1) has the crossings of Pencil(f0, f1), with the
        # parameters scaled by 1/c; at c = 3 the three finite triangles
        # sit on |u| = 1, and at c = 216 f1 is the Hessian of f0
        pc = pencil_crossings(Pencil(fermat_cubic(), c * triangle_cubic()))
        assert [(x.label, x.multiplicity) for x in pc.crossings] == [
            (StratumLabel.B31, 3)] * 4
        assert pc.infinite_multiplicity == 3
        finite = np.array([x.chart_value() for x in pc.crossings[:3]])
        want = np.array([x.chart_value()
                         for x in pencil_crossings(hesse_pencil())
                         .crossings[:3]]) / c
        assert np.abs(finite - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("c", [1e-6, 1e6])
    def test_scaled_gaussian_pencil(self, c):
        # the same labels and multiplicities, and the parameters scaled by
        # 1/c, on pencils through a node, a cusp and a triple point
        for stratum in ("B1", "B22", "B4"):
            pencil, _ = stratum_pencil(stratum, 0)
            pc = pencil_crossings(pencil)
            scaled = pencil_crossings(Pencil(pencil.f0, c * pencil.f1))
            assert [(x.label, x.multiplicity) for x in scaled.crossings] \
                == [(x.label, x.multiplicity) for x in pc.crossings]
            u = np.array([x.chart_value() for x in pc.crossings])
            v = np.array([x.chart_value() for x in scaled.crossings])
            assert np.abs(v * c - u).max() <= 1e-12 * np.abs(u).max()

    @pytest.mark.parametrize("seed", [None, 101, 102, 103, 104, 105],
                             ids=["fermat"] + [f"rng{k}" for k in
                                               range(101, 106)])
    def test_pencil_of_a_cubic_and_its_hessian(self, seed):
        # the Hesse pencil of a smooth cubic holds four triangles, each
        # crossed with multiplicity 3; the Hessian's coefficients are of
        # another size than the cubic's
        f = (fermat_cubic() if seed is None
             else rand_cubic(np.random.default_rng(seed)))
        pc = pencil_crossings(Pencil(f, f.hessian_form()))
        assert [(x.label, x.multiplicity) for x in pc.crossings] == [
            (StratumLabel.B31, 3)] * 4

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_random_pencils_total_twelve(self, seed):
        rng = np.random.default_rng(seed)
        pc = pencil_crossings(Pencil(rand_cubic(rng), rand_cubic(rng)))
        assert pc.total_multiplicity() == 12
        assert all(c.label is StratumLabel.B1 for c in pc.crossings)

    def test_pencil_inside_discriminant_raises(self):
        # every member is singular, so the discriminant vanishes
        # identically; in the generic frame its samples are rounding noise
        for f0, f1 in inside_pencils():
            for chart in (0, 1):
                with pytest.raises(CrossingError,
                                   match="inside discriminant"):
                    pencil_discriminant_fit(Pencil(f0, f1), chart)
            with pytest.raises(CrossingError, match="inside discriminant"):
                pencil_crossings(Pencil(f0, f1))
            with pytest.raises(CrossingError, match="inside discriminant"):
                bypass_loop(f0, f1, 0.02)

    @pytest.mark.parametrize(
        "case, draw", [(k, None) for k in range(9)]
        + [(3, 25), (6, 10), (8, 8), (8, 14)],
        ids=["cusp-B7"] + [c[1] for c in NAMED_CASES[1:]]
        + ["moved-B21", "moved-B4", "moved-B7-8", "moved-B7-14"])
    def test_swapped_pencil_same_crossings(self, case, draw):
        # Pencil(f1, f0) has the crossings of Pencil(f0, f1) under u -> 1/u;
        # a special cubic at either end is classified there.  The cusp
        # (2) and the triple line (10) take every root, so the crossing
        # Newton runs on none.  A named cubic moved by a Gaussian M puts
        # a crossing near the end, within the radius of the noisy roots
        # the end leaves in its own chart's fit until it is divided out
        if draw is None:
            rng = np.random.default_rng(60 + case)
            f0, f1 = ((cusp_family(0), M({(0, 0): 1})) if case == 0
                      else (NAMED_CASES[case][0], rand_cubic(rng)))
        else:
            rng = np.random.default_rng(1000 * case + draw)
            f1 = rand_cubic(rng)
            f0 = NAMED_CASES[case][0].transform(
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        pc = pencil_crossings(Pencil(f0, f1))
        swapped = pencil_crossings(Pencil(f1, f0))
        assert pc.total_multiplicity() == swapped.total_multiplicity() == 12
        assert len(pc.crossings) == len(swapped.crossings)
        for c in pc.crossings:
            t = c.parameter[::-1]
            twin = min(swapped.crossings,
                       key=lambda s: proj_distance(s.parameter, t))
            assert proj_distance(twin.parameter, t) < 1e-8
            assert (twin.label, twin.multiplicity) == (c.label,
                                                       c.multiplicity)
        assert pc.infinite_multiplicity == sum(
            c.multiplicity for c in swapped.crossings if c.parameter[1] == 0)
        if case:
            # the named cubic is the end u = 0 of one and u = inf of the other
            end = [c for c in pc.crossings if c.parameter[1] == 0]
            assert [str(c.label) for c in end] == [NAMED_CASES[case][1]]
            assert swapped.infinite_multiplicity == end[0].multiplicity

    def test_crossing_member_has_nodal_flex_signature(self):
        rng = np.random.default_rng(11)
        pc = pencil_crossings(Pencil(fermat_cubic(), rand_cubic(rng)))
        infl = inflection_points(pc.crossings[0].member)
        assert infl.multiplicity_signature() == (6, 1, 1, 1)

    @pytest.mark.parametrize("seed,expected", [
        # two crossings 0.05 apart in u; each needs its own witness
        (4, [1.697887 - 2.189487j, 1.70229 - 2.239555j]),
        # two crossings closer than the fit's cluster radius
        (5, [-0.318090 + 0.417710j, -0.317685 + 0.415418j]),
    ])
    def test_close_crossings_each_reported(self, seed, expected):
        pc = pencil_crossings(fourth_pencil(seed))
        us = np.array([c.parameter[1] / c.parameter[0]
                       for c in pc.crossings])
        assert len(pc.crossings) == 12
        assert all(c.multiplicity == 1 for c in pc.crossings)
        assert all(c.label is StratumLabel.B1 for c in pc.crossings)
        assert min(abs(a - b) for k, a in enumerate(us)
                   for b in us[k + 1:]) > 1e-4
        for u in expected:
            assert np.abs(us - u).min() < 1e-5

    @pytest.mark.parametrize("stratum,draw", [
        ("B1", 0), ("B1", 2), ("B1", 7), ("B21", 0), ("B21", 8),
        ("B21", 11), ("B22", 0), ("B22", 2), ("B22", 3), ("B22", 11),
        ("B31", 2), ("B31", 8), ("B31", 11), ("B32", 3), ("B32", 9),
        ("B32", 11), ("B4", 2), ("B4", 3), ("B4", 8), ("B4", 11)])
    def test_pencil_through_a_stratum(self, stratum, draw):
        # B21 and B31 draw 8 came back as a B1 and a B31 of multiplicity
        # 4 when crossings were matched to clustered roots; B22 draw 2
        # split the cusp's double root beyond the clustering radius.
        # B1 draw 2 and draw 11 of the others have a chart-0 fit with a
        # root far out; at B32 draw 9 and B4 draw 2 the chart-0 fit has
        # 3 or 4 roots within 4e-4 of the special member, and each must
        # be found there for its Newton run to reach it
        pencil, u_star = stratum_pencil(stratum, draw)
        assert_certified(pencil_crossings(pencil), stratum, u_star)

    def test_fit_roots_with_a_far_root(self):
        # the chart-0 fit of B21 draw 11 spans |u| from 0.16 to 147, with a
        # pair 1.4e-6 apart at the B21 member: every root is simple and
        # passes the residual gate
        fit = pencil_discriminant_fit(stratum_pencil('B21', 11)[0], 0)
        rs = all_roots(UniPoly(fit, rel=1e-8), cluster_radius=0.0)
        assert sorted(rs.multiplicities) == [1] * 12
        assert rs.residuals.max() < 1e-8
        assert np.abs(np.abs(rs.roots) - 147).min() < 1

    @pytest.mark.parametrize("stratum", list(MILNOR))
    def test_no_uncertified_answer(self, stratum):
        # draws that raise, or that once gave a wrong answer
        outcomes = []
        for draw in (2, 5, 6, 8, 9, 11):
            pencil, u_star = stratum_pencil(str(stratum), draw)
            try:
                pc = pencil_crossings(pencil)
            except (CrossingError, RootFindingError) as exc:
                outcomes.append(type(exc))
                continue
            assert_certified(pc, str(stratum), u_star)
            outcomes.append(None)
        assert None in outcomes


def stratum_pencil(stratum, draw):
    """Draw `draw` of default_rng(1) of a pencil whose member at -c is a
    PGL(3) image of the named cubic of the stratum: S(M z) + c g and g,
    for a Gaussian M and g and c = (0.3 + 0.7i) x.  Returns the pencil
    and -c."""
    S = {want: f for f, want, _, _ in NAMED_CASES}[stratum]
    rng = np.random.default_rng(1)
    for _ in range(draw + 1):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = rand_cubic(rng)
        c = (0.3 + 0.7j) * rng.standard_normal()
    return Pencil(S.transform(M) + c * g, g), -c


def assert_certified(pc, stratum, u_star):
    """The stratum's member at u_star with multiplicity mu, a simple node
    at every other crossing, and every witness a singular point."""
    special = [c for c in pc.crossings if c.chart_value() is not None
               and abs(c.chart_value() - u_star) < 1e-8]
    assert len(special) == 1
    assert special[0].label is StratumLabel(stratum)
    assert special[0].multiplicity == MILNOR[StratumLabel(stratum)]
    assert all(c.label is StratumLabel.B1 and c.multiplicity == 1
               for c in pc.crossings if c is not special[0])
    assert pc.total_multiplicity() == 12
    for c in pc.crossings:
        grad = eval_gradient(c.member.coeffs, c.witness.coords)
        assert np.abs(grad).max() < 1e-9


def fourth_pencil(seed):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        f0, f1 = rand_cubic(rng), rand_cubic(rng)
    return Pencil(f0, f1)


def reference_distinct(points, radius, distance):
    """The greedy deduplication loop as it was written out by hand."""
    kept = []
    for i, p in enumerate(points):
        if all(distance(p, points[j]) > radius for j in kept):
            kept.append(i)
    return kept


class TestDeduplication:
    @pytest.mark.parametrize("pencil,crossings", [
        (hesse_pencil(), 4), (fourth_pencil(4), 12), (fourth_pencil(5), 12)],
        ids=["hesse", "seed4", "seed5"])
    def test_crossing_hits_keep_reference_survivors(self, pencil, crossings):
        # one Newton solve from every fitted root of both charts reaches
        # each crossing once from each chart (a Hesse triangle three times)
        charts, roots = [], []
        for chart in (0, 1):
            fit = pencil_discriminant_fit(pencil, chart)
            r = all_roots(UniPoly(fit, rel=1e-8), cluster_radius=0.0).roots
            charts += [chart] * len(r)
            roots.append(r)
        hits, _ = _crossing_newton(pencil, np.array(charts),
                                   np.concatenate(roots))
        kept = greedy_distinct(hits, 1e-6)
        assert kept == reference_distinct(hits, 1e-6, proj_distance)
        assert len(kept) == crossings
        assert len(hits) >= 2 * len(kept)

    def test_proj_distance_keeps_reference_survivors(self):
        rng = np.random.default_rng(2)
        centres = (rng.standard_normal((5, 2))
                   + 1j * rng.standard_normal((5, 2)))
        jitter = 1e-8 * (rng.standard_normal((200, 2))
                         + 1j * rng.standard_normal((200, 2)))
        # each point is a rescaled, jittered copy of one of five centres
        scale = rng.standard_normal((200, 1)) + 1j * rng.standard_normal(
            (200, 1))
        pts = scale * (centres[rng.integers(0, 5, 200)] + jitter)
        kept = greedy_distinct(pts, 1e-6)
        assert kept == reference_distinct(pts, 1e-6, proj_distance)
        assert len(kept) == 5

    def test_max_norm_keeps_reference_survivors(self):
        rng = np.random.default_rng(1)
        centres = (rng.standard_normal((5, 2))
                   + 1j * rng.standard_normal((5, 2)))
        jitter = 1e-7 * rng.standard_normal((200, 2))
        pts = centres[rng.integers(0, 5, 200)] + jitter

        def max_norm(p, q):
            return np.abs(np.asarray(q) - p).max(axis=-1)

        kept = greedy_distinct(pts, 1e-6, max_norm)
        assert kept == reference_distinct(pts, 1e-6, max_norm)
        assert len(kept) == 5


    def test_chain_keeps_both_ends(self):
        # d(A, B) < r and d(B, C) < r but d(A, C) > r: B goes with A, and
        # C, which only B covered, survives; merging clusters would lose C
        chain = np.array([[1.0, 0.0], [1.0, 0.6e-6], [1.0, 1.2e-6]],
                         dtype=complex)

        def max_norm(p, q):
            return np.abs(np.asarray(q) - p).max(axis=-1)

        for pts, distance in [(chain, proj_distance),
                              (chain[:, 1:] * 1e6, max_norm)]:
            radius = 1e-6 if distance is proj_distance else 1.0
            kept = greedy_distinct(pts, radius, distance)
            assert kept == [0, 2]
            assert kept == reference_distinct(pts, radius, distance)


# the 24 cuspidal members (alpha, beta) of net3, recorded from an
# independent search: Newton on the cusp system from 2000 random starts
# in each point chart, kept when 4000 fresh starts found the same members
NET3_CUSPS = np.array([
    ((-1.2820304580005795-1.5292697881565833j),
     (-2.2612041086762447+0.07360759309860676j)),
    ((-1.217812319290866-0.928198830028501j),
     (-0.634182079318367-0.3823217671114746j)),
    ((-0.9497022425127155+2.9336444306521914j),
     (-1.586848958181892-3.8012483930039145j)),
    ((-0.8988982864182078-1.6526246220356868j),
     (0.6465522767817508-0.5486886418649624j)),
    ((-0.7839521996358743-0.6453600416014865j),
     (2.4093365351231206-0.5462142210391671j)),
    ((-0.49172619410831336-0.9242597118677963j),
     (1.6049513855976574+0.6046014980089519j)),
    ((-0.32611682976539186+0.41711508461524227j),
     (-0.7637559306520633+0.764883608111683j)),
    ((0.04780541954209265-1.0987193072506476j),
     (0.6387158708579308+0.913655743641669j)),
    ((0.09346987736211651+0.8103364872683679j),
     (-0.4011853992580074-1.1260324419803487j)),
    ((0.14019743113356997-0.4497659581624794j),
     (-0.6887436717770505+0.6467133059593538j)),
    ((0.2688171343078996+1.3638079023702538j),
     (-2.0289926985831963+1.4761756843085616j)),
    ((0.2870812147835992-0.9704238098269296j),
     (-1.92772303244705+0.43697097221224174j)),
    ((0.5049075484490793+0.11160964466973472j),
     (-0.4762593187751984-0.3153441692986606j)),
    ((0.5508970870563035-0.7274859738378681j),
     (0.14362218168087715+0.5585966966087336j)),
    ((0.7388162099555001+0.5910184059152256j),
     (-0.4235503325131586-0.6572225113765068j)),
    ((0.7638130480317448+0.7711972319083604j),
     (-0.6377649035944442-0.5472103664553499j)),
    ((1.2005008957997598-0.41579139430810347j),
     (-1.8133793428645424-0.2339752872620092j)),
    ((1.5286717689243419-2.838307775002297j),
     (5.437265578510037-1.9854207595495037j)),
    ((1.5572307537516497-1.8551951943023806j),
     (-0.8376751839638659+2.592798748928887j)),
    ((1.6071239216023525-2.3621641065563312j),
     (-1.9413907361362213+2.875484342739124j)),
    ((1.7663012658353665-2.4581460809261757j),
     (-1.2513202788284346+0.3729578477531705j)),
    ((1.8773157697258154+0.935140869876154j),
     (-0.9340174743318517+0.46649493231186073j)),
    ((1.9698278820071158-1.8751384782394778j),
     (-0.9638894460223014+3.049612143222908j)),
    ((3.761583070927104+1.9929161253445897j),
     (4.086971483654955+6.120876111705321j)),
])


@pytest.fixture(scope="module")
def net3():
    rng = np.random.default_rng(3)
    return Net(rand_cubic(rng), rand_cubic(rng), rand_cubic(rng))


class TestNetCusps:

    def test_generic_net_has_24_cuspidal_members(self, net3):
        out = net_cusp_members(net3)
        assert len(out) == 24
        assert all(nc.residuals["f"] < 1e-10 for nc in out)
        assert all(nc.residuals["grad"] < 1e-10 for nc in out)

    def test_same_members_as_recorded(self, net3):
        out = net_cusp_members(net3)
        got = np.array([(nc.alpha, nc.beta) for nc in out])
        assert np.abs(got - NET3_CUSPS).max() < 1e-10

    def test_output_sorted_and_deterministic(self, net3):
        a = net_cusp_members(net3)
        b = net_cusp_members(net3)
        assert [(nc.alpha, nc.beta) for nc in a] == \
            [(nc.alpha, nc.beta) for nc in b]
        keys = [(nc.alpha.real, nc.alpha.imag, nc.beta.real, nc.beta.imag)
                for nc in a]
        assert keys == sorted(keys)

    def test_members_are_cuspidal(self, net3):
        out = net_cusp_members(net3)
        members = [CubicForm(net3.f0.coeffs + nc.alpha * net3.f1.coeffs
                             + nc.beta * net3.f2.coeffs) for nc in out]
        for nc, (label, cert) in zip(out, classify_all(members)):
            assert label is StratumLabel.B22
            assert proj_distance(cert.singular.points[0].point.coords,
                                 nc.point.coords) < 1e-6

    def test_each_candidate_is_solved_once(self, net3, monkeypatch):
        solve, candidates = newton.solve, strata._net_cusp_candidates
        rows, starts = [], []

        def recorded_solve(system, x0, *args, **kwargs):
            if np.shape(x0)[1] == 4:      # the cusp system, not a pin
                rows.append(len(x0))
            return solve(system, x0, *args, **kwargs)

        def recorded_candidates(cs):
            starts.append(candidates(cs))
            return starts[-1]

        monkeypatch.setattr(newton, "solve", recorded_solve)
        monkeypatch.setattr(strata, "_net_cusp_candidates",
                            recorded_candidates)
        assert len(net_cusp_members(net3)) == 24
        # one solve, one row per candidate, in its own chart
        assert rows == [len(starts[0])]

    def test_non_general_net_is_refused(self):
        # this net holds the cuspidal f1 (at alpha = infinity) and the
        # B4 cone f0 - f1 = z2^3 - z2^2 z3 + z3^3, a triple point where
        # the cuspidal locus meets it with high multiplicity: the chart
        # keeps 19 B22 members, not 24
        real = CubicForm(np.random.default_rng(1).standard_normal(10))
        with pytest.raises(CrossingError, match="19 cuspidal members"):
            net_cusp_members(Net(fermat_cubic(), cusp_family(0), real))
        # every member of the net of coordinate cubes is diagonal, smooth
        # or a cone, and none is cuspidal
        cubes = Net(M({(3, 0): 1}), M({(0, 3): 1}), M({(0, 0): 1}))
        with pytest.raises(CrossingError):
            net_cusp_members(cubes)

    @pytest.mark.parametrize("seed, index", [(12, 0), (100, 14), (200, 20)],
                             ids=["rng12-0", "rng100-14", "rng200-20"])
    def test_second_random_net(self, seed, index):
        # the nets of rng100 and rng200 have a cusp far out in the chart,
        # at |alpha| about 32 and 125; with no unitary frame on the
        # parameter plane, the eigensolve loses the one of rng200
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            net = Net(rand_cubic(rng), rand_cubic(rng), rand_cubic(rng))
        out = net_cusp_members(net)
        assert len(out) == 24
        assert max(max(nc.residuals.values()) for nc in out) < 1e-10
