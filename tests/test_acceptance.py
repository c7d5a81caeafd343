"""Acceptance gate: seven criteria, one test (= one pass/fail line in
`pytest -v` output) per criterion, each with its stated time budget.

Criteria 1, 3, 4, 5, 6 delegate to the verification suites in
`cubicflex.verify`, which compare observed values against the frozen
expectations (group orders and relations, tracked permutations, local
group structures, crossing counts, integer invariants).  Criterion 2
(inflection facts) and criterion 7 (randomized property suites) are
implemented directly here.  The strata suite, which no criterion runs,
has a test of its own.
"""

import time

import numpy as np

from cubicflex.forms import (CubicForm, eval_coeffs, eval_gradient,
                             hessian_coeffs, monomial_values, proj_distance)
from cubicflex.locus import hesse_base_points, inflection_points
from cubicflex.perms import Perm, PermGroup, hesse_group
from cubicflex.strata import classify
from cubicflex.track import Line, Loop, circle_loop, track_loop
from cubicflex.verify import run_suite


def run_gate(number, suite, budget_seconds):
    t0 = time.perf_counter()
    records = run_suite(suite)
    elapsed = time.perf_counter() - t0
    failed = [r for r in records if not r.passed]
    for r in failed:
        print(f"  failed check {r.suite}:{r.name}: expected {r.expected}, "
              f"observed {r.observed}")
    verdict = "PASS" if not failed and elapsed < budget_seconds else "FAIL"
    print(f"ACCEPTANCE {number} ({suite} suite, {elapsed:.1f}s "
          f"of {budget_seconds}s budget): {verdict}")
    assert not failed, f"{len(failed)} checks failed in suite {suite}"
    assert elapsed < budget_seconds


def test_criterion_1_group_suite():
    run_gate(1, "group", 1.0)


def test_criterion_2_inflection_suite():
    t0 = time.perf_counter()
    # the nine flexes of the Fermat cubic match the classical table
    fermat = CubicForm.from_monomials({(3, 0): 1, (0, 3): 1, (0, 0): 1})
    table = hesse_base_points()
    computed = inflection_points(fermat)
    assert len(computed.points) == 9
    for ip in computed.points:
        nearest = min(proj_distance(ip.point.coords, q.coords)
                      for q in table)
        assert nearest < 1e-8
    # multiplicity signatures at the named degenerations
    nodal = CubicForm.from_monomials({(1, 1): 1, (3, 0): 1, (0, 3): 1})
    assert inflection_points(nodal).multiplicity_signature() == (6, 1, 1, 1)
    cuspidal = CubicForm.from_monomials({(3, 0): 1, (0, 2): 1})
    assert inflection_points(cuspidal).multiplicity_signature() == (8, 1)
    # 200 random smooth cubics: nine simple flexes, tiny residuals
    rng = np.random.default_rng(123)
    for _ in range(200):
        f = CubicForm(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        infl = inflection_points(f)
        assert infl.multiplicity_signature() == (1,) * 9
        h = hessian_coeffs(f.coeffs)
        Z = np.array([ip.point.coords for ip in infl.points])
        mv = monomial_values(Z, 3)
        assert np.abs(mv @ f.coeffs).max() < 1e-8 * np.abs(f.coeffs).max()
        assert np.abs(mv @ h).max() < 1e-8 * np.abs(h).max()
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 2 (inflection suite, {elapsed:.1f}s of 10s budget): "
          f"{'PASS' if elapsed < 10 else 'FAIL'}")
    assert elapsed < 10


def test_criterion_3_local_monodromy():
    run_gate(3, "local", 300.0)


def test_criterion_4_global_monodromy():
    run_gate(4, "global", 900.0)


def test_criterion_5_discriminant_counts():
    run_gate(5, "counts", 600.0)


def test_criterion_6_invariant_chain():
    run_gate(6, "invariants", 1.0)


def test_strata_suite_passes_every_check():
    records = run_suite("strata")
    assert len(records) == 12
    assert [r.name for r in records if not r.passed] == []


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    # Euler identity: z . grad F = 3 F on 50 random (form, point) pairs
    for _ in range(50):
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = eval_gradient(c, z) @ z
        rhs = 3 * eval_coeffs(c, z)
        assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)

    # null loops (out and back along a random chord) are the identity
    base = CubicForm.from_monomials({(3, 0): 1, (0, 3): 1, (0, 0): 1})
    for _ in range(50):
        step = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        mid = CubicForm(base.coeffs + 0.1 * step)
        res = track_loop(Loop(base, (Line(base, mid), Line(mid, base))))
        assert res.perm == Perm.identity()
        assert res.max_residual < 1e-8

    # reversal inverts the permutation, on random coefficient circles
    for _ in range(50):
        direction = CubicForm(rng.standard_normal(10)
                              + 1j * rng.standard_normal(10))
        loop = circle_loop(base, direction, 0.05)
        forward = track_loop(loop).perm
        backward = track_loop(loop.reversed()).perm
        assert backward == forward.inverse()

    # Random coordinate changes: generic direction in GL(3, C) but with
    # singular values in [1/2, 2], so the change of coordinates itself is
    # well conditioned.
    def bounded_gl3(r):
        q1 = np.linalg.qr(r.standard_normal((3, 3))
                          + 1j * r.standard_normal((3, 3)))[0]
        q2 = np.linalg.qr(r.standard_normal((3, 3))
                          + 1j * r.standard_normal((3, 3)))[0]
        return q1 @ np.diag(r.uniform(0.5, 2.0, 3)) @ q2

    # PGL(3) invariance of the stratum label (degenerate corpus included)
    corpus = [
        CubicForm.from_monomials({(3, 0): 1, (0, 3): 1, (0, 0): 1}),
        CubicForm.from_monomials({(1, 1): 1}),
        CubicForm.from_monomials({(1, 1): 1, (3, 0): 1, (0, 3): 1}),
        CubicForm.from_monomials({(3, 0): 1, (0, 2): 1}),
    ]
    for k in range(50):
        f = corpus[k % len(corpus)]
        assert classify(f.transform(bounded_gl3(rng)))[0] == classify(f)[0]

    # PGL(3) invariance of the inflection signature, on cubics whose
    # inflection scheme is finite (no line component).  The points of
    # f(M z) are the M-preimages of the points of f; the clustering step
    # cannot tell apart distinct points that a transform squeezes below
    # its resolution, so the asserted property carries the (checkable a
    # priori) hypothesis that the transformed points stay separated.
    finite = [
        CubicForm.from_monomials({(3, 0): 1, (0, 3): 1, (0, 0): 1}),
        CubicForm.from_monomials({(1, 1): 1, (3, 0): 1, (0, 3): 1}),
        CubicForm.from_monomials({(3, 0): 1, (0, 2): 1}),
    ]
    reference = [([ip.point.coords for ip in inflection_points(f).points],
                  inflection_points(f).multiplicity_signature())
                 for f in finite]
    for k in range(50):
        f = finite[k % len(finite)]
        points, signature = reference[k % len(finite)]
        for _ in range(20):
            M = bounded_gl3(rng)
            moved = [np.linalg.solve(M, p) for p in points]
            gap = min(proj_distance(p, q)
                      for a, p in enumerate(moved)
                      for q in moved[:a])
            if gap > 0.05:
                break
        else:
            raise AssertionError("could not sample a separating transform")
        assert (inflection_points(f.transform(M)).multiplicity_signature()
                == signature)

    # orbit-stabilizer identity on 50 random subgroups of the full group
    elements = sorted(hesse_group().elements, key=lambda p: p.images)
    for _ in range(50):
        gens = [elements[rng.integers(len(elements))] for _ in range(2)]
        G = PermGroup(tuple(gens))
        for orbit in G.orbits():
            for letter in orbit:
                assert G.stabilizer(letter).order * len(orbit) == G.order

    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 7 (property suites, {elapsed:.1f}s): PASS")
