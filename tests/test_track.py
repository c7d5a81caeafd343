"""Monodromy tracking tests.

Oracles
-------
Coordinate-circle loops in the family f = z1 z2 z3 + a z1^3 + b z2^3
+ c z3^3 admit a closed-form flex parameterization.  The Hessian of f
is (216 abc + 2) z1 z2 z3 - 6 (a z1^3 + b z2^3 + c z3^3), so on f = 0
the flex equations reduce to z1 z2 z3 = a z1^3 + b z2^3 + c z3^3 = 0.
With a = delta e^{2 pi i t}, b = c = delta (the loop `c1`), the flexes
on z2 = 0 satisfy z3^3 = -e^{2 pi i t} z1^3, i.e. z3/z1 =
-e^{2 pi i t/3} omega^k: as t runs 0 to 1 each sheet moves to the next
cube root, giving the 3-cycle on labels (2, 8, 5) in the standard
labeling of the nine shared flexes q1..q9 of the Fermat/triangle
pencil; the z3 = 0 chart gives (3, 6, 9) the same way and the z1 = 0
flexes are constant in t.  Cycling b instead (`c2`) produces
(1, 4, 7)(3, 9, 6), and cycling c (`c3`) produces (1, 7, 4)(2, 5, 8);
the composition identity (c1 then c2) = inverse of c3 follows from the
same parameterization.

For the cuspidal family f = z1^3 + z2^2 z3 + tau z3^3 the Hessian is
24 z1 (3 tau z3^2 - z2^2), so the flexes split into (0, +-i sqrt(tau), 1)
and (0, 1, 0) on z1 = 0, and the six points z2 = +-sqrt(3 tau) z3,
z1 = -(4 tau)^{1/3} omega^k z3.  Around tau = delta e^{2 pi i t} the
square root swaps the first pair (a 2-cycle), the combined cube and
square roots advance the six points in a single 6-cycle, and (0,1,0)
is fixed: cycle type (6, 2, 1).

A bypass around a generic nodal degeneration is locally the `c1` model
(one coordinate circling a simple discriminant branch), so its cycle
type is (3, 3, 1, 1, 1).
"""

import numpy as np
import pytest

from cubicflex.errors import CrossingError, MatchingError, SchemaError, TrackingError
from cubicflex.forms import (MONOMIALS, CubicForm, cusp_family, fermat_cubic,
                             node_family, triangle_cubic)
from cubicflex.locus import hesse_base_points, inflection_points, label_against
from cubicflex.perms import (G1, G2, G3, G4, Perm, PermGroup,
                             conjugate_in_s9, hesse_group, local_cusp_group)
from cubicflex import track
from cubicflex.track import (Arc, Line, Loop, MonodromyResult, TrackingConfig,
                             bypass_loop, circle_loop, generate_global_monodromy,
                             line_bypass_permutations, local_monodromy,
                             track_loop)

DELTA = 0.05


def unit_coeff(i, j):
    e = np.zeros(10)
    e[MONOMIALS.index((i, j))] = 1.0
    return CubicForm(e)


@pytest.fixture(scope="module")
def q_labels():
    base = node_family(DELTA, DELTA, DELTA)
    return label_against(inflection_points(base), hesse_base_points())


@pytest.fixture(scope="module")
def coordinate_loops():
    d = DELTA
    c1 = circle_loop(node_family(0, d, d), unit_coeff(3, 0), d)
    c2 = circle_loop(node_family(d, 0, d), unit_coeff(0, 3), d)
    c3 = circle_loop(node_family(d, d, 0), unit_coeff(0, 0), d)
    return c1, c2, c3


def check_diagnostics(result, cfg=None):
    cfg = cfg or TrackingConfig()
    assert result.max_residual < 1e-8
    assert result.min_pairwise_separation > cfg.proximity_guard
    assert result.steps_taken > 0


class TestSegments:
    def test_line_endpoints_and_velocity(self):
        f, g = fermat_cubic(), triangle_cubic()
        seg = Line(f, g)
        assert np.allclose(seg.value(0), f.coeffs)
        assert np.allclose(seg.value(1), g.coeffs)
        assert np.allclose(seg.velocity(0.3), g.coeffs - f.coeffs)

    def test_arc_endpoints(self):
        arc = Arc(triangle_cubic(), unit_coeff(3, 0), 0.1, 0.0, 0.5)
        start = triangle_cubic().coeffs + 0.1 * unit_coeff(3, 0).coeffs
        assert np.allclose(arc.value(0), start)
        # half a turn lands diametrically opposite
        end = triangle_cubic().coeffs - 0.1 * unit_coeff(3, 0).coeffs
        assert np.allclose(arc.value(1), end)

    def test_arc_velocity_matches_finite_difference(self):
        arc = Arc(triangle_cubic(), unit_coeff(0, 3), 0.2, 0.1, 0.9)
        h = 1e-7
        fd = (arc.value(0.4 + h) - arc.value(0.4 - h)) / (2 * h)
        assert np.allclose(arc.velocity(0.4), fd, atol=1e-6)

    def test_arc_step_cap_limits_turn(self):
        arc = Arc(triangle_cubic(), unit_coeff(0, 3), 0.2, 0.0, 2.0)
        assert arc.step_cap() * abs(2.0 - 0.0) == pytest.approx(1 / 64)

    def test_arc_rejects_zero_turn(self):
        with pytest.raises(SchemaError):
            Arc(triangle_cubic(), unit_coeff(0, 3), 0.2, 0.3, 0.3)


class TestLoop:
    def test_open_path_rejected(self):
        f, g = fermat_cubic(), triangle_cubic()
        with pytest.raises(SchemaError, match="not closed"):
            Loop(f, (Line(f, g),))

    def test_junction_mismatch_rejected(self):
        f, g = fermat_cubic(), triangle_cubic()
        h = node_family(0.3, 0.1, 0.2)
        with pytest.raises(SchemaError, match="segment 1"):
            Loop(f, (Line(f, g), Line(h, f)))

    def test_json_round_trip(self, coordinate_loops):
        c1 = coordinate_loops[0]
        doc = c1.to_json_dict()
        again = Loop.from_json_dict(doc)
        assert again.to_json_dict() == doc
        assert len(again.segments) == 1
        assert isinstance(again.segments[0], Arc)

    def test_json_rejects_unknown_kind(self):
        f = fermat_cubic()
        doc = {"basepoint": f.to_json_dict(),
               "segments": [{"kind": "spiral"}]}
        with pytest.raises(SchemaError, match="spiral"):
            Loop.from_json_dict(doc)

    def test_reversed_swaps_orientation(self, coordinate_loops):
        rev = coordinate_loops[0].reversed()
        arc = rev.segments[0]
        assert arc.turn_start == 1.0 and arc.turn_end == 0.0


class TestTrackingConfig:
    def test_defaults(self):
        cfg = TrackingConfig()
        assert cfg.initial_step == 1e-2
        assert cfg.min_step == 1e-7
        assert cfg.newton_tol == 1e-11
        assert cfg.newton_max_iters == 12
        assert cfg.proximity_guard == 1e-4

    def test_validation(self):
        with pytest.raises(SchemaError):
            TrackingConfig(initial_step=1e-8)  # below min_step
        with pytest.raises(SchemaError):
            TrackingConfig(newton_tol=-1.0)


class TestCoordinateLoops:
    def test_c1_gives_g2(self, coordinate_loops, q_labels):
        res = track_loop(coordinate_loops[0], labels=q_labels)
        assert res.perm == G2 == Perm.parse("(2,8,5)(3,6,9)")
        check_diagnostics(res)

    def test_c2_gives_g3(self, coordinate_loops, q_labels):
        res = track_loop(coordinate_loops[1], labels=q_labels)
        assert res.perm == G3 == Perm.parse("(1,4,7)(3,9,6)")
        check_diagnostics(res)

    def test_c3_gives_g4(self, coordinate_loops, q_labels):
        res = track_loop(coordinate_loops[2], labels=q_labels)
        assert res.perm == G4 == Perm.parse("(1,7,4)(2,5,8)")
        check_diagnostics(res)

    def test_reversal_gives_inverse(self, coordinate_loops, q_labels):
        res = track_loop(coordinate_loops[0].reversed(), labels=q_labels)
        assert res.perm == G2.inverse() == Perm.parse("(2,5,8)(3,9,6)")

    def test_concatenation_composes_left_to_right(self, coordinate_loops,
                                                  q_labels):
        c1, c2, _ = coordinate_loops
        both = Loop(c1.basepoint, c1.segments + c2.segments)
        res = track_loop(both, labels=q_labels)
        assert res.perm == G2 * G3 == G4.inverse()

    def test_local_group_of_three_node_branches(self, coordinate_loops,
                                                q_labels):
        perms = [track_loop(c, labels=q_labels).perm
                 for c in coordinate_loops]
        G = PermGroup(perms)
        assert G.order == 9
        assert G.orbits() == [(1, 4, 7), (2, 5, 8), (3, 6, 9)]

    def test_one_hessian_per_attempted_step(self, coordinate_loops,
                                            q_labels, monkeypatch):
        counts = {"hessian": 0, "attempts": 0}
        hessian, correct = track.hessian_coeffs, track._Tracker.correct

        def counted_hessian(a):
            counts["hessian"] += 1
            return hessian(a)

        def counted_correct(tracker, *args):
            counts["attempts"] += 1
            return correct(tracker, *args)

        monkeypatch.setattr(track, "hessian_coeffs", counted_hessian)
        monkeypatch.setattr(track._Tracker, "correct", counted_correct)
        loop = coordinate_loops[0]
        res = track_loop(loop, labels=q_labels)
        # one per attempted step and one per segment start, plus the one
        # that checks the labels at the basepoint
        assert counts["hessian"] <= (counts["attempts"] + len(loop.segments)
                                     + 1)
        assert res.perm == G2
        assert res.steps_taken == 100

    def test_cusp_circle_cycle_type(self):
        loop = circle_loop(cusp_family(0.0), unit_coeff(0, 0), DELTA)
        res = track_loop(loop)
        assert res.perm.cycle_type() == (6, 2, 1)
        check_diagnostics(res)


class TestTrackLoopEdges:
    def test_null_loop_is_identity(self):
        f = fermat_cubic()
        mid = CubicForm(0.8 * f.coeffs + 0.2 * node_family(0.3, 0.1, 0.2).coeffs)
        res = track_loop(Loop(f, (Line(f, mid), Line(mid, f))))
        assert res.perm == Perm.identity()
        check_diagnostics(res)

    def test_path_through_discriminant_raises(self):
        f, t = fermat_cubic(), triangle_cubic()
        loop = Loop(f, (Line(f, t), Line(t, f)))
        with pytest.raises(TrackingError, match="hits discriminant"):
            track_loop(loop)

    def test_singular_basepoint_rejected(self):
        t = triangle_cubic()
        loop = circle_loop(t, unit_coeff(3, 0), 0.01)
        # basepoint of this loop is t + 0.01 z1^3 (smooth); rebase at t
        bad = Loop(t, (Line(t, loop.basepoint), Line(loop.basepoint, t)))
        with pytest.raises(TrackingError, match="basepoint not smooth"):
            track_loop(bad)

    def test_diagnostics_tuple(self, coordinate_loops, q_labels):
        res = track_loop(coordinate_loops[0], labels=q_labels)
        assert res.diagnostics == (res.steps_taken,
                                   res.min_pairwise_separation,
                                   res.max_residual)


NODAL_TARGET_COEFFS = {(3, 0): 1.0, (2, 0): 1.0, (0, 2): -1.0}


def nodal_target():
    e = np.zeros(10)
    for m, v in NODAL_TARGET_COEFFS.items():
        e[MONOMIALS.index(m)] = v
    return CubicForm(e)


class TestBypass:
    def test_nodal_bypass_cycle_type(self):
        loop = bypass_loop(fermat_cubic(), nodal_target(), 0.02)
        res = track_loop(loop)
        assert res.perm.cycle_type() == (3, 3, 1, 1, 1)
        assert res.perm.order() == 3
        check_diagnostics(res)

    def test_bypass_loop_shape(self):
        loop = bypass_loop(fermat_cubic(), nodal_target(), 0.02)
        kinds = [type(s).__name__ for s in loop.segments]
        assert kinds == ["Line", "Arc", "Line"]
        assert loop.segments[1].radius == 0.02

    def test_same_target_raises(self):
        f = fermat_cubic()
        with pytest.raises(CrossingError, match="no crossing found"):
            bypass_loop(f, fermat_cubic(), 0.02)

    def test_cusp_bypass_cycle_type(self):
        loop = bypass_loop(fermat_cubic(), cusp_family(0.0), 0.02)
        res = track_loop(loop)
        assert res.perm.cycle_type() == (6, 2, 1)

    def test_oversized_radius_raises(self):
        with pytest.raises(CrossingError, match="too close"):
            bypass_loop(fermat_cubic(), nodal_target(), 0.5)

    def test_bypass_survives_json_round_trip(self):
        loop = bypass_loop(fermat_cubic(), nodal_target(), 0.02)
        again = Loop.from_json_dict(loop.to_json_dict())
        assert track_loop(again).perm.cycle_type() == (3, 3, 1, 1, 1)

    def test_paths_to_same_target_share_cycle_type(self):
        # the bypass preconditions (no second crossing within 3*radius)
        # can reject an unlucky random basepoint; resample until three
        # admissible approach paths have been tracked
        rng = np.random.default_rng(77)
        target = nodal_target()
        done = 0
        for _ in range(20):
            base = CubicForm(rng.standard_normal(10)
                             + 1j * rng.standard_normal(10))
            try:
                loop = bypass_loop(base, target, 0.02)
            except CrossingError:
                continue
            assert track_loop(loop).perm.cycle_type() == (3, 3, 1, 1, 1)
            done += 1
            if done == 3:
                break
        assert done == 3


class TestGlobalMonodromy:
    def test_line_product_is_identity(self):
        rng = np.random.default_rng(7)
        delta = CubicForm(rng.standard_normal(10)
                          + 1j * rng.standard_normal(10))
        perms = line_bypass_permutations(fermat_cubic(), delta)
        assert len(perms) == 12
        prod = Perm.identity()
        for p in perms:
            prod = prod * p
        assert prod == Perm.identity()

    def test_group_order_216(self):
        G = generate_global_monodromy(fermat_cubic(), 2, seed=7)
        assert G.order == 216
        assert conjugate_in_s9(G, hesse_group()) is not None
        assert G.is_k_transitive(2)


class TestLocalMonodromy:
    def test_triangle_stratum_group(self, q_labels):
        base = node_family(DELTA, DELTA, DELTA)
        G = local_monodromy(base, triangle_cubic(), radius=0.05,
                            probe_count=3, seed=11, labels=q_labels)
        assert G.order == 9
        assert G.orbits() == [(1, 4, 7), (2, 5, 8), (3, 6, 9)]
        assert G == PermGroup((G2, G3))

    def test_conic_line_stratum_group(self, q_labels):
        base = node_family(DELTA, DELTA, DELTA)
        target = node_family(0, 0, DELTA)
        G = local_monodromy(base, target, radius=0.05,
                            probe_count=3, seed=11, labels=q_labels)
        assert G.order == 9
        assert G.orbits() == [(1, 4, 7), (2, 5, 8), (3, 6, 9)]

    def test_cusp_stratum_group(self):
        G = local_monodromy(cusp_family(DELTA), cusp_family(0.0),
                            radius=0.05, probe_count=3, seed=11)
        assert G.order == 24
        assert G.orbit_sizes() == (8, 1)
        assert conjugate_in_s9(G, local_cusp_group()) is not None
