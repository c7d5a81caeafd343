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

import dataclasses
import json
import logging
from importlib import resources

import numpy as np
import pytest

from cubicflex.errors import CrossingError, MatchingError, SchemaError, TrackingError
from cubicflex.forms import (MONOMIALS, CubicForm, Pencil, cusp_family,
                             fermat_cubic, node_family, triangle_cubic)
from cubicflex.locus import (_FREE, hesse_base_points, inflection_points,
                             label_against)
from cubicflex.perms import (G1, G2, G3, G4, Perm, PermGroup,
                             conjugate_in_s9, hesse_group, local_cusp_group)
from cubicflex import track
from cubicflex.strata import pencil_crossings
from cubicflex.track import (Arc, Line, Loop, MonodromyResult, bypass_loop,
                             circle_loop, generate_global_monodromy,
                             line_bypass_permutations, local_monodromy,
                             track_loop)

DELTA = 0.05


def line_crossing_parameters(base, delta):
    """The finite crossing parameters s of the line base + s*delta."""
    s = [c.chart_value()
         for c in pencil_crossings(Pencil(base, delta)).crossings]
    return np.array([v for v in s if v is not None])


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


def check_diagnostics(result):
    assert result.max_residual < 1e-8
    assert result.min_pairwise_separation > track.PROXIMITY_GUARD
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

    @pytest.mark.parametrize("field", ["radius", "turn_start", "turn_end"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_arc_rejects_non_finite_fields(self, field, bad):
        fields = {"radius": 0.2, "turn_start": 0.0, "turn_end": 1.0,
                  field: bad}
        with pytest.raises(SchemaError, match="finite"):
            Arc(triangle_cubic(), unit_coeff(0, 3), **fields)


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

    def test_overflowing_junction_rejected(self):
        # the arc's points overflow to inf, so the junction distance is
        # NaN, which no comparison with the tolerance may let through
        f = fermat_cubic()
        arc = Arc(f, CubicForm(np.full(10, 10.0)), 1e308)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SchemaError, match="segment 0"):
            Loop(f, (arc,))

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

    def test_equality_and_hash_by_value(self):
        f, g = fermat_cubic(), triangle_cubic()
        line, arc = Line(f, g), Arc(f, g, 0.1)
        assert line == Line(fermat_cubic(), triangle_cubic())
        assert line != Line(g, f) and arc != Arc(f, g, 0.1, 0.0, 0.5)
        loop, again = circle_loop(f, g, 0.1), circle_loop(f, g, 0.1)
        assert loop == again and hash(loop) == hash(again)
        assert len({line, Line(f, g), arc, Arc(f, g, 0.1), loop,
                    again}) == 3

    def test_reversed_swaps_orientation(self, coordinate_loops):
        rev = coordinate_loops[0].reversed()
        arc = rev.segments[0]
        assert arc.turn_start == 1.0 and arc.turn_end == 0.0


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

    def test_two_hessians_per_attempted_step(self, coordinate_loops,
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
        # the mid-step and end-of-step cubics of each attempted step, one
        # per segment start, and the one that checks the labels at the
        # basepoint
        assert counts["hessian"] <= (2 * counts["attempts"]
                                     + len(loop.segments) + 1)
        # below the 24 of an Euler predictor, which took 21 steps in 22
        # attempts here
        assert counts["hessian"] < 24
        assert res.perm == G2
        assert res.steps_taken == 7

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

    def test_null_loop_with_a_tracked_return_is_identity(self):
        # the return is the same projective path, with coefficients scaled
        # by 2: it does not equal the reverse of the way out, so it is
        # tracked
        f = fermat_cubic()
        mid = CubicForm(0.8 * f.coeffs + 0.2 * node_family(0.3, 0.1, 0.2).coeffs)
        res = track_loop(Loop(f, (Line(f, mid), Line(2 * mid, 2 * f))))
        assert res.perm == Perm.identity()
        assert res.segments_retraced == 0
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

    def test_refused_steps_count_the_extra_corrections(self, monkeypatch):
        calls = {"correct": 0}
        correct = track._Tracker.correct

        def counted_correct(tracker, *args):
            calls["correct"] += 1
            return correct(tracker, *args)

        monkeypatch.setattr(track._Tracker, "correct", counted_correct)
        # out and back past the crossings s = 0.654, 0.663 and 1 of the
        # line to the nodal target, 0.0065 to 0.01 off each: the flexes
        # move fast there and the gate refuses steps
        f = fermat_cubic()
        w = CubicForm(f.coeffs + (1.2 + 0.012j)
                      * (nodal_target().coeffs - f.coeffs))
        res = track_loop(Loop(f, (Line(f, w), Line(w, f))))
        assert res.perm == Perm.identity()
        assert res.steps_refused > 0
        assert calls["correct"] == res.steps_taken + res.steps_refused
        assert 0 < res.min_step_taken <= track.INITIAL_STEP

    def test_refused_steps_on_a_tracked_return(self, monkeypatch):
        calls = {"correct": 0}
        correct = track._Tracker.correct

        def counted_correct(tracker, *args):
            calls["correct"] += 1
            return correct(tracker, *args)

        monkeypatch.setattr(track._Tracker, "correct", counted_correct)
        # the path of test_refused_steps_count_the_extra_corrections, with
        # a return scaled by 2, so that it is tracked, not retraced
        f = fermat_cubic()
        w = CubicForm(f.coeffs + (1.2 + 0.012j)
                      * (nodal_target().coeffs - f.coeffs))
        res = track_loop(Loop(f, (Line(f, w), Line(2 * w, 2 * f))))
        assert res.perm == Perm.identity()
        assert res.segments_retraced == 0
        assert res.steps_refused > 0
        assert calls["correct"] == res.steps_taken + res.steps_refused
        assert 0 < res.min_step_taken <= track.INITIAL_STEP

    def test_every_row_is_pinned_at_its_largest_coordinate(self,
                                                           monkeypatch):
        accept = track._Tracker.accept
        charts = []

        def checked_accept(tracker, *args):
            accept(tracker, *args)
            Z, rows = tracker.Z, np.arange(len(tracker.Z))
            assert np.array_equal(tracker.chart,
                                  np.argmax(np.abs(Z), axis=1))
            assert np.abs(Z[rows, tracker.chart] - 1.0).max() < 1e-15
            assert np.array_equal(tracker.eqs.free, _FREE[tracker.chart])
            charts.append(tracker.chart.copy())

        monkeypatch.setattr(track._Tracker, "accept", checked_accept)
        track_loop(bypass_loop(fermat_cubic(), nodal_target(), 0.02))
        # the rule was exercised: some row changed its chart on the way
        assert any(not np.array_equal(a, b)
                   for a, b in zip(charts, charts[1:]))

    def test_few_refused_steps_on_the_bypasses_of_a_line(self, monkeypatch):
        results = []
        tracked = track.track_loop

        def recorded(*args, **kwargs):
            results.append(tracked(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(track, "track_loop", recorded)
        rng = np.random.default_rng(0)
        delta = CubicForm(rng.standard_normal(10)
                          + 1j * rng.standard_normal(10))
        perms = line_bypass_permutations(fermat_cubic(), delta)
        assert [p.cycle_type() for p in perms] == [(3, 3, 1, 1, 1)] * 12
        prod = Perm.identity()
        for p in perms:
            prod = prod * p
        assert prod == Perm.identity()
        taken = sum(r.steps_taken for r in results)
        refused = sum(r.steps_refused for r in results)
        assert refused < 0.15 * (taken + refused)


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
        # out past two other crossings on detour arcs, once around the
        # target, and back the same way
        assert kinds == ["Line", "Arc"] * 5 + ["Line"]
        circle = loop.segments[5]
        assert circle.radius == 0.02
        assert (circle.turn_start, circle.turn_end) == (0.0, 1.0)
        back = track._reversed_segments(loop.segments[6:])
        assert ([seg.to_json_dict() for seg in back]
                == [seg.to_json_dict() for seg in loop.segments[:5]])

    def test_route_clears_other_crossings(self):
        base, target = fermat_cubic(), nodal_target()
        delta = target.coeffs - base.coeffs
        roots = line_crossing_parameters(base, CubicForm(delta))
        star = np.argmin(np.abs(roots - 1.0))
        loop = bypass_loop(base, target, 0.02)
        ts = np.linspace(0.0, 1.0, 2001)
        route = np.concatenate([
            (np.array([seg.value(t) for t in ts]) - base.coeffs) @ delta.conj()
            for seg in loop.segments]) / np.vdot(delta, delta)
        for k, o in enumerate(roots):
            if k == star:
                continue
            c = min(0.02, track.DETOUR_SHARE
                    * np.sort(np.abs(roots - o))[1])
            assert np.abs(route - o).min() >= c * (1 - 1e-9)
        res = track_loop(loop)
        assert res.min_pairwise_separation > 0.1

    def test_detour_keeps_the_side_of_the_straight_segment(self):
        base, direction = fermat_cubic(), triangle_cubic()

        def detour_midpoint(o):
            segs = track._bypass_segments(base, direction, 1.0, 0.02,
                                          np.array([o]))
            v = segs[1].value(0.5) - base.coeffs
            return np.vdot(direction.coeffs, v) / np.vdot(direction.coeffs,
                                                          direction.coeffs)

        # o above the segment: pass below it, and the reverse
        assert detour_midpoint(0.5 + 1e-3j).imag < 0
        assert detour_midpoint(0.5 - 1e-3j).imag > 0
        # on the segment itself: the (angle, |s|) order counts the nearer
        # crossing as the earlier one, as if o lay just clockwise of the
        # ray, so the route keeps o on its right
        assert detour_midpoint(0.5 + 0j).imag > 0

    def test_detour_reaching_an_end_raises(self):
        base, direction = fermat_cubic(), triangle_cubic()
        for o in (0.005j, 0.97 + 0.001j):
            with pytest.raises(CrossingError, match="too close"):
                track._bypass_segments(base, direction, 1.0, 0.02,
                                       np.array([o]))

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
        res = track_loop(again)
        assert res.perm.cycle_type() == (3, 3, 1, 1, 1)
        # JSON keeps every coefficient's bytes, so the way back still
        # matches the way out
        assert res.segments_retraced == 5

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


def first_rng0_line():
    """The first line of default_rng(0) through the Fermat cubic, its
    crossing parameters and the bypass radius line_bypass_permutations
    takes for it."""
    rng = np.random.default_rng(0)
    delta = CubicForm(rng.standard_normal(10) + 1j * rng.standard_normal(10))
    roots = line_crossing_parameters(fermat_cubic(), delta)
    return delta, roots, min(track._lasso_radius(roots, roots), 0.05)


def orthogonal_shift(z, t):
    """z moved by a chordal distance of about t, orthogonally to z."""
    w = np.array([1.0, 2.0j, -1.0])
    w = w - np.vdot(z, w) / np.vdot(z, z) * z
    return z + t * np.linalg.norm(z) / np.linalg.norm(w) * w


class TestRetrace:
    def test_bench_style_bypasses_retrace_their_way_back(self):
        # out on a Line, once around on an Arc, back on the reversed Line
        base = fermat_cubic()
        delta, roots, radius = first_rng0_line()
        for s_star in roots:
            e = s_star / abs(s_star)
            stop = CubicForm(base.coeffs + (s_star - radius * e)
                             * delta.coeffs)
            out = Line(base, stop)
            circle = Arc(CubicForm(base.coeffs + s_star * delta.coeffs),
                         CubicForm(-e * delta.coeffs), radius, 0.0, 1.0)
            res = track_loop(Loop(base, (out, circle, Line(stop, base))))
            assert res.perm.cycle_type() == (3, 3, 1, 1, 1)
            assert res.segments_retraced == 1

    def test_bypass_retraces_each_outbound_segment(self):
        # k detours make 2k + 1 segments on the way out
        base = fermat_cubic()
        delta, roots, radius = first_rng0_line()
        loops = [bypass_loop(base, nodal_target(), 0.02)]
        loops += [Loop(base, track._bypass_segments(
            base, delta, complex(roots[k]), radius, np.delete(roots, k)))
            for k in (0, 10)]
        detours = [sum(isinstance(seg, Arc) for seg in loop.segments) // 2
                   for loop in loops]
        assert detours == [2, 0, 1]
        for loop, k in zip(loops, detours):
            assert track_loop(loop).segments_retraced == 2 * k + 1

    def test_same_permutations_retraced_or_tracked(self, monkeypatch):
        results = []
        tracked = track.track_loop

        def recorded(*args, **kwargs):
            results.append(tracked(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(track, "track_loop", recorded)
        base = fermat_cubic()
        delta = first_rng0_line()[0]
        nodal = bypass_loop(base, nodal_target(), 0.02)

        def run():
            results.clear()
            perms = line_bypass_permutations(base, delta)
            perms.append(track.track_loop(nodal).perm)
            return perms, [r.segments_retraced for r in results]

        retraced, counts = run()
        assert len(retraced) == 13 and min(counts) >= 1
        # segments compare by identity, so every segment is tracked
        for cls in (track.Line, track.Arc):
            monkeypatch.setattr(cls, "__eq__", object.__eq__)
            monkeypatch.setattr(cls, "__hash__", object.__hash__)
        again, counts = run()
        assert again == retraced
        assert counts == [0] * 13

    @pytest.mark.parametrize("gates, raises", [(0.5, False), (3.0, True)])
    def test_lift_end_moved_beyond_the_gate_raises(self, monkeypatch, gates,
                                                   raises):
        # the first end row of the recorded lift moves by a share of the
        # matching radius, SEPARATION_GATE times the separation
        retrace = track._Tracker.retrace

        def moved(tracker, ends, starts):
            ends = ends.copy()
            ends[0] = orthogonal_shift(ends[0], gates * track.SEPARATION_GATE
                                       * tracker.separation)
            return retrace(tracker, ends, starts)

        monkeypatch.setattr(track._Tracker, "retrace", moved)
        loop = bypass_loop(fermat_cubic(), nodal_target(), 0.02)
        if raises:
            with pytest.raises(TrackingError, match="retraced segment"):
                track_loop(loop)
        else:
            assert track_loop(loop).perm.cycle_type() == (3, 3, 1, 1, 1)


class TestGlobalMonodromy:
    def test_line_past_near_crossings(self):
        # the straight bypass segments of this line pass within 0.06 and
        # 0.01 bypass radii of other crossings, and tracked along them one
        # bypass came back (6,1,1,1)
        rng = np.random.default_rng(3)
        for _ in range(3):
            delta = CubicForm(rng.standard_normal(10)
                              + 1j * rng.standard_normal(10))
        perms = line_bypass_permutations(fermat_cubic(), delta)
        assert [p.cycle_type() for p in perms] == [(3, 3, 1, 1, 1)] * 12
        prod = Perm.identity()
        for p in perms:
            prod = prod * p
        assert prod == Perm.identity()

    def test_line_with_near_crossings(self):
        # two crossings of this line lie 1.0e-3 apart; one circle around
        # both would come back (6,2,1)
        rng = np.random.default_rng(90)
        delta = CubicForm(rng.standard_normal(10)
                          + 1j * rng.standard_normal(10))
        roots = line_crossing_parameters(fermat_cubic(), delta)
        gaps = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert 0.9e-3 < gaps.min() < 1.1e-3
        perms = line_bypass_permutations(fermat_cubic(), delta)
        assert [p.cycle_type() for p in perms] == [(3, 3, 1, 1, 1)] * 12
        prod = Perm.identity()
        for p in perms:
            prod = prod * p
        assert prod == Perm.identity()

    def test_bypass_breaking_the_law_raises(self, monkeypatch):
        # a B1 bypass of multiplicity 1 that comes back as the identity
        tracked, calls = track.track_loop, []

        def one_identity(loop, labels=None):
            res = tracked(loop, labels)
            calls.append(loop)
            if len(calls) == 5:
                return dataclasses.replace(res, perm=Perm.identity())
            return res

        monkeypatch.setattr(track, "track_loop", one_identity)
        delta = first_rng0_line()[0]
        with pytest.raises(TrackingError, match="bypass law broken: the "
                           "bypass of the B1 crossing at s = "):
            line_bypass_permutations(fermat_cubic(), delta)
        assert len(calls) == 5

    def test_broken_product_raises(self, monkeypatch):
        # one B1 bypass comes back inverted: its cycle type is still
        # (3, 3, 1, 1, 1), so only the product law can catch it
        tracked, calls = track.track_loop, []

        def one_inverted(loop, labels=None):
            res = tracked(loop, labels)
            calls.append(loop)
            if len(calls) == 5:
                return dataclasses.replace(res, perm=res.perm.inverse())
            return res

        monkeypatch.setattr(track, "track_loop", one_inverted)
        delta = first_rng0_line()[0]
        with pytest.raises(TrackingError, match=r"product law broken: the "
                           r"ordered product of the line's 12 bypasses is "
                           r"\(\d"):
            line_bypass_permutations(fermat_cubic(), delta)
        assert len(calls) == 12

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

    def test_triple_line_never_gives_the_trivial_group(self, caplog):
        # the torus diag(1, s, s) fixes x^3 and, as s -> 0, shrinks the
        # chart of cubics with a nonzero x^3 coefficient onto it, keeping
        # the discriminant; so every loop there is freely homotopic into
        # any ball about x^3, and the local group is the whole group of
        # order 216.  Every probe line answers: the discriminant's roots
        # are accurate near x^3, where its 8 crossings cluster
        S = CubicForm.from_monomials({(3, 0): 1})
        base = CubicForm(S.coeffs / np.abs(S.coeffs).max()
                         + 0.01 * fermat_cubic().coeffs)
        with caplog.at_level(logging.WARNING, logger="cubicflex.track"):
            G = local_monodromy(base, S, radius=0.01, probe_count=3, seed=11)
        assert caplog.records == []
        assert G.order == 216


def bundled_loop(name):
    data = resources.files("cubicflex") / "data" / f"{name}.json"
    return Loop.from_json_dict(json.loads(data.read_text()))


class TestStepGrowth:
    def test_predictor_is_fourth_order(self):
        # on a line from the Fermat cubic, halving the step shrinks the
        # predictor's miss by about 2^5; an Euler predictor's by 2^2
        base = fermat_cubic()
        seg = Line(base, CubicForm(np.random.default_rng(0)
                                   .standard_normal(10)))
        tracker = track._Tracker(
            [ip.point.coords for ip in inflection_points(base).points])
        k1 = tracker.velocity(track._PathPoint(seg, 0.0), tracker.Z)
        misses = []
        for ds in (0.04, 0.02):
            end = track._PathPoint(seg, ds)
            Zp = tracker.predict(k1, track._PathPoint(seg, ds / 2), end, ds)
            Z, _ = tracker.correct(end, Zp)
            misses.append(track._row_distances(Zp, Z).max())
        assert misses[1] > 1e-10
        assert misses[0] >= 16 * misses[1]

    def test_same_permutations_as_fixed_step_cap(self, monkeypatch):
        # circles around one crossing, off centre, and bypasses on two
        # random lines through the Fermat cubic, and the bundled circles;
        # the reference run caps every step at INITIAL_STEP
        rng = np.random.default_rng(2024)
        base = fermat_cubic()
        loops = []
        for _ in range(2):
            delta = CubicForm(rng.standard_normal(10)
                              + 1j * rng.standard_normal(10))
            roots = line_crossing_parameters(base, delta)
            gaps = np.abs(roots[:, None] - roots[None, :])
            np.fill_diagonal(gaps, np.inf)
            for k in rng.choice(len(roots), 3, replace=False):
                rho = 0.3 * gaps[k].min()
                centre = roots[k] + 0.5 * rho * np.exp(2j * np.pi
                                                       * rng.random())
                loops.append(circle_loop(
                    CubicForm(base.coeffs + centre * delta.coeffs), delta,
                    rho))
            radius = min(gaps.min() / 3.2, np.abs(roots).min() / 3.2, 0.05)
            for k in rng.choice(len(roots), 2, replace=False):
                loops.append(Loop(base, track._bypass_segments(
                    base, delta, complex(roots[k]), radius,
                    np.delete(roots, k))))
        labels = [None] * len(loops)
        for name in ("loop_c1", "loop_c2", "loop_c3"):
            loops.append(bundled_loop(name))
            labels.append(label_against(
                inflection_points(loops[-1].basepoint), hesse_base_points()))
        loops.append(bundled_loop("cusp_circle"))
        labels.append(None)
        grown = [track_loop(loop, lab) for loop, lab in zip(loops, labels)]
        monkeypatch.setattr(track, "GROWTH_CEILING", track.INITIAL_STEP)
        fixed = [track_loop(loop, lab) for loop, lab in zip(loops, labels)]
        assert [r.perm for r in grown] == [r.perm for r in fixed]
        assert all(r.perm.cycle_type() == (3, 3, 1, 1, 1)
                   for r in grown[:-4])
        assert [r.perm for r in grown[-4:-1]] == [G2, G3, G4]
        assert grown[-1].perm.cycle_type() == (6, 2, 1)
        assert sum(r.steps_taken for r in grown) \
            < sum(r.steps_taken for r in fixed)
