"""Numerical monodromy: continuation of inflection points along loops.

A loop in coefficient space (piecewise lines and circular arcs) is
discretized adaptively; the nine inflection points of the moving cubic
are carried in lockstep by a classical fourth-order Runge-Kutta
predictor on the implicit-function derivative of {F = 0, H = 0} and a
Newton corrector, both solved by the shared batched core in newton.py.
Matching the transported points against the initial labels yields the
monodromy permutation.

Step control.  The tracker's settings are the module constants named
here, the same for every loop.  A step stands only when the corrector
meets NEWTON_TOL within NEWTON_MAX_ITERS iterations, the points stay
farther apart than PROXIMITY_GUARD, and the corrector moves no point by
more than SEPARATION_GATE times the least pairwise separation before
and after the step; a point that had jumped to another sheet would have
to move that far.  The gate's ratio q, the largest move over that
bound, sets the next step: the predictor misses by O(step^5), so the
step is scaled by (GATE_TARGET / q)^(1/5), by at most 4 after an
accepted step and up to GROWTH_CEILING of the segment, and by 0.1 to
0.5 after a refused one.  A step whose corrector fails or whose points
come within PROXIMITY_GUARD is halved.  Each segment starts at
min(INITIAL_STEP, step_cap()), and a step below MIN_STEP raises.  After
every accepted step each point is pinned at 1 in its largest coordinate,
so no pinned coordinate tends to 0 along the path.

Retraced segments.  Within one loop, the lift of each tracked segment,
its pinned points at start and end, is recorded.  A later segment that
equals its reverse, as segments compare by value (a Line with swapped
end points, an Arc with the same centre, direction and radius and
swapped turns), is not tracked: path lifting is unique, so each point
moves to the start of the sheet whose end it matches within
SEPARATION_GATE times the least separation, and a failed match raises
TrackingError.  steps_taken
counts tracked steps only; no lift outlives its loop.

Bypass routes.  The crossings of a line through the basepoint, their
parameters, multiplicities and labels, are those of
strata.pencil_crossings, so a line whose crossings it cannot separate
raises CrossingError.  The bypass of a crossing runs straight toward it,
once around it, and back.  Where the straight segment comes close to
another crossing it detours on a small arc around it, on the side it
already passes it, so the route stays homotopic to the straight one and
the lassos of a line stay an ordered system whose product is the
identity.  The bypass of a B1 crossing of multiplicity 1 must give cycle
type (3, 3, 1, 1, 1), and the ordered product of the bypasses of a whole
line must be the identity, else TrackingError.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (CrossingError, DegenerateInputError, MatchingError,
                     NumericalError, SchemaError, TrackingError)
from . import newton
from .forms import (CubicForm, Pencil, eval_coeffs,
                    hessian_coeffs, hessian_directional, monomial_values,
                    proj_distance)
from .locus import (FlexEquations, InflectionPoint, InflectionSet,
                    flex_gradients, inflection_points, nearest_labels)
from .perms import Perm, PermGroup
from .strata import StratumLabel, pencil_crossings

logger = logging.getLogger(__name__)

# each segment starts at this step, a step below MIN_STEP raises
INITIAL_STEP = 1e-2
MIN_STEP = 1e-7
# the corrector's scaled residual tolerance and iteration budget
NEWTON_TOL = 1e-11
NEWTON_MAX_ITERS = 12
# a step stands only if the points stay farther apart than this
PROXIMITY_GUARD = 1e-4
# a step stands only if the corrector moves no point by more than this
# share of the least flex separation before and after it
SEPARATION_GATE = 0.02
# steps grow up to this share of a segment
GROWTH_CEILING = 0.25
# the step controller aims the gate's ratio q at this value, a margin
# below the refusal at q = 1
GATE_TARGET = 0.3
ARC_TURN_CAP = 1.0 / 64.0
# a bypass detours around another crossing o at up to this share of the
# distance from o to its nearest other crossing; below 1/2, the disks of
# two detours are disjoint, so two detours never overlap
DETOUR_SHARE = 0.45
CLOSURE_TOL = 1e-12


# ---------------------------------------------------------------------------
# path geometry

@dataclass(frozen=True)
class Line:
    """Straight segment a(s) = start + s (end - start), s in [0, 1]."""

    start: CubicForm
    end: CubicForm

    def value(self, s):
        return (1 - s) * self.start.coeffs + s * self.end.coeffs

    def velocity(self, s):
        return self.end.coeffs - self.start.coeffs

    def step_cap(self):
        return 1.0

    def to_json_dict(self):
        return {"kind": "line", "from": self.start.to_json_dict(),
                "to": self.end.to_json_dict()}


@dataclass(frozen=True)
class Arc:
    """Circular arc a(s) = center + radius e^{2 pi i tau(s)} direction,
    where tau(s) interpolates turn_start -> turn_end over s in [0, 1]."""

    center: CubicForm
    direction: CubicForm
    radius: float
    turn_start: float = 0.0
    turn_end: float = 1.0

    def __post_init__(self):
        if not np.isfinite([self.radius, self.turn_start,
                            self.turn_end]).all():
            raise SchemaError("arc radius and turns must be finite")
        if not self.radius > 0:
            raise SchemaError("arc radius must be positive")
        if self.turn_end == self.turn_start:
            raise SchemaError("arc must subtend a nonzero turn")

    def _tau(self, s):
        return self.turn_start + s * (self.turn_end - self.turn_start)

    def value(self, s):
        phase = np.exp(2j * np.pi * self._tau(s))
        return self.center.coeffs + self.radius * phase * self.direction.coeffs

    def velocity(self, s):
        dtau = self.turn_end - self.turn_start
        phase = np.exp(2j * np.pi * self._tau(s))
        return (2j * np.pi * dtau * self.radius * phase
                * self.direction.coeffs)

    def step_cap(self):
        return ARC_TURN_CAP / abs(self.turn_end - self.turn_start)

    def to_json_dict(self):
        return {"kind": "arc", "center": self.center.to_json_dict(),
                "direction": self.direction.to_json_dict(),
                "radius": float(self.radius),
                "turn_start": float(self.turn_start),
                "turn_end": float(self.turn_end)}


def _segment_from_json(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise SchemaError("segment document must have a 'kind' key")
    if d["kind"] == "line":
        return Line(CubicForm.from_json_dict(d["from"]),
                    CubicForm.from_json_dict(d["to"]))
    if d["kind"] == "arc":
        try:
            return Arc(CubicForm.from_json_dict(d["center"]),
                       CubicForm.from_json_dict(d["direction"]),
                       float(d["radius"]), float(d["turn_start"]),
                       float(d["turn_end"]))
        except KeyError as exc:
            raise SchemaError(f"arc segment missing field {exc}") from exc
    raise SchemaError(f"unknown segment kind {d['kind']!r}")


def _reversed_segments(segments):
    """The same path traversed backwards."""
    return tuple(Line(seg.end, seg.start) if isinstance(seg, Line)
                 else Arc(seg.center, seg.direction, seg.radius,
                          seg.turn_end, seg.turn_start)
                 for seg in reversed(segments))


@dataclass(frozen=True)
class Loop:
    """A closed piecewise path of cubics, starting and ending at
    basepoint; junctions must match to projective tolerance 1e-12."""

    basepoint: CubicForm
    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, 'segments', segs)
        if not segs:
            raise SchemaError("loop needs at least one segment")
        prev = self.basepoint.coeffs
        for k, seg in enumerate(segs):
            if not proj_distance(prev, seg.value(0.0)) <= CLOSURE_TOL:
                raise SchemaError(
                    f"loop segment {k} does not start where the previous "
                    "one ends")
            prev = seg.value(1.0)
        if not proj_distance(prev, self.basepoint.coeffs) <= CLOSURE_TOL:
            raise SchemaError("loop is not closed")

    def reversed(self):
        return Loop(self.basepoint, _reversed_segments(self.segments))

    def to_json_dict(self):
        return {"basepoint": self.basepoint.to_json_dict(),
                "segments": [s.to_json_dict() for s in self.segments]}

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict) or "basepoint" not in d \
                or "segments" not in d:
            raise SchemaError(
                "loop document must have 'basepoint' and 'segments'")
        return cls(CubicForm.from_json_dict(d["basepoint"]),
                   tuple(_segment_from_json(s) for s in d["segments"]))


def circle_loop(center, direction, radius):
    """A full-circle loop a(t) = center + radius e^{2 pi i t} direction,
    based at its t = 0 point."""
    arc = Arc(center, direction, float(radius), 0.0, 1.0)
    return Loop(CubicForm(arc.value(0.0)), (arc,))


@dataclass(frozen=True)
class MonodromyResult:
    perm: Perm
    steps_taken: int
    min_pairwise_separation: float
    max_residual: float
    steps_refused: int
    min_step_taken: float
    segments_retraced: int


# ---------------------------------------------------------------------------
# lockstep continuation state

def _row_distances(P, Q):
    """Chordal distance between each projective row of P and the same
    row of Q, from the 2x2 minors as in forms.proj_distance."""
    i, j = [0, 0, 1], [1, 2, 2]
    minors = P[:, i] * Q[:, j] - P[:, j] * Q[:, i]
    return (np.linalg.norm(minors, axis=1)
            / (np.linalg.norm(P, axis=1) * np.linalg.norm(Q, axis=1)))


def _pairwise_min_distance(Z):
    """Minimum pairwise chordal distance among projective rows of Z."""
    norms = np.linalg.norm(Z, axis=1)
    G = (Z / norms[:, None]) @ (Z / norms[:, None]).conj().T
    m = 1.0 - np.minimum(np.abs(G) ** 2, 1.0)
    np.fill_diagonal(m, np.inf)
    return float(np.sqrt(max(m.min(), 0.0)))


class _PathPoint:
    """What the predictor and corrector read of the cubic at parameter s
    of a segment."""

    def __init__(self, seg, s):
        a = seg.value(s)
        h = hessian_coeffs(a)
        adot = seg.velocity(s)
        # d/ds of the coefficients of F and H, as columns
        self.rates = np.array([adot, hessian_directional(a, adot)]).T
        self.grads = flex_gradients(a, h)
        self.scale = np.array([np.abs(a).max(), np.abs(h).max()])


class _Tracker:
    """Nine projective points carried across one coefficient path."""

    def __init__(self, Z):
        self.Z = np.array(Z, dtype=complex)              # (9, 3)
        self.chart = np.full(len(self.Z), -1)
        self.pin()
        self.steps = self.refused = 0
        self.min_step_taken = np.inf
        self.max_residual = 0.0
        self.separation = _pairwise_min_distance(self.Z)
        self.min_separation = self.separation

    def velocity(self, p, Z):
        """dZ/ds of points Z on the cubic of the path point p, from the
        implicit-function derivative of {F = 0, H = 0}: -J^-1 times the
        s-derivatives of F and H.  The pinned coordinates stay fixed."""
        _, J = self.eqs.gradients(p.grads, Z)
        V = np.zeros_like(Z)
        V[self.eqs.rows, self.eqs.free] = -newton.linear_solve(
            J, monomial_values(Z, 3) @ p.rates)
        return V

    def predict(self, k1, mid, end, ds):
        """Classical fourth-order Runge-Kutta step of length ds from the
        points self.Z, with velocity k1 there and the path points mid and
        end at ds / 2 and ds."""
        Z = self.Z
        # a near-singular Jacobian can send rows to overflow or NaN; the
        # corrector refuses them
        with np.errstate(invalid='ignore', over='ignore'):
            k2 = self.velocity(mid, Z + ds / 2 * k1)
            k3 = self.velocity(mid, Z + ds / 2 * k2)
            k4 = self.velocity(end, Z + ds * k3)
            return Z + ds / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    def correct(self, p, Zp):
        """Newton iteration of all points on {F = 0, H = 0} at the path
        point p; returns corrected coordinates or None."""
        x0, lift, system = self.eqs.system(p.grads, Zp)

        def scaled(x):
            # residuals relative to the coefficient size and |z|^3; the
            # pinned coordinate is 1
            zs = np.maximum(np.abs(x).max(axis=1), 1.0) ** 3
            s = p.scale * zs[:, None]
            r, J = system(x)
            return r / s, J / s[:, :, None]

        x, converged, r, _ = newton.solve(scaled, x0, NEWTON_MAX_ITERS,
                                          tol=NEWTON_TOL)
        # a row stopped by a vanishing step still has to meet the tolerance
        res = np.abs(r).max()
        if not converged.all() or res > NEWTON_TOL:
            return None, None
        return lift(x), float(res)

    def accept(self, Z, res, sep, step):
        self.Z = Z
        self.steps += 1
        self.min_step_taken = min(self.min_step_taken, step)
        self.max_residual = max(self.max_residual, res)
        self.separation = sep
        self.min_separation = min(self.min_separation, sep)
        self.pin()

    def pin(self):
        """Pin each row at 1 in its largest coordinate, as ProjPoint does."""
        chart = np.argmax(np.abs(self.Z), axis=1)
        moved = chart != self.chart
        if moved.any():
            self.chart, self.eqs = chart, FlexEquations(chart)
            self.Z[moved] /= self.Z[moved, chart[moved]][:, None]

    def retrace(self, ends, starts):
        """Cross the reverse of a segment tracked from rows starts to rows
        ends: each row moves to the start of the sheet it matches."""
        try:
            sheets = nearest_labels(self.Z, ends, range(len(ends)),
                                    radius=SEPARATION_GATE * self.separation)
        except MatchingError as exc:
            raise TrackingError(f"retraced segment: {exc}") from exc
        self.Z = starts[sheets]
        self.pin()
        self.separation = _pairwise_min_distance(self.Z)

    def run_segment(self, seg):
        s = 0.0
        # the velocity at the accepted points survives a refused step
        k1 = self.velocity(_PathPoint(seg, s), self.Z)
        ds = min(INITIAL_STEP, seg.step_cap())
        while s < 1.0 - 1e-15:
            step = min(ds, 1.0 - s)
            mid, end = _PathPoint(seg, s + step / 2), _PathPoint(seg, s + step)
            Zp = self.predict(k1, mid, end, step)
            Z, res = self.correct(end, Zp)
            sep = _pairwise_min_distance(Z) if Z is not None else 0.0
            if sep <= PROXIMITY_GUARD:
                # the corrector failed, or points came too close
                ds = step / 2.0
            else:
                q = _row_distances(Zp, Z).max() / (
                    SEPARATION_GATE * min(self.separation, sep))
                # the predictor misses by O(step^5)
                gain = (GATE_TARGET / q) ** 0.2 if q > 0 else np.inf
                if q <= 1.0:
                    s += step
                    # the corrector's end point starts the next step
                    self.accept(Z, res, sep, step)
                    k1 = self.velocity(end, self.Z)
                    ds = min(step * min(4.0, gain), GROWTH_CEILING)
                    continue
                ds = step * min(max(gain, 0.1), 0.5)
            self.refused += 1
            if ds < MIN_STEP:
                raise TrackingError(
                    "path hits discriminant: step size underflow at "
                    f"segment parameter {s:.6f}")


# ---------------------------------------------------------------------------
# monodromy of a loop

def _positional_labels(infl):
    pts = tuple(InflectionPoint(ip.point, ip.multiplicity, k + 1)
                for k, ip in enumerate(infl.points))
    return InflectionSet(pts)


def _validate_basepoint(loop, labels):
    base = loop.basepoint
    if labels is None:
        try:
            labels = _positional_labels(inflection_points(base))
        except NumericalError as exc:
            raise TrackingError(f"basepoint not smooth: {exc}") from exc
    pts = labels.points
    if len(pts) != 9 or any(ip.multiplicity != 1 for ip in pts) \
            or any(ip.label is None for ip in pts) \
            or sorted(ip.label for ip in pts) != list(range(1, 10)):
        raise TrackingError(
            "basepoint not smooth: need nine simple labeled points")
    a = base.coeffs
    h = hessian_coeffs(a)
    for ip in pts:
        z = ip.point.coords
        zs = max(np.abs(z).max(), 1.0) ** 3
        if abs(eval_coeffs(a, z)) > 1e-8 * np.abs(a).max() * zs \
                or abs(eval_coeffs(h, z)) > 1e-8 * np.abs(h).max() * zs:
            raise TrackingError(
                "basepoint not smooth: labeled points do not satisfy the "
                "inflection equations")
    return labels


def track_loop(loop, labels=None):
    """Carry the nine labeled inflection points around a closed loop and
    return the induced permutation with diagnostics."""
    labels = _validate_basepoint(loop, labels)
    ordered = sorted(labels.points, key=lambda ip: ip.label)
    tracker = _Tracker(np.array([ip.point.coords for ip in ordered]))
    if tracker.separation <= PROXIMITY_GUARD:
        raise TrackingError(
            "basepoint not smooth: inflection points closer than the "
            "proximity guard")
    lifts, retraced = {}, 0
    for seg in loop.segments:
        lift = lifts.get(seg)
        if lift is not None:
            tracker.retrace(*lift)
            retraced += 1
            continue
        starts = tracker.Z
        tracker.run_segment(seg)
        # the reverse's lift, from these end rows back to these start
        # rows; run_segment rebinds tracker.Z and never writes into it
        lifts[_reversed_segments((seg,))[0]] = (tracker.Z, starts)
    # row k of Z is the sheet that started at the k-th smallest label
    perm = Perm(nearest_labels(tracker.Z,
                               [ip.point.coords for ip in ordered],
                               [ip.label for ip in ordered]))
    return MonodromyResult(perm=perm, steps_taken=tracker.steps,
                           min_pairwise_separation=tracker.min_separation,
                           max_residual=tracker.max_residual,
                           steps_refused=tracker.refused,
                           min_step_taken=tracker.min_step_taken,
                           segments_retraced=retraced)


# ---------------------------------------------------------------------------
# bypass construction

def _line_crossings(basepoint, direction):
    """The crossings of the line basepoint + s*direction at finite s, as
    strata.pencil_crossings finds them, their parameters s, and the
    multiplicity at s = infinity."""
    pc = pencil_crossings(Pencil(basepoint, direction))
    finite = [c for c in pc.crossings if c.parameter[0] != 0]
    roots = np.array([c.parameter[1] for c in finite], dtype=complex)
    return finite, roots, pc.infinite_multiplicity


def _bypass_segments(basepoint, direction, s_star, radius, others):
    """Out from s = 0 toward the crossing s_star of the line basepoint +
    s*direction, once around it on a circle of the given radius, and back
    along the same route.

    The outbound segment detours around each other crossing o it passes
    closer than c = min(radius, DETOUR_SHARE * distance from o to its
    nearest other crossing), on an arc of radius c on the side the
    straight segment passes o (the sign of Im(o / s_star)).  The route is
    then homotopic to the straight one.  On an exact tie the arc keeps o
    on its right, as the (angle, |s|) order counts the nearer of two
    crossings on one ray as the earlier one."""
    e = s_star / abs(s_star)
    s_stop = s_star - radius * e
    length = abs(s_stop)
    crossings = np.append(others, s_star)
    detours = []
    for o in others:
        c = min(radius, DETOUR_SHARE * np.sort(np.abs(crossings - o))[1])
        w = o / e                   # the segment runs from 0 to length
        if abs(w.imag) >= c:
            continue
        half = np.sqrt(c * c - w.imag * w.imag)
        if w.real + half <= 0 or w.real - half >= length:
            continue
        if w.real - half <= 0 or w.real + half >= length:
            raise CrossingError(
                "crossings too close: a detour around another crossing "
                "would reach an end of the bypass segment")
        detours.append((w.real - half, o, c, w.imag))
    detours.sort(key=lambda d: d[0])

    def form(s):
        return CubicForm(basepoint.coeffs + s * direction.coeffs)

    arc_dir = CubicForm(e * direction.coeffs)
    outbound = []
    here = basepoint
    for _, o, c, offset in detours:
        phi = np.arcsin(abs(offset) / c) / (2 * np.pi)
        # o on the left of the segment: pass below it, counterclockwise
        turns = (-0.5 + phi, -phi) if offset > 0 else (0.5 - phi, phi)
        arc = Arc(form(o), arc_dir, c, *turns)
        outbound += [Line(here, CubicForm(arc.value(0.0))), arc]
        here = CubicForm(arc.value(1.0))
    outbound.append(Line(here, form(s_stop)))
    circle = Arc(form(s_star), CubicForm(-arc_dir.coeffs), radius, 0.0, 1.0)
    return (*outbound, circle, *_reversed_segments(outbound))


def bypass_loop(basepoint, target, radius):
    """The standard bypass: toward the discriminant crossing nearest the
    target, a full circle of the given parameter radius around it, and
    back the same way, detouring around other crossings near the
    straight segment (_bypass_segments)."""
    if proj_distance(basepoint.coeffs, target.coeffs) < 1e-10:
        raise CrossingError("no crossing found: target coincides with "
                            "the basepoint")
    direction = CubicForm(target.coeffs - basepoint.coeffs)
    _, roots, _ = _line_crossings(basepoint, direction)
    if len(roots) == 0:
        raise CrossingError("no crossing found on the line to the target")
    order = np.argsort(np.abs(roots - 1.0))
    s_star = complex(roots[order[0]])
    if abs(s_star - 1.0) > 0.45:
        raise CrossingError(
            "no crossing found: nearest discriminant parameter is "
            f"{abs(s_star - 1.0):.3f} away from the target")
    others = np.delete(roots, order[0])
    if any(abs(r - s_star) < 3 * radius for r in others):
        raise CrossingError(
            "crossings too close: another discriminant parameter lies "
            f"within {3 * radius} of the target crossing")
    if abs(s_star) < 3 * radius:
        raise CrossingError(
            "crossings too close: the crossing sits within the bypass "
            "radius of the basepoint")
    return Loop(basepoint, _bypass_segments(basepoint, direction,
                                            s_star, radius, others))


def line_bypass_permutations(basepoint, direction, labels=None):
    """Track the bypasses of every discriminant crossing on the line
    basepoint + s*direction, in path order (sorted by the argument of
    the crossing parameter).  Returns the list of permutations.

    The bypasses of a whole line make an ordered system of lassos around
    all its crossings, so their ordered product must be the identity,
    else TrackingError."""
    crossings, roots, infinite = _line_crossings(basepoint, direction)
    if infinite:
        raise CrossingError(
            "line has a crossing at infinite parameter; pick another")
    perms = _lasso_permutations(basepoint, direction, crossings, roots,
                                range(len(roots)),
                                min(_lasso_radius(roots, roots), 0.05),
                                labels)
    product = Perm.identity()
    for p in perms:
        product = product * p
    if product != Perm.identity():
        raise TrackingError(
            f"product law broken: the ordered product of the line's "
            f"{len(perms)} bypasses is {product}, not the identity")
    return perms


def _lasso_radius(roots, targets):
    """The least distance between two crossing parameters, or from a
    target crossing to the basepoint, over 3.2."""
    gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]
    return min(min(gaps, default=np.inf), np.abs(targets).min()) / 3.2


def _lasso_permutations(basepoint, direction, crossings, roots, targets,
                        radius, labels):
    """The permutations of the bypasses of the crossings[k], at the
    parameters roots[k], k in targets, in path order: by argument, then
    modulus.  The bypass of a B1 crossing of multiplicity 1 turns one
    node's vanishing cycle, so it must give cycle type (3, 3, 1, 1, 1),
    else TrackingError."""
    perms = []
    for k in sorted(targets, key=lambda k: (np.angle(roots[k]),
                                            abs(roots[k]))):
        loop = Loop(basepoint, _bypass_segments(
            basepoint, direction, complex(roots[k]), radius,
            np.delete(roots, k)))
        perm = track_loop(loop, labels=labels).perm
        c = crossings[k]
        if c.label is StratumLabel.B1 and c.multiplicity == 1 \
                and perm.cycle_type() != (3, 3, 1, 1, 1):
            raise TrackingError(
                f"bypass law broken: the bypass of the B1 crossing at "
                f"s = {roots[k]:.6g} gave cycle type {perm.cycle_type()}, "
                "not (3, 3, 1, 1, 1)")
        perms.append(perm)
    return perms


def global_line_outcomes(basepoint, line_count, seed, labels=None):
    """Track the bypasses of `line_count` random complex lines through
    the basepoint, drawn from default_rng(seed).  Returns, per line, the
    list of its bypass permutations in path order, or the typed error
    that stopped it."""
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = _positional_labels(inflection_points(basepoint))
    outcomes = []
    for _ in range(line_count):
        delta = CubicForm(rng.standard_normal(10)
                          + 1j * rng.standard_normal(10))
        try:
            outcomes.append(line_bypass_permutations(basepoint, delta,
                                                     labels=labels))
        except (NumericalError, DegenerateInputError) as exc:
            outcomes.append(exc)
    return outcomes


def group_of_lines(outcomes):
    """The group generated by the permutations of the lines of
    global_line_outcomes that were tracked in full.  Failed lines are
    skipped with a warning; at least one line must succeed."""
    perms = []
    for k, out in enumerate(outcomes):
        if isinstance(out, Exception):
            logger.warning("line %d skipped: %s", k, out)
        else:
            perms.extend(out)
    if not perms:
        raise TrackingError(
            "global monodromy failed: no line was tracked in full")
    return PermGroup(perms)


def generate_global_monodromy(basepoint, line_count, seed, labels=None):
    """The group generated by bypass permutations of all discriminant
    crossings of `line_count` random complex lines through the
    basepoint.  Failing lines are skipped with a warning; at least one
    line must succeed in full."""
    return group_of_lines(global_line_outcomes(basepoint, line_count, seed,
                                               labels))


def local_monodromy(basepoint_near, stratum_point, radius, probe_count,
                    seed, labels=None):
    """The group generated by bypasses around the discriminant branches
    meeting a neighborhood of the stratum point: crossings of random
    probe lines through the nearby basepoint, kept when the member lies
    within 3*radius of the stratum point in the chordal metric.  A probe
    line whose crossings cannot be found is skipped with a warning; at
    least one probe line must cross near the stratum point."""
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = _positional_labels(inflection_points(basepoint_near))
    base_scale = np.abs(basepoint_near.coeffs).max()
    stratum = stratum_point.coeffs
    perms, refused = [], 0
    for k in range(probe_count):
        delta = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        direction = CubicForm(delta / np.abs(delta).max() * base_scale)
        try:
            crossings, roots, _ = _line_crossings(basepoint_near, direction)
        except (NumericalError, DegenerateInputError) as exc:
            logger.warning("probe line %d skipped: %s", k, exc)
            refused += 1
            continue
        local = [j for j, c in enumerate(crossings)
                 if proj_distance(c.member.coeffs, stratum) <= 3 * radius]
        if not local:
            continue
        perms += _lasso_permutations(basepoint_near, direction, crossings,
                                     roots, local,
                                     _lasso_radius(roots, roots[local]),
                                     labels)
    if not perms:
        raise TrackingError(
            "local monodromy failed: no probe line crossed the "
            f"discriminant near the stratum point ({refused} of "
            f"{probe_count} probe lines refused)")
    return PermGroup(perms)
