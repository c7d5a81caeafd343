"""Numerical monodromy: continuation of inflection points along loops.

A loop in coefficient space (piecewise lines and circular arcs) is
discretized adaptively; the nine inflection points of the moving cubic
are carried in lockstep by an Euler predictor (implicit-function
derivative of {F = 0, H = 0}) and a Newton corrector, both solved by the
shared batched core in newton.py, with a pairwise proximity guard that
detects collision with the discriminant.  Matching the transported
points against the initial labels yields the monodromy permutation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (CrossingError, DegenerateInputError, MatchingError,
                     NumericalError, SchemaError, TrackingError)
from . import newton
from .forms import (EXP3, CubicForm, Pencil, ProjPoint, eval_coeffs,
                    hessian_coeffs, hessian_directional, monomial_values,
                    proj_distance)
from .locus import (InflectionPoint, InflectionSet, flex_system,
                    free_coords, inflection_points)
from .perms import Perm, PermGroup
from .roots import UniPoly, all_roots
from .strata import pencil_discriminant_fit

logger = logging.getLogger(__name__)

CHART_SWITCH = 1e3
ARC_TURN_CAP = 1.0 / 64.0
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
            if proj_distance(prev, seg.value(0.0)) > CLOSURE_TOL:
                raise SchemaError(
                    f"loop segment {k} does not start where the previous "
                    "one ends")
            prev = seg.value(1.0)
        if proj_distance(prev, self.basepoint.coeffs) > CLOSURE_TOL:
            raise SchemaError("loop is not closed")

    def reversed(self):
        out = []
        for seg in reversed(self.segments):
            if isinstance(seg, Line):
                out.append(Line(seg.end, seg.start))
            else:
                out.append(Arc(seg.center, seg.direction, seg.radius,
                               seg.turn_end, seg.turn_start))
        return Loop(self.basepoint, tuple(out))

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


def circle_loop(center, direction, radius, turns=1.0):
    """A full-circle loop a(t) = center + radius e^{2 pi i t} direction,
    based at its t = 0 point."""
    arc = Arc(center, direction, float(radius), 0.0, float(turns))
    return Loop(CubicForm(arc.value(0.0)), (arc,))


@dataclass(frozen=True)
class TrackingConfig:
    initial_step: float = 1e-2
    min_step: float = 1e-7
    newton_tol: float = 1e-11
    newton_max_iters: int = 12
    proximity_guard: float = 1e-4

    def __post_init__(self):
        if not (0 < self.min_step < self.initial_step):
            raise SchemaError("need 0 < min_step < initial_step")
        if self.newton_tol <= 0 or self.proximity_guard <= 0:
            raise SchemaError("tolerances must be positive")
        if self.newton_max_iters < 1:
            raise SchemaError("newton_max_iters must be at least 1")


@dataclass(frozen=True)
class MonodromyResult:
    perm: Perm
    steps_taken: int
    min_pairwise_separation: float
    max_residual: float

    @property
    def diagnostics(self):
        return (self.steps_taken, self.min_pairwise_separation,
                self.max_residual)


# ---------------------------------------------------------------------------
# lockstep continuation state

def _pairwise_min_distance(Z):
    """Minimum pairwise chordal distance among projective rows of Z."""
    norms = np.linalg.norm(Z, axis=1)
    G = (Z / norms[:, None]) @ (Z / norms[:, None]).conj().T
    m = 1.0 - np.minimum(np.abs(G) ** 2, 1.0)
    np.fill_diagonal(m, np.inf)
    return float(np.sqrt(max(m.min(), 0.0)))


class _Tracker:
    """Nine projective points carried across one coefficient path."""

    def __init__(self, Z, cfg):
        self.cfg = cfg
        self.Z = np.array(Z, dtype=complex)              # (9, 3), pinned
        self.chart = np.argmax(np.abs(self.Z), axis=1)
        self.free = free_coords(self.chart)
        rows = np.arange(len(self.Z))
        self.Z = self.Z / self.Z[rows, self.chart][:, None]
        self.steps = 0
        self.max_residual = 0.0
        self.min_separation = np.inf

    def predict(self, a, h, adot, ds):
        """Euler step of length ds from coefficients a, with Hessian h."""
        hdot = hessian_directional(a, adot)
        x, lift, system = flex_system(a, h, self.Z, self.free)
        _, J = system(x)
        rates = monomial_values(self.Z, EXP3) @ np.array([adot, hdot]).T
        return lift(x - ds * newton.linear_solve(J, rates))

    def correct(self, a, h, Zp):
        """Newton iteration of all points on {F = 0, H = 0} at fixed
        coefficients a with Hessian h; returns corrected coordinates or
        None."""
        x0, lift, system = flex_system(a, h, Zp, self.free)
        coeff_scale = np.array([np.abs(a).max(), np.abs(h).max()])

        def scaled(x):
            # residuals relative to the coefficient size and |z|^3; the
            # pinned coordinate is 1
            zs = np.maximum(np.abs(x).max(axis=1), 1.0) ** 3
            s = coeff_scale * zs[:, None]
            r, J = system(x)
            return r / s, J / s[:, :, None]

        x, converged = newton.solve(scaled, x0, self.cfg.newton_max_iters,
                                    tol=self.cfg.newton_tol)
        if not converged.all():
            return None, None
        # a row stopped by a vanishing step still has to meet the tolerance
        res = np.abs(scaled(x)[0]).max()
        if res > self.cfg.newton_tol:
            return None, None
        return lift(x), float(res)

    def accept(self, Z, res):
        self.Z = Z
        self.steps += 1
        self.max_residual = max(self.max_residual, res)
        # rehome points that drifted far from their pinned chart
        big = np.abs(self.Z).max(axis=1) > CHART_SWITCH
        if np.any(big):
            idx = np.nonzero(big)[0]
            self.chart[idx] = np.argmax(np.abs(self.Z[idx]), axis=1)
            self.free = free_coords(self.chart)
            self.Z[idx] = self.Z[idx] / self.Z[idx, self.chart[idx]][:, None]

    def run_segment(self, seg):
        cfg = self.cfg
        s = 0.0
        a = seg.value(s)
        h = hessian_coeffs(a)
        cap = min(cfg.initial_step, seg.step_cap())
        ds = cap
        streak = 0
        while s < 1.0 - 1e-15:
            step = min(ds, 1.0 - s)
            Zp = self.predict(a, h, seg.velocity(s), step)
            a_next = seg.value(s + step)
            h_next = hessian_coeffs(a_next)
            Z, res = self.correct(a_next, h_next, Zp)
            sep = _pairwise_min_distance(Z) if Z is not None else 0.0
            if Z is None or sep <= cfg.proximity_guard:
                ds = step / 2.0
                streak = 0
                if ds < cfg.min_step:
                    raise TrackingError(
                        "path hits discriminant: step size underflow at "
                        f"segment parameter {s:.6f}")
                continue
            s += step
            # the corrector's end point starts the next step
            a, h = a_next, h_next
            self.accept(Z, res)
            self.min_separation = min(self.min_separation, sep)
            streak += 1
            if streak >= 4:
                ds = min(2 * ds, cap)
                streak = 0


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


def _match_to_labels(Z, labels):
    """Permutation images: row k (the sheet that started at the k-th
    smallest label) ends at the label of its nearest reference point."""
    refs = [(ip.label, ip.point.coords) for ip in labels.points]
    ref_coords = [c for _, c in refs]
    n = len(refs)
    radius = 0.5 * min(proj_distance(ref_coords[i], ref_coords[j])
                       for i in range(n) for j in range(i + 1, n))
    images = []
    for k in range(len(Z)):
        d = sorted((proj_distance(Z[k], c), lab) for lab, c in refs)
        if d[0][0] > radius or (len(d) > 1 and d[1][0] < 2 * d[0][0]):
            raise MatchingError(
                f"label matching failed: transported point {k} is "
                f"{d[0][0]:.3e} from its nearest label")
        images.append(d[0][1])
    if sorted(images) != list(range(1, 10)):
        raise MatchingError("label matching failed: images not a bijection")
    return Perm(images)


def track_loop(loop, labels=None, cfg=None):
    """Carry the nine labeled inflection points around a closed loop and
    return the induced permutation with diagnostics."""
    cfg = cfg or TrackingConfig()
    labels = _validate_basepoint(loop, labels)
    ordered = sorted(labels.points, key=lambda ip: ip.label)
    tracker = _Tracker(np.array([ip.point.coords for ip in ordered]), cfg)
    start_sep = _pairwise_min_distance(tracker.Z)
    if start_sep <= cfg.proximity_guard:
        raise TrackingError(
            "basepoint not smooth: inflection points closer than the "
            "proximity guard")
    tracker.min_separation = start_sep
    for seg in loop.segments:
        tracker.run_segment(seg)
    perm = _match_to_labels(tracker.Z, labels)
    return MonodromyResult(perm=perm, steps_taken=tracker.steps,
                           min_pairwise_separation=tracker.min_separation,
                           max_residual=tracker.max_residual)


# ---------------------------------------------------------------------------
# bypass construction

def _pencil_roots(basepoint, direction):
    pencil = Pencil(basepoint, direction)
    fit = pencil_discriminant_fit(pencil)
    if np.abs(fit).max() == 0.0:
        raise CrossingError("no crossing found: the discriminant vanishes "
                            "identically on this line")
    poly = UniPoly(fit, rel=1e-8)
    rs = all_roots(poly, cluster_radius=2e-3)
    return rs, 12 - poly.degree


def _bypass_segments(basepoint, direction, s_star, radius):
    delta = direction.coeffs
    toward_base = -s_star / abs(s_star)
    s_stop = s_star + radius * toward_base
    stop_form = CubicForm(basepoint.coeffs + s_stop * delta)
    center = CubicForm(basepoint.coeffs + s_star * delta)
    arc_dir = CubicForm(toward_base * delta)
    return (Line(basepoint, stop_form),
            Arc(center, arc_dir, radius, 0.0, 1.0),
            Line(stop_form, basepoint))


def bypass_loop(basepoint, target, radius):
    """The standard bypass: straight toward the discriminant crossing
    nearest the target, a full circle of the given parameter radius
    around it, and straight back."""
    if proj_distance(basepoint.coeffs, target.coeffs) < 1e-10:
        raise CrossingError("no crossing found: target coincides with "
                            "the basepoint")
    direction = CubicForm(target.coeffs - basepoint.coeffs)
    rs, _inf = _pencil_roots(basepoint, direction)
    if len(rs.roots) == 0:
        raise CrossingError("no crossing found on the line to the target")
    order = np.argsort(np.abs(rs.roots - 1.0))
    s_star = complex(rs.roots[order[0]])
    if abs(s_star - 1.0) > 0.45:
        raise CrossingError(
            "no crossing found: nearest discriminant parameter is "
            f"{abs(s_star - 1.0):.3f} away from the target")
    others = np.delete(rs.roots, order[0])
    if any(abs(r - s_star) < 3 * radius for r in others):
        raise CrossingError(
            "crossings too close: another discriminant parameter lies "
            f"within {3 * radius} of the target crossing")
    if abs(s_star) < 3 * radius:
        raise CrossingError(
            "crossings too close: the crossing sits within the bypass "
            "radius of the basepoint")
    return Loop(basepoint, _bypass_segments(basepoint, direction,
                                            s_star, radius))


def line_bypass_permutations(basepoint, direction, labels=None, cfg=None,
                             radius=None):
    """Track the bypasses of every discriminant crossing on the line
    basepoint + s*direction, in path order (sorted by the argument of
    the crossing parameter).  Returns the list of permutations."""
    rs, inf_mult = _pencil_roots(basepoint, direction)
    if inf_mult > 0 or len(rs.roots) == 0:
        raise CrossingError(
            "line has a crossing at infinite parameter; pick another")
    roots = np.asarray(rs.roots, dtype=complex)
    if radius is None:
        gaps = [abs(a - b) for i, a in enumerate(roots)
                for b in roots[i + 1:]]
        radius = min(min(gaps, default=np.inf) / 3.2,
                     np.abs(roots).min() / 3.2, 0.05)
    order = sorted(range(len(roots)),
                   key=lambda i: (np.angle(roots[i]), abs(roots[i])))
    perms = []
    for k in order:
        loop = Loop(basepoint, _bypass_segments(basepoint, direction,
                                                complex(roots[k]), radius))
        perms.append(track_loop(loop, labels=labels, cfg=cfg).perm)
    return perms


def generate_global_monodromy(basepoint, line_count, seed, labels=None,
                              cfg=None):
    """The group generated by bypass permutations of all discriminant
    crossings of `line_count` random complex lines through the
    basepoint.  Failing lines are skipped with a warning; at least one
    line must succeed in full."""
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = _positional_labels(inflection_points(basepoint))
    perms = []
    successes = 0
    for k in range(line_count):
        delta = CubicForm(rng.standard_normal(10)
                          + 1j * rng.standard_normal(10))
        try:
            perms.extend(line_bypass_permutations(basepoint, delta,
                                                  labels=labels, cfg=cfg))
            successes += 1
        except (NumericalError, DegenerateInputError) as exc:
            logger.warning("line %d skipped: %s", k, exc)
    if successes == 0:
        raise TrackingError(
            "global monodromy failed: no line was tracked in full")
    return PermGroup(perms)


def local_monodromy(basepoint_near, stratum_point, radius, probe_count,
                    seed, labels=None, cfg=None):
    """The group generated by bypasses around the discriminant branches
    meeting a neighborhood of the stratum point: crossings of random
    probe lines through the nearby basepoint, kept when the member lies
    within 3*radius of the stratum point in the chordal metric."""
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = _positional_labels(inflection_points(basepoint_near))
    base_scale = np.abs(basepoint_near.coeffs).max()
    stratum = stratum_point.coeffs
    perms = []
    for _ in range(probe_count):
        delta = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        direction = CubicForm(delta / np.abs(delta).max() * base_scale)
        rs, _inf = _pencil_roots(basepoint_near, direction)
        local = [complex(r) for r in rs.roots
                 if proj_distance(basepoint_near.coeffs
                                  + r * direction.coeffs, stratum)
                 <= 3 * radius]
        if not local:
            continue
        gaps = [abs(a - b) for i, a in enumerate(rs.roots)
                for b in list(rs.roots)[i + 1:]]
        r_loc = min(min(gaps, default=np.inf) / 3.2,
                    min(abs(s) for s in local) / 3.2)
        for s_star in sorted(local, key=lambda s: (np.angle(s), abs(s))):
            loop = Loop(basepoint_near,
                        _bypass_segments(basepoint_near, direction,
                                         s_star, r_loc))
            perms.append(track_loop(loop, labels=labels, cfg=cfg).perm)
    if not perms:
        raise TrackingError(
            "local monodromy failed: no probe line crossed the "
            "discriminant near the stratum point")
    return PermGroup(perms)
