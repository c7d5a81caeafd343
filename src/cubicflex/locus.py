"""Inflection and singular points of a plane cubic.

The nine inflection points (counted with intersection multiplicity) are
the common zeros of the cubic and its Hessian.  They are found by
eliminating one variable with a chart-line resultant, back-substituting
along the corresponding pencil of lines, and Newton-correcting the
simple solutions with the shared batched core in newton.py.
Multiplicity at a singular point of the curve is attributed by counting
resultant roots whose projection line passes through that point; this
stays exact even when floating-point noise smears a high-multiplicity
resultant root into a loose cluster.

Singular points come from a multistart Newton (the same core) on the
gradient system with a deterministic start grid, followed by a local
normal-form analysis (node / cusp / tacnode / ordinary triple point /
singular line).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ChartError, CommonComponentError, DegenerateInputError,
                     MatchingError, NumericalError)
from . import newton
from .forms import (EXP2, EXP3, MONOMIAL_INDEX, CubicForm, ProjPoint,
                    chart_points, eval_coeffs, eval_gradient,
                    gradient_coeffs, greedy_distinct, monomial_values,
                    proj_distance, second_partials_matrix, substitute_linear)
from .roots import CHARTS, all_roots, cubic_in_variable, resultant_on_chart

SINGULAR_START_COUNT = 60
SINGULAR_SEED = 20240917

# fallback coordinate changes for inflection charts; integer matrices
# keep integer inputs well scaled
FALLBACK_TRANSFORMS = (
    np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 2.0]]),
    np.array([[2.0, -1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
)


@dataclass(frozen=True)
class SingularPoint:
    point: ProjPoint
    local_type: str    # 'node' | 'cusp' | 'tacnode' | 'triple' | 'degenerate'


@dataclass(frozen=True)
class SingularSet:
    points: tuple
    singular_line: np.ndarray | None = None   # line coefficients if not isolated

    def local_types(self):
        return tuple(sorted(sp.local_type for sp in self.points))

    def is_empty(self):
        return not self.points and self.singular_line is None


@dataclass(frozen=True)
class InflectionPoint:
    point: ProjPoint
    multiplicity: int
    label: int | None = None


@dataclass(frozen=True)
class InflectionSet:
    points: tuple

    def total_multiplicity(self):
        return sum(p.multiplicity for p in self.points)

    def multiplicity_signature(self):
        return tuple(sorted((p.multiplicity for p in self.points),
                            reverse=True))

    def simple_points(self):
        return [p for p in self.points if p.multiplicity == 1]

    def labels(self):
        return [p.label for p in self.points]

    def by_label(self):
        if any(p.label is None for p in self.points):
            raise MatchingError("set is unlabelled")
        return {p.label: p.point for p in self.points}

    def coords_array(self):
        return np.array([p.point.coords for p in self.points])


# ---------------------------------------------------------------------------
# singular points

def _start_grid(count, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((count, 2)) * 1.2
            + 1j * rng.standard_normal((count, 2)) * 1.2)


def _newton_gradient_chart(coeffs, chart, starts, iters=240):
    """Newton for the two free gradient components on a pinned chart."""
    free = [v for v in range(3) if v != chart]
    rows, cols = np.ix_(free, free)

    def system(x):
        z = chart_points(x, free)
        M = second_partials_matrix(coeffs, z)
        # the gradient of a cubic is M z / 2 by Euler's relation
        return 0.5 * (M[:, free] @ z[:, :, None])[:, :, 0], M[:, rows, cols]

    return chart_points(newton.solve(system, starts, iters)[0], free)


def _cone_analysis(coeffs):
    """SingularSet for a cone cubic (one with a vanishing directional
    derivative), or None when the cubic is not a cone.

    A cone is a binary cubic in disguise -- three concurrent lines when
    reduced -- so its singular locus follows from the root pattern of
    that binary form: three distinct roots give an ordinary triple point
    at the vertex, while a repeated root means a whole singular line.
    """
    G = gradient_coeffs(coeffs)                     # (3, 6)
    U, s, _ = np.linalg.svd(G)
    kdim = int(np.sum(s < 1e-10 * s[0]))
    if kdim == 0:
        return None
    if kdim >= 2:
        # the form depends on a single linear coordinate: a triple line
        v1, v2 = np.conj(U[:, 1]), np.conj(U[:, 2])
        return SingularSet(points=(), singular_line=np.cross(v1, v2))
    vertex = np.conj(U[:, 2])
    w1, w2 = np.conj(U[:, 0]), np.conj(U[:, 1])
    M = np.stack([w1, w2, vertex], axis=1)
    g = substitute_linear(coeffs, M)                # no dependence on z3'
    binary = np.array([g[MONOMIAL_INDEX[(3, 0)]], g[MONOMIAL_INDEX[(2, 1)]],
                       g[MONOMIAL_INDEX[(1, 2)]], g[MONOMIAL_INDEX[(0, 3)]]])
    # roots of binary(1, t) give the line directions w1 + t*w2; a degree
    # drop puts a root of the remaining multiplicity at direction w2
    try:
        rs = all_roots(binary, cluster_radius=1e-6)
    except NumericalError:
        rs = None
    directions = []                                 # (direction, multiplicity)
    if rs is not None:
        nz = np.nonzero(np.abs(binary) > 1e-12 * np.abs(binary).max())[0]
        deg = int(nz.max())
        for r, m in zip(rs.roots, rs.multiplicities):
            directions.append((w1 + r * w2, int(m)))
        if deg < 3:
            directions.append((w2, 3 - deg))
    repeated = [d for d, m in directions if m >= 2]
    if rs is not None and not repeated and len(directions) == 3:
        return SingularSet(points=(
            SingularPoint(ProjPoint(vertex), 'triple'),))
    if repeated:
        return SingularSet(points=(),
                           singular_line=np.cross(vertex, repeated[0]))
    raise NumericalError(
        "cone analysis could not resolve the binary root pattern")


def singular_points(f, start_count=SINGULAR_START_COUNT, seed=SINGULAR_SEED):
    """All singular points of the cubic, with local type.

    Multistart Newton on the gradient system over the three coordinate
    charts with a deterministic start grid.  A one-dimensional singular
    locus (a repeated line in the cubic) is detected by rank analysis of
    the converged solutions and returned via the singular_line field.
    """
    fn = f.normalize() if isinstance(f, CubicForm) else CubicForm(f).normalize()
    c = fn.coeffs
    cone = _cone_analysis(c)
    if cone is not None:
        return cone
    starts = _start_grid(start_count, seed)
    found = []
    for chart in range(3):
        z = _newton_gradient_chart(c, chart, starts)
        res = np.abs(eval_gradient(c, z)).max(axis=1)
        scale = np.abs(z).max(axis=1) ** 2
        good = res < 1e-11 * np.maximum(scale, 1.0)
        good &= np.abs(z).max(axis=1) < 1e6
        for p, r in zip(z[good], res[good]):
            found.append((float(r), ProjPoint(p)))
    # the gradient vanishes to high order at degenerate singularities, so
    # converged iterates form a blob around the true point; keeping the
    # smallest-residual representative of each wide cluster pins it best
    # (distinct singular points of a reduced cubic are far apart)
    found.sort(key=lambda t: t[0])
    distinct = [found[i][1] for i in
                greedy_distinct([p.coords for _, p in found], 1e-3)]
    if len(distinct) > 4:
        raise NumericalError(
            f"{len(distinct)} isolated singular candidates exceed the "
            "intersection bound for a reduced cubic")
    pts = tuple(SingularPoint(p, _local_type(c, p)) for p in distinct)
    return SingularSet(points=pts)


def local_expansion(coeffs, point, dir_u, dir_v):
    """Exact coefficients e[i][j] of f(p + u*du + v*dv) in powers u^i v^j.

    A cubic is its own Taylor expansion, and by Euler's relation every
    coefficient is a value, a directional derivative or a second
    derivative of f at p, du or dv; integer input stays exact.
    """
    P = np.array([point, dir_u, dir_v], dtype=complex)
    f = eval_coeffs(coeffs, P)
    g = eval_gradient(coeffs, P)            # rows: grad f at p, du, dv
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0], out[3, 0], out[0, 3] = f
    out[1, 0], out[0, 1] = g[0] @ P[1], g[0] @ P[2]
    out[2, 0], out[0, 2] = g[1] @ P[0], g[2] @ P[0]
    out[2, 1], out[1, 2] = g[1] @ P[2], g[2] @ P[1]
    out[1, 1] = P[1] @ second_partials_matrix(coeffs, P[0]) @ P[2]
    return out


def _local_type(coeffs, point):
    """Normal-form analysis of an isolated singular point."""
    p = point.coords
    chart = int(np.argmax(np.abs(p)))
    free = [v for v in range(3) if v != chart]
    du, dv = np.eye(3, dtype=complex)[free]
    E = local_expansion(coeffs, p, du, dv)
    # the point itself is only known to ~1e-5 at the most degenerate
    # type (tacnode), which contaminates the expansion coefficients
    tol = 1e-4 * max(1.0, np.abs(E).max())
    quad = np.array([[2 * E[2, 0], E[1, 1]], [E[1, 1], 2 * E[0, 2]]])
    det2 = quad[0, 0] * quad[1, 1] - quad[0, 1] * quad[1, 0]
    qscale = np.abs(quad).max()
    # an honest node has |det2| comparable to qscale**2, while a rank-one
    # quadratic part contaminated by point error sits many orders lower,
    # so the rank cut can afford a generous margin
    if qscale > tol and abs(det2) > 1e-5 * max(1.0, qscale) ** 2:
        return 'node'
    if qscale > tol:
        # rank one: rotate so the kernel of the quadratic part is the
        # u-axis, then read off the lowest cubic terms
        _, vecs = np.linalg.eigh(quad.conj().T @ quad)
        kernel, normal = vecs[:, 0], vecs[:, 1]
        du2 = kernel[0] * du + kernel[1] * dv
        dv2 = normal[0] * du + normal[1] * dv
        E2 = local_expansion(coeffs, p, du2, dv2)
        if abs(E2[3, 0]) > tol:
            return 'cusp'
        if abs(E2[2, 1]) > tol:
            return 'tacnode'
        return 'degenerate'
    # vanishing quadratic part: the tangent cone is the cubic part
    cone = np.array([E[0, 3], E[1, 2], E[2, 1], E[3, 0]])  # ascending in u
    try:
        rs = all_roots(cone, cluster_radius=1e-4)
    except NumericalError:
        return 'degenerate'
    # ordinary triple point iff the cone has three distinct directions,
    # counting the direction lost to a degree drop as one simple root
    if rs.multiplicities.max() == 1 and rs.total_multiplicity() >= 2:
        return 'triple'
    return 'degenerate'


# ---------------------------------------------------------------------------
# inflection points

def _line_candidates(fc, elim, swap, t):
    """Points of the chart line at parameter t where the cubic vanishes.

    Includes the point 'at infinity' along the eliminated direction when
    the restricted cubic drops degree.
    """
    cs = cubic_in_variable(fc, elim, swap)
    vals = np.array([c @ t ** np.arange(len(c)) if len(c) else 0.0 + 0.0j
                     for c in cs])          # ascending in the kept variable
    keep = [v for v in range(3) if v != elim]
    base = np.zeros(3, dtype=complex)
    if not swap:
        base[keep[0]], base[keep[1]] = 1.0, t
    else:
        base[keep[0]], base[keep[1]] = t, 1.0
    e_dir = np.zeros(3, dtype=complex)
    e_dir[elim] = 1.0
    vmax = np.abs(vals).max()
    if vmax == 0.0:
        return []               # the whole line lies on the cubic
    nz = np.nonzero(np.abs(vals) > 1e-13 * vmax)[0]
    deg = int(nz.max())
    if deg == 0:
        return [ProjPoint(e_dir)]
    try:
        rs = all_roots(vals[:deg + 1])
    except NumericalError:
        return []
    out = [ProjPoint(base + r * e_dir) for r in rs.roots]
    if deg < 3:
        out.append(ProjPoint(e_dir))
    return out


def free_coords(chart):
    """(n, 2) indices of the coordinates not pinned by chart (n,)."""
    return (chart[:, None] + np.array([1, 2])) % 3


def flex_system(fc, hc, z0, free):
    """The inflection equations {F, H} = 0 in the coordinates free (n, 2)
    of the rows of z0, the third coordinate of each row held fixed.

    Returns the start x0 (n, 2), lift(x), the points with those
    coordinates set to x, and system(x), the residuals (n, 2) and
    Jacobians (n, 2, 2) there.
    """
    grads = np.concatenate([gradient_coeffs(fc), gradient_coeffs(hc)]).T
    rows = np.arange(len(z0))[:, None]
    pick = (rows[:, :, None], np.array([[0], [1]]), free[:, None, :])

    def lift(x):
        z = z0.copy()
        z[rows, free] = x
        return z

    def system(x):
        z = lift(x)
        G = (monomial_values(z, EXP2) @ grads).reshape(-1, 2, 3)
        # F = z . grad F / 3 by Euler's relation, and likewise H
        return (G @ z[:, :, None])[:, :, 0] / 3, G[pick]

    return z0[rows, free], lift, system


def _batch_newton_flex(fc, hc, pts, iters=18):
    """Newton-correct candidate inflection points on the 2x2 system."""
    if len(pts) == 0:
        return np.zeros((0, 3), dtype=complex), np.zeros(0, dtype=bool)
    z0 = np.array([p.coords for p in pts], dtype=complex)
    # each row keeps its largest coordinate fixed
    x0, lift, system = flex_system(
        fc, hc, z0, free_coords(np.argmax(np.abs(z0), axis=1)))
    x, _ = newton.solve(system, x0, iters)
    z = lift(x)
    size = np.abs(z).max(axis=1)
    good = (np.abs(system(x)[0]) < 1e-10 * size[:, None] ** 3).all(axis=1)
    return z, good & (size < 1e7)


def _chart_projection(coords, elim, swap):
    """Chart-line parameter of a point; None when it escapes the chart."""
    keep = [v for v in range(3) if v != elim]
    a, b = coords[keep[0]], coords[keep[1]]
    num, den = (b, a) if not swap else (a, b)
    if abs(den) < 1e-6 * max(abs(num), 1e-12) or abs(num) > 1e6 * abs(den):
        return None
    return num / den


def _attribute_chart(rs, elim, swap, anchors, n_simple):
    """Multiplicity tally {anchor_index: m} for one chart, or None.

    Each resultant root must be explained by the anchors projecting onto
    it: simple inflection points take one count apiece and at most one
    singular point absorbs the remainder.  An unexplained or ambiguous
    root invalidates the chart.
    """
    proj = [_chart_projection(a.coords, elim, swap) for a in anchors]
    tally = {i: 0 for i, pr in enumerate(proj) if pr is not None}
    for t, m in zip(rs.roots, rs.multiplicities):
        near = [i for i, pr in enumerate(proj)
                if pr is not None and abs(pr - t) < 0.05 * (1 + abs(t))]
        if not near:
            return None
        simple_near = [i for i in near if i < n_simple]
        sing_near = [i for i in near if i >= n_simple]
        if len(sing_near) == 0:
            if int(m) != len(simple_near):
                return None
            for i in simple_near:
                tally[i] += 1
        elif len(sing_near) == 1:
            if m - len(simple_near) < 1:
                return None
            for i in simple_near:
                tally[i] += 1
            tally[sing_near[0]] += int(m) - len(simple_near)
        else:
            return None
    if any(tally[i] != 1 for i in tally if i < n_simple):
        return None
    return tally


def _assemble(chart_data, anchors, n_simple):
    """Combine per-chart tallies into one global assignment, or None."""
    assigned = {}
    any_ok = False
    for (elim, swap, rs) in chart_data:
        tally = _attribute_chart(rs, elim, swap, anchors, n_simple)
        if tally is None:
            continue
        any_ok = True
        for i, m in tally.items():
            if i in assigned and assigned[i] != m:
                return None
            assigned[i] = m
    if not any_ok or len(assigned) != len(anchors):
        return None
    if sum(assigned.values()) != 9:
        return None
    return assigned


def inflection_points(f, cluster_radius=1e-5, allow_transforms=True):
    """The nine inflection points of a cubic, with multiplicities.

    Raises CommonComponentError when the cubic shares a component with
    its Hessian (every cubic containing a line does), ChartError when no
    chart strategy exposes all nine intersection points.
    """
    fn = f if isinstance(f, CubicForm) else CubicForm(f)
    fn = fn.normalize()
    try:
        hess = fn.hessian_form().normalize()
    except DegenerateInputError as exc:
        raise CommonComponentError(
            "hessian vanishes identically; the inflection scheme is the "
            "whole curve") from exc
    fc, hc = fn.coeffs, hess.coeffs

    sing = singular_points(fn)
    if sing.singular_line is not None:
        raise CommonComponentError(
            "cubic has a singular line; the inflection scheme is not finite")
    sing_pts = [sp.point for sp in sing.points]

    def away_from_singular(p):
        return all(proj_distance(p.coords, s.coords) >= 1e-3
                   for s in sing_pts)

    simple = []          # discovered simple inflection points (ProjPoint)
    chart_data = []      # (elim, swap, rootset) for usable charts
    zero_charts = 0
    assignment = None

    for chart_id in range(len(CHARTS)):
        elim, swap = CHARTS[chart_id]
        try:
            R = resultant_on_chart(fc, hc, chart_id)
        except CommonComponentError:
            zero_charts += 1
            continue
        try:
            rs = all_roots(R, cluster_radius=cluster_radius)
        except NumericalError:
            continue
        # discovery: Newton-correct candidates on lines through each root
        cands = [p for t in rs.roots
                 for p in _line_candidates(fc, elim, swap, t)
                 if abs(eval_coeffs(hc, p.coords)) <= 1e-2
                 and away_from_singular(p)]
        z, good = _batch_newton_flex(fc, hc, cands)
        new = [p for p in map(ProjPoint, z[good]) if away_from_singular(p)]
        # the points kept from earlier charts stay first, so they survive
        pts = simple + new
        simple = [pts[i] for i in
                  greedy_distinct([p.coords for p in pts], 1e-7)]
        chart_data.append((elim, swap, rs))
        assignment = _assemble(chart_data, simple + sing_pts, len(simple))
        if assignment is not None:
            break

    if zero_charts == len(CHARTS):
        raise CommonComponentError(
            "resultant vanishes identically on every chart; the cubic and "
            "its hessian share a component")

    if assignment is not None:
        anchors = simple + sing_pts
        pts = tuple(InflectionPoint(anchors[i], m)
                    for i, m in sorted(assignment.items()))
        return _finish(fn, hess, pts)

    if allow_transforms:
        for M in FALLBACK_TRANSFORMS:
            try:
                inner = inflection_points(fn.transform(M),
                                          cluster_radius=cluster_radius,
                                          allow_transforms=False)
            except (ChartError, NumericalError):
                continue
            # the transformed form is f(M z), so its points push forward
            # through M back to points of f
            pts = tuple(InflectionPoint(ProjPoint(M @ ip.point.coords),
                                        ip.multiplicity)
                        for ip in inner.points)
            return _finish(fn, hess, pts)
    raise ChartError(
        "chart exhaustion: no chart strategy exposed all nine inflection "
        "points")


def _finish(fn, hess, pts):
    """Residual contract and deterministic ordering."""
    for ip in pts:
        pc = ip.point.coords
        fv = abs(eval_coeffs(fn.coeffs, pc))
        hv = abs(eval_coeffs(hess.coeffs, pc))
        if fv > 1e-8 or hv > 1e-8:
            raise NumericalError(
                f"inflection point {ip.point} violates the residual "
                f"contract (|F|={fv:.2e}, |H|={hv:.2e})")
    order = sorted(
        range(len(pts)),
        key=lambda i: (-pts[i].multiplicity,
                       np.round(pts[i].point.coords.real, 9).tolist(),
                       np.round(pts[i].point.coords.imag, 9).tolist()))
    out = InflectionSet(tuple(pts[i] for i in order))
    if out.total_multiplicity() != 9:
        raise NumericalError(
            f"multiplicities sum to {out.total_multiplicity()}, not 9")
    return out


# ---------------------------------------------------------------------------
# labelling

def hesse_base_points():
    """The nine inflection points shared by all members of the pencil
    spanned by the Fermat cubic and z1 z2 z3, in the standard labelling
    order 1..9."""
    w = np.exp(2j * np.pi / 3)
    w2 = w * w
    rows = [(0, 1, -1), (1, 0, -1), (1, -1, 0),
            (0, 1, -w), (1, 0, -w2), (1, -w, 0),
            (0, 1, -w2), (1, 0, -w), (1, -w2, 0)]
    return [ProjPoint(r) for r in rows]


def label_against(infl, reference, matching_radius=None):
    """Attach labels to an InflectionSet by nearest-point matching.

    reference: a list of ProjPoint (labels are positions 1..n) or an
    already-labelled InflectionSet.  Matching must be unambiguous (the
    next-nearest reference at least twice as far) and bijective.
    """
    if isinstance(reference, InflectionSet):
        ref_pairs = [(p.label, p.point) for p in reference.points]
        if any(lbl is None for lbl, _ in ref_pairs):
            raise MatchingError("reference set is unlabelled")
    else:
        ref_pairs = [(i + 1, p) for i, p in enumerate(reference)]
    pts = list(infl.points)
    found = nearest_labels([ip.point.coords for ip in pts],
                           [p.coords for _, p in ref_pairs],
                           [lbl for lbl, _ in ref_pairs], matching_radius)
    labelled = [InflectionPoint(ip.point, ip.multiplicity, lbl)
                for ip, lbl in zip(pts, found)]
    labelled.sort(key=lambda ip: ip.label)
    return InflectionSet(tuple(labelled))


def nearest_labels(points, references, labels, radius=None):
    """The label of the nearest reference for each row of points, in row
    order.

    Each match must lie within radius (by default half the smallest
    distance between references) and be unambiguous (the next-nearest
    reference at least twice as far), and the matching must be a
    bijection.  Raises MatchingError otherwise.
    """
    points = np.asarray(points, dtype=complex)
    references = np.asarray(references, dtype=complex)
    if len(points) != len(references):
        raise MatchingError(
            f"cardinality mismatch: {len(points)} points vs "
            f"{len(references)} references")
    if radius is None:
        radius = 0.5 * min(proj_distance(r, references[k + 1:]).min()
                           for k, r in enumerate(references[:-1]))
    found = []
    for k, z in enumerate(points):
        d = proj_distance(z, references)
        order = np.argsort(d)
        best = order[0]
        if d[best] > radius:
            raise MatchingError(
                f"point {k} is {d[best]:.3g} from the nearest reference, "
                f"beyond the matching radius {radius:.3g}")
        if len(d) > 1 and d[order[1]] < 2.0 * d[best]:
            raise MatchingError(
                f"ambiguous matching for point {k}: two references within "
                "a factor of two")
        if labels[best] in found:
            raise MatchingError(f"two points matched reference {labels[best]}")
        found.append(labels[best])
    return found
