"""Inflection and singular points of a plane cubic.

The nine inflection points (counted with intersection multiplicity) are
the common zeros of the cubic and its Hessian.  In one fixed generic
unitary frame, their resultant in z3 on the line (z1, z2) = (1, t)
projects them to roots in t.  A cubic with a finite inflection scheme is
smooth or has one node or cusp, so the known multiplicity of that
single singular point (6 or 8) is divided out of the resultant.  The
frame only projects: the lines through the roots of the quotient meet
the cubic in points that, mapped back, are Newton starts on the cubic
itself for the shared batched core in newton.py, and the distinct
regular zeros found must be the simple inflection points.

Singular points of a cone (triple point or singular line) follow from
its binary form.  Otherwise they are common zeros of the three partial
conics: two fixed generic combinations of the conics meet in at most
four points, found exactly by splitting a line pair of their pencil.
A local normal-form analysis names each near-singular one (node / cusp /
tacnode), and Gauss-Newton pins it on a system regular at its kind,
{grad f = 0} deflated by det H at a cusp and again at a tacnode.  One
jet, _jet, builds every singular-point system, here and in strata, in
the chart of the point's largest coordinate.  singular_sets carries a
stack of cubics through each step at once, and singular_points is its
stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ChartError, CommonComponentError, DegenerateInputError,
                     MatchingError, NumericalError)
from . import newton
from .forms import (MONOMIAL_INDEX, CubicForm, ProjPoint, by_value,
                    chart_points, eval_coeffs, gradient_coeffs,
                    greedy_distinct, monomial_values, proj_distance,
                    substitute_linear, third_partials)
from .roots import all_roots, cubic_in_variable, resultant_on_chart


@dataclass(frozen=True)
class SingularPoint:
    point: ProjPoint
    local_type: str    # 'node' | 'cusp' | 'tacnode' | 'triple' | 'degenerate'


@by_value
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

    def multiplicity_signature(self):
        return tuple(sorted((p.multiplicity for p in self.points),
                            reverse=True))

    def labels(self):
        return [p.label for p in self.points]


# ---------------------------------------------------------------------------
# singular points

# the two coordinates other than coordinate k, in increasing order: row k
_FREE = np.array([[1, 2], [0, 2], [0, 1]])
_NO_LINE_PAIR = ("no fixed pair of partial conics spans a pencil with a "
                 "usable line pair")


def _cone_analysis(coeffs, U, kdim):
    """SingularSet for a cone cubic: one whose gradient coefficients (3, 6)
    have a kernel of dimension kdim > 0, with left singular vectors U.

    A cone is a binary cubic in disguise -- three concurrent lines when
    reduced -- so its singular locus follows from the root pattern of
    that binary form: three distinct roots give an ordinary triple point
    at the vertex, while a repeated root means a whole singular line.
    """
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


# two fixed generic pairs of weights (w1, w2) on the partial conics
_CONIC_FRAMES = (np.random.default_rng(5).standard_normal((2, 2, 3, 2))
                 @ [1, 1j])


def _binary_quadratic_roots(a, b, c):
    """Root directions (..., 2, 2), rows (u, v), of a u^2 + b uv + c v^2
    for complex arrays a, b, c of one shape, numerically stable for any
    coefficient pattern with at least one large coefficient."""
    a, b, c = np.broadcast_arrays(a, b, c)
    scale = np.maximum(np.maximum(abs(a), abs(b)), abs(c))
    split = (abs(a) < 1e-13 * scale) & (abs(c) < 1e-13 * scale)    # ~ b uv
    swap = abs(c) > abs(a)
    a, c = np.where(swap, c, a), np.where(swap, a, c)
    dirs = np.ones(a.shape + (2, 2), dtype=complex)
    with np.errstate(divide='ignore', invalid='ignore'):
        disc = np.sqrt(b * b - 4 * a * c)
        plus, minus = b + disc, b - disc
        q = np.where(abs(plus) >= abs(minus), plus, minus) / -2
        double = abs(q) < 1e-13 * scale
        half = -b / (2 * a)
        dirs[..., 0, 0] = np.where(double, half, q / a)
        dirs[..., 1, 0] = np.where(double, half, c / q)
    dirs[swap] = dirs[swap, :, ::-1]
    dirs[split] = np.eye(2)
    return dirs


def _conic_candidates(conics, w):
    """For each row of conics (n, 3, 3, 3), the four common points (n, 4,
    3) of the conics Q1 = w[0] . conics and Q2 = w[1] . conics, and
    whether the row has them (n,): a row whose pencil has no usable line
    pair has not.  The points lie on each line pair Q1 + t Q2, and each of
    its lines meets Q1 in two of them (Richter-Gebert, Perspectives on
    Projective Geometry, 2011).
    """
    Q1, Q2 = (w @ conics.reshape(-1, 3, 9)).reshape(-1, 2, 3, 3).swapaxes(0, 1)
    # det(Q1 + t Q2) is a cubic in t: one FFT of its values at the fourth
    # roots of unity gives the coefficients, ascending
    unit = 1j ** np.arange(4)
    d = np.fft.fft(np.linalg.det(Q1[:, None] + unit[:, None, None]
                                 * Q2[:, None])) / 4
    # Q1 or Q2 is itself a line pair when its weights sit at a singular
    # point, and then the singular point is a multiple base point
    top = np.abs(d).max(axis=1)
    ok = (np.minimum(abs(d[:, 0]), abs(d[:, 3])) >= 1e-8 * top) & (top > 0)
    z = np.full((len(d), 4, 3), np.nan, dtype=complex)
    live = np.flatnonzero(ok)
    d, Q1, Q2 = d[live], Q1[live], Q2[live]
    # a root of multiplicity m comes back as a cluster of spread
    # ~eps^(1/m) whose mean is accurate; the roots are the eigenvalues of
    # the companion matrices, built as np.roots builds them
    A = np.zeros((len(d), 3, 3), dtype=complex)
    A[:, 0] = -d[:, 2::-1] / d[:, 3:]
    A[:, [1, 2], [0, 1]] = 1.0
    t = np.linalg.eigvals(A)
    near = np.abs(t[:, :, None] - t[:, None]) < 1e-4 * (
        1 + np.abs(t[:, :, None]))
    mean = (near @ t[:, :, None])[:, :, 0] / near.sum(axis=2)
    C = Q1[:, None] + mean[:, :, None, None] * Q2[:, None]
    # take the member most clearly of rank exactly 2
    _, s, Vh = np.linalg.svd(C)
    usable = (s[..., 2] <= 1e-8 * s[..., 0]) & (s[..., 1] > 1e-6 * s[..., 0])
    ok[live] = usable.any(axis=1)
    rows = np.arange(len(d))
    k = np.argmax(np.where(usable, s[..., 1] / s[..., 0], -np.inf), axis=1)
    E = np.conj(Vh[rows, k])    # E[2] is the vertex, E[:2] span a complement
    G = E[:, :2] @ C[rows, k] @ E[:, :2].swapaxes(1, 2)
    uv = _binary_quadratic_roots(G[:, 0, 0], 2 * G[:, 0, 1], G[:, 1, 1])
    L = np.empty((len(d), 2, 2, 3), dtype=complex)     # (n, line, 2, 3)
    L[:, :, 0] = E[:, None, 2]
    L[:, :, 1] = uv[..., :1] * E[:, None, 0] + uv[..., 1:] * E[:, None, 1]
    R = L @ Q1[:, None] @ L.swapaxes(2, 3)
    ab = _binary_quadratic_roots(R[..., 0, 0], 2 * R[..., 0, 1], R[..., 1, 1])
    zs = (ab[..., :1] * L[:, :, None, 0]
          + ab[..., 1:] * L[:, :, None, 1]).reshape(-1, 4, 3)
    top = np.argmax(np.abs(zs), axis=2)
    z[live] = zs / zs[rows[:, None], np.arange(4), top][..., None]
    return z, ok


def _singular_candidates(cs):
    """For each cubic of cs (n, 10), the common points (n, 4, 3) of the
    first usable pair of fixed combinations of its partial conics, with
    largest coordinate 1 and ordered by their gradient residuals (n, 4),
    and whether no pair was usable (n,); such a row holds NaN.  Only the
    rows that the first pair fails go on to the next."""
    conics = third_partials(cs)
    z = np.full((len(cs), 4, 3), np.nan, dtype=complex)
    todo = np.arange(len(cs))
    for w in _CONIC_FRAMES:
        zw, ok = _conic_candidates(conics[todo], w)
        z[todo[ok]] = zw[ok]
        todo = todo[~ok]
        if not len(todo):
            break
    res = np.abs(monomial_values(z, 2) @ gradient_coeffs(cs).swapaxes(1, 2)
                 ).max(axis=2)
    rows = np.arange(len(cs))[:, None]
    order = np.argsort(res, axis=1)
    failed = np.zeros(len(cs), dtype=bool)
    failed[todo] = True
    return z[rows, order], res[rows, order], failed


def _jet(T, free, x):
    """The jet of the member f_0 + w_1 f_1 + ... of a linear family of
    cubics at a point, for each row: T (n, K, 3, 3, 3) holds the third
    partials of the K spanning cubics (K = 1 a fixed cubic, 2 a pencil, 3
    a net), and x (n, K + 1) is (z_a, z_b, w_1, ..., w_{K-1}), the point
    having z_a, z_b at its coordinates free (n, 2) = (a, b) and 1 at the
    third.  Returns the member's gradient g (n, 3) and its Jacobian (n, 3,
    K + 1) in x, and the (a, b) minor H (n, 2, 2) of its second partials
    with their derivatives dH (n, 2, 2, K + 1) in x.
    """
    n = np.arange(len(x))[:, None]
    a, b = free[:, :, None], free[:, None]
    z = chart_points(x, free)
    # the second partials of each f_k, linear in z, their (a, b) minors,
    # and the third partials of each f_k on the free coordinates
    Mk = np.einsum('nl,nklij->nkij', z, T)
    Hk = Mk[n[:, :, None], :, a, b]
    Tk = T[n[:, :, None, None], :, a[..., None], b[..., None],
           free[:, None, None]]
    # those of the member; by Euler's relation grad f = M z / 2 for a
    # cubic, and the w_k column of its Jacobian is grad f_k
    M, H, dz, gw = Mk[:, 0], Hk[..., 0], Tk[..., 0], []
    for k in range(1, T.shape[1]):
        w = x[:, k + 1, None, None]
        M, H = M + w * Mk[:, k], H + w * Hk[..., k]
        dz = dz + w[..., None] * Tk[..., k]
        gw.append(0.5 * (Mk[:, k] @ z[:, :, None]))
    g = 0.5 * np.einsum('nij,nj->ni', M, z)
    Jg = np.concatenate([M[n, :, free].swapaxes(1, 2)] + gw, axis=2)
    return g, Jg, H, np.concatenate([dz, Hk[..., 1:]], axis=-1)


def _det_jet(H, dH):
    """det H of the symmetric minors H (n, 2, 2) of _jet, and its gradient
    (n, k) from their derivatives dH (n, 2, 2, k)."""
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] ** 2
    return det, (dH[:, 0, 0] * H[:, 1, 1, None] + H[:, 0, 0, None]
                 * dH[:, 1, 1] - 2 * H[:, 0, 1, None] * dH[:, 0, 1])


def _chart_coords(p):
    """The free pairs (m, 2) of the rows of p (m, 3) in the chart of each
    row's largest coordinate, and their coordinates (m, 2) there."""
    rows, chart = np.arange(len(p))[:, None], np.argmax(np.abs(p), axis=1)
    free = _FREE[chart]
    return free, p[rows, free] / p[rows, chart[:, None]]


# the residuals that pin each kind: {f_a, f_b}, then det H, then the
# two minors H[i] ^ grad det H
_PIN_ROWS = {'node': 2, 'cusp': 3, 'tacnode': 5}


def _pin(coeffs, p, kinds):
    """The singular points near the rows of p (m, 3) on the cubics of
    coeffs (m, 10), of the given kinds, by Gauss-Newton on a system that
    is regular there, in the chart of the row's largest coordinate, with
    (a, b) the other two: {f_a, f_b} at a node.  At a cusp that system is
    singular, and deflation adds det H, the (a, b) minor of the second
    partials (Leykin, Verschelde and Zhao, TCS 2006); at a tacnode that is
    singular too, and a second deflation adds its 2x2 minors H[i] ^ grad
    det H.  All rows are solved at once.  A row keeps its point for any
    other kind, or when its solve fails.
    """
    q = np.array(p, dtype=complex)
    nres = np.array([_PIN_ROWS.get(k, 0) for k in kinds])
    live = np.flatnonzero(nres)
    if not len(live):
        return q
    free, x0 = _chart_coords(q[live])
    n = np.arange(len(live))[:, None]
    T = third_partials(coeffs[live])[:, None]
    used = np.arange(5) < nres[live, None]
    # the derivatives t of H and the Hessian hD of det H are constant in x
    t = _jet(T, free, x0)[3]
    hD = np.stack([_det_jet(t[..., k], t)[1] for k in (0, 1)], axis=2)

    def system(x):
        g, Jg, H, _ = _jet(T, free, x)
        det, dD = _det_jet(H, t)
        m = H[:, :, 0] * dD[:, 1:] - H[:, :, 1] * dD[:, :1]
        dm = (t[:, :, 0] * dD[:, 1, None, None]
              + H[:, :, :1] * hD[:, None, 1]
              - t[:, :, 1] * dD[:, 0, None, None]
              - H[:, :, 1:] * hD[:, None, 0])
        r = np.where(used, np.concatenate(
            [g[n, free], det[:, None], m], axis=1), 0)
        J = np.where(used[:, :, None], np.concatenate(
            [Jg[n, free], dD[:, None], dm], axis=1), 0)
        JH = J.conj().swapaxes(1, 2)
        # the normal equations make a square system for the shared core
        return (JH @ r[:, :, None])[:, :, 0], JH @ J

    x = newton.solve(system, x0, 8)[0]
    done = np.isfinite(x).all(axis=1)
    q[live[done]] = chart_points(x[done], free[done])
    return q


def _is_singular(coeffs, p):
    """The strict gate: the whole gradient of each cubic of coeffs (m, 10)
    vanishes at the point of the same row of p (m, 3), scaled as ProjPoint
    scales it."""
    m = np.abs(p)
    k = np.argmax(m >= (1 - 1e-9) * m.max(axis=1, keepdims=True), axis=1)
    g = monomial_values(p / p[np.arange(len(p)), k, None], 2)[:, None] \
        @ gradient_coeffs(coeffs).swapaxes(1, 2)
    return np.abs(g[:, 0]).max(axis=1) < 1e-11


def _first_error(results):
    """results, unless some are exceptions: then the first of those is
    raised."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def _coords_key(p):
    """A sort key of a ProjPoint: its coordinates rounded to 9 places."""
    return (np.round(p.coords.real, 9).tolist(),
            np.round(p.coords.imag, 9).tolist())


def singular_points(f):
    """All singular points of the cubic, with local type: singular_sets
    of a stack of one.

    A cone (triple point or singular line) is read off its binary form.
    Otherwise the singular points are isolated common zeros of the three
    partial conics.  The common points of two fixed generic combinations
    of them are found exactly, each near-singular one is named by its
    local normal form and pinned on a system regular at its kind, and
    those where the whole gradient then vanishes are kept.
    """
    fn = f if isinstance(f, CubicForm) else CubicForm(f)
    return singular_sets([fn.coeffs])[0]


def singular_sets(coeffs):
    """singular_points of each cubic of coeffs (n, 10), each step taken
    once for the whole stack; raises the error that singular_points
    raises on the first cubic to fail."""
    return _first_error(_singular_sets(coeffs))


def _singular_sets(coeffs):
    """singular_sets, with a failing cubic's NumericalError in its place."""
    c = np.array([CubicForm(r).normalize().coeffs for r in coeffs]).reshape(
        -1, 10)
    out = [None] * len(c)
    U, s, _ = np.linalg.svd(gradient_coeffs(c))
    kdim = np.sum(s < 1e-10 * s[:, :1], axis=1)
    for i in np.flatnonzero(kdim):
        try:
            out[i] = _cone_analysis(c[i], U[i], kdim[i])
        except NumericalError as exc:
            out[i] = exc
    rest = np.flatnonzero(kdim == 0)
    owner, p = [], []
    for i, zi, ri, failed in zip(rest, *_singular_candidates(c[rest])):
        out[i] = NumericalError(_NO_LINE_PAIR) if failed else []
        # a cusp or tacnode candidate can be off by ~1e-5, so a loose gate
        # keeps the near-singular ones; the strict gate comes after pinning
        zi = zi[ri < 1e-6]
        zi = zi[greedy_distinct(zi, 1e-3)]
        owner += [i] * len(zi)
        p += list(zi)
    if owner:
        cs, p = c[owner], np.array(p)
        kinds = _local_type(cs, p)
        q = _pin(cs, p, kinds)
        # the rank cut of _local_type can name a badly conditioned node a
        # cusp, and then the deflated system has no solution
        redo = np.flatnonzero((kinds == 'cusp') & ~_is_singular(cs, q))
        kinds[redo] = 'node'
        q[redo] = _pin(cs[redo], p[redo], kinds[redo])
        kept = _is_singular(cs, q)
        for i, qi, kind in zip(np.array(owner)[kept], q[kept], kinds[kept]):
            out[i].append(SingularPoint(ProjPoint(qi), str(kind)))
    # by type and coordinates: exact nodes tie in residual at rounding level
    return [SingularSet(tuple(sorted(s, key=lambda sp: (
        sp.local_type, *_coords_key(sp.point))))) if isinstance(s, list)
        else s for s in out]


def _local_type(coeffs, points):
    """Normal-form analysis of isolated singular points: the kind (m,) of
    each row of points (m, 3) on the cubic of the same row of coeffs."""
    free, x = _chart_coords(points)
    g, _, H, t = _jet(third_partials(coeffs)[:, None], free, x)
    # the type is read before the point is pinned, when a cusp or tacnode
    # can be off by ~1e-5; that error contaminates the Taylor coefficients
    # of f in (z_a, z_b): f (by Euler's relation), f_a, f_b, H_aa / 2,
    # H_ab, H_bb / 2 and t_aaa / 6, t_aab / 2, t_abb / 2, t_bbb / 6
    taylor = np.column_stack([
        (g * chart_points(x, free)).sum(axis=1) / 3,
        np.take_along_axis(g, free, axis=1),
        H[:, [0, 0, 1], [0, 1, 1]] / [2, 1, 2],
        t[:, [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1]] / [6, 2, 2, 6]])
    tol = 1e-4 * np.maximum(1.0, np.abs(taylor).max(axis=1))
    det2, _ = _det_jet(H, t)
    qscale = np.abs(H).max(axis=(1, 2))
    # an honest node has |det2| comparable to qscale**2, while a rank-one
    # quadratic part contaminated by point error sits many orders lower,
    # so the rank cut can afford a generous margin.  A vanishing quadratic
    # part makes a triple point, and a cubic with a triple point is a
    # cone, which _cone_analysis takes
    kind = np.where(qscale <= tol, 'degenerate', np.where(
        abs(det2) > 1e-5 * np.maximum(1.0, qscale) ** 2, 'node', 'rank one'))
    one = np.flatnonzero(kind == 'rank one')
    if len(one):
        # in the frame (u, v) of (z_a, z_b) where the kernel of the
        # quadratic part is the u-axis, read off the lowest cubic terms
        _, vecs = np.linalg.eigh(H[one].conj().swapaxes(1, 2) @ H[one])
        u = vecs[:, :, 0]
        uuu, uuv = np.einsum('nijk,ni,nj,nkl->ln', t[one], u, u,
                             vecs) / [[6], [2]]
        kind[one] = np.where(abs(uuu) > tol[one], 'cusp', np.where(
            abs(uuv) > tol[one], 'tacnode', 'degenerate'))
    return kind


# ---------------------------------------------------------------------------
# inflection points

# a fixed generic unitary frame for the inflection resultant
_FLEX_FRAME = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3, 2))
                           @ [1, 1j])[0]
# the intersection multiplicity of a cubic and its Hessian at a node or
# cusp; any other singular point lies on a line of the cubic
_SINGULAR_MULTIPLICITY = {'node': 6, 'cusp': 8}


def _line_candidates(gc, ts):
    """The points (3 n, 3) where the lines (1, t, *), t in ts, meet the
    cubic gc.  In a generic frame the coefficient of z3^3 is the nonzero
    constant gc(e3), so each line meets the cubic in three finite points.
    """
    # vals[k, j]: the coefficient of z3^j on the line of ts[k]; a stack
    # of (1, d) @ (d,) products rounds as a dot product per line does,
    # where one (n, d) @ (d,) product may not
    vals = np.concatenate([(ts[:, None, None] ** np.arange(len(c))) @ c
                           for c in cubic_in_variable(gc)], axis=1)
    # the companion matrices of the monic cubics in z3, as in np.roots
    A = np.zeros((len(ts), 3, 3), dtype=complex)
    A[:, 0] = -vals[:, 2::-1] / vals[:, 3:]
    A[:, [1, 2], [0, 1]] = 1.0
    z = np.ones((len(ts), 3, 3), dtype=complex)
    z[:, :, 1] = ts[:, None]
    z[:, :, 2] = np.linalg.eigvals(A)
    return z.reshape(-1, 3)


def flex_gradients(fc, hc):
    """The map (6, 6) from the quadratic monomials of a point to the
    gradients of the cubic fc and of its Hessian hc there."""
    return np.concatenate([gradient_coeffs(fc), gradient_coeffs(hc)]).T


class FlexEquations:
    """The inflection equations {F, H} = 0 of n points in charts: row k
    keeps its coordinate chart[k] fixed and moves in the other two, the
    columns free (n, 2).  The index arrays are built once, for every
    cubic the points are solved on."""

    def __init__(self, chart):
        self.free = _FREE[chart]
        self.rows = np.arange(len(chart))[:, None]
        self._pick = (self.rows[:, :, None], np.array([[0], [1]]),
                      self.free[:, None, :])

    def gradients(self, grads, z):
        """The gradients of F and H at the rows of z (n, 2, 3) and their
        free columns, the Jacobians (n, 2, 2); grads from flex_gradients.
        """
        G = (monomial_values(z, 2) @ grads).reshape(-1, 2, 3)
        return G, G[self._pick]

    def system(self, grads, z0):
        """The start x0 (n, 2), the free coordinates of z0; lift(x), the
        points z0 with those coordinates set to x; and system(x), the
        residuals (n, 2) and Jacobians (n, 2, 2) there."""
        rows, free = self.rows, self.free

        def lift(x):
            z = z0.copy()
            z[rows, free] = x
            return z

        def system(x):
            z = lift(x)
            G, J = self.gradients(grads, z)
            # F = z . grad F / 3 by Euler's relation, and likewise H
            return (G @ z[:, :, None])[:, :, 0] / 3, J

        return z0[rows, free], lift, system


def _batch_newton_flex(fc, hc, z0):
    """Newton-correct candidate inflection points z0 (n, 3) on the 2x2
    system; the rows that reach a regular zero, by their next relative
    Newton step, best first."""
    # each row keeps its largest coordinate fixed
    x0, lift, system = FlexEquations(np.argmax(np.abs(z0), axis=1)).system(
        flex_gradients(fc, hc), z0)
    x, _, r, J = newton.solve(system, x0, 24)
    z = lift(x)
    size = np.abs(z).max(axis=1)
    # near a singular point the residual is small far from any zero; a
    # next Newton step below the radius that tells flexes apart marks a
    # regular zero
    step = np.abs(newton.linear_solve(J, r)).max(axis=1) / size
    good = ((np.abs(r) < 1e-10 * size[:, None] ** 3).all(axis=1)
            & (step < 1e-7) & (size < 1e7))
    return z[np.argsort(np.where(good, step, np.inf))[:good.sum()]]


def inflection_points(f):
    """The nine inflection points of a cubic, with multiplicities.

    They are the common zeros of the cubic and its Hessian, in one fixed
    generic unitary frame U: with g = f(U z), the resultant R(t) in z3 of
    g and its Hessian on the line (z1, z2) = (1, t) has a root at
    t = z2/z1 of each inflection point, counted with multiplicity.  A
    cubic with a finite inflection scheme is smooth or has a single node
    or cusp, where the multiplicity is 6 or 8 (Harris, Duke Math. J.
    1979).  That known factor (t - t_s)^m of R is divided out by linear
    least squares, and the fit residual checks m.  The points where the
    line of each root of the quotient meets g or its Hessian, mapped back
    through U, are Newton starts on f itself: the frame only projects.
    The distinct regular zeros away from the singular point must be
    exactly the 9 - m simple inflection points.

    Raises CommonComponentError when the cubic shares a component with
    its Hessian (every cubic containing a line does, and so does every
    cubic with two or more singular points), ChartError when the fit
    fails or the count of simple inflection points is wrong.
    """
    fn = f if isinstance(f, CubicForm) else CubicForm(f)
    # a power of two scales without rounding: through the Hessian, a flex
    # can move a thousand times further than a rounding of f's coefficients
    fn = fn * 2.0 ** -np.frexp(fn.scale())[1]
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
    if len(sing.points) > 1 or any(sp.local_type not in _SINGULAR_MULTIPLICITY
                                   for sp in sing.points):
        raise CommonComponentError(
            f"singular points {sing.local_types()}: the cubic contains a "
            "line, which it shares with its hessian")

    # H(U z) is the Hessian of g up to the constant det(U)^2
    gc = substitute_linear(fc, _FLEX_FRAME)
    hgc = substitute_linear(hc, _FLEX_FRAME)
    R = np.zeros(10, dtype=complex)
    r = resultant_on_chart(gc, hgc).coeffs
    R[:len(r)] = r
    Q, pts = R, []
    for sp in sing.points:                  # at most one
        m = _SINGULAR_MULTIPLICITY[sp.local_type]
        w = _FLEX_FRAME.conj().T @ sp.point.coords
        factor = np.poly(np.full(m, w[1] / w[0]))[::-1]    # (t - t_s)^m
        # R = A Q is linear in the coefficients of Q, of degree 9 - m
        A = np.array([np.convolve(factor, e) for e in np.eye(10 - m)]).T
        Q = np.linalg.lstsq(A, R, rcond=None)[0]
        misfit = np.linalg.norm(A @ Q - R) / np.linalg.norm(R)
        if misfit > 1e-6:
            raise ChartError(
                f"the resultant has no root of multiplicity {m} at the "
                f"{sp.local_type} (relative misfit {misfit:.1e})")
        pts.append(InflectionPoint(sp.point, m))
    # every point where the line of a root of Q meets the cubic or its
    # Hessian is a start: close to a singular cubic the roots cluster and
    # lose accuracy, and a line's flex may be reached only from another
    # line's point.  Repeats and the singular point drop out, and 9 - m
    # simple flexes must remain.  The starts are mapped back through U and
    # solved on f itself, whose zeros the rounded coefficients of g only
    # approximate; each flex keeps its best-converged row
    ts = all_roots(Q, cluster_radius=1e-12).roots
    z = _batch_newton_flex(fc, hc, np.concatenate(
        [_line_candidates(gc, ts), _line_candidates(hgc, ts)])
        @ _FLEX_FRAME.T)
    for ip in pts:
        z = z[proj_distance(ip.point.coords, z) >= 1e-3]
    z = z[greedy_distinct(z, 1e-7)]
    if len(z) != len(Q) - 1:
        raise ChartError(f"{len(z)} distinct simple inflection points, "
                         f"not {len(Q) - 1}")
    simple = [InflectionPoint(ProjPoint(p), 1) for p in z]
    return _finish(fn, hess, tuple(simple + pts))


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
    return InflectionSet(tuple(sorted(
        pts, key=lambda ip: (-ip.multiplicity, *_coords_key(ip.point)))))


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


def label_against(infl, reference):
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
                           [lbl for lbl, _ in ref_pairs])
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
