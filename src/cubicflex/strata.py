"""Equisingular classification of cubics and discriminant geometry.

classify() places a cubic into one of the nine equisingular classes
(smooth, one/two/three nodes, cusp, tacnode, triple point, double line,
triple line) with a certificate tying the component structure to the
observed singular points.

pencil_crossings() refines each root of an interpolated degree-12
discriminant polynomial of a pencil by Newton on the gradient system in
(point, parameter).  The roots that reach a crossing are its
multiplicity, which the class of its member must bear out.

net_cusp_members() finds the cuspidal members of a two-parameter net by
a four-equation multistart Newton.

Every Newton solve here builds residuals and Jacobians only; the
iteration itself is the shared batched core in newton.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import newton
from .errors import CrossingError, NumericalError
from .forms import (EXP2, MONOMIAL_INDEX, CubicForm, ProjPoint,
                    chart_points, eval_coeffs, eval_gradient,
                    gradient_coeffs, greedy_distinct, proj_distance,
                    second_partials_matrix, substitute_linear)
from .locus import (SingularSet, _binary_quadratic_roots, _cusp_jet,
                    _singular_candidates, local_expansion, singular_points)
from .roots import UniPoly, all_roots

NET_SEED = 20240919
DISCRIMINANT_SAMPLES = 25


class StratumLabel(str, Enum):
    SMOOTH = "Smooth"
    B1 = "B1"        # irreducible, one node
    B21 = "B21"      # conic + transversal line, two nodes
    B22 = "B22"      # irreducible cuspidal
    B31 = "B31"      # three lines in general position, three nodes
    B32 = "B32"      # conic + tangent line, tacnode
    B4 = "B4"        # three concurrent lines, ordinary triple point
    B5 = "B5"        # double line + line
    B7 = "B7"        # triple line

    def __str__(self):
        return self.value


_STRUCTURE = {
    StratumLabel.SMOOTH: ("irreducible", ()),
    StratumLabel.B1: ("irreducible", ()),
    StratumLabel.B22: ("irreducible", ()),
    StratumLabel.B21: ("conic+line", (False, False)),
    StratumLabel.B32: ("conic+line", (True,)),
    StratumLabel.B31: ("three-lines", (False, False, False)),
    StratumLabel.B4: ("three-lines", (False,)),
    StratumLabel.B5: ("double-line+line", (False,)),
    StratumLabel.B7: ("triple-line", ()),
}


@dataclass(frozen=True)
class Certificate:
    singular: SingularSet
    component_structure: str
    tangency_flags: tuple
    notes: str = ""

    def to_json_dict(self):
        pts = [{"coords": [[c.real, c.imag] for c in sp.point.coords],
                "local_type": sp.local_type} for sp in self.singular.points]
        d = {"singular_points": pts,
             "component_structure": self.component_structure,
             "tangency_flags": list(self.tangency_flags)}
        if self.singular.singular_line is not None:
            d["singular_line"] = [[c.real, c.imag]
                                  for c in self.singular.singular_line]
        if self.notes:
            d["notes"] = self.notes
        return d


def _certificate(label, sing, notes=""):
    structure, flags = _STRUCTURE[label]
    return Certificate(singular=sing, component_structure=structure,
                       tangency_flags=flags, notes=notes)


# ---------------------------------------------------------------------------
# division and factor tests

def _line_multiplication_matrix(ell):
    """The 10x6 matrix of q -> ell*q from quadrics to cubics."""
    L = np.zeros((10, 6), dtype=complex)
    for j, e2 in enumerate(EXP2):
        for v in range(3):
            e3 = list(e2)
            e3[v] += 1
            L[MONOMIAL_INDEX[(e3[0], e3[1])], j] += ell[v]
    return L


def line_division_residual(coeffs, ell):
    """Relative residual of dividing the cubic by the linear form ell.

    Close to zero exactly when the line ell = 0 is a component.
    """
    c = np.asarray(coeffs, dtype=complex)
    ell = np.asarray(ell, dtype=complex)
    L = _line_multiplication_matrix(ell / np.abs(ell).max())
    q, res, *_ = np.linalg.lstsq(L, c, rcond=None)
    return float(np.linalg.norm(c - L @ q) / np.linalg.norm(c))


def _branch_tangents(coeffs, node):
    """The two tangent lines (dual coefficient vectors) at a node."""
    p = node.coords
    chart = int(np.argmax(np.abs(p)))
    free = [v for v in range(3) if v != chart]
    du, dv = np.eye(3, dtype=complex)[free]
    E = local_expansion(coeffs, p, du, dv)
    # quadratic part E20 u^2 + E11 uv + E02 v^2 factors into the two
    # branch directions
    lines = []
    for (uu, vv) in _binary_quadratic_roots(E[2, 0], E[1, 1], E[0, 2]):
        d = uu * du + vv * dv
        lines.append(np.cross(p, d))
    return lines


def _is_perfect_cube(coeffs, line):
    """Whether the cubic is proportional to the cube of the given line:
    z1^3 under the substitution z1 -> line . z."""
    M = np.zeros((3, 3), dtype=complex)
    M[0] = line
    cube = substitute_linear(np.eye(10)[MONOMIAL_INDEX[(3, 0)]], M)
    return proj_distance(np.asarray(coeffs, dtype=complex), cube) < 1e-8


# ---------------------------------------------------------------------------
# classification

def classify(f):
    """Equisingular class of a cubic, with a certificate.

    Returns (StratumLabel, Certificate).  Raises NumericalError
    ("unclassifiable") when the structural tests conflict.
    """
    fn = f if isinstance(f, CubicForm) else CubicForm(f)
    fn = fn.normalize()
    sing = singular_points(fn)
    if sing.singular_line is not None:
        if _is_perfect_cube(fn.coeffs, sing.singular_line):
            return StratumLabel.B7, _certificate(StratumLabel.B7, sing)
        return StratumLabel.B5, _certificate(StratumLabel.B5, sing)
    types = sing.local_types()
    if types == ():
        return StratumLabel.SMOOTH, _certificate(StratumLabel.SMOOTH, sing)
    if types == ('node',):
        # irreducible unless a branch tangent at the node is a component
        residuals = [line_division_residual(fn.coeffs, ell)
                     for ell in _branch_tangents(fn.coeffs,
                                                 sing.points[0].point)]
        if min(residuals) < 1e-8:
            raise NumericalError(
                "unclassifiable: one node found but a branch tangent "
                f"divides the cubic (residuals {residuals}); a second "
                "singular point was likely missed")
        note = ("branch tangent division residuals "
                f"{residuals[0]:.2e}, {residuals[1]:.2e}")
        return StratumLabel.B1, _certificate(StratumLabel.B1, sing, note)
    if types == ('node', 'node'):
        return StratumLabel.B21, _certificate(StratumLabel.B21, sing)
    if types == ('node', 'node', 'node'):
        return StratumLabel.B31, _certificate(StratumLabel.B31, sing)
    if types == ('cusp',):
        return StratumLabel.B22, _certificate(StratumLabel.B22, sing)
    if types == ('tacnode',):
        return StratumLabel.B32, _certificate(StratumLabel.B32, sing)
    if types == ('triple',):
        return StratumLabel.B4, _certificate(StratumLabel.B4, sing)
    raise NumericalError(
        f"unclassifiable: singular point types {types} match no stratum")


# ---------------------------------------------------------------------------
# numeric discriminant via Macaulay elimination of the gradient quadrics

MON4 = [(i, j, 4 - i - j) for i in range(4, -1, -1)
        for j in range(4 - i, -1, -1)]
MON4_INDEX = {m: n for n, m in enumerate(MON4)}


def _macaulay_structure():
    """Row plan: for each degree-4 monomial, which quadric times which
    degree-2 multiplier produces it, plus the scatter columns."""
    rows = []
    for alpha in MON4:
        if alpha[0] >= 2:
            eq, mult = 0, (alpha[0] - 2, alpha[1], alpha[2])
        elif alpha[1] >= 2:
            eq, mult = 1, (alpha[0], alpha[1] - 2, alpha[2])
        else:
            eq, mult = 2, (alpha[0], alpha[1], alpha[2] - 2)
        cols = []
        for e2 in EXP2:
            tgt = (mult[0] + e2[0], mult[1] + e2[1],
                   mult[2] + (2 - e2[0] - e2[1]))
            cols.append(MON4_INDEX[tgt])
        rows.append((eq, np.array(cols)))
    reduced2 = [MON4_INDEX[m] for m in ((2, 2, 0), (2, 0, 2), (0, 2, 2))]
    return rows, np.array(reduced2)


_MACAULAY_ROWS, _MACAULAY_MINOR = _macaulay_structure()


def _macaulay_dets(Q):
    """(det of the 15x15 elimination matrix, det of its extraneous 3x3
    minor) for three quadrics given as a (3, 6) coefficient array."""
    M = np.zeros((15, 15), dtype=complex)
    for r, (eq, cols) in enumerate(_MACAULAY_ROWS):
        M[r, cols] = Q[eq]
    minor = M[np.ix_(_MACAULAY_MINOR, _MACAULAY_MINOR)]
    return np.linalg.det(M), np.linalg.det(minor)


def discriminant_value(f):
    """Numeric discriminant: the resultant of the three gradient
    quadrics, computed as a Macaulay determinant ratio.  Vanishes exactly
    on singular cubics; scales with the twelfth power of the input."""
    fn = f if isinstance(f, CubicForm) else CubicForm(f)
    det15, det3 = _macaulay_dets(gradient_coeffs(fn.coeffs))
    if abs(det3) < 1e-140:
        # fall back to a unitary change of coordinates
        U = _SAMPLING_FRAMES[1]
        det15, det3 = _macaulay_dets(gradient_coeffs(fn.transform(U).coeffs))
    return det15 / det3


def _pencil_discriminant_samples(c0, c1, radius):
    """Discriminant values at sample parameters on a circle."""
    n = DISCRIMINANT_SAMPLES
    us = radius * np.exp(2j * np.pi * np.arange(n) / n)
    g0 = gradient_coeffs(c0)
    g1 = gradient_coeffs(c1)
    vals = np.empty(n, dtype=complex)
    for k, u in enumerate(us):
        det15, det3 = _macaulay_dets(g0 + u * g1)
        if abs(det3) < 1e-120:
            return None
        vals[k] = det15 / det3
    return vals


def _fixed_unitaries():
    rng = np.random.default_rng(5)
    return [None] + [np.linalg.qr(rng.standard_normal((3, 3))
                                  + 1j * rng.standard_normal((3, 3)))[0]
                     for _ in range(2)]


_SAMPLING_FRAMES = _fixed_unitaries()


def _chart_pair(pencil, chart):
    """(c0, c1) with the chart's members c0 + u c1: chart 0 is f0 + u f1,
    chart 1 is u f0 + f1."""
    c0, c1 = pencil.f0.coeffs, pencil.f1.coeffs
    return (c0, c1) if chart == 0 else (c1, c0)


def pencil_discriminant_fit(pencil, chart=0):
    """Ascending coefficients of the degree-<=12 discriminant polynomial
    on one affine chart of the pencil (chart 0: f0 + u f1, chart 1:
    v f0 + f1), interpolated from circle samples.

    Sparse coefficient patterns can kill the extraneous minor of the
    elimination matrix identically; a fixed unitary change of plane
    coordinates rescales the discriminant by a nonzero constant without
    moving its roots, so retry in rotated frames.
    """
    c0, c1 = _chart_pair(pencil, chart)
    # a pencil lying inside the discriminant yields pure rounding noise,
    # dozens of orders below any honest degree-12 value at this scale
    zero_floor = 1e-20 * max(np.abs(c0).max(), np.abs(c1).max()) ** 12
    for U in _SAMPLING_FRAMES:
        a0 = c0 if U is None else substitute_linear(c0, U)
        a1 = c1 if U is None else substitute_linear(c1, U)
        for radius in (1.0, 1.37, 0.73):
            vals = _pencil_discriminant_samples(a0, a1, radius)
            if vals is None:
                continue
            if np.abs(vals).max() < zero_floor:
                return np.zeros(13, dtype=complex)
            coeffs = np.fft.fft(vals) / len(vals)
            coeffs = coeffs / radius ** np.arange(len(vals))
            tail = np.abs(coeffs[13:]).max()
            scale = np.abs(coeffs).max()
            if tail < 1e-6 * scale:
                return coeffs[:13]
    raise CrossingError(
        "discriminant interpolation failed on every sample circle")


# ---------------------------------------------------------------------------
# crossings of a pencil

# the total Milnor number of a member of each stratum: the least
# multiplicity of a crossing there
MILNOR = {StratumLabel.B1: 1, StratumLabel.B21: 2, StratumLabel.B22: 2,
          StratumLabel.B31: 3, StratumLabel.B32: 3, StratumLabel.B4: 4}


@dataclass(frozen=True)
class Crossing:
    parameter: np.ndarray        # (t1, t2), normalized
    multiplicity: int
    label: StratumLabel
    member: CubicForm
    witness: ProjPoint           # a singular point of the member

    def chart_value(self):
        """The affine value t2/t1 (inf -> None)."""
        if abs(self.parameter[0]) < 1e-9 * abs(self.parameter[1]):
            return None
        return self.parameter[1] / self.parameter[0]


@dataclass(frozen=True)
class PencilCrossings:
    infinite_multiplicity: int   # multiplicity carried by t = (0, 1)
    crossings: tuple

    def total_multiplicity(self):
        return int(sum(c.multiplicity for c in self.crossings))

    def labels(self):
        return tuple(c.label for c in self.crossings)


def _crossing_newton(pencil, chart, r, iters=80):
    """Newton on {grad F(u, z) = 0} in (z_free, u) from the fitted root
    u = r of a chart and the best singular-point candidate of the member
    there.  Returns the crossing's parameter (t1, t2) and point."""
    c0, c1 = _chart_pair(pencil, chart)
    z0 = _singular_candidates(c0 + r * c1)[0][0]
    free = [v for v in range(3) if v != np.argmax(np.abs(z0))]

    def system(x):
        z, u = chart_points(x, free), x[:, 2]
        M1 = second_partials_matrix(c1, z)
        M = second_partials_matrix(c0, z) + u[:, None, None] * M1
        # gradients by Euler's relation: grad f = M z / 2 for a cubic
        g1 = 0.5 * (M1 @ z[:, :, None])
        J = np.concatenate([M[:, :, free], g1], axis=2)
        return 0.5 * (M @ z[:, :, None])[:, :, 0], J

    x, _ = newton.solve(system, [[*z0[free], r]], iters)
    z, u = chart_points(x, free)[0], x[0, 2]
    res = np.abs(eval_gradient(c0, z) + u * eval_gradient(c1, z)).max()
    t, t_fit = (np.array([1, u]), np.array([1, r])) if chart == 0 else (
        np.array([u, 1]), np.array([r, 1]))
    # a fitted root is good to about 1e-3 even where a double root splits
    if not res < 1e-9 * max(np.abs(z).max() ** 2, 1) * (1 + abs(u)) or (
            proj_distance(t, t_fit) > 0.02):
        raise CrossingError(
            f"Newton from the fitted discriminant root {t_fit} did not "
            "converge to a crossing near it")
    return t, z


def pencil_crossings(pencil):
    """All parameters where a pencil member is singular, classified.

    Every root of the interpolated degree-12 discriminant is a crossing
    parameter: those with |u| <= 1 from the chart f0 + u f1, the rest from
    the chart v f0 + f1.  A singular f1 is the crossing at infinity, with
    the degree drop of the first chart as its multiplicity.  Each other
    root is refined by Newton on the gradient system in (point,
    parameter), roots that reach the same crossing count towards its
    multiplicity, and each crossing's class must bear that multiplicity
    out; else CrossingError.
    """
    fit = pencil_discriminant_fit(pencil, chart=0)
    scale0 = max(pencil.f0.scale(), pencil.f1.scale()) ** 12
    if np.abs(fit).max() < 1e-10 * max(scale0, 1e-280):
        raise CrossingError("pencil inside discriminant: the interpolated "
                            "discriminant vanishes identically")
    poly = UniPoly(fit, rel=1e-8)
    roots0 = all_roots(poly, cluster_radius=0.0).roots
    roots0 = roots0[np.abs(roots0) <= 1]
    roots1 = all_roots(UniPoly(pencil_discriminant_fit(pencil, chart=1),
                               rel=1e-8), cluster_radius=0.0).roots
    roots1 = roots1[np.argsort(np.abs(roots1))][:12 - len(roots0)]
    crossings = []
    at_infinity = classify(pencil.f1)
    if at_infinity[0] is not StratumLabel.SMOOTH:
        # the degree drop is the multiplicity at infinity, where the
        # smallest roots of the second chart sit
        m = 12 - poly.degree
        roots1 = roots1[m:]
        crossings.append(_crossing(pencil, 1, [0.0, 1.0], m,
                                   classified=at_infinity))
    refined = [(chart, *_crossing_newton(pencil, chart, r))
               for chart, roots in ((0, roots0), (1, roots1)) for r in roots]
    ts = np.array([t for _, t, _ in refined]).reshape(-1, 2)
    kept = greedy_distinct(ts, 1e-6)
    owner = [int(np.argmin(proj_distance(t, ts[kept]))) for t in ts]
    for k, m in zip(kept, np.bincount(owner, minlength=len(kept))):
        chart, t, z = refined[k]
        crossings.append(_crossing(pencil, chart, t, int(m), near=z))
    total = sum(c.multiplicity for c in crossings)
    if total != 12:
        raise CrossingError(
            f"count mismatch: crossing multiplicities sum to {total}, not 12")
    crossings.sort(key=lambda c: (c.parameter[0] == 0.0,
                                  np.round(c.parameter[1].real, 9),
                                  np.round(c.parameter[1].imag, 9)))
    infinite = sum(c.multiplicity for c in crossings if c.parameter[0] == 0)
    return PencilCrossings(infinite_multiplicity=infinite,
                           crossings=tuple(crossings))


def _crossing(pencil, chart, t, m, near=None, classified=None):
    """The crossing at the parameter t that m fitted roots on a chart
    reach.  Its member is classified once (or `classified` is its class),
    and the class must bear m out, else CrossingError: m is at least the
    Milnor number mu, and above it only where the pencil is tangent to
    the discriminant.  The witness is the certified singular point
    nearest to `near`, or a point of the singular line."""
    # canonical parameter: (1, u) on the finite chart, (0, 1) at infinity
    finite = abs(t[0]) > 1e-9 * abs(t[1])
    t = np.array([1.0, t[1] / t[0]] if finite else [0.0, 1.0])
    member = pencil.member(t)
    label, cert = classified or classify(member)
    if label is StratumLabel.SMOOTH:
        raise CrossingError("count mismatch: the member at the crossing "
                            f"{t} classifies as smooth")
    line = cert.singular.singular_line
    if line is not None:
        witness = ProjPoint(np.linalg.svd(line[None])[2][-1].conj())
    else:
        witness = min((sp.point for sp in cert.singular.points),
                      key=lambda q: 0.0 if near is None
                      else proj_distance(q.coords, near))
    mu = MILNOR.get(label, m)
    if m < mu:
        raise CrossingError(
            f"count mismatch: a {label} member at {t} needs multiplicity "
            f"at least {mu}, but {m} fitted roots reach it")
    if m > mu:
        # the tangent cone of the discriminant at the member is the union
        # of the hyperplanes g(p) = 0 of its singular points p, counted
        # with their Milnor numbers (Teissier), so more roots than mu meet
        # there only where the direction cubic vanishes at some p
        direction = _chart_pair(pencil, chart)[1]
        value = min(abs(eval_coeffs(direction / np.abs(direction).max(),
                                    sp.point.coords))
                    for sp in cert.singular.points)
        if value > 1e-6:
            raise CrossingError(
                f"count mismatch: {m} fitted roots reach the {label} member "
                f"at {t}, but the pencil is not tangent to the "
                f"discriminant there ({value:.1e})")
    return Crossing(parameter=t, multiplicity=m, label=label, member=member,
                    witness=witness)


# ---------------------------------------------------------------------------
# cuspidal members of a net

class NetCusp(NamedTuple):
    alpha: complex
    beta: complex
    point: ProjPoint
    residuals: dict


def _net_newton(net, zchart, starts_xy, iters=60):
    """Multistart Newton on {f, f_a, f_b, det H2} in (x, y, alpha, beta)
    for the member f0 + alpha f1 + beta f2, z_chart pinned to 1."""
    a, b = [v for v in range(3) if v != zchart]
    jet = _cusp_jet([net.f0.coeffs, net.f1.coeffs, net.f2.coeffs], a, b)

    # seed (alpha, beta) by solving the two gradient equations, which
    # are linear in the net parameters, at the start point
    x0 = np.concatenate([starts_xy, np.zeros((len(starts_xy), 2))], axis=1)
    r, J, _ = jet(x0)
    x0[:, 2:] = newton.linear_solve(J[:, 1:3, 2:], -r[:, 1:3])
    x, _ = newton.solve(lambda x: jet(x)[:2], x0, iters)

    with np.errstate(invalid='ignore', over='ignore'):
        r, _, grad = jet(x)
    z, al, be = chart_points(x, [a, b]), x[:, 2], x[:, 3]
    fval, d2res = np.abs(r[:, 0]), np.abs(r[:, 3])
    gres = np.abs(grad).max(axis=1)
    msc = 1.0 + np.abs(al) + np.abs(be)
    zsc = np.maximum(np.abs(z).max(axis=1), 1.0)
    good = (np.isfinite(fval) & (fval < 1e-9 * msc * zsc ** 3)
            & (gres < 1e-9 * msc * zsc ** 2)
            & (d2res < 1e-8 * (msc * zsc) ** 2))
    good &= (np.abs(al) < 1e6) & (np.abs(be) < 1e6)
    good &= np.abs(z).max(axis=1) < 1e6
    return z[good], al[good], be[good]


def net_cusp_members(net, starts=2000, seed=NET_SEED):
    """All cuspidal members f0 + alpha f1 + beta f2 of a net.

    Multistart Newton on the four-equation cusp system per point chart,
    deduplicated across charts, each hit verified by classification.
    Raises "insufficient starts" when doubling the start count changes
    the result.
    """
    first = _net_cusp_search(net, starts, seed)
    second = _net_cusp_search(net, 2 * starts, seed + 1)
    if len(first) != len(second):
        raise CrossingError(
            f"insufficient starts: {len(first)} cuspidal members at "
            f"{starts} starts but {len(second)} at {2 * starts}")
    for (al, be, _, _) in first:
        if not any(abs(al - a2) < 1e-6 and abs(be - b2) < 1e-6
                   for (a2, b2, _, _) in second):
            raise CrossingError(
                "insufficient starts: doubled run found a different set "
                "of cuspidal members")
    return first


def _net_cusp_search(net, starts, seed):
    rng = np.random.default_rng(seed)
    sx = (rng.standard_normal((starts, 2))
          + 1j * rng.standard_normal((starts, 2))) * 1.2
    hits = []
    for zchart in range(3):
        z, al, be = _net_newton(net, zchart, sx)
        for zi, a_i, b_i in zip(z, al, be):
            hits.append((complex(a_i), complex(b_i), ProjPoint(zi)))
    params = np.array([(a_i, b_i) for a_i, b_i, _ in hits])
    dedup = [hits[i] for i in greedy_distinct(
        params, 1e-6, lambda p, Q: np.abs(Q - p).max(axis=1))]
    out = []
    for (a_i, b_i, p) in dedup:
        member = CubicForm(net.f0.coeffs + a_i * net.f1.coeffs
                           + b_i * net.f2.coeffs)
        try:
            label, cert = classify(member)
        except NumericalError:
            continue
        if label is not StratumLabel.B22:
            continue
        mn = member.normalize()
        res = {
            "f": float(abs(eval_coeffs(mn.coeffs, p.coords))),
            "grad": float(np.abs(eval_gradient(mn.coeffs, p.coords)).max()),
        }
        out.append(NetCusp(a_i, b_i, p, res))
    out.sort(key=lambda nc: (round(nc.alpha.real, 9), round(nc.alpha.imag, 9),
                             round(nc.beta.real, 9), round(nc.beta.imag, 9)))
    return out
