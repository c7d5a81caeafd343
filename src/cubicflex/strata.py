"""Equisingular classification of cubics and discriminant geometry.

classify() places a cubic into one of the nine equisingular classes
(smooth, one/two/three nodes, cusp, tacnode, triple point, double line,
triple line) with a certificate tying the component structure to the
observed singular points.  classify_all() does the same for a sequence
of cubics on one locus.singular_sets pass; classify() is its list of
one.

discriminant_value() and pencil_discriminant_fit() evaluate the
discriminant, the Macaulay resultant of the gradient quadrics, in the
one fixed generic frame U of locus (the flexes' and the net cusps'),
and divide out det(U)^12, so no value depends on the frame.  A pencil
whose samples are all rounding noise lies inside the discriminant, and
the fit raises CrossingError.  The fit's degree is read off its own
rounding noise, the coefficients above degree 12.

pencil_crossings() refines every root of an interpolated degree-12
discriminant polynomial of a pencil, of both charts at once, by one
Newton solve on the gradient system in (point, parameter).  The roots
that reach a crossing are its multiplicity, which the class of its
member must bear out; the distinct members are classified together.
Both ends of the pencil are alike: an end where the other chart's
polynomial drops degree is classified directly, and its root is divided
out of its own chart's polynomial.

net_cusp_members() finds the cuspidal members of a two-parameter net:
one hidden-variable resultant eigensolve gives a candidate point near
every cusp, and Newton on the cusp system {grad f = 0, det H = 0}
polishes each once, in the chart of its largest coordinate.

Every Newton solve here builds residuals and Jacobians from locus._jet
only; the iteration itself is the shared batched core in newton.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import newton
from .errors import CrossingError, NumericalError
from .forms import (DERIV, EXP2, TRIP, CubicForm, ProjPoint, by_value,
                    chart_points, eval_coeffs, eval_gradient,
                    gradient_coeffs, greedy_distinct, monomial_values,
                    proj_distance, substitute_linear, third_partials)
from .locus import (_FLEX_FRAME, _FREE, _NO_LINE_PAIR, SingularSet,
                    _binary_quadratic_roots, _chart_coords, _det_jet,
                    _first_error, _jet, _singular_candidates, _singular_sets)
from .roots import UniPoly, all_roots

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

# the entries of q -> ell*q: quadric monomial col times z_var is cubic
# monomial row exactly where d/dz_var takes row to col, and no two
# (row, col) pairs coincide
_LINE_VAR, _LINE_COL, _LINE_ROW = np.nonzero(DERIV)


def _line_multiplication_matrix(ell):
    """The 10x6 matrix of q -> ell*q from quadrics to cubics, or a stack of
    them (..., 10, 6) for a stack of lines (..., 3)."""
    L = np.zeros(ell.shape[:-1] + (10, 6), dtype=complex)
    L[..., _LINE_ROW, _LINE_COL] += ell[..., _LINE_VAR]
    return L


def line_division_residuals(coeffs, ells):
    """Relative residuals (m, k) of dividing each cubic of coeffs (m, 10)
    by each linear form of the same row of ells (m, k, 3), by one stacked
    QR.  Close to zero exactly when the line ell = 0 is a component.
    """
    c = np.asarray(coeffs, dtype=complex)[:, None, :, None]
    Q = np.linalg.qr(_line_multiplication_matrix(
        ells / np.abs(ells).max(axis=-1, keepdims=True)))[0]
    rest = c - Q @ (Q.conj().swapaxes(-1, -2) @ c)
    return (np.linalg.norm(rest[..., 0], axis=-1)
            / np.linalg.norm(c[..., 0], axis=-1))


def _branch_tangents(coeffs, nodes):
    """The two tangent lines (m, 2, 3) (dual coefficient vectors) at the
    nodes (m, 3) of the cubics coeffs (m, 10)."""
    free, x = _chart_coords(nodes)
    H = _jet(third_partials(coeffs)[:, None], free, x)[2]
    # the quadratic part H_aa u^2 + 2 H_ab uv + H_bb v^2 factors into the
    # two branch directions
    uv = _binary_quadratic_roots(H[:, 0, 0], 2 * H[:, 0, 1], H[:, 1, 1])
    du, dv = np.eye(3, dtype=complex)[free.T]
    return np.cross(nodes[:, None], uv[..., :1] * du[:, None]
                    + uv[..., 1:] * dv[:, None])


def _is_perfect_cube(coeffs, line):
    """Whether the cubic is proportional to the cube of the given line."""
    cube = np.einsum('uvwn,u,v,w->n', TRIP, line, line, line)
    return proj_distance(np.asarray(coeffs, dtype=complex), cube) < 1e-8


# ---------------------------------------------------------------------------
# classification

def classify(f):
    """Equisingular class of a cubic, with a certificate.

    Returns (StratumLabel, Certificate).  Raises NumericalError
    ("unclassifiable") when the structural tests conflict.  This is
    classify_all on a list of one.
    """
    return classify_all([f])[0]


def classify_all(forms):
    """classify() of each cubic of a sequence: the singular points of all
    of them come from one locus.singular_sets pass, the branch tangents
    at every lone node from one stacked jet, and their division residuals
    from one stacked QR.  Raises the error that classify() raises on the
    first cubic to fail."""
    return _first_error(_classified(forms))


def _classified(forms):
    """classify_all, with a failing cubic's NumericalError in its place."""
    fns = [(f if isinstance(f, CubicForm) else CubicForm(f)).normalize()
           for f in forms]
    sets = _singular_sets([fn.coeffs for fn in fns])
    nodal = [k for k, s in enumerate(sets) if isinstance(s, SingularSet)
             and s.local_types() == ('node',)]
    cs = np.array([fns[k].coeffs for k in nodal]).reshape(-1, 10)
    nodes = np.array([sets[k].points[0].point.coords for k in nodal])
    residuals = dict(zip(nodal, line_division_residuals(
        cs, _branch_tangents(cs, nodes.reshape(-1, 3))).tolist()))
    out = []
    for k, (fn, sing) in enumerate(zip(fns, sets)):
        try:
            # a failed singular-point search re-raises its error here
            sing_set = _first_error([sing])[0]
            label, note = _label(fn, sing_set, residuals.get(k))
            out.append((label, _certificate(label, sing, note)))
        except NumericalError as exc:
            out.append(exc)
    return out


# the strata of cubics with isolated singular points, by their types
_BY_TYPES = {(): StratumLabel.SMOOTH, ('node',): StratumLabel.B1,
             ('node', 'node'): StratumLabel.B21,
             ('node', 'node', 'node'): StratumLabel.B31,
             ('cusp',): StratumLabel.B22, ('tacnode',): StratumLabel.B32,
             ('triple',): StratumLabel.B4}


def _label(fn, sing, residuals):
    """The stratum of a normalized cubic with singular set sing, and the
    certificate's note; residuals are those of dividing it by the two
    branch tangents at a lone node."""
    if sing.singular_line is not None:
        perfect = _is_perfect_cube(fn.coeffs, sing.singular_line)
        return (StratumLabel.B7 if perfect else StratumLabel.B5), ""
    label = _BY_TYPES.get(sing.local_types())
    if label is None:
        raise NumericalError(f"unclassifiable: singular point types "
                             f"{sing.local_types()} match no stratum")
    if label is not StratumLabel.B1:
        return label, ""
    # irreducible unless a branch tangent at the node is a component
    if min(residuals) < 1e-8:
        raise NumericalError(
            "unclassifiable: one node found but a branch tangent "
            f"divides the cubic (residuals {residuals}); a second "
            "singular point was likely missed")
    return label, ("branch tangent division residuals "
                   f"{residuals[0]:.2e}, {residuals[1]:.2e}")


# ---------------------------------------------------------------------------
# numeric discriminant via Macaulay elimination of the gradient quadrics

MON4 = [(i, j, 4 - i - j) for i in range(4, -1, -1)
        for j in range(4 - i, -1, -1)]
MON4_INDEX = {m: n for n, m in enumerate(MON4)}


def _macaulay_structure():
    """Scatter plan: for each degree-4 monomial (a row), which quadric
    times which degree-2 multiplier produces it; entry k of the plan puts
    coefficient term[k] of quadric eq[k] at (row[k], col[k])."""
    plan = []
    for r, alpha in enumerate(MON4):
        if alpha[0] >= 2:
            eq, mult = 0, (alpha[0] - 2, alpha[1], alpha[2])
        elif alpha[1] >= 2:
            eq, mult = 1, (alpha[0], alpha[1] - 2, alpha[2])
        else:
            eq, mult = 2, (alpha[0], alpha[1], alpha[2] - 2)
        for k, e2 in enumerate(EXP2):
            tgt = (mult[0] + e2[0], mult[1] + e2[1],
                   mult[2] + (2 - e2[0] - e2[1]))
            plan.append((r, MON4_INDEX[tgt], eq, k))
    reduced2 = [MON4_INDEX[m] for m in ((2, 2, 0), (2, 0, 2), (0, 2, 2))]
    return np.array(plan).T, np.array(reduced2)


_MACAULAY_PLAN, _MACAULAY_MINOR = _macaulay_structure()


def _macaulay_dets(Q):
    """(det of the 15x15 elimination matrix, det of its extraneous 3x3
    minor) for three quadrics given as a (..., 3, 6) coefficient array,
    each stacked matrix a determinant of its own."""
    row, col, eq, term = _MACAULAY_PLAN
    M = np.zeros(Q.shape[:-2] + (15, 15), dtype=complex)
    M[..., row, col] = Q[..., eq, term]
    minor = M[..., _MACAULAY_MINOR[:, None], _MACAULAY_MINOR]
    return np.linalg.det(M), np.linalg.det(minor)


# the coefficients of f(U z) are those of f times _FRAME_SUB, and the
# resultant of the gradients of f(U z) is det(U)^12 times that of f
_FRAME_SUB = np.array([substitute_linear(e, _FLEX_FRAME) for e in np.eye(10)])
_FRAME_DET12 = np.linalg.det(_FLEX_FRAME) ** 12


def _framed_discriminant(a):
    """Discriminants of f from the stacked coefficients a of f(U z)."""
    det15, det3 = _macaulay_dets(gradient_coeffs(a))
    return det15 / det3 / _FRAME_DET12


def discriminant_value(f):
    """Numeric discriminant: the resultant of the three gradient
    quadrics, computed as a Macaulay determinant ratio in the generic
    frame U and divided by det(U)^12.  Vanishes exactly on singular
    cubics, scales with the twelfth power of the input, and is
    det(M)^12 times itself under f -> f(M z)."""
    fn = f if isinstance(f, CubicForm) else CubicForm(f)
    return _framed_discriminant(fn.coeffs @ _FRAME_SUB)


def _chart_pair(pencil, chart):
    """(c0, c1) with the chart's members c0 + u c1: chart 0 is f0 + u f1,
    chart 1 is u f0 + f1."""
    c0, c1 = pencil.f0.coeffs, pencil.f1.coeffs
    return (c0, c1) if chart == 0 else (c1, c0)


def pencil_discriminant_fit(pencil, chart=0):
    """Ascending coefficients of the degree-<=12 discriminant polynomial
    on one affine chart of the pencil (chart 0: f0 + u f1, chart 1:
    v f0 + f1), interpolated from discriminant_value's framed samples on
    a circle.  The coefficients above degree 12 are rounding noise; the
    leading ones within 100 times the largest of those are set to zero,
    so the fit's degree is read off its own noise.  Samples all below
    1e-10 of the largest spanning coefficient to the twelfth raise
    CrossingError ("pencil inside discriminant"); a circle whose fit
    leaves a tail, as one through a member with a vanishing extraneous
    minor does, is retried at another radius.
    """
    a0, a1 = np.array(_chart_pair(pencil, chart)) @ _FRAME_SUB
    floor = 1e-10 * max(pencil.f0.scale(), pencil.f1.scale()) ** 12
    n = DISCRIMINANT_SAMPLES
    for radius in (1.0, 1.37, 0.73):
        us = radius * np.exp(2j * np.pi * np.arange(n) / n)
        vals = _framed_discriminant(a0 + us[:, None] * a1)
        if np.abs(vals).max() < floor:
            raise CrossingError("pencil inside discriminant: every sample "
                                "of its discriminant is rounding noise")
        coeffs = np.fft.fft(vals) / n / radius ** np.arange(n)
        noise = np.abs(coeffs[13:]).max()
        if noise < 1e-6 * np.abs(coeffs).max():
            coeffs = coeffs[:13]
            coeffs[np.flatnonzero(np.abs(coeffs) > 100 * noise)[-1] + 1:] = 0
            return coeffs
    raise CrossingError(
        "discriminant interpolation failed on every sample circle")


# ---------------------------------------------------------------------------
# crossings of a pencil

# the total Milnor number of a member of each stratum: the least
# multiplicity of a crossing there
MILNOR = {StratumLabel.B1: 1, StratumLabel.B21: 2, StratumLabel.B22: 2,
          StratumLabel.B31: 3, StratumLabel.B32: 3, StratumLabel.B4: 4}


@by_value
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


def _crossing_newton(pencil, charts, roots):
    """Newton on {grad F(u, z) = 0} in (z_free, u) from each fitted root
    u = roots[k] of the chart charts[k] and the best singular-point
    candidate of the member there, all rows in one solve, each with its
    own chart pair and free coordinates.  Returns the crossings'
    parameters (t1, t2) (n, 2) and points (n, 3); raises for the first
    root whose candidate search or Newton run fails."""
    first = (charts == 0)[:, None]
    f0, f1 = pencil.f0.coeffs, pencil.f1.coeffs
    c0, c1 = np.where(first, f0, f1), np.where(first, f1, f0)
    z0, _, failed = _singular_candidates(c0 + roots[:, None] * c1)
    free = _FREE[np.argmax(np.abs(z0[:, 0]), axis=1)]
    T = np.stack([third_partials(c0), third_partials(c1)], axis=1)
    best = np.column_stack([np.take_along_axis(z0[:, 0], free, axis=1),
                            roots])
    least = np.full(len(roots), np.inf)

    def system(x):
        g, J, _, _ = _jet(T, free, x)
        # at a crossing of multiplicity above one the Jacobian is singular:
        # the iterates converge linearly, then wander over residuals from
        # 1e-12 to 1e-9, so each row keeps its iterate of least residual
        size = np.abs(g).max(axis=1)
        better = size < least
        least[better], best[better] = size[better], x[better]
        return g, J

    newton.solve(system, best, 80)
    z, u = chart_points(best, free), best[:, 2]
    # a fitted root is good to about 1e-3 even where a double root splits;
    # on either chart the chordal distance of the parameters is
    # |u - r| / sqrt((1 + |u|^2)(1 + |r|^2))
    good = (least < 1e-9 * np.maximum(np.abs(z).max(axis=1) ** 2, 1)
            * (1 + abs(u))) & (
        abs(u - roots) <= 0.02 * np.sqrt((1 + abs(u) ** 2)
                                         * (1 + abs(roots) ** 2)))

    def param(v):
        return np.where(first, np.stack([np.ones_like(v), v], axis=1),
                        np.stack([v, np.ones_like(v)], axis=1))

    for k in range(len(roots)):
        if failed[k]:
            raise NumericalError(_NO_LINE_PAIR)
        if not good[k]:
            raise CrossingError(
                f"Newton from the fitted discriminant root {param(roots)[k]} "
                "did not converge to a crossing near it")
    return param(u), z


def pencil_crossings(pencil):
    """All parameters where a pencil member is singular, classified.

    Every root of the interpolated degree-12 discriminant is a crossing
    parameter: those with |u| <= 1 from the chart f0 + u f1, the rest from
    the chart v f0 + f1.  Both ends are alike: where the other chart's
    fit drops degree by m > 0, the spanning cubic (f0 at u = 0, f1 at
    u = infinity) is classified directly; unless smooth, it is a crossing
    of multiplicity m, and its chart's m lowest coefficients, rounding
    noise, are divided out, so no noisy roots at that end mingle with a
    genuine crossing near it.  The other roots are seeded from one
    stacked singular-point candidate search and refined together by one
    Newton solve on the gradient system in (point, parameter).  Roots
    that reach the same crossing count towards its multiplicity, and the
    distinct crossings' members are classified in one classify_all pass;
    each class must bear its multiplicity out, else CrossingError.  A
    pencil inside the discriminant raises CrossingError from
    pencil_discriminant_fit.  A failure is reported for the first end,
    root, then crossing that fails.
    """
    fits = [pencil_discriminant_fit(pencil, chart) for chart in (0, 1)]
    # the other chart's degree drop is the multiplicity at a chart's origin
    ends = [12 - int(np.flatnonzero(fit)[-1]) for fit in fits[::-1]]
    crossings = []
    for chart in np.flatnonzero(ends):
        m, t = ends[chart], np.eye(2)[chart]
        member = pencil.member(t)
        end = classify(member)
        if end[0] is not StratumLabel.SMOOTH:
            # the m lowest coefficients are this end's root: rounding noise
            fits[chart] = fits[chart][m:]
            crossings.append(_crossing(pencil, chart, t, m, member, end))
    roots0, roots1 = (all_roots(UniPoly(fit, rel=0.0), cluster_radius=0.0)
                      .roots for fit in fits)
    roots0 = roots0[np.abs(roots0) <= 1]
    roots1 = roots1[np.argsort(np.abs(roots1))][
        :12 - sum(c.multiplicity for c in crossings) - len(roots0)]
    charts = np.repeat([0, 1], [len(roots0), len(roots1)])
    ts, zs = _crossing_newton(pencil, charts,
                              np.concatenate([roots0, roots1]))
    kept = greedy_distinct(ts, 1e-6)
    owner = np.argmin(proj_distance(ts, ts[kept]), axis=1) if kept else []
    params = [_canonical(ts[k]) for k in kept]
    members = [pencil.member(t) for t in params]
    for k, t, member, m, classified in zip(
            kept, params, members, np.bincount(owner, minlength=len(kept)),
            _classified(members)):
        if isinstance(classified, Exception):
            raise classified
        crossings.append(_crossing(pencil, charts[k], t, int(m), member,
                                   classified, near=zs[k]))
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


def _canonical(t):
    """The parameter t as (1, u) on the finite chart, (0, 1) at infinity."""
    finite = abs(t[0]) > 1e-9 * abs(t[1])
    return np.array([1.0, t[1] / t[0]] if finite else [0.0, 1.0])


def _crossing(pencil, chart, t, m, member, classified, near=None):
    """The crossing at the canonical parameter t, whose member is
    classified as `classified`, that m fitted roots on a chart reach.
    The class must bear m out, else CrossingError: m is at least the
    Milnor number mu, and above it only where the pencil is tangent to
    the discriminant.  The witness is the certified singular point
    nearest to `near`, or a point of the singular line."""
    label, cert = classified
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


_Y0 = 0.4173 - 0.2861j      # y = _Y0 + 1/t, fixed and generic


def _net_cusp_candidates(cs):
    """Points (n, 3) near every cusp of a cuspidal member of the net of
    the cubics cs (3, 10), among spurious ones, by one hidden-variable
    eigensolve (Nakatsukasa, Noferini and Townsend, Numer. Math. 2015).
    With g_i = f_i(U z) in the frame of inflection_points, the member
    k = G[0] x G[1] is singular where J = det[grad g_i] (degree 6)
    vanishes, and cuspidal where the (0, 1) minor c of its second
    partials (degree 10) does.  An FFT of t^10 J and t^10 c on the 11 x 11
    roots of unity (x, t) makes their Sylvester matrix in x a matrix
    polynomial S(t), whose block companion has the t of the common zeros
    as eigenvalues.  Raises CrossingError when S_10 (y = _Y0) is singular.
    """
    g = np.array([substitute_linear(c, _FLEX_FRAME) for c in cs])
    w = np.exp(2j * np.pi * np.arange(11) / 11)
    P = np.stack(np.broadcast_arrays(w[:, None], _Y0 + 1 / w, 1), axis=-1)
    G = np.einsum('abm,ivm->abvi', monomial_values(P, 2), gradient_coeffs(g))
    k = np.cross(G[..., 0, :], G[..., 1, :])
    H = np.einsum('abi,iluv,abl->abuv', k, third_partials(g), P)
    Jc, cc = np.fft.fft2(np.stack([np.linalg.det(G), H[..., 0, 0]
                                   * H[..., 1, 1] - H[..., 0, 1] ** 2])
                         * w ** 10)      # coefficients of x^i t^m, times 121
    S = np.zeros((11, 16, 16), dtype=complex)
    for r, (c, shift) in enumerate([(Jc[:7], s) for s in range(10)]
                                   + [(cc, s) for s in range(6)]):
        S[:, r, shift:shift + len(c)] = c.T / np.abs(c).max()
    if np.linalg.cond(S[10]) > 1e12:
        raise CrossingError("the net's cusp system has a singular "
                            f"Sylvester matrix at the fixed y = {_Y0}")
    C = np.eye(160, k=16, dtype=complex)
    C[-16:] = -np.hstack(np.linalg.solve(S[10], S[:10]))
    t, v = np.linalg.eig(C)
    # each block of an eigenvector is a multiple of (1, x, ..., x^15): x is
    # the least-squares ratio of shifted entries, spoilt by no tiny entry
    V = v.reshape(10, 16, -1)
    with np.errstate(divide='ignore', invalid='ignore'):
        z = np.stack([(V[:, 1:] * V[:, :-1].conj()).sum(axis=(0, 1))
                      / (abs(V[:, :-1]) ** 2).sum(axis=(0, 1)),
                      _Y0 + 1 / t, np.ones_like(t)], axis=1)
    return z[(np.abs(t) > 1e-8) & np.isfinite(z).all(axis=1)] @ _FLEX_FRAME.T


def net_cusp_members(net):
    """All cuspidal members f0 + alpha f1 + beta f2 of a general net:
    Newton on the cusp system {grad f = 0, det H = 0} in (z_a, z_b,
    alpha, beta), with det H the (a, b) minor of the second partials, from
    every candidate of _net_cusp_candidates in the chart of its largest
    coordinate, the distinct members reached classified in one pass, and
    the B22 ones kept.  A general net has 24, the degree of the cuspidal
    locus; another count raises CrossingError."""
    cs = np.array([net.f0.coeffs, net.f1.coeffs, net.f2.coeffs])
    free, z = _chart_coords(_net_cusp_candidates(cs))
    n = np.arange(len(z))[:, None]
    T = np.broadcast_to(third_partials(cs), (len(z), 3, 3, 3, 3))

    def system(x):
        g, Jg, H, dH = _jet(T, free, x)
        det, ddet = _det_jet(H, dH)
        return (np.column_stack([g, det]),
                np.concatenate([Jg, ddet[:, None]], axis=1))

    x = np.pad(z, ((0, 0), (0, 2)))
    # the gradient equations f_a = f_b = 0 are linear in (alpha, beta)
    r, J = system(x)
    x[:, 2:] = newton.linear_solve(J[n, free, 2:], -r[n, free])
    x, _, r, _ = newton.solve(system, x, 60)
    # each residual is of degree at most 4 in x
    with np.errstate(invalid='ignore', over='ignore'):
        res = (np.abs(r) / (1 + np.abs(x).max(
            axis=1, keepdims=True)) ** 4).max(axis=1)
    hits = np.column_stack([chart_points(x, free), x[:, 2:]])
    # least residual first, so each member keeps its most accurate hit;
    # NaN rows sort last and go
    hits = hits[np.argsort(res)[:np.sum(res < 1e-9)]]
    kept = greedy_distinct(hits[:, 3:], 1e-6,
                           lambda q, Q: np.abs(Q - q).max(axis=1))
    members = [net.member((1, al, be)) for al, be in hits[kept, 3:]]
    out = []
    for i, member, cl in zip(kept, members, _classified(members)):
        if isinstance(cl, Exception) or cl[0] is not StratumLabel.B22:
            continue
        q = hits[i, :3]
        out.append(NetCusp(*map(complex, hits[i, 3:]), ProjPoint(q), {
            "f": float(abs(eval_coeffs(member.coeffs, q))),
            "grad": float(np.abs(eval_gradient(member.coeffs, q)).max())}))
    if len(out) != 24:
        raise CrossingError(f"{len(out)} cuspidal members, not the 24 of a "
                            "general net")
    return sorted(out, key=lambda nc: np.round(
        np.array([nc.alpha, nc.beta]).view(float), 9).tolist())
