"""Equisingular classification of cubics and discriminant geometry.

classify() places a cubic into one of the nine equisingular classes
(smooth, one/two/three nodes, cusp, tacnode, triple point, double line,
triple line) with a certificate tying the component structure to the
observed singular points.  classify_all() does the same for a sequence
of cubics on one locus.singular_sets pass; classify() is its list of
one.

discriminant_value() is (3^10 / 4)(T^2 - S^3 / 6), from the Aronhold
invariants S and T, each a contraction of copies of third_partials(f)/6
with the Levi-Civita symbol.  pencil_discriminant_fit() composes the one
degree-12 polynomial of a pencil exactly, from S(u) and T(u), with a
rounding bound on each coefficient; a coefficient within it is zero, and
a pencil with every coefficient zero lies inside the discriminant
(CrossingError).  The other chart's polynomial is the same one reversed.

pencil_crossings() reads the multiplicities at both ends off the zero
coefficients at each end of that polynomial, and classifies those ends
directly.  It refines every other root, each on the chart where it lies
in the unit disc, by one Newton solve on the gradient system in (point,
parameter).  The roots that reach a crossing are its multiplicity, which
the class of its member must bear out; the distinct members are
classified together.

net_cusp_members() finds the cuspidal members of a two-parameter net
from S = T = 0 on the net's plane: one hidden-variable eigensolve of
their Sylvester matrix gives a candidate point near every cusp, and
Newton on the cusp system {grad f = 0, det H = 0} polishes each once, in
the chart of its largest coordinate.

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
from .forms import (DERIV, LEVI_CIVITA, TRIP, CubicForm, Pencil, ProjPoint,
                    by_value, chart_points, eval_coeffs, eval_gradient,
                    greedy_distinct, proj_distance, third_partials)
from .locus import (_FLEX_FRAME, _FREE, _NO_LINE_PAIR, SingularSet,
                    _binary_quadratic_roots, _chart_coords, _det_jet,
                    _first_error, _jet, _singular_candidates, _singular_sets)
from .roots import UniPoly, all_roots

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
# the discriminant from the Aronhold invariants S and T

# The symbolic method (Sturmfels, Algorithms in Invariant Theory, 2008;
# Dolgachev, Classical Algebraic Geometry, 2012, ch. 3): each symbol
# a, b, ... is a copy of the symmetric tensor A = third_partials(f) / 6,
# each bracket (abc) a Levi-Civita symbol contracting one index of each
# of its symbols, and
#     S = (abc)(abd)(acd)(bcd),    T = (abc)(abd)(ace)(bcf)(def)^2.
# Each copy takes its tensor from a stack by a (lower-case) index of its
# own, and every operand carries a leading index z over the contraction
# and the same contraction of absolute values.
_S_SUBSCRIPTS = 'zilo,zjmr,zkps,znqt,zaijk,zblmn,zcopq,zdrst->zabcd'
_T_SUBSCRIPTS = ('zADG,zBEJ,zCHM,zFIP,zKNQ,zLOR,'
                 'zaABC,zbDEF,zcGHI,zdJKL,zeMNO,zfPQR->zabcdef')
_BRACKET = np.array([LEVI_CIVITA, np.abs(LEVI_CIVITA)])
# greedy pairwise paths, found for a pencil's stack of two tensors and
# taken for one or three; numpy's default cap on the intermediates (the
# largest operand) would leave one naive loop over all 18 indices of T
_S_PATH, _T_PATH = (
    np.einsum_path(sub, *[_BRACKET] * n, *[np.ones((2, 2, 3, 3, 3))] * n,
                   optimize=('greedy', 10 ** 4))[0]
    for sub, n in ((_S_SUBSCRIPTS, 4), (_T_SUBSCRIPTS, 6)))


def _invariants(cs):
    """S and T, two pairs (value, error), on the family of a stack cs (K,
    10) of K = 1, 2 or 3 cubics: of cs[0] alone (1,); ascending in u on the
    line cs[0] + u cs[1]; or grids (5, 5) and (7, 7) of the coefficients of
    u^i v^j on the plane cs[0] + u cs[1] + v cs[2].  The error is the same
    contraction of absolute values, and the rounding of the value is a
    small multiple of eps times it.  Each coefficient sums its own
    polarised terms, so its error is its own, whatever the cubics' scales."""
    A = third_partials(cs) / 6
    X = np.array([A, np.abs(A)])
    out = []
    for sub, n, path in ((_S_SUBSCRIPTS, 4, _S_PATH),
                         (_T_SUBSCRIPTS, 6, _T_PATH)):
        terms = np.einsum(sub, *[_BRACKET] * n, *[X] * n, optimize=path)
        # a term's degree in the parameter of cs[k] is its copies of cs[k]
        shape, copy = (n + 1,) * (len(cs) - 1), np.indices(terms.shape[1:])
        bins = np.ravel_multi_index([(copy == k).sum(axis=0)
                                     for k in range(1, len(cs))], shape)
        value, error = (terms.reshape(2, -1) @ (
            bins.reshape(-1, 1) == np.arange((n + 1) ** len(shape)))
        ).reshape((2, -1) + shape[1:])
        out.append((value, error.real))
    return out


def _discriminant_polynomial(cs):
    """The discriminant (3^10 / 4)(T^2 - S^3 / 6) on the line of cs, as
    _invariants takes it: ascending coefficients (13,) in u, or (1,), and
    the rounding bound of each.  The bound carries the errors of S and T
    through the products, with the computed |S| and |T| (to first order),
    and adds the rounding of the products themselves."""
    (s, s_err), (t, t_err) = _invariants(cs)
    conv = np.convolve
    value = conv(t, t) - conv(conv(s, s), s) / 6
    s, t = np.abs(s), np.abs(t)
    bound = (conv(t, t) + 2 * conv(t, t_err) + conv(conv(s, s), s) / 6
             + conv(conv(s, s), s_err) / 2)
    # 16 units of rounding: on Gaussian images of the singular named
    # cubics at an end, and on pencils inside the discriminant, the zero
    # coefficients read below 1e-16 of these sums, and the others above
    # 5e-14
    return (3 ** 10 / 4 * value,
            3 ** 10 / 4 * 16 * np.finfo(float).eps * bound)


def discriminant_value(f):
    """Numeric discriminant (3^10 / 4)(T^2 - S^3 / 6) from the Aronhold
    invariants S and T: the resultant of the three gradient quadrics.
    Vanishes exactly on singular cubics, scales with the twelfth power of
    the input, and is det(M)^12 times itself under f -> f(M z)."""
    fn = f if isinstance(f, CubicForm) else CubicForm(f)
    return _discriminant_polynomial(fn.coeffs[None])[0][0]


def pencil_discriminant_fit(pencil, chart=0):
    """Ascending coefficients (13,) of the discriminant polynomial on one
    affine chart of the pencil (chart 0: f0 + u f1, chart 1: v f0 + f1),
    composed exactly from S(u) and T(u); chart 1's is chart 0's reversed.
    A coefficient within its rounding bound is set to zero, so the
    degree drop at either end is read off the polynomial itself.  A
    pencil whose every coefficient is zero lies inside the discriminant:
    CrossingError ("pencil inside discriminant").
    """
    value, bound = _discriminant_polynomial(np.array(
        [pencil.f0.coeffs, pencil.f1.coeffs]))
    value[np.abs(value) <= bound] = 0
    if not value.any():
        raise CrossingError("pencil inside discriminant: every coefficient "
                            "of its discriminant is within rounding")
    return value if chart == 0 else value[::-1]


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
    """Newton on {grad F(u, z) = 0} in (z_free, u) from each root u =
    roots[k] of the discriminant on the chart charts[k] and the best
    singular-point candidate of the member there, all rows in one solve,
    each with its own chart pair and free coordinates.  Returns the crossings'
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
    # a root is good to about 1e-3 even where a double root splits;
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
                f"Newton from the discriminant root {param(roots)[k]} "
                "did not converge to a crossing near it")
    return param(u), z


def pencil_crossings(pencil):
    """All parameters where a pencil member is singular, classified.

    Every root of the degree-12 discriminant polynomial of
    pencil_discriminant_fit is a crossing parameter, taken on the pencil
    of the spanning cubics scaled to one size and mapped back, so that
    Pencil(f0, c f1) has the same crossings with the parameters scaled by
    1/c.  Both ends are alike: where the polynomial has m > 0 zero
    coefficients at one end, the spanning cubic there (f0 at u = 0, f1 at
    u = infinity) is classified directly and must be a crossing of
    multiplicity m.  The other roots come from one root solve of the
    polynomial with both ends divided out, each taken on the chart where
    it lies in the unit disc: u on f0 + u f1, v = 1/u on v f0 + f1.  They
    are seeded from one stacked singular-point candidate search and
    refined together by one Newton solve on the gradient system in
    (point, parameter).  Roots that reach the same crossing count towards
    its multiplicity, and the distinct crossings' members are classified
    in one classify_all pass; each class must bear its multiplicity out,
    else CrossingError.  A pencil inside the discriminant raises
    CrossingError from pencil_discriminant_fit.  A failure is reported for
    the first end, root, then crossing that fails.
    """
    # the roots, charts and distances are those of the spanning cubics
    # scaled to one size, whose parameter is scales * t
    scales = np.array([pencil.f0.scale(), pencil.f1.scale()])
    unit = Pencil(pencil.f0 * (1 / scales[0]), pencil.f1 * (1 / scales[1]))
    poly = pencil_discriminant_fit(unit)
    # the multiplicities at u = 0 and infinity: the zeros at each end
    low, high = np.flatnonzero(poly)[[0, -1]]
    crossings = []
    for chart, m in enumerate((low, 12 - high)):
        if m:
            t = np.eye(2)[chart]
            member = pencil.member(t)
            crossings.append(_crossing(pencil, chart, t, int(m), member,
                                       classify(member)))
    roots = all_roots(UniPoly(poly[low:high + 1], rel=0.0),
                      cluster_radius=0.0).roots
    # each root on the chart where it lies in the unit disc
    charts = (np.abs(roots) > 1).astype(int)
    ts, zs = _crossing_newton(unit, charts,
                              np.where(charts, 1 / roots, roots))
    kept = greedy_distinct(ts, 1e-6)
    owner = np.argmin(proj_distance(ts, ts[kept]), axis=1) if kept else []
    params = [_canonical(ts[k] / scales) for k in kept]
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
    classified as `classified`, that m roots of the discriminant reach.
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
            f"at least {mu}, but {m} roots of the discriminant reach it")
    if m > mu:
        # the tangent cone of the discriminant at the member is the union
        # of the hyperplanes g(p) = 0 of its singular points p, counted
        # with their Milnor numbers (Teissier), so more roots than mu meet
        # there only where the direction cubic vanishes at some p
        direction = (pencil.f1 if chart == 0 else pencil.f0).coeffs
        value = min(abs(eval_coeffs(direction / np.abs(direction).max(),
                                    sp.point.coords))
                    for sp in cert.singular.points)
        if value > 1e-6:
            raise CrossingError(
                f"count mismatch: {m} roots reach the {label} member "
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


def _net_cusp_candidates(cs):
    """Points (n, 3) near every cusp of a cuspidal member of the net of
    the cubics cs (3, 10), among spurious ones, from S = T = 0 on the
    net's plane: a quartic and a sextic with 24 common zeros, found by one
    hidden-variable eigensolve (Nakatsukasa, Noferini and Townsend, Numer.
    Math. 2015).  On the plane (1, x, y) of the cubics mixed by the
    unitary _FLEX_FRAME, the Sylvester matrix in y of S and T has degree 6
    in x; with x = 1/t, its block companion has the t of the common zeros
    as eigenvalues, and y is read off the eigenvectors.  Each member's
    point is its least-residual singular-point candidate.  The frame puts
    a generic line at x = 0, and CrossingError is raised when the leading
    block there is singular, as where S or T vanishes on the whole net."""
    (S, S_err), (T, T_err) = _invariants(_FLEX_FRAME.T @ cs)
    # with x = 1/t, the coefficients of t^m y^j of t^6 S (six rows) and
    # t^6 T (four) are those of x^(6 - m) y^j, each scaled by the size of
    # its terms, if any: a grid within its rounding leaves its rows near
    # zero, and the leading block singular
    R = np.zeros((7, 10, 10), dtype=complex)
    for r in range(10):
        c, e = (S, S_err) if r < 6 else (T, T_err)
        R[7 - len(c):, r, r % 6:r % 6 + len(c)] = c[::-1] / (e.max() or 1)
    if np.linalg.cond(R[6]) > 1e12:
        raise CrossingError("the net's S and T have a singular Sylvester "
                            "matrix at x = 0")
    C = np.eye(60, k=10, dtype=complex)
    C[-10:] = -np.hstack(np.linalg.solve(R[6], R[:6]))
    t, v = np.linalg.eig(C)
    # each block of an eigenvector is a multiple of (1, y, ..., y^9): y is
    # the least-squares ratio of shifted entries, spoilt by no tiny entry
    V = v.reshape(6, 10, -1)
    with np.errstate(divide='ignore', invalid='ignore'):
        p = np.stack([np.ones_like(t), 1 / t,
                      (V[:, 1:] * V[:, :-1].conj()).sum(axis=(0, 1))
                      / (abs(V[:, :-1]) ** 2).sum(axis=(0, 1))], axis=1)
    w = p[(np.abs(t) > 1e-8) & np.isfinite(p).all(axis=1)] @ _FLEX_FRAME.T
    z, _, failed = _singular_candidates(w @ cs)
    return z[~failed, 0]


def net_cusp_members(net):
    """All cuspidal members f0 + alpha f1 + beta f2 of a general net:
    Newton on the cusp system {grad f = 0, det H = 0} in (z_a, z_b,
    alpha, beta), with det H the (a, b) minor of the second partials, from
    each point of _net_cusp_candidates (S = T = 0 on the net's plane) in
    the chart of its largest coordinate, the distinct members reached
    classified in one pass, and the B22 ones kept.  A general net has 24,
    the degree of the cuspidal locus; another count raises CrossingError."""
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
