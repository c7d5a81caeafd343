"""Plane cubic forms in three homogeneous variables.

A cubic form is stored as a vector of 10 complex coefficients over the
monomial basis z1^i z2^j z3^(3-i-j), with the exponent pairs (i, j) in
lexicographic order.  Both polynomial constructions here are integer
tables applied to the coefficients, so integer inputs produce integer
outputs exactly.  The Hessian determinant is a sparse sum of 102 weighted
triple products of coefficients, and the linear substitution f(M z) is one
tensor contraction of the coefficients with three copies of M.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .errors import DegenerateInputError, SchemaError

# exponent pairs (i, j) for z1^i z2^j z3^(3-i-j), lexicographic
MONOMIALS = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0),
             (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]
MONOMIAL_INDEX = {m: n for n, m in enumerate(MONOMIALS)}

# exponent pairs for the degree-2 basis z1^i z2^j z3^(2-i-j)
MONOMIALS2 = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
MONOMIAL2_INDEX = {m: n for n, m in enumerate(MONOMIALS2)}

EXP3 = np.array([(i, j, 3 - i - j) for i, j in MONOMIALS])          # (10, 3)
EXP2 = np.array([(i, j, 2 - i - j) for i, j in MONOMIALS2])         # (6, 3)


def _build_derivative_matrices():
    """D[v] maps cubic coefficients to the coefficients of d/dz_v."""
    D = np.zeros((3, 6, 10))
    for n, (i, j) in enumerate(MONOMIALS):
        k = 3 - i - j
        e = (i, j, k)
        for v in range(3):
            if e[v] == 0:
                continue
            low = list(e)
            low[v] -= 1
            D[v, MONOMIAL2_INDEX[(low[0], low[1])], n] = e[v]
    return D

DERIV = _build_derivative_matrices()


def _build_third_partials():
    """THIRD[u, v, w] maps cubic coefficients to d3f / dz_u dz_v dz_w."""
    T = np.zeros((3, 3, 3, 10))
    for n, e in enumerate(EXP3):
        for u, v, w in product(range(3), repeat=3):
            low = list(e)
            c = 1
            for x in (u, v, w):
                c *= low[x]
                low[x] -= 1
            T[u, v, w, n] = c
    return T

THIRD = _build_third_partials()


def _build_triple_products():
    """TRIP[p, q, r, m] = 1 where z_p z_q z_r is cubic basis monomial m."""
    trip = np.zeros((3, 3, 3, 10))
    for p, q, r in product(range(3), repeat=3):
        e = np.bincount([p, q, r], minlength=3)
        trip[p, q, r, MONOMIAL_INDEX[(e[0], e[1])]] = 1.0
    return trip

TRIP = _build_triple_products()

# WORD[n]: the variables of monomial n as a sorted word, z1^2 z3 -> (0, 0, 2)
WORD = np.array([[0] * i + [1] * j + [2] * (3 - i - j) for i, j in MONOMIALS])


def _build_hessian_tensor():
    """T[m,a,b,c] with hessian(f) = sum_{a,b,c} T[:,a,b,c] f_a f_b f_c.

    The Hessian matrix of a cubic has entries linear in z and linear in the
    coefficient vector; its determinant is therefore a cubic form whose
    coefficients are exact integer contractions of three copies of f.
    """
    # S[m, u, v, w]: coefficient of z_w in d^2(monomial m)/dz_u dz_v
    S = THIRD.transpose(3, 0, 1, 2)
    T = np.zeros((10, 10, 10, 10))
    for sigma in permutations(range(3)):
        sgn = 1.0
        for x in range(3):
            for y in range(x + 1, 3):
                if sigma[x] > sigma[y]:
                    sgn = -sgn
        T += sgn * np.einsum('aP,bQ,cR,PQRm->mabc',
                             S[:, 0, sigma[0], :],
                             S[:, 1, sigma[1], :],
                             S[:, 2, sigma[2], :],
                             TRIP)
    return T

HESSIAN_TENSOR = _build_hessian_tensor()

# The 102 nonzero entries of HESSIAN_TENSOR as a sparse sum: column t of
# HESSIAN_TERMS is (m, a, b, c), and term t adds T[m,a,b,c] f_a f_b f_c to
# output slot m.  The scatter matrix (10, 102) carries each weight T[m,a,b,c]
# to its slot.
HESSIAN_TERMS = np.array(np.nonzero(HESSIAN_TENSOR))
_HESSIAN_SCATTER = np.zeros((10, HESSIAN_TERMS.shape[1]), dtype=complex)
_HESSIAN_SCATTER[HESSIAN_TERMS[0], np.arange(HESSIAN_TERMS.shape[1])] = \
    HESSIAN_TENSOR[tuple(HESSIAN_TERMS)]


def monomial_values(points, exps):
    """Rows of monomial values z1^i z2^j z3^k for each point (batched)."""
    P = np.atleast_2d(np.asarray(points, dtype=complex))
    return (P[:, None, 0] ** exps[None, :, 0]
            * P[:, None, 1] ** exps[None, :, 1]
            * P[:, None, 2] ** exps[None, :, 2])


def chart_points(x, free):
    """Points (n, 3) whose coordinates free are the first two columns of x
    and whose remaining coordinate is 1."""
    z = np.ones((len(x), 3), dtype=complex)
    z[:, free] = x[:, :2]
    return z


def eval_coeffs(coeffs, points):
    """Evaluate a cubic coefficient vector at one point or a batch."""
    vals = monomial_values(points, EXP3) @ np.asarray(coeffs, dtype=complex)
    return vals if np.ndim(points) > 1 else vals[0]


def gradient_coeffs(coeffs):
    """Coefficient vectors (3, 6) of the three partial derivatives."""
    return DERIV @ np.asarray(coeffs, dtype=complex)


def eval_gradient(coeffs, points):
    """Gradient rows at one point or a batch: (..., 3)."""
    g = gradient_coeffs(coeffs)
    vals = monomial_values(points, EXP2) @ g.T
    return vals if np.ndim(points) > 1 else vals[0]


def hessian_coeffs(coeffs):
    """Coefficient vector of det of the matrix of second partials."""
    a = np.asarray(coeffs, dtype=complex)
    _, i, j, k = HESSIAN_TERMS
    return _HESSIAN_SCATTER @ (a[i] * a[j] * a[k])


def hessian_directional(coeffs, direction):
    """Directional derivative of hessian_coeffs along a coefficient path."""
    a = np.asarray(coeffs, dtype=complex)
    b = np.asarray(direction, dtype=complex)
    _, i, j, k = HESSIAN_TERMS
    ai, aj, ak = a[i], a[j], a[k]
    return _HESSIAN_SCATTER @ (b[i] * aj * ak + ai * b[j] * ak
                               + ai * aj * b[k])


def third_partials(coeffs):
    """The constant third partials of a cubic: (3, 3, 3), indexed by
    variable."""
    return THIRD @ np.asarray(coeffs, dtype=complex)


def second_partials_matrix(coeffs, point):
    """Matrices of second partial derivatives at one point (3, 3) or a
    batch of points (..., 3, 3).  A second partial of a cubic is linear,
    so by Euler's relation it is the third partials contracted with the
    point."""
    P = np.asarray(point, dtype=complex)
    M = P @ third_partials(coeffs).reshape(3, 9)
    return M.reshape(P.shape[:-1] + (3, 3))


def substitute_linear(coeffs, M):
    """Coefficients of f(M z) for a 3x3 matrix M.  Monomial n is the
    product of the variables in WORD[n]; each becomes a row of M z, and
    TRIP collects the expanded triple products in the cubic basis."""
    a = np.asarray(coeffs, dtype=complex)
    M = np.asarray(M, dtype=complex)
    return np.einsum('n,nu,nv,nw,uvwm->m', a, M[WORD[:, 0]], M[WORD[:, 1]],
                     M[WORD[:, 2]], TRIP)


# ---------------------------------------------------------------------------
# public types

@dataclass(frozen=True)
class CubicForm:
    """A plane cubic form; wraps the 10-vector of monomial coefficients."""

    coeffs: np.ndarray

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=complex).reshape(10)
        if not np.all(np.isfinite(c.view(float))):
            raise DegenerateInputError("non-finite coefficient")
        if np.max(np.abs(c)) == 0.0:
            raise DegenerateInputError("all coefficients zero")
        c.flags.writeable = False
        object.__setattr__(self, 'coeffs', c)

    @classmethod
    def from_monomials(cls, entries):
        """Build from a {(i, j): coefficient} mapping."""
        c = np.zeros(10, dtype=complex)
        for (i, j), v in entries.items():
            if (i, j) not in MONOMIAL_INDEX:
                raise SchemaError(f"bad exponent pair {(i, j)}")
            c[MONOMIAL_INDEX[(i, j)]] = v
        return cls(c)

    def coeff(self, i, j):
        return self.coeffs[MONOMIAL_INDEX[(i, j)]]

    def normalize(self):
        """Scale so the coefficient of largest modulus is exactly 1."""
        n = int(np.argmax(np.abs(self.coeffs)))
        return CubicForm(self.coeffs / self.coeffs[n])

    def scale(self):
        return float(np.max(np.abs(self.coeffs)))

    def __add__(self, other):
        return CubicForm(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return CubicForm(self.coeffs - other.coeffs)

    def __mul__(self, s):
        return CubicForm(self.coeffs * s)

    __rmul__ = __mul__

    def __call__(self, point):
        p = point.coords if isinstance(point, ProjPoint) else point
        return eval_coeffs(self.coeffs, p)

    def gradient(self, point):
        p = point.coords if isinstance(point, ProjPoint) else point
        return eval_gradient(self.coeffs, p)

    def hessian_form(self):
        """The Hessian of this cubic as a new cubic form.

        The coefficients are cubic in those of f, so the identically-zero
        Hessian of a cone shows up as pure rounding noise relative to
        scale()**3; that counts as vanishing.
        """
        h = hessian_coeffs(self.coeffs)
        if np.max(np.abs(h)) <= 1e-10 * self.scale() ** 3:
            raise DegenerateInputError("hessian vanishes identically")
        return CubicForm(h)

    def transform(self, M):
        """The pullback f(M z)."""
        return CubicForm(substitute_linear(self.coeffs, M))

    def to_json_dict(self):
        return {"coeffs": [{"i": i, "j": j,
                            "re": float(self.coeffs[n].real),
                            "im": float(self.coeffs[n].imag)}
                           for n, (i, j) in enumerate(MONOMIALS)]}

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict) or "coeffs" not in d:
            raise SchemaError("cubic form document must have a 'coeffs' key")
        entries = d["coeffs"]
        if not isinstance(entries, list) or len(entries) != 10:
            raise SchemaError("cubic form must list exactly 10 coefficients")
        c = np.zeros(10, dtype=complex)
        for n, ent in enumerate(entries):
            try:
                i, j = int(ent["i"]), int(ent["j"])
                re, im = float(ent["re"]), float(ent["im"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"bad coefficient entry {ent!r}") from exc
            if (i, j) != MONOMIALS[n]:
                raise SchemaError(
                    f"coefficient {n} has exponents {(i, j)}, "
                    f"expected {MONOMIALS[n]} (lexicographic order)")
            c[n] = complex(re, im)
        return cls(c)

    def __repr__(self):
        terms = []
        for n, (i, j) in enumerate(MONOMIALS):
            v = self.coeffs[n]
            if v != 0:
                terms.append(f"({v:.3g})*z1^{i}*z2^{j}*z3^{3 - i - j}")
        return "CubicForm(" + " + ".join(terms) + ")"


@dataclass(frozen=True)
class ProjPoint:
    """A point of the projective plane, stored with max-modulus coord = 1."""

    coords: np.ndarray

    def __init__(self, coords):
        v = np.array(coords, dtype=complex).reshape(3)
        if not np.all(np.isfinite(v.view(float))):
            raise DegenerateInputError("non-finite coordinate")
        m = np.abs(v)
        if m.max() == 0.0:
            raise DegenerateInputError("all coordinates zero")
        v = v / v[int(np.argmax(m))]
        v.flags.writeable = False
        object.__setattr__(self, 'coords', v)

    def distance(self, other):
        return proj_distance(self.coords, other.coords)

    def __repr__(self):
        return ("ProjPoint(" +
                ", ".join(f"{z.real:+.6g}{z.imag:+.6g}j" for z in self.coords)
                + ")")


def proj_distance(p, q):
    """Chordal distance on projective space (sine of the F-S angle).

    Computed from the 2x2 minors of the pair, which keeps full relative
    precision for nearly proportional vectors.  Works for coordinate
    vectors of any fixed length, so it also serves as the metric on
    coefficient space.  A 2-D q gives the distances from p to each of its
    rows.
    """
    p = np.asarray(p, dtype=complex).ravel()
    q = np.asarray(q, dtype=complex)
    Q = q.reshape(-1, len(p))
    np_ = np.linalg.norm(p)
    nq = np.linalg.norm(Q, axis=1)
    if np_ == 0.0 or np.any(nq == 0.0):
        raise DegenerateInputError("zero vector has no projective distance")
    i, j = np.triu_indices(len(p), k=1)
    wedge = p[i] * Q[:, j] - p[j] * Q[:, i]
    d = np.minimum(1.0, np.linalg.norm(wedge, axis=1) / (np_ * nq))
    return d if q.ndim > 1 else float(d[0])


def greedy_distinct(points, radius, distance=proj_distance):
    """Indices of the points kept by the greedy rule: a point is kept when
    it lies farther than radius from every point kept before it.
    distance(p, Q) gives the distances from p to each row of Q."""
    points = np.asarray(points)
    kept = []
    for i, p in enumerate(points):
        if not kept or np.all(distance(p, points[kept]) > radius):
            kept.append(i)
    return kept


def _check_independent(forms, need):
    A = np.array([f.coeffs for f in forms])
    s = np.linalg.svd(A, compute_uv=False)
    if len(s) < need or s[need - 1] < 1e-12 * s[0]:
        raise DegenerateInputError(
            f"spanning forms are linearly dependent (need rank {need})")


@dataclass(frozen=True)
class Pencil:
    """A line of cubics t1*f0 + t2*f1."""

    f0: CubicForm
    f1: CubicForm

    def __post_init__(self):
        _check_independent([self.f0, self.f1], 2)

    def member(self, t):
        t = np.asarray(t, dtype=complex).reshape(2)
        if np.max(np.abs(t)) == 0.0:
            raise DegenerateInputError("degenerate parameter")
        return CubicForm(t[0] * self.f0.coeffs + t[1] * self.f1.coeffs).normalize()


@dataclass(frozen=True)
class Net:
    """A two-plane of cubics t1*f0 + t2*f1 + t3*f2."""

    f0: CubicForm
    f1: CubicForm
    f2: CubicForm

    def __post_init__(self):
        _check_independent([self.f0, self.f1, self.f2], 3)

    def member(self, t):
        t = np.asarray(t, dtype=complex).reshape(3)
        if np.max(np.abs(t)) == 0.0:
            raise DegenerateInputError("degenerate parameter")
        return CubicForm(t[0] * self.f0.coeffs + t[1] * self.f1.coeffs
                         + t[2] * self.f2.coeffs).normalize()


# named cubics used throughout the test harness and bundled data
def fermat_cubic():
    return CubicForm.from_monomials({(3, 0): 1, (0, 3): 1, (0, 0): 1})


def triangle_cubic():
    return CubicForm.from_monomials({(1, 1): 1})


def node_family(a30, a03, a00):
    """z1 z2 z3 + a30 z1^3 + a03 z2^3 + a00 z3^3."""
    return CubicForm.from_monomials(
        {(1, 1): 1, (3, 0): a30, (0, 3): a03, (0, 0): a00})


def cusp_family(tau):
    """z1^3 + z2^2 z3 + tau z3^3."""
    return CubicForm.from_monomials({(3, 0): 1, (0, 2): 1, (0, 0): tau})


def hesse_pencil():
    """The pencil spanned by the Fermat cubic and the coordinate triangle."""
    return Pencil(fermat_cubic(), triangle_cubic())
