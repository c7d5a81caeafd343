"""Plane cubic forms in three homogeneous variables.

A cubic form is stored as a vector of 10 complex coefficients over the
monomial basis z1^i z2^j z3^(3-i-j), with the exponent pairs (i, j) in
lexicographic order.  Every exact table here is an integer contraction
of the one-hot product tables TRIP (z_u z_v z_w in the cubic basis) and
PAIR (z_u z_v in the quadric basis), so integer inputs produce integer
outputs exactly.  The Hessian determinant is a sparse sum of 102 weighted
triple products of coefficients, and the linear substitution f(M z) is one
tensor contraction of the coefficients with three copies of M.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from .errors import DegenerateInputError, SchemaError

# exponent pairs (i, j) for z1^i z2^j z3^(3-i-j), lexicographic
MONOMIALS = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0),
             (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]
MONOMIAL_INDEX = {m: n for n, m in enumerate(MONOMIALS)}

# exponent pairs for the degree-2 basis z1^i z2^j z3^(2-i-j)
MONOMIALS2 = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

EXP3 = np.array([(i, j, 3 - i - j) for i, j in MONOMIALS])          # (10, 3)
EXP2 = np.array([(i, j, 2 - i - j) for i, j in MONOMIALS2])         # (6, 3)


def _products(basis, degree):
    """The one-hot table P[u_1, ..., u_d, n] = 1 where the product
    z_u1 ... z_ud is monomial n of the degree-d basis."""
    words = np.indices((3,) * degree).reshape(degree, -1)
    exps = (words[..., None] == np.arange(3)).sum(axis=0)
    target = np.array([(i, j, degree - i - j) for i, j in basis])
    return (exps[:, None] == target).all(axis=-1).astype(float).reshape(
        (3,) * degree + (len(basis),))

TRIP = _products(MONOMIALS, 3)      # (3, 3, 3, 10)
PAIR = _products(MONOMIALS2, 2)     # (3, 3, 6)

# THIRD[u, v, w] maps cubic coefficients to d3f / dz_u dz_v dz_w: the third
# partials of z^e are e1! e2! e3! on each ordering of its word
THIRD = TRIP * np.array([1, 1, 2, 6])[EXP3].prod(axis=1)

# DERIV[v] maps cubic coefficients to those of df/dz_v, the quadric
# (1/2) z^T THIRD[v] z in the MONOMIALS2 basis
DERIV = 0.5 * np.einsum('vuwn,uwm->vmn', THIRD, PAIR)


def _words(basis, degree):
    """Row n: the variables of monomial n as a sorted word, so that
    z1^2 z3 -> (0, 0, 2)."""
    return np.array([[0] * i + [1] * j + [2] * (degree - i - j)
                     for i, j in basis])

WORD = _words(MONOMIALS, 3)
# FACTORS[d][k][n]: the k-th variable of degree-d monomial n, one
# contiguous index array per k, so monomial_values gathers and multiplies
FACTORS = {d: tuple(_words(basis, d).T.copy())
           for d, basis in ((2, MONOMIALS2), (3, MONOMIALS))}

# the Levi-Civita symbol eps_ijk
LEVI_CIVITA = np.cross(np.eye(3)[:, None], np.eye(3))

# hessian(f) = sum_abc HESSIAN_TENSOR[:, a, b, c] f_a f_b f_c: the
# determinant eps_ijk H_0i H_1j H_2k of the second partials
# H_uv = f_a THIRD[u, v, P, a] z_P, with TRIP collecting the z_P z_Q z_R
HESSIAN_TENSOR = np.einsum('ijk,iPa,jQb,kRc,PQRm->mabc', LEVI_CIVITA,
                           THIRD[0], THIRD[1], THIRD[2], TRIP, optimize=True)

# The 102 nonzero entries of HESSIAN_TENSOR as a sparse sum: column t of
# HESSIAN_TERMS is (m, a, b, c), and term t adds T[m,a,b,c] f_a f_b f_c to
# output slot m.  The scatter matrix (10, 102) carries each weight T[m,a,b,c]
# to its slot.
HESSIAN_TERMS = np.array(np.nonzero(HESSIAN_TENSOR))
_HESSIAN_SCATTER = np.zeros((10, HESSIAN_TERMS.shape[1]), dtype=complex)
_HESSIAN_SCATTER[HESSIAN_TERMS[0], np.arange(HESSIAN_TERMS.shape[1])] = \
    HESSIAN_TENSOR[tuple(HESSIAN_TERMS)]


def monomial_values(points, degree):
    """Rows of the values of the degree-2 (MONOMIALS2) or degree-3
    (MONOMIALS) monomials at each point (batched over any leading axes):
    products of gathered coordinates, with no complex powers."""
    P = np.atleast_2d(np.asarray(points, dtype=complex))
    first, *rest = FACTORS[degree]
    v = P.take(first, axis=-1)
    for k in rest:
        v *= P.take(k, axis=-1)
    return v


def chart_points(x, free):
    """Points (n, 3) whose coordinates free, a pair (2,) for every row or
    one pair per row (n, 2), are the first two columns of x and whose
    remaining coordinate is 1."""
    z = np.ones((len(x), 3), dtype=complex)
    z[np.arange(len(x))[:, None], free] = x[:, :2]
    return z


def eval_coeffs(coeffs, points):
    """Evaluate a cubic coefficient vector at one point or a batch."""
    vals = monomial_values(points, 3) @ np.asarray(coeffs, dtype=complex)
    return vals if np.ndim(points) > 1 else vals[0]


def gradient_coeffs(coeffs):
    """Coefficient vectors (3, 6) of the three partial derivatives, of one
    cubic or of each of a stack (..., 10).  Each is the product of one
    coefficient and an integer, so a stack rounds as single calls do."""
    return np.einsum('vmk,...k->...vm', DERIV,
                     np.asarray(coeffs, dtype=complex))


def eval_gradient(coeffs, points):
    """Gradient rows at one point or a batch: (..., 3)."""
    g = gradient_coeffs(coeffs)
    vals = monomial_values(points, 2) @ g.T
    return vals if np.ndim(points) > 1 else vals[0]


def hessian_coeffs(coeffs):
    """Coefficient vector of det of the matrix of second partials."""
    a = np.asarray(coeffs, dtype=complex)
    _, i, j, k = HESSIAN_TERMS
    return _HESSIAN_SCATTER @ (a[i] * a[j] * a[k])


def exact_hessian_coeffs(coeffs):
    """hessian_coeffs with every coefficient correctly rounded.

    The 102 terms can cancel to a thousandth of their size, and the
    floating-point sum loses as many digits.  Each coefficient part is an
    integer over one common power of two, so Python integers sum the terms
    exactly, and each result is rounded once.  Parts of modulus above
    about 1e100 give a Hessian beyond the float range: OverflowError."""
    a = np.asarray(coeffs, dtype=complex)
    ratios = [x.as_integer_ratio()
              for x in np.concatenate([a.real, a.imag]).tolist()]
    den = max(d for _, d in ratios)
    n = np.array([p * (den // d) for p, d in ratios], dtype=object)
    re, im = n[:10], n[10:]
    m, i, j, k = HESSIAN_TERMS
    w = HESSIAN_TENSOR[m, i, j, k].astype(int).astype(object)
    pr = re[i] * re[j] - im[i] * im[j]
    pi = re[i] * im[j] + im[i] * re[j]
    tr = w * (pr * re[k] - pi * im[k])
    ti = w * (pr * im[k] + pi * re[k])
    den3 = den ** 3
    return np.array([complex(tr[m == s].sum() / den3, ti[m == s].sum() / den3)
                     for s in range(10)])


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
    variable; (..., 3, 3, 3) for a stack (..., 10), exact as in
    gradient_coeffs."""
    return np.einsum('uvwk,...k->...uvw', THIRD,
                     np.asarray(coeffs, dtype=complex))


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

def by_value(cls):
    """Class decorator for a dataclass with ndarray fields.  == compares
    the fields, each array by np.array_equal (None equals only None), and
    a frozen class hashes them with each array as tuple(arr.tolist()),
    which hashes -0.0 like the 0.0 it equals."""
    def values(obj):
        return [getattr(obj, f.name) for f in fields(cls)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray)
                   or isinstance(b, np.ndarray) else a == b
                   for a, b in zip(values(self), values(other)))

    def __hash__(self):
        return hash(tuple(tuple(v.tolist()) if isinstance(v, np.ndarray)
                          else v for v in values(self)))

    cls.__eq__ = __eq__
    if cls.__hash__ is not None:
        cls.__hash__ = __hash__
    return cls


@by_value
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

    def hessian_form(self):
        """The Hessian of this cubic as a new cubic form, with correctly
        rounded coefficients.

        The coefficients are cubic in those of f, so the identically-zero
        Hessian of a cone whose coefficients carry rounding shows up as
        noise relative to scale()**3; that counts as vanishing.
        """
        h = exact_hessian_coeffs(self.coeffs)
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


@by_value
@dataclass(frozen=True)
class ProjPoint:
    """A point of the projective plane, stored with max-modulus coord = 1.

    The pivot is the first coordinate whose modulus is within a relative
    1e-9 of the largest, so a tie such as (0, 1, -1) normalises the same
    way whatever the rounding of its last bits."""

    coords: np.ndarray

    def __init__(self, coords):
        v = np.array(coords, dtype=complex).reshape(3)
        if not np.all(np.isfinite(v.view(float))):
            raise DegenerateInputError("non-finite coordinate")
        m = np.abs(v)
        if m.max() == 0.0:
            raise DegenerateInputError("all coordinates zero")
        v = v / v[int(np.argmax(m >= (1 - 1e-9) * m.max()))]
        v.flags.writeable = False
        object.__setattr__(self, 'coords', v)

    def __repr__(self):
        return ("ProjPoint(" +
                ", ".join(f"{z.real:+.6g}{z.imag:+.6g}j" for z in self.coords)
                + ")")


@cache
def _wedge_pairs(n):
    """The index pairs (i < j) of the 2x2 minors of n-vectors, read-only,
    as every caller shares them."""
    pairs = np.triu_indices(n, k=1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def proj_distance(p, q):
    """Chordal distance on projective space (sine of the F-S angle).

    Computed from the 2x2 minors of the pair, which keeps full relative
    precision for nearly proportional vectors.  Works for coordinate
    vectors of any fixed length, so it also serves as the metric on
    coefficient space.  A 2-D q gives the distances from p to each of its
    rows, and a 2-D p as well the matrix (len(p), len(q)) of distances
    between their rows.
    """
    p = np.asarray(p, dtype=complex)
    pairwise = p.ndim > 1
    P = p if pairwise else p.reshape(1, -1)
    q = np.asarray(q, dtype=complex)
    Q = q.reshape(-1, P.shape[1])
    # the norm of a 1-D p is taken as a vector norm, as it always was
    np_ = np.linalg.norm(P, axis=1) if pairwise else np.linalg.norm(p)
    nq = np.linalg.norm(Q, axis=1)
    if np.any(np_ == 0.0) or np.any(nq == 0.0):
        raise DegenerateInputError("zero vector has no projective distance")
    i, j = _wedge_pairs(P.shape[1])
    wedge = P[:, None, i] * Q[:, j] - P[:, None, j] * Q[:, i]
    d = np.minimum(1.0, np.linalg.norm(wedge, axis=-1)
                   / (np.reshape(np_, (-1, 1)) * nq))
    if pairwise:
        return d
    return d[0] if q.ndim > 1 else float(d[0, 0])


def greedy_distinct(points, radius, distance=proj_distance):
    """Indices of the points kept by the greedy rule: a point is kept when
    it lies farther than radius from every point kept before it.
    distance(p, Q) gives the distances from p to each row of Q.

    Each kept point removes every later point within radius in one call,
    so the cost is one distance call per survivor."""
    points = np.asarray(points)
    alive = np.ones(len(points), dtype=bool)
    kept = []
    for i in range(len(points)):
        if alive[i]:
            kept.append(i)
            alive[i + 1:] &= distance(points[i], points[i + 1:]) > radius
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
