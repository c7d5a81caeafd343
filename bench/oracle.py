"""Independent checks for the benchmark's outputs.

Nothing here imports cubicflex.  A cubic is the documented coefficient
vector: ten complex numbers over the monomials z1^i z2^j z3^(3-i-j), the
exponent pairs (i, j) in lexicographic order.  F, its gradient and its
matrix of second partials are evaluated by differentiating each monomial
explicitly; the Hessian is the determinant of that matrix.  Permutations
are tuples of images of 1..9, composed left to right (apply the first
factor first), as the paper writes products of loops.
"""

from __future__ import annotations

import numpy as np

EXPONENTS = np.array([(i, j, 3 - i - j)
                      for i in range(4) for j in range(4 - i)])


def _monomial_derivative(point, order):
    """(10,) values of d^|order| (z^e) / dz^order at one point, for every
    monomial exponent e; order is a length-3 tuple of derivative counts."""
    z = np.asarray(point, dtype=complex)
    out = np.ones(len(EXPONENTS), dtype=complex)
    for v in range(3):
        e = EXPONENTS[:, v]
        k = order[v]
        factor = np.ones(len(e))
        for r in range(k):
            factor = factor * (e - r)
        out *= factor * z[v] ** np.maximum(e - k, 0)
    return out


def value(coeffs, point):
    """F at a point."""
    return complex(_monomial_derivative(point, (0, 0, 0)) @ coeffs)


def gradient(coeffs, point):
    """(dF/dz1, dF/dz2, dF/dz3) at a point."""
    units = np.eye(3, dtype=int)
    return np.array([_monomial_derivative(point, tuple(u)) @ coeffs
                     for u in units])


def second_partials(coeffs, point):
    """The symmetric 3x3 matrix of second partials at a point."""
    units = np.eye(3, dtype=int)
    return np.array([[_monomial_derivative(point, tuple(units[u] + units[v]))
                      @ coeffs for v in range(3)] for u in range(3)])


def hessian(coeffs, point):
    """The Hessian determinant at a point."""
    return complex(np.linalg.det(second_partials(coeffs, point)))


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def chordal(p, q):
    """Chordal distance between two points of projective space, from the
    2x2 minors of the pair (exact to rounding for nearby points)."""
    p, q = _unit(p), _unit(q)
    minors = np.outer(p, q) - np.outer(q, p)
    return float(min(1.0, np.linalg.norm(minors) / np.sqrt(2.0)))


def scaled_residuals(coeffs, point):
    """(|F|, |H|) at the unit representative of the point, relative to
    the largest values monomials of that size could reach."""
    c = np.asarray(coeffs, dtype=complex)
    z = _unit(point)
    csum = np.abs(c).sum()
    return abs(value(c, z)) / csum, abs(hessian(c, z)) / (6.0 * csum) ** 3


def scaled_gradient(coeffs, point):
    c = np.asarray(coeffs, dtype=complex)
    g = np.abs(gradient(c, _unit(point))).max()
    return float(g / (3.0 * np.abs(c).sum()))


def fermat_flexes():
    """The nine flexes of z1^3 + z2^3 + z3^3: a zero coordinate and the
    other two in ratio -1, -w or -w^2 with w a primitive cube root of 1."""
    w = np.exp(2j * np.pi / 3)
    rows = []
    for k in range(3):
        c = -w ** k
        rows += [(0, 1, c), (1, 0, c), (1, c, 0)]
    return np.array(rows, dtype=complex)


def match_points(got, expected, tol):
    """Whether two lists of projective points agree as sets, point for
    point within chordal distance tol."""
    if len(got) != len(expected):
        return False
    free = list(range(len(expected)))
    for p in got:
        near = [k for k in free if chordal(p, expected[k]) < tol]
        if len(near) != 1:
            return False
        free.remove(near[0])
    return True


SIGNATURES = {"smooth": (1,) * 9, "fermat": (1,) * 9,
              "nodal": (6, 1, 1, 1), "cusp": (8, 1)}


def check_flexes(coeffs, kind, points, mults, special=None, tol=1e-7):
    """Problems with an inflection answer, as a list of strings (empty
    when it passes).

    points: (k, 3) coordinates; mults: their multiplicities.  special:
    for a Fermat image the nine expected flexes, for a nodal or cuspidal
    image the expected singular point.
    """
    problems = []
    if tuple(sorted(mults, reverse=True)) != SIGNATURES[kind]:
        problems.append(f"signature {tuple(sorted(mults, reverse=True))}")
    for p, m in zip(points, mults):
        f, h = scaled_residuals(coeffs, p)
        if f > tol or h > tol:
            problems.append(f"|F|={f:.1e} |H|={h:.1e} at a returned point")
        if m > 1 and scaled_gradient(coeffs, p) > 1e-5:
            problems.append("multiple point is not a singular point")
    dmin = min((chordal(p, q) for a, p in enumerate(points)
                for q in points[a + 1:]), default=1.0)
    if dmin < 1e-6:
        problems.append(f"two returned points coincide ({dmin:.1e})")
    if kind == "fermat" and not match_points(points, special, 1e-6):
        problems.append("points are not M^-1 times the classical nine")
    if kind in ("nodal", "cusp"):
        multiple = [p for p, m in zip(points, mults) if m > 1]
        if not multiple or chordal(multiple[0], special) > 1e-4:
            problems.append(
                "multiple point is not M^-1 times the singular point")
    return problems


def check_node(coeffs, point, tol=1e-7):
    """Problems with a claimed node: the gradient must vanish there and
    the matrix of second partials must have rank exactly 2."""
    problems = []
    g = scaled_gradient(coeffs, point)
    if g > tol:
        problems.append(f"gradient {g:.1e} at the witness")
    s = np.linalg.svd(second_partials(coeffs, _unit(point)), compute_uv=False)
    if s[2] > 1e-6 * s[0] or s[1] < 1e-4 * s[0]:
        problems.append(f"second partials have singular values {s}")
    return problems


# ---------------------------------------------------------------------------
# permutations

def from_cycles(cycles):
    img = list(range(1, 10))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a - 1] = b
    return tuple(img)


IDENTITY = tuple(range(1, 10))

# the paper's generators: g0, g1 generate the Hessian group of order 216;
# g2, g3, g4 are the monodromies of the three coordinate circles around
# the nodal members near z1 z2 z3 under the Hesse labelling
G0 = from_cycles([(1, 2, 4), (5, 6, 8), (3, 9, 7)])
G1 = from_cycles([(4, 5, 6), (7, 9, 8)])
G2 = from_cycles([(2, 8, 5), (3, 6, 9)])
G3 = from_cycles([(1, 4, 7), (3, 9, 6)])
G4 = from_cycles([(1, 7, 4), (2, 5, 8)])


def compose(p, q):
    """p then q."""
    return tuple(q[x - 1] for x in p)


def inverse(p):
    inv = [0] * 9
    for x, y in enumerate(p, start=1):
        inv[y - 1] = x
    return tuple(inv)


def cycle_type(p):
    seen, lengths = set(), []
    for start in range(1, 10):
        if start in seen:
            continue
        n, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x - 1]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def group_closure(generators):
    """All elements of the group the generators generate."""
    found = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = compose(p, g)
                if q not in found:
                    found.add(q)
                    nxt.append(q)
        frontier = nxt
    return found
