"""Univariate root finding and the resultant of two cubics on a line.

all_roots takes every root of a dense complex polynomial as an
eigenvalue of its companion matrix (np.roots, backward stable in the
coefficients: Edelman and Murakami, Math. Comp. 1995), polishes with
Newton, and merges clusters into multiple roots.  Each simple root must
pass a scaled-residual gate, and each cluster must sit where the
derivative nearly vanishes, so a disagreement raises instead of
guessing.

resultant_on_chart restricts a pair of cubic forms to the line
(z1, z2) = (1, t) and eliminates z3: the (formally degree-9) resultant
in t is the determinant of their 3x3 Bezoutian in z3, expanded with
exact coefficient convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CommonComponentError, DegenerateInputError,
                     MultiplicityError, RootFindingError)
from .forms import EXP3, by_value

TRIM_REL = 1e-14


def trim(coeffs, rel=TRIM_REL):
    """Drop leading (highest-degree) coefficients below rel * max modulus.
    Raises RootFindingError on a NaN or infinite coefficient."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if not np.isfinite(c).all():
        raise RootFindingError("polynomial coefficients are not finite")
    if c.size == 0:
        return c
    m = np.abs(c).max()
    if m == 0.0:
        return np.zeros(0, dtype=complex)
    keep = np.abs(c) > rel * m
    last = int(np.nonzero(keep)[0].max())
    return c[:last + 1].copy()


@by_value
@dataclass
class UniPoly:
    """Dense univariate polynomial, coefficients in ascending degree."""

    coeffs: np.ndarray

    def __init__(self, coeffs, rel=TRIM_REL):
        self.coeffs = trim(coeffs, rel)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def derivative(self):
        if self.degree <= 0:
            return UniPoly(np.zeros(1))
        n = np.arange(1, len(self.coeffs))
        return UniPoly(self.coeffs[1:] * n)

    def is_zero(self):
        return self.degree < 0 or np.abs(self.coeffs).max() == 0.0


@by_value
@dataclass
class RootSet:
    """Roots with multiplicities and scaled residuals."""

    roots: np.ndarray
    multiplicities: np.ndarray
    residuals: np.ndarray

    def total_multiplicity(self):
        return int(self.multiplicities.sum())


def _newton_polish(poly, dpoly, z):
    # monotone-guarded: a step is kept only if it reduces |p|, so cluster
    # members sitting at the evaluation noise floor are left alone
    for _ in range(2):
        pv = poly(z)
        dv = dpoly(z)
        ok = np.abs(dv) > 1e-250
        step = np.where(ok, pv / np.where(ok, dv, 1.0), 0.0)
        cand = z - step
        better = np.abs(poly(cand)) < np.abs(pv)
        z = np.where(better, cand, z)
    return z


def _cluster(z, radius):
    n = len(z)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(n):
        for b in range(a + 1, n):
            if abs(z[a] - z[b]) <= radius * (1.0 + max(abs(z[a]), abs(z[b]))):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    return list(groups.values())


def all_roots(poly, cluster_radius=1e-5):
    """All complex roots of a UniPoly (or coefficient array).

    Returns a RootSet; the sum of multiplicities always equals the degree
    after trimming.  Simple roots must reach the residual contract 1e-8;
    a cluster of size >= 2 must sit where the derivative nearly vanishes,
    otherwise a MultiplicityError is raised.
    """
    p = poly if isinstance(poly, UniPoly) else UniPoly(poly)
    if p.is_zero():
        raise DegenerateInputError("zero polynomial has no root set")
    n = p.degree
    monic = p.coeffs / p.coeffs[-1]
    pm = UniPoly(monic, rel=0.0)
    dm = pm.derivative()
    roots = _newton_polish(pm, dm, np.roots(monic[::-1]))

    groups = _cluster(roots, cluster_radius)
    centers = []
    mults = []
    for g in groups:
        centers.append(roots[g].mean())
        mults.append(len(g))
    centers = np.array(centers, dtype=complex)
    mults = np.array(mults, dtype=int)

    scaled = np.abs(p(centers)) / (1.0 + np.abs(centers)) ** n
    scaled = scaled / np.abs(p.coeffs).max()

    dscale = np.abs(dm.coeffs).max() if dm.degree >= 0 else 1.0
    for c, m, r in zip(centers, mults, scaled):
        if m == 1 and r > 1e-8:
            raise RootFindingError(
                f"root {c} did not converge (scaled residual {r:.3g})")
        if m >= 2:
            dval = abs(dm(np.array([c]))[0]) / (
                dscale * (1.0 + abs(c)) ** max(dm.degree, 0))
            if dval > 1e-2:
                raise MultiplicityError(
                    f"cluster of {m} roots at {c} but derivative is not "
                    f"small there ({dval:.3g})")
    order = np.lexsort((centers.imag, centers.real, -mults))
    return RootSet(centers[order], mults[order], scaled[order])


# ---------------------------------------------------------------------------
# the resultant on the chart line (z1, z2) = (1, t)

def _in_z3(coeffs):
    # c[k, j] is the coefficient of t^j z3^k in f(1, t, z3)
    c = np.zeros((4, 4), dtype=complex)
    c[EXP3[:, 2], EXP3[:, 1]] = coeffs
    return c


def cubic_in_variable(coeffs):
    """Restrict a cubic form to the line (z1, z2) = (1, t) and collect by
    powers of z3.  Returns four ascending coefficient arrays c[k] with
    f(1, t, z3) = sum_k c[k](t) * z3^k.
    """
    return [trim(c) for c in _in_z3(coeffs)]


def resultant_on_chart(f, g):
    """Degree <= 9 resultant in z3 of two cubic forms on the line
    (z1, z2) = (1, t), as a UniPoly in t.

    f, g: CubicForm or raw coefficient vectors.  The resultant is the
    determinant of the 3x3 Bezoutian of the two cubics in z3, expanded
    with exact coefficient convolutions, so integer input gives integer
    coefficients.  Raises CommonComponentError when it vanishes
    identically.
    """
    p = _in_z3(np.asarray(getattr(f, 'coeffs', f), dtype=complex))
    q = _in_z3(np.asarray(getattr(g, 'coeffs', g), dtype=complex))
    # (p(x) q(y) - p(y) q(x)) / (x - y) = sum_ab B[a][b] x^a y^b
    B = [[np.zeros(7, dtype=complex) for _ in range(3)] for _ in range(3)]
    for k in range(4):
        for m in range(k):
            d = np.convolve(p[k], q[m]) - np.convolve(p[m], q[k])
            for a in range(k - m):
                B[m + a][k - 1 - a] += d

    def minor(k, m):                # of rows 1, 2 and columns k, m
        return np.convolve(B[1][k], B[2][m]) - np.convolve(B[1][m], B[2][k])

    det = (np.convolve(B[0][0], minor(1, 2))
           - np.convolve(B[0][1], minor(0, 2))
           + np.convolve(B[0][2], minor(0, 1)))
    R = UniPoly(-det)               # det B = (-1)^(3 (3 - 1) / 2) Res
    scale = (np.abs(p).max() * np.abs(q).max()) ** 3
    if R.is_zero() or np.abs(R.coeffs).max() < 1e-12 * scale:
        raise CommonComponentError("resultant vanishes identically")
    return R
