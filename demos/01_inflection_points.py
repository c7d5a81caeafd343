"""Inflection points of plane cubics.

A smooth plane cubic has exactly nine inflection points: the
intersections of the curve with its Hessian (a second cubic built from
second partial derivatives).  This script computes them numerically for
the Fermat cubic z1^3 + z2^3 + z3^3, checks the answer against the
classical coordinate table, and then looks at what happens when the
curve degenerates: singular points absorb inflection points, and the
nine-point scheme collapses to fewer points with multiplicities.

Run:  python3 demos/01_inflection_points.py
"""

import numpy as np

from cubicflex import (CubicForm, fermat_cubic, hesse_base_points,
                       inflection_points, proj_distance)

# ---------------------------------------------------------------------------
# The nine inflection points of the Fermat cubic
# ---------------------------------------------------------------------------
fermat = fermat_cubic()
infl = inflection_points(fermat)
print("Fermat cubic  z1^3 + z2^3 + z3^3")
print(f"  {len(infl.points)} inflection points, "
      f"signature {infl.multiplicity_signature()}")

# Classical coordinates: each point has one coordinate zero and the other
# two in ratio a cube root of -1.  Compare numerically (chordal metric).
table = hesse_base_points()
print("  distance from each computed point to the classical table:")
for ip in infl.points:
    d = min(proj_distance(ip.point.coords, q.coords) for q in table)
    # adding zero drops the sign of a rounded zero
    z = np.round(ip.point.coords, 6) + 0.0
    print(f"    {z}  ->  {'< 1e-12' if d < 1e-12 else f'{d:.2e}'}")

# ---------------------------------------------------------------------------
# Degenerations: singular members have fewer, fatter inflection points
# ---------------------------------------------------------------------------
print()
print("Degenerate members (multiplicity signature of the inflection scheme):")

gallery = [
    ("nodal cubic       z1*z2*z3 + z1^3 + z2^3",
     CubicForm.from_monomials({(1, 1): 1, (3, 0): 1, (0, 3): 1})),
    ("cuspidal cubic    z1^3 + z2^2*z3",
     CubicForm.from_monomials({(3, 0): 1, (0, 2): 1})),
]
for name, f in gallery:
    sig = inflection_points(f).multiplicity_signature()
    print(f"  {name}:  {sig}")

print()
print("A node absorbs 6 of the 9 points (leaving the 3 real flexes of the")
print("nodal cubic); a cusp absorbs 8, leaving a single honest flex.")
