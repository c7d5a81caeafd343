"""Cuspidal members of a net of cubics.

Inside the discriminant hypersurface, the cuspidal cubics form a
codimension-2 locus of degree 24.  A generic 2-plane of cubics (a net)
therefore contains exactly 24 cuspidal members.  `net_cusp_members`
finds them as S = T = 0 on the net's plane, where the Aronhold invariants
S and T of the members are a quartic and a sextic with 4 * 6 = 24 common
zeros.  One eigensolve of their hidden-variable resultant, a matrix
polynomial, gives a point near each cusp; Newton on the full cusp
condition polishes every point, and a count other than 24 is refused.

Run:  python3 demos/06_net_of_cubics.py   (takes about a second)
"""

import numpy as np

from cubicflex import CubicForm, Net, classify, net_cusp_members

rng = np.random.default_rng(3)


def random_cubic():
    return CubicForm(rng.standard_normal(10) + 1j * rng.standard_normal(10))


net = Net(random_cubic(), random_cubic(), random_cubic())
cusps = net_cusp_members(net)

print(f"random net of cubics: {len(cusps)} cuspidal members found")
print()
print("first five, by net parameter (alpha, beta) of f0 + a*f1 + b*f2:")
for c in cusps[:5]:
    member = net.member((1, c.alpha, c.beta))
    label, _ = classify(member)
    print(f"  a = {c.alpha:+.4f}  b = {c.beta:+.4f}   stratum {label}")

labels = {str(classify(net.member((1, c.alpha, c.beta)))[0]) for c in cusps}
print()
print(f"stratum of every member: {sorted(labels)} (B22 = irreducible, one "
      f"cusp)")
print("the count 24 is the degree of the cuspidal locus in the space of")
print("all cubics.")
