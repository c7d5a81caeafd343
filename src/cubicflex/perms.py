"""Permutations of the nine inflection points and small-group utilities.

Permutations act on the letters 1..9.  Products compose left to right:
(p * q)(x) = q(p(x)), matching the convention in which a monodromy
homomorphism sends a concatenation of loops to the product of their
permutations in traversal order.

Groups are handled by brute force (breadth-first closure, orbit scans,
element-wise stabilizers); every group that appears here has order at
most 216, so nothing cleverer is warranted.  Conjugacy in S9 is the one
exception: it is a backtracking search over the images of the
conjugator.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .errors import SchemaError

N_LETTERS = 9


@dataclass(frozen=True)
class Perm:
    """A permutation of 1..9 stored as a tuple of images."""

    images: tuple

    def __init__(self, images):
        t = tuple(int(x) for x in images)
        if sorted(t) != list(range(1, N_LETTERS + 1)):
            raise SchemaError(f"not a permutation of 1..{N_LETTERS}: {t}")
        object.__setattr__(self, 'images', t)

    @classmethod
    def identity(cls):
        return cls(range(1, N_LETTERS + 1))

    @classmethod
    def from_cycles(cls, cycles):
        """Build from an iterable of disjoint cycles, e.g. [(2, 8, 5),
        (3, 6, 9)]; a letter used twice is a SchemaError."""
        img = list(range(1, N_LETTERS + 1))
        used = set()
        for cyc in cycles:
            cyc = list(cyc)
            seen = set(cyc)
            if len(seen) != len(cyc) or not seen <= set(range(1, N_LETTERS + 1)):
                raise SchemaError(f"bad cycle {cyc}")
            if seen & used:
                raise SchemaError(f"cycle {cyc} shares a letter with an "
                                  "earlier cycle")
            used |= seen
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a - 1] = b
        return cls(img)

    @classmethod
    def parse(cls, text):
        """Parse cycle notation like "(2,8,5)(3,6,9)"; "()" is the identity."""
        s = text.strip().replace(" ", "")
        if s == "()":
            return cls.identity()
        if not re.fullmatch(r"(\(\d(,\d)*\))+", s):
            raise SchemaError(f"bad cycle string {text!r}")
        cycles = [tuple(int(x) for x in grp.split(","))
                  for grp in re.findall(r"\(([^()]*)\)", s)]
        return cls.from_cycles(cycles)

    def __call__(self, x):
        return self.images[x - 1]

    def __mul__(self, other):
        # apply self first, then other
        return Perm(tuple(other.images[i - 1] for i in self.images))

    def inverse(self):
        inv = [0] * N_LETTERS
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Perm(inv)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = Perm.identity()
        for _ in range(n):
            acc = acc * self
        return acc

    def conjugate_by(self, g):
        """g^-1 * self * g in left-to-right composition."""
        return g.inverse() * self * g

    def cycles(self, include_fixed=False):
        seen = set()
        out = []
        for start in range(1, N_LETTERS + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Cycle lengths including fixed points, descending."""
        return tuple(sorted((len(c) for c in self.cycles(include_fixed=True)),
                            reverse=True))

    def order(self):
        n = 1
        p = self
        while p != Perm.identity():
            p = p * self
            n += 1
        return n

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        parts = []
        for cyc in sorted(cycs, key=min):
            k = cyc.index(min(cyc))
            rot = cyc[k:] + cyc[:k]
            parts.append("(" + ",".join(str(x) for x in rot) + ")")
        return "".join(parts)

    def __repr__(self):
        return f"Perm.parse({str(self)!r})"


@dataclass(frozen=True)
class PermGroup:
    """A finite permutation group given by generators; elements cached."""

    generators: tuple
    elements: frozenset

    def __init__(self, generators):
        gens = tuple(generators)
        object.__setattr__(self, 'generators', gens)
        object.__setattr__(self, 'elements', frozenset(closure(gens)))

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, p):
        return p in self.elements

    def __eq__(self, other):
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def orbits(self):
        """Orbits on 1..9, each sorted, ordered by smallest element."""
        seen = set()
        out = []
        for x in range(1, N_LETTERS + 1):
            if x in seen:
                continue
            orb = {x}
            frontier = [x]
            while frontier:
                y = frontier.pop()
                for g in self.generators:
                    z = g(y)
                    if z not in orb:
                        orb.add(z)
                        frontier.append(z)
            seen |= orb
            out.append(tuple(sorted(orb)))
        return out

    def orbit_sizes(self):
        return tuple(sorted((len(o) for o in self.orbits()), reverse=True))

    def stabilizer(self, letter):
        """The subgroup fixing a letter (brute force over elements)."""
        fixed = [p for p in self.elements if p(letter) == letter]
        return PermGroup(tuple(sorted(fixed, key=lambda p: p.images)))

    def is_k_transitive(self, k):
        """Exhaustive check on ordered k-tuples of distinct letters."""
        base = tuple(range(1, k + 1))
        reached = set()
        for p in self.elements:
            reached.add(tuple(p(x) for x in base))
        count = 1
        for n in range(N_LETTERS, N_LETTERS - k, -1):
            count *= n
        return len(reached) == count

    def conjugacy_class(self, p):
        return frozenset(p.conjugate_by(g) for g in self.elements)


def closure(generators):
    """All products of the generators (breadth-first)."""
    gens = [g for g in generators]
    if not gens:
        return {Perm.identity()}
    found = {Perm.identity()}
    frontier = [Perm.identity()]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in found:
                    found.add(q)
                    nxt.append(q)
        frontier = nxt
    return found


def coset_action(group, subgroup, representatives, labels):
    """Action of the group generators on left cosets r * H.

    representatives: one Perm per coset, aligned with labels (distinct
    hashable labels, e.g. the letters a coset should correspond to).
    Returns {label: {generator index: image label}} flattened into a dict
    mapping each generator of `group` to a label permutation dict.
    Raises SchemaError if the representatives do not enumerate the cosets
    exactly once.
    """
    H = subgroup.elements
    cosets = []
    for r in representatives:
        cosets.append(frozenset(r * h for h in H))
    if len(set(cosets)) != len(cosets):
        raise SchemaError("representatives repeat a coset")
    if len(cosets) * len(H) != group.order:
        raise SchemaError("representatives do not cover the cosets")
    index_of = {c: i for i, c in enumerate(cosets)}
    actions = {}
    for g in group.generators:
        mapping = {}
        for i, r in enumerate(representatives):
            moved = frozenset((g * r) * h for h in H)
            j = index_of.get(moved)
            if j is None:
                raise SchemaError("coset action leaves the listed cosets")
            mapping[labels[i]] = labels[j]
        actions[g] = mapping
    return actions


def conjugate_in_s9(G, H):
    """A permutation s with s^-1 G s = H, or None.

    The orders and the cycle-type census of the two groups are compared
    first.  Then s(1), s(2), ..., s(9) are assigned in turn, each trying
    the unused images in increasing order, so the s returned is the
    lexicographically first conjugator.  For each generator g of G the
    search keeps the elements h of H consistent with the partial map,
    h(s(y)) = s(g(y)) for every assigned y whose g(y) is also assigned,
    and steps back as soon as some generator has none left.  A complete
    s puts s^-1 g s in H for every generator, and |G| = |H| makes that
    s^-1 G s = H.
    """
    if G.order != H.order:
        return None
    if Counter(p.cycle_type() for p in G.elements) \
            != Counter(p.cycle_type() for p in H.elements):
        return None
    gens = [g.images for g in G.generators]
    s = []                                  # s[y - 1] is the image of y

    def extend(candidates):
        y = len(s) + 1
        if y > N_LETTERS:
            return True
        for x in range(1, N_LETTERS + 1):
            if x in s:
                continue
            s.append(x)
            narrowed = []
            for g, hs in zip(gens, candidates):
                # the pairs (u, g(u)) that assigning y completes
                pairs = [(s[u - 1], s[g[u - 1] - 1]) for u in range(1, y + 1)
                         if max(u, g[u - 1]) == y]
                hs = [h for h in hs if all(h[a - 1] == b for a, b in pairs)]
                if not hs:
                    break
                narrowed.append(hs)
            else:
                if extend(narrowed):
                    return True
            s.pop()
        return False

    if extend([[h.images for h in H.elements]] * len(gens)):
        return Perm(s)
    return None


# the standard generators of the monodromy group on the nine labels
G0 = Perm.from_cycles([(1, 2, 4), (5, 6, 8), (3, 9, 7)])
G1 = Perm.from_cycles([(4, 5, 6), (7, 9, 8)])
G2 = Perm.from_cycles([(2, 8, 5), (3, 6, 9)])
G3 = Perm.from_cycles([(1, 4, 7), (3, 9, 6)])
G4 = Perm.from_cycles([(1, 7, 4), (2, 5, 8)])


def hesse_group():
    """The full monodromy group <g0, g1> of order 216."""
    return PermGroup((G0, G1))


def local_cusp_group():
    """The order-24 subgroup <g1, g2> (monodromy near a cuspidal cubic)."""
    return PermGroup((G1, G2))
