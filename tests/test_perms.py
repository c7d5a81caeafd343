from __future__ import annotations

import random
from collections import Counter
from itertools import permutations as _itertools_permutations
from itertools import product

import numpy as np
import pytest

from cubicflex.errors import SchemaError
from cubicflex.perms import (G0, G1, G2, G3, G4, N_LETTERS, Perm, PermGroup,
                             closure, coset_action, conjugate_in_s9,
                             hesse_group, local_cusp_group)


def test_parse_and_print_round_trip():
    for text in ["(2,8,5)(3,6,9)", "(1,2,4)(3,9,7)(5,6,8)", "()"]:
        assert str(Perm.parse(text)) == text
    assert str(Perm.parse("(9,7,8)(5,6,4)")) == "(4,5,6)(7,8,9)"
    assert str(Perm.parse("(9,8,7)(5,6,4)")) == "(4,5,6)(7,9,8)"
    with pytest.raises(SchemaError):
        Perm.parse("(1,2")
    with pytest.raises(SchemaError):
        Perm.parse("(1,1,2)")


@pytest.mark.parametrize("text", ["(1,2)(1,2)", "(1,2,3)(3,4)",
                                  "(4,5,6)(7,9,8)(6,1)"])
def test_cycles_sharing_a_letter_are_refused(text):
    # (1,2)(1,2) is the identity as a product, not the transposition
    with pytest.raises(SchemaError, match="shares a letter"):
        Perm.parse(text)
    cycles = [tuple(int(x) for x in c.split(","))
              for c in text[1:-1].split(")(")]
    with pytest.raises(SchemaError, match="shares a letter"):
        Perm.from_cycles(cycles)


def test_composition_is_left_to_right():
    p = Perm.parse("(1,2)")
    q = Perm.parse("(2,3)")
    assert (p * q)(1) == 3  # p sends 1 to 2, then q sends 2 to 3
    assert (q * p)(1) == 2


def test_inverse_and_power():
    g = G0
    assert g * g.inverse() == Perm.identity()
    assert g ** 3 == Perm.identity()
    assert g ** -1 == g.inverse()
    assert g.order() == 3


def test_cycle_type():
    assert G1.cycle_type() == (3, 3, 1, 1, 1)
    assert Perm.identity().cycle_type() == (1,) * 9


def test_full_group_order_216_and_transitivity():
    G = hesse_group()
    assert G.order == 216
    assert G.is_k_transitive(1)
    assert G.is_k_transitive(2)
    assert not G.is_k_transitive(3)


def test_stabilizer_of_point_is_local_cusp_group():
    G = hesse_group()
    H1 = local_cusp_group()
    assert H1.order == 24
    assert G.stabilizer(1) == H1
    # orbit-stabilizer: |orbit| * |stab| = |G|
    assert len(G.orbits()[0]) * H1.order == G.order


def test_g2_is_a_conjugate_of_g1():
    assert G0 * G1 * G0.inverse() == G2


def test_generator_relations():
    assert G1 ** 3 == Perm.identity()
    assert G2 ** 3 == Perm.identity()
    assert G1 * G2 * G1 == G2 * G1 * G2
    assert G2 * G3 == G4.inverse()


def test_equal_groups_hash_alike():
    assert PermGroup((G1,)) == PermGroup((G1, G1))
    assert hash(PermGroup((G1,))) == hash(PermGroup((G1, G1)))
    assert len({PermGroup((G1,)), PermGroup((G1, G1)),
                PermGroup((G1 ** 2,)), PermGroup((G2,))}) == 2
    # a group is unequal to anything that is not a group
    g = PermGroup((G1,))
    assert g != 5 and not g == 5 and g != G1 and g != g.elements


def test_local_cusp_group_orbits():
    H1 = local_cusp_group()
    assert H1.orbits() == [(1,), (2, 3, 4, 5, 6, 7, 8, 9)]
    assert H1.orbit_sizes() == (8, 1)


def test_stabilizer_inside_local_group_is_cyclic():
    H1 = local_cusp_group()
    st = H1.stabilizer(2)
    assert st.order == 3
    assert st == PermGroup((G1,))


def test_conjugacy_class_of_g1_has_four_elements():
    # derived by brute force: the class of g1 in <g1, g2> is
    # {g1, g2, (2,7,6)(3,4,8), (2,9,4)(3,5,7)}
    H1 = local_cusp_group()
    cls = H1.conjugacy_class(G1)
    assert len(cls) == 4
    assert G2 in cls


def test_coset_action_matches_point_action():
    # left cosets of <g1> in <g1, g2>, with the representative of the
    # coset labelled k chosen so that it moves letter 2 to letter k
    H1 = local_cusp_group()
    sub = PermGroup((G1,))
    e = Perm.identity()
    reps = [e, G2**2 * G1 * G2**2, G1**2 * G2**2, G2**2,
            G1 * G2**2, G1 * G2, G2, G1**2 * G2]
    labels = [2, 3, 4, 5, 6, 7, 8, 9]
    act = coset_action(H1, sub, reps, labels)
    for g in (G1, G2):
        assert act[g] == {x: g(x) for x in labels}
    # the label letter always sits in the orbit of 2 under the coset
    for r, k in zip(reps, labels):
        orbit2 = {(r * G1 ** n)(2) for n in range(3)}
        assert k in orbit2
    with pytest.raises(SchemaError):
        coset_action(H1, sub, reps[:-1] + [G2], labels)  # repeated coset


def test_closure_small():
    assert len(closure([Perm.parse("(1,2)")])) == 2
    assert len(closure([])) == 1


def test_conjugate_in_s9_finds_witness():
    G = PermGroup((G1, G2))
    s0 = Perm.parse("(1,4,2)(3,7,9)(5,8,6)")
    H = PermGroup((G1.conjugate_by(s0), G2.conjugate_by(s0)))
    s = conjugate_in_s9(G, H)
    assert s is not None
    assert PermGroup((G1.conjugate_by(s), G2.conjugate_by(s))) == H


def test_conjugate_in_s9_rejects_non_conjugates():
    # same order (3) but different cycle type on 9 letters
    A = PermGroup((Perm.parse("(1,2,3)"),))
    B = PermGroup((Perm.parse("(1,2,3)(4,5,6)"),))
    assert conjugate_in_s9(A, B) is None


# ---------------------------------------------------------------------------
# the exhaustive 9! scan that conjugate_in_s9 replaced, kept as the
# reference: it returns the lexicographically first conjugator

def _encode(images_array):
    """Mixed-radix integer encoding of permutation rows (vectorized)."""
    code = np.zeros(images_array.shape[0], dtype=np.int64)
    for col in range(N_LETTERS):
        code = code * 16 + images_array[:, col]
    return code


def reference_conjugate_in_s9(G, H):
    """A permutation s with s^-1 G s = H, or None.

    Exhaustive scan of all 9! candidates, vectorized; candidates are
    pruned generator by generator before the full subgroup check.  The
    cycle-type multiset of the two groups is compared first.
    """
    if G.order != H.order:
        return None
    type_count_G = {}
    for p in G.elements:
        t = p.cycle_type()
        type_count_G[t] = type_count_G.get(t, 0) + 1
    type_count_H = {}
    for p in H.elements:
        t = p.cycle_type()
        type_count_H[t] = type_count_H.get(t, 0) + 1
    if type_count_G != type_count_H:
        return None

    all_perms = np.array(list(_itertools_permutations(range(1, N_LETTERS + 1))),
                         dtype=np.int8)                      # (362880, 9)
    inv = np.argsort(all_perms, axis=1).astype(np.int8) + 1  # s^-1 images
    H_codes = _encode(np.array([p.images for p in H.elements], dtype=np.int64))
    H_codes = np.sort(H_codes)

    mask = np.ones(len(all_perms), dtype=bool)
    for g in G.generators:
        g_img = np.array(g.images, dtype=np.int64)
        rows = np.nonzero(mask)[0]
        if len(rows) == 0:
            return None
        s = all_perms[rows].astype(np.int64)
        s_inv = inv[rows].astype(np.int64)
        # (s^-1 g s)(x) = s(g(s^-1(x))) with left-to-right composition
        conj = np.take_along_axis(s, g_img[s_inv - 1] - 1, axis=1)
        codes = _encode(conj)
        ok = np.searchsorted(H_codes, codes)
        ok = (ok < len(H_codes)) & (H_codes[np.clip(ok, 0, len(H_codes) - 1)]
                                    == codes)
        mask[rows] = ok
    for row in np.nonzero(mask)[0]:
        s = Perm(all_perms[row])
        if all(g.conjugate_by(s) in H for g in G.generators):
            return s
    return None


def _conjugate_pairs():
    """(G, H) with G = s0^-1 H s0 for a seeded random s0, given by the
    generators of H conjugated by s0.  The Hessian group is given, as in
    a monodromy run, by 40 random elements."""
    rng = random.Random(20261018)
    hesse = sorted(hesse_group().elements, key=lambda p: p.images)
    pairs = []
    for gens in ([rng.choice(hesse) for _ in range(40)], [G1, G2], [G1],
                 [G2, G3], [G0]):
        s0 = Perm(rng.sample(range(1, N_LETTERS + 1), N_LETTERS))
        H = PermGroup(tuple(gens))
        pairs.append((PermGroup(tuple(g.conjugate_by(s0) for g in gens)), H))
    return pairs


def test_conjugate_in_s9_matches_reference_scan():
    pairs = _conjugate_pairs()
    assert [H.order for _, H in pairs] == [216, 24, 3, 9, 3]
    for G, H in pairs:
        s = conjugate_in_s9(G, H)
        assert s is not None
        assert s == reference_conjugate_in_s9(G, H)
        assert {p.conjugate_by(s) for p in G.elements} == H.elements


def _fano_group(keeps):
    """The elements of GL(3,2) that satisfy keeps, as permutations of the
    7 points of the Fano plane (letter x is the nonzero vector of F2^3
    with the binary digits of x) with letters 8 and 9 fixed."""
    elements = []
    for columns in product(range(1, 8), repeat=3):
        images = []
        for x in range(1, 8):
            y = 0
            for k, c in enumerate(columns):
                if x >> k & 1:
                    y ^= c
            images.append(y)
        if 0 not in images:                 # the matrix is invertible
            p = Perm(images + [8, 9])
            if keeps(p):
                elements.append(p)
    return PermGroup(tuple(elements))


def test_conjugate_in_s9_rejects_census_equal_non_conjugates():
    # a point stabilizer and a line stabilizer of GL(3,2): both of order
    # 24 with the same cycle types, but their orbits are 6+1 and 4+3
    point = _fano_group(lambda p: p(1) == 1)
    line = _fano_group(lambda p: {p(1), p(2), p(3)} == {1, 2, 3})
    assert point.order == line.order == 24
    assert point.orbit_sizes() == (6, 1, 1, 1)
    assert line.orbit_sizes() == (4, 3, 1, 1)
    assert Counter(p.cycle_type() for p in point.elements) \
        == Counter(p.cycle_type() for p in line.elements)
    assert conjugate_in_s9(point, line) is None
    assert reference_conjugate_in_s9(point, line) is None


def test_is_k_transitive_small_group():
    A = PermGroup((Perm.parse("(1,2,3,4,5,6,7,8,9)"),))
    assert A.is_k_transitive(1)
    assert not A.is_k_transitive(2)
