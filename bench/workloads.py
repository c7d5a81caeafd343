"""The benchmark's three workloads, each a fixed list of operations.

build(name, seed) makes the list.  One operation is one call into
cubicflex; every run of a workload repeats the same list in the same
order, in whole rounds.  Each operation carries a check that compares
its output with the independent oracles in oracle.py.  The calls go
through the module attribute (locus.inflection_points, ...) at call time,
so the traced run's rebinding sees them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import cubicflex
from cubicflex import forms, locus, perms, roots, strata, track

import oracle

# flexes: PGL(3) images use matrices from np.random.default_rng(k); the
# image lists are fixed, not drawn from the workload seed, so the share
# of operations that fail is the same on every seed.  cusp k = 134 hits
# the chart-exhaustion fault of locus.inflection_points and is kept.
SMOOTH_PER_ROUND = 20
FERMAT_KEYS = (0, 1, 2, 3)
NODAL_KEYS = (0, 1, 2, 3)
CUSP_KEYS = (0, 1, 2, 134)

# monodromy: bypasses of the 12 crossings of each of three seeded lines
# through the Fermat cubic, plus the four bundled circle loops.  Bypass
# times vary from loop to loop, so three lines put 36 bypasses under the
# median instead of 12.  A run holds at least MONODROMY_ROUNDS rounds (120
# ops), so that ten ops lie beyond the 90th percentile.
LINES_PER_ROUND = 3
MONODROMY_ROUNDS = 3
# A bypass whose straight segment passes close to another crossing can
# come back with a wrong permutation (path jumping in the tracker): seen
# on 2 of 102 seeded lines, at clearances of 0.06 and 0.01 radii.  That
# depends on the seed, so lines where some segment passes within one
# bypass radius of another crossing are redrawn.
CIRCLES = ("loop_c1", "loop_c2", "loop_c3", "cusp_circle")
# the paper's monodromies of the coordinate circles, under Hesse labels
CIRCLE_PERMS = {"loop_c1": oracle.G2, "loop_c2": oracle.G3,
                "loop_c3": oracle.G4}

# crossings: seeded random pencils whose 12 crossings are pairwise at
# least MIN_CROSSING_GAP apart.  Closer pairs hit a fault of
# pencil_crossings on about 13% of random pencils (it matches each fitted
# root to the first Newton witness within 0.02, so two near crossings get
# the same one); that depends on the seed, so those pencils are left out.
PENCILS_PER_ROUND = 16
MIN_CROSSING_GAP = 0.05


@dataclass
class Op:
    label: str
    call: Callable
    check: Callable          # output -> list of problems
    group: str = ""          # ops whose outputs are checked together


@dataclass
class Workload:
    ops: list
    make_up: dict                     # operations per round, by kind
    min_rounds: int = 1
    round_check: Callable = None      # {group: [outputs]} -> problems
    final_check: Callable = None      # (last outputs, timer) -> problems
    setup_problems: list = field(default_factory=list)


def random_cubic(rng):
    return cubicflex.CubicForm(rng.standard_normal(10)
                               + 1j * rng.standard_normal(10))


def fixed_matrix(key):
    rng = np.random.default_rng(key)
    return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))


# ---------------------------------------------------------------------------
# flexes

def _flex_op(label, f, kind, special=None):
    def call():
        return locus.inflection_points(f)

    def check(out):
        pts = [ip.point.coords for ip in out.points]
        mults = [ip.multiplicity for ip in out.points]
        return oracle.check_flexes(f.coeffs, kind, pts, mults, special)
    return Op(label, call, check)


def build_flexes(seed):
    rng = np.random.default_rng(seed)
    ops = [_flex_op(f"smooth[{k}] seed {seed}", random_cubic(rng), "smooth")
           for k in range(SMOOTH_PER_ROUND)]
    e3 = np.array([0, 0, 1], dtype=complex)
    for kind, base, keys in (("fermat", forms.fermat_cubic(), FERMAT_KEYS),
                             ("nodal", forms.node_family(1, 1, 0), NODAL_KEYS),
                             ("cusp", forms.cusp_family(0), CUSP_KEYS)):
        for key in keys:
            M = fixed_matrix(key)
            Minv = np.linalg.inv(M)
            special = ((oracle.fermat_flexes() @ Minv.T) if kind == "fermat"
                       else Minv @ e3)
            ops.append(_flex_op(f"{kind} image, M from default_rng({key})",
                                base.transform(M), kind, special))
    return Workload(ops, make_up={
        "smooth": SMOOTH_PER_ROUND, "fermat": len(FERMAT_KEYS),
        "nodal": len(NODAL_KEYS), "cusp": len(CUSP_KEYS)})


# ---------------------------------------------------------------------------
# monodromy

def _hesse_labels(cubic):
    return locus.label_against(locus.inflection_points(cubic),
                               locus.hesse_base_points())


def _positional_labels(cubic):
    infl = locus.inflection_points(cubic)
    return locus.InflectionSet(tuple(
        locus.InflectionPoint(ip.point, ip.multiplicity, k + 1)
        for k, ip in enumerate(infl.points)))


def crossing_parameters(f0, f1):
    """The 12 crossing parameters u of f0 + u f1 from the program's
    interpolated discriminant, in path order (by argument), or None when
    the pencil is unusable: a crossing at infinity, two crossings within
    the root clustering radius of pencil_crossings (2e-3), or roots the
    root finder cannot resolve."""
    try:
        fit = strata.pencil_discriminant_fit(forms.Pencil(f0, f1))
        poly = roots.UniPoly(fit, rel=1e-8)
        if poly.degree != 12:
            return None
        rs = roots.all_roots(poly, cluster_radius=2e-3)
    except cubicflex.NumericalError:
        return None
    if len(rs.roots) != 12:
        return None
    return sorted((complex(r) for r in rs.roots),
                  key=lambda s: (np.angle(s), abs(s)))


def _segment_clearance(crossings, radius):
    """The least distance, in the parameter plane, from a crossing to the
    straight segment of another crossing's bypass (0 to the stop point)."""
    least = np.inf
    for k, s_star in enumerate(crossings):
        stop = s_star - radius * s_star / abs(s_star)
        for j, other in enumerate(crossings):
            if j != k:
                t = np.clip((other * np.conj(stop)).real / abs(stop) ** 2,
                            0, 1)
                least = min(least, abs(other - t * stop))
    return least


def _bypass(base, direction, s_star, radius):
    """Line toward the crossing s_star, a circle of the given radius
    around it, and the line back."""
    toward_base = -s_star / abs(s_star)
    stop = cubicflex.CubicForm(base.coeffs + (s_star + radius * toward_base)
                               * direction.coeffs)
    center = cubicflex.CubicForm(base.coeffs + s_star * direction.coeffs)
    arc_dir = cubicflex.CubicForm(toward_base * direction.coeffs)
    return track.Loop(base, (track.Line(base, stop),
                             track.Arc(center, arc_dir, radius, 0.0, 1.0),
                             track.Line(stop, base)))


def _perm_op(label, loop, labels, check, group=""):
    def call():
        return track.track_loop(loop, labels)
    return Op(label, call, check, group)


def _check_bypass(out):
    ct = oracle.cycle_type(out.perm.images)
    return [] if ct == (3, 3, 1, 1, 1) else [f"bypass cycle type {ct}"]


def _check_equal(expected):
    def check(out):
        got = out.perm.images
        return [] if got == expected else [f"permutation {got}, "
                                           f"expected {expected}"]
    return check


def _check_cusp_circle(out):
    ct = oracle.cycle_type(out.perm.images)
    return [] if ct == (6, 2, 1) else [f"cusp circle cycle type {ct}"]


def _line_products(groups):
    problems = []
    for name, outs in groups.items():
        if not name.startswith("line") or any(o is None for o in outs):
            continue
        prod = oracle.IDENTITY
        for o in outs:
            prod = oracle.compose(prod, o.perm.images)
        if prod != oracle.IDENTITY:
            problems.append(f"{name}: product of its 12 bypasses is {prod}")
    return problems


def _group_check(outputs, timer):
    """The Hessian group from the run's permutations: order 216 by the
    benchmark's own closure, and cubicflex's PermGroup and
    conjugate_in_s9 must agree with it.  The cusp circle is left out: its
    labels are positional at another basepoint."""
    gens = {o.perm.images for lbl, o in outputs
            if o is not None and not lbl.startswith("cusp_circle")}
    problems = []
    order = len(oracle.group_closure(sorted(gens)))
    if order != 216:
        problems.append(f"the run's permutations generate order {order}")
    with timer:
        G = perms.PermGroup(tuple(perms.Perm(g) for g in sorted(gens)))
        s = perms.conjugate_in_s9(G, perms.hesse_group())
    if G.order != order:
        problems.append(f"PermGroup order {G.order}, closure says {order}")
    hesse = oracle.group_closure([oracle.G0, oracle.G1])
    if s is None:
        problems.append("conjugate_in_s9 found no conjugator")
    elif any(oracle.compose(oracle.compose(oracle.inverse(s.images), g),
                            s.images) not in hesse for g in gens):
        problems.append("conjugate_in_s9 returned a wrong conjugator")
    return problems


def build_monodromy(seed):
    rng = np.random.default_rng(seed)
    fermat = forms.fermat_cubic()
    labels = _hesse_labels(fermat)
    setup_problems = []
    got = [ip.point.coords for ip in sorted(labels.points,
                                            key=lambda ip: ip.label)]
    if not oracle.match_points(got, oracle.fermat_flexes(), 1e-8):
        setup_problems.append("Fermat flexes differ from the classical nine")
    ops = []
    for line in range(LINES_PER_ROUND):
        while True:
            direction = random_cubic(rng)
            crossings = crossing_parameters(fermat, direction)
            if crossings is None:
                continue
            gaps = [abs(a - b) for k, a in enumerate(crossings)
                    for b in crossings[k + 1:]]
            radius = min(min(gaps) / 3.2,
                         min(abs(s) for s in crossings) / 3.2, 0.05)
            if _segment_clearance(crossings, radius) >= radius:
                break
        for k, s_star in enumerate(crossings):
            ops.append(_perm_op(f"line{line} bypass {k} seed {seed}",
                                _bypass(fermat, direction, s_star, radius),
                                labels, _check_bypass, group=f"line{line}"))
    data = Path(cubicflex.__file__).parent / "data"
    circle_labels = None
    for name in CIRCLES:
        loop = track.Loop.from_json_dict(
            json.loads((data / f"{name}.json").read_text()))
        if name in CIRCLE_PERMS:
            circle_labels = circle_labels or _hesse_labels(loop.basepoint)
            ops.append(_perm_op(name, loop, circle_labels,
                                _check_equal(CIRCLE_PERMS[name])))
        else:
            ops.append(_perm_op(name, loop, _positional_labels(loop.basepoint),
                                _check_cusp_circle))
    return Workload(ops, make_up={"bypass": 12 * LINES_PER_ROUND,
                                  "circle": len(CIRCLES)},
                    min_rounds=MONODROMY_ROUNDS, round_check=_line_products,
                    final_check=_group_check, setup_problems=setup_problems)


# ---------------------------------------------------------------------------
# crossings

def _crossing_op(label, f0, f1):
    pencil = forms.Pencil(f0, f1)

    def call():
        return strata.pencil_crossings(pencil)

    def check(out):
        problems = []
        params = [c.parameter for c in out.crossings]
        if len(params) != 12 or out.total_multiplicity() != 12:
            problems.append(f"{len(params)} crossings of total multiplicity "
                            f"{out.total_multiplicity()}")
        dmin = min((oracle.chordal(a, b) for k, a in enumerate(params)
                    for b in params[k + 1:]), default=1.0)
        if dmin < 1e-6:
            problems.append(f"two crossing parameters coincide ({dmin:.1e})")
        for c in out.crossings:
            t1, t2 = c.parameter
            member = t1 * f0.coeffs + t2 * f1.coeffs
            problems += oracle.check_node(member, c.witness.coords)
            if str(c.label) != "B1":
                problems.append(f"crossing labelled {c.label}")
        return problems
    return Op(label, call, check)


def _well_separated(f0, f1):
    """Whether every two crossings of the pencil are at least
    MIN_CROSSING_GAP apart (chordal distance of (1, u))."""
    us = crossing_parameters(f0, f1)
    if us is None:
        return False
    ts = [(1.0, u) for u in us]
    return min(oracle.chordal(a, b) for k, a in enumerate(ts)
               for b in ts[k + 1:]) >= MIN_CROSSING_GAP


def build_crossings(seed):
    rng = np.random.default_rng(seed)
    ops = []
    drawn = 0
    while len(ops) < PENCILS_PER_ROUND:
        f0, f1 = random_cubic(rng), random_cubic(rng)
        drawn += 1
        if _well_separated(f0, f1):
            ops.append(_crossing_op(f"pencil[{drawn - 1}] seed {seed}",
                                    f0, f1))
    return Workload(ops, make_up={"pencil": PENCILS_PER_ROUND,
                                  "pencils drawn": drawn})


BUILDERS = {"flexes": build_flexes, "monodromy": build_monodromy,
            "crossings": build_crossings}


def build(name, seed):
    return BUILDERS[name](seed)
