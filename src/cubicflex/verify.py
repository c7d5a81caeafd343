"""End-to-end verification suites.

Each suite runs a batch of named checks — exact group facts, tracked
monodromy experiments, stratum classifications, discriminant counts,
and integer invariants — and returns RunRecords suitable for JSONL
reporting.  A record stores what was expected, what was observed, and
the seed that produced it, so a run can be replayed.  Every other
setting is a module constant, so the expected values are fixed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .errors import CubicflexError, SchemaError
from .forms import (CubicForm, Net, Pencil, cusp_family, fermat_cubic,
                    hesse_pencil, node_family, triangle_cubic)
from .invariants import (covering_euler, hurwitz_double_cover_genus,
                         invariant_chain, noether_chi, plane_curve_genus)
from .locus import hesse_base_points, inflection_points, label_against
from .perms import (G0, G1, G2, G3, G4, Perm, PermGroup, conjugate_in_s9,
                    coset_action, hesse_group, local_cusp_group)
from .strata import classify, classify_all, net_cusp_members, pencil_crossings
from .track import (circle_loop, global_line_outcomes, group_of_lines,
                    local_monodromy, track_loop)

# the settings of every suite: the expected values are stated for these
DELTA = 0.05
GLOBAL_LINES = 2
LOCAL_PROBES = 3
PENCIL_SAMPLES = 20

SUITES = ("group", "local", "global", "strata", "counts", "invariants")


@dataclass(frozen=True)
class RunRecord:
    suite: str
    name: str
    passed: bool
    expected: str
    observed: str
    detail: str = ""
    seed: int = 0
    elapsed: float = 0.0

    def to_json_dict(self):
        return {"suite": self.suite, "name": self.name,
                "passed": self.passed, "expected": self.expected,
                "observed": self.observed, "detail": self.detail,
                "seed": self.seed, "elapsed": round(self.elapsed, 3)}


class _Recorder:
    def __init__(self, suite, seed):
        self.suite = suite
        self.seed = seed
        self.records = []

    def check(self, name, expected, fn, report_only=False):
        """Run fn() -> observed; pass iff observed == expected (or the
        check is report-only).  Exceptions fail the record."""
        t0 = time.perf_counter()
        try:
            observed = fn()
            passed = bool(report_only or observed == expected)
            detail = "reported, not asserted" if report_only else ""
        except CubicflexError as exc:
            observed = f"error: {exc}"
            passed = False
            detail = type(exc).__name__
        self.records.append(RunRecord(
            suite=self.suite, name=name, passed=passed,
            expected=str(expected), observed=str(observed), detail=detail,
            seed=self.seed, elapsed=time.perf_counter() - t0))
        return self.records[-1]


# ---------------------------------------------------------------------------
# suites

def suite_group(seed):
    r = _Recorder("group", seed)
    hes = hesse_group()
    hes1 = local_cusp_group()
    r.check("hessian_group_order", 216, lambda: hes.order)
    r.check("two_transitive", True, lambda: hes.is_k_transitive(2))
    r.check("not_three_transitive", False, lambda: hes.is_k_transitive(3))
    r.check("point_stabilizer_order", 24, lambda: hes1.order)
    r.check("stabilizer_equals_generated", True,
            lambda: hes.stabilizer(1) == hes1)
    r.check("g2_is_conjugate_of_g1", True,
            lambda: G2 == G0 * G1 * G0.inverse())
    r.check("braid_relation", True,
            lambda: G1 * G2 * G1 == G2 * G1 * G2)
    r.check("g1_cubed", Perm.identity(), lambda: G1 * G1 * G1)
    r.check("g2_g3_inverse_g4", True, lambda: G2 * G3 == G4.inverse())
    r.check("full_orbit", [(tuple(range(1, 10)))], lambda: hes.orbits())
    r.check("z3_squared_orbits", [(1, 4, 7), (2, 5, 8), (3, 6, 9)],
            lambda: PermGroup((G2, G3)).orbits())
    r.check("stabilizer_orbits", [(1,), tuple(range(2, 10))],
            lambda: hes1.orbits())
    r.check("second_letter_stabilizer", True,
            lambda: hes1.stabilizer(2) == PermGroup((G1,)))
    r.check("g1_class_size_in_stabilizer", 4,
            lambda: len(hes1.conjugacy_class(G1)))

    def coset_matches_points():
        e = Perm.identity()
        reps = [e, G2 ** 2 * G1 * G2 ** 2, G1 ** 2 * G2 ** 2, G2 ** 2,
                G1 * G2 ** 2, G1 * G2, G2, G1 ** 2 * G2]
        labels = list(range(2, 10))
        act = coset_action(hes1, PermGroup((G1,)), reps, labels)
        return all(act[g] == {x: g(x) for x in labels} for g in (G1, G2))
    r.check("coset_action_matches_point_action", True, coset_matches_points)

    def orbit_stabilizer():
        for G in (hes, hes1, PermGroup((G1,)), PermGroup((G2, G3))):
            for orbit in G.orbits():
                for letter in orbit:
                    if G.stabilizer(letter).order * len(orbit) != G.order:
                        return False
        return True
    r.check("orbit_stabilizer_identity", True, orbit_stabilizer)
    return r.records


def _unit_form(i, j):
    return CubicForm.from_monomials({(i, j): 1})


def suite_local(seed):
    r = _Recorder("local", seed)
    base = node_family(DELTA, DELTA, DELTA)
    qlabels = label_against(inflection_points(base), hesse_base_points())
    c1, c2, c3 = (
        circle_loop(node_family(0, DELTA, DELTA), _unit_form(3, 0), DELTA),
        circle_loop(node_family(DELTA, 0, DELTA), _unit_form(0, 3), DELTA),
        circle_loop(node_family(DELTA, DELTA, 0), _unit_form(0, 0), DELTA))
    r.check("loop_c1", str(G2),
            lambda: str(track_loop(c1, labels=qlabels).perm))
    r.check("loop_c2", str(G3),
            lambda: str(track_loop(c2, labels=qlabels).perm))
    r.check("loop_c3", str(G4),
            lambda: str(track_loop(c3, labels=qlabels).perm))
    r.check("loop_c1_reversed", str(G2.inverse()),
            lambda: str(track_loop(c1.reversed(), labels=qlabels).perm))

    def nodal_group():
        G = PermGroup((track_loop(c1, labels=qlabels).perm,))
        types = {p.cycle_type() for p in G.elements if p != Perm.identity()}
        return (G.order, sorted(types))
    r.check("nodal_branch_group", (3, [(3, 3, 1, 1, 1)]), nodal_group)

    def local_group(target):
        G = local_monodromy(base, target, radius=DELTA,
                            probe_count=LOCAL_PROBES,
                            seed=seed + 11, labels=qlabels)
        return (G.order, G.orbits())
    orb9 = [(1, 4, 7), (2, 5, 8), (3, 6, 9)]
    r.check("triangle_stratum_group", (9, orb9),
            lambda: local_group(triangle_cubic()))
    r.check("conic_line_stratum_group", (9, orb9),
            lambda: local_group(node_family(0, 0, DELTA)))

    cusp_loop = circle_loop(cusp_family(0), _unit_form(0, 0), DELTA)
    r.check("cusp_circle_cycle_type", (6, 2, 1),
            lambda: track_loop(cusp_loop).perm.cycle_type())

    def cusp_group():
        G = local_monodromy(cusp_family(DELTA), cusp_family(0),
                            radius=DELTA, probe_count=LOCAL_PROBES,
                            seed=seed + 11)
        conj = conjugate_in_s9(G, local_cusp_group())
        return (G.order, G.orbit_sizes(), conj is not None)
    r.check("cusp_stratum_group", (24, (8, 1), True), cusp_group)

    def tacnode_group_order():
        stratum = CubicForm.from_monomials({(1, 0): 1, (0, 2): -1})
        basepoint = CubicForm(stratum.coeffs
                              + 0.05 * fermat_cubic().coeffs)
        G = local_monodromy(basepoint, stratum, radius=DELTA,
                            probe_count=LOCAL_PROBES,
                            seed=seed + 11)
        return G.order
    r.check("tacnode_stratum_group_order", "reported",
            tacnode_group_order, report_only=True)
    return r.records


def suite_global(seed):
    r = _Recorder("global", seed)
    f = fermat_cubic()

    @functools.cache
    def lines():
        # each line is tracked once and feeds both checks
        return global_line_outcomes(f, GLOBAL_LINES, seed=seed + 7)

    def group_facts():
        G = group_of_lines(lines())
        return (G.order, conjugate_in_s9(G, hesse_group()) is not None)
    r.check("global_group", (216, True), group_facts)

    def line_products():
        outcomes = []
        for perms in lines():
            if isinstance(perms, Exception):
                outcomes.append(f"error: {perms}")
                continue
            prod = Perm.identity()
            for p in perms:
                prod = prod * p
            outcomes.append((len(perms), prod == Perm.identity()))
        return outcomes
    expected = [(12, True)] * GLOBAL_LINES
    r.check("per_line_identity_product", expected, line_products)
    return r.records


CLASSIFY_CORPUS = (
    ("fermat", fermat_cubic, "Smooth"),
    ("triangle", triangle_cubic, "B31"),
    ("nodal", lambda: node_family(1, 1, 0), "B1"),
    ("conic_line", lambda: CubicForm.from_monomials({(1, 1): 1, (3, 0): 1}),
     "B21"),
    ("cuspidal", lambda: cusp_family(0), "B22"),
    ("conic_tangent",
     lambda: CubicForm.from_monomials({(1, 0): 1, (0, 2): -1}), "B32"),
    ("concurrent",
     lambda: CubicForm.from_monomials({(2, 1): 1, (1, 2): 1}), "B4"),
    ("double_line", lambda: CubicForm.from_monomials({(2, 1): 1}), "B5"),
    ("triple_line", lambda: CubicForm.from_monomials({(3, 0): 1}), "B7"),
)


def suite_strata(seed):
    r = _Recorder("strata", seed)
    for name, make, want in CLASSIFY_CORPUS:
        r.check(f"classify_{name}", want,
                lambda make=make: str(classify(make())[0]))

    def pgl_invariance():
        rng = np.random.default_rng(seed + 5)
        for name, make, want in CLASSIFY_CORPUS:
            M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            if str(classify(make().transform(M))[0]) != want:
                return f"{name} changed under a coordinate change"
        return "invariant"
    r.check("classify_pgl_invariance", "invariant", pgl_invariance)

    def hesse_crossings():
        pc = pencil_crossings(hesse_pencil())
        return (len(pc.crossings), sorted(pc.labels()),
                pc.total_multiplicity())
    r.check("hesse_pencil_crossings", (4, ["B31"] * 4, 12), hesse_crossings)

    def fermat_pencil():
        rng = np.random.default_rng(11)
        g = CubicForm(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        pc = pencil_crossings(Pencil(fermat_cubic(), g))
        return (len(pc.crossings), set(pc.labels()),
                pc.total_multiplicity())
    r.check("random_pencil_through_fermat", (12, {"B1"}, 12), fermat_pencil)
    return r.records


def suite_counts(seed):
    r = _Recorder("counts", seed)
    rng = np.random.default_rng(seed + 20)

    def pencil_multiplicities():
        bad = []
        for k in range(PENCIL_SAMPLES):
            f0 = CubicForm(rng.standard_normal(10)
                           + 1j * rng.standard_normal(10))
            f1 = CubicForm(rng.standard_normal(10)
                           + 1j * rng.standard_normal(10))
            total = pencil_crossings(Pencil(f0, f1)).total_multiplicity()
            if total != 12:
                bad.append((k, total))
        return bad or "all 12"
    r.check("pencil_total_multiplicity", "all 12", pencil_multiplicities)

    def net_cusps():
        rng_net = np.random.default_rng(seed + 3)
        forms = [CubicForm(rng_net.standard_normal(10)
                           + 1j * rng_net.standard_normal(10))
                 for _ in range(3)]
        net = Net(*forms)
        cusps = net_cusp_members(net)
        labels = {str(label) for label, _ in classify_all(
            [net.member((1, c.alpha, c.beta)) for c in cusps])}
        return (len(cusps), labels)
    r.check("net_cuspidal_members", (24, {"B22"}), net_cusps)
    return r.records


def suite_invariants(seed):
    r = _Recorder("invariants", seed)
    r.check("dual_curve_genus", 10, lambda: plane_curve_genus(18, 84, 42))
    r.check("branch_curve_genus", 10, lambda: plane_curve_genus(12, 21, 24))
    r.check("ramification_genus", 31,
            lambda: hurwitz_double_cover_genus(10, 24))
    r.check("covering_euler_all_splits", [90] * 8,
            lambda: [covering_euler(21 - 3 * n2, n2, 24) for n2 in range(8)])
    r.check("noether_chi", 9, lambda: noether_chi(18, 90))

    def chain():
        c = invariant_chain()
        return (c["branch_curve"].genus, c["dual_curve"].genus,
                c["surface"].genus_ramification, c["surface"].euler,
                c["surface"].chi)
    r.check("chain_consistency", (10, 10, 31, 90, 9), chain)
    return r.records


_SUITE_FUNCS = {
    "group": suite_group,
    "local": suite_local,
    "global": suite_global,
    "strata": suite_strata,
    "counts": suite_counts,
    "invariants": suite_invariants,
}


def run_suite(name, seed=0):
    """Run one suite ('all' for every suite) on the given seed and return
    RunRecords.  A negative seed raises SchemaError."""
    if seed < 0:
        raise SchemaError(f"seed must be at least 0, not {seed}")
    if name == "all":
        records = []
        for suite in SUITES:
            records.extend(_SUITE_FUNCS[suite](seed))
        return records
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {SUITES + ('all',)}")
    return _SUITE_FUNCS[name](seed)
