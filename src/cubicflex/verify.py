"""End-to-end verification suites.

Each suite runs a batch of named checks — exact group facts, tracked
monodromy experiments, stratum classifications, discriminant counts,
and integer invariants — and returns RunRecords suitable for JSONL
reporting.  A record stores what was expected, what was observed, and
the configuration that produced it, so a run can be replayed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CubicflexError, SchemaError
from .forms import (CubicForm, Net, Pencil, cusp_family, fermat_cubic,
                    hesse_pencil, node_family, triangle_cubic)
from .invariants import (covering_euler, hurwitz_double_cover_genus,
                         invariant_chain, noether_chi, plane_curve_genus)
from .locus import hesse_base_points, inflection_points, label_against
from .perms import (G0, G1, G2, G3, G4, Perm, PermGroup, closure,
                    conjugate_in_s9, coset_action, hesse_group,
                    local_cusp_group)
from .strata import (StratumLabel, classify, classify_all, net_cusp_members,
                     pencil_crossings)
from .track import (circle_loop, global_line_outcomes, group_of_lines,
                    local_monodromy, track_loop)

DEFAULT_CONFIG = {
    "seed": 0,
    "delta": 0.05,
    "global_lines": 2,
    "local_probes": 3,
    "pencil_samples": 20,
}

SUITES = ("group", "local", "global", "strata", "counts", "invariants")


def effective_config(overrides=None):
    """DEFAULT_CONFIG with the overrides applied.  A key that
    DEFAULT_CONFIG does not have raises SchemaError, and so does a value
    of the wrong kind: delta must be a finite number above 0, seed an
    integer of at least 0 and every count an integer of at least 1."""
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(DEFAULT_CONFIG))
    if unknown:
        raise SchemaError("unknown config key(s): "
                          + ", ".join(map(repr, unknown)))
    for key, v in overrides.items():
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if isinstance(DEFAULT_CONFIG[key], float):
            kind, ok = "a finite number above 0", number and 0 < v < np.inf
        else:
            least = 0 if key == "seed" else 1
            kind = f"an integer of at least {least}"
            ok = number and isinstance(v, int) and v >= least
        if not ok:
            raise SchemaError(f"config key {key!r} must be {kind}, "
                              f"not {v!r}")
    return {**DEFAULT_CONFIG, **overrides}


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
    config: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {"suite": self.suite, "name": self.name,
                "passed": self.passed, "expected": self.expected,
                "observed": self.observed, "detail": self.detail,
                "seed": self.seed, "elapsed": round(self.elapsed, 3),
                "config": self.config}


class _Recorder:
    def __init__(self, suite, cfg):
        self.suite = suite
        self.cfg = cfg
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
            seed=self.cfg.get("seed", 0), elapsed=time.perf_counter() - t0,
            config=self.cfg))
        return self.records[-1]


# ---------------------------------------------------------------------------
# suites

def suite_group(cfg):
    r = _Recorder("group", cfg)
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


def _coordinate_loops(delta):
    return (circle_loop(node_family(0, delta, delta), _unit_form(3, 0), delta),
            circle_loop(node_family(delta, 0, delta), _unit_form(0, 3), delta),
            circle_loop(node_family(delta, delta, 0), _unit_form(0, 0), delta))


def suite_local(cfg):
    r = _Recorder("local", cfg)
    delta = cfg["delta"]
    base = node_family(delta, delta, delta)
    qlabels = label_against(inflection_points(base), hesse_base_points())
    c1, c2, c3 = _coordinate_loops(delta)
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
        G = local_monodromy(base, target, radius=delta,
                            probe_count=cfg["local_probes"],
                            seed=cfg["seed"] + 11, labels=qlabels)
        return (G.order, G.orbits())
    orb9 = [(1, 4, 7), (2, 5, 8), (3, 6, 9)]
    r.check("triangle_stratum_group", (9, orb9),
            lambda: local_group(triangle_cubic()))
    r.check("conic_line_stratum_group", (9, orb9),
            lambda: local_group(node_family(0, 0, delta)))

    cusp_loop = circle_loop(cusp_family(0), _unit_form(0, 0), delta)
    r.check("cusp_circle_cycle_type", (6, 2, 1),
            lambda: track_loop(cusp_loop).perm.cycle_type())

    def cusp_group():
        G = local_monodromy(cusp_family(delta), cusp_family(0),
                            radius=delta, probe_count=cfg["local_probes"],
                            seed=cfg["seed"] + 11)
        conj = conjugate_in_s9(G, local_cusp_group())
        return (G.order, G.orbit_sizes(), conj is not None)
    r.check("cusp_stratum_group", (24, (8, 1), True), cusp_group)

    def tacnode_group_order():
        stratum = CubicForm.from_monomials({(1, 0): 1, (0, 2): -1})
        basepoint = CubicForm(stratum.coeffs
                              + 0.05 * fermat_cubic().coeffs)
        G = local_monodromy(basepoint, stratum, radius=delta,
                            probe_count=cfg["local_probes"],
                            seed=cfg["seed"] + 11)
        return G.order
    r.check("tacnode_stratum_group_order", "reported",
            tacnode_group_order, report_only=True)
    return r.records


def suite_global(cfg):
    r = _Recorder("global", cfg)
    f = fermat_cubic()

    @functools.cache
    def lines():
        # each line is tracked once and feeds both checks
        return global_line_outcomes(f, cfg["global_lines"],
                                    seed=cfg["seed"] + 7)

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
    expected = [(12, True)] * cfg["global_lines"]
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


def suite_strata(cfg):
    r = _Recorder("strata", cfg)
    for name, make, want in CLASSIFY_CORPUS:
        r.check(f"classify_{name}", want,
                lambda make=make: str(classify(make())[0]))

    def pgl_invariance():
        rng = np.random.default_rng(cfg["seed"] + 5)
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


def suite_counts(cfg):
    r = _Recorder("counts", cfg)
    rng = np.random.default_rng(cfg["seed"] + 20)

    def pencil_multiplicities():
        bad = []
        for k in range(cfg["pencil_samples"]):
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
        rng_net = np.random.default_rng(3)
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


def suite_invariants(cfg):
    r = _Recorder("invariants", cfg)
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


def run_suite(name, overrides=None):
    """Run one suite ('all' for every suite) and return RunRecords."""
    cfg = effective_config(overrides)
    if name == "all":
        records = []
        for suite in SUITES:
            records.extend(_SUITE_FUNCS[suite](cfg))
        return records
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {SUITES + ('all',)}")
    return _SUITE_FUNCS[name](cfg)
