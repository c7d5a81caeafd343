"""Command-line interface.

Subcommands expose the library surface: inflection points of a cubic
(`inflect`), monodromy of a loop file (`monodromy`), permutation-group
reports (`group`), stratum classification (`classify`), discriminant
crossings of a pencil (`pencil`), cuspidal members of a net (`cusps`),
the integer invariant chain (`invariants`), and the full verification
harness (`paper-verify`).

Exit codes: 0 success, 2 schema/usage error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NumericalError, SchemaError, VerificationError
from .forms import CubicForm, Net, Pencil
from .locus import hesse_base_points, inflection_points, label_against
from .perms import Perm, PermGroup
from .strata import classify, net_cusp_members, pencil_crossings
from .track import Loop, track_loop
from .verify import SUITES, run_suite


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _load_cubic(path):
    return CubicForm.from_json_dict(_load_json(path))


def _load_loop(path):
    return Loop.from_json_dict(_load_json(path))


def _dump(payload):
    print(json.dumps(payload, indent=1, sort_keys=True))


def _complex_pair(z):
    return [float(z.real), float(z.imag)]


def _point_dict(p):
    return [_complex_pair(c) for c in p.coords]


def _inflection_set_dict(infl):
    return {"points": [{"coords": _point_dict(ip.point),
                        "multiplicity": ip.multiplicity,
                        "label": ip.label}
                       for ip in infl.points]}


# ---------------------------------------------------------------------------
# subcommands

def cmd_inflect(args):
    f = _load_cubic(args.cubic)
    infl = inflection_points(f)
    _dump(_inflection_set_dict(infl))
    return 0


def cmd_monodromy(args):
    loop = _load_loop(args.loop)
    labels = None
    if args.labels == "hesse":
        labels = label_against(inflection_points(loop.basepoint),
                               hesse_base_points())
    result = track_loop(loop, labels=labels)
    _dump({"perm": str(result.perm),
           "cycle_type": list(result.perm.cycle_type()),
           "steps_taken": result.steps_taken,
           "steps_refused": result.steps_refused,
           "segments_retraced": result.segments_retraced,
           "min_step_taken": result.min_step_taken,
           "min_pairwise_separation": result.min_pairwise_separation,
           "max_residual": result.max_residual})
    return 0


def _perm_from_source(source):
    if source.startswith("("):
        return Perm.parse(source)
    return track_loop(_load_loop(source)).perm


def cmd_group(args):
    if not args.perms:
        raise SchemaError("group needs at least one permutation "
                          "(cycle string or loop file)")
    gens = [_perm_from_source(s) for s in args.perms]
    G = PermGroup(gens)
    _dump({"generators": [str(g) for g in gens],
           "order": G.order,
           "orbits": [list(o) for o in G.orbits()],
           "transitivity": {str(k): G.is_k_transitive(k)
                            for k in (1, 2, 3)},
           "stabilizer_orders": {str(x): G.stabilizer(x).order
                                 for x in range(1, 10)}})
    return 0


def cmd_classify(args):
    f = _load_cubic(args.cubic)
    label, cert = classify(f)
    _dump({"stratum": str(label), "certificate": cert.to_json_dict()})
    return 0


def cmd_pencil(args):
    f0, f1 = _load_cubic(args.cubic0), _load_cubic(args.cubic1)
    pc = pencil_crossings(Pencil(f0, f1))
    _dump({"total_multiplicity": pc.total_multiplicity(),
           "infinite_multiplicity": pc.infinite_multiplicity,
           "crossings": [{"parameter": _complex_pair(c.chart_value())
                          if c.chart_value() is not None else "infinity",
                          "multiplicity": c.multiplicity,
                          "stratum": str(c.label)}
                         for c in pc.crossings]})
    return 0


def cmd_cusps(args):
    net = Net(_load_cubic(args.cubic0), _load_cubic(args.cubic1),
              _load_cubic(args.cubic2))
    cusps = net_cusp_members(net)
    _dump({"count": len(cusps),
           "members": [{"alpha": _complex_pair(c.alpha),
                        "beta": _complex_pair(c.beta),
                        "cusp_point": _point_dict(c.point)}
                       for c in cusps]})
    return 0


def cmd_invariants(args):
    from .invariants import invariant_chain
    chain = invariant_chain()
    _dump({"branch_curve": vars(chain["branch_curve"]),
           "dual_curve": vars(chain["dual_curve"]),
           "surface": vars(chain["surface"])})
    return 0


def cmd_paper_verify(args):
    records = run_suite(args.suite, args.seed)
    command = f"paper-verify --suite {args.suite} --seed {args.seed}"
    if args.out:
        with open(args.out, "w") as fh:
            for rec in records:
                doc = rec.to_json_dict()
                doc["command"] = command
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
    failed = [r for r in records if not r.passed]
    for rec in records:
        mark = "PASS" if rec.passed else "FAIL"
        print(f"{mark} {rec.suite}:{rec.name} expected={rec.expected} "
              f"observed={rec.observed}")
    print(f"{len(records) - len(failed)}/{len(records)} checks passed")
    if failed:
        raise VerificationError(
            f"{len(failed)} verification check(s) failed: "
            + ", ".join(f"{r.suite}:{r.name}" for r in failed))
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubicflex",
        description="Inflection points of plane cubics and their monodromy")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("inflect", help="inflection points of a cubic")
    p.add_argument("cubic", help="cubic JSON file")
    p.set_defaults(fn=cmd_inflect)

    p = subs.add_parser("monodromy", help="track a loop file")
    p.add_argument("loop", help="loop JSON file")
    p.add_argument("--labels", choices=("positional", "hesse"),
                   default="positional",
                   help="label basepoint flexes positionally or against "
                        "the nine shared flexes of the Fermat pencil")
    p.set_defaults(fn=cmd_monodromy)

    p = subs.add_parser("group", help="group generated by permutations")
    p.add_argument("perms", nargs="*",
                   help="cycle strings like '(2,8,5)(3,6,9)' or loop files")
    p.set_defaults(fn=cmd_group)

    p = subs.add_parser("classify", help="stratum of a singular cubic")
    p.add_argument("cubic", help="cubic JSON file")
    p.set_defaults(fn=cmd_classify)

    p = subs.add_parser("pencil", help="discriminant crossings of a pencil")
    p.add_argument("cubic0")
    p.add_argument("cubic1")
    p.set_defaults(fn=cmd_pencil)

    p = subs.add_parser("cusps", help="cuspidal members of a net")
    p.add_argument("cubic0")
    p.add_argument("cubic1")
    p.add_argument("cubic2")
    p.set_defaults(fn=cmd_cusps)

    p = subs.add_parser("invariants", help="integer invariant chain")
    p.set_defaults(fn=cmd_invariants)

    p = subs.add_parser("paper-verify", help="run verification suites")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--out", help="write JSONL report here")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the suites' random draws (default 0)")
    p.set_defaults(fn=cmd_paper_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
