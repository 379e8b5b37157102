"""Command-line front end: every computation in the package, text or JSON.

Exit codes are scriptable: 0 = computed, 1 = the mathematics returned an
exclusion/obstruction (infeasible filling, excluded embedding, infinite
cobordism order, selftest failure), 2 = input error.  ``--json`` switches any
subcommand to a machine-readable report that echoes its input, so reports
can be round-tripped.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import catalog
from .catalog import DeltaCaseId, classify, delta, instantiate_case, iter_cases
from .errors import InternalDisagreement, SpinDefectError
from .obstruction import (
    FourManifoldShape,
    _sphere_assembly,
    characteristic_sphere_check,
    cobordism_order_certificate,
    definite_filling_signature,
    rp2_embedding_check,
    spin_filling_feasible,
    ten_eighths_verdict,
    verdict_report,
)
from .plumbing import (
    PlumbingGraph,
    WuVector,
    graph_from_json,
    graph_to_json,
    intersection_matrix,
    parse_star,
    plumbing_delta,
    seifert_to_plumbing,
    signature,
    star_graph,
    wu_solutions,
)
from .seifert import (
    LensSpace,
    SeifertData,
    SpinAssignment,
    parse_seifert,
    parse_spin,
    reverse_orientation,
    spin_enumerate,
)
from .sigma import _sign_sum, cf_eval, even_cf_expand, is_spin_sign_admissible, sigma, sigma_trig

EXIT_OK = 0
EXIT_OBSTRUCTED = 1
EXIT_INPUT = 2


def _fmt_seifert(s: SeifertData) -> str:
    return ",".join(f"({a},{b})" for a, b in s)


def _fmt_spin(c: SpinAssignment) -> str:
    return ",".join(str(x) for x in c.cg) + (f";{c.ch}" if c.ch else "")


def _emit(args, lines, payload) -> None:
    """Print the text lines, or under --json the payload: a dict, or a
    callable that builds it, for payloads that text mode should not pay for."""
    if args.json:
        if callable(payload):
            payload = payload()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _shape_from_args(args) -> FourManifoldShape:
    return FourManifoldShape(args.bplus, args.bminus, args.bplus - args.bminus)


def _lens_from_args(args) -> LensSpace | None:
    """The lens space of --lens and --eps, or None without --lens; refuses
    --lens beside the Seifert flags and --eps without --lens, since
    either would leave a flag unread."""
    if args.lens is None:
        if args.eps is not None:
            raise ValueError("--eps needs --lens")
        return None
    if args.seifert is not None or args.spin is not None or getattr(args, "all_spin", False):
        raise ValueError("--lens cannot be combined with --seifert, --spin or --all-spin")
    p, q = args.lens
    eps = args.eps
    if p == 0:
        raise ValueError("p must be nonzero")
    if eps is None:
        if p % 2 == 0:
            raise ValueError("p is even: pick a structure with --eps +1 or -1")
        eps = 1 if is_spin_sign_admissible(q, p, 1) else -1
    return LensSpace(p, q, eps)


def _space_from_args(args):
    """(space, labels, input echo) from --lens, or --seifert with --spin.

    The labels are None for a lens space, whose structure is its eps.
    """
    lens = _lens_from_args(args)
    if lens is not None:
        return lens, None, {"lens": [lens.p, lens.q], "eps": lens.eps}
    if not args.seifert or not args.spin:
        raise ValueError("need --seifert with --spin, or --lens")
    s = parse_seifert(args.seifert)
    c = parse_spin(args.spin, len(s))
    return s, c, {"seifert": _fmt_seifert(s), "spin": _fmt_spin(c)}


def _case_payload(case: DeltaCaseId) -> dict:
    return {
        "family": case.family,
        "row": case.row,
        "params": dict(case.params),
        "orientation_reversed": case.orientation_reversed,
    }


# --------------------------------------------------------------------------
# subcommands


def cmd_sigma(args) -> int:
    val = sigma(args.q, args.p, args.eps)
    lines = [f"sigma({args.q},{args.p},{args.eps:+d}) = {val}"]
    _emit(args, lines, {
        "input": {"q": args.q, "p": args.p, "eps": args.eps},
        "sigma": val,
    })
    return EXIT_OK


def cmd_evencf(args) -> int:
    entries = even_cf_expand(args.p, args.q)
    assert cf_eval(entries) == Fraction(args.p, args.q)
    lines = [f"{args.p}/{args.q} = [[{', '.join(str(a) for a in entries)}]]"]
    _emit(args, lines, {
        "input": {"p": args.p, "q": args.q},
        "entries": list(entries),
        "sign_sum": _sign_sum(entries),
    })
    return EXIT_OK


def cmd_spin_list(args) -> int:
    s = parse_seifert(args.seifert)
    assignments = spin_enumerate(s)
    lines = [f"{len(assignments)} spin structure(s) on {_fmt_seifert(s)}:"]
    lines += [f"  c = ({','.join(map(str, c.cg))}); ch = {c.ch}" for c in assignments]
    _emit(args, lines, {
        "input": {"seifert": _fmt_seifert(s)},
        "count": len(assignments),
        "assignments": [{"cg": list(c.cg), "ch": c.ch} for c in assignments],
    })
    return EXIT_OK


def cmd_delta(args) -> int:
    lens = _lens_from_args(args)
    if lens is not None:
        val = delta(lens)
        lines = [f"delta(L({lens.p},{lens.q}), eps={lens.eps:+d}) = {val}"]
        _emit(args, lines, {
            "input": {"lens": [lens.p, lens.q], "eps": lens.eps},
            "delta": val,
        })
        return EXIT_OK
    if not args.seifert:
        raise ValueError("need --seifert or --lens")
    s = parse_seifert(args.seifert)
    if args.all_spin:
        cs = spin_enumerate(s)
    elif args.spin:
        cs = [parse_spin(args.spin, len(s))]
    else:
        raise ValueError("need --spin or --all-spin")
    lines = []
    results = []
    for c in cs:
        case = classify(s, c)
        val = catalog._cross_checked(s, c, case)
        lines.append(
            f"c = ({','.join(map(str, c.cg))}): delta = {val}   [{case.describe()}]"
        )
        results.append({
            "cg": list(c.cg),
            "ch": c.ch,
            "delta": val,
            "case": _case_payload(case),
        })
    _emit(args, lines, {
        "input": {"seifert": _fmt_seifert(s), "spin": args.spin,
                  "all_spin": bool(args.all_spin)},
        "results": results,
    })
    return EXIT_OK


def _graph_from_args(args) -> tuple[PlumbingGraph, WuVector | None]:
    if args.star:
        return parse_star(args.star), None
    if args.graph:
        try:
            if args.graph == "-":
                doc = json.load(sys.stdin)
            else:
                with open(args.graph) as fh:
                    doc = json.load(fh)
        except RecursionError:
            raise ValueError("graph JSON is nested too deeply") from None
        return graph_from_json(doc)
    raise ValueError("need --star or --graph")


def cmd_plumbing(args) -> int:
    g, w_file = _graph_from_args(args)
    if args.wu is not None:
        bits = [int(tok) for tok in args.wu.split(",") if tok != ""]
        if len(bits) != len(g):
            raise ValueError(f"--wu needs {len(g)} bits")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("--wu bits must be 0 or 1")
        vectors = [WuVector(i for (i, _), b in zip(g.vertices, bits) if b)]
    elif w_file is not None:
        vectors = [w_file]
    else:
        vectors = wu_solutions(g)
    plus, minus, zero = g._inertia
    lines = [
        f"vertices: {len(g)}, edges: {len(g.edges)}",
        f"signature: (b+ = {plus}, b- = {minus}, b0 = {zero}), sign = {plus - minus}",
    ]
    deltas = []
    for w in vectors:
        d = plumbing_delta(g, w)
        lines.append(f"wu support {sorted(w.support)} -> delta = {d}")
        deltas.append(d)
    _emit(args, lines, lambda: {
        "input": {"graph": graph_to_json(g)},
        "signature": {"b_plus": plus, "b_minus": minus, "b_zero": zero},
        "wu": [{"wu": list(w.as_bits(g)), "delta": d} for w, d in zip(vectors, deltas)],
    })
    return EXIT_OK


def cmd_seifert_to_plumbing(args) -> int:
    space, c, source = _space_from_args(args)
    g, w = seifert_to_plumbing(space, c)
    if isinstance(space, LensSpace):
        label = f"L({space.p},{space.q}) eps={space.eps:+d}"
    else:
        label = _fmt_seifert(space)
    plus, minus, zero = g._inertia
    d = plumbing_delta(g, w)
    lines = [
        f"spin plumbing for {label}: {len(g)} vertices",
        f"weights: {', '.join(str(wt) for _, wt in g.vertices)}",
        f"signature: (b+ = {plus}, b- = {minus}, b0 = {zero}); delta = {d}",
    ]
    _emit(args, lines, lambda: {
        "input": source,
        "graph": graph_to_json(g, w),
        "signature": {"b_plus": plus, "b_minus": minus, "b_zero": zero},
        "delta": d,
    })
    return EXIT_OK


def cmd_feasible(args) -> int:
    y = _shape_from_args(args)
    assembled = y.mirror()
    verdict = spin_filling_feasible(y, args.delta)
    report = verdict_report(
        verdict,
        input={"b_plus": y.b_plus, "b_minus": y.b_minus, "sign": y.sign,
               "delta": args.delta},
        assembled_shape=assembled,
        delta=args.delta,
    )
    lines = [f"status = {verdict.status}"]
    if verdict.ind is not None:
        lines.append(f"ind = {verdict.ind}")
    if not verdict.residue_ok:
        lines.append(f"sign + delta = {assembled.sign + args.delta} != 0 (mod 16)")
    if verdict.status.value == "ForcedEqual":
        lines.append("a filling of this shape must have sign(Y) = delta")
    _emit(args, lines, report)
    return EXIT_OBSTRUCTED if verdict.excluded else EXIT_OK


def cmd_definite(args) -> int:
    res = definite_filling_signature(args.delta)
    lines = [f"delta = {res.delta}: {res.summary}"]
    ce = None
    if res.counterexample is not None:
        ce = {"b_plus": res.counterexample.b_plus,
              "b_minus": res.counterexample.b_minus,
              "sign": res.counterexample.sign}
        lines.append(
            f"surviving definite shape with sign != delta: "
            f"(b+ = {ce['b_plus']}, b- = {ce['b_minus']})"
        )
    _emit(args, lines, {
        "input": {"delta": args.delta},
        "forced": res.forced,
        "counterexample": ce,
    })
    return EXIT_OK


def cmd_cobordism(args) -> int:
    space, c, source = _space_from_args(args)
    cert = cobordism_order_certificate(space, c)
    lines = [f"delta = {cert.delta}"]
    if not cert.z2_homology_sphere:
        lines.append("not a Z2 homology sphere: no cobordism-order conclusion")
    elif cert.infinite_order:
        lines.append("nonzero defect: infinite order in the Z2-homology cobordism group")
    else:
        lines.append("defect vanishes: no conclusion from this criterion")
    _emit(args, lines, {
        "input": source,
        "delta": cert.delta,
        "infinite_order": cert.infinite_order,
        "z2_homology_sphere": cert.z2_homology_sphere,
    })
    obstructed = cert.infinite_order and cert.z2_homology_sphere
    return EXIT_OBSTRUCTED if obstructed else EXIT_OK


def cmd_rp2(args) -> int:
    x = _shape_from_args(args)
    res = rp2_embedding_check(x, args.euler)
    lines = []
    for eps in (1, -1):
        v = res.verdicts[eps]
        lines.append(f"eps = {eps:+d}: {v.status}"
                     + (f" (ind = {v.ind})" if v.ind is not None else ""))
    if res.admissible:
        lines.insert(0, f"e = {args.euler} admissible for eps in "
                        f"{{{', '.join(f'{e:+d}' for e in sorted(res.admissible_eps))}}}")
    else:
        lines.insert(0, f"e = {args.euler} excluded")
    if res.forced_e is not None:
        lines.append(f"shape forces e in {sorted(res.forced_e)}")
    _emit(args, lines, {
        "input": {"b_plus": x.b_plus, "b_minus": x.b_minus, "sign": x.sign,
                  "euler": args.euler},
        "admissible_eps": sorted(res.admissible_eps),
        "forced_e": sorted(res.forced_e) if res.forced_e is not None else None,
        "verdicts": {str(eps): {"status": str(v.status), "ind": v.ind,
                                "residue_ok": v.residue_ok}
                     for eps, v in res.verdicts.items()},
    })
    return EXIT_OK if res.admissible else EXIT_OBSTRUCTED


def cmd_char_sphere(args) -> int:
    x = _shape_from_args(args)
    assembled, delta_total = _sphere_assembly(x, args.square)
    verdict = ten_eighths_verdict(assembled, delta_total)
    report = verdict_report(
        verdict,
        input={"b_plus": x.b_plus, "b_minus": x.b_minus, "sign": x.sign,
               "square": args.square},
        assembled_shape=assembled,
        delta=delta_total,
    )
    lines = [f"status = {verdict.status}"]
    if verdict.ind is not None:
        lines.append(f"ind = {verdict.ind}")
    _emit(args, lines, report)
    return EXIT_OBSTRUCTED if verdict.excluded else EXIT_OK


# --------------------------------------------------------------------------
# selftest


def _check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def _selftest_sigma() -> int:
    checks = 0
    for p in range(2, 41):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            for eps in (1, -1):
                if not is_spin_sign_admissible(q, p, eps):
                    continue
                exact = sigma(q, p, eps)
                trig = sigma_trig(q, p, eps)
                _check(exact == trig.rounded,
                       f"sigma({q},{p},{eps:+d}): exact {exact} vs trig {trig}")
                checks += 1
            if (p + q) % 2 == 1:
                _check(cf_eval(even_cf_expand(p, q)) == Fraction(p, q),
                       f"even expansion of {p}/{q} does not evaluate to it")
                checks += 1
    for p in range(2, 25):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            for eps in (1, -1):
                if not is_spin_sign_admissible(q, p, eps):
                    continue
                g, w = seifert_to_plumbing(LensSpace(p, q, eps))
                _check(plumbing_delta(g, w) == sigma(q, p, eps),
                       f"lens chain delta mismatch at L({p},{q}) eps={eps:+d}")
                checks += 1
    return checks


def _selftest_catalog() -> int:
    checks = 0
    for case in iter_cases(k_span=2, n_max=9, b_max=9):
        s, c = instantiate_case(case)
        expected = catalog.delta_table(case)
        val = delta(s, c)  # classify + table + engine cross-check
        _check(val == expected, f"{case}: delta {val} != table {expected}")
        g, w = seifert_to_plumbing(s, c)
        _check(plumbing_delta(g, w) == val, f"{case}: plumbing route disagrees")
        rs, rc = reverse_orientation(s, c)
        _check(delta(rs, rc) == -val, f"{case}: antisymmetry fails")
        checks += 3
    return checks


_TABLE_STARS = [
    # (family, row label, third arm of the negative-definite resolution); the
    # first two arms are always (-2) and (-2,-2), the center is -2k-2
    (catalog.FAMILY_T, "3-3", (-2, -2)),
    (catalog.FAMILY_O, "4-5", (-4,)),
    (catalog.FAMILY_O, "4-13", (-2, -2, -2)),
    (catalog.FAMILY_I, "5-5", (-2, -2, -2, -2)),
]


def _selftest_resolutions() -> int:
    checks = 0
    for family, label, third_arm in _TABLE_STARS:
        for k in (0, 1, 2):
            case = DeltaCaseId(family, label, {"k": k})
            s, c = instantiate_case(case)
            g, w = seifert_to_plumbing(s, c)
            expected = star_graph(-2 * k - 2, [(-2,), (-2, -2), third_arm])
            _check(g == expected, f"row ({label}) k={k}: unexpected resolution graph")
            _check(not w.support, f"row ({label}) k={k}: nonzero Wu vector")
            plus, minus, zero = signature(intersection_matrix(g))
            val = catalog.delta_table(case)
            _check((plus, zero) == (0, 0) and -minus == val,
                   f"row ({label}) k={k}: not negative definite of sign {val}")
            checks += 3
    e8 = star_graph(-2, [(-2,), (-2, -2), (-2, -2, -2, -2)])
    _check(signature(intersection_matrix(e8)) == (0, 8, 0), "E8 inertia")
    _check(wu_solutions(e8) == [WuVector()], "E8 Wu solutions")
    checks += 2
    return checks


def _selftest_obstruction() -> int:
    checks = 0
    s4 = FourManifoldShape(0, 0, 0)
    for e in range(-20, 21):
        want = e in (-2, 2)
        _check(rp2_embedding_check(s4, e).admissible == want,
               f"RP2 in S4 with e = {e}")
        checks += 1
    _check(not characteristic_sphere_check(FourManifoldShape(1, 0, 1), 1).excluded,
           "degree-1 sphere in shape (1,0)")
    _check(characteristic_sphere_check(FourManifoldShape(2, 0, 2), 18).excluded,
           "square-18 sphere in shape (2,0)")
    forced = definite_filling_signature(-8)
    _check(forced.forced and forced.counterexample is None, "forcing at delta=-8")
    loose = definite_filling_signature(26)
    _check(not loose.forced and loose.counterexample is not None,
           "no counterexample found at delta=26")
    checks += 4
    return checks


def cmd_selftest(args) -> int:
    sections = [
        ("sigma three-way agreement", _selftest_sigma),
        ("catalog rows (table/engine/plumbing/antisymmetry)", _selftest_catalog),
        ("negative-definite resolutions", _selftest_resolutions),
        ("ten-eighths applications", _selftest_obstruction),
    ]
    results = []
    failed = False
    for name, fn in sections:
        try:
            count = fn()
        except AssertionError as exc:
            results.append({"section": name, "ok": False, "detail": str(exc)})
            print(f"FAIL  {name}: {exc}")
            failed = True
        else:
            results.append({"section": name, "ok": True, "checks": count})
            print(f"ok    {name} ({count} checks)")
    print("selftest:", "FAIL" if failed else "PASS")
    if args.json:
        print(json.dumps({"sections": results, "passed": not failed}, indent=2))
    return EXIT_OBSTRUCTED if failed else EXIT_OK


# --------------------------------------------------------------------------
# parser


def _add_shape_flags(sub):
    sub.add_argument("--bplus", type=int, required=True)
    sub.add_argument("--bminus", type=int, required=True)


def _add_seifert_flags(sub, with_all=False):
    sub.add_argument("--seifert", help='e.g. "(2,1),(3,1),(5,-4)"')
    labels = sub.add_mutually_exclusive_group() if with_all else sub
    labels.add_argument("--spin", help='labels "c1,c2,c3[;ch]"')
    if with_all:
        labels.add_argument("--all-spin", action="store_true",
                            help="report every spin structure")
    sub.add_argument("--lens", nargs=2, type=int, metavar=("P", "Q"))
    sub.add_argument("--eps", type=int, choices=(1, -1),
                     help="lens spin structure (required when p is even)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindefect",
        description="Exact spin defects of spherical 3-manifolds and "
                    "ten-eighths obstructions",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", parents=[common],
                       help="lens-space defect sigma(q, p, eps)")
    p.add_argument("q", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--eps", type=int, choices=(1, -1), default=-1)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("evencf", parents=[common],
                       help="even continued fraction of p/q")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_evencf)

    p = sub.add_parser("spin-list", parents=[common],
                       help="enumerate spin structures of Seifert data")
    p.add_argument("--seifert", required=True)
    p.set_defaults(func=cmd_spin_list)

    p = sub.add_parser("delta", parents=[common],
                       help="spin defect of a spherical space form")
    _add_seifert_flags(p, with_all=True)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("plumbing", parents=[common],
                       help="signature, Wu vectors and defects of a tree")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--star", help='star weights "(a; c1,c2; d1; ...)"')
    source.add_argument("--graph", help="graph JSON file, or - for stdin")
    p.add_argument("--wu", help='explicit Wu bits "0,1,0,..."')
    p.set_defaults(func=cmd_plumbing)

    p = sub.add_parser("seifert-to-plumbing", parents=[common],
                       help="compile spin Seifert data to a spin plumbing tree")
    _add_seifert_flags(p)
    p.set_defaults(func=cmd_seifert_to_plumbing)

    p = sub.add_parser("feasible", parents=[common],
                       help="ten-eighths verdict for a candidate spin filling")
    _add_shape_flags(p)
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("definite", parents=[common],
                       help="signature forcing for definite spin fillings")
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(func=cmd_definite)

    p = sub.add_parser("cobordism", parents=[common],
                       help="homology-cobordism order certificate")
    _add_seifert_flags(p)
    p.set_defaults(func=cmd_cobordism)

    p = sub.add_parser("rp2", parents=[common],
                       help="normal Euler numbers of characteristic RP2 embeddings")
    _add_shape_flags(p)
    p.add_argument("--euler", type=int, required=True)
    p.set_defaults(func=cmd_rp2)

    p = sub.add_parser("char-sphere", parents=[common],
                       help="characteristic spheres of positive square")
    _add_shape_flags(p)
    p.add_argument("--square", type=int, required=True)
    p.set_defaults(func=cmd_char_sphere)

    p = sub.add_parser("selftest", parents=[common],
                       help="regression over the row tables and fixtures")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalDisagreement:
        raise  # a bug, not an input problem: crash loudly
    except (ValueError, SpinDefectError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
