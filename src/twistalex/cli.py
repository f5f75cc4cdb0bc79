"""Command-line surface.

Subcommands: present, alexander, twisted, colorings, epis, branched,
satellite, conj-a, conj-a-prime, conj-b1, conj-b2, wada-experiment.
Exit codes: 0 success / conjecture holds, 1 conjecture fails, 2 usage or
precondition errors.  Identical invocations print identical bytes: every
enumeration below is in a fixed deterministic order and nothing is ever
randomized.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import knots
from .conjectures import (check_conjecture_A, check_conjecture_Aprime,
                          check_conjecture_B1, check_conjecture_B2, wada_experiment)
from .cyclo import CYC
from .domains import ZZ
from .factorint import factor_integer_poly
from .laurent import LaurentPoly, parse_poly
from .metabelian import (alexander_polynomial, branched_cover_homology,
                         find_dihedral_epis, find_metacyclic_epis,
                         find_zn_apn_epis, parse_seifert_file)
from .presentation import (KnotPresentation, PresentationError,
                           braid_closure_presentation, parse_braid,
                           parse_presentation, serialize_presentation)
from .reps import parse_rep_spec, rep_spec_of_coloring
from .twisted import WadaError, wada_invariant


class UsageError(Exception):
    pass


def _load_presentation(args) -> KnotPresentation:
    if getattr(args, "braid", None):
        return braid_closure_presentation(parse_braid(args.braid))
    if getattr(args, "pres", None):
        with open(args.pres) as fh:
            return parse_presentation(fh.read())
    if getattr(args, "knot", None):
        try:
            return knots.presentation(args.knot)
        except KeyError:
            raise UsageError(f"no fixture for knot {args.knot!r}") from None
    raise UsageError("need one of --braid, --pres, --knot")


def _twisted_json(tw) -> dict:
    c = tw.canonical()
    return {
        "numerator": c.value.num.to_text(),
        "denominator": c.value.den.to_text(),
        "column": tw.column,
        "indeterminacy": {
            "sign": True,
            "t_power": True,
            "det_subgroup": [tw.dom.to_str(u) for u in tw.units()],
        },
    }


def _emit(args, text: str, obj) -> None:
    if getattr(args, "json", False):
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _cmd_present(args) -> int:
    pres = _load_presentation(args)
    if args.json:
        from .presentation import format_word

        obj = {
            "generators": list(pres.generator_names),
            "relators": [format_word(r, pres.generator_names) for r in pres.relators],
            "phi": list(pres.phi),
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        sys.stdout.write(serialize_presentation(pres))
    return 0


def _cmd_alexander(args) -> int:
    if args.seifert:
        with open(args.seifert) as fh:
            delta = parse_seifert_file(fh.read()).alexander_polynomial()
    else:
        delta = alexander_polynomial(_load_presentation(args))
    _emit(args, delta.to_text(), {"alexander": delta.to_text()})
    return 0


def _cmd_twisted(args) -> int:
    pres = _load_presentation(args)
    if not args.rep:
        raise UsageError("--rep SPEC is required")
    rep = parse_rep_spec(args.rep, pres)
    tw = wada_invariant(pres, rep, column=args.column)
    if args.factored and tw.dom.name == "QQ":
        c = tw.canonical()
        num = c.value.num
        from math import lcm

        den_l = 1
        for v in num.c.values():
            den_l = lcm(den_l, v.denominator)
        zn = LaurentPoly(ZZ, {e: int(v * den_l) for e, v in num.c.items()})
        unit, content, tpow, factors = factor_integer_poly(zn)
        parts = []
        if unit < 0:
            parts.append("-1")
        if content != 1 or den_l != 1:
            parts.append(f"{content}/{den_l}" if den_l != 1 else str(content))
        parts.extend(
            f"({g.to_text()})" + (f"^{m}" if m > 1 else "") for g, m in factors
        )
        text = " * ".join(parts) + f" / ({c.value.den.to_text()})"
        _emit(args, text, _twisted_json(tw))
    else:
        _emit(args, tw.to_text(), _twisted_json(tw))
    return 0


def _cmd_colorings(args) -> int:
    pres = _load_presentation(args)
    found = find_dihedral_epis(pres, args.p)
    if args.json:
        print(json.dumps([rep_spec_of_coloring(d) for d in found]))
    else:
        for d in found:
            print(rep_spec_of_coloring(d))
    return 0


def _cmd_epis(args) -> int:
    pres = _load_presentation(args)
    if args.m:
        out = find_metacyclic_epis(pres, args.m, args.p, args.k)
        for colors in out:
            print(f"metacyclic:m={args.m}:p={args.p}:k={args.k}:colors="
                  + ",".join(map(str, colors)))
    else:
        out = find_zn_apn_epis(pres, args.n, args.p)
        for assignment in out:
            atext = ",".join(".".join(map(str, a)) for a in assignment)
            print(f"gamma:p={args.p}:n={args.n}:a={atext}")
    return 0


def _cmd_branched(args) -> int:
    if args.seifert:
        with open(args.seifert) as fh:
            src = parse_seifert_file(fh.read())
    else:
        src = _load_presentation(args)
    q = branched_cover_homology(src, args.k)
    _emit(args, str(q.structure), {
        "k": args.k,
        "invariant_factors": list(q.structure.invariant_factors),
        "free_rank": q.structure.free_rank,
    })
    return 0


def _cmd_satellite(args) -> int:
    pres = _load_presentation(args)
    rep = parse_rep_spec(args.rep, pres)
    tw = wada_invariant(pres, rep, column=args.column)
    delta_c = parse_poly(args.companion_delta)
    eigen = []
    m = 1
    for tok in args.eigenvalues.split(","):
        tok = tok.strip()
        from .reps import _parse_scalar

        val, dom = _parse_scalar(tok)
        if hasattr(dom, "m"):
            from math import lcm

            m = lcm(m, dom.m)
        eigen.append((val, dom))
    F = CYC(m)
    vals = []
    for val, dom in eigen:
        if hasattr(dom, "m"):
            vals.append(F.embed(val, dom))
        else:
            vals.append(F.coerce(val))
    from .twisted import satellite_twisted

    out = satellite_twisted(tw, delta_c, F, vals)
    _emit(args, out.to_text(), _twisted_json(out))
    return 0


def _conj_exit(reports) -> int:
    if not reports:
        return 2
    if any(r.verdict == "precondition-unmet" for r in reports):
        return 2
    return 0 if all(r.holds for r in reports) else 1


def _print_reports(args, reports) -> None:
    for r in reports:
        if args.json:
            print(r.to_json())
        else:
            print(f"[{r.conjecture}] {r.knot} {r.rep_spec}: {r.verdict}")
            for key in ("F", "obstruction", "matching_unit"):
                if key in r.witnesses and r.witnesses[key] is not None:
                    print(f"    {key} = {r.witnesses[key]}")


def _cmd_conj_a(args) -> int:
    pres = _load_presentation(args)
    epis = find_zn_apn_epis(pres, args.n, args.p)
    if not epis:
        print(f"no epimorphisms onto Z/{args.n} x| A_{{{args.p},{args.n}}}", file=sys.stderr)
        return 2
    reports = [check_conjecture_A(pres, e, args.n, args.p, knot=args.name) for e in epis]
    _print_reports(args, reports)
    return _conj_exit(reports)


def _cmd_conj_a_prime(args) -> int:
    pres = _load_presentation(args)
    epis = find_metacyclic_epis(pres, args.m, args.p, args.k)
    if not epis:
        print("no metacyclic epimorphisms", file=sys.stderr)
        return 2
    reports = [
        check_conjecture_Aprime(pres, args.m, args.p, args.k, colors, knot=args.name)
        for colors in epis
    ]
    _print_reports(args, reports)
    return _conj_exit(reports)


def _cmd_conj_b(args, which: int) -> int:
    pres = _load_presentation(args)
    colorings = find_dihedral_epis(pres, args.p)
    if not colorings:
        print(f"no {args.p}-colorings", file=sys.stderr)
        return 2
    check = check_conjecture_B1 if which == 1 else check_conjecture_B2
    reports = [check(pres, d, knot=args.name) for d in colorings]
    _print_reports(args, reports)
    return _conj_exit(reports)


def _cmd_wada_experiment(args) -> int:
    tre = knots.presentation("3_1")
    dc = knots.alexander_fixture("9_30")
    dcp = knots.alexander_fixture("11a359")
    r = wada_experiment(tre, dc, dcp, names=("9_30", "11a359"))
    if args.json:
        print(r.to_json())
    else:
        print(f"[wada-question] {r.knot}: {r.verdict}")
        for k in sorted(r.witnesses):
            print(f"    {k} = {r.witnesses[k]}")
    return 0 if r.holds else 1


def _run_single(args) -> int:
    handler = {
        "present": _cmd_present,
        "alexander": _cmd_alexander,
        "twisted": _cmd_twisted,
        "colorings": _cmd_colorings,
        "epis": _cmd_epis,
        "branched": _cmd_branched,
        "satellite": _cmd_satellite,
        "conj-a": _cmd_conj_a,
        "conj-a-prime": _cmd_conj_a_prime,
        "conj-b1": lambda a: _cmd_conj_b(a, 1),
        "conj-b2": lambda a: _cmd_conj_b(a, 2),
        "wada-experiment": _cmd_wada_experiment,
    }[args.cmd]
    return handler(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistalex",
        description="Exact twisted Alexander polynomials of knots under "
                    "finite metabelian, dihedral and metacyclic representations.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    cmds = ("present", "alexander", "twisted", "colorings", "epis", "branched",
            "satellite", "conj-a", "conj-a-prime", "conj-b1", "conj-b2",
            "wada-experiment")
    for name in cmds:
        p = sub.add_parser(name)
        p.add_argument("--braid", help="whitespace-separated braid word")
        p.add_argument("--pres", help="presentation file")
        p.add_argument("--seifert", help="Seifert matrix file (integer rows)")
        p.add_argument("--knot", help="corpus knot name, e.g. 3_1 or 10_164")
        p.add_argument("--name", default="", help="label used in reports")
        p.add_argument("--rep", help="representation spec string")
        p.add_argument("--p", type=int, default=3)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--column", type=int, default=None)
        p.add_argument("--json", action="store_true")
        p.add_argument("--factored", action="store_true")
        p.add_argument("--batch", help="batch file: one name<TAB>braid per line")
        p.add_argument("--companion-delta", dest="companion_delta",
                       help="Alexander polynomial of the companion (canonical text)")
        p.add_argument("--eigenvalues", help="comma-separated exact eigenvalues, "
                                             "e.g. z3^1,z3^2")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.batch:
            return _run_batch(args)
        return _run_single(args)
    except (UsageError, PresentationError, WadaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_batch(args) -> int:
    worst = 0
    with open(args.batch) as fh:
        rows = [line.rstrip("\n") for line in fh if line.strip()]
    for row in rows:
        name, _, braid = row.partition("\t")
        sub_args = argparse.Namespace(**vars(args))
        sub_args.batch = None
        sub_args.braid = braid
        sub_args.knot = None
        sub_args.name = name
        print(f"# {name}")
        try:
            code = _run_single(sub_args)
        except (UsageError, PresentationError, WadaError, ValueError) as exc:
            print(f"error: {exc}")
            code = 2
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
