"""Command-line surface.

Subcommands: present, alexander, twisted, colorings, epis, branched,
satellite, conj-a, conj-a-prime, conj-b1, conj-b2, wada-experiment.
`COMMANDS` maps each one to its handler and the flags that handler reads;
a subcommand accepts no other flag.  The knot comes from exactly one of
--braid, --pres, --knot and --batch (alexander and branched also take
--seifert).  Every flag is defined once in `_FLAGS`.

Exit codes: 0 success / conjecture holds, 1 conjecture fails, 2 usage or
precondition errors: a flag error prints argparse's usage line, a refusal
(`domains.TwistalexError`, such as `p must be a prime, got 9` or, for D_p,
`p must be an odd prime, got 9`) or an unreadable file one `error:` line.
Any other exception is a program fault and propagates.  Flags must be
spelled out: argparse's prefix matching is off, so `--k` is never read as
`--knot`.  Identical invocations print identical bytes: every enumeration
below is in a fixed deterministic order and nothing is ever randomized.
"""
from __future__ import annotations

import argparse
import json
import sys
from math import lcm

from . import knots
from .conjectures import (check_conjecture_A, check_conjecture_Aprime,
                          check_conjecture_B1, check_conjecture_B2, wada_experiment)
from .cyclo import CyclotomicField
from .domains import QQ, ZZ, TwistalexError
from .factorint import factor_integer_poly
from .laurent import LaurentPoly, parse_poly
from .metabelian import (alexander_polynomial, branched_cover_homology,
                         find_dihedral_epis, find_metacyclic_epis,
                         find_zn_apn_epis, parse_seifert_file)
from .presentation import (KnotPresentation, braid_closure_presentation, format_word,
                           parse_braid, parse_presentation, serialize_presentation)
from .reps import parse_rep_spec, parse_scalars, rep_spec_of_coloring
from .twisted import satellite_twisted, wada_invariant


class UsageError(TwistalexError):
    pass


def _read(path: str) -> str:
    """A file named by a flag; bytes that do not decode are the user's error."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(str(exc)) from None


def _load_presentation(args) -> KnotPresentation:
    if args.braid is not None:
        return braid_closure_presentation(parse_braid(args.braid))
    if args.pres is not None:
        return parse_presentation(_read(args.pres))
    return knots.presentation(args.knot)


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
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _emit_lines(args, lines) -> None:
    """A JSON list of the lines with --json, else one line each."""
    if args.json:
        print(json.dumps(lines))
    else:
        for line in lines:
            print(line)


def _cmd_present(args) -> int:
    pres = _load_presentation(args)
    if args.json:
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
    if args.seifert is not None:
        delta = parse_seifert_file(_read(args.seifert)).alexander_polynomial()
    else:
        delta = alexander_polynomial(_load_presentation(args))
    _emit(args, delta.to_text(), {"alexander": delta.to_text()})
    return 0


def _rational_reader(dom):
    """Coefficient -> QQ element for the fields of degree 1 over QQ (ZZ, QQ,
    Q(zeta_1), Q(zeta_2)); None for every other domain."""
    if dom.name in ("ZZ", "QQ"):
        return QQ.coerce
    if isinstance(dom, CyclotomicField) and dom.degree == 1:
        return dom.rational_value
    return None


def _cmd_twisted(args) -> int:
    pres = _load_presentation(args)
    rep = parse_rep_spec(args.rep, pres)
    rational = _rational_reader(rep.dom)
    if args.factored and rational is None:
        raise UsageError(f"--factored factors over QQ only; this invariant is over {rep.dom.name}")
    tw = wada_invariant(pres, rep, column=args.column)
    if args.factored:
        c = tw.canonical()
        num = [rational(v) for v in c.value.num.coeffs()]
        den_l = lcm(*(v.denominator for v in num))
        zn = LaurentPoly(ZZ, [int(v * den_l) for v in num], c.value.num.low())
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
    else:
        text = tw.to_text()
    obj = _twisted_json(tw) if args.json else None
    if obj and args.factored:
        obj["factored"] = text
    _emit(args, text, obj)
    return 0


def _cmd_colorings(args) -> int:
    pres = _load_presentation(args)
    _emit_lines(args, [rep_spec_of_coloring(d) for d in find_dihedral_epis(pres, args.p)])
    return 0


def _cmd_epis(args) -> int:
    pres = _load_presentation(args)
    if args.m:
        lines = [f"metacyclic:m={args.m}:p={args.p}:k={args.k}:colors="
                 + ",".join(map(str, colors))
                 for colors in find_metacyclic_epis(pres, args.m, args.p, args.k)]
    else:
        lines = ["gamma:p={}:n={}:a={}".format(
                     args.p, args.n, ",".join(".".join(map(str, a)) for a in assignment))
                 for assignment in find_zn_apn_epis(pres, args.n, args.p)]
    _emit_lines(args, lines)
    return 0


def _cmd_branched(args) -> int:
    if args.seifert is not None:
        src = parse_seifert_file(_read(args.seifert))
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
    field, vals = parse_scalars(args.eigenvalues.split(","))
    out = satellite_twisted(tw, delta_c, field, vals)
    _emit(args, out.to_text(), _twisted_json(out) if args.json else None)
    return 0


def _report(args, reports) -> int:
    """Print the reports; exit 0 if all hold, 1 if one fails.  A precondition
    a check found unmet is refused before anything is printed."""
    for r in reports:
        if r.verdict == "precondition-unmet":
            raise UsageError(r.witnesses["reason"])
    for r in reports:
        if args.json:
            print(r.to_json())
        else:
            print(f"[{r.conjecture}] {r.knot} {r.rep_spec}: {r.verdict}")
            for key in ("F", "obstruction", "matching_unit"):
                if key in r.witnesses and r.witnesses[key] is not None:
                    print(f"    {key} = {r.witnesses[key]}")
    return 0 if all(r.holds for r in reports) else 1


def _cmd_conj_a(args) -> int:
    pres = _load_presentation(args)
    epis = find_zn_apn_epis(pres, args.n, args.p)
    if not epis:
        raise UsageError(f"no epimorphisms onto Z/{args.n} x| A_{{{args.p},{args.n}}}")
    return _report(args, [check_conjecture_A(pres, e, args.n, args.p, knot=args.name)
                          for e in epis])


def _cmd_conj_a_prime(args) -> int:
    pres = _load_presentation(args)
    epis = find_metacyclic_epis(pres, args.m, args.p, args.k)
    if not epis:
        raise UsageError("no metacyclic epimorphisms")
    return _report(args, [
        check_conjecture_Aprime(pres, args.m, args.p, args.k, colors, knot=args.name)
        for colors in epis
    ])


def _cmd_conj_b(args, which: int) -> int:
    pres = _load_presentation(args)
    colorings = find_dihedral_epis(pres, args.p)
    if not colorings:
        raise UsageError(f"no {args.p}-colorings")
    check = check_conjecture_B1 if which == 1 else check_conjecture_B2
    return _report(args, [check(pres, d, knot=args.name) for d in colorings])


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


# every flag once: name -> add_argument keywords
_FLAGS = {
    "braid": dict(help="whitespace-separated braid word"),
    "pres": dict(help="presentation file"),
    "seifert": dict(help="Seifert matrix file (integer rows)"),
    "knot": dict(help="corpus knot name, e.g. 3_1 or 10_164"),
    "batch": dict(help="batch file: one name<TAB>braid per line"),
    "name": dict(default="", help="label used in reports"),
    "rep": dict(required=True, help="representation spec string"),
    "p": dict(type=int, default=3),
    "n": dict(type=int, default=2),
    "m": dict(type=int, default=0),
    "k": dict(type=int, default=2),
    "column": dict(type=int, default=None),
    "json": dict(action="store_true"),
    "factored": dict(action="store_true"),
    "companion-delta": dict(required=True,
                            help="Alexander polynomial of the companion (canonical text)"),
    "eigenvalues": dict(required=True,
                        help="comma-separated exact eigenvalues, e.g. z3^1,z3^2"),
}
_KNOT = ("braid", "pres", "knot", "batch")
# the knot sources: a subcommand that declares any of them needs exactly one
_SOURCES = _KNOT + ("seifert",)

# subcommand -> (handler, the flags it reads)
COMMANDS = {
    "present": (_cmd_present, _KNOT + ("json",)),
    "alexander": (_cmd_alexander, _KNOT + ("seifert", "json")),
    "twisted": (_cmd_twisted, _KNOT + ("rep", "column", "factored", "json")),
    "colorings": (_cmd_colorings, _KNOT + ("p", "json")),
    "epis": (_cmd_epis, _KNOT + ("m", "n", "p", "k", "json")),
    "branched": (_cmd_branched, _KNOT + ("seifert", "k", "json")),
    "satellite": (_cmd_satellite, _KNOT + ("rep", "column", "companion-delta",
                                           "eigenvalues", "json")),
    "conj-a": (_cmd_conj_a, _KNOT + ("n", "p", "name", "json")),
    "conj-a-prime": (_cmd_conj_a_prime, _KNOT + ("m", "p", "k", "name", "json")),
    "conj-b1": (lambda a: _cmd_conj_b(a, 1), _KNOT + ("p", "name", "json")),
    "conj-b2": (lambda a: _cmd_conj_b(a, 2), _KNOT + ("p", "name", "json")),
    "wada-experiment": (_cmd_wada_experiment, ("json",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistalex",
        description="Exact twisted Alexander polynomials of knots under "
                    "finite metabelian, dihedral and metacyclic representations.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (handler, flags) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(handler=handler)
        if any(f in _SOURCES for f in flags):
            sources = p.add_mutually_exclusive_group(required=True)
        for flag in flags:
            (sources if flag in _SOURCES else p).add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


# the user-caused failures: each becomes exit 2 and one error line
_USER_ERRORS = (TwistalexError, OSError)


def _guarded(run, args, file) -> int:
    try:
        return run(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=file)
        return 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    run = args.handler if getattr(args, "batch", None) is None else _run_batch
    return _guarded(run, args, sys.stderr)


def _run_batch(args) -> int:
    """Run the command once per `name<TAB>braid` row, errors inline on stdout."""
    worst = 0
    rows = [line for line in _read(args.batch).split("\n") if line.strip()]
    for row in rows:
        name, _, braid = row.partition("\t")
        sub_args = argparse.Namespace(**{**vars(args), "batch": None, "braid": braid,
                                         "name": name})
        print(f"# {name}")
        worst = max(worst, _guarded(args.handler, sub_args, sys.stdout))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
