#!/usr/bin/env python3
"""Regenerate the committed reference outputs in perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py

The references hold only seed-independent outputs: the canonical text of each
cyclotomic-wada invariant (column choice and conjugation must not change it),
every conjecture-sweep search result and report, and the corpus knots'
branched-cover groups.  Run it only on a commit whose outputs are trusted; the
benchmark fails every op whose output differs from these files.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from twistalex import conjectures, knots, metabelian, twisted  # noqa: E402

import workloads as W  # noqa: E402


def wada_reference() -> dict:
    canonical = {}
    for name in W.WADA_KNOTS:
        pres = knots.presentation(name)
        rep = W.metabelian_rep(pres)
        texts = {twisted.wada_invariant(pres, rep, column=j).to_text()
                 for j in range(pres.generator_count) if pres.phi[j]}
        if len(texts) != 1:
            raise SystemExit(f"{name}: columns disagree: {sorted(texts)}")
        canonical[name] = texts.pop()
    return {"canonical": canonical}


def sweep_reference() -> dict:
    searches, reports = {}, {}
    for fx in knots.corpus():
        name = fx.name
        pres = knots.presentation(name)
        for p0, n in W.APN_TARGETS:
            epis = metabelian.find_zn_apn_epis(pres, n, p0)
            searches[f"search apn {name} p={p0} n={n}"] = epis
            for i, epi in enumerate(epis):
                r = conjectures.check_conjecture_A(pres, epi, n, p0, knot=name)
                reports[f"A {name} p={p0} n={n} epi={i}"] = r.to_json()
        for p in W.DIHEDRAL_PRIMES:
            colorings = metabelian.find_dihedral_epis(pres, p)
            searches[f"search dihedral {name} p={p}"] = [d.colors for d in colorings]
            for i, d in enumerate(colorings):
                reports[f"A' {name} p={p} coloring={i}"] = conjectures.check_conjecture_Aprime(
                    pres, 2, p, -1, d.colors, knot=name).to_json()
                reports[f"B(1) {name} p={p} coloring={i}"] = conjectures.check_conjecture_B1(
                    pres, d, knot=name).to_json()
                reports[f"B(2) {name} p={p} coloring={i}"] = conjectures.check_conjecture_B2(
                    pres, d, knot=name).to_json()
    return {"searches": searches, "reports": reports}


def covers_reference() -> dict:
    covers = {}
    for fx in knots.corpus():
        pres = knots.presentation(fx.name)
        for k in W.COVER_DEGREES:
            covers[f"{fx.name} k={k}"] = W._cover_op(pres, k)()
    return {"covers": covers}


def main() -> int:
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, make in (("cyclotomic-wada", wada_reference),
                       ("conjecture-sweep", sweep_reference),
                       ("branched-covers", covers_reference)):
        path = W.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(make(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
