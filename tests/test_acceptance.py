"""Acceptance criteria, one test per numbered item.

Each test prints a single PASS/FAIL line (run with -s or -v to see them all);
every comparison is exact integer or cyclotomic arithmetic, and "doteq" means
equality after canonical unit normalization.
"""
import random
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest

from twistalex.conjectures import (check_conjecture_A, check_conjecture_B2,
                                   wada_experiment)
from twistalex.cyclo import CYC
from twistalex.domains import GF, QQ, ZZ
from twistalex.factorint import factor_integer_poly
from twistalex.knots import (COLORING_10_164, TREFOIL_SEIFERT, alexander_fixture,
                             corpus, presentation)
from twistalex.laurent import LaurentPoly, RationalFunction, parse_poly
from twistalex.metabelian import (DihedralData, ModulePresentation,
                                  alexander_polynomial, branched_cover_homology,
                                  characters_of_quotient, find_dihedral_epis,
                                  find_zn_apn_epis, monodromy_orbit_values,
                                  order_from_alexander)
from twistalex.presentation import format_word
from twistalex.reps import (is_irreducible_metabelian, rep_dihedral,
                            rep_direct_sum, rep_metabelian, rep_mod_p, rep_onedim,
                            rep_trivial, tensor_metabelian_identity,
                            triangular_form, triangular_form_expected,
                            vandermonde_basis)
from twistalex.twisted import TwistedPolynomial, doteq_equal, wada_invariant

PAPER_RELATORS = [
    "b^-1 a^-1 e a", "a^-1 c f c^-1", "d^-1 f^-1 g f", "f^-1 g^-1 h g",
    "c^-1 h i h^-1", "h^-1 e^-1 j e", "e^-1 i k i^-1", "k^-1 g d g^-1",
    "i^-1 g b g^-1", "g^-1 j^-1 a j",
]


def report(n, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {text}")
    assert ok, f"criterion {n}: {text}"


def _retwist(tw, other):
    return TwistedPolynomial(other.value, tw.det_subgroup, other.column)


def test_criterion_1_10_164_end_to_end():
    pres = presentation("10_164")
    relators_ok = [format_word(r, pres.generator_names) for r in pres.relators] \
        == PAPER_RELATORS
    coloring = DihedralData(3, COLORING_10_164)
    rep = rep_dihedral(pres, coloring)     # construction validates the relators
    tw = wada_invariant(pres, rep)
    num = parse_poly("3 - 11*t + 17*t^2 - 11*t^3 + 3*t^4") * \
        parse_poly("3 - 13*t^2 + 13*t^4 - 3*t^6")
    target = TwistedPolynomial(
        RationalFunction(num.copy_to(QQ), parse_poly("-1 + t").copy_to(QQ)),
        tw.det_subgroup, tw.column)
    display_ok = doteq_equal(tw, target)
    report(1, relators_ok and display_ok,
           "10_164 braid -> printed relators, D_3 coloring valid, twisted "
           "polynomial matches the displayed product over (t-1)")


def test_criterion_2_b1_counterexample():
    F = parse_poly("3 - 13*t^2 + 13*t^4 - 3*t^6")
    unit, content, tpow, factors = factor_integer_poly(F)
    texts = sorted(g.to_text() for g, _ in factors)
    factorization_ok = (
        unit == -1 and content == 1 and tpow == 0
        and all(m == 1 for _, m in factors)
        and texts == ["-1 + 3*t^2", "-1 + t", "-3 + t^2", "1 + t"]
    )
    # exhaustive pairing search over every sub-multiset
    no_pairing = True
    ranges = [range(e + 1) for _, e in factors]
    from twistalex.twisted import _scalar_ratio

    for mults in iproduct(*ranges):
        cand = LaurentPoly.const(ZZ, 1)
        for (g, _), s in zip(factors, mults):
            for _ in range(s):
                cand = cand * g
        if _scalar_ratio(ZZ, cand * cand.subs_neg_t(), F) in (1, -1):
            no_pairing = False
    report(2, factorization_ok and no_pairing,
           "F = -(t-1)(t+1)(t^2-3)(3t^2-1) and no integer f has f(t)f(-t) = F")


def test_criterion_3_b2_everywhere():
    pres = presentation("10_164")
    r = check_conjecture_B2(pres, DihedralData(3, COLORING_10_164), knot="10_164")
    ok = r.holds
    checked = 1
    for fx in corpus(8):
        kp = presentation(fx.name)
        for p in (3, 5, 7):
            for d in find_dihedral_epis(kp, p):
                rr = check_conjecture_B2(kp, d, knot=fx.name)
                ok = ok and rr.holds
                checked += 1
                if not rr.holds:
                    print(f"    B(2) FAILED on {fx.name} p={p} {d.colors}")
    report(3, ok and checked >= 15,
           f"B(2) holds on 10_164 (p=3) and on all {checked} corpus "
           "(knot, coloring, p) combinations, p in {3,5,7}")


def test_criterion_4_branched_cover_table():
    tre = presentation("3_1")
    ok = str(branched_cover_homology(tre, 2).structure) == "Z/3"
    ok = ok and str(branched_cover_homology(tre, 3).structure) == "Z/2 + Z/2"
    expected = {
        ("9_30", 2): ("Z/53", 53),
        ("9_30", 6): ("Z/2 + Z/2 + Z/22 + Z/1166", 2 * 2 * 22 * 1166),
        ("11a359", 2): ("Z/53", 53),
        ("11a359", 6): ("Z/88 + Z/4664", 88 * 4664),
    }
    for name in ("9_30", "11a359"):
        delta = alexander_fixture(name)
        mp = ModulePresentation(((delta,),))
        for k in (2, 6):
            text, order = expected[(name, k)]
            # order-formula route from the shipped polynomial alone
            ok = ok and order_from_alexander(delta, k) == order
            # full invariant factors from the module fixture
            q = branched_cover_homology(mp, k)
            ok = ok and str(q.structure) == text
    report(4, ok, "trefoil L_2/L_3 table, |H_1(L_2)| = 53 = 53, L_6 orders "
                  "2*2*22*1166 vs 88*4664, and full invariant factors match")


def test_criterion_5_wada_experiment():
    # orbit data regenerated from V = [[-1,0],[-1,-1]], e = (1,0)
    F3, F2 = CYC(3), CYC(2)
    q2 = branched_cover_homology(TREFOIL_SEIFERT, 2)
    chi1 = next(c for c in characters_of_quotient(q2, 3) if not c.is_trivial())
    z1 = monodromy_orbit_values(TREFOIL_SEIFERT, [1, 0], 2, chi1)
    z1_ok = sorted(z1) == sorted([F3.zeta(1), F3.zeta(2)])
    r = wada_experiment(presentation("3_1"), alexander_fixture("9_30"),
                        alexander_fixture("11a359"), names=("9_30", "11a359"))
    w = r.witnesses
    ok = (
        z1_ok
        and w["Z2"] == ["-1", "-1", "1"]
        and w["product_Z1"]["9_30"] == 484 == w["product_Z1"]["11a359"]
        and abs(w["product_Z2"]["9_30"]) == 2809 == abs(w["product_Z2"]["11a359"])
        and w["product_negZ_table"]["9_30"] == 937024
        and w["product_negZ_table"]["11a359"] == 3748096
        and w["product_negZ_table"]["9_30"] != w["product_negZ_table"]["11a359"]
        and w["product_Z"]["9_30"] != w["product_Z"]["11a359"]
        and r.holds
    )
    report(5, ok, "484 = 484, ±2809 = ±2809, 937024 != 3748096 (and "
                  "7744 != 123904 over the tensor eigenvalue multiset); "
                  "Z1 = {zeta_3, zeta_3^2}, Z2 = {-1,-1,1} regenerated")


def _rep_triple(name):
    """Three representation types for a corpus knot."""
    pres = presentation(name)
    out = [rep_onedim(pres, -1)]
    colorings = find_dihedral_epis(pres, 3)
    if colorings:
        out.append(rep_dihedral(pres, colorings[0]))
    else:
        out.append(rep_trivial(pres))
    q = branched_cover_homology(pres, 2)
    m = q.structure.exponent()
    smallest = next(p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
                    if m % p == 0)
    chi = next(c for c in characters_of_quotient(q, smallest) if not c.is_trivial())
    out.append(rep_metabelian(pres, 2, chi))
    return pres, out


def test_criterion_6_column_and_conjugation_invariance():
    rng = random.Random(20120918)
    ok = True
    combos = 0
    for name in ("3_1", "4_1", "5_1", "5_2", "granny"):
        pres, reps = _rep_triple(name)
        for rep in reps:
            base = wada_invariant(pres, rep, column=0)
            for col in range(1, pres.generator_count):
                other = wada_invariant(pres, rep, column=col)
                if not doteq_equal(base, _retwist(base, other)):
                    ok = False
                    print(f"    column mismatch: {name} {rep.label} col {col}")
            dom = rep.dom if rep.dom.is_field else QQ
            dense = rep.convert_domain(dom)
            n = rep.dim
            for _ in range(20):
                while True:
                    pm = tuple(tuple(dom.coerce(rng.randint(-2, 2)) for _ in range(n))
                               for _ in range(n))
                    from twistalex.polydet import det_matrix

                    if not dom.is_zero(det_matrix(pm, dom)):
                        break
                conj = dense.conjugate(pm)
                tw = wada_invariant(pres, conj)
                base_f = wada_invariant(pres, dense)
                if not doteq_equal(base_f, _retwist(base_f, tw)):
                    ok = False
                    print(f"    conjugation mismatch: {name} {rep.label}")
            combos += 1
    report(6, ok and combos == 15,
           "column choice and 20 random conjugations leave the invariant "
           "doteq-fixed on 5 knots x 3 representation types")


def test_criterion_7_sum_and_modp():
    ok = True
    cases = 0
    for name in ("3_1", "4_1", "5_2", "7_1", "8_20", "granny"):
        pres = presentation(name)
        colorings = find_dihedral_epis(pres, 3) or find_dihedral_epis(pres, 5) \
            or find_dihedral_epis(pres, 7)
        a = rep_dihedral(pres, colorings[0]) if colorings else rep_trivial(pres)
        b = rep_onedim(pres, -1)
        s = rep_direct_sum(a, b)
        tws = wada_invariant(pres, s)
        twa = wada_invariant(pres, a)
        twb = wada_invariant(pres, b)
        prod = TwistedPolynomial(twa.value * twb.value, tws.det_subgroup, tws.column)
        if not doteq_equal(tws, prod):
            ok = False
            print(f"    direct-sum failure on {name}")
        p = colorings[0].p if colorings else 3
        twp = wada_invariant(pres, rep_mod_p(a, p))
        dom = GF(p)
        twq = wada_invariant(pres, a)
        num_red = LaurentPoly.from_terms(
            dom, {e: dom.coerce(v) for e, v in twq.value.num.terms()})
        den_red = LaurentPoly.from_terms(
            dom, {e: dom.coerce(v) for e, v in twq.value.den.terms()})
        reduced = TwistedPolynomial(RationalFunction(num_red, den_red),
                                    twp.det_subgroup, twq.column)
        if not doteq_equal(twp, reduced):
            ok = False
            print(f"    mod-p failure on {name}")
        cases += 1
    report(7, ok and cases == 6,
           "direct-sum multiplicativity and mod-p commutation hold on the corpus")


def test_criterion_8_tensor_identity_and_tn_structure():
    pres4 = presentation("4_1")
    pres3 = presentation("3_1")
    ok = True
    pairs = sorted({(k1, k2) for k1 in range(2, 7) for k2 in range(2, 7)
                    if gcd(k1, k2) == 1 and k1 * k2 <= 12})
    for k1, k2 in pairs:
        # nontrivial characters where the figure-eight quotients allow them,
        # trivial characters otherwise; the matrix identity is checked exactly
        def chi_for(k):
            q = branched_cover_homology(pres4, k)
            if not q.structure.free_rank and not q.structure.is_trivial():
                m = q.structure.exponent()
                return next(c for c in characters_of_quotient(q, m)
                            if not c.is_trivial())
            return characters_of_quotient(branched_cover_homology(pres4, k), 1)[0]

        if not tensor_metabelian_identity(pres4, k1, chi_for(k1), k2, chi_for(k2)):
            ok = False
            print(f"    tensor identity failed for ({k1},{k2})")
    # the satellite experiment's (2,3) configuration on the trefoil
    chi1 = next(c for c in characters_of_quotient(branched_cover_homology(pres3, 2), 3)
                if not c.is_trivial())
    chi2 = next(c for c in characters_of_quotient(branched_cover_homology(pres3, 3), 2)
                if not c.is_trivial())
    ok = ok and tensor_metabelian_identity(pres3, 2, chi1, 3, chi2)
    # t^n structure: every irreducible metabelian representation computed
    checked = 0
    for fx in corpus(8):
        pres = presentation(fx.name)
        for n in (2, 3):
            q = branched_cover_homology(pres, n)
            if q.structure.free_rank or q.structure.is_trivial():
                continue
            target = next((p for p in (2, 3, 5, 7)
                           if q.structure.exponent() % p == 0), None)
            if target is None:
                continue  # only characters over small cyclotomic fields
            for chi in characters_of_quotient(q, target):
                if chi.is_trivial() or not is_irreducible_metabelian(chi, n, q.rank):
                    continue
                rep = rep_metabelian(pres, n, chi)
                tw = wada_invariant(pres, rep)
                good = tw.is_laurent() and tw.canonical().value.num.poly_in_power(n)
                if not good:
                    ok = False
                    print(f"    t^n structure failed: {fx.name} n={n}")
                checked += 1
                break  # one irreducible character per (knot, n)
    report(8, ok and checked >= 10,
           f"tensor conjugation identity for all coprime k1*k2 <= 12 and "
           f"t^n-polynomiality on {checked} irreducible metabelian reps")


def test_criterion_9_conjecture_a_pipeline():
    ok = True
    ran = 0
    a4_exercised = False
    for fx in corpus(8):
        pres = presentation(fx.name)
        for p0, n in ((3, 2), (2, 3), (5, 2)):
            epis = find_zn_apn_epis(pres, n, p0)
            for epi in epis[:2]:
                r = check_conjecture_A(pres, epi, n, p0, knot=fx.name)
                if not (r.holds and r.witnesses["routes_agree"]
                        and r.witnesses["F_in_t^n"]):
                    ok = False
                    print(f"    A pipeline failed: {fx.name} (p={p0}, n={n})")
                ran += 1
                if (p0, n) == (2, 3):
                    a4_exercised = True
    report(9, ok and ran >= 6 and a4_exercised,
           f"Conjecture A two-route agreement with integral F in t^n on "
           f"{ran} (knot, epimorphism) pairs incl. the Z/3 x| A_2,3 case")


def test_criterion_10_triangularization():
    ok = True
    for p in (3, 5, 7):
        xv, yv, basis = triangular_form(p)
        xe, ye = triangular_form_expected(p)
        if xv != xe or yv != ye:
            ok = False
            print(f"    triangular form mismatch for p={p}")
        for i in range(p):
            ok = ok and xv[i][i] == pow(-1, i, p) and yv[i][i] == 1
            ok = ok and all(yv[i][j] == 0 for j in range(i))
    # the diagonal blocks reproduce the B(2) right-hand side
    for name, p in (("3_1", 3), ("4_1", 5), ("5_2", 7)):
        pres = presentation(name)
        d = find_dihedral_epis(pres, p)[0]
        ell = (p - 1) // 2
        dom = GF(p)
        lhs = wada_invariant(pres, rep_mod_p(rep_dihedral(pres, d), p))
        eps = wada_invariant(pres, rep_onedim(pres, 1, dom))
        tau = wada_invariant(pres, rep_onedim(pres, -1, dom))
        num = LaurentPoly.one(dom)
        den = LaurentPoly.one(dom)
        for _ in range(ell + 1):
            num = num * eps.value.num
            den = den * eps.value.den
        for _ in range(ell):
            num = num * tau.value.num
            den = den * tau.value.den
        from twistalex.twisted import _scalar_ratio

        match = _scalar_ratio(dom, lhs.value.num * den, num * lhs.value.den)
        if match is None:
            ok = False
            print(f"    block decomposition mismatch on {name} p={p}")
    report(10, ok, "Vandermonde basis renders x diagonal (-1)^i and y "
                   "unipotent for p in {3,5,7}; the eps/tau blocks rebuild "
                   "the B(2) right-hand side")
