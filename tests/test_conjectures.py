import json
from itertools import product as iproduct

import pytest

from twistalex import conjectures
from twistalex.conjectures import (ConjectureReport, _pairing_search,
                                   check_conjecture_A, check_conjecture_Aprime,
                                   check_conjecture_B1, check_conjecture_B2,
                                   extract_f_polynomial, wada_experiment)
from twistalex.domains import QQ, ZZ
from twistalex.factorint import factor_integer_poly
from twistalex.knots import alexander_fixture, presentation
from twistalex.laurent import LaurentPoly, parse_poly
from twistalex.metabelian import (DihedralData, alexander_polynomial,
                                  find_dihedral_epis, find_zn_apn_epis)
from twistalex.reps import rep_dihedral
from twistalex.twisted import wada_invariant

PAPER_COLORING = DihedralData(3, (2, 0, 2, 1, 1, 2, 0, 1, 0, 1, 2))


def test_conjecture_a_trefoil_d3():
    pres = presentation("3_1")
    epi = find_zn_apn_epis(pres, 2, 3)[0]
    r = check_conjecture_A(pres, epi, 2, 3, knot="3_1")
    assert r.holds
    F = parse_poly(r.witnesses["F"])
    assert F.poly_in_power(2)
    assert r.witnesses["routes_agree"]


def test_conjecture_a_a4_case():
    # the Z/3 x| A_{2,3} target, i.e. the alternating-group special case
    for name in ("3_1", "4_1"):
        pres = presentation(name)
        epis = find_zn_apn_epis(pres, 3, 2)
        if not epis:
            continue
        r = check_conjecture_A(pres, epis[0], 3, 2, knot=name)
        assert r.holds, name
        assert parse_poly(r.witnesses["F"]).poly_in_power(3)


def test_conjecture_a_precondition_filter():
    pres = presentation("3_1")
    r = check_conjecture_A(pres, (), 8, 7)
    assert r.verdict == "precondition-unmet"


def test_conjecture_a_witness_reverifies():
    pres = presentation("4_1")
    epi = find_zn_apn_epis(pres, 2, 5)[0]
    r = check_conjecture_A(pres, epi, 2, 5, knot="4_1")
    assert r.holds
    # F * Delta/(1-t) doteq the computed twisted polynomial
    from twistalex.reps import rep_gamma_compose
    from twistalex.twisted import TwistedPolynomial, doteq_equal
    from twistalex.laurent import RationalFunction

    tw = wada_invariant(pres, rep_gamma_compose(pres, 2, 5, epi))
    F = parse_poly(r.witnesses["F"]).copy_to(QQ)
    delta = parse_poly(r.witnesses["delta"]).copy_to(QQ)
    one_minus_t = parse_poly("1 - t").copy_to(QQ)
    recon = TwistedPolynomial(RationalFunction(F * delta, one_minus_t),
                              tw.det_subgroup, tw.column)
    assert doteq_equal(tw, recon)


def test_conjecture_a_prime_10_164():
    pres = presentation("10_164")
    r = check_conjecture_Aprime(pres, 2, 3, -1, PAPER_COLORING.colors, knot="10_164")
    assert r.holds
    assert parse_poly(r.witnesses["F"]) == parse_poly("3 - 13*t^2 + 13*t^4 - 3*t^6")


def test_conjecture_a_prime_metacyclic_g372():
    # 7_1 carries G(3,7|2) epimorphisms (its branched 3-fold cover has
    # 7-torsion); every found epi satisfies A'
    pres = presentation("7_1")
    from twistalex.metabelian import find_metacyclic_epis

    epis = find_metacyclic_epis(pres, 3, 7, 2)
    for colors in epis:
        r = check_conjecture_Aprime(pres, 3, 7, 2, colors, knot="7_1")
        assert r.holds
        assert parse_poly(r.witnesses["F"]).poly_in_power(3)


def test_conjecture_a_prime_m2_matches_dihedral_route():
    # two code paths, one answer: the metacyclic m=2 F equals the F computed
    # through the dihedral representation directly
    pres = presentation("3_1")
    d = find_dihedral_epis(pres, 3)[0]
    r = check_conjecture_Aprime(pres, 2, 3, -1, d.colors, knot="3_1")
    tw = wada_invariant(pres, rep_dihedral(pres, d))
    F, ok = extract_f_polynomial(tw, alexander_polynomial(pres))
    assert ok and r.witnesses["F"] == F.to_text()


def test_conjecture_a_prime_engine_errors_propagate(monkeypatch):
    # invalid input is a precondition verdict; an engine defect is not
    pres = presentation("3_1")
    r = check_conjecture_Aprime(pres, 2, 3, -1, (0, 1, 1), knot="3_1")
    assert r.verdict == "precondition-unmet"

    def broken(*args):
        raise RuntimeError("engine defect")

    monkeypatch.setattr(conjectures, "rep_metacyclic", broken)
    with pytest.raises(RuntimeError, match="engine defect"):
        check_conjecture_Aprime(pres, 2, 3, -1, (0, 1, 2), knot="3_1")


def test_b1_counterexample_10_164():
    pres = presentation("10_164")
    r = check_conjecture_B1(pres, PAPER_COLORING, knot="10_164")
    assert r.verdict == "fails"
    assert sorted(r.witnesses["obstruction"]) == ["-1 + 3*t^2", "-3 + t^2"]
    facs = dict((g, m) for g, m in r.witnesses["F_factors"])
    assert facs == {"-1 + t": 1, "1 + t": 1, "-3 + t^2": 1, "-1 + 3*t^2": 1}
    assert r.witnesses["F_unit"] == -1


def test_b1_brute_force_confirms_no_pairing():
    # exhaustive check over every sub-multiset: no integer pairing exists
    F = parse_poly("3 - 13*t^2 + 13*t^4 - 3*t^6")
    unit, content, tpow, factors = factor_integer_poly(F)
    found = False
    ranges = [range(e + 1) for _, e in factors]
    for mults in iproduct(*ranges):
        cand = LaurentPoly.const(ZZ, 1)
        for (g, _), s in zip(factors, mults):
            for _ in range(s):
                cand = cand * g
        prod = cand * cand.subs_neg_t()
        from twistalex.twisted import _scalar_ratio

        if _scalar_ratio(ZZ, prod, F) in (1, -1):
            found = True
    assert not found


def test_b1_synthetic_square():
    f, sign, shift, obs = _pairing_search(parse_poly("1 - 2*t^2 + t^4"))
    assert f is not None
    check = f * f.subs_neg_t()
    from twistalex.twisted import _scalar_ratio

    assert _scalar_ratio(ZZ, check, parse_poly("1 - 2*t^2 + t^4")) in (1, -1)


def test_b1_synthetic_t4_minus_1():
    # exhaustive search decides: (t^2+1) is self-paired with odd multiplicity
    f, sign, shift, obs = _pairing_search(parse_poly("-1 + t^4"))
    assert f is None
    assert [g.to_text() for g in obs] == ["1 + t^2"]


def test_b1_holds_case_on_corpus():
    # torus knot 7_1 with p=7: B(1) is known to hold for torus knots
    pres = presentation("7_1")
    d = find_dihedral_epis(pres, 7)[0]
    r = check_conjecture_B1(pres, d, knot="7_1")
    assert r.verdict == "holds"
    assert r.witnesses["f_reverifies"]


def test_b2_10_164():
    pres = presentation("10_164")
    r = check_conjecture_B2(pres, PAPER_COLORING, knot="10_164")
    assert r.holds
    assert r.witnesses["matching_unit"] is not None
    assert r.witnesses["triangular_route_unit"] is not None


def test_b2_sample_small_knots():
    for name, p in (("3_1", 3), ("4_1", 5), ("6_1", 3)):
        pres = presentation(name)
        for d in find_dihedral_epis(pres, p):
            r = check_conjecture_B2(pres, d, knot=name)
            assert r.holds, (name, p)


def test_wada_experiment_full():
    tre = presentation("3_1")
    dc = alexander_fixture("9_30")
    dcp = alexander_fixture("11a359")
    r = wada_experiment(tre, dc, dcp, names=("9_30", "11a359"))
    assert r.holds
    w = r.witnesses
    assert w["product_Z1"] == {"9_30": 484, "11a359": 484}
    assert abs(w["product_Z2"]["9_30"]) == 2809
    assert abs(w["product_Z2"]["11a359"]) == 2809
    assert w["product_negZ_table"] == {"9_30": 937024, "11a359": 3748096}
    assert w["product_Z"]["9_30"] != w["product_Z"]["11a359"]
    assert w["tensor_is_alpha6"]
    assert w["Z2"] == ["-1", "-1", "1"]


def test_wada_experiment_same_companion_no_counterexample():
    tre = presentation("3_1")
    dc = alexander_fixture("9_30")
    r = wada_experiment(tre, dc, dc, names=("C", "C"))
    assert r.verdict == "fails"  # all products equal: no counterexample
    assert r.witnesses["product_Z"]["C"] == r.witnesses["product_Z"]["C"]


def test_wada_experiment_swap_symmetric():
    tre = presentation("3_1")
    dc = alexander_fixture("9_30")
    dcp = alexander_fixture("11a359")
    r1 = wada_experiment(tre, dc, dcp, names=("A", "B"))
    r2 = wada_experiment(tre, dcp, dc, names=("B", "A"))
    assert r1.verdict == r2.verdict == "holds"


def test_report_json_schema():
    pres = presentation("3_1")
    d = find_dihedral_epis(pres, 3)[0]
    r = check_conjecture_B2(pres, d, knot="3_1")
    obj = json.loads(r.to_json())
    assert set(obj) == {"conjecture", "knot", "rep_spec", "witnesses", "verdict"}
    assert obj["verdict"] == "holds"
