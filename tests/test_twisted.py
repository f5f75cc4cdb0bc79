import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex import polydet, twisted
from twistalex.cyclo import CYC, CyclotomicField
from twistalex.domains import GF, QQ, ZZ
from twistalex.knots import TREFOIL_SEIFERT, alexander_fixture, corpus, presentation
from twistalex.laurent import LaurentPoly, RationalFunction, parse_poly
from twistalex.matrix import Monomial
from twistalex.metabelian import (DihedralData, alexander_polynomial,
                                  branched_cover_homology, characters_of_quotient,
                                  find_dihedral_epis, monodromy_orbit_values)
from twistalex.presentation import parse_presentation
from twistalex.reps import (rep_dihedral, rep_direct_sum, rep_metabelian,
                            rep_mod_p, rep_onedim, rep_trivial)
from twistalex.twisted import (TwistedPolynomial, WadaError, doteq_equal,
                               satellite_twisted, unit_subgroup, wada_invariant)

PAPER_COLORING = DihedralData(3, (2, 0, 2, 1, 1, 2, 0, 1, 0, 1, 2))


def as_tw(tw, num_text, den_text="1"):
    """Build a comparison TwistedPolynomial in tw's field and unit class."""
    f = parse_poly(num_text).copy_to(tw.dom)
    g = parse_poly(den_text).copy_to(tw.dom)
    return TwistedPolynomial(RationalFunction(f, g), tw.det_subgroup, tw.column)


def test_unknot_trivial_rep():
    pres = parse_presentation("gens: a; rels:")
    tw = wada_invariant(pres, rep_trivial(pres))
    assert doteq_equal(tw, as_tw(tw, "1", "1 - t"))


def test_trefoil_trivial_rep():
    pres = presentation("3_1")
    tw = wada_invariant(pres, rep_trivial(pres))
    assert doteq_equal(tw, as_tw(tw, "1 - t + t^2", "1 - t"))


def test_lemma_onedim_shift():
    # tau_z: Delta(tz) / (1 - tz), checked for z = -1 over QQ
    for name in ("3_1", "4_1", "6_2"):
        pres = presentation(name)
        delta = alexander_polynomial(pres)
        tw = wada_invariant(pres, rep_onedim(pres, -1))
        num = delta.subs_neg_t()
        assert doteq_equal(tw, as_tw(tw, num.to_text(), "1 + t"))


def test_lemma_onedim_root_of_unity():
    pres = presentation("3_1")
    F = CYC(3)
    z = F.zeta(1)
    tw = wada_invariant(pres, rep_onedim(pres, z, F))
    delta = alexander_polynomial(pres).copy_to(F)
    # Delta(z t)
    num = LaurentPoly.from_terms(F, {e: F.mul(v, F.pow(z, e)) for e, v in delta.terms()})
    den = LaurentPoly.from_terms(F, {0: F.one(), 1: F.neg(z)})
    target = TwistedPolynomial(RationalFunction(num, den), tw.det_subgroup, tw.column)
    assert doteq_equal(tw, target)


def test_paper_10_164_display():
    pres = presentation("10_164")
    tw = wada_invariant(pres, rep_dihedral(pres, PAPER_COLORING))
    num = parse_poly("3 - 11*t + 17*t^2 - 11*t^3 + 3*t^4") * \
        parse_poly("3 - 13*t^2 + 13*t^4 - 3*t^6")
    target = TwistedPolynomial(
        RationalFunction(num.copy_to(QQ), parse_poly("-1 + t").copy_to(QQ)),
        tw.det_subgroup, tw.column)
    assert doteq_equal(tw, target)


def test_doteq_units():
    pres = presentation("3_1")
    tw = wada_invariant(pres, rep_trivial(pres))
    f = tw.value
    shifted = TwistedPolynomial(
        RationalFunction(f.num.shift(3).scale(Fraction(-1)), f.den),
        tw.det_subgroup, tw.column)
    assert doteq_equal(tw, shifted)
    scaled = TwistedPolynomial(
        RationalFunction(f.num * parse_poly("1 + t").copy_to(QQ), f.den),
        tw.det_subgroup, tw.column)
    assert not doteq_equal(tw, scaled)


def test_doteq_incomparable_units():
    pres = presentation("3_1")
    tw = wada_invariant(pres, rep_trivial(pres))
    other = TwistedPolynomial(tw.value, (QQ.coerce(-1),), tw.column)
    with pytest.raises(WadaError, match="incomparable"):
        doteq_equal(tw, other)


def test_infinite_order_det_generator_refused():
    pres = presentation("3_1")
    tw = wada_invariant(pres, rep_trivial(pres))
    for gen in (QQ.coerce(Fraction(2)), QQ.coerce(Fraction(1, 2))):
        other = TwistedPolynomial(tw.value, (gen,), tw.column)
        with pytest.raises(WadaError, match=f"generator {gen} has infinite order"):
            other.units()
    F = CYC(4)
    one_plus_i = F.add(F.one(), F.zeta(1))  # |1 + i| = sqrt(2): not a root of unity
    with pytest.raises(WadaError, match="infinite order in Q\\(zeta_4\\)"):
        unit_subgroup(F, (F.zeta(1), one_plus_i))
    # roots of unity pass: the full torsion of Q(zeta_4) and of GF(7)
    assert len(unit_subgroup(F, (F.zeta(1),))) == 4
    assert len(unit_subgroup(CYC(3), (CYC(3).neg(CYC(3).zeta(1)),))) == 6
    assert len(unit_subgroup(GF(7), (3,))) == 6


def test_column_independence():
    # every admissible column gives a doteq-equal value
    cases = [
        ("3_1", rep_trivial(presentation("3_1"))),
        ("4_1", rep_onedim(presentation("4_1"), -1)),
    ]
    for name, rep in cases:
        pres = rep.pres
        base = wada_invariant(pres, rep, column=0)
        for col in range(1, pres.generator_count):
            other = wada_invariant(pres, rep, column=col)
            assert doteq_equal(base, TwistedPolynomial(
                other.value, base.det_subgroup, other.column)), (name, col)


def test_column_independence_dihedral_10_164():
    pres = presentation("10_164")
    rep = rep_dihedral(pres, PAPER_COLORING)
    base = wada_invariant(pres, rep, column=0)
    for col in range(1, 11):
        other = wada_invariant(pres, rep, column=col)
        assert doteq_equal(base, TwistedPolynomial(
            other.value, base.det_subgroup, other.column))


def test_conjugation_invariance():
    # isomorphic representations give doteq-equal values: random conjugators
    rng = random.Random(12121)
    pres = presentation("3_1")
    rep = rep_dihedral(pres, DihedralData(3, (0, 1, 2))).convert_domain(QQ)
    base = wada_invariant(pres, rep)
    for _ in range(5):
        while True:
            p = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
                      for _ in range(3))
            from twistalex.polydet import det_matrix

            if det_matrix(p, QQ) != 0:
                break
        conj = rep.conjugate(p)
        other = wada_invariant(pres, conj)
        assert doteq_equal(base, TwistedPolynomial(
            other.value, base.det_subgroup, other.column))


def test_direct_sum_multiplicativity():
    pres = presentation("3_1")
    a = rep_dihedral(pres, DihedralData(3, (0, 1, 2)))
    b = rep_onedim(pres, -1)
    s = rep_direct_sum(a, b)
    tws = wada_invariant(pres, s)
    twa = wada_invariant(pres, a)
    twb = wada_invariant(pres, b)
    prod = TwistedPolynomial(twa.value * twb.value, tws.det_subgroup, tws.column)
    assert doteq_equal(tws, prod)


def test_mod_p_commutation():
    # reducing the representation mod p commutes with reducing the polynomial
    for name, coloring, p in (("3_1", DihedralData(3, (0, 1, 2)), 3),
                              ("10_164", PAPER_COLORING, 3)):
        pres = presentation(name)
        rep = rep_dihedral(pres, coloring)
        tw_q = wada_invariant(pres, rep)       # over QQ
        tw_p = wada_invariant(pres, rep_mod_p(rep, p))
        dom = GF(p)
        num_red = LaurentPoly.from_terms(
            dom, {e: dom.coerce(v) for e, v in tw_q.value.num.terms()})
        den_red = LaurentPoly.from_terms(
            dom, {e: dom.coerce(v) for e, v in tw_q.value.den.terms()})
        reduced = TwistedPolynomial(RationalFunction(num_red, den_red),
                                    tw_p.det_subgroup, tw_q.column)
        assert doteq_equal(tw_p, reduced)


def test_triangular_splitting():
    # block-triangular splitting via the Vandermonde triangularization: the
    # conjugated representation is upper triangular with diagonal
    # eps x tau x eps ..., so Delta splits as the product over the diagonal
    from twistalex.matrix import mat_mul, gen_inv
    from twistalex.reps import vandermonde_basis

    pres = presentation("3_1")
    p = 3
    dom = GF(p)
    rep = rep_mod_p(rep_dihedral(pres, DihedralData(3, (0, 1, 2))), p)
    b = vandermonde_basis(p)
    binv = gen_inv(dom, b)
    images = {}
    triangular_ok = True
    for g, img in rep.images.items():
        m = mat_mul(dom, mat_mul(dom, binv, img.to_dense(dom)), b)
        images[g] = m
        for i in range(p):
            for j in range(i):
                if m[i][j] != 0:
                    triangular_ok = False
    assert triangular_ok
    from twistalex.reps import Representation

    conj = Representation(p, dom, images, pres, label="triangular")
    tw_conj = wada_invariant(pres, conj)
    eps = wada_invariant(pres, rep_onedim(pres, 1, dom))
    tau = wada_invariant(pres, rep_onedim(pres, -1, dom))
    prod_val = eps.value * tau.value * eps.value
    # match up to the full unit group of F_p[t^±1]
    from twistalex.twisted import _scalar_ratio

    lhs = tw_conj.value.num * prod_val.den
    rhs = prod_val.num * tw_conj.value.den
    assert _scalar_ratio(dom, lhs, rhs) is not None


def test_metabelian_tn_structure():
    # irreducible metabelian of dim n > 1 gives a Laurent
    # polynomial that is a polynomial in t^n
    from twistalex.reps import is_irreducible_metabelian

    for name, n, m in (("3_1", 2, 3), ("3_1", 3, 2), ("4_1", 2, 5), ("5_2", 2, 7)):
        pres = presentation(name)
        q = branched_cover_homology(pres, n)
        for chi in characters_of_quotient(q, m):
            if chi.is_trivial() or not is_irreducible_metabelian(chi, n, q.rank):
                continue
            rep = rep_metabelian(pres, n, chi)
            tw = wada_invariant(pres, rep)
            assert tw.is_laurent(), (name, n)
            assert tw.canonical().value.num.poly_in_power(n), (name, n)
            break


def test_satellite_scaling():
    pres = presentation("3_1")
    q2 = branched_cover_homology(TREFOIL_SEIFERT, 2)
    chi1 = next(c for c in characters_of_quotient(q2, 3) if not c.is_trivial())
    z1 = monodromy_orbit_values(TREFOIL_SEIFERT, [1, 0], 2, chi1)
    qf = branched_cover_homology(pres, 2)
    chif = next(c for c in characters_of_quotient(qf, 3) if not c.is_trivial())
    a1 = rep_metabelian(pres, 2, chif)
    tw = wada_invariant(pres, a1)
    # unknot companion: unchanged
    unchanged = satellite_twisted(tw, parse_poly("1"), CYC(3), z1)
    assert doteq_equal(tw, unchanged)
    # 9_30 companion: scale factor 484
    scaled = satellite_twisted(tw, alexander_fixture("9_30"), CYC(3), z1)
    expected = TwistedPolynomial(tw.value.scale(tw.dom.coerce(484)),
                                 tw.det_subgroup, tw.column)
    assert scaled.value == expected.value


def test_no_admissible_column_error():
    pres = presentation("3_1")
    rep = rep_trivial(pres)
    with pytest.raises(WadaError):
        wada_invariant(pres, rep, column=5)


def test_canonical_text_deterministic():
    pres = presentation("10_164")
    rep = rep_dihedral(pres, PAPER_COLORING)
    t1 = wada_invariant(pres, rep).to_text()
    t2 = wada_invariant(pres, rep).to_text()
    assert t1 == t2


def test_wada_on_non_wirtinger_presentation():
    # the torus presentation of the trefoil gives a doteq-equal invariant
    torus = parse_presentation("gens: a b; rels: a a B B B; phi: a=3 b=2")
    tw = wada_invariant(torus, rep_trivial(torus))
    assert doteq_equal(tw, as_tw(tw, "1 - t + t^2", "1 - t"))


def _admissibility_cases():
    """(pres, rep) over ZZ, GF(7) and Q(zeta_m), monomial and dense conjugates:
    the walker's corpus reps, a mod-7 reduction of the first over ZZ, and reps on two
    presentations whose phi is not all ones (x = a b^-1 has phi = 0)."""
    from test_walker import _corpus_reps, _dense

    rng = random.Random(1996)
    for fx in corpus():
        pres = presentation(fx.name)
        reps = _corpus_reps(pres, rng)
        gfp = rep_mod_p(next((r for r in reps if r.dom is ZZ), rep_trivial(pres)), 7)
        for rep in reps + [gfp, gfp.conjugate(_dense(gfp.dom, gfp.dim, rng))]:
            yield pres, rep
    F = CYC(5)
    for text in ("gens: a b; rels: a a B B B; phi: a=3 b=2",
                 "gens: x b; rels: x b b x b B B X B; phi: x=0 b=1"):
        pres = parse_presentation(text)
        sums = rep_direct_sum(rep_trivial(pres), rep_onedim(pres, -1))
        for rep in (rep_trivial(pres), rep_onedim(pres, F.zeta(1), F),
                    rep_mod_p(rep_onedim(pres, -1), 7), sums,
                    sums.conjugate(_dense(ZZ, 2, rng))):
            yield pres, rep


def test_every_phi_nonzero_column_is_admissible():
    # det(I - rho(g) t^phi(g)) has t^0 coefficient det I = 1 when phi(g) != 0,
    # so wada_invariant takes the first such column without a search
    kinds = set()
    for pres, rep in _admissibility_cases():
        dom = rep.dom
        for j, e in enumerate(pres.phi):
            if e:
                img = rep.image_of_gen(j, 1)
                kinds.add((dom.name[:2], isinstance(img, Monomial)))
                assert dom.eq(twisted._denominator(dom, img, e)[0], dom.one()), (rep.label, j)
        first = next(j for j, e in enumerate(pres.phi) if e)
        assert wada_invariant(pres, rep).column == first, rep.label
    assert kinds == {(d, m) for d in ("ZZ", "GF", "Q(") for m in (True, False)}
    pres = parse_presentation("gens: x b; rels: x b b x b B B X B; phi: x=0 b=1")
    with pytest.raises(WadaError, match="^column 0 has phi = 0$"):
        wada_invariant(pres, rep_trivial(pres), column=0)
    assert wada_invariant(pres, rep_trivial(pres)).to_text() == "(1 - t + t^2) / (-1 + t)"


DENOMINATOR_DOMAINS = [ZZ, GF(5), GF(7), CYC(5), CYC(12)]


@st.composite
def _monomial_images(draw):
    dom = draw(st.sampled_from(DENOMINATOR_DOMAINS))
    n = draw(st.integers(1, 7))
    perm = tuple(draw(st.permutations(range(n))))
    if dom is ZZ:
        scale = st.sampled_from([-3, -2, -1, 1, 2, 3])
    elif isinstance(dom, CyclotomicField):
        # ±zeta^k, as every representation here has, or 1 + zeta^k
        scale = st.builds(lambda k, kind: [dom.zeta(k), dom.neg(dom.zeta(k)),
                                           dom.add(dom.one(), dom.zeta(k))][kind],
                          st.integers(0, dom.m - 1), st.integers(0, 2))
        scale = scale.filter(lambda x: not dom.is_zero(x))
    else:
        scale = st.integers(1, dom.p - 1)
    scales = tuple(draw(scale) for _ in range(n))
    e = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return dom, Monomial(perm, scales), e


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_monomial_images())
def test_closed_form_denominator_matches_the_engine(case):
    # det(I - M t^e) of a monomial M as prod over cycles of 1 - P t^(L e)
    dom, mono, e = case
    dense = mono.to_dense(dom)
    n = mono.n
    block = [[LaurentPoly.from_terms(dom, {0: dom.one() if a == b else dom.zero(),
                                           e: dom.neg(dense[a][b])})
              for b in range(n)] for a in range(n)]
    assert twisted._denominator(dom, mono, e) == polydet._det_multimodular(block, dom)
    assert twisted._denominator(dom, dense, e) == polydet._det_multimodular(block, dom)


def test_monomial_rep_calls_the_engine_for_its_numerator_only(monkeypatch):
    kron, engine = [], []
    real_kron, real_engine = polydet._det_kronecker, polydet._det_multimodular
    monkeypatch.setattr(polydet, "_det_kronecker",
                        lambda c, dom, b, x: kron.append(len(c.terms)) or real_kron(c, dom, b, x))
    monkeypatch.setattr(polydet, "_det_multimodular",
                        lambda rows, dom, c=None: engine.append(len(rows))
                        or real_engine(rows, dom, c))
    # the figure-eight's D_5: its 5 x 5 reduced Fox matrix is packed into one
    # integer determinant (the Kronecker path), and no matrix reaches the engine
    pres = presentation("4_1")
    rep = rep_dihedral(pres, DihedralData(5, (0, 1, 3, 4)))
    tw = wada_invariant(pres, rep)
    assert (kron, engine) == ([5], [])  # the numerator; the denominator is closed form
    # a conjugated (dense) image takes a determinant for its denominator too
    del kron[:]
    p = tuple(tuple(Fraction(int(i == j or j == i + 1)) for j in range(5)) for i in range(5))
    conj = rep.convert_domain(QQ).conjugate(p)
    assert doteq_equal(wada_invariant(pres, conj), as_tw(tw, tw.to_text()))
    assert (kron, engine) == ([5, 5], [])
