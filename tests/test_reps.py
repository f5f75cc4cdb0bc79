import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest

from twistalex import matrix, words
from twistalex.cyclo import CYC
from twistalex.domains import GF, QQ, ZZ
from twistalex.knots import presentation
from twistalex.matrix import (Monomial, as_monomial, gen_inv, gen_mul, identity, mat_eq,
                              mat_inverse, mat_mul, to_dense)
from twistalex.metabelian import (DihedralData, branched_cover_homology,
                                  characters_of_quotient, find_dihedral_epis,
                                  find_zn_apn_epis)
from twistalex.reps import (GammaRep, RepresentationError, default_sl_z,
                            gamma_summands, is_irreducible_metabelian,
                            metacyclic_gen_images, parse_rep_spec, rep_dihedral,
                            rep_direct_sum, rep_gamma_compose, rep_metabelian,
                            rep_metacyclic, rep_mod_p, rep_onedim, rep_tensor,
                            rep_trivial, summand_compose,
                            tensor_metabelian_identity, triangular_form,
                            triangular_form_expected, vandermonde_basis)
from twistalex.twisted import wada_invariant

PAPER_COLORING = DihedralData(3, (2, 0, 2, 1, 1, 2, 0, 1, 0, 1, 2))


def test_trivial_and_onedim():
    pres = presentation("3_1")
    eps = rep_trivial(pres)
    assert eps.dim == 1 and eps.check_relators()
    tau = rep_onedim(pres, -1)
    assert all(tau.images[g].scales == (-1,) for g in range(3))
    z3 = CYC(3).zeta(1)
    rho = rep_onedim(pres, z3, CYC(3))
    assert rho.check_relators()
    with pytest.raises(RepresentationError):
        rep_onedim(pres, 0)
    with pytest.raises(RepresentationError, match="not a unit of ZZ"):
        rep_onedim(pres, 2)


def test_dihedral_paper_assignment_valid():
    pres = presentation("10_164")
    rep = rep_dihedral(pres, PAPER_COLORING)
    assert rep.dim == 3
    assert rep.check_relators()


def test_dihedral_group_relations():
    # rho(x)^2 = rho(y)^p = 1 in the permutation model
    for m, p, k in ((2, 3, -1), (2, 5, -1), (2, 7, -1), (3, 7, 2)):
        x, y = metacyclic_gen_images(m, p, k % p)
        acc = x
        for _ in range(m - 1):
            acc = acc.mul(x, ZZ)
        assert acc.is_identity(ZZ)
        acc = y
        for _ in range(p - 1):
            acc = acc.mul(y, ZZ)
        assert acc.is_identity(ZZ)
        # x y x^-1 = y^k
        conj = x.mul(y, ZZ).mul(x.inv(ZZ), ZZ)
        yk = Monomial.identity(ZZ, p)
        for _ in range(k % p):
            yk = yk.mul(y, ZZ)
        assert conj.perm == yk.perm


def test_dihedral_invalid_coloring_rejected():
    pres = presentation("3_1")
    with pytest.raises(RepresentationError):
        rep_dihedral(pres, DihedralData(3, (0, 1, 1)))
    with pytest.raises(RepresentationError, match=re.escape("under dihedral(p=5)")):
        rep_dihedral(pres, DihedralData(5, (0, 1, 1)))
    for p in (2, 4, 9):
        with pytest.raises(RepresentationError, match="p must be an odd prime"):
            rep_dihedral(pres, DihedralData(p, (0, 1, 2)))


def test_metacyclic_coincides_with_dihedral():
    pres = presentation("10_164")
    a = rep_dihedral(pres, PAPER_COLORING)
    b = rep_metacyclic(pres, 2, 3, -1, PAPER_COLORING.colors)
    for g in range(pres.generator_count):
        assert a.images[g].perm == b.images[g].perm
        assert a.images[g].scales == b.images[g].scales


def test_metacyclic_k_validation():
    pres = presentation("3_1")
    # k=2 has order 3 mod 7: fine (but no epi for the trefoil, so skip relators)
    from twistalex.metabelian import find_metacyclic_epis

    assert find_metacyclic_epis(pres, 3, 7, 2) == []
    with pytest.raises(RepresentationError):
        rep_metacyclic(pres, 3, 7, 6, (0, 0, 0))
    with pytest.raises(RepresentationError, match="m must be >= 1, got 0"):
        rep_metacyclic(pres, 0, 3, 1, (0, 1, 2))
    with pytest.raises(RepresentationError, match=re.escape("metacyclic(m=2,p=5,k=4)")):
        rep_metacyclic(pres, 2, 5, 4, (0, 1, 1))


def test_trefoil_all_colorings_give_reps():
    pres = presentation("3_1")
    for d in find_dihedral_epis(pres, 3):
        rep = rep_dihedral(pres, d)
        assert rep.check_relators()


# ------------------------------------------------------------------- gamma

def test_gamma_group_a4():
    gam = GammaRep(2, 3)
    assert gam.dim == 4
    # image group: all gamma(j,a), order 12, all even permutations of 4 points
    from twistalex.matrix import perm_sign

    perms = set()
    for j, a in gam.group_elements():
        mono = gam.image(j, a)
        assert perm_sign(mono.perm) == 1
        perms.add(mono.perm)
    assert len(perms) == 12


def test_gamma_identity_element():
    gam = GammaRep(3, 2)
    assert gam.image(0, (0,)).is_identity(ZZ)
    assert gam.dim == 3


def test_gamma_d3_matches_dihedral():
    # A_{3,2} = F_3[t]/(t+1) with t = -1: Z/2 x| A is D_3; the two permutation
    # models agree up to the basis ordering of A = {0,1,2}
    pres = presentation("3_1")
    epi = find_zn_apn_epis(pres, 2, 3)[0]
    gamma_rep = rep_gamma_compose(pres, 2, 3, epi)
    assert gamma_rep.check_relators()
    colors = tuple(a[0] for a in epi)
    dihedral = rep_dihedral(pres, DihedralData(3, colors))
    # gamma(1, a): v -> t v + a = -v + a; dihedral xy^c: v -> -(v - c) = c - v
    # so gamma with a = c is literally the same permutation
    for g in range(3):
        assert gamma_rep.images[g].perm == dihedral.images[g].perm


def test_gamma_summands_structure():
    # p=2, n=3: trivial line plus one 3-dimensional block
    summands = gamma_summands(2, 3)
    assert [s.dim for s in summands] == [1, 3]
    # p=3, n=2: 1 + (3-1)/2 blocks of size 2
    summands = gamma_summands(3, 2)
    assert [s.dim for s in summands] == [1, 2]
    # p=5, n=2
    summands = gamma_summands(5, 2)
    assert [s.dim for s in summands] == [1, 2, 2]
    for p, n in ((2, 3), (3, 2), (5, 2)):
        s = gamma_summands(p, n)
        d, _ = __import__("twistalex.metabelian", fromlist=["apn_field"]).apn_field(n, p)
        assert sum(x.dim for x in s) == p**d


def test_gamma_summands_precondition():
    with pytest.raises(RepresentationError):
        gamma_summands(7, 8)  # phi_8 reducible mod 7


def _trace(dom, m):
    md = to_dense(dom, m)
    acc = dom.zero()
    for i in range(len(md)):
        acc = dom.add(acc, md[i][i])
    return acc


def test_gamma_summand_trace_identity():
    # trace gamma(g) = sum_i trace gamma_i(g) for every group element
    for p, n in ((3, 2), (2, 3), (5, 2)):
        gam = GammaRep(p, n)
        summands = gamma_summands(p, n)
        dom = CYC(p)
        for j, a in gam.group_elements():
            whole = _trace(ZZ, gam.image(j, a))
            total = dom.zero()
            for s in summands:
                total = dom.add(total, _trace(dom, s.image(j, a)))
            assert dom.eq(total, dom.coerce(whole)), (p, n, j, a)


def test_summand_compose_relators():
    pres = presentation("3_1")
    for p, n in ((3, 2), (2, 3)):
        epis = find_zn_apn_epis(pres, n, p)
        if not epis:
            continue
        for s in gamma_summands(p, n):
            rep = summand_compose(pres, s, epis[0])
            assert rep.check_relators()


# -------------------------------------------------------------- metabelian

def _chi(pres, n, m, nontrivial=True, idx=0):
    q = branched_cover_homology(pres, n)
    chars = [c for c in characters_of_quotient(q, m) if c.is_trivial() != nontrivial]
    return chars[idx]


def test_metabelian_block_shape():
    pres = presentation("3_1")
    chi = _chi(pres, 2, 3)
    rep = rep_metabelian(pres, 2, chi)
    assert rep.dim == 2
    # meridian with h = 0 (the base) maps to the plain z-cycle block
    base = rep.images[0]
    assert base.perm == (1, 0)
    # SL condition: z^2 = -1 realized as zeta_4 in CYC(12)
    z = default_sl_z(2, CYC(12))
    F = CYC(12)
    assert F.eq(F.mul(z, z), F.neg(F.one()))


def test_metabelian_diagonal_on_kernel():
    # alpha(0,h) is diagonal: the image of a phi=0 word is diagonal
    pres = presentation("3_1")
    chi = _chi(pres, 2, 3)
    rep = rep_metabelian(pres, 2, chi)
    from twistalex import words

    w = words.word((1, 1), (0, -1))  # g_1 g_0^-1, phi = 0
    img = rep.image_of_word(w)
    assert img.perm == (0, 1)


def test_metabelian_relator_checks_across_corpus():
    for name, n, m in (("3_1", 2, 3), ("3_1", 3, 2), ("4_1", 2, 5), ("5_2", 2, 7)):
        pres = presentation(name)
        chi = _chi(pres, n, m)
        rep = rep_metabelian(pres, n, chi)
        assert rep.check_relators(), (name, n, m)


def test_metabelian_period_validation():
    pres = presentation("3_1")
    chi = _chi(pres, 2, 3)
    with pytest.raises(RepresentationError):
        rep_metabelian(pres, 3, chi)  # chi has period 2, does not factor


def test_irreducibility_criterion():
    pres = presentation("3_1")
    chi = _chi(pres, 2, 3)
    q = branched_cover_homology(pres, 2)
    assert is_irreducible_metabelian(chi, 2, q.rank)
    triv = _chi(pres, 2, 3, nontrivial=False)
    assert not is_irreducible_metabelian(triv, 2, q.rank)


# ------------------------------------------------------------- combinators

def test_tensor_with_trivial():
    pres = presentation("3_1")
    rep = rep_dihedral(pres, DihedralData(3, (0, 1, 2)))
    t = rep_tensor(rep, rep_trivial(pres))
    for g in range(3):
        assert t.images[g].perm == rep.images[g].perm
    assert t.dim == rep.dim


def test_tensor_and_sum_functorial():
    pres = presentation("3_1")
    a = rep_dihedral(pres, DihedralData(3, (0, 1, 2)))
    b = rep_onedim(pres, -1)
    ab = rep_tensor(a, b)
    s = rep_direct_sum(a, b)
    assert ab.dim == 3 and s.dim == 4
    from twistalex import words

    rng = random.Random(17)
    for _ in range(20):
        w = words.reduce_syllables([(rng.randint(0, 2), rng.choice([-1, 1]))
                                    for _ in range(4)])
        ia = to_dense(ZZ, a.image_of_word(w))
        ib = to_dense(ZZ, b.image_of_word(w))
        iab = to_dense(ZZ, ab.image_of_word(w))
        isum = to_dense(ZZ, s.image_of_word(w))
        from twistalex.matrix import direct_sum, kron

        assert mat_eq(ZZ, iab, kron(ZZ, ia, ib))
        assert mat_eq(ZZ, isum, direct_sum(ZZ, ia, ib))


def test_mod_p_reduction():
    pres = presentation("10_164")
    rep = rep_dihedral(pres, PAPER_COLORING)
    rp = rep_mod_p(rep, 3)
    assert rp.dom.name == "GF(3)"
    assert rp.check_relators()
    # det commutes with reduction
    for g in range(rep.dim):
        d = rep.images[g].det(ZZ)
        dp = rp.images[g].det(GF(3))
        assert dp == d % 3
    with pytest.raises(RepresentationError):
        rep_mod_p(rep_onedim(pres, Fraction(1, 2), QQ), 3)


def test_conjugation_preserves_relators():
    pres = presentation("3_1")
    rep = rep_dihedral(pres, DihedralData(3, (0, 1, 2)))
    q = rep.convert_domain(QQ)
    p = ((Fraction(1), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(2), Fraction(0), Fraction(1)))
    conj = q.conjugate(p)
    assert conj.check_relators()


# ------------------------------------------------- coprime tensor identity

def test_tensor_metabelian_identity_trefoil():
    pres = presentation("3_1")
    chi1 = _chi(pres, 2, 3)
    chi2 = _chi(pres, 3, 2)
    assert tensor_metabelian_identity(pres, 2, chi1, 3, chi2)
    assert tensor_metabelian_identity(pres, 3, chi2, 2, chi1)


def test_tensor_metabelian_identity_with_trivial_characters():
    # the identity is a statement about the block shapes; it holds for any
    # characters, including trivial ones, on every coprime pair
    pres = presentation("4_1")
    pairs = [(k1, k2) for k1 in range(2, 7) for k2 in range(2, 7)
             if gcd(k1, k2) == 1 and k1 * k2 <= 12]
    for k1, k2 in pairs:
        chi1 = _chi(pres, k1, 1, nontrivial=False)
        chi2 = _chi(pres, k2, 1, nontrivial=False)
        assert tensor_metabelian_identity(pres, k1, chi1, k2, chi2), (k1, k2)


def test_tensor_metabelian_identity_nontrivial_pairs():
    pres = presentation("4_1")
    # H/(t^2-1) = Z/5, H/(t^3-1) = (Z/4)^2-sized group of order 16
    cases = []
    q2 = branched_cover_homology(pres, 2)
    q3 = branched_cover_homology(pres, 3)
    q4 = branched_cover_homology(pres, 4)
    chi2 = next(c for c in characters_of_quotient(q2, 5) if not c.is_trivial())
    chi3 = next(c for c in characters_of_quotient(q3, 4) if not c.is_trivial())
    chi4 = next(c for c in characters_of_quotient(q4, 3) if not c.is_trivial())
    assert tensor_metabelian_identity(pres, 2, chi2, 3, chi3)
    assert tensor_metabelian_identity(pres, 3, chi3, 4, chi4)


def test_tensor_identity_rejects_non_coprime():
    pres = presentation("3_1")
    chi = _chi(pres, 2, 3)
    with pytest.raises(RepresentationError):
        tensor_metabelian_identity(pres, 2, chi, 2, chi)


# --------------------------------------------------- Vandermonde triangle

@pytest.mark.parametrize("p", [3, 5, 7])
def test_triangular_form(p):
    xv, yv, basis = triangular_form(p)
    xe, ye = triangular_form_expected(p)
    assert xv == xe
    assert yv == ye
    # x diag (-1)^i; y unipotent upper triangular
    for i in range(p):
        assert xv[i][i] == pow(-1, i, p)
        assert yv[i][i] == 1
        for j in range(i):
            assert yv[i][j] == 0


def test_vandermonde_p3_by_hand():
    b = vandermonde_basis(3)
    # columns: v_0 = (1,1,1), v_1 = (0,1,2), v_2 = (0,1,1)
    cols = list(zip(*b))
    assert cols[0] == (1, 1, 1)
    assert cols[1] == (0, 1, 2)
    assert cols[2] == (0, 1, 1)
    xv, yv, _ = triangular_form(3)
    assert [xv[i][i] for i in range(3)] == [1, 2, 1]  # diag(1, -1, 1) mod 3


def test_vandermonde_requires_odd_prime():
    with pytest.raises(ValueError):
        triangular_form(2)
    with pytest.raises(ValueError):
        triangular_form(9)


# ------------------------------------------------------------ spec strings

def test_parse_rep_specs():
    pres = presentation("10_164")
    rep = parse_rep_spec("dihedral:p=3:colors=2,0,2,1,1,2,0,1,0,1,2", pres)
    assert rep.dim == 3
    tre = presentation("3_1")
    assert parse_rep_spec("trivial", tre).dim == 1
    assert parse_rep_spec("onedim:z=-1", tre).images[0].scales == (-1,)
    g = parse_rep_spec("gamma:p=3:n=2", tre)
    assert g.dim == 3
    mb = parse_rep_spec("metabelian:n=2:m=3:chi=1", tre)
    assert mb.dim == 2
    t = parse_rep_spec("tensor(trivial,onedim:z=-1)", tre)
    assert t.dim == 1
    s = parse_rep_spec("sum(trivial,dihedral:p=3:colors=0,1,2)", tre)
    assert s.dim == 4
    m = parse_rep_spec("modp(dihedral:p=3:colors=0,1,2,3)", tre)
    assert m.dom.name == "GF(3)"
    meta = parse_rep_spec("metacyclic:m=2:p=3:k=-1:colors=0,1,2", tre)
    assert meta.dim == 3
    nested = parse_rep_spec("tensor(sum(trivial,trivial),onedim:z=-1)", tre)
    assert nested.dim == 2
    assert nested.images[0].scales == (-1, -1)
    both = parse_rep_spec("sum(dihedral:p=3:colors=0,1,2, metacyclic:m=2:p=3:k=2:colors=0,1,2)",
                          tre)
    assert both.dim == 6


@pytest.mark.parametrize("spec, message", [
    ("dihedral:p=3", "dihedral spec is missing key 'colors'"),
    ("gamma:p=3", "gamma spec is missing key 'n'"),
    ("metacyclic:m=2:p=3:colors=0,1,2", "metacyclic spec is missing key 'k'"),
    ("trivial:z=1", "trivial spec has no key 'z'"),
    ("sum(trivial,bogus)", "unknown representation spec 'bogus'"),
    ("tensor(trivial,trivial,trivial)", "tensor takes two specs, got 3"),
    ("metacyclic:m=0:p=3:k=1:colors=0,1,2", "m must be >= 1, got 0"),
    ("onedim:z=1/0", "zero denominator in '1/0'"),
    ("metabelian:n=2:m=3:chi=-1", "chi index -1 out of range"),
    ("dihedral:p=x:colors=0,1,2", "dihedral spec key 'p' is not an integer: 'x'"),
    ("dihedral:p=3:colors=0,1,y", "dihedral spec key 'colors' is not an integer: 'y'"),
    ("metacyclic:m=2:p=3:k=2.5:colors=0,1,2", "metacyclic spec key 'k' is not an integer"),
    ("gamma:p=3:n=2:a=0.1,x", "gamma spec key 'a' is not an integer: 'x'"),
    ("metabelian:n=two:m=3", "metabelian spec key 'n' is not an integer: 'two'"),
    ("modp(trivial,q)", "modp spec key 'p' is not an integer: 'q'"),
    ("onedim:z=x", "malformed scalar 'x'"),
    ("metabelian:n=2:m=3:chi=1:z=z3^y", "malformed scalar 'z3^y'"),
])
def test_parse_rep_spec_errors_name_the_fault(spec, message):
    with pytest.raises(RepresentationError, match=re.escape(message)):
        parse_rep_spec(spec, presentation("3_1"))


def test_gamma_summand_homomorphism_on_all_pairs():
    # the block formula must be a genuine group homomorphism, not just
    # relator-consistent on meridian images
    for p, n in ((3, 2), (2, 3)):
        dom = CYC(p)
        gam_summands = gamma_summands(p, n)
        s = gam_summands[-1]
        gam = s.gam
        elements = list(gam.group_elements())
        for (j1, a1) in elements:
            for (j2, a2) in elements:
                prod_elem = ((j1 + j2) % n,
                             tuple((x + y) % p for x, y in
                                   zip(a1, gam.t_apply(a2, j1))))
                lhs = s.image(j1, a1).mul(s.image(j2, a2), dom)
                rhs = s.image(*prod_elem)
                assert lhs.perm == rhs.perm
                assert all(dom.eq(x, y) for x, y in zip(lhs.scales, rhs.scales)), \
                    (p, n, j1, a1, j2, a2)


def test_gamma_rep_homomorphism_on_all_pairs():
    for p, n in ((3, 2), (2, 3)):
        gam = GammaRep(p, n)
        elements = list(gam.group_elements())
        for (j1, a1) in elements:
            for (j2, a2) in elements:
                prod_elem = ((j1 + j2) % n,
                             tuple((x + y) % p for x, y in
                                   zip(a1, gam.t_apply(a2, j1))))
                lhs = gam.image(j1, a1).mul(gam.image(j2, a2), ZZ)
                rhs = gam.image(*prod_elem)
                assert lhs.perm == rhs.perm


def test_metabelian_trivial_character_z1_block():
    # with the trivial character and z = 1 every meridian is the plain
    # 2x2 swap block [[0,1],[1,0]]
    pres = presentation("3_1")
    chi = _chi(pres, 2, 1, nontrivial=False)
    dom = CYC(4)
    rep = rep_metabelian(pres, 2, chi, z=1, dom=dom)
    for g in range(3):
        img = rep.images[g]
        assert img.perm == (1, 0)
        assert all(dom.eq(s, dom.one()) for s in img.scales)


# ------------------------------------------------ word cache and conjugation

def _dense_p(dom):
    """A conjugating matrix with no zero entry and a fractional inverse."""
    return tuple(tuple(dom.coerce(x) for x in row) for row in ((2, -1), (1, 1)))


def _fold(rep, w):
    """rho(w) as a left fold of gen_mul over the syllables, from rep.images."""
    dom = rep.dom
    acc = Monomial.identity(dom, rep.dim)
    for g, e in w:
        base = rep.images[g] if e > 0 else gen_inv(dom, rep.images[g])
        for _ in range(abs(e)):
            acc = gen_mul(dom, acc, base)
    return to_dense(dom, acc)


def _random_word(rng, gens, length):
    w, last = [], None
    for _ in range(length):
        g = rng.choice([x for x in range(gens) if x != last])
        w.append((g, rng.choice((-3, -2, -1, -1, 1, 1, 2, 3))))
        last = g
    return tuple(w)


def _word_rep(kind):
    pres = presentation("4_1")
    rep = rep_metabelian(pres, 2, _chi(pres, 2, 5))
    return rep if kind == "monomial" else rep.conjugate(_dense_p(rep.dom))


@pytest.mark.parametrize("kind", ["monomial", "dense"])
def test_image_of_word_cache_matches_fold(kind):
    rng = random.Random(kind)
    rep, fresh = _word_rep(kind), _word_rep(kind)
    gens = rep.pres.generator_count
    queries = list(rep.pres.relators) + [()]
    for _ in range(30):
        w = _random_word(rng, gens, rng.randint(1, 7))
        k = rng.randint(0, len(w))
        queries += [w, w[:k], words.reduce_syllables(w[:k] + _random_word(rng, gens, 3))]
    rng.shuffle(queries)
    for w in queries:
        img = rep.image_of_word(w)
        assert isinstance(img, Monomial) == (kind == "monomial" or not w)
        assert mat_eq(rep.dom, to_dense(rep.dom, img), _fold(rep, w)), w
        assert mat_eq(rep.dom, to_dense(rep.dom, fresh.image_of_word(w)), _fold(rep, w))
    assert rep.image_of_word(()) == Monomial.identity(rep.dom, rep.dim)


def test_conjugate_inverse_images_are_inverses():
    pres = presentation("8_20")
    base = rep_metabelian(pres, 2, _chi(pres, 2, 3))
    conj = base.conjugate(_dense_p(base.dom))
    dom = conj.dom
    assert sorted(conj._inv_cache) == sorted(conj.images)
    for g, inv in conj._inv_cache.items():
        assert mat_eq(dom, inv, mat_inverse(dom, conj.images[g]))
        assert mat_eq(dom, mat_mul(dom, inv, conj.images[g]), identity(dom, conj.dim))


def _count_calls(monkeypatch, name):
    """Count calls to matrix.<name> through every twistalex module binding it."""
    orig = getattr(matrix, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("twistalex") and \
                getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_wada_of_conjugated_rep_multiplies_and_inverts_nothing(monkeypatch):
    # every Fox word of a Wirtinger presentation is a relator prefix, so the
    # relator check at construction fills the word cache that wada_invariant
    # reads; the substitution walker also reads each pivot relator's terms off
    # Q^-1 P, the stretch of the relator between pivot and term, and for 8_20
    # two of those words (at negative crossings) have two syllables.  The word
    # cache keeps them, so a second call multiplies nothing.  Counts are
    # asserted, never times
    pres = presentation("8_20")
    base = rep_metabelian(pres, 2, _chi(pres, 2, 3))
    assert base.dom.m == 12
    p = _dense_p(base.dom)
    # warms the determinant engine's per-prime tables, which it keeps per process
    expected = wada_invariant(pres, base.conjugate(p))
    inversions = _count_calls(monkeypatch, "mat_inverse")
    conj = base.conjugate(p)
    assert len(inversions) == 1  # P^-1 only: no generator is inverted over Q(zeta_12)
    products = _count_calls(monkeypatch, "mat_mul")
    del inversions[:]
    tw = wada_invariant(pres, conj)
    assert (len(products), len(inversions)) == (2, 0)
    assert tw.to_text() == expected.to_text()
    del products[:]
    assert wada_invariant(pres, conj).to_text() == expected.to_text()
    assert (len(products), len(inversions)) == (0, 0)


def test_dense_arms_of_the_combinators():
    # Wada's invariant is conjugation invariant and
    # (P^-1 rho P) (x) sigma = (P (x) 1)^-1 (rho (x) sigma) (P (x) 1), so every
    # combinator must give the same canonical text on a dense conjugate of rho
    # (its dense arm) as on the monomial rho itself
    pres = presentation("4_1")
    rho = rep_dihedral(pres, find_dihedral_epis(pres, 5)[0])
    p = tuple(tuple(1 if j in (i, i + 1) else 0 for j in range(5)) for i in range(5))
    dense = rho.conjugate(p)
    assert not any(isinstance(img, Monomial) for img in dense.images.values())
    sigma = rep_onedim(pres, -1)

    def text(rep):
        return wada_invariant(pres, rep).to_text()

    assert text(rep_tensor(dense, sigma)) == text(rep_tensor(rho, sigma))
    assert text(rep_direct_sum(dense, sigma)) == text(rep_direct_sum(rho, sigma))
    assert text(rep_mod_p(dense, 5)) == text(rep_mod_p(rho, 5))
    converted = dense.convert_domain(QQ)
    assert converted.dom is QQ and text(converted) == text(rho)
