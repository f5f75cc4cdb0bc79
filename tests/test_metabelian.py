import ast
import random
from itertools import product as iproduct
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex import metabelian
from twistalex.cyclo import CYC
from twistalex.domains import ZZ
from twistalex.fox import alexander_fox_matrix, substitution_order
from twistalex.knots import TREFOIL_SEIFERT, alexander_fixture, corpus, presentation
from twistalex.laurent import LaurentPoly, parse_poly
from twistalex.metabelian import (DihedralData, ModulePresentation, SeifertData,
                                  _companion_blowup, alexander_module,
                                  Target, alexander_polynomial,
                                  branched_cover_homology, characters_of_quotient,
                                  deleted_column,
                                  find_dihedral_epis, find_metacyclic_epis,
                                  find_zn_apn_epis, monodromy_orbit_values,
                                  order_from_alexander, parse_seifert_file)
from twistalex.presentation import (BraidWord, PresentationError, braid_closure_presentation,
                                    parse_braid, parse_presentation)
from twistalex.snf import AbelianGroupStructure, cokernel_structure

TORUS_23 = "gens: x y; rels: x x Y Y Y; phi: x=3 y=2"  # no generator with phi = ±1


def random_braid_presentation(rng, strands, crossings):
    """A seeded braid word whose closure is a knot, drawn letter by letter."""
    while True:
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(crossings))
        braid = BraidWord(strands, letters)
        if braid.closure_is_knot():
            return braid_closure_presentation(braid)


def seeded_braid_presentations():
    """One seeded braid closure per (strands, crossings) cell."""
    rng = random.Random(2012)
    cells = [(4, c) for c in range(17, 30, 2)] + [(5, c) for c in range(16, 31, 2)]
    return [random_braid_presentation(rng, strands, crossings) for strands, crossings in cells]


@pytest.fixture(scope="module")
def cover_cases():
    """(presentation, k, H/(t^k - 1)) over the corpus and the seeded braids."""
    cases = [presentation(fx.name) for fx in corpus()] + seeded_braid_presentations()
    return [(pres, k, branched_cover_homology(pres, k)) for pres in cases for k in range(2, 7)]


def test_alexander_matrix_matches_fox():
    # the Fox fundamental formula sum_j A_ij (t^phi_j - 1) = 0, and at t = 1
    # the exponent sum of g_j in r_i (Fox derivatives under the augmentation)
    cases = [presentation(fx.name) for fx in corpus()] + seeded_braid_presentations()
    cases += [parse_presentation("gens: a b; rels: a a B B B; phi: a=3 b=2"),
              parse_presentation("gens: a b; rels: a a B B B B B; phi: a=5 b=2"),
              parse_presentation("gens: a b; rels: a b a B A B; phi: a=-1 b=-1")]
    for pres in cases:
        fox = alexander_fox_matrix(pres)
        assert len(fox) == len(pres.relators)
        for r, row in zip(pres.relators, fox):
            assert len(row) == pres.generator_count
            total = LaurentPoly.zero(ZZ)
            for j, f in enumerate(row):
                total = total + f * LaurentPoly.from_terms(ZZ, {pres.phi[j]: 1, 0: -1})
                assert f.evaluate(1) == sum(e for g, e in r if g == j), pres
            assert total.is_zero(), pres


def test_alexander_polynomials_match_fixtures():
    from twistalex.knots import KNOT_TABLE

    for fx in KNOT_TABLE:
        assert alexander_polynomial(presentation(fx.name)) == parse_poly(fx.alexander), fx.name


def test_alexander_at_one_is_unit():
    for name in ("3_1", "4_1", "5_2", "8_18", "10_164"):
        d = alexander_polynomial(presentation(name))
        assert abs(d.evaluate(1)) == 1


def test_unknot_module():
    pres = parse_presentation("gens: a; rels:")
    mp = alexander_module(pres)
    assert mp.rank == 0
    assert alexander_polynomial(pres).to_text() == "1"
    q = branched_cover_homology(pres, 4)
    assert q.structure.is_trivial()


def test_trefoil_module_det():
    pres = presentation("3_1")
    assert alexander_polynomial(pres) == parse_poly("1 - t + t^2")
    two_gen = parse_presentation("gens: a b; rels: a b a B A B")
    assert alexander_polynomial(two_gen) == parse_poly("1 - t + t^2")


def test_branched_covers_trefoil_both_routes():
    pres = presentation("3_1")
    for k in range(2, 7):
        qa = branched_cover_homology(pres, k)
        qm = branched_cover_homology(TREFOIL_SEIFERT, k)
        assert qa.structure == qm.structure, k
    assert str(branched_cover_homology(pres, 2).structure) == "Z/3"
    assert str(branched_cover_homology(pres, 3).structure) == "Z/2 + Z/2"


def test_seifert_monodromy_requires_unimodular():
    s = SeifertData(((2, 1), (0, 1)))
    with pytest.raises(ValueError):
        s.monodromy()
    # the module presentation route still works
    assert not s.alexander_polynomial().is_zero()


def test_seifert_file_round_trip():
    text = "-1 0\n-1 -1\n"
    s = parse_seifert_file(text)
    assert s == TREFOIL_SEIFERT


def test_companion_fixture_covers():
    # full invariant-factor answers for the shipped companions
    expected = {
        ("9_30", 2): "Z/53",
        ("9_30", 3): "Z/22 + Z/22",
        ("9_30", 6): "Z/2 + Z/2 + Z/22 + Z/1166",
        ("11a359", 2): "Z/53",
        ("11a359", 3): "Z/22 + Z/22",
        ("11a359", 6): "Z/88 + Z/4664",
    }
    for name in ("9_30", "11a359"):
        delta = alexander_fixture(name)
        mp = ModulePresentation(((delta,),))
        for k in (2, 3, 6):
            q = branched_cover_homology(mp, k)
            assert str(q.structure) == expected[(name, k)]
            assert q.structure.order() == order_from_alexander(delta, k)


def test_order_formula_against_structures(cover_cases):
    # |H/(t^k - 1)| = |Res(Delta, t^k - 1)|, a route that runs no SNF
    for pres, k, q in cover_cases:
        order = q.structure.order()
        formula = order_from_alexander(alexander_polynomial(pres), k)
        if formula == 0:
            assert order is None  # infinite quotient
        else:
            assert order == formula


def test_snf_transform_kills_every_relation(cover_cases):
    # U maps each blow-up column (a relation of H/(t^k - 1)) into
    # diag_1 Z + ... + diag_n Z, so every character read off U is well defined
    for pres, k, q in cover_cases:
        blow = _companion_blowup(alexander_module(pres), k)
        u_cols = list(zip(*q.U))
        for col in zip(*blow):
            image = [0] * len(q.U)
            for j, c in enumerate(col):
                if c:
                    image = [x + c * u for x, u in zip(image, u_cols[j])]
            for x, d in zip(image, q.diag):
                assert (x % d == 0) if d else x == 0, (pres, k)


def _reference_cover(pres, k):
    """H/(t^k - 1) from the companion blow-up of the full Alexander module, one
    generator per arc, with U and the N x N t-action matrix built up front
    (test oracle): branched_cover_homology must give the same structure, diag
    and U entry for entry."""
    src = alexander_module(pres)
    blow = _companion_blowup(src, k)
    structure, U, diag = cokernel_structure(blow)
    r = src.rank
    n = r * k
    t = [[0] * n for _ in range(n)]
    for j in range(r):
        for l in range(k):
            t[j * k + (l + 1) % k][j * k + l] = 1
    return SimpleNamespace(
        k=k, structure=structure, U=tuple(tuple(row) for row in U), diag=tuple(diag),
        taction=tuple(tuple(row) for row in t), rank=r,
    )


def _reference_table(ref, exps, m):
    """chi(t^s v_j) read off column j k + s of the reference U: the character
    with SNF exponents exps sends SNF basis vector i to zeta_m^exps[i]."""
    F = CYC(m)
    k = ref.k
    rows = [(row, e) for row, e in zip(ref.U, exps) if e]
    return tuple(tuple(F.zeta(sum(row[j * k + s] * e for row, e in rows) % m)
                       for s in range(k)) for j in range(ref.rank))


def _smallest_prime_factor(n):
    return next(d for d in range(2, n + 1) if n % d == 0)


def test_cover_matches_full_module_reference():
    rng = random.Random(2012)
    cases = [presentation(fx.name) for fx in corpus()] + seeded_braid_presentations()
    cases.append(parse_presentation(TORUS_23))
    for pres in cases:
        for k in range(1, 7):
            ref = _reference_cover(pres, k)
            q = branched_cover_homology(pres, k)
            assert (str(q.structure), q.diag, q.rank) == (str(ref.structure), ref.diag, ref.rank)
            assert q.ambient_dim == len(ref.U)
            for j in range(q.rank):
                v = q.t_apply(q.basis_vector(j), 1)
                w = [row[j * k + 1 % k] for row in ref.taction]  # the column of v
                assert q.t_apply(v) == w and q.t_apply(v, k + 1) == w
            assert q.U == ref.U, (pres, k)
            if q.structure.free_rank or q.structure.is_trivial():
                continue
            p = _smallest_prime_factor(q.structure.exponent())
            chars = characters_of_quotient(q, p)
            exps = [c.components[0].zeta_exponents for c in characters_of_quotient(ref, p)]
            assert [c.components[0].zeta_exponents for c in chars] == exps
            # a table reads rank * k SNF coordinate vectors; larger character
            # groups (96721 for Z/311 + Z/311 at p = 311) are sampled
            picks = range(len(chars)) if len(chars) <= 9 else rng.sample(range(len(chars)), 9)
            for i in picks:
                assert chars[i].table(q.rank) == _reference_table(ref, exps[i], p), (pres, k, i)


def test_cover_runs_one_reduced_snf_until_characters_are_evaluated(monkeypatch):
    # structure and character count come from the reduced module's blow-up;
    # the full-size SNF runs once, on the first snf_coords call
    sides = []
    orig = metabelian.cokernel_structure

    def counted(a):
        sides.append(len(a))
        return orig(a)

    monkeypatch.setattr(metabelian, "cokernel_structure", counted)
    pres = presentation("10_164")
    _, seeds, _, _ = substitution_order(pres, deleted_column(pres))
    q = branched_cover_homology(pres, 6)
    p = _smallest_prime_factor(q.structure.exponent())
    chars = characters_of_quotient(q, p)
    assert len(chars) == 9  # Z/5 + Z/75 + Z/675 at p = 3
    assert sides == [(len(seeds) - 1) * 6]
    q.snf_coords(q.basis_vector(0))
    assert sides[1:] == [(pres.generator_count - 1) * 6]
    q.snf_coords(q.basis_vector(1))
    chars[1].table(q.rank)
    assert len(sides) == 2


def test_t_action_has_order_k():
    pres = presentation("4_1")
    for k in (2, 3):
        q = branched_cover_homology(pres, k)
        v = q.basis_vector(0)
        assert q.snf_coords(q.t_apply(v, k)) != None  # noqa: E711 - smoke
        # t^k fixes every class
        for j in range(q.rank):
            w = q.basis_vector(j)
            a = q.snf_coords(w)
            b = q.snf_coords(q.t_apply(w, k))
            for x, y, d in zip(a, b, q.diag):
                if d:
                    assert (x - y) % d == 0


def test_characters_of_quotient_counts():
    pres = presentation("3_1")
    q2 = branched_cover_homology(pres, 2)   # Z/3
    assert len(characters_of_quotient(q2, 3)) == 3
    assert sum(not c.is_trivial() for c in characters_of_quotient(q2, 3)) == 2
    assert len(characters_of_quotient(q2, 1)) == 1
    q3 = branched_cover_homology(pres, 3)   # Z/2 + Z/2
    assert len(characters_of_quotient(q3, 2)) == 4


def test_characters_are_counted_without_being_built(monkeypatch):
    # Z/311 + Z/311 at p = 311: prod gcd(311, d) = 96,721 characters, counted
    # from the diagonal; a Character is built only when one is read
    q = metabelian.FiniteQuotientModule(5, AbelianGroupStructure((311, 311)), (1, 1, 311, 311), 2,
                                        lambda: pytest.fail("counting characters read U"))
    with monkeypatch.context() as mp:
        mp.setattr(metabelian, "Character", None)  # building one would fail
        chars = characters_of_quotient(q, 311)
        assert len(chars) == 96_721
    assert chars[-1].components[0].zeta_exponents == (0, 0, 310, 310)
    with pytest.raises(TypeError):
        chars[0] = chars[1]


@pytest.mark.parametrize("k, m", [(2, 3), (3, 2), (4, 3), (5, 11)])
def test_characters_keep_the_product_order(k, m):
    # indexing, negative indexing and iteration all give the
    # itertools.product order over the SNF coordinates
    for _, _, chars in _corpus_characters(k, m):
        q = chars[0].components[0].quotient
        choices = [range(0, m, m // gcd(m, d)) if d > 1 else (0,) for d in q.diag]
        want = [tuple(e) for e in iproduct(*choices)]
        exps = [c.components[0].zeta_exponents for c in chars]
        assert exps == want
        assert [chars[i].components[0].zeta_exponents for i in range(-len(want), 0)] == want
        with pytest.raises(IndexError):
            chars[len(want)]


def _reference_orbit_size(chi, rank):
    """`Character.orbit_size` as it was before it rotated one table: the
    shifted table chi(t^(t + s) v_j) evaluated afresh for each divisor s."""
    base = chi.table(rank)
    n = chi.period
    for s in range(1, n + 1):
        if n % s:
            continue
        shifted = tuple(
            tuple(chi.value_basis(j, t + s) for t in range(n)) for j in range(rank)
        )
        if shifted == base:
            return s
    return n


def _corpus_characters(k, m):
    """(name, rank, characters of H/(t^k - 1) to mu_m) over the corpus knots
    whose quotient is finite, plus the trefoil's monodromy-route quotient."""
    out = []
    for fx in corpus():
        q = branched_cover_homology(presentation(fx.name), k)
        if not q.structure.free_rank:
            out.append((fx.name, q.rank, characters_of_quotient(q, m)))
    q = branched_cover_homology(TREFOIL_SEIFERT, k)
    if not q.structure.free_rank:
        out.append(("3_1 Seifert", q.rank, characters_of_quotient(q, m)))
    return out


@pytest.mark.parametrize("k, m", [(2, 3), (2, 5), (3, 2), (3, 7), (4, 3), (5, 11)])
def test_orbit_size_matches_the_shifted_tables(k, m):
    sizes = set()
    for name, rank, chars in _corpus_characters(k, m):
        for chi in chars:
            s = chi.orbit_size(rank)
            assert s == _reference_orbit_size(chi, rank), (name, k, m, chi)
            sizes.add(s)
    assert 1 in sizes and k in sizes  # trivial characters and full orbits both occur


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_orbit_size_of_products_matches_the_shifted_tables(data):
    # a product of characters of two cover degrees has period lcm(k1, k2)
    name = data.draw(st.sampled_from(["3_1", "4_1", "5_2", "6_1", "7_7", "8_20"]))
    k1, k2 = data.draw(st.sampled_from([(2, 3), (2, 4), (3, 4), (2, 6), (3, 5)]))
    m = data.draw(st.sampled_from([2, 3, 5, 7]))
    pres = presentation(name)
    factors = []
    for k in (k1, k2):
        q = branched_cover_homology(pres, k)
        if q.structure.free_rank:
            return
        factors.append(data.draw(st.sampled_from(characters_of_quotient(q, m))))
    chi = factors[0].mul(factors[1])
    assert chi.orbit_size(q.rank) == _reference_orbit_size(chi, q.rank)


def test_characters_infinite_quotient_rejected():
    pres = presentation("3_1")
    q6 = branched_cover_homology(pres, 6)
    assert q6.structure.free_rank > 0
    with pytest.raises(ValueError):
        characters_of_quotient(q6, 2)


def test_monodromy_orbit_values_lemma():
    F3, F2 = CYC(3), CYC(2)
    q2 = branched_cover_homology(TREFOIL_SEIFERT, 2)
    chars = [c for c in characters_of_quotient(q2, 3) if not c.is_trivial()]
    orbits = {tuple(monodromy_orbit_values(TREFOIL_SEIFERT, [1, 0], 2, c)) for c in chars}
    zeta = F3.zeta(1)
    zeta2 = F3.zeta(2)
    assert orbits == {(zeta, zeta2), (zeta2, zeta)}
    q3 = branched_cover_homology(TREFOIL_SEIFERT, 3)
    seqs = [tuple(monodromy_orbit_values(TREFOIL_SEIFERT, [1, 0], 3, c))
            for c in characters_of_quotient(q3, 2) if not c.is_trivial()]
    m1, p1 = F2.zeta(1), F2.one()
    assert (m1, m1, p1) in seqs
    # every nontrivial character sees the multiset {-1, -1, 1}
    for s in seqs:
        assert sorted(s) == sorted((m1, m1, p1))
    # trivial character: all ones
    triv = next(c for c in characters_of_quotient(q3, 2) if c.is_trivial())
    assert monodromy_orbit_values(TREFOIL_SEIFERT, [1, 0], 3, triv) == [p1, p1, p1]


def _act(mat, a, p):
    return tuple(sum(x * y for x, y in zip(row, a)) % p for row in mat)


def _powers(T, p, count):
    """I, T, ..., T^(count - 1) over F_p."""
    d = len(T)
    transpose = list(zip(*T))
    out = [[[int(i == j) for j in range(d)] for i in range(d)]]
    for _ in range(count - 1):
        out.append([_act(transpose, row, p) for row in out[-1]])  # rows of T^k * T
    return out


def brute_force_colorings(pres, p, T, m):
    """All meridian images (1, a_j) in Z/m x| F_p^d, T the d x d action of 1 in Z/m.

    Each relator is evaluated in the group, (j, a)(j', a') = (j + j', a + T^j a'),
    with no Fox calculus.
    """
    powers = _powers(T, p, m)

    def relator_is_trivial(r, a):
        j, acc = 0, (0,) * len(T)
        for g, sign in ((g, 1 if e > 0 else -1) for g, e in r for _ in range(abs(e))):
            # (1, a)^-1 = (-1, -T^-1 a)
            j += sign
            step = _act(powers[(j if sign < 0 else j - 1) % m], a[g], p)
            acc = tuple((x + sign * y) % p for x, y in zip(acc, step))
        return j % m == 0 and not any(acc)

    elements = list(iproduct(range(p), repeat=len(T)))
    return [a for a in iproduct(elements, repeat=pres.generator_count)
            if all(relator_is_trivial(r, a) for r in pres.relators)]


def normalize_by_group_law(solutions, p, T):
    """Nonconstant solutions up to conjugation (a_0 = 0) and units of F_p[T]."""
    d = len(T)
    elements = list(iproduct(range(p), repeat=d))
    powers = _powers(T, p, d)
    mats = [[[sum(c * pw[i][j] for c, pw in zip(u, powers)) % p for j in range(d)]
             for i in range(d)] for u in elements]
    units = [mat for mat in mats if len({_act(mat, a, p) for a in elements}) == len(elements)]
    out = set()
    for a in solutions:
        if len(set(a)) == 1:
            continue
        moved = [tuple((x - y) % p for x, y in zip(ai, a[0])) for ai in a]
        out.add(min(tuple(_act(mat, ai, p) for ai in moved) for mat in units))
    return out


def test_apn_field_is_refused_above_the_enumeration_cap():
    # |A_{2,19}| = 2^18 is below _ENUM_CAP and 2^22 = |A_{2,23}| above it
    assert Target.apn(19, 2).d == 18
    with pytest.raises(ValueError, match=r"^A_\{2,23\} has 2\^phi\(23\) elements, "
                                         r"above the cap 500000$"):
        Target.apn(23, 2)


def _companion_uses(source: str) -> list[int]:
    """Lines of source that name the target's companion matrix or its powers,
    as an attribute or a string."""
    names = {"companion", "_powers"}
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.Constant) and node.value in names]


def test_only_metabelian_reads_the_companion_matrix():
    assert _companion_uses("T.companion\ngetattr(T, '_powers')\n") == [1, 2]
    offenders = {path.name: lines for path in Path(metabelian.__file__).parent.glob("*.py")
                 if path.name != "metabelian.py"
                 for lines in [_companion_uses(path.read_text())] if lines}
    assert offenders == {}


def _dihedral_colors(pres, p):
    return [d.colors for d in find_dihedral_epis(pres, p)]


@pytest.mark.parametrize("name,p,m,T,search", [
    *(pytest.param(name, p, 2, [[p - 1]], _dihedral_colors, id=f"{name}-{p}")
      for name, p in (("3_1", 3), ("3_1", 5), ("4_1", 3), ("4_1", 5), ("5_1", 5), ("5_2", 3))),
    pytest.param("3_1", 7, 6, [[3]], lambda pres, p: find_metacyclic_epis(pres, 6, p, 3),
                 id="3_1-G(6,7|3)"),
    *(pytest.param(name, 2, 3, Target.apn(3, 2).companion,
                   lambda pres, p: find_zn_apn_epis(pres, 3, p),
                   id=f"{name}-Z/3xA(2,3)") for name in ("3_1", "4_1")),
])
def test_colorings_match_brute_force(name, p, m, T, search):
    pres = presentation(name)
    if pres.generator_count > 6:
        pytest.skip("brute force capped at 6 generators")
    brute = brute_force_colorings(pres, p, T, m)
    found = search(pres, p)
    d = len(T)
    as_elements = [tuple(x if d > 1 else (x,) for x in f) for f in found]
    assert set(as_elements) <= set(brute)
    assert len(as_elements) == len(set(as_elements))
    assert set(as_elements) == normalize_by_group_law(brute, p, T)
    if name == "3_1" and m == 6:
        assert found == [(0, 1, 3)]


def test_enumeration_cap_names_its_numbers():
    # the connected sum of 12 trefoils: a 12-dimensional space of 3-colorings
    # with a_0 = 0, over the 500000 cap
    pres = braid_closure_presentation(parse_braid(
        " ".join(f"{i} {i} {i}" for i in range(1, 13))))
    with pytest.raises(ValueError, match=r"p\^dim = 3\^12 = 531441 exceeds the cap 500000"):
        find_dihedral_epis(pres, 3)


def _primes(below):
    return [p for p in range(2, below) if all(p % q for q in range(2, p))]


def _unit_count_targets():
    """G(m, p|k) for p < 40, every m | p - 1 with its least k of order m, and
    A_{p,n} for n <= 24 and p^phi(n) <= 1024, coprime (Phi_n reducible mod p
    included: Phi_4 mod 5, Phi_8 mod 17, ...)."""
    for p in _primes(40):
        for m in range(1, p):
            if (p - 1) % m == 0:
                k = next(k for k in range(1, p) if pow(k, m, p) == 1
                         and all(pow(k, e, p) != 1 for e in range(1, m)))
                yield Target.metacyclic(m, p, k)
    for n in range(2, 25):
        for p in _primes(40):
            if gcd(n, p) == 1 and p ** metabelian._euler_phi(n) <= 1024:
                yield Target.apn(n, p)


def test_unit_count_is_the_number_of_units():
    targets = list(_unit_count_targets())
    assert len(targets) > 100
    for target in targets:
        assert target.unit_count == len(target.units()), (target.order, target.p, target.d)


def test_unit_normalization_is_refused_before_any_unit_is_built(monkeypatch):
    # 499957 | Phi_6(208257): a one-dimensional span of 499957 colors, each
    # normalized by one of 499956 units
    def built(self):
        raise AssertionError("units built before the budget check")

    monkeypatch.setattr(Target, "units", built)
    with pytest.raises(ValueError, match=r"p\^dim \* \|units\| = 499957\^1 \* 499956 = "
                                         r"249956501892 exceeds the cap 500000"):
        find_metacyclic_epis(presentation("3_1"), 6, 499957, 208257)


def test_paper_coloring_found():
    pres = presentation("10_164")
    found = find_dihedral_epis(pres, 3)
    paper = (2, 0, 2, 1, 1, 2, 0, 1, 0, 1, 2)
    base = paper[0]
    normalized = tuple((c - base) % 3 for c in paper)
    first = next(c for c in normalized if c)
    normalized = tuple(c * pow(first, -1, 3) % 3 for c in normalized)
    assert any(d.colors == normalized for d in found)


def test_unknot_has_no_colorings():
    pres = parse_presentation("gens: a; rels:")
    assert find_dihedral_epis(pres, 3) == []
    assert find_zn_apn_epis(pres, 2, 3) == []
    assert find_metacyclic_epis(pres, 3, 7, 2) == []


def test_metacyclic_m2_equals_dihedral():
    for name, p in (("3_1", 3), ("4_1", 5), ("7_1", 7), ("10_164", 3)):
        pres = presentation(name)
        dihedral = find_dihedral_epis(pres, p)
        meta = find_metacyclic_epis(pres, 2, p, -1)
        assert sorted(d.colors for d in dihedral) == sorted(meta)


def test_metacyclic_parameter_validation():
    pres = presentation("3_1")
    with pytest.raises(ValueError):
        find_metacyclic_epis(pres, 3, 7, 6)  # 6 has order 2 mod 7
    with pytest.raises(ValueError, match="m must be >= 1, got 0"):
        find_metacyclic_epis(pres, 0, 3, 1)  # the old check passed m = 0
    assert find_metacyclic_epis(pres, 3, 7, 2) == []  # trefoil has no G(3,7|2) epi
    for p in (0, 1, 9, -3):
        with pytest.raises(ValueError, match=f"p must be a prime, got {p}"):
            find_metacyclic_epis(pres, 2, p, 1)
        with pytest.raises(ValueError, match=f"p must be a prime, got {p}"):
            find_zn_apn_epis(pres, 2, p)


def test_zn_apn_matches_dihedral_for_n2():
    # A_{p,2} = F_p[t]/(t+1) with t acting by -1: same solution count
    for name, p in (("3_1", 3), ("4_1", 5), ("10_164", 3)):
        pres = presentation(name)
        apn = find_zn_apn_epis(pres, 2, p)
        dihedral = find_dihedral_epis(pres, p)
        assert len(apn) == len(dihedral)


def test_zn_apn_a4_target():
    # which corpus knots map onto Z/3 x| A_{2,3} (= A_4)
    found = {}
    for name in ("3_1", "4_1", "5_2", "6_2", "7_1"):
        pres = presentation(name)
        found[name] = len(find_zn_apn_epis(pres, 3, 2))
    # 4_1 surjects onto A_4 (its determinant 5 is irrelevant; the condition is
    # H/(t^3-1) tensor F_2 covering A_{2,3}); the trefoil does too
    assert found["3_1"] >= 1
    assert found["4_1"] >= 1


def test_wirtinger_requirement():
    pres = parse_presentation("gens: a b; rels: a b a B A B; phi: a=1 b=1")
    assert find_dihedral_epis(pres, 3)  # fine: all phi = 1
    bad = parse_presentation("gens: a b; rels: a a B B B; phi: a=3 b=2")
    with pytest.raises(PresentationError):
        find_dihedral_epis(bad, 3)


def test_torus_presentation_with_nonmeridional_generators():
    # <a, b | a^2 = b^3> with phi(a) = 3, phi(b) = 2: the trefoil group with
    # no phi = ±1 generator; a Tietze move adds the meridian m = a b^-1
    pres = parse_presentation("gens: a b; rels: a a B B B; phi: a=3 b=2")
    assert alexander_polynomial(pres) == parse_poly("1 - t + t^2")
    assert alexander_module(pres).rank == 2
    trefoil = braid_closure_presentation(parse_braid("1 1 1"))
    for k, group in ((2, "Z/3"), (3, "Z/2 + Z/2"), (5, "trivial"), (6, "Z + Z")):
        got = str(branched_cover_homology(pres, k).structure)
        assert got == group == str(branched_cover_homology(trefoil, k).structure), k
    # phi not onto Z (the cofactor need not divide) is refused when the
    # presentation is built, all-zero phi included
    for text, g in (("gens: a b; rels: a a B B; phi: a=2 b=2", 2),
                    ("gens: a; rels: ; phi: a=2", 2), ("gens: a b; rels: a B; phi: a=0 b=0", 0)):
        with pytest.raises(PresentationError, match=f"phi is not onto Z: its values have gcd {g}"):
            parse_presentation(text)


def test_torus_t25_presentation():
    # <a, b | a^2 = b^5>: the (2,5) torus knot, Delta = phi_10 * phi_2-ish:
    # Delta(T(2,5)) = 1 - t + t^2 - t^3 + t^4
    pres = parse_presentation("gens: a b; rels: a a B B B B B; phi: a=5 b=2")
    assert alexander_polynomial(pres) == parse_poly("1 - t + t^2 - t^3 + t^4")


def test_degree_one_cover_is_trivial():
    for name in ("3_1", "4_1", "10_164"):
        q = branched_cover_homology(presentation(name), 1)
        assert q.structure.is_trivial()
