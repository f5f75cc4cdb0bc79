"""Checks against theorems from the literature, not against the engine itself.

- The trivial representation gives Delta_K(t) / (t - 1), with Delta_K the
  published value frozen in `knots.py`.
- Duality for unitary representations (Kirk-Livingston 1999): W(t^-1)
  equals the complex conjugate of W(t) up to units.  Every metabelian rep is
  a permutation matrix times roots of unity, and so is a one-dimensional
  rep onto a root of unity; they are unitary, and complex conjugation is the
  Galois map zeta -> zeta^-1, applied coefficientwise.
- The reduced Burau route (Birman 1974, Thm 3.11): for a closed s-braid
  beta, Delta_K = (1 - t) det(I - B(beta)) / (1 - t^s) up to units, with B
  the reduced Burau matrix.  It shares no Fox calculus with
  `alexander_polynomial`; it runs over the corpus, the seeded braids of
  `tests/test_metabelian.py` and the `branched-covers` braids of seeds 1-3.
- Fox's order formula (Fox 1956): |H_1(L_k)| = |Res(Delta, t^k - 1)|.
  `order_from_alexander` reads it off a k x k circulant; here it is held to
  the Sylvester resultant of `tests/test_snf.py`.
- Fox colorings: the nontrivial p-colorings up to translation and scaling
  are the lines of H_1(L_2; F_p), so `find_dihedral_epis` finds
  (p^r - 1) / (p - 1) of them, r = dim H_1(L_2; F_p).
- Galois equivariance: sigma_a (zeta -> zeta^a) maps alpha(n, chi) to
  alpha(n, chi^a) when z = 1, so W(alpha(n, chi^a)) = sigma_a(W(alpha(n, chi)))
  up to units.

A mismatch here is an engine defect, not a reason to change the check.
"""
import importlib.util
import random
import sys
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path

import pytest

from twistalex.cyclo import CYC, cyclotomic_polynomial
from twistalex.domains import ZZ, TwistalexError
from twistalex.knots import KNOT_TABLE, alexander_fixture, presentation
from twistalex.laurent import LaurentPoly, RationalFunction, parse_poly
from twistalex.metabelian import (CharComponent, Character, alexander_polynomial,
                                  branched_cover_homology, characters_of_quotient,
                                  find_dihedral_epis, normalize_integer_poly,
                                  order_from_alexander)
from twistalex.presentation import BraidWord, braid_closure_presentation, parse_braid
from twistalex.reps import rep_metabelian, rep_onedim, rep_trivial
from twistalex.twisted import TwistedPolynomial, doteq_equal, wada_invariant

from det_oracle import det_cofactor
from test_snf import resultant

KNOTS = [f.name for f in KNOT_TABLE]


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


@pytest.mark.parametrize("name", KNOTS)
def test_trivial_rep_gives_alexander_over_t_minus_1(name):
    pres = presentation(name)
    tw = wada_invariant(pres, rep_trivial(pres))
    field = tw.dom
    target = RationalFunction(alexander_fixture(name).copy_to(field),
                              parse_poly("-1 + t").copy_to(field))
    assert doteq_equal(tw, TwistedPolynomial(target, tw.det_subgroup, tw.column))


def _galois_conjugate(dom, v, a=-1):
    """sigma_a: zeta -> zeta^a on a power-basis coordinate tuple; a = -1 is
    complex conjugation."""
    acc = dom.zero()
    for k, c in enumerate(dom.coords(v)):
        if c:
            acc = dom.add(acc, dom.scale(dom.zeta(a * k), c))
    return acc


def _sigma(tw, a):
    """sigma_a applied to every coefficient of W, in tw's unit class."""
    dom = tw.dom

    def conj(f):
        return LaurentPoly.from_terms(dom, {e: _galois_conjugate(dom, v, a) for e, v in f.terms()})

    return TwistedPolynomial(RationalFunction(conj(tw.value.num), conj(tw.value.den)),
                             tw.det_subgroup, tw.column)


def _metabelian_cases():
    """(knot, p, character index): for every prime p dividing the exponent of
    H_1 of the 2-fold branched cover, the first nontrivial character mod p."""
    for name in KNOTS:
        q = branched_cover_homology(presentation(name), 2)
        for p in _prime_factors(q.structure.exponent()):
            chars = characters_of_quotient(q, p)
            yield name, p, next(i for i, c in enumerate(chars) if not c.is_trivial())


def _dual_and_conjugate(tw):
    """(W(t^-1), conj W(t)) as TwistedPolynomials in tw's unit class."""
    dom = tw.dom

    def dual(f):
        return LaurentPoly.from_terms(dom, {-e: v for e, v in f.terms()})

    return (TwistedPolynomial(RationalFunction(dual(tw.value.num), dual(tw.value.den)),
                              tw.det_subgroup, tw.column),
            _sigma(tw, -1))


@pytest.mark.parametrize("name,p,idx", list(_metabelian_cases()))
def test_unitary_duality_for_metabelian_reps(name, p, idx):
    pres = presentation(name)
    chi = characters_of_quotient(branched_cover_homology(pres, 2), p)[idx]
    rep = rep_metabelian(pres, 2, chi)
    assert rep.dom is CYC(lcm(p, 4))
    assert doteq_equal(*_dual_and_conjugate(wada_invariant(pres, rep)))


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("name", KNOTS)
def test_unitary_duality_for_root_of_unity_characters(name, m):
    # W = Delta(zeta t) / (1 - zeta t) is not real, so here the duality
    # needs the conjugation: W(t^-1) is not W(t) up to units
    pres = presentation(name)
    F = CYC(m)
    tw = wada_invariant(pres, rep_onedim(pres, F.zeta(1), F))
    dual, conj = _dual_and_conjugate(tw)
    assert doteq_equal(dual, conj)
    assert not doteq_equal(dual, tw)


# --------------------------------------------------------- Galois equivariance

@lru_cache(maxsize=None)
def _character(name, n, p):
    """The first nontrivial character to mu_p of H/(t^n - 1) of the knot."""
    q = branched_cover_homology(presentation(name), n)
    return next(c for c in characters_of_quotient(q, p) if not c.is_trivial())


def _power(chi, a):
    """chi^a: every component's zeta exponents scaled by a."""
    return Character(tuple(CharComponent(c.quotient, tuple(a * e % c.m for e in c.zeta_exponents),
                                         c.m) for c in chi.components))


@lru_cache(maxsize=None)
def _wada_at_z1(name, n, p, a):
    pres = presentation(name)
    return wada_invariant(pres, rep_metabelian(pres, n, _power(_character(name, n, p), a), z=1))


def _galois_cases():
    """(knot, n, p, a) for n = 2, 3, 4, every prime p below 14 dividing the
    exponent of H/(t^n - 1), and up to four a coprime to the rep's conductor
    M with distinct residues a mod p other than 1 (the rep's entries lie in
    Q(zeta_p), so sigma_a depends on a mod p alone)."""
    for name in KNOTS:
        for n in (2, 3, 4):
            e = branched_cover_homology(presentation(name), n).structure.exponent()
            for p in [p for p in _prime_factors(e) if p < 14]:
                M = lcm(p, 2 * n if n % 2 == 0 else 1)
                residues = {}
                for a in range(2, M):
                    if gcd(a, M) == 1 and a % p != 1:
                        residues.setdefault(a % p, a)
                for a in sorted(residues.values())[:4]:
                    yield name, n, p, a


GALOIS_CASES = list(_galois_cases())


@pytest.mark.parametrize("name,n,p,a", GALOIS_CASES)
def test_galois_conjugate_character_gives_conjugate_wada(name, n, p, a):
    assert doteq_equal(_wada_at_z1(name, n, p, a), _sigma(_wada_at_z1(name, n, p, 1), a))


def test_galois_oracle_is_not_vacuous():
    # chi^a often gives a different W: without sigma_a the check would fail
    differ = [case for case in GALOIS_CASES
              if not doteq_equal(_wada_at_z1(*case), _wada_at_z1(*case[:3], 1))]
    assert len(GALOIS_CASES) >= 150 and len(differ) >= 100


# ------------------------------------------------------------ Fox's order formula

def _tk_minus_1(k):
    return [-1] + [0] * (k - 1) + [1]


def test_circulant_order_equals_the_sylvester_resultant():
    rng = random.Random(1956)
    polys = [alexander_fixture(f.name) for f in KNOT_TABLE]
    polys += [LaurentPoly(ZZ, [rng.randint(-9, 9) for _ in range(rng.randint(1, 14))],
                          rng.randint(-4, 4)) for _ in range(150)]
    polys += [LaurentPoly.zero(ZZ)] + [LaurentPoly.const(ZZ, c) for c in (1, -1, 2, -3, 7)]
    for delta in polys:
        for k in range(1, 13):
            want = abs(resultant(delta.coeffs(), _tk_minus_1(k)))
            assert order_from_alexander(delta, k) == want, (delta, k)
            assert order_from_alexander(delta.shift(3), k) == want


def test_circulant_order_is_zero_on_a_common_root():
    # Phi_d | Delta with d | k: Delta shares the root zeta_d with t^k - 1
    rng = random.Random(1957)
    for k in range(1, 13):
        for d in (d for d in range(1, k + 1) if k % d == 0):
            g = LaurentPoly(ZZ, [rng.choice((-2, -1, 1, 3)) for _ in range(rng.randint(1, 5))])
            delta = cyclotomic_polynomial(d) * g
            assert resultant(delta.coeffs(), _tk_minus_1(k)) == 0
            assert order_from_alexander(delta, k) == 0, (d, k)


def test_order_oracle_refuses_a_degree_below_one():
    for k in (0, -1):
        with pytest.raises(TwistalexError, match=rf"^cover degree must be >= 1, got {k}$"):
            order_from_alexander(alexander_fixture("3_1"), k)


# ------------------------------------------------------------ Fox colorings

def _coloring_braids():
    """Five seeded knot-closing braids on each of 3, 4, 5 and 6 strands."""
    rng = random.Random(1961)
    out = []
    for strands in (3, 4, 5, 6):
        while len(out) < 5 * (strands - 2):
            crossings = rng.randint(2 * strands, 5 * strands)
            braid = BraidWord(strands, tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                                             for _ in range(crossings)))
            if braid.closure_is_knot():
                out.append(braid)
    return out


COLORING_KNOTS = [presentation(name) for name in KNOTS] + \
    [braid_closure_presentation(b) for b in _coloring_braids()]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_coloring_count_is_read_off_the_double_cover(p):
    for pres in COLORING_KNOTS:
        s = branched_cover_homology(pres, 2).structure
        r = sum(d % p == 0 for d in s.invariant_factors) + s.free_rank
        assert len(find_dihedral_epis(pres, p)) == (p**r - 1) // (p - 1), (pres, p)


# ------------------------------------------------------------ Burau route

def _burau(strands, letter):
    """Reduced Burau matrix of sigma_i^(+-1), i = |letter|, over Z[t^+-1]."""
    one, zero, t = LaurentPoly.one(ZZ), LaurentPoly.zero(ZZ), LaurentPoly.t(ZZ)
    n, k = strands - 1, abs(letter) - 1
    b = [[one if r == c else zero for c in range(n)] for r in range(n)]
    if letter > 0:
        diagonal, above, below = -t, t, one
    else:
        tinv = LaurentPoly.t(ZZ, -1)
        diagonal, above, below = -tinv, one, tinv
    b[k][k] = diagonal
    if k > 0:
        b[k - 1][k] = above
    if k < n - 1:
        b[k + 1][k] = below
    return b


def _mat_mul(a, b):
    zero = LaurentPoly.zero(ZZ)
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


def burau_alexander(braid: BraidWord) -> LaurentPoly:
    """(1 - t) det(I - B(beta)) / (1 - t^s), normalized; no Fox calculus."""
    s = braid.strands
    one, zero, t = LaurentPoly.one(ZZ), LaurentPoly.zero(ZZ), LaurentPoly.t(ZZ)
    eye = [[one if r == c else zero for c in range(s - 1)] for r in range(s - 1)]
    m = eye
    for letter in braid.letters:
        m = _mat_mul(m, _burau(s, letter))
    i_minus_b = [[e - x for e, x in zip(erow, mrow)] for erow, mrow in zip(eye, m)]
    d = det_cofactor(i_minus_b, ZZ) * (one - t)
    return normalize_integer_poly(d.exact_div(one - LaurentPoly.t(ZZ, s)))


def _seeded_braids():
    """The braids of `tests/test_metabelian.seeded_braid_presentations`."""
    rng = random.Random(2012)
    out = []
    for strands, crossings in [(4, c) for c in range(17, 30, 2)] + \
            [(5, c) for c in range(16, 31, 2)]:
        while True:
            letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                            for _ in range(crossings))
            braid = BraidWord(strands, letters)
            if braid.closure_is_knot():
                out.append(braid)
                break
    return out


def _cover_workload_braids():
    """The 15 random braids of each `branched-covers` set-up, seeds 1-3."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    out = []
    for seed in (1, 2, 3):
        rng = random.Random(f"branched-covers:{seed}")
        out += [workloads.random_braid(rng, s, c)[0] for s, c in workloads.BRAID_CELLS]
    return out


@pytest.mark.parametrize("name", KNOTS)
def test_burau_route_matches_alexander_on_the_corpus(name):
    braid = parse_braid(next(f.braid for f in KNOT_TABLE if f.name == name))
    delta = burau_alexander(braid)
    assert delta == alexander_polynomial(braid_closure_presentation(braid))
    assert delta == alexander_fixture(name)


@pytest.mark.parametrize("source", [_seeded_braids, _cover_workload_braids],
                         ids=["seed-2012", "branched-covers-seeds-1-3"])
def test_burau_route_matches_alexander_on_random_braids(source):
    braids = source()
    assert len(braids) == (15 if source is _seeded_braids else 45)
    for braid in braids:
        assert burau_alexander(braid) == alexander_polynomial(
            braid_closure_presentation(braid)), braid.letters
