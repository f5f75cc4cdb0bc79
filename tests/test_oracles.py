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

A mismatch here is an engine defect, not a reason to change the check.
"""
import importlib.util
import random
import sys
from math import lcm
from pathlib import Path

import pytest

from twistalex.cyclo import CYC
from twistalex.domains import ZZ
from twistalex.knots import KNOT_TABLE, alexander_fixture, presentation
from twistalex.laurent import LaurentPoly, RationalFunction, parse_poly
from twistalex.metabelian import (alexander_polynomial, branched_cover_homology,
                                  characters_of_quotient, normalize_integer_poly)
from twistalex.polydet import det_cofactor
from twistalex.presentation import BraidWord, braid_closure_presentation, parse_braid
from twistalex.reps import rep_metabelian, rep_onedim, rep_trivial
from twistalex.twisted import TwistedPolynomial, doteq_equal, wada_invariant

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


def _galois_conjugate(dom, v):
    """zeta -> zeta^-1 on a power-basis coordinate tuple."""
    acc = dom.zero()
    for k, c in enumerate(dom.coords(v)):
        if c:
            acc = dom.add(acc, dom.scale(dom.zeta(-k), c))
    return acc


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

    def both(f):
        return (LaurentPoly.from_terms(dom, {-e: v for e, v in f.terms()}),
                LaurentPoly.from_terms(dom, {e: _galois_conjugate(dom, v) for e, v in f.terms()}))

    (num_d, num_c), (den_d, den_c) = both(tw.value.num), both(tw.value.den)
    return (TwistedPolynomial(RationalFunction(num_d, den_d), tw.det_subgroup, tw.column),
            TwistedPolynomial(RationalFunction(num_c, den_c), tw.det_subgroup, tw.column))


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
