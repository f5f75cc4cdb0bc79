"""`metabelian.Target` against the three encodings of Z/m x| A it replaced.

`_reference_apn_field`, `_reference_apn_mul_matrix`, `_ReferenceGammaRep`
(with the transposed companion of the old `gamma_summands`), the old
`rep_metacyclic` permutation formula and the old `_kernel_epis` are kept
verbatim, the names aside, as oracles, the same way `test_cyclo_oracle`
keeps the old Q(zeta_m).  The target must give their companion matrices,
element order, t-action, multiplication matrices, permutation images and
epimorphism lists.
"""
from itertools import chain, product as iproduct
from math import gcd

import pytest

from twistalex import metabelian
from twistalex.cyclo import cyclotomic_polynomial
from twistalex.domains import GF, ZZ
from twistalex.knots import corpus, presentation
from twistalex.matrix import Monomial, nullspace, rref
from twistalex.metabelian import (Target, _enumerate_span, alexander_module, apn_budget,
                                  find_dihedral_epis, find_metacyclic_epis, find_zn_apn_epis)
from twistalex.reps import RepresentationError, rep_metacyclic

APN = [(2, 3), (3, 2), (5, 2), (2, 5), (3, 4)]                       # (p, n)
METACYCLIC = [(2, 3, 2), (2, 5, 4), (2, 7, 6), (3, 7, 2), (4, 5, 2), (6, 7, 3)]  # (m, p, k)
SWEEP_APN = [(3, 2), (2, 3), (5, 2)]                                  # (p0, n)
SWEEP_PRIMES = (3, 5, 7)


# ------------------------------------------------------------------ oracles

def _reference_apn_field(n: int, p0: int):
    """A_{p0,n} = F_p0[t]/(phi_n) as (degree, companion matrix columns)."""
    if gcd(n, p0) != 1:
        raise ValueError("n and p0 must be coprime")
    apn_budget(n, p0)
    cm = [c % p0 for c in cyclotomic_polynomial(n).coeffs()]
    d = len(cm) - 1
    # companion matrix of phi_n mod p0: t * e_i = e_{i+1}, t*e_{d-1} = -phi tail
    comp = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        comp[i + 1][i] = 1
    for i in range(d):
        comp[i][d - 1] = (-cm[i]) % p0
    return d, comp


def _reference_apn_mul_matrix(poly_class, comp, p0):
    """Multiplication-by-a matrix on A for a = sum poly_class[e] * t^e."""
    d = len(comp)
    # columns: a * e_j
    cols = []
    for j in range(d):
        v = [0] * d
        v[j] = 1
        acc = [0] * d
        cur = v
        for e in range(len(poly_class)):
            c = poly_class[e]
            if c:
                acc = [(x + c * y) % p0 for x, y in zip(acc, cur)]
            cur = [sum(comp[i][l] * cur[l] for l in range(d)) % p0 for i in range(d)]
        cols.append(acc)
    return [[cols[j][i] for j in range(d)] for i in range(d)]


class _ReferenceGammaRep:
    """gamma: Z/n x| A_{p,n} acting on the free Z-module with basis A_{p,n}."""

    def __init__(self, p: int, n: int):
        if gcd(n, p) != 1:
            raise RepresentationError("n and p must be coprime")
        self.p = p
        self.n = n
        self.d, self.comp = _reference_apn_field(n, p)
        self.elements = sorted(iproduct(range(p), repeat=self.d))
        self.index = {v: i for i, v in enumerate(self.elements)}
        self.dim = p**self.d

    def t_apply(self, v, j: int = 1):
        out = list(v)
        for _ in range(j % self.n):
            out = [sum(self.comp[i][l] * out[l] for l in range(self.d)) % self.p
                   for i in range(self.d)]
        return tuple(out)

    def image(self, j: int, a) -> Monomial:
        """gamma((j, a)): basis vector e_v -> e_{t^j v + a}."""
        a = tuple(x % self.p for x in a)
        perm = []
        for v in self.elements:
            tv = self.t_apply(v, j)
            target = tuple((x + y) % self.p for x, y in zip(tv, a))
            perm.append(self.index[target])
        return Monomial.permutation(ZZ, tuple(perm))

    def dual_t(self, u):
        # from the old gamma_summands:
        # (u . t v) = (T^t u . v): dual action is the transpose companion matrix
        d, p, gam = self.d, self.p, self
        tt = [[gam.comp[j][i] for j in range(d)] for i in range(d)]
        return tuple(sum(tt[i][l] * u[l] for l in range(d)) % p for i in range(d))


def _reference_metacyclic_perm(pres, m, p, k, colors, g):
    e = pres.phi[g] % m
    c = colors[g] % p
    # x^e y^c acting on Z/p: n -> k^e (n - c)
    ke = pow(k, e, p)
    return tuple((ke * (n - c)) % p for n in range(p))


class _ReferenceUnitTable(dict):
    """a -> u*a for one unit u of A (its matrix mu), filled as elements turn up."""

    def __init__(self, mu, p0):
        super().__init__()
        self.mu, self.p0 = mu, p0

    def __missing__(self, a):
        b = self[a] = tuple(sum(x * y for x, y in zip(row, a)) % self.p0 for row in self.mu)
        return b


def _reference_kernel_epis(pres, p0: int, comp, order: int):
    """Meridian images (1, a_j) in Z/order x| A, A = F_p0^d with t acting by comp."""
    d = len(comp)
    F = GF(p0)
    zero = [[0] * d] * d
    rows = []
    for r in alexander_module(pres).matrix:
        blocks = []
        for f in r:
            cls = [0] * order
            for e, c in f.terms():
                cls[e % order] += c
            blocks.append(zero if f.is_zero() else _reference_apn_mul_matrix(cls, comp, p0))
        rows.extend([x for b in blocks for x in b[i]] for i in range(d))
    basis = nullspace(F, rows, d * (pres.generator_count - 1))
    if not basis:
        return []
    units = [_ReferenceUnitTable(mu, p0) for u in iproduct(range(p0), repeat=d) if any(u)
             for mu in [_reference_apn_mul_matrix(u, comp, p0)] if len(rref(F, mu, d)[1]) == d]
    least = {}  # first nonzero a_j -> the units taking it to its least multiple
    out = set()
    for v in _enumerate_span(basis, p0):
        if not any(v):
            continue
        ais = [(0,) * d, *zip(*[iter(v)] * d)]
        first = next(a for a in ais if any(a))
        if first not in least:
            low = min(u[first] for u in units)
            least[first] = [u for u in units if u[first] == low]
        out.add(min(tuple(map(u.__getitem__, ais)) for u in least[first]))
    return sorted(out)


# -------------------------------------------------------------------- tests

@pytest.mark.parametrize("p,n", APN)
def test_apn_target_matches_the_gamma_rep(p, n):
    ref = _ReferenceGammaRep(p, n)
    target = Target.apn(n, p)
    assert (target.order, target.p, target.d) == (n, p, ref.d)
    assert target.companion == tuple(map(tuple, ref.comp))
    assert target.elements == ref.elements
    assert len(target.elements) == ref.dim
    for a in ref.elements:
        assert target.dual(a) == ref.dual_t(a)
        assert target.mul_matrix(enumerate(a)) == tuple(
            map(tuple, _reference_apn_mul_matrix(a, ref.comp, p)))
        for j in range(-n, 2 * n):
            assert target.t(a, j) == ref.t_apply(a, j)
            assert target.image(j, a) == ref.image(j, a), (j, a)


@pytest.mark.parametrize("m,p,k", METACYCLIC)
def test_metacyclic_target_matches_the_permutation_formula(m, p, k):
    target = Target.metacyclic(m, p, k)
    assert target.companion == ((k % p,),)
    fake = type("Pres", (), {"phi": tuple(range(-m, 2 * m))})
    for c in range(-p, 2 * p):
        colors = (c,) * len(fake.phi)
        for g, e in enumerate(fake.phi):
            assert target.image(e, target.t((-c,), e)).perm == \
                _reference_metacyclic_perm(fake, m, p, k, colors, g), (e, c)
    # and rep_metacyclic itself, on every corpus epimorphism onto G(m, p|k)
    for fx in corpus():
        pres = presentation(fx.name)
        for colors in find_metacyclic_epis(pres, m, p, k):
            rep = rep_metacyclic(pres, m, p, k, colors)
            assert all(rep.images[g].perm == _reference_metacyclic_perm(pres, m, p, k, colors, g)
                       for g in range(pres.generator_count))


@pytest.mark.parametrize("name", [fx.name for fx in corpus()])
def test_searches_match_the_reference_kernel(name):
    pres = presentation(name)
    for p0, n in SWEEP_APN:
        comp = _reference_apn_field(n, p0)[1]
        assert find_zn_apn_epis(pres, n, p0) == _reference_kernel_epis(pres, p0, comp, n)
    for p in SWEEP_PRIMES:
        ref = [tuple(chain.from_iterable(sol))
               for sol in _reference_kernel_epis(pres, p, [[(p - 1) % p]], 2)]
        assert [d.colors for d in find_dihedral_epis(pres, p)] == ref
    for m, p, k in METACYCLIC:
        ref = [tuple(chain.from_iterable(sol))
               for sol in _reference_kernel_epis(pres, p, [[k % p]], m)]
        assert find_metacyclic_epis(pres, m, p, k) == ref


def test_a_search_never_lists_the_elements_of_a(monkeypatch):
    # the searches solve over A's coordinates; A's p^d elements are listed
    # only for a permutation image
    def refuse(target):
        raise AssertionError(f"listed the {target.p}^{target.d} elements of A")

    monkeypatch.setattr(Target, "elements", property(refuse))
    searched = 0
    for fx in corpus():
        pres = presentation(fx.name)
        for p0, n in SWEEP_APN + [(2, 5), (3, 4)]:
            searched += len(find_zn_apn_epis(pres, n, p0))
        for p in SWEEP_PRIMES:
            searched += len(find_dihedral_epis(pres, p))
        for m, p, k in METACYCLIC:
            searched += len(find_metacyclic_epis(pres, m, p, k))
    assert searched
    with pytest.raises(AssertionError, match="listed the 2\\^2 elements"):
        metabelian.Target.apn(3, 2).image(0, (0, 0))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31])
def test_metacyclic_order_test_matches_the_walk(p):
    # the walk over l = 1..m-1 that the order test from the primes of m replaced
    for m in range(0, 2 * p):
        for k in range(-p, 2 * p):
            walk = (m >= 1 and pow(k, m, p) == 1
                    and not any(pow(k, l, p) == 1 for l in range(1, m)))
            try:
                target = Target.metacyclic(m, p, k)
            except RepresentationError:
                assert not walk, (m, p, k)
            else:
                assert walk and target.order == m, (m, p, k)


def test_metacyclic_order_is_capped_before_anything_is_built(monkeypatch):
    def refuse(p):
        raise AssertionError("built GF(p) for an order above the cap")

    monkeypatch.setattr(metabelian, "GF", refuse)
    cap = metabelian._ORDER_CAP
    for m, p in ((cap + 1, 9), (10**30, 10**30 + 1)):  # p need not even be a prime
        with pytest.raises(RepresentationError, match=f"m = {m} is above the cap"):
            Target.metacyclic(m, p, 6)
