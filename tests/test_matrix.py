import random
from fractions import Fraction

import pytest

from twistalex.cyclo import CYC, CyclotomicField
from twistalex.domains import GF, QQ, ZZ, ExactDivisionError, PrimeField
from twistalex.matrix import (Monomial, direct_sum, gen_inv, gen_mul, identity,
                              is_identity, kron, mat_convert, mat_eq, mat_inverse,
                              mat_mul, nullspace, perm_sign, rref, to_dense, transpose)


def rand_monomial(rng, dom, n):
    perm = list(range(n))
    rng.shuffle(perm)
    scales = tuple(dom.coerce(rng.choice([1, -1])) for _ in range(n))
    return Monomial(tuple(perm), scales)


def test_monomial_mul_matches_dense():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = rand_monomial(rng, ZZ, n)
        b = rand_monomial(rng, ZZ, n)
        ab = a.mul(b, ZZ)
        assert mat_eq(ZZ, ab.to_dense(ZZ), mat_mul(ZZ, a.to_dense(ZZ), b.to_dense(ZZ)))


def test_monomial_inverse():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = rand_monomial(rng, ZZ, n)
        assert is_identity(ZZ, a.mul(a.inv(ZZ), ZZ))


def test_monomial_kron_and_sum():
    # a Monomial out only when both arguments are one; otherwise the dense
    # product by definition
    rng = random.Random(6)
    a = rand_monomial(rng, ZZ, 2)
    b = rand_monomial(rng, ZZ, 3)
    da = ((1, 2), (0, -1))
    db = ((3, 0, 1), (0, 1, 0), (2, 0, -1))
    for x, y in ((a, b), (a, db), (da, b), (da, db)):
        both = isinstance(x, Monomial) and isinstance(y, Monomial)
        dx, dy = to_dense(ZZ, x), to_dense(ZZ, y)
        k = kron(ZZ, x, y)
        assert isinstance(k, Monomial) == both
        assert to_dense(ZZ, k) == tuple(tuple(dx[i][j] * dy[r][c] for j in range(2)
                                              for c in range(3))
                                        for i in range(2) for r in range(3))
        s = direct_sum(ZZ, x, y)
        assert isinstance(s, Monomial) == both
        assert to_dense(ZZ, s) == tuple(row + (0,) * 3 for row in dx) + tuple(
            (0,) * 2 + row for row in dy)


def test_monomial_det_and_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    m = Monomial((1, 0), (1, 1))
    assert m.det(ZZ) == -1
    m2 = Monomial((1, 0), (1, -1))
    assert m2.det(ZZ) == 1


def test_conversion_and_identity_test_take_either_format():
    m = Monomial((1, 0), (1, -1))
    for x in (m, m.to_dense(ZZ)):
        y = mat_convert(x, ZZ, GF(5))
        assert isinstance(y, Monomial) == isinstance(x, Monomial)
        assert to_dense(GF(5), y) == ((0, 4), (1, 0))
        assert not is_identity(ZZ, x)
        assert is_identity(ZZ, gen_mul(ZZ, x, gen_inv(ZZ, x)))
    assert is_identity(QQ, identity(QQ, 3)) and is_identity(QQ, Monomial.identity(QQ, 3))


def test_mat_inverse_field_and_integer():
    m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    inv = mat_inverse(QQ, m)
    assert mat_eq(QQ, mat_mul(QQ, m, inv), identity(QQ, 2))
    # integer matrix with det ±1 inverts inside ZZ
    u = ((1, 1), (0, 1))
    invu = mat_inverse(ZZ, u)
    assert mat_eq(ZZ, mat_mul(ZZ, u, invu), identity(ZZ, 2))
    with pytest.raises(ExactDivisionError):
        mat_inverse(ZZ, ((2, 0), (0, 1)))
    with pytest.raises(ZeroDivisionError):
        mat_inverse(QQ, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(7), CYC(12)], ids=lambda d: d.name)
def test_gen_mul_dispatch(dom, monkeypatch):
    """Every pairing of formats is the dense product of the densified
    operands; a monomial factor costs n^2 `mul` calls and no `dot`."""
    n = 3
    z = dom.zeta(1) if isinstance(dom, CyclotomicField) else dom.coerce(3)
    a = Monomial((2, 0, 1), (dom.coerce(2), dom.coerce(-1), z))
    d1 = tuple(tuple(dom.coerce(n * i + j + 1) for j in range(n)) for i in range(n))
    d2 = tuple(tuple(dom.coerce(1 - (i - j) ** 2) for j in range(n)) for i in range(n))
    ad = a.to_dense(dom)
    calls = {"mul": 0, "dot": 0}

    def count(name):
        real = getattr(dom, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for left, right in ((a, d1), (d1, a)):
        expected = mat_mul(dom, to_dense(dom, left), to_dense(dom, right))
        with monkeypatch.context() as mp:
            mp.setattr(dom, "mul", count("mul"))
            mp.setattr(dom, "dot", count("dot"))
            out = gen_mul(dom, left, right)
        assert out == expected
        assert calls == {"mul": n * n, "dot": 0}
        calls.update(mul=0, dot=0)
    assert gen_mul(dom, d1, d2) == mat_mul(dom, d1, d2)
    assert isinstance(gen_mul(dom, a, a), Monomial)
    assert to_dense(dom, gen_mul(dom, a, a)) == mat_mul(dom, ad, ad)


def _dot(dom, row, v):
    acc = dom.zero()
    for x, y in zip(row, v):
        acc = dom.add(acc, dom.mul(x, y))
    return acc


@pytest.mark.parametrize("dom", [GF(2), GF(7), QQ], ids=lambda d: d.name)
def test_rref_and_nullspace_random_systems(dom):
    rng = random.Random(2718)
    cases = [([], 3)]  # no equations: every column is free
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[dom.coerce(rng.randint(-3, 3)) if rng.random() < 0.7 else dom.zero()
                 for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [dom.zero()] * ncols
        cases.append((rows, ncols))
    for rows, ncols in cases:
        red, pivots = rref(dom, rows, ncols)
        basis = nullspace(dom, rows, ncols)
        assert len(pivots) + len(basis) == ncols
        assert pivots == sorted(set(pivots))
        if rows:
            assert len(rref(dom, transpose(rows), len(rows))[1]) == len(pivots)
        for i, (row, c) in enumerate(zip(red, pivots)):
            assert dom.eq(row[c], dom.one())
            assert all(dom.is_zero(other[c]) for k, other in enumerate(red) if k != i)
        for v in basis:
            assert any(not dom.is_zero(x) for x in v)
            assert all(dom.is_zero(_dot(dom, row, v)) for row in rows)
        if rows and len(rows) == ncols:
            n = ncols
            try:
                inv = mat_inverse(dom, rows)
            except ZeroDivisionError:
                assert len(pivots) < n
                continue
            assert len(pivots) == n
            assert mat_eq(dom, mat_mul(dom, rows, inv), identity(dom, n))
            aug, _ = rref(dom, [list(r) + list(e) for r, e in zip(rows, identity(dom, n))],
                          2 * n)
            assert mat_eq(dom, tuple(tuple(r[:n]) for r in aug), identity(dom, n))
            assert mat_eq(dom, tuple(tuple(r[n:]) for r in aug), inv)


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(7), GF(2**31 - 1), CYC(12), CYC(20)],
                         ids=lambda d: d.name)
def test_mat_mul_is_entrywise_dot(dom):
    rng = random.Random(31)

    def entry():
        if rng.random() < 0.3:
            return dom.zero()
        if isinstance(dom, CyclotomicField):
            return dom.coerce(tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5)))
                                    for _ in range(dom.degree)))
        return dom.coerce(rng.randint(-4, 4) if dom is not QQ
                          else Fraction(rng.randint(-4, 4), rng.randint(1, 5)))

    for _ in range(25):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = tuple(tuple(entry() for _ in range(k)) for _ in range(n))
        b = tuple(tuple(entry() for _ in range(m)) for _ in range(k))
        out = mat_mul(dom, a, b)
        assert len(out) == n and all(len(row) == m for row in out)
        for i in range(n):
            for j in range(m):
                col = [b[l][j] for l in range(k)]
                assert dom.eq(out[i][j], _dot(dom, a[i], col))
                assert dom.eq(out[i][j], dom.dot(a[i], col))
                if isinstance(dom, PrimeField):  # GF(p) keeps the residue in 0..p-1
                    assert out[i][j] == _dot(dom, a[i], col)
    assert mat_mul(dom, (), ()) == ()
