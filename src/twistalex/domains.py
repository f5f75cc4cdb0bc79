"""Exact coefficient domains.

Coefficients are plain Python data (int for ZZ and GF(p), Fraction for QQ,
coordinate tuples for cyclotomic fields in cyclo.py); a domain object supplies
the ring operations.  Keeping elements unboxed matters in the determinant and
polynomial hot loops.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm


class ExactDivisionError(ArithmeticError):
    """Raised when an exact division does not come out exact."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# smallest strong pseudoprime to all of _MR_BASES (Sorenson-Webster psi_12)
_MR_BOUND = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases <= 37; deterministic below _MR_BOUND."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is beyond the deterministic primality bound")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Domain:
    is_field = False
    name = "?"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def coerce(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def dot(self, xs, ys):
        """sum_k xs[k] * ys[k]; the one inner-product kernel behind mat_mul."""
        acc = self.zero()
        for x, y in zip(xs, ys):
            if not self.is_zero(x):
                acc = self.add(acc, self.mul(x, y))
        return acc

    def is_zero(self, a):
        return a == self.zero()

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def div(self, a, b):
        """Exact division; raises ExactDivisionError when b does not divide a."""
        raise NotImplementedError

    def inv(self, a):
        return self.div(self.one(), a)

    def pow(self, a, k: int):
        """a^k by repeated squaring; for k < 0, the inverse of a to the -k."""
        if k < 0:
            a, k = self.inv(a), -k
        acc = self.one()
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return acc

    def to_str(self, a) -> str:
        return str(a)

    # total order used only to pick deterministic canonical representatives
    def sort_key(self, a):
        return a

    def __repr__(self):
        return self.name


class IntegerDomain(Domain):
    name = "ZZ"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        raise TypeError(f"cannot coerce {x!r} into ZZ")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in ZZ")
        q, r = divmod(a, b)
        if r:
            raise ExactDivisionError(f"{b} does not divide {a} in ZZ")
        return q


class RationalDomain(Domain):
    name = "QQ"
    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(a) / b


class PrimeField(Domain):
    """GF(p), elements stored as ints in 0..p-1."""

    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return a * pow(b, -1, self.p) % self.p


ZZ = IntegerDomain()
QQ = RationalDomain()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def domain_join(a: Domain, b: Domain) -> Domain:
    """Smallest common domain two coefficient domains both embed into."""
    from .cyclo import CyclotomicField, CYC  # local import: cyclo depends on laurent

    if a is b:
        return a
    pair = {a.name, b.name}
    if pair == {"ZZ", "QQ"}:
        return QQ
    if isinstance(a, CyclotomicField) or isinstance(b, CyclotomicField):
        ms = [d.m for d in (a, b) if isinstance(d, CyclotomicField)]
        others = [d for d in (a, b) if not isinstance(d, CyclotomicField)]
        if others and others[0].name not in ("ZZ", "QQ"):
            raise TypeError(f"no common domain for {a} and {b}")
        return CYC(lcm(*ms)) if len(ms) == 2 else CYC(ms[0])
    raise TypeError(f"no common domain for {a} and {b}")


def convert(x, src: Domain, dst: Domain):
    """Move an element along the canonical embedding src -> dst."""
    from .cyclo import CyclotomicField

    if src is dst:
        return x
    if isinstance(dst, CyclotomicField):
        if isinstance(src, CyclotomicField):
            return dst.embed(x, src)
        return dst.from_rational(Fraction(x))
    if src.name == "ZZ":
        return dst.coerce(x)
    if src.name == "QQ":
        return dst.coerce(x)
    raise TypeError(f"no conversion {src} -> {dst}")
