"""Exact coefficient domains.

Coefficients are plain Python data (int for ZZ and GF(p); for QQ an int when
the value is integral and a Fraction otherwise; (the nonzero (index,
numerator) pairs, denominator) for cyclotomic fields in cyclo.py); a domain
object supplies the ring operations.  Keeping elements unboxed matters in the
determinant and polynomial hot loops.  Integer representations reach QQ
through Wada's invariant, and there every value (the ZZ numerator and
denominator, their gcd, the quotients) is integral: as ints it never pays for
a Fraction.

Every domain states three numbers, so that no caller asks its type: `m` and
`degree`, which are m and phi(m) for Q(zeta_m) and 1 and 1 for ZZ, QQ and
GF(p) (the determinant engine reads every domain as Z[zeta_m], and a join
takes the lcm of the two m), and `torsion_exponent`, an N with u^N = 1 for
every root of unity u in the domain: 2 for ZZ and QQ, p - 1 for GF(p) and
lcm(2, m) for Q(zeta_m).
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import lcm


class TwistalexError(ValueError):
    """The root of every refusal of outside input (a failed precondition, a
    malformed text, a size above a cap); any other exception is a fault."""


class RepresentationError(TwistalexError):
    """A representation or its target group is refused, a non-prime p by GF(p)."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact division does not come out exact."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# smallest strong pseudoprime to all of _MR_BASES (Sorenson-Webster psi_12)
_MR_BOUND = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases <= 37; deterministic below _MR_BOUND."""
    if n >= _MR_BOUND:
        raise TwistalexError(f"{n} is beyond the deterministic primality bound")
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
    m = degree = 1
    torsion_exponent = 2

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
        """sum_k xs[k] * ys[k]; the inner-product kernel of the generic mat_mul."""
        acc = self.zero()
        for x, y in zip(xs, ys):
            if not self.is_zero(x):
                acc = self.add(acc, self.mul(x, y))
        return acc

    def mat_mul(self, a, b):
        """The matrix product a b of row tuples: one dot per cell."""
        bt = list(zip(*b))
        return tuple([tuple([self.dot(row, col) for col in bt]) for row in a])

    def is_zero(self, a):
        return a == self.zero()

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def div(self, a, b):
        """Exact division; raises ExactDivisionError when b does not divide a."""
        raise NotImplementedError

    def inv(self, a):
        return self.div(self.one(), a)

    def unit_inverse(self, a):
        """a^-1 when a is a unit the field inverts by one division (the
        determinant's elimination pivots only on these), else None: over QQ
        and GF(p) every nonzero element."""
        return None if self.is_zero(a) else self.inv(a)

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


class _NumberDomain(Domain):
    """ZZ and QQ: elements are Python numbers, so the ring operations are
    the operators themselves."""

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def eq(self, a, b):
        return a == b


class IntegerDomain(_NumberDomain):
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

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys))

    def is_zero(self, a):
        return a == 0

    def unit_inverse(self, a):
        """a itself when a = ±1, the units of ZZ, else None."""
        return a if a in (1, -1) else None

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in ZZ")
        q, r = divmod(a, b)
        if r:
            raise ExactDivisionError(f"{b} does not divide {a} in ZZ")
        return q


class RationalDomain(_NumberDomain):
    """An element is an int when it is integral and a Fraction otherwise.

    The sources (zero, one, coerce, div and so inv) return ints for integral
    values, and the operators keep int op int an int, so integer inputs never
    build a Fraction.  An integral Fraction that arithmetic leaves is still a
    valid element: equality, hashing, order and str are value-level across
    int and Fraction."""

    name = "QQ"
    is_field = True

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return int(x) if x.denominator == 1 else x
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def is_zero(self, a):
        return not a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        if isinstance(a, int) and isinstance(b, int) and not a % b:
            return a // b
        return self.coerce(Fraction(a) / b)


class PrimeField(Domain):
    """GF(p), elements stored as ints in 0..p-1: the one check that p is prime."""

    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise RepresentationError(f"p must be a prime, got {p}")
        self.p = p
        self.torsion_exponent = p - 1
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

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.p

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


def odd_prime_field(p: int) -> PrimeField:
    """GF(p) for the order p of D_p = G(2, p|-1), which must be an odd prime."""
    if p % 2 and is_prime(p):
        return GF(p)
    raise RepresentationError(f"p must be an odd prime, got {p}")


def domain_join(a: Domain, b: Domain) -> Domain:
    """Smallest common domain two coefficient domains both embed into: QQ
    for ZZ and QQ, else Q(zeta_M) for M the lcm of their m (ZZ and QQ have
    m = 1); GF(p) joins only itself."""
    from .cyclo import CYC  # local import: cyclo depends on laurent

    if a is b:
        return a
    if isinstance(a, PrimeField) or isinstance(b, PrimeField):
        raise TypeError(f"no common domain for {a} and {b}")
    if {a, b} == {ZZ, QQ}:
        return QQ
    return CYC(lcm(a.m, b.m))


def convert(x, src: Domain, dst: Domain):
    """Move an element along the canonical embedding src -> dst."""
    from .cyclo import CyclotomicField

    if src is dst:
        return x
    if isinstance(dst, CyclotomicField):
        if isinstance(src, CyclotomicField):
            return dst.embed(x, src)
        return dst.from_rational(x)
    if src is ZZ or src is QQ:
        return dst.coerce(x)
    raise TypeError(f"no conversion {src} -> {dst}")
