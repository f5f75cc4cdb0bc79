"""Laurent polynomials in one variable t over an exact coefficient domain.

A LaurentPoly is stored dense: its lowest exponent and the list of
coefficients from t^low to t^deg, trimmed at both ends (no zero first or
last coefficient), so each polynomial has one stored form and the zero
polynomial is the empty list at exponent 0.  Only this module reads that
storage; other modules build with the dense constructor or `from_terms` and
read through `terms()`, `coeffs()`, `low()`, `deg()` and `f[e]`.

The canonical text form is `3 - 13*t^2 + 13*t^4 - 3*t^6`: terms in increasing
exponent, explicit signs, `t^k` exponents (bare `t` for k=1).

Products, exact division and gcd pass the stored lists straight to the
dense polynomial kernel below (`poly_mul`, `poly_divmod`, `poly_gcd`,
`poly_invmod`), which `cyclo` and `factorint` share.
"""
from __future__ import annotations

import re

from .domains import Domain, ExactDivisionError, TwistalexError, ZZ, convert


# ------------------------------------------------ dense polynomial kernel
#
# Polynomials in one variable as coefficient lists, lowest degree first, over
# any Domain.  Lists are trimmed (no trailing zero; the zero polynomial is
# []), and every function returns trimmed lists.  This is the package's one
# polynomial product, one long division and one extended Euclid: LaurentPoly's
# product, division and gcd, CyclotomicField.inv and factorint's F_p[x] and
# Z[x] stages all run here.

def poly_trim(dom: Domain, a: list) -> list:
    """Drop a's trailing zeros in place; returns a."""
    while a and dom.is_zero(a[-1]):
        a.pop()
    return a


def poly_sub(dom: Domain, a: list, b: list) -> list:
    n = min(len(a), len(b))
    sub, neg = dom.sub, dom.neg
    return poly_trim(dom, [sub(x, y) for x, y in zip(a, b)] + a[n:] + [neg(y) for y in b[n:]])


def poly_mul(dom: Domain, a: list, b: list) -> list:
    if not a or not b:
        return []
    add, mul, is_zero = dom.add, dom.mul, dom.is_zero
    if len(b) == 1 or len(a) == 1:  # a constant factor scales the other one
        (y,), a = (b, a) if len(b) == 1 else (a, b)
        return [x if is_zero(x) else mul(x, y) for x in a]
    nz = [(j, y) for j, y in enumerate(b) if not is_zero(y)]
    out = [None] * (len(a) + len(b) - 1)  # None: no product has landed yet
    for i, x in enumerate(a):
        if not is_zero(x):
            for j, y in nz:
                v = out[i + j]
                out[i + j] = mul(x, y) if v is None else add(v, mul(x, y))
    zero = dom.zero()
    return poly_trim(dom, [zero if v is None else v for v in out])


def poly_divmod(dom: Domain, a: list, b: list):
    """(q, r) with a = q*b + r and deg r < deg b, for b nonzero.

    Over a field b's leading coefficient is inverted once.  Over any other
    integral domain each quotient coefficient is one exact `dom.div`, which
    raises ExactDivisionError when it does not come out exact.  A power of
    the variable divides like any other factor.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    mul, sub, is_zero = dom.mul, dom.sub, dom.is_zero
    lead = b[-1]
    lead_inv = dom.inv(lead) if dom.is_field else None
    # the top coefficient cancels by construction; only the others are updated
    low = [(j, y) for j, y in enumerate(b[:db]) if not is_zero(y)]
    r = list(a)
    q = [dom.zero()] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db]
        if is_zero(c):
            continue
        f = q[i] = mul(c, lead_inv) if lead_inv is not None else dom.div(c, lead)
        for j, y in low:
            r[i + j] = sub(r[i + j], mul(f, y))
    del r[db:]
    return poly_trim(dom, q), poly_trim(dom, r)


def poly_gcd(dom: Domain, a: list, b: list) -> list:
    """The monic gcd over a field ([] when both are zero)."""
    while b:
        a, b = b, poly_divmod(dom, a, b)[1]
    if not a:
        return []
    c = dom.inv(a[-1])
    return [dom.mul(x, c) for x in a]


def poly_invmod(dom: Domain, a: list, m: list) -> list:
    """The inverse of a modulo m over a field, of degree below deg m; raises
    ArithmeticError when a and m are not coprime."""
    r0, r1 = m, poly_divmod(dom, a, m)[1]
    s0, s1 = [], [dom.one()]
    # invariant: s_k * a = r_k (mod m)
    while r1:
        q, r = poly_divmod(dom, r0, r1)
        r0, r1, s0, s1 = r1, r, s1, poly_sub(dom, s0, poly_mul(dom, q, s1))
    if len(r0) != 1:
        raise ArithmeticError("not invertible: the gcd with the modulus is not constant")
    c = dom.inv(r0[0])
    return [dom.mul(x, c) for x in s0]


class LaurentPoly:
    __slots__ = ("dom", "_low", "_coeffs")

    def __init__(self, dom: Domain, coeffs: list, low: int = 0):
        """The polynomial sum coeffs[i] t^(low + i).  The list is handed over:
        trimmed at both ends and stored, never copied and never mutated."""
        is_zero = dom.is_zero
        hi = len(coeffs)
        while hi and is_zero(coeffs[hi - 1]):
            hi -= 1
        lo = 0
        while lo < hi and is_zero(coeffs[lo]):
            lo += 1
        if lo or hi < len(coeffs):
            coeffs = coeffs[lo:hi]
        self.dom, self._low, self._coeffs = dom, low + lo if coeffs else 0, coeffs

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, dom: Domain) -> "LaurentPoly":
        return cls(dom, [])

    @classmethod
    def one(cls, dom: Domain) -> "LaurentPoly":
        return cls(dom, [dom.one()])

    @classmethod
    def t(cls, dom: Domain, k: int = 1) -> "LaurentPoly":
        return cls(dom, [dom.one()], k)

    @classmethod
    def const(cls, dom: Domain, v) -> "LaurentPoly":
        return cls(dom, [dom.coerce(v)])

    @classmethod
    def from_terms(cls, dom: Domain, terms) -> "LaurentPoly":
        """The polynomial sum v t^e over a mapping {e: v}; zero values are allowed."""
        low = min(terms, default=0)
        coeffs = [dom.zero()] * (max(terms, default=-1) - low + 1)
        for e, v in terms.items():
            coeffs[e - low] = v
        return cls(dom, coeffs, low)

    def copy_to(self, dst: Domain) -> "LaurentPoly":
        return LaurentPoly(dst, [convert(v, self.dom, dst) for v in self._coeffs], self._low)

    # ------------------------------------------------------------- inspection
    def is_zero(self) -> bool:
        return not self._coeffs

    def low(self) -> int:
        """The lowest exponent (0 for the zero polynomial)."""
        return self._low

    def deg(self) -> int:
        """The highest exponent (-1 for the zero polynomial)."""
        return self._low + len(self._coeffs) - 1

    def coeffs(self) -> list:
        """The stored coefficients of t^low() .. t^deg(); never to be mutated."""
        return self._coeffs

    def terms(self):
        """The nonzero (exponent, coefficient) pairs in increasing exponent."""
        is_zero = self.dom.is_zero
        return [(e, v) for e, v in enumerate(self._coeffs, self._low) if not is_zero(v)]

    def __getitem__(self, e: int):
        i = e - self._low
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else self.dom.zero()

    # ------------------------------------------------------------------ rings
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._coeffs or not other._coeffs:
            return other if not self._coeffs else self
        a, b = (self, other) if self._low <= other._low else (other, self)
        d, off = self.dom, b._low - a._low
        out = list(a._coeffs)
        out += [d.zero()] * (off + len(b._coeffs) - len(out))
        for i, v in enumerate(b._coeffs, off):
            out[i] = d.add(out[i], v)
        return LaurentPoly(d, out, a._low)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.dom, [self.dom.neg(v) for v in self._coeffs], self._low)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(self.dom, poly_mul(self.dom, self._coeffs, other._coeffs),
                           self._low + other._low)

    def scale(self, v) -> "LaurentPoly":
        """Multiply by the domain element v."""
        return LaurentPoly(self.dom, poly_mul(self.dom, self._coeffs, [v]), self._low)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly(self.dom, self._coeffs, self._low + k)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        return self._low == other._low and len(a) == len(b) and all(map(self.dom.eq, a, b))

    def __hash__(self):
        return hash((self.dom.name, self._low, len(self._coeffs)))

    def __repr__(self):
        return f"LaurentPoly({self.dom.name}, {self.to_text()})"

    # ------------------------------------------------------------ morphisms
    def subs_neg_t(self) -> "LaurentPoly":
        """t -> -t."""
        d, low = self.dom, self._low
        return LaurentPoly(d, [d.neg(v) if (low + i) % 2 else v
                               for i, v in enumerate(self._coeffs)], low)

    def evaluate(self, x):
        """Value at t = x (x a domain element; negative exponents need x invertible)."""
        d = self.dom
        acc = d.zero()
        for v in reversed(self._coeffs):
            acc = d.add(d.mul(acc, x), v)
        return d.mul(acc, d.pow(x, self._low)) if self._low else acc

    def derivative(self) -> "LaurentPoly":
        d, low = self.dom, self._low
        return LaurentPoly(d, [d.mul(v, d.coerce(low + i)) for i, v in enumerate(self._coeffs)],
                           low - 1)

    def poly_in_power(self, n: int) -> bool:
        """True iff every exponent with nonzero coefficient is divisible by n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return all(e % n == 0 for e, _ in self.terms())

    # ------------------------------------------------------------- division
    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in D[t^±1]; raises ExactDivisionError if not exact.

        Works over any integral domain (see `poly_divmod`).
        """
        q, r = poly_divmod(self.dom, self._coeffs, other._coeffs)
        if r:
            raise ExactDivisionError("inexact Laurent polynomial division")
        return LaurentPoly(self.dom, q, self._low - other._low)

    def gcd(self, other: "LaurentPoly") -> "LaurentPoly":
        """Monic gcd over a field domain, lowest exponent 0: the polynomial gcd
        of both shifted to exponent 0, where neither has a factor t."""
        return LaurentPoly(self.dom, poly_gcd(self.dom, self._coeffs, other._coeffs))

    # ------------------------------------------------------------------ text
    def to_text(self) -> str:
        d = self.dom
        parts = []
        for e, v in self.terms():
            s = d.to_str(v)
            neg = s.startswith("-")
            if neg:
                s = s[1:]
            if e == 0:
                term = s
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                term = tpow if s == "1" else f"{s}*{tpow}"
            if not parts:
                parts.append(("-" if neg else "") + term)
            else:
                parts.append(("- " if neg else "+ ") + term)
        return " ".join(parts) or "0"


SPAN_CAP = 10_000  # the widest exponent span parse_poly accepts

_TERM_RE = re.compile(
    r"^(?P<sign>[-+])?(?P<coef>\d+)?"
    r"(?P<tpart>(?P<star>\*)?t(?:\^(?P<exp>-?\d+))?)?$"
)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical polynomial text form over ZZ: integer coefficients
    only, so a fraction such as `1/2` is a malformed term.  An exponent span
    above SPAN_CAP is refused."""
    s = text.strip()
    if not s:
        raise TwistalexError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero(ZZ)
    # protect exponent signs before splitting on term separators
    s = s.replace(" ", "").replace("^-", "^N").replace("^+", "^")
    s = s.replace("-", "+-")
    chunks = [c for c in s.split("+") if c]
    terms = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk.replace("^N", "^-"))
        if not m or (m.group("coef") is None and m.group("tpart") is None) or (
            m.group("star") and m.group("coef") is None
        ):
            raise TwistalexError(f"malformed polynomial term {chunk!r} in {text!r}")
        v = int((m.group("sign") or "") + (m.group("coef") or "1"))
        exp = 0
        if m.group("tpart"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        terms[exp] = terms.get(exp, 0) + v
    if max(terms) - min(terms) > SPAN_CAP:
        raise TwistalexError(f"polynomial text spans exponents {min(terms)}..{max(terms)}, "
                             f"wider than the cap SPAN_CAP = {SPAN_CAP}")
    return LaurentPoly.from_terms(ZZ, terms)


class RationalFunction:
    """Quotient num/den of Laurent polynomials over a field domain.

    Invariant: den is nonzero with lowest exponent 0, monic, and gcd(num, den)
    is a unit.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        dom = num.dom
        if not dom.is_field:
            raise TypeError("RationalFunction needs a field coefficient domain")
        if reduce and not num.is_zero():
            g = num.gcd(den)
            if g.deg() > 0:  # g has lowest exponent 0
                num = num.exact_div(g)
                den = den.exact_div(g)
        lo = den.low()
        if lo:
            den = den.shift(-lo)
            num = num.shift(-lo)
        lead = den[den.deg()]
        if not dom.eq(lead, dom.one()):
            num = num.scale(dom.inv(lead))
            den = den.scale(dom.inv(lead))
        self.num = num
        self.den = den

    @property
    def dom(self):
        return self.num.dom

    def is_zero(self):
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        """True iff the denominator is a unit t^0 = 1 after normalization."""
        return self.den == LaurentPoly.one(self.dom)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            other = RationalFunction(other, LaurentPoly.one(other.dom))
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def scale(self, v):
        return RationalFunction(self.num.scale(v), self.den)

    def __repr__(self):
        return f"({self.num.to_text()}) / ({self.den.to_text()})"
