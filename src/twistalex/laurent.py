"""Laurent polynomials in one variable t over an exact coefficient domain.

The coefficient map never stores zeros; the zero polynomial has an empty map.
The canonical text form is `3 - 13*t^2 + 13*t^4 - 3*t^6`: terms in increasing
exponent, explicit signs, `t^k` exponents (bare `t` for k=1).
"""
from __future__ import annotations

import re
from fractions import Fraction

from .domains import Domain, ExactDivisionError, ZZ, convert


class LaurentPoly:
    __slots__ = ("dom", "c")

    def __init__(self, dom: Domain, coeffs: dict | None = None):
        self.dom = dom
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if not dom.is_zero(v):
                    c[e] = v
        self.c = c

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, dom: Domain) -> "LaurentPoly":
        return cls(dom, {})

    @classmethod
    def one(cls, dom: Domain) -> "LaurentPoly":
        return cls(dom, {0: dom.one()})

    @classmethod
    def t(cls, dom: Domain, k: int = 1) -> "LaurentPoly":
        return cls(dom, {k: dom.one()})

    @classmethod
    def const(cls, dom: Domain, v) -> "LaurentPoly":
        return cls(dom, {0: dom.coerce(v)})

    def copy_to(self, dst: Domain) -> "LaurentPoly":
        return LaurentPoly(dst, {e: convert(v, self.dom, dst) for e, v in self.c.items()})

    # ------------------------------------------------------------- inspection
    def is_zero(self) -> bool:
        return not self.c

    def low(self) -> int:
        return min(self.c)

    def deg(self) -> int:
        return max(self.c)

    def __len__(self):
        return len(self.c)

    def __getitem__(self, e: int):
        return self.c.get(e, self.dom.zero())

    def coeff_list(self):
        """Dense coefficient list from t^low to t^deg, with (list, low)."""
        if not self.c:
            return [], 0
        lo, hi = self.low(), self.deg()
        return [self.c.get(e, self.dom.zero()) for e in range(lo, hi + 1)], lo

    # ------------------------------------------------------------------ rings
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = self.dom
        c = dict(self.c)
        for e, v in other.c.items():
            w = d.add(c.get(e, d.zero()), v)
            if d.is_zero(w):
                c.pop(e, None)
            else:
                c[e] = w
        out = LaurentPoly.__new__(LaurentPoly)
        out.dom, out.c = d, c
        return out

    def __neg__(self) -> "LaurentPoly":
        d = self.dom
        out = LaurentPoly.__new__(LaurentPoly)
        out.dom, out.c = d, {e: d.neg(v) for e, v in self.c.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = self.dom
        c: dict = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = d.mul(v1, v2)
                if e in c:
                    w = d.add(c[e], w)
                    if d.is_zero(w):
                        del c[e]
                        continue
                elif d.is_zero(w):
                    continue
                c[e] = w
        out = LaurentPoly.__new__(LaurentPoly)
        out.dom, out.c = d, c
        return out

    def scale(self, v) -> "LaurentPoly":
        d = self.dom
        v = d.coerce(v) if isinstance(v, (int, Fraction)) else v
        return LaurentPoly(d, {e: d.mul(w, v) for e, w in self.c.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.dom, out.c = self.dom, {e + k: v for e, v in self.c.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.c.keys() != other.c.keys():
            return False
        return all(self.dom.eq(v, other.c[e]) for e, v in self.c.items())

    def __hash__(self):
        return hash((self.dom.name, tuple(sorted(self.c))))

    def __repr__(self):
        return f"LaurentPoly({self.dom.name}, {self.to_text()})"

    # ------------------------------------------------------------ morphisms
    def subs_neg_t(self) -> "LaurentPoly":
        """t -> -t."""
        d = self.dom
        return LaurentPoly(d, {e: (v if e % 2 == 0 else d.neg(v)) for e, v in self.c.items()})

    def subs_t_power(self, n: int) -> "LaurentPoly":
        """t -> t^n (n nonzero)."""
        return LaurentPoly(self.dom, {e * n: v for e, v in self.c.items()})

    def scale_arg(self, z) -> "LaurentPoly":
        """t -> z*t for an invertible scalar z."""
        d = self.dom
        out = {}
        for e, v in self.c.items():
            ze = d.one()
            if e >= 0:
                for _ in range(e):
                    ze = d.mul(ze, z)
            else:
                zi = d.inv(z)
                for _ in range(-e):
                    ze = d.mul(ze, zi)
            out[e] = d.mul(v, ze)
        return LaurentPoly(d, out)

    def evaluate(self, x):
        """Value at t = x (x a domain element; negative exponents need x invertible)."""
        d = self.dom
        if not self.c:
            return d.zero()
        lo = self.low()
        coeffs, _ = self.coeff_list()
        acc = d.zero()
        for v in reversed(coeffs):
            acc = d.add(d.mul(acc, x), v)
        if lo:
            xe = d.one()
            if lo > 0:
                for _ in range(lo):
                    xe = d.mul(xe, x)
            else:
                xi = d.inv(x)
                for _ in range(-lo):
                    xe = d.mul(xe, xi)
            acc = d.mul(acc, xe)
        return acc

    def derivative(self) -> "LaurentPoly":
        d = self.dom
        return LaurentPoly(d, {e - 1: d.mul(v, d.coerce(e)) for e, v in self.c.items() if e != 0})

    def poly_in_power(self, n: int) -> bool:
        """True iff every exponent with nonzero coefficient is divisible by n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return all(e % n == 0 for e in self.c)

    # ------------------------------------------------------------- division
    def divmod_field(self, other: "LaurentPoly"):
        """Division with remainder over a field domain, Laurent-normalized.

        Returns (q, r) with self = q*other + r and r of t-span shorter than
        other (both sides shifted so the computation happens in D[t]).
        """
        d = self.dom
        if not d.is_field:
            raise TypeError("divmod_field needs a field domain")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        slo = self.low() if self.c else 0
        olo = other.low()
        a, _ = self.shift(-slo).coeff_list()
        b, _ = other.shift(-olo).coeff_list()
        if not a:
            return LaurentPoly.zero(d), LaurentPoly.zero(d)
        q = [d.zero()] * max(len(a) - len(b) + 1, 0)
        binv = d.inv(b[-1])
        r = list(a)
        for i in range(len(a) - len(b), -1, -1):
            if d.is_zero(r[i + len(b) - 1]):
                continue
            f = d.mul(r[i + len(b) - 1], binv)
            q[i] = f
            for j, bv in enumerate(b):
                r[i + j] = d.sub(r[i + j], d.mul(f, bv))
        qq = LaurentPoly(d, {i: v for i, v in enumerate(q)}).shift(slo - olo)
        rr = LaurentPoly(d, {i: v for i, v in enumerate(r)}).shift(slo)
        return qq, rr

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in D[t^±1]; raises ExactDivisionError if not exact.

        Works over any integral domain: each elimination step divides the
        current lowest coefficient by other's lowest coefficient.
        """
        d = self.dom
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return LaurentPoly.zero(d)
        olo = other.low()
        blist, _ = other.shift(-olo).coeff_list()
        rem = dict(self.c)
        out = {}
        b0 = blist[0]
        max_e = self.deg() - other.deg()
        while rem:
            lo = min(rem)
            e = lo - olo
            if e > max_e:
                raise ExactDivisionError("inexact Laurent polynomial division")
            f = d.div(rem[lo], b0)  # may raise ExactDivisionError
            out[e] = f
            for j, bv in enumerate(blist):
                if d.is_zero(bv):
                    continue
                k = lo + j
                w = d.sub(rem.get(k, d.zero()), d.mul(f, bv))
                if d.is_zero(w):
                    rem.pop(k, None)
                else:
                    rem[k] = w
        return LaurentPoly(d, out)

    def gcd(self, other: "LaurentPoly") -> "LaurentPoly":
        """Monic gcd over a field domain (unit ambiguity resolved monically)."""
        d = self.dom
        a, b = self, other
        while not b.is_zero():
            _, r = a.divmod_field(b)
            a, b = b, r
        if a.is_zero():
            return a
        a = a.shift(-a.low())
        return a.scale(d.inv(a.c[a.deg()]))

    # ------------------------------------------------------------------ text
    def to_text(self) -> str:
        if not self.c:
            return "0"
        d = self.dom
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
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
        return " ".join(parts)


_TERM_RE = re.compile(
    r"^(?P<sign>[-+])?(?P<coef>\d+(?:/\d+)?)?"
    r"(?P<tpart>(?P<star>\*)?t(?:\^(?P<exp>-?\d+))?)?$"
)


def parse_poly(text: str, dom: Domain = ZZ) -> LaurentPoly:
    """Parse the canonical polynomial text form."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero(dom)
    # protect exponent signs before splitting on term separators
    s = s.replace(" ", "").replace("^-", "^N").replace("^+", "^")
    s = s.replace("-", "+-")
    chunks = [c for c in s.split("+") if c]
    out = LaurentPoly.zero(dom)
    for chunk in chunks:
        m = _TERM_RE.match(chunk.replace("^N", "^-"))
        if not m or (m.group("coef") is None and m.group("tpart") is None) or (
            m.group("star") and m.group("coef") is None
        ):
            raise ValueError(f"malformed polynomial term {chunk!r} in {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        cval = sign * Fraction(m.group("coef")) if m.group("coef") else Fraction(sign)
        exp = 0
        if m.group("tpart"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        out = out + LaurentPoly(dom, {exp: dom.coerce(cval)})
    return out


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
            if len(g) > 1 or g.low() != 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        lo = den.low()
        if lo:
            den = den.shift(-lo)
            num = num.shift(-lo)
        lead = den.c[den.deg()]
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
