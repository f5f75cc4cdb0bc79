"""Small dense-matrix helpers over exact domains, plus monomial fast paths.

Every representation this package constructs (permutation, dihedral,
metacyclic, metabelian block, tensor/sum combinations) is monomial: each
column holds a single nonzero entry.  Monomial ops are O(n) instead of O(n^3),
which is what keeps relator checks on 50-dimensional representations cheap.
Dense matrices appear only after conjugation by arbitrary change of basis.

The package's one field echelon kernel (rref, with nullspace and the field
inverse built on it) lives here.  Dense determinants go through
polydet.det_matrix, the package's one determinant engine.
"""
from __future__ import annotations

from dataclasses import dataclass

from .domains import Domain, ExactDivisionError


Dense = tuple  # tuple of row tuples


def identity(dom: Domain, n: int) -> Dense:
    return tuple(
        tuple(dom.one() if i == j else dom.zero() for j in range(n)) for i in range(n)
    )


def mat_eq(dom: Domain, a: Dense, b: Dense) -> bool:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        return False
    return all(dom.eq(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_mul(dom: Domain, a: Dense, b: Dense) -> Dense:
    bt = tuple(zip(*b))
    return tuple(tuple(dom.dot(row, col) for col in bt) for row in a)


def transpose(a: Dense) -> Dense:
    return tuple(zip(*a))


def kron(dom: Domain, a: Dense, b: Dense) -> Dense:
    out = []
    for ra in a:
        for rb in b:
            out.append(tuple(dom.mul(x, y) for x in ra for y in rb))
    return tuple(out)


def direct_sum(dom: Domain, a: Dense, b: Dense) -> Dense:
    na, ma = len(a), len(a[0]) if a else 0
    nb, mb = len(b), len(b[0]) if b else 0
    z = dom.zero()
    out = [tuple(row) + (z,) * mb for row in a]
    out += [(z,) * ma + tuple(row) for row in b]
    return tuple(out)


def rref(dom: Domain, rows, ncols: int):
    """Reduced row echelon form over a field domain (Gauss-Jordan).

    Returns (rows, pivots): the nonzero rows of the echelon form, as lists,
    and the pivot column of each row in increasing order.
    """
    a = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if not dom.is_zero(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = dom.inv(a[r][c])
        a[r] = [dom.mul(x, inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and not dom.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [dom.sub(x, dom.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[: len(pivots)], pivots


def nullspace(dom: Domain, rows, ncols: int):
    """Basis of {v : A v = 0}, one vector per free column in increasing order."""
    red, pivots = rref(dom, rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [dom.zero()] * ncols
        v[fc] = dom.one()
        for row, c in zip(red, pivots):
            v[c] = dom.neg(row[fc])
        basis.append(v)
    return basis


def mat_inverse(dom: Domain, a: Dense) -> Dense:
    """Inverse over a field domain: the right half of rref([A | I]).

    For non-field domains the inverse is computed in the obvious fraction
    field and must land back in the domain (raises ExactDivisionError
    otherwise); that covers the GL(n, ZZ) images used here.
    """
    n = len(a)
    if dom.is_field:
        red, pivots = rref(dom, [list(row) + list(e) for row, e in zip(a, identity(dom, n))],
                           2 * n)
        if pivots[:n] != list(range(n)):
            raise ZeroDivisionError("matrix not invertible")
        return tuple(tuple(row[n:]) for row in red)
    from .domains import QQ
    from fractions import Fraction

    aq = tuple(tuple(Fraction(x) for x in row) for row in a)
    invq = mat_inverse(QQ, aq)
    try:
        return tuple(tuple(dom.coerce(x) for x in row) for row in invq)
    except (TypeError, ValueError) as exc:
        raise ExactDivisionError(f"inverse does not exist over {dom.name}") from exc


def mat_convert(a: Dense, src: Domain, dst: Domain) -> Dense:
    from .domains import convert

    return tuple(tuple(convert(x, src, dst) for x in row) for row in a)


@dataclass(frozen=True)
class Monomial:
    """Matrix with one nonzero entry per column: M e_j = scale[j] * e_{perm[j]}."""

    perm: tuple[int, ...]
    scales: tuple

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, dom: Domain, n: int) -> "Monomial":
        return cls(tuple(range(n)), (dom.one(),) * n)

    @classmethod
    def permutation(cls, dom: Domain, perm) -> "Monomial":
        return cls(tuple(perm), (dom.one(),) * len(perm))

    def mul(self, other: "Monomial", dom: Domain) -> "Monomial":
        perm = tuple(self.perm[p] for p in other.perm)
        scales = tuple(
            dom.mul(self.scales[other.perm[j]], other.scales[j]) for j in range(self.n)
        )
        return Monomial(perm, scales)

    def inv(self, dom: Domain) -> "Monomial":
        iperm = [0] * self.n
        iscale = [dom.one()] * self.n
        for j, p in enumerate(self.perm):
            iperm[p] = j
            iscale[p] = dom.inv(self.scales[j])
        return Monomial(tuple(iperm), tuple(iscale))

    def det(self, dom: Domain):
        sign = perm_sign(self.perm)
        acc = dom.one() if sign > 0 else dom.neg(dom.one())
        for s in self.scales:
            acc = dom.mul(acc, s)
        return acc

    def is_identity(self, dom: Domain) -> bool:
        return all(p == j for j, p in enumerate(self.perm)) and all(
            dom.eq(s, dom.one()) for s in self.scales
        )

    def kron(self, other: "Monomial", dom: Domain) -> "Monomial":
        nb = other.n
        perm = []
        scales = []
        for i in range(self.n):
            for j in range(nb):
                perm.append(self.perm[i] * nb + other.perm[j])
                scales.append(dom.mul(self.scales[i], other.scales[j]))
        return Monomial(tuple(perm), tuple(scales))

    def direct_sum(self, other: "Monomial", dom: Domain) -> "Monomial":
        off = self.n
        perm = self.perm + tuple(p + off for p in other.perm)
        return Monomial(perm, self.scales + other.scales)

    def to_dense(self, dom: Domain) -> Dense:
        z = dom.zero()
        rows = [[z] * self.n for _ in range(self.n)]
        for j, p in enumerate(self.perm):
            rows[p][j] = self.scales[j]
        return tuple(tuple(r) for r in rows)

    def convert(self, src: Domain, dst: Domain) -> "Monomial":
        from .domains import convert

        return Monomial(self.perm, tuple(convert(s, src, dst) for s in self.scales))


def perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def as_monomial(dom: Domain, m) -> Monomial | None:
    """Recognize a dense matrix as monomial, or return None."""
    if isinstance(m, Monomial):
        return m
    n = len(m)
    perm = []
    scales = []
    for j in range(n):
        nz = [i for i in range(n) if not dom.is_zero(m[i][j])]
        if len(nz) != 1:
            return None
        perm.append(nz[0])
        scales.append(m[nz[0]][j])
    if sorted(perm) != list(range(n)):
        return None
    return Monomial(tuple(perm), tuple(scales))


def to_dense(dom: Domain, m) -> Dense:
    return m.to_dense(dom) if isinstance(m, Monomial) else m


def gen_mul(dom: Domain, a, b):
    """Product that stays monomial when both factors are."""
    if isinstance(a, Monomial) and isinstance(b, Monomial):
        return a.mul(b, dom)
    return mat_mul(dom, to_dense(dom, a), to_dense(dom, b))


def gen_inv(dom: Domain, a):
    if isinstance(a, Monomial):
        return a.inv(dom)
    return mat_inverse(dom, a)
