"""Exact matrices over the package's domains, dense or monomial.

Every representation this package constructs (permutation, dihedral,
metacyclic, metabelian block, tensor/sum combinations) is monomial: each
column holds a single nonzero entry.  Monomial ops are O(n) instead of O(n^3),
which is what keeps relator checks on 50-dimensional representations cheap.
Dense matrices appear only after conjugation by arbitrary change of basis.

An image is a `Monomial` or a `Dense` tuple of rows.  Only the helpers at
the end of this module tell them apart; outside it, only two readers do,
each for a closed form: `twisted._denominator` and
`reps.Representation.det_image_generators`.

The package's one field echelon kernel (rref, with nullspace and the field
inverse built on it) lives here.  Dense determinants go through
polydet.det_matrix (Kronecker substitution into one integer determinant
when small, else the multimodular engine).
A monomial matrix's determinant, and det(I - M t^e) as a product over the
cycles of its permutation (`Monomial.cycle_products`), are read off in
closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domains import Domain, ExactDivisionError, QQ, convert


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
    return dom.mat_mul(a, b)


def transpose(a: Dense) -> Dense:
    return tuple(zip(*a))


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
    aq = tuple(tuple(Fraction(x) for x in row) for row in a)
    invq = mat_inverse(QQ, aq)
    try:
        return tuple(tuple(dom.coerce(x) for x in row) for row in invq)
    except (TypeError, ValueError) as exc:
        raise ExactDivisionError(f"inverse does not exist over {dom.name}") from exc


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

    def cycle_products(self, dom: Domain):
        """(length L, product P of the scales) per cycle of perm, least index
        first.  Up to a permutation M is block diagonal with one L x L block
        per cycle, so det(I - M x) = prod (1 - P x^L): the closed form of a
        Wada denominator."""
        out = []
        for cycle in _cycles(self.perm):
            acc = dom.one()
            for j in cycle:
                acc = dom.mul(acc, self.scales[j])
            out.append((len(cycle), acc))
        return out

    def to_dense(self, dom: Domain) -> Dense:
        z = dom.zero()
        rows = [[z] * self.n for _ in range(self.n)]
        for j, p in enumerate(self.perm):
            rows[p][j] = self.scales[j]
        return tuple(tuple(r) for r in rows)


def _cycles(perm):
    """The cycles of a permutation as index lists, each from its least index."""
    seen = [False] * len(perm)
    for i in range(len(perm)):
        cycle, j = [], i
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = perm[j]
        if cycle:
            yield cycle


def perm_sign(perm) -> int:
    return -1 if sum(len(c) - 1 for c in _cycles(perm)) % 2 else 1


# ------------------------------------------ helpers that take either format
# a product, inverse, kron, sum or conversion is a Monomial when its inputs are


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


def kron(dom: Domain, a, b):
    if isinstance(a, Monomial) and isinstance(b, Monomial):
        return Monomial(tuple(i * b.n + j for i in a.perm for j in b.perm),
                        tuple(dom.mul(x, y) for x in a.scales for y in b.scales))
    return tuple(tuple(dom.mul(x, y) for x in ra for y in rb)
                 for ra in to_dense(dom, a) for rb in to_dense(dom, b))


def direct_sum(dom: Domain, a, b):
    if isinstance(a, Monomial) and isinstance(b, Monomial):
        return Monomial(a.perm + tuple(p + a.n for p in b.perm), a.scales + b.scales)
    a, b = to_dense(dom, a), to_dense(dom, b)
    za, zb = ((dom.zero(),) * len(m[0] if m else ()) for m in (a, b))
    return tuple([tuple(row) + zb for row in a] + [za + tuple(row) for row in b])


def mat_convert(a, src: Domain, dst: Domain):
    if isinstance(a, Monomial):
        return Monomial(a.perm, tuple(convert(s, src, dst) for s in a.scales))
    return tuple(tuple(convert(x, src, dst) for x in row) for row in a)


def is_square(a, n: int) -> bool:
    """Whether an image is n x n."""
    if isinstance(a, Monomial):
        return a.n == len(a.scales) == n
    return len(a) == n and all(len(row) == n for row in a)


def is_identity(dom: Domain, a) -> bool:
    if isinstance(a, Monomial):
        return a.perm == tuple(range(a.n)) and all(dom.eq(s, dom.one()) for s in a.scales)
    return mat_eq(dom, a, identity(dom, len(a)))


def entries(dom: Domain, img, n: int):
    """The (row, column, value) entries of an image: one per column of a
    Monomial, the nonzero ones of a dense matrix."""
    if isinstance(img, Monomial):
        return zip(img.perm, range(n), img.scales)
    return ((p, j, v) for p, row in enumerate(img) for j, v in enumerate(row)
            if not dom.is_zero(v))
