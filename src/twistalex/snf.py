"""Smith normal form of integer matrices, with unimodular transforms.

Pivot selection always takes a nonzero entry of smallest absolute value, which
keeps coefficient growth tolerable on the branched-cover matrices (entries in
the thousands appear in the 6-fold covers).

_eliminate runs one fixed sequence of pivot choices, row operations and column
operations, and does only the work its result needs; each short cut leaves
that sequence, and so D, U and V, unchanged:

- The pivot scan stops at the first entry of absolute value 1: the scan keeps
  the first minimum in row-major order, and nothing later can be smaller.
- A pivot of absolute value 1 divides every entry, so the divisibility sweep
  over the block is skipped.
- Before step t, rows and columns < t are zero outside the diagonal, so row
  operations and column swaps touch only columns and rows >= t.
- A column operation runs only after the row loop has cleared column t below
  the pivot, so column t is zero outside row t and the operation changes only
  the entry in row t.
- Column operations are logged rather than applied to V; smith_normal_form
  replays the log onto the identity, and cokernel_structure, which has no use
  for V, never builds it.

_det_int, a fraction-free integer determinant, has two readers: the
cover-order oracle `metabelian.order_from_alexander` takes it of its
circulant, and `polydet` of each small matrix of Laurent polynomials packed
into integers (its Kronecker path).  It shares no code with the elimination
above, which computes the covers the oracle checks.
"""
from __future__ import annotations

from dataclasses import dataclass


def _eliminate(a):
    """Return (D, U, log) with U*a*V = D, where V is the product of the column
    operations in log: (i, j, f) is col_i -= f*col_j, and (i, j, None) swaps
    columns i and j."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    log = []

    def row_op(i, j, f):  # row_i -= f*row_j
        if f:
            m[i][t:] = [x - f * y for x, y in zip(m[i][t:], m[j][t:])]
            U[i] = [x - f * y for x, y in zip(U[i], U[j])]

    def row_swap(i, j):
        if i != j:
            m[i], m[j] = m[j], m[i]
            U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        if i != j:
            for r in range(t, rows):
                mr = m[r]
                mr[i], mr[j] = mr[j], mr[i]
            log.append((i, j, None))

    n = min(rows, cols)
    t = 0
    while t < n:
        # pivot: first entry of smallest |entry| in the remaining block
        best, bv = None, 0
        for i in range(t, rows):
            mi = m[i]
            for j in range(t, cols):
                v = mi[j]
                if v and (not bv or abs(v) < bv):
                    best, bv = (i, j), abs(v)
                    if bv == 1:
                        break
            if bv == 1:
                break
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        mt = m[t]
        while True:
            # Euclidean clearing of column t and row t
            restart = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    row_op(i, t, m[i][t] // mt[t])
                    if m[i][t]:  # nonzero remainder is a smaller pivot
                        row_swap(t, i)
                        mt = m[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if mt[j]:
                    f = mt[j] // mt[t]
                    if f:  # col_j -= f*col_t; column t is zero below row t
                        mt[j] -= f * mt[t]
                        log.append((j, t, f))
                    if mt[j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # row and column are clear; force pivot | block for the chain
            p = mt[t]
            if p in (1, -1):
                break
            viol = None
            for i in range(t + 1, rows):
                mi = m[i]
                for j in range(t + 1, cols):
                    if mi[j] % p:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            row_op(t, viol, -1)  # pulls a non-multiple into row t; redo clearing
        if mt[t] < 0:
            mt[t] = -mt[t]
            U[t] = [-x for x in U[t]]
        t += 1
    return m, U, log


def smith_normal_form(a):
    """Return (D, U, V) with U*a*V = D diagonal with divisibility chain.

    U and V are unimodular (determinant ±1); a is a sequence of integer rows.
    """
    D, U, log = _eliminate(a)
    cols = len(D[0]) if D else 0
    Vt = [[int(i == j) for j in range(cols)] for i in range(cols)]  # columns of V
    for i, j, f in log:
        if f is None:
            Vt[i], Vt[j] = Vt[j], Vt[i]
        else:
            Vt[i] = [x - f * y for x, y in zip(Vt[i], Vt[j])]
    return D, U, [list(r) for r in zip(*Vt)]


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Invariant-factor form d_1 | d_2 | ... (each >= 2) plus free rank."""

    invariant_factors: tuple[int, ...]
    free_rank: int = 0

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in self.invariant_factors):
            raise ValueError("invariant factors must be >= 2")

    def order(self) -> int | None:
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def is_trivial(self) -> bool:
        return not self.invariant_factors and not self.free_rank

    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "trivial"


def cokernel_structure(a):
    """Structure of Z^rows / column-span(a), with the SNF transform U.

    Returns (structure, U, diag): U maps ambient coordinates to SNF
    coordinates; diag lists all rows' diagonal entries (1s and 0s included).
    """
    rows = len(a)
    if rows == 0:
        return AbelianGroupStructure((), 0), [], []
    D, U, _ = _eliminate(a)
    cols = len(a[0])
    diag = [D[i][i] for i in range(min(rows, cols))] + [0] * max(0, rows - cols)
    factors = tuple(d for d in diag if d not in (0, 1))
    free = sum(1 for d in diag if d == 0)
    return AbelianGroupStructure(factors, free), U, diag


def _det_int(a) -> int:
    """Determinant of a nonempty square integer matrix, fraction-free (Bareiss
    1968)."""
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
