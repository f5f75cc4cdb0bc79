"""Smith normal form of integer matrices, with unimodular transforms.

Pivot selection always takes a nonzero entry of smallest absolute value, which
keeps coefficient growth tolerable on the branched-cover matrices (entries in
the thousands appear in the 6-fold covers).

resultant keeps its own fraction-free elimination (_det_int) rather than going
through polydet.det_matrix: one set-up of the branched-covers benchmark takes
some 250 Sylvester determinants of size at most 16, and the multimodular
engine's numpy set-up per call roughly doubled that set-up time.
"""
from __future__ import annotations

from dataclasses import dataclass


def smith_normal_form(a):
    """Return (D, U, V) with U*a*V = D diagonal with divisibility chain.

    U and V are unimodular (determinant ±1); a is a sequence of integer rows.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, f):  # row_i -= f*row_j
        if f:
            m[i] = [x - f * y for x, y in zip(m[i], m[j])]
            U[i] = [x - f * y for x, y in zip(U[i], U[j])]

    def col_op(i, j, f):  # col_i -= f*col_j
        if f:
            for r in range(rows):
                m[r][i] -= f * m[r][j]
            for r in range(cols):
                V[r][i] -= f * V[r][j]

    def row_swap(i, j):
        if i != j:
            m[i], m[j] = m[j], m[i]
            U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        if i != j:
            for r in range(rows):
                m[r][i], m[r][j] = m[r][j], m[r][i]
            for r in range(cols):
                V[r][i], V[r][j] = V[r][j], V[r][i]

    n = min(rows, cols)
    t = 0
    while t < n:
        # pivot: smallest |entry| in the remaining block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = m[i][j]
                if v and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            # Euclidean clearing of column t and row t
            restart = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    row_op(i, t, m[i][t] // m[t][t])
                    if m[i][t]:  # nonzero remainder is a smaller pivot
                        row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if m[t][j]:
                    col_op(j, t, m[t][j] // m[t][t])
                    if m[t][j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # row and column are clear; force pivot | block for the chain
            viol = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % m[t][t]:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            row_op(t, viol, -1)  # pulls a non-multiple into row t; redo clearing
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return m, U, V


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
    D, U, V = smith_normal_form(a)
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


def resultant(f_coeffs, g_coeffs) -> int:
    """Resultant of two integer polynomials, low-to-high coefficient lists."""
    f = list(f_coeffs)
    g = list(g_coeffs)
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    if not f or not g:
        return 0
    df, dg = len(f) - 1, len(g) - 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    n = df + dg
    rows = []
    frev = f[::-1]
    grev = g[::-1]
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (n - dg - 1 - i))
    return _det_int(rows)
