import random

from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.domains import ZZ
from twistalex.knots import corpus, presentation
from twistalex.metabelian import _companion_blowup, alexander_module
from twistalex.polydet import det_matrix
from twistalex.snf import AbelianGroupStructure, _det_int, cokernel_structure, smith_normal_form


# The Sylvester resultant, the reference for `metabelian.order_from_alexander`
# (its circulant) and for the Galois products of tests/test_cyclo.py.
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


def _reference_smith_normal_form(a):
    """The Smith normal form with every operation applied in full (test oracle).

    smith_normal_form must reproduce its pivot choices, row operations and
    column operations, so D, U and V agree entry for entry.
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


def _assert_matches_reference(a):
    d, u, v = smith_normal_form(a)
    assert (d, u, v) == _reference_smith_normal_form(a)
    _, cu, _ = cokernel_structure(a)
    assert cu == u


def mat_mul_int(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check_snf(a):
    d, u, v = smith_normal_form(a)
    rows, cols = len(a), len(a[0])
    uav = mat_mul_int(mat_mul_int(u, [list(r) for r in a]), v)
    assert uav == d
    assert abs(det_matrix(u, ZZ)) == 1
    assert abs(det_matrix(v, ZZ)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    return diag


def test_identity():
    a = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    d, u, v = smith_normal_form(a)
    assert d == a


def test_trefoil_cover_matrix():
    # id - M^2 for the fiber monodromy M = [[1,1],[-1,0]]
    m2 = [[0, 1], [-1, -1]]
    a = [[1 - m2[i][j] if i == j else -m2[i][j] for j in range(2)] for i in range(2)]
    diag = check_snf(a)
    assert diag == [1, 3]
    st_, _, _ = cokernel_structure(a)
    assert str(st_) == "Z/3"


def test_random_matrices_reverify():
    rng = random.Random(99)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        check_snf(a)


@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                min_size=3, max_size=3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_invariant_factors_shuffle_invariant(a, rnd):
    d1 = check_snf(a)
    rows = list(a)
    rnd.shuffle(rows)
    cols = list(zip(*rows))
    rnd.shuffle(cols)
    b = [list(r) for r in zip(*cols)]
    d2 = check_snf(b)
    assert d1 == d2


def test_structure_string_and_order():
    s = AbelianGroupStructure((2, 2, 22, 1166))
    assert str(s) == "Z/2 + Z/2 + Z/22 + Z/1166"
    assert s.order() == 2 * 2 * 22 * 1166
    assert str(AbelianGroupStructure((), 2)) == "Z + Z"
    assert AbelianGroupStructure((), 0).is_trivial()


def test_det_int_vs_cofactor():
    def cof(a):
        n = len(a)
        if n == 0:
            return 1
        if n == 1:
            return a[0][0]
        return sum(
            (-1) ** j * a[0][j] * cof([[row[k] for k in range(n) if k != j] for row in a[1:]])
            for j in range(n)
        )

    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert _det_int(a) == cof(a)


def test_resultant_known_values():
    # Res(t^2+1, t^2-2) = (i^2-2)(-i^2-... ) = product of g at roots of f
    assert abs(resultant([1, 0, 1], [-2, 0, 1])) == 9
    # Res(t-2, t^3-1) = 2^3 - 1
    assert abs(resultant([-2, 1], [-1, 0, 0, 1])) == 7


def test_snf_matches_reference_on_random_matrices():
    # unit, small and large entries, so both unit pivots and the divisibility
    # sweep of non-unit pivots are exercised
    rng = random.Random(2012)
    for _ in range(2000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice((0.2, 0.5, 1.0))
        bound = rng.choice((1, 3, 30))
        a = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.2:
            a[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.2:
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
        _assert_matches_reference(a)


def test_snf_matches_reference_on_corpus_blowups():
    for fx in corpus():
        mp = alexander_module(presentation(fx.name))
        for k in range(2, 7):
            _assert_matches_reference(_companion_blowup(mp, k))
