import random

from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.domains import ZZ
from twistalex.polydet import det_matrix
from twistalex.snf import (AbelianGroupStructure, _det_int, cokernel_structure, resultant,
                           smith_normal_form)


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
