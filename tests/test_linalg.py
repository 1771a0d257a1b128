from fractions import Fraction

from hypothesis import given, settings, strategies as st

from coxdescent import FieldTower
from coxdescent.linalg import _integer_rref, kernel, prime_field, rref

from conftest import RATIONALS, rational_rref

GF7 = prime_field(7)
GF9 = FieldTower(3, 2)

small_ints = st.integers(min_value=-3, max_value=3)


def matrices(min_rows=0):
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda ncols: st.lists(st.lists(small_ints, min_size=ncols, max_size=ncols),
                               min_size=min_rows, max_size=5))


def as_gf7(mat):
    return [[x % 7 for x in row] for row in mat]


def as_gf9(mat):
    # pair neighbouring entries into GF(9) elements a + b*t
    return [[GF9.c_from_coeffs((x, y)) for x, y in zip(row, row[1:] + row[:1])]
            for row in mat]


def neg_apply(field, mat, v):
    """-(mat * v), with only the field interface rref uses."""
    out = []
    for row in mat:
        acc = field.c_zero
        for a, x in zip(row, v):
            acc = field.c_sub(acc, field.c_mul(a, x))
        out.append(acc)
    return out


FIELDS = [(GF7, as_gf7), (GF9, as_gf9), (RATIONALS, lambda m: m)]


class TestRref:
    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_canonical_under_row_shuffles(self, mat, rnd):
        for field, conv in FIELDS:
            rows = conv(mat)
            shuffled = list(rows)
            rnd.shuffle(shuffled)
            assert rref(field, rows) == rref(field, shuffled)

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_monic_pivots_cleared_columns(self, mat):
        for field, conv in FIELDS:
            red, pivots = rref(field, conv(mat))
            assert pivots == sorted(set(pivots))
            for i, (row, pc) in enumerate(zip(red, pivots)):
                assert all(x == field.c_zero for x in row[:pc])
                assert row[pc] == field.c_one
                for j, other in enumerate(red):
                    if j != i:
                        assert other[pc] == field.c_zero

    def test_rational_example(self):
        red, pivots = rref(RATIONALS, [[2, 4, 1], [1, 2, 0]])
        assert pivots == [0, 2]
        assert red == [[1, 2, 0], [0, 0, 1]]
        assert all(isinstance(x, Fraction) for row in red for x in row)


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(matrices(min_rows=1))
    def test_annihilates_and_has_full_dimension(self, mat):
        for field, conv in FIELDS:
            rows = conv(mat)
            ncols = len(rows[0])
            basis = kernel(field, rows)
            rank = len(rref(field, rows)[1])
            assert len(basis) == ncols - rank
            for v in basis:
                assert all(x == field.c_zero for x in neg_apply(field, rows, v))
            # the kernel basis is independent
            assert len(rref(field, basis)[1]) == len(basis)

    def test_empty_matrix(self):
        assert kernel(GF7, []) == []


def integer_solve(rows, rhs):
    """The RREF solution of A x = b over Q that _integer_rref reads off, or
    None when there is none."""
    ncols = len(rows[0])
    d, red, pivots = _integer_rref([row + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = Fraction(row[-1], d)
    return x


class TestIntegerRref:
    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_scaled_rational_rref(self, mat):
        d, red, pivots = _integer_rref(mat)
        assert d != 0 and all(isinstance(x, int) for row in red for x in row)
        assert all(row[pc] == d for row, pc in zip(red, pivots))
        assert ([[Fraction(x, d) for x in row] for row in red], pivots) == rational_rref(mat)
        assert (red, pivots) == _integer_rref(mat)[1:]

    @settings(max_examples=60, deadline=None)
    @given(matrices(min_rows=1))
    def test_kernel_read_off(self, mat):
        ncols = len(mat[0])
        d, red, pivots = _integer_rref(mat)
        basis = []
        for fc in range(ncols):
            if fc not in pivots:
                v = [d * (i == fc) for i in range(ncols)]
                for row, pc in zip(red, pivots):
                    v[pc] = -row[fc]
                basis.append(v)
        assert [[Fraction(x, d) for x in v] for v in basis] == kernel(RATIONALS, mat)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in mat for v in basis)

    def test_example(self):
        # det [[2, 1], [1, 3]] = 5, and x = (2, 1) / 5 solves it against (1, 1)
        assert _integer_rref([[2, 1, 1], [1, 3, 1]]) == (5, [[5, 0, 2], [0, 5, 1]], [0, 1])
        assert _integer_rref([[0, 2], [0, 4]]) == (2, [[0, 2]], [1])


class TestRationalSolve:
    """Solutions over Q as _integer_rref reads them off an augmented matrix."""

    @settings(max_examples=100, deadline=None)
    @given(matrices(min_rows=1), st.lists(small_ints, min_size=5, max_size=5))
    def test_none_exactly_when_inconsistent(self, mat, rhs):
        rhs = rhs[:len(mat)]
        x = integer_solve(mat, rhs)
        rank = len(_integer_rref(mat)[2])
        rank_aug = len(_integer_rref([row + [b] for row, b in zip(mat, rhs)])[2])
        if rank_aug > rank:
            assert x is None
        else:
            assert x is not None
            assert [sum(a * xi for a, xi in zip(row, x)) for row in mat] == rhs

    def test_no_equations(self):
        # no rows, or rows of no unknowns: rank 0, nothing to read off
        assert _integer_rref([]) == _integer_rref([[], []]) == (1, [], [])
