from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hatilt.exactmat import ExactMatrix, exact, extend_basis, span_basis


def F(x):
    return Fraction(x)


class TestRref:
    def test_rank_of_identity(self):
        assert ExactMatrix.identity(4).rank() == 4

    def test_rank_with_fractions(self):
        m = ExactMatrix.from_rows([[F(1) / 2, F(1) / 3], [F(3) / 2, 1]])
        assert m.rank() == 1

    def test_pivot_columns(self):
        m = ExactMatrix.from_rows([[0, 1, 2], [0, 2, 4], [1, 0, 0]])
        _, pivots = m.rref()
        assert pivots == [0, 1]


class TestKernelSolve:
    def test_nullspace_dimension(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        basis = m.nullspace()
        assert len(basis) == 2
        for vec in basis:
            assert all(x == 0 for x in m.apply(vec))

    def test_solve_consistent(self):
        m = ExactMatrix.from_rows([[2, 0], [0, 3]])
        x = m.solve([F(1), F(1)])
        assert x == [Fraction(1, 2), Fraction(1, 3)]

    def test_solve_inconsistent(self):
        m = ExactMatrix.from_rows([[1, 1], [2, 2]])
        assert m.solve([F(0), F(1)]) is None

    def test_matmul_apply_agree(self):
        a = ExactMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        b = ExactMatrix.from_rows([[7], [8]])
        assert a.matmul(b).data == [[a.apply([F(7), F(8)])[i]] for i in range(3)]


class TestEntriesAndAliasing:
    def test_entries_are_ints_unless_fractional(self):
        m = ExactMatrix.from_rows([[1, Fraction(1, 2)], [Fraction(3), -2]])
        assert m.data == [[1, Fraction(1, 2)], [3, -2]]
        assert [type(x) for row in m.data for x in row] == [int, Fraction, int, int]
        # pivots -1 and 1 keep an integer matrix integral
        red, _ = ExactMatrix.from_rows([[-1, -2, -3], [-1, -1, 1], [2, 3, 2]]).rref()
        assert red.data == [[1, 0, -5], [0, 1, 4], [0, 0, 0]]
        assert all(type(x) is int for row in red.data for x in row)
        # a non-unit pivot still divides exactly
        red, _ = ExactMatrix.from_rows([[2, 1]]).rref()
        assert red.data == [[1, Fraction(1, 2)]]
        assert [type(x) for x in red.data[0]] == [int, Fraction]

    def test_products_and_eliminations_return_ints_for_integral_values(self):
        half, two = ExactMatrix.from_rows([[Fraction(1, 2)]]), ExactMatrix.from_rows([[2]])
        assert [type(x) for x in half.matmul(two).data[0]] == [int]
        assert half.matmul(two).data == [[1]]
        assert [(type(x), x) for x in half.apply([2])] == [(int, 1)]
        red, _ = ExactMatrix.from_rows([[2, 1], [1, Fraction(1, 2)]]).rref()
        assert [[(type(x), x) for x in row] for row in red.data] == [
            [(int, 1), (Fraction, Fraction(1, 2))],
            [(int, 0), (int, 0)],
        ]

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            ExactMatrix.from_rows([[0.5]])
        with pytest.raises(TypeError):
            ExactMatrix.identity(1).scale(0.5)
        with pytest.raises(TypeError):
            ExactMatrix.identity(1).solve([0.5])

    @pytest.mark.parametrize("rows, cols", [(-1, 2), (2, -1)])
    def test_negative_shapes_are_refused(self, rows, cols):
        with pytest.raises(ValueError, match="negative shape"):
            ExactMatrix(rows, cols)
        with pytest.raises(ValueError, match="negative shape"):
            ExactMatrix(rows, cols, [])

    def test_rows_are_not_shared_with_the_input(self):
        rows = [[F(1), F(2)], [F(3), F(4)]]
        m = ExactMatrix(2, 2, rows)
        m.data[0][0] = F(9)
        assert rows == [[F(1), F(2)], [F(3), F(4)]]

    def test_mutating_a_copy_leaves_the_original(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        c = m.copy()
        c.data[0][0] = F(9)
        c.data[1] = [F(0), F(0)]
        assert m.data == [[F(1), F(2)], [F(3), F(4)]]

    def test_elimination_leaves_its_input(self):
        m = ExactMatrix.from_rows([[2, 4, 1], [1, 2, Fraction(1, 3)], [0, 1, 1]])
        before = [list(row) for row in m.data]
        m.rref()
        m.nullspace()
        m.solve([F(1), F(2), F(3)])
        assert m.data == before


class TestSpans:
    def test_span_basis_reduces(self):
        basis = span_basis([[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]])
        assert len(basis) == 2



def rank(vectors):
    return ExactMatrix.from_rows(vectors).rank() if vectors else 0


@st.composite
def bases_and_candidates(draw):
    """Small rational vectors of one length; tiny entries make dependencies
    common."""
    dim = draw(st.integers(0, 4))
    entry = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    vectors = st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=5)
    return draw(vectors), draw(vectors)


class TestExtendBasis:
    @settings(derandomize=True, deadline=None)
    @given(bases_and_candidates())
    # a dependent and an independent candidate over a rank-two base
    @example(([[F(1), F(0), F(1)], [F(0), F(1), F(1)]], [[F(1), F(1), F(2)], [F(0), F(0), F(1)]]))
    @example(([], [[F(0), F(0)], [F(1), F(0)], [F(2), F(0)]]))  # empty base
    @example(([], []))  # nothing at all
    @example(([[], []], [[], []]))  # zero-length vectors
    def test_chooses_the_candidates_that_raise_the_rank(self, data):
        base, candidates = data
        expected = [
            k
            for k in range(len(candidates))
            if rank(base + candidates[: k + 1]) > rank(base + candidates[:k])
        ]
        assert extend_basis(base, candidates) == expected


def is_exact_scalar(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@st.composite
def product_operands(draw):
    """An r x k and a k x c matrix and a length-k vector of small rationals,
    so that Fractions often cancel to integral values."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))

    def matrix(rows, cols):
        return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]

    return (
        ExactMatrix(r, k, matrix(r, k)),
        ExactMatrix(k, c, matrix(k, c)),
        draw(st.lists(entry, min_size=k, max_size=k).map(lambda v: [exact(x) for x in v])),
    )


class TestExactEntries:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(product_operands())
    def test_every_entry_is_an_int_or_a_non_integral_fraction(self, operands):
        a, b, vec = operands
        for m in (a.rref()[0], b.rref()[0], a.matmul(b)):
            assert all(is_exact_scalar(x) for row in m.data for x in row)
        assert all(is_exact_scalar(x) for x in a.apply(vec))
