"""Dense exact-rational matrices: elimination, rank, kernel, solving.

Everything downstream (resolutions, chain maps modulo homotopy, Gabriel
quivers, presentations) reduces to row reduction over the rationals.
A scalar is an ``int`` when its value is integral and a ``fractions.Fraction``
otherwise; no float is ever produced or accepted.  The algebras verified
here have structure constants 0 and +-1, so elimination almost always
divides by a unit and stays in ``int``; every division goes through
``exact_div``, which leaves ``int`` only for a non-integral quotient.
Matrices here are small and dense, so plain Gaussian elimination with
first-nonzero pivoting is deterministic and fast enough.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = 0
ONE = 1


def exact(x):
    """``x`` as an exact scalar: an int if integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact scalar")
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_div(a, b):
    """The exact quotient ``a / b`` of two exact scalars."""
    if b == 1:
        return a
    if b == -1:
        return -a
    return exact(Fraction(a) / b)


def _exact_row(values) -> list:
    """The values as a row of exact scalars: integral Fractions become ints."""
    return [x if type(x) is int else exact(x) for x in values]


class ExactMatrix:
    """A rows x cols matrix of exact scalars (ints and non-integral Fractions)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[ZERO] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data shape mismatch")
            # fresh row lists, so copies never alias; only non-ints are normalised
            self.data = [_exact_row(row) for row in data]

    @staticmethod
    def _adopt(rows: int, cols: int, data: list) -> "ExactMatrix":
        """The matrix that owns ``data``, fresh rows of exact scalars built in
        this package; neither copied nor checked."""
        m = object.__new__(ExactMatrix)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @staticmethod
    def identity(k: int) -> "ExactMatrix":
        m = ExactMatrix(k, k)
        for i in range(k):
            m.data[i][i] = ONE
        return m

    @staticmethod
    def from_rows(rows_list) -> "ExactMatrix":
        rows_list = [list(r) for r in rows_list]
        cols = len(rows_list[0]) if rows_list else 0
        return ExactMatrix(len(rows_list), cols, rows_list)

    def copy(self) -> "ExactMatrix":
        return ExactMatrix._adopt(self.rows, self.cols, [row[:] for row in self.data])

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def transpose(self) -> "ExactMatrix":
        if not self.rows:  # zip(*data) would yield no column at all
            return ExactMatrix._adopt(self.cols, 0, [[] for _ in range(self.cols)])
        return ExactMatrix._adopt(self.cols, self.rows, [list(col) for col in zip(*self.data)])

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} vs {other.rows}")
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.data[i]
            out_row = out[i]
            for k in range(self.cols):
                a = row[k]
                if a == 0:
                    continue
                other_row = other.data[k]
                for j in range(other.cols):
                    b = other_row[j]
                    if b != 0:
                        out_row[j] += a * b
            if type(sum(out_row)) is not int:  # a Fraction touched the row
                out[i] = _exact_row(out_row)
        return ExactMatrix._adopt(self.rows, other.cols, out)

    def apply(self, vec: list) -> list:
        """The exact scalars of ``self . vec``."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [
            sum((row[j] * vec[j] for j in range(self.cols) if vec[j] != 0), ZERO)
            for row in self.data
        ]
        # a sum is an int unless a Fraction took part in it
        return out if type(sum(out)) is int else _exact_row(out)

    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix._adopt(
            self.rows,
            self.cols,
            [_exact_row(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)],
        )

    def scale(self, c) -> "ExactMatrix":
        c = exact(c)
        return ExactMatrix._adopt(
            self.rows, self.cols, [_exact_row(c * x for x in row) for row in self.data]
        )

    def rref(self) -> tuple["ExactMatrix", list[int]]:
        """Reduced row echelon form and its pivot columns.

        Rows are only ever swapped or replaced by new lists, never written
        into, so eliminating on a shallow copy of the row list leaves ``self``
        unchanged; the result may share untouched rows with it.  A row update
        ``a - f * b`` of exact scalars by an int ``f`` and an all-int pivot
        row is exact again, so only updates a Fraction takes part in are
        normalised.
        """
        rows = list(self.data)
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if rows[i][c] != 0), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            pv = rows[r][c]
            if pv != 1:
                rows[r] = [exact_div(x, pv) for x in rows[r]]
            pivot = rows[r]
            plain = type(sum(pivot)) is int  # a sum is an int unless a Fraction took part
            for i in range(self.rows):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    new = [a - f * b for a, b in zip(rows[i], pivot)]
                    rows[i] = new if plain and type(f) is int else _exact_row(new)
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return ExactMatrix._adopt(self.rows, self.cols, rows), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[list]:
        """Basis of the right kernel, one vector of exact scalars per free
        column."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            vec = [ZERO] * self.cols
            vec[fc] = ONE
            for r, pc in enumerate(pivots):
                vec[pc] = -red.data[r][fc]
            basis.append(vec)
        return basis

    def solve(self, rhs: list):
        """One solution of A x = rhs as exact scalars, or None if inconsistent.

        Floats in ``rhs`` are refused."""
        if len(rhs) != self.rows:
            raise ValueError("rhs length mismatch")
        aug = ExactMatrix(
            self.rows, self.cols + 1, [row + [exact(v)] for row, v in zip(self.data, rhs)]
        )
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [ZERO] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.data[r][self.cols]
        return x


def span_basis(vectors: list[list]) -> list[list]:
    """A subset-echelon basis of the span of the given vectors of exact
    scalars."""
    if not vectors:
        return []
    m = ExactMatrix.from_rows(vectors)
    red, pivots = m.rref()
    return [red.data[i] for i in range(len(pivots))]


def extend_basis(base: list[list], candidates: list[list]) -> list[int]:
    """Indices of the candidates a greedy pass would add to span(base).

    Candidate k is chosen iff it lies outside the span of ``base`` and
    ``candidates[:k]``: the candidate pivot columns of one elimination of
    the columns ``base + candidates``.
    """
    vectors = base + candidates
    if not vectors:
        return []
    pivots = ExactMatrix.from_rows(vectors).transpose().rref()[1]
    return [c - len(base) for c in pivots if c >= len(base)]
