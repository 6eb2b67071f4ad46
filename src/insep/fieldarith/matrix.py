"""Exact dense linear algebra over any field object with zero()/one() elements;
over a PrimeField the entries are the ints 0..p-1.

Pivoting picks the first symbolically nonzero entry; there is no rounding
anywhere, so rank, kernel and solve are exact.  One elimination serves all
three: solve reduces the augmented matrix [A | b].  Spans are reduced apart,
from sparse rows, one row at a time (row_space_basis).
"""

from heapq import heapify, heappop, heappush

from .primefield import PrimeField


class Matrix:
    """A dense matrix over a field object.

    Elimination skips zero cells and inverts each pivot once, so its field
    operations scale with the nonzeros of the pivot rows, not with the size.
    """

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)])

    def _echelon(self):
        """Row-reduce to reduced row echelon form; returns (rows, pivot columns).

        Each step inverts its pivot once and touches only the support of the pivot
        row (its nonzero columns, all after the pivot column); the pivot column
        itself becomes a unit vector.  a - f*0 == a exactly, and every field
        keeps its elements canonical, so skipping those cells changes no value.
        Over a PrimeField each cell a step writes is reduced mod p.
        """
        p = self.field.p if isinstance(self.field, PrimeField) else None
        rows = [list(r) for r in self.rows]
        zero, one = self.field.zero(), self.field.one()
        pivots = []
        row = 0
        for col in range(self.ncols):
            pivot = next((r for r in range(row, len(rows)) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[row], rows[pivot] = rows[pivot], rows[row]
            prow = rows[row]
            inv = one / prow[col] if p is None else pow(prow[col], p - 2, p)
            prow[col] = one
            support = [(c, prow[c] * inv) for c in range(col + 1, self.ncols) if prow[c]]
            if p is not None:
                support = [(c, x % p) for c, x in support]
            for c, x in support:
                prow[c] = x
            for r, other in enumerate(rows):
                factor = other[col]
                if r != row and factor:
                    other[col] = zero
                    if p is None:
                        for c, x in support:
                            other[c] = other[c] - factor * x
                    else:
                        for c, x in support:
                            other[c] = (other[c] - factor * x) % p
            pivots.append(col)
            row += 1
            if row == len(rows):
                break
        return rows, pivots

    def rank(self):
        return len(self._echelon()[1])

    def kernel_basis(self):
        """Vectors spanning {x : A x = 0}, one per free column."""
        rows, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        zero, one = self.field.zero(), self.field.one()
        basis = []
        for fc in free:
            vec = [zero] * self.ncols
            vec[fc] = one
            for i, pc in enumerate(pivots):
                vec[pc] = -rows[i][fc]
            basis.append(vec)
        if isinstance(self.field, PrimeField):
            return [[x % self.field.p for x in vec] for vec in basis]
        return basis

    def solve(self, b):
        """A particular solution of A x = b, or None if inconsistent.

        [A | b] is reduced by the same elimination: the first ncols columns see
        the pivots and operations of A alone, and a pivot in the last column
        means the system is inconsistent.
        """
        if len(b) != self.nrows:
            raise ValueError("dimension mismatch")
        rows, pivots = Matrix(self.field, [r + [c] for r, c in zip(self.rows, b)])._echelon()
        if pivots and pivots[-1] == self.ncols:
            return None
        x = [self.field.zero()] * self.ncols
        for i, pc in enumerate(pivots):
            x[pc] = rows[i][-1]
        return x


def row_space_basis(field, ncols, rows):
    """An rref basis, as dense rows of length ncols, for the span of the given rows.

    Each row is an iterable of (column, entry) pairs, each column at most once and
    in any order; zero entries and zero rows are dropped.  The rows are reduced one
    at a time against the pivot rows found so far, leading column first, touching
    only their nonzero entries: a row either vanishes or its leading column is a new
    pivot, and it is made monic there.  The pivot rows are back-substituted once, at
    the end.  Over a PrimeField each cell written is reduced mod p.
    """
    p = field.p if isinstance(field, PrimeField) else None
    zero, one = field.zero(), field.one()
    tails = {}  # pivot column -> the entries after it of its monic pivot row
    for pairs in rows:
        row = ({c: x for c, x in pairs if x} if p is None
               else {c: x % p for c, x in pairs if x % p})
        queue = list(row)  # every column of row, and stale ones whose entry cancelled
        heapify(queue)
        while queue:
            col = heappop(queue)
            factor = row.pop(col, None)
            if factor is None:
                continue
            tail = tails.get(col)
            if tail is None:
                inv = one / factor if p is None else pow(factor, p - 2, p)
                tails[col] = ({c: x * inv for c, x in row.items()} if p is None
                              else {c: x * inv % p for c, x in row.items()})
                break
            for c in _subtract(row, factor, tail, p):
                heappush(queue, c)
    pivots = sorted(tails)
    # each tail after col is already free of pivot columns, so one pass clears col's
    for col in reversed(pivots):
        tail = tails[col]
        for c in [c for c in tail if c in tails]:
            _subtract(tail, tail.pop(c), tails[c], p)
    basis = []
    for col in pivots:
        dense = [zero] * ncols
        dense[col] = one
        for c, x in tails[col].items():
            dense[c] = x
        basis.append(dense)
    return basis


def _subtract(row, factor, tail, p):
    """row -= factor * tail, in place with zeros dropped; returns the columns it adds."""
    added = []
    if p is None:
        for c, x in tail.items():
            if c in row:
                y = row[c] - factor * x
                if y:
                    row[c] = y
                else:
                    del row[c]
            else:
                row[c] = -(factor * x)
                added.append(c)
    else:
        for c, x in tail.items():
            if c in row:
                y = (row[c] - factor * x) % p
                if y:
                    row[c] = y
                else:
                    del row[c]
            else:
                row[c] = -factor * x % p
                added.append(c)
    return added


def reduce_by_rows(field, rows, vector):
    """vector less its combination of rows; zero iff vector lies in their span.

    Each row has a 1 at its first nonzero entry and every later row a 0 there: an
    rref basis, and after it any nonzero results of this function, made monic.
    """
    vec = list(vector)
    for row in rows:
        factor = vec[next(c for c, x in enumerate(row) if x)]
        if factor:
            vec = [a - factor * b if b else a for a, b in zip(vec, row)]
    return [a % field.p for a in vec] if isinstance(field, PrimeField) else vec
