"""Exact linear algebra over a field object with zero() and one() whose elements
have inverse(); over a PrimeField the entries are the ints 0..p-1.

There is one elimination, Span: rows are reduced one at a time, from sparse
(column, entry) pairs, against the pivot rows found so far, and the pivot rows
are back-substituted once for a basis.  Pivoting picks the first symbolically
nonzero entry; there is no rounding anywhere, so rank, kernel and solve are
exact.  Matrix is a dense view of the span of its rows, so one elimination
serves all three: solve reduces the augmented matrix [A | b].
"""

from heapq import heapify, heappop, heappush

from .primefield import PrimeField


class Matrix:
    """A dense matrix over a field object."""

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
        """The reduced row echelon form, nrows rows with the zero rows last, and
        its pivot columns: the basis of the span of the rows, padded."""
        span = Span(self.field, self.ncols, map(enumerate, self.rows))
        rows = span.basis()
        rows += [[self.field.zero()] * self.ncols for _ in range(self.nrows - len(rows))]
        return rows, sorted(span.tails)

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


class Span:
    """The span of rows of length ncols, grown one row at a time.

    A row is an iterable of (column, entry) pairs, each column at most once and
    in any order; zero entries are dropped.  ``tails`` maps each pivot column to
    the entries after it of its monic pivot row, {column: entry}.  A row is
    reduced leading column first, touching only nonzero entries, and each pivot
    is inverted once.  Over a PrimeField each cell written is reduced mod p.
    """

    def __init__(self, field, ncols, rows=()):
        self.field = field
        self.ncols = ncols
        self.p = field.p if isinstance(field, PrimeField) else None
        self.tails = {}
        for row in rows:
            self.add(row)

    def __len__(self):
        return len(self.tails)

    def _leads(self, pairs):
        """Reduce the row against the pivot rows, leading column first, through a
        heap of its columns: yields (column, entry, rest) for each column that is
        not a pivot, in order, with rest the entries after it, reduced so far."""
        p, tails = self.p, self.tails
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
                yield col, factor, row
            else:
                for c in _subtract(row, factor, tail, p):
                    heappush(queue, c)

    def add(self, pairs):
        """Add a row; returns its new pivot column, or None if it is in the span.

        The new pivot row is the row less a member of the span, zero before its
        leading column, made monic there."""
        lead = next(self._leads(pairs), None)
        if lead is None:
            return None
        col, factor, rest = lead
        p = self.p
        if p is None:
            inv = factor.inverse()
            self.tails[col] = {c: x * inv for c, x in rest.items()}
        else:
            inv = pow(factor, p - 2, p)
            self.tails[col] = {c: x * inv % p for c, x in rest.items()}
        return col

    def reduce(self, pairs):
        """The row less a member of the span, zero at every pivot column, as
        {column: entry}; it is empty iff the row lies in the span."""
        return {col: x for col, x, _ in self._leads(pairs)}

    def row(self, col):
        """The pivot row of col, dense."""
        dense = [self.field.zero()] * self.ncols
        dense[col] = self.field.one()
        for c, x in self.tails[col].items():
            dense[c] = x
        return dense

    def basis(self):
        """The rref basis of the span, dense rows in pivot order.

        Each tail after col is already free of pivot columns, so one pass, last
        pivot first, clears col's; the tails stay back-substituted."""
        tails, p = self.tails, self.p
        pivots = sorted(tails)
        for col in reversed(pivots):
            tail = tails[col]
            for c in [c for c in tail if c in tails]:
                _subtract(tail, tail.pop(c), tails[c], p)
        return [self.row(col) for col in pivots]


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
