"""Exact linear algebra over a field object with zero() and one() whose elements
have inverse(); over a PrimeField the entries are the ints 0..p-1.

There is one elimination, Span: rows are reduced one at a time, from sparse
(column, entry) pairs, against the pivot rows found so far.  Span.add grows the
span, Span.reduce gives a row's remainder, Span.relation reads a vector of the
null space off the pivot rows at a non-pivot column, and Span.basis
back-substitutes the pivot rows once for the rref basis.  Pivoting picks the
first symbolically nonzero entry; there is no rounding anywhere, so every
answer is exact.  Matrix holds dense rows for their rank alone.
"""

from heapq import heapify, heappop, heappush

from .primefield import PrimeField


class Matrix:
    """Dense rows over a field object, for their rank."""

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    def _echelon(self):
        """The Span of the rows."""
        return Span(self.field, self.ncols, map(enumerate, self.rows))

    def rank(self):
        return len(self._echelon())


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

    def relation(self, free):
        """The vector x, dense, with x[free] = 1, zero at every other non-pivot
        column, and zero product with every row of the span; free is not a pivot.

        Each pivot row gives x[col] = -(its tail . x).  A pivot after free sees
        only zeros, so it gets 0; the pivots before free are solved last first,
        each from the entries already solved, with no back-substitution."""
        field, p, tails = self.field, self.p, self.tails
        if free in tails:
            raise ValueError("column %d is a pivot" % free)
        x = {}
        for col in sorted((c for c in tails if c < free), reverse=True):
            tail = tails[col]
            acc = tail.get(free)  # times x[free] = 1
            for c, v in x.items():
                if c in tail:
                    term = tail[c] * v
                    acc = term if acc is None else acc + term
            if acc is not None:
                acc = -acc if p is None else -acc % p
                if acc:
                    x[col] = acc
        dense = [field.zero()] * self.ncols
        dense[free] = field.one()
        for c, v in x.items():
            dense[c] = v
        return dense

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
