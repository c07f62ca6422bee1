"""Exact linear algebra over a prime field or the rationals.

Matrices are built as sparse rows, one {column: value} dict per row, and
a matrix travels with its number of columns as (rows, ncols); sparse_blocks
assembles one from its nonzero blocks only.  Counts (sparse_rank,
homology_dim) and products (sparse_matmul) are exact in Python scalars and
never densify.  Bases (kernel_basis, solve, CosetReducer) come from
Gauss-Jordan elimination (rref) of a dense ExactMatrix, in the field's own
arithmetic over F_p and over Q alike.
"""

import heapq
from itertools import accumulate

from .fields import PrimeField


class ExactMatrix:
    """Row-major matrix of field scalars with an explicit shape."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zeros(field, nrows, ncols):
        z = field.zero()
        return ExactMatrix(field, [[z] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(field, n):
        m = ExactMatrix.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one()
        return m

    @staticmethod
    def from_columns(field, cols, nrows):
        m = ExactMatrix.zeros(field, nrows, len(cols))
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ValueError("column length mismatch")
            for i, v in enumerate(col):
                m.rows[i][j] = v
        return m

    @staticmethod
    def from_sparse_rows(field, rows, ncols):
        """Dense matrix of sparse rows (one {column: value} dict per row)."""
        m = ExactMatrix.zeros(field, len(rows), ncols)
        for dense, row in zip(m.rows, rows):
            for c, v in row.items():
                dense[c] = v
        return m

    # -- basic ops --------------------------------------------------------

    def column(self, j):
        return [r[j] for r in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        cols = [self.column(j) for j in range(self.ncols)]
        return ExactMatrix(self.field, cols, self.nrows)

    def hstack(self, other):
        if other.nrows != self.nrows or other.field != self.field:
            raise ValueError("hstack shape mismatch")
        return ExactMatrix(self.field,
                           [a + b for a, b in zip(self.rows, other.rows)],
                           self.ncols + other.ncols)

    def matvec(self, v):
        F = self.field
        if len(v) != self.ncols:
            raise ValueError("matvec shape mismatch")
        out = []
        for r in self.rows:
            s = F.zero()
            for a, b in zip(r, v):
                s = F.add(s, F.mul(a, b))
            out.append(s)
        return out

    def matmul(self, other):
        F = self.field
        if other.nrows != self.ncols:
            raise ValueError("matmul shape mismatch")
        out = ExactMatrix.zeros(F, self.nrows, other.ncols)
        for i in range(self.nrows):
            for j in range(other.ncols):
                s = F.zero()
                for k in range(self.ncols):
                    s = F.add(s, F.mul(self.rows[i][k], other.rows[k][j]))
                out.rows[i][j] = s
        return out

    def is_zero(self):
        F = self.field
        return all(F.is_zero(v) for r in self.rows for v in r)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.nrows, self.ncols)


# -- sparse assembly ---------------------------------------------------


def sparse_blocks(row_dims, col_dims, blocks):
    """Assemble a block matrix as (sparse rows, ncols) from an iterable of
    (r, c, rows) triples, one per nonzero block: rows are the sparse rows
    of block (r, c), row_dims[r] of them with columns in
    range(col_dims[c]).  Omitted blocks are zero.  Each row dict gets its
    keys in the order the blocks come, so callers yield the blocks of a
    block row in increasing c.  The blocks are read, never modified, so
    they may be cached."""
    col_offs = [0, *accumulate(col_dims)]
    row_offs = [0, *accumulate(row_dims)]
    out = [{} for _ in range(row_offs[-1])]
    for r, c, blk in blocks:
        nc = col_dims[c]
        if len(blk) != row_dims[r] or any(row and max(row) >= nc
                                          for row in blk):
            raise ValueError("block (%d, %d) has wrong shape" % (r, c))
        co = col_offs[c]
        for i, row in enumerate(blk, row_offs[r]):
            if row:
                out[i].update({co + k: v for k, v in row.items()})
    return out, col_offs[-1]


# -- elimination --------------------------------------------------------


def rref(A):
    """Reduced row echelon form by Gauss-Jordan elimination; returns
    (R, pivot column list)."""
    F = A.field
    R = [list(r) for r in A.rows]
    nrows = len(R)
    pivots = []
    r = 0
    for c in range(A.ncols):
        if r >= nrows:
            break
        pivot_row = next((i for i in range(r, nrows)
                          if not F.is_zero(R[i][c])), None)
        if pivot_row is None:
            continue
        R[r], R[pivot_row] = R[pivot_row], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.mul(v, inv) for v in R[r]]
        for i in range(nrows):
            if i != r and not F.is_zero(R[i][c]):
                f = R[i][c]
                R[i] = [F.sub(v, F.mul(f, w)) for v, w in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return ExactMatrix(F, R, A.ncols), pivots


def rank(A):
    return len(rref(A)[1])


def sparse_rank(field, rows, ncols):
    """Rank of the matrix whose row i is the {column: value} dict rows[i]
    (columns in range(ncols)); the input is not modified.

    Structured Gaussian elimination with Markowitz pivoting (LaMacchia and
    Odlyzko, CRYPTO 1990): the pivot row is a shortest live row and its
    pivot column the one met by the fewest live rows, which keeps fill-in
    low.  Exact in Python scalars over F_p and over Q."""
    p = field.p if isinstance(field, PrimeField) else None
    live = {}
    col_rows = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        row = {c: v % p if p else v for c, v in row.items()}
        row = {c: v for c, v in row.items() if v}
        if row:
            live[i] = row
            for c in row:
                col_rows[c].add(i)
    heap = [(len(row), i) for i, row in live.items()]
    heapq.heapify(heap)
    r = 0
    while heap:
        n, i = heapq.heappop(heap)
        row = live.get(i)
        if row is None or len(row) != n:
            continue    # stale entry: the row was eliminated or changed
        del live[i]
        c = min(row, key=lambda k: len(col_rows[k]))
        for k in row:
            col_rows[k].discard(i)
        inv = field.inv(row.pop(c))
        piv = [(k, v * inv % p if p else v * inv) for k, v in row.items()]
        for j in col_rows[c]:
            other = live[j]
            f = other.pop(c)
            for k, v in piv:
                x = other.get(k, 0) - f * v
                if p:
                    x %= p
                if x:
                    other[k] = x
                    col_rows[k].add(j)
                elif k in other:
                    del other[k]
                    col_rows[k].discard(j)
            if other:
                heapq.heappush(heap, (len(other), j))
            else:
                del live[j]
        col_rows[c] = set()
        r += 1
    return r


def homology_dim(field, d_out, d_in):
    """dim ker d_out / im d_in at a spot of a complex, for differentials
    given as (sparse rows, ncols): d_out leaves the spot, d_in enters it.
    Assumes d_out d_in = 0; a missing map is ([], ncols) leaving the spot
    or ([], 0) entering it."""
    (rows_out, n), (rows_in, n_in) = d_out, d_in
    if n_in and len(rows_in) != n:
        raise ValueError("d_in does not map into the source of d_out")
    return n - sparse_rank(field, rows_out, n) \
        - sparse_rank(field, rows_in, n_in)


def sparse_matmul(field, A, B):
    """The product A B of sparse-row matrices (row i of A is a {k: value}
    dict whose keys index the rows of B), as sparse rows; exact in Python
    scalars over F_p and over Q."""
    p = field.p if isinstance(field, PrimeField) else None
    out = []
    for row in A:
        acc = {}
        for k, a in row.items():
            for c, b in B[k].items():
                acc[c] = acc.get(c, 0) + a * b
        if p:
            acc = {c: v % p for c, v in acc.items()}
        out.append({c: v for c, v in acc.items() if v})
    return out


def kernel_basis(A):
    """Matrix whose columns are a basis of ker A (ncols x nullity)."""
    F = A.field
    R, pivots = rref(A)
    pivot_set = set(pivots)
    free = [c for c in range(A.ncols) if c not in pivot_set]
    cols = []
    for f in free:
        v = [F.zero()] * A.ncols
        v[f] = F.one()
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(R.rows[i][f])
        cols.append(v)
    return ExactMatrix.from_columns(F, cols, A.ncols)


def solve(A, b):
    """A solution x of A x = b, or None (definitive no-solution)."""
    F = A.field
    if len(b) != A.nrows:
        raise ValueError("solve shape mismatch")
    aug = A.hstack(ExactMatrix.from_columns(F, [list(b)], A.nrows))
    R, pivots = rref(aug)
    if pivots and pivots[-1] == A.ncols:
        return None
    x = [F.zero()] * A.ncols
    for i, pc in enumerate(pivots):
        x[pc] = R.rows[i][A.ncols]
    return x


def subquotient_dim(Z, B):
    """dim(span Z / span B); requires every column of B to lie in span Z.
    A dense reference for homology_dim: the engine counts sparsely."""
    if Z.nrows != B.nrows:
        raise ValueError("subquotient ambient dimension mismatch")
    rz, rb = rank(Z), rank(B)
    if B.ncols and rank(Z.hstack(B)) != rz:
        raise ValueError("boundary space is not contained in the cycle space")
    return rz - rb


class CosetReducer:
    """Reduce vectors modulo a fixed column span, for canonical coset reps.

    Built from a matrix B: remembers the RREF of B^T; reduce(v) subtracts
    the unique span-B component supported on B's pivot coordinates, so
    reduce is linear, vanishes exactly on span B, and is idempotent.
    """

    def __init__(self, B):
        self.field = B.field
        self.ambient = B.nrows
        Rt, pivots = rref(B.transpose())
        # rows of Rt are a reduced basis of span(B) as row vectors
        self.basis_rows = [Rt.rows[i] for i in range(len(pivots))]
        self.pivots = pivots

    def reduce(self, v):
        F = self.field
        v = list(v)
        for row, pc in zip(self.basis_rows, self.pivots):
            c = v[pc]
            if not F.is_zero(c):
                v = [F.sub(a, F.mul(c, b)) for a, b in zip(v, row)]
        return v

    def is_in_span(self, v):
        F = self.field
        return all(F.is_zero(a) for a in self.reduce(v))
