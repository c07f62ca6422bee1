"""Exact linear algebra over a prime field or the rationals.

A matrix is sparse rows, one {column: value} dict per row, and travels
with its number of columns as (rows, ncols); a vector is one such dict.
sparse_blocks assembles a matrix from its nonzero blocks only.  Everything
is exact in Python scalars over F_p and over Q and never densifies: counts
(sparse_rank, homology_dim) come from Markowitz elimination, and bases
(kernel_basis, solve, CosetReducer) from the reduced row echelon form
sparse_rref.  The dense rref of an ExactMatrix is kept only as the
reference for tests, with GlobalSections.sheafmap_matrix as its view.
"""

import heapq
from itertools import accumulate

from .fields import PrimeField


def _modulus(field):
    return field.p if isinstance(field, PrimeField) else None


class ExactMatrix:
    """Dense row-major matrix of field scalars with an explicit shape."""

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

    @staticmethod
    def from_sparse_rows(field, rows, ncols):
        """Dense matrix of sparse rows (one {column: value} dict per row)."""
        dense = [[field.zero()] * ncols for _ in rows]
        for out, row in zip(dense, rows):
            for c, v in row.items():
                out[c] = v
        return ExactMatrix(field, dense, ncols)


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


def sparse_transpose(rows, ncols):
    """The transpose of a (rows, ncols) matrix, as ncols sparse rows."""
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[c][i] = v
    return out


# -- dense reference ------------------------------------------------------


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


# -- counts ---------------------------------------------------------------


def sparse_rank(field, rows, ncols):
    """Rank of the matrix whose row i is the {column: value} dict rows[i]
    (columns in range(ncols)); the input is not modified.

    Structured Gaussian elimination with Markowitz pivoting (LaMacchia and
    Odlyzko, CRYPTO 1990): the pivot row is a shortest live row and its
    pivot column the one met by the fewest live rows, which keeps fill-in
    low.  Exact in Python scalars over F_p and over Q."""
    p = _modulus(field)
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
    p = _modulus(field)
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


# -- bases ----------------------------------------------------------------


def echelon_reduce(field, echelon, v):
    """v minus the combination of the rows of `echelon` that clears v at
    each of their pivots, as a new vector.  `echelon` maps each pivot
    column to its row, which is 1 there and 0 left of it.  Pivots are
    cleared leftmost first, so a subtraction fills in only to the right of
    the pivot it clears.  The result is the same for every echelon basis
    of one row space: the canonical representative of v modulo it."""
    p = _modulus(field)
    v = dict(v)
    todo = [c for c in v if c in echelon]
    heapq.heapify(todo)
    while todo:
        c = heapq.heappop(todo)
        f = v.pop(c, 0)
        if not f:
            continue    # cancelled earlier, or a repeated heap entry
        for k, x in echelon[c].items():
            if k == c:
                continue
            y = v.get(k, 0) - f * x
            if p:
                y %= p
            if y:
                if k not in v and k in echelon:
                    heapq.heappush(todo, k)
                v[k] = y
            else:
                v.pop(k, None)
    return v


def echelon_add(field, echelon, v):
    """Reduce v by `echelon` and add what is left to it, scaled to 1 at its
    leftmost column; returns that column, or None if v is in the row
    space.  The entries of v are canonical: reduced mod p, none zero."""
    v = echelon_reduce(field, echelon, v)
    if not v:
        return None
    p = _modulus(field)
    c = min(v)
    inv = field.inv(v[c])
    echelon[c] = {k: x * inv % p if p else x * inv for k, x in v.items()}
    return c


def sparse_rref(field, rows, ncols):
    """Reduced row echelon form of the matrix whose row i is the
    {column: value} dict rows[i] (columns in range(ncols)), by Gauss-Jordan
    elimination on sparse rows: each row is reduced and pivoted on its
    leftmost column, then the rows are back-substituted rightmost pivot
    first.  Returns (rows, pivots): the nonzero rows of the unique RREF in
    pivot order, and their pivot columns.  The input is not modified."""
    p = _modulus(field)
    echelon = {}
    for row in rows:
        if p:
            row = {c: v % p for c, v in row.items()}
        echelon_add(field, echelon, {c: v for c, v in row.items() if v})
    pivots = sorted(echelon)
    for c in reversed(pivots):
        row = echelon[c]
        echelon[c] = {c: row[c], **echelon_reduce(
            field, echelon, {k: x for k, x in row.items() if k != c})}
    return [echelon[c] for c in pivots], pivots


def kernel_basis(field, rows, ncols):
    """A basis of the kernel of the (rows, ncols) matrix as sparse vectors,
    one per free column f of its RREF in increasing order: 1 at f, and at
    each pivot minus the RREF entry of that pivot's row in column f."""
    p = _modulus(field)
    R, pivots = sparse_rref(field, rows, ncols)
    pivot_set = set(pivots)
    basis = {f: {f: field.one()} for f in range(ncols) if f not in pivot_set}
    for row, c in zip(R, pivots):
        for f, x in row.items():
            if f != c:
                basis[f][c] = -x % p if p else -x
    return list(basis.values())


def solve(field, rows, ncols, b):
    """A solution x of A x = b for the (rows, ncols) matrix A and a sparse
    vector b indexed by its rows, as a sparse vector, or None if there is
    none (definitive); read off the RREF of the augmented matrix [A | b]."""
    if b and max(b) >= len(rows):
        raise ValueError("solve shape mismatch")
    aug = [{**row, ncols: b[i]} if i in b else row
           for i, row in enumerate(rows)]
    R, pivots = sparse_rref(field, aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    return {c: row[ncols] for row, c in zip(R, pivots) if ncols in row}


class CosetReducer:
    """Reduce sparse vectors modulo the column span of a (rows, ncols)
    matrix, for canonical coset representatives.

    Keeps the RREF of the transpose; reduce(v) subtracts the unique element
    of the span that agrees with v at the pivots, so reduce is linear,
    vanishes exactly on the span and is idempotent."""

    def __init__(self, field, rows, ncols):
        self.field = field
        self.ambient = len(rows)
        R, self.pivots = sparse_rref(field, sparse_transpose(rows, ncols),
                                     self.ambient)
        self.basis = dict(zip(self.pivots, R))

    def reduce(self, v):
        return echelon_reduce(self.field, self.basis, v)
