"""Exact linear algebra over a prime field or the rationals.

A matrix is sparse rows, one {column: value} dict per row, and travels
with its number of columns as (rows, ncols); a vector is one such dict.
A block to be placed in a matrix is a Block: its shape and a row-major
list of its nonzero (row, column, value) entries, the one form in which
GradedRing.mult_matrix caches it.  sparse_blocks assembles a matrix from
its nonzero blocks only, checking each block's shape in O(1) and writing
each entry at its offsets, so assembly costs one step per nonzero.
Everything is exact in Python scalars over F_p and over Q and never
densifies, and has one elimination: each row is reduced by the echelon
form built so far and pivoted on its leftmost column.  One reduction
loop, shared by F_p and Q, does every reduction in place on a vector its
caller owns: the public echelon_reduce copies its argument once, and the
elimination takes each row as a fresh dict, reduced mod p and free of
zeros, and stores a row that meets no pivot without entering it.  Counts
(sparse_rank, homology_dim) are the number of its pivots, and bases
(kernel_basis, solve, CosetReducer) are read off the reduced row echelon
form sparse_rref that back-substitution makes of it.  Apart from the
echelon form and the vector that echelon_add is handed, no function
modifies what it is given.  The dense rref of an ExactMatrix is kept only
as the reference for tests, with GlobalSections.sheafmap_matrix as its
view.
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


class Block:
    """A sparse block that is its nonzeros: nrows x ncols, with entries a
    row-major list of (row, column, value) triples; the entries of a row
    come in the key order its row dict gets when the block is placed.
    This is the one form in which a cached block is stored; it is read
    only by placing it (sparse_blocks)."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries

    @staticmethod
    def from_rows(rows, ncols):
        """The block of sparse rows with columns in range(ncols)."""
        entries = [(i, k, v) for i, row in enumerate(rows)
                   for k, v in row.items()]
        return Block(len(rows), ncols, entries)


def sparse_blocks(row_dims, col_dims, blocks):
    """Assemble a block matrix as (sparse rows, ncols) from an iterable of
    (r, c, Block) triples, one per nonzero block: block (r, c) has
    row_dims[r] rows and col_dims[c] columns, checked in O(1) against the
    shape it carries.  Omitted blocks are zero.  Each entry is written at
    its offsets, so a row dict gets its keys in the order the blocks come,
    and callers yield the blocks of a block row in increasing c.  The
    blocks are read, never modified, so they may be cached."""
    col_offs = [0, *accumulate(col_dims)]
    row_offs = [0, *accumulate(row_dims)]
    out = [{} for _ in range(row_offs[-1])]
    for r, c, blk in blocks:
        if blk.nrows != row_dims[r] or blk.ncols != col_dims[c]:
            raise ValueError("block (%d, %d) has wrong shape" % (r, c))
        ro, co = row_offs[r], col_offs[c]
        for i, k, v in blk.entries:
            out[ro + i][co + k] = v
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
    (columns in range(ncols)): the number of pivots of its echelon form,
    the forward pass of sparse_rref.  The input is not modified."""
    return len(_echelon(field, rows))


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
        out.append({c: y for c, v in acc.items() if (y := v % p)} if p
                   else {c: v for c, v in acc.items() if v})
    return out


# -- bases ----------------------------------------------------------------


def _reduce(p, echelon, v):
    """The one reduction loop: reduce v in place by `echelon` and return
    it; p is the modulus, or None over Q.  The caller owns v.  Pivots are
    cleared leftmost first, so a subtraction fills in only to the right of
    the pivot it clears; a v that meets no pivot is returned untouched."""
    todo = [c for c in v if c in echelon]
    if not todo:
        return v
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


def echelon_reduce(field, echelon, v):
    """v minus the combination of the rows of `echelon` that clears v at
    each of their pivots, as a new vector: v is copied once and reduced by
    the one reduction loop, and is not modified.  `echelon` maps each
    pivot column to its row, which is 1 there and 0 left of it.  The
    result is the same for every echelon basis of one row space: the
    canonical representative of v modulo it."""
    return _reduce(_modulus(field), echelon, dict(v))


def echelon_add(field, echelon, v):
    """Reduce v by `echelon` and add what is left to it, scaled to 1 at its
    leftmost column; returns that column, or None if v is in the row
    space.  The entries of v are canonical: reduced mod p, none zero.
    A caller that owns v hands it over: v is reduced in place and may
    become the new row, so a caller that keeps v passes a copy."""
    p = _modulus(field)
    v = _reduce(p, echelon, v)
    return _store(field, p, echelon, v) if v else None


def _store(field, p, echelon, v):
    """Add the nonzero reduced vector v to `echelon`, scaled to 1 at its
    leftmost column, and return that column."""
    c = min(v)
    if v[c] != 1:
        inv = field.inv(v[c])
        v = {k: x * inv % p if p else x * inv for k, x in v.items()}
    echelon[c] = v
    return c


def _echelon(field, rows):
    """The echelon form of the row space of `rows`, as echelon_add keeps
    it: each row, reduced mod p and without zeros in one fresh dict, is
    reduced by the rows before it and pivoted on its leftmost column; a
    row that meets no pivot is stored as it is, scaled, with no call to
    the reduction loop, which would return it untouched.  The rows are
    not modified."""
    p = _modulus(field)
    echelon = {}
    for row in rows:
        if p:
            v = {c: y for c, x in row.items() if (y := x % p)}
        else:
            v = {c: x for c, x in row.items() if x}
        if not echelon.keys().isdisjoint(v):
            v = _reduce(p, echelon, v)
        if v:
            _store(field, p, echelon, v)
    return echelon


def sparse_rref(field, rows, ncols):
    """Reduced row echelon form of the matrix whose row i is the
    {column: value} dict rows[i] (columns in range(ncols)), by Gauss-Jordan
    elimination on sparse rows: each row is reduced and pivoted on its
    leftmost column, then the rows are back-substituted rightmost pivot
    first.  Returns (rows, pivots): the nonzero rows of the unique RREF in
    pivot order, and their pivot columns.  The input is not modified."""
    p = _modulus(field)
    echelon = _echelon(field, rows)
    pivots = sorted(echelon)
    for c in reversed(pivots):
        row = echelon[c]
        echelon[c] = {c: row[c], **_reduce(
            p, echelon, {k: x for k, x in row.items() if k != c})}
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
