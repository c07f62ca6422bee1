"""Exact linear algebra over a prime field or the rationals.

Dense prime-field matrices are eliminated in blocked numpy float64
arithmetic, exact because every accumulated value stays an integer below
2^53 (fields.PrimeField enforces 64 * p^2 < 2^53); dense rational matrices
use Fraction arithmetic.  Sparse matrices, given as one {column: value}
dict per row, have an exact rank and product in Python scalars
(sparse_rank, sparse_matmul).  All dimensions are exact integers.
"""

import heapq

import numpy as np

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
    def from_blocks(field, row_dims, col_dims, block):
        """Assemble a block matrix; block(r, c) gives the dense rows of
        block (r, c), row_dims[r] x col_dims[c], or None for a zero block
        (the matrix counterpart of mf.SheafMap.from_blocks)."""
        m = ExactMatrix.zeros(field, sum(row_dims), sum(col_dims))
        roff = 0
        for r, nr in enumerate(row_dims):
            coff = 0
            for c, nc in enumerate(col_dims):
                blk = block(r, c)
                if blk is not None:
                    if len(blk) != nr or any(len(row) != nc for row in blk):
                        raise ValueError("block (%d, %d) has wrong shape" % (r, c))
                    for dense, row in zip(m.rows[roff:roff + nr], blk):
                        dense[coff:coff + nc] = row
                coff += nc
            roff += nr
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
        if isinstance(F, PrimeField):
            if self.nrows == 0 or other.ncols == 0:
                return ExactMatrix.zeros(F, self.nrows, other.ncols)
            A = np.array(self.rows, dtype=np.float64)
            B = np.array(other.rows, dtype=np.float64)
            # block the inner product so accumulated sums stay exact in
            # float64 (each product < p^2, sums must stay below 2^53)
            step = max(1, (1 << 53) // (F.p * F.p))
            acc = np.zeros((self.nrows, other.ncols), dtype=np.float64)
            for k in range(0, self.ncols, step):
                acc = (acc + A[:, k:k + step] @ B[k:k + step, :]) % F.p
            return ExactMatrix(F, acc.astype(np.int64).tolist(), other.ncols)
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


# -- elimination --------------------------------------------------------


_PANEL = 64  # 64 * p^2 < 2^53 keeps blocked float64 updates exact


def _rref_prime(field, rows, ncols):
    """Blocked Gauss-Jordan over F_p in float64 (all values stay integral:
    products are < p^2 and the accumulated delayed updates stay below 2^53)."""
    p = field.p
    if not rows:
        return [], []
    A = np.array(rows, dtype=np.float64) % p
    nrows = A.shape[0]
    # Reductions mod p are delayed across panels: an entry accumulates at
    # most one product < p^2 per pivot (forward) plus one per pivot
    # (backward) before it is next canonicalized.  Fall back to per-panel
    # reductions when that delayed total could reach 2^53.
    delay = (nrows + ncols + _PANEL) * p * p < 2 ** 53
    pivots = []
    r = 0
    c = 0
    # forward pass: row echelon with panel factorization + matmul updates
    while r < nrows and c < ncols:
        cb = min(c + _PANEL, ncols)
        panel_pivots = []       # columns, pivot i lives in row r + i
        for col in range(c, cb):
            k = len(panel_pivots)
            if r + k >= nrows:
                break
            # the strip below carries delayed (un-reduced but exact) values;
            # canonicalize this column before pivot search and elimination
            A[r + k:, col] %= p
            sub = A[r + k:, col]
            nz = np.nonzero(sub)[0]
            if nz.size == 0:
                continue
            i = r + k + int(nz[0])
            if i != r + k:
                A[[r + k, i]] = A[[i, r + k]]
            # scale only from the pivot column on: earlier panel columns of
            # this row hold multiplier storage that must stay untouched
            A[r + k, col:cb] %= p
            inv = pow(int(A[r + k, col]), p - 2, p)
            A[r + k, col:cb] = (A[r + k, col:cb] * inv) % p
            below = A[r + k + 1:, col].copy()
            if below.size:
                # eliminate below within the panel only, with the reduction
                # mod p delayed to the end of the panel (values stay exact:
                # at most PANEL products of size < p^2 accumulate, < 2^53);
                # the multipliers are remembered in the pivot column itself
                A[r + k + 1:, col + 1:cb] -= np.outer(below,
                                                      A[r + k, col + 1:cb])
                A[r + k + 1:, col] = below
            # the pivot slot remembers the scale factor for the trailing part
            A[r + k, col] = inv
            panel_pivots.append(col)
        A[r:, c:cb] %= p
        k = len(panel_pivots)
        if k and cb < ncols:
            # forward-substitute the trailing parts of the panel's pivot
            # rows (they were only updated inside the panel so far); each
            # row is canonicalized right before it is scaled and used, so
            # the elimination updates below it can stay delayed
            for i in range(k):
                A[r + i, cb:] %= p
                inv = A[r + i, panel_pivots[i]]
                A[r + i, cb:] = (A[r + i, cb:] * inv) % p
                if i + 1 < k:
                    factors = A[r + i + 1:r + k, panel_pivots[i]]
                    A[r + i + 1:r + k, cb:] -= np.outer(factors,
                                                        A[r + i, cb:])
                    if not delay:
                        A[r + i + 1:r + k, cb:] %= p
            # one blocked update for all rows below the panel
            if r + k < nrows:
                L = A[r + k:, panel_pivots]
                A[r + k:, cb:] -= L @ A[r:r + k, cb:]
                if not delay:
                    A[r + k:, cb:] %= p
        # clear the multiplier storage
        for i, col in enumerate(panel_pivots):
            A[r + i, col] = 1.0
            A[r + i + 1:, col] = 0.0
        pivots.extend(panel_pivots)
        r += k
        c = cb
    if r < nrows:
        A[r:, :] %= p  # non-pivot rows: delayed values that are all == 0 mod p
    # backward pass: clear above the pivots, in panels, bottom up
    npiv = len(pivots)
    i1 = npiv
    while i1 > 0:
        i0 = max(0, i1 - _PANEL)
        # reduce the panel's own pivot rows against each other (bottom up),
        # with the reduction mod p delayed to the end of the panel
        for i in range(i1 - 1, i0, -1):
            col = pivots[i]
            A[i, :] %= p    # row i may carry delayed updates; canonicalize
            factors = A[i0:i, col] % p
            if np.any(factors):
                A[i0:i, :] -= np.outer(factors, A[i, :])
                A[i0:i, col] = 0.0
        A[i0:i1, :] %= p
        if i0 > 0:
            # rows above may carry delayed updates from lower panels
            F = A[:i0, [pivots[i] for i in range(i0, i1)]] % p
            if np.any(F):
                A[:i0, :] -= F @ A[i0:i1, :]
                if not delay:
                    A[:i0, :] %= p
        i1 = i0
    return A.astype(np.int64).tolist(), pivots


def _rref_generic(field, rows, ncols):
    A = [list(r) for r in rows]
    nrows = len(A)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if not field.is_zero(A[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        A[r], A[pivot_row] = A[pivot_row], A[r]
        inv = field.inv(A[r][c])
        A[r] = [field.mul(v, inv) for v in A[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(A[i][c]):
                f = A[i][c]
                A[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A, pivots


def rref(A):
    """Reduced row echelon form; returns (R, pivot column list)."""
    if isinstance(A.field, PrimeField):
        rows, pivots = _rref_prime(A.field, A.rows, A.ncols)
    else:
        rows, pivots = _rref_generic(A.field, A.rows, A.ncols)
    return ExactMatrix(A.field, rows, A.ncols), pivots


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


def in_column_span(A, b):
    return solve(A, b) is not None


def subquotient_dim(Z, B):
    """dim(span Z / span B); requires every column of B to lie in span Z."""
    if Z.nrows != B.nrows:
        raise ValueError("subquotient ambient dimension mismatch")
    rz = rank(Z)
    if B.ncols:
        if rank(Z.hstack(B)) != rz:
            raise ValueError("boundary space is not contained in the cycle space")
    return rz - rank(B)


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
