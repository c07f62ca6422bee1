"""Bounded Cech cohomology on Proj R and hypercohomology of twisted
periodic complexes, plus exact global-section spaces and vanishing
thresholds.

Truncation trick: the piece of the localized module O(a)(U_S) with
exponents >= -B on the inverted variables is x_S^{-B} * R_{a + B*|S|}
(standard monomials), so restriction maps are multiplication by x_i^B and
the whole truncated Cech bicomplex is assembled from normal-form
multiplication matrices.  d^2 = 0 holds exactly because normal forms are
multiplicative.

The differentials are very sparse (restriction is a monomial shift), so
they are assembled as sparse rows, one {column: value} dict per target
row, and only their ranks are computed, by sparse elimination.
"""

from itertools import combinations, compress

from .linalg import ExactMatrix, kernel_basis, solve, sparse_rank
from .mf import SheafMap, TwistSum
from .poly import Poly
from .ring import binom


DEFAULT_B_START = 4
DEFAULT_B_MAX = 64


def h_projective_space(m, n, p):
    """dim H^p(P^m, O(n)) in closed form."""
    if p == 0 and n >= 0:
        return binom(n + m, m)
    if p == m and n <= -m - 1:
        return binom(-n - 1, m)
    return 0


def _subsets(nvars, p):
    """Index sets of the (p+1)-fold intersections, in lexicographic order."""
    return list(combinations(range(nvars), p + 1))


def _xs_power(ring, S, B):
    e = [0] * ring.nvars
    for i in S:
        e[i] = B
    return Poly.monomial(ring.field, ring.nvars, tuple(e))


class CechSetup:
    """Cover by the standard opens plus a truncation schedule."""

    def __init__(self, b_start=DEFAULT_B_START, b_max=DEFAULT_B_MAX):
        self.b_start = b_start
        self.b_max = b_max

    def schedule(self):
        b = self.b_start
        while b <= self.b_max:
            yield b
            b *= 2


class CechSpace:
    """The truncated Cech space C^p of a twist sum, with its block layout."""

    def __init__(self, ring, twists, p, B):
        self.ring = ring
        self.twists = list(twists)
        self.p = p
        self.B = B
        self.subsets = _subsets(ring.nvars, p)
        self.block_dims = []
        self.offsets = []
        off = 0
        for S in self.subsets:
            for a in self.twists:
                self.offsets.append(off)
                dim = ring.hilbert(a + B * len(S))
                self.block_dims.append(dim)
                off += dim
        self.dim = off

    def block_index(self, s_idx, t_idx):
        return s_idx * len(self.twists) + t_idx

    def block_offset(self, s_idx, t_idx):
        return self.offsets[self.block_index(s_idx, t_idx)]


def _put_block(out, block, ro, co, sign, F):
    """Write the nonzero entries of a dense block, times sign, into the
    sparse rows out at offset (ro, co).  The blocks a differential is made
    of cover disjoint positions, so no entry is written twice."""
    for r, row in enumerate(block):
        nonzero = compress(range(len(row)), row)
        if sign > 0:
            out[ro + r].update((co + c, row[c]) for c in nonzero)
        else:
            out[ro + r].update((co + c, F.neg(row[c])) for c in nonzero)


def cech_horizontal(src_space, dst_space):
    """The Cech differential C^p -> C^{p+1} (same twist list), as sparse
    rows."""
    ring = src_space.ring
    F = ring.field
    B = src_space.B
    out = [{} for _ in range(dst_space.dim)]
    src_index = {S: i for i, S in enumerate(src_space.subsets)}
    for tj, T in enumerate(dst_space.subsets):
        for pos, i in enumerate(T):
            S = T[:pos] + T[pos + 1:]
            si = src_index[S]
            sign = 1 if pos % 2 == 0 else -1
            xiB = _xs_power(ring, (i,), B)
            for t_idx, a in enumerate(src_space.twists):
                block = ring.mult_matrix(xiB, a + B * len(S))
                _put_block(out, block, dst_space.block_offset(tj, t_idx),
                           src_space.block_offset(si, t_idx), sign, F)
    return out


def cech_vertical(src_space, dst_space, sheaf_map, sign=1):
    """Apply a map of twist sums on each localized piece (same p), as
    sparse rows."""
    ring = src_space.ring
    F = ring.field
    B = src_space.B
    out = [{} for _ in range(dst_space.dim)]
    for s_idx, S in enumerate(src_space.subsets):
        shift = B * len(S)
        for c_t, a in enumerate(src_space.twists):
            for r_t, b in enumerate(dst_space.twists):
                p = sheaf_map.entries[r_t][c_t]
                if p.is_zero():
                    continue
                block = ring.mult_matrix(p, a + shift)
                _put_block(out, block, dst_space.block_offset(s_idx, r_t),
                           src_space.block_offset(s_idx, c_t), sign, F)
    return out


def cech_cohomology_at(ring, n, p, B):
    """dim H^p of the truncated Cech complex of O(n) at truncation B."""
    m = ring.nvars - 1
    if p < 0 or p > m:
        return 0
    spaces = {}
    for pp in (p - 1, p, p + 1):
        if 0 <= pp <= m:
            spaces[pp] = CechSpace(ring, [n], pp, B)
    cur = spaces[p]
    F = ring.field
    z = cur.dim
    if p + 1 in spaces:
        z -= sparse_rank(F, cech_horizontal(cur, spaces[p + 1]), cur.dim)
    b = 0
    if p - 1 in spaces:
        prev = spaces[p - 1]
        b = sparse_rank(F, cech_horizontal(prev, cur), prev.dim)
    return z - b


def _stable_value(value_at, setup):
    """(dimension, stable flag): the values at consecutive truncations B,
    B+1 must agree; B doubles until they do or the cap is hit."""
    last = None
    for B in (setup or CechSetup()).schedule():
        v1 = value_at(B)
        v2 = value_at(B + 1)
        if v1 == v2:
            return v1, True
        last = v2
    return last, False


def cech_cohomology(ring, n, p, setup=None):
    """(dimension, stable flag) of H^p(O(n)) by _stable_value."""
    return _stable_value(lambda B: cech_cohomology_at(ring, n, p, B), setup)


def _total_space(C, n, B):
    """Degree n of the truncated total complex of the Cech bicomplex of C:
    the CechSpace of the term C^{n-p} in Cech degree p, for each p, with
    the block offsets and the total dimension."""
    ring = C.ctx.ring
    spaces = [CechSpace(ring, list(C.term(n - p).twists), p, B)
              for p in range(ring.nvars)]
    return spaces, _offsets([sp.dim for sp in spaces]), \
        sum(sp.dim for sp in spaces)


def cech_total_diff(C, q, B):
    """The differential Tot^q -> Tot^{q+1} of the truncated Cech bicomplex
    of a twisted periodic complex C, as sparse rows (one {column: value}
    dict per target row), and its number of columns.  The horizontal Cech
    maps and the vertical maps of C, signed (-1)^p, fill disjoint blocks."""
    src, soffs, sdim = _total_space(C, q, B)
    dst, doffs, ddim = _total_space(C, q + 1, B)
    out = [{} for _ in range(ddim)]
    for p, sp in enumerate(src):
        if not sp.dim:
            continue
        blocks = []
        if p + 1 < len(dst) and dst[p + 1].dim:
            blocks.append((p + 1, cech_horizontal(sp, dst[p + 1])))
        if dst[p].dim:
            blocks.append((p, cech_vertical(sp, dst[p], C.diff(q - p),
                                            sign=1 if p % 2 == 0 else -1)))
        for t, blk in blocks:
            ro, co = doffs[t], soffs[p]
            for i, row in enumerate(blk):
                if row:
                    out[ro + i].update((co + c, v) for c, v in row.items())
    return out, sdim


def cech_hypercohomology_at(C, q, B):
    """dim H^q of the truncated total complex of the Cech bicomplex of a
    twisted periodic complex C."""
    F = C.ctx.ring.field
    d_in, n_in = cech_total_diff(C, q - 1, B)
    d_out, n = cech_total_diff(C, q, B)
    return n - sparse_rank(F, d_out, n) - sparse_rank(F, d_in, n_in)


def cech_hypercohomology(C, q, setup=None):
    """(dimension, stable flag) of H^q(C) by _stable_value."""
    return _stable_value(lambda B: cech_hypercohomology_at(C, q, B), setup)


# -- exact global sections ----------------------------------------------------


class GlobalSections:
    """Exact Gamma(X, O(n)) spaces with multiplication maps.

    Affine-graded mode: Gamma(O(n)) = R_n on the monomial basis.
    Projective mode: a per-degree saturation check (stable Cech H^0 dim
    equals dim R_n) enables the same fast path; degrees that fail it fall
    back to the Cech kernel representation (exact dimensions, but sections
    are not polynomials and no strict-morphism basis is extracted there).
    """

    def __init__(self, ctx, setup=None):
        self.ctx = ctx
        self.ring = ctx.ring
        self.setup = setup or CechSetup()
        self._saturated = {}
        self._kernels = {}

    # degree classification

    def saturated(self, n):
        if self.ctx.is_affine:
            return True
        if n not in self._saturated:
            dim, stable = cech_cohomology(self.ring, n, 0, self.setup)
            self._saturated[n] = bool(stable) and dim == self.ring.hilbert(n)
        return self._saturated[n]

    def _kernel(self, n):
        """(B, C^0 space, kernel basis matrix in C^0 coordinates) at a
        stable bound."""
        if n in self._kernels:
            return self._kernels[n]
        F = self.ring.field
        chosen = None
        for B in self.setup.schedule():
            sp0, d = _h0_diff(self.ring, n, B)
            if sp0.dim - sparse_rank(F, d, sp0.dim) == \
                    cech_cohomology_at(self.ring, n, 0, B + 1):
                chosen = (B, sp0, _kernel_of(F, d, sp0.dim))
                break
        if chosen is None:
            raise RuntimeError("Cech H^0 did not stabilize for twist %d" % n)
        self._kernels[n] = chosen
        return chosen

    def dim(self, n):
        if self.saturated(n):
            return self.ring.hilbert(n)
        return self._kernel(n)[2].ncols

    def monomial_path(self, degrees):
        """True if every degree in the list passes the saturation check."""
        return all(self.saturated(n) for n in degrees)

    # matrices

    def mult(self, p, n):
        """Gamma(O(n)) -> Gamma(O(n + deg p)), multiplication by p."""
        ring = self.ring
        F = ring.field
        p = ring.normal_form(p)
        d = max(p.total_degree(), 0)
        if self.saturated(n) and self.saturated(n + d):
            return ExactMatrix(F, ring.mult_matrix(p, n), ring.hilbert(n))
        B, sp0, K = self._kernel(n)
        B2, tp0, L = self._kernel(n + d)
        if B2 != B:
            # recompute the source kernel at the larger bound (bases embed)
            Bmax = max(B, B2)
            sp0, dK = _h0_diff(ring, n, Bmax)
            K = _kernel_of(F, dK, sp0.dim)
            tp0, dL = _h0_diff(ring, n + d, Bmax)
            L = _kernel_of(F, dL, tp0.dim)
        amb = cech_vertical(sp0, tp0, _single_entry_map(ring, p, n, n + d))
        cols = []
        for j in range(K.ncols):
            v = K.column(j)
            img = [F.of(sum(a * v[c] for c, a in row.items())) for row in amb]
            x = solve(L, img)
            if x is None:
                raise RuntimeError("section image left the section space "
                                   "(truncation too small)")
            cols.append(x)
        return ExactMatrix.from_columns(F, cols, L.ncols)

    def sheafmap_rows(self, f):
        """Gamma of a map of twist sums as sparse rows (one {column: value}
        dict per row) and its number of columns: block (r, c) is
        multiplication by f's entry (r, c)."""
        F = self.ring.field
        row_dims = [self.dim(b) for b in f.dst]
        col_dims = [self.dim(a) for a in f.src]
        row_offs = _offsets(row_dims)
        col_offs = _offsets(col_dims)
        out = [{} for _ in range(sum(row_dims))]
        for r, row in enumerate(f.entries):
            for c, p in enumerate(row):
                if p.is_zero():
                    continue
                blk = self.mult(p, f.src[c])
                if blk.nrows != row_dims[r] or blk.ncols != col_dims[c]:
                    raise ValueError("block (%d, %d) has wrong shape" % (r, c))
                _put_block(out, blk.rows, row_offs[r], col_offs[c], 1, F)
        return out, sum(col_dims)

    def sheafmap_matrix(self, f):
        """Gamma of a map of twist sums, as one dense block matrix."""
        rows, ncols = self.sheafmap_rows(f)
        return ExactMatrix.from_sparse_rows(self.ring.field, rows, ncols)


def _h0_diff(ring, n, B):
    """C^0 of O(n) at truncation B and the Cech differential out of it."""
    sp0 = CechSpace(ring, [n], 0, B)
    return sp0, cech_horizontal(sp0, CechSpace(ring, [n], 1, B))


def _kernel_of(field, rows, ncols):
    """Kernel basis of a sparse-row matrix (dense elimination)."""
    return kernel_basis(ExactMatrix.from_sparse_rows(field, rows, ncols))


def _offsets(dims):
    offs = []
    off = 0
    for d in dims:
        offs.append(off)
        off += d
    return offs


def _single_entry_map(ring, p, a, b):
    return SheafMap(ring, TwistSum([a]), TwistSum([b]), [[p]])


# -- vanishing thresholds -----------------------------------------------------


def vanishing_threshold(ctx, n_lo=None, n_hi=None, override=None, setup=None):
    """n0 with H^p(X, O(n)) = 0 for all p > 0, n >= n0.

    Exact for projective space; otherwise scanned with stability flags (the
    scan is heuristic evidence and refuses to answer when unstable or when
    no clean tail is visible).  Returns (n0, tag)."""
    if override is not None:
        return int(override), "override"
    ring = ctx.ring
    m = ring.nvars - 1
    if ring.is_polynomial_ring():
        return -m, "exact"
    if n_lo is None:
        n_lo = -2 * m - 2
    if n_hi is None:
        n_hi = 2
    table = {}
    for n in range(n_lo, n_hi + 1):
        for p in range(1, m + 1):
            dim, stable = cech_cohomology(ring, n, p, setup)
            if not stable:
                raise RuntimeError(
                    "Cech scan unstable at (n=%d, p=%d); supply an explicit "
                    "threshold override" % (n, p))
            table[(n, p)] = dim
    n0 = None
    for n in range(n_lo, n_hi + 1):
        if all(table[(nn, p)] == 0
               for nn in range(n, n_hi + 1) for p in range(1, m + 1)):
            n0 = n
            break
    if n0 is None:
        raise RuntimeError("no vanishing tail found in the scanned window; "
                           "supply an explicit threshold override")
    return n0, "scanned"
