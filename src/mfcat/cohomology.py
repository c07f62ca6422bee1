"""Bounded Cech cohomology on Proj R and hypercohomology of twisted
periodic complexes (MFs of W = 0, such as the mapping complex), plus exact
global-section spaces and vanishing thresholds.

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

from functools import cached_property
from itertools import combinations

from .linalg import (ExactMatrix, homology_dim, kernel_basis, solve,
                     sparse_blocks, sparse_matmul, sparse_transpose)
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
        # block s * len(twists) + t: twist t on the open of subset s
        self.block_dims = [ring.hilbert(a + B * len(S))
                           for S in self.subsets for a in self.twists]
        self.dim = sum(self.block_dims)


def _signed(field, rows, sign):
    """Sparse rows times sign (+1 or -1), as new rows when negated."""
    if sign > 0:
        return rows
    return [{c: field.neg(v) for c, v in row.items()} for row in rows]


def cech_horizontal(src_space, dst_space):
    """The Cech differential C^p -> C^{p+1} (same twist list), as
    (sparse rows, ncols): on each twist summand, the face S of T = S + {i}
    maps by x_i^B, signed (-1)^(position of i in T)."""
    ring = src_space.ring
    B = src_space.B
    nt = len(src_space.twists)
    shift = B * (src_space.p + 1)
    src_index = {S: k for k, S in enumerate(src_space.subsets)}

    def blocks():
        for tk, T in enumerate(dst_space.subsets):
            faces = sorted((src_index[T[:pos] + T[pos + 1:]], pos, i)
                           for pos, i in enumerate(T))
            for t, a in enumerate(src_space.twists):
                for sk, pos, i in faces:
                    yield tk * nt + t, sk * nt + t, _signed(
                        ring.field,
                        ring.mult_matrix(_xs_power(ring, (i,), B), a + shift),
                        -1 if pos % 2 else 1)

    return sparse_blocks(dst_space.block_dims, src_space.block_dims, blocks())


def cech_vertical(src_space, dst_space, sheaf_map, sign=1):
    """Apply a map of twist sums on each localized piece (same p), as
    (sparse rows, ncols)."""
    ring = src_space.ring
    shift = src_space.B * (src_space.p + 1)
    ns, nd = len(src_space.twists), len(dst_space.twists)
    blocks = ((s * nd + tr, s * ns + tc, _signed(
        ring.field, ring.mult_matrix(p, src_space.twists[tc] + shift), sign))
        for s in range(len(src_space.subsets))
        for tr, row in enumerate(sheaf_map.rows)
        for tc, p in row.items())
    return sparse_blocks(dst_space.block_dims, src_space.block_dims, blocks)


def cech_cohomology_at(ring, n, p, B):
    """dim H^p of the truncated Cech complex of O(n) at truncation B."""
    m = ring.nvars - 1
    if p < 0 or p > m:
        return 0
    cur = CechSpace(ring, [n], p, B)
    d_out = ([], cur.dim) if p == m else \
        cech_horizontal(cur, CechSpace(ring, [n], p + 1, B))
    d_in = ([], 0) if p == 0 else \
        cech_horizontal(CechSpace(ring, [n], p - 1, B), cur)
    return homology_dim(ring.field, d_out, d_in)


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
    the CechSpace of the term C^{n-p} in Cech degree p, for each p."""
    ring = C.ctx.ring
    return [CechSpace(ring, list(C.component_at(n - p).twists), p, B)
            for p in range(ring.nvars)]


def cech_total_diff(C, q, B):
    """The differential Tot^q -> Tot^{q+1} of the truncated Cech bicomplex
    of a twisted periodic complex C, an MF of W = 0, as (sparse rows,
    ncols).  The horizontal Cech maps and the vertical maps of C, signed
    (-1)^p, fill disjoint blocks.  ValueError if W != 0: C is then no
    complex."""
    if not C.ctx.W.is_zero():
        raise ValueError("the Cech total complex needs an MF of W = 0")
    src, dst = _total_space(C, q, B), _total_space(C, q + 1, B)

    def blocks():
        for t, sp in enumerate(dst):
            if t and src[t - 1].dim and sp.dim:
                yield t, t - 1, cech_horizontal(src[t - 1], sp)[0]
            if src[t].dim and sp.dim:
                yield t, t, cech_vertical(src[t], sp, C.diff_at(q - t),
                                          sign=1 if t % 2 == 0 else -1)[0]

    return sparse_blocks([sp.dim for sp in dst], [sp.dim for sp in src],
                         blocks())


def cech_hypercohomology_at(C, q, B):
    """dim H^q of the truncated total complex of the Cech bicomplex of a
    twisted periodic complex C."""
    return homology_dim(C.ctx.ring.field, cech_total_diff(C, q, B),
                        cech_total_diff(C, q - 1, B))


def cech_hypercohomology(C, q, setup=None):
    """(dimension, stable flag) of H^q(C) by _stable_value."""
    return _stable_value(lambda B: cech_hypercohomology_at(C, q, B), setup)


# -- exact global sections ----------------------------------------------------


class GlobalSections:
    """Exact Gamma(X, O(n)) spaces with multiplication maps.

    Affine-graded mode: Gamma(O(n)) = R_n on the monomial basis.
    Projective space P^m, m >= 1: Gamma(O(n)) = R_n for every n by theorem
    (Hartshorne III.5.1), so no degree is scanned.  Other projective rings
    (quotients, and the point P^0, where Gamma(O(n)) = k for n < 0): a
    per-degree saturation check (stable Cech H^0 dim equals dim R_n)
    enables the same fast path; degrees that fail it fall back to the Cech
    kernel representation (exact dimensions, but sections are not
    polynomials and no strict-morphism basis is extracted there).
    """

    def __init__(self, ctx, setup=None):
        self.ctx = ctx
        self.ring = ctx.ring
        self.setup = setup or CechSetup()
        self._saturated = {}
        self._kernels = {}
        # (E, j) -> (Tot(P(j) tensor E), epsilon), filled by
        # homcat.stabilize; keyed on E itself, which the key keeps alive
        self.stabilized = {}

    # degree classification

    def saturated(self, n):
        if self.ctx.is_affine or (self.ring.is_polynomial_ring()
                                  and self.ring.nvars >= 2):
            return True
        if n not in self._saturated:
            dim, stable = cech_cohomology(self.ring, n, 0, self.setup)
            self._saturated[n] = bool(stable) and dim == self.ring.hilbert(n)
        return self._saturated[n]

    def _kernel(self, n):
        """(B, C^0 space, kernel basis in C^0 coordinates) at a stable
        bound."""
        if n in self._kernels:
            return self._kernels[n]
        F = self.ring.field
        chosen = None
        for B in self.setup.schedule():
            sp0, d = _h0_diff(self.ring, n, B)
            if homology_dim(F, d, ([], 0)) == \
                    cech_cohomology_at(self.ring, n, 0, B + 1):
                chosen = (B, sp0, kernel_basis(F, *d))
                break
        if chosen is None:
            raise RuntimeError("Cech H^0 did not stabilize for twist %d" % n)
        self._kernels[n] = chosen
        return chosen

    def dim(self, n):
        if self.saturated(n):
            return self.ring.hilbert(n)
        return len(self._kernel(n)[2])

    @cached_property
    def threshold(self):
        """vanishing_threshold(ctx) as (n0, tag), scanned once per context."""
        return vanishing_threshold(self.ctx)

    def monomial_path(self, degrees):
        """True if every degree in the list passes the saturation check."""
        return all(self.saturated(n) for n in degrees)

    # matrices

    def mult(self, p, n):
        """Gamma(O(n)) -> Gamma(O(n + deg p)), multiplication by p, as
        sparse rows (columns in range(self.dim(n))); on saturated degrees
        it is the cached GradedRing.mult_matrix, not to be modified."""
        ring = self.ring
        F = ring.field
        p = ring.normal_form(p)
        d = max(p.total_degree(), 0)
        if self.saturated(n) and self.saturated(n + d):
            return ring.mult_matrix(p, n)
        B, sp0, K = self._kernel(n)
        B2, tp0, L = self._kernel(n + d)
        if B2 != B:
            # recompute the source kernel at the larger bound (bases embed)
            Bmax = max(B, B2)
            sp0, dK = _h0_diff(ring, n, Bmax)
            K = kernel_basis(F, *dK)
            tp0, dL = _h0_diff(ring, n + d, Bmax)
            L = kernel_basis(F, *dL)
        amb, _ = cech_vertical(sp0, tp0, _single_entry_map(ring, p, n, n + d))
        # the image of each source section, in target C^0 coordinates
        imgs = sparse_transpose(
            sparse_matmul(F, amb, sparse_transpose(K, sp0.dim)), len(K))
        L_rows = sparse_transpose(L, tp0.dim)
        out = [{} for _ in L]
        for j, img in enumerate(imgs):
            x = solve(F, L_rows, len(L), img)
            if x is None:
                raise RuntimeError("section image left the section space "
                                   "(truncation too small)")
            for i, a in x.items():
                out[i][j] = a
        return out

    def sheafmap_rows(self, f):
        """Gamma of a map of twist sums as (sparse rows, ncols): block
        (r, c) is multiplication by f's entry (r, c); only the nonzero
        entries are visited."""
        blocks = ((r, c, self.mult(p, f.src[c]))
                  for r, row in enumerate(f.rows) for c, p in row.items())
        return sparse_blocks([self.dim(b) for b in f.dst],
                             [self.dim(a) for a in f.src], blocks)

    def sheafmap_matrix(self, f):
        """Gamma of a map of twist sums, as one dense block matrix: a view
        for tests, which the engine does not use."""
        rows, ncols = self.sheafmap_rows(f)
        return ExactMatrix.from_sparse_rows(self.ring.field, rows, ncols)


def _h0_diff(ring, n, B):
    """C^0 of O(n) at truncation B and the Cech differential out of it."""
    sp0 = CechSpace(ring, [n], 0, B)
    return sp0, cech_horizontal(sp0, CechSpace(ring, [n], 1, B))


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
