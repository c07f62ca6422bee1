"""Line-bundle cohomology on X = Proj R, R = S/I: exact, by local
duality, and by bounded Cech complexes, the independent oracle; Cech
hypercohomology of twisted periodic complexes (MFs of W = 0, such as the
mapping complex); exact global-section spaces and vanishing thresholds.

Local duality: a minimal graded free resolution F of R over the
polynomial ring S on the same N variables, built once per ring, gives the
local cohomology of R at the irrelevant ideal m exactly in every degree:
H^i_m(R)_n is dual to Ext^{N-i}_S(R, S(-N))_{-n}, the homology of the
dual complex Hom(F, S) at Hom(F_{N-i}, S) in degree -n-N.  From it
H^p(X, O(n)) = H^{p+1}_m(R)_n for p >= 1, and
h^0(O(n)) = dim R_n - h^0_m(R)_n + h^1_m(R)_n.  The Castelnuovo-Mumford
regularity reg R = max_i (b_i - i), b_i the largest degree of an i-th
syzygy, bounds where all of it vanishes: H^i_m(R)_n = 0 for
n > reg R - i (Eisenbud, The Geometry of Syzygies, ch. 4 and app. 1).
Vanishing thresholds and the saturation check Gamma(O(n)) = R_n are
read off this, with no Cech complex, and so is the Cech truncation
B = max(1, reg R + 1 - n) at which the kernel out of C^0 is exactly
Gamma(O(n)) on a degree where Gamma(O(n)) != R_n (the proof is in
GlobalSections).

Cech truncation trick: the piece of the localized module O(a)(U_S) with
exponents >= -B on the inverted variables is x_S^{-B} * R_{a + B*|S|}
(standard monomials), so restriction maps are multiplication by x_i^B and
the whole truncated Cech bicomplex is assembled from normal-form
multiplication matrices.  d^2 = 0 holds exactly because normal forms are
multiplicative.

One truncation is exact on P^m, R = k[x_0, ..., x_m].  The truncated
Cech complex of O(a) is a subcomplex of the full one, and both split by
Laurent monomial x^alpha, sum alpha = a, because restriction by x_i^B
keeps alpha fixed.  The alpha-part of C^p is spanned by the subsets S,
|S| = p + 1, containing N = {i : alpha_i < 0}; in the truncated complex
the alpha-part is this full part when min alpha >= -B and 0 otherwise.
The full alpha-part is the cochain complex of the faces of a simplex
that contain N: acyclic when N is nonempty and proper, k in Cech degree
0 when N is empty (then min alpha >= 0 >= -B, so it is always kept),
and k in degree m when N is everything.  In that last case every
alpha_i <= -1, so alpha_i = a - (the other m entries) >= a + m.  So the
truncation at B computes H^*(P^m, O(a)) exactly once B >= -a - m, and
cech_cohomology evaluates once, at B* = max(1, -n - m).  For a twisted
periodic complex C, the quotient Q = (full Cech bicomplex) / (truncated
one) has, in the row of each term C^k, cohomology only in Cech degree m,
and only from twists a of C^k with -a - m > B: by the splitting, the
row is the sum, over the twists a, of the full alpha-parts of O(a) with
min alpha < -B, and such a part has cohomology only when every
alpha_i < 0, in degree m, and then -B > min alpha >= a + m.  Filtering
Q by k, the spectral sequence makes H^j(Tot Q) a subquotient of that
cohomology of the row C^{j-m}.  When it vanishes for j = q - 1 and
j = q, the long exact sequence of 0 -> truncated -> full -> Q -> 0 makes
H^q of the truncated total complex the hypercohomology.  So H^q(C) is
exact at B* = max(1, -m - a), a the least twist of C^{q-m-1} and
C^{q-m}, and cech_hypercohomology evaluates once there.

A quotient ring has no such splitting in general.  There the oracle
compares the values at B and B + 1 and doubles B until they agree
(_stable_value), starting no lower than a bound read off reg R;
agreement is evidence, not proof, and the stable flag says whether it
was found.

The differentials are very sparse (restriction is a monomial shift), so
they are assembled as sparse rows, one {column: value} dict per target
row, and only their ranks are computed, by sparse elimination.  Each
block is a cached multiplication matrix of the ring, signs included
(multiplication by -x_i^B or -f), and each truncated differential is
assembled in one pass: cech_horizontal and cech_vertical list their
blocks, and their callers hand all of them to one sparse_blocks call.
The rank of the horizontal differential of O(n) out of C^p at truncation
B is memoized on the ring (GradedRing.cech_ranks), so H^p and H^{p+1}
share one elimination.
"""

from functools import cached_property
from itertools import accumulate, combinations

from .linalg import (ExactMatrix, homology_dim, kernel_basis, sparse_blocks,
                     sparse_matmul, sparse_rank, sparse_transpose)
from .mf import SheafMap, TwistSum
from .modules import minimal_columns, syzygies
from .poly import Poly
from .ring import GradedRing, binom


# truncations the Cech oracle tries on quotient rings (P^m takes one
# proven truncation): from no lower than DEFAULT_B_START, doubling up to
# DEFAULT_B_MAX
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


def _restrictions(ring, B):
    """(x_i^B, -x_i^B) for each variable x_i."""
    return [[Poly.monomial(ring.field, ring.nvars,
                           tuple(B if k == i else 0 for k in range(ring.nvars)),
                           c) for c in (1, -1)]
            for i in range(ring.nvars)]


def truncations(start):
    """The truncations B the Cech oracle tries on a quotient ring,
    doubling from start up to DEFAULT_B_MAX, read at each call; a start
    above the cap is tried alone."""
    yield start
    while 2 * start <= DEFAULT_B_MAX:
        start *= 2
        yield start


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


def cech_horizontal(src_space, dst_space):
    """The nonzero blocks of the Cech differential C^p -> C^{p+1} (same
    twist list), as a list of (r, c, rows) in the CechSpace block layout:
    on each twist summand, the face S of T = S + {i} maps by x_i^B,
    signed (-1)^(position of i in T).  A block with no rows is skipped:
    x_i^B = 0 in R (x_i nilpotent), or a target piece of dimension 0."""
    ring = src_space.ring
    nt = len(src_space.twists)
    shift = src_space.B * (src_space.p + 1)
    src_index = {S: k for k, S in enumerate(src_space.subsets)}
    restrict = _restrictions(ring, src_space.B)
    blocks = []
    for tk, T in enumerate(dst_space.subsets):
        faces = sorted((src_index[T[:pos] + T[pos + 1:]], pos, i)
                       for pos, i in enumerate(T))
        for t, a in enumerate(src_space.twists):
            blocks += [(tk * nt + t, sk * nt + t, blk) for sk, pos, i in faces
                       if (blk := ring.mult_matrix(restrict[i][pos % 2],
                                                   a + shift))]
    return blocks


def cech_vertical(src_space, dst_space, sheaf_map, sign=1):
    """The nonzero blocks of a map of twist sums times sign (+1 or -1),
    applied on each localized piece (same p), as a list of (r, c, rows)
    in the CechSpace block layout."""
    ring = src_space.ring
    shift = src_space.B * (src_space.p + 1)
    ns, nd = len(src_space.twists), len(dst_space.twists)
    entries = [(tr, tc, ring.mult_matrix(p if sign > 0 else -p,
                                         src_space.twists[tc] + shift))
               for tr, row in enumerate(sheaf_map.rows)
               for tc, p in row.items()]
    return [(s * nd + tr, s * ns + tc, rows)
            for s in range(len(src_space.subsets))
            for tr, tc, rows in entries]


def _horizontal_diff(ring, n, p, B):
    """C^p of O(n) at truncation B and the Cech differential out of it, as
    (sparse rows, ncols)."""
    src, dst = CechSpace(ring, [n], p, B), CechSpace(ring, [n], p + 1, B)
    return src, sparse_blocks(dst.block_dims, src.block_dims,
                              cech_horizontal(src, dst))


def _horizontal_rank(ring, n, p, B):
    """Rank of the Cech differential of O(n) out of C^p at truncation B
    (0 outside 0 <= p < nvars - 1), memoized in ring.cech_ranks."""
    if not 0 <= p < ring.nvars - 1:
        return 0
    key = (n, p, B)
    if key not in ring.cech_ranks:
        ring.cech_ranks[key] = sparse_rank(
            ring.field, *_horizontal_diff(ring, n, p, B)[1])
    return ring.cech_ranks[key]


def cech_cohomology_at(ring, n, p, B):
    """dim H^p of the truncated Cech complex of O(n) at truncation B."""
    if not 0 <= p < ring.nvars:
        return 0
    return CechSpace(ring, [n], p, B).dim - _horizontal_rank(ring, n, p, B) \
        - _horizontal_rank(ring, n, p - 1, B)


def _stable_value(value_at, start):
    """(dimension, stable flag) for the Cech oracle on a quotient ring,
    where no truncation is proven exact: the values at consecutive
    truncations B, B+1 must agree; B doubles from start until they do or
    the cap is hit.  Two equal values are evidence, not proof, which is
    why the stable flag is reported."""
    last = None
    for B in truncations(start):
        v1 = value_at(B)
        v2 = value_at(B + 1)
        if v1 == v2:
            return v1, True
        last = v2
    return last, False


def cech_cohomology(ring, n, p):
    """(dimension, stable flag) of H^p(O(n)).

    On P^m one evaluation at B* = max(1, -n - m), exact by the proof in
    the module docstring, so the flag is True.  On a quotient ring by
    _stable_value, starting no lower than reg R + 1 - n, from which every
    truncated piece x_S^-B R_{n + B|S|}, S nonempty, lies in degrees
    above reg R, where Gamma(O(t)) = R_t; below it the values can agree
    on 0 while h^1 is not 0."""
    if ring.is_polynomial_ring():
        B = max(1, -n - (ring.nvars - 1))
        return cech_cohomology_at(ring, n, p, B), True
    start = max(DEFAULT_B_START, local_duality(ring).regularity + 1 - n)
    return _stable_value(lambda B: cech_cohomology_at(ring, n, p, B), start)


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
    # offsets of each Cech degree's blocks in the concatenated layout
    r0 = [0, *accumulate(len(sp.block_dims) for sp in dst)]
    c0 = [0, *accumulate(len(sp.block_dims) for sp in src)]
    blocks = []
    for t, sp in enumerate(dst):
        if t and src[t - 1].dim and sp.dim:
            blocks += [(r0[t] + r, c0[t - 1] + c, rows) for r, c, rows
                       in cech_horizontal(src[t - 1], sp)]
        if src[t].dim and sp.dim:
            blocks += [(r0[t] + r, c0[t] + c, rows) for r, c, rows
                       in cech_vertical(src[t], sp, C.diff_at(q - t),
                                        sign=1 if t % 2 == 0 else -1)]
    return sparse_blocks([b for sp in dst for b in sp.block_dims],
                         [b for sp in src for b in sp.block_dims], blocks)


def cech_hypercohomology_at(C, q, B):
    """dim H^q of the truncated total complex of the Cech bicomplex of a
    twisted periodic complex C."""
    return homology_dim(C.ctx.ring.field, cech_total_diff(C, q, B),
                        cech_total_diff(C, q - 1, B))


def cech_hypercohomology(C, q):
    """(dimension, stable flag) of H^q(C).

    On P^m one evaluation at B* = max(1, -m - a), a the least twist of
    C^{q-m-1} and C^{q-m}, exact by the proof in the module docstring
    (B* = 1 when both are empty: C is then 0), so the flag is True.

    On a quotient ring by _stable_value, starting no lower than
    reg R + 1 - a, a the least twist of C^{q-1} and C^q, from which every
    truncated piece x_S^-B R_{a + B|S|} of those terms, S nonempty, lies
    in degrees above reg R, where Gamma(O(n)) = R_n.  Below that start
    the values can agree on a plateau under the answer: on
    k[x,y,z]/(xy(x-y)) they read 0, 1, 3, 3, 3, 1, 1, 1 at B = 1, ..., 8
    for a Hom of dimension 1."""
    ring = C.ctx.ring
    if ring.is_polynomial_ring():
        m = ring.nvars - 1
        twists = [*C.component_at(q - m - 1), *C.component_at(q - m)]
        B = max(1, -m - min(twists, default=0))
        return cech_hypercohomology_at(C, q, B), True
    twists = [*C.component_at(q - 1), *C.component_at(q)]
    start = max(DEFAULT_B_START,
                local_duality(ring).regularity + 1 - min(twists, default=0))
    return _stable_value(lambda B: cech_hypercohomology_at(C, q, B), start)


# -- local duality ------------------------------------------------------------


class LocalDuality:
    """The minimal graded free resolution S = F_0 <- F_1 <- ... of a ring
    R = S/I over the polynomial ring S on its variables, with the local
    cohomology of R read off the dual complex Hom(F, S).

    The resolution starts at a minimal set of the ideal's generators
    (modules.minimal_columns) and iterates modules.syzygies until a step
    is zero; free[i] holds the twists of F_i, and duals[i - 1] is the
    transpose of F_i -> F_{i-1}, a map Hom(F_{i-1}, S) -> Hom(F_i, S)."""

    def __init__(self, ring):
        S = GradedRing(ring.field, ring.variables)
        gens = ring.ideal_gens
        d = minimal_columns(SheafMap.from_rows(
            S, TwistSum(-g.total_degree() for g in gens), TwistSum([0]),
            [dict(enumerate(gens))]))
        maps = []
        while d.src.rank:
            maps.append(d)
            d = syzygies(d)
        # the ring itself is not kept: it holds this object
        self.S, self.nvars = S, ring.nvars
        self.free = [TwistSum([0])] + [d.src for d in maps]
        self.duals = [SheafMap.from_rows(
            S, TwistSum(-b for b in d.dst), TwistSum(-a for a in d.src),
            sparse_transpose(d.rows, d.src.rank)) for d in maps]
        # an i-th syzygy of degree b spans a summand S(-b) of F_i
        self.regularity = max(-a - i for i, F in enumerate(self.free)
                              for a in F)
        self._local = {}

    def local_dim(self, i, n):
        """dim H^i_m(R)_n = dim Ext^{N-i}_S(R, S(-N))_{-n}, N the number of
        variables: the homology of Hom(F, S) at Hom(F_{N-i}, S) in degree
        -n-N, memoized."""
        if (i, n) not in self._local:
            S, N = self.S, self.nvars
            j, u = N - i, -n - N
            dim = 0
            if 0 <= j < len(self.free):
                spot = sum(S.hilbert(u - a) for a in self.free[j])
                d_out = S.piece_matrix(self.duals[j], u) \
                    if j < len(self.duals) else ([], spot)
                d_in = S.piece_matrix(self.duals[j - 1], u) if j else ([], 0)
                dim = homology_dim(S.field, d_out, d_in)
            self._local[i, n] = dim
        return self._local[i, n]


def local_duality(ring):
    """The LocalDuality of ring, built on first use and held on the ring."""
    if ring.duality is None:
        ring.duality = LocalDuality(ring)
    return ring.duality


def h_duality(ring, n, p):
    """dim H^p(X, O(n)) on X = Proj R, for p >= 0, by local duality."""
    local = local_duality(ring).local_dim
    if p == 0:
        return ring.hilbert(n) - local(0, n) + local(1, n)
    return local(p + 1, n)


# -- exact global sections ----------------------------------------------------


class GlobalSections:
    """Exact Gamma(X, O(n)) spaces with multiplication maps.

    Affine-graded mode: Gamma(O(n)) = R_n on the monomial basis.
    Projective space P^m, m >= 1: Gamma(O(n)) = R_n for every n by theorem
    (Hartshorne III.5.1).  Other projective rings (quotients, and the point
    P^0, where Gamma(O(n)) = k for n < 0): Gamma(O(n)) = R_n exactly when
    H^0_m(R)_n = H^1_m(R)_n = 0, read off the ring's LocalDuality, which
    enables the same fast path.

    A degree n that fails it is represented by the kernel of the Cech
    differential out of C^0 at the truncation B = max(1, reg R + 1 - n):
    exact dimensions, but sections are not polynomials and no
    strict-morphism basis is extracted there.  That kernel is Gamma(O(n)),
    because every degree t >= reg R + 1 is saturated (H^i_m(R)_t = 0 for
    t > reg R - i) and n + B >= reg R + 1:
    - onto: a section s gives the vector (x_i^B s), with entries in
      Gamma(O(n + B)) = R_{n+B}; it meets the kernel equations
      x_j^B a_i = x_i^B a_j, since both sides are x_i^B x_j^B s in
      Gamma(O(n + 2B)) = R_{n+2B};
    - one-to-one: if a kernel vector (a_i) gives the zero section, each
      a_i is killed by a power of x_i, and then, by the kernel equations,
      by a power of every variable; so a_i lies in H^0_m(R)_{n+B} = 0.
    A truncation that serves n serves every degree above n too.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.ring = ctx.ring
        self._kernels = {}
        # filled by homcat's stabilization, which builds each value once:
        # j -> (P(j), augmentation to O), the truncated Koszul complex;
        # (E, j) -> Tot(P(j) tensor E), shared by hom_H and stabilize;
        # (E, j) -> epsilon: Tot(P(j) tensor E) -> E, built only when
        # stabilize is asked for it.  Keyed on E itself, which the key
        # keeps alive.
        self.koszul = {}
        self.stabilized = {}
        self.augmentations = {}

    # degree classification

    def saturated(self, n):
        """Whether Gamma(O(n)) = R_n."""
        if self.ctx.is_affine or (self.ring.is_polynomial_ring()
                                  and self.ring.nvars >= 2):
            return True
        local = local_duality(self.ring).local_dim
        return not (local(0, n) or local(1, n))

    def _truncation(self, n):
        """B = max(1, reg R + 1 - n), at which the Cech C^0 kernel of O(n)
        is Gamma(O(n)) (see the class docstring)."""
        return max(1, local_duality(self.ring).regularity + 1 - n)

    def _kernel(self, n, B):
        """(C^0 space, kernel basis in C^0 coordinates) of O(n) at
        truncation B, cached per (n, B)."""
        if (n, B) not in self._kernels:
            sp0, d = _horizontal_diff(self.ring, n, 0, B)
            self._kernels[n, B] = sp0, kernel_basis(self.ring.field, *d)
        return self._kernels[n, B]

    def dim(self, n):
        if self.saturated(n):
            return self.ring.hilbert(n)
        return len(self._kernel(n, self._truncation(n))[1])

    @cached_property
    def threshold(self):
        """vanishing_threshold(ctx) as (n0, tag), computed once per
        context."""
        return vanishing_threshold(self.ctx)

    def monomial_path(self, degrees):
        """True if every degree passes the saturation check, each distinct
        degree tested once."""
        return all(self.saturated(n) for n in set(degrees))

    # matrices

    def mult(self, p, n):
        """Gamma(O(n)) -> Gamma(O(n + deg p)), multiplication by p, as
        sparse rows (columns in range(self.dim(n))); on saturated degrees
        it is the cached GradedRing.mult_matrix, not to be modified, and
        otherwise it is read off the Cech kernels of both degrees at the
        source degree's truncation, which serves the target degree too.
        An image that leaves the target kernel is a fault of assembly,
        checked as HomSpace checks its m_out m_in product."""
        ring = self.ring
        F = ring.field
        p = ring.normal_form(p)
        d = max(p.total_degree(), 0)
        if self.saturated(n) and self.saturated(n + d):
            return ring.mult_matrix(p, n)
        B = self._truncation(n)
        sp0, K = self._kernel(n, B)
        tp0, L = self._kernel(n + d, B)
        amb, _ = sparse_blocks(tp0.block_dims, sp0.block_dims, cech_vertical(
            sp0, tp0, _single_entry_map(ring, p, n, n + d)))
        # the image of each source section, in target C^0 coordinates
        imgs = sparse_transpose(
            sparse_matmul(F, amb, sparse_transpose(K, sp0.dim)), len(K))
        # each vector of L is 1 at its own free column, its largest key
        # (its other entries sit at pivots left of it), and 0 at the other
        # free columns, so an image's coordinates are read off there
        free = [max(v) for v in L]
        coords = [{i: img[f] for i, f in enumerate(free) if f in img}
                  for img in imgs]
        if sparse_matmul(F, coords, L) != imgs:
            raise RuntimeError("section image left the section space")
        return sparse_transpose(coords, len(L))

    def sheafmap_rows(self, f):
        """Gamma of a map of twist sums as (sparse rows, ncols): block
        (r, c) is multiplication by f's entry (r, c); only the nonzero
        entries are visited.  When every twist of f is saturated, Gamma is
        R on them and this is ring.piece_matrix(f, 0); otherwise each
        block is self.mult."""
        if self.monomial_path([*f.src, *f.dst]):
            return self.ring.piece_matrix(f, 0)
        blocks = ((r, c, self.mult(p, f.src[c]))
                  for r, row in enumerate(f.rows) for c, p in row.items())
        return sparse_blocks([self.dim(b) for b in f.dst],
                             [self.dim(a) for a in f.src], blocks)

    def sheafmap_matrix(self, f):
        """Gamma of a map of twist sums, as one dense block matrix: a view
        for tests, which the engine does not use."""
        rows, ncols = self.sheafmap_rows(f)
        return ExactMatrix.from_sparse_rows(self.ring.field, rows, ncols)


def _single_entry_map(ring, p, a, b):
    return SheafMap(ring, TwistSum([a]), TwistSum([b]), [[p]])


# -- vanishing thresholds -----------------------------------------------------


def vanishing_threshold(ctx):
    """n0 with H^p(X, O(n)) = 0 for all p > 0 and n >= n0, as (n0, tag).

    Projective space P^m: the closed form -m, tagged "exact".  Any other
    ring, by local duality, tagged "duality": vanishing for n >= reg R - 1
    is a theorem, and from there n0 steps down while every H^p of the next
    twist down is 0, to no lower than -2m-2."""
    ring = ctx.ring
    m = ring.nvars - 1
    if ring.is_polynomial_ring():
        return -m, "exact"
    n0 = local_duality(ring).regularity - 1
    while n0 > -2 * m - 2 and not any(h_duality(ring, n0 - 1, p)
                                      for p in range(1, m + 1)):
        n0 -= 1
    return n0, "duality"
