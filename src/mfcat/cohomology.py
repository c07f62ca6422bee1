"""Line-bundle cohomology on X = Proj R, R = S/I: exact, by local
duality, and by Cech complexes, the independent oracle; Cech
hypercohomology of twisted periodic complexes (MFs of W = 0, such as the
mapping complex); exact global-section spaces and vanishing thresholds.
On projective space the Cech oracle reads the minimal model, with no
truncation; on any other ring, one proven truncation of the Cech
complex, which stays on P^m as the reference.

Minimal model on P^m, R = S = k[x_0, ..., x_m]: the full Cech complex of
O(a), the localizations S_{x_T} over the faces T (nonempty subsets of the
vertices 0..m) in degree a, is Z^{m+1}-graded (the proof of Hartshorne,
Algebraic Geometry, III.5.1).  In a multidegree alpha with negative
support J = {i : alpha_i < 0} it is k x^alpha e_T over the faces T
containing J, with d e_T = sum over i not in T of (-1)^(position of i in
T + i) e_{T+i}.  For J = all vertices it is the top face alone: H^m, the
inverse monomials x^-gamma (gamma >= 1), written as x^(gamma - 1) in
S_{-a-m-1}, where i = p = 1 and h = 0.  Otherwise let v be the least vertex with alpha_v >= 0 and
h e_T = (-1)^(position of v in T) e_{T-v} for v in T and T - v nonempty,
else 0.  For J = {} (v = 0) let i send x^alpha to x^alpha on every face
{j} and p read the face {0}; for other J, i = p = 0.  Then
dh + hd = 1 - ip, pi = 1 and hi = ph = hh = 0, a check face by face: the
signs of d h e_T and h d e_T cancel on every face other than T.  So the
Cech complex of each term of C retracts onto H^0 + H^m.  The total
differential of the Cech bicomplex of C adds the perturbation d_v,
(-1)^p times C's map in Cech degree p.  h lowers p by one and d_v keeps
it, so (d_v h)^(m+1) = 0, and the homological perturbation lemma
(Crainic, "On the perturbation lemma, and deformations",
arXiv:math/0403266, with his homotopy -h) makes the model
Tot^n = H^0(C^n) + H^m(C^{n-m}), with differential
sum_k (-1)^k p (d_v h)^k d_v i, homotopy equivalent to the total
complex.  p is 0 outside Cech degrees 0 and m, so for m >= 1 only k = 0
and k = m are left:
- H^0(C^n) -> H^0(C^{n+1}): C's map on polynomials, the cached
  mult_matrix blocks;
- H^m(C^{n-m}) -> H^m(C^{n-m+1}): (-1)^m C's map on inverse
  polynomials; the coefficient of x^-gamma' in f x^-gamma is that of
  x^(gamma-1) in f x^(gamma'-1), so the block of an entry f into O(b) is
  the transpose of mult_matrix(f, -b - m - 1);
- H^m(C^{n-m}) -> H^0(C^{n+1}), the connecting map p (d_v h)^m d_v i,
  computed on Laurent monomials (_connecting).  Its sign (-1)^m is
  dropped: negating every H^m summand is an isomorphism of the model that
  negates these blocks alone.
On P^0 (m = 0) k = 0 alone, and p sends its terms to both summands.
Every entry is exact, no truncation is read, and a term O(a) takes
dim S_a + dim S_{-a-m-1}, binomials, so a line bundle, the one-term
complex O(a), is answered by its binomial dimension.

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
read off this, with no Cech complex.

Cech truncation trick (quotient rings, and the reference on P^m): the
piece of the localized module O(a)(U_S) with
exponents >= -B on the inverted variables is x_S^{-B} * R_{a + B*|S|}
(standard monomials), so restriction maps are multiplication by x_i^B and
the whole truncated Cech bicomplex is assembled from normal-form
multiplication matrices.  d^2 = 0 holds exactly because normal forms are
multiplicative.

One truncation is exact on every ring (cech_truncation):
B*(R, a) = max(1, 1 - a - N + b), b the largest degree of a generator of
any F_j above (b = 0 on P^m, where B* = max(1, -a - m)).  Proof:
- The truncated Cech complex of O(a) at B is K^{>=1}(x_0^B, ..., x_m^B;
  R)_a shifted by one: C^p is the Koszul term K^{p+1}, the sum over
  |S| = p + 1 of R(B|S|).  r/x_S^B |-> r/x_S^B maps K(x^B; R) into the
  full Cech complex C(R) (with C^0 = R), which is the direct limit of
  the K(x^B; R) over B and has cohomology H^*_m(R) (Brodmann-Sharp,
  Local Cohomology, ch. 5).  To show: this natural map is an
  isomorphism on H^i in degree a for every i once B >= B*(R, a).
- K(x^B; -) and C(-) are exact functors, so applied to the resolution
  F -> R they give double complexes whose total complexes compute
  K(x^B; R) and C(R), with the map between them.  On a free module
  S(-c) each has cohomology only in degree N, S/(x^B)(NB - c) and
  H^N_m(S)(-c), and the map is r |-> r/(x_0 ... x_m)^B.  The spectral
  sequences of the filtration by j then have one nonzero row, so the
  map on H^i in degree a is the map on H_{N-i} of the complexes
  (F (x) S/(x^B))(NB)_a -> H^N_m(F)_a.
- On a summand S(-c) of F_j, c <= b, that map sends x^beta,
  0 <= beta_i < B, to x^(beta - B): one-to-one, and onto unless some
  x^-alpha, every alpha_i >= 1, sum alpha = c - a, has an alpha_i > B,
  that is unless c - a - N >= B.  So once B > b - a - N it is an
  isomorphism of complexes in degree a, term by term, and so on
  homology.  (In dimensions alone: the left side is
  Tor^S_{N-i}(S/(x^B), R)_{a+NB}, which Matlis duality over the
  Gorenstein ring S/(x^B), of socle degree N(B - 1), turns into the
  homology of Hom(F, S) (x) S/(x^B) in degree -a - N; that equals the
  homology of Hom(F, S) which LocalDuality reads once b - a - N < B.)
- So H^p of the truncated complex is H^{p+1}_m(R)_a = H^p(X, O(a)) for
  p >= 1, and its H^0, the kernel out of C^0, is Gamma(O(a)): apply the
  five lemma to 0 -> H^0 -> R_a -> Z^1 -> H^1 -> 0 for K(x^B; R) and
  for C(R), whose middle map is the identity.  B* falls as a rises, so
  a truncation that serves a serves every twist above a.
For a twisted periodic complex C, the truncated bicomplex maps into the
full one by the same r/x_S^B |-> r/x_S^B, and the cone of the map of
total complexes is the total complex of the cones of the rows.  The row
of C^k is the Cech complex of a sum of line bundles O(a), so its cone,
in Cech degrees -1..m, is exact once B >= B*(R, a) for a the least
twist of C^k.  A cocycle of the cone in total degree t is made a
coboundary component by component, from the highest Cech degree down,
using the rows C^{t-m}, ..., C^{t+1} alone.  When H^{q-1} and H^q of
the cone vanish, its long exact sequence makes H^q of the truncated
total complex the hypercohomology.  So H^q(C) is exact at B*(R, a), a
the least twist of C^{q-m-1}, ..., C^{q+1}, and on a quotient ring
cech_cohomology and cech_hypercohomology each evaluate once.  Since C^{k+2} = C^k(d), for a
twist step d >= 0 a is the least twist of C^{q-m-1} and C^{q-m}; for
d < 0 the whole window is needed.

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

from .linalg import (Block, ExactMatrix, homology_dim, kernel_basis,
                     sparse_blocks, sparse_matmul, sparse_rank,
                     sparse_transpose)
from .mf import SheafMap, TwistSum
from .modules import minimal_columns, syzygies, variable_powers
from .poly import mono_mul
from .ring import GradedRing, binom


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
    return [[x, -x] for x in variable_powers(ring, B)]


def cech_truncation(ring, a):
    """B*(R, a) = max(1, 1 - a - N + b), from which the truncated Cech
    complex of O(a) computes H^*(X, O(a)) (the proof is in the module
    docstring), as does that of every twist above a.  It serves quotient
    rings, the Gamma kernels off the saturated path, and the truncated
    reference on P^m, whose Cech oracle reads the minimal model.  On a
    polynomial ring b = 0, read without building its LocalDuality."""
    b = 0 if ring.is_polynomial_ring() else local_duality(ring).top_degree
    return max(1, 1 - a - ring.nvars + b)


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
    twist list), as a list of (r, c, Block) in the CechSpace block layout:
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
                                                   a + shift)).nrows]
    return blocks


def cech_vertical(src_space, dst_space, sheaf_map, sign=1):
    """The nonzero blocks of a map of twist sums times sign (+1 or -1),
    applied on each localized piece (same p), as a list of (r, c, Block)
    in the CechSpace block layout."""
    ring = src_space.ring
    shift = src_space.B * (src_space.p + 1)
    ns, nd = len(src_space.twists), len(dst_space.twists)
    entries = [(tr, tc, ring.mult_matrix(p if sign > 0 else -p,
                                         src_space.twists[tc] + shift))
               for tr, row in enumerate(sheaf_map.rows)
               for tc, p in row.items()]
    return [(s * nd + tr, s * ns + tc, blk)
            for s in range(len(src_space.subsets))
            for tr, tc, blk in entries]


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


def cech_cohomology(ring, n, p):
    """(dimension, True): H^p(O(n)).  On a polynomial ring, the homology
    of the minimal model of O(n) as a complex in degree 0, whose terms
    are binomial in size and whose differentials are 0; on any other
    ring, evaluated once, at cech_truncation(ring, n)."""
    if ring.is_polynomial_ring():
        def term(k):
            return TwistSum([n] if k == 0 else [])
        return _model_homology(ring, term, lambda k: SheafMap.zero(
            ring, term(k), term(k + 1)), p), True
    return cech_cohomology_at(ring, n, p, cech_truncation(ring, n)), True


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
            blocks += [(r0[t] + r, c0[t - 1] + c, blk) for r, c, blk
                       in cech_horizontal(src[t - 1], sp)]
        if src[t].dim and sp.dim:
            blocks += [(r0[t] + r, c0[t] + c, blk) for r, c, blk
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
    """(dimension, True): H^q(C).  On a polynomial ring, the homology of
    the minimal model at degree q.  On any other ring, evaluated once, at
    cech_truncation(ring, a), a the least twist of the rows
    C^{q-m-1}, ..., C^{q+1} (when all are empty C is 0, and so is H^q).  On
    k[x,y,z]/(xy(x-y)) the truncations B = 1, ..., 8 read 0, 1, 3, 3, 3,
    1, 1, 1 for a Hom of dimension 1, and B* = 8.  ValueError if W != 0."""
    ring = C.ctx.ring
    if not C.ctx.W.is_zero():
        raise ValueError("the Cech total complex needs an MF of W = 0")
    if ring.is_polynomial_ring():
        return _model_homology(ring, C.component_at, C.diff_at, q), True
    m = ring.nvars - 1
    twists = [a for k in range(q - m - 1, q + 2) for a in C.component_at(k)]
    return cech_hypercohomology_at(
        C, q, cech_truncation(ring, min(twists, default=0))), True


# -- the minimal model on P^m -------------------------------------------------


def _model_homology(ring, term, diff, q):
    """dim H^q of the minimal model of a complex on P^m = Proj ring, a
    polynomial ring: term(k) is the TwistSum C^k and diff(k) the map
    C^k -> C^{k+1} (the module docstring has the model and its proof)."""
    return homology_dim(ring.field, _model_diff(ring, term, diff, q),
                        _model_diff(ring, term, diff, q - 1))


def _model_diff(ring, term, diff, n):
    """The model's differential Tot^n -> Tot^{n+1}, as (sparse rows,
    ncols).  Tot^n lists the H^0 summands of C^n, then the H^m summands
    of C^{n-m}; a summand O(a) has dimension dim S_a and dim S_{-a-m-1}
    (binomials).  ([], 0) when Tot^n is 0."""
    m = ring.nvars - 1
    src0, srcm = term(n), term(n - m)
    dst0, dstm = term(n + 1), term(n + 1 - m)
    col_dims = [ring.hilbert(a) for a in src0] + \
        [ring.hilbert(-a - m - 1) for a in srcm]
    if not any(col_dims):
        return [], 0
    row_dims = [ring.hilbert(a) for a in dst0] + \
        [ring.hilbert(-a - m - 1) for a in dstm]
    # H^0: C's map on polynomials
    blocks = [(r, c, blk) for r, row in enumerate(diff(n).rows)
              for c, f in row.items()
              if (blk := ring.mult_matrix(f, src0[c])).nrows]
    # H^m: C's map on inverse polynomials, signed (-1)^m; on the dual
    # basis x^(-gamma) <-> x^(gamma - 1) it is a transposed product
    neg = ring.field.neg if m % 2 else None
    nd, ns = len(dst0), len(src0)
    for r, row in enumerate(diff(n - m).rows):
        for c, f in row.items():
            blk = ring.mult_matrix(f, -dstm[r] - m - 1)
            if blk.entries:
                dual = sorted((j, i, neg(v) if neg else v)
                              for i, j, v in blk.entries)
                blocks.append((nd + r, ns + c,
                               Block(blk.ncols, blk.nrows, dual)))
    if any(row_dims[:nd]) and any(col_dims[ns:]):
        blocks += [(r, ns + c, blk) for (r, c), blk in _connecting(
            ring, [diff(k) for k in range(n - m, n + 1)], srcm, dst0).items()]
    return sparse_blocks(row_dims, col_dims, blocks)


def _connecting(ring, diffs, src, dst):
    """The connecting blocks p (d_v h)^m d_v i: H^m(C^{n-m}) ->
    H^0(C^{n+1}), as {(r, c): Block}, computed on Laurent monomials.

    diffs are C's maps out of C^{n-m}, ..., C^n, and src and dst the
    twists of C^{n-m} and C^{n+1}.  A state is {(summand, exponent,
    face): coefficient}, the face a tuple of vertices.  i sends the basis
    element x^(gamma - 1) of S_{-a-m-1} to x^(-gamma) on the face of all
    vertices; d_v multiplies by C's entries, signed (-1)^(Cech degree);
    h takes face T to T minus v, signed (-1)^(position of v in T), for v
    the least vertex where the exponent is >= 0, and is 0 when there is
    no such vertex or it is not in T; p reads the face (0,) at exponents
    >= 0."""
    F = ring.field
    m = ring.nvars - 1
    full = tuple(range(m + 1))
    # the entries of each map by source column: c -> [(r, terms of f)]
    by_col = []
    for d in diffs:
        cols = [[] for _ in d.src]
        for r, row in enumerate(d.rows):
            for c, f in row.items():
                cols[c].append((r, list(f.terms.items())))
        by_col.append(cols)
    index = [{mono: i for i, mono in enumerate(ring.graded_piece_basis(a))}
             for a in dst]
    entries = {}
    for c, a in enumerate(src):
        for j, beta in enumerate(ring.graded_piece_basis(-a - m - 1)):
            state = {(c, tuple(-b - 1 for b in beta), full): F.one()}
            for k, cols in enumerate(by_col):
                negate = (m - k) % 2
                step = {}
                for (s, alpha, face), v in state.items():
                    if negate:
                        v = F.neg(v)
                    for r, terms in cols[s]:
                        for e, x in terms:
                            key = (r, mono_mul(alpha, e), face)
                            step[key] = F.add(step.get(key, F.zero()),
                                              F.mul(v, x))
                state = {}
                for (r, alpha, face), v in step.items():
                    if F.is_zero(v):
                        continue
                    if k == m:
                        if face == (0,) and min(alpha) >= 0:
                            entries.setdefault((r, c), []).append(
                                (index[r][alpha], j, v))
                        continue
                    vertex = next((i for i, x in enumerate(alpha) if x >= 0),
                                  None)
                    if vertex is None or vertex not in face:
                        continue
                    pos = face.index(vertex)
                    key = (r, alpha, face[:pos] + face[pos + 1:])
                    state[key] = F.add(state.get(key, F.zero()),
                                       F.neg(v) if pos % 2 else v)
    return {rc: Block(len(index[rc[0]]), ring.hilbert(-src[rc[1]] - m - 1),
                      sorted(ents)) for rc, ents in entries.items()}


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
        # b, the largest degree of a generator of any F_i (cech_truncation)
        self.top_degree = max(-a for F in self.free for a in F)
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
    differential out of C^0 at B = cech_truncation(ring, n): exact
    dimensions, since that kernel is Gamma(O(n)) through the natural map
    (the proof is in the module docstring), but sections are not
    polynomials and no strict-morphism basis is extracted there.
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
        return len(self._kernel(n, cech_truncation(self.ring, n))[1])

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
        """Gamma(O(n)) -> Gamma(O(n + deg p)), multiplication by p, as a
        linalg.Block of shape self.dim(n + deg p) x self.dim(n); on
        saturated degrees it is the cached GradedRing.mult_matrix, not to
        be modified, and otherwise it is read off the Cech kernels of both
        degrees at the source degree's truncation, which serves the target
        degree too.
        An image that leaves the target kernel is a fault of assembly,
        checked as HomSpace checks its m_out m_in product."""
        ring = self.ring
        F = ring.field
        p = ring.normal_form(p)
        d = max(p.total_degree(), 0)
        if self.saturated(n) and self.saturated(n + d):
            return ring.mult_matrix(p, n)
        B = cech_truncation(ring, n)
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
        return Block.from_rows(sparse_transpose(coords, len(L)), len(K))

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
