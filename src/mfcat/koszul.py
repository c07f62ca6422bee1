"""Truncated Koszul complexes, tensoring free complexes with a matrix
factorization, total factorizations (Tot), and induced morphisms.

Tot of a bounded complex of MFs takes direct sums along lines of slope -1:
T^n = (+)_p C_p^{n-p} with differential (vertical with sign (-1)^p) +
(horizontal).
"""

from itertools import combinations

from .linalg import homology_dim
from .mf import (MatrixFactorization, SheafMap, StrictMorphism, TwistSum,
                 zero_mf)
from .poly import Poly


class FreeComplex:
    """Bounded complex of twist sums over a graded ring.

    terms: dict {cohomological degree p: TwistSum}
    maps:  dict {p: SheafMap term(p) -> term(p+1)}
    """

    def __init__(self, ring, terms, maps, check=True):
        self.ring = ring
        self.terms = dict(terms)
        self.maps = dict(maps)
        for p, f in self.maps.items():
            if f.src != self.term(p) or f.dst != self.term(p + 1):
                raise ValueError("map at %d has wrong endpoints" % p)
        if check:
            for p in self.maps:
                if p + 1 in self.maps:
                    if not self.maps[p + 1].compose(self.maps[p]).is_zero():
                        raise ValueError("d^2 != 0 at degree %d" % p)

    def term(self, p):
        return self.terms.get(p, TwistSum())

    def degrees(self):
        return sorted(self.terms)

    def map_at(self, p):
        if p in self.maps:
            return self.maps[p]
        return SheafMap.zero(self.ring, self.term(p), self.term(p + 1))


def koszul_truncated(ring, j):
    """The truncated Koszul complex P(j) on Proj(ring) together with its
    augmentation to O.

    Built on the k = m+1 pure powers w_i = x_i^j, which have no common zero
    on Proj(ring), so the augmented complex is exact as a complex of
    sheaves: the term in cohomological degree -n+1 is O(-nj)^C(k,n) with
    basis the n-subsets of the powers, the differentials contract against
    the row (w_0, ..., w_m), and the augmentation is that row itself.

    Returns (complex, augmentation map: term(0) -> O).
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    k = ring.nvars
    powers = [[j if a == i else 0 for a in range(k)] for i in range(k)]
    w = [ring.normal_form(Poly.monomial(ring.field, k, e)) for e in powers]
    subset_bases = {n: list(combinations(range(k), n)) for n in range(1, k + 1)}
    terms = {}
    for n in range(1, k + 1):
        terms[-n + 1] = TwistSum([-n * j] * len(subset_bases[n]))
    maps = {}
    for n in range(2, k + 1):
        src = subset_bases[n]
        dst = subset_bases[n - 1]
        dst_index = {S: i for i, S in enumerate(dst)}
        rows = [{} for _ in dst]
        for cidx, S in enumerate(src):
            for t, i in enumerate(S):
                rest = S[:t] + S[t + 1:]
                coeff = w[i] if t % 2 == 0 else -w[i]
                if not coeff.is_zero():     # x_i^j may lie in the ideal
                    rows[dst_index[rest]][cidx] = coeff
        maps[-n + 1] = SheafMap.from_rows(ring, terms[-n + 1],
                                          terms[-n + 2], rows)
    complex_ = FreeComplex(ring, terms, maps)
    aug = SheafMap(ring, terms[0], TwistSum([0]), [list(w)])
    if k >= 2 and not aug.compose(complex_.map_at(-1)).is_zero():
        raise AssertionError("augmentation does not annihilate the image")
    return complex_, aug


def free_complex_homology_dims(fc, t, q_range, augmentation=None):
    """Homology dimensions of a free complex on the internal-degree-t graded
    pieces.  If `augmentation` is given it is appended as the map out of
    term(0) into O (placed in cohomological degree 1)."""
    ring = fc.ring

    def term(q):
        if augmentation is not None and q == 1:
            return TwistSum([0])
        if augmentation is not None and q > 1:
            return TwistSum()
        return fc.term(q)

    def map_at(q):
        if augmentation is not None and q == 0:
            return augmentation
        if augmentation is not None and q >= 1:
            return SheafMap.zero(ring, term(q), term(q + 1))
        return fc.map_at(q)

    return {q: homology_dim(ring.field, ring.piece_matrix(map_at(q), t),
                            ring.piece_matrix(map_at(q - 1), t))
            for q in q_range}


def koszul_exactness_report(ring, j, t_range=None):
    """Graded-piece exactness of the augmented truncated Koszul complex.

    Sheaf-level exactness only forces graded-piece exactness in high
    internal degrees.  On a polynomial ring the pure powers are a regular
    sequence, so the only homology is R/(x_0^j, ..., x_m^j) at O, which
    vanishes for t > (m+1)(j-1); the default window starts at t = k*j - 1,
    inside that range.  The window is proven only for polynomial rings (on
    k[x,y,z]/(xy) its first degree has homology for j = 1, 2, 3).  Returns
    {t: {spot: homology dim}}; all-zero means the check passed."""
    P, aug = koszul_truncated(ring, j)
    k = P.term(0).rank
    if t_range is None:
        t_range = range(k * j - 1, k * j + ring.nvars + 1)
    spots = range(min(P.degrees()), 2)
    return {t: free_complex_homology_dims(P, t, spots, augmentation=aug)
            for t in t_range}


# -- tensoring with a matrix factorization -----------------------------------


def free_tensor_mf(ts, E):
    """(+) O(a) tensor E: components get the twists, matrices are block
    diagonal copies."""
    ring = E.ctx.ring
    e1 = SheafMap.block_diagonal(ring, [E.e1.twist(a) for a in ts])
    e0 = SheafMap.block_diagonal(ring, [E.e0.twist(a) for a in ts])
    return MatrixFactorization(E.ctx, e1, e0, check=False)


def _free_map_tensor(f, E, component):
    """The map (f tensor id_E) on one MF component (0 or 1): block matrix of
    f's scalar entries times identity blocks."""
    ring = E.ctx.ring
    comp = E.E0 if component == 0 else E.E1
    srcs = [comp.twist(a) for a in f.src]
    dsts = [comp.twist(b) for b in f.dst]
    blocks = [[None] * f.src.rank for _ in f.dst]
    for r, row in enumerate(f.rows):
        for c, p in row.items():
            blocks[r][c] = SheafMap.scalar(ring, p, srcs[c], dsts[r])
    return SheafMap.from_blocks(ring, srcs, dsts, blocks)


class MFComplex:
    """Bounded complex of MFs connected by strict morphisms."""

    def __init__(self, ctx, terms, maps, check=True):
        self.ctx = ctx
        self.terms = dict(terms)
        self.maps = dict(maps)
        if check:
            for p, f in self.maps.items():
                if p + 1 in self.maps:
                    if not self.maps[p + 1].compose(f).is_zero():
                        raise ValueError("consecutive composite nonzero at %d" % p)

    def term(self, p):
        if p in self.terms:
            return self.terms[p]
        return zero_mf(self.ctx)

    def degrees(self):
        return sorted(self.terms)


def tensor_mf(P, E):
    """Tensor a bounded free complex P with the MF E, giving an MFComplex."""
    ctx = E.ctx
    terms = {p: free_tensor_mf(P.term(p), E) for p in P.degrees()}
    maps = {}
    for p in P.maps:
        f = P.maps[p]
        g1 = _free_map_tensor(f, E, component=1)
        g0 = _free_map_tensor(f, E, component=0)
        maps[p] = StrictMorphism(terms[p], terms[p + 1], g1, g0, check=False)
    return MFComplex(ctx, terms, maps, check=False)


def tot(D):
    """Total matrix factorization of a bounded complex of MFs.

    T^{-1} = (+)_p C_p^{-1-p},  T^0 = (+)_p C_p^{-p}  (p ascending), with
    differential blocks: diagonal (-1)^p * (vertical differential of C_p)
    and superdiagonal the horizontal strict morphisms.
    """
    ctx = D.ctx
    ring = ctx.ring
    degs = D.degrees()
    if not degs:
        return zero_mf(ctx)

    def build(level):
        """The map T^level -> T^{level+1}."""
        srcs = [D.term(p).component_at(level - p) for p in degs]
        dsts = [D.term(p).component_at(level + 1 - p) for p in degs]
        blocks = [[None] * len(degs) for _ in degs]
        for i, p in enumerate(degs):
            vert = D.term(p).diff_at(level - p)
            blocks[i][i] = vert if p % 2 == 0 else -vert
        for i, p in enumerate(degs):
            if p in D.maps:
                jj = degs.index(p + 1) if (p + 1) in D.terms else None
                if jj is not None:
                    blocks[jj][i] = D.maps[p].component_at(level - p)
        return SheafMap.from_blocks(ring, srcs, dsts, blocks)

    e1 = build(-1)
    e0 = build(0)
    return MatrixFactorization(ctx, e1, e0)


def tot_chain_morphism(DP, DQ, chain_map, src_tot=None, dst_tot=None):
    """Strict morphism Tot(DP) -> Tot(DQ) induced by a degreewise map of
    MF complexes; chain_map: dict {p: StrictMorphism DP.term(p) -> DQ.term(p)}.
    The caller guarantees commutation with the horizontal maps."""
    ctx = DP.ctx
    ring = ctx.ring
    degs_p = DP.degrees()
    degs_q = DQ.degrees()

    def build(level):
        srcs = [DP.term(p).component_at(level - p) for p in degs_p]
        dsts = [DQ.term(p).component_at(level - p) for p in degs_q]
        blocks = [[None] * len(degs_p) for _ in degs_q]
        for i, p in enumerate(degs_p):
            if p in chain_map and p in DQ.terms:
                jj = degs_q.index(p)
                blocks[jj][i] = chain_map[p].component_at(level - p)
        return SheafMap.from_blocks(ring, srcs, dsts, blocks)

    if src_tot is None:
        src_tot = tot(DP)
    if dst_tot is None:
        dst_tot = tot(DQ)
    return StrictMorphism(src_tot, dst_tot, build(-1), build(0))


def stabilized_mf(P, aug, E):
    """Tot(P tensor E) together with the augmentation weak equivalence to E.

    Returns (E', epsilon: StrictMorphism E' -> E)."""
    ctx = E.ctx
    ring = ctx.ring
    DP = tensor_mf(P, E)
    Etot = tot(DP)
    # the augmented target: the single-term complex [O] tensor E = E itself
    DQ = MFComplex(ctx, {0: E}, {}, check=False)
    aug0 = StrictMorphism(DP.term(0), E,
                          _free_map_tensor(aug, E, component=1),
                          _free_map_tensor(aug, E, component=0), check=False)
    # Tot of the one-term complex [E] is E on the nose
    eps = tot_chain_morphism(DP, DQ, {0: aug0}, src_tot=Etot, dst_tot=E)
    return Etot, eps
