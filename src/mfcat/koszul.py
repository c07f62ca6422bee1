"""Truncated Koszul complexes P(j), the total factorization Tot(P tensor E)
of a bounded free complex P with a matrix factorization E, its
augmentation to E (tot_augmentation, built apart from Tot, so a caller
that does not read it does not build it), and the strict morphism
Tot(P tensor f) induced by a strict morphism f.

P(j) is the Koszul complex on the j-th powers of k linear forms with no
common zero on X = Proj R (covering_forms), chosen once per ring: k is
dim R = dim X + 1 where a search over the variables and the sums of two
of them finds such forms (on P^m, the m + 1 variables), so
Tot(P(j) tensor E) has rank (2^k - 1) rank E.

Tot(P tensor E) is built straight from the terms and maps of P.  Its term
in degree n is (+)_p (+)_{a in P^p} E^{n-p}(a), p ascending (`tot_blocks`,
the one place this layout is written), where E^r is the unrolled periodic
complex of E.  The differential has (-1)^p times copies of E's
differential on the diagonal and P's maps tensor id on the subdiagonal.
Tot, its augmentation and Tot(P tensor f) are written by one row writer
(`_tot_map`), which puts each entry at its final position from the
offsets of that layout: copies of a map on the diagonal blocks, entries of
P's maps times an identity on the blocks below them.
"""

from functools import reduce
from itertools import accumulate, chain, combinations
from operator import mul

from .mf import MatrixFactorization, SheafMap, StrictMorphism, TwistSum
from .modules import covers, variable_powers


class FreeComplex:
    """Bounded complex of twist sums over a graded ring.

    terms: dict {cohomological degree p: TwistSum}
    maps:  dict {p: SheafMap term(p) -> term(p+1)}
    """

    def __init__(self, ring, terms, maps):
        self.ring = ring
        self.terms = dict(terms)
        self.maps = dict(maps)
        for p, f in self.maps.items():
            if f.src != self.term(p) or f.dst != self.term(p + 1):
                raise ValueError("map at %d has wrong endpoints" % p)
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


# -- covering forms -----------------------------------------------------------


def krull_dimension(ring):
    """dim R = dim S/LT(I): the size of the largest set of variables that
    contains the support of no leading monomial of the ring's Groebner
    basis (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 9)."""
    leads = [g.leading_term()[0] for g in ring.groebner]
    for k in range(ring.nvars, 0, -1):
        for vs in combinations(range(ring.nvars), k):
            if not any(all(e == 0 for i, e in enumerate(lm) if i not in vs)
                       for lm in leads):
                return k
    return 0


def _choose_forms(ring):
    """The first k-subset, k = dim R, dim R + 1, ..., of the variables, and
    then of the variables and the sums x_a + x_b, that covers X
    (modules.covers); all the variables if none does.  Fewer than dim R
    forms never cover X (Krull's principal ideal theorem), so on a
    polynomial ring, where dim R = nvars, this is the variables with no
    Groebner run."""
    n = ring.nvars
    xs = variable_powers(ring, 1)
    cands = xs + [xs[a] + xs[b] for a, b in combinations(range(n), 2)]
    for k in range(krull_dimension(ring), n):
        for S in chain(combinations(range(n), k),
                       (S for S in combinations(range(len(cands)), k)
                        if S[-1] >= n)):
            forms = [cands[i] for i in S]
            if covers(ring, forms):
                return tuple(forms)
    return tuple(xs)


def covering_forms(ring):
    """The linear forms f_1, ..., f_k with no common zero on Proj(ring) on
    which P(j) is built, chosen by _choose_forms on first use and held on
    the ring."""
    if ring.covering_forms is None:
        ring.covering_forms = _choose_forms(ring)
    return ring.covering_forms


# -- truncated Koszul complexes -------------------------------------------------


def koszul_truncated(ring, j):
    """The truncated Koszul complex P(j) on Proj(ring) together with its
    augmentation to O.

    Built on the j-th powers w_i = f_i^j of the k = len(covering_forms)
    forms, which have no common zero on Proj(ring), so the augmented
    complex is exact as a complex of sheaves: on each open D(f_i) the form
    w_i is a unit.  The term in cohomological degree -n+1 is
    O(-nj)^C(k,n) with basis the n-subsets of the powers, the
    differentials contract against the row (w_1, ..., w_k), and the
    augmentation is that row itself.  When X is empty (R Artinian), k = 0
    and P(j) is the zero complex.

    Returns (complex, augmentation map: term(0) -> O).
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    forms = covering_forms(ring)
    k = len(forms)
    w = [ring.normal_form(reduce(mul, [f] * j)) for f in forms]
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
                if not coeff.is_zero():     # f_i^j may lie in the ideal
                    rows[dst_index[rest]][cidx] = coeff
        maps[-n + 1] = SheafMap.from_rows(ring, terms[-n + 1],
                                          terms[-n + 2], rows)
    complex_ = FreeComplex(ring, terms, maps)
    aug = SheafMap(ring, complex_.term(0), TwistSum([0]), [list(w)])
    if k >= 2 and not aug.compose(complex_.map_at(-1)).is_zero():
        raise AssertionError("augmentation does not annihilate the image")
    return complex_, aug


# -- Tot(P tensor E) ----------------------------------------------------------


def tot_blocks(P, E, level):
    """The summands of Tot(P tensor E) in degree `level`, in order: a list
    of (p, (+)_{a in P^p} E^{level-p}(a)) for p ascending."""
    return [(p, TwistSum(t + a for a in P.term(p)
                         for t in E.component_at(level - p)))
            for p in P.degrees()]


def _tot_map(P, src, dst, copies, tensors):
    """The map between the Tot layouts src and dst (lists of (p, summands),
    as tot_blocks gives them) whose nonzero blocks are
      * (p, p): id tensor copies[p], one copy of that map per summand of
        P^p, on the diagonal;
      * (p + 1, p): f tensor id_n for tensors[p] = (f, n), f a map out of
        P^p and id_n the identity of rank n.
    Every entry is written once, at its final position."""
    col_off, row_off = _offsets(src), _offsets(dst)
    rows = [{} for _ in range(sum(len(ts) for _, ts in dst))]
    # the (p + 1, p) blocks first: in each row their columns come first
    for p, (f, n) in tensors.items():
        ro, co = row_off[p + 1], col_off[p]
        for r, frow in enumerate(f.rows):
            for t in range(n):
                row = rows[ro + r * n + t]
                for c, x in frow.items():
                    row[co + c * n + t] = x
    for p, g in copies.items():
        ro, co = row_off[p], col_off[p]
        ns, nd = g.src.rank, g.dst.rank
        for a in range(P.term(p).rank):
            for r, grow in enumerate(g.rows, ro + a * nd):
                row = rows[r]
                for c, x in grow.items():
                    row[co + a * ns + c] = x
    return SheafMap.from_rows(P.ring, _flat(src), _flat(dst), rows)


def _offsets(blocks):
    """{p: index of the first summand of block p} in a Tot layout."""
    return dict(zip((p for p, _ in blocks),
                    accumulate((len(ts) for _, ts in blocks), initial=0)))


def _flat(blocks):
    """The twist sum of a Tot layout."""
    return TwistSum(t for _, ts in blocks for t in ts)


def tot(P, E):
    """The total matrix factorization Tot(P tensor E), checked.

    The map from degree `level` to `level + 1` has the blocks
    (-1)^p id tensor (E's differential at level - p) on the diagonal and
    P^p -> P^{p+1} tensor id on the subdiagonal.  E's maps are negated
    once, for all the odd p."""
    signed = ((E.e0, E.e1), (-E.e0, -E.e1))

    # E's differential at r is e0 (r even) or e1 (r odd), twisted, and a
    # twist leaves the rows as they are
    def build(level):
        return _tot_map(
            P, tot_blocks(P, E, level), tot_blocks(P, E, level + 1),
            {p: signed[p % 2][(level - p) % 2] for p in P.degrees()},
            {p: (f, E.component_at(level - p).rank)
             for p, f in P.maps.items()})

    return MatrixFactorization(E.ctx, build(-1), build(0))


def tot_morphism(P, f):
    """The strict morphism Tot(P tensor f): Tot(P tensor E) -> Tot(P tensor
    F) induced by a strict morphism f: E -> F, the block diagonal of f's
    components; checked."""

    def build(level):
        return _tot_map(
            P, tot_blocks(P, f.src, level), tot_blocks(P, f.dst, level),
            {p: (f.g0, f.g1)[(level - p) % 2] for p in P.degrees()}, {})

    return StrictMorphism(tot(P, f.src), tot(P, f.dst), build(-1), build(0))


def tot_augmentation(P, aug, E, Ep):
    """The augmentation weak equivalence Ep = Tot(P tensor E) -> E, aug
    tensor id on the P^0 summand and zero on the others; checked.  E is
    the layout's one block, in degree 1, the target of aug."""

    def build(level):
        comp = E.component_at(level)
        # P has no term 0 (P = 0) when R is Artinian
        return _tot_map(P, tot_blocks(P, E, level), [(1, comp)], {},
                        {0: (aug, comp.rank)} if 0 in P.terms else {})

    return StrictMorphism(Ep, E, build(-1), build(0))


def stabilized_mf(P, aug, E):
    """Tot(P tensor E) together with its augmentation to E.

    Returns (E', epsilon: StrictMorphism E' -> E)."""
    Ep = tot(P, E)
    return Ep, tot_augmentation(P, aug, E, Ep)
