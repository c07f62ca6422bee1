"""Reference computations and fixtures that only the tests use: ideal
equality by mutual membership, the dimension of a graded piece of a
presented module, the zero object, graded-piece exactness of an unrolled
periodic resolution and of the augmented truncated Koszul complex."""

from mfcat.koszul import FreeComplex, koszul_truncated
from mfcat.linalg import homology_dim, sparse_rank
from mfcat.mf import MatrixFactorization, SheafMap, TwistSum
from mfcat.ring import buchberger, reduce_poly


def ideals_equal(gens_a, gens_b, ring):
    """Mutual membership of generators (ideal equality inside R)."""
    ga = [ring.normal_form(p) for p in gens_a]
    gb = [ring.normal_form(p) for p in gens_b]
    basis_a = buchberger([p for p in ga if not p.is_zero()] + ring.ideal_gens)
    basis_b = buchberger([p for p in gb if not p.is_zero()] + ring.ideal_gens)
    ok_ab = all(reduce_poly(p, basis_b).is_zero() for p in ga if not p.is_zero()) \
        if basis_b else all(p.is_zero() for p in ga)
    ok_ba = all(reduce_poly(p, basis_a).is_zero() for p in gb if not p.is_zero()) \
        if basis_a else all(p.is_zero() for p in gb)
    return ok_ab and ok_ba


def piece_dim(M, t):
    """dim of the degree-t piece of the presented module M: that of the
    generators' piece minus the rank of the relation matrix on it."""
    ring, rel = M.ring, M.rel
    return sum(ring.hilbert(t + a) for a in rel.dst) \
        - sparse_rank(ring.field, *ring.piece_matrix(rel, t))


def zero_mf(ctx):
    """The zero object of ctx."""
    z = TwistSum()
    m = SheafMap.zero(ctx.ring, z, z)
    return MatrixFactorization(ctx, m, m, check=False)


def periodic_resolution(E, lo=-6, hi=0, t_range=None):
    """Unroll the restriction of E to Y into the 2-periodic complex
    ... -> (i^*E)^{-2} -> (i^*E)^{-1} -> (i^*E)^0 -> coker -> 0
    and check graded-piece exactness at the interior spots.  Failures
    signal that W is not a regular element."""
    ctx = E.ctx
    ry = ctx.y_ring()
    terms = {q: list(E.component_at(q).twists) for q in range(lo, hi + 1)}
    if t_range is None:
        spread = max((abs(a) for tw in terms.values() for a in tw), default=0)
        t_range = range(0, spread + ctx.ring.max_ideal_degree() + 3)
    failures = []
    for q in range(lo + 1, min(hi, -1) + 1):
        f_in = E.diff_at(q - 1)
        f_out = E.diff_at(q)
        for t in t_range:
            h = homology_dim(ry.field, ry.piece_matrix(f_out, t),
                             ry.piece_matrix(f_in, t))
            if h != 0:
                failures.append({"spot": q, "internal_degree": t, "dim": h})
    return {"window": [lo, hi], "terms": terms,
            "exact": not failures, "failures": failures}


def free_complex_homology_dims(fc, t, q_range):
    """Homology dimensions of a free complex on the internal-degree-t graded
    pieces."""
    ring = fc.ring
    return {q: homology_dim(ring.field, ring.piece_matrix(fc.map_at(q), t),
                            ring.piece_matrix(fc.map_at(q - 1), t))
            for q in q_range}


def koszul_exactness_report(ring, j, t_range=None):
    """Graded-piece exactness of the augmented truncated Koszul complex.

    Sheaf-level exactness only forces graded-piece exactness in high
    internal degrees.  On a polynomial ring the covering forms are the
    variables, whose powers are a regular sequence, so the only homology
    is R/(x_0^j, ..., x_m^j) at O, which vanishes for t > (m+1)(j-1); the
    default window starts at t = k*j - 1, inside that range.  The window
    is proven only for polynomial rings (on k[x,y,z]/(xy), with the forms
    z and x + y, its first degree has homology for j = 1, 2).  Returns
    {t: {spot: homology dim}}; all-zero means the check passed."""
    P, aug = koszul_truncated(ring, j)
    k = P.term(0).rank
    if t_range is None:
        t_range = range(k * j - 1, k * j + ring.nvars + 1)
    # the augmentation is the map out of term(0) into O in degree 1
    augmented = FreeComplex(ring, {**P.terms, 1: aug.dst}, {**P.maps, 0: aug})
    spots = range(min(P.degrees()), 2)
    return {t: free_complex_homology_dims(augmented, t, spots)
            for t in t_range}
