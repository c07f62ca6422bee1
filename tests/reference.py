"""Reference computations and fixtures that only the tests use: ideal
equality by mutual membership, the dimension of a graded piece of a
presented module, the zero object, graded-piece exactness of an unrolled
periodic resolution and of the augmented truncated Koszul complex,
block-composition builders of the mapping complex and of Tot(P tensor E),
its augmentation and Tot(P tensor f), which glue small SheafMaps with
SheafMap.from_blocks, against which the engine's entry writers are
checked, block assembly row by row, against which the entry-wise
linalg.sparse_blocks is checked, and a block read back as sparse rows.
Also the degree-window scans that the exact predicates replaced: the
rank window for a nonzerodivisor, and the bounded searches for a power
of every variable in an ideal and in an annihilator.  And the CLI parser
with every subcommand built, against which the per-command parser of
`mfcat.cli` is checked."""

import argparse
from itertools import accumulate

from mfcat.cli import (cmd_cech, cmd_cech_hh, cmd_coker, cmd_compose,
                       cmd_contractible, cmd_ext_table, cmd_from_module,
                       cmd_hom, cmd_prop28, cmd_rel_perfect, cmd_stabilize,
                       cmd_stable_hom, cmd_suite, cmd_verify)

from mfcat.koszul import FreeComplex, koszul_truncated, tot_blocks
from mfcat.linalg import homology_dim, solve, sparse_rank
from mfcat.mf import (MatrixFactorization, MFContext, SheafMap,
                      StrictMorphism, TwistSum, cycle_from_strict, hom_layout,
                      hom_twists, unpack_maps)
from mfcat.modules import variable_powers
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


def max_ideal_degree(ring):
    """The largest degree of a generator of the ring's ideal, 0 if none."""
    return max([g.total_degree() for g in ring.ideal_gens] + [0])


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
        t_range = range(0, spread + max_ideal_degree(ctx.ring) + 3)
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


# -- block-composition builders ------------------------------------------


def post_compose_matrix(phi, A):
    """Matrix of Hom(A, B) -> Hom(A, C), psi |-> phi o psi, for phi: B -> C."""
    nA = A.rank
    rows = [{s * nA + c: p for s, p in prow.items()}
            for prow in phi.rows for c in range(nA)]
    return SheafMap.from_rows(phi.ring, hom_twists((A, phi.src)),
                              hom_twists((A, phi.dst)), rows)


def pre_compose_matrix(phi, C):
    """Matrix of Hom(B, C) -> Hom(A, C), psi |-> psi o phi, for phi: A -> B."""
    nB = phi.dst.rank
    cols = [{} for _ in phi.src]
    for s, prow in enumerate(phi.rows):
        for c, p in prow.items():
            cols[c][s] = p
    rows = [{r * nB + s: p for s, p in col.items()}
            for r in range(C.rank) for col in cols]
    return SheafMap.from_rows(phi.ring, hom_twists((phi.dst, C)),
                              hom_twists((phi.src, C)), rows)


def mapping_dm1(E, F):
    """d^{-1} of Hom_MF(E, F) as the block matrix
    [[(f1)_*, -e0^*], [-e1^*, (f0)_*]] of four SheafMaps."""
    b11 = post_compose_matrix(F.e1, E.E0)
    b12 = pre_compose_matrix(-E.e0, F.E0)
    b21 = pre_compose_matrix(-E.e1, F.E1)
    b22 = post_compose_matrix(F.e0.twist(-E.ctx.d), E.E1)
    cm1, c0 = hom_layout(E.E1, E.E0, F)
    return SheafMap.from_blocks(E.ctx.ring, [hom_twists(p) for p in cm1],
                                [hom_twists(p) for p in c0],
                                [[b11, b12], [b21, b22]])


def mapping_complex(E, F):
    """Hom_MF(E, F) with d^0 = d^{-1}(-E, -F[1]), the signs on the small
    maps."""
    ctx = E.ctx
    neg_e = MatrixFactorization(ctx, -E.e1, -E.e0, check=False)
    neg_shift_f = MatrixFactorization(ctx, F.e0, F.e1.twist(ctx.d),
                                      check=False)
    return MatrixFactorization(
        MFContext(ctx.ring, ctx.ring.zero(), ctx.mode, twist_step=ctx.d),
        mapping_dm1(E, F), mapping_dm1(neg_e, neg_shift_f), check=False)


def solve_homotopy(f):
    """mf.solve_homotopy against the degree-0 piece matrix of mapping_dm1:
    (s, t) or None."""
    E, F = f.src, f.dst
    ring = E.ctx.ring
    dm1 = mapping_dm1(E, F)
    x = solve(ring.field, *ring.piece_matrix(dm1, 0), cycle_from_strict(f))
    if x is None:
        return None
    s, t_m = unpack_maps(ring, ring.polys_from_coords(x, dm1.src),
                         *hom_layout(E.E1, E.E0, F)[0])
    return s, (-t_m).twist(E.ctx.d)


def twisted_copies(ts, g):
    """id tensor g on (+)_{a in ts} O(a): the block diagonal of the g(a)."""
    return SheafMap.block_diagonal(g.ring, [g.twist(a) for a in ts])


def tensor_id(f, ts):
    """f tensor id on (+)_{a in f.src} ts(a) -> (+)_{b in f.dst} ts(b): the
    block matrix of f's entries times identity blocks."""
    ring = f.ring
    srcs = [ts.twist(a) for a in f.src]
    dsts = [ts.twist(b) for b in f.dst]
    blocks = [[None] * len(srcs) for _ in dsts]
    for r, row in enumerate(f.rows):
        for c, p in row.items():
            blocks[r][c] = SheafMap.scalar(ring, p, srcs[c], dsts[r])
    return SheafMap.from_blocks(ring, srcs, dsts, blocks)


def tot(P, E):
    """Tot(P tensor E) with (-1)^p twisted copies of E's differential on
    the diagonal and P's maps tensor id on the subdiagonal, unchecked."""
    ring = E.ctx.ring
    degs = P.degrees()

    def build(level):
        blocks = [[None] * len(degs) for _ in degs]
        for i, p in enumerate(degs):
            vert = twisted_copies(P.term(p), E.diff_at(level - p))
            blocks[i][i] = vert if p % 2 == 0 else -vert
        for p, f in P.maps.items():
            blocks[degs.index(p + 1)][degs.index(p)] = \
                tensor_id(f, E.component_at(level - p))
        return SheafMap.from_blocks(
            ring, [ts for _, ts in tot_blocks(P, E, level)],
            [ts for _, ts in tot_blocks(P, E, level + 1)], blocks)

    return MatrixFactorization(E.ctx, build(-1), build(0), check=False)


def tot_morphism(P, f):
    """Tot(P tensor f) as the block diagonal of twisted copies of f's
    components, unchecked."""
    ring = f.ctx.ring

    def build(level):
        return SheafMap.block_diagonal(
            ring, [twisted_copies(P.term(p), f.component_at(level - p))
                   for p in P.degrees()])

    return StrictMorphism(tot(P, f.src), tot(P, f.dst), build(-1), build(0),
                          check=False)


def tot_augmentation(P, aug, E, Ep):
    """aug tensor id on the P^0 summand of Ep = Tot(P tensor E), zero on
    the others, unchecked."""
    ring = E.ctx.ring

    def build(level):
        summands = tot_blocks(P, E, level)
        comp = E.component_at(level)
        return SheafMap.from_blocks(
            ring, [ts for _, ts in summands], [comp],
            [[tensor_id(aug, comp) if p == 0 else None
              for p, _ in summands]])

    return StrictMorphism(Ep, E, build(-1), build(0), check=False)


def sparse_blocks_by_rows(row_dims, col_dims, blocks):
    """linalg.sparse_blocks as it was when blocks were stored as sparse
    rows: (r, c, rows) triples, each block's shape checked by scanning its
    rows, each row copied into the output at its column offset.  The
    reference for rows, values and the key order of each row."""
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
                out[i].update({co + k: v for k, v in row.items()}
                              if co else row)
    return out, col_offs[-1]


def block_rows(blk):
    """A linalg.Block as sparse rows, one new {column: value} dict per
    row."""
    out = [{} for _ in range(blk.nrows)]
    for i, k, v in blk.entries:
        out[i][k] = v
    return out


# -- the degree-window scans -------------------------------------------------


def regular_in_window(ring, w):
    """The rank-window test of regularity: multiplication by w is
    injective on R_n for every n below nvars + max(max ideal degree, 1) +
    deg w + 3.  No is certain; yes holds only within the window."""
    if ring.is_zero(w):
        return False
    maxdeg = max(max_ideal_degree(ring), 1)
    for n in range(0, ring.nvars + maxdeg + w.total_degree() + 3):
        size = len(ring.graded_piece_basis(n))
        if size and sparse_rank(ring.field,
                                block_rows(ring.mult_matrix(w, n)),
                                size) < size:
            return False
    return True


def saturation_bound(ring, gens):
    """2 * (number of variables) * (max degree of gens + 1)."""
    maxdeg = max([p.total_degree() for p in gens if not p.is_zero()] + [0])
    return 2 * ring.nvars * (maxdeg + 1)


def contains_irrelevant_power(gens, ring, B):
    """Whether x_i^N lies in (gens) + I for every variable and some
    N <= B; bound 0 (x^0 = 1) asks whether (gens) + I is the unit ideal.
    Yes is certain; no holds only within the bound."""
    basis = buchberger(list(gens) + ring.ideal_gens)
    return any(all(reduce_poly(x, basis).is_zero()
                   for x in variable_powers(ring, N))
               for N in range(B + 1))


def sheaf_zero_within(gens, ring, B):
    """Whether some N <= B has x_i^N p = 0 for every variable and every
    generator p; bound 0 asks whether every generator is zero.  Yes is
    certain; no holds only within the bound."""
    return any(all(ring.is_zero(x * p) for x in variable_powers(ring, N)
                   for p in gens)
               for N in range(B + 1))


# -- the full CLI parser -------------------------------------------------------


def build_parser():
    """The `mfcat` parser with all 14 subparsers, whatever the command."""
    p = argparse.ArgumentParser(
        prog="mfcat",
        description="Exact-arithmetic engine for matrix factorizations of a "
                    "section on a projective or affine-graded scheme.")
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("verify", cmd_verify, help="check the factorization identities")
    sp.add_argument("--source", required=True)

    sp = add("hom", cmd_hom, help="Hom-set dimension and basis")
    sp.add_argument("--model", choices=("naive", "hyper"), default="hyper")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--shift", type=int, default=0)
    sp.add_argument("--twist", type=int, default=0)

    sp = add("compose", cmd_compose, help="compose two Hom-set basis classes")
    sp.add_argument("--source", required=True)
    sp.add_argument("--middle", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--alpha", type=int, default=0,
                    help="basis index in Hom(source, middle)")
    sp.add_argument("--beta", type=int, default=0,
                    help="basis index in Hom(middle, target)")

    sp = add("cech", cmd_cech, help="sheaf cohomology of O(n)")
    sp.add_argument("--space", help="projective space shorthand, e.g. P2")
    sp.add_argument("--ring", help="ring JSON file")
    sp.add_argument("--twist", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = add("cech-hh", cmd_cech_hh,
             help="hypercohomology of the mapping complex")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--q", type=int, default=0)

    sp = add("stabilize", cmd_stabilize, help="Koszul stabilization")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--min-degree", type=int, default=0)

    sp = add("contractible", cmd_contractible,
             help="global and local contractibility")
    sp.add_argument("--source", required=True)

    sp = add("prop28", cmd_prop28, help="contractibility condition report")
    sp.add_argument("--source", required=True)

    sp = add("coker", cmd_coker, help="cokernel module of e1 over R/(W)")
    sp.add_argument("--source", required=True)
    sp.add_argument("--raw", action="store_true",
                    help="skip generator minimalization")

    sp = add("from-module", cmd_from_module,
             help="complete an injective map to a factorization")
    sp.add_argument("--alpha", required=True)

    sp = add("ext-table", cmd_ext_table, help="graded Ext dimension table")
    sp.add_argument("--source", required=True)
    sp.add_argument("--module", required=True)
    sp.add_argument("--q-lo", type=int, default=0)
    sp.add_argument("--q-hi", type=int, default=6)

    sp = add("stable-hom", cmd_stable_hom, help="stable Hom dimension")
    sp.add_argument("--source", required=True)
    sp.add_argument("--module", required=True)

    sp = add("rel-perfect", cmd_rel_perfect,
             help="finite projective dimension over the ambient ring")
    sp.add_argument("--context", required=True)
    sp.add_argument("--module", required=True)
    sp.add_argument("--max-steps", type=int, default=12)

    sp = add("suite", cmd_suite, help="deterministic regression objects")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--profile", required=True)

    return p
