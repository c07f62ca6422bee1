"""Module-side operations over the hypersurface ring R_Y = R/(W):
cokernel presentations, graded Ext tables and stable Hom dimensions,
reconstruction of a factorization from a module map, and relative
perfection of modules.

Ext into N = coker(rel) is counted from ranks alone: the maps of the Hom
complex into N's generators and relations are built by the pre- and
post-composition builders of the mapping complex, and their degree-0
piece matrices are joined and eliminated; no quotient basis of N is
formed."""

from .linalg import (Block, solve, sparse_blocks, sparse_rank,
                     sparse_transpose)
from .mf import (MatrixFactorization, SheafMap, _post_compose_matrix,
                 _pre_compose_matrix, unpack_maps)
from .modules import (ModulePresentation, minimal_columns, syzygies,
                      syzygy_presentation)

STABLE_HOM_STEPS = 8    # stable_hom_dim tries q0, ..., q0 + STABLE_HOM_STEPS


def coker_module(E, minimal=True):
    """coker(e1) as a graded module over R_Y = R/(W): generators are the
    twists of E0, relations the columns of e1 taken to normal form in R_Y
    (a column that vanishes there keeps its twist in E1)."""
    ry = E.ctx.y_ring()
    rows = []
    for row in E.e1.rows:
        out = {}
        for c, p in row.items():
            p = ry.normal_form(p)
            if not p.is_zero():
                out[c] = p
        rows.append(out)
    pres = ModulePresentation(SheafMap.from_rows(ry, E.E1, E.E0, rows))
    if minimal:
        pres = pres.minimalize()
    return pres


# -- graded Ext tables ---------------------------------------------------------


def ext_gamma_dims(E, N, q_range):
    """dim Ext^q in degree 0 between the restriction of E and the graded
    R_Y-module N = coker(rel: G1 -> G0), as the homology of the quotient
    of the 2-periodic complex V_q = Hom(i^*E^{-q}, G0)_0 by the images of
    u_q = rel o -: Hom(i^*E^{-q}, G1)_0 -> V_q.  With d_q: V_q -> V_{q+1}
    the precomposition with the differential of i^*E,
        dim Ext^q = dim V_q - rank [d_q | u_{q+1}] + rank u_{q+1}
                    - rank [d_{q-1} | u_q],
    each rank the pivot count of one sparse echelon form."""
    ry = E.ctx.y_ring()
    if N.ring != ry:
        raise ValueError("N must be a module over the hypersurface ring")
    qs = sorted(q_range)
    if not qs:
        raise ValueError("empty range of Ext degrees q")
    rel = N.rel

    def step(q):
        """(dim V_q, rank [d_q | u_{q+1}], u_{q+1} as (rows, ncols))."""
        d = E.diff_at(-q - 1)            # i^*E^{-q-1} -> i^*E^{-q}
        dm, n = ry.piece_matrix(_pre_compose_matrix(d, rel.dst), 0)
        um, k = ry.piece_matrix(_post_compose_matrix(rel, d.src), 0)
        joined = sparse_blocks([len(dm)], [n, k],
                               [(0, 0, Block.from_rows(dm, n)),
                                (0, 1, Block.from_rows(um, k))])
        return n, sparse_rank(ry.field, *joined), (um, k)

    steps = {q: step(q) for q in range(qs[0] - 1, qs[-1] + 1)}
    out = {}
    for q in qs:
        dim_v, join, u = steps[q]
        out[q] = dim_v - join + sparse_rank(ry.field, *u) - steps[q - 1][1]
    return out


def stable_hom_dim(E, N):
    """Stable Hom dimension: Ext^{2q}(i^*E, N(-q*d)) for q past dim X + 1,
    accepted once two consecutive q agree.

    Returns (dim, stable, q_used)."""
    ctx = E.ctx
    d = ctx.d
    # dim X is at most nvars - 1 (nvars in affine-graded mode); an
    # overestimate of dim X only starts q later
    dim_x = ctx.ring.nvars if ctx.is_affine else ctx.ring.nvars - 1
    q0 = dim_x + 2
    prev = None
    for q in range(q0, q0 + STABLE_HOM_STEPS + 1):
        val = ext_gamma_dims(E, N.twist(-q * d), [2 * q])[2 * q]
        if prev is not None and val == prev:
            return val, True, q
        prev = val
    return prev, False, q0 + STABLE_HOM_STEPS


# -- reconstruction of a factorization --------------------------------------------


def mf_from_module(ctx, alpha):
    """Complete an injective map alpha: (+)O(b) -> (+)O(a) over R to a
    matrix factorization of W: solves alpha(d) o beta = W*id for beta and
    returns MF(e1=alpha, e0=beta).

    Raises if alpha is not injective, that is, if it has a syzygy (the
    error names the least internal degree of a kernel generator, -max of
    the syzygy twists), or if W*id does not factor through alpha."""
    ring = ctx.ring
    d = ctx.d
    E1, E0 = alpha.src, alpha.dst
    kernel = syzygies(alpha).src
    if kernel.rank:
        raise ValueError(
            "alpha has a kernel in internal degree %d: it does not "
            "present a module of projective dimension one" % -max(kernel))
    # beta in Hom(E0, E1(d)) with alpha(d) o beta = W*id in Hom(E0, E0(d))
    post = _post_compose_matrix(alpha.twist(d), E0)
    w_id = [ctx.W if r == c else ring.zero()
            for r in range(E0.rank) for c in range(E0.rank)]
    x = solve(ring.field, *ring.piece_matrix(post, 0),
              ring.coords(w_id, post.dst))
    if x is None:
        raise ValueError("W*id does not factor through alpha: the cokernel "
                         "is not a matrix-factorization module")
    [beta] = unpack_maps(ring, ring.polys_from_coords(x, post.src),
                         (E0, E1.twist(d)))
    return MatrixFactorization(ctx, alpha, beta, check=True)


# -- relative perfection ---------------------------------------------------------


def _column_signature(ring, col, n):
    """A nonzero column {row: entry} of n rows rendered scale-invariantly:
    normalized by the leading coefficient of its first nonzero entry."""
    scale = ring.field.inv(col[min(col)].leading_term()[1])
    return tuple(ring.to_str(col[r].scale(scale)) if r in col else "0"
                 for r in range(n))


def _presentation_signature(pres):
    """Relation matrix of a minimalized presentation (so without zero
    columns) up to column permutation, column unit scaling and a uniform
    twist shift."""
    gens = pres.rel.dst
    base = min(gens) if gens.rank else 0
    twists = tuple(t - base for t in gens)
    sigs = tuple(sorted(_column_signature(pres.ring, col, gens.rank)
                        for col in sparse_transpose(pres.rel.rows,
                                                    pres.rel.src.rank)))
    return (twists, sigs)


def push_to_ambient(ctx, M):
    """View an R_Y-module as an R-module: same generators, the same
    relations plus W times each generator, with redundant columns dropped.
    The relation entries are normal forms in R too, since the leading
    ideal of I + (W) contains that of I."""
    ring, rel = ctx.ring, M.rel
    w = SheafMap.scalar(ring, ctx.W, rel.dst.twist(-ctx.d), rel.dst)
    return ModulePresentation(minimal_columns(SheafMap.from_blocks(
        ring, [rel.src, w.src], [rel.dst], [[rel, w]])))


def is_relatively_perfect(ctx, M, max_steps=12):
    """Whether M has finite projective dimension over the ambient ring R.

    Iterates minimal syzygies of the relation matrix: an empty relation
    matrix certifies perfection; a 2-periodic repetition (matrices two
    steps apart equal up to column permutation, unit scaling and twist
    shift) certifies infinite projective dimension.

    Returns {"perfect": True|False|None, "steps", "status", "history"};
    max_steps must be at least 1."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1, got %d" % max_steps)
    ring = ctx.ring
    if M.ring != ring:
        if M.ring != ctx.y_ring():
            raise ValueError("module is over neither R nor R_Y")
        M = push_to_ambient(ctx, M)
    pres = M.minimalize()
    history = []
    for step in range(max_steps):
        if pres.rel.src.rank == 0:
            return {"perfect": True, "steps": step, "status": "finite",
                    "history": history}
        sig = _presentation_signature(pres)
        history.append(sig)
        if len(history) >= 3 and history[-1] == history[-3]:
            return {"perfect": False, "steps": step, "status": "periodic",
                    "history": history}
        pres = syzygy_presentation(pres).minimalize()
    return {"perfect": None, "steps": max_steps, "status": "inconclusive",
            "history": history}
