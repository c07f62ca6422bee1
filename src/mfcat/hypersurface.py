"""Module-side operations over the hypersurface ring R_Y = R/(W):
cokernel presentations, unrolled periodic resolutions, graded Ext tables,
stable Hom dimensions, reconstruction of a factorization from a module
map, and relative perfection of modules."""

from .linalg import homology_dim, solve, sparse_blocks, sparse_rank
from .mf import MatrixFactorization, _post_compose_matrix, unpack_maps
from .modules import (ModulePresentation, _minimalize_generators,
                      syzygy_presentation)


def coker_module(E, minimal=True):
    """coker(e1) as a graded module over R_Y = R/(W): generators are the
    twists of E0, relations the columns of e1."""
    ry = E.ctx.y_ring()
    e1 = E.e1.entries
    cols = [[e1[r][c] for r in range(E.E0.rank)] for c in range(E.E1.rank)]
    pres = ModulePresentation(ry, list(E.E0.twists), cols)
    if minimal:
        pres = pres.minimalize()
    return pres


def periodic_resolution(E, lo=-6, hi=0, t_range=None):
    """Unroll the restriction of E to Y into the 2-periodic complex
    ... -> (i^*E)^{-2} -> (i^*E)^{-1} -> (i^*E)^0 -> coker -> 0
    and verify graded-piece exactness at the interior spots.  Failures
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


# -- graded Ext tables ---------------------------------------------------------


def _ext_differential(E, N, q):
    """Matrix of Hom(i^*E^{-q}, N)_0 -> Hom(i^*E^{-q-1}, N)_0 given by
    precomposition with the differential of i^*E, as (sparse rows,
    ncols)."""
    d = E.diff_at(-q - 1)            # component(-q-1) -> component(-q)
    src_pieces = [N.piece(-a) for a in d.dst]   # Hom(i^*E^{-q}, N)_0
    dst_pieces = [N.piece(-a) for a in d.src]

    def blocks():
        # entry (c, r) of d is block (r, c); row by row of d, each block
        # row still gets its blocks in increasing c
        for c, row in enumerate(d.rows):
            pc = src_pieces[c]
            for r, p in row.items():
                p, pr = N.ring.normal_form(p), dst_pieces[r]
                if pr.dim and pc.dim and not p.is_zero():   # may vanish in R_Y
                    yield r, c, pc.mult_map(p, pr)

    return sparse_blocks([pr.dim for pr in dst_pieces],
                         [pc.dim for pc in src_pieces], blocks())


def ext_gamma_dims(E, N, q_range):
    """dim Ext^q in degree 0 between the restriction of E and the graded
    R_Y-module N, computed from the 2-periodic Hom complex."""
    if N.ring != E.ctx.y_ring():
        raise ValueError("N must be a module over the hypersurface ring")
    qs = sorted(q_range)
    if not qs:
        raise ValueError("empty range of Ext degrees q")
    mats = {q: _ext_differential(E, N, q) for q in range(qs[0] - 1, qs[-1] + 1)}
    return {q: homology_dim(N.ring.field, mats[q], mats[q - 1]) for q in qs}


def stable_hom_dim(E, N, extra_steps=8):
    """Stable Hom dimension: Ext^{2q}(i^*E, N(-q*d)) for q past dim X + 1,
    accepted once two consecutive q agree.

    Returns (dim, stable, q_used)."""
    ctx = E.ctx
    d = ctx.d
    q0 = ctx.dim_x() + 2
    prev = None
    for q in range(q0, q0 + extra_steps + 1):
        val = ext_gamma_dims(E, N.twist(-q * d), [2 * q])[2 * q]
        if prev is not None and val == prev:
            return val, True, q
        prev = val
    return prev, False, q0 + extra_steps


# -- reconstruction of a factorization --------------------------------------------


def mf_from_module(ctx, alpha, injectivity_bound=None):
    """Complete an injective map alpha: (+)O(b) -> (+)O(a) over R to a
    matrix factorization of W: solves alpha(d) o beta = W*id for beta and
    returns MF(e1=alpha, e0=beta).

    Raises if alpha is not injective in the tested degree window or if
    W*id does not factor through alpha."""
    ring = ctx.ring
    d = ctx.d
    E1, E0 = alpha.src, alpha.dst
    if injectivity_bound is None:
        spread = max((abs(a) for a in tuple(E1) + tuple(E0)), default=0)
        injectivity_bound = spread + ring.max_ideal_degree() + d + 3
    for t in range(0, injectivity_bound + 1):
        rows, ncols = ring.piece_matrix(alpha, t)
        if sparse_rank(ring.field, rows, ncols) < ncols:
            raise ValueError(
                "alpha has a kernel in internal degree %d: it does not "
                "present a module of projective dimension one" % t)
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


def _column_signature(ring, col):
    """Column rendered scale-invariantly: normalized by the leading
    coefficient of its first nonzero entry."""
    field = ring.field
    scale = None
    for p in col:
        if not p.is_zero():
            scale = field.inv(p.leading_term()[1])
            break
    if scale is None:
        return None
    return tuple(ring.to_str(p.scale(scale)) for p in col)


def _presentation_signature(pres):
    """Relation matrix up to column permutation, column unit scaling and a
    uniform twist shift."""
    base = min(pres.gen_twists) if pres.gen_twists else 0
    twists = tuple(t - base for t in pres.gen_twists)
    sigs = [_column_signature(pres.ring, col) for col in pres.columns]
    sigs = tuple(sorted(s for s in sigs if s is not None))
    return (twists, sigs)


def push_to_ambient(ctx, M):
    """View an R_Y-module as an R-module: same generators, the same
    relations plus W times each generator, with redundant columns dropped."""
    ring = ctx.ring
    cols = [[ring.normal_form(p) for p in col] for col in M.columns]
    for r in range(M.n_gens):
        col = [ring.zero()] * M.n_gens
        col[r] = ctx.W
        cols.append(col)
    cols = [c for c in cols if any(not p.is_zero() for p in c)]
    cols = _minimalize_generators(cols, ring, ncomp=M.n_gens)
    return ModulePresentation(ring, M.gen_twists, cols)


def is_relatively_perfect(ctx, M, max_steps=12):
    """Whether M has finite projective dimension over the ambient ring R.

    Iterates minimal syzygies of the relation matrix: an empty relation
    matrix certifies perfection; a 2-periodic repetition (matrices two
    steps apart equal up to column permutation, unit scaling and twist
    shift) certifies infinite projective dimension.

    Returns {"perfect": True|False|None, "steps", "status", "history"}."""
    ring = ctx.ring
    if M.ring != ring:
        if M.ring != ctx.y_ring():
            raise ValueError("module is over neither R nor R_Y")
        M = push_to_ambient(ctx, M)
    pres = M.minimalize().drop_zero_columns()
    history = []
    for step in range(max_steps):
        if pres.n_rels == 0:
            return {"perfect": True, "steps": step, "status": "finite",
                    "history": history}
        sig = _presentation_signature(pres)
        history.append(sig)
        if len(history) >= 3 and history[-1] == history[-3]:
            return {"perfect": False, "steps": step, "status": "periodic",
                    "history": history}
        pres = syzygy_presentation(pres).minimalize().drop_zero_columns()
    return {"perfect": None, "steps": max_steps, "status": "inconclusive",
            "history": history}
