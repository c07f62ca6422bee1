"""Module-side operations over the hypersurface ring R_Y = R/(W):
cokernel presentations, unrolled periodic resolutions, graded Ext tables,
stable Hom dimensions, reconstruction of a factorization from a module
map, and relative perfection of modules."""

from .linalg import ExactMatrix, rank, solve
from .mf import MatrixFactorization, SheafMap
from .modules import (ModulePresentation, _minimalize_generators,
                      syzygy_presentation)
from .poly import Poly


def coker_module(E, minimal=True):
    """coker(e1) as a graded module over R_Y = R/(W): generators are the
    twists of E0, relations the columns of e1."""
    ry = E.ctx.y_ring()
    cols = [[E.e1.entries[r][c] for r in range(E.E0.rank)]
            for c in range(E.E1.rank)]
    pres = ModulePresentation(ry, list(E.E0.twists), cols)
    if minimal:
        pres = pres.minimalize()
    return pres


def _piece_matrix(ring, src_twists, dst_twists, entries, t):
    """Matrix of a homogeneous block map on internal-degree-t pieces."""
    field = ring.field
    src_dims = [len(ring.graded_piece_basis(t + a)) for a in src_twists]
    dst_dims = [len(ring.graded_piece_basis(t + a)) for a in dst_twists]
    total_src, total_dst = sum(src_dims), sum(dst_dims)
    rows = [[field.zero()] * total_src for _ in range(total_dst)]
    coff = 0
    for c in range(len(src_twists)):
        roff = 0
        for r in range(len(dst_twists)):
            p = ring.normal_form(entries[r][c])
            if not p.is_zero():
                block = ring.mult_matrix(p, t + src_twists[c])
                for i, row in enumerate(block):
                    for j, v in enumerate(row):
                        rows[roff + i][coff + j] = v
            roff += dst_dims[r]
        coff += src_dims[c]
    return ExactMatrix(field, rows, total_src)


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
            m_in = _piece_matrix(ry, f_in.src.twists, f_in.dst.twists,
                                 f_in.entries, t)
            m_out = _piece_matrix(ry, f_out.src.twists, f_out.dst.twists,
                                  f_out.entries, t)
            h = m_out.ncols - rank(m_out) - rank(m_in)
            if h != 0:
                failures.append({"spot": q, "internal_degree": t, "dim": h})
    return {"window": [lo, hi], "terms": terms,
            "exact": not failures, "failures": failures}


# -- graded Ext tables ---------------------------------------------------------


def _ext_differential(E, N, q):
    """Matrix of Hom(i^*E^{-q}, N)_0 -> Hom(i^*E^{-q-1}, N)_0 given by
    precomposition with the differential of i^*E."""
    d = E.diff_at(-q - 1)            # component(-q-1) -> component(-q)
    src_tw = d.dst.twists            # indexes Hom(i^*E^{-q}, N)_0
    dst_tw = d.src.twists
    src_pieces = [N.piece(-a) for a in src_tw]
    dst_pieces = [N.piece(-a) for a in dst_tw]
    field = N.ring.field
    total_src = sum(p.dim for p in src_pieces)
    total_dst = sum(p.dim for p in dst_pieces)
    rows = [[field.zero()] * total_src for _ in range(total_dst)]
    coff = 0
    for c, pc in enumerate(src_pieces):
        roff = 0
        for r, pr in enumerate(dst_pieces):
            p = N.ring.normal_form(d.entries[c][r])
            if not p.is_zero() and pc.dim and pr.dim:
                block = pc.mult_map(p, pr)
                for i in range(pr.dim):
                    for j in range(pc.dim):
                        rows[roff + i][coff + j] = block.rows[i][j]
            roff += pr.dim
        coff += pc.dim
    return ExactMatrix(field, rows, total_src)


def ext_gamma_dims(E, N, q_range):
    """dim Ext^q in degree 0 between the restriction of E and the graded
    R_Y-module N, computed from the 2-periodic Hom complex."""
    if N.ring != E.ctx.y_ring():
        raise ValueError("N must be a module over the hypersurface ring")
    qs = sorted(q_range)
    mats = {q: _ext_differential(E, N, q) for q in range(qs[0] - 1, qs[-1] + 1)}
    out = {}
    for q in qs:
        out[q] = mats[q].ncols - rank(mats[q]) - rank(mats[q - 1])
    return out


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
    field = ring.field
    d = ctx.d
    E1, E0 = alpha.src, alpha.dst
    if injectivity_bound is None:
        spread = max((abs(a) for a in tuple(E1) + tuple(E0)), default=0)
        injectivity_bound = spread + ring.max_ideal_degree() + d + 3
    for t in range(0, injectivity_bound + 1):
        m = _piece_matrix(ring, E1.twists, E0.twists, alpha.entries, t)
        if rank(m) < m.ncols:
            raise ValueError(
                "alpha has a kernel in internal degree %d: it does not "
                "present a module of projective dimension one" % t)

    alpha_d = alpha.twist(d)
    # unknowns: monomial coefficients of beta[r][c], deg = E1[r]+d - E0[c]
    unknowns = []
    for r in range(E1.rank):
        for c in range(E0.rank):
            deg = E1[r] + d - E0[c]
            if deg < 0:
                continue
            for m in ring.graded_piece_basis(deg):
                unknowns.append((r, c, m))
    # equation slots: monomial coordinates of each entry (i, j) of the
    # composite alpha(d) o beta, which must equal W*id
    slots = []
    slot_index = {}
    for i in range(E0.rank):
        for j in range(E0.rank):
            deg = E0[i] + d - E0[j]
            if deg < 0:
                continue
            for k, mono in enumerate(ring.graded_piece_basis(deg)):
                slot_index[(i, j, mono)] = len(slots)
                slots.append((i, j, mono))
    cols = []
    for (r, c, m) in unknowns:
        vec = [field.zero()] * len(slots)
        mono_poly = Poly.monomial(field, ring.nvars, m)
        for i in range(E0.rank):
            p = ring.normal_form(alpha_d.entries[i][r] * mono_poly)
            for e, coeff in p.terms.items():
                vec[slot_index[(i, c, e)]] = coeff
        cols.append(vec)
    target = [field.zero()] * len(slots)
    w = ring.normal_form(ctx.W)
    for i in range(E0.rank):
        for e, coeff in w.terms.items():
            target[slot_index[(i, i, e)]] = coeff
    A = ExactMatrix.from_columns(field, cols, len(slots))
    x = solve(A, target)
    if x is None:
        raise ValueError("W*id does not factor through alpha: the cokernel "
                         "is not a matrix-factorization module")
    beta_entries = [[ring.zero() for _ in range(E0.rank)]
                    for _ in range(E1.rank)]
    for (r, c, m), coeff in zip(unknowns, x):
        if not field.is_zero(coeff):
            beta_entries[r][c] = beta_entries[r][c] + \
                Poly.monomial(field, ring.nvars, m, coeff)
    beta = SheafMap(ring, E0, E1.twist(d), beta_entries)
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
