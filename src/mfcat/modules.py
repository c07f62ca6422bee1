"""Graded module presentations, module Groebner bases, syzygies,
Fitting ideals, and bounded saturation queries.

A presentation is the cokernel of its relation matrix rel, a SheafMap
(the sparse-row matrix of ring elements that the MF side uses): the
relation twists are rel.src, the generator twists rel.dst.  Its graded
pieces are only counted, from the rank of rel's piece matrix.  The Groebner
code alone works on free-module elements, sparse dicts {(component,
exponent tuple): coeff}; syzygies and minimal_columns turn the columns of
a map into such vectors where they start.  The module order is grevlex on
monomials with a component tie-break; an elimination variant ranks the
first `split` components above the rest, which is how syzygies are
extracted (tag-column elimination).
"""

from itertools import combinations

from .linalg import sparse_rank, sparse_transpose
from .mf import SheafMap, TwistSum
from .poly import (Poly, grevlex_key, mono_div, mono_divides, mono_lcm,
                   mono_mul)
from .ring import buchberger, reduce_poly


# -- sparse free-module vectors ------------------------------------------


def vec_add(F, v, w):
    out = dict(v)
    for t, c in w.items():
        s = F.add(out.get(t, F.zero()), c)
        if F.is_zero(s):
            out.pop(t, None)
        else:
            out[t] = s
    return out


def vec_scale_mono(F, v, expv, c):
    if F.is_zero(c):
        return {}
    return {(comp, mono_mul(e, expv)): F.mul(cc, c) for (comp, e), cc in v.items()}


def vec_sub(F, v, w):
    return vec_add(F, v, {t: F.neg(c) for t, c in w.items()})


def _term_key(split):
    def key(term):
        comp, e = term
        return (1 if comp < split else 0, grevlex_key(e), -comp)
    return key


def vec_lead(v, split):
    k = _term_key(split)
    t = max(v, key=k)
    return t, v[t]


def vec_reduce(F, v, basis, split):
    """Remainder of v under division by basis vectors (same order)."""
    key = _term_key(split)
    leads = [vec_lead(b, split) for b in basis]
    rem = {}
    work = dict(v)
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        if F.is_zero(c):
            continue
        comp, e = t
        hit = None
        for b, ((bc, be), blc) in zip(basis, leads):
            if bc == comp and mono_divides(be, e):
                hit = (b, be, blc)
                break
        if hit is None:
            s = F.add(rem.get(t, F.zero()), c)
            if F.is_zero(s):
                rem.pop(t, None)
            else:
                rem[t] = s
            continue
        b, be, blc = hit
        factor = mono_div(e, be)
        coef = F.div(c, blc)
        for (bcomp, bexp), bval in b.items():
            if bcomp == comp and bexp == be:
                continue  # leading term cancels the popped term exactly
            t2 = (bcomp, mono_mul(bexp, factor))
            s = F.sub(work.get(t2, F.zero()), F.mul(coef, bval))
            if F.is_zero(s):
                work.pop(t2, None)
            else:
                work[t2] = s
    return rem


def module_buchberger(vectors, field, split):
    """Groebner basis of the submodule generated by `vectors` over S."""
    basis = [dict(v) for v in vectors if v]
    if not basis:
        return []
    def monic(v):
        _, lc = vec_lead(v, split)
        inv = field.inv(lc)
        return {t: field.mul(c, inv) for t, c in v.items()}
    basis = [monic(v) for v in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        (ci, ei), lci = vec_lead(basis[i], split)
        (cj, ej), lcj = vec_lead(basis[j], split)
        if ci != cj:
            continue
        lcm = mono_lcm(ei, ej)
        a = vec_scale_mono(field, basis[i], mono_div(lcm, ei), field.inv(lci))
        b = vec_scale_mono(field, basis[j], mono_div(lcm, ej), field.inv(lcj))
        r = vec_reduce(field, vec_sub(field, a, b), basis, split)
        if r:
            basis.append(monic(r))
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    return basis


# -- presentations ---------------------------------------------------------


class ModulePresentation:
    """Finitely presented graded module: the cokernel of its relation
    matrix rel, a SheafMap from the relation twists (+)R(t_c) = rel.src to
    the generator twists (+)R(a_r) = rel.dst, stored as sparse rows."""

    def __init__(self, rel):
        self.rel = rel

    @classmethod
    def from_columns(cls, ring, gen_twists, columns):
        """The checked boundary for outside input: relation columns as
        lists of Polys, one entry per generator.  Entries are taken to
        normal form; each column's twist is read off its first nonzero
        entry, and a column with none is dropped (it presents the same
        module)."""
        gens = TwistSum(gen_twists)
        rows = [{} for _ in gens]
        twists = []
        for c, col in enumerate(columns):
            if len(col) != gens.rank:
                raise ValueError("relation column %d has wrong length" % c)
            tw = None
            for r, p in enumerate(map(ring.normal_form, col)):
                if p.is_zero():
                    continue
                if not p.is_homogeneous():
                    raise ValueError("relation entry (%d, %d) not homogeneous" % (r, c))
                t = gens[r] - p.total_degree()
                if tw is None:
                    tw = t
                elif t != tw:
                    raise ValueError(
                        "relation column %d is not twist-consistent" % c)
                rows[r][len(twists)] = p
            if tw is not None:
                twists.append(tw)
        return cls(SheafMap.from_rows(ring, TwistSum(twists), gens, rows))

    @property
    def ring(self):
        return self.rel.ring

    def twist(self, n):
        return ModulePresentation(self.rel.twist(n))

    def drop_zero_columns(self):
        used = sorted(set().union(*self.rel.rows))
        return ModulePresentation(self.rel.submatrix(range(self.rel.dst.rank),
                                                     used))

    def minimalize(self):
        """Eliminate generators that occur with a unit (constant)
        coefficient in some relation, pivoting on the first column with a
        constant entry and its first such row, until no constant entries
        remain; zero columns are then dropped."""
        ring = self.ring
        rel = self.rel
        while True:
            units = [(c, r) for r, row in enumerate(rel.rows)
                     for c, p in row.items() if p.is_constant()]
            if not units:
                return ModulePresentation(rel).drop_zero_columns()
            ci, unit = min(units)
            inv = ring.field.inv(rel.rows[unit][ci].constant_value())
            # clear row `unit` from the other columns using column ci
            factors = [(cj, q.scale(inv)) for cj, q in rel.rows[unit].items()
                       if cj != ci]
            rows = []
            for row in rel.rows:
                if ci in row:
                    acc = dict(row)
                    for cj, factor in factors:
                        acc[cj] = ring.normal_form(
                            acc.get(cj, ring.zero()) - factor * row[ci])
                    row = {c: acc[c] for c in sorted(acc)
                           if not acc[c].is_zero()}
                rows.append(row)
            rel = SheafMap.from_rows(ring, rel.src, rel.dst, rows).submatrix(
                [r for r in range(rel.dst.rank) if r != unit],
                [c for c in range(rel.src.rank) if c != ci])

    def piece_dim(self, t):
        """dim of the degree-t piece: that of the generators' piece minus
        the rank of the relation matrix on it."""
        ring, rel = self.ring, self.rel
        return sum(ring.hilbert(t + a) for a in rel.dst) \
            - sparse_rank(ring.field, *ring.piece_matrix(rel, t))

    def __repr__(self):
        return "ModulePresentation(gens=%r, rels=%d)" % (
            list(self.rel.dst), self.rel.src.rank)


# -- syzygies ---------------------------------------------------------------


def _column_vectors(rel):
    """The columns of rel as free-module vectors {(row, exponent): coeff}."""
    vecs = [{} for _ in rel.src]
    for r, row in enumerate(rel.rows):
        for c, p in row.items():
            for e, x in p.terms.items():
                vecs[c][(r, e)] = x
    return vecs


def _ideal_closure_vectors(ring, ncomp):
    out = []
    for g in ring.ideal_gens:
        for i in range(ncomp):
            out.append({(i, e): c for e, c in g.terms.items()})
    return out


def syzygies(rel):
    """Homogeneous generators of the syzygy module of rel: (+)R(t_c) ->
    (+)R(a_r) over R = S/I, as the map (+)R(s_k) -> (+)R(t_c) whose columns
    they are, so that rel composed with it is zero.  The set is minimal
    (graded Nakayama) and deterministic."""
    ring = rel.ring
    F = ring.field
    R, N = rel.dst.rank, rel.src.rank
    # Work in S^(R+N): tag column j with the extra basis vector e_{R+j};
    # untagged ideal multiples make the computation happen over R = S/I.
    gens = _column_vectors(rel)
    for j, v in enumerate(gens):
        v[(R + j, (0,) * ring.nvars)] = F.one()
    gens.extend(_ideal_closure_vectors(ring, R))
    raw = []
    for v in module_buchberger(gens, F, split=R):
        if any(comp < R for (comp, _e) in v):
            continue
        terms = {}
        for (comp, e), c in v.items():
            terms.setdefault(comp - R, {})[e] = c
        polys = {k: ring.normal_form(Poly(F, ring.nvars, terms[k]))
                 for k in sorted(terms)}
        col = {k: p for k, p in polys.items() if not p.is_zero()}
        if col:
            raw.append(col)

    def twist(col):
        k = min(col)
        return rel.src[k] - col[k].total_degree()

    def sort_key(col):
        s = tuple(ring.to_str(col[c]) if c in col else "0" for c in range(N))
        return (-twist(col), len(col), s)
    # sort deterministically, then drop repeats (equal columns, equal keys)
    raw.sort(key=sort_key)
    cols = list({tuple((k, p.key()) for k, p in col.items()): col
                 for col in raw}.values())
    return minimal_columns(SheafMap.from_rows(
        ring, TwistSum(map(twist, cols)), rel.src, sparse_transpose(cols, N)))


def minimal_columns(rel):
    """rel on a minimal generating set of its columns: greedily, in order,
    drop any column that is zero or lies in the R-submodule generated by the
    others."""
    ncomp = rel.dst.rank
    vecs = _column_vectors(rel)
    keep = list(range(len(vecs)))
    i = 0
    while i < len(keep):
        v = vecs[keep[i]]
        others = [vecs[k] for k in keep[:i] + keep[i + 1:] if vecs[k]]
        if not v or (others and _in_submodule(v, others, rel.ring, ncomp)):
            del keep[i]
        else:
            i += 1
    return rel.submatrix(range(ncomp), keep)


def _in_submodule(v, vectors, ring, ncomp):
    """Whether v lies in the R-submodule generated by the vectors."""
    gb = module_buchberger(vectors + _ideal_closure_vectors(ring, ncomp),
                           ring.field, split=ncomp)
    return not vec_reduce(ring.field, v, gb, split=ncomp)


def syzygy_presentation(pres):
    """Syzygies of a presentation's relation columns, as a presentation of
    the first syzygy module (generators = the relation columns)."""
    return ModulePresentation(syzygies(pres.rel))


# -- Fitting ideals ----------------------------------------------------------


def _det(ring, rows):
    """Determinant of a square matrix of Polys (Laplace, memoized)."""
    n = len(rows)
    memo = {}

    def go(row_ids, col_ids):
        if not row_ids:
            return ring.one()
        key = (row_ids, col_ids)
        if key in memo:
            return memo[key]
        r = row_ids[0]
        rest_rows = row_ids[1:]
        acc = ring.zero()
        for k, c in enumerate(col_ids):
            p = rows[r][c]
            if p.is_zero():
                continue
            rest_cols = col_ids[:k] + col_ids[k + 1:]
            sub = go(rest_rows, rest_cols)
            if sub.is_zero():
                continue
            term = p * sub
            acc = acc + (term if k % 2 == 0 else -term)
        acc = ring.normal_form(acc)
        memo[key] = acc
        return acc

    return go(tuple(range(n)), tuple(range(n)))


def fitting_ideal(pres, r):
    """Generators of Fitt_r = ideal of (g-r)-minors of the relation matrix.

    Returns [] for the zero ideal and [1] when g - r <= 0.
    """
    ring = pres.ring
    g = pres.rel.dst.rank
    t = g - r
    if t <= 0:
        return [ring.one()]
    rows = pres.rel.entries
    ncols = pres.rel.src.rank
    if t > g or t > ncols:
        return []
    out = []
    seen = set()
    for rsub in combinations(range(g), t):
        sub_rows = [rows[i] for i in rsub]
        for csub in combinations(range(ncols), t):
            minor = _det(ring, [[sub_rows[a][c] for c in csub] for a in range(t)])
            if minor.is_zero():
                continue
            minor = minor.monic()
            k = minor.key()
            if k not in seen:
                seen.add(k)
                out.append(minor)
    out.sort(key=lambda p: (p.total_degree(), ring.to_str(p)))
    return out


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


def contains_irrelevant_power(J_gens, ring, B):
    """Least N <= B with x_i^N in J + I for every variable, else None.

    A yes(N) answer certifies that V(J) misses Proj(R); None is the
    explicit "no within bound" signal, never a silent no.
    """
    gens = [ring.normal_form(p) for p in J_gens]
    gens = [p for p in gens if not p.is_zero()]
    basis = buchberger(gens + ring.ideal_gens)
    if not basis:
        return None
    for N in range(1, B + 1):
        ok = True
        for i in range(ring.nvars):
            xN = Poly.monomial(ring.field, ring.nvars,
                               tuple(N if k == i else 0 for k in range(ring.nvars)))
            if not reduce_poly(xN, basis).is_zero():
                ok = False
                break
        if ok:
            return N
    return None


def default_saturation_bound(ring, J_gens):
    """2 * (number of variables) * (max generator degree + 1)."""
    maxdeg = max([p.total_degree() for p in J_gens if not p.is_zero()] + [0])
    return 2 * ring.nvars * (maxdeg + 1)
