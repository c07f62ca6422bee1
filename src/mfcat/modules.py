"""Graded module presentations, module Groebner bases, syzygies,
Fitting ideals, and bounded saturation queries.

Free-module elements are sparse dicts {(component, exponent tuple): coeff}.
The module order is grevlex on monomials with a component tie-break; an
elimination variant ranks the first `split` components above the rest,
which is how syzygies are extracted (tag-column elimination).
"""

from itertools import combinations

from .linalg import CosetReducer, sparse_transpose
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
    """Finitely presented graded module: generator twists + relation columns.

    A generator of twist a spans a copy of R(a); a relation column with
    twist t has homogeneous entries of degree gen_twist(r) - t.
    """

    def __init__(self, ring, gen_twists, columns, check=True):
        self.ring = ring
        self.gen_twists = list(gen_twists)
        cols = []
        for col in columns:
            cols.append([ring.normal_form(p) for p in col])
        self.columns = cols
        self.rel_twists = []
        for c, col in enumerate(self.columns):
            if len(col) != len(self.gen_twists):
                raise ValueError("relation column %d has wrong length" % c)
            tw = None
            for r, p in enumerate(col):
                if p.is_zero():
                    continue
                if check and not p.is_homogeneous():
                    raise ValueError("relation entry (%d, %d) not homogeneous" % (r, c))
                t = self.gen_twists[r] - p.total_degree()
                if tw is None:
                    tw = t
                elif check and t != tw:
                    raise ValueError(
                        "relation column %d is not twist-consistent" % c)
            self.rel_twists.append(tw)  # None for a zero column
        self._pieces = {}

    @property
    def n_gens(self):
        return len(self.gen_twists)

    @property
    def n_rels(self):
        return len(self.columns)

    def rows(self):
        """Relation matrix as rows (gens x rels)."""
        return [[self.columns[c][r] for c in range(self.n_rels)]
                for r in range(self.n_gens)]

    def twist(self, n):
        return ModulePresentation(self.ring, [a + n for a in self.gen_twists],
                                  self.columns, check=False)

    def drop_zero_columns(self):
        cols = [c for c in self.columns if any(not p.is_zero() for p in c)]
        return ModulePresentation(self.ring, self.gen_twists, cols, check=False)

    def minimalize(self):
        """Eliminate generators that occur with a unit (constant) coefficient
        in some relation; repeats until no constant entries remain."""
        ring = self.ring
        F = ring.field
        gens = list(self.gen_twists)
        cols = [list(c) for c in self.columns]
        changed = True
        while changed:
            changed = False
            for ci in range(len(cols)):
                unit = None
                for r in range(len(gens)):
                    p = cols[ci][r]
                    if not p.is_zero() and p.is_constant():
                        unit = r
                        break
                if unit is None:
                    continue
                pivot = cols[ci][unit].constant_value()
                inv = F.inv(pivot)
                # clear row `unit` from the other columns using column ci
                for cj in range(len(cols)):
                    if cj == ci:
                        continue
                    q = cols[cj][unit]
                    if q.is_zero():
                        continue
                    factor = q.scale(inv)
                    cols[cj] = [ring.normal_form(a - factor * b)
                                for a, b in zip(cols[cj], cols[ci])]
                del gens[unit]
                del cols[ci]
                for cj in range(len(cols)):
                    del cols[cj][unit]
                changed = True
                break
        cols = [c for c in cols if any(not p.is_zero() for p in c)]
        return ModulePresentation(ring, gens, cols, check=False)

    def is_same_presentation(self, other):
        return (self.ring == other.ring
                and self.gen_twists == other.gen_twists
                and len(self.columns) == len(other.columns)
                and all(a == b for ca, cb in zip(self.columns, other.columns)
                        for a, b in zip(ca, cb)))

    # -- graded pieces ------------------------------------------------------

    def piece(self, t):
        if t not in self._pieces:
            self._pieces[t] = ModulePiece(self, t)
        return self._pieces[t]

    def piece_dim(self, t):
        return self.piece(t).dim

    def describe(self):
        return {
            "twists": list(self.gen_twists),
            "relations": [[self.ring.to_str(self.columns[c][r])
                           for c in range(self.n_rels)]
                          for r in range(self.n_gens)],
        }

    def __repr__(self):
        return "ModulePresentation(gens=%r, rels=%d)" % (self.gen_twists, self.n_rels)


class ModulePiece:
    """The degree-t piece of a presented module, as explicit linear algebra.

    Ambient space = direct sum of the degree-(t + a_r) pieces of R over the
    generators; the relation image, the degree-t piece matrix of the
    relation matrix, is divided out through a coset reducer, so elements
    get canonical quotient coordinates.
    """

    def __init__(self, pres, t):
        self.pres = pres
        self.t = t
        ring = pres.ring
        # zero relation columns (twist None) add nothing to the span
        cols = [c for c, tw in enumerate(pres.rel_twists) if tw is not None]
        rows = [{} for _ in pres.gen_twists]
        for k, c in enumerate(cols):
            for row, p in zip(rows, pres.columns[c]):
                if not p.is_zero():
                    row[k] = p
        rel = SheafMap.from_rows(ring, TwistSum(pres.rel_twists[c] for c in cols),
                                 TwistSum(pres.gen_twists), rows)
        self.reducer = CosetReducer(ring.field, *ring.piece_matrix(rel, t))
        pivot_set = set(self.reducer.pivots)
        self.free_indices = [i for i in range(self.reducer.ambient)
                             if i not in pivot_set]
        self.dim = len(self.free_indices)

    def mult_map(self, p, target_piece):
        """Matrix of multiplication by homogeneous p into target_piece,
        in quotient coordinates, as sparse rows: target_piece.dim rows,
        columns in range(self.dim).  p must have degree
        target_piece.t - self.t (ValueError otherwise)."""
        ring = self.pres.ring
        gens = TwistSum(self.pres.gen_twists)
        m, n = ring.piece_matrix(SheafMap.scalar(
            ring, p, gens, gens.twist(target_piece.t - self.t)), self.t)
        cols = sparse_transpose(m, n)
        # a reduced vector is zero at the pivots: its keys are free indices
        pos = {i: k for k, i in enumerate(target_piece.free_indices)}
        out = [{} for _ in range(target_piece.dim)]
        for j, i in enumerate(self.free_indices):
            for r, v in target_piece.reducer.reduce(cols[i]).items():
                out[pos[r]][j] = v
        return out


# -- syzygies ---------------------------------------------------------------


def _column_degree(col, gen_twists):
    for r, p in enumerate(col):
        if not p.is_zero():
            return gen_twists[r] - p.total_degree()
    return None


def _vec_from_column(F, col):
    v = {}
    for r, p in enumerate(col):
        for e, c in p.terms.items():
            v[(r, e)] = c
    return v


def _column_from_vec(ring, v, ncomp):
    cols = [dict() for _ in range(ncomp)]
    for (comp, e), c in v.items():
        cols[comp][e] = c
    return [ring.normal_form(Poly(ring.field, ring.nvars, d)) for d in cols]


def _ideal_closure_vectors(ring, ncomp):
    out = []
    for g in ring.ideal_gens:
        for i in range(ncomp):
            out.append({(i, e): c for e, c in g.terms.items()})
    return out


def syzygies(matrix_columns, ring, gen_twists):
    """Homogeneous generators of the syzygy module of the given columns.

    `matrix_columns` is a list of columns, each a list of Polys (length =
    len(gen_twists)), defining a map  ⊕ R(t_c) → ⊕ R(a_r)  over R = S/I.
    Returns a list of syzygy columns (lists of Polys, one entry per input
    column); (input matrix)·(each syzygy) normal-forms to zero over R.
    The returned set is minimal (graded Nakayama) and deterministic.
    """
    F = ring.field
    R = len(gen_twists)
    N = len(matrix_columns)
    if N == 0:
        return []
    # Work in S^(R+N): tag column j with the extra basis vector e_{R+j};
    # untagged ideal multiples make the computation happen over R = S/I.
    gens = []
    for j, col in enumerate(matrix_columns):
        v = _vec_from_column(F, [ring.normal_form(p) for p in col])
        v[(R + j, (0,) * ring.nvars)] = F.one()
        gens.append(v)
    gens.extend(_ideal_closure_vectors(ring, R))
    gb = module_buchberger(gens, F, split=R)
    raw = []
    for v in gb:
        if any(comp < R for (comp, _e) in v):
            continue
        shifted = {(comp - R, e): c for (comp, e), c in v.items()}
        col = _column_from_vec(ring, shifted, N)
        if any(not p.is_zero() for p in col):
            raw.append(col)
    # deduplicate and sort deterministically
    col_twists = [_column_degree(c, gen_twists) for c in matrix_columns]
    def sort_key(col):
        deg = _column_degree(col, [t if t is not None else 0 for t in col_twists])
        support = sum(1 for p in col if not p.is_zero())
        s = tuple(ring.to_str(p) for p in col)
        return (-(deg if deg is not None else 0), support, s)
    raw.sort(key=sort_key)
    dedup = []
    seen = set()
    for col in raw:
        k = tuple(p.key() for p in col)
        if k not in seen:
            seen.add(k)
            dedup.append(col)
    return _minimalize_generators(dedup, ring, ncomp=N)


def _minimalize_generators(cols, ring, ncomp):
    """Greedy minimal generating set: drop any column lying in the
    R-submodule generated by the others."""
    F = ring.field
    keep = list(cols)
    i = 0
    while i < len(keep):
        others = keep[:i] + keep[i + 1:]
        if others and _in_submodule(keep[i], others, ring, ncomp):
            del keep[i]
        else:
            i += 1
    return keep


def _in_submodule(col, generators, ring, ncomp):
    F = ring.field
    vecs = [_vec_from_column(F, g) for g in generators]
    vecs = [v for v in vecs if v]
    vecs.extend(_ideal_closure_vectors(ring, ncomp))
    gb = module_buchberger(vecs, F, split=ncomp)
    target = _vec_from_column(F, [ring.normal_form(p) for p in col])
    if not target:
        return True
    return not vec_reduce(F, target, gb, split=ncomp)


def syzygy_presentation(pres):
    """Syzygies of a presentation's relation columns, as a presentation of
    the first syzygy module (generators = the relation columns)."""
    cols = syzygies(pres.columns, pres.ring,
                    pres.gen_twists)
    rel_twists = [t if t is not None else 0 for t in pres.rel_twists]
    return ModulePresentation(pres.ring, rel_twists, cols, check=False)


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
    g = pres.n_gens
    t = g - r
    if t <= 0:
        return [ring.one()]
    rows = pres.rows()
    ncols = pres.n_rels
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
