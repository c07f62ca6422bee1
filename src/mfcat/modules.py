"""Graded module presentations, syzygies, Fitting ideals, and two exact
yes/no tests: whether an element is a nonzerodivisor (it has no syzygy)
and whether an ideal has no common zero with X (covers).

A presentation is the cokernel of its relation matrix rel, a SheafMap
(the sparse-row matrix of ring elements that the MF side uses): the
relation twists are rel.src, the generator twists rel.dst.  Its graded
pieces are only counted, from the rank of rel's piece matrix.  Submodule
membership is linear algebra in one graded piece (minimal_columns).
Syzygies run the Groebner engine of ring.py on free-module vectors: term
dicts whose monomials are an exponent tuple followed by a one-hot block
naming the component, so that a term divides another only within its
component; syzygies turns the columns of a map into such vectors where
it starts.  The module order ranks the first `split` components above
the rest (the elimination that extracts syzygies, by tag columns), then
grevlex on the monomial, then the lower component.
"""

from itertools import combinations

from .linalg import solve, sparse_transpose
from .mf import SheafMap, TwistSum
from .poly import Poly, grevlex_key
from .ring import buchberger, groebner_terms


# -- free-module vectors -------------------------------------------------


def _unit(comp, ncomp):
    return tuple(int(k == comp) for k in range(ncomp))


def _module_key(nvars, split):
    """The module order on one-hot terms over nvars variables."""
    def key(t):
        # t[nvars:] is larger for a lower component
        return (any(t[nvars:nvars + split]), grevlex_key(t[:nvars]),
                t[nvars:])
    return key


def module_buchberger(vectors, field, nvars, split):
    """Groebner basis of the submodule generated by `vectors` over S, in the
    module order with the first `split` components eliminated."""
    return groebner_terms(field, vectors, _module_key(nvars, split), nvars)


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

    def __repr__(self):
        return "ModulePresentation(gens=%r, rels=%d)" % (
            list(self.rel.dst), self.rel.src.rank)


# -- syzygies ---------------------------------------------------------------


def _column_vectors(rel, ncomp):
    """The columns of rel as vectors of a free module of rank ncomp, at
    least rel's number of rows: the term x^e of row r becomes e followed by
    the one-hot block of r."""
    units = [_unit(r, ncomp) for r in range(rel.dst.rank)]
    vecs = [{} for _ in rel.src]
    for r, row in enumerate(rel.rows):
        for c, p in row.items():
            for e, x in p.terms.items():
                vecs[c][e + units[r]] = x
    return vecs


def _ideal_closure_vectors(ring, nrows, ncomp):
    """g e_i for every generator g of I and component i < nrows, which make
    a computation over S happen over R = S/I."""
    return [{e + _unit(i, ncomp): c for e, c in g.terms.items()}
            for g in ring.ideal_gens for i in range(nrows)]


def syzygies(rel):
    """Homogeneous generators of the syzygy module of rel: (+)R(t_c) ->
    (+)R(a_r) over R = S/I, as the map (+)R(s_k) -> (+)R(t_c) whose columns
    they are, so that rel composed with it is zero.  The set is minimal
    (graded Nakayama) and deterministic."""
    ring = rel.ring
    F, n = ring.field, ring.nvars
    R, N = rel.dst.rank, rel.src.rank
    # Work in S^(R+N): tag column j with the extra basis vector e_{R+j};
    # untagged ideal multiples make the computation happen over R = S/I.
    gens = _column_vectors(rel, R + N)
    for j, v in enumerate(gens):
        v[(0,) * n + _unit(R + j, R + N)] = F.one()
    gens.extend(_ideal_closure_vectors(ring, R, R + N))
    raw = []
    for v in module_buchberger(gens, F, n, split=R):
        if any(1 in t[n:n + R] for t in v):
            continue
        terms = {}
        for t, c in v.items():
            terms.setdefault(t.index(1, n) - n - R, {})[t[:n]] = c
        polys = {k: ring.normal_form(Poly(F, n, terms[k]))
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
    others.  A column of twist t is homogeneous of degree -t, so it lies
    there exactly when its coordinates in the degree -t pieces are in the
    column span of the others' piece matrix in degree -t."""
    ring, rows = rel.ring, range(rel.dst.rank)
    cols = sparse_transpose(rel.rows, rel.src.rank)
    keep = [c for c, col in enumerate(cols) if col]
    i = 0
    while i < len(keep):
        c = keep[i]
        t = -rel.src[c]
        b = ring.coords([cols[c].get(r, ring.zero()) for r in rows],
                        [t + a for a in rel.dst])
        others = rel.submatrix(rows, keep[:i] + keep[i + 1:])
        if solve(ring.field, *ring.piece_matrix(others, t), b) is not None:
            del keep[i]
        else:
            i += 1
    return rel.submatrix(rows, keep)


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


def variable_powers(ring, N):
    """x_i^N for every variable x_i of ring."""
    return [Poly.monomial(ring.field, ring.nvars,
                          tuple(N if k == i else 0 for k in range(ring.nvars)))
            for i in range(ring.nvars)]


# -- exact yes/no tests ------------------------------------------------------


def is_nonzerodivisor(ring, w):
    """Whether the homogeneous w is a nonzerodivisor on R: the 1 x 1 map
    (w): R(-deg w) -> R is injective exactly when it has no syzygy."""
    w = ring.normal_form(w)
    if w.is_zero():
        return False
    return not syzygies(SheafMap.from_rows(
        ring, TwistSum([-w.total_degree()]), TwistSum([0]), [{0: w}])).src


def covers(ring, gens, affine=False):
    """Whether J = (gens) has no common zero with X.  On X = Proj R that
    is: S/(I + J) has finite length, that is, its Groebner basis has a pure
    power of every variable among its leading monomials (Cox-Little-O'Shea,
    Ideals, Varieties, and Algorithms, ch. 5, sec. 3).  In affine mode,
    on Spec R: I + J is the unit ideal, its Groebner basis has a
    constant."""
    leads = [g.leading_term()[0]
             for g in buchberger(ring.ideal_gens + list(gens))]
    if affine:
        return any(not any(lm) for lm in leads)
    return all(any(lm[i] == sum(lm) for lm in leads)
               for i in range(ring.nvars))
