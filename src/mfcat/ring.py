"""The Groebner engine, and graded quotient rings R = S/I with normal
forms.

One division loop (reduce_terms) and one Buchberger pair loop
(groebner_terms) serve ideals and submodules alike: both work on term
dicts {monomial: coeff} under a monomial-order key.  Ideals use grevlex;
a free-module term is its exponent tuple followed by a one-hot component
block, under the module order of modules.py.  In rings the monomial order
is grevlex throughout; all variables have degree 1, so graded pieces are
spanned by standard monomials of the right degree.

The graded-piece bases and multiplication blocks of a ring depend only on
its value (field, variables, reduced Groebner basis), so they are kept per
value and shared by all equal rings alive at the same time; they go when
the last of those rings does.  The other memos (Cech ranks, local duality,
covering forms) stay on each ring object.
"""

import weakref
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement

from .linalg import Block, sparse_blocks
from .poly import (Poly, grevlex_key, mono_div, mono_divides, mono_lcm,
                   mono_mul, parse_poly)


def lead(terms, key):
    """The leading (monomial, coefficient) of a nonzero term dict under the
    monomial-order key."""
    m = max(terms, key=key)
    return m, terms[m]


def _monic(F, terms, key):
    inv = F.inv(lead(terms, key)[1])
    return {e: F.mul(c, inv) for e, c in terms.items()}


def reduce_terms(F, terms, basis, key, leads=None):
    """Remainder of the term dict {monomial: coeff} under division by the
    term dicts in basis, in the monomial order of key: the largest
    remaining term is cancelled by the first basis element whose leading
    monomial divides it, or else moved to the remainder.  leads, if
    given, are the basis elements' leading terms."""
    if leads is None:
        leads = [lead(b, key) for b in basis]
    rem = {}
    work = dict(terms)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for b, (lm, lc) in zip(basis, leads):
            if mono_divides(lm, m):
                break
        else:
            rem[m] = c
            continue
        factor = mono_div(m, lm)
        coef = F.div(c, lc)
        # work -= coef * x^factor * (b minus its leading term); the leading
        # term cancels the popped term exactly
        for e, bc in b.items():
            if e == lm:
                continue
            e2 = mono_mul(e, factor)
            s = F.sub(work.get(e2, F.zero()), F.mul(coef, bc))
            if F.is_zero(s):
                work.pop(e2, None)
            else:
                work[e2] = s
    return rem


def groebner_terms(F, gens, key, nvars):
    """A Groebner basis, made monic but not reduced, of the term dicts gens
    under the monomial-order key, by Buchberger's pair loop.

    A monomial is an exponent tuple over the nvars variables, followed for
    a free module by a one-hot block naming its component, so mono_divides
    divides only within a component.  A pair is skipped when its leading
    terms lie in different components (it has no S-pair) or have coprime
    leading monomials (its S-pair reduces to zero); two terms of one
    component are never coprime, since their one-hot blocks overlap."""
    basis = [_monic(F, g, key) for g in gens if g]
    leads = [lead(b, key) for b in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        mi, mj = leads[i][0], leads[j][0]
        lcm = mono_lcm(mi, mj)
        if mi[nvars:] != mj[nvars:] or lcm == mono_mul(mi, mj):
            continue
        # the S-pair of two monic elements; their leading terms cancel
        fi, fj = mono_div(lcm, mi), mono_div(lcm, mj)
        s = {mono_mul(e, fi): c for e, c in basis[i].items()}
        for e, c in basis[j].items():
            e = mono_mul(e, fj)
            v = F.sub(s.get(e, F.zero()), c)
            if F.is_zero(v):
                s.pop(e, None)
            else:
                s[e] = v
        r = reduce_terms(F, s, basis, key, leads)
        if r:
            basis.append(_monic(F, r, key))
            leads.append(lead(basis[-1], key))
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    return basis


def reduce_poly(f, basis):
    """Remainder of f under multivariate division by basis (list of Polys)."""
    return Poly(f.field, f.nvars,
                reduce_terms(f.field, f.terms, [g.terms for g in basis],
                             grevlex_key))


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    F, n = gens[0].field, gens[0].nvars
    basis = [(lead(g, grevlex_key)[0], g) for g in
             groebner_terms(F, [g.terms for g in gens], grevlex_key, n)]
    # minimalize: drop elements whose lead is divisible by another lead
    basis.sort(key=lambda t: grevlex_key(t[0]))
    minimal = []
    for lm, g in basis:
        if not any(mono_divides(h, lm) for h, _ in minimal):
            minimal.append((lm, g))
    # reduce each element fully against the others; the monic leads stay
    gs = [g for _, g in minimal]
    return [Poly(F, n, reduce_terms(F, g, gs[:i] + gs[i + 1:], grevlex_key))
            for i, g in enumerate(gs)]


def monomials_of_degree(nvars, n):
    """All exponent tuples of total degree n, in descending grevlex order."""
    if n < 0:
        return []
    out = []
    for combo in combinations_with_replacement(range(nvars), n):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort(key=grevlex_key, reverse=True)
    return out


class _Tables:
    """The graded-piece bases {n: standard monomials} and multiplication
    blocks {(p, n): Block} of one ring value."""

    __slots__ = ("pieces", "mult", "__weakref__")

    def __init__(self):
        self.pieces = {}
        self.mult = {}


# ring value key -> its _Tables, while some ring of that value is alive.
# Keyed on the value, not on a ring: the dictionary holds its keys strongly.
_TABLES = weakref.WeakValueDictionary()


class GradedRing:
    """R = k[variables]/I with a cached reduced Groebner basis of I."""

    def __init__(self, field, variables, ideal_gens=(), ideal_strings=None):
        self.field = field
        self.variables = list(variables)
        self.nvars = len(self.variables)
        if len(set(self.variables)) != self.nvars:
            raise ValueError("duplicate variable names")
        gens = list(ideal_gens)
        if ideal_strings:
            gens += [parse_poly(s, self.variables, field) for s in ideal_strings]
        for g in gens:
            if g.is_zero():
                continue
            if not g.is_homogeneous() or g.total_degree() < 1:
                raise ValueError("ideal generators must be homogeneous of degree >= 1")
            if g.nvars != self.nvars or g.field != field:
                raise ValueError("ideal generator in the wrong polynomial ring")
        self.ideal_gens = [g for g in gens if not g.is_zero()]
        self.groebner = buchberger(self.ideal_gens)
        # the ring's value, read by __eq__, __hash__ and the shared tables
        self._key = (field, tuple(self.variables),
                     tuple(g.key() for g in self.groebner))
        self._tables = _TABLES.setdefault(self._key, _Tables())
        # (n, p, B) -> rank of the Cech differential of O(n) out of C^p at
        # truncation B, filled by cohomology.cech_cohomology_at
        self.cech_ranks = {}
        # the minimal graded free resolution of this ring over the
        # polynomial ring and the local cohomology read off it, built on
        # first use by cohomology.local_duality
        self.duality = None
        # the linear forms with no common zero on Proj R that the truncated
        # Koszul complexes are built on, chosen on first use by
        # koszul.covering_forms
        self.covering_forms = None

    # -- basic element helpers ------------------------------------------

    def poly(self, s):
        """Parse a string and reduce to normal form."""
        if isinstance(s, Poly):
            return self.normal_form(s)
        return self.normal_form(parse_poly(str(s), self.variables, self.field))

    def zero(self):
        return Poly.zero(self.field, self.nvars)

    def one(self):
        return Poly.const(self.field, self.nvars, 1)

    def const(self, c):
        return Poly.const(self.field, self.nvars, c)

    def normal_form(self, f):
        if f.nvars != self.nvars or f.field != self.field:
            raise ValueError("polynomial from a different ring")
        if not self.groebner:
            return f
        return reduce_poly(f, self.groebner)

    def is_zero(self, f):
        return self.normal_form(f).is_zero()

    def to_str(self, f):
        return f.to_str(self.variables)

    # -- graded pieces ----------------------------------------------------

    def graded_piece_basis(self, n):
        """Standard monomials of degree n (a basis of R_n); [] for n < 0."""
        pieces = self._tables.pieces
        if n in pieces:
            return pieces[n]
        if n < 0:
            basis = []
        else:
            leads = [g.leading_term()[0] for g in self.groebner]
            basis = [m for m in monomials_of_degree(self.nvars, n)
                     if not any(mono_divides(lm, m) for lm in leads)]
        pieces[n] = basis
        return basis

    def hilbert(self, n):
        """dim R_n: binom(n + N - 1, N - 1) on a polynomial ring in N
        variables, read without building the piece basis; otherwise the
        number of standard monomials of degree n."""
        if not self.groebner:
            return binom(n + self.nvars - 1, self.nvars - 1)
        return len(self.graded_piece_basis(n))

    def coords(self, polys, twists):
        """The coordinates of NF(polys[i]) in the degree-twists[i] standard
        monomials, joined into one sparse vector."""
        out = {}
        pos = 0
        for p, a in zip(polys, twists):
            basis = self.graded_piece_basis(a)
            index = {m: i for i, m in enumerate(basis, pos)}
            for e, c in self.normal_form(p).terms.items():
                if sum(e) != a:
                    raise ValueError("polynomial not homogeneous of degree %d"
                                     % a)
                out[index[e]] = c
            pos += len(basis)
        return out

    def polys_from_coords(self, coords, twists):
        """Inverse of coords: one polynomial of degree a per twist a."""
        bases = [self.graded_piece_basis(a) for a in twists]
        offs = [0, *accumulate(map(len, bases))]
        terms = [{} for _ in bases]
        for i, c in coords.items():
            k = bisect_right(offs, i) - 1
            terms[k][bases[k][i - offs[k]]] = c
        return [Poly(self.field, self.nvars, t) for t in terms]

    def piece_matrix(self, f, t):
        """Matrix of a SheafMap f on the degree-t pieces of this ring, as
        (sparse rows, ncols): block (r, c) is multiplication by f's entry
        (r, c), taken to normal form here by mult_matrix, from
        R_{t + f.src[c]} to R_{t + f.dst[r]}; only the nonzero entries are
        visited, and a block with no rows is skipped: an entry that
        vanishes in this ring (f may be a map over a ring this one is a
        quotient of), or a target piece of dimension 0."""
        blocks = ((r, c, blk) for r, row in enumerate(f.rows)
                  for c, p in row.items()
                  if (blk := self.mult_matrix(p, t + f.src[c])).nrows)
        return sparse_blocks([self.hilbert(t + b) for b in f.dst],
                             [self.hilbert(t + a) for a in f.src], blocks)

    def mult_matrix(self, p, n):
        """Matrix of multiplication by homogeneous p: R_n -> R_{n+deg p}.

        Columns are indexed by the degree-n standard basis, rows by the
        target basis.  Returns a linalg.Block of shape len(R_{n+deg p}) x
        len(R_n): its nonzero entries, row by row, with increasing columns
        in each row.  The result is cached under (p, n) as given and under
        (normal form of p, n), so a repeated call is a lookup and p is
        taken to normal form only on a miss.  The cache is per ring value:
        every equal ring alive at the same time returns the same Block
        object, so callers must not modify it.
        """
        cache = self._tables.mult
        key = (p, n)
        blk = cache.get(key)
        if blk is None:
            q = self.normal_form(p)
            blk = cache.get((q, n))
            if blk is None:
                blk = cache[q, n] = self._mult_block(q, n)
            cache[key] = blk
        return blk

    def _mult_block(self, p, n):
        """The Block of mult_matrix for p in normal form.  The terms of p*m
        that are standard monomials go straight into the entries; only the
        rest is reduced, which is exact since normal forms are linear and
        a standard monomial is its own normal form."""
        F = self.field
        src = self.graded_piece_basis(n)
        if p.is_zero():
            dst = []
        else:
            if not p.is_homogeneous():
                raise ValueError("multiplication by a non-homogeneous element")
            dst = self.graded_piece_basis(n + p.total_degree())
        index = {m: i for i, m in enumerate(dst)}
        entries = []
        for j, m in enumerate(src):
            # distinct terms of p give distinct products
            col, rest = {}, {}
            for e, c in p.terms.items():
                e = mono_mul(e, m)
                if e in index:
                    col[e] = c
                else:
                    rest[e] = c
            if rest:
                rest = reduce_poly(Poly(F, self.nvars, rest), self.groebner)
                for e, c in rest.terms.items():
                    col[e] = F.add(col[e], c) if e in col else c
            entries += [(index[e], j, c) for e, c in col.items()
                        if not F.is_zero(c)]
        # column-major as built; (row, column) pairs are distinct, so the
        # sort never compares values
        entries.sort()
        return Block(len(dst), len(src), entries)

    # -- derived rings -----------------------------------------------------

    def quotient_by(self, w):
        """The ring R/(w) (used for the hypersurface Y of a section W)."""
        w = self.poly(w)
        return GradedRing(self.field, self.variables, self.ideal_gens + [w])

    def is_polynomial_ring(self):
        return not self.groebner

    # -- identity ----------------------------------------------------------

    def describe(self):
        return {
            "field": self.field.describe(),
            "variables": list(self.variables),
            "ideal": [self.to_str(g) for g in self.ideal_gens],
        }

    def __eq__(self, other):
        return isinstance(other, GradedRing) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.ideal_gens:
            return "GradedRing(k[%s]/(%s))" % (
                ",".join(self.variables),
                ", ".join(self.to_str(g) for g in self.ideal_gens))
        return "GradedRing(k[%s])" % ",".join(self.variables)


@lru_cache(maxsize=None)
def _binom(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def binom(n, k):
    return _binom(n, k)
