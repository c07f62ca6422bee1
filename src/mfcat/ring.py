"""Graded quotient rings R = S/I with Groebner normal forms.

The monomial order is grevlex throughout; all variables have degree 1, so
graded pieces are spanned by standard monomials of the right degree.
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement

from .linalg import sparse_blocks
from .poly import (Poly, grevlex_key, mono_div, mono_divides, mono_lcm,
                   mono_mul, parse_poly)


def reduce_poly(f, basis):
    """Remainder of f under multivariate division by basis (list of Polys)."""
    if not f.terms:
        return f
    F = f.field
    leads = [g.leading_term() for g in basis]
    rem = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        if F.is_zero(c):
            continue
        hit = None
        for g, (lm, lc) in zip(basis, leads):
            if mono_divides(lm, m):
                hit = (g, lm, lc)
                break
        if hit is None:
            rem[m] = F.add(rem.get(m, F.zero()), c)
            if F.is_zero(rem[m]):
                del rem[m]
            continue
        g, lm, lc = hit
        factor = mono_div(m, lm)
        coef = F.div(c, lc)
        # work -= coef * x^factor * (g minus its leading term); the leading
        # term cancels the popped term exactly
        for e, gc in g.terms.items():
            if e == lm:
                continue
            e2 = mono_mul(e, factor)
            s = F.sub(work.get(e2, F.zero()), F.mul(coef, gc))
            if F.is_zero(s):
                work.pop(e2, None)
            else:
                work[e2] = s
    return Poly(F, f.nvars, rem)


def s_polynomial(f, g):
    F = f.field
    (lmf, lcf), (lmg, lcg) = f.leading_term(), g.leading_term()
    lcm = mono_lcm(lmf, lmg)
    a = f.mul_monomial(mono_div(lcm, lmf), F.inv(lcf))
    b = g.mul_monomial(mono_div(lcm, lmg), F.inv(lcg))
    return a - b


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by gens."""
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    basis = [g.monic() for g in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        lmi = basis[i].leading_term()[0]
        lmj = basis[j].leading_term()[0]
        if mono_lcm(lmi, lmj) == mono_mul(lmi, lmj):
            continue  # coprime leading monomials: S-poly reduces to zero
        r = reduce_poly(s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r.monic())
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    # minimalize: drop elements whose lead is divisible by another lead
    basis.sort(key=lambda g: grevlex_key(g.leading_term()[0]))
    minimal = []
    for g in basis:
        lm = g.leading_term()[0]
        if not any(mono_divides(h.leading_term()[0], lm) for h in minimal):
            minimal.append(g)
    # reduce each element fully against the others
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        r = reduce_poly(g, others) if others else g
        reduced.append(r.monic())
    reduced.sort(key=lambda g: grevlex_key(g.leading_term()[0]))
    return reduced


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
        self._piece_cache = {}
        self._mult_cache = {}

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
        if n in self._piece_cache:
            return self._piece_cache[n]
        if n < 0:
            basis = []
        else:
            leads = [g.leading_term()[0] for g in self.groebner]
            basis = [m for m in monomials_of_degree(self.nvars, n)
                     if not any(mono_divides(lm, m) for lm in leads)]
        self._piece_cache[n] = basis
        return basis

    def hilbert(self, n):
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
        (r, c), taken to normal form here, from R_{t + f.src[c]} to
        R_{t + f.dst[r]}; only the nonzero entries are visited, and those
        that vanish in this ring (f may be a map over a ring this one is a
        quotient of) are skipped."""
        blocks = ((r, c, self.mult_matrix(p, t + f.src[c]))
                  for r, row in enumerate(f.rows)
                  for c, p in zip(row, map(self.normal_form, row.values()))
                  if not p.is_zero())
        return sparse_blocks([self.hilbert(t + b) for b in f.dst],
                             [self.hilbert(t + a) for a in f.src], blocks)

    def mult_matrix(self, p, n):
        """Matrix of multiplication by homogeneous p: R_n -> R_{n+deg p}.

        Columns are indexed by the degree-n standard basis, rows by the
        target basis.  Returns sparse rows, one {column: value} dict per
        target basis element; the result is cached, so callers must not
        modify it.
        """
        p = self.normal_form(p)
        key = (p.key(), n)
        if key in self._mult_cache:
            return self._mult_cache[key]
        src = self.graded_piece_basis(n)
        if p.is_zero():
            dst = []
        else:
            if not p.is_homogeneous():
                raise ValueError("multiplication by a non-homogeneous element")
            dst = self.graded_piece_basis(n + p.total_degree())
        index = {m: i for i, m in enumerate(dst)}
        rows = [{} for _ in dst]
        for j, m in enumerate(src):
            prod = self.normal_form(p.mul_monomial(m))
            for e, c in prod.terms.items():
                rows[index[e]][j] = c
        self._mult_cache[key] = rows
        return rows

    # -- derived rings -----------------------------------------------------

    def quotient_by(self, w):
        """The ring R/(w) (used for the hypersurface Y of a section W)."""
        w = self.poly(w)
        return GradedRing(self.field, self.variables, self.ideal_gens + [w])

    def is_polynomial_ring(self):
        return not self.groebner

    def max_ideal_degree(self):
        return max([g.total_degree() for g in self.ideal_gens] + [0])

    # -- identity ----------------------------------------------------------

    def describe(self):
        return {
            "field": self.field.describe(),
            "variables": list(self.variables),
            "ideal": [self.to_str(g) for g in self.ideal_gens],
        }

    def __eq__(self, other):
        return (isinstance(other, GradedRing)
                and self.field == other.field
                and self.variables == other.variables
                and [g.key() for g in self.groebner] == [g.key() for g in other.groebner])

    def __hash__(self):
        return hash((self.field, tuple(self.variables),
                     tuple(g.key() for g in self.groebner)))

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
