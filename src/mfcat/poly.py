"""Sparse multivariate polynomials over an exact field.

Monomials are exponent tuples; the monomial order is fixed globally to
degree-reverse-lexicographic (grevlex) with variable index as tie-break.
All variables have degree 1.
"""

import re
from operator import add, le, neg, sub


def grevlex_key(expv):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(expv), tuple(map(neg, reversed(expv))))


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_div(b, a):
    """b / a, assuming divisibility."""
    return tuple(map(sub, b, a))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


class Poly:
    """Immutable sparse polynomial: dict {exponent tuple: nonzero coeff}."""

    __slots__ = ("field", "nvars", "terms", "_hash")

    def __init__(self, field, nvars, terms):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if not field.is_zero(c)}
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(field, nvars):
        return Poly(field, nvars, {})

    @staticmethod
    def const(field, nvars, c):
        c = field.of(c)
        if field.is_zero(c):
            return Poly.zero(field, nvars)
        return Poly(field, nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(field, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return Poly(field, nvars, {tuple(e): field.one()})

    @staticmethod
    def monomial(field, nvars, expv, c=1):
        c = field.of(c)
        if field.is_zero(c):
            return Poly.zero(field, nvars)
        return Poly(field, nvars, {tuple(expv): c})

    # -- predicates & inspection --------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def leading_term(self):
        """(monomial, coeff) with the grevlex-largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def sorted_terms(self):
        """Terms in descending monomial order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("polynomial context mismatch")

    def __add__(self, other):
        self._check(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(out.get(e, F.zero()), c)
            if F.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(F, self.nvars, out)

    def __neg__(self):
        F = self.field
        return Poly(F, self.nvars, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                s = F.add(out.get(e, F.zero()), F.mul(c1, c2))
                if F.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(F, self.nvars, out)

    def scale(self, c):
        F = self.field
        c = F.of(c)
        if F.is_zero(c):
            return Poly.zero(F, self.nvars)
        return Poly(F, self.nvars, {e: F.mul(cc, c) for e, cc in self.terms.items()})

    def monic(self):
        if not self.terms:
            return self
        _, lc = self.leading_term()
        return self.scale(self.field.inv(lc))

    def coeff(self, expv):
        return self.terms.get(tuple(expv), self.field.zero())

    # -- hashing / equality / printing ---------------------------------

    def key(self):
        return tuple(sorted(self.terms.items(), key=lambda t: grevlex_key(t[0])))

    def __eq__(self, other):
        # terms first, the usual difference; the field by identity before
        # its own __eq__
        return (isinstance(other, Poly) and self.terms == other.terms
                and self.nvars == other.nvars
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.nvars,
                               frozenset(self.terms.items())))
        return self._hash

    def to_str(self, varnames):
        if not self.terms:
            return "0"
        F = self.field
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(varnames[i])
                elif k > 1:
                    factors.append("%s^%d" % (varnames[i], k))
            cs = F.to_str(c)
            if factors:
                body = "*".join(factors)
                if cs == "1":
                    parts.append(body)
                elif cs == "-1":
                    parts.append("-" + body)
                else:
                    parts.append(cs + "*" + body)
            else:
                parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "Poly(%s)" % (self.to_str(["x%d" % i for i in range(self.nvars)]),)


# -- parsing -----------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>%s)"
                    r"|(?P<op>[\^\*\+\-\(\)]))" % _NAME)


def is_variable_name(s):
    """Whether parse_poly reads s back as one variable name."""
    return re.fullmatch(_NAME, s) is not None


def parse_poly(s, varnames, field):
    """Parse a polynomial string.

    Supports +, -, *, ^, parentheses, integer/rational coefficients and
    the declared variable names; '*' is optional (juxtaposition works).
    """
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            if s[pos:].strip() == "":
                break
            raise ValueError("bad character %r at position %d in %r" % (s[pos], pos, s))
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", ""))

    nvars = len(varnames)
    var_index = {v: i for i, v in enumerate(varnames)}
    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def advance():
        t = tokens[state["i"]]
        state["i"] += 1
        return t

    def parse_atom():
        kind, val = peek()
        if kind == "num":
            advance()
            try:
                p = Poly.const(field, nvars, val)
            except ZeroDivisionError:
                raise ValueError("coefficient %s has a zero denominator in "
                                 "%r" % (val, field)) from None
        elif kind == "name":
            advance()
            if val not in var_index:
                raise ValueError("unknown variable %r in %r" % (val, s))
            p = Poly.variable(field, nvars, var_index[val])
        elif (kind, val) == ("op", "("):
            advance()
            p = parse_sum()
            if peek() != ("op", ")"):
                raise ValueError("missing ')' in %r" % s)
            advance()
        else:
            raise ValueError("unexpected token %r in %r" % (val or kind, s))
        if peek() == ("op", "^"):
            advance()
            kind, val = advance()
            if kind != "num" or "/" in val:
                raise ValueError("exponent must be a nonnegative integer in %r" % s)
            n = int(val)
            out = Poly.const(field, nvars, 1)
            for _ in range(n):
                out = out * p
            return out
        return p

    def parse_product():
        p = parse_atom()
        while True:
            kind, val = peek()
            if (kind, val) == ("op", "*"):
                advance()
                p = p * parse_atom()
            elif kind in ("num", "name") or (kind, val) == ("op", "("):
                p = p * parse_atom()
            else:
                return p

    def parse_sum():
        kind, val = peek()
        neg = False
        if (kind, val) == ("op", "-"):
            advance()
            neg = True
        elif (kind, val) == ("op", "+"):
            advance()
        p = parse_product()
        if neg:
            p = -p
        while True:
            kind, val = peek()
            if (kind, val) == ("op", "+"):
                advance()
                p = p + parse_product()
            elif (kind, val) == ("op", "-"):
                advance()
                p = p - parse_product()
            else:
                return p

    out = parse_sum()
    if peek()[0] != "end":
        raise ValueError("trailing input %r in %r" % (peek()[1], s))
    return out
