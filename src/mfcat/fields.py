"""Exact coefficient fields: prime fields F_p and the rationals.

Scalars are plain Python values (ints in [0, p) for F_p, Fraction for Q);
a field object supplies the arithmetic.  Division by zero always raises.
"""

import math
from fractions import Fraction


class PrimeField:
    """F_p with canonical representatives in [0, p)."""

    def __init__(self, p):
        if 64 * p * p >= 2 ** 53:
            # kept as part of the input contract, so the accepted moduli
            # stay the same; linalg itself is exact in Python ints for any p
            raise ValueError("modulus %d is too large: exact elimination "
                             "needs 64*p^2 < 2^53" % p)
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError("modulus must be a prime, got %d" % p)
        self.p = p

    def of(self, x):
        """Coerce an int, Fraction, or numeric string into the field."""
        if isinstance(x, Fraction):
            return self.div(self.of(x.numerator), self.of(x.denominator))
        if isinstance(x, str):
            return self.of(Fraction(x))
        return int(x) % self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

    def to_str(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "F_%d" % self.p

    def describe(self):
        return {"type": "prime", "p": self.p}


class RationalField:
    """Arbitrary-precision rationals."""

    def of(self, x):
        return Fraction(x)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return Fraction(a) / b

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "Q"

    def describe(self):
        return {"type": "rational"}


DEFAULT_PRIME = 32003


def field_from_spec(spec):
    """Build a field from a JSON-style spec dict."""
    if spec is None:
        return PrimeField(DEFAULT_PRIME)
    kind = spec.get("type")
    if kind == "prime":
        return PrimeField(spec.get("p", DEFAULT_PRIME))
    if kind == "rational":
        return RationalField()
    raise ValueError("unknown field type: %r" % (kind,))
