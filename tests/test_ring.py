"""Groebner bases, normal forms and graded pieces of quotient rings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcat.fields import PrimeField, RationalField
from mfcat.poly import parse_poly
from mfcat.ring import GradedRing, binom, monomials_of_degree


def poly_strategy(ring, max_terms=4, max_deg=3):
    mono = st.tuples(*[st.integers(0, max_deg) for _ in range(ring.nvars)])
    term = st.tuples(mono, st.integers(0, ring.field.p - 1))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (parse_poly("1", ring.variables, ring.field)
             .mul_monomial(e, ring.field.of(c)) for e, c in terms),
            ring.zero()))


class TestNormalForm:
    def test_parse_and_reduce(self, ring_p2):
        f = ring_p2.poly("x0^2 + 2*x0*x1 - x2^2")
        assert f == ring_p2.poly(ring_p2.to_str(f))
        assert f.total_degree() == 2 and f.is_homogeneous()

    def test_quotient_reduction(self, Fp):
        ring = GradedRing(Fp, ["x", "y"], ideal_strings=["x^2"])
        assert ring.is_zero(ring.poly("x^3 + x^2*y"))
        assert not ring.is_zero(ring.poly("x*y"))

    def test_groebner_nontrivial(self, Fp):
        ring = GradedRing(Fp, ["x", "y", "z"],
                          ideal_strings=["x^2 - y*z", "x*y - z^2"])
        # the reduced GB closes up under S-polynomials
        assert len(ring.groebner) >= 2
        f = ring.poly("x^3")
        assert ring.normal_form(f) == f  # idempotent

    def test_nonhomogeneous_ideal_rejected(self, Fp):
        with pytest.raises(ValueError):
            GradedRing(Fp, ["x", "y"], ideal_strings=["x^2 + y"])

    def test_rational_field(self):
        ring = GradedRing(RationalField(), ["x", "y"], ideal_strings=["x*y"])
        f = ring.poly("1/2*x^2 + x*y")
        assert ring.to_str(f) == "1/2*x^2"


class TestGradedPieces:
    def test_polynomial_hilbert(self, ring_p2):
        # dim k[x0,x1,x2]_n = binom(n+2, 2)
        for n in range(6):
            assert ring_p2.hilbert(n) == binom(n + 2, 2)

    def test_negative_degree_empty(self, ring_p1):
        assert ring_p1.graded_piece_basis(-1) == []

    def test_hypersurface_hilbert(self, Fp):
        ring = GradedRing(Fp, ["x", "y", "z"], ideal_strings=["x*y"])
        # h(n) = binom(n+2,2) - binom(n,2)
        for n in range(6):
            assert ring.hilbert(n) == binom(n + 2, 2) - binom(n, 2)

    def test_piece_coords_roundtrip(self, ring_p2):
        f = ring_p2.poly("x0^2 - 3*x1*x2")
        h = ring_p2.poly("x1")
        coords = ring_p2.coords([f, h], [2, 1])
        basis = ring_p2.graded_piece_basis(2)
        assert len(coords) == 3 and max(coords) == len(basis) + 1
        g = ring_p2.zero()
        for i, c in coords.items():
            if i < len(basis):
                g = g + ring_p2.one().mul_monomial(basis[i], c)
        assert g == f
        assert ring_p2.polys_from_coords(coords, [2, 1]) == [f, h]

    def test_mult_matrix_matches_multiplication(self, Fp):
        ring = GradedRing(Fp, ["x", "y"], ideal_strings=["x^3"])
        p = ring.poly("x + y")
        rows = ring.mult_matrix(p, 2)
        src = ring.graded_piece_basis(2)
        assert len(rows) == ring.hilbert(3)
        assert all(0 <= c < len(src) and v for row in rows for c, v in
                   row.items())
        for j, m in enumerate(src):
            prod = ring.normal_form(p.mul_monomial(m))
            col = ring.coords([prod], [3])
            assert {i: row[j] for i, row in enumerate(rows) if j in row} \
                == col


class TestHypothesisNF:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_nf_is_idempotent_and_multiplicative(self, data):
        ring = GradedRing(PrimeField(7), ["x", "y", "z"],
                          ideal_strings=["x*y - z^2"])
        f = data.draw(poly_strategy(ring))
        g = data.draw(poly_strategy(ring))
        nf = ring.normal_form
        assert nf(nf(f)) == nf(f)
        assert nf(f * g) == nf(nf(f) * nf(g))
        assert nf(f + g) == nf(nf(f) + nf(g))


def test_monomials_of_degree_count():
    assert len(monomials_of_degree(3, 4)) == binom(6, 2)
    assert monomials_of_degree(2, -1) == []


def test_max_ideal_degree(Fp, ring_p1):
    assert ring_p1.max_ideal_degree() == 0
    ring = GradedRing(Fp, ["x", "y"], ideal_strings=["x^3"])
    assert ring.max_ideal_degree() == 3


def test_quotient_by(ring_p2):
    y_ring = ring_p2.quotient_by(ring_p2.poly("x2"))
    assert y_ring.is_zero(y_ring.poly("x2"))
    assert y_ring.hilbert(3) == 4  # k[x0,x1]_3
