"""Graded module presentations: pieces, syzygies, minimalization, Fitting
ideals."""

import pytest

from mfcat.fields import DEFAULT_PRIME, PrimeField
from mfcat.linalg import sparse_matmul
from mfcat.modules import (ModulePresentation, contains_irrelevant_power,
                           default_saturation_bound, fitting_ideal,
                           ideals_equal, syzygies, syzygy_presentation)
from mfcat.ring import GradedRing, binom


NODAL = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                   ideal_strings=["x*y"])


def mk_pres(ring, twists, cols_strs):
    cols = [[ring.poly(s) for s in col] for col in cols_strs]
    return ModulePresentation(ring, twists, cols)


class TestPieces:
    def test_free_module_piece_dims(self, ring_p2):
        # R(0) + R(-1): dim M_t = h(t) + h(t-1)
        M = ModulePresentation(ring_p2, [0, -1], [])
        for t in range(4):
            assert M.piece_dim(t) == binom(t + 2, 2) + binom(t + 1, 2)

    def test_cyclic_quotient_piece_dims(self, ring_p1):
        # k[x0,x1]/(x0): dim = 1 in every degree >= 0
        M = mk_pres(ring_p1, [0], [["x0"]])
        assert [M.piece_dim(t) for t in range(-1, 4)] == [0, 1, 1, 1, 1]

    def test_twist(self, ring_p1):
        M = mk_pres(ring_p1, [0], [["x0"]])
        N = M.twist(-2)
        assert [N.piece_dim(t) for t in range(5)] == [0, 0, 1, 1, 1]

    def test_mult_map_squares(self, ring_p1):
        # multiplication by p then p equals multiplication by p^2; on
        # k[x,y,z]/(xy) the piece bases are standard monomials and
        # (x + y)^2 reduces to x^2 + y^2 (the zero column adds nothing)
        cases = [(ring_p1, [0], [["x0"]], "x1", "x1^2"),
                 (NODAL, [0, 0], [["x", "y"], ["0", "0"]], "x + y",
                  "x^2 + 2*x*y + y^2")]
        for ring, twists, cols, p, psq in cases:
            M = mk_pres(ring, twists, cols)
            m0, m1, m2 = M.piece(0), M.piece(1), M.piece(2)
            A = m0.mult_map(ring.poly(p), m1)
            B = m1.mult_map(ring.poly(p), m2)
            C = m0.mult_map(ring.poly(psq), m2)
            assert (len(A), len(B), len(C)) == (m1.dim, m2.dim, m2.dim)
            assert any(C)
            assert sparse_matmul(ring.field, B, A) == C
        assert (m0.dim, m1.dim, m2.dim) == (2, 5, 7)

    def test_mult_map_wrong_degree_raises(self):
        M = mk_pres(NODAL, [0, 0], [["x", "y"]])
        with pytest.raises(ValueError):
            M.piece(0).mult_map(NODAL.poly("z"), M.piece(2))

    def test_mult_map_by_zero(self):
        M = mk_pres(NODAL, [0, 0], [["x", "y"]])
        src, dst = M.piece(1), M.piece(2)
        Z = src.mult_map(NODAL.zero(), dst)
        assert (len(Z), src.dim) == (dst.dim, 5) == (7, 5)
        assert not any(Z)


class TestSyzygies:
    def test_koszul_syzygy(self, ring_p1):
        # relations (x0, x1) on R: the syzygy module is spanned by
        # (x1, -x0) up to scale
        cols = syzygies([[ring_p1.poly("x0")], [ring_p1.poly("x1")]],
                        ring_p1, [0])
        assert len(cols) == 1
        a, b = cols[0]
        # a*x0 + b*x1 == 0
        z = a * ring_p1.poly("x0") + b * ring_p1.poly("x1")
        assert ring_p1.is_zero(z)

    def test_syzygy_presentation_columns_kill(self, ring_p2):
        M = mk_pres(ring_p2, [0, 0], [["x0", "x1"], ["x1", "x2"]])
        S = syzygy_presentation(M)
        # every syzygy column composes to zero against M's relation matrix
        for col in S.columns:
            for r in range(2):
                acc = ring_p2.zero()
                for c in range(M.n_rels):
                    acc = acc + M.columns[c][r] * col[c]
                assert ring_p2.is_zero(acc)

    def test_minimalize_drops_unit_columns(self, ring_p1):
        # (R + R)/((1, 0)) is just R
        M = mk_pres(ring_p1, [0, 0], [["1", "0"]])
        Mm = M.minimalize()
        assert Mm.n_gens == 1
        assert [Mm.piece_dim(t) for t in range(3)] == \
            [M.piece_dim(t) for t in range(3)]


class TestFitting:
    def test_free_rank_one(self, ring_p1):
        M = ModulePresentation(ring_p1, [0], [])
        assert fitting_ideal(M, 0) == []              # no 1-minors: Fitt_0 = 0
        assert fitting_ideal(M, 1) == [ring_p1.one()]

    def test_cyclic_hypersurface(self, ring_p1):
        M = mk_pres(ring_p1, [0], [["x0"]])
        f0 = fitting_ideal(M, 0)
        assert ideals_equal(f0, [ring_p1.poly("x0")], ring_p1)
        assert fitting_ideal(M, 1) == [ring_p1.one()]

    def test_two_by_two_minors(self, ring_p2):
        M = mk_pres(ring_p2, [0, 0], [["x0", "x1"], ["x1", "x2"]])
        f0 = fitting_ideal(M, 0)
        assert ideals_equal(f0, [ring_p2.poly("x0*x2 - x1^2")], ring_p2)

    def test_fitting_invariant_under_presentation_change(self, ring_p1):
        # same module k[x]/(x0) presented with a redundant relation
        M = mk_pres(ring_p1, [0], [["x0"]])
        N = mk_pres(ring_p1, [0], [["x0"], ["x0*x1"]])
        assert ideals_equal(fitting_ideal(M, 0), fitting_ideal(N, 0),
                            ring_p1)

    def test_contains_irrelevant_power(self, ring_p2):
        gens = [ring_p2.poly(s) for s in ("x0", "x1", "x2")]
        B = default_saturation_bound(ring_p2, gens)
        assert contains_irrelevant_power(gens, ring_p2, B)
        assert not contains_irrelevant_power([ring_p2.poly("x0")],
                                             ring_p2, B)


def test_invalid_column_degree(ring_p1):
    # relation entries must be homogeneous of consistent degree
    with pytest.raises(ValueError):
        mk_pres(ring_p1, [0, -1], [["x0", "x0"]])
