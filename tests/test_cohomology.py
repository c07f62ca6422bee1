"""Truncated Cech cohomology of line bundles and hypercohomology of
twisted periodic complexes."""

import pytest

from mfcat import cohomology
from mfcat.cohomology import (CechSetup, GlobalSections, cech_cohomology,
                              cech_hypercohomology, cech_total_diff,
                              h_projective_space,
                              vanishing_threshold)
from mfcat.fields import DEFAULT_PRIME, PrimeField
from mfcat.homcat import hom_H
from mfcat.linalg import ExactMatrix, rank, sparse_matmul, sparse_rank
from mfcat.mf import MFContext, SheafMap, TwistSum, mapping_complex, twist_mf
from mfcat.ring import GradedRing, binom
from mfcat.suite import generate_suite


class TestClosedForm:
    def test_h0(self):
        assert h_projective_space(2, 3, 0) == binom(5, 2)
        assert h_projective_space(2, -1, 0) == 0

    def test_serre_dual_top(self):
        # H^m(P^m, O(n)) = H^0(P^m, O(-n-m-1))^*
        for m in (1, 2):
            for n in range(-6, 0):
                assert h_projective_space(m, n, m) == \
                    h_projective_space(m, -n - m - 1, 0)

    def test_middle_vanishes(self):
        for n in range(-6, 7):
            assert h_projective_space(2, n, 1) == 0


class TestLineBundles:
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_closed_form(self, m, ring_p1, ring_p2):
        ring = ring_p1 if m == 1 else ring_p2
        for n in range(-5, 5):
            for p in range(0, m + 1):
                dim, stable = cech_cohomology(ring, n, p)
                assert stable
                assert dim == h_projective_space(m, n, p), (m, n, p)

    def test_quadric_in_p2(self, ring_p2):
        # the conic in P^2 is a P^1: matching genus-0 cohomology
        conic = ring_p2.quotient_by(ring_p2.poly("x0*x2 - x1^2"))
        # O_C(n) has h^0 = 2n+1 for n >= 0 (degree-2 embedding of P^1)
        for n in range(0, 3):
            dim, stable = cech_cohomology(conic, n, 0)
            assert stable and dim == 2 * n + 1
        dim, stable = cech_cohomology(conic, -1, 1)
        assert stable and dim == 1  # h^1(P^1, O(-2))


class TestHypercohomology:
    def test_contractible_endomorphisms_vanish(self, E_unit_p1):
        # the mapping complex of a contractible object is acyclic
        C = mapping_complex(E_unit_p1, E_unit_p1)
        for q in (-1, 0, 1):
            dim, stable = cech_hypercohomology(C, q)
            assert stable and dim == 0

    def test_twist_periodicity(self, E_unit_p2, ctx_p2):
        E = E_unit_p2
        C = mapping_complex(E, E)
        d = ctx_p2.d
        for q in (-1, 0):
            a = cech_hypercohomology(C, q + 2)
            b = cech_hypercohomology(twist_mf(C, d), q)
            assert a == b

    def test_rejects_nonzero_w(self, E_unit_p1):
        # an MF of W != 0 squares to W, not 0: its Cech total complex is
        # no complex, and homology_dim would miscount in silence
        with pytest.raises(ValueError, match="W = 0"):
            cech_hypercohomology(E_unit_p1, 0)

    def test_mapping_complex_squares_to_zero(self, E_u, E_v):
        C = mapping_complex(E_u, E_v)
        for q in (-2, -1, 0, 1):
            assert C.diff_at(q + 1).compose(C.diff_at(q)).is_zero()

    @pytest.mark.parametrize("B", [4, 5])
    def test_sparse_total_differentials(self, B):
        # every stable Hom on this corpus is 0, but the ranks of the
        # oracle's differentials are not: a wrong rank shows here
        ctx, objs = generate_suite(0, "p2-small")
        F = ctx.ring.field
        C = mapping_complex(objs[0], objs[3])
        d_in, n_in = cech_total_diff(C, -1, B)
        d_out, n = cech_total_diff(C, 0, B)
        assert len(d_in) == n
        for row in d_out:
            composite = {}
            for k, a in row.items():
                for c, b in d_in[k].items():
                    composite[c] = F.add(composite.get(c, 0), F.mul(a, b))
            assert not any(composite.values())
        for d, ncols in ((d_in, n_in), (d_out, n)):
            r = sparse_rank(F, d, ncols)
            assert r > 0
            assert r == rank(ExactMatrix.from_sparse_rows(F, d, ncols))


class TestGlobalSections:
    def test_projective_dims(self, ctx_p2):
        gs = GlobalSections(ctx_p2)
        assert gs.dim(-1) == 0
        for n in range(0, 4):
            assert gs.dim(n) == ctx_p2.ring.hilbert(n)

    def test_affine_fast_path(self, ctx_a1):
        gs = GlobalSections(ctx_a1)
        assert gs.saturated(-3)
        assert gs.dim(2) == ctx_a1.ring.hilbert(2)

    def test_two_skew_lines_not_saturated(self):
        """Two skew lines in P^3: Gamma(O) is 2-dimensional and R_0 is
        1-dimensional, so degree 0 takes the Cech kernel path of
        GlobalSections."""
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z", "w"],
                          ideal_strings=["x*z", "x*w", "y*z", "y*w"])
        ctx = MFContext(ring, ring.poly("x + z"))
        assert ctx.w_regular
        gs = GlobalSections(ctx)
        assert not gs.saturated(0)
        assert [gs.dim(n) for n in range(4)] == [2, 4, 6, 8]
        assert [ring.hilbert(n) for n in range(4)] == [1, 4, 6, 8]
        f = SheafMap(ring, TwistSum([0, 1]), TwistSum([2]),
                     [[ring.poly("x^2"), ring.poly("x")]])
        cech = GlobalSections(ctx)
        cech.saturated = lambda n: False     # every degree through Cech
        assert rank(gs.sheafmap_matrix(f)) == 2
        assert rank(cech.sheafmap_matrix(f)) == 2

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_projective_space_saturated_by_theorem(self, m):
        """Gamma(P^m, O(n)) = R_n for every n when m >= 1 (Hartshorne
        III.5.1): GlobalSections answers without a scan, and the Cech
        scan it skips agrees."""
        ring = GradedRing(PrimeField(DEFAULT_PRIME),
                          ["x%d" % i for i in range(m + 1)])
        gs = GlobalSections(MFContext(ring, ring.poly("x0")))
        for n in range(-6, 7):
            assert gs.saturated(n)
            assert cech_cohomology(ring, n, 0) == (ring.hilbert(n), True)

    def test_point_unsaturated_in_negative_degrees(self):
        """P^0 is a point: Gamma(O(n)) = k for every n, but R_n = 0 for
        n < 0, so the scan stays and finds those degrees unsaturated."""
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x"])
        gs = GlobalSections(MFContext(ring, ring.poly("x")))
        for n in range(-4, 0):
            assert not gs.saturated(n)
            assert gs.dim(n) == 1
        assert all(gs.saturated(n) for n in range(0, 4))

    def test_scan_only_off_projective_space(self, monkeypatch):
        calls = []
        real = cohomology.cech_cohomology
        monkeypatch.setattr(cohomology, "cech_cohomology",
                            lambda *a: calls.append(a) or real(*a))
        ctx, objs = generate_suite(0, "p2-small")
        gs = GlobalSections(ctx)
        assert hom_H(objs[1], objs[3], gs).dimension == 0
        assert calls == []
        conic = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                           ideal_strings=["x*z - y^2"])
        assert GlobalSections(MFContext(conic, conic.poly("x"))).saturated(0)
        assert len(calls) == 1

    def test_mult_commutes(self, ctx_p1):
        gs = GlobalSections(ctx_p1)
        ring = ctx_p1.ring
        F = ring.field
        A = gs.mult(ring.poly("x0"), 1)
        B = gs.mult(ring.poly("x1"), 2)
        C = gs.mult(ring.poly("x0*x1"), 1)
        assert len(C) == gs.dim(3) and any(C)
        assert sparse_matmul(F, B, A) == C


class TestTruncation:
    def test_unstable_reported(self, ring_p1):
        # a schedule capped below stabilization must report stable=False
        setup = CechSetup(b_start=1, b_max=1)
        # H^1(P^1, O(-3)): truncations B=1 and B=2 disagree (0 vs 2)
        _dim, stable = cech_cohomology(ring_p1, -3, 1, setup)
        assert not stable

    def test_vanishing_threshold(self, ctx_p2):
        n0, tag = vanishing_threshold(ctx_p2)
        assert tag == "exact"
        ring = ctx_p2.ring
        for n in range(n0, n0 + 3):
            for p in (1, 2):
                dim, stable = cech_cohomology(ring, n, p)
                assert stable and dim == 0
