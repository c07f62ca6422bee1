"""Line-bundle cohomology by local duality: a minimal graded free
resolution of R = S/I over S, its regularity, H^i_m(R)_n off the dual
complex, and the vanishing thresholds and saturation checks read off
them, against the Cech oracle."""

import json

import pytest

from mfcat import cohomology
from mfcat.cli import main
from mfcat.cohomology import (CechSpace, GlobalSections, cech_cohomology,
                              cech_cohomology_at, cech_horizontal,
                              cech_truncation, h_duality, local_duality,
                              vanishing_threshold)
from mfcat.fields import DEFAULT_PRIME, PrimeField, RationalField
from mfcat.linalg import (kernel_basis, sparse_blocks, sparse_matmul,
                          sparse_rank, sparse_transpose)
from mfcat.mf import MFContext
from mfcat.poly import Poly
from mfcat.ring import GradedRing

FIELDS = [PrimeField(DEFAULT_PRIME), PrimeField(7), RationalField()]

# name -> (variables, ideal, reg R, the twists of F_1, F_2, ...)
RINGS = {
    "nodal": ("xyz", ["x*y"], 1, [[-2]]),
    "two-planes": ("xyzw", ["x*y", "z*w"], 2, [[-2, -2], [-4]]),
    "twisted-cubic": ("xyzw", ["x*z - y^2", "x*w - y*z", "y*w - z^2"], 1,
                      [[-2, -2, -2], [-3, -3]]),
    "fermat": ("xyz", ["x^3 + y^3 + z^3"], 2, [[-3]]),
    "skew-lines": ("xyzw", ["x*z", "x*w", "y*z", "y*w"], 1,
                   [[-2] * 4, [-3] * 4, [-4]]),
    "triangle": ("xyz", ["x*y*z"], 2, [[-3]]),
    "double-line": ("xyz", ["x^2"], 1, [[-2]]),
    # (xy) with an embedded point: I_2 = 0 but xy is in the saturation
    "unsaturated": ("xyz", ["x^2*y", "x*y^2", "x*y*z"], 2,
                    [[-3] * 3, [-4] * 3, [-5]]),
}

# name -> (variables, ideal): more rings the Cech oracle is checked on
MORE_RINGS = {
    "conic": ("xyz", ["x*z - y^2"]),
    "three-lines": ("xyz", ["x*y*(x - y)"]),
    "three-points": ("xy", ["x*y*(x - y)"]),
    # the line x = 0 with an embedded point at x = y = 0
    "embedded-point": ("xyz", ["x^2", "x*y"]),
    "P0": ("x", []),
    "P1": ("xy", []),
    "P2": ("xyz", []),
}


def make_ring(name, field=PrimeField(DEFAULT_PRIME)):
    variables, ideal = (RINGS.get(name) or MORE_RINGS[name])[:2]
    return GradedRing(field, list(variables), ideal_strings=ideal)


def context(ring):
    return MFContext(ring, ring.poly(ring.variables[-1]))


class TestResolution:
    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_betti_twists_and_regularity(self, name):
        ld = local_duality(make_ring(name))
        *_, reg, twists = RINGS[name]
        assert [list(F) for F in ld.free] == [[0]] + twists
        assert ld.regularity == reg

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_resolution_is_a_complex(self, name):
        ring = make_ring(name)
        ld = local_duality(ring)
        for a, b in zip(ld.duals, ld.duals[1:]):
            assert b.compose(a).is_zero()

    def test_held_once_per_ring(self):
        ring = make_ring("nodal")
        assert ring.duality is None
        assert local_duality(ring) is local_duality(ring) is ring.duality

    def test_polynomial_ring_resolves_by_itself(self):
        """S resolves itself: H^N_m(S)_n = S_{-n-N}^*, every other
        H^i_m(S) is 0, and on P^0 = Proj k[x] that is
        H^1_m(k[x])_n = k for n < 0."""
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x"])
        ld = local_duality(ring)
        assert ld.duals == [] and ld.regularity == 0
        assert [ld.local_dim(1, n) for n in range(-3, 2)] == [1, 1, 1, 0, 0]
        assert all(ld.local_dim(0, n) == 0 for n in range(-3, 2))


class TestDualityEqualsCech:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("name", sorted(RINGS) + sorted(MORE_RINGS))
    def test_grid(self, name, field, monkeypatch):
        """h^p(O(n)) for n in [-8, 5] and every p < N: duality equals the
        Cech value, read by one evaluation at B* = cech_truncation(R, n)
        and again at B* + 1; on each ring of RINGS at least two higher
        cells are nonzero, and on every ring some cell is."""
        ring = make_ring(name, field)
        tried = []
        real = cohomology.cech_cohomology_at
        monkeypatch.setattr(cohomology, "cech_cohomology_at",
                            lambda r, n, p, B: tried.append(B)
                            or real(r, n, p, B))
        higher = nonzero = 0
        for n in range(-8, 6):
            B = cech_truncation(ring, n)
            for p in range(ring.nvars):
                tried.clear()
                dim, stable = cech_cohomology(ring, n, p)
                assert tried == [B], (n, p)
                assert stable and h_duality(ring, n, p) == dim, (n, p)
                assert real(ring, n, p, B + 1) == dim, (n, p)
                higher += p > 0 and dim > 0
                nonzero += dim > 0
        assert nonzero and (higher >= 2 or name in MORE_RINGS)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("name", ["nodal", "conic", "double-line",
                                      "skew-lines"])
    def test_far_negative_twists(self, name, field):
        """h^1(O(n)) for n = -9, -12, -20, where a schedule started at
        B = 4 read 0: at the one truncation B*, Cech meets duality."""
        ring = make_ring(name, field)
        for n in (-9, -12, -20):
            want = h_duality(ring, n, 1)
            assert want > 0 and cech_cohomology(ring, n, 1) == (want, True)

    def test_cech_on_a_fresh_p2_builds_no_resolution(self, monkeypatch,
                                                     capsys):
        """On a polynomial ring b = 0 is read without a LocalDuality."""
        built = []
        real = cohomology.LocalDuality
        monkeypatch.setattr(cohomology, "LocalDuality",
                            lambda ring: built.append(ring) or real(ring))
        assert main(["cech", "--space", "P2", "--twist", "-3", "--p", "2"]) \
            == 0
        assert json.loads(capsys.readouterr().out)["result"]["dim"] == 1
        assert built == []

    @pytest.mark.parametrize("name", sorted(RINGS) + sorted(MORE_RINGS)
                             + ["P3"])
    def test_truncation_is_read_off_the_resolution(self, name):
        """B* = max(1, 1 - a - N + b) with b the top degree of the
        resolution, also on P^0-P^3, where it is read as 0 without
        building one."""
        if name == "P3":
            ring = GradedRing(PrimeField(DEFAULT_PRIME), list("xyzw"))
        else:
            ring = make_ring(name)
        b = cohomology.LocalDuality(ring).top_degree
        assert (b == 0) == ring.is_polynomial_ring()
        assert [cech_truncation(ring, a) for a in range(-12, 4)] == \
            [max(1, 1 - a - ring.nvars + b) for a in range(-12, 4)]
        assert (ring.duality is None) == ring.is_polynomial_ring()

    def test_local_cohomology_vanishes_above_regularity(self):
        for name in RINGS:
            ring = make_ring(name)
            ld = local_duality(ring)
            assert all(ld.local_dim(i, n) == 0 for i in range(ring.nvars + 1)
                       for n in range(ld.regularity - i + 1,
                                      ld.regularity + 3))


def cech_diff(ring, n, p, B):
    """The Cech differential of O(n) out of C^p at truncation B."""
    src, dst = CechSpace(ring, [n], p, B), CechSpace(ring, [n], p + 1, B)
    return sparse_blocks(dst.block_dims, src.block_dims,
                         cech_horizontal(src, dst))


def transition_rank(ring, n, p, B):
    """The rank of the map from H^p at B to H^p at B + 1 of the truncated
    Cech complexes of O(n), r/x_S^B |-> x_S r/x_S^(B+1): the map of the
    direct system whose limit is the full Cech complex."""
    F, N = ring.field, ring.nvars
    src, dst = CechSpace(ring, [n], p, B), CechSpace(ring, [n], p, B + 1)
    cycles = kernel_basis(F, *cech_diff(ring, n, p, B))
    x_S = [Poly.monomial(F, N, tuple(int(i in S) for i in range(N)))
           for S in src.subsets]
    shift, _ = sparse_blocks(dst.block_dims, src.block_dims, [
        (s, s, blk) for s, S in enumerate(src.subsets)
        if (blk := ring.mult_matrix(x_S[s], n + B * len(S))).nrows])
    images = sparse_transpose(sparse_matmul(
        F, shift, sparse_transpose(cycles, src.dim)), len(cycles))
    bounds = sparse_transpose(*cech_diff(ring, n, p - 1, B + 1)) if p \
        else []
    return sparse_rank(F, bounds + images, dst.dim) - \
        sparse_rank(F, bounds, dst.dim)


class TestNaturalMap:
    """From B* on, the truncated Cech cohomology maps isomorphically into
    the next truncation, so into the direct limit: the oracle's value is
    carried by the natural map, not only matched in dimension."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("name", ["nodal", "double-line", "skew-lines",
                                      "unsaturated", "three-lines",
                                      "three-points", "embedded-point",
                                      "P1"])
    def test_isomorphism_from_the_one_truncation(self, name, field):
        ring = make_ring(name, field)
        for n in range(-6, 3):
            B = cech_truncation(ring, n)
            for p in range(ring.nvars):
                dim = cech_cohomology_at(ring, n, p, B)
                assert transition_rank(ring, n, p, B) == dim == \
                    cech_cohomology_at(ring, n, p, B + 1), (n, p)

    def test_equal_dimensions_below_it_are_not_enough(self):
        # three points on P^1, O(-6), B* = 8: at B = 4 and 5, h^1 reads
        # 3 both times, but the map between them has rank 1
        ring = make_ring("three-points")
        assert cech_truncation(ring, -6) == 8
        assert [cech_cohomology_at(ring, -6, 1, B) for B in (4, 5)] == [3, 3]
        assert transition_rank(ring, -6, 1, 4) == 1


class TestThreshold:
    @pytest.mark.parametrize("name, n0", [
        ("nodal", 0), ("two-planes", 1), ("twisted-cubic", 0), ("fermat", 1),
        ("skew-lines", -1), ("triangle", 1)])
    def test_equals_the_old_window_scan(self, name, n0):
        """The thresholds the Cech scan over [-2m-2, 2] found on these
        rings."""
        assert vanishing_threshold(context(make_ring(name))) == \
            (n0, "duality")

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_least_vanishing_twist(self, name):
        ring = make_ring(name)
        n0, tag = vanishing_threshold(context(ring))
        assert tag == "duality"
        higher = range(1, ring.nvars)
        for n in range(n0, n0 + 3):
            assert all(cech_cohomology(ring, n, p) == (0, True)
                       for p in higher)
        assert any(cech_cohomology(ring, n0 - 1, p)[0] for p in higher)

    def test_polynomial_ring_keeps_closed_form(self):
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x0", "x1", "x2"])
        assert vanishing_threshold(context(ring)) == (-2, "exact")
        assert ring.duality is None


class TestSaturation:
    @pytest.mark.parametrize("name, unsaturated", [
        ("unsaturated", [2]), ("skew-lines", [0]), ("nodal", []),
        ("double-line", [])])
    def test_unsaturated_degrees(self, name, unsaturated):
        """Gamma(O(n)) = R_n exactly off the listed degrees of [-1, 4];
        Cech agrees on dim Gamma(O(n)) in each."""
        ring = make_ring(name)
        gs = GlobalSections(context(ring))
        assert [n for n in range(-1, 5) if not gs.saturated(n)] == \
            unsaturated
        for n in range(-1, 5):
            dim, stable = cech_cohomology(ring, n, 0)
            assert stable and (dim == ring.hilbert(n)) == gs.saturated(n)
