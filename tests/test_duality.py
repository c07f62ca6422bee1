"""Line-bundle cohomology by local duality: a minimal graded free
resolution of R = S/I over S, its regularity, H^i_m(R)_n off the dual
complex, and the vanishing thresholds and saturation checks read off
them, against the Cech oracle."""

import pytest

from mfcat.cohomology import (GlobalSections, cech_cohomology, h_duality,
                              local_duality, vanishing_threshold)
from mfcat.fields import DEFAULT_PRIME, PrimeField, RationalField
from mfcat.mf import MFContext
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


def make_ring(name, field=PrimeField(DEFAULT_PRIME)):
    variables, ideal = RINGS[name][:2]
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
    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_grid(self, name, field):
        """h^p(O(n)) for n in [-3, 2] and every p < N: duality equals the
        stable Cech value, and at least two higher cells are nonzero."""
        ring = make_ring(name, field)
        nonzero = 0
        for n in range(-3, 3):
            for p in range(ring.nvars):
                dim, stable = cech_cohomology(ring, n, p)
                assert stable and h_duality(ring, n, p) == dim, (n, p)
                nonzero += p > 0 and dim > 0
        assert nonzero >= 2

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("name", ["nodal", "conic", "double-line",
                                      "skew-lines"])
    def test_far_negative_twists(self, name, field):
        """h^1(O(n)) for n = -9, -12, -20, where a schedule started at
        B = 4 read 0: started from reg R + 1 - n, Cech meets duality."""
        if name == "conic":
            ring = GradedRing(field, list("xyz"), ideal_strings=["x*z - y^2"])
        else:
            ring = make_ring(name, field)
        for n in (-9, -12, -20):
            want = h_duality(ring, n, 1)
            assert want > 0 and cech_cohomology(ring, n, 1) == (want, True)

    def test_local_cohomology_vanishes_above_regularity(self):
        for name in RINGS:
            ring = make_ring(name)
            ld = local_duality(ring)
            assert all(ld.local_dim(i, n) == 0 for i in range(ring.nvars + 1)
                       for n in range(ld.regularity - i + 1,
                                      ld.regularity + 3))


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
