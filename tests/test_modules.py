"""Graded module presentations: pieces, syzygies, minimalization, Fitting
ideals, and the exact nonzerodivisor, covering and sheaf-zero tests
against the degree-window scans they replaced."""

from itertools import combinations

import pytest

from mfcat.fields import DEFAULT_PRIME, PrimeField, RationalField
from mfcat.homcat import _sheaf_zero
from mfcat.mf import TwistSum
from mfcat.modules import (ModulePresentation, covers, fitting_ideal,
                           is_nonzerodivisor, syzygies, syzygy_presentation)
from mfcat.ring import GradedRing, binom

from reference import (contains_irrelevant_power, ideals_equal, piece_dim,
                       regular_in_window, saturation_bound,
                       sheaf_zero_within)


NODAL = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                   ideal_strings=["x*y"])


def mk_pres(ring, twists, cols_strs):
    cols = [[ring.poly(s) for s in col] for col in cols_strs]
    return ModulePresentation.from_columns(ring, twists, cols)


class TestPieces:
    def test_free_module_piece_dims(self, ring_p2):
        # R(0) + R(-1): dim M_t = h(t) + h(t-1)
        M = mk_pres(ring_p2, [0, -1], [])
        for t in range(4):
            assert piece_dim(M, t) == binom(t + 2, 2) + binom(t + 1, 2)

    def test_cyclic_quotient_piece_dims(self, ring_p1):
        # k[x0,x1]/(x0): dim = 1 in every degree >= 0
        M = mk_pres(ring_p1, [0], [["x0"]])
        assert [piece_dim(M, t) for t in range(-1, 4)] == [0, 1, 1, 1, 1]

    def test_twist(self, ring_p1):
        M = mk_pres(ring_p1, [0], [["x0"]])
        N = M.twist(-2)
        assert [piece_dim(N, t) for t in range(5)] == [0, 0, 1, 1, 1]


    def test_quotient_ring_piece_dims(self):
        # on k[x,y,z]/(xy) (Hilbert function 1, 3, 5) the relation
        # x*e1 + y*e2 of R + R has rank 1 in degree 1 and rank 3 in degree
        # 2, where x*y = 0; a zero column adds nothing
        M = mk_pres(NODAL, [0, 0], [["x", "y"], ["0", "0"]])
        assert [piece_dim(M, t) for t in range(-1, 3)] == [0, 2, 5, 7]


class TestSyzygies:
    def test_koszul_syzygy(self, ring_p1):
        # relations (x0, x1) on R: the syzygy module is spanned by
        # (x1, -x0) up to scale, in twist -2
        rel = mk_pres(ring_p1, [0], [["x0"], ["x1"]]).rel
        syz = syzygies(rel)
        assert syz.src == TwistSum([-2]) and syz.dst == rel.src
        assert syz.to_strs() == [["32002*x1"], ["x0"]]
        assert rel.compose(syz).is_zero()

    def test_syzygy_presentation_columns_kill(self, ring_p2):
        # the three Koszul syzygies of (x0, x1, x2) compose to zero
        # against M's relation matrix
        M = mk_pres(ring_p2, [0], [["x0"], ["x1"], ["x2"]])
        S = syzygy_presentation(M)
        assert S.rel.src == TwistSum([-2] * 3) and S.rel.dst == M.rel.src
        assert M.rel.compose(S.rel).is_zero()

    def test_minimalize_drops_unit_columns(self, ring_p1):
        # (R + R)/((1, 0)) is just R
        M = mk_pres(ring_p1, [0, 0], [["1", "0"]])
        Mm = M.minimalize()
        assert Mm.rel.dst == TwistSum([0]) and Mm.rel.src.rank == 0
        assert [piece_dim(Mm, t) for t in range(3)] == \
            [piece_dim(M, t) for t in range(3)]


class TestFitting:
    def test_free_rank_one(self, ring_p1):
        M = mk_pres(ring_p1, [0], [])
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
        # (x0, x1, x2) has no zero on P^2 and (x0) has a line of them;
        # covers decides it, the bounded search agrees
        gens = [ring_p2.poly(s) for s in ("x0", "x1", "x2")]
        B = saturation_bound(ring_p2, gens)
        assert covers(ring_p2, gens)
        assert contains_irrelevant_power(gens, ring_p2, B)
        assert not covers(ring_p2, gens[:1])
        assert not contains_irrelevant_power(gens[:1], ring_p2, B)


class TestFromColumns:
    def test_twists_from_first_nonzero_entry(self, ring_p1):
        M = mk_pres(ring_p1, [0, -1], [["0", "x0"], ["x0^2", "x1"]])
        assert M.rel.src == TwistSum([-2, -2]) and M.rel.dst == TwistSum([0, -1])
        assert M.rel.to_strs() == [["0", "x0^2"], ["x0", "x1"]]

    def test_zero_column_dropped(self, ring_p1):
        M = mk_pres(ring_p1, [0], [["x0"], ["0"], ["x1"]])
        assert M.rel == mk_pres(ring_p1, [0], [["x0"], ["x1"]]).rel

    @pytest.mark.parametrize("twists, cols, message", [
        ([0, -1], [["x0"]], "relation column 0 has wrong length"),
        ([0], [["x0"], ["x0 + 1"]], r"relation entry \(0, 1\) not homogeneous"),
    ])
    def test_invalid_column(self, ring_p1, twists, cols, message):
        with pytest.raises(ValueError, match=message):
            mk_pres(ring_p1, twists, cols)


class TestMinimalize:
    def test_pivot_is_first_constant_column_then_row(self, ring_p1):
        # columns 0 and 1 hold constants; the pivot is column 0 at its
        # first constant (row 1), then the new column 0 at row 1: the
        # last relation comes out as x0^2/2 + x0*x1/2 - x1^2, where other
        # pivots would give a unit multiple of it
        M = mk_pres(ring_p1, [1, 0, 0], [["x0", "2", "0"], ["x1", "1", "1"],
                                         ["x0^2", "x0", "x1"]])
        Mm = M.minimalize()
        half = ring_p1.field.inv(ring_p1.field.of(2))
        want = ring_p1.poly("x0^2 + x0*x1").scale(half) - ring_p1.poly("x1^2")
        assert Mm.rel.dst == TwistSum([1]) and Mm.rel.src == TwistSum([-1])
        assert Mm.rel.rows == [{0: want}]

    def test_twist_shifts_both_sides(self, ring_p1):
        M = mk_pres(ring_p1, [0], [["x0"]]).twist(3)
        assert (M.rel.dst, M.rel.src) == (TwistSum([3]), TwistSum([2]))


# name -> (variables, ideal)
EXACT_RINGS = {
    "P1": ("xy", []),
    "P2": ("xyz", []),
    "P3": ("xyzw", []),
    "nodal": ("xyz", ["x*y"]),
    "double-line": ("xyz", ["x^2"]),
    "skew-lines": ("xyzw", ["x*z", "x*w", "y*z", "y*w"]),
    # (xy) with an embedded point: xy is nonzero but killed by (x, y, z)
    "embedded-point": ("xyz", ["x^2*y", "x*y^2", "x*y*z"]),
    "twisted-cubic": ("xyzw", ["x*z - y^2", "x*w - y*z", "y*w - z^2"]),
    "fermat": ("xyz", ["x^3 + y^3 + z^3"]),
}
EXACT_FIELDS = {"F_p": PrimeField(DEFAULT_PRIME), "Q": RationalField()}


@pytest.mark.parametrize("field", EXACT_FIELDS.values(),
                         ids=list(EXACT_FIELDS))
@pytest.mark.parametrize("name", EXACT_RINGS)
class TestExactAgainstWindows:
    """The exact predicates give the answers of the window scans they
    replaced, on rings with and without zero divisors among the
    variables, and on each ring's quotient by its last variable."""

    @staticmethod
    def rings(name, field):
        variables, ideal = EXACT_RINGS[name]
        ring = GradedRing(field, list(variables), ideal_strings=ideal)
        return ring, ring.quotient_by(variables[-1])

    def test_nonzerodivisor(self, name, field):
        ring, _ = self.rings(name, field)
        xs = [ring.poly(v) for v in ring.variables]
        for w in xs + [sum(xs[1:], xs[0]), xs[0] + xs[1], xs[0] * xs[1]]:
            assert is_nonzerodivisor(ring, w) == regular_in_window(ring, w)
        # x is a zero divisor on xy and on x^2, and so on the embedded point
        assert is_nonzerodivisor(ring, xs[0]) == (
            name not in ("nodal", "double-line", "embedded-point",
                         "skew-lines"))

    def test_covers(self, name, field):
        for ring in self.rings(name, field):
            xs = [ring.poly(v) for v in ring.variables]
            subsets = [list(S) for k in range(ring.nvars + 1)
                       for S in combinations(xs, k)]
            for gens in subsets + [[x * x for x in S] for S in subsets] + [
                    [sum(xs[1:], xs[0])], [ring.one()]]:
                B = saturation_bound(ring, gens)
                assert covers(ring, gens) == \
                    contains_irrelevant_power(gens, ring, B)
                assert covers(ring, gens, affine=True) == \
                    contains_irrelevant_power(gens, ring, 0)

    def test_sheaf_zero(self, name, field):
        ring, ry = self.rings(name, field)
        for r in (ring, ry):
            xs = [r.poly(v) for v in r.variables]
            for gens in ([[x] for x in xs]
                         + [[a * b] for a, b in combinations(xs, 2)]
                         + [[r.one()], xs]):
                B = saturation_bound(r, gens)
                assert _sheaf_zero(gens, r, False) == \
                    sheaf_zero_within(gens, r, B)
                assert _sheaf_zero(gens, r, True) == \
                    sheaf_zero_within(gens, r, 0)
        if name == "embedded-point":
            # xy is nonzero but zero on Proj, in R and in R/(z)
            for r in (ring, ry):
                xy = [r.poly("x*y")]
                assert _sheaf_zero(xy, r, False)
                assert not _sheaf_zero(xy, r, True)


def test_invalid_column_degree(ring_p1):
    # relation entries must be homogeneous of consistent degree
    with pytest.raises(ValueError,
                       match="relation column 0 is not twist-consistent"):
        mk_pres(ring_p1, [0, -1], [["x0", "x0"]])
