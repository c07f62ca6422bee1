"""Truncated Koszul complexes, Tot(P tensor E), its augmentation, and
Tot(P tensor f) of a strict morphism f."""

import pytest

from mfcat import koszul
from mfcat.fields import DEFAULT_PRIME, PrimeField, RationalField
from mfcat.homcat import hom_H, stabilize
from mfcat.koszul import (FreeComplex, covering_forms, koszul_truncated,
                          krull_dimension, stabilized_mf, tot,
                          tot_augmentation, tot_blocks, tot_morphism)
from mfcat.mf import (MFContext, SheafMap, StrictMorphism, TwistSum,
                      direct_sum_mf, shift_mf, strictness_violation, twist_mf,
                      verify_mf)
from mfcat.modules import covers
from mfcat.ring import GradedRing, binom
from mfcat.suite import unit_e0_factorization

from reference import free_complex_homology_dims, koszul_exactness_report
from mfcat.suite import generate_suite


SEED0 = [(profile, i, E) for profile in ("p1-small", "p2-small")
         for i, E in enumerate(generate_suite(0, profile)[1])]
SEED0_IDS = ["%s-%d" % (profile, i) for profile, i, _E in SEED0]


def _x0_times(E):
    """The strict morphism x0 * id: E -> E(1)."""
    ring = E.ctx.ring
    x0 = ring.poly("x0")
    F = twist_mf(E, 1)
    return StrictMorphism(E, F, SheafMap.scalar(ring, x0, E.E1, F.E1),
                          SheafMap.scalar(ring, x0, E.E0, F.E0))


class TestKoszulComplex:
    def test_shape_p1_j1(self, ring_p1):
        P, aug = koszul_truncated(ring_p1, 1)
        # 2 degree-1 monomials: terms in degrees -1 and 0
        assert P.degrees() == [-1, 0]
        assert P.term(0) == TwistSum([-1, -1])
        assert P.term(-1) == TwistSum([-2])
        assert aug.src == P.term(0) and aug.dst == TwistSum([0])

    def test_shape_p2_j1(self, ring_p2):
        P, _aug = koszul_truncated(ring_p2, 1)
        assert P.degrees() == [-2, -1, 0]
        assert [P.term(-n + 1).rank for n in (1, 2, 3)] == [3, 3, 1]

    def test_j2_sizes(self, ring_p1):
        # the k = m+1 = 2 pure powers x0^2, x1^2 on P^1
        P, _aug = koszul_truncated(ring_p1, 2)
        k = 2
        assert P.degrees() == [-1, 0]
        assert P.term(0) == TwistSum([-2] * k)
        assert P.term(-1) == TwistSum([-4] * binom(k, 2))

    @pytest.mark.parametrize("j", [2, 3])
    def test_pure_power_sizes_p2(self, ring_p2, j):
        P, aug = koszul_truncated(ring_p2, j)
        k = 3
        assert P.degrees() == [-2, -1, 0]
        for n in range(1, k + 1):
            assert P.term(-n + 1) == TwistSum([-n * j] * binom(k, n))
        assert [str(p) for p in aug.entries[0]] == \
            [str(ring_p2.poly("x%d^%d" % (i, j))) for i in range(k)]

    def test_d_squared_zero_checked(self, ring_p2):
        P, _ = koszul_truncated(ring_p2, 1)
        for p in P.maps:
            if p + 1 in P.maps:
                assert P.maps[p + 1].compose(P.maps[p]).is_zero()

    def test_exactness_in_high_degrees(self, ring_p1):
        report = koszul_exactness_report(ring_p1, 1)
        for t, spots in report.items():
            assert all(v == 0 for v in spots.values()), (t, spots)

    def test_exactness_j2(self, ring_p1):
        report = koszul_exactness_report(ring_p1, 2)
        for t, spots in report.items():
            assert all(v == 0 for v in spots.values()), (t, spots)

    @pytest.mark.parametrize("j", [2, 3])
    def test_exactness_pure_powers_p2(self, ring_p2, j):
        # R/(x0^j, x1^j, x2^j) lives in degrees <= 3(j-1), below the window
        report = koszul_exactness_report(ring_p2, j)
        assert min(report) == 3 * j - 1
        for t, spots in report.items():
            assert all(v == 0 for v in spots.values()), (t, spots)
        below = koszul_exactness_report(ring_p2, j, [3 * (j - 1)])
        assert below[3 * (j - 1)][1] == 1

    def test_invalid_truncation(self, ring_p1):
        with pytest.raises(ValueError):
            koszul_truncated(ring_p1, 0)


class TestHomologyDims:
    def test_two_term_complex(self, ring_p1):
        # O(-1) --x0--> O in internal degree t has homology only at spot 1
        src, dst = TwistSum([-1]), TwistSum([0])
        f = SheafMap(ring_p1, src, dst, [[ring_p1.poly("x0")]])
        fc = FreeComplex(ring_p1, {0: src, 1: dst}, {0: f})
        dims = free_complex_homology_dims(fc, 3, range(0, 2))
        # coker in degree 3 is (k[x0,x1]/(x0))_3, one-dimensional
        assert dims == {0: 0, 1: 1}


class TestTensorAndTot:
    def test_tot_verifies(self, ctx_p1, E_unit_p1):
        P, _aug = koszul_truncated(ctx_p1.ring, 1)
        T = tot(P, E_unit_p1)
        assert verify_mf(T)["ok"]
        assert T.E0.rank > E_unit_p1.E0.rank

    def test_augmentation_is_strict(self, ctx_p1, E_unit_p1):
        P, aug = koszul_truncated(ctx_p1.ring, 1)
        Etot, eps = stabilized_mf(P, aug, E_unit_p1)
        assert verify_mf(Etot)["ok"]
        assert eps.src is Etot and eps.dst is E_unit_p1
        assert not strictness_violation(eps)

    def test_augmentation_j2(self, ctx_p1, E_unit_p1):
        P, aug = koszul_truncated(ctx_p1.ring, 2)
        Etot, eps = stabilized_mf(P, aug, E_unit_p1)
        assert verify_mf(Etot)["ok"]
        assert not strictness_violation(eps)

    @pytest.mark.parametrize("j", [1, 2])
    def test_augmentation_apart_from_tot(self, ctx_p2, E_unit_p2, j):
        # stabilized_mf is Tot and tot_augmentation against it
        P, aug = koszul_truncated(ctx_p2.ring, j)
        Etot, eps = stabilized_mf(P, aug, E_unit_p2)
        T = tot(P, E_unit_p2)
        built = tot_augmentation(P, aug, E_unit_p2, T)
        assert built.src is T and built.dst is E_unit_p2
        assert T.describe() == Etot.describe()
        assert (built.g1, built.g0) == (eps.g1, eps.g0)

    def test_tot_rank_counts_components(self, ctx_p2, E_unit_p2):
        P, _aug = koszul_truncated(ctx_p2.ring, 1)
        T = tot(P, E_unit_p2)
        # each free summand O(a) contributes one copy of an E component to
        # each total term
        n_summands = sum(P.term(p).rank for p in P.degrees())
        assert T.E0.rank + T.E1.rank == n_summands * 2


class TestTotMorphism:
    """Tot(P(j) tensor -) on strict morphisms, against the augmentation."""

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("obj", SEED0, ids=SEED0_IDS)
    def test_augmentation_is_natural(self, obj, j):
        # eps_F o Tot(P tensor f) = f o eps_E for f = x0 * id: E -> E(1)
        _profile, _i, E = obj
        f = _x0_times(E)
        P, aug = koszul_truncated(E.ctx.ring, j)
        _Ep, eps_E = stabilized_mf(P, aug, E)
        _Fp, eps_F = stabilized_mf(P, aug, f.dst)
        tf = tot_morphism(P, f)
        assert tf.src.describe() == tot(P, E).describe()
        lhs = eps_F.compose(tf)
        rhs = f.compose(eps_E)
        assert (lhs.g1, lhs.g0) == (rhs.g1, rhs.g0)
        assert not lhs.is_zero()

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("obj", SEED0, ids=SEED0_IDS)
    def test_identity_goes_to_identity(self, obj, j):
        _profile, _i, E = obj
        ring = E.ctx.ring
        P, _aug = koszul_truncated(ring, j)
        t = tot_morphism(P, StrictMorphism.identity(E))
        T = tot(P, E)
        assert t.src.describe() == t.dst.describe() == T.describe()
        assert t.g1 == SheafMap.identity(ring, T.E1)
        assert t.g0 == SheafMap.identity(ring, T.E0)

    def test_blocks_give_the_layout(self, E_unit_p2):
        P, _aug = koszul_truncated(E_unit_p2.ctx.ring, 2)
        T = tot(P, E_unit_p2)
        for level, comp in ((-1, T.E1), (0, T.E0)):
            blocks = tot_blocks(P, E_unit_p2, level)
            assert [p for p, _ts in blocks] == P.degrees()
            assert TwistSum(t for _p, ts in blocks for t in ts) == comp
            for p, ts in blocks:
                assert ts.rank == P.term(p).rank * \
                    E_unit_p2.component_at(level - p).rank


# name -> (variables, ideal, dim X, covering forms)
SINGULAR = {
    "nodal": (["x", "y", "z"], ["x*y"], 1, ["z", "x + y"]),
    "skew-lines": (["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"], 1,
                   ["x + z", "y + w"]),
    "twisted-cubic": (["x", "y", "z", "w"],
                      ["x*z - y^2", "y*w - z^2", "x*w - y*z"], 1, ["x", "w"]),
    "double-line": (["x", "y", "z"], ["x^2"], 1, ["y", "z"]),
    "three-lines": (["x", "y", "z"], ["x*y*(x - y)"], 1, ["z", "x + y"]),
}
FIELDS = {"F_32003": PrimeField(DEFAULT_PRIME), "F_7": PrimeField(7),
          "Q": RationalField()}


def _forms(ring):
    return [ring.to_str(f) for f in covering_forms(ring)]


class TestCoveringForms:
    """P(j) is built on k = dim X + 1 linear forms with no common zero on
    X: the variables on P^m, fewer on a singular curve."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_projective_space_uses_the_variables(self, m, monkeypatch):
        ring = GradedRing(PrimeField(DEFAULT_PRIME),
                          ["x%d" % i for i in range(m + 1)])
        monkeypatch.setattr(koszul, "covers", None)   # no Groebner run
        assert krull_dimension(ring) == m + 1
        assert _forms(ring) == ring.variables
        P, aug = koszul_truncated(ring, 2)
        assert P.term(0).rank == m + 1
        assert [str(p) for p in aug.entries[0]] == \
            [str(ring.poly("x%d^2" % i)) for i in range(m + 1)]

    @pytest.mark.parametrize("field", FIELDS.values(), ids=list(FIELDS))
    @pytest.mark.parametrize("name", SINGULAR)
    def test_dim_x_plus_one_forms(self, name, field):
        variables, ideal, dim_x, forms = SINGULAR[name]
        ring = GradedRing(field, variables, ideal_strings=ideal)
        assert krull_dimension(ring) == dim_x + 1
        assert _forms(ring) == forms
        assert covering_forms(ring) is ring.covering_forms    # held on the ring
        P, _aug = koszul_truncated(ring, 1)
        assert P.degrees() == list(range(-dim_x, 1))
        assert P.term(0).rank == dim_x + 1

    @pytest.mark.parametrize("name", SINGULAR)
    def test_variables_alone_do_not_cover(self, name):
        # the chosen forms and all the variables cover X; on the nodal
        # curve, skew lines and three lines no two variables do
        variables, ideal, _dim_x, forms = SINGULAR[name]
        ring = GradedRing(PrimeField(DEFAULT_PRIME), variables,
                          ideal_strings=ideal)
        xs = [ring.poly(v) for v in variables]
        assert covers(ring, [ring.poly(f) for f in forms])
        assert covers(ring, xs)
        if name in ("nodal", "skew-lines", "three-lines"):
            assert not any(covers(ring, [xs[a], xs[b]])
                           for a in range(len(xs)) for b in range(a))

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("name", SINGULAR)
    def test_augmented_complex_exact_in_high_degrees(self, name, j):
        # exact as sheaves: its homology modules have finite length, so
        # they vanish in high degrees
        variables, ideal, _dim_x, _forms = SINGULAR[name]
        ring = GradedRing(PrimeField(DEFAULT_PRIME), variables,
                          ideal_strings=ideal)
        report = koszul_exactness_report(ring, j, range(0, 2 * j + 4))
        assert any(report[0].values())
        for t in range(2 * j + 1, 2 * j + 4):
            assert not any(report[t].values()), (t, report[t])

    @pytest.mark.parametrize("name", [*SINGULAR, "P2", "P3"])
    def test_stabilized_rank(self, name):
        # E' = Tot(P(j) tensor E) has rank (2^k - 1) rank E
        if name in SINGULAR:
            variables, ideal = SINGULAR[name][:2]
        else:
            variables, ideal = ["x%d" % i for i in range(int(name[1]) + 1)], []
        ring = GradedRing(PrimeField(DEFAULT_PRIME), variables,
                          ideal_strings=ideal)
        U = unit_e0_factorization(MFContext(ring, ring.poly(variables[-1])))
        k = len(covering_forms(ring))
        for E in (U, direct_sum_mf(U, shift_mf(twist_mf(U, 1)))):
            Ep, _eps, cert = stabilize(E, E)
            assert cert.k == k
            assert Ep.E0.rank == Ep.E1.rank == (2 ** k - 1) * E.E0.rank

    def test_artinian_ring_has_no_forms(self):
        # X is empty: no forms, P(j) is zero, and every Hom vanishes
        ring = GradedRing(PrimeField(7), ["x", "y"],
                          ideal_strings=["x^2", "x*y", "y^2"])
        assert krull_dimension(ring) == 0
        assert covering_forms(ring) == ()
        P, aug = koszul_truncated(ring, 1)
        assert P.degrees() == [] and aug.src.rank == 0
        U = unit_e0_factorization(MFContext(ring, ring.poly("x")))
        hs = hom_H(U, U)
        assert hs.stabilized_src.is_zero_object()
        assert hs.certificate.k == 0 and hs.certificate.check()
        assert hs.dimension == 0
