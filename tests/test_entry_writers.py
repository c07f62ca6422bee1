"""The mapping complex and Tot(P tensor E), its augmentation and
Tot(P tensor f) are written entry by entry at their final positions; they
must give the rows, in the same key order, of the block-composition
builders in reference.py, on every corpus, over F_32003 and Q, at twist
steps 1, 2 and 3 and Koszul levels 1-3."""

import random

import pytest

from mfcat.fields import DEFAULT_PRIME, PrimeField, RationalField
from mfcat.homcat import prop28_report
from mfcat.koszul import (covering_forms, koszul_truncated, tot,
                          tot_augmentation, tot_morphism)
from mfcat.mf import (MFContext, SheafMap, StrictMorphism,
                      _post_compose_matrix, _pre_compose_matrix, cone,
                      direct_sum_mf, mapping_complex, shift_mf,
                      solve_homotopy, twist_mf)
from mfcat.ring import GradedRing
from mfcat.suite import (_grow, a1_u_factorization, a1_v_factorization,
                         affine_a1_context, generate_suite,
                         projective_context, rank_one_mf,
                         unit_e0_factorization)

import reference

FIELDS = {"F_32003": PrimeField(DEFAULT_PRIME), "Q": RationalField()}


def _a1(field):
    ctx = affine_a1_context(field)
    eu, ev = a1_u_factorization(ctx), a1_v_factorization(ctx)
    return ctx, [eu, shift_mf(eu), ev, twist_mf(eu, -1),
                 direct_sum_mf(eu, ev), cone(StrictMorphism.zero(eu, ev))]


def _grown(ctx, base, count):
    return ctx, _grow(random.Random(0), ctx, [base], count)


def _p1(field):
    ctx = projective_context(1, w_index=0, field=field)
    return _grown(ctx, unit_e0_factorization(ctx), 8)


def _p2(field):
    ctx = projective_context(2, field=field)
    return _grown(ctx, unit_e0_factorization(ctx), 4)


def _curve_ring(field, ideal):
    return GradedRing(field, ["x", "y", "z"], ideal_strings=[ideal])


def _nodal(field):
    ring = _curve_ring(field, "x*y")
    ctx = MFContext(ring, ring.poly("z"))
    return _grown(ctx, unit_e0_factorization(ctx), 4)


def _nodal_w0(field):
    ctx = MFContext(_curve_ring(field, "x*y"), "0", twist_step=2)
    return _grown(ctx, rank_one_mf(ctx, "x", "y", 0), 3)


def _three_lines(field):
    ctx = MFContext(_curve_ring(field, "x*y*(x - y)"), "0", twist_step=3)
    return _grown(ctx, rank_one_mf(ctx, "x", "y*(x - y)", 0), 3)


# name -> (field -> (context, objects)); p1-small, p2-small and a1-affine
# are the seed-0 suite corpora (over Q, the same recipe)
CORPORA = {"p1-small": _p1, "p2-small": _p2, "a1-affine": _a1,
           "nodal": _nodal, "nodal-w0": _nodal_w0,
           "three-lines": _three_lines}


def assert_same(got, want):
    """Equal twist sums and rows, with the keys of each row in the same
    order."""
    assert (got.src, got.dst) == (want.src, want.dst)
    assert got.rows == want.rows
    assert [list(row) for row in got.rows] == [list(row) for row in want.rows]


def test_corpora_are_the_suite_corpora():
    for name in ("p1-small", "p2-small", "a1-affine"):
        _ctx, objs = CORPORA[name](FIELDS["F_32003"])
        assert [E.describe() for E in objs] == \
            [E.describe() for E in generate_suite(0, name)[1]]


def test_twist_steps():
    steps = {name: CORPORA[name](FIELDS["Q"])[0].d for name in CORPORA}
    assert steps == {"p1-small": 1, "p2-small": 1, "a1-affine": 2,
                     "nodal": 1, "nodal-w0": 2, "three-lines": 3}


class TestMappingComplex:
    @pytest.mark.parametrize("field", FIELDS.values(), ids=list(FIELDS))
    @pytest.mark.parametrize("name", CORPORA)
    def test_rows_equal_the_block_builder(self, name, field):
        _ctx, objs = CORPORA[name](field)
        for E in objs:
            for F in objs:
                got = mapping_complex(E, F)
                want = reference.mapping_complex(E, F)
                assert_same(got.e1, want.e1)
                assert_same(got.e0, want.e0)
                assert got.ctx == want.ctx

    @pytest.mark.parametrize("name", CORPORA)
    def test_zero_object_on_either_side(self, name):
        ctx, objs = CORPORA[name](FIELDS["F_32003"])
        Z = reference.zero_mf(ctx)
        for E, F in ((Z, objs[-1]), (objs[-1], Z), (Z, Z)):
            got = mapping_complex(E, F)
            assert got.is_zero_object()
            assert_same(got.e1, reference.mapping_complex(E, F).e1)
            assert_same(got.e0, reference.mapping_complex(E, F).e0)

    @pytest.mark.parametrize("name", CORPORA)
    def test_module_side_matrices(self, name):
        # post- and precomposition keep their own builders for hypersurface
        _ctx, objs = CORPORA[name](FIELDS["F_32003"])
        for E in objs:
            for F in objs:
                for phi in (F.e1, F.e0):
                    assert_same(_post_compose_matrix(phi, E.E0),
                                reference.post_compose_matrix(phi, E.E0))
                    assert_same(_pre_compose_matrix(phi, E.E1),
                                reference.pre_compose_matrix(phi, E.E1))


def _times_form(E):
    """The strict morphism l * id: E -> E(1), l the first covering form."""
    ring = E.ctx.ring
    l = covering_forms(ring)[0]
    return StrictMorphism(
        E, twist_mf(E, 1),
        SheafMap.scalar(ring, l, E.E1, E.E1.twist(1)),
        SheafMap.scalar(ring, l, E.E0, E.E0.twist(1)))


class TestTot:
    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("field", FIELDS.values(), ids=list(FIELDS))
    @pytest.mark.parametrize("name", CORPORA)
    def test_rows_equal_the_block_builder(self, name, field, j):
        ctx, objs = CORPORA[name](field)
        P, aug = koszul_truncated(ctx.ring, j)
        for E in objs:
            T, want = tot(P, E), reference.tot(P, E)
            assert_same(T.e1, want.e1)
            assert_same(T.e0, want.e0)
            eps = tot_augmentation(P, aug, E, T)
            want = reference.tot_augmentation(P, aug, E, T)
            assert_same(eps.g1, want.g1)
            assert_same(eps.g0, want.g0)
            for f in (StrictMorphism.identity(E), _times_form(E)):
                got, want = tot_morphism(P, f), reference.tot_morphism(P, f)
                assert_same(got.g1, want.g1)
                assert_same(got.g0, want.g0)

    def test_artinian_ring_gives_the_zero_object(self):
        # k = 0 forms, P(j) = 0: Tot, its augmentation and Tot(P tensor f)
        # are zero
        ring = GradedRing(PrimeField(7), ["x", "y"],
                          ideal_strings=["x^2", "x*y", "y^2"])
        U = unit_e0_factorization(MFContext(ring, ring.poly("x")))
        P, aug = koszul_truncated(ring, 1)
        T = tot(P, U)
        assert T.is_zero_object()
        eps = tot_augmentation(P, aug, U, T)
        assert eps.is_zero() and eps.g1.dst == U.E1 and eps.g0.dst == U.E0
        assert_same(eps.g0, reference.tot_augmentation(P, aug, U, T).g0)
        t = tot_morphism(P, StrictMorphism.identity(U))
        assert t.src.is_zero_object() and t.dst.is_zero_object()


PROP28 = [(seed, i, E) for seed in range(3)
          for i, E in enumerate(generate_suite(seed, "p1-small")[1])] + \
    [("a1", i, E) for i, E in enumerate(generate_suite(0, "a1-affine")[1])]


@pytest.mark.parametrize("obj", PROP28,
                         ids=["%s-%d" % (s, i) for s, i, _E in PROP28])
def test_solve_homotopy_as_the_block_builder(obj):
    # the homotopy of the identity that prop28_report's contractibility
    # test solves for is the one solved against the block-built d^-1
    _seed, _i, E = obj
    f = StrictMorphism.identity(E)
    got, want = solve_homotopy(f), reference.solve_homotopy(f)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want
    assert prop28_report(E)["condition1_contractible"] is (got is not None)
