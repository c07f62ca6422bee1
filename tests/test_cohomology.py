"""Truncated Cech cohomology of line bundles and hypercohomology of
twisted periodic complexes."""

import random

import pytest

from mfcat import cohomology
from mfcat.cohomology import (CechSpace, GlobalSections, cech_cohomology,
                              cech_cohomology_at, cech_horizontal,
                              cech_hypercohomology, cech_total_diff,
                              cech_truncation, cech_vertical, h_duality,
                              h_projective_space, vanishing_threshold)
from mfcat.fields import DEFAULT_PRIME, PrimeField, RationalField
from mfcat.homcat import hom_H
from mfcat.linalg import (ExactMatrix, kernel_basis, rref, solve,
                          sparse_blocks, sparse_matmul, sparse_rank,
                          sparse_transpose)
from mfcat.mf import (MFContext, SheafMap, TwistSum, direct_sum_mf,
                      mapping_complex, shift_mf, twist_mf)
from mfcat.modules import is_nonzerodivisor
from mfcat.poly import Poly
from mfcat.ring import GradedRing, binom
from mfcat.suite import (_grow, generate_suite, rank_one_mf,
                         unit_e0_factorization)

from reference import block_rows, sparse_blocks_by_rows


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
            dense = ExactMatrix.from_sparse_rows(F, d, ncols)
            assert r == len(rref(dense)[1])


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
        assert is_nonzerodivisor(ring, ctx.W)
        gs = GlobalSections(ctx)
        assert not gs.saturated(0)
        assert [gs.dim(n) for n in range(4)] == [2, 4, 6, 8]
        assert [ring.hilbert(n) for n in range(4)] == [1, 4, 6, 8]
        f = SheafMap(ring, TwistSum([0, 1]), TwistSum([2]),
                     [[ring.poly("x^2"), ring.poly("x")]])
        cech = GlobalSections(ctx)
        cech.saturated = lambda n: False     # every degree through Cech
        assert len(rref(gs.sheafmap_matrix(f))[1]) == 2
        assert len(rref(cech.sheafmap_matrix(f))[1]) == 2

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_projective_space_saturated_by_theorem(self, m):
        """Gamma(P^m, O(n)) = R_n for every n when m >= 1 (Hartshorne
        III.5.1): GlobalSections answers by theorem, and Cech agrees."""
        ring = GradedRing(PrimeField(DEFAULT_PRIME),
                          ["x%d" % i for i in range(m + 1)])
        gs = GlobalSections(MFContext(ring, ring.poly("x0")))
        for n in range(-6, 7):
            assert gs.saturated(n)
            assert cech_cohomology(ring, n, 0) == (ring.hilbert(n), True)

    def test_point_unsaturated_in_negative_degrees(self):
        """P^0 is a point: Gamma(O(n)) = k for every n, but R_n = 0 for
        n < 0, so the theorem for P^m, m >= 1, does not apply, and local
        duality finds those degrees unsaturated: H^1_m(k[x])_n = k."""
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x"])
        gs = GlobalSections(MFContext(ring, ring.poly("x")))
        for n in range(-4, 0):
            assert not gs.saturated(n)
            assert gs.dim(n) == 1
        assert all(gs.saturated(n) for n in range(0, 4))

    def test_no_cech_for_saturation_or_threshold(self, monkeypatch):
        """Saturation and the vanishing threshold are decided without
        Cech: on P^2 by theorem, and on the conic by local duality."""
        calls = []
        for name in ("cech_cohomology", "cech_cohomology_at"):
            real = getattr(cohomology, name)
            monkeypatch.setattr(cohomology, name,
                                lambda *a, real=real: calls.append(a)
                                or real(*a))
        ctx, objs = generate_suite(0, "p2-small")
        gs = GlobalSections(ctx)
        assert hom_H(objs[1], objs[3], gs).dimension == 0
        conic = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                           ideal_strings=["x*z - y^2"])
        ctx = MFContext(conic, conic.poly("x"))
        assert GlobalSections(ctx).saturated(0)
        assert vanishing_threshold(ctx) == (0, "duality")
        assert calls == []

    def test_mult_commutes(self, ctx_p1):
        gs = GlobalSections(ctx_p1)
        ring = ctx_p1.ring
        F = ring.field
        A = block_rows(gs.mult(ring.poly("x0"), 1))
        B = block_rows(gs.mult(ring.poly("x1"), 2))
        C = block_rows(gs.mult(ring.poly("x0*x1"), 1))
        assert len(C) == gs.dim(3) and any(C)
        assert sparse_matmul(F, B, A) == C


THREE_LINES = ("xyz", ["x*y*(x - y)"])


def three_lines_pair():
    """k[x,y,z]/(xy(x-y)), W = 0, twist step 3: shift(A) and B(-1),
    A = (x, y(x - y)), B = (y, x(x - y)), with a 1-dimensional Hom."""
    ring = GradedRing(PrimeField(DEFAULT_PRIME), list(THREE_LINES[0]),
                      ideal_strings=THREE_LINES[1])
    ctx = MFContext(ring, ring.zero(), twist_step=3)
    A = rank_one_mf(ctx, "x", "y*(x - y)", 0)
    B = rank_one_mf(ctx, "y", "x*(x - y)", 0)
    return shift_mf(A), twist_mf(B, -1)


def record_hyper_at(monkeypatch):
    """The truncations B at which cech_hypercohomology_at is called."""
    tried = []
    real = cohomology.cech_hypercohomology_at
    monkeypatch.setattr(cohomology, "cech_hypercohomology_at",
                        lambda C, q, B: tried.append(B) or real(C, q, B))
    return tried


class TestTruncation:
    def test_three_lines_one_evaluation(self, monkeypatch):
        # the truncations B = 1, ..., 8 agree on a plateau at 3 before
        # they settle on the dimension of the Hom; one evaluation at
        # B* = 1 - a - N + b = 1 + 7 - 3 + 3 = 8, with a = -7 the least
        # twist of C^-3, ..., C^1 and b = 3 the degree of xy(x - y)
        S, T = three_lines_pair()
        C = mapping_complex(S, T)
        assert [cohomology.cech_hypercohomology_at(C, 0, b)
                for b in range(1, 9)] == [0, 1, 3, 3, 3, 1, 1, 1]
        tried = record_hyper_at(monkeypatch)
        assert cech_hypercohomology(C, 0) == (1, True)
        assert tried == [8]
        assert hom_H(S, T).dimension == 1

    def test_window_reads_the_rows_around_q(self, monkeypatch):
        # H^-2(C(3)) = H^0(C), twist step 3: the rows C(3)^-5, ..., C(3)^-1
        # are C^-3, ..., C^1, so the one evaluation is again at B* = 8
        C = mapping_complex(*three_lines_pair())
        tried = record_hyper_at(monkeypatch)
        assert cech_hypercohomology(twist_mf(C, 3), -2) == (1, True)
        assert tried == [8]

    @pytest.mark.parametrize("step", [-1, -2])
    def test_negative_step_reads_the_whole_window(self, step, monkeypatch):
        # with twists falling as k rises, the least twist of
        # C^{q-m-1}, ..., C^{q+1} lies past C^{q-m}: read off C^{q-m-1}
        # and C^{q-m} alone, B* is too small and Homs of dimension 6 and
        # 13 read 3 and 10
        ring = GradedRing(PrimeField(DEFAULT_PRIME), list(THREE_LINES[0]),
                          ideal_strings=THREE_LINES[1])
        ctx = MFContext(ring, ring.zero(), twist_step=step)
        objs = _grow(random.Random(0), ctx,
                     [rank_one_mf(ctx, "x*y", "0", 0)], 3)
        gs = GlobalSections(ctx)
        tried = record_hyper_at(monkeypatch)
        for E in objs:
            for F in objs:
                assert cech_hypercohomology(mapping_complex(E, F), 0) == \
                    (hom_H(E, F, gs).dimension, True)
        assert len(tried) == len(objs) ** 2

    def test_polynomial_rings_take_one_proven_truncation(self, monkeypatch):
        # C^-3 and C^-2 have twists (-5, -4) and (-4, -4) on P^2, so
        # B* = max(1, -2 + 5) = 3
        ctx, objs = generate_suite(0, "p2-small")
        tried = record_hyper_at(monkeypatch)
        assert cech_hypercohomology(
            mapping_complex(objs[0], twist_mf(objs[0], -3)), 0) == (0, True)
        assert tried == [3]

    def test_vanishing_threshold(self, ctx_p2):
        n0, tag = vanishing_threshold(ctx_p2)
        assert tag == "exact"
        ring = ctx_p2.ring
        for n in range(n0, n0 + 3):
            for p in (1, 2):
                dim, stable = cech_cohomology(ring, n, p)
                assert stable and dim == 0


# -- one proven truncation on P^m ----------------------------------------


FIELDS = [PrimeField(DEFAULT_PRIME), PrimeField(7), RationalField()]

# (m, rank-one base (e1, e0), twist step): W = 0 on P^m, twisted periodic
# complexes whose Homs are all nonzero
TWISTED_PM = [(m, base, step) for m in (1, 2)
              for base, step in ((("x0", "0"), 1), (("x0", "0"), 2),
                                 (("x0*x1", "0"), 1))]


def projective_space(field, m):
    return GradedRing(field, ["x%d" % i for i in range(m + 1)])


class TestOneTruncation:
    """On P^m (b = 0) cech_truncation is B* = max(1, -n - m) for O(n),
    and for H^q of C with a twist step d > 0 it is B* = max(1, -m - a), a
    the least twist of C^{q-m-1} and C^{q-m}, since the rows rise by d
    every two steps (the proof is in the cohomology module docstring)."""

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_closed_form_on_projective_space(self, m):
        ring = projective_space(PrimeField(DEFAULT_PRIME), m)
        assert [cech_truncation(ring, n) for n in range(-14, 7)] == \
            [max(1, -n - m) for n in range(-14, 7)]

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("m, lo, hi", [(1, -14, 6), (2, -14, 6),
                                           (3, -8, 4)])
    def test_line_bundles_match_closed_form(self, m, lo, hi, field,
                                            monkeypatch):
        ring = projective_space(field, m)
        tried = []
        real = cohomology.cech_cohomology_at
        monkeypatch.setattr(cohomology, "cech_cohomology_at",
                            lambda r, n, p, B: tried.append(B)
                            or real(r, n, p, B))
        for n in range(lo, hi + 1):
            B = max(1, -n - m)
            for p in range(m + 1):
                want = h_projective_space(m, n, p)
                tried.clear()
                assert cech_cohomology(ring, n, p) == (want, True), (n, p)
                assert tried == [B]
                assert real(ring, n, p, B + 1) == want, (n, p)

    @pytest.mark.parametrize("m, n, p, dim", [(1, -11, 1, 10),
                                              (1, -80, 1, 79),
                                              (2, -16, 2, 105)])
    def test_below_a_fixed_start(self, m, n, p, dim):
        # 5(m + 1) < -n: the truncations B = 4 and 5 both read 0 here
        ring = projective_space(PrimeField(DEFAULT_PRIME), m)
        assert [cech_cohomology_at(ring, n, p, B) for B in (4, 5)] == [0, 0]
        assert cech_cohomology(ring, n, p) == (dim, True)
        assert dim == h_projective_space(m, n, p)

    @pytest.mark.parametrize("m, base, step", TWISTED_PM,
                             ids=["P%d-%s-d%d" % (m, base[0], step)
                                  for m, base, step in TWISTED_PM])
    def test_w_zero_corpora(self, m, base, step, monkeypatch):
        # hom_H, the one-truncation value and the value at B = 12 agree,
        # and the one truncation is read off C^{-m-1} and C^{-m} alone
        ring = projective_space(PrimeField(DEFAULT_PRIME), m)
        ctx = MFContext(ring, ring.zero(), twist_step=step)
        objs = _grow(random.Random(0), ctx, [rank_one_mf(ctx, *base, 0)], 4)
        gs = GlobalSections(ctx)
        real = cohomology.cech_hypercohomology_at
        tried = record_hyper_at(monkeypatch)
        for E in objs:
            for F in objs:
                C = mapping_complex(E, F)
                dim = hom_H(E, F, gs).dimension
                assert dim > 0
                tried.clear()
                assert cech_hypercohomology(C, 0) == (dim, True)
                low = min([*C.component_at(-m - 1), *C.component_at(-m)])
                assert tried == [max(1, -m - low)]
                assert real(C, 0, 12) == dim


# -- one-pass assembly ----------------------------------------------------


def nested_total_diff(C, q, B):
    """cech_total_diff as it was assembled before the one-pass layout: each
    Cech block matrix assembled on its own from unsigned blocks, negated
    blocks copied, then those matrices assembled again, all row by row.
    The reference for rows, values and the key order of each row."""
    ring = C.ctx.ring
    F = ring.field

    def signed(blk, sign):
        rows = block_rows(blk)
        if sign > 0:
            return rows
        return [{c: F.neg(v) for c, v in row.items()} for row in rows]

    def horizontal(src, dst):
        nt = len(src.twists)
        shift = B * (src.p + 1)
        src_index = {S: k for k, S in enumerate(src.subsets)}
        blocks = []
        for tk, T in enumerate(dst.subsets):
            faces = sorted((src_index[T[:pos] + T[pos + 1:]], pos, i)
                           for pos, i in enumerate(T))
            for t, a in enumerate(src.twists):
                for sk, pos, i in faces:
                    e = tuple(B if k == i else 0 for k in range(ring.nvars))
                    x = Poly.monomial(F, ring.nvars, e)
                    blocks.append((tk * nt + t, sk * nt + t, signed(
                        ring.mult_matrix(x, a + shift),
                        -1 if pos % 2 else 1)))
        return sparse_blocks_by_rows(dst.block_dims, src.block_dims,
                                     blocks)[0]

    def vertical(src, dst, f, sign):
        shift = B * (src.p + 1)
        ns, nd = len(src.twists), len(dst.twists)
        blocks = [(s * nd + tr, s * ns + tc, signed(
            ring.mult_matrix(p, src.twists[tc] + shift), sign))
            for s in range(len(src.subsets))
            for tr, row in enumerate(f.rows) for tc, p in row.items()]
        return sparse_blocks_by_rows(dst.block_dims, src.block_dims,
                                     blocks)[0]

    def total(n):
        return [CechSpace(ring, list(C.component_at(n - p).twists), p, B)
                for p in range(ring.nvars)]

    src, dst = total(q), total(q + 1)
    blocks = []
    for t, sp in enumerate(dst):
        if t and src[t - 1].dim and sp.dim:
            blocks.append((t, t - 1, horizontal(src[t - 1], sp)))
        if src[t].dim and sp.dim:
            blocks.append((t, t, vertical(src[t], sp, C.diff_at(q - t),
                                          1 if t % 2 == 0 else -1)))
    return sparse_blocks_by_rows([sp.dim for sp in dst],
                                 [sp.dim for sp in src], blocks)


def nodal_context():
    ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                      ideal_strings=["x*y"])
    return MFContext(ring, ring.poly("z"))


def oracle_pairs(profile):
    """A few pairs whose mapping complexes have blocks in every Cech
    degree, both signs and twists of both kinds."""
    if profile == "nodal":
        base = unit_e0_factorization(nodal_context())
        up, sbase = twist_mf(base, 1), shift_mf(base)
        return [(base, up), (sbase, twist_mf(sbase, 1)),
                (base, direct_sum_mf(up, sbase))]
    _ctx, objs = generate_suite(0, profile)
    return [(objs[0], objs[3]), (objs[3], objs[1]), (objs[2], objs[2])]


def as_items(d):
    rows, ncols = d
    return [list(row.items()) for row in rows], ncols


class TestOnePassAssembly:
    @pytest.mark.parametrize("profile", ["p1-small", "p2-small", "nodal"])
    def test_total_diff_matches_nested_assembly(self, profile):
        for E, F in oracle_pairs(profile):
            C = mapping_complex(E, F)
            for q in (-1, 0):
                for B in (4, 5):
                    got = cech_total_diff(C, q, B)
                    assert any(got[0])
                    assert as_items(got) == \
                        as_items(nested_total_diff(C, q, B))

    def test_blocks_are_materialized_and_signed_blocks_cached(self):
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x0", "x1", "x2"])
        src, dst = CechSpace(ring, [1], 0, 4), CechSpace(ring, [1], 1, 4)
        blocks = cech_horizontal(src, dst)
        assert isinstance(blocks, list) and len(blocks) == 6
        again = cech_horizontal(src, dst)
        # a negated block is the cached matrix of -x_i^B, not a copy
        assert all(a[2] is b[2] for a, b in zip(blocks, again))
        f = SheafMap(ring, TwistSum([1]), TwistSum([2]), [[ring.poly("x0")]])
        plus = cech_vertical(src, CechSpace(ring, [2], 0, 4), f)
        minus = cech_vertical(src, CechSpace(ring, [2], 0, 4), f, sign=-1)
        assert isinstance(plus, list) and len(plus) == len(minus) == 3
        assert minus[0][2] is ring.mult_matrix(-ring.poly("x0"), 5)
        assert [{c: -v % DEFAULT_PRIME for c, v in row.items()}
                for row in block_rows(plus[0][2])] == block_rows(minus[0][2])


class TestRankMemo:
    @pytest.mark.parametrize("ideal", [[], ["x0*x1"]])
    def test_memo_matches_assembled_rank(self, ideal):
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x0", "x1", "x2"],
                          ideal_strings=ideal)
        for n in (-4, 0, 2):
            for p in range(3):
                for B in (4, 5):
                    cech_cohomology_at(ring, n, p, B)
        assert set(ring.cech_ranks) == {(n, p, B) for n in (-4, 0, 2)
                                        for p in (0, 1) for B in (4, 5)}
        for (n, p, B), r in ring.cech_ranks.items():
            src = CechSpace(ring, [n], p, B)
            dst = CechSpace(ring, [n], p + 1, B)
            rows, ncols = sparse_blocks(dst.block_dims, src.block_dims,
                                        cech_horizontal(src, dst))
            assert r == sparse_rank(ring.field, rows, ncols)
            if ncols <= 60:
                dense = ExactMatrix.from_sparse_rows(ring.field, rows, ncols)
                assert r == len(rref(dense)[1])

    def test_adjacent_degrees_share_one_elimination(self, monkeypatch):
        calls = []
        real = cohomology.sparse_rank
        monkeypatch.setattr(cohomology, "sparse_rank",
                            lambda *a: calls.append(a) or real(*a))
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x0", "x1", "x2"])
        dims = [cech_cohomology(ring, -4, p) for p in range(3)]
        assert dims == [(0, True), (0, True), (3, True)]
        # two differentials (out of C^0 and C^1) at B* = 4 - 2 = 2
        assert len(calls) == 2

    def test_memo_is_per_ring_instance(self, monkeypatch):
        calls = []
        real = cohomology.sparse_rank
        monkeypatch.setattr(cohomology, "sparse_rank",
                            lambda *a: calls.append(a) or real(*a))
        F = PrimeField(DEFAULT_PRIME)
        r1, r2 = GradedRing(F, ["x0", "x1"]), GradedRing(F, ["x0", "x1"])
        assert r1 == r2 and hash(r1) == hash(r2)
        assert cech_cohomology(r1, -3, 1) == (2, True)
        n1 = len(calls)
        assert n1 and r1.cech_ranks and not r2.cech_ranks
        assert cech_cohomology(r1, -3, 1) == (2, True)
        assert len(calls) == n1
        assert cech_cohomology(r2, -3, 1) == (2, True)
        assert len(calls) == 2 * n1 and r2.cech_ranks == r1.cech_ranks


# -- sections off the saturated path --------------------------------------


def skew_lines(field):
    """Two skew lines in P^3, W = x + z: Gamma(O) is 2-dimensional while
    R_0 is 1-dimensional."""
    ring = GradedRing(field, ["x", "y", "z", "w"],
                      ideal_strings=["x*z", "x*w", "y*z", "y*w"])
    return MFContext(ring, ring.poly("x + z"))


def _horizontal_rows(ring, n, B):
    """The Cech differential of O(n) out of C^0 at truncation B."""
    sp0, sp1 = CechSpace(ring, [n], 0, B), CechSpace(ring, [n], 1, B)
    return sparse_blocks(sp1.block_dims, sp0.block_dims,
                         cech_horizontal(sp0, sp1))


def solve_mult(ring, p, n, B):
    """GlobalSections.mult off the saturated path, computed another way:
    both kernels at truncation B, then one solve per source section."""
    F = ring.field
    d = max(p.total_degree(), 0)

    def kernel(k):
        return (CechSpace(ring, [k], 0, B),
                kernel_basis(F, *_horizontal_rows(ring, k, B)))

    (sp0, K), (tp0, L) = kernel(n), kernel(n + d)
    f = SheafMap(ring, TwistSum([n]), TwistSum([n + d]), [[p]])
    amb, _ = sparse_blocks(tp0.block_dims, sp0.block_dims,
                           cech_vertical(sp0, tp0, f))
    imgs = sparse_transpose(
        sparse_matmul(F, amb, sparse_transpose(K, sp0.dim)), len(K))
    L_rows = sparse_transpose(L, tp0.dim)
    out = [{} for _ in L]
    for j, img in enumerate(imgs):
        x = solve(F, L_rows, len(L), img)
        assert x is not None
        for i, a in x.items():
            out[i][j] = a
    return out


def three_points(field):
    """Three points on P^1, W = x + 3y: the kernel vectors of the Cech
    differential share pivot columns, so coordinates must be read at the
    free columns."""
    ring = GradedRing(field, ["x", "y"], ideal_strings=["x*y*(x - y)"])
    return MFContext(ring, ring.poly("x + 3*y"))


def two_points(field):
    """Two points on P^1, W = x + y: Gamma(O(n)) = k^2, R_n = k^2 only
    from n = 1 on."""
    ring = GradedRing(field, ["x", "y"], ideal_strings=["x*y"])
    return MFContext(ring, ring.poly("x + y"))


def embedded_point(field):
    """The two lines xy = 0 in P^2 with an embedded point: I_2 = 0, but
    xy lies in the saturation, so degree 2 is unsaturated."""
    ring = GradedRing(field, ["x", "y", "z"],
                      ideal_strings=["x^2*y", "x*y^2", "x*y*z"])
    return MFContext(ring, ring.poly("z"))


def point(field):
    """P^0 = Proj k[x]: Gamma(O(n)) = k for every n, R_n = 0 for n < 0."""
    ring = GradedRing(field, ["x"])
    return MFContext(ring, ring.poly("x"))


FIELDS = [PrimeField(DEFAULT_PRIME), PrimeField(7), RationalField()]

# space -> (its unsaturated degrees in [-4, 5], multipliers for mult)
UNSATURATED = {
    skew_lines: ([0], ("x", "y - 2*w", "x^2 + 3*z*w", "5")),
    embedded_point: ([2], ("x", "y - 2*z", "x^2 + 3*y*z", "5")),
    two_points: ([-4, -3, -2, -1, 0], ("x", "x - 3*y", "x^2 + 2*y^2", "5")),
    three_points: ([-4, -3, -2, -1, 0, 1], ("x", "x - 5*y", "y^2", "5")),
    point: ([-4, -3, -2, -1], ("x", "x^2", "3")),
}


class TestProvenTruncation:
    """Off the saturated path, Gamma(O(n)) is the Cech C^0 kernel at
    B* = max(1, 1 - n - N + b), and mult takes both kernels at the source
    degree's B*: the dimension is h^0 by local duality, and mult equals
    the per-section solve at larger truncations."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("space", UNSATURATED,
                             ids=lambda f: f.__name__.replace("_", "-"))
    def test_dim_is_h0(self, space, field):
        ctx = space(field)
        gs = GlobalSections(ctx)
        unsaturated, _ = UNSATURATED[space]
        assert [n for n in range(-4, 6) if not gs.saturated(n)] == \
            unsaturated
        b = cohomology.local_duality(ctx.ring).top_degree
        for n in unsaturated:
            assert cech_truncation(ctx.ring, n) == \
                max(1, 1 - n - ctx.ring.nvars + b)
            assert gs.dim(n) == h_duality(ctx.ring, n, 0) != \
                ctx.ring.hilbert(n)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("space", UNSATURATED,
                             ids=lambda f: f.__name__.replace("_", "-"))
    def test_mult_matches_solve_at_larger_truncations(self, space, field):
        ctx = space(field)
        ring = ctx.ring
        gs = GlobalSections(ctx)
        unsaturated, entries = UNSATURATED[space]
        for s in entries:
            p = ring.poly(s)
            d = p.total_degree()
            # every source or target degree off the saturated path
            for n in sorted({k - e for k in unsaturated for e in (0, d)}):
                got = block_rows(gs.mult(p, n))
                B = cech_truncation(ring, n)
                for larger in (B + 1, B + 2):
                    assert [list(r.items()) for r in got] == \
                        [list(r.items())
                         for r in solve_mult(ring, p, n, larger)], (s, n)


class TestSectionMultiplication:
    @pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME),
                                       RationalField()], ids=["Fp", "Q"])
    @pytest.mark.parametrize("space, entries", [
        (skew_lines, ("x", "y - 2*w", "x^2 + 3*z*w", "x*y + z^2 - w^2", "5")),
        (three_points, ("x", "x - 5*y", "x^2 + 2*y^2", "7"))],
        ids=["skew-lines", "three-points"])
    def test_matches_per_section_solve(self, field, space, entries):
        ctx = space(field)
        ring = ctx.ring
        gs = GlobalSections(ctx)
        gs.saturated = lambda n: False     # every degree through Cech
        for s in entries:
            p = ring.poly(s)
            for n in range(3):
                got = block_rows(gs.mult(p, n))
                assert len(got) == gs.dim(n + p.total_degree())
                assert [list(r.items()) for r in got] == \
                    [list(r.items())
                     for r in solve_mult(ring, p, n, cech_truncation(ring, n))]

    def test_unequal_bounds_reuse_one_kernel_per_bound(self, monkeypatch):
        """Two points on P^1, b = 2: O(-2) takes B* = 3 and O(-1)
        B* = 2.  mult out of O(-2) takes both kernels at B = 3, each
        eliminated once; dim(-1) eliminates once more, at B = 2, and no
        truncation is found by a rank scan."""
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y"],
                          ideal_strings=["x*y"])
        gs = GlobalSections(MFContext(ring, ring.poly("x + y")))
        assert (cech_truncation(ring, -2), cech_truncation(ring, -1)) == \
            (3, 2)
        calls, ranks = [], []
        real, real_rank = cohomology.kernel_basis, cohomology.sparse_rank
        monkeypatch.setattr(cohomology, "kernel_basis",
                            lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(cohomology, "sparse_rank",
                            lambda *a: ranks.append(a) or real_rank(*a))
        p = ring.poly("x - 3*y")
        got = block_rows(gs.mult(p, -2))
        assert [c[1:] for c in calls] == \
            [_horizontal_rows(ring, n, 3) for n in (-2, -1)]
        assert block_rows(gs.mult(p, -2)) == got and len(calls) == 2
        assert got == solve_mult(ring, p, -2, 4)
        assert len(got) == gs.dim(-1) == 2 and gs.dim(-2) == 2
        assert calls[2][1:] == _horizontal_rows(ring, -1, 2)
        assert len(calls) == 3 and ranks == []

    def test_image_outside_sections_raises(self):
        ctx = skew_lines(PrimeField(DEFAULT_PRIME))
        gs = GlobalSections(ctx)
        gs.saturated = lambda n: False
        real = gs._kernel

        def short_target(n, B):
            sp0, K = real(n, B)
            return (sp0, K[:-1]) if n == 1 else (sp0, K)

        gs._kernel = short_target
        with pytest.raises(RuntimeError, match="left the section space"):
            gs.mult(ctx.ring.poly("x + y + z + w"), 0)

    def test_kernel_eliminates_once_at_the_chosen_bound(self, monkeypatch):
        """Two skew lines, b = 4: degree 0 takes B* = 1, one kernel
        elimination, and no rank scan."""
        ctx = skew_lines(PrimeField(DEFAULT_PRIME))
        gs = GlobalSections(ctx)
        assert not gs.saturated(0) and cech_truncation(ctx.ring, 0) == 1
        ranks, kernels = [], []
        real_rank, real_kernel = cohomology.sparse_rank, \
            cohomology.kernel_basis
        monkeypatch.setattr(cohomology, "sparse_rank",
                            lambda *a: ranks.append(a) or real_rank(*a))
        monkeypatch.setattr(cohomology, "kernel_basis",
                            lambda *a: kernels.append(a) or real_kernel(*a))
        assert gs.dim(0) == 2 and gs.dim(0) == 2
        assert ranks == [] and len(kernels) == 1
        assert kernels[0][1:] == _horizontal_rows(ctx.ring, 0, 1)


def per_entry_rows(gs, f):
    """Gamma of f assembled entry by entry from GlobalSections.mult."""
    return sparse_blocks([gs.dim(b) for b in f.dst],
                         [gs.dim(a) for a in f.src],
                         ((r, c, gs.mult(p, f.src[c]))
                          for r, row in enumerate(f.rows)
                          for c, p in row.items()))


class TestSheafmapRows:
    """sheafmap_rows is ring.piece_matrix(f, 0) when every twist of f is
    saturated and the per-entry mult assembly otherwise; both equal the
    per-entry assembly, key order included."""

    @pytest.mark.parametrize("space, src, dst, entries, saturated", [
        (skew_lines, [1, 2], [2, 3],
         [["x + 2*w", "0"], ["x*y + z^2 - w^2", "y - 2*w"]], True),
        (skew_lines, [0, 1], [1, 2],
         [["x", "0"], ["x^2 + 3*z*w", "y - 2*w"]], False),
        (three_points, [2, 3], [3, 5],
         [["x - 5*y", "0"], ["x^3 + 2*y^3", "x^2 + 2*y^2"]], True),
        (three_points, [1, 2], [2, 3],
         [["x", "7"], ["x^2 + 2*y^2", "x - 5*y"]], False)],
        ids=["skew-lines-saturated", "skew-lines-unsaturated",
             "three-points-saturated", "three-points-unsaturated"])
    def test_matches_per_entry_assembly(self, monkeypatch, space, src, dst,
                                        entries, saturated):
        ctx = space(PrimeField(DEFAULT_PRIME))
        ring = ctx.ring
        f = SheafMap(ring, TwistSum(src), TwistSum(dst),
                     [[ring.poly(s) for s in row] for row in entries])
        gs = GlobalSections(ctx)
        assert gs.monomial_path(src + dst) == saturated
        calls = []
        real = ring.piece_matrix
        monkeypatch.setattr(ring, "piece_matrix",
                            lambda *a: calls.append(a) or real(*a))
        got = gs.sheafmap_rows(f)
        assert len(calls) == saturated
        want = per_entry_rows(GlobalSections(ctx), f)
        assert got[1] == want[1] and any(got[0])
        assert [list(r.items()) for r in got[0]] == \
            [list(r.items()) for r in want[0]]
