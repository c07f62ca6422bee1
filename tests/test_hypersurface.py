"""Module-side operations over the hypersurface ring: cokernels, Ext
tables, stable Hom, factorization reconstruction, relative perfection."""

import pytest

from mfcat.fields import DEFAULT_PRIME, PrimeField, RationalField
from mfcat.hypersurface import (coker_module, ext_gamma_dims, is_relatively_perfect,
                                mf_from_module, push_to_ambient,
                                stable_hom_dim)
from mfcat.linalg import CosetReducer, ExactMatrix, rref, sparse_transpose
from mfcat.mf import (MFContext, SheafMap, TwistSum, direct_sum_mf, shift_mf,
                      twist_mf, verify_mf)
from mfcat.modules import ModulePresentation
from mfcat.ring import GradedRing
from mfcat.suite import rank_one_mf, unit_e0_factorization

from reference import periodic_resolution, piece_dim


class TestCokerModule:
    def test_u_factorization_coker(self, E_u, ctx_a1):
        N = coker_module(E_u)
        # coker(u: R(-2) -> R(-1)) over R_Y = k[u,v]/(uv)
        assert N.ring == ctx_a1.y_ring()
        assert N.rel.dst == TwistSum([-1])
        # dims of (R_Y/(u))(-1): degree t piece is spanned by v^(t-1)
        assert [piece_dim(N, t) for t in range(0, 4)] == [0, 1, 1, 1]

    def test_periodic_resolution_exact(self, E_u):
        rep = periodic_resolution(E_u)
        assert rep["exact"]
        assert not rep["failures"]

    def test_contractible_coker_is_free(self, E_unit_p1, ctx_p1):
        # e1 = W, so coker(e1) is the free rank-one module over R_Y
        N = coker_module(E_unit_p1)
        ry = ctx_p1.y_ring()
        assert N.rel.src.rank == 0
        assert [piece_dim(N, t) for t in range(0, 4)] == \
            [ry.hilbert(t) for t in range(0, 4)]

    def test_vanishing_column_keeps_its_twist(self, E_unit_p1):
        # e1 = W vanishes in R_Y: the raw cokernel keeps the column, with
        # the twist of E1, and prints it as "0"
        N = coker_module(E_unit_p1, minimal=False)
        assert N.rel.src == E_unit_p1.E1 and N.rel.dst == E_unit_p1.E0
        assert N.rel.to_strs() == [["0"]]
        assert piece_dim(N, 2) == piece_dim(coker_module(E_unit_p1), 2)


class TestExtTable:
    def test_ext_of_u_against_its_coker(self, E_u, ctx_a1):
        N = coker_module(E_u)
        table = ext_gamma_dims(E_u, N, range(0, 5))
        assert table[0] == 1

    def test_ext_twist_periodicity(self, E_u, ctx_a1):
        # Ext^{q+2}(E, N) = Ext^q(E, N(d)) on the 2-periodic Hom complex
        N = coker_module(E_u)
        d = ctx_a1.d
        t1 = ext_gamma_dims(E_u, N, range(0, 3))
        t2 = ext_gamma_dims(E_u, N.twist(d), range(0, 3))
        for q in range(0, 1):
            assert t1[q + 2] == t2[q]

    def test_empty_range_rejected(self, E_u):
        with pytest.raises(ValueError, match="empty range"):
            ext_gamma_dims(E_u, coker_module(E_u), range(3, 2))

    def test_wrong_ring_rejected(self, E_u, ctx_a1):
        M = ModulePresentation.from_columns(ctx_a1.ring, [0], [])
        with pytest.raises(ValueError):
            ext_gamma_dims(E_u, M, [0])


def _quotient_piece(N, t):
    """N_t in quotient coordinates: a CosetReducer modulo the image of the
    relations in the generators' degree-t piece, and the free (non-pivot)
    coordinates, which index a basis of N_t."""
    ring = N.ring
    red = CosetReducer(ring.field, *ring.piece_matrix(N.rel, t))
    pivots = set(red.pivots)
    return red, [i for i in range(red.ambient) if i not in pivots]


def _reference_ext(E, N, qs):
    """dim Ext^q(i^*E, N)_0 from explicit quotient bases:
    Hom(i^*E^{-q}, N)_0 is the sum of the pieces N_{-a} over the twists a
    of E^{-q}, the differential multiplies by the entries of E's
    differential and reduces each image column into quotient coordinates,
    and ranks come from the dense reference rref."""
    ring, gens = N.ring, N.rel.dst

    def rank_and_dim(q):
        d = E.diff_at(-q - 1)            # E^{-q-1} -> E^{-q}
        src = [_quotient_piece(N, -a) for a in d.dst]
        dst = [_quotient_piece(N, -a) for a in d.src]
        col_offs = [0]
        for _red, free in src:
            col_offs.append(col_offs[-1] + len(free))
        rows = []
        for r, (red_r, free_r) in enumerate(dst):
            pos = {i: k for k, i in enumerate(free_r)}
            block_rows = [{} for _ in free_r]
            for c, (_red_c, free_c) in enumerate(src):
                p = ring.normal_form(d.rows[c].get(r, ring.zero()))
                if p.is_zero() or not free_r or not free_c:
                    continue
                m, n = ring.piece_matrix(SheafMap.scalar(
                    ring, p, gens, gens.twist(d.dst[c] - d.src[r])),
                    -d.dst[c])
                cols = sparse_transpose(m, n)
                for j, i in enumerate(free_c):
                    for k, v in red_r.reduce(cols[i]).items():
                        block_rows[pos[k]][col_offs[c] + j] = v
            rows.extend(block_rows)
        dense = ExactMatrix.from_sparse_rows(ring.field, rows, col_offs[-1])
        return len(rref(dense)[1]), col_offs[-1]

    data = {q: rank_and_dim(q) for q in range(min(qs) - 1, max(qs) + 1)}
    return {q: data[q][1] - data[q][0] - data[q - 1][0] for q in qs}


def _ext_grid(field):
    """(E, N) pairs: affine k[x,y] with W = x^2 y against cokernels, the
    residue field, R_Y and R_Y/(x); the nodal curve Proj k[x,y,z]/(xy)
    with W = z and W = x + y (deg W = 1, so every object is contractible)
    against R_Y/(x, y) and cokernels."""
    ring = GradedRing(field, ["x", "y"])
    ctx = MFContext(ring, ring.poly("x^2*y"), mode="affine-graded")
    objs = [rank_one_mf(ctx, a, b, 0) for a, b in
            [("x", "x*y"), ("x^2", "y"), ("y", "x^2")]]
    objs.append(direct_sum_mf(objs[0], twist_mf(shift_mf(objs[1]), -1)))
    ry = ctx.y_ring()
    mods = [coker_module(F) for F in objs[:3]]
    mods += [coker_module(objs[3], minimal=False),
             ModulePresentation.from_columns(
                 ry, [0], [[ry.poly("x")], [ry.poly("y")]]),
             ModulePresentation.from_columns(ry, [0], []),
             ModulePresentation.from_columns(ry, [0], [[ry.poly("x")]])]
    pairs = [(E, N.twist(s)) for E in objs for N in mods for s in (-1, 0, 1)]
    for w in ("z", "x + y"):
        ring = GradedRing(field, ["x", "y", "z"], ideal_strings=["x*y"])
        ctx = MFContext(ring, ring.poly(w))
        ry = ctx.y_ring()
        base = unit_e0_factorization(ctx)
        objs = [base, direct_sum_mf(twist_mf(base, 1), shift_mf(base))]
        mods = [coker_module(objs[1], minimal=False),
                ModulePresentation.from_columns(
                    ry, [0], [[ry.poly("x")], [ry.poly("y")]])]
        pairs += [(E, N.twist(s)) for E in objs for N in mods
                  for s in (-1, 0)]
    return pairs


class TestExtAgainstQuotientBases:
    @pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME),
                                       PrimeField(7), RationalField()],
                             ids=repr)
    def test_matches_reference(self, field):
        qs = range(-1, 3)
        nonzero = 0
        for E, N in _ext_grid(field):
            table = ext_gamma_dims(E, N, qs)
            assert table == _reference_ext(E, N, qs)
            nonzero += sum(1 for v in table.values() if v)
        assert nonzero >= 20      # the grid sees nonzero Ext

    def test_residue_field_counts_generators(self):
        # for a minimal E the Hom complex into k = R_Y/(x, y) has zero
        # differentials: Ext^q(i^*E, k)_0 counts the twist-0 generators
        # of E^{-q}
        ring = GradedRing(RationalField(), ["x", "y"])
        ctx = MFContext(ring, ring.poly("x^2*y"), mode="affine-graded")
        ry = ctx.y_ring()
        k = ModulePresentation.from_columns(
            ry, [0], [[ry.poly("x")], [ry.poly("y")]])
        E = rank_one_mf(ctx, "x", "x*y", 0)       # E0 = O(0), E1 = O(-1)
        assert ext_gamma_dims(E, k, range(0, 4)) == {0: 1, 1: 0, 2: 0, 3: 0}
        assert ext_gamma_dims(E, k.twist(-1), [1]) == {1: 1}


class TestStableHom:
    def test_self_hom_of_u(self, E_u, E_v):
        Nu = coker_module(E_u)
        dim, stable, _q = stable_hom_dim(E_u, Nu)
        assert stable and dim == 1
        Nv = coker_module(E_v)
        dim2, stable2, _q2 = stable_hom_dim(E_u, Nv)
        assert stable2 and dim2 == 0

    def test_matches_hom_h(self, E_u, E_v):
        from mfcat.homcat import hom_H
        for A in (E_u, E_v):
            for B in (E_u, E_v):
                dim, stable, _ = stable_hom_dim(A, coker_module(B))
                assert stable
                assert dim == hom_H(A, B).dimension


class TestFromModule:
    def test_recovers_u_factorization(self, ctx_a1):
        ring = ctx_a1.ring
        alpha = SheafMap(ring, TwistSum([-2]), TwistSum([-1]),
                         [[ring.poly("u")]])
        E = mf_from_module(ctx_a1, alpha)
        assert verify_mf(E)["ok"]
        assert ring.to_str(E.e0.entries[0][0]) == "v"

    def test_projective_unit_case(self, ctx_p2):
        ring = ctx_p2.ring
        alpha = SheafMap(ring, TwistSum([-1]), TwistSum([0]),
                         [[ring.poly("x2")]])
        E = mf_from_module(ctx_p2, alpha)
        assert verify_mf(E)["ok"]
        assert ring.to_str(E.e0.entries[0][0]) == "1"

    def test_roundtrip_through_coker(self, ctx_a1):
        # from-module then coker returns the input presentation (viewed
        # over the hypersurface ring)
        ring = ctx_a1.ring
        alpha = SheafMap(ring, TwistSum([-2]), TwistSum([-1]),
                         [[ring.poly("u")]])
        E = mf_from_module(ctx_a1, alpha)
        N = coker_module(E)
        ry = ctx_a1.y_ring()
        want = ModulePresentation.from_columns(ry, [-1], [[ry.poly("u")]])
        assert N.ring == want.ring and N.rel == want.minimalize().rel

    def test_non_injective_rejected(self, ctx_a1):
        ring = ctx_a1.ring
        alpha = SheafMap(ring, TwistSum([-1]), TwistSum([0]),
                         [[ring.zero()]])
        with pytest.raises(ValueError):
            mf_from_module(ctx_a1, alpha)

    def test_kernel_named_by_least_degree(self, ctx_a1):
        # 0: O(1) -> O has all of O(1) as kernel, generated by 1 in
        # internal degree -1
        ring = ctx_a1.ring
        alpha = SheafMap(ring, TwistSum([1]), TwistSum([0]), [[ring.zero()]])
        with pytest.raises(ValueError, match="internal degree -1:"):
            mf_from_module(ctx_a1, alpha)

    def test_nodal_curve(self):
        # on xy = 0 with W = z, z is injective and x kills y, which sits in
        # internal degree 2 of O(-1)
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                          ideal_strings=["x*y"])
        ctx = MFContext(ring, ring.poly("z"))
        alpha = SheafMap(ring, TwistSum([-1]), TwistSum([0]),
                         [[ring.poly("z")]])
        E = mf_from_module(ctx, alpha)
        assert verify_mf(E)["ok"] and E.e0.to_strs() == [["1"]]
        alpha = SheafMap(ring, TwistSum([-1]), TwistSum([0]),
                         [[ring.poly("x")]])
        with pytest.raises(ValueError, match="internal degree 2:"):
            mf_from_module(ctx, alpha)

    def test_non_annihilated_rejected(self, ctx_a1):
        # coker(u^2) is not killed by W = uv, so no factorization exists
        ring = ctx_a1.ring
        alpha = SheafMap(ring, TwistSum([-2]), TwistSum([0]),
                         [[ring.poly("u^2")]])
        with pytest.raises(ValueError):
            mf_from_module(ctx_a1, alpha)


class TestRelativePerfection:
    def test_polynomial_ambient_always_finite(self, ctx_a1, E_u):
        N = coker_module(E_u)
        rep = is_relatively_perfect(ctx_a1, N)
        assert rep["perfect"] is True and rep["status"] == "finite"

    def test_nodal_curve_periodic(self):
        F = PrimeField(32003)
        ring = GradedRing(F, ["x", "y", "z"], ideal_strings=["x*y"])
        ctx = MFContext(ring, ring.poly("z"))
        # R/(x, y) has an infinite 2-periodic resolution over k[x,y,z]/(xy)
        M = ModulePresentation.from_columns(
            ring, [0], [[ring.poly("x")], [ring.poly("y")]])
        rep = is_relatively_perfect(ctx, M)
        assert rep["perfect"] is False and rep["status"] == "periodic"

    @pytest.mark.parametrize("steps", [0, -3])
    def test_max_steps_below_one_raises(self, ctx_a1, E_u, steps):
        with pytest.raises(ValueError, match="max_steps"):
            is_relatively_perfect(ctx_a1, coker_module(E_u), max_steps=steps)

    def test_push_to_ambient_adds_w(self, ctx_a1):
        ry = ctx_a1.y_ring()
        M = ModulePresentation.from_columns(ry, [0], [[ry.poly("u")]])
        P = push_to_ambient(ctx_a1, M)
        assert P.ring == ctx_a1.ring
        # u and uv generate (u): the W-column is absorbed
        assert P.rel.to_strs() == [["u"]] and P.rel.src == TwistSum([-1])

    def test_push_to_ambient_keeps_w_column(self, ctx_a1):
        # coker(u^2) over R_Y: u^2 does not generate uv, so the W column
        # stays
        ry = ctx_a1.y_ring()
        M = ModulePresentation.from_columns(ry, [0], [[ry.poly("u^2")]])
        P = push_to_ambient(ctx_a1, M)
        assert P.rel.to_strs() == [["u^2", "u*v"]]
        assert P.rel.src == TwistSum([-2, -2])
