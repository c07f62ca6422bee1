"""Matrix factorizations: verification, constructions, strict morphisms,
the mapping complex, and homotopies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcat.cohomology import GlobalSections
from mfcat.fields import DEFAULT_PRIME, PrimeField
from mfcat.homcat import stabilize
from mfcat.mf import (MatrixFactorization, MFContext, SheafMap,
                      StrictMorphism, TwistSum, cone, cycle_from_strict,
                      direct_sum_mf, is_nullhomotopic, mapping_complex,
                      shift_mf, solve_homotopy, strict_from_cycle,
                      strictness_violation, twist_mf, verify_mf, zero_mf)
from mfcat.koszul import koszul_truncated, stabilized_mf
from mfcat.linalg import sparse_matmul
from mfcat.poly import Poly
from mfcat.ring import GradedRing, monomials_of_degree
from mfcat.suite import (_grow, generate_suite, rank_one_mf,
                         unit_e0_factorization)


class TestVerify:
    def test_good(self, E_u, E_v, E_unit_p2):
        for E in (E_u, E_v, E_unit_p2):
            assert verify_mf(E)["ok"]

    def test_bad_composite_rejected(self, ctx_a1):
        ring = ctx_a1.ring
        E1, E0 = TwistSum([-1]), TwistSum([0])
        e1 = SheafMap(ring, E1, E0, [[ring.poly("u")]])
        e0 = SheafMap(ring, E0, E1.twist(2), [[ring.poly("u")]])  # u*u != uv
        with pytest.raises(ValueError):
            MatrixFactorization(ctx_a1, e1, e0)

    def test_verify_reports_entry(self, ctx_a1):
        ring = ctx_a1.ring
        E1, E0 = TwistSum([-1]), TwistSum([0])
        e1 = SheafMap(ring, E1, E0, [[ring.poly("u")]])
        e0 = SheafMap(ring, E0, E1.twist(2), [[ring.poly("u")]])
        E = MatrixFactorization(ctx_a1, e1, e0, check=False)
        rep = verify_mf(E)
        assert not rep["ok"] and rep["violations"]

    def test_inhomogeneous_map_rejected(self, ctx_a1):
        ring = ctx_a1.ring
        with pytest.raises(ValueError):
            SheafMap(ring, TwistSum([-1]), TwistSum([0]),
                     [[ring.poly("u + u*v")]])


class TestConstructions:
    def test_twist_and_shift_verify(self, E_u):
        assert verify_mf(twist_mf(E_u, -2))["ok"]
        assert verify_mf(shift_mf(E_u))["ok"]

    def test_shift_twice_is_twist(self, E_u):
        EE = shift_mf(shift_mf(E_u))
        ET = twist_mf(E_u, E_u.ctx.d)
        assert EE.describe() == ET.describe()

    def test_direct_sum(self, E_u, E_v):
        S = direct_sum_mf(E_u, E_v)
        assert verify_mf(S)["ok"]
        assert S.E1.rank == 2 and S.E0.rank == 2

    def test_zero_object(self, ctx_a1):
        Z = zero_mf(ctx_a1)
        assert Z.is_zero_object()

    def test_component_and_diff_periodicity(self, E_u):
        d = E_u.ctx.d
        for r in range(-3, 4):
            assert E_u.component_at(r + 2) == E_u.component_at(r).twist(d)


class TestStrictMorphisms:
    def test_identity_and_compose(self, E_u):
        i = StrictMorphism.identity(E_u)
        assert i.compose(i).describe() == i.describe()

    def test_non_strict_rejected(self, E_u, E_v):
        ring = E_u.ctx.ring
        g1 = SheafMap.scalar(ring, ring.one(), E_u.E1, E_v.E1)
        g0 = SheafMap.zero(ring, E_u.E0, E_v.E0)
        f = StrictMorphism(E_u, E_v, g1, g0, check=False)
        assert strictness_violation(f)
        with pytest.raises(ValueError):
            StrictMorphism(E_u, E_v, g1, g0)

    def test_multiplication_endomorphism(self, E_u):
        # multiplication by u on both components is a strict endomorphism
        ring = E_u.ctx.ring
        u = ring.poly("u")
        f = StrictMorphism(
            E_u, twist_mf(E_u, 1),
            SheafMap.scalar(ring, u, E_u.E1, E_u.E1.twist(1)),
            SheafMap.scalar(ring, u, E_u.E0, E_u.E0.twist(1)))
        assert not f.is_zero()

    def test_cone_verifies(self, E_u, E_v):
        C = cone(StrictMorphism.zero(E_u, E_v))
        assert verify_mf(C)["ok"]
        assert C.E1.rank == E_u.E0.rank + E_v.E1.rank

    def test_cone_of_identity_contractible(self, E_u):
        C = cone(StrictMorphism.identity(E_u))
        assert verify_mf(C)["ok"]
        idC = StrictMorphism.identity(C)
        assert is_nullhomotopic(idC)


def assert_complex(C):
    """d^2 = 0 in the twisted periodic sense: both squares of C
    vanish as SheafMaps."""
    assert C.e0.compose(C.e1).is_zero()
    assert C.e1.twist(C.ctx.d).compose(C.e0).is_zero()


class TestMappingComplex:
    def test_squares_to_w_twist(self, E_u, E_v):
        assert_complex(mapping_complex(E_u, E_v))

    def test_gamma_differential_composes_to_zero(self, E_u, E_v, ctx_a1):
        from mfcat.cohomology import GlobalSections
        gs = GlobalSections(ctx_a1)
        C = mapping_complex(E_u, E_v)
        Dm1, _ = gs.sheafmap_rows(C.diff_at(-1))
        D0, _ = gs.sheafmap_rows(C.diff_at(0))
        assert not any(sparse_matmul(ctx_a1.ring.field, D0, Dm1))

    def test_cycle_strict_roundtrip(self, E_u):
        i = StrictMorphism.identity(E_u)
        coords = cycle_from_strict(i)
        f = strict_from_cycle(E_u, E_u, coords)
        assert f.describe() == i.describe()


class TestMappingComplexGuard:
    """mapping_complex guards d^2 = 0 by the MF laws of its inputs, not by
    composing its differentials: d^2 psi = f^2 psi - psi e^2 = W psi - psi W.
    These tests compose the differentials anyway, so a sign slip in the
    blocks of d^0 or d^-1 shows."""

    @pytest.mark.parametrize("profile", ["p1-small", "p2-small"])
    def test_corpus_pairs_and_stabilized_sources(self, profile):
        ctx, objs = generate_suite(0, profile)
        gs = GlobalSections(ctx)
        for E in objs:
            for F in objs:
                Ep, _eps, _cert = stabilize(E, F, gs=gs)
                assert Ep.E0.rank > E.E0.rank
                for src in (E, Ep):
                    assert_complex(mapping_complex(src, F))

    @pytest.mark.parametrize("shift", [False, True])
    def test_nodal_level_2_pair(self, shift):
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                          ideal_strings=["x*y"])
        U = unit_e0_factorization(MFContext(ring, ring.poly("z")))
        E = shift_mf(U) if shift else U
        Ep, _eps, cert = stabilize(E, E)
        assert cert.j == 2 and Ep.E0.rank == 7
        for src in (E, Ep):
            assert_complex(mapping_complex(src, E))

    @pytest.mark.parametrize("profile",
                             ["a1-affine", "p1-small", "p2-small", "nodal"])
    def test_mapping_complex_is_an_mf_of_zero(self, profile):
        # verify_mf on W = 0 checks d^0 d^-1 = 0 and d^-1(d) d^0 = 0
        if profile == "nodal":
            ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                              ideal_strings=["x*y"])
            ctx = MFContext(ring, ring.poly("z"))
            objs = _grow(random.Random(0), ctx,
                         [unit_e0_factorization(ctx)], 4)
        else:
            ctx, objs = generate_suite(0, profile)
        for E in objs:
            for F in objs:
                C = mapping_complex(E, F)
                assert C.ctx.W.is_zero() and C.ctx.d == ctx.d
                assert verify_mf(C)["ok"]

    @pytest.mark.parametrize("bad_side", ["source", "target"])
    def test_altered_e0_raises(self, E_u, E_v, bad_side):
        entries = [list(row) for row in E_u.e0.entries]
        entries[0][0] = entries[0][0].scale(2)
        e0 = SheafMap(E_u.ring, E_u.e0.src, E_u.e0.dst, entries)
        bad = MatrixFactorization(E_u.ctx, E_u.e1, e0, check=False)
        pair = (bad, E_v) if bad_side == "source" else (E_v, bad)
        with pytest.raises(ValueError, match="not a matrix factorization"):
            mapping_complex(*pair)


def assert_row_layout(m):
    """m.rows holds one dict per target row, with only nonzero entries and
    increasing keys in range(m.src.rank)."""
    assert len(m.rows) == m.dst.rank
    for row in m.rows:
        keys = list(row)
        assert keys == sorted(keys)
        assert all(0 <= c < m.src.rank for c in keys)
        assert not any(p.is_zero() for p in row.values())


def dense_compose(g, f):
    """Reference for g.compose(f): the triple loop over every entry."""
    ring = g.ring
    out = []
    for r in range(g.dst.rank):
        row = []
        for c in range(f.src.rank):
            acc = ring.zero()
            for k in range(g.src.rank):
                acc = acc + g.entries[r][k] * f.entries[k][c]
            row.append(ring.normal_form(acc))
        out.append(row)
    return out


NODAL = GradedRing(PrimeField(7), ["x", "y", "z"], ideal_strings=["x*y"])


@st.composite
def nodal_sheafmaps(draw, src, dst):
    """A SheafMap src -> dst over k[x,y,z]/(xy), mostly zero entries (so
    zero rows and columns occur) with coefficients in F_7."""
    entries = []
    for b in dst:
        row = []
        for a in src:
            mons = monomials_of_degree(3, b - a)
            if not mons or draw(st.integers(0, 2)) == 0:
                row.append(NODAL.zero())
                continue
            coeffs = draw(st.lists(st.integers(0, 6), min_size=len(mons),
                                   max_size=len(mons)))
            row.append(Poly(NODAL.field, 3, dict(zip(mons, coeffs))))
        entries.append(row)
    return SheafMap(NODAL, src, dst, entries)


class TestSparseCompose:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_dense_reference(self, data):
        twists = st.lists(st.integers(-1, 2), min_size=0, max_size=3)
        A, B, C = (TwistSum(data.draw(twists)) for _ in range(3))
        f = data.draw(nodal_sheafmaps(A, B))
        g = data.draw(nodal_sheafmaps(B, C))
        h = g.compose(f)
        assert h.src == A and h.dst == C
        assert h.entries == dense_compose(g, f)
        assert_row_layout(h)
        f2 = data.draw(nodal_sheafmaps(A, B))
        assert (f + f2).entries == [[a + b for a, b in zip(r1, r2)]
                                    for r1, r2 in zip(f.entries, f2.entries)]
        assert_row_layout(f + f2)

    def test_cancelling_products(self):
        # x * y = 0 in the ring, and x*z - x*z cancels before the normal form
        p = NODAL.poly
        T0, T1, T2 = TwistSum([0, 0]), TwistSum([1, 1]), TwistSum([2, 2])
        f = SheafMap(NODAL, T0, T1, [[p("y"), p("z")], [p("0"), p("z")]])
        g = SheafMap(NODAL, T1, T2, [[p("x"), p("-x")], [p("0"), p("0")]])
        h = g.compose(f)
        assert h.is_zero()
        assert h.entries == dense_compose(g, f)


def assert_reduced(m):
    """Every entry of the SheafMap m is its own normal form."""
    for row in m.entries:
        for p in row:
            assert m.ring.normal_form(p) == p, m.ring.to_str(p)


class TestNormalFormInvariant:
    """SheafMap entries are normal forms by construction.  Checked on a
    quotient ring, where normal_form is not the identity: Proj
    k[x,y,z]/(xy) with W = z, and a corpus grown from the unit object the
    way the p2-small profile is."""

    @pytest.fixture(scope="class")
    def nodal(self):
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                          ideal_strings=["x*y"])
        ctx = MFContext(ring, ring.poly("z"))
        corpus = _grow(random.Random(0), ctx, [unit_e0_factorization(ctx)], 4)
        P, aug = koszul_truncated(ring, 1)
        Es, eps = stabilized_mf(P, aug, corpus[0])
        return ring, corpus, Es, eps

    def test_engine_maps_are_reduced(self, nodal):
        ring, corpus, Es, eps = nodal
        objs = corpus + [Es]
        maps = [Es.e1, Es.e0, eps.g1, eps.g0]
        for E in objs:
            maps += [shift_mf(E).e1, shift_mf(E).e0]
            for F in objs:
                C = mapping_complex(E, F)
                cn = cone(StrictMorphism.zero(E, F))
                ds = direct_sum_mf(E, F)
                maps += [C.e1, C.e0, cn.e1, cn.e0, ds.e1, ds.e0]
        # x * (the y entries of the Koszul part) lies in the ideal
        x = SheafMap.scalar(ring, ring.poly("x"), Es.E0, Es.E0.twist(1))
        xe1 = x.compose(Es.e1)
        assert not xe1.is_zero()
        maps += [xe1, Es.e1 + Es.e1, Es.e1 - Es.e1, -Es.e0, Es.e0.scale(3),
                 Es.e0.compose(Es.e1), eps.g0.compose(Es.e1)]
        for m in maps:
            assert_reduced(m)

    def test_compose_reduces_products(self, nodal):
        ring = nodal[0]
        T = TwistSum([0, 1])
        x = SheafMap.scalar(ring, ring.poly("x"), T, T.twist(1))
        y = SheafMap.scalar(ring, ring.poly("y"), T.twist(-1), T)
        xy = x.compose(y)
        assert xy.is_zero() and xy == SheafMap.zero(ring, T.twist(-1),
                                                     T.twist(1))

    def test_checked_construction_reduces_and_checks_degrees(self, nodal):
        ring = nodal[0]
        x, y = ring.poly("x"), ring.poly("y")
        m = SheafMap(ring, TwistSum([0]), TwistSum([2]), [[x * y]])
        assert m.is_zero()
        with pytest.raises(ValueError, match="homogeneous of degree 2"):
            SheafMap(ring, TwistSum([0]), TwistSum([2]), [[x]])

    def test_unchecked_construction_skips_normal_forms(self, nodal,
                                                       monkeypatch):
        ring, _corpus, Es, _eps = nodal
        calls = []
        nf = ring.normal_form
        monkeypatch.setattr(ring, "normal_form",
                            lambda p: calls.append(p) or nf(p))
        maps = [SheafMap.from_rows(ring, Es.E1, Es.E0, Es.e1.rows),
                Es.e1.twist(1), -Es.e1,
                SheafMap.from_blocks(ring, [Es.E1], [Es.E0], [[Es.e1]])]
        assert calls == [] and not any(m.is_zero() for m in maps)
        SheafMap(ring, Es.E1, Es.E0, Es.e1.entries)
        assert len(calls) == Es.E1.rank * Es.E0.rank


def layout_corpus(name):
    """(context, maps): the objects of a corpus, their shifts, the cones
    and direct sums of its pairs, a level-1 stabilized source with its
    augmentation (projective corpora), and both differentials of the
    mapping complex of every pair, the stabilized source included."""
    if name == "nodal":
        ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                          ideal_strings=["x*y"])
        ctx = MFContext(ring, ring.poly("z"))
        objs = _grow(random.Random(0), ctx, [unit_e0_factorization(ctx)], 4)
    else:
        ctx, objs = generate_suite(0, {"a1": "a1-affine", "p1": "p1-small",
                                       "p2": "p2-small"}[name])
    mfs = objs + [shift_mf(E) for E in objs]
    mfs += [M for E in objs for F in objs
            for M in (cone(StrictMorphism.zero(E, F)), direct_sum_mf(E, F))]
    maps = [m for M in mfs for m in (M.e1, M.e0)]
    sources = list(objs)
    if not ctx.is_affine:
        Es, eps = stabilized_mf(*koszul_truncated(ctx.ring, 1), objs[-1])
        maps += [Es.e1, Es.e0, eps.g1, eps.g0]
        sources.append(Es)
    for E in sources:
        for F in objs:
            C = mapping_complex(E, F)
            maps += [C.e1, C.e0]
    return ctx, maps


def dense_assembly(f, mult, dim, nonzero):
    """Reference for the assembled matrix of f: walk f.entries in (r, c)
    order, skip entries with nonzero(p) false, and place mult(p, src
    twist) at the block offsets, block dimensions dim(twist)."""
    row_offs = [sum(dim(b) for b in f.dst[:r]) for r in range(f.dst.rank)]
    col_offs = [sum(dim(a) for a in f.src[:c]) for c in range(f.src.rank)]
    rows = [{} for _ in range(sum(dim(b) for b in f.dst))]
    for r, row in enumerate(f.entries):
        for c, p in enumerate(row):
            if not nonzero(p):
                continue
            for i, mrow in enumerate(mult(p, f.src[c])):
                for k, v in mrow.items():
                    rows[row_offs[r] + i][col_offs[c] + k] = v
    return rows, sum(dim(a) for a in f.src)


def ordered(assembled):
    """(rows, ncols) with each row as its list of items, key order kept."""
    rows, ncols = assembled
    return [list(row.items()) for row in rows], ncols


class TestRowLayout:
    """SheafMap stores only nonzero entries, as one {column: entry} dict
    per target row with increasing keys; Γ and graded-piece matrices
    assembled from the rows equal a walk over the dense entries."""

    @pytest.fixture(scope="class", params=["a1", "p1", "p2", "nodal"])
    def corpus(self, request):
        return layout_corpus(request.param)

    def test_rows_hold_nonzeros_in_column_order(self, corpus):
        for m in corpus[1]:
            assert_row_layout(m)

    def test_gamma_rows_match_dense_walk(self, corpus):
        ctx, maps = corpus
        gs = GlobalSections(ctx)
        for m in maps:
            assert ordered(gs.sheafmap_rows(m)) == ordered(dense_assembly(
                m, gs.mult, gs.dim, lambda p: not p.is_zero()))

    def test_piece_matrix_matches_dense_walk(self, corpus):
        ctx, maps = corpus
        # over the hypersurface ring an entry can reduce to zero
        rings = [ctx.ring] if ctx.W.is_zero() else [ctx.ring, ctx.y_ring()]
        for ring in rings:
            for t in (0, 2):
                for m in maps:
                    want = dense_assembly(
                        m, lambda p, a: ring.mult_matrix(p, t + a),
                        lambda a: ring.hilbert(t + a),
                        lambda p: not ring.normal_form(p).is_zero())
                    assert ordered(ring.piece_matrix(m, t)) == ordered(want)

    def test_from_rows_checks_shape(self, E_u):
        ring, e1 = E_u.ring, E_u.e1
        SheafMap.from_rows(ring, e1.src, e1.dst, e1.rows)
        with pytest.raises(ValueError, match="rows"):
            SheafMap.from_rows(ring, e1.src, e1.dst, e1.rows + [{}])
        with pytest.raises(ValueError, match="column"):
            SheafMap.from_rows(ring, e1.src, e1.dst,
                               [{e1.src.rank: ring.one()}])


def assert_homotopy(f):
    """solve_homotopy(f) returns (s, t) with g1 = s o e1 + f0(-d) o t(-d)
    and g0 = f1 o s + t o e0."""
    h = solve_homotopy(f)
    assert h is not None and is_nullhomotopic(f)
    s, t = h
    E, F, d = f.src, f.dst, f.ctx.d
    assert s.compose(E.e1) + F.e0.twist(-d).compose(t.twist(-d)) == f.g1
    assert F.e1.compose(s) + t.compose(E.e0) == f.g0


class TestHomotopy:
    def test_zero_morphism_nullhomotopic(self, E_u, E_v):
        assert_homotopy(StrictMorphism.zero(E_u, E_v))

    def test_identity_not_nullhomotopic(self, E_u):
        assert solve_homotopy(StrictMorphism.identity(E_u)) is None

    def test_cone_identity_homotopy(self, E_u):
        C = cone(StrictMorphism.identity(E_u))
        assert_homotopy(StrictMorphism.identity(C))

    def test_unit_e0_identity_nullhomotopic(self, E_unit_p1):
        assert_homotopy(StrictMorphism.identity(E_unit_p1))

    def test_nodal_stabilized_identity_homotopy(self):
        ring = GradedRing(PrimeField(32003), ["x", "y", "z"],
                          ideal_strings=["x*y"])
        ctx = MFContext(ring, ring.poly("z"))
        P, aug = koszul_truncated(ring, 1)
        E, _eps = stabilized_mf(P, aug, unit_e0_factorization(ctx))
        assert E.E0.rank > 1
        assert_homotopy(StrictMorphism.identity(E))


class TestContext:
    def test_affine_mode_allows_degree_two(self, ctx_a1):
        assert ctx_a1.is_affine and ctx_a1.d == 2

    def test_projective_requires_degree_one(self, ring_p1):
        with pytest.raises(ValueError):
            MFContext(ring_p1, ring_p1.poly("x0^2"))

    def test_nonregular_w_flagged(self):
        F = PrimeField(32003)
        ring = GradedRing(F, ["x", "y", "z"], ideal_strings=["x*y"])
        # x is a zero divisor on R/(xy); regular sections keep the flag set
        assert not MFContext(ring, ring.poly("x")).w_regular
        assert MFContext(ring, ring.poly("x + y")).w_regular

    def test_rank_one_builder(self, ctx_p2):
        E = rank_one_mf(ctx_p2, "x2", "1", 0)
        assert verify_mf(E)["ok"]
        assert list(E.E1) == [-1] and list(E.E0) == [0]
