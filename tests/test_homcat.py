"""Hom-sets in the naive and stabilized homotopy categories, contractibility
predicates, and the local-triviality report."""

import time

import pytest

from mfcat import cohomology, homcat, linalg, mf
from mfcat.cohomology import GlobalSections, cech_hypercohomology
from mfcat.fields import DEFAULT_PRIME, PrimeField, RationalField
from mfcat.homcat import (StabilizedClass, class_coords, compose_h, hom_H, hom_naive, is_contractible,
                          locally_contractible, prop28_report, stabilize,
                          weak_equivalence)
from mfcat.koszul import koszul_truncated, stabilized_mf
from mfcat.linalg import kernel_basis, rref, sparse_matmul, sparse_transpose
from mfcat.mf import (MatrixFactorization, MFContext, SheafMap,
                      StrictMorphism, cone, cycle_from_strict, direct_sum_mf,
                      mapping_complex, shift_mf, twist_mf, zero_mf)
from mfcat.ring import GradedRing
from mfcat.suite import generate_suite, rank_one_mf, unit_e0_factorization


class TestHomNaive:
    def test_endomorphisms_of_u(self, E_u):
        hs = hom_naive(E_u, E_u)
        assert hs.dimension == 1
        assert len(hs.basis) == 1
        cls = hs.basis[0]
        assert cls.src is E_u and cls.dst is E_u

    def test_u_to_v_vanishes(self, E_u, E_v):
        assert hom_naive(E_u, E_v).dimension == 0

    def test_additive_over_direct_sum(self, E_u, E_v):
        S = direct_sum_mf(E_u, E_v)
        lhs = hom_naive(S, E_u).dimension
        rhs = hom_naive(E_u, E_u).dimension + hom_naive(E_v, E_u).dimension
        assert lhs == rhs
        lhs2 = hom_naive(E_u, S).dimension
        rhs2 = hom_naive(E_u, E_u).dimension + hom_naive(E_u, E_v).dimension
        assert lhs2 == rhs2

    def test_shift_twice_invariance(self, E_u, E_v):
        a = hom_naive(E_u, E_v).dimension
        b = hom_naive(shift_mf(shift_mf(E_u)),
                      shift_mf(shift_mf(E_v))).dimension
        assert a == b

    def test_basis_members_are_strict(self, E_u):
        for cls in hom_naive(E_u, E_u).basis:
            f = cls.rep
            # constructing through StrictMorphism re-checks strictness
            StrictMorphism(f.src, f.dst, f.g1, f.g0)


def dense_hom_dim(E, F, gs):
    """Reference count: the cycle basis from sparse_rref, checked to contain
    the boundaries, modulo the rank of the boundaries by the dense rref."""
    field = gs.ring.field
    C = mapping_complex(E, F)
    d0, n = gs.sheafmap_rows(C.e0)
    dm1, _ = gs.sheafmap_rows(C.e1)
    Z = kernel_basis(field, d0, n)
    assert not any(sparse_matmul(field, d0, sparse_transpose(Z, n)))
    assert not any(sparse_matmul(field, d0, dm1))
    return len(Z) - len(rref(gs.sheafmap_matrix(C.e1))[1])


def nodal_light_pairs():
    """Rank-1 and rank-2 pairs of unit-grown objects on Proj k[x,y,z]/(xy),
    W = z, whose stable Homs stabilize at Koszul level 1."""
    ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                      ideal_strings=["x*y"])
    ctx = MFContext(ring, ring.poly("z"))
    base = unit_e0_factorization(ctx)
    up = twist_mf(base, 1)
    sbase = shift_mf(base)
    return ctx, [(base, up), (base, sbase), (sbase, twist_mf(sbase, 1)),
                 (base, direct_sum_mf(up, sbase))]


class TestSparseHomCount:
    @pytest.mark.parametrize("profile", ["p1-small", "a1-affine"])
    def test_matches_dense_count_on_corpus(self, profile):
        ctx, objs = generate_suite(0, profile)
        gs = GlobalSections(ctx)
        dims = set()
        for E in objs:
            for F in objs:
                dim = hom_naive(E, F, gs, want_basis=False).dimension
                assert dim == dense_hom_dim(E, F, gs)
                dims.add(dim)
        if profile == "a1-affine":
            assert {1, 2} <= dims

    def test_matches_dense_count_over_q(self):
        ring = GradedRing(RationalField(), ["u", "v"])
        ctx = MFContext(ring, ring.poly("u*v"), mode="affine-graded")
        E, G = rank_one_mf(ctx, "u", "v", 0), rank_one_mf(ctx, "v", "u", 0)
        objs = [E, G, direct_sum_mf(E, G), twist_mf(E, 1)]
        gs = GlobalSections(ctx)
        dims = [hom_naive(A, B, gs).dimension for A in objs for B in objs]
        assert dims == [dense_hom_dim(A, B, gs) for A in objs for B in objs]
        assert max(dims) == 2

    def test_matches_dense_count_on_nodal_pairs(self):
        ctx, pairs = nodal_light_pairs()
        gs = GlobalSections(ctx)
        for E, F in pairs:
            Ep, _eps, cert = stabilize(E, F, gs=gs)
            assert cert.j == 1
            for src in (E, Ep):
                assert hom_naive(src, F, gs, want_basis=False).dimension \
                    == dense_hom_dim(src, F, gs)

    def test_boundaries_outside_cycles_raise(self, E_u, monkeypatch):
        F = twist_mf(E_u, 1)     # Gamma(C^-1) is nonzero in degree 0
        gs = GlobalSections(E_u.ctx)
        C = mapping_complex(E_u, F)
        entries = [list(row) for row in C.e0.entries]
        r, c = next((r, c) for r, row in enumerate(entries)
                    for c, p in enumerate(row) if not p.is_zero())
        entries[r][c] = entries[r][c].scale(2)
        d0 = SheafMap(C.ctx.ring, C.e0.src, C.e0.dst, entries)
        bad = MatrixFactorization(C.ctx, C.e1, d0, check=False)
        assert any(sparse_matmul(gs.ring.field, gs.sheafmap_rows(bad.e0)[0],
                                 gs.sheafmap_rows(bad.e1)[0]))
        monkeypatch.setattr(homcat, "mapping_complex", lambda E, F: bad)
        with pytest.raises(ValueError, match="boundary space is not contained"):
            hom_naive(E_u, F, gs)


class TestLawsCheckedOnce:
    def test_verify_calls_per_hom(self, monkeypatch):
        # E = objs[0] was checked when built; F = objs[3] was verified
        # by the suite without being marked
        ctx, objs = generate_suite(0, "p1-small")
        E, F = objs[0], objs[3]
        gs = GlobalSections(ctx)
        calls = []
        real = mf.verify_mf
        monkeypatch.setattr(mf, "verify_mf",
                            lambda X: calls.append(X) or real(X))
        counts = []
        for hom in (hom_H, hom_H, hom_naive):
            del calls[:]
            hom(E, F, gs)
            counts.append(len(calls))
        # the first hom_H checks Tot(P(j) tensor E) and F; the second
        # reuses the Tot that GlobalSections cached, and hom_naive checks
        # nothing
        assert counts == [2, 0, 0]


class TestLazyBasisData:
    def test_zero_hom_runs_no_dense_elimination(self, E_unit_p1, monkeypatch):
        E = E_unit_p1
        gs = GlobalSections(E.ctx)
        # every basis elimination goes through sparse_rref, looked up in
        # linalg by kernel_basis, solve and CosetReducer
        calls = []
        real = linalg.sparse_rref
        monkeypatch.setattr(linalg, "sparse_rref",
                            lambda *a: calls.append(a) or real(*a))
        hs = hom_naive(E, E, gs, want_basis=False)
        assert hs.dimension == 0 and calls == []
        assert hom_naive(E, E, gs).basis == [] and calls == []
        C = mapping_complex(E, E)
        assert hs.cycle_space == kernel_basis(gs.ring.field,
                                              *gs.sheafmap_rows(C.e0))
        assert len(hs.cycle_space) >= 1
        assert len(calls) == 2       # the cycle space, then the reference

    def test_class_coords_on_hom_h(self, E_u, E_unit_p1):
        hs = hom_H(E_u, E_u)
        cls = hs.basis[0]
        assert any(class_coords(cls, hom_space=hs))
        assert class_coords(cls, hom_space=hs) == class_coords(cls)
        # the identity of a contractible object, as a class out of its
        # stabilization, is a nonzero cycle that reduces to zero
        E = E_unit_p1
        gs = GlobalSections(E.ctx)
        hs = hom_H(E, E, gs, want_basis=False)
        assert hs.dimension == 0
        _Ep, eps, cert = stabilize(E, E, gs=gs)
        ident = StabilizedClass(E, E, (cert.j,), eps)
        assert any(cycle_from_strict(eps))
        assert not any(class_coords(ident, gs, hom_space=hs))


class TestStabilization:
    def test_affine_fast_path(self, E_u):
        hs = hom_H(E_u, E_u)
        assert hs.model == "hyper"
        assert hs.tower == ()
        assert hs.dimension == 1

    def test_projective_certificate(self, E_unit_p1):
        Ep, eps, cert = stabilize(E_unit_p1, E_unit_p1)
        assert cert.check()
        assert eps.src is Ep and eps.dst is E_unit_p1
        hs = hom_H(E_unit_p1, E_unit_p1)
        assert hs.certificate is not None and hs.tower == (hs.certificate.j,)

    def test_contractible_target_kills_hom(self, ctx_p1, E_unit_p1):
        E = twist_mf(E_unit_p1, -1)
        hs = hom_H(E, E_unit_p1)
        assert hs.dimension == 0

    @pytest.mark.parametrize("profile", ["p1-small", "p2-small"])
    @pytest.mark.parametrize("M", [0, 1])
    def test_certificate_rows_are_mapping_complex_terms(self, profile, M):
        ctx, objs = generate_suite(0, profile)
        gs = GlobalSections(ctx)
        m = ctx.ring.nvars - 1
        for E in objs:
            for F in objs:
                Ep, _eps, cert = stabilize(E, F, M, gs=gs)
                C = mapping_complex(Ep, F)
                assert cert.rows == {q: sorted(C.component_at(q).twists)
                                     for q in (M - m - 1, M - m)}

    def test_naive_cycles_vs_stable_gap(self, E_unit_p1):
        # the unit-e0 object carries nonzero strict endomorphisms (its
        # identity, among others) yet is stably zero
        naive = hom_naive(E_unit_p1, E_unit_p1)
        stable = hom_H(E_unit_p1, E_unit_p1)
        assert len(naive.cycle_space) >= 1
        assert stable.dimension == 0


class TestNodalStabilization:
    """Koszul stabilization on the pure powers over Proj k[x,y,z]/(xy),
    W = z, where the vanishing threshold comes from a Cech scan."""

    @pytest.mark.parametrize("shift", [False, True])
    def test_heavy_endomorphisms_at_level_2(self, shift):
        ctx, _pairs = nodal_light_pairs()
        U = unit_e0_factorization(ctx)
        E = shift_mf(U) if shift else U
        hs = hom_H(E, E)
        assert hs.certificate.j == 2 and hs.certificate.k == 3
        assert hs.stabilized_src.E0.rank == 7
        dim, stable = cech_hypercohomology(mapping_complex(E, E), 0)
        assert stable and hs.dimension == dim == 0

    def test_level_3_pair_matches_cech(self):
        ctx, _pairs = nodal_light_pairs()
        U = unit_e0_factorization(ctx)
        E = twist_mf(U, 1)
        start = time.process_time()
        hs = hom_H(E, U)
        elapsed = time.process_time() - start
        cert = hs.certificate
        assert (cert.j, cert.k) == (3, 3)
        assert hs.stabilized_src.E0.rank == hs.stabilized_src.E1.rank == 7
        dim, stable = cech_hypercohomology(mapping_complex(E, U), 0)
        assert stable and hs.dimension == dim
        assert elapsed < 1.0

    def test_shared_sections_scan_threshold_once(self, monkeypatch):
        ctx, pairs = nodal_light_pairs()
        calls = []
        real = cohomology.vanishing_threshold
        monkeypatch.setattr(cohomology, "vanishing_threshold",
                            lambda c: calls.append(c) or real(c))
        gs = GlobalSections(ctx)
        dims = [hom_H(E, F, gs).dimension for E, F in pairs[:3]]
        assert calls == [ctx]
        assert dims == [0, 0, 0]

    def test_shared_sections_give_same_certificate(self):
        ctx, pairs = nodal_light_pairs()
        gs = GlobalSections(ctx)
        for E, F in pairs:
            shared = stabilize(E, F, gs=gs)[2].describe()
            assert shared == stabilize(E, F)[2].describe()
            assert shared["threshold_tag"] == "scanned"

    def test_explicit_threshold_bypasses_cache(self, monkeypatch):
        ctx, pairs = nodal_light_pairs()
        gs = GlobalSections(ctx)
        n0, tag = gs.threshold
        monkeypatch.setattr(cohomology, "vanishing_threshold",
                            lambda c: pytest.fail("threshold rescanned"))
        E, F = pairs[0]
        cert = stabilize(E, F, threshold=(n0 + 1, "override"),
                         gs=GlobalSections(ctx))[2]
        assert (cert.threshold, cert.threshold_tag) == (n0 + 1, "override")
        assert stabilize(E, F, gs=gs)[2].threshold == n0


class TestComposition:
    def test_unit_laws(self, E_u):
        hs = hom_H(E_u, E_u)
        ident = StabilizedClass.identity(E_u)
        for a in hs.basis:
            left = compose_h(ident, a)
            right = compose_h(a, ident)
            assert class_coords(left) == class_coords(a)
            assert class_coords(right) == class_coords(a)

    @pytest.mark.parametrize("j", [1, 2])
    def test_stabilized_class_after_identity(self, E_unit_p2, j):
        # Tot(P(j) tensor id_E) is the identity, so composing the class of
        # eps: Tot(P(j) tensor E) -> E with the identity of E gives eps back
        E = E_unit_p2
        P, aug = koszul_truncated(E.ctx.ring, j)
        _Ep, eps = stabilized_mf(P, aug, E)
        out = compose_h(StabilizedClass(E, E, (j,), eps),
                        StabilizedClass.identity(E))
        assert out.tower == (j,)
        assert (out.rep.g1, out.rep.g0) == (eps.g1, eps.g0)
        assert out.rep.src.describe() == eps.src.describe()

    def test_associativity(self, E_u):
        S = direct_sum_mf(E_u, E_u)
        hs = hom_H(S, S)
        assert hs.dimension == 4
        cls = hs.basis
        a, b, c = cls[0], cls[1], cls[2]
        lhs = compose_h(compose_h(c, b), a)
        rhs = compose_h(c, compose_h(b, a))
        assert class_coords(lhs) == class_coords(rhs)


class TestContractibility:
    def test_zero_object(self, ctx_a1):
        assert is_contractible(zero_mf(ctx_a1))

    def test_unit_e0_contractible(self, E_unit_p1):
        assert is_contractible(E_unit_p1)

    def test_u_not_contractible(self, E_u):
        assert not is_contractible(E_u)

    def test_cone_of_identity(self, E_u):
        assert is_contractible(cone(StrictMorphism.identity(E_u)))


class TestLocallyContractible:
    def test_affine_u_false(self, E_u):
        assert locally_contractible(E_u) == "false"

    def test_unit_e0_true(self, E_unit_p1):
        assert locally_contractible(E_unit_p1) == "true"

    def test_zero_object_true(self, ctx_p1):
        assert locally_contractible(zero_mf(ctx_p1)) == "true"

    def test_cone_of_zero_on_contractibles(self, E_unit_p1):
        C = cone(StrictMorphism.zero(E_unit_p1, E_unit_p1))
        assert locally_contractible(C) == "true"

    def test_weak_equivalence_identity(self, E_unit_p1):
        f = StrictMorphism.identity(E_unit_p1)
        assert weak_equivalence(f) == "true"


class TestProp28Report:
    def test_global_implies_local(self, E_unit_p1, E_u):
        rep = prop28_report(E_unit_p1)
        assert rep["condition1_contractible"] is True
        assert rep["condition4_locally_free_coker"] == "true"
        rep2 = prop28_report(E_u)
        assert rep2["condition1_contractible"] is False
        assert rep2["condition4_locally_free_coker"] == "false"

    def test_suite_never_violates(self):
        _ctx, objs = generate_suite(3, "a1-affine")
        for E in objs:
            rep = prop28_report(E)
            assert rep["consistent"]
            if rep["condition1_contractible"]:
                assert rep["condition4_locally_free_coker"] == "true"


class TestOracleAgreement:
    def test_hom_h_matches_hypercohomology_p1(self):
        from mfcat.cohomology import cech_hypercohomology
        from mfcat.mf import mapping_complex
        ctx, objs = generate_suite(0, "p1-small")
        for E in objs[:3]:
            for F in objs[:3]:
                hs = hom_H(E, F)
                dim, stable = cech_hypercohomology(mapping_complex(E, F), 0)
                assert stable
                assert hs.dimension == dim
