"""Hom-sets in the naive and stabilized homotopy categories, contractibility
predicates, and the local-triviality report."""

import random
import time

import pytest

from mfcat import cohomology, homcat, linalg, mf
from mfcat.cohomology import GlobalSections, cech_hypercohomology
from mfcat.fields import DEFAULT_PRIME, PrimeField, RationalField
from mfcat.homcat import (StabilizedClass, class_coords, compose_h, hom_H, hom_naive, is_contractible,
                          locally_contractible, prop28_report, stabilize)
from mfcat.koszul import koszul_truncated, stabilized_mf
from mfcat.linalg import kernel_basis, rref, sparse_matmul, sparse_transpose
from mfcat.mf import (MatrixFactorization, MFContext, SheafMap,
                      StrictMorphism, cone, cycle_from_strict, direct_sum_mf,
                      mapping_complex, shift_mf, twist_mf)
from mfcat.ring import GradedRing
from mfcat.suite import (_grow, generate_suite, rank_one_mf,
                         unit_e0_factorization)

from reference import zero_mf


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
                dim = hom_naive(E, F, gs).dimension
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
                assert hom_naive(src, F, gs).dimension \
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


class TestStabilizationOnRead:
    """hom_H uses the stabilized source and builds no augmentation; P(j)
    is built once per GlobalSections; stabilize builds epsilon on read."""

    def test_hom_builds_no_augmentation(self, monkeypatch):
        ctx, objs = generate_suite(0, "p1-small")
        E, F = objs[0], objs[3]
        gs = GlobalSections(ctx)
        calls = []
        real = mf.strictness_violation
        monkeypatch.setattr(mf, "strictness_violation",
                            lambda f: calls.append(f) or real(f))
        hom_H(E, F, gs).dimension
        assert calls == []

    def test_koszul_built_once_per_level(self, monkeypatch):
        # the light pairs in four rounds on one GlobalSections (level 1),
        # then the pair U(1) -> U, which needs level 2
        ctx, pairs = nodal_light_pairs()
        gs = GlobalSections(ctx)
        calls = []
        real = homcat.koszul_truncated
        monkeypatch.setattr(homcat, "koszul_truncated",
                            lambda ring, j: calls.append(j) or real(ring, j))
        base, up = pairs[0]
        towers = [hom_H(E, F, gs).tower for E, F in pairs * 4 + [(up, base)]]
        assert {j for (j,) in towers} == {1, 2}
        assert calls == [1, 2]

    def test_augmentation_built_on_read(self):
        ctx, objs = generate_suite(0, "p1-small")
        E, F = objs[0], objs[3]
        gs = GlobalSections(ctx)
        hs = hom_H(E, F, gs)
        Ep, eps, cert = stabilize(E, F, gs=gs)
        assert Ep is hs.stabilized_src
        assert eps.src is Ep and eps.dst is E
        assert cert.describe() == hs.certificate.describe()
        assert not mf.strictness_violation(eps)
        assert stabilize(E, F, gs=gs)[1] is eps


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
        hs = hom_naive(E, E, gs)
        assert hs.dimension == 0 and calls == []
        assert hom_naive(E, E, gs).basis == [] and calls == []
        C = mapping_complex(E, E)
        assert hs.cycle_space == kernel_basis(gs.ring.field,
                                              *gs.sheafmap_rows(C.e0))
        assert len(hs.cycle_space) >= 1
        assert len(calls) == 2       # the cycle space, then the reference

    def test_dimension_runs_no_basis_elimination(self, monkeypatch):
        ctx, objs = generate_suite(0, "a1-affine")
        gs = GlobalSections(ctx)
        E, F = next((E, F) for E in objs for F in objs
                    if hom_naive(E, F, gs).dimension >= 1)
        gs = GlobalSections(ctx)
        calls = []
        real = linalg.sparse_rref
        monkeypatch.setattr(linalg, "sparse_rref",
                            lambda *a: calls.append(a) or real(*a))
        hs = hom_H(E, F, gs)
        assert hs.dimension >= 1 and calls == []
        basis = hs.basis
        assert calls and len(basis) == hs.dimension
        ref = hom_naive(E, F, gs).basis
        assert [(c.src, c.dst, c.tower) for c in basis] == [(E, F, ())] * len(ref)
        assert [(c.rep.g1.rows, c.rep.g0.rows) for c in basis] \
            == [(c.rep.g1.rows, c.rep.g0.rows) for c in ref]

    @pytest.mark.parametrize("affine", [True, False])
    def test_hom_h_calls_hom_naive_once(self, affine, E_u, E_unit_p1,
                                        monkeypatch):
        E = E_u if affine else E_unit_p1
        calls = []
        real = homcat.hom_naive
        monkeypatch.setattr(homcat, "hom_naive",
                            lambda *a: calls.append(a) or real(*a))
        hs = hom_H(E, E)
        hs.basis
        assert len(calls) == 1
        src, dst, _gs = calls[0]
        assert dst is E and src is hs.stabilized_src
        assert (src is E) == affine

    def test_class_coords_on_hom_h(self, E_u, E_unit_p1):
        hs = hom_H(E_u, E_u)
        cls = hs.basis[0]
        assert any(hs.coords(cls))
        assert hs.coords(cls) == class_coords(cls)
        # the identity of a contractible object, as a class out of its
        # stabilization, is a nonzero cycle that reduces to zero
        E = E_unit_p1
        gs = GlobalSections(E.ctx)
        hs = hom_H(E, E, gs)
        assert hs.dimension == 0
        _Ep, eps, cert = stabilize(E, E, gs=gs)
        ident = StabilizedClass(E, E, (cert.j,), eps)
        assert any(cycle_from_strict(eps))
        assert not any(hs.coords(ident))


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
    """Koszul stabilization over Proj k[x,y,z]/(xy), W = z, on the powers
    of the k = 2 covering forms z and x + y, where the vanishing threshold
    comes from local duality.  The test names give the levels that the
    pure powers of all three variables needed."""

    @pytest.mark.parametrize("shift", [False, True])
    def test_heavy_endomorphisms_at_level_2(self, shift):
        ctx, _pairs = nodal_light_pairs()
        U = unit_e0_factorization(ctx)
        E = shift_mf(U) if shift else U
        hs = hom_H(E, E)
        assert hs.certificate.j == 1 and hs.certificate.k == 2
        assert hs.stabilized_src.E0.rank == 3
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
        assert (cert.j, cert.k) == (2, 2)
        assert hs.stabilized_src.E0.rank == hs.stabilized_src.E1.rank == 3
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
            assert shared["threshold_tag"] == "duality"


# name -> (variables, ideal, twist step, rank-one base (e1, e0) with
# e0 e1 = 0): twisted periodic complexes (W = 0), whose Homs are nonzero
TWISTED = {
    "nodal": (["x", "y", "z"], ["x*y"], 2, ("x", "y")),
    "skew-lines": (["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"], 2,
                   ("x + y", "z + w")),
    "double-line": (["x", "y", "z"], ["x^2"], 2, ("x", "x")),
    "three-lines": (["x", "y", "z"], ["x*y*(x - y)"], 3, ("x", "y*(x - y)")),
}


def twisted_corpus(name, field, count):
    """The W = 0 context of TWISTED[name] and `count` objects grown (seed
    0) from its base by twists, shifts, sums and cones."""
    variables, ideal, step, (a, b) = TWISTED[name]
    ring = GradedRing(field, variables, ideal_strings=ideal)
    ctx = MFContext(ring, ring.zero(), twist_step=step)
    return ctx, _grow(random.Random(0), ctx, [rank_one_mf(ctx, a, b, 0)],
                      count)


class TestTwistedPeriodicCorpora:
    """hom_H on two covering forms equals Cech hypercohomology of the
    mapping complex out of E itself, on corpora with nonzero Homs."""

    @pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME),
                                       RationalField()], ids=["Fp", "Q"])
    @pytest.mark.parametrize("name", TWISTED)
    def test_hom_h_equals_cech(self, name, field):
        ctx, objs = twisted_corpus(name, field, 3)
        gs = GlobalSections(ctx)
        dims = []
        for E in objs:
            for F in objs:
                hs = hom_H(E, F, gs)
                assert hs.certificate.k == 2
                dim, stable = cech_hypercohomology(mapping_complex(E, F), 0)
                assert stable and hs.dimension == dim
                dims.append(dim)
        assert min(dims) > 0

    def test_compose_h_laws_on_nonzero_classes(self):
        ctx, objs = twisted_corpus("nodal", PrimeField(DEFAULT_PRIME), 4)
        gs = GlobalSections(ctx)
        homs = {(i, k): hom_H(E, F, gs) for i, E in enumerate(objs)
                for k, F in enumerate(objs)}
        units = 0
        for (i, k), hs in homs.items():
            for a in hs.basis:
                coords = class_coords(a, gs)
                assert any(coords)
                for out in (compose_h(StabilizedClass.identity(objs[k]), a),
                            compose_h(a, StabilizedClass.identity(objs[i]))):
                    assert class_coords(out, gs) == coords
                    units += 1
        assert units >= 100
        for i, k, n in ((0, 1, 2), (1, 0, 1), (2, 3, 0)):
            a, b, c = (homs[pair].basis[0] for pair in ((i, k), (k, n), (n, i)))
            lhs = compose_h(compose_h(c, b), a)
            rhs = compose_h(c, compose_h(b, a))
            assert lhs.tower == rhs.tower
            assert class_coords(lhs, gs) == class_coords(rhs, gs)


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
        # a strict morphism is a weak equivalence iff its cone is locally
        # contractible
        f = StrictMorphism.identity(E_unit_p1)
        assert locally_contractible(cone(f)) == "true"


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


def undecided_copy(E):
    """E as a new object, whose contractibility is not yet decided."""
    return MatrixFactorization(E.ctx, E.e1, E.e0, check=False)


def p1_small_object(connected):
    """The first p1-small object of seed 0 that is (or is not) one block."""
    _ctx, objs = generate_suite(0, "p1-small")
    return next(E for E in objs
                if (homcat._connected_components(E) is None) == connected)


@pytest.fixture()
def solves(monkeypatch):
    """The arguments of every solve_homotopy call made through homcat."""
    calls = []
    real = homcat.solve_homotopy
    monkeypatch.setattr(homcat, "solve_homotopy",
                        lambda f: calls.append(f) or real(f))
    return calls


class TestContractibleMemo:
    """Contractibility is decided once per object and kept on it."""

    @pytest.mark.parametrize("connected", [True, False],
                             ids=["connected", "split"])
    def test_prop28_solves_once(self, solves, connected):
        E = p1_small_object(connected)
        assert E.contractible is None
        want = {"condition1_contractible": True,
                "condition4_locally_free_coker": "true", "consistent": True}
        assert prop28_report(E) == want
        assert len(solves) == 1 and E.contractible is True
        assert prop28_report(E) == want and is_contractible(E)
        assert len(solves) == 1

    def test_copies_start_undecided(self, solves, E_u):
        for E in (p1_small_object(True), undecided_copy(E_u)):
            answer = is_contractible(E)
            for C in (twist_mf(E, 1), twist_mf(E, -2), shift_mf(E),
                      undecided_copy(E)):
                assert C.contractible is None
                n = len(solves)
                assert is_contractible(C) is answer
                assert len(solves) == n + 1

    @pytest.mark.parametrize("profile", ["a1-affine", "p1-small", "p2-small"])
    def test_answers_unchanged(self, profile):
        """On every suite corpus, the kept answer is the identity's homotopy
        solved afresh, and prop28's local answer is that of an undecided
        copy, which splits into components and decides each."""
        for seed in range(5):
            _ctx, objs = generate_suite(seed, profile)
            for E in objs:
                want1 = (E.is_zero_object() or mf.solve_homotopy(
                    StrictMorphism.identity(E)) is not None)
                want4 = locally_contractible(undecided_copy(E))
                assert prop28_report(E) == {
                    "condition1_contractible": want1,
                    "condition4_locally_free_coker": want4,
                    "consistent": True}
                assert E.contractible is want1
                assert locally_contractible(E) == want4


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
