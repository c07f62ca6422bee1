"""Acceptance criteria for the engine, end to end.

Every numeric comparison below is exact integer equality; the stated time
budgets are asserted with process CPU-time checks (robust to host load).
"""

import random
import time

import pytest

from mfcat.cohomology import (CechSetup, cech_cohomology,
                              cech_hypercohomology, GlobalSections,
                              h_projective_space)
from mfcat.fields import PrimeField
from mfcat.homcat import hom_H, hom_naive, locally_contractible, prop28_report
from mfcat.hypersurface import (coker_module, ext_gamma_dims,
                                is_relatively_perfect, mf_from_module,
                                stable_hom_dim)
from mfcat.koszul import koszul_truncated, stabilized_mf
from mfcat.linalg import kernel_basis, sparse_matmul, sparse_transpose
from mfcat.mf import (MFContext, SheafMap, TwistSum, cone, cycle_from_strict,
                      mapping_complex, strict_from_cycle, strictness_violation,
                      verify_mf)
from mfcat.modules import ModulePresentation, syzygy_presentation
from mfcat.ring import GradedRing
from mfcat.suite import (a1_u_factorization, a1_v_factorization,
                         affine_a1_context, generate_suite,
                         projective_context, unit_e0_factorization)


def test_a1_line_bundle_cohomology_matches_closed_form():
    """A1: truncated Cech values on P^1 and P^2 equal the closed form for
    twists in [-6, 6], stabilizing within truncation 8, in under 10s."""
    t0 = time.process_time()
    setup = CechSetup(b_max=8)
    field = PrimeField(32003)
    for m in (1, 2):
        ring = GradedRing(field, ["x%d" % i for i in range(m + 1)])
        for n in range(-6, 7):
            for p in range(0, m + 1):
                dim, stable = cech_cohomology(ring, n, p, setup)
                assert stable, (m, n, p)
                assert dim == h_projective_space(m, n, p), (m, n, p)
    assert time.process_time() - t0 < 10.0


def test_a2_mapping_complex_cycles_are_strict_morphisms():
    """A2: for all 8x8 object pairs of the p1-small corpus the mapping
    complex squares to zero and every degree-0 cycle of its section complex
    converts to a verified strict morphism (and back), in under 30s."""
    t0 = time.process_time()
    ctx, objs = generate_suite(0, "p1-small")
    gs = GlobalSections(ctx)
    for E in objs:
        for F in objs:
            C = mapping_complex(E, F)
            assert C.diff_at(0).compose(C.diff_at(-1)).is_zero()
            assert C.diff_at(-1).twist(ctx.d).compose(C.diff_at(0)).is_zero()
            if not gs.monomial_path(list(C.E0.twists)):
                continue
            d0, n = gs.sheafmap_rows(C.e0)
            Z = kernel_basis(ctx.ring.field, d0, n)
            assert not any(sparse_matmul(ctx.ring.field, d0,
                                         sparse_transpose(Z, n)))
            for v in Z:
                f = strict_from_cycle(E, F, v)
                assert strictness_violation(f) is None
                assert cycle_from_strict(f) == v
    assert time.process_time() - t0 < 30.0


@pytest.mark.parametrize("profile", ["p1-small", "p2-small"])
def test_a3_hom_h_agrees_with_hypercohomology(profile):
    """A3: dim hom_H(E, F) equals the stable degree-0 hypercohomology of
    the mapping complex for every pair in both projective corpora."""
    ctx, objs = generate_suite(0, profile)
    gs = GlobalSections(ctx)
    for E in objs:
        for F in objs:
            hs = hom_H(E, F, gs=gs)
            dim, stable = cech_hypercohomology(mapping_complex(E, F), 0)
            assert stable, (E.describe(), F.describe())
            assert hs.dimension == dim


@pytest.mark.parametrize("profile", ["p1-small", "p2-small"])
def test_a4_stable_homs_vanish_but_naive_cycles_do_not(profile):
    """A4: every pairwise hom_H on the unit-e0-generated corpora is zero,
    while at least one object carries a nonzero naive strict-endomorphism
    cycle space before quotienting."""
    ctx, objs = generate_suite(0, profile)
    gs = GlobalSections(ctx)
    some_nonzero_cycles = False
    for E in objs:
        naive = hom_naive(E, E, gs=gs, want_basis=False)
        if naive.cycle_space:
            some_nonzero_cycles = True
        for F in objs:
            assert hom_H(E, F, gs=gs).dimension == 0
    assert some_nonzero_cycles


def test_a5_stable_hom_dim_matches_hom_h_on_a1():
    """A5: module-side stable Hom equals hom_H for all a1-affine pairs,
    with the (E_u, E_u) -> 1 and (E_u, E_v) -> 0 anchors exact."""
    ctx, objs = generate_suite(0, "a1-affine")
    eu = a1_u_factorization(ctx)
    ev = a1_v_factorization(ctx)
    dim, stable, _ = stable_hom_dim(eu, coker_module(eu))
    assert stable and dim == 1
    dim, stable, _ = stable_hom_dim(eu, coker_module(ev))
    assert stable and dim == 0
    for E in objs:
        for F in objs:
            dim, stable, _ = stable_hom_dim(E, coker_module(F))
            assert stable
            assert dim == hom_H(E, F).dimension


def test_a6_ext_table_periodicity():
    """A6: Ext^{q+2}(E, N) == Ext^q(E, N(d)) across the a1-affine corpus."""
    ctx, objs = generate_suite(0, "a1-affine")
    d = ctx.d
    for E in objs:
        for F in objs:
            N = coker_module(F)
            hi = ext_gamma_dims(E, N, range(2, 7))
            lo = ext_gamma_dims(E, N.twist(d), range(0, 5))
            for q in range(0, 5):
                assert hi[q + 2] == lo[q]


def test_a7_contractibility_implication_on_200_objects():
    """A7: the (globally contractible) => (locally contractible) implication
    holds on 200 seeded corpus objects and on the two named fixtures."""
    seen = 0
    for seed in range(25):
        _ctx, objs = generate_suite(seed, "p1-small")
        for E in objs:
            rep = prop28_report(E)   # raises on violation
            assert rep["consistent"]
            if rep["condition1_contractible"]:
                assert rep["condition4_locally_free_coker"] == "true"
            seen += 1
    assert seen == 200
    eu = a1_u_factorization()
    rep = prop28_report(eu)
    assert rep["condition1_contractible"] is False
    assert rep["condition4_locally_free_coker"] == "false"
    unit = unit_e0_factorization(projective_context(1, w_index=0))
    rep = prop28_report(unit)
    assert rep["condition1_contractible"] is True
    assert rep["condition4_locally_free_coker"] == "true"


@pytest.mark.parametrize("profile,levels",
                         [("p1-small", (1, 2)), ("p2-small", (1,))])
def test_a8_augmentation_cones_locally_contractible(profile, levels):
    """A8: the cone of the Koszul-stabilization augmentation is certified
    locally contractible (not merely inconclusive) for every corpus object."""
    ctx, objs = generate_suite(0, profile)
    for j in levels:
        P, aug = koszul_truncated(ctx.ring, j)
        for E in objs:
            _Etot, eps = stabilized_mf(P, aug, E)
            assert locally_contractible(cone(eps)) == "true"


def _sheared_diagonal(ctx, rng, size):
    """diag(W * id) conjugated by random constant row/column operations
    between summands of equal twist."""
    ring = ctx.ring
    e0 = sorted(rng.choice([-1, 0]) for _ in range(size))
    e1 = [a - ctx.d for a in e0]
    rows = [[ctx.W if r == c else ring.zero() for c in range(size)]
            for r in range(size)]
    for _ in range(6):
        kind = rng.choice(("row", "col"))
        i, j = rng.randrange(size), rng.randrange(size)
        if i == j:
            continue
        c = ring.const(ring.field.of(rng.randrange(1, 5)))
        if kind == "row" and e0[i] == e0[j]:
            for k in range(size):
                rows[i][k] = rows[i][k] + c * rows[j][k]
        elif kind == "col" and e1[i] == e1[j]:
            for k in range(size):
                rows[k][i] = rows[k][i] + c * rows[k][j]
    return SheafMap(ring, TwistSum(e1), TwistSum(e0), rows)


def test_a9_factorization_from_module_presentation():
    """A9: 20 seeded projective-dimension-one presentations with
    W-annihilated cokernel reconstruct to verified factorizations whose
    cokernel returns the input presentation up to unit-column elimination;
    the 1x1 case alpha = x2 completes with beta = 1 exactly."""
    ctx = projective_context(2)
    ring = ctx.ring
    ry = ctx.y_ring()
    for seed in range(20):
        rng = random.Random(seed)
        alpha = _sheared_diagonal(ctx, rng, rng.choice([1, 2, 3]))
        E = mf_from_module(ctx, alpha)
        assert verify_mf(E)["ok"]
        back = coker_module(E)
        want = ModulePresentation(
            ry, list(alpha.dst.twists),
            [[alpha.entries[r][c] for r in range(alpha.dst.rank)]
             for c in range(alpha.src.rank)]).minimalize()
        assert back.is_same_presentation(want)
    alpha = SheafMap(ring, TwistSum([-1]), TwistSum([0]),
                     [[ring.poly("x2")]])
    E = mf_from_module(ctx, alpha)
    assert E.e0.to_strs() == [["1"]]


def test_a10_relative_perfection():
    """A10: corpus cokernels over P^2 are perfect within 4 syzygy steps;
    over the nodal ring k[x,y,z]/(xy) the module R/(x, y) is certified
    non-perfect with the 2-periodic syzygy pair {(y, 0), (0, x)}."""
    ctx, objs = generate_suite(0, "p2-small")
    for E in objs:
        rep = is_relatively_perfect(ctx, coker_module(E), max_steps=4)
        assert rep["perfect"] is True
        assert rep["steps"] <= 4
    field = PrimeField(32003)
    ring = GradedRing(field, ["x", "y", "z"], ideal_strings=["x*y"])
    nctx = MFContext(ring, ring.poly("z"))
    M = ModulePresentation(ring, [0], [[ring.poly("x")], [ring.poly("y")]])
    rep = is_relatively_perfect(nctx, M)
    assert rep["perfect"] is False and rep["status"] == "periodic"
    S = syzygy_presentation(M).minimalize().drop_zero_columns()
    cols = sorted(tuple(ring.to_str(p) for p in col) for col in S.columns)
    assert cols == [("0", "x"), ("y", "0")]
