"""Deterministic regression corpus: small matrix factorizations built from
base factorizations by twists, shifts, direct sums and cones, seeded by a
pseudo-random generator so every run reproduces the same list."""

import random

from .fields import DEFAULT_PRIME, PrimeField
from .mf import (MFContext, MatrixFactorization, SheafMap, StrictMorphism,
                 TwistSum, cone, direct_sum_mf, shift_mf, twist_mf)
from .ring import GradedRing

PROFILES = ("a1-affine", "p1-small", "p2-small")

MAX_RANK = 3
TWIST_RANGE = (-4, 0)


def affine_a1_context(field=None):
    field = field or PrimeField(DEFAULT_PRIME)
    ring = GradedRing(field, ["u", "v"])
    return MFContext(ring, ring.poly("u*v"), mode="affine-graded")


def projective_context(m, w_index=None, field=None):
    """P^m with W = the last coordinate (by default)."""
    field = field or PrimeField(DEFAULT_PRIME)
    names = ["x%d" % i for i in range(m + 1)]
    ring = GradedRing(field, names)
    w = names[w_index if w_index is not None else m]
    return MFContext(ring, ring.poly(w))


def rank_one_mf(ctx, e1_str, e0_str, twists):
    """O(a-deg(e1)) --e1--> O(a) --e0--> O(a-deg(e1)+d)."""
    ring = ctx.ring
    p1 = ring.poly(e1_str)
    a = twists
    E1 = TwistSum([a - p1.total_degree()])
    E0 = TwistSum([a])
    e1 = SheafMap(ring, E1, E0, [[p1]])
    e0 = SheafMap(ring, E0, E1.twist(ctx.d), [[ring.poly(e0_str)]])
    return MatrixFactorization(ctx, e1, e0)


def a1_u_factorization(ctx=None):
    """The (u, v) factorization of W = uv."""
    ctx = ctx or affine_a1_context()
    return rank_one_mf(ctx, "u", "v", -1)


def a1_v_factorization(ctx=None):
    ctx = ctx or affine_a1_context()
    return rank_one_mf(ctx, "v", "u", -1)


def unit_e0_factorization(ctx):
    """O(-1) --W--> O --1--> O: globally contractible base object."""
    return rank_one_mf(ctx, ctx.ring.to_str(ctx.W), "1", 0)


def _grow(rng, ctx, bases, count):
    """Extend the base list with twists, shifts, sums and cones of zero
    morphisms, keeping ranks at most MAX_RANK and twists in TWIST_RANGE."""
    lo, hi = TWIST_RANGE
    out = list(bases)

    def twists_ok(E):
        tw = tuple(E.E1) + tuple(E.E0)
        return all(lo <= t <= hi for t in tw)

    while len(out) < count:
        op = rng.choice(("twist", "shift", "sum", "cone0"))
        if op == "twist":
            E = rng.choice(out)
            n = rng.choice([-2, -1, 1])
            cand = twist_mf(E, n)
        elif op == "shift":
            cand = shift_mf(rng.choice(out))
        elif op == "sum":
            cand = direct_sum_mf(rng.choice(out), rng.choice(out))
        else:
            a, b = rng.choice(out), rng.choice(out)
            cand = cone(StrictMorphism.zero(a, b))
        if cand.E1.rank > MAX_RANK or cand.E0.rank > MAX_RANK:
            continue
        if not twists_ok(cand):
            continue
        if any(cand.e1 == e.e1 and cand.e0 == e.e0 for e in out):
            continue
        out.append(cand)
    return out


def generate_suite(seed, profile):
    """Deterministic list of verified MFs for the given profile.

    Returns (context, [MatrixFactorization])."""
    if profile == "":
        return None, []
    if profile not in PROFILES:
        raise ValueError("unknown profile %r (expected one of %s)"
                         % (profile, ", ".join(PROFILES)))
    rng = random.Random(seed)
    if profile == "a1-affine":
        ctx = affine_a1_context()
        eu = a1_u_factorization(ctx)
        ev = a1_v_factorization(ctx)
        objs = [eu, shift_mf(eu), ev, twist_mf(eu, -1),
                direct_sum_mf(eu, ev), cone(StrictMorphism.zero(eu, ev))]
        return ctx, objs
    if profile == "p1-small":
        ctx = projective_context(1, w_index=0)
        base = unit_e0_factorization(ctx)
        return ctx, _grow(rng, ctx, [base], 8)
    # p2-small
    ctx = projective_context(2)
    base = unit_e0_factorization(ctx)
    return ctx, _grow(rng, ctx, [base], 4)
