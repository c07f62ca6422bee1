"""Determinism and well-formedness of the generated object corpus."""

import pytest

from mfcat.mf import verify_mf
from mfcat.serialize import mf_hash
from mfcat.suite import MAX_RANK, PROFILES, TWIST_RANGE, generate_suite


def suite_hashes(seed, profile):
    """The hash of each object of the seeded corpus, in order."""
    return [mf_hash(E) for E in generate_suite(seed, profile)[1]]


@pytest.mark.parametrize("profile", PROFILES)
def test_objects_verify(profile):
    _ctx, objs = generate_suite(0, profile)
    assert objs
    for E in objs:
        assert verify_mf(E)["ok"]


@pytest.mark.parametrize("profile", PROFILES)
def test_deterministic(profile):
    assert suite_hashes(5, profile) == suite_hashes(5, profile)


def test_seed_changes_random_profiles():
    # the random profiles draw from the rng; different seeds diverge
    assert suite_hashes(0, "p1-small") != suite_hashes(1, "p1-small")


def test_bounds_respected():
    for profile in ("p1-small", "p2-small"):
        _ctx, objs = generate_suite(0, profile)
        lo, hi = TWIST_RANGE
        for E in objs:
            assert E.E1.rank <= MAX_RANK and E.E0.rank <= MAX_RANK
            for t in tuple(E.E1) + tuple(E.E0):
                assert lo <= t <= hi


def test_unknown_profile():
    with pytest.raises(ValueError):
        generate_suite(0, "nope")


def test_a1_profile_contents():
    ctx, objs = generate_suite(0, "a1-affine")
    assert ctx.is_affine and ctx.d == 2
    assert len(objs) == 6
