"""Generate ``refs.json``, cross-validating every reference as it is made.

    python3 perfbench/refgen.py

Cross-checks (each raises on disagreement):
- a1-affine: ``hom_H`` against the module-side ``stable_hom_dim`` on all
  ordered pairs, with the anchors Hom(E_u, E_u) = 1 and Hom(E_u, E_v) = 0;
- line bundles: ``cech_cohomology`` against ``h_projective_space`` on the
  whole cech-oracle grid;
- ``hom_H`` against ``cech_hypercohomology`` of the mapping complex on
  shared pairs: p1-small and p2-small pairs of several seeds and one
  singular-hom pair on the nodal curve;
- cli-oneshot: two fresh passes per seed must give identical report hashes.

The a1-affine corpus and the line-bundle answers do not depend on the seed,
and every stable Hom on the unit-grown projective and nodal objects is 0, so
only the CLI report hashes are stored per seed (seeds 0 .. CLI_SEEDS-1).
"""

import json
import os
import random
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mfcat import cohomology, homcat, hypersurface, mf, serialize, suite  # noqa: E402
from mfcat.cohomology import GlobalSections  # noqa: E402
from mfcat.fields import DEFAULT_PRIME, PrimeField  # noqa: E402
from mfcat.ring import GradedRing  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(HERE, "refs.json")
CLI_SEEDS = 60
HOM_CECH_SEEDS = (0, 1, 2)


def a1_references():
    ctx, objs = suite.generate_suite(0, "a1-affine")
    eu, ev = suite.a1_u_factorization(ctx), suite.a1_v_factorization(ctx)
    if (homcat.hom_H(eu, eu).dimension, homcat.hom_H(eu, ev).dimension) != (1, 0):
        raise AssertionError("a1 anchors Hom(E_u, E_u) = 1, Hom(E_u, E_v) = 0 fail")
    refs = {"hom": {}, "coker": {}, "stable": {}, "ext": {}, "prop28": {}}
    for i, E in enumerate(objs):
        for k, F in enumerate(objs):
            key = "%d,%d" % (i, k)
            hom = homcat.hom_H(E, F).dimension
            N = hypersurface.coker_module(F)
            dim, stable, _q = hypersurface.stable_hom_dim(E, N)
            if not stable or dim != hom:
                raise AssertionError("a1 %s: hom_H %d, stable_hom_dim %r"
                                     % (key, hom, (dim, stable)))
            refs["hom"][key] = hom
            refs["stable"][key] = [dim, stable]
            refs["coker"][key] = serialize.module_to_json(
                N, include_ring=False)
            table = hypersurface.ext_gamma_dims(E, N, range(0, 4))
            refs["ext"][key] = {str(q): v for q, v in table.items()}
        refs["prop28"][str(i)] = homcat.prop28_report(E)
    if not any(refs["hom"].values()):
        raise AssertionError("a1 references hold no nonzero Hom")
    return refs


def line_bundle_references():
    """dim H^p(P^m, O(n)) on the cech-oracle grid, computed by Cech and
    checked against the closed form."""
    field = PrimeField(DEFAULT_PRIME)
    refs = {}
    for m, n, p in workloads.LINE_BUNDLE_GRID:
        ring = GradedRing(field, ["x%d" % i for i in range(m + 1)])
        dim, stable = cohomology.cech_cohomology(ring, n, p)
        if not stable or dim != cohomology.h_projective_space(m, n, p):
            raise AssertionError("P%d n=%d p=%d: Cech %r, closed form %d"
                                 % (m, n, p, (dim, stable),
                                    cohomology.h_projective_space(m, n, p)))
        refs[workloads.line_bundle_key(m, n, p)] = dim
    if not any(refs.values()):
        raise AssertionError("line-bundle references hold no nonzero dimension")
    return refs


def check_hom_against_cech():
    pairs = []
    for seed in HOM_CECH_SEEDS:
        rng = random.Random(seed)
        for profile, template in (("p1-small", workloads.P1_ORACLE),
                                  ("p2-small", workloads.P2_ORACLE)):
            chosen = workloads.sample_pairs(rng, profile, template)
            pairs += [picks[0] for picks in list(chosen.values())[:2]]
    nctx = workloads.nodal_context()
    unit = suite.unit_e0_factorization(nctx)
    pairs.append((unit, mf.twist_mf(unit, 1), GlobalSections(nctx)))
    for E, F, gs in pairs:
        hom = homcat.hom_H(E, F, gs=gs).dimension
        dim, stable = cohomology.cech_hypercohomology(mf.mapping_complex(E, F), 0)
        if not stable or dim != hom or hom != 0:
            raise AssertionError("hom_H %d vs Cech %r on %s -> %s"
                                 % (hom, (dim, stable), workloads._describe(E),
                                    workloads._describe(F)))


def cli_hashes(seed, a1, workdir):
    """Report hashes of two fresh cli-oneshot passes, which must agree."""
    runs = []
    for _ in range(2):
        table = {"a1": a1, "cli": {}}
        ops = workloads.build_cli_oneshot(seed, table, workdir)
        for op in ops:
            msg = op.check(op.run())
            if msg is not None:
                raise AssertionError("seed %d %s: %s" % (seed, op.label, msg))
        runs.append(table["cli"][str(seed)])
    if runs[0] != runs[1]:
        raise AssertionError("seed %d: CLI reports differ between passes" % seed)
    return runs[0]


def main():
    refs = {"a1": a1_references()}
    print("a1-affine references cross-validated", flush=True)
    refs["line_bundles"] = line_bundle_references()
    print("line-bundle grid matches the closed form", flush=True)
    check_hom_against_cech()
    print("hom_H agrees with Cech hypercohomology", flush=True)
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="refgen-", dir=os.path.join(HERE, "work"))
    try:
        refs["cli"] = {str(s): cli_hashes(s, refs["a1"], workdir)
                       for s in range(CLI_SEEDS)}
    finally:
        shutil.rmtree(workdir)
    print("cli-oneshot hashes for seeds 0..%d" % (CLI_SEEDS - 1))
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
