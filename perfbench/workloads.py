"""The four benchmark workloads: seeded op lists with reference checks.

A builder takes the workload seed, the reference table and a work
directory, and returns a fresh list of ``Op`` objects: new rings, contexts
and ``GlobalSections``, so every timed pass does the same work from cold
program caches.  ``mfcat`` receives only the inputs generated here.

Ops call ``mfcat`` through module attributes (``homcat.hom_H``) so that the
span recorder, which rebinds those attributes, sees every call.

Cost-stable seeding.  Hom and Cech costs on the projective corpora depend
on the pair: on p1-small one ordered pair takes from 3 ms to over a minute,
and whole-corpus sweeps differ tenfold between seeds.  Both are invariant
under a common twist of source and target, so the cost of a pair is fixed
by its signature: the twists of E1, E0 of source and target, less the
highest twist of the source.  A fixed template says how many pairs of each
signature a pass holds; the seed draws the corpora (``generate_suite`` on
seed-derived sub-seeds) and picks the pairs, which then differ in their
common twist, the corpus and construction they come from, and their order.
The template holds signatures found in at least a fifth of the corpora, so
a pool of 48 corpora lacks a given one with odds below 1 in 40,000.
Singular-ring objects are grown from the unit object with a seed-drawn
common twist.
"""

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

from mfcat import cli, cohomology, homcat, hypersurface, mf, serialize, suite
from mfcat.fields import DEFAULT_PRIME, PrimeField
from mfcat.ring import GradedRing

WORKLOADS = ("corpus-sweep", "singular-hom", "cech-oracle", "cli-oneshot")

# Signature templates: "E1|E0>F1|F0" relative twists -> pairs per pass.
_P1_COMMON = (
    "-1|0>-1|0 0|0>0|0 -1|0>0|0 0|0>-1|0 -1|0>-1,0|0,0 -1,0|0,0>-1,0|0,0 "
    "-1,0|0,0>-1|0 -1,-1|0,0>-1,-1|0,0 -1,-1|0,0>-1|0 -1|0>-1,-1|0,0 "
    "-1,0|0,0>0|0 0|0>-1,0|0,0 -1|0>0|1 -1|0>-2|-1 0,0|0,0>0,0|0,0 "
    "-1|0>1|2 -1|0>-3|-2 -1|0>0,0|0,0 0,0|0,0>-1|0 0|0>0|1 -1|0>-1|-1 "
    "0|0>-1,-1|0,0 -1,-1|0,0>0|0 0|0>0,0|0,0 0,0|0,0>0|0 "
    "-1,-1,0|0,0,0>-1|0 0,0|0,0>-1,-1|0,0 -1|0>-1,-1,0|0,0,0 "
    "-1,-1|0,0>0,0|0,0 -1|0>1|1 0|0>-2|-1 -1|0>-1,0,0|0,0,0 "
    "-1,0,0|0,0,0>-1|0 -1,0|0,0>-3|-2 -1|0>1,2|2,2").split()
P1_SWEEP = dict.fromkeys(
    _P1_COMMON + ["-1,-1,0|0,0,0>-1,-1,0|0,0,0", "-1,0,0|0,0,0>-1,0,0|0,0,0"], 2)
P2_SWEEP = dict.fromkeys((
    "-1|0>-1|0 -1|0>0|0 0|0>-1|0 0|0>0|0 -1,0|0,0>-1|0 -1,0|0,0>-1,0|0,0 "
    "-1|0>-1,0|0,0 -1|0>-1,-1|0,0 -1,-1|0,0>-1|0 -1,-1|0,0>-1,-1|0,0 "
    "-1,0|0,0>0|0 0|0>-1,0|0,0 -1|0>-2|-1 -1|0>0|1 -1|0>1|2").split(), 1)
# Three of each rank-1 pair: the cheap, like-sized ops then sit around the
# median op, so op_p50_ms follows many ops rather than one.
P1_ORACLE = {sig: 3 if sig.count(",") == 0 else 1 for sig in _P1_COMMON}
# Rank-1 to rank-2 p2-small pairs: most of their time goes to Cech
# eliminations of 1,400 x 1,400 to 1,600 x 1,600 at under 0.5% nonzeros.
P2_ORACLE = {"-1|0>-1,0|0,0": 1, "-1,0|0,0>-1|0": 1}
CORPORA_PER_PROFILE = 48
LIGHT_ROUNDS = 4
# Rank-1 p1-small pairs for the CLI hom and stabilize commands; the first
# is in every corpus, and all four cost the same.
CLI_HOM_SIGNATURES = ("-1|0>-1|0", "0|0>0|0", "-1|0>0|0", "0|0>-1|0")


class Op:
    """One timed call: ``run()`` returns the answer, ``check(answer)``
    returns None or a message saying how it differs from the reference."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def op_list_hash(ops):
    return hashlib.sha256("\n".join(op.label for op in ops).encode()).hexdigest()


def _expect(want):
    def check(got):
        return None if got == want else "expected %r, got %r" % (want, got)
    return check


def _twists(E):
    return list(E.E1.twists) + list(E.E0.twists)


def signature(E, F):
    """Relative twists of a pair, as in the templates: "E1|E0>F1|F0"."""
    top = max(_twists(E))

    def side(M):
        return "|".join(",".join(str(t - top) for t in sorted(tw))
                        for tw in (M.E1.twists, M.E0.twists))
    return side(E) + ">" + side(F)


def _describe(E):
    return "%s/%s" % (list(E.E1.twists), list(E.E0.twists))


def sample_pairs(rng, profile, template):
    """Draw CORPORA_PER_PROFILE seeded corpora of ``profile`` and pick, for each
    signature of the template, that many ordered pairs of one corpus each.
    Returns {signature: [(E, F, gs)]}, where ``gs`` is the one
    ``GlobalSections`` of the pair's corpus: pairs of a corpus share its
    caches, and the first call on each corpus fills them."""
    by_sig = {sig: [] for sig in template}
    for _ in range(CORPORA_PER_PROFILE):
        ctx, objs = suite.generate_suite(rng.randrange(2 ** 31), profile)
        gs = cohomology.GlobalSections(ctx)
        for E in objs:
            for F in objs:
                cands = by_sig.get(signature(E, F))
                if cands is not None:
                    cands.append((E, F, gs))
    chosen = {}
    for sig, count in template.items():
        cands = by_sig[sig]
        if not cands:
            raise RuntimeError("no %s pair %s in %d corpora"
                               % (profile, sig, CORPORA_PER_PROFILE))
        rng.shuffle(cands)
        chosen[sig] = [cands[i % len(cands)] for i in range(count)]
    return chosen


# -- corpus-sweep ------------------------------------------------------------


CONTRACTIBLE = {"condition1_contractible": True,
                "condition4_locally_free_coker": "true", "consistent": True}


def _hom_op(profile, E, F, gs, want):
    return Op("%s hom_H %s -> %s" % (profile, _describe(E), _describe(F)),
              lambda: homcat.hom_H(E, F, gs=gs).dimension, _expect(want))


def _prop28_op(tag, E, want):
    return Op("%s prop28_report %s" % (tag, _describe(E)),
              lambda: homcat.prop28_report(E), _expect(want))


def build_corpus_sweep(seed, refs, workdir):
    rng = random.Random(seed)
    ops = []
    for profile, template in (("p1-small", P1_SWEEP), ("p2-small", P2_SWEEP)):
        chosen = sample_pairs(rng, profile, template)
        pairs = [pair for picks in chosen.values() for pair in picks]
        rng.shuffle(pairs)
        # On P^m with linear W every unit-grown object is zero in the
        # stable category, so every stable Hom vanishes, for any seed.
        ops += [_hom_op(profile, E, F, gs, 0) for E, F, gs in pairs]
        ops += [_prop28_op(profile, picks[0][0], CONTRACTIBLE)
                for picks in chosen.values()]

    a1 = refs["a1"]
    ctx, objs = suite.generate_suite(seed, "a1-affine")
    gs = cohomology.GlobalSections(ctx)
    for i, E in enumerate(objs):
        for k, F in enumerate(objs):
            key = "%d,%d" % (i, k)
            ops.append(_hom_op("a1-affine", E, F, gs, a1["hom"][key]))
            ops += _module_ops(E, F, key, a1)
        ops.append(_prop28_op("a1-affine", E, a1["prop28"][str(i)]))
    return ops


def _module_ops(E, F, key, a1):
    """coker_module, stable_hom_dim and ext_gamma_dims of an a1-affine pair."""
    def label(what):
        return "a1-affine %s %s -> %s" % (what, _describe(E), _describe(F))

    def coker():
        return serialize.module_to_json(hypersurface.coker_module(F),
                                        include_ring=False)

    def stable():
        dim, stable, _q = hypersurface.stable_hom_dim(
            E, hypersurface.coker_module(F))
        return [dim, stable]

    def ext():
        table = hypersurface.ext_gamma_dims(
            E, hypersurface.coker_module(F), range(0, 4))
        return {str(q): v for q, v in table.items()}

    return [Op(label("coker_module"), coker, _expect(a1["coker"][key])),
            Op(label("stable_hom_dim"), stable, _expect(a1["stable"][key])),
            Op(label("ext_gamma_dims"), ext, _expect(a1["ext"][key]))]


# -- singular-hom ------------------------------------------------------------


def nodal_context():
    """Proj k[x,y,z]/(xy) with W = z: two crossing lines."""
    ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                      ideal_strings=["x*y"])
    return mf.MFContext(ring, ring.poly("z"))


def build_singular_hom(seed, refs, workdir):
    """Light pairs (Koszul level 1) and one endomorphism pair (level 2,
    rank-63 stabilized source) on unit-grown objects, all with stable Hom 0.
    The rank-1 light pairs run in four rounds sharing one ``GlobalSections``,
    so that the median op lies among a dozen ops of one cost and not
    between cost groups.  The seed draws the common twist and the shift of
    the heavy source; the order stays fixed, because the first op fills the
    threshold cache."""
    rng = random.Random(seed)
    ctx = nodal_context()
    gs = cohomology.GlobalSections(ctx)
    unit = suite.unit_e0_factorization(ctx)
    base = mf.twist_mf(unit, rng.randrange(-2, 2))
    up = mf.twist_mf(base, 1)
    sbase = mf.shift_mf(base)
    rank1 = [(base, up), (base, sbase), (sbase, mf.twist_mf(sbase, 1))]
    rank2 = [(base, mf.direct_sum_mf(up, sbase)),
             (mf.cone(mf.StrictMorphism.zero(base, up)), mf.twist_mf(up, 1))]
    heavy = rng.choice([base, sbase])
    return [_hom_op("nodal", E, F, gs, 0)
            for E, F in rank1 * LIGHT_ROUNDS + rank2 + [(heavy, heavy)]]


# -- cech-oracle -------------------------------------------------------------


LINE_BUNDLE_GRID = [(m, n, p) for m in (1, 2) for n in range(-6, 7)
                    for p in range(m + 1)] + [(3, -5, 3)]


def line_bundle_key(m, n, p):
    """Key of dim H^p(P^m, O(n)) in the reference table."""
    return "P%d n=%d p=%d" % (m, n, p)


def build_cech_oracle(seed, refs, workdir):
    rng = random.Random(seed)
    field = PrimeField(DEFAULT_PRIME)
    rings = {m: GradedRing(field, ["x%d" % i for i in range(m + 1)])
             for m in (1, 2, 3)}
    ops = []
    for m, n, p in LINE_BUNDLE_GRID:
        want = [refs["line_bundles"][line_bundle_key(m, n, p)], True]
        ops.append(Op("P%d cech_cohomology n=%d p=%d" % (m, n, p),
                      lambda r=rings[m], n=n, p=p:
                      list(cohomology.cech_cohomology(r, n, p)),
                      _expect(want)))
    for profile, template in (("p1-small", P1_ORACLE), ("p2-small", P2_ORACLE)):
        chosen = sample_pairs(rng, profile, template)
        for E, F, _gs in (pair for picks in chosen.values() for pair in picks):
            ops.append(Op("%s cech_hypercohomology %s -> %s"
                          % (profile, _describe(E), _describe(F)),
                          lambda E=E, F=F: list(cohomology.cech_hypercohomology(
                              mf.mapping_complex(E, F), 0)),
                          _expect([0, True])))
    return ops


# -- cli-oneshot -------------------------------------------------------------


def report_sha256(text):
    """SHA-256 of a CLI JSON report with ``timing_ms`` removed."""
    report = json.loads(text)
    report.pop("timing_ms", None)
    return serialize.object_hash(report)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _write(workdir, name, obj):
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return name


def build_cli_oneshot(seed, refs, workdir):
    """Every CLI command once, on JSON files written to ``workdir``; the
    ops run with ``workdir`` as the current directory, so argv and reports
    name files relatively and the report hashes do not depend on where the
    checkout lives."""
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    w = lambda name, obj: _write(workdir, name, obj)

    _ctx, p1 = suite.generate_suite(seed, "p1-small")
    pair = rng.choice([(E, F) for E in p1 for F in p1
                       if signature(E, F) in CLI_HOM_SIGNATURES])
    src = w("p1_e.json", serialize.mf_to_json(pair[0]))
    tgt = w("p1_f.json", serialize.mf_to_json(pair[1]))
    # Every corpus holds the unit object; it and its twists cost the same.
    obj = w("p1_obj.json", serialize.mf_to_json(
        rng.choice([E for E in p1 if signature(E, E) == "-1|0>-1|0"])))
    _ctx, p2 = suite.generate_suite(seed, "p2-small")
    p2_one = w("p2_one.json", serialize.mf_to_json(
        rng.choice([E for E in p2 if signature(E, E) == "-1|0>-1|0"])))

    a1_ctx = suite.affine_a1_context()
    eu = suite.a1_u_factorization(a1_ctx)
    ev = suite.a1_v_factorization(a1_ctx)
    f_eu = w("a1_u.json", serialize.mf_to_json(eu))
    m_eu = w("a1_coker_u.json", serialize.module_to_json(
        hypersurface.coker_module(eu)))
    m_ev = w("a1_coker_v.json", serialize.module_to_json(
        hypersurface.coker_module(ev)))

    # from-module scans degrees up to the largest |twist|, so its twist is
    # fixed; the seed draws the twist of the rel-perfect module instead.
    p2ctx = suite.projective_context(2)
    alpha = w("alpha.json", {"context": serialize.context_to_json(p2ctx),
                             "E1": [-1], "E0": [0], "matrix": [["x2"]]})
    nodal = nodal_context()
    nctx = w("nodal_ctx.json", serialize.context_to_json(nodal))
    nmod = w("nodal_mod.json", {
        "ring": serialize.ring_to_json(nodal.ring), "twists": [rng.randrange(-2, 1)],
        "relations": [["x", "y"]]})

    a1_refs = refs["a1"]
    commands = [
        (["verify", "--source", obj], lambda r: r["ok"] is True),
        (["hom", "--model", "naive", "--source", src, "--target", tgt],
         lambda r: r["model"] == "naive"),
        (["hom", "--source", src, "--target", tgt], lambda r: r["dim"] == 0),
        (["compose", "--source", f_eu, "--middle", f_eu, "--target", f_eu],
         lambda r: r["dim_source_middle"] == r["dim_middle_target"] == 1),
        (["cech", "--space", "P2", "--twist", "-3", "--p", "2"],
         lambda r: r["dim"] == 1),
        (["cech", "--space", "P3", "--twist", "-5", "--p", "3"],
         lambda r: r["dim"] == 4),
        (["cech-hh", "--source", p2_one, "--target", p2_one],
         lambda r: r["dim"] == 0 and r["stable"]),
        (["stabilize", "--source", src, "--target", tgt],
         lambda r: r["certificate"]["j"] >= 1),
        (["contractible", "--source", obj],
         lambda r: r == {"contractible": True, "locally_contractible": "true"}),
        (["prop28", "--source", obj], lambda r: r == CONTRACTIBLE),
        (["coker", "--source", obj], lambda r: "module" in r),
        (["from-module", "--alpha", alpha],
         lambda r: r["mf"]["e0"] == [["1"]]),
        (["ext-table", "--source", f_eu, "--module", m_ev, "--q-lo", "0",
          "--q-hi", "3"], lambda r: r["table"] == a1_refs["ext"]["0,2"]),
        (["stable-hom", "--source", f_eu, "--module", m_eu],
         lambda r: [r["dim"], r["stable"]] == a1_refs["stable"]["0,0"]),
        (["rel-perfect", "--context", nctx, "--module", nmod],
         lambda r: r["perfect"] is False and r["status"] == "periodic"),
        (["suite", "--seed", str(seed), "--profile", "p1-small"],
         lambda r: r["hashes"] == [serialize.mf_hash(E) for E in p1]),
    ]
    # Report hashes are stored for a range of seeds.  For another seed the
    # first pass's hashes become the reference, so later passes check byte
    # stability; the table lives in ``refs`` and outlives this op list.
    stored = refs["cli"].setdefault(str(seed), {})
    return [_cli_op(workdir, argv, semantic, stored) for argv, semantic in commands]


def _cli_op(workdir, argv, semantic, stored):
    label = "mfcat " + " ".join(argv)

    def run():
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            return run_cli(argv)
        finally:
            os.chdir(cwd)

    def check(answer):
        code, out, err = answer
        if code != 0:
            return "exit code %d: %s" % (code, err.strip()[:200])
        report = json.loads(out)
        if not semantic(report["result"]):
            return "result differs from the reference: %s" % json.dumps(
                report["result"], sort_keys=True)[:200]
        sha = report_sha256(out)
        want = stored.setdefault(label, sha)
        if sha != want:
            return "report sha256 %s, reference %s" % (sha, want)
        return None

    return Op(label, run, check)


BUILDERS = {
    "corpus-sweep": build_corpus_sweep,
    "singular-hom": build_singular_hom,
    "cech-oracle": build_cech_oracle,
    "cli-oneshot": build_cli_oneshot,
}
