"""Byte stability of CLI reports: the SHA-256 of each JSON report, with
``timing_ms`` removed, is pinned to a recorded value.

The recorded hashes are in ``cli_golden.json``.  The commands run in a
directory holding the seed-0 a1-affine, p1-small and p2-small corpora as
MF JSON files, the nodal curve Proj k[x,y,z]/(xy) (W = z) as a ring
file and unit-grown MF files, two skew lines in P^3 (W = x + z) as
unit-grown MF files, the double line Proj k[x,y,z]/(x^2) as a ring file,
module and map files for the module-side commands, and a rank-two
factorization of the affine-graded quadric W = xy + z^2, all named
relatively, so the reports do not depend on where the files live."""

import hashlib
import json
import pathlib

import pytest

from mfcat.cli import main
from mfcat.fields import DEFAULT_PRIME, PrimeField
from mfcat.hypersurface import coker_module
from mfcat.mf import (MatrixFactorization, MFContext, SheafMap, TwistSum,
                      shift_mf, twist_mf)
from mfcat.ring import GradedRing
from mfcat.serialize import (context_to_json, mf_to_json, module_to_json,
                             ring_to_json)
from mfcat.suite import (affine_a1_context, generate_suite,
                         projective_context, unit_e0_factorization)

CORPORA = (("a1", "a1-affine"), ("p1", "p1-small"), ("p2", "p2-small"))


def _files():
    """File name -> MF JSON for every object of the corpora."""
    out = {}
    for tag, profile in CORPORA:
        _ctx, objs = generate_suite(0, profile)
        for i, E in enumerate(objs):
            out["%s_%d.json" % (tag, i)] = mf_to_json(E)
    return out


def _nodal_files():
    """The nodal ring, and the unit object, its twist and its shift."""
    ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                      ideal_strings=["x*y"])
    base = unit_e0_factorization(MFContext(ring, ring.poly("z")))
    objs = (base, twist_mf(base, 1), shift_mf(base))
    out = {"nodal_%d.json" % i: mf_to_json(E) for i, E in enumerate(objs)}
    out["nodal_ring.json"] = ring_to_json(ring)
    return out


def _skew_files():
    """Two skew lines in P^3, W = x + z, where Gamma(O) is 2-dimensional
    while R_0 is 1-dimensional: the unit object, its twist and its shift,
    whose Hom-sets take sections on that unsaturated degree."""
    ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z", "w"],
                      ideal_strings=["x*z", "x*w", "y*z", "y*w"])
    base = unit_e0_factorization(MFContext(ring, ring.poly("x + z")))
    objs = (base, twist_mf(base, 1), shift_mf(base))
    return {"skew_%d.json" % i: mf_to_json(E) for i, E in enumerate(objs)}


def _double_line_files():
    """The double line Proj k[x,y,z]/(x^2), where x is nilpotent."""
    ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                      ideal_strings=["x^2"])
    return {"double_line_ring.json": ring_to_json(ring)}


def _module_files():
    """The cokernel module of every a1 and p2 corpus object, the p2 and
    nodal contexts, nodal modules (R/(x, y), the finite-length R/(x, y, z),
    and R/(x, y) with a zero relation column), and two maps alpha for
    from-module."""
    out = {}
    for tag, profile in CORPORA[0], CORPORA[2]:
        _ctx, objs = generate_suite(0, profile)
        for i, E in enumerate(objs):
            out["coker_%s_%d.json" % (tag, i)] = module_to_json(coker_module(E))
    nodal = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"],
                       ideal_strings=["x*y"])
    out["nodal_ctx.json"] = context_to_json(MFContext(nodal, nodal.poly("z")))
    out["p2_ctx.json"] = context_to_json(projective_context(2))
    for name, rels in (("xy", [["x", "y"]]), ("xyz", [["x", "y", "z"]]),
                       ("zero_col", [["x", "0", "y"]])):
        out["nodal_%s.json" % name] = {"ring": ring_to_json(nodal),
                                       "twists": [0], "relations": rels}
    out["alpha_a1.json"] = {"context": context_to_json(affine_a1_context()),
                            "E1": [-2], "E0": [-1], "matrix": [["u"]]}
    out["alpha_p2.json"] = {"context": out["p2_ctx.json"], "E1": [-1, -1],
                            "E0": [0, 0], "matrix": [["x2", "x2"], ["0", "x2"]]}
    return out


def _quadric_files():
    """A = ([[x, z], [-z, y]], [[y, -z], [z, x]]) on the affine-graded
    quadric W = xy + z^2: its Hom basis comes out of a sparse RREF whose
    back-substitution is needed."""
    ring = GradedRing(PrimeField(DEFAULT_PRIME), ["x", "y", "z"])
    ctx = MFContext(ring, ring.poly("x*y + z^2"), mode="affine-graded")
    E1, E0 = TwistSum([-1, -1]), TwistSum([0, 0])
    p = ring.poly
    e1 = SheafMap(ring, E1, E0, [[p("x"), p("z")], [p("-z"), p("y")]])
    e0 = SheafMap(ring, E0, E1.twist(ctx.d),
                  [[p("y"), p("-z")], [p("z"), p("x")]])
    return {"quadric_A.json": mf_to_json(MatrixFactorization(ctx, e1, e0))}


FILES = _files()
NODAL_FILES = _nodal_files()
SKEW_FILES = _skew_files()
DOUBLE_LINE_FILES = _double_line_files()
MODULE_FILES = _module_files()
QUADRIC_FILES = _quadric_files()


def _names(tag):
    return sorted(n for n in FILES if n.startswith(tag + "_"))


def _commands():
    a1, p1, p2 = _names("a1"), _names("p1"), _names("p2")
    cmds = [["hom", "--source", s, "--target", t]
            for names in (a1, p1, p2) for s in names for t in names]
    cmds += [["stabilize", "--source", s, "--target", t]
             for names in (p1, p2) for s in names for t in names]
    # triples whose two Hom-sets are nonzero; a1_4 and a1_5 have dim 2
    cmds += [["compose", "--source", "a1_%d.json" % s,
              "--middle", "a1_%d.json" % m, "--target", "a1_%d.json" % t,
              "--alpha", str(a), "--beta", str(b)]
             for s, m, t, a, b in ((0, 0, 0, 0, 0), (0, 4, 2, 0, 0),
                                   (4, 4, 5, 1, 0), (2, 5, 1, 0, 0),
                                   (5, 5, 5, 1, 1))]
    cmds.append(["suite", "--seed", "0", "--profile", "p1-small"])
    cmds += [["cech-hh", "--source", s, "--target", t, "--q", q]
             for q in ("-1", "0") for s in p1 for t in p1]
    cmds += [[c, "--source", n] for c in ("contractible", "prop28")
             for n in sorted(FILES)]
    return cmds


def _cech_commands():
    """Line bundles on P^1, P^2, P^3, on the nodal curve and on the double
    line, and hypercohomology of nodal mapping complexes."""
    grid = [("P1", n, p) for n in range(-4, 4) for p in (0, 1)]
    grid += [("P2", n, p) for n in range(-5, 3) for p in (0, 1, 2)]
    grid += [("P3", n, p) for n in (-5, -4, -1, 0, 1) for p in (0, 1, 2, 3)]
    # h^1(P^1, O(-11)) = 10 and h^2(P^2, O(-16)) = 105, where the
    # truncations B = 4 and 5 both read 0
    grid += [("P1", -11, 1), ("P2", -16, 2)]
    cmds = [["cech", "--space", m, "--twist", str(n), "--p", str(p)]
            for m, n, p in grid]
    cmds += [["cech", "--ring", "nodal_ring.json", "--twist", str(n),
              "--p", str(p)] for n in range(-3, 3) for p in (0, 1)]
    cmds += [["cech", "--ring", "double_line_ring.json", "--twist", str(n),
              "--p", str(p)] for n in range(-3, 3) for p in (0, 1, 2)]
    nodal = ["nodal_%d.json" % i for i in range(3)]
    cmds += [["cech-hh", "--source", s, "--target", t, "--q", q]
             for q in ("-1", "0") for s in nodal for t in nodal]
    return cmds


def _module_commands():
    """coker, Ext tables, stable Hom, relative perfection, from-module and
    verify."""
    a1 = _names("a1")
    objs = sorted(FILES) + ["nodal_%d.json" % i for i in range(3)]
    cmds = [["coker", "--source", n] + raw for n in objs
            for raw in ([], ["--raw"])]
    cmds += [["ext-table", "--source", s, "--module", "coker_" + t,
              "--q-lo", "0", "--q-hi", "4"] for s in a1 for t in a1]
    cmds += [["stable-hom", "--source", s, "--module", "coker_" + t]
             for s in a1 for t in a1]
    cmds += [["rel-perfect", "--context", "p2_ctx.json", "--module",
              "coker_" + n] for n in _names("p2")]
    cmds += [["rel-perfect", "--context", "nodal_ctx.json", "--module",
              "nodal_%s.json" % n] for n in ("xy", "xyz", "zero_col")]
    cmds += [["from-module", "--alpha", "alpha_%s.json" % n]
             for n in ("a1", "p2")]
    cmds += [["verify", "--source", n] for n in objs]
    return cmds


def _quadric_commands():
    a = "quadric_A.json"
    cmds = [["hom", "--source", a, "--target", a] + extra
            for extra in ([], ["--shift", "1"], ["--twist", "1"])]
    cmds.append(["compose", "--source", a, "--middle", a, "--target", a])
    return cmds


def _skew_commands():
    """hom, naive hom and stabilize between the skew-line objects."""
    skew = sorted(SKEW_FILES)
    return [[cmd, *extra, "--source", s, "--target", t]
            for cmd, extra in (("hom", []), ("hom", ["--model", "naive"]),
                               ("stabilize", []))
            for s in skew for t in skew]


def report_sha256(text):
    report = json.loads(text)
    report.pop("timing_ms")
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, obj in {**FILES, **NODAL_FILES, **SKEW_FILES,
                      **DOUBLE_LINE_FILES, **MODULE_FILES,
                      **QUADRIC_FILES}.items():
        (d / name).write_text(json.dumps(obj, sort_keys=True))
    return d


# recorded from the reports of the code before SheafMap stored sparse rows;
# the p1 stabilize reports from the code before Tot(P(j) tensor E) was built
# straight from P(j); the p1 hom, cech-hh, contractible and prop28 reports
# from commit ced872e, before the mapping complex became an MF of W = 0;
# the cech and nodal cech-hh reports from commit aba7918, before each
# truncated Cech differential was assembled in one pass; the module-side
# and quadric reports from commit ce91ad4, before a module presentation
# kept its relations as a SheafMap; the double-line cech reports from the
# code that first skipped the vanishing Cech restriction blocks of a
# nilpotent variable (before it, they failed); the skew-line naive hom
# reports from commit ba9e84e, before the Cech truncation of an
# unsaturated degree was taken from reg R; the skew-line hom and stabilize
# reports from the code that first built P(j) on the covering forms
# x + z, y + w (k = 2) instead of all four variables; the cech reports of
# P^1 at twist -11 and P^2 at twist -16 from the code that first took one
# proven truncation on P^m (before it, both read dim 0, stable true)
GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", _commands() + _cech_commands()
                         + _module_commands() + _quadric_commands()
                         + _skew_commands(),
                         ids=" ".join)
def test_report_bytes(argv, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    assert main(list(argv)) == 0
    assert report_sha256(capsys.readouterr().out) == GOLDEN[" ".join(argv)]
