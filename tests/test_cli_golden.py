"""Byte stability of CLI reports: the SHA-256 of each JSON report, with
``timing_ms`` removed, is pinned to a recorded value.

The recorded hashes are in ``cli_golden.json``.  The commands run in a
directory holding the seed-0 a1-affine, p1-small and p2-small corpora as
MF JSON files, and the nodal curve Proj k[x,y,z]/(xy) (W = z) as a ring
file and unit-grown MF files, all named relatively, so the reports do not
depend on where the files live."""

import hashlib
import json
import pathlib

import pytest

from mfcat.cli import main
from mfcat.fields import DEFAULT_PRIME, PrimeField
from mfcat.mf import MFContext, shift_mf, twist_mf
from mfcat.ring import GradedRing
from mfcat.serialize import mf_to_json, ring_to_json
from mfcat.suite import generate_suite, unit_e0_factorization

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


FILES = _files()
NODAL_FILES = _nodal_files()


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
    """Line bundles on P^1, P^2, P^3 and on the nodal curve, and
    hypercohomology of nodal mapping complexes."""
    grid = [("P1", n, p) for n in range(-4, 4) for p in (0, 1)]
    grid += [("P2", n, p) for n in range(-5, 3) for p in (0, 1, 2)]
    grid += [("P3", n, p) for n in (-5, -4, -1, 0, 1) for p in (0, 1, 2, 3)]
    cmds = [["cech", "--space", m, "--twist", str(n), "--p", str(p)]
            for m, n, p in grid]
    cmds += [["cech", "--ring", "nodal_ring.json", "--twist", str(n),
              "--p", str(p)] for n in range(-3, 3) for p in (0, 1)]
    nodal = ["nodal_%d.json" % i for i in range(3)]
    cmds += [["cech-hh", "--source", s, "--target", t, "--q", q]
             for q in ("-1", "0") for s in nodal for t in nodal]
    return cmds


def report_sha256(text):
    report = json.loads(text)
    report.pop("timing_ms")
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, obj in {**FILES, **NODAL_FILES}.items():
        (d / name).write_text(json.dumps(obj, sort_keys=True))
    return d


# recorded from the reports of the code before SheafMap stored sparse rows;
# the p1 stabilize reports from the code before Tot(P(j) tensor E) was built
# straight from P(j); the p1 hom, cech-hh, contractible and prop28 reports
# from commit ced872e, before the mapping complex became an MF of W = 0;
# the cech and nodal cech-hh reports from commit aba7918, before each
# truncated Cech differential was assembled in one pass
GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", _commands() + _cech_commands(),
                         ids=" ".join)
def test_report_bytes(argv, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    assert main(list(argv)) == 0
    assert report_sha256(capsys.readouterr().out) == GOLDEN[" ".join(argv)]
