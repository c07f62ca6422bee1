"""Command-line interface: reports, exit codes, determinism, error paths."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import mfcat
from mfcat import cli
from mfcat.cli import COMMANDS, main
from mfcat.hypersurface import coker_module
from mfcat.mf import mapping_complex
from mfcat.serialize import context_to_json, mf_to_json, module_to_json
from mfcat.suite import generate_suite, projective_context
from reference import build_parser


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        out = json.loads(captured.out) if captured.out.strip() else None
        err = json.loads(captured.err) if captured.err.strip() else None
        return code, out, err
    return _run


@pytest.fixture()
def mf_file(tmp_path, E_u):
    path = tmp_path / "eu.json"
    path.write_text(json.dumps(mf_to_json(E_u)))
    return str(path)


@pytest.fixture()
def mf_file_v(tmp_path, E_v):
    path = tmp_path / "ev.json"
    path.write_text(json.dumps(mf_to_json(E_v)))
    return str(path)


class TestVerify:
    def test_ok(self, run, mf_file):
        code, out, _ = run("verify", "--source", mf_file)
        assert code == 0
        assert out["result"]["ok"] is True
        assert out["engine"]["name"] == "mfcat"
        assert "input_hash" in out and "timing_ms" in out

    def test_missing_file(self, run, tmp_path):
        code, out, err = run("verify", "--source", str(tmp_path / "no.json"))
        assert code == 1
        assert out is None and "error" in err

    def test_schema_error_cites_path(self, run, tmp_path, E_u):
        obj = mf_to_json(E_u)
        obj["e1"][0][0] = "x9"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, _out, err = run("verify", "--source", str(bad))
        assert code == 1
        assert "mf.e1[0][0]" in err["error"]

    def test_json_error_cites_position(self, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _out, err = run("verify", "--source", str(bad))
        assert code == 1
        assert "line" in err["error"]

    @pytest.mark.parametrize("p", [4, 2 ** 31 - 1])
    def test_bad_modulus_cites_field(self, run, tmp_path, p):
        # composite, and above the 64*p^2 < 2^53 bound of the input contract
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps({"field": {"type": "prime", "p": p},
                                    "variables": ["x0", "x1"]}))
        code, out, err = run("cech", "--ring", str(ring), "--twist", "0",
                             "--p", "0")
        assert code == 1
        assert out is None and "ring.field" in err["error"]

    def test_non_integer_modulus_cites_field_p(self, run, tmp_path):
        # int() would read 32003.9 as F_32003
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps({"field": {"type": "prime", "p": 32003.9},
                                    "variables": ["x0", "x1"]}))
        code, out, err = run("cech", "--ring", str(ring), "--twist", "0",
                             "--p", "0")
        assert code == 1 and out is None
        assert err["error"] == "%s:ring.field.p: expected an integer" % ring


class TestZeroDenominator:
    """A coefficient whose denominator vanishes in the field exits 1 with
    a field path, not a ZeroDivisionError traceback."""

    @staticmethod
    def run_fresh(*argv):
        src = os.path.dirname(os.path.dirname(mfcat.__file__))
        proc = subprocess.run([sys.executable, "-m", "mfcat.cli", *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        return json.loads(proc.stderr)["error"]

    @pytest.mark.parametrize("field, ideal, coeff", [
        ({"type": "prime", "p": 7}, "1/7*x*y", "1/7"),
        ({"type": "rational"}, "1/0*x", "1/0"),
    ])
    def test_ring_ideal(self, tmp_path, field, ideal, coeff):
        ring = tmp_path / "r.json"
        ring.write_text(json.dumps({"field": field, "variables": ["x", "y"],
                                    "ideal": [ideal]}))
        err = self.run_fresh("cech", "--ring", str(ring), "--twist", "0",
                             "--p", "0")
        assert err.startswith("%s:ring.ideal[0]: " % ring)
        assert "coefficient %s has a zero denominator" % coeff in err

    def test_ring_ideal_cites_generator_index(self, tmp_path):
        ring = tmp_path / "r.json"
        ring.write_text(json.dumps({"field": {"type": "prime", "p": 7},
                                    "variables": ["x", "y"],
                                    "ideal": ["x*y", "1/7*x*y"]}))
        err = self.run_fresh("cech", "--ring", str(ring), "--twist", "0",
                             "--p", "0")
        assert err.startswith("%s:ring.ideal[1]: " % ring)
        assert "coefficient 1/7 has a zero denominator in F_7" in err

    def test_mf_entry(self, tmp_path, E_u):
        obj = mf_to_json(E_u)
        obj["context"]["ring"]["field"] = {"type": "prime", "p": 7}
        obj["e1"][0][0] = "1/7*u"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        err = self.run_fresh("verify", "--source", str(path))
        assert err.startswith("%s:mf.e1[0][0]: " % path)
        assert "coefficient 1/7 has a zero denominator in F_7" in err


class TestTwistStep:
    def test_mapping_complex_file_verifies(self, run, tmp_path, E_u, E_v):
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(mf_to_json(mapping_complex(E_u, E_v))))
        code, out, _err = run("verify", "--source", str(path))
        assert code == 0 and out["result"]["ok"] is True

    @pytest.mark.parametrize("step", [1.7, True, 3])
    def test_bad_twist_step_exits_one(self, tmp_path, E_u, E_v, step):
        # a fresh interpreter, so an uncaught exception would show as a
        # traceback on stderr; 3 is an integer but not deg W of E_u
        obj = mf_to_json(mapping_complex(E_u, E_v) if step != 3 else E_u)
        obj["context"]["twist_step"] = step
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        src = os.path.dirname(os.path.dirname(mfcat.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "mfcat.cli", "verify", "--source",
             str(path)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "bad.json:mf.context.twist_step" in \
            json.loads(proc.stderr)["error"]


class TestTargetContext:
    """A second or third MF file is read in the source's context: a
    `context` field of its own must equal that context."""

    COMMANDS = (("hom", "--target"), ("compose", "--middle", "e.json",
                                      "--target"),
                ("cech-hh", "--target"), ("stabilize", "--target"))

    @staticmethod
    def write(tmp_path, edit):
        _ctx, objs = generate_suite(0, "p1-small")
        obj = mf_to_json(objs[0])
        (tmp_path / "e.json").write_text(json.dumps(obj))
        edit(obj)
        (tmp_path / "f.json").write_text(json.dumps(obj))

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("edit", [
        lambda o: o["context"].update(mode="affine-graded"),
        lambda o: o["context"]["ring"].update(field={"type": "prime",
                                                     "p": 7}),
        lambda o: o.update(context=5),
    ], ids=["mode", "field", "not-an-object"])
    def test_other_context_exits_one(self, run, tmp_path, monkeypatch,
                                     command, edit):
        self.write(tmp_path, edit)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(command[0], "--source", "e.json", *command[1:],
                             "f.json")
        assert code == 1 and out is None
        assert err["error"].startswith("f.json:mf.context")

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("edit", [
        lambda o: o.pop("context"),
        lambda o: o["context"]["ring"].pop("ideal"),
        lambda o: o["context"].update(W="2*x0 - x0"),
    ], ids=["absent", "ideal-omitted", "W-rewritten"])
    def test_equal_context_is_accepted(self, run, tmp_path, monkeypatch,
                                       command, edit):
        self.write(tmp_path, edit)
        monkeypatch.chdir(tmp_path)
        code, _out, err = run(command[0], "--source", "e.json", *command[1:],
                              "f.json")
        # every p1-small Hom is 0, so compose finds no class to pick
        if command[0] == "compose":
            assert code == 1 and err["error"].startswith("--alpha index")
        else:
            assert code in (0, 2) and err is None


class TestHom:
    def test_self_hom(self, run, mf_file):
        code, out, _ = run("hom", "--source", mf_file, "--target", mf_file)
        assert code == 0
        assert out["result"]["dim"] == 1

    def test_u_to_v(self, run, mf_file, mf_file_v):
        code, out, _ = run("hom", "--source", mf_file,
                           "--target", mf_file_v)
        assert code == 0
        assert out["result"]["dim"] == 0

    def test_naive_model(self, run, mf_file):
        code, out, _ = run("hom", "--model", "naive", "--source", mf_file,
                           "--target", mf_file)
        assert code == 0
        assert out["result"]["model"] == "naive"


class TestCech:
    def test_closed_form(self, run):
        code, out, _ = run("cech", "--space", "P2", "--twist", "-3",
                           "--p", "2")
        assert code == 0
        assert out["result"] == {"dim": 1, "stable": True,
                                 "twist": -3, "p": 2}

    def test_h0(self, run):
        code, out, _ = run("cech", "--space", "P1", "--twist", "3",
                           "--p", "0")
        assert code == 0
        assert out["result"]["dim"] == 4

    @pytest.mark.parametrize("twist, p, dim", [
        (0, 0, 1), (1, 0, 3), (-1, 1, 1), (-2, 1, 3), (-3, 1, 5), (0, 1, 0),
        (-2, 2, 0)])
    def test_nilpotent_variable(self, run, tmp_path, twist, p, dim):
        """On the double line Proj k[x,y,z]/(x^2), x^B = 0, so the Cech
        restriction blocks by x vanish; h^p(O(n)) is h^p of O(n) and of
        O(n - 1) on the reduced line P^1, so h^1(O(-2)) = 1 + 2."""
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps({"field": {"type": "prime", "p": 32003},
                                    "variables": ["x", "y", "z"],
                                    "ideal": ["x^2"]}))
        code, out, err = run("cech", "--ring", str(ring), "--twist",
                             str(twist), "--p", str(p))
        assert code == 0 and err is None
        assert out["result"] == {"dim": dim, "stable": True, "twist": twist,
                                 "p": p}

    def test_determinism(self, run):
        _c1, o1, _ = run("cech", "--space", "P1", "--twist", "-2", "--p", "1")
        _c2, o2, _ = run("cech", "--space", "P1", "--twist", "-2", "--p", "1")
        o1.pop("timing_ms")
        o2.pop("timing_ms")
        assert o1 == o2


class TestContractible:
    def test_false_exit_zero(self, run, mf_file):
        code, out, _ = run("contractible", "--source", mf_file)
        assert code == 0
        assert out["result"]["contractible"] is False

    def test_prop28(self, run, mf_file):
        code, out, _ = run("prop28", "--source", mf_file)
        assert code == 0
        assert out["result"]["condition1_contractible"] is False

    def test_contractible_solves_once(self, run, tmp_path, monkeypatch):
        """The global answer is decided once; the local answer of a
        connected object reads it."""
        from mfcat import homcat
        _ctx, objs = generate_suite(0, "p1-small")
        E = next(E for E in objs if homcat._connected_components(E) is None)
        path = tmp_path / "p1.json"
        path.write_text(json.dumps(mf_to_json(E)))
        calls = []
        real = homcat.solve_homotopy
        monkeypatch.setattr(homcat, "solve_homotopy",
                            lambda f: calls.append(f) or real(f))
        code, out, _ = run("contractible", "--source", str(path))
        assert code == 0
        assert out["result"] == {"contractible": True,
                                 "locally_contractible": "true"}
        assert len(calls) == 1

    def test_failed_self_check_exits_one(self, run, mf_file, monkeypatch):
        import mfcat.homcat as homcat
        monkeypatch.setattr(homcat, "is_contractible", lambda E: True)
        monkeypatch.setattr(homcat, "locally_contractible",
                            lambda E, **kw: "false")
        code, out, err = run("prop28", "--source", mf_file)
        assert code == 1
        assert out is None
        assert "contractibility implication violated" in err["error"]


class TestModuleCommands:
    def test_coker(self, run, mf_file):
        code, out, _ = run("coker", "--source", mf_file)
        assert code == 0
        assert out["result"]["module"]["twists"] == [-1]

    def test_stable_hom(self, run, tmp_path, mf_file, E_u):
        mod = tmp_path / "mod.json"
        mod.write_text(json.dumps(module_to_json(coker_module(E_u))))
        code, out, _ = run("stable-hom", "--source", mf_file,
                           "--module", str(mod))
        assert code == 0
        assert out["result"]["dim"] == 1 and out["result"]["stable"] is True

    def test_ext_table_empty_range(self, tmp_path, mf_file, E_u):
        # a fresh interpreter, so an uncaught exception would show as a
        # traceback on stderr instead of failing inside this process
        mod = tmp_path / "mod.json"
        mod.write_text(json.dumps(module_to_json(coker_module(E_u))))
        src = os.path.dirname(os.path.dirname(mfcat.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "mfcat.cli", "ext-table", "--source",
             mf_file, "--module", str(mod), "--q-lo", "3", "--q-hi", "1"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)["error"]
        assert "--q-lo" in err and "--q-hi" in err

    def test_rel_perfect_periodic_exit(self, run, tmp_path):
        ctx = {"ring": {"field": {"type": "prime", "p": 32003},
                        "variables": ["x", "y", "z"], "ideal": ["x*y"]},
               "W": "z", "mode": "projective"}
        mod = {"ring": ctx["ring"], "twists": [0],
               "relations": [["x", "y"]]}
        cpath = tmp_path / "ctx.json"
        mpath = tmp_path / "mod.json"
        cpath.write_text(json.dumps(ctx))
        mpath.write_text(json.dumps(mod))
        code, out, _ = run("rel-perfect", "--context", str(cpath),
                           "--module", str(mpath))
        assert code == 0
        assert out["result"]["perfect"] is False
        assert out["result"]["status"] == "periodic"

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_rel_perfect_rejects_max_steps_below_one(self, run, tmp_path,
                                                     steps):
        missing = str(tmp_path / "missing.json")
        code, out, err = run("rel-perfect", "--context", missing,
                             "--module", missing, "--max-steps", steps)
        assert code == 1 and out is None
        assert "--max-steps" in err["error"]


class TestFromModule:
    """from-module reads a map alpha of twist sums; a bad entry of its
    matrix is cited by its field path, as verify cites an MF entry."""

    def _alpha(self, tmp_path, entry):
        obj = {"context": context_to_json(projective_context(2)),
               "E1": [-1], "E0": [0], "matrix": [[entry]]}
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_completes_alpha(self, run, tmp_path):
        code, out, _ = run("from-module", "--alpha",
                           self._alpha(tmp_path, "x2"))
        assert code == 0
        assert out["result"]["mf"]["e1"] == [["x2"]]

    @pytest.mark.parametrize("entry, code, e0",
                             [("z", 0, "1"), ("x", 1, None)])
    def test_nodal_curve(self, run, tmp_path, entry, code, e0):
        # on xy = 0 with W = z, x: O(-1) -> O kills y in internal degree 2
        ring = {"field": {"type": "prime", "p": 32003},
                "variables": ["x", "y", "z"], "ideal": ["x*y"]}
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({
            "context": {"ring": ring, "W": "z", "mode": "projective"},
            "E1": [-1], "E0": [0], "matrix": [[entry]]}))
        got, out, err = run("from-module", "--alpha", str(path))
        assert got == code
        if e0:
            assert out["result"]["mf"]["e0"] == [[e0]]
        else:
            assert "alpha has a kernel in internal degree 2:" in err["error"]

    @pytest.mark.parametrize("entry, message", [
        ("x2+", "unexpected"),                      # does not parse
        ("x2^2", "homogeneous of degree 1, got"),   # wrong degree
    ])
    def test_bad_entry_cites_path(self, run, tmp_path, entry, message):
        alpha = self._alpha(tmp_path, entry)
        code, out, err = run("from-module", "--alpha", alpha)
        assert code == 1 and out is None
        assert err["error"].startswith(alpha + ":map.matrix[0][0]: ")
        assert message in err["error"]


class TestSuite:
    def test_generate(self, run):
        code, out, _ = run("suite", "--seed", "0", "--profile", "a1-affine")
        assert code == 0
        assert len(out["result"]["objects"]) == 6

    def test_seed_determinism(self, run):
        _c, o1, _ = run("suite", "--seed", "2", "--profile", "p1-small")
        _c, o2, _ = run("suite", "--seed", "2", "--profile", "p1-small")
        assert o1["result"] == o2["result"]


class TestFormats:
    def test_text_format(self, run, mf_file, capsys):
        code = main(["--format", "text", "verify", "--source", mf_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_unknown_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "xml", "verify"])
        assert exc.value.code == 2
        assert "argument --format: invalid choice: 'xml'" \
            in capsys.readouterr().err

    def test_closed_stdout_exits_one_without_traceback(self):
        """A reader that is gone before the report is written: stdout is
        a pipe whose read end is closed before the child starts."""
        src = os.path.dirname(os.path.dirname(mfcat.__file__))
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mfcat.cli", "cech", "--space", "P2",
                 "--twist", "-3", "--p", "2"], stdout=w,
                stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr


CECH = ["cech", "--space", "P2", "--twist", "-3", "--p", "2"]
# help, usage errors and --format spellings, each argv on one side of the
# choice between one command's parser and all of them
PARITY_ARGV = [
    ["-h"], ["--help"], [], ["frobnicate"], ["--format", "xml", "verify"],
    ["--format=xml", "verify", "--source", "e.json"], ["-h", "hom"],
    ["--format"], ["--format", "text"], ["--format", "-h", "verify"],
    ["--format=text", "verify", "-h"], ["--form", "text"] + CECH,
    ["--", "verify", "--source", "e.json"],
    ["verify"], ["verify", "--source"], ["hom", "--source", "e.json"],
    ["hom", "--model", "exact", "--source", "e.json", "--target", "f.json"],
    ["cech", "--space", "P2", "--twist", "x", "--p", "2"],
    ["verify", "--source", "e.json", "--bogus"],
    ["--format", "text"] + CECH, ["--format=json"] + CECH,
] + [[name, "-h"] for name in COMMANDS]


class TestParser:
    """The parser main builds for one command against the full parser of
    tests/reference.py."""

    @staticmethod
    def _outcome(argv, capsys):
        """Exit code, stdout and stderr of main(argv), timing lines out."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, [[line for line in text.splitlines()
                       if "timing_ms" not in line]
                      for text in (captured.out, captured.err)]

    @pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
    def test_output_matches_full_parser(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        ours = self._outcome(argv, capsys)
        monkeypatch.setattr(cli, "_build_parser", lambda _argv: build_parser())
        assert ours == self._outcome(argv, capsys)

    def test_golden_commands_parse_alike(self):
        golden = pathlib.Path(__file__).with_name("cli_golden.json")
        full = build_parser()
        argvs = [cmd.split() for cmd in json.loads(golden.read_text())]
        assert [argv for argv in argvs
                if cli._build_parser(argv).parse_args(argv)
                != full.parse_args(argv)] == []

    @pytest.fixture()
    def parsers_built(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        return built

    def test_known_command_builds_two_parsers(self, parsers_built, capsys):
        assert main(["--format", "text"] + CECH) == 0
        assert parsers_built == ["mfcat", "mfcat cech"]

    @pytest.mark.parametrize("argv", [["-h"], ["frobnicate"]])
    def test_help_and_unknown_command_build_all(self, argv, parsers_built,
                                                 capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert len(parsers_built) == 1 + len(COMMANDS) == 15
