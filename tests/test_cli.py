"""Command-line interface: reports, exit codes, determinism, error paths."""

import json
import os
import subprocess
import sys

import pytest

import mfcat
from mfcat.cli import main
from mfcat.hypersurface import coker_module
from mfcat.mf import mapping_complex
from mfcat.serialize import context_to_json, mf_to_json, module_to_json
from mfcat.suite import projective_context


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

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
