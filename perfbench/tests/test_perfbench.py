"""Tests of the benchmark itself: span arithmetic, clean restoration of the
wrapped functions, reference checking and seeding.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    rec = spans.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = rec.begin("root")
    a = rec.begin("a")
    g = rec.begin("g")
    rec.end(g)
    rec.end(a)
    b = rec.begin("b")
    rec.end(b)
    rec.end(root)
    assert rec.parents == [-1, root, a, root]
    assert rec.self_times() == [3, 2, 1, 4]


def test_speed_takes_probes_out_and_rescales(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 0.003)
    s = speed.Sampler()
    s.samples = [0.002]
    mark = s.mark()
    # a probe the timer ran inside the stretch: 4 ms CPU, 5 ms wall
    s.samples.append(0.004)
    s.cpu_spent += 0.004
    s.wall_spent += 0.005
    cpu, wall, ref = s.since(mark, 0.104, 0.205)
    assert abs(cpu - 0.1) < 1e-12 and abs(wall - 0.2) < 1e-12
    # around the stretch: 2 ms before, 4 ms inside, 3 ms after (closing probe)
    assert s.samples == [0.002, 0.004, 0.003]
    assert abs(ref - 0.1 * speed.REF_S / 0.003) < 1e-12


def _bindings():
    """Every (namespace, attribute) that binds a wrapped function."""
    import importlib
    found = {}
    for module, qualname in spans.WRAPPED:
        mod = importlib.import_module("mfcat." + module)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            found[(cls, meth)] = cls.__dict__[meth]
            continue
        original = getattr(mod, qualname)
        for name, ns in list(sys.modules.items()):
            if name.startswith("mfcat"):
                for attr, value in vars(ns).items():
                    if value is original:
                        found[(ns, attr)] = original
    return found


def test_traced_run_restores_every_wrapped_function():
    from mfcat import cohomology, linalg
    before = _bindings()
    assert (cohomology, "kernel_basis") in before   # a re-bound import
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert cohomology.kernel_basis is linalg.kernel_basis
        assert hasattr(cohomology.kernel_basis, "__wrapped__")
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in before.items())
        ops = workloads.build_cech_oracle(0, _refs(), None)[:3]
        for op in ops:
            assert op.check(op.run()) is None
    finally:
        rec.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in before.items())
    metrics = spans.per_layer_metrics(rec)
    assert metrics["cohomology.cech_cohomology.calls"] == 3
    assert set(metrics) | {"proc.cpu_s", "trace.overhead_frac"} == \
        set(spans.per_layer_units())


def _refs():
    with open(os.path.join(BENCH, "refs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_wrong_reference_fails_the_run(tmp_path):
    refs = _refs()
    refs["a1"]["stable"]["0,0"] = [2, True]     # the true answer is [1, True]
    tampered = tmp_path / "refs.json"
    tampered.write_text(json.dumps(refs))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "cli-oneshot", "--seed", "0", "--seconds", "1", "--refs", str(tampered)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.split()[:1] == ["fail_frac"] and float(line.split()[1]) > 0
               for line in proc.stdout.splitlines())


def test_second_seed_changes_the_corpus_and_still_checks():
    refs = {"a1": _refs()["a1"]}
    ops0 = workloads.build_corpus_sweep(0, refs, None)
    ops1 = workloads.build_corpus_sweep(1, refs, None)
    p1 = [op for op in ops1 if op.label.startswith("p1-small hom_H")]
    assert workloads.op_list_hash(ops0) != workloads.op_list_hash(ops1)
    assert {op.label for op in ops0 if op.label.startswith("p1-small")} != \
        {op.label for op in p1}
    for op in p1[:40] + [op for op in ops1 if "prop28" in op.label]:
        assert op.check(op.run()) is None, op.label


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        spans.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, list(base), "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(base[:3], [v * 0.8 for v in base[:3]], "lower", 0.1)[0] \
        == "unresolved"


def test_tail_percentile_needs_ten_beyond():
    assert run.tail_percentile(list(range(15))) is None
    pct, value, beyond = run.tail_percentile(list(range(100)))
    assert (pct, beyond) == (90.0, 10) and value == 89
