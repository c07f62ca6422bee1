"""mfcat benchmark: end-to-end and per-layer metrics on four workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--out results.jsonl]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Load model: a closed loop with one caller.  Each workload runs in its own
child process (so peak memory belongs to it), with BLAS and OpenMP pinned
to one thread; ops are issued one after another and every answer is
checked against the references in ``refs.json``.  With ``--trace 0`` the
last line of output is one JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics from a separate traced pass.
Without ``--workload`` every workload runs and the metric names are
prefixed with the workload.  The exit code is 0 only when every answer
matched its reference.

``--compare`` only reports: per workload and metric, each side's median
and quartiles, the ratio with its base, and a verdict.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus-sweep", "singular-hom", "cech-oracle", "cli-oneshot")
# The metrics BENCHMARK.json bounds.  Their times are CPU time rescaled to
# a reference machine speed by ``speed.py``: on a shared VM the speed one
# process gets changes within seconds, by up to 1.8x, which wall time and
# plain CPU time both show.  The wall-clock figures (run_s, op_p50_ms,
# op_tail_ms, setup_wall_s) are reported beside them.
END_TO_END = ("run_ref_s", "op_ref_p50_ms", "peak_rss_mb", "setup_s")
UNITS = {"run_s": "s", "run_ref_s": "s", "op_p50_ms": "ms",
         "op_ref_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
         "fail_frac": "ratio", "setup_s": "s", "setup_wall_s": "s"}
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Fresh set-up-only processes before and after the timed run; with the run's
# own set-up that makes seven samples spread over the run, of which setup_s is
# the median, so a short slow or fast spell of the machine moves at most a few.
SETUP_BEFORE = 3
SETUP_AFTER = 3
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    for name in THREAD_PINS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("MFCAT_TRUNCATION_MAX", None)
    return env


def run_child(args, timeout):
    """Run worker.py with ``args``; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d:\n%s"
                           % (" ".join(args), proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values):
    """The highest of p99.9 / p99 / p95 / p90 / p75 / p50 with at least ten
    samples beyond it, as (percentile, value, samples beyond), or None."""
    n = len(values)
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = int(n * (100.0 - pct) / 100.0)
        if beyond >= 10:
            return pct, ordered[n - beyond - 1], beyond
    return None


def measure(workload, seed, seconds, trace, refs, spans_path):
    workdir = os.path.join(HERE, "work", "%s-%d" % (workload, os.getpid()))
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--workdir", workdir]
    if refs:
        common += ["--refs", refs]

    def setup_only():
        return run_child(common + ["--setup-only"], CHILD_TIMEOUT_S)

    try:
        setups = [setup_only() for _ in range(SETUP_BEFORE)]
        extra = ["--trace", str(trace)]
        if spans_path:
            extra += ["--spans", spans_path]
        raw = run_child(common + extra, CHILD_TIMEOUT_S)
        setups.append(raw)
        setups += [setup_only() for _ in range(SETUP_AFTER)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = [x for p in raw["passes"] for x in p["lat_ms"]]
    failures = [f for p in raw["passes"] for f in p["failures"]]
    attempted = len(lat)
    if trace:
        failures += raw["traced_pass"]["failures"]
        attempted += len(raw["traced_pass"]["lat_ms"])
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "passes": len(raw["passes"]), "ops_per_pass": raw["n_ops"],
        "pass_wall_s": [p["wall_s"] for p in raw["passes"]],
        "pass_cpu_s": [p["cpu_s"] for p in raw["passes"]],
        "pass_ref_s": [p["ref_s"] for p in raw["passes"]],
        "probes": raw["probes"],
        "op_list_sha256": raw["op_list_sha256"],
        "setup_samples_s": [x["setup_s"] for x in setups],
        "setup_wall_samples_s": [x["setup_wall_s"] for x in setups],
    }
    if "cli_reference" in raw:
        result["cli_reference"] = raw["cli_reference"]
    # Every pass runs the same op list, so each op's latency is first
    # reduced to its median over the passes.
    def op_p50(key):
        return statistics.median(statistics.median(x) for x in
                                 zip(*(p[key] for p in raw["passes"])))

    e2e = {
        "run_s": statistics.median(p["wall_s"] for p in raw["passes"]),
        "run_ref_s": statistics.median(p["ref_s"] for p in raw["passes"]),
        "op_p50_ms": op_p50("lat_ms"),
        "op_ref_p50_ms": op_p50("ref_ms"),
        "peak_rss_mb": raw["peak_rss_mb"],
        "fail_frac": len(failures) / attempted,
        "setup_s": statistics.median(result["setup_samples_s"]),
        "setup_wall_s": statistics.median(result["setup_wall_samples_s"]),
    }
    tail = tail_percentile(lat)
    if tail is not None:
        pct, value, beyond = tail
        e2e["op_tail_ms"] = value
        result["op_tail"] = {"percentile": pct, "ops": len(lat),
                             "ops_beyond": beyond}
    result["end_to_end"] = e2e
    if trace:
        result["per_layer"] = raw["per_layer"]
    return result


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT] + list(args), env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed, results):
    """Where and on what the numbers were measured."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    probe = ("import json, numpy; c = getattr(numpy.__config__, 'CONFIG', {}); "
             "b = c.get('Build Dependencies', {}).get('blas', {}); "
             "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")
    try:
        numpy_v, blas, blas_v = json.loads(subprocess.run(
            [sys.executable, "-c", probe], env=child_env(), capture_output=True,
            text=True, timeout=60).stdout)
    except (ValueError, subprocess.TimeoutExpired):
        numpy_v = blas = blas_v = None
    return {
        "git_sha": sha, "git_dirty": bool(status) if sha else None,
        "python": platform.python_version(), "numpy": numpy_v,
        "blas": "%s %s" % (blas, blas_v) if blas else None,
        "thread_pins": {k: child_env()[k] for k in THREAD_PINS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "seed": seed,
        "op_list_sha256": {r["workload"]: r["op_list_sha256"] for r in results},
    }


def print_report(result):
    print("== %s  seed %d  %s: %d passes x %d ops, %d attempted, %d failed"
          % (result["workload"], result["seed"],
             "traced" if result["trace"] else "untraced", result["passes"],
             result["ops_per_pass"], result["attempted"], result["failed"]))
    print("  pass wall s " + " ".join("%.3f" % w for w in result["pass_wall_s"]))
    for name, value in result["end_to_end"].items():
        note = ""
        if name == "op_tail_ms":
            t = result["op_tail"]
            note = "  (p%g of %d ops, %d beyond)" % (t["percentile"], t["ops"],
                                                     t["ops_beyond"])
        print("  %-12s %14.6f %s%s" % (name, value, UNITS[name], note))
    if "op_tail" not in result:
        print("  op_tail_ms   omitted: fewer than 20 ops")
    for line in result["failures"]:
        print("  FAIL " + line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each result as a JSON line")
    ap.add_argument("--refs", help="reference table (default perfbench/refs.json)")
    ap.add_argument("--spans", default=os.path.join(HERE, "work", "spans"),
                    help="directory for the traced pass's spans (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)

    if args.compare:
        import compare
        compare.main(*args.compare)
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "mfcat", "__init__.py")):
        print("no mfcat sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        spans_path = None
        if args.trace:
            os.makedirs(args.spans, exist_ok=True)
            spans_path = os.path.join(os.path.abspath(args.spans),
                                      "%s-seed%d.json" % (name, args.seed))
        try:
            result = measure(name, args.seed, args.seconds, args.trace,
                             args.refs, spans_path)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print("%s: %s" % (name, exc), file=sys.stderr)
            return 1
        print_report(result)
        results.append(result)
    env = environment(args.seed, results)
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for r in results:
                fh.write(json.dumps(dict(r, environment=env), sort_keys=True) + "\n")

    def metrics_of(r):
        if args.trace:
            import spans
            units = spans.per_layer_units()
            return {k: {"value": r["per_layer"][k], "unit": units[k]} for k in units}
        return {k: {"value": r["end_to_end"][k], "unit": UNITS[k]}
                for k in END_TO_END}

    metrics = {}
    for r in results:
        prefix = "" if args.workload else r["workload"] + "."
        metrics.update({prefix + k: v for k, v in metrics_of(r).items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
