"""One workload in its own process: set up, run timed passes, check every
answer, and print the raw measurements as one JSON line.

Run by ``run.py``; not meant to be called by hand.  The parent pins BLAS
and OpenMP to one thread through the environment before starting it.
"""

import argparse
import json
import os
import resource
import sys
import time

T_START = time.perf_counter()
CPU_START = time.process_time()

import speed  # noqa: E402  (standard library only)

SAMPLER = speed.Sampler()
SETUP_MARK = SAMPLER.mark()
SAMPLER.start()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mfcat  # noqa: E402  (timed as part of set-up)
import workloads  # noqa: E402

REFS = os.path.join(HERE, "refs.json")


def run_pass(ops, recorder=None, sampler=None):
    """Time every op, in wall-clock and in process CPU time, and keep its
    answer, or its exception text.  With a ``sampler``, probe times are
    taken out and each op also gets its CPU time at the reference speed."""
    lat_ms = []
    cpu_ms = []
    ref_ms = []
    answers = []
    if sampler is not None:
        sampler.probe()
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op_id = i
        mark = sampler.mark() if sampler is not None else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            answer = (True, op.run())
        except Exception as exc:   # a failed op is counted, not fatal
            answer = (False, "%s: %s" % (type(exc).__name__, exc))
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        if sampler is not None:
            cpu, wall, ref = sampler.since(mark, cpu, wall)
            ref_ms.append(ref * 1000.0)
        lat_ms.append(wall * 1000.0)
        cpu_ms.append(cpu * 1000.0)
        answers.append(answer)
    timing = {"wall_s": sum(lat_ms) / 1000.0, "cpu_s": sum(cpu_ms) / 1000.0,
              "lat_ms": lat_ms, "cpu_ms": cpu_ms}
    if sampler is not None:
        timing.update(ref_s=sum(ref_ms) / 1000.0, ref_ms=ref_ms)
    return timing, answers


def check_pass(ops, answers):
    """Messages for the answers that differ from their reference."""
    failures = []
    for op, (ok, answer) in zip(ops, answers):
        msg = op.check(answer) if ok else answer
        if msg is not None:
            failures.append("%s: %s" % (op.label, msg))
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", default=REFS)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="write the traced pass's spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with open(args.refs, encoding="utf-8") as fh:
        refs = json.load(fh)
    stored_cli = str(args.seed) in refs["cli"]
    build = workloads.BUILDERS[args.workload]

    def fresh_ops():
        return build(args.seed, refs, args.workdir)

    ops = fresh_ops()
    cpu, wall = time.process_time() - CPU_START, time.perf_counter() - T_START
    cpu, wall, ref = SAMPLER.since(SETUP_MARK, cpu, wall)
    setup = {"setup_s": ref, "setup_cpu_s": cpu, "setup_wall_s": wall}
    if args.setup_only:
        SAMPLER.stop()
        print(json.dumps(setup))
        return 0

    out = dict(setup, workload=args.workload, seed=args.seed,
               n_ops=len(ops), op_list_sha256=workloads.op_list_hash(ops),
               mfcat_version=mfcat.__version__)
    if args.workload == "cli-oneshot":
        out["cli_reference"] = "stored" if stored_cli else "first-pass"

    # Passes repeat until the next one would end past --seconds; there is
    # always at least one, and a traced run times one untraced pass as the
    # base of the overhead.  Each pass gets freshly built inputs.
    passes = []
    t_begin = time.perf_counter()
    while True:
        timing, answers = run_pass(ops, sampler=SAMPLER)
        timing["failures"] = check_pass(ops, answers)
        passes.append(timing)
        elapsed = time.perf_counter() - t_begin
        if args.trace or elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
        ops = fresh_ops()
    SAMPLER.stop()
    out["passes"] = passes
    out["probes"] = len(SAMPLER.samples)

    if args.trace:
        import spans
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            recorder.op_id = "build"
            ops = fresh_ops()
            # Probes between ops only: a timer probe inside a span would
            # count in that span's self time.
            traced, answers = run_pass(ops, recorder, speed.Sampler())
        finally:
            recorder.uninstall()
        traced["failures"] = check_pass(ops, answers)
        if args.spans:
            recorder.dump(args.spans)
        layer = spans.per_layer_metrics(recorder)
        layer["proc.cpu_s"] = passes[0]["cpu_s"]
        layer["trace.overhead_frac"] = traced["ref_s"] / passes[0]["ref_s"] - 1.0
        out["traced_pass"] = traced
        out["per_layer"] = layer

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        SAMPLER.stop()
