"""Report-only comparison of two result sets written by ``run.py --out``.

For each workload and metric it prints both sides' median and quartiles,
the ratio NEW/BASE with its base, wins over index-paired runs, and a
verdict (choosing-metrics section 8):

- improved:   NEW better in at least 9/10 of at least ten pairs, and the
              medians differ by more than BASE's interquartile range;
- worse:      NEW's median worse than BASE's by more than the metric's
              bound (metrics without a bound: the improved rule reversed);
- unresolved: BASE's own spread is wider than the bound and NEW does not
              beat every BASE run, or too few pairs to claim a gain;
- unchanged:  otherwise.

It never fails a build: the exit code is 0 whatever the verdicts.
"""

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_specs():
    """name -> (better, bound or None) from BENCHMARK.json; figures it
    does not list, such as the wall-clock ones, are lower-is-better and
    unbounded."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = {}
    for m in bench["end_to_end"]:
        specs[m["name"]] = (m["better"], m["bound"])
    for m in bench["per_layer"]:
        specs[m["name"]] = (m["better"], None)
    return specs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    b1, bmed, b3 = quartiles(base)
    _n1, nmed, _n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) > 0)
    iqr = b3 - b1
    gain = sign * (bmed - nmed)          # > 0 when NEW is better
    if bound is not None:
        if gain < -bound * abs(bmed):
            return "worse", wins, losses
    elif losses >= WIN_SHARE * len(pairs) and -gain > iqr and pairs:
        return "worse", wins, losses
    if wins >= WIN_SHARE * len(pairs) and gain > iqr and pairs:
        if len(pairs) >= MIN_PAIRS:
            return "improved", wins, losses
        return "unresolved", wins, losses
    if bound is not None and bmed and iqr / abs(bmed) > bound:
        if not all(sign * (a - b) > 0 for a in base for b in new):
            return "unresolved", wins, losses
    return "unchanged", wins, losses


def series(records):
    """(workload, metric) -> values in record order."""
    out = {}
    for r in records:
        metrics = dict(r.get("per_layer") or {})
        if not r["trace"]:
            metrics = dict(r["end_to_end"])
        for name, value in metrics.items():
            out.setdefault((r["workload"], name), []).append(value)
    return out


def main(base_path, new_path):
    specs = metric_specs()
    base, new = series(load(base_path)), series(load(new_path))
    print("%-14s %-46s %-26s %-26s %-18s %-7s %s"
          % ("workload", "metric", "base median [q1, q3]",
             "new median [q1, q3]", "new/base", "win/los", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, name = key
        better, bound = specs.get(name, ("lower", None))
        a, b = base[key], new[key]
        a1, amed, a3 = quartiles(a)
        b1, bmed, b3 = quartiles(b)
        ratio = "%.4f of %.4g" % (bmed / amed, amed) if amed else "base 0"
        v, wins, losses = verdict(a, b, better, bound)
        print("%-14s %-46s %-26s %-26s %-18s %3d/%-3d %s"
              % (workload, name, "%.4g [%.4g, %.4g]" % (amed, a1, a3),
                 "%.4g [%.4g, %.4g]" % (bmed, b1, b3), ratio, wins, losses, v))
    for key in sorted(set(base) ^ set(new)):
        print("%-14s %-46s only in %s" % (key[0], key[1],
                                          "base" if key in base else "new"))
