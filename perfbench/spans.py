"""Outside-in span recorder for the mfcat benchmark.

The recorder replaces each listed public function of ``mfcat`` by a timing
wrapper in every namespace that bound it (the defining module, and any
module that imported the name, such as ``cohomology`` holding its own
``kernel_basis``), and puts the original objects back on ``uninstall``.
Spans stay in memory; ``per_layer_metrics`` turns them into the per-layer
numbers, and ``dump`` writes them as JSON.

Hot leaves (``poly``, ``fields``, ``GradedRing.normal_form``) are not
wrapped; their time is charged to the self time of the wrapped caller.
"""

import importlib
import json
import sys
import time

# (module, qualified name) of every wrapped function, grouped by layer.
WRAPPED = (
    ("linalg", "rref"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve"),
    ("linalg", "CosetReducer.reduce"),
    ("cohomology", "cech_horizontal"),
    ("cohomology", "cech_vertical"),
    ("cohomology", "cech_cohomology"),
    ("cohomology", "cech_cohomology_at"),
    ("cohomology", "cech_hypercohomology"),
    ("cohomology", "cech_hypercohomology_at"),
    ("cohomology", "GlobalSections.saturated"),
    ("cohomology", "GlobalSections.sheafmap_matrix"),
    ("cohomology", "vanishing_threshold"),
    ("ring", "GradedRing.mult_matrix"),
    ("ring", "GradedRing.graded_piece_basis"),
    ("ring", "buchberger"),
    ("mf", "mapping_complex"),
    ("mf", "SheafMap.compose"),
    ("mf", "solve_homotopy"),
    ("mf", "verify_mf"),
    ("koszul", "koszul_truncated"),
    ("koszul", "stabilized_mf"),
    ("koszul", "tot"),
    ("homcat", "hom_H"),
    ("homcat", "hom_naive"),
    ("homcat", "stabilize"),
    ("homcat", "is_contractible"),
    ("homcat", "locally_contractible"),
    ("homcat", "prop28_report"),
    ("modules", "fitting_ideal"),
    ("modules", "syzygies"),
    ("modules", "module_buchberger"),
    ("modules", "ModulePresentation.minimalize"),
    ("hypersurface", "coker_module"),
    ("hypersurface", "ext_gamma_dims"),
    ("hypersurface", "stable_hom_dim"),
    ("hypersurface", "is_relatively_perfect"),
    ("hypersurface", "mf_from_module"),
    ("serialize", "mf_from_json"),
    ("serialize", "mf_to_json"),
    ("serialize", "module_from_json"),
    ("serialize", "object_hash"),
    ("cli", "main"),
    ("suite", "generate_suite"),
)

# Derived statistics beyond calls / self_s: name -> unit.
EXTRA_STATS = {
    "linalg.rref.elems": "count",
    "linalg.rref.max_elems": "count",
    "linalg.rref.nnz_frac": "ratio",
    "linalg.rref.bytes_computed": "B",
    "cohomology.cech_hypercohomology_at.max_B": "count",
    "cohomology.schedule.evals_per_answer": "ratio",
    "cohomology.GlobalSections.saturated.miss_frac": "ratio",
    "homcat.stabilize.rank_ratio": "ratio",
    "proc.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


def span_name(module, qualname):
    return "%s.%s" % (module, qualname)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, qualname in WRAPPED:
        name = span_name(module, qualname)
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update(EXTRA_STATS)
    return units


class SpanRecorder:
    """Spans as parallel lists: name, start, end, parent index, op id and
    an optional attribute dict.  Single-threaded: the open spans form a
    stack, so each span's parent is the innermost span open at its start."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.attrs = []
        self.op_id = None
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.attrs.append(None)
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.ends[idx] = self.clock()
        self._stack.pop()

    def _wrapper(self, name, fn):
        begin, end = self.begin, self.end
        attrs_of = _ATTRS.get(name)

        def wrapped(*args, **kwargs):
            idx = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(idx)
            if attrs_of is not None:
                self.attrs[idx] = attrs_of(args, out)
            return out

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    # -- installing and restoring ----------------------------------------

    def install(self):
        """Wrap every function in WRAPPED wherever a loaded ``mfcat``
        module binds it."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "mfcat" or n.startswith("mfcat.")) and m is not None]
        for module, qualname in WRAPPED:
            mod = importlib.import_module("mfcat." + module)
            name = span_name(module, qualname)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrapper(name, original))
                continue
            original = getattr(mod, qualname)
            wrapper = self._wrapper(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Duration of each span minus the time its direct children cover.
        Children of one span never overlap, because calls nest."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(n)]

    def dump(self, path):
        spans = [{"name": self.names[i], "start": self.starts[i],
                  "end": self.ends[i], "parent": self.parents[i],
                  "op": self.ops[i], "attrs": self.attrs[i]}
                 for i in range(len(self.names))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)


# Attributes taken from a call's arguments and result after its span has
# ended: the span itself does not pay for them, its caller's span does, and
# trace.overhead_frac shows the total.


def _rref_attrs(args, _out):
    A = args[0]
    nnz = sum(len(row) - row.count(0) for row in A.rows)
    return {"elems": A.nrows * A.ncols, "nnz": nnz}


def _hyper_at_attrs(args, _out):
    return {"B": args[2]}


def _stabilize_attrs(args, out):
    E, Ep = args[0], out[0]
    src = E.E1.rank + E.E0.rank
    return {"rank_ratio": (Ep.E1.rank + Ep.E0.rank) / src if src else 1.0}


_ATTRS = {
    "linalg.rref": _rref_attrs,
    "cohomology.cech_hypercohomology_at": _hyper_at_attrs,
    "homcat.stabilize": _stabilize_attrs,
}


def per_layer_metrics(rec):
    """calls and self_s per wrapped function plus the derived statistics."""
    selfs = rec.self_times()
    calls = {}
    self_s = {}
    for name, s in zip(rec.names, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
    out = {}
    for module, qualname in WRAPPED:
        name = span_name(module, qualname)
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = self_s.get(name, 0.0)

    elems = nnz = max_elems = 0
    max_b = 0
    ratios = []
    for name, attrs in zip(rec.names, rec.attrs):
        if attrs is None:          # the call raised
            continue
        if name == "linalg.rref":
            elems += attrs["elems"]
            nnz += attrs["nnz"]
            max_elems = max(max_elems, attrs["elems"])
        elif name == "cohomology.cech_hypercohomology_at":
            max_b = max(max_b, attrs["B"])
        elif name == "homcat.stabilize":
            ratios.append(attrs["rank_ratio"])
    out["linalg.rref.elems"] = elems
    out["linalg.rref.max_elems"] = max_elems
    out["linalg.rref.nnz_frac"] = nnz / elems if elems else 0.0
    out["linalg.rref.bytes_computed"] = 8 * elems
    out["cohomology.cech_hypercohomology_at.max_B"] = max_b

    answers = calls.get("cohomology.cech_cohomology", 0) + \
        calls.get("cohomology.cech_hypercohomology", 0)
    evals = calls.get("cohomology.cech_cohomology_at", 0) + \
        calls.get("cohomology.cech_hypercohomology_at", 0)
    out["cohomology.schedule.evals_per_answer"] = evals / answers if answers else 0.0

    # A saturation miss is a saturated() call that computed a child
    # cech_cohomology span instead of reading its cache.
    sat = [i for i, n in enumerate(rec.names)
           if n == "cohomology.GlobalSections.saturated"]
    missed = {rec.parents[i] for i, n in enumerate(rec.names)
              if n == "cohomology.cech_cohomology" and rec.parents[i] >= 0}
    misses = sum(1 for i in sat if i in missed)
    out["cohomology.GlobalSections.saturated.miss_frac"] = \
        misses / len(sat) if sat else 0.0
    out["homcat.stabilize.rank_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
    return out
