"""Command-line interface: one job per invocation, JSON or aligned-text
reports, deterministic output (byte-identical apart from timing)."""

import argparse
import json
import os
import sys
import time

from . import __version__
from .cohomology import GlobalSections, cech_cohomology, cech_hypercohomology
from .fields import DEFAULT_PRIME, PrimeField
from .homcat import (class_coords, compose_h, hom_H, hom_naive, is_contractible,
                     locally_contractible, prop28_report, stabilize)
from .hypersurface import (coker_module, ext_gamma_dims, is_relatively_perfect,
                           mf_from_module, stable_hom_dim)
from .mf import mapping_complex, shift_mf, twist_mf, verify_mf
from .ring import GradedRing
from .serialize import (context_from_json, map_from_json, mf_from_json,
                        mf_hash, mf_to_json, module_from_json, module_to_json,
                        morphism_to_json, object_hash, ring_from_json)
from .suite import generate_suite


class CliError(ValueError):
    """A usage or input error; main reports it, as every ValueError, with
    exit code 1."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise CliError("%s: invalid JSON at line %d column %d: %s"
                       % (path, exc.lineno, exc.colno, exc.msg))


def _load_mfs(inputs, *paths):
    """The MFs at `paths`, each after the first read in the first one's
    context; every file's JSON is appended to inputs, in order."""
    mfs = []
    for path in paths:
        obj = _load_json(path)
        mfs.append(mf_from_json(obj, path="%s:mf" % path,
                                ctx=mfs[0].ctx if mfs else None))
        inputs.append(obj)
    return mfs


def _load_module(inputs, path, ring=None):
    """The module at `path`, its JSON appended to inputs.  Given `ring`
    (R/(W) of the source), a file without a ring is read over it and a
    module over any other ring is refused."""
    obj = _load_json(path)
    M = module_from_json(obj, path="%s:module" % path,
                         ring=None if "ring" in obj else ring)
    inputs.append(obj)
    if ring is not None and M.ring != ring:
        raise CliError("module must live over the hypersurface ring R/(W)")
    return M


def _apply_shift_twist(E, shift, twist):
    while shift < 0:
        shift += 2
        twist -= E.ctx.d
    for _ in range(shift):
        E = shift_mf(E)
    if twist:
        E = twist_mf(E, twist)
    return E


def _space_ring(name):
    name = name.upper()
    if not name.startswith("P") or not name[1:].isdigit():
        raise CliError("--space must look like P1, P2, ... (got %r)" % name)
    m = int(name[1:])
    if m < 1:
        raise CliError("--space dimension must be >= 1")
    return GradedRing(PrimeField(DEFAULT_PRIME),
                      ["x%d" % i for i in range(m + 1)])


def _serialize_basis(hs):
    if hs.basis is None:
        return None
    return [{"tower": list(cls.tower),
             "g1": cls.rep.g1.to_strs(), "g0": cls.rep.g0.to_strs()}
            for cls in hs.basis]


# -- command handlers (return (result, exit_code)) ------------------------------


def cmd_verify(args, inputs):
    [E] = _load_mfs(inputs, args.source)
    report = verify_mf(E)
    return report, 0


def cmd_hom(args, inputs):
    E, F = _load_mfs(inputs, args.source, args.target)
    F = _apply_shift_twist(F, args.shift, args.twist)
    if args.model == "naive":
        hs = hom_naive(E, F)
    else:
        hs = hom_H(E, F)
    result = {"model": hs.model, "dim": hs.dimension,
              "tower": list(hs.tower), "basis": _serialize_basis(hs)}
    if hs.certificate is not None:
        result["certificate"] = hs.certificate.describe()
    return result, 0


def cmd_compose(args, inputs):
    E, F, G = _load_mfs(inputs, args.source, args.middle, args.target)
    gs = GlobalSections(E.ctx)
    hom_ef = hom_H(E, F, gs)
    hom_fg = hom_H(F, G, gs)
    if hom_ef.basis is None or hom_fg.basis is None:
        raise CliError("basis extraction unavailable for these Hom-sets")
    if not (0 <= args.alpha < len(hom_ef.basis)):
        raise CliError("--alpha index out of range (dim = %d)" % hom_ef.dimension)
    if not (0 <= args.beta < len(hom_fg.basis)):
        raise CliError("--beta index out of range (dim = %d)" % hom_fg.dimension)
    alpha = hom_ef.basis[args.alpha]
    beta = hom_fg.basis[args.beta]
    comp = compose_h(beta, alpha)
    coords = class_coords(comp, gs)
    field = E.ctx.ring.field
    return {"dim_source_middle": hom_ef.dimension,
            "dim_middle_target": hom_fg.dimension,
            "tower": list(comp.tower),
            "composite_coords": [str(c) for c in coords],
            "composite_is_zero": all(field.is_zero(c) for c in coords),
            "representative": {"g1": comp.rep.g1.to_strs(),
                               "g0": comp.rep.g0.to_strs()}}, 0


def cmd_cech(args, inputs):
    if args.space:
        ring = _space_ring(args.space)
    elif args.ring:
        obj = _load_json(args.ring)
        inputs.append(obj)
        ring = ring_from_json(obj, path="%s:ring" % args.ring)
    else:
        raise CliError("one of --space or --ring is required")
    if not (0 <= args.p <= ring.nvars - 1):
        raise CliError("--p must be in [0, %d]" % (ring.nvars - 1))
    dim, stable = cech_cohomology(ring, args.twist, args.p)
    return {"twist": args.twist, "p": args.p, "dim": dim, "stable": stable}, 0


def cmd_cech_hh(args, inputs):
    E, F = _load_mfs(inputs, args.source, args.target)
    if E.ctx.is_affine:
        raise CliError("cech-hh requires a projective context")
    C = mapping_complex(E, F)
    dim, stable = cech_hypercohomology(C, args.q)
    return {"q": args.q, "dim": dim, "stable": stable}, 0


def cmd_stabilize(args, inputs):
    E, F = _load_mfs(inputs, args.source, args.target)
    if E.ctx.is_affine:
        raise CliError("stabilize requires a projective context")
    Ep, eps, cert = stabilize(E, F, args.min_degree)
    return {"certificate": cert.describe(),
            "stabilized": mf_to_json(Ep, include_context=False),
            "augmentation": morphism_to_json(eps)}, 0


def cmd_contractible(args, inputs):
    [E] = _load_mfs(inputs, args.source)
    glob = is_contractible(E)
    local = locally_contractible(E)
    result = {"contractible": glob, "locally_contractible": local}
    return result, 2 if local == "inconclusive" else 0


def cmd_prop28(args, inputs):
    [E] = _load_mfs(inputs, args.source)
    report = prop28_report(E)
    code = 2 if report["condition4_locally_free_coker"] == "inconclusive" else 0
    return report, code


def cmd_coker(args, inputs):
    [E] = _load_mfs(inputs, args.source)
    pres = coker_module(E, minimal=not args.raw)
    return {"module": module_to_json(pres)}, 0


def cmd_from_module(args, inputs):
    obj = _load_json(args.alpha)
    inputs.append(obj)
    ctx, alpha = map_from_json(obj, path="%s:map" % args.alpha)
    return {"mf": mf_to_json(mf_from_module(ctx, alpha))}, 0


def cmd_ext_table(args, inputs):
    [E] = _load_mfs(inputs, args.source)
    N = _load_module(inputs, args.module, E.ctx.y_ring())
    if args.q_lo > args.q_hi:
        raise CliError("--q-lo (%d) must not exceed --q-hi (%d)"
                       % (args.q_lo, args.q_hi))
    table = ext_gamma_dims(E, N, range(args.q_lo, args.q_hi + 1))
    return {"table": {str(q): table[q] for q in sorted(table)}}, 0


def cmd_stable_hom(args, inputs):
    [E] = _load_mfs(inputs, args.source)
    N = _load_module(inputs, args.module, E.ctx.y_ring())
    dim, stable, q = stable_hom_dim(E, N)
    return {"dim": dim, "stable": stable, "q": q}, 0 if stable else 2


def cmd_rel_perfect(args, inputs):
    if args.max_steps < 1:
        raise CliError("--max-steps must be at least 1 (got %d)"
                       % args.max_steps)
    cobj = _load_json(args.context)
    inputs.append(cobj)
    ctx = context_from_json(cobj, path="%s:context" % args.context)
    M = _load_module(inputs, args.module)
    res = is_relatively_perfect(ctx, M, max_steps=args.max_steps)
    result = {"perfect": res["perfect"], "steps": res["steps"],
              "status": res["status"]}
    return result, 2 if res["perfect"] is None else 0


def cmd_suite(args, inputs):
    ctx, objs = generate_suite(args.seed, args.profile)
    return {"profile": args.profile, "seed": args.seed, "count": len(objs),
            "hashes": [mf_hash(E) for E in objs],
            "objects": [mf_to_json(E) for E in objs]}, 0


# -- argument parsing and report emission ------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="mfcat",
        description="Exact-arithmetic engine for matrix factorizations of a "
                    "section on a projective or affine-graded scheme.")
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("verify", cmd_verify, help="check the factorization identities")
    sp.add_argument("--source", required=True)

    sp = add("hom", cmd_hom, help="Hom-set dimension and basis")
    sp.add_argument("--model", choices=("naive", "hyper"), default="hyper")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--shift", type=int, default=0)
    sp.add_argument("--twist", type=int, default=0)

    sp = add("compose", cmd_compose, help="compose two Hom-set basis classes")
    sp.add_argument("--source", required=True)
    sp.add_argument("--middle", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--alpha", type=int, default=0,
                    help="basis index in Hom(source, middle)")
    sp.add_argument("--beta", type=int, default=0,
                    help="basis index in Hom(middle, target)")

    sp = add("cech", cmd_cech, help="sheaf cohomology of O(n)")
    sp.add_argument("--space", help="projective space shorthand, e.g. P2")
    sp.add_argument("--ring", help="ring JSON file")
    sp.add_argument("--twist", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = add("cech-hh", cmd_cech_hh,
             help="hypercohomology of the mapping complex")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--q", type=int, default=0)

    sp = add("stabilize", cmd_stabilize, help="Koszul stabilization")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--min-degree", type=int, default=0)

    sp = add("contractible", cmd_contractible,
             help="global and local contractibility")
    sp.add_argument("--source", required=True)

    sp = add("prop28", cmd_prop28, help="contractibility condition report")
    sp.add_argument("--source", required=True)

    sp = add("coker", cmd_coker, help="cokernel module of e1 over R/(W)")
    sp.add_argument("--source", required=True)
    sp.add_argument("--raw", action="store_true",
                    help="skip generator minimalization")

    sp = add("from-module", cmd_from_module,
             help="complete an injective map to a factorization")
    sp.add_argument("--alpha", required=True)

    sp = add("ext-table", cmd_ext_table, help="graded Ext dimension table")
    sp.add_argument("--source", required=True)
    sp.add_argument("--module", required=True)
    sp.add_argument("--q-lo", type=int, default=0)
    sp.add_argument("--q-hi", type=int, default=6)

    sp = add("stable-hom", cmd_stable_hom, help="stable Hom dimension")
    sp.add_argument("--source", required=True)
    sp.add_argument("--module", required=True)

    sp = add("rel-perfect", cmd_rel_perfect,
             help="finite projective dimension over the ambient ring")
    sp.add_argument("--context", required=True)
    sp.add_argument("--module", required=True)
    sp.add_argument("--max-steps", type=int, default=12)

    sp = add("suite", cmd_suite, help="deterministic regression objects")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--profile", required=True)

    return p


def _text_lines(value, indent=""):
    lines = []
    if isinstance(value, dict):
        width = max((len(str(k)) for k in value), default=0)
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (indent, k))
                lines.extend(_text_lines(v, indent + "  "))
            else:
                lines.append("%s%-*s  %s" % (indent, width + 1,
                                             str(k) + ":", v))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            if isinstance(v, (dict, list)):
                lines.append("%s[%d]:" % (indent, i))
                lines.extend(_text_lines(v, indent + "  "))
            else:
                lines.append("%s- %s" % (indent, v))
    else:
        lines.append("%s%s" % (indent, value))
    return lines


def _emit(report, fmt, stream):
    if fmt == "json":
        stream.write(json.dumps(report, sort_keys=True, indent=2))
        stream.write("\n")
    else:
        stream.write("\n".join(_text_lines(report)))
        stream.write("\n")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    inputs = []
    t0 = time.perf_counter()
    try:
        result, code = args.handler(args, inputs)
    except (ValueError, RuntimeError, AssertionError) as exc:
        # AssertionError: a self-check of the engine failed (prop28
        # implication, stabilization certificate, Koszul augmentation)
        _emit({"command": "mfcat " + " ".join(argv), "error": str(exc),
               "engine": {"name": "mfcat", "version": __version__}},
              args.format, sys.stderr)
        return 1
    elapsed_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    report = {
        "command": "mfcat " + " ".join(argv),
        "engine": {"name": "mfcat", "version": __version__},
        "input_hash": object_hash(inputs),
        "timing_ms": elapsed_ms,
        "result": result,
    }
    try:
        _emit(report, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the final flush
        # at exit stays silent, and fail without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
