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


# name -> (handler, help, arguments), each argument a (flag, keywords) pair;
# the order is that of the usage line and of `mfcat -h`
COMMANDS = {
    "verify": (cmd_verify, "check the factorization identities",
               [("--source", {"required": True})]),
    "hom": (cmd_hom, "Hom-set dimension and basis",
            [("--model", {"choices": ("naive", "hyper"), "default": "hyper"}),
             ("--source", {"required": True}),
             ("--target", {"required": True}),
             ("--shift", {"type": int, "default": 0}),
             ("--twist", {"type": int, "default": 0})]),
    "compose": (cmd_compose, "compose two Hom-set basis classes",
                [("--source", {"required": True}),
                 ("--middle", {"required": True}),
                 ("--target", {"required": True}),
                 ("--alpha", {"type": int, "default": 0,
                              "help": "basis index in Hom(source, middle)"}),
                 ("--beta", {"type": int, "default": 0,
                             "help": "basis index in Hom(middle, target)"})]),
    "cech": (cmd_cech, "sheaf cohomology of O(n)",
             [("--space", {"help": "projective space shorthand, e.g. P2"}),
              ("--ring", {"help": "ring JSON file"}),
              ("--twist", {"type": int, "required": True}),
              ("--p", {"type": int, "required": True})]),
    "cech-hh": (cmd_cech_hh, "hypercohomology of the mapping complex",
                [("--source", {"required": True}),
                 ("--target", {"required": True}),
                 ("--q", {"type": int, "default": 0})]),
    "stabilize": (cmd_stabilize, "Koszul stabilization",
                  [("--source", {"required": True}),
                   ("--target", {"required": True}),
                   ("--min-degree", {"type": int, "default": 0})]),
    "contractible": (cmd_contractible, "global and local contractibility",
                     [("--source", {"required": True})]),
    "prop28": (cmd_prop28, "contractibility condition report",
               [("--source", {"required": True})]),
    "coker": (cmd_coker, "cokernel module of e1 over R/(W)",
              [("--source", {"required": True}),
               ("--raw", {"action": "store_true",
                          "help": "skip generator minimalization"})]),
    "from-module": (cmd_from_module,
                    "complete an injective map to a factorization",
                    [("--alpha", {"required": True})]),
    "ext-table": (cmd_ext_table, "graded Ext dimension table",
                  [("--source", {"required": True}),
                   ("--module", {"required": True}),
                   ("--q-lo", {"type": int, "default": 0}),
                   ("--q-hi", {"type": int, "default": 6})]),
    "stable-hom": (cmd_stable_hom, "stable Hom dimension",
                   [("--source", {"required": True}),
                    ("--module", {"required": True})]),
    "rel-perfect": (cmd_rel_perfect,
                    "finite projective dimension over the ambient ring",
                    [("--context", {"required": True}),
                     ("--module", {"required": True}),
                     ("--max-steps", {"type": int, "default": 12})]),
    "suite": (cmd_suite, "deterministic regression objects",
              [("--seed", {"type": int, "default": 0}),
               ("--profile", {"required": True})]),
}


def _named_command(argv):
    """The first bare token of argv, past any `--format X` or
    `--format=X`; None when another option (help, an abbreviation) or
    the end of argv comes first."""
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--format":
            next(tokens, None)
        elif not tok.startswith("-"):
            return tok
        elif not tok.startswith("--format="):
            return None
    return None


def _build_parser(argv):
    """The parser of argv: the top-level one with only the subparser of the
    command argv names, or with every subparser when argv names no command
    of COMMANDS, so that help and a wrong command list them all.  A subset
    names every command in its metavar, which keeps the usage line; the
    full parser leaves the metavar unset, because the errors that name the
    `command` argument would print it in place of `command`."""
    chosen = _named_command(argv)
    subset = chosen in COMMANDS
    p = argparse.ArgumentParser(
        prog="mfcat",
        description="Exact-arithmetic engine for matrix factorizations of a "
                    "section on a projective or affine-graded scheme.")
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(COMMANDS) if subset else None)
    for name, (handler, help_text, arguments) in COMMANDS.items():
        if subset and name != chosen:
            continue
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        for flag, keywords in arguments:
            sp.add_argument(flag, **keywords)
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
    args = _build_parser(argv).parse_args(argv)
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
