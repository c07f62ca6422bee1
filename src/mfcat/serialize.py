"""JSON schemas for rings, contexts, matrix factorizations, morphisms,
maps of twist sums and module presentations, with strict validation
(unknown fields rejected, errors cite the field path) and canonical
hashing."""

import hashlib
import json

from .fields import field_from_spec
from .mf import MatrixFactorization, MFContext, SheafMap, TwistSum
from .modules import ModulePresentation
from .poly import is_variable_name, parse_poly
from .ring import GradedRing

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Validation failure at a specific field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__("%s: %s" % (path, message))


def _require_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for k in required:
        if k not in obj:
            raise SchemaError("%s.%s" % (path, k), "missing required field")
    allowed = set(required) | set(optional)
    for k in obj:
        if k not in allowed:
            raise SchemaError("%s.%s" % (path, k), "unknown field")


def _string_list(val, path):
    if not isinstance(val, list) or not all(isinstance(s, str) for s in val):
        raise SchemaError(path, "expected a list of strings")
    return val


def _int_list(val, path):
    if not isinstance(val, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) for n in val):
        raise SchemaError(path, "expected a list of integers")
    return val


def _matrix(val, path, nrows, ncols):
    if not isinstance(val, list) or len(val) != nrows:
        raise SchemaError(path, "expected %d rows" % nrows)
    for i, row in enumerate(val):
        if not isinstance(row, list) or len(row) != ncols:
            raise SchemaError("%s[%d]" % (path, i),
                              "expected %d entries" % ncols)
        for j, s in enumerate(row):
            if not isinstance(s, str):
                raise SchemaError("%s[%d][%d]" % (path, i, j),
                                  "expected a polynomial string")
    return val


def _sheaf_map(ring, val, src, dst, path):
    """The SheafMap src -> dst whose entries are the polynomial strings of
    the matrix val; an entry that does not parse, or is not homogeneous of
    degree dst[i] - src[j], is cited at path[i][j]."""
    rows = []
    for i, row in enumerate(_matrix(val, path, dst.rank, src.rank)):
        out = {}
        for j, s in enumerate(row):
            epath = "%s[%d][%d]" % (path, i, j)
            try:
                p = ring.poly(s)
            except ValueError as exc:
                raise SchemaError(epath, str(exc))
            if p.is_zero():
                continue
            want = dst[i] - src[j]
            if not p.is_homogeneous() or p.total_degree() != want:
                raise SchemaError(epath, "must be homogeneous of degree %d, "
                                  "got %s" % (want, ring.to_str(p)))
            out[j] = p
        rows.append(out)
    return SheafMap.from_rows(ring, src, dst, rows)


# -- rings ---------------------------------------------------------------------


def ring_to_json(ring):
    return {"field": ring.field.describe(),
            "variables": list(ring.variables),
            "ideal": [ring.to_str(g) for g in ring.ideal_gens]}


def ring_from_json(obj, path="ring"):
    _require_keys(obj, path, ("field", "variables"), ("ideal",))
    fobj = obj["field"]
    _require_keys(fobj, path + ".field", ("type",), ("p",))
    if "p" in fobj:
        if fobj["type"] == "rational":
            raise SchemaError(path + ".field.p", "unknown field")
        if type(fobj["p"]) is not int:   # rejects bool too
            raise SchemaError(path + ".field.p", "expected an integer")
    try:
        field = field_from_spec(fobj)
    except (ValueError, KeyError) as exc:
        raise SchemaError(path + ".field", str(exc))
    variables = _string_list(obj["variables"], path + ".variables")
    if not variables:
        raise SchemaError(path + ".variables", "at least one variable required")
    for i, name in enumerate(variables):
        if not is_variable_name(name):
            raise SchemaError("%s.variables[%d]" % (path, i),
                              "not a variable name: %r" % name)
    if len(set(variables)) != len(variables):
        raise SchemaError(path + ".variables", "duplicate variable names")
    gens = []
    for i, s in enumerate(_string_list(obj.get("ideal", []), path + ".ideal")):
        gpath = "%s.ideal[%d]" % (path, i)
        try:
            g = parse_poly(s, variables, field)
        except ValueError as exc:
            raise SchemaError(gpath, str(exc))
        if not g.is_zero() and (not g.is_homogeneous()
                                or g.total_degree() < 1):
            raise SchemaError(gpath, "must be homogeneous of degree >= 1")
        gens.append(g)
    return GradedRing(field, variables, gens)


# -- contexts --------------------------------------------------------------------


def context_to_json(ctx):
    out = {"ring": ring_to_json(ctx.ring),
           "W": ctx.ring.to_str(ctx.W), "mode": ctx.mode}
    if ctx.W.is_zero():
        out["twist_step"] = ctx.d
    return out


def context_from_json(obj, path="context"):
    _require_keys(obj, path, ("ring", "W", "mode"), ("twist_step",))
    ring = ring_from_json(obj["ring"], path + ".ring")
    if obj["mode"] not in ("projective", "affine-graded"):
        raise SchemaError(path + ".mode",
                          "must be 'projective' or 'affine-graded'")
    step = obj.get("twist_step")
    if step is not None and type(step) is not int:   # rejects bool too
        raise SchemaError(path + ".twist_step", "expected an integer")
    try:
        W = ring.poly(obj["W"])
        ctx = MFContext(ring, W, mode=obj["mode"],
                        twist_step=step if W.is_zero() else None)
    except ValueError as exc:
        raise SchemaError(path + ".W", str(exc))
    if step is not None and step != ctx.d:
        raise SchemaError(path + ".twist_step", "twist step must equal deg W")
    return ctx


# -- matrix factorizations ---------------------------------------------------------


def mf_to_json(E, include_context=True):
    out = {"E1": list(E.E1.twists), "E0": list(E.E0.twists),
           "e1": E.e1.to_strs(), "e0": E.e0.to_strs()}
    if include_context:
        out["context"] = context_to_json(E.ctx)
    return out


def mf_from_json(obj, path="mf", ctx=None):
    required = ("E1", "E0", "e1", "e0")
    optional = ("context",) if ctx is not None else ()
    if ctx is None:
        required = ("context",) + required
    _require_keys(obj, path, required, optional)
    if ctx is None:
        ctx = context_from_json(obj["context"], path + ".context")
    elif ("context" in obj and
          context_from_json(obj["context"], path + ".context") != ctx):
        raise SchemaError(path + ".context",
                          "does not match the source's context")
    ring = ctx.ring
    E1 = TwistSum(_int_list(obj["E1"], path + ".E1"))
    E0 = TwistSum(_int_list(obj["E0"], path + ".E0"))
    e1 = _sheaf_map(ring, obj["e1"], E1, E0, path + ".e1")
    e0 = _sheaf_map(ring, obj["e0"], E0, E1.twist(ctx.d), path + ".e0")
    try:
        return MatrixFactorization(ctx, e1, e0)
    except ValueError as exc:
        raise SchemaError(path, str(exc))


# -- strict morphisms --------------------------------------------------------------


def morphism_to_json(f):
    """The matrices g1 and g0 of a strict morphism, without its objects."""
    return {"g1": f.g1.to_strs(), "g0": f.g0.to_strs()}


# -- maps of twist sums --------------------------------------------------------------


def map_from_json(obj, path="map"):
    """(ctx, alpha) from {"context", "E1", "E0", "matrix"}: the map alpha:
    E1 -> E0 whose entries are the polynomial strings of the matrix."""
    _require_keys(obj, path, ("context", "E1", "E0", "matrix"))
    ctx = context_from_json(obj["context"], path + ".context")
    E1 = TwistSum(_int_list(obj["E1"], path + ".E1"))
    E0 = TwistSum(_int_list(obj["E0"], path + ".E0"))
    return ctx, _sheaf_map(ctx.ring, obj["matrix"], E1, E0, path + ".matrix")


# -- module presentations ------------------------------------------------------------


def module_to_json(pres, include_ring=True):
    out = {"twists": list(pres.rel.dst), "relations": pres.rel.to_strs()}
    if include_ring:
        out["ring"] = ring_to_json(pres.ring)
    return out


def module_from_json(obj, path="module", ring=None):
    required = ("twists", "relations")
    optional = ("ring",) if ring is not None else ()
    if ring is None:
        required = ("ring",) + required
    _require_keys(obj, path, required, optional)
    if ring is None:
        ring = ring_from_json(obj["ring"], path + ".ring")
    twists = _int_list(obj["twists"], path + ".twists")
    rows = obj["relations"]
    if not isinstance(rows, list) or len(rows) != len(twists):
        raise SchemaError(path + ".relations",
                          "expected one row per generator (%d)" % len(twists))
    ncols = len(rows[0]) if rows and isinstance(rows[0], list) else 0
    rows = _matrix(rows, path + ".relations", len(twists), ncols)
    cols = []
    for c in range(ncols):
        col = []
        for r in range(len(twists)):
            try:
                col.append(ring.poly(rows[r][c]))
            except ValueError as exc:
                raise SchemaError("%s.relations[%d][%d]" % (path, r, c),
                                  str(exc))
        cols.append(col)
    try:
        return ModulePresentation.from_columns(ring, twists, cols)
    except ValueError as exc:
        raise SchemaError(path + ".relations", str(exc))


# -- canonical form and hashing ------------------------------------------------------


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def object_hash(obj):
    """Hash of the canonical JSON form (hex, stable across runs)."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def mf_hash(E):
    return object_hash(mf_to_json(E))
