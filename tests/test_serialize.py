"""JSON round-trips, schema validation errors, and canonical hashing."""

import pytest

from mfcat.serialize import (SchemaError, canonical_dumps, context_from_json,
                             context_to_json, map_from_json, mf_from_json,
                             mf_hash, mf_to_json, module_from_json,
                             module_to_json, morphism_to_json, object_hash,
                             ring_from_json, ring_to_json)
from mfcat.mf import SheafMap, StrictMorphism, TwistSum
from mfcat.modules import ModulePresentation


class TestRoundTrips:
    def test_ring(self, ring_p2):
        assert ring_from_json(ring_to_json(ring_p2)) == ring_p2

    def test_context(self, ctx_a1):
        ctx2 = context_from_json(context_to_json(ctx_a1))
        assert ctx2 == ctx_a1

    def test_mf(self, E_u):
        E2 = mf_from_json(mf_to_json(E_u))
        assert E2.describe() == E_u.describe()
        assert mf_hash(E2) == mf_hash(E_u)

    def test_morphism(self, E_u):
        # a morphism is written as its two matrices, without its objects;
        # read back over those objects they give the same morphism
        f = StrictMorphism.identity(E_u)
        obj = morphism_to_json(f)
        assert sorted(obj) == ["g0", "g1"]
        ring = E_u.ctx.ring
        g1, g0 = (SheafMap(ring, ts, ts, [[ring.poly(s) for s in row]
                                          for row in obj[key]])
                  for key, ts in (("g1", E_u.E1), ("g0", E_u.E0)))
        f2 = StrictMorphism(E_u, E_u, g1, g0)
        assert f2.describe() == f.describe()

    def test_module(self, ring_p1):
        M = ModulePresentation.from_columns(
            ring_p1, [0, -1], [[ring_p1.poly("x0"), ring_p1.poly("1")]])
        M2 = module_from_json(module_to_json(M))
        assert M2.ring == M.ring and M2.rel == M.rel

    def test_module_zero_column_dropped(self, ring_p1):
        obj = {"ring": ring_to_json(ring_p1), "twists": [0],
               "relations": [["x0", "0", "x1^2"]]}
        M = module_from_json(obj)
        assert M.rel.src == TwistSum([-1, -2])
        assert module_to_json(M)["relations"] == [["x0", "x1^2"]]


class TestValidation:
    def test_unknown_field_rejected(self, E_u):
        obj = mf_to_json(E_u)
        obj["extra"] = 1
        with pytest.raises(SchemaError) as exc:
            mf_from_json(obj)
        assert "mf.extra" in str(exc.value)

    def test_missing_field_path(self, E_u):
        obj = mf_to_json(E_u)
        del obj["e1"]
        with pytest.raises(SchemaError) as exc:
            mf_from_json(obj)
        assert "mf.e1" in str(exc.value)

    def test_bad_polynomial_path(self, E_u):
        obj = mf_to_json(E_u)
        obj["e1"][0][0] = "x9 + 1"
        with pytest.raises(SchemaError) as exc:
            mf_from_json(obj)
        assert "mf.e1[0][0]" in str(exc.value)

    def test_wrong_shape(self, E_u):
        obj = mf_to_json(E_u)
        obj["e1"] = [[]]
        with pytest.raises(SchemaError):
            mf_from_json(obj)

    def test_bad_mode(self, ctx_a1):
        obj = context_to_json(ctx_a1)
        obj["mode"] = "weird"
        with pytest.raises(SchemaError) as exc:
            context_from_json(obj)
        assert "context.mode" in str(exc.value)

    @pytest.mark.parametrize("step", [1.7, True, "abc", [1]])
    def test_twist_step_must_be_an_integer(self, ring_p1, step):
        obj = {"ring": ring_to_json(ring_p1), "W": "0", "mode": "projective",
               "twist_step": step}
        with pytest.raises(SchemaError) as exc:
            context_from_json(obj)
        assert exc.value.path == "context.twist_step"

    @pytest.mark.parametrize("field, message", [
        ({"type": "prime", "p": 32003.9}, "expected an integer"),
        ({"type": "prime", "p": 7.0}, "expected an integer"),
        ({"type": "prime", "p": "7"}, "expected an integer"),
        ({"type": "prime", "p": True}, "expected an integer"),
        ({"type": "prime", "p": None}, "expected an integer"),
        ({"type": "prime", "p": [7]}, "expected an integer"),
        ({"type": "rational", "p": 5}, "unknown field"),
    ])
    def test_field_p_must_be_an_integer(self, field, message):
        obj = {"field": field, "variables": ["x0", "x1"]}
        with pytest.raises(SchemaError,
                           match="^ring.field.p: %s$" % message) as exc:
            ring_from_json(obj)
        assert exc.value.path == "ring.field.p"

    def test_field_p_default(self):
        obj = {"field": {"type": "prime"}, "variables": ["x0"]}
        assert ring_from_json(obj).field.p == 32003

    def test_duplicate_variables_cite_variables(self):
        obj = {"field": {"type": "prime"}, "variables": ["x", "y", "x"]}
        with pytest.raises(SchemaError, match="^ring.variables: duplicate "
                           "variable names$") as exc:
            ring_from_json(obj)
        assert exc.value.path == "ring.variables"

    @pytest.mark.parametrize("names, i", [
        (["x", "y z"], 1), (["2"], 0), ([""], 0), (["x", "x-1"], 1),
        (["x^2", "y"], 0), (["1x"], 0), (["x", " y"], 1),
    ])
    def test_unreadable_variable_names_rejected(self, names, i):
        # a name that parse_poly cannot read back as one variable
        obj = {"field": {"type": "prime"}, "variables": names}
        with pytest.raises(SchemaError, match="not a variable name") as exc:
            ring_from_json(obj)
        assert exc.value.path == "ring.variables[%d]" % i

    @pytest.mark.parametrize("ideal, i, message", [
        (["x*y", "x + 1"], 1, "must be homogeneous of degree >= 1"),
        (["3"], 0, "must be homogeneous of degree >= 1"),
        (["x^2", "x*y", "z"], 2, "unknown variable 'z'"),
    ])
    def test_bad_ideal_generator_cites_index(self, ideal, i, message):
        obj = {"field": {"type": "prime"}, "variables": ["x", "y"],
               "ideal": ideal}
        with pytest.raises(SchemaError, match=message) as exc:
            ring_from_json(obj)
        assert exc.value.path == "ring.ideal[%d]" % i

    def test_readable_variable_names_accepted(self):
        names = ["x", "x0", "_t", "Y_12"]
        obj = {"field": {"type": "prime"}, "variables": names}
        assert ring_from_json(obj).variables == names

    def test_twist_step_must_equal_deg_w(self, ctx_a1):
        obj = context_to_json(ctx_a1)
        obj["twist_step"] = ctx_a1.d
        assert context_from_json(obj) == ctx_a1
        obj["twist_step"] = ctx_a1.d + 1
        with pytest.raises(SchemaError) as exc:
            context_from_json(obj)
        assert exc.value.path == "context.twist_step"

    def test_twist_step_of_w_zero(self, ring_p1):
        obj = {"ring": ring_to_json(ring_p1), "W": "0", "mode": "projective",
               "twist_step": 2}
        ctx = context_from_json(obj)
        assert ctx.W.is_zero() and ctx.d == 2
        assert context_to_json(ctx) == obj

    def test_non_factorization_rejected(self, E_u):
        obj = mf_to_json(E_u)
        obj["e0"][0][0] = "u"  # u*u != uv
        with pytest.raises(SchemaError):
            mf_from_json(obj)

    @pytest.mark.parametrize("twists, relations, message", [
        ([0], [["x0 + 1"]], r"relation entry \(0, 0\) not homogeneous"),
        ([0, -1], [["x0"], ["x0"]],
         "relation column 0 is not twist-consistent"),
    ])
    def test_bad_module_column(self, ring_p1, twists, relations, message):
        obj = {"ring": ring_to_json(ring_p1), "twists": twists,
               "relations": relations}
        with pytest.raises(SchemaError, match="^module.relations: " + message):
            module_from_json(obj)

    def test_map(self, ctx_p2):
        obj = {"context": context_to_json(ctx_p2), "E1": [-1], "E0": [0],
               "matrix": [["x2"]]}
        ctx, alpha = map_from_json(obj)
        assert ctx == ctx_p2 and alpha.to_strs() == [["x2"]]
        obj["matrix"] = [["x2^2"]]
        with pytest.raises(SchemaError, match=r"^map\.matrix\[0\]\[0\]: "):
            map_from_json(obj)


class TestHashing:
    def test_canonical_order_insensitive(self):
        a = {"x": 1, "y": [2, 3]}
        b = {"y": [2, 3], "x": 1}
        assert canonical_dumps(a) == canonical_dumps(b)
        assert object_hash(a) == object_hash(b)

    def test_distinct_objects_distinct_hashes(self, E_u, E_v):
        assert mf_hash(E_u) != mf_hash(E_v)
