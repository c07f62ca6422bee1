"""Groebner bases, normal forms and graded pieces of quotient rings."""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcat import ring as ring_module
from mfcat.cohomology import cech_cohomology, local_duality
from mfcat.fields import PrimeField, RationalField
from mfcat.koszul import covering_forms
from mfcat.modules import (ModulePresentation, _module_key, minimal_columns,
                           module_buchberger)
from mfcat.poly import (Poly, grevlex_key, mono_div, mono_divides, mono_lcm,
                        mono_mul, parse_poly)
from mfcat.ring import (GradedRing, binom, buchberger, lead,
                        monomials_of_degree, reduce_poly, reduce_terms)

from reference import block_rows, max_ideal_degree


def poly_strategy(ring, max_terms=4, max_deg=3):
    mono = st.tuples(*[st.integers(0, max_deg) for _ in range(ring.nvars)])
    term = st.tuples(mono, st.integers(0, ring.field.p - 1))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (Poly.monomial(ring.field, ring.nvars, e, c) for e, c in terms),
            ring.zero()))


class TestPolyEquality:
    @pytest.mark.parametrize("make_field", [lambda: PrimeField(32003),
                                            RationalField], ids=["Fp", "Q"])
    def test_equal_from_different_objects(self, make_field):
        """Equal polynomials built separately, over equal fields that are
        different objects, compare and hash equal; a different field,
        number of variables or term does not."""
        s, names = "x^2 - 3*x*y + 1/2*y^2 + 7", ["x", "y"]
        f = parse_poly(s, names, make_field())
        g = parse_poly(s, names, make_field())
        assert f is not g and f.field is not g.field
        assert f.terms is not g.terms
        assert f == g and g == f and hash(f) == hash(g)
        assert {f: 1}[g] == 1
        other = PrimeField(7) if isinstance(f.field, RationalField) \
            else RationalField()
        assert f != parse_poly("x^2 - 3*x*y + 2*y^2 + 7", names, f.field)
        assert Poly(f.field, 2, {}) != Poly(g.field, 3, {})
        assert Poly(f.field, 1, {(1,): 1}) != Poly(other, 1, {(1,): 1})
        assert PrimeField(7) == PrimeField(7) != PrimeField(11)
        assert Poly(PrimeField(7), 1, {(1,): 1}) != \
            Poly(PrimeField(11), 1, {(1,): 1})
        assert f != s and f != 7


class TestNormalForm:
    def test_parse_and_reduce(self, ring_p2):
        f = ring_p2.poly("x0^2 + 2*x0*x1 - x2^2")
        assert f == ring_p2.poly(ring_p2.to_str(f))
        assert f.total_degree() == 2 and f.is_homogeneous()

    def test_quotient_reduction(self, Fp):
        ring = GradedRing(Fp, ["x", "y"], ideal_strings=["x^2"])
        assert ring.is_zero(ring.poly("x^3 + x^2*y"))
        assert not ring.is_zero(ring.poly("x*y"))

    def test_groebner_nontrivial(self, Fp):
        ring = GradedRing(Fp, ["x", "y", "z"],
                          ideal_strings=["x^2 - y*z", "x*y - z^2"])
        # the reduced GB closes up under S-polynomials
        assert len(ring.groebner) >= 2
        f = ring.poly("x^3")
        assert ring.normal_form(f) == f  # idempotent

    def test_nonhomogeneous_ideal_rejected(self, Fp):
        with pytest.raises(ValueError):
            GradedRing(Fp, ["x", "y"], ideal_strings=["x^2 + y"])

    def test_rational_field(self):
        ring = GradedRing(RationalField(), ["x", "y"], ideal_strings=["x*y"])
        f = ring.poly("1/2*x^2 + x*y")
        assert ring.to_str(f) == "1/2*x^2"


class TestParse:
    @pytest.mark.parametrize("field, s, coeff", [
        (PrimeField(7), "1/7*x*y", "1/7"),
        (PrimeField(7), "x + 3/14*y", "3/14"),
        (RationalField(), "1/0*x", "1/0"),
    ])
    def test_zero_denominator_is_a_value_error(self, field, s, coeff):
        with pytest.raises(ValueError, match="coefficient %s has a zero "
                           "denominator in %r" % (coeff, field)):
            parse_poly(s, ["x", "y"], field)

    def test_nonzero_denominator_in_f_p(self):
        # 1/2 = 4 in F_7
        assert parse_poly("1/2*x", ["x"], PrimeField(7)) == \
            parse_poly("4*x", ["x"], PrimeField(7))


class TestPolyHash:
    @pytest.mark.parametrize("field", [PrimeField(7), RationalField()])
    def test_independent_of_term_order(self, field):
        terms = {(2, 0): field.of(1), (1, 1): field.of(3), (0, 2): field.of(5)}
        f = Poly(field, 2, terms)
        g = Poly(field, 2, dict(reversed(list(terms.items()))))
        assert list(f.terms) != list(g.terms)
        assert f == g and hash(f) == hash(g)
        x, y = Poly.variable(field, 2, 0), Poly.variable(field, 2, 1)
        assert hash(x * x + y) == hash(y + x * x)
        assert {f: 1}[g] == 1


ENGINE_FIELDS = [PrimeField(32003), PrimeField(7), RationalField()]


def s_pairs_reduce_to_zero(F, basis, key, nvars):
    """The Groebner property: the S-pair of every two elements whose leading
    terms share a component (the block after the nvars exponents) reduces
    to zero against basis."""
    for i, f in enumerate(basis):
        for g in basis[i + 1:]:
            (mf, cf), (mg, cg) = lead(f, key), lead(g, key)
            if mf[nvars:] != mg[nvars:]:
                continue
            lcm = mono_lcm(mf, mg)
            s = {}
            for h, m, c in ((f, mf, cf), (g, mg, F.neg(cg))):
                u = F.div(F.one(), c)
                for e, x in h.items():
                    e = mono_mul(e, mono_div(lcm, m))
                    s[e] = F.add(s.get(e, F.zero()), F.mul(u, x))
            s = {e: x for e, x in s.items() if not F.is_zero(x)}
            if s and reduce_terms(F, s, basis, key):
                return False
    return True


def one_hot(ring, entries):
    """The vector (entries) of S^len(entries) as one-hot term dicts."""
    n = len(entries)
    out = {}
    for r, s in enumerate(entries):
        unit = tuple(int(k == r) for k in range(n))
        for e, c in parse_poly(s, ring.variables, ring.field).terms.items():
            out[e + unit] = c
    return out


class TestGroebnerEngine:
    @pytest.mark.parametrize("F", ENGINE_FIELDS)
    def test_twisted_cubic_reduced_basis(self, F):
        # the 2x2 minors of [[x, y, z], [y, z, w]]: already a Groebner basis
        # in grevlex, with leads z^2, y*z, y^2
        v = ["x", "y", "z", "w"]
        minors = [parse_poly(s, v, F) for s in
                  ("x*z - y^2", "x*w - y*z", "y*w - z^2")]
        want = [parse_poly(s, v, F) for s in
                ("z^2 - y*w", "y*z - x*w", "y^2 - x*z")]
        assert buchberger(minors) == want
        # the same ideal from generators that need interreduction
        m0, m1, m2 = minors
        assert buchberger([m2, m0 - m1, m1 + m2, m0 * m1]) == want

    @pytest.mark.parametrize("F", ENGINE_FIELDS)
    def test_ideal_basis_is_reduced_groebner(self, F):
        v = ["x", "y", "z"]
        gens = [parse_poly(s, v, F) for s in
                ("x^2 - y*z", "x*y - z^2", "2*x*z + y^2")]
        basis = buchberger(gens)
        terms = [g.terms for g in basis]
        assert s_pairs_reduce_to_zero(F, terms, grevlex_key, 3)
        assert all(reduce_poly(g, basis).is_zero() for g in gens)
        # reduced: monic, and no term of one element is divisible by the
        # leading monomial of another
        for i, g in enumerate(basis):
            assert g.leading_term()[1] == F.one()
            for h in basis[:i] + basis[i + 1:]:
                lm = h.leading_term()[0]
                assert not any(mono_divides(lm, e) for e in g.terms)
        assert len(basis) > len(gens)   # not a Groebner basis as given

    @pytest.mark.parametrize("F", ENGINE_FIELDS)
    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_submodule_basis_is_groebner(self, F, split):
        ring = GradedRing(F, ["x", "y", "z"])
        vecs = [one_hot(ring, pair) for pair in
                (("x", "y"), ("y", "z"), ("z^2", "x*y"))]
        key = _module_key(3, split)
        basis = module_buchberger(vecs, F, 3, split)
        assert len(basis) > len(vecs)
        assert all(lead(b, key)[1] == F.one() for b in basis)
        # no S-pair across components: every term stays one-hot
        assert all(sum(e[3:]) == 1 for b in basis for e in b)
        assert s_pairs_reduce_to_zero(F, basis, key, 3)
        assert not any(reduce_terms(F, v, basis, key) for v in vecs)

    @pytest.mark.parametrize("F", ENGINE_FIELDS)
    def test_one_component_matches_ideal(self, F):
        ring = GradedRing(F, ["x", "y", "z"])
        gens = ["x^2 - y*z", "x*y - z^2", "x*z"]
        basis = module_buchberger([one_hot(ring, [g]) for g in gens], F, 3, 1)
        ideal = buchberger([ring.poly(g) for g in gens])
        strip = [Poly(F, 3, {e[:3]: c for e, c in b.items()}) for b in basis]
        assert buchberger(strip) == ideal
        assert s_pairs_reduce_to_zero(F, [g.terms for g in strip],
                                      grevlex_key, 3)

    @pytest.mark.parametrize("F", ENGINE_FIELDS)
    def test_in_submodule(self, F):
        """Submodule membership as minimal_columns decides it, by linear
        algebra in one graded piece: a first column is dropped exactly
        when it lies in the R-submodule of the columns after it."""
        # (0, y^2) = y*(x, y) over k[x,y,z]/(xy), but not over k[x,y,z];
        # (0, y) is in neither
        gens = [("x", "y"), ("z", "0")]
        for ring, member in ((GradedRing(F, ["x", "y", "z"],
                                         ideal_strings=["x*y"]), True),
                             (GradedRing(F, ["x", "y", "z"]), False)):
            def in_submodule(v):
                kept = minimal_columns(ModulePresentation.from_columns(
                    ring, [0, 0], [list(map(ring.poly, c))
                                   for c in (v, *gens)]).rel)
                assert kept.src.rank >= 2
                return kept.src.rank == 2
            assert in_submodule(["0", "y^2"]) is member
            assert not in_submodule(["0", "y"])
            # z*(x, y) + 3*x*(z, 0)
            assert in_submodule(["4*x*z", "y*z"])


class TestGradedPieces:
    def test_polynomial_hilbert(self, ring_p2):
        # dim k[x0,x1,x2]_n = binom(n+2, 2)
        for n in range(6):
            assert ring_p2.hilbert(n) == binom(n + 2, 2)

    def test_negative_degree_empty(self, ring_p1):
        assert ring_p1.graded_piece_basis(-1) == []

    def test_hypersurface_hilbert(self, Fp):
        ring = GradedRing(Fp, ["x", "y", "z"], ideal_strings=["x*y"])
        # h(n) = binom(n+2,2) - binom(n,2)
        for n in range(6):
            assert ring.hilbert(n) == binom(n + 2, 2) - binom(n, 2)

    def test_piece_coords_roundtrip(self, ring_p2):
        f = ring_p2.poly("x0^2 - 3*x1*x2")
        h = ring_p2.poly("x1")
        coords = ring_p2.coords([f, h], [2, 1])
        basis = ring_p2.graded_piece_basis(2)
        assert len(coords) == 3 and max(coords) == len(basis) + 1
        g = ring_p2.zero()
        for i, c in coords.items():
            if i < len(basis):
                g = g + Poly.monomial(ring_p2.field, 3, basis[i], c)
        assert g == f
        assert ring_p2.polys_from_coords(coords, [2, 1]) == [f, h]

    def test_mult_matrix_matches_multiplication(self, Fp):
        ring = GradedRing(Fp, ["x", "y"], ideal_strings=["x^3"])
        p = ring.poly("x + y")
        rows = block_rows(ring.mult_matrix(p, 2))
        src = ring.graded_piece_basis(2)
        assert len(rows) == ring.hilbert(3)
        assert all(0 <= c < len(src) and v for row in rows for c, v in
                   row.items())
        for j, m in enumerate(src):
            prod = ring.normal_form(
                p * Poly.monomial(ring.field, ring.nvars, m))
            col = ring.coords([prod], [3])
            assert {i: row[j] for i, row in enumerate(rows) if j in row} \
                == col


def generic_mult_matrix(ring, p, n):
    """mult_matrix by the generic construction: the normal form of p times
    each source monomial, on every ring."""
    p = ring.normal_form(p)
    dst = ring.graded_piece_basis(n + p.total_degree()) if p.terms else []
    index = {m: i for i, m in enumerate(dst)}
    rows = [{} for _ in dst]
    for j, m in enumerate(ring.graded_piece_basis(n)):
        mono = Poly.monomial(ring.field, ring.nvars, m)
        for e, c in ring.normal_form(p * mono).terms.items():
            rows[index[e]][j] = c
    return rows


MULT_RINGS = [GradedRing(F, ["x", "y", "z"], ideal_strings=ideal)
              for F in (PrimeField(7), PrimeField(32003), RationalField())
              for ideal in ([], ["x*y"], ["x*y - z^2", "x^3"])]


class TestMultMatrix:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_generic_construction(self, data):
        """The rows view of the cached block (its rows, values and the key
        order of each row) agrees with the generic construction, on
        polynomial and quotient rings over F_p and Q, for either sign of
        p; the block records its shape and holds only nonzeros, row-major
        with increasing columns."""
        ring = data.draw(st.sampled_from(MULT_RINGS))
        d = data.draw(st.integers(0, 3))
        n = data.draw(st.integers(-1, 4))
        monos = monomials_of_degree(3, d)
        terms = data.draw(st.lists(
            st.tuples(st.sampled_from(monos), st.integers(-9, 9),
                      st.integers(1, 4)), max_size=4))
        p = sum((Poly.monomial(ring.field, ring.nvars, e, Fraction(a, b))
                 for e, a, b in terms), ring.zero())
        for q in (p, -p):
            blk = ring.mult_matrix(q, n)
            assert ring.mult_matrix(q, n) is blk
            want = generic_mult_matrix(ring, q, n)
            assert (blk.nrows, blk.ncols) == (len(want), ring.hilbert(n))
            assert all(v for _i, _k, v in blk.entries)
            assert [e[:2] for e in blk.entries] == \
                sorted(e[:2] for e in blk.entries)
            assert [list(r.items()) for r in block_rows(blk)] == \
                [list(r.items()) for r in want]


def coords_mult_matrix(ring, p, n):
    """mult_matrix built column by column, without it: column j holds the
    coordinates of NF(p * m) for the j-th degree-n standard monomial m."""
    q = ring.normal_form(p)
    dst = ring.graded_piece_basis(n + q.total_degree()) if q.terms else []
    rows = [{} for _ in dst]
    for j, m in enumerate(ring.graded_piece_basis(n)):
        prod = ring.normal_form(p * Poly.monomial(ring.field, ring.nvars, m))
        if q.terms:
            for i, c in ring.coords([prod], [n + q.total_degree()]).items():
                rows[i][j] = c
        else:
            assert prod.is_zero()
    return rows


# (variables, ideal, p not in normal form, p with normal form 0)
MULT_CASES = {
    "twisted-cubic": (["x", "y", "z", "w"],
                      ["x*z - y^2", "y*w - z^2", "x*w - y*z"],
                      "y^2 + 3*x*w - 2/5*z^2", "(x*z - y^2)*(x - 4*w)"),
    "conic": (["x", "y", "z"], ["x^2 - y*z"],
              "x^3 - 7*x*y*z + z^3", "(x^2 - y*z)*(2*y + z)"),
    "nodal": (["x", "y", "z"], ["x*y"],
              "x*y + 3*x^2 - 1/2*y*z", "x*y*(x - z)"),
    # x^2 -> x*y: times x, the normal form x*y + x*z - y*z gives
    # x*y^2 + x*y*z - x*y*z, a reduced product that cancels a standard one
    "two-lines": (["x", "y", "z"], ["x^2 - x*y"],
                  "x^2 + x*z - y*z", "(x^2 - x*y)*(y + 2*z)"),
}


class TestMultMatrixByCoords:
    """mult_matrix against an assembly that does not call it, on
    non-monomial and monomial ideals over F_p and Q, for p given out of
    normal form or with normal form 0, and with the given key or the
    normal-form key looked up first."""

    @pytest.mark.parametrize("field", [PrimeField(32003), RationalField()],
                             ids=["Fp", "Q"])
    @pytest.mark.parametrize("case", list(MULT_CASES))
    @pytest.mark.parametrize("nf_first", [False, True],
                             ids=["given-first", "nf-first"])
    def test_matches_coords(self, field, case, nf_first):
        variables, ideal, *given = MULT_CASES[case]
        ring = GradedRing(field, variables, ideal_strings=ideal)
        for s, vanishes in zip(given, (False, True)):
            p = parse_poly(s, variables, field)
            q = ring.normal_form(p)
            assert q != p and q.is_zero() == vanishes
            for n in range(4):
                keys = (q, p) if nf_first else (p, q)
                first, second = (ring.mult_matrix(k, n) for k in keys)
                assert second is first
                assert first.ncols == ring.hilbert(n)
                assert [list(r.items()) for r in block_rows(first)] == \
                    [list(r.items()) for r in coords_mult_matrix(ring, p, n)]
                assert ring.mult_matrix(p, n) is first


class TestSharedTables:
    """Graded-piece bases and multiplication blocks are kept per ring value
    and shared by the equal rings alive at the same time; the other memos
    stay on each ring object."""

    NODAL = (["x", "y", "z"], ["x*y"])

    @pytest.mark.parametrize("make_field", [lambda: PrimeField(32003),
                                            RationalField], ids=["Fp", "Q"])
    def test_equal_rings_share(self, make_field):
        """Equal rings built separately, over equal fields that are
        different objects, return the same Block and piece list; the
        shared block equals one built afresh."""
        variables, ideal = self.NODAL
        r1 = GradedRing(make_field(), variables, ideal_strings=ideal)
        r2 = GradedRing(make_field(), variables, ideal_strings=ideal)
        assert r1 == r2 and r1.field is not r2.field
        for s in ("x + 3*z", "x*y + y^2 - 1/2*z^2"):
            for n in range(4):
                blk = r1.mult_matrix(r1.poly(s), n)
                assert r2.mult_matrix(r2.poly(s), n) is blk
                fresh = r2._mult_block(r2.poly(s), n)
                assert (fresh.nrows, fresh.ncols, fresh.entries) == \
                    (blk.nrows, blk.ncols, blk.entries)
        assert r2.graded_piece_basis(3) is r1.graded_piece_basis(3)

    def test_one_build_per_value(self, monkeypatch):
        """A second equal ring makes no miss; rings no other live ring
        equals, so every miss counted is this test's own."""
        calls = []
        real = GradedRing._mult_block
        monkeypatch.setattr(GradedRing, "_mult_block",
                            lambda *a: calls.append(a) or real(*a))
        variables, ideal = ["s0", "s1", "s2"], ["s0*s1 - s2^2", "s0^3"]
        r1 = GradedRing(PrimeField(10007), variables, ideal_strings=ideal)
        assert not r1._tables.mult
        polys = ["s0 + s1", "s2^2 - 2*s0*s1", "s1^3"]
        for s in polys:
            for n in range(4):
                r1.mult_matrix(r1.poly(s), n)
        n1 = len(calls)
        assert n1 == 3 * 4
        r2 = GradedRing(PrimeField(10007), variables, ideal_strings=ideal)
        for s in polys:
            for n in range(4):
                r2.mult_matrix(r2.poly(s), n)
        assert len(calls) == n1

    @pytest.mark.parametrize("field, variables, ideal", [
        (PrimeField(7), ["x", "y", "z"], ["x*y"]),
        (RationalField(), ["x", "y", "z"], ["x*y"]),
        (PrimeField(32003), ["a", "b", "c"], ["a*b"]),
        (PrimeField(32003), ["x", "y", "z"], ["x^2"]),
        (PrimeField(32003), ["x", "y", "z"], []),
    ], ids=["prime", "Q", "names", "ideal", "no-ideal"])
    def test_unequal_rings_do_not_share(self, field, variables, ideal):
        """Rings that differ from the nodal curve over F_32003 in the
        prime, F_p against Q, the variable names or the ideal keep their
        own tables."""
        r1 = GradedRing(PrimeField(32003), ["x", "y", "z"],
                        ideal_strings=["x*y"])
        r2 = GradedRing(field, variables, ideal_strings=ideal)
        assert r1 != r2 and r1._tables is not r2._tables
        assert r1.graded_piece_basis(2) is not r2.graded_piece_basis(2)
        p1 = r1.poly("x + z")
        p2 = r2.poly("%s + %s" % (variables[0], variables[2]))
        assert r2.mult_matrix(p2, 1) is not r1.mult_matrix(p1, 1)

    def test_equal_groebner_bases_share(self, Fp):
        """Different generators of one ideal give one reduced Groebner basis,
        so the rings are equal and share; their ideal_gens stay apart."""
        r1 = GradedRing(Fp, ["x", "y", "z"], ideal_strings=["x*y", "x^2"])
        r2 = GradedRing(Fp, ["x", "y", "z"],
                        ideal_strings=["x^2 + x*y", "3*x*y"])
        assert r1.ideal_gens != r2.ideal_gens
        assert r1 == r2 and hash(r1) == hash(r2)
        assert r1._tables is r2._tables
        p = r1.poly("x + z")
        assert r2.mult_matrix(p, 2) is r1.mult_matrix(p, 2)

    def test_entry_freed_with_last_ring(self):
        """The registry keeps the tables while some equal ring lives, and
        drops them with the last one."""
        variables, ideal = ["t0", "t1"], ["t0^2*t1"]
        r1 = GradedRing(PrimeField(10009), variables, ideal_strings=ideal)
        r2 = GradedRing(PrimeField(10009), variables, ideal_strings=ideal)
        key = r1._key
        r1.mult_matrix(r1.poly("t0 + t1"), 2)
        del r1
        gc.collect()
        assert ring_module._TABLES[key] is r2._tables
        assert r2._tables.mult
        del r2
        gc.collect()
        assert key not in ring_module._TABLES

    def test_other_memos_per_instance(self, Fp):
        """Cech ranks, local duality and covering forms are not shared."""
        variables, ideal = self.NODAL
        r1 = GradedRing(Fp, variables, ideal_strings=ideal)
        r2 = GradedRing(Fp, variables, ideal_strings=ideal)
        assert r1._tables is r2._tables
        assert r1.cech_ranks is not r2.cech_ranks
        cech_cohomology(r1, -2, 1)
        assert r1.cech_ranks and not r2.cech_ranks
        local_duality(r1)
        covering_forms(r1)
        assert r1.duality is not None and r2.duality is None
        assert r1.covering_forms is not None and r2.covering_forms is None


class TestHypothesisNF:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_nf_is_idempotent_and_multiplicative(self, data):
        ring = GradedRing(PrimeField(7), ["x", "y", "z"],
                          ideal_strings=["x*y - z^2"])
        f = data.draw(poly_strategy(ring))
        g = data.draw(poly_strategy(ring))
        nf = ring.normal_form
        assert nf(nf(f)) == nf(f)
        assert nf(f * g) == nf(nf(f) * nf(g))
        assert nf(f + g) == nf(nf(f) + nf(g))


def test_monomials_of_degree_count():
    assert len(monomials_of_degree(3, 4)) == binom(6, 2)
    assert monomials_of_degree(2, -1) == []


def test_max_ideal_degree(Fp, ring_p1):
    assert max_ideal_degree(ring_p1) == 0
    ring = GradedRing(Fp, ["x", "y"], ideal_strings=["x^3"])
    assert max_ideal_degree(ring) == 3


def test_quotient_by(ring_p2):
    y_ring = ring_p2.quotient_by(ring_p2.poly("x2"))
    assert y_ring.is_zero(y_ring.poly("x2"))
    assert y_ring.hilbert(3) == 4  # k[x0,x1]_3
