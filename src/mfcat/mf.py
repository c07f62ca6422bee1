"""Matrix factorizations, strict morphisms and the mapping complex.

Conventions (fixed throughout the engine):
  * an MF is  e1: E1 -> E0,  e0: E0 -> E1(d)  with both composites W * id,
    where d is the twist step, deg W when W != 0 (projective mode enforces
    d = 1);
  * an MF unrolls to the complex whose slot r + 2 is slot r twisted by d
    (`unrolled`), E0 in slot 0 and E1 in slot -1; a twisted periodic
    complex, such as the mapping complex, is an MF of W = 0, so that
    C^{-1} = E1, C^0 = E0, d^{-1} = e1 and d^0 = e0;
  * shift:  E[1] = (E0 --(-e0)--> E1(d) --(-e1(d))--> E0(d));
  * cone(f) uses the block matrices [[-e0, 0], [g0, f1]] and
    [[-e1(d), 0], [g1(d), f0]];
  * the mapping complex Hom_MF(E, F) has d^0(E, F) = -d^{-1}(E, F[1]),
    block for block and with the same source and target twist lists:
    C^{-1}(E, F[1]) is C^0(E, F) and C^0(E, F[1]) is C^{-1}(E, F)(d).
    Since -d^{-1}(E, F[1]) = d^{-1}(-E, -F[1]) with -E = (-e1, -e0) and
    -F[1] = (f0, f1(d)), both are written by one function
    (`_mapping_differential`), which puts each entry of four maps at its
    place in the hom_layout: d^{-1} from -e1, -e0 (E's maps negated once),
    f1 and f0, and d^0 from e1, e0, f0 and f1, with no negation.
"""

from .linalg import Block, solve, sparse_blocks


class TwistSum:
    """A formal direct sum of twists of O(1): just a tuple of integers.

    Twists are kept in construction order (block constructions such as
    cones and mapping complexes rely on positional block layout)."""

    __slots__ = ("twists",)

    def __init__(self, twists=()):
        self.twists = tuple(twists)

    @property
    def rank(self):
        return len(self.twists)

    def twist(self, n):
        return TwistSum(t + n for t in self.twists)

    def __add__(self, other):
        return TwistSum(self.twists + other.twists)

    def __getitem__(self, i):
        return self.twists[i]

    def __iter__(self):
        return iter(self.twists)

    def __len__(self):
        return len(self.twists)

    def __eq__(self, other):
        return isinstance(other, TwistSum) and self.twists == other.twists

    def __hash__(self):
        return hash(self.twists)

    def __repr__(self):
        return "TwistSum%r" % (self.twists,)


class SheafMap:
    """A map of twist sums: a matrix of homogeneous ring elements.

    Entry (r, c) is zero or homogeneous of degree dst[r] - src[c], and is a
    normal form in the ring.  The matrix is stored as rows, one
    {column: entry} dict per target row holding only the nonzero entries,
    with keys in increasing column order (the layout of linalg's sparse
    rows).  Rows are never modified after construction, so maps share
    them.  SheafMap(ring, src, dst, entries) is the boundary for outside
    input, a dense list of lists: it takes each entry to normal form and
    checks its degree.  The engine's own constructions, whose entries are
    normal forms already, go through from_rows, which checks the shape."""

    __slots__ = ("ring", "src", "dst", "rows")

    def __init__(self, ring, src, dst, entries):
        if len(entries) != dst.rank:
            raise ValueError("matrix has %d rows, expected %d" % (len(entries), dst.rank))
        rows = []
        for r, row in enumerate(entries):
            if len(row) != src.rank:
                raise ValueError("row %d has %d entries, expected %d"
                                 % (r, len(row), src.rank))
            out = {}
            for c, p in enumerate(row):
                p = ring.normal_form(p)
                if p.is_zero():
                    continue
                want = dst[r] - src[c]
                if not p.is_homogeneous() or p.total_degree() != want:
                    raise ValueError(
                        "entry (%d, %d) must be homogeneous of degree %d, got %s"
                        % (r, c, want, ring.to_str(p)))
                out[c] = p
            rows.append(out)
        self.ring = ring
        self.src = src
        self.dst = dst
        self.rows = rows

    @classmethod
    def from_rows(cls, ring, src, dst, rows):
        """The map with the given rows (nonzero normal forms, increasing
        keys); ValueError on a wrong row count or a column out of range."""
        if len(rows) != dst.rank:
            raise ValueError("matrix has %d rows, expected %d" % (len(rows), dst.rank))
        n = src.rank
        if any(row and max(row) >= n for row in rows):
            raise ValueError("column out of range: source rank is %d" % n)
        m = cls.__new__(cls)
        m.ring = ring
        m.src = src
        m.dst = dst
        m.rows = rows
        return m

    @property
    def entries(self):
        """Dense view, a fresh list of lists (for output, module code and
        tests)."""
        z = self.ring.zero()
        return [[row.get(c, z) for c in range(self.src.rank)]
                for row in self.rows]

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(ring, src, dst):
        return SheafMap.from_rows(ring, src, dst, [{} for _ in dst])

    @staticmethod
    def identity(ring, ts):
        one = ring.one()
        return SheafMap.from_rows(ring, ts, ts, [{i: one} for i in range(ts.rank)])

    @staticmethod
    def scalar(ring, p, src, dst):
        """p * id with a twist shift: dst must be src shifted by deg p."""
        p = ring.normal_form(p)
        if p.is_zero():
            return SheafMap.zero(ring, src, dst)
        if not p.is_homogeneous() or dst != src.twist(p.total_degree()):
            raise ValueError("%s * id does not map %r to %r"
                             % (ring.to_str(p), src, dst))
        return SheafMap.from_rows(ring, src, dst, [{r: p} for r in range(src.rank)])

    @staticmethod
    def from_blocks(ring, srcs, dsts, blocks):
        """Assemble a block matrix; blocks[i][j]: srcs[j] -> dsts[i] or None."""
        for i, dts in enumerate(dsts):
            for j, sts in enumerate(srcs):
                blk = blocks[i][j]
                if blk is not None and (blk.src != sts or blk.dst != dts):
                    raise ValueError("block (%d, %d) has wrong shape" % (i, j))
        rows, _ = sparse_blocks(
            [d.rank for d in dsts], [s.rank for s in srcs],
            ((i, j, Block.from_rows(blk.rows, blk.src.rank))
             for i, brow in enumerate(blocks)
             for j, blk in enumerate(brow) if blk is not None))
        return SheafMap.from_rows(ring, TwistSum(t for s in srcs for t in s),
                                  TwistSum(t for d in dsts for t in d), rows)

    @staticmethod
    def block_diagonal(ring, maps):
        """The direct sum of maps, as a block diagonal matrix."""
        return SheafMap.from_blocks(
            ring, [m.src for m in maps], [m.dst for m in maps],
            [[m if i == j else None for j in range(len(maps))]
             for i, m in enumerate(maps)])

    def submatrix(self, rows, cols):
        """The map from the summands cols of src to the summands rows of
        dst (index lists in increasing order)."""
        cols = list(cols)
        pos = {c: k for k, c in enumerate(cols)}
        return SheafMap.from_rows(
            self.ring, TwistSum(self.src[c] for c in cols),
            TwistSum(self.dst[r] for r in rows),
            [{pos[c]: p for c, p in self.rows[r].items() if c in pos}
             for r in rows])

    # -- arithmetic --------------------------------------------------------

    def compose(self, other):
        """self o other (apply `other` first), summing products over the
        nonzero entries only."""
        if other.dst != self.src:
            raise ValueError("composition shape mismatch")
        nf = self.ring.normal_form
        rows = []
        for row in self.rows:
            acc = {}
            for k, a in row.items():
                for c, b in other.rows[k].items():
                    ab = a * b
                    acc[c] = acc[c] + ab if c in acc else ab
            out = {}
            for c in sorted(acc):
                p = nf(acc[c])
                if not p.is_zero():
                    out[c] = p
            rows.append(out)
        return SheafMap.from_rows(self.ring, other.src, self.dst, rows)

    def twist(self, n):
        return SheafMap.from_rows(self.ring, self.src.twist(n),
                                  self.dst.twist(n), self.rows)

    def __add__(self, other):
        if other.src != self.src or other.dst != self.dst:
            raise ValueError("addition shape mismatch")
        rows = []
        for r1, r2 in zip(self.rows, other.rows):
            acc = dict(r1)
            for c, b in r2.items():
                acc[c] = acc[c] + b if c in acc else b
            rows.append({c: acc[c] for c in sorted(acc) if not acc[c].is_zero()})
        return SheafMap.from_rows(self.ring, self.src, self.dst, rows)

    def __neg__(self):
        return SheafMap.from_rows(self.ring, self.src, self.dst,
                                  [{c: -p for c, p in row.items()}
                                   for row in self.rows])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        field = self.ring.field
        if field.is_zero(field.of(c)):
            return SheafMap.zero(self.ring, self.src, self.dst)
        return SheafMap.from_rows(self.ring, self.src, self.dst,
                                  [{k: p.scale(c) for k, p in row.items()}
                                   for row in self.rows])

    def is_zero(self):
        return not any(self.rows)

    def __eq__(self, other):
        return (isinstance(other, SheafMap) and self.src == other.src
                and self.dst == other.dst and self.rows == other.rows)

    def to_strs(self):
        to_str = self.ring.to_str     # a zero entry prints as "0"
        return [[to_str(row[c]) if c in row else "0"
                 for c in range(self.src.rank)] for row in self.rows]

    def __repr__(self):
        return "SheafMap(%r -> %r, %r)" % (self.src, self.dst, self.to_strs())


def unrolled(even, odd, d, r):
    """Slot r of the periodic sequence with `even` in slot 0, `odd` in slot
    -1 and slot r + 2 equal to slot r twisted by d (TwistSums or
    SheafMaps)."""
    return (odd if r % 2 else even).twist(((r + 1) // 2) * d)


class MFContext:
    """The triple (X, O(1), W): a graded ring, a mode, and the section W.

    mode 'projective' means X = Proj R with deg W = 1; mode 'affine-graded'
    means the graded-module model of Spec R with any homogeneous W.  W need
    not be regular (a nonzerodivisor): the one reader that needs it,
    homcat.locally_contractible, decides it exactly
    (modules.is_nonzerodivisor).
    """

    def __init__(self, ring, W, mode="projective", twist_step=None):
        if mode not in ("projective", "affine-graded"):
            raise ValueError("mode must be 'projective' or 'affine-graded'")
        self.ring = ring
        self.mode = mode
        self.W = ring.poly(W)
        if self.W.is_zero():
            # a twisted periodic complex (W = 0): the twist step is supplied
            self.d = int(twist_step) if twist_step is not None else 1
        else:
            if not self.W.is_homogeneous():
                raise ValueError("W must be homogeneous")
            self.d = self.W.total_degree()
            if mode == "projective" and self.d != 1:
                raise ValueError("projective mode requires deg W = 1")
            if twist_step is not None and int(twist_step) != self.d:
                raise ValueError("twist step must equal deg W")
        self._y_ring = None

    @property
    def is_affine(self):
        return self.mode == "affine-graded"

    def y_ring(self):
        """Coordinate ring of the zero subscheme Y = V(W)."""
        if self._y_ring is None:
            self._y_ring = self.ring.quotient_by(self.W)
        return self._y_ring

    def describe(self):
        out = self.ring.describe()
        return {"ring": out, "W": self.ring.to_str(self.W), "mode": self.mode,
                "twist_step": self.d}

    def __eq__(self, other):
        return (isinstance(other, MFContext) and self.ring == other.ring
                and self.W == other.W and self.mode == other.mode
                and self.d == other.d)

    def __hash__(self):
        return hash((self.ring, self.W, self.mode, self.d))


class MatrixFactorization:
    """e1: E1 -> E0 and e0: E0 -> E1(d) with both composites W * id.

    `verified` is set once require_mf has checked the laws, and
    `contractible` (None until decided) by homcat.is_contractible; e1 and
    e0 are never reassigned, so both stay valid."""

    __slots__ = ("ctx", "E1", "E0", "e1", "e0", "verified", "contractible")

    def __init__(self, ctx, e1, e0, check=True):
        self.ctx = ctx
        self.e1 = e1
        self.e0 = e0
        self.E1 = e1.src
        self.E0 = e1.dst
        self.verified = False
        self.contractible = None
        if e0.src != self.E0 or e0.dst != self.E1.twist(ctx.d):
            raise ValueError("e0 must map E0 -> E1(d)")
        if check:
            require_mf(self)

    @property
    def ring(self):
        return self.ctx.ring

    def is_zero_object(self):
        return self.E1.rank == 0 and self.E0.rank == 0

    # -- the unrolled twisted periodic complex of E -----------------------

    def component_at(self, r):
        """Term of the unrolled complex at cohomological degree r."""
        return unrolled(self.E0, self.E1, self.ctx.d, r)

    def diff_at(self, r):
        """Differential component_at(r) -> component_at(r+1)."""
        return unrolled(self.e0, self.e1, self.ctx.d, r)

    def describe(self):
        return {
            "E1": list(self.E1.twists),
            "E0": list(self.E0.twists),
            "e1": self.e1.to_strs(),
            "e0": self.e0.to_strs(),
        }

    def __repr__(self):
        return "MatrixFactorization(E1=%r, E0=%r)" % (self.E1, self.E0)


def verify_mf(E):
    """Check the two W * id composition laws; report the first violation."""
    ctx = E.ctx
    ring = ctx.ring
    z = ring.zero()
    violations = []
    laws = (("e0*e1", E.e0.compose(E.e1)),                 # E1 -> E1(d)
            ("e1(d)*e0", E.e1.twist(ctx.d).compose(E.e0)))  # E0 -> E0(d)
    for name, comp in laws:
        # entries and W are normal forms: equal in R iff equal as polynomials
        for r, row in enumerate(comp.rows):
            want = {} if ctx.W.is_zero() else {r: ctx.W}
            violations.extend("%s != W*id at entry (%d, %d): %s"
                              % (name, r, c, ring.to_str(row.get(c, z)))
                              for c in sorted(row.keys() | want.keys())
                              if row.get(c) != want.get(c))
    return {"ok": not violations, "violations": violations}


def require_mf(E):
    """Raise ValueError naming the first violation of the MF laws; E is
    checked once and marked."""
    if E.verified:
        return
    report = verify_mf(E)
    if not report["ok"]:
        raise ValueError("not a matrix factorization: %s"
                         % report["violations"][0])
    E.verified = True


def twist_mf(E, n):
    return MatrixFactorization(E.ctx, E.e1.twist(n), E.e0.twist(n), check=False)


def shift_mf(E):
    """E[1] = (E0 --(-e0)--> E1(d) --(-e1(d))--> E0(d))."""
    d = E.ctx.d
    return MatrixFactorization(E.ctx, -E.e0, -E.e1.twist(d), check=False)


def direct_sum_mf(E, F):
    if E.ctx != F.ctx:
        raise ValueError("context mismatch")
    ring = E.ctx.ring
    return MatrixFactorization(E.ctx,
                               SheafMap.block_diagonal(ring, [E.e1, F.e1]),
                               SheafMap.block_diagonal(ring, [E.e0, F.e0]),
                               check=False)


class StrictMorphism:
    """g1: E1 -> F1, g0: E0 -> F0 with both squares commuting."""

    __slots__ = ("src", "dst", "g1", "g0")

    def __init__(self, src, dst, g1, g0, check=True):
        if src.ctx != dst.ctx:
            raise ValueError("context mismatch")
        self.src = src
        self.dst = dst
        self.g1 = g1
        self.g0 = g0
        if g1.src != src.E1 or g1.dst != dst.E1:
            raise ValueError("g1 must map E1 -> F1")
        if g0.src != src.E0 or g0.dst != dst.E0:
            raise ValueError("g0 must map E0 -> F0")
        if check:
            err = strictness_violation(self)
            if err:
                raise ValueError(err)

    @property
    def ctx(self):
        return self.src.ctx

    def component_at(self, r):
        """The map component_at(r) of src -> component_at(r) of dst in the
        unrolled complexes."""
        return unrolled(self.g0, self.g1, self.ctx.d, r)

    @staticmethod
    def identity(E):
        ring = E.ctx.ring
        return StrictMorphism(E, E, SheafMap.identity(ring, E.E1),
                              SheafMap.identity(ring, E.E0), check=False)

    @staticmethod
    def zero(E, F):
        ring = E.ctx.ring
        return StrictMorphism(E, F, SheafMap.zero(ring, E.E1, F.E1),
                              SheafMap.zero(ring, E.E0, F.E0), check=False)

    def compose(self, other):
        """self o other."""
        if other.dst is not self.src and other.dst.describe() != self.src.describe():
            raise ValueError("composition endpoint mismatch")
        return StrictMorphism(other.src, self.dst,
                              self.g1.compose(other.g1),
                              self.g0.compose(other.g0), check=False)

    def is_zero(self):
        return self.g1.is_zero() and self.g0.is_zero()

    def describe(self):
        return {"g1": self.g1.to_strs(), "g0": self.g0.to_strs()}


def strictness_violation(f):
    """None if both squares commute, else a message."""
    d = f.ctx.d
    # entries are normal forms: the squares commute iff the maps are equal
    if f.g0.compose(f.src.e1) != f.dst.e1.compose(f.g1):
        return "first square does not commute (g0*e1 != f1*g1)"
    if f.g1.twist(d).compose(f.src.e0) != f.dst.e0.compose(f.g0):
        return "second square does not commute (g1(d)*e0 != f0*g0)"
    return None


def cone(f):
    """Mapping cone of a strict morphism f: E -> F.

    cone_1 = E0 (+) F1,  cone_0 = E1(d) (+) F0,
    c1 = [[-e0, 0], [g0, f1]],  c0 = [[-e1(d), 0], [g1(d), f0]].
    """
    E, F = f.src, f.dst
    ctx = E.ctx
    ring = ctx.ring
    d = ctx.d
    c1 = SheafMap.from_blocks(ring, [E.E0, F.E1], [E.E1.twist(d), F.E0],
                              [[-E.e0, None], [f.g0, F.e1]])
    c0 = SheafMap.from_blocks(ring, [E.E1.twist(d), F.E0],
                              [E.E0.twist(d), F.E1.twist(d)],
                              [[-E.e1.twist(d), None], [f.g1.twist(d), F.e0]])
    return MatrixFactorization(ctx, c1, c0, check=False)


# -- the mapping complex ----------------------------------------------------


def hom_twists(*pairs):
    """Twist list of the sum of the Hom(A, B) = (+) O(B[r] - A[c]) over the
    (A, B) pairs, each in row-major (r, c) order."""
    return TwistSum(B[r] - A[c] for A, B in pairs
                    for r in range(B.rank) for c in range(A.rank))


def hom_layout(E1, E0, F):
    """The summands Hom(A, B) of the mapping complex Hom_MF(E, F), as (A, B)
    pairs, from E's twist sums E1 and E0:
        C^-1 = Hom(E0, F1) (+) Hom(E1, F0(-d)),
        C^0  = Hom(E0, F0) (+) Hom(E1, F1).
    Returns (C^-1 pairs, C^0 pairs)."""
    return ([(E0, F.E1), (E1, F.E0.twist(-F.ctx.d))],
            [(E0, F.E0), (E1, F.E1)])


def _write_post(rows, ro, co, phi, nA):
    """Write the matrix of psi |-> phi o psi, Hom(A, B) -> Hom(A, C) for
    phi: B -> C and A of rank nA, into the sparse rows `rows` with its
    first entry at (ro, co).  Each row gets its keys in increasing order."""
    i = ro
    for prow in phi.rows:
        for c in range(nA):
            row = rows[i]
            for s, p in prow.items():
                row[co + s * nA + c] = p
            i += 1


def _write_pre(rows, ro, co, phi, nC):
    """Write the matrix of psi |-> psi o phi, Hom(B, C) -> Hom(A, C) for
    phi: A -> B and C of rank nC, into the sparse rows `rows` with its
    first entry at (ro, co).  Each row gets its keys in increasing order."""
    nB = phi.dst.rank
    cols = [[] for _ in phi.src]
    for s, prow in enumerate(phi.rows):
        for c, p in prow.items():
            cols[c].append((co + s, p))
    i = ro
    for r in range(nC):
        base = r * nB
        for col in cols:
            row = rows[i]
            for k, p in col:
                row[base + k] = p
            i += 1


def _post_compose_matrix(phi, A):
    """Matrix of Hom(A, B) -> Hom(A, C), psi |-> phi o psi, for phi: B -> C."""
    rows = [{} for _ in range(phi.dst.rank * A.rank)]
    _write_post(rows, 0, 0, phi, A.rank)
    return SheafMap.from_rows(phi.ring, hom_twists((A, phi.src)),
                              hom_twists((A, phi.dst)), rows)


def _pre_compose_matrix(phi, C):
    """Matrix of Hom(B, C) -> Hom(A, C), psi |-> psi o phi, for phi: A -> B."""
    rows = [{} for _ in range(C.rank * phi.src.rank)]
    _write_pre(rows, 0, 0, phi, C.rank)
    return SheafMap.from_rows(phi.ring, hom_twists((phi.dst, C)),
                              hom_twists((phi.src, C)), rows)


def _mapping_differential(a1, a0, b1, b0, src, dst):
    """The map src -> dst of block matrix [[(b1)_*, a0^*], [a1^*, (b0)_*]]
    on the mapping complex layout (hom_layout) of a1: E1 -> E0,
    a0: E0 -> E1(d), b1: F1 -> F0 and b0: F0 -> F1(d): the blocks map
    Hom(E0, F1) (+) Hom(E1, F0(-d)) to Hom(E0, F0) (+) Hom(E1, F1).  Every
    entry is written once, at its final position."""
    nE0, nE1 = a1.dst.rank, a1.src.rank
    ro, co = b1.dst.rank * nE0, b1.src.rank * nE0
    rows = [{} for _ in range(dst.rank)]
    # block row by block row, left block first, so keys come in increasing
    # order
    _write_post(rows, 0, 0, b1, nE0)
    _write_pre(rows, 0, co, a0, b1.dst.rank)
    _write_pre(rows, ro, 0, a1, b1.src.rank)
    _write_post(rows, ro, co, b0, nE1)
    return SheafMap.from_rows(a1.ring, src, dst, rows)


def _mapping_dm1(E, F):
    """d^{-1}: C^{-1} -> C^0 of the mapping complex Hom_MF(E, F).  A psi in
    Hom(E1, F0(-d)) acts as psi(d): E1(d) -> F0, so -e0^* precomposes
    e0: E0 -> E1(d)."""
    cm1, c0 = hom_layout(E.E1, E.E0, F)
    return _mapping_differential(-E.e1, -E.e0, F.e1, F.e0,
                                 hom_twists(*cm1), hom_twists(*c0))


def mapping_complex(E, F):
    """The twisted periodic complex Hom_MF(E, F), as an MF of W = 0 with
    twist step d: E1 = C^-1 and E0 = C^0 (hom_layout), e1 = d^-1 and
    e0 = d^0, where
        d^-1 = [[(f1)_*, -e0^*], [-e1^*, (f0)_*]],
        d^0  = [[(f0)_*,  e0^*], [ e1^*, (f1)_*]] = d^-1(-E, -F[1]).
    """
    if E.ctx != F.ctx:
        raise ValueError("context mismatch")
    # d^2 psi = f^2 o psi - psi o e^2 = W psi - psi W, so the MF laws of E
    # and F make this a complex, at far less cost than composing d0 dm1
    require_mf(E)
    require_mf(F)
    ctx = E.ctx
    dm1 = _mapping_dm1(E, F)
    # d^0 = d^-1(-E, -F[1]): -E = (-e1, -e0) takes the signs off E's maps,
    # and -F[1] = (f0, f1(d)), whose twist leaves f1's rows as they are
    d0 = _mapping_differential(E.e1, E.e0, F.e0, F.e1, dm1.dst,
                               dm1.src.twist(ctx.d))
    return MatrixFactorization(
        MFContext(ctx.ring, ctx.ring.zero(), ctx.mode, twist_step=ctx.d),
        dm1, d0, check=False)


def unpack_maps(ring, polys, *shapes):
    """Split a row-major entry list into one SheafMap A -> B per (A, B)."""
    it = iter(polys)
    return [SheafMap(ring, A, B, [[next(it) for _ in A] for _ in B])
            for A, B in shapes]


def strict_from_cycle(E, F, coords):
    """A degree-0 cycle (gamma0, gamma1) of the mapping complex, given by
    its coordinates in the degree-0 pieces of C^0 (a sparse vector),
    corresponds to the strict morphism (g0, g1) = (gamma0, -gamma1)."""
    ring = E.ctx.ring
    c0 = hom_layout(E.E1, E.E0, F)[1]
    gamma0, gamma1 = unpack_maps(
        ring, ring.polys_from_coords(coords, hom_twists(*c0)), *c0)
    return StrictMorphism(E, F, -gamma1, gamma0)


def cycle_from_strict(f):
    """Inverse of strict_from_cycle: the C^0 coordinates of f's cycle."""
    E, F = f.src, f.dst
    return E.ctx.ring.coords(
        [p for g in (f.g0, -f.g1) for row in g.entries for p in row],
        hom_twists(*hom_layout(E.E1, E.E0, F)[1]))


def solve_homotopy(f):
    """Find (s: E0 -> F1, t: E1(d) -> F0) with
        g1 = s o e1 + f0(-d) o t(-d)   and   g0 = f1 o s + t o e0,
    or return None (definitive: the linear system ranges over all
    admissible homogeneous entries).  These say that (s, -t(-d)) in C^{-1}
    is a preimage under d^{-1} of the cycle of f, on degree-0 pieces."""
    E, F = f.src, f.dst
    ring = E.ctx.ring
    dm1 = _mapping_dm1(E, F)
    x = solve(ring.field, *ring.piece_matrix(dm1, 0), cycle_from_strict(f))
    if x is None:
        return None
    s, t_m = unpack_maps(ring, ring.polys_from_coords(x, dm1.src),
                         *hom_layout(E.E1, E.E0, F)[0])
    return s, (-t_m).twist(E.ctx.d)
