"""Hom-sets in the naive and hypercohomology homotopy categories as one
object, HomSpace (H^0 of Gamma of the mapping complex: the dimension on
construction, the basis and class coordinates on first read), Koszul
stabilization with self-checking certificates, composition of stabilized
classes, and the contractibility predicates.
"""

from functools import cached_property

from .cohomology import GlobalSections, local_duality
from .hypersurface import coker_module
from .koszul import (covering_forms, koszul_truncated, tot, tot_augmentation,
                     tot_blocks, tot_morphism)
from .linalg import (CosetReducer, echelon_add, homology_dim, kernel_basis,
                     sparse_matmul)
from .mf import (MatrixFactorization, StrictMorphism, TwistSum,
                 cycle_from_strict, hom_layout, hom_twists,
                 mapping_complex, solve_homotopy, strict_from_cycle, unrolled)
from .modules import covers, fitting_ideal, is_nonzerodivisor, variable_powers

J_MAX = 12          # highest Koszul level stabilize tries
FITTING_CAP = 9     # locally_contractible scans Fitting ideals up to this
                    # many cokernel generators


class HomSpace:
    """Hom(src, dst) as H^0 of Gamma of the mapping complex out of
    `stabilized_src`: m_in = Gamma(d^-1) with n_in columns and m_out =
    Gamma(d^0) with n columns, as sparse rows.  The dimension is counted on
    construction, after checking m_out m_in = 0 (the boundaries lie in the
    cycles); the cycle basis, the boundary reducer and the basis of classes
    are built on first read.

    That product is kept as the self-check of the assembly.  On the
    monomial path it is 0 by proof: d^0 d^-1 = 0 on the mapping complex
    (the MF laws of both objects, checked by mapping_complex), and each
    Gamma is a matrix of multiplication by normal forms on graded pieces,
    which is multiplicative, so m_out m_in = Gamma(d^0 d^-1) = 0; a
    nonzero product there is a fault of assembly or of normal forms.  Off
    that path Gamma is read off Cech kernels at the one proven truncation
    (cohomology.cech_truncation), and the product is the one check of
    that assembly that the boundaries lie in the cycles.

    hom_naive builds it with model 'naive'; hom_H relabels it as the
    'hyper' Hom out of `src`, with the Koszul `tower` and `certificate`
    of the stabilization.  A zero object has dimension 0, basis [] and no
    cycle space or reducer; off the monomial path the basis is None."""

    def __init__(self, src, dst, gs):
        self.src = self.stabilized_src = src
        self.dst = dst
        self.model = "naive"            # 'naive' | 'hyper'
        self.tower = ()                 # tuple of Koszul levels j
        self.certificate = None
        self.field = gs.ring.field
        self.m_out = None               # stays None for a zero object
        self.dimension = 0
        if src.is_zero_object() or dst.is_zero_object():
            return
        C = mapping_complex(src, dst)
        self._monomial = gs.monomial_path(C.E0.twists)
        self.m_in, self.n_in = gs.sheafmap_rows(C.e1)
        self.m_out, self.n = gs.sheafmap_rows(C.e0)
        if any(sparse_matmul(self.field, self.m_out, self.m_in)):
            raise ValueError("boundary space is not contained in the cycle space")
        self.dimension = homology_dim(self.field, (self.m_out, self.n),
                                      (self.m_in, self.n_in))

    @cached_property
    def cycle_space(self):
        """Kernel basis of Gamma(d^0) as sparse vectors."""
        if self.m_out is None:
            return None
        return kernel_basis(self.field, self.m_out, self.n)

    @cached_property
    def reducer(self):
        """CosetReducer modulo the boundaries."""
        if self.m_out is None:
            return None
        return CosetReducer(self.field, self.m_in, self.n_in)

    @cached_property
    def basis(self):
        """StabilizedClasses src -> dst along `tower`, represented by
        verified strict morphisms out of `stabilized_src`: the reduced
        cycles independent of those picked before them, tested on one
        growing echelon form."""
        if self.m_out is None:
            return []
        if not self._monomial:
            return None
        if not self.dimension:
            return []
        picked = {}
        classes = []
        for z in self.cycle_space:
            v = self.reducer.reduce(z)
            if echelon_add(self.field, picked, dict(v)) is not None:
                f = strict_from_cycle(self.stabilized_src, self.dst, v)
                classes.append(StabilizedClass(self.src, self.dst,
                                               self.tower, f))
        assert len(classes) == self.dimension
        return classes

    def coords(self, cls):
        """Canonical coordinates of a class with representative
        stabilized_src -> dst: its boundary-reduced Gamma(C^0) vector
        (classes are equal iff these agree, at equal towers)."""
        v = self.reducer.reduce(cycle_from_strict(cls.rep))
        zero = self.field.zero()
        return tuple(v.get(i, zero) for i in range(self.reducer.ambient))


class StabilizedClass:
    """A morphism class E -> F represented by a strict morphism out of the
    stabilization of E along `tower` (applied left to right, outermost
    last)."""

    def __init__(self, src, dst, tower, rep):
        self.src = src
        self.dst = dst
        self.tower = tuple(tower)
        self.rep = rep               # StrictMorphism: stabilize(src, tower) -> dst

    @staticmethod
    def identity(E):
        return StabilizedClass(E, E, (), StrictMorphism.identity(E))


def hom_naive(E, F, gs=None):
    """Strict morphisms modulo homotopy: H^0 of Gamma(mapping complex)."""
    if E.ctx != F.ctx:
        raise ValueError("context mismatch")
    return HomSpace(E, F, gs or GlobalSections(E.ctx))


def class_coords(cls, gs=None):
    """Canonical coordinates of a class in the naive Hom-set of its
    representative (see HomSpace.coords)."""
    return hom_naive(cls.rep.src, cls.dst, gs).coords(cls)


# -- stabilization -------------------------------------------------------------


class StabilizationCertificate:
    """Records the chosen Koszul level j, the number k of covering forms
    that P(j) is built on, and the twist-inventory inequality that
    certifies naive = hypercohomology Hom out of the stabilization.

    Why the rows q >= M - k suffice.  P(j) is the Koszul complex on the
    j-th powers of k linear forms f_1, ..., f_k with no common zero on X
    (koszul.covering_forms).
    (a) On each open D(f_i) the power f_i^j is a unit, so the Koszul
        complex augmented to O is exact there; the D(f_i) cover X, so it
        is exact as a complex of sheaves, and E' = Tot(P(j) tensor E) ->
        E is a weak equivalence.
    (b) The D(f_i) are k affines covering X, so the Cech complex of that
        cover computes the cohomology of every quasi-coherent sheaf, and
        it has no terms above degree k - 1: H^p = 0 for p >= k.  In the
        spectral sequence of the hypercohomology of the mapping complex
        Hom(E', F), a term H^p(X, Hom^q) with p >= 1 lies in total degree
        M or M + 1 only with q >= M - k + 1, so the rows q < M - k never
        reach H^M.
    Where every row q >= M - k has all its twists at or above the
    vanishing threshold, H^p(Hom^q) = 0 for p > 0 on all those rows, and
    H^M is the homology of the global sections: the naive Hom.  The twists
    grow with q (Hom^{q+2} = Hom^q(d)), so the rows M - k and M - k + 1
    decide all of them."""

    def __init__(self, j, k, threshold, threshold_tag, rows, min_twist, M):
        self.j = j
        self.k = k
        self.threshold = threshold
        self.threshold_tag = threshold_tag
        self.rows = rows              # {q: sorted twist list}
        self.min_twist = min_twist
        self.M = M

    def check(self):
        return self.min_twist >= self.threshold

    def describe(self):
        return {"j": self.j, "k": self.k, "threshold": self.threshold,
                "threshold_tag": self.threshold_tag, "M": self.M,
                "rows": {str(q): list(tw) for q, tw in self.rows.items()},
                "min_twist": self.min_twist, "verified": self.check()}


def _koszul(gs, j):
    """koszul_truncated(gs.ring, j), built and checked once per gs.  Held
    on gs, not on the ring: P(j) refers to its ring, so a cache on the
    ring would be a reference cycle."""
    if j not in gs.koszul:
        gs.koszul[j] = koszul_truncated(gs.ring, j)
    return gs.koszul[j]


def _stabilization(E, F, M, gs):
    """(E', certificate) for stabilize, without the augmentation: E' is
    Tot(P(j) tensor E) for the least j <= J_MAX whose mapping-complex twist
    inventory clears the vanishing threshold in all rows q >= M - k, k the
    number of covering forms (see StabilizationCertificate), built once
    per (E, j) in gs; the certificate is re-checked on every call, since
    its rows depend on F."""
    ctx = E.ctx
    if ctx.is_affine:
        raise ValueError("stabilization is a projective-mode operation")
    if E.is_zero_object():
        return E, StabilizationCertificate(0, 0, 0, "trivial", {}, 0, M)
    n0, tag = gs.threshold
    k = len(covering_forms(ctx.ring))
    q_min = M - k                   # M - m - 1 on P^m

    def row_twists(E1p, E0p):
        """Sorted twist lists of Hom_MF(E', F)^q, q = q_min, q_min + 1."""
        cm1, c0 = (hom_twists(*pairs) for pairs in hom_layout(E1p, E0p, F))
        return {q: sorted(unrolled(c0, cm1, ctx.d, q))
                for q in (q_min, q_min + 1)}

    for j in range(1, J_MAX + 1):
        P, _aug = _koszul(gs, j)
        # the twist inventories of E'_1 and E'_0, without matrices
        rows = row_twists(*(TwistSum(t for _, ts in tot_blocks(P, E, level)
                                     for t in ts) for level in (-1, 0)))
        min_twist = min(min(tw) for tw in rows.values() if tw) \
            if any(rows.values()) else n0
        if min_twist >= n0:
            cert = StabilizationCertificate(j, k, n0, tag, rows, min_twist, M)
            break
    else:
        raise RuntimeError("no Koszul level up to %d clears the vanishing "
                           "threshold" % J_MAX)
    if (E, j) not in gs.stabilized:
        gs.stabilized[E, j] = tot(P, E)
    Ep = gs.stabilized[E, j]
    # self-check: the certificate inventory matches the built object
    if row_twists(Ep.E1, Ep.E0) != cert.rows or not cert.check():
        raise AssertionError("stabilization certificate failed its re-check")
    return Ep, cert


def stabilize(E, F, M=0, gs=None):
    """Replace E by Tot(P(j) tensor E) with the least j <= J_MAX whose
    mapping-complex twist inventory clears the vanishing threshold
    gs.threshold in all rows q >= M - k, k the number of covering forms.
    P(j) is built once per gs, and E' once per (E, j) in gs, shared with
    hom_H; epsilon is built, and checked to be strict, on its first read
    here, against that E', and kept beside it.  The certificate is
    re-checked on every call, since its rows depend on F.

    Returns (E', epsilon: E' -> E, certificate)."""
    gs = gs or GlobalSections(E.ctx)
    Ep, cert = _stabilization(E, F, M, gs)
    if E.is_zero_object():
        return E, StrictMorphism.identity(E), cert
    if (E, cert.j) not in gs.augmentations:
        gs.augmentations[E, cert.j] = tot_augmentation(
            *_koszul(gs, cert.j), E, Ep)
    return Ep, gs.augmentations[E, cert.j], cert


def hom_H(E, F, gs=None):
    """Hom in the hypercohomology homotopy category.

    Affine-graded mode: hom_naive(E, F).  Projective mode: hom_naive out
    of the Koszul stabilization E' of the source, with the certificate;
    the augmentation E' -> E is not built.  Either way the naive HomSpace
    is returned relabelled as Hom(E, F)."""
    if E.ctx != F.ctx:
        raise ValueError("context mismatch")
    gs = gs or GlobalSections(E.ctx)
    Ep, cert = E, None
    if not E.ctx.is_affine:
        Ep, cert = _stabilization(E, F, 0, gs)
    hs = hom_naive(Ep, F, gs)
    # relabelled before its basis is first read, so the classes are E -> F
    hs.src, hs.model, hs.certificate = E, "hyper", cert
    hs.tower = (cert.j,) if cert is not None else ()
    return hs


# -- composition ----------------------------------------------------------------


def compose_h(beta, alpha):
    """Composition of stabilized classes: alpha: E -> F, beta: F -> G.

    The functor Tot(P(j) tensor -) for each level in beta's tower is applied
    to alpha's representative, then beta's representative is composed on;
    the result lives at the concatenated tower alpha.tower + beta.tower."""
    if alpha.dst.describe() != beta.src.describe():
        raise ValueError("classes are not composable")
    rep = alpha.rep
    for j in beta.tower:
        P, _aug = koszul_truncated(rep.ctx.ring, j)
        rep = tot_morphism(P, rep)
    # rep now maps the stabilization of rep's source along beta.tower to
    # that of F, which is beta.rep's source
    composed = beta.rep.compose(rep)
    return StabilizedClass(alpha.src, beta.dst,
                           alpha.tower + beta.tower, composed)


# -- contractibility predicates ---------------------------------------------------


def is_contractible(E):
    """Global contractibility: the identity is nullhomotopic.  Decided once
    per object and kept in E.contractible."""
    if E.contractible is None:
        E.contractible = (E.is_zero_object() or solve_homotopy(
            StrictMorphism.identity(E)) is not None)
    return E.contractible


def _connected_components(E):
    """Partition of E into direct summands along the block structure of
    (e1, e0).  Returns a list of (E1 indices, E0 indices), or None if E is
    a single block."""
    n1, n0 = E.E1.rank, E.E0.rank
    parent = list(range(n1 + n0))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for r, row in enumerate(E.e1.rows):
        for c in row:
            union(n1 + r, c)
    for r, row in enumerate(E.e0.rows):
        for c in row:
            union(r, n1 + c)
    groups = {}
    for idx in range(n1 + n0):
        groups.setdefault(find(idx), []).append(idx)
    if len(groups) <= 1:
        return None
    out = []
    for key in sorted(groups):
        idxs = groups[key]
        out.append(([i for i in idxs if i < n1],
                    [i - n1 for i in idxs if i >= n1]))
    return out


def _sub_mf(E, idx1, idx0):
    return MatrixFactorization(E.ctx, E.e1.submatrix(idx0, idx1),
                               E.e0.submatrix(idx1, idx0), check=False)


def _sheaf_zero(gens, ring, affine):
    """Whether each generator restricts to zero.  In affine mode: it is
    zero.  On Proj R: it lies in H^0_m(R), which vanishes in degrees above
    reg R (Eisenbud, The Geometry of Syzygies, ch. 4).  So p of degree e
    does exactly when x_i^N p = 0 for every variable at the single power
    N = max(0, reg R + 1 - e): such an N puts x_i^N p above reg R, and
    x_i^N p = 0 for all i puts a power of m into the annihilator of p."""
    if affine or not gens:
        return all(map(ring.is_zero, gens))
    reg = local_duality(ring).regularity
    return all(ring.is_zero(x * p) for p in gens for x in variable_powers(
        ring, max(0, reg + 1 - p.total_degree())))


def locally_contractible(E):
    """Three-valued local contractibility via local freeness of the
    restricted cokernel (Fitting-ideal test over R/(W)): it is locally free
    of rank r when Fitt_{r-1} restricts to zero (_sheaf_zero) and Fitt_r
    has no zero on Y (modules.covers), both decided exactly.  W must be a
    nonzerodivisor (modules.is_nonzerodivisor).

    Affine-graded mode is a complete decision (graded modules over a
    graded-connected ring are projective iff free).  Projective mode
    returns true when some rank r passes and inconclusive otherwise: on a
    disconnected Y a sheaf can be locally free of different ranks on the
    components, which no single r certifies."""
    if not is_nonzerodivisor(E.ctx.ring, E.ctx.W):
        raise ValueError("locally_contractible requires a regular W")
    return _locally_free(E)


def _locally_free(E):
    """locally_contractible of E, whose W is a nonzerodivisor, by
    connected components.  An E already decided contractible is "true"
    without a split: each direct summand of it is contractible too."""
    if E.is_zero_object() or E.contractible:
        return "true"
    comps = _connected_components(E)
    if comps is not None:
        results = [_locally_free(_sub_mf(E, i1, i0)) for (i1, i0) in comps]
        if all(r == "true" for r in results):
            return "true"
        if any(r == "false" for r in results):
            return "false"
        return "inconclusive"
    if is_contractible(E):
        return "true"
    M = coker_module(E)
    g = M.rel.dst.rank
    if g == 0:
        return "true"
    if g > FITTING_CAP:
        return "inconclusive"
    ry, affine = M.ring, E.ctx.is_affine
    fitt = {r: fitting_ideal(M, r) for r in range(-1, g + 1)}
    for r in range(0, g + 1):
        if (_sheaf_zero(fitt[r - 1], ry, affine)
                and covers(ry, fitt[r], affine)):
            return "true"
    return "false" if affine else "inconclusive"


def prop28_report(E):
    """Contractibility condition report: (1) the identity is nullhomotopic,
    (4) the restricted cokernel is locally free on Y.  The implication
    (1) => (4) is asserted as a hard invariant."""
    cond1 = is_contractible(E)
    cond4 = locally_contractible(E)
    if cond1 and cond4 == "false":
        raise AssertionError(
            "contractibility implication violated: identity nullhomotopic "
            "but restricted cokernel certified non-locally-free")
    return {"condition1_contractible": cond1,
            "condition4_locally_free_coker": cond4,
            "consistent": True}
