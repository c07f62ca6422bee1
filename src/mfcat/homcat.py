"""Hom-sets in the naive and hypercohomology homotopy categories,
Koszul stabilization with self-checking certificates, composition of
stabilized classes, and the contractibility/weak-equivalence predicates.
"""

from functools import cached_property

from .cohomology import GlobalSections
from .hypersurface import coker_module
from .koszul import koszul_truncated, stabilized_mf, tot_blocks, tot_morphism
from .linalg import (CosetReducer, echelon_add, homology_dim, kernel_basis,
                     sparse_matmul)
from .mf import (MatrixFactorization, SheafMap, StrictMorphism, TwistSum,
                 cone, cycle_from_strict, hom_layout, hom_twists,
                 mapping_complex, solve_homotopy, strict_from_cycle, unrolled)
from .modules import (contains_irrelevant_power, default_saturation_bound,
                      fitting_ideal)
from .poly import Poly
from .ring import buchberger, reduce_poly


class HomSpace:
    """A computed Hom-set: dimension, canonical basis data, model tag."""

    def __init__(self, src, dst, model, dimension, basis, tower,
                 certificate=None, stabilized_src=None, gamma=None):
        self.src = src
        self.dst = dst
        self.model = model            # 'naive' | 'hyper'
        self.dimension = dimension
        self.basis = basis            # list of StabilizedClass, or None
        self.tower = tower            # tuple of Koszul levels j
        self.certificate = certificate
        self.stabilized_src = stabilized_src if stabilized_src is not None else src
        self.gamma = gamma            # GammaComplex, or None for a zero object

    @property
    def cycle_space(self):
        """Kernel basis of Gamma(d^0) as sparse vectors, built on first
        access."""
        return None if self.gamma is None else self.gamma.cycle_space

    @property
    def reducer(self):
        """CosetReducer modulo the boundaries, built on first access."""
        return None if self.gamma is None else self.gamma.reducer

    def describe(self):
        out = {"model": self.model, "dim": self.dimension,
               "tower": list(self.tower)}
        if self.certificate is not None:
            out["certificate"] = self.certificate.describe()
        if self.basis is not None:
            out["basis"] = [cls.rep.describe() for cls in self.basis]
        return out


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


class GammaComplex:
    """Gamma of a mapping complex around degree 0, as sparse rows:
    m_in = Gamma(d^-1) with n_in columns, m_out = Gamma(d^0) with n columns.
    The cycle basis and boundary reducer, needed only for bases and class
    coordinates, are built on first access."""

    def __init__(self, C, gs):
        self.field = gs.ring.field
        self.m_in, self.n_in = gs.sheafmap_rows(C.e1)
        self.m_out, self.n = gs.sheafmap_rows(C.e0)

    def h0_dim(self):
        """dim ker m_out / im m_in, after checking m_out m_in = 0 (the
        boundaries lie in the cycles)."""
        if any(sparse_matmul(self.field, self.m_out, self.m_in)):
            raise ValueError("boundary space is not contained in the cycle space")
        return homology_dim(self.field, (self.m_out, self.n),
                            (self.m_in, self.n_in))

    @cached_property
    def cycle_space(self):
        return kernel_basis(self.field, self.m_out, self.n)

    @cached_property
    def reducer(self):
        return CosetReducer(self.field, self.m_in, self.n_in)


def hom_naive(E, F, gs=None, want_basis=True):
    """Strict morphisms modulo homotopy: H^0 of Gamma(mapping complex)."""
    if E.ctx != F.ctx:
        raise ValueError("context mismatch")
    gs = gs or GlobalSections(E.ctx)
    if E.is_zero_object() or F.is_zero_object():
        return HomSpace(E, F, "naive", 0, [], ())
    C = mapping_complex(E, F)
    gamma = GammaComplex(C, gs)
    dim = gamma.h0_dim()
    basis = None
    if want_basis and gs.monomial_path(list(C.E0.twists)):
        basis = _cycle_basis_classes(E, F, gamma.cycle_space,
                                     gamma.reducer) if dim else []
        assert len(basis) == dim
    return HomSpace(E, F, "naive", dim, basis, (), gamma=gamma)


def _cycle_basis_classes(E, F, Z, reducer):
    """Coset representatives of ker/im as verified strict morphisms: the
    reduced cycles independent of those picked before them, tested on one
    growing echelon form."""
    field = E.ctx.ring.field
    picked = {}
    classes = []
    for z in Z:
        v = reducer.reduce(z)
        if echelon_add(field, picked, v) is not None:
            f = strict_from_cycle(E, F, v)
            classes.append(StabilizedClass(E, F, (), f))
    return classes


def class_coords(cls, gs=None, hom_space=None):
    """Canonical coordinates of a class: the boundary-reduced Gamma(C^0)
    vector of its representative (classes are equal iff these agree, at
    equal towers)."""
    E = cls.rep.src
    F = cls.dst
    gs = gs or GlobalSections(F.ctx)
    if hom_space is None:
        hom_space = hom_naive(E, F, gs, want_basis=False)
    reducer = hom_space.reducer
    v = reducer.reduce(cycle_from_strict(cls.rep))
    zero = gs.ring.field.zero()
    return tuple(v.get(i, zero) for i in range(reducer.ambient))


# -- stabilization -------------------------------------------------------------


class StabilizationCertificate:
    """Records the chosen Koszul level and the twist-inventory inequality
    that certifies naive = hypercohomology Hom out of the stabilization."""

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


def stabilize(E, F, M=0, j_max=12, threshold=None, gs=None):
    """Replace E by Tot(P(j) tensor E) with the least j whose mapping-complex
    twist inventory clears the vanishing threshold in all rows q >= M-m-1.
    The threshold is `threshold` as (n0, tag) if given, else gs.threshold.
    E' and epsilon are built once per (E, j) in gs; the certificate is
    re-checked on every call, since its rows depend on F.

    Returns (E', epsilon: E' -> E, certificate)."""
    ctx = E.ctx
    ring = ctx.ring
    if ctx.is_affine:
        raise ValueError("stabilization is a projective-mode operation")
    if E.is_zero_object():
        cert = StabilizationCertificate(0, 0, 0, "trivial", {}, 0, M)
        return E, StrictMorphism.identity(E), cert
    gs = gs or GlobalSections(ctx)
    n0, tag = threshold or gs.threshold
    q_min = M - ring.nvars          # M - m - 1 on P^m

    def row_twists(E1p, E0p):
        """Sorted twist lists of Hom_MF(E', F)^q, q = q_min, q_min + 1."""
        cm1, c0 = (hom_twists(*pairs) for pairs in hom_layout(E1p, E0p, F))
        return {q: sorted(unrolled(c0, cm1, ctx.d, q))
                for q in (q_min, q_min + 1)}

    chosen = None
    for j in range(1, j_max + 1):
        P, aug = koszul_truncated(ring, j)
        # the twist inventories of E'_1 and E'_0, without matrices
        rows = row_twists(*(TwistSum(t for _, ts in tot_blocks(P, E, level)
                                     for t in ts) for level in (-1, 0)))
        min_twist = min(min(tw) for tw in rows.values() if tw) \
            if any(rows.values()) else n0
        if min_twist >= n0:
            k = P.term(0).rank
            cert = StabilizationCertificate(j, k, n0, tag, rows, min_twist, M)
            chosen = (P, aug, cert)
            break
    if chosen is None:
        raise RuntimeError("no Koszul level up to %d clears the vanishing "
                           "threshold" % j_max)
    P, aug, cert = chosen
    if (E, cert.j) not in gs.stabilized:
        gs.stabilized[E, cert.j] = stabilized_mf(P, aug, E)
    Ep, eps = gs.stabilized[E, cert.j]
    # self-check: the certificate inventory matches the built object
    if row_twists(Ep.E1, Ep.E0) != cert.rows or not cert.check():
        raise AssertionError("stabilization certificate failed its re-check")
    return Ep, eps, cert


def hom_H(E, F, gs=None, want_basis=True):
    """Hom in the hypercohomology homotopy category.

    Affine-graded mode: equals hom_naive.  Projective mode: hom_naive out
    of the Koszul stabilization of the source, with the certificate."""
    if E.ctx != F.ctx:
        raise ValueError("context mismatch")
    gs = gs or GlobalSections(E.ctx)
    if E.ctx.is_affine:
        hs = hom_naive(E, F, gs, want_basis=want_basis)
        return HomSpace(E, F, "hyper", hs.dimension, hs.basis, (),
                        gamma=hs.gamma)
    Ep, eps, cert = stabilize(E, F, 0, gs=gs)
    hs = hom_naive(Ep, F, gs, want_basis=want_basis)
    basis = None
    if hs.basis is not None:
        basis = [StabilizedClass(E, F, (cert.j,), cls.rep)
                 for cls in hs.basis]
    return HomSpace(E, F, "hyper", hs.dimension, basis, (cert.j,),
                    certificate=cert, stabilized_src=Ep, gamma=hs.gamma)


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
    """Global contractibility: the identity is nullhomotopic."""
    if E.is_zero_object():
        return True
    return solve_homotopy(StrictMorphism.identity(E)) is not None


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
    ring = E.ctx.ring
    E1 = TwistSum([E.E1[i] for i in idx1])
    E0 = TwistSum([E.E0[i] for i in idx0])
    pos1 = {c: k for k, c in enumerate(idx1)}
    pos0 = {c: k for k, c in enumerate(idx0)}
    e1 = SheafMap.from_rows(ring, E1, E0,
                            [{pos1[c]: p for c, p in E.e1.rows[r].items()}
                             for r in idx0])
    e0 = SheafMap.from_rows(ring, E0, E1.twist(E.ctx.d),
                            [{pos0[c]: p for c, p in E.e0.rows[r].items()}
                             for r in idx1])
    return MatrixFactorization(E.ctx, e1, e0, check=False)


def _sheaf_zero(gens, ring, B):
    """Positive certificate that each generator restricts to zero on Proj:
    normal form zero, or annihilated by the B-th power of every variable."""
    gens = [ring.normal_form(p) for p in gens]
    gens = [p for p in gens if not p.is_zero()]
    if not gens:
        return True
    for N in range(1, B + 1):
        ok = True
        for p in gens:
            for i in range(ring.nvars):
                xi = Poly.monomial(ring.field, ring.nvars,
                                   tuple(N if k == i else 0
                                         for k in range(ring.nvars)))
                if not ring.normal_form(xi * p).is_zero():
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _ideal_is_unit(gens, ring):
    """1 in (gens) + I, decided by a Groebner basis."""
    gens = [ring.normal_form(p) for p in gens]
    gens = [p for p in gens if not p.is_zero()]
    if not gens:
        return False
    basis = buchberger(gens + ring.ideal_gens)
    return reduce_poly(ring.one(), basis).is_zero()


def locally_contractible(E, saturation_bound=None, fitting_cap=9):
    """Three-valued local contractibility via local freeness of the
    restricted cokernel (Fitting-ideal scan over R/(W)).

    Affine-graded mode is a complete decision (graded modules over a
    graded-connected ring are projective iff free).  Projective mode
    returns true on a positive certificate and inconclusive otherwise
    (rank-jumping sheaves on disconnected hypersurfaces prevent a bounded
    false certificate)."""
    ctx = E.ctx
    if not ctx.w_regular:
        raise ValueError("locally_contractible requires a regular W")
    if E.is_zero_object():
        return "true"
    comps = _connected_components(E)
    if comps is not None:
        results = [locally_contractible(_sub_mf(E, i1, i0),
                                        saturation_bound, fitting_cap)
                   for (i1, i0) in comps]
        if all(r == "true" for r in results):
            return "true"
        if any(r == "false" for r in results):
            return "false"
        return "inconclusive"
    if is_contractible(E):
        return "true"
    M = coker_module(E)
    g = M.n_gens
    if g == 0:
        return "true"
    if g > fitting_cap:
        return "inconclusive"
    ry = M.ring
    if saturation_bound is None:
        cols = [p for col in M.columns for p in col]
        saturation_bound = default_saturation_bound(ry, cols or [ry.one()])
    fitt = {r: fitting_ideal(M, r) for r in range(-1, g + 1)}
    for r in range(0, g + 1):
        lower = fitt[r - 1]
        upper = fitt[r]
        if ctx.is_affine:
            low_zero = all(ry.normal_form(p).is_zero() for p in lower)
            up_unit = _ideal_is_unit(upper, ry)
        else:
            low_zero = _sheaf_zero(lower, ry, saturation_bound)
            up_unit = contains_irrelevant_power(upper, ry,
                                                saturation_bound) is not None
        if low_zero and up_unit:
            return "true"
    if ctx.is_affine:
        return "false"
    return "inconclusive"


def weak_equivalence(f, **kw):
    """A strict morphism is a weak equivalence iff its cone is locally
    contractible."""
    return locally_contractible(cone(f), **kw)


def prop28_report(E, **kw):
    """Contractibility condition report: (1) the identity is nullhomotopic,
    (4) the restricted cokernel is locally free on Y.  The implication
    (1) => (4) is asserted as a hard invariant."""
    cond1 = is_contractible(E)
    cond4 = locally_contractible(E, **kw)
    if cond1 and cond4 == "false":
        raise AssertionError(
            "contractibility implication violated: identity nullhomotopic "
            "but restricted cokernel certified non-locally-free")
    return {"condition1_contractible": cond1,
            "condition4_locally_free_coker": cond4,
            "consistent": True}
