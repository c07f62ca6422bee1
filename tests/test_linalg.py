"""Exact linear algebra over prime fields and the rationals."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcat.fields import PrimeField, RationalField
from mfcat import linalg
from mfcat.linalg import (Block, CosetReducer, ExactMatrix, echelon_add,
                          echelon_reduce, homology_dim, kernel_basis, rref,
                          solve, sparse_blocks, sparse_matmul, sparse_rank,
                          sparse_rref, sparse_transpose)
from mfcat.ring import GradedRing

from reference import block_rows

F = PrimeField(32003)


def _scalar(field, rng, density):
    if rng.random() >= density:
        return field.zero()
    if isinstance(field, RationalField):
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(field.p)


def random_rows(field, nr, nc, rng, density=1.0):
    """nr random sparse rows over field, columns in range(nc)."""
    return [{c: v for c in range(nc)
             if not field.is_zero(v := _scalar(field, rng, density))}
            for _ in range(nr)]


def dense_rank(field, rows, ncols):
    """Rank by the dense reference elimination."""
    return len(rref(ExactMatrix.from_sparse_rows(field, rows, ncols))[1])


def apply(field, rows, ncols, v):
    """A v for a (rows, ncols) matrix A and a sparse vector v."""
    return sparse_transpose(sparse_matmul(
        field, rows, sparse_transpose([v], ncols)), 1)[0]


class TestRref:
    def test_identity(self):
        rows = [{i: 1} for i in range(4)]
        R, pivots = rref(ExactMatrix.from_sparse_rows(F, rows, 4))
        assert pivots == [0, 1, 2, 3]
        assert R.rows == [[int(i == j) for j in range(4)] for i in range(4)]
        assert sparse_rref(F, rows, 4) == (rows, [0, 1, 2, 3])

    def test_rational_rref(self):
        Q = RationalField()
        A = ExactMatrix(Q, [[Q.of(1), Q.of(2)], [Q.of(2), Q.of(4)]])
        R, pivots = rref(A)
        assert pivots == [0]
        assert R.rows[0] == [Q.of(1), Q.of(2)]
        sparse = [{0: Q.of(2), 1: Q.of(4)}, {0: Q.of(1), 1: Q.of(2)}]
        assert sparse_rref(Q, sparse, 2) == ([{0: Q.of(1), 1: Q.of(2)}], [0])
        # sparse rank over Q: the second row is 3/2 times the first
        rows = [{0: Q.of("2/3"), 2: Q.of("-1/5")},
                {0: Q.of(1), 2: Q.of("-3/10")},
                {1: Q.of(7)}, {}]
        assert sparse_rank(Q, rows, 4) == 2
        assert dense_rank(Q, rows, 4) == 2
        assert sparse_rref(Q, rows, 4)[1] == [0, 1]
        # the first two rows annihilate column 0 exactly (1/5 - 1/5)
        B = [{0: Q.of("3/10")}, {1: Q.of(1)}, {0: Q.of(1)}, {1: Q.of(5)}]
        assert sparse_matmul(Q, rows, B) == [{}, {}, {1: Q.of(7)}, {}]


class TestKernelAndSolve:
    def test_rank_nullity(self):
        rng = random.Random(5)
        for _ in range(20):
            nc = rng.randint(1, 30)
            A = random_rows(F, rng.randint(1, 30), nc, rng, density=0.6)
            K = kernel_basis(F, A, nc)
            assert sparse_rank(F, A, nc) + len(K) == nc
            # A K = 0, with the kernel vectors as the columns of K
            assert not any(sparse_matmul(F, A, sparse_transpose(K, nc)))

    def test_solve_consistent(self):
        rng = random.Random(9)
        A = random_rows(F, 8, 5, rng)
        x = {c: rng.randrange(1, F.p) for c in range(5)}
        b = apply(F, A, 5, x)
        sol = solve(F, A, 5, b)
        assert sol is not None
        assert apply(F, A, 5, sol) == b

    def test_solve_inconsistent(self):
        A = [{0: 1}, {}]
        assert solve(F, A, 2, {1: F.of(1)}) is None
        with pytest.raises(ValueError, match="shape mismatch"):
            solve(F, A, 2, {2: F.of(1)})


class TestSubquotient:
    def test_dim(self):
        # cycles span(e0, e1) in F^3, boundaries span(e0)
        assert homology_dim(F, ([{2: 1}], 3), ([{0: 1}, {}, {}], 1)) == 1

    def test_coset_reducer(self):
        # the column span of these rows is span(e0, e1) in F^3
        red = CosetReducer(F, [{0: 1}, {1: 1}, {}], 2)
        assert red.ambient == 3 and red.pivots == [0, 1]
        v = {0: F.of(3), 1: F.of(5), 2: F.of(7)}
        assert red.reduce(v) == {2: F.of(7)}
        assert red.reduce({0: F.of(1), 1: F.of(2)}) == {}
        assert red.reduce(red.reduce(v)) == red.reduce(v)


class TestMatmul:
    def test_sparse_matmul_exact(self):
        rng = random.Random(2)
        A = random_rows(F, 40, 60, rng)
        B = random_rows(F, 60, 30, rng)
        C = sparse_matmul(F, A, B)
        for i in (0, 17, 39):
            for j in (0, 29):
                want = sum(A[i].get(k, 0) * B[k].get(j, 0)
                           for k in range(60)) % F.p
                assert C[i].get(j, 0) == want

    def test_shape_mismatch(self):
        # a column of A past the rows of B is an error, not a zero
        with pytest.raises(IndexError):
            sparse_matmul(F, [{0: 1, 1: 2}], [{0: 1}])


class TestSparseBlocks:
    def test_none_block_is_zero(self):
        # blocks (0, 0) and (1, 1) are omitted, hence zero
        rows, ncols = sparse_blocks([2, 1], [1, 2],
                                    [(0, 1, Block.from_rows([{0: 5}, {1: 3}],
                                                            2)),
                                     (1, 0, Block.from_rows([{0: 7}], 1))])
        assert (rows, ncols) == ([{1: 5}, {2: 3}, {0: 7}], 3)
        assert sparse_blocks([2, 0], [3], []) == ([{}, {}], 3)

    @pytest.mark.parametrize("blk", [
        Block.from_rows([{0: 1}, {}, {}], 2),   # one row too many
        Block.from_rows([{0: 1}], 2),           # one row too few
        Block.from_rows([{0: 1}, {2: 1}], 3),   # one column too many
    ])
    def test_wrong_shape_raises(self, blk):
        with pytest.raises(ValueError, match="block \\(1, 0\\)"):
            sparse_blocks([1, 2], [2, 1], [(1, 0, blk)])

    def test_cached_block_width_checked(self):
        """A cached mult_matrix block records its width: under a column of
        any other dimension it raises, even where its entries would fit;
        under its own width it is placed at its column offset."""
        ring = GradedRing(F, ["x", "y", "z"], ideal_strings=["x*y"])
        blk = ring.mult_matrix(ring.poly("x + 2*z"), 1)     # R_1 -> R_2
        assert (blk.nrows, blk.ncols) == (5, 3)
        for nc in (2, 4):
            with pytest.raises(ValueError, match="block \\(0, 1\\) has wrong "
                               "shape"):
                sparse_blocks([5], [1, nc], [(0, 1, blk)])
        rows, ncols = sparse_blocks([5], [1, 3], [(0, 1, blk)])
        assert ncols == 4 and rows == [{1 + k: v for k, v in row.items()}
                                       for row in block_rows(blk)]

    def test_offset_zero_rows_are_copies(self):
        """A block at column offset 0 is placed without re-keying; the
        assembled rows are new dicts, and a block is never modified."""
        blk = Block.from_rows([{0: 1, 1: 2}, {}], 2)
        rows, ncols = sparse_blocks([2], [2, 1], [
            (0, 0, blk), (0, 1, Block.from_rows([{0: 3}, {0: 4}], 1))])
        assert (rows, ncols) == ([{0: 1, 1: 2, 2: 3}, {2: 4}], 3)
        assert [list(row.items()) for row in rows] == \
            [[(0, 1), (1, 2), (2, 3)], [(2, 4)]]
        assert (blk.nrows, blk.ncols, blk.entries) == \
            (2, 2, [(0, 0, 1), (0, 1, 2)])
        assert block_rows(blk) == [{0: 1, 1: 2}, {}]
        assert block_rows(blk) is not block_rows(blk)


def _field(name):
    return RationalField() if name == "Q" else PrimeField(int(name))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["2", "32003", "Q"]),
       st.sampled_from([0.3, 1.0]))
def test_homology_dim_matches_dense(seed, field_name, density):
    """homology_dim equals dim ker d_out / im d_in computed by the dense
    reference elimination, on a random complex C^{-1} -> C^0 -> C^1 with
    d_out d_in = 0: d_in has rank at most r, and the rows of d_out are
    random combinations of vectors annihilating its image."""
    field = _field(field_name)
    rng = random.Random(seed)
    n, n_in, n_out = rng.randint(1, 10), rng.randint(0, 8), rng.randint(0, 8)
    r = rng.randint(0, min(n, n_in))
    d_in = sparse_matmul(field, random_rows(field, n, r, rng, density),
                         random_rows(field, r, n_in, rng, density))
    K = kernel_basis(field, sparse_transpose(d_in, n_in), n)  # y^T d_in = 0
    d_out = sparse_matmul(field, random_rows(field, n_out, len(K), rng,
                                             density), K)
    assert not any(sparse_matmul(field, d_out, d_in))
    want = n - dense_rank(field, d_out, n) - dense_rank(field, d_in, n_in)
    got = homology_dim(field, (d_out, n), (d_in, n_in))
    assert got == want


def test_homology_dim_missing_maps():
    d = [{0: 1, 1: 1}]                  # C^0 = F^2 -> C^1 = F, rank 1
    assert homology_dim(F, (d, 2), ([], 0)) == 1
    assert homology_dim(F, ([], 1), (d, 2)) == 0
    with pytest.raises(ValueError):
        homology_dim(F, (d, 2), (d, 2))  # d_in has 1 row, not 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 25), st.integers(1, 25),
       st.sampled_from([2, 3, 101, 32003]),
       st.sampled_from([0.0, 0.05, 0.2, 1.0]))
def test_rref_property(seed, nr, nc, p, density):
    # low densities give zero rows and columns, and sparse rows whose
    # elimination fills in
    field = PrimeField(p)
    rng = random.Random(seed)
    A = random_rows(field, nr, nc, rng, density)
    R, pivots = sparse_rref(field, A, nc)
    assert sparse_rank(field, A, nc) == len(pivots) == len(R)
    K = kernel_basis(field, A, nc)
    assert len(pivots) + len(K) == nc
    assert not any(sparse_matmul(field, A, sparse_transpose(K, nc)))
    # the rows of the rref span the row space: A = X R on the pivot
    # columns, so A - X R vanishes
    X = [{i: row[c] for i, c in enumerate(pivots) if c in row} for row in A]
    assert sparse_matmul(field, X, R) == A
    # pivot columns of the rref are unit vectors
    for i, c in enumerate(pivots):
        assert min(R[i]) == c
        assert [row.get(c, 0) for row in R] == \
            [field.one() if r == i else 0 for r in range(len(R))]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 20), st.integers(1, 20),
       st.sampled_from(["2", "3", "32003", "Q"]),
       st.sampled_from([0.0, 0.05, 0.2, 1.0]))
def test_sparse_rref_matches_dense(seed, nr, nc, field_name, density):
    """sparse_rref returns the rows and pivots of the dense reference rref,
    and sparse_rank its rank, on matrices with empty rows and with no rows
    at all (nr = 0)."""
    field = _field(field_name)
    rng = random.Random(seed)
    A = random_rows(field, nr, nc, rng, density)
    R, pivots = sparse_rref(field, A, nc)
    D, dense_pivots = rref(ExactMatrix.from_sparse_rows(field, A, nc))
    assert pivots == dense_pivots
    assert sparse_rank(field, A, nc) == len(dense_pivots)
    assert ExactMatrix.from_sparse_rows(field, R, nc).rows == \
        D.rows[:len(pivots)]
    assert all(field.is_zero(v) for row in D.rows[len(pivots):] for v in row)
    # solve reads the solution off the same elimination
    x = {c: _scalar(field, rng, 1.0) for c in range(nc)}
    x = {c: v for c, v in x.items() if not field.is_zero(v)}
    b = apply(field, A, nc, x)
    sol = solve(field, A, nc, b)
    assert sol is not None and apply(field, A, nc, sol) == b


def _eliminations(field, rows, ncols):
    """Every public elimination on one (rows, ncols) matrix, each as a
    thunk, with the vectors and echelon forms they are given."""
    rng = random.Random(3)
    b = apply(field, rows, ncols, {c: field.one() for c in range(ncols)})
    v = {i: _scalar(field, rng, 1.0) or field.one()
         for i in range(len(rows))}
    R, pivots = sparse_rref(field, rows, ncols)
    echelon = dict(zip(pivots, R))
    w = {c: _scalar(field, rng, 1.0) or field.one() for c in range(ncols)}
    red = CosetReducer(field, rows, ncols)
    return [lambda: sparse_rank(field, rows, ncols),
            lambda: sparse_rref(field, rows, ncols),
            lambda: kernel_basis(field, rows, ncols),
            lambda: solve(field, rows, ncols, b),
            lambda: CosetReducer(field, rows, ncols),
            lambda: red.reduce(v),
            lambda: echelon_reduce(field, echelon, w)], (b, v, echelon, w)


@pytest.mark.parametrize("field_name", ["32003", "Q"])
def test_eliminations_leave_inputs_alone(field_name):
    """The one reduction loop works in place on vectors it owns: no
    elimination modifies its rows, right-hand side, vector or echelon
    form, and a block from the shared GradedRing.mult_matrix cache stays
    as it was for later calls."""
    field = _field(field_name)
    rng = random.Random(7)
    ring = GradedRing(field, ["x", "y", "z"], ideal_strings=["x*y"])
    cached = ring.mult_matrix(ring.poly("2*x + 3*y - z"), 2)
    entries_before = list(cached.entries)
    for rows, ncols in ((block_rows(cached), cached.ncols),
                        (random_rows(field, 12, 9, rng, density=0.4), 9),
                        (random_rows(field, 9, 12, rng, density=1.0), 12)):
        rows_before = copy.deepcopy(list(rows))
        calls, given = _eliminations(field, rows, ncols)
        assert list(rows) == rows_before
        given_before = copy.deepcopy(given)
        for call in calls:
            call()
            assert (list(rows), given) == (rows_before, given_before)
    assert ring.mult_matrix(ring.poly("2*x + 3*y - z"), 2) is cached
    assert cached.entries == entries_before


@pytest.mark.parametrize("field_name", ["32003", "Q"])
def test_rows_that_meet_no_pivot_skip_the_reduction_loop(field_name,
                                                          monkeypatch):
    """The elimination stores a row that meets no pivot, scaled, without a
    call to the reduction loop; its echelon form, keys in order, is the
    one echelon_add builds row by row."""
    field = _field(field_name)
    rows = [{0: 2, 3: 1}, {1: 5}, {}, {0: 1, 2: 1}, {2: 4, 3: 3}]
    want = {}
    for row in rows:
        echelon_add(field, want, {c: field.of(x) for c, x in row.items()})
    calls = []
    real = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce",
                        lambda *a: calls.append(a[2]) or real(*a))
    got = linalg._echelon(field, rows)
    assert [(c, list(v.items())) for c, v in got.items()] == \
        [(c, list(v.items())) for c, v in want.items()]
    # rows 0 and 1 meet no pivot; rows 3 and 4 meet pivots 0 and 2
    assert len(calls) == 2 and sparse_rank(field, rows, 4) == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 15), st.integers(1, 15),
       st.sampled_from([3, 7, 101, 32003]), st.sampled_from([0.2, 1.0]))
def test_sparse_rref_reduces_entries_mod_p(seed, nr, nc, p, density):
    """Over F_p, sparse_rref takes its input mod p: on rows with entries
    that are negative, at least p or multiples of p, and with leading
    coefficients other than 1, it equals the dense reference rref of the
    rows reduced mod p, in canonical entries."""
    field = PrimeField(p)
    rng = random.Random(seed)
    A = [{c: rng.choice([rng.randrange(-3 * p, 3 * p), p * rng.randint(-2, 2)])
          for c in range(nc) if rng.random() < density} for _ in range(nr)]
    for row in A:
        if row:
            row[min(row)] = rng.randrange(2, p) + p * rng.randint(-2, 2)
    canonical = [{c: v % p for c, v in row.items()} for row in A]
    R, pivots = sparse_rref(field, A, nc)
    D, dense_pivots = rref(ExactMatrix.from_sparse_rows(field, canonical, nc))
    assert pivots == dense_pivots
    assert sparse_rank(field, A, nc) == len(pivots)
    assert ExactMatrix.from_sparse_rows(field, R, nc).rows == \
        D.rows[:len(pivots)]
    assert all(0 < v < p for row in R for v in row.values())
