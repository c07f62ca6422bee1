"""Exact linear algebra over prime fields and the rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcat.fields import PrimeField, RationalField
from mfcat.linalg import (CosetReducer, ExactMatrix, homology_dim,
                          kernel_basis, rank, rref, solve, sparse_blocks,
                          sparse_matmul, sparse_rank, subquotient_dim)

F = PrimeField(32003)


def random_matrix(field, nr, nc, rng, density=1.0):
    return ExactMatrix(field, [[rng.randrange(field.p)
                                if rng.random() < density else 0
                                for _ in range(nc)] for _ in range(nr)])


class TestRref:
    def test_identity(self):
        A = ExactMatrix.identity(F, 4)
        R, pivots = rref(A)
        assert pivots == [0, 1, 2, 3]
        assert R.rows == A.rows

    def test_rational_rref(self):
        Q = RationalField()
        A = ExactMatrix(Q, [[Q.of(1), Q.of(2)], [Q.of(2), Q.of(4)]])
        R, pivots = rref(A)
        assert pivots == [0]
        assert R.rows[0] == [Q.of(1), Q.of(2)]
        # sparse rank over Q: the second row is 3/2 times the first
        rows = [{0: Q.of("2/3"), 2: Q.of("-1/5")},
                {0: Q.of(1), 2: Q.of("-3/10")},
                {1: Q.of(7)}, {}]
        assert sparse_rank(Q, rows, 4) == 2
        assert rank(ExactMatrix.from_sparse_rows(Q, rows, 4)) == 2
        # the first two rows annihilate column 0 exactly (1/5 - 1/5)
        B = [{0: Q.of("3/10")}, {1: Q.of(1)}, {0: Q.of(1)}, {1: Q.of(5)}]
        assert sparse_matmul(Q, rows, B) == [{}, {}, {1: Q.of(7)}, {}]


class TestKernelAndSolve:
    def test_rank_nullity(self):
        rng = random.Random(5)
        for _ in range(20):
            A = random_matrix(F, rng.randint(1, 30), rng.randint(1, 30), rng,
                              density=0.6)
            K = kernel_basis(A)
            assert rank(A) + len(K.columns()) == A.ncols
            # A @ K == 0
            assert A.matmul(K).is_zero() if K.ncols else True

    def test_solve_consistent(self):
        rng = random.Random(9)
        A = random_matrix(F, 8, 5, rng)
        x = [rng.randrange(F.p) for _ in range(5)]
        b = A.matvec([F.of(c) for c in x])
        sol = solve(A, b)
        assert sol is not None
        assert A.matvec(sol) == b

    def test_solve_inconsistent(self):
        A = ExactMatrix(F, [[1, 0], [0, 0]])
        assert solve(A, [F.of(0), F.of(1)]) is None


class TestSubquotient:
    def test_dim(self):
        Z = ExactMatrix(F, [[1, 0], [0, 1], [0, 0]])
        B = ExactMatrix(F, [[1], [0], [0]])
        assert subquotient_dim(Z, B) == 1

    def test_coset_reducer(self):
        B = ExactMatrix(F, [[1, 0], [0, 1], [0, 0]])
        red = CosetReducer(B)
        v = [F.of(3), F.of(5), F.of(7)]
        r = red.reduce(v)
        assert r == [F.of(0), F.of(0), F.of(7)]
        assert red.is_in_span([F.of(1), F.of(2), F.of(0)])
        assert not red.is_in_span(v)


class TestMatmul:
    def test_blas_path_exact(self):
        rng = random.Random(2)
        A = random_matrix(F, 40, 60, rng)
        B = random_matrix(F, 60, 30, rng)
        C = A.matmul(B)
        for i in (0, 17, 39):
            for j in (0, 29):
                want = 0
                for k in range(60):
                    want = (want + A.rows[i][k] * B.rows[k][j]) % F.p
                assert C.rows[i][j] == want

    def test_shape_mismatch(self):
        A = ExactMatrix(F, [[1, 2]])
        with pytest.raises(ValueError):
            A.matmul(A)


class TestSparseBlocks:
    def test_none_block_is_zero(self):
        # blocks (0, 0) and (1, 1) are omitted, hence zero
        rows, ncols = sparse_blocks([2, 1], [1, 2],
                                    [(0, 1, [{0: 5}, {1: 3}]),
                                     (1, 0, [{0: 7}])])
        assert (rows, ncols) == ([{1: 5}, {2: 3}, {0: 7}], 3)
        assert sparse_blocks([2, 0], [3], []) == ([{}, {}], 3)

    @pytest.mark.parametrize("blk", [
        [{0: 1}, {}, {}],       # one row too many
        [{0: 1}],               # one row too few
        [{0: 1}, {2: 1}],       # a column past the block's width
    ])
    def test_wrong_shape_raises(self, blk):
        with pytest.raises(ValueError, match="block \\(1, 0\\)"):
            sparse_blocks([1, 2], [2, 1], [(1, 0, blk)])


def _scalar(field, rng, density):
    if rng.random() >= density:
        return field.zero()
    if isinstance(field, RationalField):
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(field.p)


def _dense(field, nr, nc, rng, density=1.0):
    return ExactMatrix(field, [[_scalar(field, rng, density)
                                for _ in range(nc)] for _ in range(nr)], nc)


def _to_sparse(field, M):
    return [{c: v for c, v in enumerate(row) if not field.is_zero(v)}
            for row in M.rows]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["2", "32003", "Q"]),
       st.sampled_from([0.3, 1.0]))
def test_homology_dim_matches_dense(seed, field_name, density):
    """homology_dim equals dim ker d_out / im d_in computed densely, on a
    random complex C^{-1} -> C^0 -> C^1 with d_out d_in = 0: d_in has
    rank at most r, and the rows of d_out are random combinations of
    vectors annihilating its image."""
    field = RationalField() if field_name == "Q" else \
        PrimeField(int(field_name))
    rng = random.Random(seed)
    n, n_in, n_out = rng.randint(1, 10), rng.randint(0, 8), rng.randint(0, 8)
    r = rng.randint(0, min(n, n_in))
    d_in = _dense(field, n, r, rng, density).matmul(
        _dense(field, r, n_in, rng, density))
    K = kernel_basis(d_in.transpose())       # y with y^T d_in = 0
    d_out = _dense(field, n_out, K.ncols, rng, density).matmul(K.transpose())
    assert not any(sparse_matmul(field, _to_sparse(field, d_out),
                                 _to_sparse(field, d_in)))
    want = subquotient_dim(kernel_basis(d_out), d_in)
    got = homology_dim(field, (_to_sparse(field, d_out), n),
                       (_to_sparse(field, d_in), n_in))
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
    A = random_matrix(field, nr, nc, rng, density)
    R, pivots = rref(A)
    sparse = [{c: v for c, v in enumerate(row) if v} for row in A.rows]
    assert sparse_rank(field, sparse, nc) == len(pivots)
    K = kernel_basis(A)
    assert len(pivots) + K.ncols == nc
    if K.ncols:
        assert A.matmul(K).is_zero()
    # the sparse product agrees with the dense one, and kills the kernel
    def to_sparse(M):
        return [{c: v for c, v in enumerate(row) if v} for row in M.rows]
    At = A.transpose()
    assert sparse_matmul(field, sparse, to_sparse(At)) == \
        to_sparse(A.matmul(At))
    assert not any(sparse_matmul(field, sparse, to_sparse(K)))
    # pivot columns of the rref are unit vectors
    for i, c in enumerate(pivots):
        col = [R.rows[r][c] for r in range(R.nrows)]
        assert col[i] == field.one()
        assert all(field.is_zero(x) for r, x in enumerate(col) if r != i)
