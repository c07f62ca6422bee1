"""Exact linear algebra over prime fields and the rationals."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcat.fields import PrimeField, RationalField
from mfcat.linalg import (CosetReducer, ExactMatrix, _rref_generic,
                          _rref_prime, in_column_span, kernel_basis, rank,
                          rref, solve, sparse_matmul, sparse_rank,
                          subquotient_dim)

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

    def test_prime_matches_generic(self):
        rng = random.Random(11)
        for p in (2, 5, 32003):
            field = PrimeField(p)
            for _ in range(25):
                nr, nc = rng.randint(1, 40), rng.randint(1, 40)
                rows = [[rng.randrange(p) for _ in range(nc)]
                        for _ in range(nr)]
                R1, p1 = _rref_prime(field, rows, nc)
                R2, p2 = _rref_generic(field, rows, nc)
                assert p1 == p2
                assert [[x % p for x in r] for r in R1] == R2

    def test_panel_boundary_shapes(self):
        rng = random.Random(3)
        for nr, nc in [(64, 65), (65, 64), (128, 128), (63, 130), (130, 63)]:
            rows = [[rng.randrange(F.p) for _ in range(nc)]
                    for _ in range(nr)]
            R1, p1 = _rref_prime(F, rows, nc)
            R2, p2 = _rref_generic(F, rows, nc)
            assert (p1, R1) == (p2, R2)

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

    def test_in_column_span(self):
        A = ExactMatrix(F, [[1, 2], [3, 4]])
        assert in_column_span(A, [F.of(1), F.of(3)])
        B = ExactMatrix(F, [[1], [2]])
        assert not in_column_span(B, [F.of(1), F.of(3)])


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
