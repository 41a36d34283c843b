import numpy as np
import pytest

from llmdetect.sparse import SparseMatrix
from conftest import random_sparse
from oracles import csr_row, sparse_from_rows, to_dense, validate_csr


class TestSparseMatrix:
    def test_from_dense_round_trip(self, rng):
        X, dense = random_sparse(rng, 20, 7)
        validate_csr(X)
        np.testing.assert_array_equal(to_dense(X), dense)

    def test_from_rows(self):
        rows = [(np.array([0, 3]), np.array([1.0, 2.0])),
                (np.array([], dtype=np.int64), np.array([]))]
        X = sparse_from_rows(rows, n_cols=5)
        assert X.n_rows == 2 and X.nnz == 2
        assert len(csr_row(X, 1)[0]) == 0

    def test_dot_matches_dense(self, rng):
        X, dense = random_sparse(rng, 15, 6)
        w = rng.normal(size=6)
        np.testing.assert_allclose(X.dot(w), dense @ w, atol=1e-12)

    def test_dot_dimension_mismatch(self, rng):
        X, _ = random_sparse(rng, 4, 3)
        with pytest.raises(ValueError):
            X.dot(np.ones(5))

    def test_gather_positions(self, rng):
        X, dense = random_sparse(rng, 12, 5)
        rows = np.array([3, 7, 9])
        pos, lengths = X.gather_positions(rows)
        cols, vals = X.cols[pos], X.vals[pos]
        assert lengths.sum() == sum(np.count_nonzero(dense[r]) for r in rows)
        rebuilt = np.zeros((3, 5))
        offsets = np.cumsum(lengths) - lengths
        for k, (start, n) in enumerate(zip(offsets, lengths)):
            rebuilt[k, cols[start:start + n]] = vals[start:start + n]
        np.testing.assert_array_equal(rebuilt, dense[rows])

    def test_csc_round_trip(self, rng):
        X, dense = random_sparse(rng, 10, 8)
        col_indptr, row_idx, vals = X.to_csc()
        rebuilt = np.zeros_like(dense)
        for col in range(8):
            lo, hi = col_indptr[col], col_indptr[col + 1]
            rebuilt[row_idx[lo:hi], col] = vals[lo:hi]
            # rows within a column are sorted, as column_values relies on
            assert np.all(np.diff(row_idx[lo:hi]) > 0)
        np.testing.assert_array_equal(rebuilt, dense)

    @pytest.mark.parametrize("n_cols", [1, 256, 257, 65_536, 65_537])
    def test_csc_order_is_the_int64_stable_sort(self, rng, n_cols):
        # to_csc sorts narrowed column keys; at each dtype edge the order
        # must be the stable sort of the int64 columns.  Columns come from
        # a small pool holding 0 and n_cols - 1, so many keys tie.
        pool = np.unique(np.concatenate([[0, (n_cols - 1) // 2, n_cols - 1],
                                         rng.integers(0, n_cols, 8)]))
        rows = [np.unique(rng.choice(pool, size=rng.integers(0, 6)))
                for _ in range(200)]
        cols = np.concatenate(rows).astype(np.int64)
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        X = SparseMatrix(indptr=indptr, cols=cols, vals=rng.random(len(cols)),
                         n_rows=len(rows), n_cols=n_cols)
        validate_csr(X)
        _, row_idx, vals = X.to_csc()
        order = np.argsort(cols, kind="stable")
        row_ids = np.repeat(np.arange(X.n_rows), X.row_lengths())
        np.testing.assert_array_equal(row_idx, row_ids[order])
        np.testing.assert_array_equal(vals, X.vals[order])

    def test_column_values(self, rng):
        X, dense = random_sparse(rng, 9, 4)
        rows = np.array([0, 2, 5, 8])
        for col in range(4):
            np.testing.assert_array_equal(X.column_values(col, rows),
                                          dense[rows, col])

    def test_select_columns(self, rng):
        X, dense = random_sparse(rng, 30, 7)
        keep = np.array([True, False, False, True, False, False, True])
        part = X.select_columns(keep)
        validate_csr(part)
        np.testing.assert_array_equal(to_dense(part), dense * keep)
        rows = np.arange(30)
        for col in np.flatnonzero(keep):
            np.testing.assert_array_equal(part.column_values(col, rows),
                                          X.column_values(col, rows))
        assert X.select_columns(np.zeros(7, dtype=bool)).nnz == 0

    def test_empty_matrix(self):
        X = sparse_from_rows([], n_cols=4)
        assert X.n_rows == 0 and X.nnz == 0
        assert X.dot(np.ones(4)).shape == (0,)
