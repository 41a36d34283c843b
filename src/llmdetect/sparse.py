"""A minimal compressed-sparse-row container for document-term matrices.

Only what the pipeline needs: matrix-vector products against dense
weight vectors, row gathers, and a CSC view for column-oriented work (one
column's values at a tree node's rows), of the whole matrix or of the
few columns a trained model reads.  Column indices within a row are
strictly increasing and explicit zeros are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SparseMatrix:
    """Row-major CSR matrix: row i owns ``cols[indptr[i]:indptr[i+1]]``."""

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    n_rows: int
    n_cols: int
    _csc_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return len(self.cols)

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def gather_positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Storage positions of every nonzero of the given rows, in row order.

        Returns (pos, lengths) where lengths[k] is the nnz count of rows[k];
        ``self.cols[pos]`` / ``self.vals[pos]`` give the gathered entries.
        """
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), lengths
        offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
        pos = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, lengths)
        return pos, lengths

    def dot(self, w: np.ndarray) -> np.ndarray:
        """Matrix-vector product against a dense weight vector."""
        if len(w) != self.n_cols:
            raise ValueError(f"weight vector has {len(w)} entries, matrix has "
                             f"{self.n_cols} columns")
        if self.nnz == 0:
            return np.zeros(self.n_rows)
        contrib = self.vals * w[self.cols]
        row_ids = np.repeat(np.arange(self.n_rows), self.row_lengths())
        return np.bincount(row_ids, weights=contrib, minlength=self.n_rows)

    def to_csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column-major view: (col_indptr, row_idx, vals), in the order of
        a stable sort of ``cols``."""
        if self._csc_cache is None:
            # the narrowest dtype that holds every column: a stable sort
            # of 8- or 16-bit keys is a radix sort, with the same order
            keys = self.cols.astype(np.min_scalar_type(self.n_cols - 1))
            order = np.argsort(keys, kind="stable")
            row_ids = np.repeat(np.arange(self.n_rows), self.row_lengths())
            counts = np.bincount(self.cols, minlength=self.n_cols)
            col_indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
            np.cumsum(counts, out=col_indptr[1:])
            self._csc_cache = (col_indptr, row_ids[order], self.vals[order])
        return self._csc_cache

    def select_columns(self, keep: np.ndarray) -> SparseMatrix:
        """The same matrix with only the entries of columns where the
        boolean ``keep`` is set: one pass over ``cols``, so a caller that
        reads a few columns sorts only their entries in ``to_csc``."""
        pos = np.flatnonzero(keep[self.cols])
        return SparseMatrix(indptr=np.searchsorted(pos, self.indptr),
                            cols=self.cols[pos], vals=self.vals[pos],
                            n_rows=self.n_rows, n_cols=self.n_cols)

    def column_values(self, col: int, rows: np.ndarray) -> np.ndarray:
        """Values of one column at the given rows (0.0 where not stored)."""
        col_indptr, row_idx, vals = self.to_csc()
        lo, hi = col_indptr[col], col_indptr[col + 1]
        rseg = row_idx[lo:hi]
        vseg = vals[lo:hi]
        if hi == lo:
            return np.zeros(len(rows))
        pos = np.searchsorted(rseg, rows)
        safe = np.minimum(pos, len(rseg) - 1)
        found = rseg[safe] == rows
        return np.where(found, vseg[safe], 0.0)
