"""Intra DC and AC prediction.

MPEG-4 predicts each intra block's quantized DC coefficient from the left
or above neighbour, choosing the direction with the smaller DC gradient
(the "graceful" adaptive prediction of ISO/IEC 14496-2 section 7.4.3).
When the encoder sets ``ac_pred_flag``, the first row (above direction)
or first column (left direction) of quantized AC coefficients is
predicted from the same neighbour too (section 7.4.3.2).

The predictor state is a per-plane grid of reconstructed quantized DC
values (plus first-row/first-column AC lines); blocks outside the VOP (or
not intra-coded) expose the mid-grey default so prediction degrades
cleanly at boundaries.
"""

from __future__ import annotations

import numpy as np

#: Default DC used when a neighbour is unavailable: 128 * 8 / dc_scaler.
DEFAULT_DC = 128

#: AC coefficients predicted per line (the seven non-DC entries).
AC_LINE = 7

#: Prediction directions.
FROM_LEFT = 0
FROM_ABOVE = 1


class DcPredictor:
    """Adaptive left/above DC prediction over one plane's 8x8 block grid."""

    def __init__(self, block_rows: int, block_cols: int) -> None:
        if block_rows <= 0 or block_cols <= 0:
            raise ValueError("block grid must be non-empty")
        self.block_rows = block_rows
        self.block_cols = block_cols
        # Stored DCs, padded by one row/column of defaults on the top/left.
        self._dc = np.full((block_rows + 1, block_cols + 1), DEFAULT_DC, dtype=np.int32)
        self._valid = np.zeros((block_rows + 1, block_cols + 1), dtype=bool)

    def predict(self, row: int, col: int) -> int:
        """Predicted DC for block (row, col), before any DC is stored there."""
        return self.predict_with_direction(row, col)[0]

    def predict_with_direction(self, row: int, col: int) -> tuple[int, int]:
        """(predicted DC, direction) -- direction feeds AC prediction."""
        left = self._fetch(row, col - 1)
        above = self._fetch(row - 1, col)
        above_left = self._fetch(row - 1, col - 1)
        # Horizontal gradient small -> neighbours along a row agree -> the
        # above block is the better predictor, and vice versa.
        if abs(above_left - left) < abs(above_left - above):
            return above, FROM_ABOVE
        return left, FROM_LEFT

    def store(self, row: int, col: int, dc: int) -> None:
        """Record the reconstructed quantized DC of block (row, col)."""
        self._check(row, col)
        self._dc[row + 1, col + 1] = dc
        self._valid[row + 1, col + 1] = True

    def _fetch(self, row: int, col: int) -> int:
        if row < 0 or col < 0:
            return DEFAULT_DC
        if not self._valid[row + 1, col + 1]:
            return DEFAULT_DC
        return int(self._dc[row + 1, col + 1])

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.block_rows and 0 <= col < self.block_cols):
            raise IndexError(f"block ({row}, {col}) outside grid")


class AcDcPredictor(DcPredictor):
    """DC prediction plus first-row/first-column AC prediction."""

    def __init__(self, block_rows: int, block_cols: int) -> None:
        super().__init__(block_rows, block_cols)
        self._first_row = np.zeros(
            (block_rows + 1, block_cols + 1, AC_LINE), dtype=np.int32
        )
        self._first_col = np.zeros_like(self._first_row)

    def predict_ac(self, row: int, col: int, direction: int) -> np.ndarray:
        """Predicted AC line for block (row, col) in the given direction.

        ``FROM_ABOVE`` predicts the block's first *row* from the above
        neighbour's first row; ``FROM_LEFT`` predicts the first *column*
        from the left neighbour's first column.  Unavailable neighbours
        predict zero (no AC energy).
        """
        if direction == FROM_ABOVE:
            source_row, source_col = row - 1, col
            store = self._first_row
        else:
            source_row, source_col = row, col - 1
            store = self._first_col
        if source_row < 0 or source_col < 0:
            return np.zeros(AC_LINE, dtype=np.int32)
        if not self._valid[source_row + 1, source_col + 1]:
            return np.zeros(AC_LINE, dtype=np.int32)
        return store[source_row + 1, source_col + 1].copy()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The padded state (DCs, valid flags, first AC rows, first AC
        columns) that a native parser reads and writes in place."""
        return self._dc, self._valid, self._first_row, self._first_col

    def store_ac(
        self, row: int, col: int, first_row: np.ndarray, first_col: np.ndarray
    ) -> None:
        """Record a block's reconstructed first AC row and column."""
        self._check(row, col)
        self._first_row[row + 1, col + 1] = first_row
        self._first_col[row + 1, col + 1] = first_col
