"""Tiling for workloads exceeding the PE array (Section 3.1).

"When the sequence length is larger than the number of PEs in each row
or column, tiling technique will be applied and the throughput will
decrease."

Matrix-structure functions tile the DP grid into array-sized blocks
processed in row-major (wavefront-compatible) order; each tile's top
row, left column and corner boundary conditions are the measured cell
voltages of its already-completed neighbours, crossing the ADC -> DAC
boundary (and therefore picking up conversion latency and quantisation,
which is the physical cost of tiling).

Row-structure functions chunk the sequence into array-width segments
whose partial sums are accumulated digitally.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Tuple


class Tile(NamedTuple):
    """Closed (inclusive) DP index ranges of one tile, 1-based.

    ``rows`` covers ``i`` in ``[row_start, row_end]`` and ``cols``
    covers ``j`` in ``[col_start, col_end]`` of the (1..n, 1..m) grid —
    both endpoints belong to the tile.  A named tuple: every
    accelerator settle plans its tiles, so construction stays cheap.
    """

    row_start: int
    row_end: int
    col_start: int
    col_end: int

    @property
    def n_rows(self) -> int:
        return self.row_end - self.row_start + 1

    @property
    def n_cols(self) -> int:
        return self.col_end - self.col_start + 1

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols


def plan_matrix_tiles(
    n: int, m: int, array_rows: int, array_cols: int
) -> List[Tile]:
    """Row-major tile schedule of the (1..n, 1..m) DP grid.

    Row-major order guarantees a tile's north / west / north-west
    neighbours complete first, which is all the DP boundary needs.
    """
    tiles: List[Tile] = []
    for i0 in range(1, n + 1, array_rows):
        i1 = min(n, i0 + array_rows - 1)
        for j0 in range(1, m + 1, array_cols):
            j1 = min(m, j0 + array_cols - 1)
            tiles.append(Tile(i0, i1, j0, j1))
    return tiles


def plan_row_segments(n: int, array_cols: int) -> List[Tuple[int, int]]:
    """Chunk a length-``n`` row workload into array-width segments.

    Returns inclusive 1-based ``(start, end)`` pairs.
    """
    return [
        (s, min(n, s + array_cols - 1))
        for s in range(1, n + 1, array_cols)
    ]


def tile_count(n: int, m: int, array_rows: int, array_cols: int) -> int:
    """Number of tiles (the throughput divisor the paper alludes to)."""
    import math

    return math.ceil(n / array_rows) * math.ceil(m / array_cols)
