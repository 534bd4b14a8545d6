"""Labeled symbol matrices.

A LabeledMatrix is a rectangular matrix over the alphabet {1, 0, R, C, X}
whose rows and columns carry vertex labels.  Plain 0/1 matrices are the
degenerate case; the extra symbols appear in zero partitions (R, C) and in
padded square forms (X, before resolution).

Labels are the interface, indices are the work: callers name rows and
columns by label, and the library turns labels into indices once per
matrix and reads `entries` by index from then on.  `entry` is the label
accessor for callers; no module of the library calls it.

All values are immutable; every operation returns a new matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

ONE = "1"
ZERO = "0"
R = "R"
C = "C"
X = "X"

SYMBOLS = (ONE, ZERO, R, C, X)


@dataclass(frozen=True)
class LabeledMatrix:
    """Immutable rows x cols matrix over the five-symbol alphabet."""

    rows: tuple
    cols: tuple
    entries: tuple  # tuple of row tuples, entries[i][j] over SYMBOLS

    def __post_init__(self):
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("duplicate row labels")
        if len(set(self.cols)) != len(self.cols):
            raise ValueError("duplicate column labels")
        if len(self.entries) != len(self.rows):
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != len(self.cols):
                raise ValueError("column count mismatch")
            for e in row:
                if e not in SYMBOLS:
                    raise ValueError(f"bad entry {e!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def entry(self, row_label, col_label) -> str:
        return self.entries[self.rows.index(row_label)][self.cols.index(col_label)]

    def is_zero_one(self) -> bool:
        return all(e in (ZERO, ONE) for row in self.entries for e in row)

    def is_square(self) -> bool:
        return len(self.rows) == len(self.cols)

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        n = len(self.rows)
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def transpose(self) -> "LabeledMatrix":
        r, c = self.shape
        return LabeledMatrix(
            rows=self.cols,
            cols=self.rows,
            entries=tuple(tuple(self.entries[i][j] for i in range(r)) for j in range(c)),
        )

    def permuted(self, row_order: Sequence, col_order: Sequence) -> "LabeledMatrix":
        """Reorder rows and columns to the given label sequences."""
        if len(row_order) != len(self.rows) or set(row_order) != set(self.rows):
            raise ValueError("row_order is not a permutation of the row labels")
        if len(col_order) != len(self.cols) or set(col_order) != set(self.cols):
            raise ValueError("col_order is not a permutation of the column labels")
        row_at = {r_: i for i, r_ in enumerate(self.rows)}
        col_at = {c_: j for j, c_ in enumerate(self.cols)}
        return _select(
            self, [row_at[r_] for r_ in row_order], [col_at[c_] for c_ in col_order]
        )

    def relabeled(self, zeros: dict) -> "LabeledMatrix":
        """Replace entries at the given (i, j) index positions."""
        entries = [list(row) for row in self.entries]
        for (i, j), value in zeros.items():
            entries[i][j] = value
        return LabeledMatrix(
            rows=self.rows, cols=self.cols, entries=tuple(tuple(r_) for r_ in entries)
        )


def from_rows(rows: Sequence, cols: Sequence, data: Sequence[Sequence[str]]) -> LabeledMatrix:
    return LabeledMatrix(
        rows=tuple(rows), cols=tuple(cols), entries=tuple(tuple(r_) for r_ in data)
    )


def from_zero_one(data: Sequence[Sequence[int]], rows=None, cols=None) -> LabeledMatrix:
    """Build a 0/1 matrix from nested ints; labels default to r0.., c0.."""
    nrows = len(data)
    ncols = len(data[0]) if nrows else 0
    if rows is None:
        rows = tuple(f"r{i}" for i in range(nrows))
    if cols is None:
        cols = tuple(f"c{j}" for j in range(ncols))
    entries = tuple(tuple(ONE if v else ZERO for v in row) for row in data)
    return LabeledMatrix(rows=tuple(rows), cols=tuple(cols), entries=entries)


def _select(m: LabeledMatrix, ri: Sequence[int], ci: Sequence[int]) -> LabeledMatrix:
    """The rows at indices ri and the columns at indices ci, in those orders."""
    return LabeledMatrix(
        rows=tuple(m.rows[i] for i in ri),
        cols=tuple(m.cols[j] for j in ci),
        entries=tuple(tuple(m.entries[i][j] for j in ci) for i in ri),
    )


def strip_to(m: LabeledMatrix, row_labels: Sequence, col_labels: Sequence) -> LabeledMatrix:
    """Delete all rows/columns not in the given label sets, keeping m's order."""
    keep_r, keep_c = set(row_labels), set(col_labels)
    return _select(
        m,
        [i for i, r_ in enumerate(m.rows) if r_ in keep_r],
        [j for j, c_ in enumerate(m.cols) if c_ in keep_c],
    )
