"""Sparse exact-rational matrices for the boundary maps."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, TextIO

from .rational import format_rational, parse_rational


class RationalMatrix:
    """A rows x cols sparse matrix over the rationals; zeros are not stored.

    Entries are ``int`` or ``Fraction``: the boundary assembly stores the
    ints that integral brackets give as they are, and ``set`` stores a
    ``Fraction``.  Both compare and hash equal when their values are equal.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: Iterable[tuple[int, int, int | Fraction]] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError(f"bad shape {rows} x {cols}")
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], int | Fraction] = {}
        if entries:
            for r, c, v in entries:
                self.set(r, c, v)

    def set(self, r: int, c: int, value) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) outside {self.rows} x {self.cols}")
        value = Fraction(value)
        if value:
            self.entries[(r, c)] = value
        else:
            self.entries.pop((r, c), None)

    def get(self, r: int, c: int) -> int | Fraction:
        return self.entries.get((r, c), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- dump format: header "rows cols", then "r c p/q" sorted by (r, c) --

    def dump(self, fh: TextIO) -> None:
        fh.write(f"{self.rows} {self.cols}\n")
        for (r, c) in sorted(self.entries):
            fh.write(f"{r} {c} {format_rational(self.entries[(r, c)])}\n")

    @classmethod
    def load(cls, fh: TextIO) -> "RationalMatrix":
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("matrix dump must start with 'rows cols'")
        out = cls(int(header[0]), int(header[1]))
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError(f"bad matrix dump line: {line!r}")
            out.set(int(parts[0]), int(parts[1]), parse_rational(parts[2]))
        return out
