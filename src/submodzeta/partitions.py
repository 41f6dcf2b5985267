"""Integer partitions and the cell-index combinatorics built on them.

A partition is a non-increasing tuple of positive parts.  Two small
operations carry the rest of the package: the dual partition (column
lengths of the Young diagram) and ind(j) -- the row in which the j-th cell
lands when the diagram is filled row by row, left to right.
"""

from __future__ import annotations


class Partition:
    """A non-increasing sequence of positive integers; may be empty."""

    __slots__ = ("_parts",)

    def __init__(self, parts=()):
        parts = tuple(sorted(parts, reverse=True))
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
        self._parts = parts

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        """Total number of cells of the Young diagram."""
        return sum(self._parts)

    @property
    def length(self) -> int:
        """Number of parts (rows)."""
        return len(self._parts)

    @property
    def last_part(self) -> int:
        """The smallest part."""
        if not self._parts:
            raise ValueError("empty partition has no last part")
        return self._parts[-1]

    def dual(self) -> Partition:
        """Column lengths of the Young diagram.

        The i-th part of the dual counts the rows of length >= i; applying
        dual twice gives back the original partition.
        """
        if not self._parts:
            return Partition()
        cols = [0] * self._parts[0]
        for part in self._parts:
            for i in range(part):
                cols[i] += 1
        return Partition(cols)

    def ind(self, j: int) -> int:
        """Row index (1-based) of the j-th cell in the row-by-row filling.

        Equivalently: the minimal i with j <= (sum of the first i parts).
        """
        if not 1 <= j <= self.size:
            raise ValueError(f"cell index {j} out of range 1..{self.size}")
        total = 0
        for i, part in enumerate(self._parts, start=1):
            total += part
            if j <= total:
                return i
        raise AssertionError("unreachable")

    def to_json(self) -> list[int]:
        return list(self._parts)

    @classmethod
    def from_json(cls, data) -> Partition:
        """Parse a JSON array of parts; any order is accepted and canonicalized."""
        if not isinstance(data, (list, tuple)):
            raise ValueError("partition JSON must be an array of integers")
        return cls(data)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return f"Partition({list(self._parts)!r})"
