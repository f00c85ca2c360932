"""Small disjoint-set forest used for component bookkeeping."""

from __future__ import annotations


class UnionFind:
    """Union-find with path halving and union by size."""

    __slots__ = ("_parent", "_size")

    def __init__(self) -> None:
        self._parent: dict = {}
        self._size: dict = {}

    def add(self, x) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1

    def find(self, x):
        p = self._parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def same(self, a, b) -> bool:
        return self.find(a) == self.find(b)
