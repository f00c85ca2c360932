"""The disjoint-set forest: a dict from a dart to its parent, where a
dart the dict lacks is its own root.  Finds halve their paths, and
unions keep no size table: path halving alone keeps finds O(log n)
amortized (Tarjan and van Leeuwen, J. ACM 31(2), 1984).
"""

from __future__ import annotations


def _find(parent: dict, x):
    while x in parent:
        p = parent[x]
        parent[x] = x = parent.get(p, p)
    return x


def _union(parent: dict, a, b) -> bool:
    """Merge the sets of ``a`` and ``b``; True if they were distinct.
    Both finds run inline: this is a component count's inner loop."""
    while a in parent:
        p = parent[a]
        parent[a] = a = parent.get(p, p)
    while b in parent:
        p = parent[b]
        parent[b] = b = parent.get(p, p)
    if a == b:
        return False
    parent[a] = b
    return True
