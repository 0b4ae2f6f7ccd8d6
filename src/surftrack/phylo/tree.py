"""Rooted forests as preorder columns: each node's ``parent`` position
(-1 for a root), ``origin_time`` (a reconstructed node's last shared
rank, a leaf's deposit counter, or a tracked node's birth generation),
``label`` and ``founder_tag``.  Every subtree is one run, so a node is a
leaf exactly when the next position is not its child."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence


class CycleError(ValueError):
    """Parents that leave ``node`` (a position in the given order) below no root."""

    def __init__(self, node: int) -> None:
        super().__init__(f"parents form a cycle: node {node} is below no root")
        self.node = node


class Leaf(NamedTuple):
    origin_time: float
    label: str | None
    founder_tag: int | None


@dataclass
class PhyloTree:
    """A forest as preorder columns; :meth:`from_parents` builds one
    from nodes in any other order."""

    parent: list[int]
    origin_time: list[float]
    label: list[str | None]
    founder_tag: list[int | None]

    @classmethod
    def from_parents(cls, parent: Sequence[int], *columns: Sequence) -> PhyloTree:
        """Lay nodes out in preorder.  ``parent`` holds positions in the
        given order (-1 for a root), and ``columns`` the origin times,
        labels and founder tags in that order, which may be any order that
        keeps siblings, roots included, in order."""
        kids = children(parent)
        order: list[int] = []
        at = [-1] * (len(parent) + 1)  # new positions; the last entry keeps -1 as -1
        stack = kids[-1][::-1]
        while stack:
            i = stack.pop()
            at[i] = len(order)
            order.append(i)
            stack.extend(reversed(kids[i]))
        if len(order) != len(parent):
            raise CycleError(at.index(-1))
        return cls([at[parent[i]] for i in order], *([c[i] for i in order] for c in columns))

    def leaf_positions(self) -> list[int]:
        """Positions of the leaves, ascending."""
        after = self.parent[1:] + [-1]
        return [i for i, p in zip(range(len(self.parent)), after) if p != i]

    def leaf_index(self) -> dict[str, int]:
        """Each leaf's label and position; an unlabeled or repeated leaf raises ValueError."""
        index: dict[str, int] = {}
        for i in self.leaf_positions():
            label = self.label[i]
            if label is None:
                raise ValueError(f"leaf {i} is unlabeled")
            if label in index:
                raise ValueError(f"duplicate leaf label {label!r}")
            index[label] = i
        return index

    def leaves(self) -> Iterator[Leaf]:
        for i in self.leaf_positions():
            yield Leaf(self.origin_time[i], self.label[i], self.founder_tag[i])

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_positions())

    @property
    def n_roots(self) -> int:
        return self.parent.count(-1)

    def max_depth(self) -> int:
        """Longest root-to-leaf path, counted in edges."""
        return max(depths(self.parent), default=0)

    def validate(self) -> None:
        """Check the preorder layout (each parent before its children,
        each subtree one run) and that no child precedes its parent in
        time; raises ValueError."""
        path: list[int] = []  # ancestors-or-self of the previous node
        for i, p in enumerate(self.parent):
            while path and path[-1] != p:
                path.pop()
            if p != -1 and not path:
                raise ValueError(f"node {i}: parent {p} breaks the preorder layout")
            if p >= 0 and self.origin_time[i] < self.origin_time[p]:
                raise ValueError(
                    f"node {i}: origin {self.origin_time[i]} precedes "
                    f"parent origin {self.origin_time[p]}"
                )
            path.append(i)


def children(parent: Sequence[int]) -> list[list[int]]:
    """Each node's children in position order; one extra last entry,
    which ``parent`` reaches as -1, lists the roots."""
    kids: list[list[int]] = [[] for _ in range(len(parent) + 1)]
    for i, p in enumerate(parent):
        kids[p].append(i)
    return kids


def depths(parent: list[int]) -> list[int]:
    """Edges from the root to each node of a preorder ``parent`` column."""
    out: list[int] = []
    for up in parent:
        out.append(out[up] + 1 if up >= 0 else 0)
    return out
