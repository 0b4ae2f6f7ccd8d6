"""Rooted-forest structure shared by reconstruction, metrics, and IO."""

from __future__ import annotations

from typing import Iterator


class PhyloNode:
    """One node of a phylogeny.

    ``origin_time`` is the node's position on the time axis: for
    reconstructed trees, the differentia rank where its subtree's
    lineages were last seen together (leaves carry their deposit
    counter); for tracked trees, the birth generation.
    """

    __slots__ = ("origin_time", "label", "founder_tag", "children")

    def __init__(
        self,
        origin_time: float,
        label: str | None = None,
        founder_tag: int | None = None,
    ) -> None:
        self.origin_time = origin_time
        self.label = label
        self.founder_tag = founder_tag
        self.children: list[PhyloNode] = []

    def add(self, child: PhyloNode) -> PhyloNode:
        self.children.append(child)
        return child

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" tag={self.founder_tag}" if self.founder_tag is not None else ""
        name = self.label or "<internal>"
        return f"PhyloNode({name} @ {self.origin_time}{tag}, {len(self.children)} children)"


class PhyloTree:
    """A forest of :class:`PhyloNode` roots (often just one)."""

    def __init__(self, roots: list[PhyloNode] | None = None) -> None:
        self.roots: list[PhyloNode] = roots if roots is not None else []

    def nodes(self) -> Iterator[PhyloNode]:
        """All nodes, preorder, root by root."""
        for root in self.roots:
            stack = [root]
            while stack:
                node = stack.pop()
                yield node
                stack.extend(reversed(node.children))

    def leaves(self) -> Iterator[PhyloNode]:
        return (n for n in self.nodes() if n.is_leaf)

    @property
    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    def preorder(self) -> tuple[list[PhyloNode], list[int]]:
        """All nodes in :meth:`nodes` order, and each node's parent
        position in that list (-1 for a root)."""
        order: list[PhyloNode] = []
        parents: list[int] = []
        stack = [(root, -1) for root in reversed(self.roots)]
        while stack:
            node, up = stack.pop()
            here = len(order)
            order.append(node)
            parents.append(up)
            stack.extend((c, here) for c in reversed(node.children))
        return order, parents

    def max_depth(self) -> int:
        """Longest root-to-leaf path, counted in edges."""
        return max(depths(self.preorder()[1]), default=0)

    def validate(self) -> None:
        """Check that no node is reachable twice and that no child
        precedes its parent in time; raises ValueError."""
        seen: set[int] = set()
        for node in self.nodes():
            if id(node) in seen:
                raise ValueError("node reachable twice; not a forest")
            seen.add(id(node))
            for child in node.children:
                if child.origin_time < node.origin_time:
                    raise ValueError(
                        f"child origin {child.origin_time} precedes "
                        f"parent origin {node.origin_time}"
                    )


def depths(parents: list[int]) -> list[int]:
    """Edges from the root to each node of a :meth:`PhyloTree.preorder` index."""
    out: list[int] = []
    for up in parents:
        out.append(out[up] + 1 if up >= 0 else 0)
    return out


def collapse_unifurcations(tree: PhyloTree) -> PhyloTree:
    """Splice out every internal node with exactly one child, in place.

    Chains collapse so each surviving internal node is a branching
    point; since times are monotone along any chain, the survivor is
    the chain's deepest (latest) node.  Roots with a single child are
    replaced by their eventual branching descendant (or lone leaf).
    """
    new_roots = []
    for root in tree.roots:
        while len(root.children) == 1:
            root = root.children[0]
        stack = [root]
        while stack:
            node = stack.pop()
            squashed = []
            for child in node.children:
                while len(child.children) == 1:
                    child = child.children[0]
                squashed.append(child)
                stack.append(child)
            node.children = squashed
        new_roots.append(root)
    tree.roots = new_roots
    return tree
