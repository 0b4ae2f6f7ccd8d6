"""Small tree builders shared across test modules."""

from __future__ import annotations

import random

from surftrack.phylo.tree import PhyloNode, PhyloTree


def leaf(origin: float, label: str | None) -> PhyloNode:
    return PhyloNode(origin, label=label)


def cherry(a: str = "A", b: str = "B", split: float = 0.0, tips: float = 10.0) -> PhyloTree:
    root = PhyloNode(split)
    root.add(leaf(tips, a))
    root.add(leaf(tips, b))
    return PhyloTree([root])


def caterpillar(n: int, step: float = 1.0) -> PhyloTree:
    """Maximally unbalanced: each internal node has one leaf child."""
    root = PhyloNode(0.0)
    node = root
    for i in range(n - 1):
        node.add(leaf(n * step, f"t{i}"))
        if i < n - 2:
            node = node.add(PhyloNode((i + 1) * step))
    node.add(leaf(n * step, f"t{n - 1}"))
    return PhyloTree([root])


def balanced(depth: int, step: float = 1.0) -> PhyloTree:
    """Complete binary tree with 2**depth leaves."""
    counter = iter(range(1 << depth))

    def grow(level: int, origin: float) -> PhyloNode:
        if level == depth:
            return leaf(depth * step, f"t{next(counter)}")
        node = PhyloNode(origin)
        node.add(grow(level + 1, origin + step))
        node.add(grow(level + 1, origin + step))
        return node

    return PhyloTree([grow(0, 0.0)])


def random_tree(seed: int, max_leaves: int = 64, forest: bool = False) -> PhyloTree:
    """Random topology with integral origins increasing away from the root.

    Grown by repeatedly splitting a random leaf, so anything from
    caterpillars to balanced shapes comes out.  Integral origins keep
    text round trips exact.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_leaves)
    n_roots = min(rng.randint(2, 4), n // 2) if forest and n >= 4 else 1

    up: dict[int, PhyloNode] = {}  # id of each non-root node -> its parent

    def sprout(node: PhyloNode) -> None:
        for _ in range(2):
            up[id(node.add(leaf(0.0, None)))] = node

    roots = [PhyloNode(float(rng.randint(0, 3))) for _ in range(n_roots)]
    for root in roots:
        sprout(root)
    made = 2 * n_roots
    while made < n:
        victim = rng.choice([x for r in roots for x in _leaves_under(r)])
        victim.origin_time = up[id(victim)].origin_time + rng.randint(1, 4)
        sprout(victim)
        made += 1

    idx = 0
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                node.origin_time = up[id(node)].origin_time + rng.randint(1, 6)
                node.label = f"t{idx}"
                idx += 1
            else:
                stack.extend(node.children)
    return PhyloTree(roots)


def canon(tree: PhyloTree):
    """Order-insensitive structural fingerprint of a forest."""

    def node(n):
        # key=repr: labels/tags mix str and None, which don't order natively
        kids = tuple(sorted((node(c) for c in n.children), key=repr))
        return (n.origin_time, n.label, n.founder_tag, kids)

    return tuple(sorted((node(r) for r in tree.roots), key=repr))


def canon_ordered(tree: PhyloTree):
    """Like canon but keeps child order, for formats that preserve it."""

    def node(n):
        return (n.origin_time, n.label, n.founder_tag, tuple(node(c) for c in n.children))

    return tuple(node(r) for r in tree.roots)


def _leaves_under(node: PhyloNode):
    stack = [node]
    while stack:
        x = stack.pop()
        if x.is_leaf:
            yield x
        else:
            stack.extend(x.children)
