"""Small tree builders and references shared across test modules."""

from __future__ import annotations

import random

from surftrack.phylo.tree import PhyloTree, children


def build(*nodes: tuple[int, float, str | None]) -> PhyloTree:
    """A tree from ``(parent position, origin, label)`` triples, in any
    order that keeps siblings in order; no founder tags."""
    parent = [p for p, _, _ in nodes]
    return PhyloTree.from_parents(
        parent, [t for _, t, _ in nodes], [x for _, _, x in nodes], [None] * len(nodes)
    )


def leaf(origin: float, label: str | None) -> PhyloTree:
    return build((-1, origin, label))


def forest(*trees: PhyloTree) -> PhyloTree:
    """The trees side by side, as one forest."""
    out = PhyloTree([], [], [], [])
    for tree in trees:
        base = len(out.parent)
        out.parent += [p + base if p >= 0 else -1 for p in tree.parent]
        out.origin_time += tree.origin_time
        out.label += tree.label
        out.founder_tag += tree.founder_tag
    return out


def cherry(a: str = "A", b: str = "B", split: float = 0.0, tips: float = 10.0) -> PhyloTree:
    return build((-1, split, None), (0, tips, a), (0, tips, b))


def caterpillar(n: int, step: float = 1.0) -> PhyloTree:
    """Maximally unbalanced: each internal node has one leaf child."""
    nodes = [(-1, 0.0, None)]
    node = 0
    for i in range(n - 1):
        nodes.append((node, n * step, f"t{i}"))
        if i < n - 2:
            nodes.append((node, (i + 1) * step, None))
            node = len(nodes) - 1
    nodes.append((node, n * step, f"t{n - 1}"))
    return build(*nodes)


def balanced(depth: int, step: float = 1.0) -> PhyloTree:
    """Complete binary tree with 2**depth leaves."""
    counter = iter(range(1 << depth))
    nodes: list[tuple[int, float, str | None]] = []

    def grow(level: int, origin: float, up: int) -> None:
        if level == depth:
            nodes.append((up, depth * step, f"t{next(counter)}"))
            return
        nodes.append((up, origin, None))
        here = len(nodes) - 1
        grow(level + 1, origin + step, here)
        grow(level + 1, origin + step, here)

    grow(0, 0.0, -1)
    return build(*nodes)


def random_tree(seed: int, max_leaves: int = 64, forest: bool = False) -> PhyloTree:
    """Random topology with integral origins increasing away from the root.

    Grown by repeatedly splitting a random leaf, so anything from
    caterpillars to balanced shapes comes out.  Integral origins keep
    text round trips exact.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_leaves)
    n_roots = min(rng.randint(2, 4), n // 2) if forest and n >= 4 else 1

    parent: list[int] = []
    time: list[float] = []
    kids: list[list[int]] = []

    def node(up: int, origin: float) -> int:
        parent.append(up)
        time.append(origin)
        kids.append([])
        if up >= 0:
            kids[up].append(len(parent) - 1)
        return len(parent) - 1

    def sprout(x: int) -> None:
        for _ in range(2):
            node(x, 0.0)

    roots = [node(-1, float(rng.randint(0, 3))) for _ in range(n_roots)]
    for root in roots:
        sprout(root)
    made = 2 * n_roots
    while made < n:
        victim = rng.choice([x for r in roots for x in _leaves_under(kids, r)])
        time[victim] = time[parent[victim]] + rng.randint(1, 4)
        sprout(victim)
        made += 1

    label: list[str | None] = [None] * len(parent)
    for idx, x in enumerate(x for r in roots for x in _leaves_under(kids, r)):
        time[x] = time[parent[x]] + rng.randint(1, 6)
        label[x] = f"t{idx}"
    return PhyloTree.from_parents(parent, time, label, [None] * len(parent))


def _leaves_under(kids: list[list[int]], root: int):
    """Leaves below ``root``, last child first."""
    stack = [root]
    while stack:
        x = stack.pop()
        if kids[x]:
            stack.extend(kids[x])
        else:
            yield x


def canon(tree: PhyloTree):
    """Order-insensitive structural fingerprint of a forest."""
    kids = children(tree.parent)

    def node(i):
        # key=repr: labels/tags mix str and None, which don't order natively
        sub = tuple(sorted((node(c) for c in kids[i]), key=repr))
        return (tree.origin_time[i], tree.label[i], tree.founder_tag[i], sub)

    return tuple(sorted((node(r) for r in kids[-1]), key=repr))


def collapse_unifurcations(tree: PhyloTree) -> PhyloTree:
    """The tree with every node that has exactly one child spliced out.

    Chains collapse so each surviving internal node is a branching
    point; since times are monotone along any chain, the survivor is
    the chain's deepest (latest) node.  A root with a single child is
    replaced by its eventual branching descendant (or lone leaf).
    """
    kids = children(tree.parent)
    kept = [i for i in range(len(tree.parent)) if len(kids[i]) != 1]
    up: list[int] = []  # nearest kept proper ancestor, -1 for none
    for p in tree.parent:
        up.append(p if p < 0 or len(kids[p]) != 1 else up[p])
    at = {old: new for new, old in enumerate(kept)}
    return PhyloTree(
        [at[up[i]] if up[i] >= 0 else -1 for i in kept],
        [tree.origin_time[i] for i in kept],
        [tree.label[i] for i in kept],
        [tree.founder_tag[i] for i in kept],
    )
