"""Sampled triplet agreement between two trees over the same leaves.

For each sampled leaf triple, each tree either resolves it (one leaf is
the outgroup: the other two share a strictly deeper ancestor) or leaves
it a star.  Scoring is asymmetric, treating the first tree as the
reference: a triple the reconstruction resolves differently from a
resolved reference is wrong; one the reconstruction cannot resolve is
merely unsure; and resolving a triple the reference leaves unresolved
counts as correct, since a lazily reconstructed polytomy should not
penalize a sharper answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .tree import PhyloTree, depths


@dataclass(frozen=True)
class TripletScore:
    correct: int
    wrong: int
    unsure: int

    @property
    def total(self) -> int:
        return self.correct + self.wrong + self.unsure

    @property
    def error(self) -> float:
        return self.wrong / self.total if self.total else 0.0


class _Index:
    """Leaf positions in the tree, with each node's parent position and
    depth; forests join at a virtual root."""

    def __init__(self, tree: PhyloTree) -> None:
        self.parent = tree.parent
        self.depth = depths(self.parent)
        self.leaf = tree.leaf_index()

    def lca_depth(self, a: int, b: int) -> int:
        """Depth of the lowest common ancestor; -1 across roots."""
        depth, parent = self.depth, self.parent
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a, b = parent[a], parent[b]
            if a < 0:
                return -1
        return depth[a]

    def outgroup(self, x: str, y: str, z: str) -> str | None:
        """Leaf label left out by the deepest pair, or None for a star."""
        lx, ly, lz = self.leaf[x], self.leaf[y], self.leaf[z]
        dxy = self.lca_depth(lx, ly)
        dxz = self.lca_depth(lx, lz)
        dyz = self.lca_depth(ly, lz)
        top = max(dxy, dxz, dyz)
        winners = [d == top for d in (dxy, dxz, dyz)]
        if sum(winners) != 1:
            return None
        return (z, y, x)[winners.index(True)]


def sampled_triplet_error(
    reference: PhyloTree,
    reconstruction: PhyloTree,
    n_triplets: int = 1000,
    seed: int = 0,
) -> TripletScore:
    """Score ``n_triplets`` random leaf triples; see module docstring.

    Both trees must carry identical leaf label sets with at least three
    labels.
    """
    ref = _Index(reference)
    rec = _Index(reconstruction)
    if ref.leaf.keys() != rec.leaf.keys():
        only_ref = sorted(ref.leaf.keys() - rec.leaf.keys())[:3]
        only_rec = sorted(rec.leaf.keys() - ref.leaf.keys())[:3]
        raise ValueError(
            f"leaf labels differ between trees (reference only: {only_ref}, "
            f"reconstruction only: {only_rec}, ...)"
        )
    labels = sorted(ref.leaf)
    if len(labels) < 3:
        raise ValueError(f"need at least 3 shared leaves, have {len(labels)}")
    rng = random.Random(seed)
    correct = wrong = unsure = 0
    for _ in range(n_triplets):
        x, y, z = rng.sample(labels, 3)
        got = rec.outgroup(x, y, z)
        if got is None:
            unsure += 1
            continue
        want = ref.outgroup(x, y, z)
        if want is None or want == got:
            correct += 1
        else:
            wrong += 1
    return TripletScore(correct, wrong, unsure)
