"""Tree interchange: Newick strings and ALife-standard CSV.

Newick lengths are origin-time deltas along each edge, and a root's
"length" is its own origin time (the edge from time zero), so a cherry
reconstructed at rank 0 with leaves sampled at generation 10 reads
``(A:10,B:10):0;``.  Forests are written one tree per line.

The CSV dialect follows the ALife community standard: one row per node
with ``id``, ``ancestor_list`` (``[none]`` for roots), ``origin_time``,
plus ``taxon_label`` and ``founder_tag`` columns.  Parsers report the
1-based file row of anything malformed.
"""

from __future__ import annotations

import csv
import io
import re

from .tree import PhyloNode, PhyloTree


class NewickParseError(ValueError):
    pass


class AlifeCsvError(ValueError):
    pass


_PLAIN_LABEL = re.compile(r"^[A-Za-z0-9_.|+-]+$")
_ANCESTOR = re.compile(r"^\[(none|\d+)\]$")


def format_time(x: float) -> str:
    """Render a time compactly: integral values lose the '.0'."""
    f = float(x)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _quote_label(label: str) -> str:
    if _PLAIN_LABEL.match(label):
        return label
    return "'" + label.replace("'", "''") + "'"


def export_newick(tree: PhyloTree) -> str:
    """Serialize a forest as newline-separated Newick, one tree per line."""
    lines = []
    for root in tree.roots:
        parts: list[str] = []
        _write_node(root, None, parts)
        parts.append(";")
        lines.append("".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def _write_node(node: PhyloNode, parent: PhyloNode | None, out: list[str]) -> None:
    # Post-order via explicit frames; trees from long simulations can be
    # deeper than the default recursion limit.
    stack: list[tuple[PhyloNode, PhyloNode | None, int]] = [(node, parent, 0)]
    while stack:
        n, p, child_idx = stack.pop()
        if n.children:
            if child_idx == 0:
                out.append("(")
            if child_idx < len(n.children):
                if child_idx:
                    out.append(",")
                stack.append((n, p, child_idx + 1))
                stack.append((n.children[child_idx], n, 0))
                continue
            out.append(")")
        if n.label is not None:
            out.append(_quote_label(n.label))
        base = p.origin_time if p is not None else 0.0
        out.append(":" + format_time(n.origin_time - base))


def parse_newick(text: str) -> PhyloTree:
    """Parse one tree per non-blank line into a forest.

    Branch lengths are optional (missing means 0).  Origin times are
    rebuilt by accumulating lengths from each root's own length down.
    """
    roots = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                roots.append(_parse_tree(line.strip()))
            except NewickParseError as err:
                raise NewickParseError(f"line {lineno}: {err}") from None
    return PhyloTree(roots)


def _parse_tree(s: str) -> PhyloNode:
    if not s.endswith(";"):
        raise NewickParseError("missing trailing ';'")
    s = s[:-1]
    root = PhyloNode(0.0)
    cur = root
    stack: list[PhyloNode] = []
    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
        elif c == "(":
            child = cur.add(PhyloNode(0.0))
            stack.append(cur)
            cur = child
            i += 1
        elif c == ",":
            if not stack:
                raise NewickParseError(f"',' outside parentheses at column {i + 1}")
            cur = stack[-1].add(PhyloNode(0.0))
            i += 1
        elif c == ")":
            if not stack:
                raise NewickParseError(f"unbalanced ')' at column {i + 1}")
            cur = stack.pop()
            i += 1
        elif c == ":":
            i += 1
            j = i
            while j < n and (s[j].isdigit() or s[j] in ".+-eE"):
                j += 1
            try:
                cur.origin_time = float(s[i:j])  # edge length until the pass below
            except ValueError:
                raise NewickParseError(f"bad branch length at column {i + 1}") from None
            i = j
        elif c == "'":
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise NewickParseError("unterminated quoted label")
                if s[j] == "'":
                    if j + 1 < n and s[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(s[j])
                j += 1
            cur.label = "".join(buf)
            i = j + 1
        else:
            j = i
            while j < n and s[j] not in "(),:;'" and not s[j].isspace():
                j += 1
            if j == i:
                raise NewickParseError(f"unexpected character {c!r} at column {i + 1}")
            cur.label = s[i:j]
            i = j
    if stack:
        raise NewickParseError("unbalanced '(': tree ended inside a clade")

    # Each node holds its edge length; accumulate from the root down.
    todo = [root]
    while todo:
        node = todo.pop()
        for child in node.children:
            child.origin_time += node.origin_time
            todo.append(child)
    return root


ALIFE_COLUMNS = ("id", "ancestor_list", "origin_time", "taxon_label", "founder_tag")


def export_alife_csv(tree: PhyloTree) -> str:
    """Serialize a forest as ALife-standard CSV with preorder ids."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ALIFE_COLUMNS)
    order, parents = tree.preorder()
    for i, (node, up) in enumerate(zip(order, parents)):
        writer.writerow(
            (
                i,
                "[none]" if up < 0 else f"[{up}]",
                format_time(node.origin_time),
                node.label or "",
                "" if node.founder_tag is None else node.founder_tag,
            )
        )
    return buf.getvalue()


def import_alife_csv(text: str) -> PhyloTree:
    """Parse ALife-standard CSV into a forest.

    Rows may come in any order; ids must be unique, ancestors must
    exist, and ancestry must be acyclic.  Errors name the offending
    1-based file row.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise AlifeCsvError("row 1: empty file") from None
    cols = {name.strip(): idx for idx, name in enumerate(header)}
    for required in ("id", "ancestor_list", "origin_time"):
        if required not in cols:
            raise AlifeCsvError(f"row 1: missing required column {required!r}")

    nodes: dict[int, PhyloNode] = {}
    parent_of: dict[int, int | None] = {}
    rows: list[tuple[int, int]] = []
    for rownum, row in enumerate(reader, start=2):
        if not row or not any(cell.strip() for cell in row):
            continue
        try:
            node_id = int(row[cols["id"]])
        except (ValueError, IndexError):
            raise AlifeCsvError(f"row {rownum}: bad id") from None
        if node_id in nodes:
            raise AlifeCsvError(f"row {rownum}: duplicate id {node_id}")
        try:
            ancestors = row[cols["ancestor_list"]]
        except IndexError:
            raise AlifeCsvError(f"row {rownum}: missing ancestor_list") from None
        m = _ANCESTOR.match(ancestors.strip())
        if not m:
            raise AlifeCsvError(
                f"row {rownum}: ancestor_list must be [none] or [<id>], got {ancestors!r}"
            )
        try:
            origin = float(row[cols["origin_time"]])
        except (ValueError, IndexError):
            raise AlifeCsvError(f"row {rownum}: bad origin_time") from None
        label = None
        if "taxon_label" in cols and len(row) > cols["taxon_label"]:
            label = row[cols["taxon_label"]].strip() or None
        tag = None
        if "founder_tag" in cols and len(row) > cols["founder_tag"]:
            raw = row[cols["founder_tag"]].strip()
            if raw:
                try:
                    tag = int(raw)
                except ValueError:
                    raise AlifeCsvError(f"row {rownum}: bad founder_tag {raw!r}") from None
        nodes[node_id] = PhyloNode(origin, label=label, founder_tag=tag)
        parent_of[node_id] = None if m.group(1) == "none" else int(m.group(1))
        rows.append((rownum, node_id))

    roots = []
    for rownum, node_id in rows:
        pid = parent_of[node_id]
        if pid is None:
            roots.append(nodes[node_id])
        elif pid not in nodes:
            raise AlifeCsvError(f"row {rownum}: ancestor {pid} not defined anywhere")
        else:
            nodes[pid].add(nodes[node_id])

    # A component with no [none] row is a parent cycle.
    state: dict[int, int] = {}
    for rownum, node_id in rows:
        path = []
        cur: int | None = node_id
        while cur is not None and state.get(cur, 0) == 0:
            path.append(cur)
            state[cur] = 1
            cur = parent_of[cur]
        if cur is not None and state[cur] == 1:
            raise AlifeCsvError(f"row {rownum}: ancestry cycle through id {cur}")
        for p in path:
            state[p] = 2
    return PhyloTree(roots)
