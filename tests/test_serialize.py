"""Newick and ALife CSV round trips, plus their failure diagnostics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surftrack.phylo.serialize import (
    ALIFE_COLUMNS,
    AlifeCsvError,
    NewickParseError,
    export_alife_csv,
    export_newick,
    format_time,
    import_alife_csv,
    parse_newick,
)
from surftrack.phylo.tree import PhyloNode, PhyloTree

from _trees import canon, canon_ordered, cherry, leaf, random_tree


# --- format_time ---------------------------------------------------------


@pytest.mark.parametrize(
    "value,text",
    [
        (0.0, "0"),
        (3.0, "3"),
        (-2.0, "-2"),
        (3.5, "3.5"),
        # integral but too wide for the int shortcut: falls back to repr
        (1e15, "1000000000000000.0"),
        (1e16, "1e+16"),
    ],
)
def test_format_time(value, text):
    assert format_time(value) == text


# --- newick --------------------------------------------------------------


def test_cherry_newick_is_the_documented_string():
    assert export_newick(cherry()) == "(A:10,B:10):0;\n"


def test_newick_root_length_is_its_origin_time():
    t = cherry(split=4.0, tips=9.0)
    assert export_newick(t) == "(A:5,B:5):4;\n"
    back = parse_newick(export_newick(t))
    assert back.roots[0].origin_time == 4.0
    assert back.roots[0].children[0].origin_time == 9.0


def test_newick_forest_is_one_line_per_root():
    t = PhyloTree([cherry().roots[0], leaf(3.0, "C")])
    text = export_newick(t)
    assert text == "(A:10,B:10):0;\nC:3;\n"
    back = parse_newick(text)
    assert len(back.roots) == 2
    assert canon(back) == canon(t)


def test_newick_missing_lengths_mean_zero():
    t = parse_newick("(A,B);")
    assert [n.origin_time for n in t.nodes()] == [0.0, 0.0, 0.0]
    assert sorted(l.label for l in t.leaves()) == ["A", "B"]


def test_newick_quoting_survives_hostile_labels():
    root = PhyloNode(0.0)
    root.add(leaf(1.0, "plain_one"))
    root.add(leaf(1.0, "has space"))
    root.add(leaf(2.0, "it's, tricky:(really)"))
    text = export_newick(PhyloTree([root]))
    assert "'has space'" in text
    assert "''" in text  # embedded quote doubled
    back = parse_newick(text)
    assert canon_ordered(back) == canon_ordered(PhyloTree([root]))


def test_newick_scientific_notation_length():
    t = parse_newick("(A:1e3,B:2.5e-1):1;")
    a, b = t.roots[0].children
    assert a.origin_time == 1001.0
    assert b.origin_time == 1.25


def test_newick_blank_lines_skipped_and_errors_name_the_line():
    with pytest.raises(NewickParseError, match="line 3: missing trailing ';'"):
        parse_newick("A:1;\n\n(B:1,C:1)\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("(A:1,B:1)", "missing trailing ';'"),
        ("(A:1,B:1));", "unbalanced ')' at column 10"),
        ("A,B;", "',' outside parentheses"),
        ("(A:x,B:1);", "bad branch length at column 4"),
        ("('Aoops,B:1);", "unterminated quoted label"),
        ("((A:1,B:1):1;", "unbalanced '('"),
    ],
)
def test_newick_parse_errors(text, fragment):
    with pytest.raises(NewickParseError, match=fragment.replace("(", "\\(").replace(")", "\\)")):
        parse_newick(text)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_newick_round_trip(seed, forest):
    t = random_tree(seed, max_leaves=40, forest=forest)
    back = parse_newick(export_newick(t))
    assert canon_ordered(back) == canon_ordered(t)


# --- alife csv -----------------------------------------------------------


def test_alife_header_and_preorder_ids():
    text = export_alife_csv(cherry())
    lines = text.splitlines()
    assert lines[0] == ",".join(ALIFE_COLUMNS)
    assert lines[1] == "0,[none],0,,"
    assert lines[2] == "1,[0],10,A,"
    assert lines[3] == "2,[0],10,B,"


def test_alife_round_trip_keeps_founder_tags():
    t = cherry()
    t.roots[0].founder_tag = 5
    t.roots[0].children[0].founder_tag = 5
    back = import_alife_csv(export_alife_csv(t))
    assert canon(back) == canon(t)
    assert back.roots[0].founder_tag == 5


def test_alife_rows_in_any_order():
    t = random_tree(17, max_leaves=20, forest=True)
    lines = export_alife_csv(t).splitlines()
    body = lines[1:]
    random.Random(3).shuffle(body)
    back = import_alife_csv("\n".join([lines[0], *body]) + "\n")
    assert canon(back) == canon(t)


def test_alife_header_order_is_flexible_and_extras_ignored():
    text = (
        "origin_time,notes,id,ancestor_list,taxon_label\n"
        "0,hi,7,[none],\n"
        "4,,9,[7],tip\n"
    )
    t = import_alife_csv(text)
    assert len(t.roots) == 1
    (tip,) = t.leaves()
    assert tip.label == "tip" and tip.origin_time == 4.0


def test_alife_blank_rows_skipped():
    text = "id,ancestor_list,origin_time\n\n0,[none],0\n  ,,\n1,[0],2\n"
    t = import_alife_csv(text)
    assert len(list(t.nodes())) == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "row 1: empty file"),
        ("id,origin_time\n", "missing required column 'ancestor_list'"),
        ("id,ancestor_list,origin_time\nx,[none],0\n", "row 2: bad id"),
        (
            "id,ancestor_list,origin_time\n0,[none],0\n0,[none],1\n",
            "row 3: duplicate id 0",
        ),
        (
            "id,ancestor_list,origin_time\n0,oops,0\n",
            "ancestor_list must be",
        ),
        ("id,ancestor_list,origin_time\n0,[none],zero\n", "row 2: bad origin_time"),
        ("id,ancestor_list,origin_time\n0\n", "row 2: missing ancestor_list"),
        (
            "id,ancestor_list,origin_time,founder_tag\n0,[none],0,green\n",
            "bad founder_tag 'green'",
        ),
        (
            "id,ancestor_list,origin_time\n0,[none],0\n1,[2],1\n",
            "row 3: ancestor 2 not defined anywhere",
        ),
        (
            "id,ancestor_list,origin_time\n1,[2],0\n2,[1],0\n",
            "ancestry cycle",
        ),
    ],
)
def test_alife_errors_name_the_row(text, fragment):
    with pytest.raises(AlifeCsvError, match=fragment):
        import_alife_csv(text)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_alife_round_trip(seed, forest):
    t = random_tree(seed, max_leaves=40, forest=forest)
    # sprinkle founder tags on a few nodes to exercise that column
    for i, node in enumerate(t.nodes()):
        if i % 3 == 0:
            node.founder_tag = i
    back = import_alife_csv(export_alife_csv(t))
    assert canon(back) == canon(t)
