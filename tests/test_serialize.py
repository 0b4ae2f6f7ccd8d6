"""Newick and ALife CSV round trips, plus their failure diagnostics."""

import random
import re

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
from _trees import build, canon, cherry, forest, leaf, random_tree


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
    assert back.origin_time[:2] == [4.0, 9.0]


def test_newick_forest_is_one_line_per_root():
    t = forest(cherry(), leaf(3.0, "C"))
    text = export_newick(t)
    assert text == "(A:10,B:10):0;\nC:3;\n"
    back = parse_newick(text)
    assert back.n_roots == 2
    assert canon(back) == canon(t)


def test_newick_missing_lengths_mean_zero():
    t = parse_newick("(A,B);")
    assert t.origin_time == [0.0, 0.0, 0.0]
    assert sorted(l.label for l in t.leaves()) == ["A", "B"]


def test_newick_quoting_survives_hostile_labels():
    t = build(
        (-1, 0.0, None),
        (0, 1.0, "plain_one"),
        (0, 1.0, "has space"),
        (0, 2.0, "it's, tricky:(really)"),
    )
    text = export_newick(t)
    assert "'has space'" in text
    assert "''" in text  # embedded quote doubled
    assert parse_newick(text) == t


def test_newick_root_alone_may_have_a_negative_length():
    assert parse_newick("(A:1,B:2):-3;").origin_time == [-3.0, -2.0, -1.0]


def test_newick_scientific_notation_length():
    t = parse_newick("(A:1e3,B:2.5e-1):1;")
    assert t.origin_time == [1.0, 1001.0, 1.25]


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
        ("  (A:x,B:1);", "bad branch length at column 6"),
        ("('Aoops,B:1);", "unterminated quoted label"),
        ("((A:1,B:1):1;", "unbalanced '('"),
        ("(A:1)(B:2);", "'(' after a clade, label or length at column 6"),
        ("A(B);", "'(' after a clade, label or length at column 2"),
        ("(A,B)C D;", "second label at column 8"),
        ("(A:1,B:2):3:4;", "second branch length at column 12"),
        ("(A:1 X,B:2);", "label after a branch length at column 6"),
        ("(A:1e999,B:1);", "non-finite branch length at column 4"),
        ("(A:1,B:-1);", "negative branch length at column 8"),
        ("(A:1e308,B:1):1e308;", "origin time overflows at column 4"),
        ("A:1;\n(A:1)(B:2);", "line 2: '(' after a clade"),
    ],
)
def test_newick_parse_errors(text, fragment):
    with pytest.raises(NewickParseError, match=fragment.replace("(", "\\(").replace(")", "\\)")):
        parse_newick(text)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_newick_round_trip(seed, forest):
    t = random_tree(seed, max_leaves=40, forest=forest)
    assert parse_newick(export_newick(t)) == t


@pytest.mark.parametrize(
    "text,labels,times",
    [
        ("('a''':1,B:1);", [None, "a'", "B"], [0.0, 1.0, 1.0]),  # '' then the closing quote
        ("('':1,B:1);", [None, "", "B"], [0.0, 1.0, 1.0]),  # an empty quoted label
        ("\t(\tA:1 ,\tB:1\t)\t:2;", [None, "A", "B"], [2.0, 3.0, 3.0]),  # tabs between tokens
        ("(é:1,ß:2);", [None, "é", "ß"], [0.0, 1.0, 2.0]),  # non-ASCII bare labels
        # quoted labels, each followed by a length
        ("('x y':1.5,'(B)':2)'r':0;", ["r", "x y", "(B)"], [0.0, 1.5, 2.0]),
    ],
)
def test_newick_lexer_corner_cases(text, labels, times):
    t = parse_newick(text)
    assert (t.label, t.origin_time) == (labels, times)


@pytest.mark.parametrize(
    "text,message",
    [
        ("(A;B);", "line 1: unexpected character ';' at column 3"),
        # the first lone quote closes a label, so this one never closes
        ("('a''b''c,D);", "line 1: unterminated quoted label"),
        ("(A''',B);", "line 1: unterminated quoted label"),  # not '' and then a lone quote
        ("(A:1 'x',B:1);", "line 1: label after a branch length at column 6"),
        # '²' is a digit to str.isdigit but not a decimal one, so the length is '1'
        ("(A:1²,B:1);", "line 1: label after a branch length at column 5"),
        ("(A:²,B:1);", "line 1: bad branch length at column 4"),
    ],
)
def test_newick_lexer_errors(text, message):
    with pytest.raises(NewickParseError) as err:
        parse_newick(text)
    assert str(err.value) == message


# Every character that str.splitlines cuts a line at.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("bad", ["two\nlines", "page\u2028break"])
def test_newick_export_refuses_a_label_holding_a_line_break(bad):
    message = f"node 2: label {bad!r} has a line break, which ends a Newick tree"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        export_newick(cherry(a="fine", b=bad))


label_text = st.text(
    st.sampled_from("'(),:; \t_A1é") | st.characters(exclude_characters=LINE_BREAKS), max_size=8
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.none() | label_text, min_size=1, max_size=20))
def test_newick_round_trip_keeps_any_label_without_a_line_break(seed, labels):
    t = random_tree(seed, max_leaves=12)
    t.label[:] = [labels[i % len(labels)] for i in range(len(t.label))]
    assert parse_newick(export_newick(t)) == t


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
    t.founder_tag[:2] = [5, 5]
    back = import_alife_csv(export_alife_csv(t))
    assert canon(back) == canon(t)
    assert back.founder_tag[0] == 5


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
    assert t.n_roots == 1
    (tip,) = t.leaves()
    assert tip.label == "tip" and tip.origin_time == 4.0


def test_alife_blank_rows_skipped():
    text = "id,ancestor_list,origin_time\n\n0,[none],0\n  ,,\n1,[0],2\n"
    t = import_alife_csv(text)
    assert len(t.parent) == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "row 1: empty file"),
        ("id,origin_time\n", "missing required column 'ancestor_list'"),
        (
            "id,ancestor_list,origin_time\nx,[none],0\n",
            "row 2, field 'id': invalid literal for int",
        ),
        (
            "id,ancestor_list,origin_time\n0,[none],0\n0,[none],1\n",
            "row 3: duplicate id 0",
        ),
        (
            "id,ancestor_list,origin_time\n0,oops,0\n",
            r"row 2, field 'ancestor_list': must be \[none\] or \[<id>\], got 'oops'",
        ),
        (
            "id,ancestor_list,origin_time\n0,[none],zero\n",
            "row 2, field 'origin_time': could not convert string to float: 'zero'",
        ),
        ("id,ancestor_list,origin_time\n0\n", "row 2, field 'ancestor_list': missing"),
        (
            "id,ancestor_list,origin_time,founder_tag\n0,[none],0,green\n",
            r"row 2, field 'founder_tag': invalid literal for int\(\) with base 10: 'green'",
        ),
        (
            "id,ancestor_list,origin_time\n0,[none],0\n1,[2],1\n",
            "row 3: ancestor 2 not defined anywhere",
        ),
        (
            "id,ancestor_list,origin_time\n1,[2],0\n2,[1],0\n",
            "ancestry cycle",
        ),
        (
            "id,ancestor_list,origin_time\n0,[none],nan\n",
            "row 2, field 'origin_time': not a finite number: 'nan'",
        ),
        (
            "id,ancestor_list,origin_time\n0,[none],0\n1,[0],inf\n",
            "row 3, field 'origin_time': not a finite number: 'inf'",
        ),
        (
            "id,ancestor_list,origin_time\n1,[0],4.5\n0,[none],5\n",
            "row 2: origin_time 4.5 precedes its ancestor's 5",
        ),
    ],
)
def test_alife_errors_name_the_row(text, fragment):
    with pytest.raises(AlifeCsvError, match=fragment):
        import_alife_csv(text)


def test_alife_node_below_a_cycle_names_its_row():
    # id 5 hangs below the two-node cycle 1 <-> 2; a real root comes first
    text = "id,ancestor_list,origin_time\n0,[none],0\n5,[1],2\n1,[2],0\n2,[1],0\n"
    with pytest.raises(AlifeCsvError) as err:
        import_alife_csv(text)
    assert str(err.value) == "row 3: id 5 is on or below an ancestry cycle"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_alife_round_trip(seed, forest):
    t = random_tree(seed, max_leaves=40, forest=forest)
    # sprinkle founder tags on a few nodes to exercise that column
    for i in range(0, len(t.parent), 3):
        t.founder_tag[i] = i
    back = import_alife_csv(export_alife_csv(t))
    assert canon(back) == canon(t)


@pytest.mark.parametrize(
    "a, b, node",
    [(" pad ", "fine", 1), ("fine", "", 2), ("tail\t", "fine", 1), ("fine", "car\rriage", 2)],
)
def test_alife_export_refuses_a_label_that_would_not_read_back(a, b, node):
    bad = b if node == 2 else a
    message = f"node {node}: label {bad!r} would not read back unchanged"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        export_alife_csv(cherry(a=a, b=b))


def test_alife_refuses_a_padded_and_an_empty_label_in_one_cherry():
    with pytest.raises(ValueError, match=r"^node 1: label ' pad ' "):
        export_alife_csv(cherry(a=" pad ", b=""))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.none() | label_text, min_size=1, max_size=20))
def test_alife_round_trip_keeps_every_label_it_writes(seed, labels):
    t = random_tree(seed, max_leaves=12)
    t.label[:] = [labels[i % len(labels)] for i in range(len(t.label))]
    try:
        text = export_alife_csv(t)
    except ValueError:
        assert any(x is not None and (x.strip() != x or not x) for x in t.label)
        return
    assert import_alife_csv(text) == t


def test_alife_round_trip_keeps_ordinary_labels():
    t = cherry(a="pe0_1_2", b="a, 'quoted' \"name\"")
    t.label[0] = "inner  space"
    assert import_alife_csv(export_alife_csv(t)) == t
