"""Tree structure, Newick parsing, and compatibility predicates."""

import random
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rbmaf import (
    NewickError,
    RHO_LABEL,
    RootedBinaryTree,
    build_compact_graph,
    corpus,
    exact_maf,
    incompatible_triples,
    leaf_path_masks,
    make_pair,
    meet_matrix,
    pair_from_newick,
    parse_newick,
    random_pair,
    set_compatible,
    spanned_nodes,
)
from rbmaf import tree_model
from rbmaf.cli_runner import main

import naive


def test_postorder_layout_by_hand():
    t = parse_newick("((a,b),c);")
    assert t.n_nodes == 5
    assert t.root == 4
    assert t.labels == ["a", "b", None, "c", None]
    assert t.parent == [2, 2, 4, 4, -1]
    assert t.left == [-1, -1, 0, -1, 2]
    assert t.right == [-1, -1, 1, -1, 3]
    assert t.depth == [2, 2, 1, 1, 0]
    assert t.subtree_min == [0, 1, 0, 3, 0]
    assert t.leaf_ids == [0, 1, 3]
    with pytest.raises(NewickError, match="empty tree"):
        RootedBinaryTree([], [], [], [])


def test_newick_roundtrip_preserves_shape():
    text = "((((b1,b2),(r1,r2)),(w1,w2)),w3);"
    assert parse_newick(text).to_newick() == text


def test_canonical_newick_is_order_insensitive():
    a = parse_newick("((b,a),c);").to_newick(canonical=True)
    b = parse_newick("(c,(a,b));").to_newick(canonical=True)
    assert a == b == "((a,b),c);"


def test_writer_matches_naive():
    """Plain and canonical text of corpus trees and of 300-leaf uniform
    and k-rSPR trees, with and without the shared root leaf."""
    pairs = [pair for n in range(3, 13) for _, pair in corpus(n, 25)]
    for seed in range(3):
        for mode in ("uniform", "k_rspr"):
            pair = random_pair(300, seed, mode=mode, k=20)
            pairs += [pair, make_pair(pair.t1, pair.t2, add_rho=True)]
    for pair in pairs:
        for tree in (pair.t1, pair.t2):
            for canonical in (False, True):
                assert tree.to_newick(canonical) == \
                    naive.naive_to_newick(tree, canonical)


BAD_NEWICK = {
    "": "empty input",
    ";": "expected a single root",
    "(a,b,c);": "internal node with 3 children, need exactly 2",
    "(a,(b));": "internal node with 1 children, need exactly 2",
    "(a,a);": "duplicate leaf label 'a'",
    "(a,b);extra": "unexpected ';' at offset 5",
    "((a,b);": "unbalanced '('",
    "(a,);": "internal node with 1 children, need exactly 2",
    "(a,b):;": "bad branch length at offset 6",
    "(a:x,b);": "bad branch length at offset 3",
    "(a:1\u00b2,b);": "bad branch length at offset 3",  # a digit, not decimal
    "(a,b));": "unbalanced ')'",
    # separators: whitespace separates nothing, and no child is empty
    "(a b);": "expected ',' at offset 3",
    "(a,,b);": "expected a leaf label at offset 3",
    "(,a,b);": "expected a leaf label at offset 1",
    "(a,b,);": "expected a leaf label at offset 5",
    "((a,b)(c,d));": "expected ',' at offset 6",
    "((a,b)x y,c);": "expected ',' at offset 8",
    "(a,b),;": "unexpected ',' at offset 5",
    # plain text, cut by str.split: one case per raise in the reader loop
    "((ab,cd)x(e,f));": "expected ',' at offset 9",
    "(ab,cd)ef,gh;": "unexpected ',' at offset 9",
    "(ab,,cd);": "expected a leaf label at offset 4",
    "(ab,cd)ef);": "unbalanced ')'",
    "((ab,cd)ef);": "internal node with 1 children, need exactly 2",
    "(ab,cd,);": "expected a leaf label at offset 7",
    "((ab,cd),ef;": "unbalanced '('",
    "ab(cd,ef);": "expected a single root",
}

# What only the one-pass reader rejects: the naive reader counts
# whitespace as a separator and skips empty children.
SEPARATOR_ERRORS = ("expected ',' at offset", "expected a leaf label at offset",
                    "unexpected ',' at offset")


@pytest.mark.parametrize("text", list(BAD_NEWICK))
def test_bad_newick_rejected(text):
    with pytest.raises(NewickError) as info:
        parse_newick(text)
    assert str(info.value) == BAD_NEWICK[text]


def _shifted(message, by):
    return re.sub(r"offset (\d+)",
                  lambda m: "offset %d" % (int(m.group(1)) + by), message)


@pytest.mark.parametrize(
    "text", [text for text, message in BAD_NEWICK.items() if "offset" in message])
def test_bad_newick_offsets_count_leading_whitespace(text):
    """Offsets count from the start of the text, so four characters of
    leading whitespace move every offset by 4.  The naive reader, which
    skips the separators the one-pass reader rejects, gives its own
    outcome moved the same way."""
    assert _outcome(parse_newick, "  \n " + text) == _shifted(BAD_NEWICK[text], 4)
    plain = _outcome(naive.naive_parse_newick, text)
    if isinstance(plain, str):
        plain = _shifted(plain, 4)
    assert _outcome(naive.naive_parse_newick, "  \n " + text) == plain


def test_whitespace_between_tokens_allowed():
    text = " ( ( a:1.5 ,\n\tb )x:2e-1 , c ) ;\n"
    assert parse_newick(text).to_newick() == "((a,b),c);"


@pytest.mark.parametrize("text, char, offset", [
    ("('a b',c);", "'", 1),
    ("((a,b)[x],c);", "[", 6),
    ("((a,b),c[x]);", "[", 8),
    ("(('a',b),c);", "'", 2),
])
def test_quotes_and_comments_rejected(text, char, offset, capsys):
    message = "unsupported %r at offset %d" % (char, offset)
    with pytest.raises(NewickError, match=re.escape(message)):
        parse_newick(text)
    assert main(["solve", text, "((a,b),c);"]) == 2
    assert message in capsys.readouterr().err


def test_missing_semicolon_tolerated():
    assert parse_newick("(a,b)").to_newick() == "(a,b);"


def _arrays(tree):
    return tree.parent, tree.left, tree.right, tree.labels


def _outcome(parse, text):
    """The tree's arrays, or the NewickError message."""
    try:
        return _arrays(parse(text))
    except NewickError as error:
        return str(error)


def _decorate(text, rng):
    """``text`` with whitespace around its parentheses and commas, and
    internal labels and branch lengths, all drawn from ``rng``."""
    spaces = ["", "", " ", "\n", "\t  "]
    lengths = ["1", "0.25", "1e-3", "-2.5E+1", ".5"]
    out = []
    for token in re.findall(r"[(),;]|[^(),;]+", text):
        if token in ("(", ",", ")"):
            out.append(rng.choice(spaces))
        out.append(token)
        if token == ")" and rng.random() < 0.3:
            out.append("n%d" % rng.randrange(100))
        if token not in ("(", ",", ";") and rng.random() < 0.5:
            out.append(":" + rng.choice(lengths))
        if token in ("(", ",", ")"):
            out.append(rng.choice(spaces))
    return "".join(out)


def test_reader_matches_naive_on_corpus():
    for n in range(3, 13):
        for _, pair in corpus(n, 25):
            for tree in (pair.t1, pair.t2):
                text = tree.to_newick()
                assert _arrays(parse_newick(text)) == \
                    _arrays(naive.naive_parse_newick(text))


@pytest.mark.parametrize("mode", ["uniform", "k_rspr"])
def test_reader_matches_naive_on_decorated_text(mode):
    rng = random.Random(11)
    for seed in range(3):
        pair = random_pair(300, seed, mode=mode, k=20)
        for tree in (pair.t1, pair.t2):
            text = _decorate(tree.to_newick(), rng)
            assert text != tree.to_newick()
            assert _arrays(parse_newick(text)) == \
                _arrays(naive.naive_parse_newick(text)) == _arrays(tree)


def test_reader_matches_naive_under_single_edits():
    """Seeded single-character insertions, deletions and replacements:
    both readers give the same arrays or the same message, except
    where the one-pass reader rejects a separator the naive one
    skipped."""
    rng = random.Random(5)
    bases = ["((a,b),c);", "(a:1.5,(b,c)x:2);", " ( (a , b)y , (c,d:1e-3) ) ;",
             "((a1,b),(c:.5,d)):0;", "(a,(b,c))"]
    bases += [_decorate(random_pair(n, n).t1.to_newick(), rng)
              for n in range(2, 9)]
    edits = 6000
    diverged = 0
    for _ in range(edits):
        text = rng.choice(bases)
        i = rng.randrange(len(text) + 1)
        c = rng.choice("(),;:'[] a1.e-")
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:i] + c + text[i:]
        elif kind == 1:
            text = text[:i] + c + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
        new = _outcome(parse_newick, text)
        old = _outcome(naive.naive_parse_newick, text)
        if new != old:
            assert isinstance(new, str) and new.startswith(SEPARATOR_ERRORS), \
                (text, new, old)
            diverged += 1
    assert 0 < diverged < edits // 4


def _half_decorated(tree, rng):
    """The tree's text with only the root's left subtree decorated, so
    plain pieces follow decorated ones."""
    text = tree.to_newick()
    depth = 0
    for i, c in enumerate(text):
        depth += (c == "(") - (c == ")")
        if c == "," and depth == 1:
            break
    return "(" + _decorate(text[1:i], rng) + text[i:]


@pytest.mark.parametrize("mode", ["uniform", "k_rspr"])
def test_reader_matches_naive_on_half_decorated_text(mode):
    rng = random.Random(13)
    for seed in range(3):
        pair = random_pair(300, seed, mode=mode, k=20)
        for tree in (pair.t1, pair.t2):
            text = _half_decorated(tree, rng)
            assert text != tree.to_newick()
            assert _arrays(parse_newick(text)) == \
                _arrays(naive.naive_parse_newick(text)) == _arrays(tree)
            grafted = tree.with_root_sibling(RHO_LABEL)
            assert _arrays(parse_newick(text, add_rho=True)) == _arrays(grafted)


def test_reader_computes_offsets_only_when_raising(monkeypatch):
    """A 20,000-leaf decorated text, nearly every piece of which is read
    token by token, needs no offset until a quote near its end."""
    tree = random_pair(20_000, 3).t1
    text = _decorate(tree.to_newick(), random.Random(23)).strip()
    calls = []

    def offset(pieces, i):
        calls.append(i)
        return sum(map(len, pieces[:i]))

    monkeypatch.setattr(tree_model, "_offset", offset)
    assert _arrays(parse_newick(text)) == _arrays(tree)
    assert _arrays(parse_newick(text, add_rho=True)) == \
        _arrays(tree.with_root_sibling(RHO_LABEL))
    assert calls == []
    at = text.rindex(",") + 1
    with pytest.raises(NewickError, match="offset %d:" % at):
        parse_newick(text[:at] + "'" + text[at:])
    assert len(calls) == 1


def test_reader_computes_offsets_only_when_raising_on_plain_text(monkeypatch):
    """A 20,000-leaf undecorated text needs no offset until an empty
    child near its end."""
    tree = random_pair(20_000, 3).t1
    text = tree.to_newick()
    assert tree_model._special(text[:-1]) is None
    calls = []

    def offset(pieces, i):
        calls.append(i)
        return sum(map(len, pieces[:i]))

    monkeypatch.setattr(tree_model, "_offset", offset)
    assert _arrays(parse_newick(text)) == _arrays(tree)
    assert _arrays(parse_newick(text, add_rho=True)) == \
        _arrays(tree.with_root_sibling(RHO_LABEL))
    assert calls == []
    at = text.rindex(",") + 1
    with pytest.raises(NewickError) as info:
        parse_newick(text[:at] + "," + text[at:])
    assert str(info.value) == "expected a leaf label at offset %d" % at
    assert len(calls) == 1


def _pair_outcome(read, s1, s2):
    """Both trees' arrays and the leaf maps, or the NewickError message."""
    try:
        pair = read(s1, s2)
    except NewickError as error:
        return str(error)
    return (_arrays(pair.t1), _arrays(pair.t2), pair.labels,
            pair.leaf_node1, pair.leaf_node2)


def _assert_rho_pair_matches_graft(s1, s2):
    got = _pair_outcome(lambda a, b: pair_from_newick(a, b, add_rho=True),
                        s1, s2)
    want = _pair_outcome(lambda a, b: make_pair(
        parse_newick(a), parse_newick(b), add_rho=True), s1, s2)
    assert got == want, (s1, s2)
    return got


def test_rho_pair_reader_matches_graft_on_corpus_and_decorated_text():
    """Reading with rho grafted gives what grafting the read trees gives."""
    rng = random.Random(17)
    texts = []
    for n in range(3, 13):
        for _, pair in corpus(n, 25):
            s1, s2 = pair.t1.to_newick(), pair.t2.to_newick()
            texts += [(s1, s2), (_decorate(s1, rng), _decorate(s2, rng))]
    for mode in ("uniform", "k_rspr"):
        pair = random_pair(300, 2, mode=mode, k=20)
        texts.append((_decorate(pair.t1.to_newick(), rng),
                      _half_decorated(pair.t2, rng)))
    for s1, s2 in texts:
        assert not isinstance(_assert_rho_pair_matches_graft(s1, s2), str)


@pytest.mark.parametrize("s1, s2, message", [
    ("(rho,b);", "(rho,b", "unbalanced '('"),
    ("(rho,b);", "(b,rho);", "label 'rho' already present"),
    ("(a,b);", "(b,rho);", "label 'rho' already present"),
    ("(rho,(a,a));", "((a,b),c);", "duplicate leaf label 'a'"),
    ("((a,b),c);", "((a,b),(rho,rho));", "duplicate leaf label 'rho'"),
    ("(rho,b);", "(a,b)c d;", "expected a single root"),
    ("(rho,b);", "(a,'b');", "unsupported \"'\" at offset 3: quoted labels "
     "and comments are not read"),
    ("(a,b);", "(a,c);", "trees carry different label sets"),
])
def test_rho_pair_reader_reports_read_errors_before_the_clash(s1, s2, message):
    assert _assert_rho_pair_matches_graft(s1, s2) == message


def test_rho_pair_reader_matches_graft_under_single_edits():
    """Seeded single-character edits of one text of a pair, some of
    whose texts hold rho: same arrays or same message."""
    rng = random.Random(19)
    bases = [("((a,b),c);", "(a,(b,c));"), ("((rho,b),c);", "(rho,(b,c));"),
             (" ( (a:1 , b)y , c) ;", "(a,(b,c)x:2)")]
    for n in range(3, 9):
        pair = random_pair(n, n, mode="k_rspr", k=2)
        bases.append((_decorate(pair.t1.to_newick(), rng), pair.t2.to_newick()))
    outcomes = Counter()
    for _ in range(2000):
        texts = list(rng.choice(bases))
        side = rng.randrange(2)
        text = texts[side]
        i = rng.randrange(len(text) + 1)
        c = rng.choice("(),;:'[] a1.e-")
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:i] + c + text[i:]
        elif kind == 1:
            text = text[:i] + c + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
        texts[side] = text
        got = _assert_rho_pair_matches_graft(*texts)
        if got == "label 'rho' already present":
            outcomes["clash"] += 1
        else:
            outcomes["error" if isinstance(got, str) else "pair"] += 1
    assert min(outcomes["clash"], outcomes["error"], outcomes["pair"]) > 0


def test_reader_matches_naive_under_single_edits_of_plain_text():
    """Seeded single-character edits of undecorated texts, drawn from
    characters that keep them plain, so every text is cut by
    ``str.split``: both readers give the same arrays or the same
    message, except where the one-pass reader rejects a separator the
    naive one skipped; reading one text of the pair with rho grafted
    gives what grafting the read trees gives."""
    rng = random.Random(29)
    bases = []
    for n in range(2, 13):
        for mode in ("uniform", "k_rspr"):
            pair = random_pair(n, n, mode=mode, k=min(2, n - 1))
            # Without the ';', after which an edit would leave text.
            bases.append((pair.t1.to_newick()[:-1], pair.t2.to_newick()[:-1]))
    edits = 4000
    diverged = 0
    outcomes = Counter()
    for _ in range(edits):
        texts = list(rng.choice(bases))
        side = rng.randrange(2)
        text = texts[side]
        i = rng.randrange(len(text) + 1)
        c = rng.choice("(),a1")
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:i] + c + text[i:]
        elif kind == 1:
            text = text[:i] + c + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
        assert tree_model._special(text) is None, text
        new = _outcome(parse_newick, text)
        old = _outcome(naive.naive_parse_newick, text)
        if new != old:
            assert isinstance(new, str) and new.startswith(SEPARATOR_ERRORS), \
                (text, new, old)
            diverged += 1
        outcomes["error" if isinstance(new, str) else "tree"] += 1
        texts[side] = text
        _assert_rho_pair_matches_graft(*texts)
    assert 0 < diverged < edits // 2
    assert min(outcomes["error"], outcomes["tree"]) > edits // 10


# Arrays of ((a,b),(c,d)) with leaves 0, 1, 3 and 4.
_FOUR_LEAVES = ([2, 2, 6, 5, 5, 6, -1], [-1, -1, 0, -1, -1, 3, 2],
                [-1, -1, 1, -1, -1, 4, 5])


@pytest.mark.parametrize("leaf_labels, message", [
    (["a", "", "c", "d"], "leaf without a label"),
    (["a", "b", None, "d"], "leaf without a label"),
    (["a", "b", "b", "a"], "duplicate leaf label 'b'"),
    (["a", "a", "", "d"], "duplicate leaf label 'a'"),
    (["a", "", "a", "d"], "leaf without a label"),
])
def test_constructor_names_the_first_bad_label_in_id_order(leaf_labels, message):
    a, b, c, d = leaf_labels
    with pytest.raises(NewickError) as info:
        RootedBinaryTree(*_FOUR_LEAVES, [a, b, None, c, d, None, None])
    assert str(info.value) == message


@pytest.mark.parametrize("s1, s2", [
    ("((a,b),c);", "(a,b);"),            # fewer leaves in the second tree
    ("(a,b);", "((a,b),c);"),            # more leaves in the second tree
    ("((a,b),c);", "((a,b),d);"),        # as many leaves, one label differs
])
def test_pair_rejects_different_label_sets(s1, s2):
    with pytest.raises(NewickError, match="trees carry different label sets"):
        tree_model.TreePair(parse_newick(s1), parse_newick(s2))


def test_pair_indices_match_sorting_each_tree():
    """The second tree's leaves found by label give the indices that
    sorting each tree's leaves by label gives."""
    for n in range(3, 13):
        for _, pair in corpus(n, 25):
            for t, nodes, index in ((pair.t1, pair.leaf_node1, pair.leaf_index1),
                                    (pair.t2, pair.leaf_node2, pair.leaf_index2)):
                want = sorted(t.leaf_ids, key=t.labels.__getitem__)
                assert nodes == want
                assert index == [want.index(v) if v in want else -1
                                 for v in range(t.n_nodes)]
            assert pair.labels == sorted(pair.labels)
            assert pair.index_of == {lab: i for i, lab in enumerate(pair.labels)}


def test_lca_and_ancestor_against_naive(fig1, fig9):
    for pair in (fig1, fig9):
        for t in (1, 2):
            tree = pair.tree(t)
            nodes = range(tree.n_nodes)
            for u, v in combinations(nodes, 2):
                assert tree.lca(u, v) == naive.naive_lca(tree, u, v)
            for a in nodes:
                for v in nodes:
                    assert tree.is_ancestor(a, v) == naive.naive_is_ancestor(tree, a, v)


def test_leaves_below_against_naive(fig1):
    for t in (1, 2):
        tree = fig1.tree(t)
        for v in range(tree.n_nodes):
            assert sorted(tree.leaves_below(v)) == naive.naive_leaves_below(tree, v)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 10), st.integers(0, 10_000))
def test_random_tree_properties(n, seed):
    pair = random_pair(n, seed)
    for t in (1, 2):
        tree = pair.tree(t)
        assert tree.to_newick() == parse_newick(tree.to_newick()).to_newick()
        for u, v in combinations(range(tree.n_nodes), 2):
            assert tree.lca(u, v) == tree.lca(v, u) == naive.naive_lca(tree, u, v)


@pytest.mark.parametrize("mode", ["uniform", "k_rspr"])
@pytest.mark.parametrize("add_rho", [False, True])
def test_lca_on_deep_tables(mode, add_rho):
    """Every level of the table on 300-leaf trees: random pairs in both
    orders, each node of the deepest root path against every ancestor,
    and equal arguments."""
    pair = random_pair(300, 1, mode=mode, k=20)
    if add_rho:
        pair = make_pair(pair.t1, pair.t2, add_rho=True)
    rng = random.Random(7)
    for t in (1, 2):
        tree = pair.tree(t)
        n = tree.n_nodes
        for _ in range(10_000):
            u, v = rng.randrange(n), rng.randrange(n)
            assert tree.lca(u, v) == tree.lca(v, u) == naive.naive_lca(tree, u, v)
        deepest = max(tree.leaf_ids, key=tree.depth.__getitem__)
        path = naive.root_path(tree, deepest)
        for i, u in enumerate(path):
            for a in path[i:]:
                assert tree.lca(u, a) == tree.lca(a, u) == a
        assert all(tree.lca(v, v) == v for v in range(n))


def _caterpillar(n):
    text = "a0"
    for i in range(1, n):
        text = "(%s,a%d)" % (text, i)
    return text + ";"


def _balanced(depth, prefix="a"):
    if depth == 0:
        return prefix
    return "(%s,%s)" % (_balanced(depth - 1, prefix + "0"),
                        _balanced(depth - 1, prefix + "1"))


@pytest.mark.parametrize("text", [_caterpillar(40), _balanced(5) + ";"],
                         ids=["caterpillar", "balanced"])
def test_lca_walks_then_builds_the_table(text):
    """Every node pair, answered by a climb on a fresh tree and by the
    table on a tree whose climbs have taken n_nodes steps; one tree's
    table appears at the first query after that budget is spent."""
    tree = parse_newick(text)
    n = tree.n_nodes
    pairs = list(combinations(range(n), 2))
    for u, v in pairs:
        want = naive.naive_lca(tree, u, v)
        fresh = parse_newick(text)
        assert fresh.lca(v, u) == want
        assert fresh._sparse is None
    walked = 0
    order = pairs[:]
    random.Random(3).shuffle(order)
    for u, v in order:
        want = naive.naive_lca(tree, u, v)
        built = walked >= n
        assert tree.lca(u, v) == want
        assert (tree._sparse is not None) == built, (u, v, walked)
        if not built:
            walked += tree.depth[u] - tree.depth[want]
    assert walked >= n
    for u, v in pairs:
        assert tree.lca(u, v) == tree.lca(v, u) == naive.naive_lca(tree, u, v)
    assert all(tree.lca(v, v) == v for v in range(n))


def test_meet_matrix_against_naive():
    for n in range(3, 11):
        for _, pair in corpus(n, 25):
            for t in (1, 2):
                tree = pair.tree(t)
                meet = meet_matrix(pair, t)
                nodes = pair.leaf_nodes(t)
                for i in range(n):
                    for j in range(n):
                        assert meet[i][j] == naive.naive_lca(tree, nodes[i], nodes[j])


def test_pair_tables_make_no_lca_calls(monkeypatch):
    """The triple table, the arc-flow graph and the exact search read
    meeting nodes from meet_matrix, never through lca."""
    pairs = [pair for n in (5, 8) for _, pair in corpus(n, 5)]
    calls = []
    lca = RootedBinaryTree.lca

    def counted(tree, u, v):
        calls.append((u, v))
        return lca(tree, u, v)
    monkeypatch.setattr(RootedBinaryTree, "lca", counted)
    for pair in pairs:
        incompatible_triples(pair)
        build_compact_graph(pair)
        exact_maf(pair)
    assert calls == []


def test_pair_indexing(fig1):
    assert fig1.n == 7
    assert fig1.labels == sorted(fig1.labels)
    for i, lab in enumerate(fig1.labels):
        assert fig1.index_of[lab] == i
        for t in (1, 2):
            node = fig1.leaf_node(t, i)
            assert fig1.tree(t).labels[node] == lab
    with pytest.raises(ValueError, match="tree index must be 1 or 2"):
        fig1.tree(3)


def test_rho_augmentation():
    pair = pair_from_newick("((a,b),c);", "(a,(b,c));", add_rho=True)
    assert pair.n == 4
    assert RHO_LABEL in pair.labels
    for t in (1, 2):
        tree = pair.tree(t)
        rho = pair.leaf_node(t, pair.index_of[RHO_LABEL])
        assert tree.parent[rho] == tree.root


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (50, 5), (1000, 20)])
def test_rho_sibling_matches_reparse(n, k):
    """Grafting rho gives the node ids of parsing ``(rho,<tree>);``."""
    pair = random_pair(n, seed=n, mode="k_rspr", k=k)
    for tree in (pair.t1, pair.t2):
        got = tree.with_root_sibling(RHO_LABEL)
        want = parse_newick("(%s,%s);" % (RHO_LABEL, tree.to_newick()[:-1]))
        for attr in ("parent", "left", "right", "labels", "depth",
                     "subtree_min", "leaf_ids"):
            assert getattr(got, attr) == getattr(want, attr), attr


def test_rho_label_collision_rejected():
    with pytest.raises(NewickError, match="label 'rho' already present"):
        pair_from_newick("(rho,b);", "(rho,b);", add_rho=True)


def test_mismatched_leaf_sets_rejected():
    with pytest.raises(NewickError):
        pair_from_newick("(a,b);", "(a,c);")


def test_triple_compatible_against_naive(fig1, fig9):
    pairs = [fig1, fig9] + [pair for _, pair in corpus(7, 6, base_seed=3)]
    for pair in pairs:
        bad = incompatible_triples(pair)
        for a, b, c in combinations(range(pair.n), 3):
            want = naive.naive_triple_compatible(pair, a, b, c)
            assert ((a, b, c) not in bad) == want
        assert all(a < b < c for a, b, c in bad)


def test_leaf_path_masks_against_naive(fig1, fig9):
    """Edges named by their lower node: the path's nodes minus the lca."""
    pairs = [fig1, fig9] + [pair for _, pair in corpus(7, 6, base_seed=3)]
    for pair in pairs:
        for t in (1, 2):
            tree = pair.tree(t)
            masks = leaf_path_masks(pair, t)
            for i in range(pair.n):
                for j in range(pair.n):
                    u, v = pair.leaf_node(t, i), pair.leaf_node(t, j)
                    edges = (naive.path_nodes(tree, u, v)
                             - {naive.naive_lca(tree, u, v)})
                    assert masks[i][j] == sum(1 << e for e in edges)


def test_known_incompatible_triple(fig1):
    bad = tuple(sorted(fig1.index_of[x] for x in ("b2", "r2", "w2")))
    good = tuple(sorted(fig1.index_of[x] for x in ("b2", "r2", "w3")))
    assert bad in incompatible_triples(fig1)
    assert good not in incompatible_triples(fig1)


def test_set_compatible_against_naive(fig1):
    for size in range(1, 6):
        for subset in combinations(range(fig1.n), size):
            assert set_compatible(fig1, subset) == \
                naive.naive_set_compatible(fig1, subset)
    rng = random.Random(7)
    seen = Counter()
    for n in range(3, 13):
        for name, pair in corpus(n, 25):
            for _ in range(8):
                subset = rng.sample(range(n), rng.randint(3, n))
                want = naive.naive_set_compatible(pair, subset)
                assert set_compatible(pair, subset) == want, (name, subset)
                seen[want] += 1
    assert min(seen.values()) > 100


def test_set_compatible_trivial_cases(fig1):
    assert set_compatible(fig1, [0])
    assert set_compatible(fig1, [0, 3])
    pair = random_pair(6, 1)
    same = pair_from_newick(pair.t1.to_newick(), pair.t1.to_newick())
    assert set_compatible(same, range(6))


def test_spanned_nodes_against_naive(fig1, fig9):
    for pair in (fig1, fig9):
        for size in (1, 2, 3, 4):
            for subset in combinations(range(pair.n), size):
                for t in (1, 2):
                    assert spanned_nodes(pair, t, subset) == \
                        naive.naive_spanned(pair, t, subset)


def test_single_leaf_pair_supported():
    pair = pair_from_newick("a;", "a;")
    assert pair.n == 1
    assert make_pair(pair.t1, pair.t2).labels == ["a"]
