"""Exact oracle, instance generators, reports, and the command line."""

import argparse
import ast
import hashlib
import importlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest

import rbmaf
from rbmaf import (
    InvariantError,
    OracleCapError,
    RootedBinaryTree,
    RunReport,
    cli_runner,
    corpus,
    exact_maf,
    make_report,
    pair_from_newick,
    random_pair,
    run,
    tree_model,
)
from rbmaf.cli_runner import (
    BENCH_LEAF_CAP,
    EXACT_CEILING,
    GENERATED_LEAF_CAP,
    _post_order_names,
    _pre_order_node,
    _spr_move,
    _uniform_tree,
    build_parser,
    certificate_dict,
    main,
)
from rbmaf.lp_toolkit import (
    COMPACT_LP_CAP,
    FIG1_NEWICK1,
    FIG1_NEWICK2,
    FIG9_NEWICK1,
    FIG9_NEWICK2,
    WU_GAP_MAX_ORDER,
    WU_ILP_CAP,
    build_exponential_lp,
    render_lp_text,
)

import naive


# ----------------------------------------------------------------------
# exact search


def test_exact_on_worked_instances(fig1, fig9):
    assert exact_maf(fig1) == 3
    assert exact_maf(fig9) == 5


def test_exact_trivial_sizes():
    assert exact_maf(pair_from_newick("(a,b);", "(a,b);")) == 0
    assert exact_maf(pair_from_newick("((a,b),c);", "((a,b),c);")) == 0


def test_exact_matches_naive():
    pairs = list(corpus(6, 8, base_seed=61)) + [next(corpus(7, 1, base_seed=62))]
    pairs += [inst for n in range(3, 8) for inst in corpus(n, 25)]
    for name, pair in pairs:
        assert exact_maf(pair) == naive.naive_exact_maf(pair), name


def test_exact_cap_enforced():
    pair = random_pair(11, seed=4)
    with pytest.raises(OracleCapError, match="capped at 10"):
        exact_maf(pair)
    with pytest.raises(OracleCapError, match="capped at 8"):
        exact_maf(random_pair(9, seed=4), partition_cap=8)
    with pytest.raises(OracleCapError, match="EXACT_CEILING = %d .*got %d"
                       % (EXACT_CEILING, EXACT_CEILING + 1)):
        exact_maf(random_pair(5, seed=4), partition_cap=EXACT_CEILING + 1)


def test_exact_cap_raise_warns():
    pair = random_pair(5, seed=4)
    with pytest.warns(RuntimeWarning, match="Bell"):
        value = exact_maf(pair, partition_cap=12)
    assert value == exact_maf(pair)


# ----------------------------------------------------------------------
# random instances


def test_random_pair_deterministic():
    a = random_pair(8, seed=5)
    b = random_pair(8, seed=5)
    assert a.t1.to_newick() == b.t1.to_newick()
    assert a.t2.to_newick() == b.t2.to_newick()
    c = random_pair(8, seed=6)

    def shapes(pair):
        return [naive.naive_to_newick(t, canonical=True)
                for t in (pair.t1, pair.t2)]
    assert shapes(a) != shapes(c)


def test_random_pair_labels():
    assert sorted(random_pair(9).labels) == ["L%d" % i for i in range(1, 10)]
    labels = sorted(random_pair(12).labels)
    assert labels[0] == "L01" and labels[-1] == "L12"


def test_uniform_covers_all_three_leaf_shapes():
    shapes = {naive.naive_to_newick(random_pair(3, seed=s).t1, canonical=True)
              for s in range(40)}
    assert len(shapes) == 3


def test_krspr_zero_moves_is_identity():
    pair = random_pair(7, seed=9, mode="k_rspr", k=0)
    assert naive.naive_to_newick(pair.t1, canonical=True) == \
        naive.naive_to_newick(pair.t2, canonical=True)


def test_krspr_distance_within_k():
    for k in (1, 2, 3):
        for seed in range(6):
            pair = random_pair(6, seed=seed, mode="k_rspr", k=k)
            assert 0 < exact_maf(pair) <= k


def test_corpus_golden():
    """The acceptance corpus, byte for byte, as first recorded."""
    digest = hashlib.sha256()
    for n in range(3, 13):
        for name, pair in corpus(n, 30, base_seed=7000 + 97 * n):
            for text in (name, pair.t1.to_newick(), pair.t2.to_newick()):
                digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == (
        "cce7d5de522070b93621db2156fc9de4b3063d0faeef7c692dd9897c1044b02d")


def test_krspr_grid_golden():
    """k-rSPR pairs over an (n, seed, k) grid, byte for byte, as first
    recorded."""
    grid = [(n, seed, k)
            for n in (2, 3, 5, 8, 13, 50, 200)
            for seed in range(10)
            for k in sorted({0, 1, n // 2, n - 1}) if k < n]
    grid += [(1000, seed, 20) for seed in range(3)]
    assert len(grid) == 253
    digest = hashlib.sha256()
    for n, seed, k in grid:
        pair = random_pair(n, seed, mode="k_rspr", k=k)
        digest.update(("%d %d %d %s %s\n" % (
            n, seed, k, pair.t1.to_newick(), pair.t2.to_newick())).encode())
    assert digest.hexdigest() == (
        "60658066b9d16fdbd7a63fec282a8256d60df96a6027c364cfc353fe3f7feb5b")


class _Scripted:
    """Stand-in for random.Random whose draws are given in advance."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def randrange(self, stop):
        value = next(self.draws)
        assert 0 <= value < stop
        return value


def _editable(tree):
    """The arrays the k-rSPR generator edits: copies of the tree's
    ``parent``, ``left`` and ``right`` arrays and each node's subtree
    size, with one more node, id ``n_nodes``, whose left child is the
    root."""
    top = tree.n_nodes
    return (tree.parent[:-1] + [top, -1], tree.left + [tree.root],
            tree.right + [-1],
            [v - low + 1 for v, low in enumerate(tree.subtree_min)] + [0])


# Reference prune and regraft on nested tuples: a leaf is its label, an
# internal node the pair (left, right), a node the path of 0/1 steps to it.

def _nested(left, right, labels, v):
    if left[v] < 0:
        return labels[v]
    return (_nested(left, right, labels, left[v]),
            _nested(left, right, labels, right[v]))


def _post_order_paths(t, path=()):
    if isinstance(t, tuple):
        yield from _post_order_paths(t[0], path + (0,))
        yield from _post_order_paths(t[1], path + (1,))
    yield path


def _pre_order_right_first(t, path=()):
    yield path
    if isinstance(t, tuple):
        yield from _pre_order_right_first(t[1], path + (1,))
        yield from _pre_order_right_first(t[0], path + (0,))


def _at(t, path):
    for step in path:
        t = t[step]
    return t


def _put(t, path, sub):
    if not path:
        return sub
    kids = list(t)
    kids[path[0]] = _put(t[path[0]], path[1:], sub)
    return tuple(kids)


def _text(t):
    if isinstance(t, tuple):
        return "(%s,%s)" % (_text(t[0]), _text(t[1]))
    return t


def _canonical(t):
    """(smallest label, text with children ordered by smallest label)."""
    if not isinstance(t, tuple):
        return t, t
    a, b = sorted((_canonical(t[0]), _canonical(t[1])))
    return a[0], "(%s,%s)" % (a[1], b[1])


def test_spr_noop_iff_sibling():
    """Every move on every labelled tree with 2 to 6 leaves: the move is
    refused, leaving the arrays as they were, exactly when it would give
    back the same topology; otherwise it is the reference move."""
    trees = 0
    for n in range(2, 7):
        labels = ["L%d" % (i + 1) for i in range(n)]
        for slots in itertools.product(*(range(2 * i - 1)
                                         for i in range(1, n))):
            trees += 1
            tree = _uniform_tree(labels, _Scripted(slots))
            before = _nested(tree.left, tree.right, tree.labels, tree.root)
            same = _canonical(before)
            moves = list(_post_order_paths(before))[:-1]
            for m, moving in enumerate(moves):
                pruned = _put(before, moving[:-1],
                              _at(before, moving[:-1] + (1 - moving[-1],)))
                hosts = list(_pre_order_right_first(pruned))
                for h, host in enumerate(hosts):
                    after = _put(pruned, host,
                                 (_at(pruned, host), _at(before, moving)))
                    parent, left, right, size = arrays = _editable(tree)
                    moved = _spr_move(parent, left, right, size, tree.n_nodes,
                                      _Scripted((m, h)))
                    if _canonical(after) == same:
                        assert not moved, (before, m, h)
                        assert arrays == _editable(tree), (before, m, h)
                        after = before  # left as it was
                    else:
                        assert moved, (before, m, h)
                    root = left[tree.n_nodes]
                    text = _text(after) + ";"
                    assert naive.naive_arrays_newick(
                        left, right, tree.labels, root) == text
                    assert RootedBinaryTree(_post_order_names(
                        left, right, tree.labels, root)).to_newick() == text
    assert trees == 1 + 3 + 15 + 105 + 945


_TREE_FIELDS = ("parent", "left", "right", "labels", "depth",
                "subtree_min", "leaf_ids")


def _assert_tree_matches_text(left, right, labels, root):
    """The tree arrays renumbered from the edited arrays equal those
    parsed from their Newick text."""
    built = RootedBinaryTree(_post_order_names(left, right, labels, root))
    parsed = tree_model.parse_newick(
        naive.naive_arrays_newick(left, right, labels, root))
    for name in _TREE_FIELDS:
        assert getattr(built, name) == getattr(parsed, name), name


def test_size_indexed_draws_match_walk():
    """On random trees with 2 to 60 leaves, as grown and after three
    prune and regraft moves, the lookup by subtree size returns the node
    at every index of the walked right-first pre-order, whose reverse is
    the left-to-right post-order the moving node is drawn from, every
    size is the walked subtree size, and the tree arrays equal those of
    the tree's Newick text."""
    for n in range(2, 61):
        labels = ["L%d" % (i + 1) for i in range(n)]
        for seed in range(3):
            rng = random.Random(seed)
            tree = _uniform_tree(labels, rng)
            parsed = tree_model.parse_newick(naive.naive_arrays_newick(
                tree.left, tree.right, tree.labels, tree.root))
            for name in _TREE_FIELDS:
                assert getattr(tree, name) == getattr(parsed, name), name
            parent, left, right, size = _editable(tree)
            for moves in range(4):
                root = left[tree.n_nodes]
                _assert_tree_matches_text(left, right, tree.labels, root)
                pre = naive.naive_subtree_nodes(left, right, root)
                for i, node in enumerate(pre):
                    assert _pre_order_node(left, right, size, root, i) == node
                    assert size[node] == len(
                        naive.naive_subtree_nodes(left, right, node))
                _spr_move(parent, left, right, size, tree.n_nodes, rng)


def test_size_lookup_raises_on_a_wrong_size():
    """With the root's size raised by 3, the three indices past the
    tree carry the walk past a leaf, and it raises instead of stepping
    on from there."""
    for seed in range(5):
        tree = _uniform_tree(["L%d" % (i + 1) for i in range(40)],
                             random.Random(seed))
        _, left, right, size = _editable(tree)
        root = tree.root
        size[root] += 3
        for i in range(size[root] - 3, size[root]):
            with pytest.raises(InvariantError, match="past the subtree"):
                _pre_order_node(left, right, size, root, i)


def test_sizes_track_every_move():
    """n = 300, 50 prune and regraft moves, every third aimed at the
    former sibling so that it is refused: after each move every node's
    size equals its walked subtree size, and the tree arrays equal those
    of the tree's Newick text."""
    rng = random.Random(3)
    tree = _uniform_tree(["L%d" % (i + 1) for i in range(300)], rng)
    parent, left, right, size = _editable(tree)
    top = tree.n_nodes
    refused = 0
    for step in range(50):
        root = left[top]
        pre = naive.naive_subtree_nodes(left, right, root)
        m = rng.randrange(len(pre) - 1)
        moving = pre[::-1][m]
        gone = parent[moving]
        sib = left[gone] if right[gone] == moving else right[gone]
        drop = set(naive.naive_subtree_nodes(left, right, moving)) | {gone}
        hosts = [u for u in pre if u not in drop]
        h = hosts.index(sib) if step % 3 == 0 else rng.randrange(len(hosts))
        moved = _spr_move(parent, left, right, size, top, _Scripted((m, h)))
        assert moved == (hosts[h] != sib)
        refused += not moved
        root = left[top]
        assert parent[root] == top and parent[top] == -1
        for u in naive.naive_subtree_nodes(left, right, root):
            assert size[u] == len(naive.naive_subtree_nodes(left, right, u))
        _assert_tree_matches_text(left, right, tree.labels, root)
    assert refused >= 17


def test_random_pair_reads_no_newick(monkeypatch):
    """Generated pairs and corpora are built without parsing any text."""
    def refuse(text):
        raise AssertionError("parse_newick called by the generator")

    monkeypatch.setattr(tree_model, "parse_newick", refuse)
    monkeypatch.setattr(cli_runner, "parse_newick", refuse)
    for n in (2, 10, 1000):
        assert random_pair(n, seed=n).n == n
        assert random_pair(n, seed=n, mode="k_rspr", k=1).n == n
    assert len(list(corpus(8, 4))) == 4


def test_random_pair_argument_errors():
    with pytest.raises(ValueError, match="at least 2"):
        random_pair(1)
    with pytest.raises(ValueError, match="k >= 0"):
        random_pair(5, mode="k_rspr")
    with pytest.raises(ValueError, match="k >= 0"):
        random_pair(5, mode="k_rspr", k=-1)
    with pytest.raises(ValueError, match="below the leaf count"):
        random_pair(5, mode="k_rspr", k=5)
    with pytest.raises(ValueError, match="unknown mode"):
        random_pair(5, mode="nni")
    with pytest.raises(ValueError, match="GENERATED_LEAF_CAP = %d leaves, got %d"
                       % (GENERATED_LEAF_CAP, GENERATED_LEAF_CAP + 1)):
        random_pair(GENERATED_LEAF_CAP + 1, mode="k_rspr", k=3)
    tracemalloc.start()  # a bad k is refused before the labels are made
    try:
        with pytest.raises(ValueError, match="below the leaf count"):
            random_pair(GENERATED_LEAF_CAP, mode="k_rspr", k=10 ** 12)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# reports


def test_run_report_validate_rejects_bad_sandwiches():
    with pytest.raises(InvariantError, match="negative lower bound"):
        RunReport("i", value=0, dual=-1).validate()
    with pytest.raises(InvariantError, match="twice the lower bound"):
        RunReport("i", value=5, dual=2).validate()
    with pytest.raises(InvariantError, match="above the optimum"):
        RunReport("i", value=4, dual=3, exact=2).validate()
    with pytest.raises(InvariantError, match="below the optimum"):
        RunReport("i", value=2, dual=2, exact=3).validate()
    assert RunReport("i", value=4, dual=2, exact=3).validate()


def test_make_report_on_worked_instance(fig9):
    report, result = make_report(fig9, instance="fig9", want_exact=True)
    assert (report.value, report.dual, report.exact) == (5, 3, 5)
    assert report.ratio_exact == 1.0
    assert report.ratio_half == 5 / 6
    assert set(report.timings) == {"solve", "exact"}
    data = report.as_dict()
    assert data == {
        "instance": "fig9", "value": 5, "dual": 3, "exact": 5,
        "ratio_exact": 1.0, "ratio_half": 5 / 6,
        "timings": report.timings}
    assert list(data) == ["instance", "value", "dual", "exact",
                          "ratio_exact", "ratio_half", "timings"]
    timings = dict(report.timings)
    data["timings"]["solve"] = -1.0
    data["timings"]["extra"] = 0.0
    assert report.timings == timings


def test_make_report_identical_trees():
    pair = pair_from_newick("((a,b),c);", "((a,b),c);")
    report, result = make_report(pair, want_exact=True)
    assert (report.value, report.dual, report.exact) == (0, 0, 0)
    assert report.ratio_exact is None and report.ratio_half is None
    assert certificate_dict(result) == {
        "y": {}, "D": 0, "ratio_bound": None}


def test_certificate_dict_golden(fig1):
    result = run(fig1)
    assert certificate_dict(result) == {
        "y": {"t1:6": -1, "t2:2": -1, "t2:10": -1},
        "D": 2, "ratio_bound": 2.0}


# ----------------------------------------------------------------------
# command line


def test_cli_solve_human(capsys):
    assert main(["solve", FIG1_NEWICK1, FIG1_NEWICK2]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "value 4"
    assert out[1] == "dual lower bound 2"
    assert out[2] == "ratio bound 2.000"
    assert out[3] == "component b1 r1"
    assert out[-1] == "component w3"


def test_cli_solve_json_and_trace(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["solve", FIG1_NEWICK1, FIG1_NEWICK2,
                 "--json", "--trace", str(trace)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 4 and payload["dual"] == 2
    assert payload["ratio_bound"] == 2.0
    assert payload["pairs"] == [["r1", "b1"]]
    assert payload["iterations"] == 1
    assert payload["certificate"]["y"] == {"t1:6": -1, "t2:2": -1,
                                           "t2:10": -1}
    lines = trace.read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert events[0]["event"] == "init"
    assert events[-1]["event"] == "final"
    assert any(e["event"] == "snapshot" for e in events)
    assert lines[0] == json.dumps(events[0], sort_keys=True)


def test_cli_solve_reads_files(tmp_path, capsys):
    f1 = tmp_path / "a.nwk"
    f2 = tmp_path / "b.nwk"
    f1.write_text(FIG9_NEWICK1 + "\n")
    f2.write_text(FIG9_NEWICK2 + "\n")
    assert main(["solve", str(f1), str(f2)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "value 5"


def test_cli_solve_add_rho(capsys):
    assert main(["solve", "--add-rho", FIG1_NEWICK1, FIG1_NEWICK2]) == 0
    out = capsys.readouterr().out
    assert "rho" in out


def test_cli_exact(capsys):
    assert main(["exact", FIG1_NEWICK1, FIG1_NEWICK2]) == 0
    assert capsys.readouterr().out == "exact 3\n"


def test_cli_check_dual(capsys):
    assert main(["check-dual", FIG9_NEWICK1, FIG9_NEWICK2]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dual certificate feasible after each of 2 iterations"
    assert out[1] == "value 5 lower bound 3"


def test_cli_emit_lp(tmp_path, capsys):
    got = tmp_path / "got.lp"
    assert main(["emit-lp", "exp", "(a,b);", "(a,b);",
                 "-o", str(got)]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "wrote %s: 3 variables, 4 constraints, 6 nonzeros" % got
    model = build_exponential_lp(pair_from_newick("(a,b);", "(a,b);"))
    assert got.read_text() == render_lp_text(model)


@pytest.mark.parametrize("kind", ["exp", "compact", "wu"])
def test_cli_emit_lp_kinds(tmp_path, capsys, kind):
    out = tmp_path / (kind + ".lp")
    argv = ["emit-lp", kind, FIG9_NEWICK1, FIG9_NEWICK2, "-o", str(out)]
    assert main(argv) == 0
    assert out.read_text().endswith("End\n")


@pytest.mark.parametrize("kind, label", [
    ("exp", "a-b"), ("compact", "a-b"), ("exp", "a+b"), ("compact", "a+b"),
    ("exp", "a.b")])
def test_cli_emit_lp_refuses_labels_an_lp_name_cannot_carry(
        tmp_path, capsys, kind, label):
    out = tmp_path / (kind + ".lp")
    argv = ["emit-lp", kind, "((%s,a),b);" % label, "(%s,(a,b));" % label,
            "-o", str(out)]
    assert main(argv) == 2
    assert "leaf label %r holds" % label in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, name, cap", [
    ("wu", "WU_ILP_CAP", WU_ILP_CAP),
    ("compact", "COMPACT_LP_CAP", COMPACT_LP_CAP),
])
def test_cli_emit_lp_capped(tmp_path, capsys, kind, name, cap):
    pair = random_pair(cap + 1, seed=1)
    out = tmp_path / (kind + ".lp")
    argv = ["emit-lp", kind, pair.t1.to_newick(), pair.t2.to_newick(),
            "-o", str(out)]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "%s = %d" % (name, cap) in err
    assert "got %d" % (cap + 1) in err
    assert not out.exists()


def test_cli_gen_kinds(tmp_path, capsys):
    cases = [
        (["gen", "fig1"], "fig1"),
        (["gen", "fig9"], "fig9"),
        (["gen", "wu"], "wu"),
        (["gen", "random", "--n", "6", "--seed", "3"], "random"),
        (["gen", "krspr", "--n", "6", "--k", "2"], "krspr"),
    ]
    for argv, prefix in cases:
        base = str(tmp_path / prefix)
        assert main(argv + ["-o", base]) == 0
        t1 = open(base + "_t1.nwk").read()
        t2 = open(base + "_t2.nwk").read()
        pair = pair_from_newick(t1, t2)
        assert pair.n >= 2
    wu1 = (tmp_path / "wu_t1.nwk").read_text().strip()
    assert wu1 == "((00,01),(10,11));"


def test_cli_gen_errors(tmp_path, capsys):
    assert main(["gen", "random", "-o", str(tmp_path / "x")]) == 2
    assert "gen random needs --n" in capsys.readouterr().err
    assert main(["gen", "krspr", "--n", "5", "-o", str(tmp_path / "k")]) == 2
    assert "gen krspr needs --n and --k" in capsys.readouterr().err
    assert main(["gen", "wu", "--k", "3", "-o", str(tmp_path / "y")]) == 2
    assert "even" in capsys.readouterr().err


def test_cli_gen_wu_order_capped(tmp_path, capsys, monkeypatch):
    def never(k, reverse):
        raise AssertionError("built a gap tree of order %d" % k)

    monkeypatch.setattr("rbmaf.lp_toolkit._complete_tree_newick", never)
    assert main(["gen", "wu", "--k", "40", "-o", str(tmp_path / "z")]) == 2
    assert "WU_GAP_MAX_ORDER = 16" in capsys.readouterr().err


def test_cli_fuzz_small(capsys):
    assert main(["fuzz", "--n", "6", "--iters", "8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fuzz ok: 8 instances")
    assert "worst value/exact" in out


def test_cli_fuzz_reverifies_certificate(monkeypatch, capsys):
    calls = []

    def fail_second(pair, dual, components):
        calls.append(pair)
        if len(calls) == 2:
            raise InvariantError("injected load violation")
        return True

    monkeypatch.setattr("rbmaf.cli_runner.verify_dual_feasibility",
                        fail_second)
    assert main(["fuzz", "--n", "6", "--iters", "4"]) == 1
    err = capsys.readouterr().err
    assert "FAIL u-n6-s0: injected load violation" in err
    assert "1 of 4 instances failed" in err


def test_cli_bench_tiny(capsys):
    assert main(["bench", "--sizes", "40,80"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "time_s", "value", "dual", "ratio"]
    assert len(lines) == 3
    assert lines[1].split()[0] == "40"


# Every integer option of ``build_parser()`` is a size, probed at 10**12
# in SIZE_PROBES, or listed here with the reason it is none.
NOT_SIZES = {
    ("gen", "--seed"): "a generator seed: each value gives a pair of the "
                       "size asked for",
    ("fuzz", "--seed"): "the corpus's first generator seed, as for gen",
    ("bench", "--seed"): "the generator seed of every size, as for gen",
    ("fuzz", "--iters"): "a count of pairs generated and solved one at a "
                         "time: the time grows with it, the memory does not",
}

# (argv with %d where 10**12 goes, the limit its message names, its value)
SIZE_PROBES = [
    (["gen", "random", "--n", "%d"], "GENERATED_LEAF_CAP", GENERATED_LEAF_CAP),
    (["gen", "krspr", "--n", "%d", "--k", "5"], "GENERATED_LEAF_CAP",
     GENERATED_LEAF_CAP),
    (["fuzz", "--n", "%d", "--iters", "3"], "GENERATED_LEAF_CAP",
     GENERATED_LEAF_CAP),
    (["bench", "--sizes", "40,%d"], "BENCH_LEAF_CAP", BENCH_LEAF_CAP),
    (["exact", FIG1_NEWICK1, FIG1_NEWICK2, "--cap", "%d"], "EXACT_CEILING",
     EXACT_CEILING),
    (["fuzz", "--n", "8", "--exact-cap", "%d"], "EXACT_CEILING",
     EXACT_CEILING),
    (["gen", "wu", "--k", "%d"], "WU_GAP_MAX_ORDER", WU_GAP_MAX_ORDER),
    # k must stay below the leaf count
    (["gen", "krspr", "--n", "10", "--k", "%d"], "n", 10),
]


def test_parser_walk_finds_a_probe_or_a_reason_for_every_integer_option():
    """A walk of ``build_parser()``: each integer option of each command
    is probed by SIZE_PROBES or listed in NOT_SIZES, not both, and each
    option those name exists."""
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    options = {(command, action.option_strings[-1]): action.type
               for command, p in sub.choices.items()
               for action in p._actions if action.option_strings}
    probed = {(argv[0], argv[k - 1]) for argv, _, _ in SIZE_PROBES
              for k, arg in enumerate(argv) if "%d" in arg}
    assert not probed & NOT_SIZES.keys()
    assert probed | NOT_SIZES.keys() <= options.keys()
    assert {o for o, kind in options.items() if kind is int} <= (
        probed | NOT_SIZES.keys())


@pytest.mark.parametrize("argv, name, cap", SIZE_PROBES)
def test_cli_leaf_counts_capped(tmp_path, capsys, argv, name, cap):
    """A size of 10**12 fails fast with exit code 2 and a message naming
    its limit and the value, allocating nothing in proportion to it."""
    huge = 10 ** 12
    argv = [a % huge if "%" in a else a for a in argv]
    if argv[0] == "gen":
        argv += ["-o", str(tmp_path / "x")]
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        assert main(argv) == 2
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2 ** 20
    captured = capsys.readouterr()
    assert "%s = %d" % (name, cap) in captured.err
    assert "got %d" % huge in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_error_exit_codes(capsys):
    assert main(["solve", "((a,b;", "(a,b);"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["solve", "no_such_file.nwk", "(a,b);"]) == 2
    assert main(["exact", FIG1_NEWICK1, FIG1_NEWICK2, "--cap", "5"]) == 2
    for cap in ("-1", "0"):
        assert main(["exact", FIG1_NEWICK1, FIG1_NEWICK2, "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert "cap must be at least 1 leaf" in captured.err
        assert "got %s for an instance with 7 leaves" % cap in captured.err
        assert captured.out == ""
    for sizes, bad in ((",", "','"), ("1000,0", "'0'"), ("x", "'x'")):
        assert main(["bench", "--sizes", sizes]) == 2
        captured = capsys.readouterr()
        assert "bench --sizes needs" in captured.err
        assert "got %s" % bad in captured.err
        assert captured.out == ""
    for iters in ("0", "-3"):
        assert main(["fuzz", "--n", "4", "--iters", iters]) == 2
        captured = capsys.readouterr()
        assert "--iters >= 1, got %s" % iters in captured.err
        assert captured.out == ""
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_cli_invariant_exit_code(monkeypatch, capsys):
    def boom(pair, **kwargs):
        raise InvariantError("boom")

    monkeypatch.setattr("rbmaf.cli_runner.run", boom)
    assert main(["solve", "(a,b);", "(a,b);"]) == 1
    assert capsys.readouterr().err.startswith("invariant violation: boom")


# The lines a setuptools console-script wrapper runs for "module:function".
CONSOLE_WRAPPER = """\
import sys
from {module} import {function}
sys.argv[0] = "rbmaf"
sys.exit({function}())
"""


def _child_env():
    """Environment whose PYTHONPATH leads to the rbmaf package imported here.

    Subprocesses then import the same source from any working directory.
    """
    package_root = Path(rbmaf.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=str(package_root))


def _toml():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        return pytest.importorskip("tomli")
    return tomllib


def test_package_exports_resolve_once():
    """A name deleted from the package must leave ``__all__`` too."""
    names = rbmaf.__all__
    assert len(set(names)) == len(names)
    assert [x for x in names if not hasattr(rbmaf, x)] == []


def test_modules_use_every_name_they_import():
    """Each module of the package uses every name it imports, except
    ``from __future__`` imports, the names the package re-exports
    through ``__all__`` and names on a line marked ``# noqa: F401``."""
    unused = []
    for path in sorted(Path(rbmaf.__file__).resolve().parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exported = set(rbmaf.__all__) if path.name == "__init__.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
            elif not isinstance(node, ast.Import):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if (name not in used and name not in exported
                        and "# noqa: F401" not in lines[alias.lineno - 1]):
                    unused.append("%s:%d %s" % (path.name, alias.lineno, name))
    assert unused == []


def test_package_uses_every_private_name_it_defines():
    """Each private name the package defines, that is each module-level
    function, class or assignment and each method whose name starts
    with an underscore and does not end with two, is used somewhere in
    the package outside its own definition.  A use is a name, an
    attribute or an imported name."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(
        Path(rbmaf.__file__).resolve().parent.glob("*.py"))}
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            uses.setdefault(name, []).append(node)

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    unused = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs.extend(m for m in node.body
                            if isinstance(m, ast.FunctionDef))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defs.extend(t for t in targets if isinstance(t, ast.Name))
        for node in defs:
            name = getattr(node, "name", None) or node.id
            if not private(name):
                continue
            inside = set(map(id, ast.walk(node)))
            if all(id(use) in inside for use in uses.get(name, ())):
                unused.append("%s:%d %s" % (module, node.lineno, name))
    assert unused == []


def test_every_slot_the_package_declares_is_read():
    """Each name in the ``__slots__`` of a class of the package is read
    somewhere in the package, its tests or its benchmark, where a read
    is an attribute in load context: a slot that is only written keeps
    state nothing uses."""
    package = Path(rbmaf.__file__).resolve().parent
    root = package.parent.parent
    reads, slots = set(), []
    for path in sorted(itertools.chain(*(
            (root / d).rglob("*.py") for d in ("src", "tests", "perfbench")))):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ClassDef) and path.parent == package:
                slots.extend(
                    ("%s.%s" % (node.name, name.value), name.value)
                    for stmt in node.body if isinstance(stmt, ast.Assign)
                    and [t.id for t in stmt.targets] == ["__slots__"]
                    for name in stmt.value.elts)
    assert slots
    assert [owner for owner, name in slots if name not in reads] == []


def test_partition_never_reads_the_saved_sweep():
    """``forest_partition`` only assigns its ``sweep`` slot: the sweep
    reads what changed from the partition's logs, so no attribute
    named ``sweep`` is loaded there."""
    path = Path(rbmaf.__file__).resolve().parent / "forest_partition.py"
    loads = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "sweep"
             and isinstance(node.ctx, ast.Load)]
    assert loads == []


def test_console_script_subprocess():
    argv = ["solve", FIG9_NEWICK1, FIG9_NEWICK2]
    # An installed script on PATH is checked too, wherever there is one.
    installed = shutil.which("rbmaf")
    if installed:
        proc = subprocess.run([installed] + argv,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "value 5"

    # The entry point pyproject.toml declares, run as its wrapper would.
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        declared = _toml().load(handle)["project"]["scripts"]["rbmaf"]
    module, function = declared.split(":")
    wrapper = CONSOLE_WRAPPER.format(module=module, function=function)
    proc = subprocess.run(
        [sys.executable, "-c", wrapper] + argv,
        capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "value 5"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rbmaf", "exact", "(a,b);", "(a,b);"],
        capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout == "exact 0\n"


def test_perfbench_trace_targets_exist():
    """Every name the benchmark's tracer patches is defined by its owner
    itself, so a rename fails here instead of in ``run.py --trace 1``.
    The tracing module is compiled from its source, so nothing is
    written next to it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         tracing.__dict__)
    targets = [t[:2] for t in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS]
    modules = {m: importlib.import_module("rbmaf." + m) for m, _ in targets}
    missing = []
    for module, attr in targets:
        owner, key = tracing._owner_and_name(modules, module, attr)
        if key not in owner.__dict__:
            missing.append("%s.%s" % (module, attr))
    assert len(targets) > 20 and not missing, missing
