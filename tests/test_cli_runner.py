"""Exact oracle, instance generators, reports, and the command line."""

import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rbmaf
from rbmaf import (
    InvariantError,
    OracleCapError,
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
    _bud_tree,
    _post_order_at,
    _pre_order_at,
    _spr_once,
    _uniform_bud,
    certificate_dict,
    main,
)
from rbmaf.lp_toolkit import (
    COMPACT_LP_CAP,
    FIG1_NEWICK1,
    FIG1_NEWICK2,
    FIG9_NEWICK1,
    FIG9_NEWICK2,
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
    for name, pair in corpus(6, 8, base_seed=61):
        assert exact_maf(pair) == naive.naive_exact_maf(pair), name
    name, pair = next(corpus(7, 1, base_seed=62))
    assert exact_maf(pair) == naive.naive_exact_maf(pair), name


def test_exact_cap_enforced():
    pair = random_pair(11, seed=4)
    with pytest.raises(OracleCapError, match="capped at 10"):
        exact_maf(pair)
    with pytest.raises(OracleCapError, match="capped at 8"):
        exact_maf(random_pair(9, seed=4), partition_cap=8)


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
    assert (a.t1.to_newick(canonical=True), a.t2.to_newick(canonical=True)) \
        != (c.t1.to_newick(canonical=True), c.t2.to_newick(canonical=True))


def test_random_pair_labels():
    assert sorted(random_pair(9).labels) == ["L%d" % i for i in range(1, 10)]
    labels = sorted(random_pair(12).labels)
    assert labels[0] == "L01" and labels[-1] == "L12"


def test_uniform_covers_all_three_leaf_shapes():
    shapes = {random_pair(3, seed=s).t1.to_newick(canonical=True)
              for s in range(40)}
    assert len(shapes) == 3


def test_krspr_zero_moves_is_identity():
    pair = random_pair(7, seed=9, mode="k_rspr", k=0)
    assert pair.t1.to_newick(canonical=True) == \
        pair.t2.to_newick(canonical=True)


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


# Reference prune and regraft on nested tuples: a leaf is its label, an
# internal node the pair (left, right), a node the path of 0/1 steps to it.

def _nested(node):
    if node.label is not None:
        return node.label
    return (_nested(node.left), _nested(node.right))


def _post_order(t, path=()):
    if isinstance(t, tuple):
        yield from _post_order(t[0], path + (0,))
        yield from _post_order(t[1], path + (1,))
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
    refused, leaving the tree as it was, exactly when it would give back
    the same topology; otherwise it is the reference move."""
    trees = 0
    for n in range(2, 7):
        labels = ["L%d" % (i + 1) for i in range(n)]
        for slots in itertools.product(*(range(2 * i - 1)
                                         for i in range(1, n))):
            trees += 1
            before = _nested(_uniform_bud(labels, _Scripted(slots)))
            same = _canonical(before)
            moves = list(_post_order(before))[:-1]
            for m, moving in enumerate(moves):
                pruned = _put(before, moving[:-1],
                              _at(before, moving[:-1] + (1 - moving[-1],)))
                hosts = list(_pre_order_right_first(pruned))
                for h, host in enumerate(hosts):
                    after = _put(pruned, host,
                                 (_at(pruned, host), _at(before, moving)))
                    root = _uniform_bud(labels, _Scripted(slots))
                    moved = _spr_once(root, _Scripted((m, h)))
                    if _canonical(after) == same:
                        assert moved is None, (before, m, h)
                        moved, after = root, before  # left as it was
                    else:
                        assert moved is not None, (before, m, h)
                    text = _text(after) + ";"
                    assert naive.naive_bud_newick(moved) == text
                    assert _bud_tree(moved).to_newick() == text
    assert trees == 1 + 3 + 15 + 105 + 945


_TREE_FIELDS = ("parent", "left", "right", "labels", "depth",
                "subtree_min", "leaf_ids")


def _assert_bud_tree_matches_text(root):
    """The arrays built from the buds equal those parsed from their
    Newick text."""
    built = _bud_tree(root)
    parsed = tree_model.parse_newick(naive.naive_bud_newick(root))
    for name in _TREE_FIELDS:
        assert getattr(built, name) == getattr(parsed, name), name


def test_size_indexed_draws_match_walk():
    """On random bud trees with 2 to 60 leaves, the lookups by subtree
    size return the node at every index of the walked post-order and
    right-first pre-order, every size is the walked subtree size, and
    the tree arrays equal those of the tree's Newick text."""
    for n in range(2, 61):
        labels = ["L%d" % (i + 1) for i in range(n)]
        for seed in range(3):
            root = _uniform_bud(labels, random.Random(seed))
            _assert_bud_tree_matches_text(root)
            pre = naive.naive_subtree_buds(root)
            for i, node in enumerate(pre[::-1]):
                assert _post_order_at(root, i) is node
            for i, node in enumerate(pre):
                assert _pre_order_at(root, i) is node
                assert node.size == len(naive.naive_subtree_buds(node))


def test_sizes_track_every_move():
    """n = 300, 50 prune and regraft moves, every third aimed at the
    former sibling so that it is refused: after each move every bud's
    size equals its walked subtree size, and the tree arrays equal those
    of the tree's Newick text."""
    rng = random.Random(3)
    root = _uniform_bud(["L%d" % (i + 1) for i in range(300)], rng)
    refused = 0
    for step in range(50):
        pre = naive.naive_subtree_buds(root)
        m = rng.randrange(len(pre) - 1)
        moving = pre[::-1][m]
        gone = moving.parent
        sib = gone.left if gone.right is moving else gone.right
        drop = {id(u) for u in naive.naive_subtree_buds(moving)} | {id(gone)}
        hosts = [u for u in pre if id(u) not in drop]
        h = hosts.index(sib) if step % 3 == 0 else rng.randrange(len(hosts))
        moved = _spr_once(root, _Scripted((m, h)))
        assert (moved is None) == (hosts[h] is sib)
        if moved is None:
            refused += 1
        else:
            root = moved
        assert root.parent is None
        for bud in naive.naive_subtree_buds(root):
            assert bud.size == len(naive.naive_subtree_buds(bud))
        _assert_bud_tree_matches_text(root)
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
    assert data["instance"] == "fig9" and data["value"] == 5


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
