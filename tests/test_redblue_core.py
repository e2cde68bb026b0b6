"""Solver loop: worked-instance goldens, op contracts, invariants."""

import ast
import dataclasses
import hashlib
import json
import random
import re
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rbmaf import redblue_core
from rbmaf import (
    Coloring,
    DualState,
    InvariantError,
    Partition,
    RootedBinaryTree,
    classify_case,
    corpus,
    exact_maf,
    find_lowest_pcs,
    find_merge_pair,
    is_feasible_maf,
    is_K_feasible,
    make_coloring,
    make_pair,
    make_rb_compatible,
    make_splittable,
    merge_components,
    pair_from_newick,
    parse_newick,
    random_pair,
    run,
    special_split,
    split,
)

import naive
from test_forest_partition import PARTITION_FAULTS


def build_state(pair, parts_labels):
    """Partition from label blocks, stamped as iteration 1."""
    lab = pair.index_of
    part = Partition(pair)
    cid = next(iter(part.comps))
    part.split_component(cid, [[lab[x] for x in p] for p in parts_labels])
    part.begin_iteration()
    return part


# ----------------------------------------------------------------------
# worked instance goldens


def test_fig1_full_golden(fig1):
    res = run(fig1, record_snapshots=True)
    assert res.value == 4
    assert res.dual_objective == 2
    assert res.components == (("b1", "r1"), ("b2",), ("r2",),
                              ("w1", "w2"), ("w3",))
    assert res.pairslist == [(fig1.index_of["r1"], fig1.index_of["b1"])]
    assert res.dual.as_dict() == {"t1:6": -1, "t2:2": -1, "t2:10": -1}
    assert res.ratio_bound == 2.0

    assert len(res.iterations) == 1
    rec = res.iterations[0]
    assert (rec.pcs_node, rec.condition, rec.case) == (6, "a", 1)
    assert (rec.p0, rec.p1, rec.p2, rec.p3) == (1, 2, 2, 6)
    assert (rec.chi, rec.t, rec.n_stars) == (1, 0, 3)
    assert (rec.delta_dual, rec.delta_primal) == (2, 4)
    assert rec.pair_added and rec.n_pairs == 1
    assert rec.dual_objective == 2


def test_fig1_trace_events(fig1):
    trace = run(fig1, record_snapshots=True).trace
    events = [e["event"] for e in trace]
    assert events == ["init", "iteration_start", "stage", "snapshot",
                      "stage", "snapshot", "stage", "snapshot",
                      "merge_pair", "iteration_end", "merges", "final"]
    start = trace[1]
    assert start["pcs_node"] == 6 and start["condition"] == "a"
    assert start["red"] == ["r1", "r2"] and start["blue"] == ["b1", "b2"]
    rb = trace[2]
    assert rb["stage"] == "make_rb_compatible" and rb["nodes"] == [2]
    assert trace[3]["components"] == [["b1", "r1"],
                                      ["b2", "r2", "w1", "w2", "w3"]]
    assert trace[4]["stage"] == "make_splittable" and trace[4]["nodes"] == []
    sp = trace[6]
    assert sp["stage"] == "split" and sp["chi"] == 1 and sp["t"] == 0
    assert sp["special"]["node"] == 10 and sp["special"]["branch"] == 2
    assert trace[7]["components"] == [["b1"], ["b2"], ["r1"], ["r2"],
                                      ["w1", "w2"], ["w3"]]
    assert trace[8] == {"event": "merge_pair", "x1": "r1", "x2": "b1"}
    end = trace[9]
    assert end["sizes"] == [1, 2, 2, 6] and end["stars"] == 3
    assert trace[10]["pairs"] == [["r1", "b1"]]
    assert trace[11]["value"] == 4 and trace[11]["n_components"] == 5


def test_fig9_golden(fig9):
    res = run(fig9)
    assert res.value == 5
    assert res.dual_objective == 3
    assert res.components == (("1",), ("2",), ("3",), ("4", "6", "7"),
                              ("5",), ("8",))
    assert res.dual.as_dict() == {"t1:4": -1, "t1:12": -1, "t2:2": -1}
    assert [(r.pcs_node, r.condition, r.case) for r in res.iterations] == \
        [(4, "c", 3), (12, "c", 3)]
    assert res.value <= 2 * exact_maf(fig9) <= 2 * res.value


def test_identical_trees_solve_trivially():
    pair = pair_from_newick("((a,(b,c)),d);", "((a,(b,c)),d);")
    res = run(pair)
    assert res.value == 0
    assert res.dual_objective == 0
    assert res.ratio_bound is None
    assert len(res.components) == 1
    assert res.iterations == []


# ----------------------------------------------------------------------
# single ops on hand-built states


def test_find_lowest_pcs_conditions(fig1, fig9):
    assert find_lowest_pcs(Partition(fig1)).node == 6
    assert find_lowest_pcs(Partition(fig1)).condition == "a"
    assert find_lowest_pcs(Partition(fig9)).node == 4
    assert find_lowest_pcs(Partition(fig9)).condition == "c"
    final = run(fig1).partition
    assert find_lowest_pcs(final) is None


def test_make_coloring_at_fig1_pcs(fig1):
    part = Partition(fig1)
    coloring = make_coloring(part, 6)
    reds = sorted(fig1.labels[i] for i in coloring.red)
    blues = sorted(fig1.labels[i] for i in coloring.blue)
    colored = set(coloring.red + coloring.blue)
    whites = sorted(lab for i, lab in enumerate(fig1.labels)
                    if i not in colored)
    assert reds == ["r1", "r2"]
    assert blues == ["b1", "b2"]
    assert whites == ["w1", "w2", "w3"]
    assert coloring.node1 == 6


def test_case3_state_walkthrough(fig1):
    part = build_state(fig1, [["r1"], ["b1", "b2", "w1", "r2", "w2"], ["w3"]])
    pcs = find_lowest_pcs(part)
    assert (pcs.node, pcs.condition) == (6, "c")
    coloring = make_coloring(part, pcs.node)
    part.refresh_annotations(coloring)
    assert classify_case(part) == 3
    dual = DualState(fig1)
    dual.star(1, pcs.node)
    assert make_rb_compatible(part, dual) == []
    assert make_splittable(part, dual) == [5]
    assert part.label_sets() == (("b1", "r2", "w2"), ("b2", "w1"),
                                 ("r1",), ("w3",))
    pairs = []
    chi, pair_added, special = split(part, dual, pairs, None)
    assert (chi, pair_added, special) == (0, False, None)
    assert part.label_sets() == tuple(
        (x,) for x in ["b1", "b2", "r1", "r2", "w1", "w2", "w3"])
    mp = find_merge_pair(part)
    assert mp == (fig1.index_of["b2"], fig1.index_of["b1"])
    assert dual.as_dict() == {"t1:6": -1, "t2:5": -1}
    merge_components(part, [mp])
    assert part.label_sets()[0] == ("b1", "b2")


def test_case2_state_walkthrough(fig1):
    part = build_state(fig1, [["b1"], ["b2", "w1"], ["r1", "r2", "w2", "w3"]])
    pcs = find_lowest_pcs(part)
    assert (pcs.node, pcs.condition) == (6, "b")
    coloring = make_coloring(part, pcs.node)
    part.refresh_annotations(coloring)
    assert classify_case(part) == 2
    dual = DualState(fig1)
    dual.star(1, pcs.node)
    assert make_rb_compatible(part, dual) == []
    assert make_splittable(part, dual) == [9]
    pairs = []
    split(part, dual, pairs, None)
    assert part.label_sets() == tuple(
        (x,) for x in ["b1", "b2", "r1", "r2", "w1", "w2", "w3"])
    mp = find_merge_pair(part)
    assert mp == (fig1.index_of["r2"], fig1.index_of["r1"])


def test_special_split_four_way_golden(fig1):
    """The worked four-way replacement of the tricolored block."""
    part = build_state(fig1, [["b1", "r1"],
                              ["b2", "w1", "r2", "w2", "w3"]])
    coloring = make_coloring(part, 6)
    part.refresh_annotations(coloring)
    big = next(c.id for c in part.comps.values() if c.size == 5)
    dual = DualState(fig1)
    pairs = []
    chi, pair_added, node, branch = special_split(part, dual, big, pairs)
    assert (chi, pair_added, node, branch) == (1, False, 10, 2)
    assert pairs == []
    assert part.label_sets() == (("b1", "r1"), ("b2",), ("r2",),
                                 ("w1", "w2"), ("w3",))
    assert dual.as_dict() == {"t2:10": -1}


def test_full_split_then_merge_reaches_same_family(fig1):
    """Splitting everything and undoing the remembered pair agrees with
    the special-split picture of the same state."""
    part = build_state(fig1, [["b1", "r1"],
                              ["b2", "w1", "r2", "w2", "w3"]])
    coloring = make_coloring(part, 6)
    part.refresh_annotations(coloring)
    big = next(c.id for c in part.comps.values() if c.size == 5)
    dual = DualState(fig1)
    pairs = []
    chi, pair_added, special = split(part, dual, pairs, big)
    assert chi == 1 and special[1] == 10 and special[2] == 2
    assert len(part) == 6
    if not pair_added:
        mp = find_merge_pair(part)
        assert mp is not None
        pairs.append(mp)
    merge_components(part, pairs)
    assert part.label_sets() == (("b1", "r1"), ("b2",), ("r2",),
                                 ("w1", "w2"), ("w3",))


def test_special_split_reads_colors_from_the_installed_coloring(fig1):
    """The color classes are walked from the counts that installing the
    coloring tinted, so when those disagree with the block's counts at
    its colored meet, here a red leaf zeroed after the pass,
    special_split refuses before any cut or decrement."""
    part = build_state(fig1, [["b1", "r1"],
                              ["b2", "w1", "r2", "w2", "w3"]])
    coloring = make_coloring(part, 6)
    part.refresh_annotations(coloring)
    part.live_r[fig1.leaf_node2[fig1.index_of["r2"]]] = 0
    big = next(c.id for c in part.comps.values() if c.size == 5)
    before = part.label_sets()
    dual = DualState(fig1)
    with pytest.raises(InvariantError,
                       match="color classes disagree with the block's color counts"):
        special_split(part, dual, big, [])
    assert part.label_sets() == before
    assert dual.as_dict() == {}


def test_merge_components_empty_list_is_noop(fig1):
    part = Partition(fig1)
    before = part.label_sets()
    merge_components(part, [])
    assert part.label_sets() == before


# ----------------------------------------------------------------------
# invariants over a seeded corpus


def test_records_satisfy_ledger_identities():
    for name, pair in corpus(8, 40, base_seed=900):
        res = run(pair)
        for rec in res.iterations:
            assert 2 * rec.delta_dual >= rec.delta_primal, name
            if rec.case == 1:
                assert rec.p3 - rec.p2 == (rec.p2 - rec.p0) + 1 + 2 * rec.chi + rec.t, name
            else:
                assert rec.p1 == rec.p0, name
                assert rec.chi == 0, name
                assert rec.p3 - rec.p2 == (rec.p2 - rec.p0) + 2, name


def test_case_matches_condition_everywhere():
    mapping = {"a": 1, "b": 2, "c": 3}
    seen = set()
    for name, pair in corpus(9, 60, base_seed=50):
        for rec in run(pair).iterations:
            assert rec.case == mapping[rec.condition], name
            seen.add(rec.case)
    assert seen == {1, 2, 3}


def _cut_white_leaf(partition):
    """Cut off one white leaf of a block of two or more leaves."""
    colored = set(partition.coloring.red + partition.coloring.blue)
    i = next(i for c in partition.comps.values() if c.size > 1
             for i in c.leaves if i not in colored)
    partition.split_below(partition.pair.leaf_node2[i])


def _then(fault):
    """The stage as it is, then ``fault(args, out)`` on its arguments
    and result; the stage reports what the fault returns."""
    def patch(stage):
        return lambda *args: fault(args, stage(*args))
    return patch


def _report_root(args, nodes):
    return nodes or [args[0].pair.t2.root]


def _cut_if_none(args, nodes):
    if not nodes:
        _cut_white_leaf(args[0])
    return nodes


def _one_more_chi(args, out):
    return (out[0] + 1,) + out[1:]


def _one_more_star(args, out):
    dual = args[1]
    dual.star(1, dual.pair.t1.root)
    return out


def _one_more_cut(args, out):
    _cut_white_leaf(args[0])
    return out


def _merge_into_one(args, out):
    firsts = [min(c.leaves) for c in args[0].comps.values()]
    args[0].merge([(firsts[0], x) for x in firsts[1:]])


def _constant(value):
    return lambda stage: lambda *args: value


# (stage, fault, instance, message): fig1 solves in one case-1
# iteration that remembers a pair found by find_merge_pair, fig9 starts
# with a case-3 iteration.
RUN_FAULTS = [
    ("classify_case", _then(lambda args, case: 4 - case), "fig1",
     "partition shape disagrees with the detected condition"),
    ("make_rb_compatible", _constant([]), "fig1",
     "color-compatible block must sit below the meeting node"),
    ("make_rb_compatible", _then(_report_root), "fig9",
     "color-incompatible block needs a white leaf outside the meeting node"),
    ("make_rb_compatible", _then(_cut_if_none), "fig9",
     "cases 2 and 3 must not cut before splittability"),
    ("_top_components", _constant([]), "fig1",
     "case 1 expects a unique top block"),
    ("split", _then(_one_more_chi), "fig1",
     "block count identity failed in case 1"),
    ("split", _then(_one_more_star), "fig1",
     "certificate identity failed in case 1"),
    ("find_merge_pair", _constant(None), "fig1",
     "case 1 with no stray three-color blocks must remember a pair"),
    ("split", _then(_one_more_chi), "fig9", "special split outside case 1"),
    ("split", _then(_one_more_cut), "fig9",
     "block count identity failed in case 2/3"),
    ("split", _then(_one_more_star), "fig9",
     "certificate identity failed in case 2/3"),
    ("merge_components", _constant(None), "fig1",
     "merge phase lost or gained blocks"),
    ("merge_components", _then(_merge_into_one), "fig1",
     "final partition is not an agreement forest"),
    ("merge_components", lambda stage: lambda part, pairs: pairs.clear(),
     "fig1", "final certificate cannot pay for the forest"),
]


@pytest.mark.parametrize("stage, fault, fig, message", RUN_FAULTS,
                         ids=[message for *_, message in RUN_FAULTS])
def test_run_catches_a_faulty_stage(request, stage, fault, fig, message):
    """Each check in ``run`` that a faulty stage can reach fires, with
    its exact message, when that one stage is replaced.  No stage can
    reach the check that an iteration's cuts are paid for: twice the
    certificate gain less the cuts is t - 1, plus one for a remembered
    pair, in case 1 and the pair flag in cases 2 and 3, once the
    identities before it hold.  fig1 ends with twice D equal to its
    value, so a merge phase that forgets the pair leaves a forest D
    cannot pay for."""
    pair = request.getfixturevalue(fig)
    run(pair)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(redblue_core, stage, fault(getattr(redblue_core, stage)))
        with pytest.raises(InvariantError) as err:
            run(pair)
    assert str(err.value) == message


def _colored_state(pair, node1, parts_labels=None):
    """One block, or ``build_state``'s, with the coloring of first-tree
    node ``node1`` installed."""
    part = build_state(pair, parts_labels) if parts_labels else Partition(pair)
    part.refresh_annotations(make_coloring(part, node1))
    return part


# fig1's first-tree node 6 colors b1, b2 blue and r1, r2 red; its
# second-tree node 2 is (b1,r1) and node 6 is ((b1,r1),(b2,w1)).
_FIG1_TWO = [["b1", "r1"], ["b2", "r2", "w1", "w2", "w3"]]


def _special_split(part, leaf):
    cid = part.component_of_leaf(part.pair.index_of[leaf]).id
    special_split(part, DualState(part.pair), cid, [])


def _special_split_at_a_foreign_meet(pair):
    part = _colored_state(pair, 6, _FIG1_TWO)
    part.meets[part.component_of_leaf(pair.index_of["w3"]).id] = 2
    _special_split(part, "w3")  # 2 is {b1, r1}'s meet


def _special_split_with_a_red_leaf_zeroed(pair):
    part = _colored_state(pair, 6, _FIG1_TWO)
    part.live_r[pair.leaf_node2[pair.index_of["r2"]]] = 0
    _special_split(part, "w3")


def _one_block_under_two_ids(pair):
    part = Partition(pair)
    lower, upper = part.split_below(2)
    part.comps[upper] = part.comps[lower]
    redblue_core._top_components(part)


def _split_start_blocks_to_singletons(pair):
    # b1 (from the first block) and b2 (from the second) both reach
    # node 6, which no block covers
    part = _colored_state(pair, 6, [["b1", "r1", "w3"], ["b2", "w1"],
                                    ["r2", "w2"]])
    for c in list(part.comps.values()):
        part.split_component(c.id, [[x] for x in c.leaves])
    find_merge_pair(part)


# (instance, fault, message): each call on a state of the instance that
# must raise in ``redblue_core``, and the message it raises with.  Only
# a moved colored meet reaches the check that it is covered by its
# block, only a color count changed after the color pass the check on
# the walked color classes, and only two ids for one block the check
# on created blocks' meeting nodes.
CORE_FAULTS = [
    ("fig1", lambda pair: make_coloring(Partition(pair), 0),
     "coloring node must be internal"),
    ("fig1", _special_split_at_a_foreign_meet,
     "colored meeting node is not covered by its block"),
    ("fig1", lambda pair: classify_case(_colored_state(pair, 6, _FIG1_TWO)),
     "two multicolored blocks must be red"),
    ("fig1", lambda pair: classify_case(
        _colored_state(pair, 6, [[x] for x in pair.labels])),
     "expected one or two multicolored blocks"),
    ("fig1", lambda pair: classify_case(_colored_state(pair, pair.t1.root)),
     "a lone multicolored block must carry all three colors"),
    ("fig1", _one_block_under_two_ids, "two created blocks share a meeting node"),
    # fig9's first-tree node 4 colors 1, 2 blue and 3 red, and the three
    # meet at the second tree's root
    ("fig9", lambda pair: _special_split(_colored_state(pair, 4), "1"),
     "four-way special split needs four blocks"),
    ("fig1", _split_start_blocks_to_singletons,
     "undo pair spans two start-of-iteration blocks"),
    ("fig1", lambda pair: _special_split(_colored_state(pair, 6, _FIG1_TWO),
                                         "b1"),
     "special split needs a tricolored block"),
    ("fig1", _special_split_with_a_red_leaf_zeroed,
     "color classes disagree with the block's color counts"),
    ("fig1", lambda pair: split(_colored_state(pair, 6, _FIG1_TWO),
                                DualState(pair), [], None),
     "special split outside the top block"),
]


# Checks no state reaches, each with the reason.
UNREACHED = {
    "iteration gained more cuts than the certificate can pay for":
        "the identities before it imply it; see "
        "test_run_catches_a_faulty_stage",
}


@pytest.mark.parametrize("fig, fault, message", CORE_FAULTS,
                         ids=[message for *_, message in CORE_FAULTS])
def test_core_checks_fire_with_their_message(request, fig, fault, message):
    """Each check in ``redblue_core`` outside ``run`` fires, with its
    own message, when a public op meets the state it guards against."""
    with pytest.raises(InvariantError, match=message):
        fault(request.getfixturevalue(fig))


def test_every_invariant_check_is_fired_or_unreached():
    """Every ``raise InvariantError("...")`` in ``redblue_core`` and
    ``forest_partition`` matches a row of a fault table, or is in
    ``UNREACHED``, whose entries must all still be raise sites."""
    patterns = [m for *_, m in RUN_FAULTS + CORE_FAULTS + PARTITION_FAULTS]
    src = Path(redblue_core.__file__).parent
    messages = [
        node.exc.args[0].value
        for name in ("redblue_core.py", "forest_partition.py")
        for node in ast.walk(ast.parse((src / name).read_text()))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "InvariantError"]
    assert [m for m in messages if m not in UNREACHED
            and not any(re.search(p, m) for p in patterns)] == []
    assert set(UNREACHED) <= set(messages)


def test_k_feasible_after_every_iteration():
    for name, pair in corpus(8, 25, base_seed=321):
        t1 = pair.t1

        def check(partition, dual, record):
            colored = [pair.leaf_index1[v]
                       for v in t1.leaves_below(record.pcs_node)]
            assert is_K_feasible(pair, partition, colored), name

        run(pair, on_iteration=check)


def same_block(partition, x, y):
    return partition.component_of_leaf(x) is partition.component_of_leaf(y)


def test_colored_leaves_stay_together():
    """Once two colored leaves share a block at an iteration end, they
    share a block in every later snapshot and in the final forest."""
    for name, pair in corpus(12, 20, base_seed=77):
        t1 = pair.t1
        stuck = []

        def check(partition, dual, record):
            colored = [pair.leaf_index1[v]
                       for v in t1.leaves_below(record.pcs_node)]
            for i, x in enumerate(colored):
                for y in colored[i + 1:]:
                    if same_block(partition, x, y):
                        stuck.append((x, y))
            for x, y in stuck:
                assert same_block(partition, x, y), name

        res = run(pair, on_iteration=check)
        for x, y in stuck:
            assert same_block(res.partition, x, y), name


def test_final_forests_feasible_small_corpus():
    for name, pair in corpus(7, 30, base_seed=1234):
        res = run(pair)
        assert is_feasible_maf(pair, res.partition), name
        blocks = [list(c.leaves) for c in res.partition.comps.values()]
        assert naive.naive_feasible(pair, blocks), name
        assert res.value <= 2 * res.dual_objective, name


def _golden_instances():
    """The acceptance corpus, then uniform and k-rSPR pairs near n = 150,
    each also with the shared root leaf."""
    for n in range(3, 13):
        yield from corpus(n, 30, base_seed=7000 + 97 * n)
    for seed in range(3):
        for mode, k in (("uniform", None), ("k_rspr", 15)):
            pair = random_pair(150 + seed, seed, mode=mode, k=k)
            name = "%s-n%d-s%d" % (mode, pair.n, seed)
            yield name, pair
            yield name + "-rho", make_pair(pair.t1, pair.t2, add_rho=True)


def test_solver_golden():
    """Traces with snapshots, iteration records, certificates and undo
    pairs, byte for byte, as first recorded."""
    digest = hashlib.sha256()
    for name, pair in _golden_instances():
        res = run(pair, record_snapshots=True)
        digest.update(name.encode() + b"\n")
        digest.update(json.dumps(res.trace, sort_keys=True).encode() + b"\n")
        for rec in res.iterations:
            digest.update(repr(dataclasses.astuple(rec)).encode() + b"\n")
        digest.update(repr(sorted(res.dual.as_dict().items())).encode() + b"\n")
        digest.update(repr(res.pairslist).encode() + b"\n")
    assert digest.hexdigest() == (
        "24708d54418c8e9a25d0f1dfaf0d0add1819ab1791946823a78dfbc7995e6e7e")


# ----------------------------------------------------------------------
# the incremental stages against the full-sweep oracles


def check_blocks_and_colors(partition):
    """Each leaf's block, from ``leaf_root``, from the blocks' leaf lists
    and from the cut forest, and every color count, against the full
    recounts in ``naive``: node counts are kept only at or below the
    colored meets, and block counts only on the blocks in ``meets``,
    which must be exactly the colored blocks, each with its meet;
    ``mixed()`` must map every block of two or three colors to its red,
    blue and white counts.
    ``tinted`` is ascending and holds every node with a count; nodes a
    split emptied may stay in it."""
    treecomp = naive.full_structure(partition)[1]
    n = partition.pair.n
    leaf_node2 = partition.pair.leaf_node2
    blocks_of = [partition.component_of_leaf(i).id for i in range(n)]
    assert blocks_of == naive.leaf_blocks(partition)
    assert blocks_of == [treecomp[leaf_node2[i]] for i in range(n)]
    live_r, live_b, tinted, meets = naive.tinted_color_counts(partition)
    assert partition.live_r == live_r and partition.live_b == live_b
    assert partition.tinted == sorted(partition.tinted)
    assert len(set(partition.tinted)) == len(partition.tinted)
    assert set(tinted) <= set(partition.tinted)
    assert partition.meets == meets
    blocks = naive.full_color_counts(partition)[3]
    mixed = partition.mixed()
    pair = partition.pair
    for cid in meets.keys() - mixed.keys():
        c = partition.comps[cid]
        assert meets[cid] == pair.lca_of_leaves(2, c.leaves)
    assert {cid: partition.color_counts(partition.comps[cid])
            for cid in meets} == {cid: tuple(blocks[cid][:2])
                                  for cid in meets}
    assert mixed == {cid: tuple(counts) for cid, counts in blocks.items()
                     if sum(1 for x in counts if x) >= 2}


def check_rebuilt(partition):
    """The forest a merge re-cut in place against the rebuild oracle."""
    cut, root_comp, leaf_root, root2 = naive.rebuilt_forest(partition)
    assert partition.cut == cut
    assert partition.root_comp == root_comp
    assert partition.leaf_root == leaf_root
    assert {cid: c.root2 for cid, c in partition.comps.items()} == root2


@contextmanager
def full_sweep_checks():
    """Run the solver with every incremental stage checked, call by call,
    against its full-sweep oracle in ``naive``: the annotations, blocks
    and color counts after every refresh, split and merge, a merge's
    forest against the rebuild oracle, and each node a violation scan
    yields, when it yields it; a scan must end exactly when its oracle
    finds no violation.  Yields a call counter."""
    calls = Counter()

    def checked_update(name, oracle=None):
        fast = getattr(Partition, name)

        def wrapper(partition, *args, **kwargs):
            got = fast(partition, *args, **kwargs)
            if oracle is not None:
                oracle(partition)
            live, _, acomp = naive.full_structure(partition)
            assert partition.live == live, name
            assert naive.cover_blocks(partition) == acomp, name
            check_blocks_and_colors(partition)
            calls[name] += 1
            return got
        return wrapper

    def checked(name, oracle):
        fast = getattr(redblue_core, name)

        def wrapper(partition, *args):
            got = fast(partition, *args)
            want = oracle(partition)
            if args:
                want = want[args[0].id]
            assert got == want, name
            calls[name] += 1
            return got
        return wrapper

    def checked_scan(name, oracle):
        fast = getattr(redblue_core, name)

        def wrapper(partition):
            for v in fast(partition):
                assert v == oracle(partition), name
                calls[name] += 1
                yield v
            assert oracle(partition) is None, name
            calls[name] += 1
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("refresh_annotations", "split_below", "split_component"):
            mp.setattr(Partition, name, checked_update(name))
        mp.setattr(Partition, "merge", checked_update("merge", check_rebuilt))
        for name, oracle in (
                ("find_lowest_pcs", naive.full_lowest_pcs),
                ("find_merge_pair", naive.full_find_merge_pair),
                ("_top_components", naive.full_top_components),
                ("_color_classes", naive.color_classes)):
            mp.setattr(redblue_core, name, checked(name, oracle))
        for name, oracle in (
                ("_rb_violations", naive.full_rb_violation),
                ("_splittable_violations", naive.full_splittable_violation)):
            mp.setattr(redblue_core, name, checked_scan(name, oracle))
        yield calls


def test_incremental_stages_match_full_sweeps():
    instances = [pair for n in range(3, 13) for _, pair in corpus(n, 25)]
    for seed in range(3):
        pair = random_pair(200, seed, mode="k_rspr", k=10 + 5 * seed)
        instances += [pair, make_pair(pair.t1, pair.t2, add_rho=True)]
    with full_sweep_checks() as calls:
        for pair in instances:
            run(pair)
    assert calls["find_merge_pair"] > 500
    assert calls["split_below"] > 200 and calls["split_component"] > 200
    assert min(calls.values()) > 0 and len(calls) == 10


def test_near_run_builds_no_lca_table():
    """On a near pair the sweeps' lca queries are mostly two siblings,
    answered from ``parent``; the rest climb fewer than n_nodes steps
    in total, so neither tree builds its sparse table."""
    base = random_pair(20_000, 0, mode="k_rspr", k=20)
    pair = make_pair(base.t1, base.t2, add_rho=True)
    result = run(pair)
    assert result.dual_objective <= 20 and result.value <= 2 * 20
    assert pair.t1._sparse is None and pair.t2._sparse is None


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 40), st.integers(0, 10_000), st.booleans(),
       st.booleans())
def test_incremental_stages_match_full_sweeps_fuzzed(n, seed, krspr, rho):
    if krspr:
        pair = random_pair(n, seed, mode="k_rspr", k=1 + seed % (n - 1))
    else:
        pair = random_pair(n, seed)
    with full_sweep_checks():
        run(make_pair(pair.t1, pair.t2, add_rho=rho))


def _split_family(part, block, nodes):
    """The leaves of ``block`` grouped by their deepest ancestor among
    ``nodes`` (or none); the groups' spans in the second tree are
    pairwise disjoint, so ``split_component`` can realize them."""
    t2 = part.pair.t2
    groups = {}
    for x in block.leaves:
        u = part.pair.leaf_node2[x]
        above = [w for w in nodes if t2.subtree_min[w] <= u <= w]
        key = max(above, key=t2.depth.__getitem__) if above else None
        groups.setdefault(key, []).append(x)
    return list(groups.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 30), st.integers(0, 10_000), st.booleans(),
       st.randoms(use_true_random=False))
def test_resumed_sweep_matches_full_sweep_outside_run(n, seed, rho, rnd):
    """Random split_below and split_component sequences, with the last
    split now and then undone by merge, and a sweep after each step or
    not, drawn at random; every sweep, resumed or afresh, must agree
    with the full sweep."""
    base = random_pair(n, seed)
    pair = make_pair(base.t1, base.t2, add_rho=rho)
    part = Partition(pair)
    with full_sweep_checks() as calls:
        sweep = redblue_core.find_lowest_pcs
        sweep(part)
        last = None
        for _ in range(2 * pair.n):
            covered = [v for v in range(pair.t2.n_nodes)
                       if part.covering(v) >= 0
                       and part.live[v] < part.comps[part.covering(v)].size]
            if not covered:
                break
            step = rnd.random()
            if last is not None and step < 0.15:
                part.merge([(min(last[0]), min(leaves)) for leaves in last[1:]])
                last = None
            elif step < 0.55:
                v = rnd.choice(covered)
                below, above = part.split_below(v)
                last = [part.comps[below].leaves, part.comps[above].leaves]
            else:
                comp = part.comps[part.covering(rnd.choice(covered))]
                inside = [v for v in covered if part.covering(v) == comp.id]
                nodes = rnd.sample(inside, min(len(inside), rnd.randint(1, 3)))
                family = _split_family(part, comp, nodes)
                if len(family) < 2:
                    continue
                ids = part.split_component(comp.id, family)
                last = [part.comps[cid].leaves for cid in ids]
            if rnd.random() < 0.6:
                sweep(part)
        sweep(part)
    assert calls["find_lowest_pcs"] > 0


def _splittable(part, cid):
    """Nodes ``split_below`` can cut in block ``cid``, ascending."""
    size = part.comps[cid].size
    return [v for v in range(part.pair.t2.n_nodes)
            if part.covering(v) == cid and part.live[v] < size]


def _undo(part, ids):
    """Merge the blocks ``ids`` back into one."""
    x = min(part.comps[ids[0]].leaves)
    part.merge([(x, min(part.comps[cid].leaves)) for cid in ids[1:]])


def _split_twice(part):
    # the block that keeps the root is split again before a read
    root = part.pair.t2.root
    _, above = part.split_below(_splittable(part, 0)[0])
    part.split_below(_splittable(part, above)[-1])
    assert part.split_log[root] >= 0
    assert list(part.split_log.values()).count(-1) == 2


def _split_detached_again(part):
    # the detached block is split again, keeping its own root
    below, _ = part.split_below(max(_splittable(part, 0),
                                    key=part.live.__getitem__))
    root = part.comps[below].root2
    _, kept = part.split_below(_splittable(part, below)[0])
    assert part.comps[kept].root2 == root and part.split_log[root] == -1


def _merge_after_unread_splits(part):
    ids = part.split_below(_splittable(part, 0)[0])
    _undo(part, ids)
    assert part.split_log and part.merge_log


def _splits_after_unread_merge(part):
    ids = part.split_below(_splittable(part, 0)[0])
    redblue_core.find_lowest_pcs(part)
    _undo(part, ids)
    block = max(part.comps.values(), key=lambda c: c.size)
    part.split_below(_splittable(part, block.id)[0])
    assert part.split_log and part.merge_log


def _two_unread_merges(part):
    first = [min(part.comps[cid].leaves)
             for cid in part.split_below(_splittable(part, 0)[0])]
    block = max(part.comps.values(), key=lambda c: c.size)
    second = part.split_below(_splittable(part, block.id)[-1])
    redblue_core.find_lowest_pcs(part)
    _undo(part, second)
    part.merge([first])
    assert len(part.merge_log) == 2 and not part.split_log


@pytest.mark.parametrize("steps", [
    _split_twice, _split_detached_again, _merge_after_unread_splits,
    _splits_after_unread_merge, _two_unread_merges],
    ids=lambda f: f.__name__.strip("_"))
def test_logged_changes_give_the_full_sweep(steps):
    """One sweep, then a change that leaves the logs in one shape, then
    a sweep that must agree with the full one, over pairs of 12 and 30
    leaves with and without rho: a block split twice before a read, a
    detached block split again on its own root, a merge after unread
    splits, splits after an unread merge, and two merges after one
    read."""
    pairs = [random_pair(n, seed) for n in (12, 30) for seed in range(10)]
    with full_sweep_checks() as calls:
        for base in pairs:
            for rho in (False, True):
                part = Partition(make_pair(base.t1, base.t2, add_rho=rho))
                redblue_core.find_lowest_pcs(part)
                steps(part)
                redblue_core.find_lowest_pcs(part)
                assert not part.split_log and not part.merge_log
    assert calls["find_lowest_pcs"] >= 2 * len(pairs) * 2


def test_merge_after_unread_splits_starts_the_sweep_afresh(fig1):
    """A merge that follows splits no sweep has read yet leaves both
    logs holding entries, so the next sweep is a new one that resumes
    nothing: it starts from the first node of the first tree, and
    agrees with the full sweep.  After a merge that followed a sweep,
    the saved sweep resumes."""
    part = Partition(fig1)
    resumed = []
    resume = redblue_core._resume

    def recording_resume(partition, sweep):
        resumed.append(sweep)
        return resume(partition, sweep)

    with full_sweep_checks() as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(redblue_core, "_resume", recording_resume)
        sweep = redblue_core.find_lowest_pcs
        sweep(part)
        first = part.sweep
        _undo(part, part.split_below(2))
        sweep(part)
        assert part.sweep is not first and resumed == []
        ids = part.split_below(2)
        sweep(part)
        saved = part.sweep
        assert resumed == [saved]
        _undo(part, ids)
        sweep(part)
        assert part.sweep is saved and resumed == [saved, saved]
    assert calls["find_lowest_pcs"] == 4 and calls["merge"] == 2


def test_resumed_sweep_seeds_joins_on_the_kept_blocks_meeting_path():
    """After a split, condition "c" fires at a first-tree join whose
    entries did not change but whose meeting node now holds the whole
    kept block: the full sweep stops at node 3 there, and a resumed
    sweep that skipped such joins would stop at node 8 instead."""
    pair = random_pair(5, 10273)
    assert (pair.t1.to_newick(), pair.t2.to_newick()) == (
        "(L1,((L2,L3),(L4,L5)));", "(((L1,(L2,L4)),L3),L5);")
    with full_sweep_checks() as calls:
        run(pair)
        run(make_pair(pair.t1, pair.t2, add_rho=True))
    assert calls["find_lowest_pcs"] > 2


def test_resumed_sweep_reads_one_join_list_per_shrunk_block():
    """``_resume`` looks up ``by_meet`` once for each block that kept its
    root but shrank, at that block's meeting node, and nowhere else.  A
    shrunk block is one created since the partition's last sweep whose
    root was a root then; the sweep after the merge phase follows no
    split and is left out.  Only ``_resume``'s reads count: a recording
    copy of ``by_meet`` stands in for it during each call."""
    counts = Counter()
    last = {}  # partition -> its roots and next_id at its last sweep
    merged = set()
    find, resume = redblue_core.find_lowest_pcs, redblue_core._resume
    merge = redblue_core.merge_components

    class Recording(dict):
        def get(self, key, default=None):
            counts["get"] += 1
            return dict.get(self, key, default)

        def __getitem__(self, key):
            counts["get"] += 1
            return dict.__getitem__(self, key)

    def recording_find(partition):
        comps = partition.comps
        if partition in last and partition not in merged:
            roots, next_id = last[partition]
            counts["shrunk"] += sum(
                1 for cid in range(next_id, partition.next_id)
                if cid in comps and comps[cid].root2 in roots)
        last[partition] = ({c.root2 for c in comps.values()},
                           partition.next_id)
        return find(partition)

    def recording_resume(partition, sweep):
        joins = sweep.by_meet
        sweep.by_meet = Recording(joins)
        try:
            return resume(partition, sweep)
        finally:
            sweep.by_meet = joins

    def recording_merge(partition, pairslist):
        merged.add(partition)
        return merge(partition, pairslist)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(redblue_core, "find_lowest_pcs", recording_find)
        mp.setattr(redblue_core, "_resume", recording_resume)
        mp.setattr(redblue_core, "merge_components", recording_merge)
        for n in range(3, 13):
            for _, pair in corpus(n, 25):
                run(pair)
    assert counts == Counter(get=489, shrunk=489)


def test_final_check_visits_only_the_merge_seeds_ancestors():
    """After the merge phase, the final ``find_lowest_pcs`` call on a
    k-rSPR pair with 2,000 leaves (k = 20, with rho) resumes the sweep
    the loop left, with an empty split log: it visits exactly the
    first-tree ancestors of the leaves in the merge log, 633 of the
    4,001 nodes, where a sweep from scratch visits them all."""
    base = random_pair(2000, 0, mode="k_rspr", k=20)
    pair = make_pair(base.t1, base.t2, add_rho=True)
    n1 = pair.t1.n_nodes
    parent1, leaf_node1 = pair.t1.parent, pair.leaf_node1
    calls = []
    find, resume = redblue_core.find_lowest_pcs, redblue_core._resume

    def recording_find(partition):
        calls.append({"visits": n1, "splits": dict(partition.split_log),
                      "seeds": [leaf_node1[x] for sets in partition.merge_log
                                for leaves in sets for x in leaves]})
        return find(partition)

    def recording_resume(partition, sweep):
        nodes = resume(partition, sweep)
        calls[-1].update(visits=n1 - sweep.stop + len(nodes), stop=sweep.stop)
        return nodes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(redblue_core, "find_lowest_pcs", recording_find)
        mp.setattr(redblue_core, "_resume", recording_resume)
        res = run(pair)
    final = calls[-1]
    ancestors = set()
    for v in final["seeds"]:
        while 0 <= v < final.get("stop", 0) and v not in ancestors:
            ancestors.add(v)
            v = parent1[v]
    assert res.pairslist and not final["splits"]
    assert final["visits"] <= len(ancestors) <= n1 // 5


@pytest.mark.parametrize("parts", [[[3], [0], [1, 2, 4]],
                                   [[1, 2, 4], [0], [3]]])
def test_split_with_nested_anchors_updates_the_kept_tree_once(parts):
    """Corpus pair u-n5-s2: {L4} is detached from inside the detached
    block {L2, L3, L5}, so the tree that keeps the root loses the outer
    block's whole count, the nested block's included, exactly once,
    whichever anchor comes first."""
    pair = pair_from_newick("(((L1,L4),L3),(L2,L5));",
                            "(L1,(((L2,L5),L4),L3));")
    part = Partition(pair)
    with full_sweep_checks() as calls:
        redblue_core.find_lowest_pcs(part)
        ids = part.split_component(0, parts)
        root = pair.t2.root
        assert part.comps[ids[1]].root2 == root
        assert part.live[root] == 1 and part.covering(root) == -1
        redblue_core.find_lowest_pcs(part)
    assert calls == Counter(find_lowest_pcs=2, split_component=1)


def test_colors_are_current_after_each_split_without_a_refresh():
    """split_below detaches {x, p, q, r, w, s} and split_component splits
    it at once into {p, r}, the nested {q} and the rest {x, w, s}, with
    no refresh in between.  The color counts are current after each
    split: {q}'s blue leaf comes off the nodes up to the anchor of
    {p, r}, which then comes off the nodes up to the block's root, and
    the node above that anchor, left with the white w alone, reads 0."""
    pair = pair_from_newick("((z,(x,w)),(((p,r),q),s));",
                            "(z,(x,((((p,q),r),w),s)));")
    lab = pair.index_of
    t2, leaf2 = pair.t2, pair.leaf_node2
    part = Partition(pair)
    with full_sweep_checks() as calls:
        coloring = make_coloring(part, pair.t1.parent[pair.leaf_node1[lab["s"]]])
        assert sorted(coloring.blue) == sorted(lab[x] for x in "pqr")
        part.refresh_annotations(coloring)
        x_node = t2.parent[leaf2[lab["x"]]]
        block, _ = part.split_below(x_node)
        assert t2.root not in part.tinted
        pq = t2.parent[leaf2[lab["p"]]]
        pqr, pqrw = t2.parent[pq], t2.parent[t2.parent[pq]]
        assert part.live_b[pq] == 2 and pqrw in part.tinted
        ids = part.split_component(
            block, [[lab["p"], lab["r"]], [lab["q"]]], rest=True)
        assert [part.comps[cid].root2 for cid in ids] == [
            pqr, leaf2[lab["q"]], x_node]
        assert part.live_b[pq] == 1 and part.live_b[pqr] == 2
        assert part.live_r[pqrw] == part.live_b[pqrw] == 0
        assert part.mixed() == {ids[2]: (1, 0, 2)}
        assert calls == Counter(refresh_annotations=1, split_below=1,
                                split_component=1)


class _WriteLog(list):
    """A list that records the index of every item assignment."""

    def __setitem__(self, i, value):
        self.writes.append(i)
        super().__setitem__(i, value)


def _tree_block(partition, v):
    """The block whose forest tree holds node ``v`` of the second tree."""
    parent, cut = partition.pair.t2.parent, partition.cut
    while not cut[v] and parent[v] >= 0:
        v = parent[v]
    return partition.comps[partition.root_comp[v]]


def test_splits_write_only_the_detached_leaves():
    """Every split while solving k-rSPR pairs at n = 2000 leaves the
    block that keeps the root with the split block's own leaf list
    object, and writes ``leaf_root`` once for each detached leaf and for
    no other leaf; a split that relabels or rebuilds the whole block
    fails here, without timing anything."""
    init = Partition.__init__
    calls = Counter()

    def logged_init(self, pair):
        init(self, pair)
        self.leaf_root = _WriteLog(self.leaf_root)
        self.leaf_root.writes = []

    def guarded(name, block_of):
        fast = getattr(Partition, name)

        def wrapper(partition, arg, *args, **kwargs):
            comp = block_of(partition, arg)
            root, leaves = comp.root2, comp.leaves
            partition.leaf_root.writes.clear()
            ids = fast(partition, arg, *args, **kwargs)
            new = [partition.comps[cid] for cid in ids]
            kept = [c for c in new if c.root2 == root]
            assert len(kept) == 1 and kept[0].leaves is leaves, name
            detached = sorted(x for c in new if c is not kept[0]
                              for x in c.leaves)
            assert sorted(partition.leaf_root.writes) == detached, name
            calls[name] += 1
            calls["kept"] += kept[0].size
            calls["detached"] += len(detached)
            return ids
        return wrapper

    base = random_pair(2000, 3, mode="k_rspr", k=20)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Partition, "__init__", logged_init)
        mp.setattr(Partition, "split_below", guarded("split_below", _tree_block))
        mp.setattr(Partition, "split_component", guarded(
            "split_component", lambda part, cid: part.comps[cid]))
        for rho in (False, True):
            run(make_pair(base.t1, base.t2, add_rho=rho))
    assert calls["split_below"] > 20 and calls["split_component"] > 20
    assert calls["detached"] * 10 < calls["kept"]


def caterpillar_pair(n, swaps):
    """Two caterpillars ``((...((L000000,L000001),L000002)...)`` over n
    leaves, the second with ``swaps`` label swaps, each two
    ``randrange(n)`` draws from ``random.Random(0)``, with ``rho``."""
    labels = ["L%06d" % i for i in range(n)]
    other = labels[:]
    rng = random.Random(0)
    for _ in range(swaps):
        i, j = rng.randrange(n), rng.randrange(n)
        other[i], other[j] = other[j], other[i]

    def spine(order):
        return ("(" * (n - 1) + order[0]
                + "".join("," + x + ")" for x in order[1:]) + ";")
    return make_pair(parse_newick(spine(labels)), parse_newick(spine(other)),
                     add_rho=True)


def test_splits_never_edit_tinted():
    """Only the color pass writes ``tinted``: after every split it is
    the list object the last pass left, with the same nodes, since a
    split only lowers counts.  The splits of the 20k caterpillar pair
    empty 113,527 tinted nodes, each one deletion from the sorted list
    if they kept ``tinted`` exact; its value, D and iterations are
    pinned, and no time is measured."""
    colors = Partition._refresh_colors
    last = {}
    calls = Counter()

    def snapshot(partition):
        colors(partition)
        last["list"], last["nodes"] = partition.tinted, list(partition.tinted)

    def guarded(name):
        fast = getattr(Partition, name)

        def wrapper(partition, *args, **kwargs):
            ids = fast(partition, *args, **kwargs)
            assert partition.tinted is last["list"], name
            assert partition.tinted == last["nodes"], name
            calls[name] += 1
            return ids
        return wrapper

    instances = [pair for n in range(4, 13) for _, pair in corpus(n, 10)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Partition, "_refresh_colors", snapshot)
        for name in ("split_below", "split_component"):
            mp.setattr(Partition, name, guarded(name))
        for pair in instances:
            run(pair)
        res = run(caterpillar_pair(20_000, 20))
    assert (res.value, res.dual_objective, len(res.iterations)) == (60, 40, 20)
    assert calls["split_below"] > 50 and calls["split_component"] > 50


def test_each_cut_stage_starts_one_scan():
    """Every call of make_rb_compatible and make_splittable starts
    exactly one violation scan and cuts at the nodes it yields.  While
    solving the uniform pairs at n = 1000 and 1200 (generator seeds 0
    and 1) that is 970 scans per stage; starting a scan again after
    every cut gives 1,084 for make_splittable alone.  Iterations and
    cuts do not change, and no time is measured."""
    scans, stages = Counter(), Counter()

    def counted(name):
        scan = getattr(redblue_core, name)

        def wrapper(partition):
            scans[name] += 1
            return scan(partition)
        return wrapper

    def one_scan(name):
        stage = getattr(redblue_core, name)

        def wrapper(partition, dual):
            before = scans.total()
            nodes = stage(partition, dual)
            assert scans.total() == before + 1, name
            stages[name] += 1
            return nodes
        return wrapper

    iterations = cuts = 0
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_rb_violations", "_splittable_violations"):
            mp.setattr(redblue_core, name, counted(name))
        for name in ("make_rb_compatible", "make_splittable"):
            mp.setattr(redblue_core, name, one_scan(name))
        for n, seed in ((1000, 0), (1200, 1)):
            res = run(random_pair(n, seed))
            iterations += len(res.iterations)
            cuts += sum(rec.n_stars for rec in res.iterations)
    assert (iterations, cuts) == (970, 1096)
    assert stages == Counter(make_rb_compatible=970, make_splittable=970)
    assert scans["_splittable_violations"] == 970
    assert scans["_rb_violations"] == 970


def test_no_color_state_after_run():
    """The merge phase clears the coloring through canonicalize_cuts:
    after ``run`` no block has a colored meet, none is mixed, nothing is
    tinted and every red and blue count reads 0."""
    instances = [pair for _, pair in corpus(9, 20)]
    for seed in range(2):
        pair = random_pair(300, seed, mode="k_rspr", k=20)
        instances += [random_pair(300, seed), pair,
                      make_pair(pair.t1, pair.t2, add_rho=True)]
    for pair in instances:
        res = run(pair)
        partition = res.partition
        assert res.iterations and partition.coloring is None
        assert partition.meets == {} and partition.mixed() == {}
        assert partition.tinted == []
        assert not any(partition.live_r) and not any(partition.live_b)


def test_color_pass_runs_once_per_iteration():
    """While solving, the color pass runs only when a coloring is
    installed: once per iteration, and once more when canonicalize_cuts
    clears the coloring."""
    instances = [pair for _, pair in corpus(9, 20)]
    for seed in range(2):
        pair = random_pair(300, seed, mode="k_rspr", k=20)
        instances += [random_pair(300, seed), pair,
                      make_pair(pair.t1, pair.t2, add_rho=True)]
    colors = Partition._refresh_colors
    calls = Counter()

    def counted(partition):
        calls["colors"] += 1
        colors(partition)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Partition, "_refresh_colors", counted)
        for pair in instances:
            calls.clear()
            res = run(pair)
            assert calls["colors"] == len(res.iterations) + 1


def test_color_pass_tints_only_below_colored_meets():
    """Summed over every color pass while solving the uniform pairs at
    n = 1000 and 1200 (generator seeds 0 and 1), the tinted nodes number
    6,003 when only blocks of two or more leaves are tinted, each up to
    its colored meet; tinting every colored leaf's ancestors up to its
    forest root gives 63,505.  The bound leaves 25% headroom on the
    first count and measures no time.  Iterations and cuts do not
    change."""
    colors = Partition._refresh_colors
    tinted = []

    def counted(partition):
        colors(partition)
        tinted.append(len(partition.tinted))

    iterations = cuts = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Partition, "_refresh_colors", counted)
        for n, seed in ((1000, 0), (1200, 1)):
            res = run(random_pair(n, seed))
            iterations += len(res.iterations)
            cuts += sum(rec.n_stars for rec in res.iterations)
    assert (iterations, cuts) == (970, 1096)
    assert sum(tinted) <= 6003 * 5 // 4


def test_color_pass_paints_only_blocks_of_two_or_more_leaves():
    """Summed over every color pass while solving the uniform pairs at
    n = 1000 and 1200 (generator seeds 0 and 1), the blocks the pass
    puts in ``meets`` number 1,937 when blocks of one leaf are skipped;
    taking every block that holds a colored leaf gives 29,377.  The
    bound leaves 25% headroom on the first count and measures no time.
    Iterations and cuts do not change."""
    colors = Partition._refresh_colors
    colored = []

    def counted(partition):
        colors(partition)
        colored.append(len(partition.meets))

    iterations = cuts = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Partition, "_refresh_colors", counted)
        for n, seed in ((1000, 0), (1200, 1)):
            res = run(random_pair(n, seed))
            iterations += len(res.iterations)
            cuts += sum(rec.n_stars for rec in res.iterations)
    assert (iterations, cuts) == (970, 1096)
    assert sum(colored) <= 1937 * 5 // 4


def test_split_path_anchors_blocks_without_lca_queries():
    """Counted over solving the uniform pairs at n = 1000 and 1200
    (generator seeds 0 and 1), the trees answer 2,374 lca queries when
    a split anchors a part of one leaf at its leaf and the merge pair
    search reads each block's colored meet; one query per part and per
    scope block gives 6,504.  The bound leaves 25% headroom on the first
    count and measures no time.  Iterations and cuts do not change."""
    pairs = [random_pair(1000, 0), random_pair(1200, 1)]
    lca = RootedBinaryTree.lca
    queries = []

    def counted(tree, u, v):
        queries.append(1)
        return lca(tree, u, v)

    iterations = cuts = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RootedBinaryTree, "lca", counted)
        for pair in pairs:
            res = run(pair)
            iterations += len(res.iterations)
            cuts += sum(rec.n_stars for rec in res.iterations)
    assert (iterations, cuts) == (970, 1096)
    assert len(queries) <= 2374 * 5 // 4


def test_singletons_read_their_color_only_when_a_split_creates_them(fig1):
    """A block of one colored leaf that is there when the coloring goes
    in has no colored meet and reads white; one that a later split
    creates reads its color, with its leaf as its colored meet."""
    part = build_state(fig1, [["r1"], ["b1", "b2", "w1", "r2", "w2"], ["w3"]])
    lab = fig1.index_of
    part.refresh_annotations(make_coloring(part, 6))
    old = part.component_of_leaf(lab["r1"])
    assert old.id not in part.meets
    assert part.color_counts(old) == (0, 0)
    leaf = fig1.leaf_node2[lab["b2"]]
    new = part.comps[part.split_below(leaf)[0]]
    assert part.meets[new.id] == leaf
    assert part.color_counts(new) == (0, 1)
    check_blocks_and_colors(part)


def test_structure_refresh_after_three_cuts_on_one_lineage():
    """Two split_component calls on one lineage and a split_below each
    keep the annotations current; the cut of a right child then leaves
    its parent uncovered."""
    tree = "(((a,b),(c,d)),((e,f),(g,h)));"
    pair = pair_from_newick(tree, tree)
    lab = pair.index_of
    part = Partition(pair)
    with full_sweep_checks() as calls:
        first = part.split_component(0, [[lab[x] for x in "abcd"],
                                         [lab[x] for x in "efgh"]])
        part.split_component(first[1], [[lab["e"], lab["f"]],
                                        [lab["g"], lab["h"]]])
        part.split_below(pair.leaf_node2[lab["f"]])
    assert calls == Counter(split_component=2, split_below=1)
    fork = pair.t2.parent[pair.leaf_node2[lab["f"]]]
    assert part.covering(fork) == -1 and part.live[fork] == 1
    assert part.label_sets() == (("a", "b", "c", "d"), ("e",), ("f",),
                                 ("g", "h"))


def test_merge_pair_fork_below_a_scope_meeting_node_is_skipped():
    """A red and a blue singleton meet at a dead node that hangs, through
    a white block, below the red block {x1, x2}: the search from the root
    stops at that block, so no pair is found.  The coloring goes in
    before the split, as in ``run``, so the three blocks are in the
    search's scope."""
    tree = "((x1,((w1,(y,z)),w2)),x2);"
    pair = pair_from_newick(tree, tree)
    lab = pair.index_of
    part = Partition(pair)
    part.begin_iteration()
    red = sorted(lab[x] for x in ("x1", "x2", "y"))
    part.refresh_annotations(Coloring(pair.t1.root, red, [lab["z"]]))
    ids = part.split_component(0, [[lab[x] for x in block] for block in
                                   (["x1", "x2"], ["w1", "w2"], ["y"], ["z"])])
    assert [part.color_counts(part.comps[cid]) for cid in ids] == [
        (2, 0), (0, 0), (1, 0), (0, 1)]
    dead = pair.t2.parent[pair.leaf_node2[lab["y"]]]
    assert part.covering(dead) == -1
    assert find_merge_pair(part) is None
    assert naive.full_find_merge_pair(part) is None
