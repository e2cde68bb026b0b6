"""Solver loop: worked-instance goldens, op contracts, invariants."""

import dataclasses
import hashlib
import json
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from rbmaf import redblue_core
from rbmaf import (
    Coloring,
    DualState,
    InvariantError,
    Partition,
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
    random_pair,
    run,
    special_split,
    split,
)

import naive


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
    chi, pair_added, special = split(part, dual, coloring, pairs)
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
    split(part, dual, coloring, pairs)
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
    chi, pair_added, node, branch = special_split(
        part, dual, coloring, big, pairs)
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
    dual = DualState(fig1)
    pairs = []
    chi, pair_added, special = split(part, dual, coloring, pairs)
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
    """A red leaf outside the meeting node of the colored leaves stops
    the four-way split before any cut: the check reads the same red and
    blue lists as the split's color classes."""
    part = build_state(fig1, [["b1", "r1"],
                              ["b2", "w1", "r2", "w2", "w3"]])
    coloring = make_coloring(part, 6)
    part.refresh_annotations(coloring)
    part.coloring.red.append(fig1.index_of["w3"])
    big = next(c.id for c in part.comps.values() if c.size == 5)
    before = part.label_sets()
    with pytest.raises(InvariantError,
                       match="leaves outside the meeting node must be white"):
        special_split(part, DualState(fig1), coloring, big, [])
    assert part.label_sets() == before


def test_special_split_rejects_non_tricolored(fig1):
    part = build_state(fig1, [["b1", "r1"],
                              ["b2", "w1", "r2", "w2", "w3"]])
    coloring = make_coloring(part, 6)
    part.refresh_annotations(coloring)
    small = next(c.id for c in part.comps.values() if c.size == 2)
    with pytest.raises(InvariantError):
        special_split(part, DualState(fig1), coloring, small, [])


def test_split_top_guard(fig1):
    part = build_state(fig1, [["b1", "r1"],
                              ["b2", "w1", "r2", "w2", "w3"]])
    coloring = make_coloring(part, 6)
    part.refresh_annotations(coloring)
    with pytest.raises(InvariantError):
        split(part, DualState(fig1), coloring, [], top_cid=None)


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
    recounts in ``naive``."""
    treecomp = naive.full_structure(partition)[1]
    n = partition.pair.n
    leaf_node2 = partition.pair.leaf_node2
    blocks_of = [partition.component_of_leaf(i).id for i in range(n)]
    assert blocks_of == naive.leaf_blocks(partition)
    assert blocks_of == [treecomp[leaf_node2[i]] for i in range(n)]
    live_r, live_b, _, blocks = naive.full_color_counts(partition)
    assert partition.live_r == live_r and partition.live_b == live_b
    assert partition.tinted == [v for v in range(len(live_r))
                                if live_r[v] or live_b[v]]
    assert partition.painted == {cid for cid, b in blocks.items()
                                 if b[0] or b[1]}
    assert {cid: [c.n_red, c.n_blue, c.n_white]
            for cid, c in partition.comps.items()} == blocks
    assert partition.mixed == {cid: sum(1 for x in b if x)
                               for cid, b in blocks.items()
                               if sum(1 for x in b if x) >= 2}


@contextmanager
def full_sweep_checks():
    """Run the solver with every incremental stage checked, call by call,
    against its full-sweep oracle in ``naive``: the annotations, blocks
    and color counts after every refresh and after every split.  Yields
    a call counter."""
    calls = Counter()

    def checked_update(name):
        fast = getattr(Partition, name)

        def wrapper(partition, *args, **kwargs):
            got = fast(partition, *args, **kwargs)
            live, _, acomp = naive.full_structure(partition)
            assert partition.live == live, name
            assert naive.cover_blocks(partition) == acomp, name
            check_blocks_and_colors(partition)
            calls[name] += 1
            return got
        return wrapper

    def checked(name, oracle):
        fast = getattr(redblue_core, name)

        def wrapper(partition):
            got = fast(partition)
            assert got == oracle(partition), name
            calls[name] += 1
            return got
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("refresh_annotations", "split_below", "split_component"):
            mp.setattr(Partition, name, checked_update(name))
        for name, oracle in (
                ("find_lowest_pcs", naive.full_lowest_pcs),
                ("find_merge_pair", naive.full_find_merge_pair),
                ("_top_components", naive.full_top_components),
                ("_rb_violation", naive.full_rb_violation),
                ("_splittable_violation", naive.full_splittable_violation)):
            mp.setattr(redblue_core, name, checked(name, oracle))
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
    assert min(calls.values()) > 0 and len(calls) == 8


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
    split now and then undone by merge; the resumed sweep must agree
    with the full sweep after every step."""
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
                part.merge([(last[0][0], leaves[0]) for leaves in last[1:]])
                assert part.sweep is None
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
            sweep(part)
    assert calls["find_lowest_pcs"] > 0


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
    the node above that anchor, left with the white w alone, leaves the
    tinted nodes."""
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
        assert pqrw not in part.tinted
        assert part.mixed == {ids[2]: 2}
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
    stops at that block, so no pair is found."""
    tree = "((x1,((w1,(y,z)),w2)),x2);"
    pair = pair_from_newick(tree, tree)
    lab = pair.index_of
    part = Partition(pair)
    part.begin_iteration()
    part.split_component(0, [[lab[x] for x in block] for block in
                             (["x1", "x2"], ["w1", "w2"], ["y"], ["z"])])
    red = sorted(lab[x] for x in ("x1", "x2", "y"))
    part.refresh_annotations(Coloring(pair.t1.root, red, [lab["z"]]))
    dead = pair.t2.parent[pair.leaf_node2[lab["y"]]]
    assert part.covering(dead) == -1
    assert find_merge_pair(part) is None
    assert naive.full_find_merge_pair(part) is None
