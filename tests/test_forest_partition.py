"""Partition bookkeeping: splits, merges, cuts, and feasibility tests."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rbmaf import (
    InvariantError,
    Partition,
    corpus,
    forest_partition,
    is_feasible_maf,
    is_K_feasible,
    make_pair,
    pair_from_newick,
    random_pair,
    redblue_core,
    run,
    set_compatible,
)

from rbmaf.forest_partition import as_blocks

import naive


def idx(pair, *labels):
    return [pair.index_of[x] for x in labels]


def test_fresh_partition_state(fig1):
    part = Partition(fig1)
    assert len(part) == 1
    assert part.label_sets() == (tuple(fig1.labels),)
    assert part.deleted_edges_labels() == []
    d = part.to_json_dict()
    assert d["n_components"] == 1
    assert d["deleted_edges"] == []


def test_split_below_cuts_one_edge(fig1):
    part = Partition(fig1)
    # T2 node 2 is the meeting point of b1 and r1
    below, above = part.split_below(2)
    assert part.label_sets() == (("b1", "r1"),
                                 ("b2", "r2", "w1", "w2", "w3"))
    assert part.deleted_edges_labels() == [["b1", "r1"]]
    assert sorted(part.comps[below].leaves) == idx(fig1, "b1", "r1")
    assert part.comps[below].root2 == 2


def test_split_component_parts_must_partition(fig1):
    part = Partition(fig1)
    cid = next(iter(part.comps))
    with pytest.raises(InvariantError):
        part.split_component(cid, [idx(fig1, "b1")])
    with pytest.raises(InvariantError):
        part.split_component(cid, [idx(fig1, "b1"), idx(fig1, "r1")])
    with pytest.raises(InvariantError):
        part.split_component(cid, [idx(fig1, "b1", "b1"), []])
    _, rest = part.split_below(2)
    before = (part.label_sets(), list(part.cut), list(part.leaf_root))
    for parts in ([idx(fig1, "b1")],                      # from {b1, r1}
                  [idx(fig1, "b2"), idx(fig1, "b2")],     # a leaf twice
                  [idx(fig1, "b2", "w1"),                 # no rest left
                   idx(fig1, "r2", "w2", "w3")],
                  [idx(fig1, "b2"), []]):                 # an empty part
        with pytest.raises(InvariantError):
            part.split_component(rest, parts, rest=True)
        assert (part.label_sets(), part.cut, part.leaf_root) == before


def test_split_component_cut_placement(fig1):
    part = Partition(fig1)
    cid = next(iter(part.comps))
    part.split_component(cid, [
        idx(fig1, "b1", "r1"),
        idx(fig1, "b2", "w1"),
        idx(fig1, "r2", "w2", "w3"),
    ])
    # shallowest block keeps the tree root; the others are cut at their lca
    assert part.label_sets() == (("b1", "r1"), ("b2", "w1"),
                                 ("r2", "w2", "w3"))
    assert part.deleted_edges_labels() == [["b1", "r1"], ["b2", "w1"]]


def test_merge_then_canonicalize_round_trip(fig1):
    part = Partition(fig1)
    part.split_below(2)
    b1, b2 = idx(fig1, "b1", "b2")
    part.merge([(b1, b2)])
    assert part.label_sets() == (tuple(fig1.labels),)
    assert part.deleted_edges_labels() == []
    assert naive.cover_blocks(part) == naive.full_structure(part)[2]
    with pytest.raises(InvariantError):
        part.merge([(b1, b2)])


def test_merge_hands_the_larger_leaf_set_on(fig1):
    """A merge adds the smaller block's leaves to the larger block's set,
    which the merged block keeps, rather than building a new one."""
    part = Partition(fig1)
    below, above = part.split_below(2)
    larger, smaller = part.comps[above].leaves, part.comps[below].leaves
    b1, b2 = idx(fig1, "b1", "b2")
    part.merge([(b1, b2)])
    (merged,) = part.comps.values()
    assert merged.leaves is larger
    assert merged.leaves == set(range(fig1.n)) > smaller
    assert merged.size == fig1.n


def test_split_rejects_overlapping_family(fig1):
    part = Partition(fig1)
    cid = next(iter(part.comps))
    # {b1, b2} and {r1, w1} interleave below T2 node 6, so the family
    # is not realizable by deleting edges of the second tree
    with pytest.raises(InvariantError):
        part.split_component(cid, [
            idx(fig1, "b1", "b2"),
            idx(fig1, "r1", "w1"),
            idx(fig1, "r2", "w2", "w3"),
        ])


def test_canonicalize_rejects_unrealizable_family(fig1):
    """{b1, b2, r2} and {r1, w1} have distinct meeting nodes in the
    second tree, so every cut is placed, but the cut above the meeting
    node of {r1, w1} takes b1 and b2 into that block's forest tree."""
    part = Partition(fig1)
    part.split_component(0, [[i] for i in range(fig1.n)])
    with pytest.raises(InvariantError, match="partition is not realizable"):
        part.merge([idx(fig1, a, b) for a, b in
                    (("b1", "b2"), ("b1", "r2"), ("r1", "w1"))])


# Second-tree nodes of fig1: 2 = (b1,r1), 6 = ((b1,r1),(b2,w1)), 11 = w3
# and 12 the root.


def _split_off_w3_then_the_root(pair, part):
    # the root then holds six leaves, all below one child
    part.split_below(11)
    part.split_below(pair.t2.root)


def _split_below_a_detached_root(pair, part):
    # node 2 roots the detached {b1, r1} and is covered by it
    part.split_below(2)
    part.split_below(2)


def _split_below_a_miscounted_node(pair, part):
    part.live[2] = 1  # {b1, r1} lie below it
    part.split_below(2)


def _split_a_leaf_of_another_block(pair, part):
    _, rest = part.split_below(2)
    part.split_component(rest, [idx(pair, "b1")], rest=True)


def _merge_singletons(*pairs):
    def fault(pair, part):
        part.split_component(0, [[i] for i in range(pair.n)])
        part.merge([idx(pair, a, b) for a, b in pairs])
    return fault


# (fault, message): each call on fig1's partition that must raise, and
# the message it raises with.  Only corrupted live counts reach the
# check that a split's collected leaves match the live count.
PARTITION_FAULTS = [
    (_split_off_w3_then_the_root, "not covered by any component"),
    (lambda pair, part: part.split_below(pair.t2.root), "empty upper block"),
    (_split_below_a_miscounted_node,
     "live count disagrees with collected leaves"),
    (lambda pair, part: part.split_component(0, [range(pair.n)]),
     "at least two blocks"),
    (lambda pair, part: part.split_component(0, [[0], []], rest=True),
     "empty block in split"),
    (lambda pair, part: part.split_component(
        0, [idx(pair, "b1"), idx(pair, "r1")]),
     "do not partition the component"),
    (_split_a_leaf_of_another_block, "do not partition the component"),
    # {b1, b2} and {r1, w1} both meet at node 6
    (lambda pair, part: part.split_component(
        0, [idx(pair, "b1", "b2"), idx(pair, "r1", "w1")], rest=True),
     "not cuttable"),
    (_merge_singletons(("b1", "b2"), ("b1", "r2"), ("r1", "w1")),
     "not realizable"),
    (lambda pair, part: part.merge([idx(pair, "b1", "r1")]),
     "already shares a component"),
    # w3 keeps the root, and {b1, b2} and {r1, w1} both need node 6
    (_merge_singletons(("b1", "b2"), ("r1", "w1")), "share a lca"),
    (_split_below_a_detached_root, "empty upper block"),
]


@pytest.mark.parametrize(
    "fault, message", PARTITION_FAULTS,
    ids=["%d-%s" % (k, m) for k, (_, m) in enumerate(PARTITION_FAULTS)])
def test_partition_checks_fire_with_their_message(fig1, fault, message):
    """Each check in ``forest_partition`` fires, with its own message,
    and a merge it refuses leaves the partition as it was."""
    merge = Partition.merge

    def checked_merge(part, pairs):
        before = naive.snapshot(part)
        try:
            return merge(part, pairs)
        except InvariantError:
            assert naive.snapshot(part) == before
            raise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Partition, "merge", checked_merge)
        with pytest.raises(InvariantError, match=message):
            fault(fig1, Partition(fig1))


def test_begin_iteration_stamps_origin(fig1):
    """Blocks split off in an iteration, however often their lineage is
    cut, point to the block that existed when the iteration began."""
    part = Partition(fig1)
    part.split_below(2)
    part.begin_iteration()
    start = part.component_of_leaf(fig1.index_of["b2"]).id
    ids = part.split_component(
        start, [idx(fig1, "b2", "w1"), idx(fig1, "r2", "w2", "w3")])
    ids += part.split_below(fig1.leaf_node2[fig1.index_of["r2"]])
    for cid in ids:
        assert cid >= part.first_new
        if cid in part.comps:
            assert part.comps[cid].origin0 == start
    assert list(part.created) == ids


def test_is_feasible_maf_known_cases(fig1):
    final = [idx(fig1, "b1", "r1"), idx(fig1, "b2"), idx(fig1, "r2"),
             idx(fig1, "w1", "w2"), idx(fig1, "w3")]
    assert is_feasible_maf(fig1, final)
    assert is_feasible_maf(fig1, [[i] for i in range(fig1.n)])
    assert not is_feasible_maf(fig1, [list(range(fig1.n))])
    with pytest.raises(ValueError):
        is_feasible_maf(fig1, [[0, 1]])


def test_is_feasible_maf_identical_trees():
    pair = pair_from_newick("((a,b),(c,d));", "((a,b),(c,d));")
    assert is_feasible_maf(pair, [list(range(4))])


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 7), st.integers(0, 5_000), st.integers(0, 999))
def test_is_feasible_maf_matches_naive(n, seed, pseed):
    pair = random_pair(n, seed)
    rng = random.Random(pseed)
    blocks = {}
    for i in range(n):
        blocks.setdefault(rng.randrange(1 + n // 2), []).append(i)
    family = list(blocks.values())
    assert is_feasible_maf(pair, family) == naive.naive_feasible(pair, family)


def test_is_K_feasible_basic(fig1):
    part = Partition(fig1)
    assert is_K_feasible(fig1, part, [])
    final = [idx(fig1, "b1", "r1"), idx(fig1, "b2"), idx(fig1, "r2"),
             idx(fig1, "w1", "w2"), idx(fig1, "w3")]
    assert is_K_feasible(fig1, final, range(fig1.n))
    # the one-block partition is incompatible once any witness is added
    assert not is_K_feasible(fig1, [list(range(fig1.n))], range(fig1.n))
    # {b2, r2} is compatible, but w2 outside K breaks it
    assert not is_K_feasible(fig1, [list(range(fig1.n))],
                             idx(fig1, "b2", "r2"))


def _random_blocks_and_K(n, rng):
    """One to three random blocks, and K a random share of the leaves."""
    blocks = {}
    for i in range(n):
        blocks.setdefault(rng.randrange(rng.randint(1, 3)), []).append(i)
    keep = rng.random()
    return list(blocks.values()), [i for i in range(n) if rng.random() < keep]


def test_is_K_feasible_matches_oracle_on_corpus():
    """On every corpus(n, 25) pair, n = 3..12, random partitions and
    run's final forest, each with random leaf subsets K, get the
    oracle's answer; the check of the leaves outside K is reached and
    answers both ways."""
    outside = {True: 0, False: 0}
    for n in range(3, 13):
        for name, pair in corpus(n, 25):
            rng = random.Random(name)
            final = [sorted(b) for b in as_blocks(run(pair).partition)]
            for trial in range(8):
                blocks, K = _random_blocks_and_K(n, rng)
                if trial % 2:
                    blocks = final
                assert (is_K_feasible(pair, blocks, K)
                        == naive.naive_is_K_feasible(pair, blocks, K)), (
                    name, blocks, K)
                parts = [(sorted(set(b) & set(K)), set(b) - set(K))
                         for b in blocks]
                if all(set_compatible(pair, bk) for bk, _ in parts) and any(
                        len(bk) > 1 and rest for bk, rest in parts):
                    outside[all(set_compatible(pair, bk + [w])
                                for bk, rest in parts for w in rest)] += 1
    assert min(outside.values()) > 100, outside


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40), st.integers(0, 5_000), st.booleans(),
       st.randoms(use_true_random=False))
def test_is_K_feasible_matches_oracle(n, seed, near, rnd):
    mode = "k_rspr" if near else "uniform"
    pair = random_pair(n, seed, mode=mode, k=1 + seed % (n - 1) if near else None)
    blocks, K = _random_blocks_and_K(n, rnd)
    assert (is_K_feasible(pair, blocks, K)
            == naive.naive_is_K_feasible(pair, blocks, K))


def test_is_K_feasible_sorts_each_block_once(monkeypatch):
    """One set_compatible call per block, however many leaves lie
    outside K: on run's forest of a 2,000-leaf k-rSPR pair with rho
    and K every other leaf."""
    p = random_pair(2000, 0, mode="k_rspr", k=20)
    pair = make_pair(p.t1, p.t2, add_rho=True)
    partition = run(pair).partition
    calls = []
    real = forest_partition.set_compatible
    monkeypatch.setattr(forest_partition, "set_compatible",
                        lambda pair, leaves: calls.append(1) or real(pair, leaves))
    assert is_K_feasible(pair, partition, range(0, pair.n, 2))
    assert len(calls) == len(partition)


def test_leaf_sets_and_component_of_leaf(fig1):
    part = Partition(fig1)
    part.split_below(2)
    for i in range(fig1.n):
        assert i in part.component_of_leaf(i).leaves
    assert part.leaf_sets() == ((0, 2), (1, 3, 4, 5, 6))


def _check_merge(part, pairs):
    """Merge ``pairs`` into ``part`` and hold the result against the
    rebuild oracle, which merges copies of the leaf sets.  A refused
    merge must raise the oracle's message and leave ``part`` as it was;
    an accepted one must leave the oracle's blocks, ids, forest, live
    counts and coverage, and a sweep that agrees with the full one.
    Returns whether the merge was accepted."""
    before = naive.snapshot(part)
    try:
        (cut, root_comp, leaf_root, root2), blocks = naive.merged_forest(
            part, pairs)
    except InvariantError as error:
        with pytest.raises(InvariantError) as refused:
            part.merge(pairs)
        assert str(refused.value) == str(error)
        assert naive.snapshot(part) == before
        return False
    part.merge(pairs)
    assert {cid: c.leaves for cid, c in part.comps.items()} == blocks
    assert (part.cut, part.root_comp, part.leaf_root) == (cut, root_comp, leaf_root)
    assert {cid: c.root2 for cid, c in part.comps.items()} == root2
    live, _, cover = naive.full_structure(part)
    assert part.live == live and naive.cover_blocks(part) == cover
    assert redblue_core.find_lowest_pcs(part) == naive.full_lowest_pcs(part)
    return True


def _random_merge_pairs(part, rnd):
    """Random pairs, each joining two blocks that the pairs before it
    have not joined, so at most one fewer than the blocks."""
    group = {c.id: c.id for c in part.comps.values()}
    pairs = []
    for _ in range(rnd.randint(0, len(part))):
        x1, x2 = rnd.sample(range(part.pair.n), 2)
        a, b = (group[part.component_of_leaf(x).id] for x in (x1, x2))
        if a != b:
            pairs.append((x1, x2))
            group = {k: a if g == b else g for k, g in group.items()}
    return pairs


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 14), st.integers(0, 5_000), st.booleans(),
       st.randoms(use_true_random=False))
def test_merge_matches_the_rebuild_oracle(n, seed, singletons, rnd):
    """Random splits, or singleton blocks, then random merges: the
    in-place re-cut leaves the rebuilt forest, live counts and coverage,
    or raises the rebuild oracle's error and changes nothing."""
    pair = random_pair(n, seed)
    part = Partition(pair)
    if singletons:
        part.split_component(0, [[i] for i in range(n)])
    for _ in range(rnd.randint(0, n)):
        covered = [v for v in range(pair.t2.n_nodes) if part.covering(v) >= 0
                   and part.live[v] < part.comps[part.covering(v)].size]
        if covered:
            part.split_below(rnd.choice(covered))
    _check_merge(part, _random_merge_pairs(part, rnd))


class _LoopEnd(Exception):
    """Raised in place of the merge phase; carries its partition and
    pair list."""


def _loop_end(pair):
    """The partition, saved sweep included, and the pair list that
    ``run`` hands its merge phase."""
    def stop(partition, pairslist):
        raise _LoopEnd(partition, list(pairslist))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(redblue_core, "merge_components", stop)
        with pytest.raises(_LoopEnd) as end:
            run(pair)
    return end.value.args


def test_merge_matches_the_rebuild_oracle_at_loop_end():
    """On every loop-end partition of ``corpus(n, 25)``, n = 3..12, and
    of ``random_pair(1000, 0)``, three merges, each on a fresh copy and
    held against the rebuild oracle by ``_check_merge``: the run's own
    pairs, most recent first, which are accepted; the first two blocks;
    and random pairs."""
    pairs = [pair for n in range(3, 13) for _, pair in corpus(n, 25)]
    pairs.append(random_pair(1000, 0))
    rnd = random.Random(0)
    outcomes = Counter()
    for pair in pairs:
        part, pairslist = _loop_end(pair)
        assert _check_merge(part, pairslist[::-1])
        assert redblue_core.find_lowest_pcs(part) is None
        part, _ = _loop_end(pair)
        if len(part) > 1:
            first, second = list(part.comps.values())[:2]
            outcomes["first two", _check_merge(
                part, [(min(first.leaves), min(second.leaves))])] += 1
        part, _ = _loop_end(pair)
        outcomes["random", _check_merge(part, _random_merge_pairs(part, rnd))] += 1
    # at n = 1000 the first two blocks are refused
    assert outcomes.pop(("first two", False)) >= 1
    assert min(outcomes.values()) >= 20, outcomes
