"""Partition bookkeeping: splits, merges, cuts, and feasibility tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from rbmaf import (
    InvariantError,
    Partition,
    is_feasible_maf,
    is_K_feasible,
    pair_from_newick,
    random_pair,
)

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
    assert part.comps[below].leaves == idx(fig1, "b1", "r1")
    assert part.comps[below].root2 == 2


def test_split_below_rejects_uncovered_and_empty_upper(fig1):
    part = Partition(fig1)
    with pytest.raises(InvariantError):
        part.split_below(fig1.t2.root)
    part.split_below(2)
    with pytest.raises(InvariantError):
        part.split_below(2)


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


def test_leaf_sets_and_component_of_leaf(fig1):
    part = Partition(fig1)
    part.split_below(2)
    for i in range(fig1.n):
        assert i in part.component_of_leaf(i).leaves
    assert part.leaf_sets() == ((0, 2), (1, 3, 4, 5, 6))
