"""Certificate state, load arithmetic, and feasibility verification."""

from collections import Counter
from itertools import combinations

import pytest

from rbmaf import (
    DualState,
    InvariantError,
    OracleCapError,
    build_exponential_lp,
    check_balance,
    corpus,
    enumerate_compatible_sets,
    load,
    pair_from_newick,
    random_pair,
    run,
    spanned_nodes,
    verify_dual_feasibility,
)
from rbmaf.cli_runner import main
from rbmaf.forest_partition import as_blocks
from rbmaf.lp_toolkit import FIG9_NEWICK1, FIG9_NEWICK2, compatible_set_table

import naive


@pytest.fixture
def tiny():
    return pair_from_newick("((a,b),c);", "((a,b),c);")


def test_star_records_and_sums(tiny):
    dual = DualState(tiny)
    dual.star(1, 2)
    dual.star(2, 4)
    assert dual.y1[2] == -1 and dual.y2[4] == -1
    assert dual.events == [(1, 2), (2, 4)]
    assert dual.y_sum() == -2
    assert dual.objective(4) == 1


def test_star_on_leaf_rejected(tiny):
    dual = DualState(tiny)
    with pytest.raises(InvariantError):
        dual.star(1, 0)


def test_load_hand_case(tiny):
    """One decrement on the cherry node of the first tree."""
    a, b, c = 0, 1, 2
    dual = DualState(tiny)
    dual.star(1, 2)
    comps = [{a, b}, {c}]
    assert load(tiny, dual, comps, [a, b]) == 0
    assert load(tiny, dual, comps, [a, c]) == 1
    assert load(tiny, dual, comps, [a]) == 1
    assert load(tiny, DualState(tiny), comps, [a, c]) == 2


def test_objective_accepts_partition_or_blocks(fig1):
    """The reported bound is sealed before the merges, so evaluating
    against the merged forest loses one per remembered pair."""
    res = run(fig1)
    d = res.dual.objective(len(res.partition))
    assert d == res.dual_objective - len(res.pairslist)
    assert res.dual.objective(len(res.components)) == d


def test_fig9_certificate_golden(fig9):
    res = run(fig9)
    assert res.dual.as_dict() == {"t1:4": -1, "t1:12": -1, "t2:2": -1}
    assert res.dual_objective == 3
    assert verify_dual_feasibility(fig9, res.dual, res.partition)


def test_verify_passes_on_solver_outputs():
    for name, pair in corpus(8, 20, base_seed=42):
        res = run(pair)
        assert verify_dual_feasibility(pair, res.dual, res.partition), name


def test_verify_after_each_iteration(fig9):
    seen = []

    def hook(partition, dual, record):
        seen.append(record.index)
        assert verify_dual_feasibility(fig9, dual, partition)

    run(fig9, on_iteration=hook)
    assert seen == [1, 2]


def test_verify_catches_uncertified_cut(tiny):
    """Cutting without paying a potential overloads a compatible set."""
    dual = DualState(tiny)
    comps = [{0}, {1}, {2}]
    assert load(tiny, dual, comps, [0, 1]) == 2
    with pytest.raises(InvariantError, match="load 2"):
        verify_dual_feasibility(tiny, dual, comps)


def test_positive_potential_rejected(tiny):
    dual = DualState(tiny)
    dual.y1[2] = 1
    with pytest.raises(InvariantError, match="positive"):
        verify_dual_feasibility(tiny, dual, [{0, 1, 2}])


def test_verify_cap(tiny):
    pair = random_pair(16, seed=5)
    with pytest.raises(OracleCapError):
        verify_dual_feasibility(pair, DualState(pair), [set(range(16))])


def test_check_balance(tiny):
    dual = DualState(tiny)
    dual.star(1, 2)
    assert check_balance(dual, 4, 0)
    weak = DualState(tiny)
    weak.star(1, 2)
    weak.star(1, 4)
    with pytest.raises(InvariantError, match="cannot certify"):
        check_balance(weak, 3, 0)


# ----------------------------------------------------------------------
# the compatible-set table against the one-set-at-a-time oracle


def outcome(pair, dual, components):
    """None when the check passes, else its error message."""
    try:
        verify_dual_feasibility(pair, dual, components)
    except InvariantError as error:
        return str(error)
    return None


def oracle_outcome(pair, dual, components, sets):
    found = naive.naive_first_violation(pair, dual, components, sets)
    if found is None:
        return None
    total, leaves = found
    return "load %d > 1 on compatible set %r" % (total, pair.labels_of(leaves))


def moved(pair, dual):
    """The certificate with its latest decrement moved to the next
    internal node of the same tree, cyclically in id order."""
    out = DualState(pair)
    *earlier, (t, node) = dual.events
    left = pair.tree(t).left
    inner = [v for v in range(len(left)) if left[v] >= 0]
    for tree, v in earlier:
        out.star(tree, v)
    out.star(t, inner[(inner.index(node) + 1) % len(inner)])
    return out


def test_check_matches_oracle_every_iteration(figs):
    """At every iteration, for the solver's certificate, the certificate
    with one decrement moved, and the partition without its first block
    (its leaves then lie in no block), the table check and the oracle
    agree on pass or raise and on the first violating set."""
    instances = [inst for n in range(3, 11) for inst in corpus(n, 25)]
    instances += [(name, figs[name].pair) for name in ("fig1", "fig9")]
    raised = Counter()
    for name, pair in instances:
        sets = sorted(naive.naive_compatible_sets(pair))
        assert enumerate_compatible_sets(pair) == sets, name

        def agree(partition, dual, *_):
            blocks = as_blocks(partition)
            assert outcome(pair, dual, partition) is None, name
            variants = [(dual, blocks[1:])]
            if dual.events:
                variants.append((moved(pair, dual), blocks))
            for certificate, components in variants:
                got = outcome(pair, certificate, components)
                assert got == oracle_outcome(
                    pair, certificate, components, sets), name
                raised[got is not None] += 1

        result = run(pair, on_iteration=agree)
        agree(result.partition, result.dual)
    assert raised[True] > 100 and raised[False] > 100


def test_moved_potential_rejected_by_both(fig9):
    """fig9's certificate decrements the lca of 1, 2 and 3 in the first
    tree.  Moved one node up, it leaves that set's span, and the set,
    which meets three blocks, keeps one decrement: load 2."""
    res = run(fig9)
    assert res.dual.events == [(1, 4), (2, 2), (1, 12)]
    wrong = DualState(fig9)
    for t, v in res.dual.events:
        wrong.star(t, 6 if (t, v) == (1, 4) else v)
    sets = enumerate_compatible_sets(fig9)
    message = "load 2 > 1 on compatible set ('1', '2', '3')"
    assert oracle_outcome(fig9, wrong, res.partition, sets) == message
    with pytest.raises(InvariantError) as error:
        verify_dual_feasibility(fig9, wrong, res.partition)
    assert str(error.value) == message
    assert outcome(fig9, res.dual, res.partition) is None


def test_table_spans_are_spanned_internal_nodes(figs):
    instances = [inst for n in range(3, 11) for inst in corpus(n, 25)]
    instances += [(name, figs[name].pair) for name in ("fig1", "fig9")]
    for name, pair in instances:
        sets, span1, span2 = compatible_set_table(pair)
        for leaves, s1, s2 in zip(sets, span1, span2):
            for t, span in ((1, s1), (2, s2)):
                left = pair.tree(t).left
                want = [v for v in spanned_nodes(pair, t, leaves)
                        if left[v] >= 0]
                assert span == sum(1 << v for v in want), (name, leaves, t)


def test_check_dual_builds_each_table_once(table_builds, monkeypatch,
                                           capsys):
    checks = []
    original = verify_dual_feasibility

    def counted_check(*args):
        checks.append(1)
        return original(*args)

    monkeypatch.setattr("rbmaf.cli_runner.verify_dual_feasibility",
                        counted_check)
    assert main(["check-dual", FIG9_NEWICK1, FIG9_NEWICK2]) == 0
    assert "after each of 2 iterations" in capsys.readouterr().out
    assert len(checks) == 3
    assert table_builds == {"_build_conflict_masks": 1,
                            "_search_compatible_sets": 1}


def test_caps_refuse_before_any_table(table_builds):
    pair = random_pair(16, seed=5)
    with pytest.raises(OracleCapError) as error:
        verify_dual_feasibility(pair, DualState(pair), [set(range(16))])
    assert str(error.value) == (
        "certificate verification enumerates compatible sets and is "
        "capped at 15 leaves (got 16)")
    for build in (build_exponential_lp, enumerate_compatible_sets):
        with pytest.raises(OracleCapError) as error:
            build(pair)
        assert str(error.value) == (
            "compatible-set enumeration is capped at 15 leaves (got 16)")
    assert not table_builds


def test_loads_with_leaves_in_no_block(tiny, fig1):
    """A leaf outside every given block adds no block to a load."""
    dual = DualState(tiny)
    dual.star(1, 2)
    assert load(tiny, dual, [{0, 1}], [0, 1, 2]) == 0
    assert load(tiny, dual, [], [0, 1, 2]) == -1
    assert load(tiny, dual, [{2}], [0, 2]) == 0
    assert outcome(tiny, dual, [{0}]) is None
    res = run(fig1)
    blocks = as_blocks(res.partition)
    for components in (blocks, blocks[1:], blocks[::2], []):
        for size in range(4):
            for leaves in combinations(range(fig1.n), size):
                assert load(fig1, res.dual, components, leaves) == \
                    naive.naive_load(fig1, res.dual, components, leaves)
