"""Certificate state, load arithmetic, and feasibility verification."""

import pytest

from rbmaf import (
    DualState,
    InvariantError,
    OracleCapError,
    check_balance,
    corpus,
    load,
    pair_from_newick,
    random_pair,
    run,
    verify_dual_feasibility,
)


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
