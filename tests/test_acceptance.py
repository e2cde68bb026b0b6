"""Acceptance gate: one test per shipping criterion.

Each test prints one pass/fail line under ``pytest -v``.  Timing caps
are measured with a monotonic clock inside the test that owns them.
"""

import time
from functools import lru_cache

from rbmaf import (
    DualState,
    Partition,
    arborescence_leafsets,
    build_compact_graph,
    build_compact_lp,
    build_exponential_lp,
    build_wu_ilp,
    check_feasible_point,
    corpus,
    encode_lpstar_point,
    enumerate_compatible_sets,
    exact_maf,
    fig_instances,
    is_feasible_maf,
    make_coloring,
    make_rb_compatible,
    make_report,
    random_pair,
    run,
    special_split,
    verify_dual_feasibility,
    wu_gap_fractional,
    wu_gap_instance,
)

import naive


@lru_cache(maxsize=1)
def fuzz_corpus():
    """The shared seeded corpus: 30 mixed instances per size 3..12."""
    out = []
    for n in range(3, 13):
        out.extend(corpus(n, 30, base_seed=7000 + 97 * n))
    return tuple(out)


@lru_cache(maxsize=1)
def fuzz_results():
    return tuple((name, pair, run(pair)) for name, pair in fuzz_corpus())


def test_criterion_01_fig9_exact_value(fig9):
    started = time.perf_counter()
    assert exact_maf(fig9) == 5
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, "exact search took %.2fs" % elapsed


def test_criterion_02_fig9_fractional_gap_point(fig9):
    started = time.perf_counter()
    inst = fig_instances()["fig9"]
    model = build_exponential_lp(fig9)
    ok, violations = check_feasible_point(model, inst.fractional,
                                          tolerance=1e-9)
    objective = model.objective_value(inst.fractional)
    elapsed = time.perf_counter() - started
    assert ok, violations
    assert objective == 4.0
    assert inst.known_opt / objective == 1.25
    assert elapsed < 1.0, "gap point check took %.2fs" % elapsed


def test_criterion_03_sandwich_desk_scale():
    started = time.perf_counter()
    failures = []
    small = 0
    large = 0
    for n in range(4, 9):
        for name, pair in corpus(n, 210, base_seed=3000 + n):
            small += 1
            try:
                make_report(pair, instance=name, want_exact=True)
            except Exception as error:
                failures.append("%s: %s" % (name, error))
    for n in (9, 10):
        for name, pair in corpus(n, 100, base_seed=4000 + n):
            large += 1
            try:
                make_report(pair, instance=name, want_exact=True)
            except Exception as error:
                failures.append("%s: %s" % (name, error))
    elapsed = time.perf_counter() - started
    assert small >= 1000 and large >= 200
    assert not failures, failures[:10]
    assert elapsed < 600.0, "sandwich sweep took %.1fs" % elapsed


def test_criterion_04_dual_feasible_every_iteration():
    instances = 0
    for n in range(4, 11):
        for name, pair in corpus(n, 15, base_seed=5000 + n):
            instances += 1

            def inspect(partition, dual, record):
                assert verify_dual_feasibility(pair, dual, partition), name

            result = run(pair, on_iteration=inspect)
            assert verify_dual_feasibility(
                pair, result.dual, result.partition), name
    assert instances >= 100


def test_criterion_05_per_iteration_ledgers():
    failures = []
    cases_seen = set()
    for name, pair, result in fuzz_results():
        for rec in result.iterations:
            cases_seen.add(rec.case)
            if 2 * rec.delta_dual < rec.delta_primal:
                failures.append("%s: ledger balance" % name)
            if rec.case == 1:
                expect = (rec.p2 - rec.p0) + 1 + 2 * rec.chi + rec.t
                if rec.p3 - rec.p2 != expect:
                    failures.append("%s: case 1 identity" % name)
            else:
                if rec.p3 - rec.p2 != (rec.p2 - rec.p0) + 2:
                    failures.append("%s: case 2/3 identity" % name)
    assert cases_seen == {1, 2, 3}
    assert not failures, failures[:10]


def test_criterion_06_worked_trace_goldens(fig1):
    res = run(fig1, record_snapshots=True)
    first_stage = res.trace[2]
    assert first_stage["stage"] == "make_rb_compatible"
    r1 = fig1.leaf_node(2, fig1.index_of["r1"])
    b1 = fig1.leaf_node(2, fig1.index_of["b1"])
    assert first_stage["nodes"] == [fig1.t2.lca(r1, b1)]
    after_first = res.trace[3]
    assert after_first["stage"] == "p1"
    assert ["b1", "r1"] in after_first["components"]

    part = Partition(fig1)
    part.begin_iteration()
    coloring = make_coloring(part, 6)
    part.refresh_annotations(coloring)
    assert make_rb_compatible(part, DualState(fig1)) == [fig1.t2.lca(r1, b1)]
    assert ("b1", "r1") in part.label_sets()

    big = next(c.id for c in part.comps.values() if c.size == 5)
    chi, pair_added, node, branch = special_split(
        part, DualState(fig1), big, [])
    assert part.label_sets() == (("b1", "r1"), ("b2",), ("r2",),
                                 ("w1", "w2"), ("w3",))
    assert res.components == (("b1", "r1"), ("b2",), ("r2",),
                              ("w1", "w2"), ("w3",))


def test_criterion_07_compact_equivalence_small():
    checked = 0
    for name, pair in fuzz_corpus():
        if pair.n > 5:
            continue
        checked += 1
        graph = build_compact_graph(pair)
        family = arborescence_leafsets(graph, pair)
        assert family == enumerate_compatible_sets(pair, min_size=2), name
        model = build_compact_lp(pair, graph)
        for blocks in naive.all_partitions(range(pair.n)):
            if not is_feasible_maf(pair, blocks):
                continue
            point = encode_lpstar_point(
                pair, graph, {tuple(b): 1.0 for b in blocks})
            ok, violations = check_feasible_point(model, point)
            assert ok, (name, blocks, violations)
            assert abs(model.objective_value(point)
                       - (len(blocks) - 1)) < 1e-9, name
    assert checked == 90


def test_criterion_08_wu_gap_family():
    started = time.perf_counter()
    model2 = build_wu_ilp(wu_gap_instance(2))
    point2 = wu_gap_fractional(2)
    ok, violations = check_feasible_point(model2, point2, tolerance=1e-9)
    assert ok, violations
    assert model2.objective_value(point2) == 1.25
    model4 = build_wu_ilp(wu_gap_instance(4))
    point4 = wu_gap_fractional(4)
    ok, violations = check_feasible_point(model4, point4, tolerance=1e-9)
    assert ok, violations
    assert model4.objective_value(point4) == 5.0 == (5 / 16) * 16
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, "gap family build took %.1fs" % elapsed


def test_criterion_09_quadratic_scaling_bench():
    times = []
    for n in (1000, 2000, 4000):
        pair = random_pair(n, seed=0)
        started = time.perf_counter()
        result = run(pair)
        times.append(time.perf_counter() - started)
        assert result.value <= 2 * result.dual_objective
    for prev, cur in zip(times, times[1:]):
        ratio = cur / prev
        assert ratio <= 5.0, "doubling ratio %.2f (times %r)" % (ratio, times)


def test_criterion_10_end_to_end_feasibility():
    failures = []
    for name, pair, result in fuzz_results():
        if not is_feasible_maf(pair, result.partition):
            failures.append(name)
    assert not failures, failures[:10]
    assert len(fuzz_results()) == 300
