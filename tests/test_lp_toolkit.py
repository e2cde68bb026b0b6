"""LP formulations: structure goldens, point checks, gap instances."""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from rbmaf import (
    LpModel,
    OracleCapError,
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
    pair_from_newick,
    random_pair,
    run,
    write_lp_file,
    wu_gap_fractional,
    wu_gap_instance,
)
from rbmaf.lp_toolkit import (
    LpConstraint,
    LpVariable,
    arborescence_for_set,
    render_lp_text,
)

import naive


@pytest.fixture
def cherry():
    return pair_from_newick("(a,b);", "(a,b);")


def blocks_of(partition):
    return [tuple(sorted(c.leaves)) for c in partition.comps.values()]


def partition_point(pair, blocks):
    return {"x_L_" + ".".join(pair.labels[i] for i in sorted(b)): 1.0
            for b in blocks}


def ilp_minimum(model):
    """Brute-force optimum of a 0/1 program via row bitmasks."""
    index = {v.name: i for i, v in enumerate(model.variables)}
    rows = []
    for row in model.constraints:
        assert row.sense == ">=" and row.rhs == 1.0
        mask = 0
        for name in row.coefs:
            mask |= 1 << index[name]
        rows.append(mask)
    best = len(index)
    for sub in range(1 << len(index)):
        count = bin(sub).count("1")
        if count >= best:
            continue
        if all(sub & mask for mask in rows):
            best = count
    return best


# ----------------------------------------------------------------------
# compatible-set enumeration


def test_enumerate_identical_n3():
    pair = pair_from_newick("((a,b),c);", "((a,b),c);")
    assert enumerate_compatible_sets(pair) == [
        (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]
    assert enumerate_compatible_sets(pair, min_size=2) == [
        (0, 1), (0, 1, 2), (0, 2), (1, 2)]


def test_enumerate_fig9_count(fig9):
    assert len(enumerate_compatible_sets(fig9)) == 51


def test_enumerate_matches_naive():
    for name, pair in corpus(6, 12, base_seed=7):
        got = enumerate_compatible_sets(pair)
        assert sorted(got) == sorted(naive.naive_compatible_sets(pair)), name
        assert got == sorted(got)


def test_enumeration_cap():
    with pytest.raises(OracleCapError):
        enumerate_compatible_sets(random_pair(16, seed=1))


def test_one_triple_table_per_pair(table_builds):
    """The exact search, the exponential LP and the Wu ILP of one pair
    share one conflict-mask table; the enumeration and two exponential
    LP builds share one compatible-set table."""
    pair = random_pair(8, seed=4)
    exact_maf(pair)
    for build in (build_exponential_lp, build_wu_ilp,
                  enumerate_compatible_sets, build_exponential_lp):
        build(pair)
    assert table_builds == {"_build_conflict_masks": 1,
                            "_search_compatible_sets": 1}


def test_oracle_and_lp_golden(figs):
    """Exact optimum, compatible sets and the three LP texts, as first
    recorded; a refused build contributes its cap message."""
    instances = [inst for n in range(3, 11) for inst in corpus(n, 30)]
    instances += [(name, figs[name].pair) for name in ("fig1", "fig9")]
    instances += [("wu%d" % k, wu_gap_instance(k)) for k in (2, 4)]
    assert len(instances) == 244
    digest = hashlib.sha256()
    for name, pair in instances:
        outputs = [name]
        for compute in (lambda: exact_maf(pair),
                        lambda: enumerate_compatible_sets(pair),
                        lambda: render_lp_text(build_exponential_lp(pair)),
                        lambda: render_lp_text(build_compact_lp(pair)),
                        lambda: render_lp_text(build_wu_ilp(pair))):
            try:
                outputs.append(str(compute()))
            except OracleCapError as error:
                outputs.append("cap: %s" % error)
        for text in outputs:
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == (
        "5a7e18cb350ecc0ee8a89537bde27a6451e7d618c62bd3d26d3c7e51a34ed894")


# ----------------------------------------------------------------------
# exponential program


EXP_N2_TEXT = """\\ Problem: exponential_lp
Minimize
 obj: x_L_a + x_L_a.b + x_L_b - 1
Subject To
 leaf_1: x_L_a + x_L_a.b = 1
 leaf_2: x_L_a.b + x_L_b = 1
 pack_1: x_L_a.b <= 1
 pack_2: x_L_a.b <= 1
Bounds
 0 <= x_L_a
 0 <= x_L_a.b
 0 <= x_L_b
End
"""


def test_exponential_n2_full_text(cherry):
    assert render_lp_text(build_exponential_lp(cherry)) == EXP_N2_TEXT


def test_exponential_shape(fig1, fig9):
    m1 = build_exponential_lp(fig1)
    assert (len(m1.variables), len(m1.constraints)) == (53, 19)
    m9 = build_exponential_lp(fig9)
    assert (len(m9.variables), len(m9.constraints)) == (51, 22)


def test_exponential_accepts_solver_forest(fig1):
    res = run(fig1)
    model = build_exponential_lp(fig1)
    point = partition_point(fig1, blocks_of(res.partition))
    ok, violations = check_feasible_point(model, point)
    assert ok, violations
    assert model.objective_value(point) == 4.0


def test_exponential_accepts_singletons(fig9):
    model = build_exponential_lp(fig9)
    point = partition_point(fig9, [(i,) for i in range(fig9.n)])
    ok, violations = check_feasible_point(model, point)
    assert ok, violations
    assert model.objective_value(point) == fig9.n - 1


# Leaf labels an LP name cannot carry: an LP reader takes "x_L_a-b" for
# x_L_a minus b, and the exponential LP's "x_L_a.b" names both the set
# {a.b} and the set {a, b}.
_BAD_LABELS = [("a-b", "-"), ("a+b", "+"), ("a.b", ".")]


@pytest.mark.parametrize("label, ch", _BAD_LABELS)
@pytest.mark.parametrize("build", [build_exponential_lp, build_compact_lp])
def test_lp_builders_refuse_labels_an_lp_name_cannot_carry(build, label, ch):
    pair = pair_from_newick("((%s,a),b);" % label, "(%s,(a,b));" % label)
    if build is build_compact_lp and ch == ".":
        # the arc-flow LP names one variable per leaf, so "." is safe
        names = {v.name for v in build(pair).variables}
        assert {"x_L_a.b", "x_L_a", "x_L_b"} <= names
        return
    with pytest.raises(ValueError) as refused:
        build(pair)
    punctuation = '!"#$%&/.?@_`{}|~'
    if build is build_exponential_lp:
        punctuation = punctuation.replace(".", "")
    assert str(refused.value) == (
        "leaf label %r holds %r, which an LP variable name cannot carry: "
        "labels may hold ASCII letters, digits and %s"
        % (label, ch, punctuation))


@pytest.mark.parametrize("build", [build_exponential_lp, build_compact_lp])
def test_lp_builders_take_every_allowed_label_character(build):
    label = 'Zz09!"#$%&/?@_`{}|~'
    pair = pair_from_newick("((%s,a),b);" % label, "(%s,(a,b));" % label)
    assert "x_L_" + label in render_lp_text(build(pair))


def test_fig9_fractional_point(fig9):
    inst = fig_instances()["fig9"]
    model = build_exponential_lp(fig9)
    ok, violations = check_feasible_point(model, inst.fractional, 1e-9)
    assert ok, violations
    assert model.objective_value(inst.fractional) == 4.0


def test_check_feasible_point_reports(fig1):
    model = build_exponential_lp(fig1)
    ok, violations = check_feasible_point(model, {"x_L_b1": 0.5})
    assert not ok
    assert any(v.startswith("leaf_1:") for v in violations)
    ok, violations = check_feasible_point(model, {"x_L_b1": -0.5})
    assert any("below lower bound" in v for v in violations)
    capped = LpModel("m")
    capped.add_variable("x", upper=1.0)
    assert check_feasible_point(capped, {"x": 1.5}) == (
        False, ["x = 1.5 above upper bound 1.0"])
    with pytest.raises(ValueError, match="unknown variable"):
        check_feasible_point(model, {"x_L_nope": 1.0})


def test_render_deterministic(tmp_path, cherry):
    model = build_exponential_lp(cherry)
    assert render_lp_text(model) == render_lp_text(model)
    dest = tmp_path / "m.lp"
    write_lp_file(model, dest)
    data = dest.read_bytes()
    assert data == EXP_N2_TEXT.encode()
    assert b"\r" not in data and data.endswith(b"End\n")


def test_lp_model_validation():
    model = LpModel("m")
    model.add_variable("x")
    with pytest.raises(ValueError, match="duplicate variable"):
        model.add_variable("x")
    model.add_constraint("r", {"x": 1.0}, "<=", 1.0)
    with pytest.raises(ValueError, match="duplicate constraint"):
        model.add_constraint("r", {"x": 1.0}, "<=", 2.0)
    with pytest.raises(ValueError, match="bad sense"):
        model.add_constraint("r2", {"x": 1.0}, "<", 1.0)
    with pytest.raises(ValueError, match="unknown variable"):
        model.add_constraint("r3", {"zz": 1.0}, "<=", 1.0)


def test_lp_model_constructor_validation():
    """The constructor refuses what add_variable and add_constraint
    refuse, with the same messages."""
    with pytest.raises(ValueError, match="duplicate variable 'x'"):
        LpModel("m", variables=[LpVariable("x"), LpVariable("x")])
    x = [LpVariable("x")]
    with pytest.raises(ValueError, match="references unknown variable 'y'"):
        LpModel("m", variables=x,
                constraints=[LpConstraint("r", {"y": 1.0}, "<=", 1.0)])
    with pytest.raises(ValueError, match="duplicate constraint 'r'"):
        LpModel("m", variables=x,
                constraints=[LpConstraint("r", {"x": 1.0}, "<=", 1.0)] * 2)
    with pytest.raises(ValueError, match="bad sense '<'"):
        LpModel("m", variables=x,
                constraints=[LpConstraint("r", {"x": 1.0}, "<", 1.0)])
    model = LpModel("m", variables=x,
                    constraints=[LpConstraint("r", {"x": 2.0}, "<=", 1.0)])
    model.add_constraint("s", {"x": 1.0}, ">=", 0.0)
    assert [row.name for row in model.constraints] == ["r", "s"]
    assert render_lp_text(model).count("<= x") == 1


def test_bulk_adds_refuse_like_single_adds():
    model = LpModel("m")
    model.add_variables(["a", "b"])
    for names in (["c", "d", "c"], ["c", "a"]):
        with pytest.raises(ValueError, match="duplicate variable"):
            model.add_variables(names)
    assert [v.name for v in model.variables] == ["a", "b"]
    model.add_constraints("r", [{"a": 1.0}, {"b": 1.0}], "<=", 1.0)
    assert [row.name for row in model.constraints] == ["r_1", "r_2"]
    with pytest.raises(ValueError, match="duplicate constraint 'r_1'"):
        model.add_constraints("r", [{"a": 1.0}], "<=", 1.0)
    with pytest.raises(ValueError, match="bad sense"):
        model.add_constraints("s", [{"a": 1.0}], "=<", 1.0)
    with pytest.raises(ValueError, match="constraint 's_2' references "
                       "unknown variable 'z'"):
        model.add_constraints("s", [{"a": 1.0}, {"z": 1.0}], "<=", 1.0)


def test_render_refuses_unknown_names():
    """Objective terms and rows changed after they were added may not
    name a missing variable; the objective's were dropped silently."""
    model = LpModel("m")
    model.add_variable("x")
    model.objective = {"x": 1.0, "ghost": 2.0}
    with pytest.raises(ValueError,
                       match="objective references unknown variable 'ghost'"):
        render_lp_text(model)
    model.objective = {"x": 1.0}
    model.add_constraint("r", {"x": 1.0}, "<=", 1.0)
    model.constraints[0].coefs["ghost"] = 1.0
    with pytest.raises(ValueError, match="constraint 'r' references "
                       "unknown variable 'ghost'"):
        render_lp_text(model)


def test_render_writes_infinite_bounds():
    """A free variable and an unbounded one are written with ``-inf``
    and ``inf`` bounds, which LP readers take."""
    model = LpModel("m")
    model.add_variable("x", lower=-math.inf)
    model.add_variable("y", upper=math.inf)
    model.add_constraint("r", {"x": 1.0, "y": 1.0}, ">=", 1.0)
    assert render_lp_text(model).endswith(
        "Bounds\n -inf <= x\n 0 <= y <= inf\nEnd\n")


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("spoil, message", [
    (lambda m: m.add_variable("z", lower=_NAN), "variable 'z': bound is nan"),
    (lambda m: m.add_variable("z", upper=_NAN), "variable 'z': bound is nan"),
    (lambda m: m.objective.update(y=_NAN),
     "objective coefficient of 'y' is nan"),
    (lambda m: m.objective.update(y=-_INF),
     "objective coefficient of 'y' is -inf"),
    (lambda m: setattr(m, "objective_constant", _INF),
     "objective constant is inf"),
    (lambda m: setattr(m, "objective_constant", _NAN),
     "objective constant is nan"),
    (lambda m: m.add_constraint("s", {"x": 1.0, "y": _NAN}, "<=", 1.0),
     "constraint 's': coefficient of 'y' is nan"),
    (lambda m: m.add_constraint("s", {"x": _INF}, "<=", 1.0),
     "constraint 's': coefficient of 'x' is inf"),
    (lambda m: m.add_constraint("s", {"x": 2.0}, ">=", _NAN),
     "constraint 's': right-hand side is nan"),
    (lambda m: m.add_constraint("s", {"x": 1.0}, "=", -_INF),
     "constraint 's': right-hand side is -inf"),
], ids=["nan-lower", "nan-upper", "nan-cost", "inf-cost", "inf-constant",
        "nan-constant", "nan-coef", "inf-coef", "nan-rhs", "inf-rhs"])
def test_render_refuses_non_finite_numbers(spoil, message):
    """A NaN anywhere, or an infinity outside a bound, raises ValueError
    naming where it stands."""
    model = LpModel("m")
    model.add_variables(["x", "y"], lower=-_INF, upper=_INF)
    model.objective = {"x": 1.0}
    model.add_constraint("r", {"x": 1.0, "y": 2.0}, "<=", 4.0)
    render_lp_text(model)
    spoil(model)
    with pytest.raises(ValueError) as error:
        render_lp_text(model)
    assert str(error.value) == message + (
        ": LP text takes finite numbers, and infinities only as bounds")


def test_render_matches_oracle_on_builders(figs):
    """Every builder's model renders byte for byte as the term-by-term
    oracle renders it; the exponential LP of the 16-leaf gap pair is
    refused by its cap."""
    instances = [inst for n in range(3, 13) for inst in corpus(n, 20)]
    instances += [(name, figs[name].pair) for name in ("fig1", "fig9")]
    instances += [("wu%d" % k, wu_gap_instance(k)) for k in (2, 4)]
    for name, pair in instances:
        for build in (build_exponential_lp, build_compact_lp, build_wu_ilp):
            try:
                model = build(pair)
            except OracleCapError:
                assert (name, build) == ("wu4", build_exponential_lp)
                continue
            want = naive.naive_render_lp_text(model)
            assert render_lp_text(model) == want, (name, build.__name__)


_NAMES = ["x%d" % k for k in range(10)]
_COEFS = st.one_of(
    st.sampled_from([1, 1.0, -1, -1.0, 0, 0.0, -0.0, 2, 0.5, -2.5, 1e20]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_BOUNDS = st.sampled_from([0.0, 1.0, -2.5, 3, 0.125])


@st.composite
def lp_models(draw):
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=8))
    model = LpModel("m")
    bulk = draw(st.integers(0, len(names)))
    uppers = st.one_of(st.none(), _BOUNDS)
    model.add_variables(names[:bulk], draw(_BOUNDS), draw(uppers),
                        draw(st.booleans()))
    for name in names[bulk:]:
        model.add_variable(name, draw(_BOUNDS), draw(uppers),
                           draw(st.booleans()))
    rows = (st.dictionaries(st.sampled_from(names), _COEFS) if names
            else st.just({}))
    model.objective = draw(rows)
    model.objective_constant = draw(st.sampled_from([-1.5, -1, 0.0, 2, 0.25]))
    for k in range(draw(st.integers(0, 6))):
        model.add_constraint("r%d" % k, draw(rows),
                             draw(st.sampled_from(["<=", ">=", "="])),
                             draw(_COEFS))
    return model


@settings(max_examples=300, deadline=None)
@given(lp_models())
def test_render_matches_oracle_on_any_model(model):
    """Fractional, negative and zero coefficients, any bounds, integer
    variables, empty objectives and any objective constant render as the
    oracle renders them, whatever order the rows list their names in."""
    assert render_lp_text(model) == naive.naive_render_lp_text(model)


# ----------------------------------------------------------------------
# arc-flow reformulation


def test_compact_graph_n2(cherry):
    g = build_compact_graph(cherry)
    assert g.nodes == [(1, 1), (1, 2), (2, 2)]
    assert g.u1 == [((1, 2), (1, 1))]
    assert g.u2 == [((1, 2), (2, 2))]
    assert g.z_leaves == [(1, 1), (2, 2)]


COMPACT_N2_TEXT = """\\ Problem: compact_lp
Minimize
 obj: x_L_a + x_L_b + y_1.2__1.1 - 1
Subject To
 floweq_1: y_1.2__1.1 - y_1.2__2.2 = 0
 outin_1: y_1.2__1.1 >= 0
 leafsat_1: x_L_a + y_1.2__1.1 = 1
 leafsat_2: x_L_b + y_1.2__2.2 = 1
 pack_1: y_1.2__1.1 <= 1
 pack_2: y_1.2__1.1 <= 1
Bounds
 0 <= x_L_a
 0 <= x_L_b
 0 <= y_1.2__1.1
 0 <= y_1.2__2.2
End
"""


def test_compact_n2_full_text(cherry):
    assert render_lp_text(build_compact_lp(cherry)) == COMPACT_N2_TEXT


def test_arborescence_for_cherry_block(fig1):
    g = build_compact_graph(fig1)
    assert arborescence_for_set(fig1, g, [0, 1]) == [
        ((1, 2), (1, 1)), ((1, 2), (2, 2))]


def test_arborescence_rejects_bad_sets(fig1):
    g = build_compact_graph(fig1)
    bad = [fig1.index_of[x] for x in ("b2", "r2", "w2")]
    with pytest.raises(ValueError, match="not compatible"):
        arborescence_for_set(fig1, g, bad)
    with pytest.raises(ValueError, match="at least two"):
        arborescence_for_set(fig1, g, [0])


def test_arborescence_leafsets_match_compatible_sets():
    pairs = [("ident4", pair_from_newick("((a,b),(c,d));", "((a,b),(c,d));"))]
    pairs += corpus(5, 12, base_seed=11)
    for name, pair in pairs:
        g = build_compact_graph(pair)
        got = arborescence_leafsets(g, pair)
        want = enumerate_compatible_sets(pair, min_size=2)
        assert got == want, name


def test_arborescence_leafsets_cap():
    pair = random_pair(7, seed=3)
    with pytest.raises(OracleCapError):
        arborescence_leafsets(build_compact_graph(pair), pair)


def test_encode_partition_points():
    for name, pair in corpus(5, 10, base_seed=23):
        model = build_compact_lp(pair)
        g = build_compact_graph(pair)
        res = run(pair)
        blocks = blocks_of(res.partition)
        point = encode_lpstar_point(pair, g, {b: 1.0 for b in blocks})
        ok, violations = check_feasible_point(model, point)
        assert ok, (name, violations)
        assert model.objective_value(point) == pytest.approx(len(blocks) - 1)


def test_encode_fig9_solver_forest(fig9):
    g = build_compact_graph(fig9)
    model = build_compact_lp(fig9, g)
    res = run(fig9)
    point = encode_lpstar_point(
        fig9, g, {b: 1.0 for b in blocks_of(res.partition)})
    ok, violations = check_feasible_point(model, point)
    assert ok, violations
    assert model.objective_value(point) == pytest.approx(5.0)


def test_encode_ignores_singletons(cherry):
    g = build_compact_graph(cherry)
    point = encode_lpstar_point(cherry, g, {(0,): 0.7, (0, 1): 1.0})
    assert point == {"y_1.2__1.1": 1.0, "y_1.2__2.2": 1.0,
                     "x_L_a": 0.0, "x_L_b": 0.0}


def test_compact_lp_optimum_equals_exponential(figs):
    """The arc-flow program is a reformulation: under HiGHS its optimum
    equals the exponential program's, between the solver's bound D and
    the exact optimum, and above Wu's relaxation where that is weak."""
    pytest.importorskip("scipy")
    from lp_solve import solve_lp

    for n in range(3, 10):
        for name, pair in corpus(n, 25):
            lp = solve_lp(build_compact_lp(pair))
            assert lp == pytest.approx(solve_lp(build_exponential_lp(pair)),
                                       abs=1e-6), name
            res = run(pair)
            opt = exact_maf(pair)
            assert res.dual_objective - 1e-6 <= lp <= opt + 1e-6, name
            assert opt <= res.value, name
    fig9 = figs["fig9"]
    lp9 = solve_lp(build_compact_lp(fig9.pair))
    assert lp9 == pytest.approx(fig9.known_lp_opt)
    assert solve_lp(build_wu_ilp(fig9.pair)) < lp9 - 1e-6
    gap = wu_gap_instance(4)
    assert solve_lp(build_wu_ilp(gap)) < solve_lp(build_compact_lp(gap)) - 1e-6


# ----------------------------------------------------------------------
# path-cutting integer program


WU_N3_TEXT = """\\ Problem: wu_ilp
Minimize
 obj: xe_0 + xe_1 + xe_2 + xe_3
Subject To
 triple_1: xe_0 + xe_1 + xe_2 + xe_3 >= 1
Bounds
 0 <= xe_0 <= 1
 0 <= xe_1 <= 1
 0 <= xe_2 <= 1
 0 <= xe_3 <= 1
General
 xe_0
 xe_1
 xe_2
 xe_3
End
"""


def test_wu_n3_full_text():
    pair = pair_from_newick("((a,b),c);", "((a,c),b);")
    assert render_lp_text(build_wu_ilp(pair)) == WU_N3_TEXT


def test_wu_shape(fig1, fig9):
    m1 = build_wu_ilp(fig1)
    assert (len(m1.variables), len(m1.constraints)) == (12, 42)
    m9 = build_wu_ilp(fig9)
    assert (len(m9.variables), len(m9.constraints)) == (14, 98)
    assert all(v.integer and v.upper == 1.0 for v in m9.variables)


def test_wu_identical_trees_has_no_rows():
    pair = pair_from_newick("((a,b),(c,d));", "((a,b),(c,d));")
    model = build_wu_ilp(pair)
    assert model.constraints == []
    assert ilp_minimum(model) == 0


def test_wu_optimum_equals_exact():
    cases = [("tri", pair_from_newick("((a,b),c);", "((a,c),b);"))]
    cases += corpus(6, 10, base_seed=31)
    for name, pair in cases:
        assert ilp_minimum(build_wu_ilp(pair)) == exact_maf(pair), name


def test_wu_optimum_on_worked_instances(fig1, fig9):
    assert ilp_minimum(build_wu_ilp(fig1)) == 3
    assert ilp_minimum(build_wu_ilp(fig9)) == 5


# ----------------------------------------------------------------------
# gap families


def test_wu_gap_instance_k2_newicks():
    pair = wu_gap_instance(2)
    assert pair.t1.to_newick() == "((00,01),(10,11));"
    assert pair.t2.to_newick() == "((00,10),(01,11));"


@pytest.mark.parametrize("k", [0, 1, 3])
def test_wu_gap_instance_rejects_bad_k(k):
    with pytest.raises(ValueError, match="even"):
        wu_gap_instance(k)


def test_wu_gap_fractional_k2():
    pair = wu_gap_instance(2)
    model = build_wu_ilp(pair)
    assert (len(model.variables), len(model.constraints)) == (6, 5)
    point = wu_gap_fractional(2)
    assert point == {"xe_0": 0.25, "xe_1": 0.25, "xe_2": 0.125,
                     "xe_3": 0.25, "xe_4": 0.25, "xe_5": 0.125}
    ok, violations = check_feasible_point(model, point)
    assert ok, violations
    assert model.objective_value(point) == 1.25
    assert exact_maf(pair) == 2
    assert ilp_minimum(model) == 2


def test_wu_gap_fractional_k4():
    model = build_wu_ilp(wu_gap_instance(4))
    assert (len(model.variables), len(model.constraints)) == (30, 1884)
    point = wu_gap_fractional(4)
    ok, violations = check_feasible_point(model, point)
    assert ok, violations
    assert model.objective_value(point) == 5.0 == 5 * 16 / 16


# ----------------------------------------------------------------------
# worked instances registry


def test_fig_instances_metadata():
    figs = fig_instances()
    assert sorted(figs) == ["fig1", "fig9"]
    for name, inst in figs.items():
        assert inst.name == name
        assert inst.pair.t1.to_newick() == inst.newick1
        assert inst.pair.t2.to_newick() == inst.newick2
    assert figs["fig9"].known_opt == 5
    assert figs["fig9"].known_lp_opt == 4
    assert figs["fig1"].known_opt is None
    assert sum(figs["fig9"].fractional.values()) == 5.0
