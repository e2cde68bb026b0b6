"""Linear-programming views of the agreement forest problem.

Three formulations are built as plain data models: the exponential
covering/packing program with one variable per compatible leaf set, a
polynomially sized arc-flow reformulation of it over a DAG of leaf
pairs, and a path-cutting integer program over the first tree's edges.
The module also generates the instance families with known fractional
solutions used to probe the formulations' integrality gaps, verifies
given points against a model, and serializes models as LP files.  No
solving happens here; models are meant for external solvers and for
point verification in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .tree_model import (
    InvariantError,
    OracleCapError,
    incompatible_triples,
    internal_mask,
    internal_span,
    leaf_path_masks,
    pair_from_newick,
)

ENUMERATION_CAP = 15
# Leaf count above which arborescences are not enumerated: every
# combination of arcs is tried, which only tests need.
ARBORESCENCE_CAP = 6
# Leaf counts above which the path-cutting ILP (O(n^4) rows) and the
# arc-flow LP (O(n^3) arcs) are refused up front; at the caps each
# takes about a second to build.
WU_ILP_CAP = 40
COMPACT_LP_CAP = 120
# Largest gap-family order built: the pair has 2^k leaves, so the
# limit is 65,536 leaves and larger orders are refused up front.
WU_GAP_MAX_ORDER = 16


@dataclass
class LpVariable:
    name: str
    lower: float = 0.0
    upper: float | None = None
    integer: bool = False


@dataclass
class LpConstraint:
    name: str
    coefs: dict
    sense: str
    rhs: float


@dataclass
class LpModel:
    """Sparse linear program: variables, rows, and a linear objective."""

    name: str
    variables: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)
    objective_constant: float = 0.0
    sense: str = "min"

    def __post_init__(self):
        self._var_index = {v.name: k for k, v in enumerate(self.variables)}
        self._row_names = {c.name for c in self.constraints}

    def add_variable(self, name, lower=0.0, upper=None, integer=False):
        if name in self._var_index:
            raise ValueError("duplicate variable %r" % name)
        self._var_index[name] = len(self.variables)
        self.variables.append(LpVariable(name, lower, upper, integer))

    def add_constraint(self, name, coefs, sense, rhs):
        if name in self._row_names:
            raise ValueError("duplicate constraint %r" % name)
        if sense not in ("<=", ">=", "="):
            raise ValueError("bad sense %r" % sense)
        for var in coefs:
            if var not in self._var_index:
                raise ValueError("constraint %r references unknown variable %r"
                                 % (name, var))
        self._row_names.add(name)
        self.constraints.append(LpConstraint(name, dict(coefs), sense, rhs))

    def has_variable(self, name):
        return name in self._var_index

    def objective_value(self, assignment):
        total = self.objective_constant
        for var, coef in self.objective.items():
            total += coef * assignment.get(var, 0.0)
        return total


def check_feasible_point(model, assignment, tolerance=1e-9):
    """Validate a point against bounds and rows of a model.

    Unknown variable names in the assignment raise ValueError; missing
    variables count as zero.  Returns (ok, violations) where each
    violation is a human-readable string naming the bound or row.
    """
    for var in assignment:
        if not model.has_variable(var):
            raise ValueError("unknown variable %r" % var)
    violations = []
    for v in model.variables:
        val = assignment.get(v.name, 0.0)
        if val < v.lower - tolerance:
            violations.append("%s = %r below lower bound %r"
                              % (v.name, val, v.lower))
        if v.upper is not None and val > v.upper + tolerance:
            violations.append("%s = %r above upper bound %r"
                              % (v.name, val, v.upper))
    for row in model.constraints:
        lhs = sum(coef * assignment.get(var, 0.0)
                  for var, coef in row.coefs.items())
        bad = ((row.sense == "<=" and lhs > row.rhs + tolerance)
               or (row.sense == ">=" and lhs < row.rhs - tolerance)
               or (row.sense == "=" and abs(lhs - row.rhs) > tolerance))
        if bad:
            violations.append("%s: %r %s %r violated"
                              % (row.name, lhs, row.sense, row.rhs))
    return (not violations, violations)


def _num(x):
    if x == int(x):
        return str(int(x))
    return repr(float(x))


def _terms(model, coefs):
    """Signed terms of a row in variable order; zero coefficients and
    names that are not variables are left out."""
    index = model._var_index
    parts = []
    for name in sorted([name for name in coefs if name in index],
                       key=index.__getitem__):
        coef = coefs[name]
        if coef == 1:
            parts.append("+ " + name)
        elif coef == -1:
            parts.append("- " + name)
        elif coef:
            parts.append("%s %s %s" % ("+" if coef > 0 else "-",
                                       _num(abs(coef)), name))
    if parts and parts[0][0] == "+":
        parts[0] = parts[0][2:]
    return parts


def render_lp_text(model):
    """Deterministic LP-format text for a model."""
    lines = ["\\ Problem: %s" % model.name, "Minimize"]
    obj = _terms(model, model.objective)
    c = model.objective_constant
    if c or not obj:
        obj.append(("+ " if c >= 0 else "- ") + _num(abs(c))
                   if obj else _num(c))
    lines.append(" obj: " + " ".join(obj))
    lines.append("Subject To")
    for row in model.constraints:
        lines.append(" %s: %s %s %s" % (
            row.name, " ".join(_terms(model, row.coefs)),
            row.sense if row.sense != "=" else "=", _num(row.rhs)))
    lines.append("Bounds")
    for v in model.variables:
        if v.upper is None:
            lines.append(" %s <= %s" % (_num(v.lower), v.name))
        else:
            lines.append(" %s <= %s <= %s" % (_num(v.lower), v.name,
                                              _num(v.upper)))
    integers = [v.name for v in model.variables if v.integer]
    if integers:
        lines.append("General")
        for name in integers:
            lines.append(" " + name)
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp_file(model, destination):
    with open(destination, "w", newline="\n") as out:
        out.write(render_lp_text(model))


def compatible_set_table(pair):
    """Every compatible leaf set with the internal nodes it spans.

    Returns ``(sets, span1, span2)``: the sorted leaf-index tuples in
    lexicographic order, without the empty set, and for each tree t a
    list whose k-th entry ``span<t>[k]`` is the bit set of the internal
    nodes on the leaf paths of ``sets[k]`` (see :func:`internal_span`).
    The table is built on first use and kept on the pair, so the
    certificate check of every iteration, the enumeration and the
    exponential LP share it.  Refuses more than ``ENUMERATION_CAP``
    leaves.
    """
    if pair.n > ENUMERATION_CAP:
        raise OracleCapError(
            "compatible-set enumeration is capped at %d leaves (got %d)"
            % (ENUMERATION_CAP, pair.n))
    if pair._compatible_sets is None:
        pair._compatible_sets = _search_compatible_sets(pair)
    return pair._compatible_sets


def _search_compatible_sets(pair):
    """Depth-first search behind :func:`compatible_set_table`.

    A leaf set induces the same shape in both trees exactly when every
    one of its triples does, so the search extends partial sets leaf by
    leaf and abandons a branch at the first incompatible triple.  The
    edges a set spans grow with it: each new leaf adds its path to the
    set's first leaf.  The search keeps an explicit stack: a recursive
    closure would form a reference cycle that keeps the table alive
    until the cyclic collector runs, long after the pair is gone.
    """
    n = pair.n
    bad = incompatible_triples(pair)
    p1 = leaf_path_masks(pair, 1)
    p2 = leaf_path_masks(pair, 2)
    inner1 = internal_mask(pair.t1)
    inner2 = internal_mask(pair.t2)
    sets = []
    span1 = []
    span2 = []
    # Extensions are pushed in descending leaf order, so sets come off
    # the stack in lexicographic order.
    stack = [((leaf,), 0, 0) for leaf in range(n - 1, -1, -1)]
    while stack:
        chosen, edges1, edges2 = stack.pop()
        sets.append(chosen)
        span1.append(internal_span(edges1, inner1))
        span2.append(internal_span(edges2, inner2))
        row1 = p1[chosen[0]]
        row2 = p2[chosen[0]]
        for leaf in range(n - 1, chosen[-1], -1):
            for x, y in combinations(chosen, 2):
                if (x, y, leaf) in bad:
                    break
            else:
                stack.append((chosen + (leaf,), edges1 | row1[leaf],
                              edges2 | row2[leaf]))
    return sets, span1, span2


def enumerate_compatible_sets(pair, min_size=1):
    """All compatible leaf sets with at least ``min_size`` leaves.

    Returns sorted index tuples in lexicographic order, read from
    :func:`compatible_set_table` (the empty set comes first when
    ``min_size`` is 0).  Refuses more than ``ENUMERATION_CAP`` leaves.
    """
    sets = compatible_set_table(pair)[0]
    empty = [()] if min_size <= 0 else []
    return empty + [leaves for leaves in sets if len(leaves) >= min_size]


def _bits(mask):
    """Positions of the set bits of a nonnegative integer, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _set_var_name(pair, leaves):
    return "x_L_" + ".".join(pair.labels[i] for i in sorted(leaves))


def build_exponential_lp(pair):
    """Covering/packing program with one variable per compatible set.

    Minimizes the number of chosen sets minus one, subject to each leaf
    lying in exactly one chosen set and each internal node of either
    tree being spanned by at most one.
    """
    table = compatible_set_table(pair)
    sets = table[0]
    model = LpModel("exponential_lp")
    model.objective_constant = -1.0
    leaf_rows = [dict() for _ in range(pair.n)]
    names = []
    for leaves in sets:
        name = _set_var_name(pair, leaves)
        names.append(name)
        model.add_variable(name)
        model.objective[name] = 1.0
        for i in leaves:
            leaf_rows[i][name] = 1.0
    for i in range(pair.n):
        model.add_constraint("leaf_%d" % (i + 1), leaf_rows[i], "=", 1.0)
    ordinal = 0
    for t in (1, 2):
        left = pair.tree(t).left
        spans = table[t]
        for v in range(len(left)):
            if left[v] < 0:
                continue
            row = {name: 1.0 for name, span in zip(names, spans)
                   if span >> v & 1}
            if row:
                ordinal += 1
                model.add_constraint("pack_%d" % ordinal, row, "<=", 1.0)
    return model


@dataclass
class CompactLpGraph:
    """DAG over leaf pairs whose arborescences encode compatible sets.

    Nodes are pairs (i1, i2) of 1-based leaf positions with i1 <= i2;
    the diagonal nodes stand for single leaves.  An arc points from a
    pair to a pair whose meeting node lies strictly lower in both
    trees; arcs keeping the first leaf form one class, arcs moving to
    the second leaf the other.
    """

    nodes: list
    u1: list
    u2: list
    z_leaves: list


def build_compact_graph(pair):
    n = pair.n
    if n > COMPACT_LP_CAP:
        raise OracleCapError(
            "arc-flow LP is capped at COMPACT_LP_CAP = %d leaves (got %d)"
            % (COMPACT_LP_CAP, n))
    t1, t2 = pair.t1, pair.t2
    node1 = pair.leaf_node1
    node2 = pair.leaf_node2
    lca1 = [[0] * n for _ in range(n)]
    lca2 = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            lca1[i][j] = t1.lca(node1[i], node1[j])
            lca2[i][j] = t2.lca(node2[i], node2[j])

    def strictly_below(tree, d, a):
        return d != a and tree.is_ancestor(a, d)

    nodes = [(i + 1, j + 1) for i in range(n) for j in range(i, n)]
    nodes.sort()
    u1 = []
    u2 = []
    for (i1, i2) in nodes:
        if i1 == i2:
            continue
        a1 = lca1[i1 - 1][i2 - 1]
        a2 = lca2[i1 - 1][i2 - 1]
        for head, arcs in ((i1, u1), (i2, u2)):
            for m in range(head, n + 1):
                if (strictly_below(t1, lca1[head - 1][m - 1], a1)
                        and strictly_below(t2, lca2[head - 1][m - 1], a2)):
                    arcs.append(((i1, i2), (head, m)))
    return CompactLpGraph(
        nodes=nodes, u1=u1, u2=u2,
        z_leaves=[(i + 1, i + 1) for i in range(n)])


def _arc_name(arc):
    (i1, i2), (j1, j2) = arc
    return "y_%d.%d__%d.%d" % (i1, i2, j1, j2)


def build_compact_lp(pair, graph=None):
    """Arc-flow reformulation of the exponential program.

    Variables are one flow per DAG arc plus one saturation variable per
    leaf; the flow rows force arc supports to decompose into the
    arborescences that encode compatible sets, and the packing rows cap
    the total flow rooted at any internal tree node.  Refuses more than
    ``COMPACT_LP_CAP`` leaves.
    """
    if graph is None:
        graph = build_compact_graph(pair)
    n = pair.n
    model = LpModel("compact_lp")
    model.objective_constant = -1.0
    xnames = []
    for i in range(n):
        name = "x_L_" + pair.labels[i]
        xnames.append(name)
        model.add_variable(name)
        model.objective[name] = 1.0
    out1 = {}
    out2 = {}
    into = {}
    for arcs, out in ((graph.u1, out1), (graph.u2, out2)):
        for arc in arcs:
            name = _arc_name(arc)
            model.add_variable(name)
            out.setdefault(arc[0], []).append(name)
            into.setdefault(arc[1], []).append(name)

    diagonal = set(graph.z_leaves)
    for r in graph.nodes:
        if r in diagonal:
            continue
        for name in out1.get(r, ()):
            model.objective[name] = model.objective.get(name, 0.0) + 1.0
        for name in into.get(r, ()):
            model.objective[name] = model.objective.get(name, 0.0) - 1.0

    ordinal = 0
    for r in graph.nodes:
        if r in diagonal:
            continue
        coefs = {}
        for name in out1.get(r, ()):
            coefs[name] = coefs.get(name, 0.0) + 1.0
        for name in out2.get(r, ()):
            coefs[name] = coefs.get(name, 0.0) - 1.0
        if coefs:
            ordinal += 1
            model.add_constraint("floweq_%d" % ordinal, coefs, "=", 0.0)
    ordinal = 0
    for r in graph.nodes:
        if r in diagonal:
            continue
        coefs = {}
        for name in out1.get(r, ()):
            coefs[name] = coefs.get(name, 0.0) + 1.0
        for name in into.get(r, ()):
            coefs[name] = coefs.get(name, 0.0) - 1.0
        if coefs:
            ordinal += 1
            model.add_constraint("outin_%d" % ordinal, coefs, ">=", 0.0)
    for i in range(n):
        coefs = {xnames[i]: 1.0}
        for name in into.get((i + 1, i + 1), ()):
            coefs[name] = 1.0
        model.add_constraint("leafsat_%d" % (i + 1), coefs, "=", 1.0)

    by_lca1 = {}
    by_lca2 = {}
    for r in graph.nodes:
        if r in diagonal:
            continue
        names = out1.get(r, ())
        if not names:
            continue
        v1 = pair.lca_of_leaves(1, (r[0] - 1, r[1] - 1))
        v2 = pair.lca_of_leaves(2, (r[0] - 1, r[1] - 1))
        by_lca1.setdefault(v1, []).extend(names)
        by_lca2.setdefault(v2, []).extend(names)
    ordinal = 0
    for rows in (by_lca1, by_lca2):
        for v in sorted(rows):
            ordinal += 1
            model.add_constraint(
                "pack_%d" % ordinal, {name: 1.0 for name in rows[v]},
                "<=", 1.0)
    return model


def arborescence_for_set(pair, graph, leaves):
    """Arc set encoding one compatible leaf set, rooted at its label.

    Walks the first tree's shape restricted to the set; every internal
    node becomes the pair (smallest leaf under one child, smallest
    under the other) and sends one arc into each child's label.  Raises
    ValueError when the set is not compatible (the arcs then do not all
    exist in the graph).
    """
    leaves = sorted(leaves)
    if len(leaves) < 2:
        raise ValueError("arborescences encode sets of at least two leaves")
    u1set = set(graph.u1)
    u2set = set(graph.u2)
    t1 = pair.t1
    node1 = pair.leaf_node1
    arcs = []

    def rec(subset):
        if len(subset) == 1:
            i = subset[0] + 1
            return (i, i)
        u = pair.lca_of_leaves(1, subset)
        lchild = t1.left[u]
        lo = t1.subtree_min[lchild]
        left_part = [i for i in subset if lo <= node1[i] <= lchild]
        right_part = [i for i in subset if not lo <= node1[i] <= lchild]
        s_left = rec(left_part)
        s_right = rec(right_part)
        i1 = min(s_left[0], s_right[0])
        i2 = max(s_left[0], s_right[0])
        r = (i1, i2)
        first, second = ((s_left, s_right) if s_left[0] == i1
                         else (s_right, s_left))
        if (r, first) not in u1set or (r, second) not in u2set:
            raise ValueError("leaf set is not compatible")
        arcs.append((r, first))
        arcs.append((r, second))
        return r

    rec(leaves)
    return arcs


def encode_lpstar_point(pair, graph, weights):
    """Map weights on compatible sets to a point of the arc-flow model.

    Every set of two or more leaves contributes its weight along the
    arcs of its encoding arborescence; the per-leaf saturation values
    are then forced by the leaf rows, so singleton weights in the input
    are ignored.  Returns a variable assignment.
    """
    point = {}
    incoming = [0.0] * pair.n
    for leaves, weight in sorted(
            (tuple(sorted(s)), w) for s, w in weights.items()):
        if len(leaves) < 2 or not weight:
            continue
        for arc in arborescence_for_set(pair, graph, leaves):
            name = _arc_name(arc)
            point[name] = point.get(name, 0.0) + weight
            if arc[1][0] == arc[1][1]:
                incoming[arc[1][0] - 1] += weight
    for i in range(pair.n):
        point["x_L_" + pair.labels[i]] = 1.0 - incoming[i]
    return point


def arborescence_leafsets(graph, pair):
    """Leaf sets of every arborescence the DAG admits, with multiplicity.

    Exhaustively combines, for each non-diagonal node, one outgoing arc
    of each class with the enumerations below the two targets; the two
    sub-arborescences of distinct targets can never share a leaf, which
    is asserted.  Returns sorted index tuples, sorted.  Refuses more
    than ``ARBORESCENCE_CAP`` leaves.
    """
    if pair.n > ARBORESCENCE_CAP:
        raise OracleCapError(
            "arborescence enumeration is capped at %d leaves (got %d)"
            % (ARBORESCENCE_CAP, pair.n))
    out1 = {}
    out2 = {}
    for arcs, out in ((graph.u1, out1), (graph.u2, out2)):
        for r, s in arcs:
            out.setdefault(r, []).append(s)
    memo = {}

    def sets(r):
        if r[0] == r[1]:
            return [frozenset((r[0],))]
        if r in memo:
            return memo[r]
        found = []
        for s1 in out1.get(r, ()):
            for s2 in out2.get(r, ()):
                for a in sets(s1):
                    for b in sets(s2):
                        if a & b:
                            raise InvariantError(
                                "child arborescences share a leaf")
                        found.append(a | b)
        memo[r] = found
        return found

    result = []
    for r in graph.nodes:
        if r[0] == r[1]:
            continue
        for leafset in sets(r):
            result.append(tuple(sorted(i - 1 for i in leafset)))
    return sorted(result)


def build_wu_ilp(pair):
    """Path-cutting integer program over the first tree's edges.

    One binary variable per edge (named by its child node).  Every
    incompatible triple forces a cut on the union of its three pairwise
    paths in the first tree; every pair of leaf pairs whose paths are
    disjoint in the first tree but cross in the second forces a cut on
    one of the two first-tree paths.  Refuses more than ``WU_ILP_CAP``
    leaves.
    """
    n = pair.n
    if n > WU_ILP_CAP:
        raise OracleCapError(
            "path-cutting ILP is capped at WU_ILP_CAP = %d leaves (got %d)"
            % (WU_ILP_CAP, n))
    names = ["xe_%d" % v for v in range(pair.t1.n_nodes - 1)]
    model = LpModel("wu_ilp")
    for name in names:
        model.add_variable(name, 0.0, 1.0, integer=True)
        model.objective[name] = 1.0

    def cut(row, mask):
        model.add_constraint(
            row, {names[v]: 1.0 for v in _bits(mask)}, ">=", 1.0)

    p1 = leaf_path_masks(pair, 1)
    p2 = leaf_path_masks(pair, 2)
    for ordinal, (i, j, k) in enumerate(
            sorted(incompatible_triples(pair)), 1):
        cut("triple_%d" % ordinal, p1[i][j] | p1[i][k] | p1[j][k])
    duos = list(combinations(range(n), 2))
    ordinal = 0
    for (i, j), (k, l) in combinations(duos, 2):
        if p2[i][j] & p2[k][l] and not p1[i][j] & p1[k][l]:
            ordinal += 1
            cut("cross_%d" % ordinal, p1[i][j] | p1[k][l])
    return model


def _complete_tree_newick(k, reverse):
    def sub(path):
        if len(path) == k:
            return path[::-1] if reverse else path
        return "(%s,%s)" % (sub(path + "0"), sub(path + "1"))

    return sub("") + ";"


def wu_gap_instance(k):
    """Tree pair on 2^k leaves with a known weak fractional point.

    Both trees are complete binaries over all binary strings of length
    k; the first places leaves in string order, the second in order of
    the reversed strings.  Requires even k with 2 <= k <=
    WU_GAP_MAX_ORDER.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be even and at least 2")
    if k > WU_GAP_MAX_ORDER:
        raise ValueError(
            "gap family order %d exceeds the limit WU_GAP_MAX_ORDER = %d "
            "(2^%d leaves)" % (k, WU_GAP_MAX_ORDER, WU_GAP_MAX_ORDER))
    return pair_from_newick(_complete_tree_newick(k, False),
                            _complete_tree_newick(k, True))


def wu_gap_fractional(k):
    """Fractional point for the path-cutting program on the gap pair.

    A quarter on every leaf edge and an eighth on every edge whose
    lower end has exactly two leaves below; the objective comes to
    five sixteenths of the leaf count.
    """
    pair = wu_gap_instance(k)
    t1 = pair.t1
    point = {}
    for v in range(t1.n_nodes - 1):
        if t1.left[v] < 0:
            point["xe_%d" % v] = 0.25
        elif v - t1.subtree_min[v] + 1 == 3:
            point["xe_%d" % v] = 0.125
    return point


@dataclass
class FigInstance:
    """Worked example pair with its known reference values."""

    name: str
    newick1: str
    newick2: str
    pair: object
    known_opt: int | None = None
    known_lp_opt: int | None = None
    fractional: dict | None = None


FIG1_NEWICK1 = "((((b1,b2),(r1,r2)),(w1,w2)),w3);"
FIG1_NEWICK2 = "((((b1,r1),(b2,w1)),(r2,w2)),w3);"
FIG9_NEWICK1 = "(((((((1,2),3),4),5),6),7),8);"
FIG9_NEWICK2 = "((((1,5),8),(2,7)),((3,6),4));"


def fig9_fractional_point():
    """Half weight on three crossing triples and on all singletons but
    the shared leaf; feasible for the exponential program at value 4."""
    point = {}
    for labels in (("1", "2", "3"), ("1", "5", "8"), ("4", "6", "7")):
        point["x_L_" + ".".join(labels)] = 0.5
    for leaf in "2345678":
        point["x_L_" + leaf] = 0.5
    return point


def fig_instances():
    """The two worked example instances keyed ``fig1`` and ``fig9``."""
    fig1 = FigInstance(
        name="fig1", newick1=FIG1_NEWICK1, newick2=FIG1_NEWICK2,
        pair=pair_from_newick(FIG1_NEWICK1, FIG1_NEWICK2))
    fig9 = FigInstance(
        name="fig9", newick1=FIG9_NEWICK1, newick2=FIG9_NEWICK2,
        pair=pair_from_newick(FIG9_NEWICK1, FIG9_NEWICK2),
        known_opt=5, known_lp_opt=4, fractional=fig9_fractional_point())
    return {"fig1": fig1, "fig9": fig9}
