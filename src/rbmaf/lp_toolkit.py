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

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, compress, repeat, starmap
from math import inf, isfinite, isnan
from operator import add, eq, itemgetter, ne
from string import ascii_letters, digits
from typing import NamedTuple

from .tree_model import (
    InvariantError,
    OracleCapError,
    _sorted_triples,
    conflict_masks,
    internal_mask,
    internal_span,
    leaf_path_masks,
    meet_matrix,
    pair_from_newick,
)

ENUMERATION_CAP = 15
# Leaf count above which arborescences are not enumerated: every
# combination of arcs is tried, which only tests need.
ARBORESCENCE_CAP = 6
# Leaf counts above which the path-cutting ILP (O(n^4) rows) and the
# arc-flow LP (O(n^3) arcs) are refused up front; at the caps each
# takes about a second to build.  The arc-flow LP's pack rows hold each
# arc once per tree node its path passes, so at 120 leaves a random
# pair's model has 1.5M to 2.2M nonzeros.
WU_ILP_CAP = 40
COMPACT_LP_CAP = 120
# Largest gap-family order built: the pair has 2^k leaves, so the
# limit is 65,536 leaves and larger orders are refused up front.
WU_GAP_MAX_ORDER = 16
# Besides ASCII letters and digits, the CPLEX LP name characters that a
# Newick label can hold; an LP reader splits a name at - or +, say.
_LP_NAME_PUNCTUATION = '!"#$%&/.?@_`{}|~'


def _check_lp_labels(pair, punctuation):
    """Raise ValueError on the first leaf label holding a character
    other than an ASCII letter, a digit or one of ``punctuation``."""
    allowed = frozenset(ascii_letters + digits + punctuation)
    for label in pair.labels:
        for ch in label:
            if ch not in allowed:
                raise ValueError(
                    "leaf label %r holds %r, which an LP variable name "
                    "cannot carry: labels may hold ASCII letters, digits "
                    "and %s" % (label, ch, punctuation))


# Variables and rows are named tuples, so that a model builds them in
# bulk with tuple.__new__ (as _make does) and no Python call each.
class LpVariable(NamedTuple):
    name: str
    lower: float = 0.0
    upper: float | None = None
    integer: bool = False


class LpConstraint(NamedTuple):
    name: str
    coefs: dict
    sense: str
    rhs: float


def _records(cls, *columns):
    """One ``cls`` tuple per position of the columns, in order."""
    return list(map(tuple.__new__, repeat(cls), zip(*columns)))


@dataclass
class LpModel:
    """Sparse linear program: variables, rows, and a linear objective to
    minimize.

    Variables and rows given to the constructor are checked as
    :meth:`add_variables` and :meth:`add_constraint` check them.
    """

    name: str
    variables: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)
    objective_constant: float = 0.0

    def __post_init__(self):
        self._var_index = {}
        self._row_names = set()
        variables, self.variables = self.variables, []
        constraints, self.constraints = self.constraints, []
        self._extend_variables([v.name for v in variables], variables)
        for row in constraints:
            self.add_constraint(row.name, row.coefs, row.sense, row.rhs)

    def add_variable(self, name, lower=0.0, upper=None, integer=False):
        self._extend_variables([name],
                               [LpVariable(name, lower, upper, integer)])

    def add_variables(self, names, lower=0.0, upper=None, integer=False):
        """Add one variable per name, all with the same bounds."""
        names = list(names)
        self._extend_variables(names, _records(
            LpVariable, names, repeat(lower), repeat(upper), repeat(integer)))

    def _extend_variables(self, names, variables):
        index = self._var_index
        if len(set(names)) < len(names) or not index.keys().isdisjoint(names):
            seen = set(index)
            for name in names:
                if name in seen:
                    raise ValueError("duplicate variable %r" % name)
                seen.add(name)
        index.update(zip(names, range(len(index), len(index) + len(names))))
        self.variables.extend(variables)

    def add_constraint(self, name, coefs, sense, rhs):
        if name in self._row_names:
            raise ValueError("duplicate constraint %r" % name)
        if sense not in ("<=", ">=", "="):
            raise ValueError("bad sense %r" % sense)
        coefs = dict(coefs)
        if not coefs.keys() <= self._var_index.keys():
            raise ValueError("constraint %r references unknown variable %r"
                             % (name, _unknown(coefs, self._var_index)))
        self._row_names.add(name)
        self.constraints.append(LpConstraint(name, coefs, sense, rhs))

    def add_constraints(self, prefix, rows, sense, rhs):
        """Add rows named ``prefix_1``, ``prefix_2``, ... in order, all
        with the same sense and right-hand side.

        ``rows`` are dicts, kept as given rather than copied.  Same as
        calling :meth:`add_constraint` on each row otherwise, which is
        what happens, to name the offender, when a check fails.
        """
        rows = list(rows)
        names = [f"{prefix}_{k}" for k in range(1, len(rows) + 1)]
        if (sense not in ("<=", ">=", "=")
                or not self._row_names.isdisjoint(names)
                or not self._var_index.keys() >= set().union(*rows)):
            for name, coefs in zip(names, rows):
                self.add_constraint(name, coefs, sense, rhs)
        else:
            self._row_names.update(names)
            self.constraints += _records(
                LpConstraint, names, rows, repeat(sense), repeat(rhs))

    def has_variable(self, name):
        return name in self._var_index

    def nonzeros(self):
        """Number of nonzero coefficients over all rows."""
        return sum(1 for row in self.constraints
                   for coef in row.coefs.values() if coef)

    def objective_value(self, assignment):
        total = self.objective_constant
        for var, coef in self.objective.items():
            total += coef * assignment.get(var, 0.0)
        return total


def _unknown(coefs, index):
    """First name in coefs that is not a key of index."""
    return next(name for name in coefs if name not in index)


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


class _NumText(dict):
    """LP text of each number, computed once per distinct value."""

    def __missing__(self, x):
        text = self[x] = _num(x)
        return text


_SIGN = {1.0: "+ ", -1.0: "- "}


def _signed_terms(coefs, names):
    """Terms of a row given its names in variable order, zero
    coefficients left out.  Rows of +-1 are joined without a Python loop
    over their terms."""
    signs = list(map(_SIGN.get, map(coefs.__getitem__, names)))
    if None in signs:  # zeros or coefficients other than +-1
        values = list(map(coefs.__getitem__, names))
        names = list(compress(names, values))
        signs = [_SIGN.get(coef) or "%s %s " % ("+" if coef > 0 else "-",
                                                 _num(abs(coef)))
                 for coef in filter(None, values)]
    text = " ".join(map(add, signs, names))
    return text[2:] if text[:1] == "+" else text


def render_lp_text(model):
    """Deterministic LP-format text for a model, in time linear in its
    rows, variables and nonzeros.

    Terms are written in variable order.  A row whose coefficients are
    all 1, as most rows of the builders are, is one join over its names.
    Infinite bounds are written ``inf`` and ``-inf``; any other
    infinity, and any NaN, raises ValueError naming where it stands.
    """
    index = model._var_index
    position = index.__getitem__
    num = _NumText()
    objective = model.objective
    if not objective.keys() <= index.keys():
        raise ValueError("objective references unknown variable %r"
                         % _unknown(objective, index))
    try:
        names = sorted(objective, key=position)
        obj = (" + ".join(names)
               if list(objective.values()).count(1.0) == len(names)
               else _signed_terms(objective, names))
        c = model.objective_constant
        if c or not obj:
            obj = (obj + (" + " if c >= 0 else " - ") + num[abs(c)]
                   if obj else num[c])
        lines = ["\\ Problem: %s" % model.name, "Minimize", " obj: " + obj,
                 "Subject To"]
        append = lines.append
        for name, coefs, sense, rhs in model.constraints:
            names = sorted(coefs, key=position)
            if list(coefs.values()).count(1.0) == len(names):
                append(f" {name}: {' + '.join(names)} {sense} {num[rhs]}")
            else:
                append(f" {name}: {_signed_terms(coefs, names)} {sense} "
                       f"{num[rhs]}")
        append("Bounds")
        bound = _NumText({inf: "inf", -inf: "-inf"})
        lines += [f" {bound[lower]} <= {name}" if upper is None
                  else f" {bound[lower]} <= {name} <= {bound[upper]}"
                  for name, lower, upper, _ in model.variables]
    except KeyError:  # a row was changed after it was added
        row = next(row for row in model.constraints
                   if not row.coefs.keys() <= index.keys())
        raise ValueError("constraint %r references unknown variable %r"
                         % (row.name, _unknown(row.coefs, index))) from None
    except (OverflowError, ValueError):  # from int() in _num
        raise ValueError(_non_finite(model)) from None
    integers = [" " + name for name, _, _, integer in model.variables
                if integer]
    if integers:
        append("General")
        lines += integers
    append("End")
    append("")
    return "\n".join(lines)


def _non_finite(model):
    """Where the first NaN, or infinity outside a bound, stands."""
    numbers = [("objective coefficient of %r" % var, coef)
               for var, coef in model.objective.items()]
    numbers.append(("objective constant", model.objective_constant))
    for name, coefs, _, rhs in model.constraints:
        numbers += [("constraint %r: coefficient of %r" % (name, var), coef)
                    for var, coef in coefs.items()]
        numbers.append(("constraint %r: right-hand side" % name, rhs))
    numbers += [("variable %r: bound" % name, bound)
                for name, *bounds, _ in model.variables
                for bound in bounds if bound is not None and isnan(bound)]
    return next("%s is %r: LP text takes finite numbers, and infinities "
                "only as bounds" % (where, x)
                for where, x in numbers if not isfinite(x))


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
    leaf, skipping those barred by the OR of the :func:`conflict_masks`
    of the set's leaf pairs.  The edges a set spans grow with it: each
    new leaf adds its path to the set's first leaf.  The search keeps an
    explicit stack: a recursive closure would form a reference cycle
    that keeps the table alive until the cyclic collector runs.
    """
    n = pair.n
    conf = conflict_masks(pair)
    p1 = leaf_path_masks(pair, 1)
    p2 = leaf_path_masks(pair, 2)
    inner1 = internal_mask(pair.t1)
    inner2 = internal_mask(pair.t2)
    sets = []
    span1 = []
    span2 = []
    # Extensions are pushed in descending leaf order, so sets come off
    # the stack in lexicographic order.
    stack = [((leaf,), 0, 0, 0) for leaf in range(n - 1, -1, -1)]
    while stack:
        chosen, edges1, edges2, barred = stack.pop()
        sets.append(chosen)
        span1.append(internal_span(edges1, inner1))
        span2.append(internal_span(edges2, inner2))
        row1 = p1[chosen[0]]
        row2 = p2[chosen[0]]
        free = ~barred & (1 << n) - (2 << chosen[-1])  # leaves above
        while free:
            leaf = free.bit_length() - 1
            free ^= 1 << leaf
            bar, cross = barred, conf[leaf]
            for x in chosen:
                bar |= cross[x]
            stack.append((chosen + (leaf,), edges1 | row1[leaf],
                          edges2 | row2[leaf], bar))
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


_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_matrix(masks, width):
    """Bits 0 to width - 1 of each nonnegative integer, low bit first,
    as one bytes of 0s and 1s with ``width + 1`` entries per integer.

    ``flags[k * (width + 1):][:width]`` is the k-th integer's row and
    ``flags[v::width + 1]`` the column of bit v; both select with
    :func:`itertools.compress`.
    """
    top = 1 << width
    return ("".join([bin(mask | top)[:1:-1] for mask in masks]).encode()
            .translate(_FLAG_BYTES))


def build_exponential_lp(pair):
    """Covering/packing program with one variable per compatible set.

    Minimizes the number of chosen sets minus one, subject to each leaf
    lying in exactly one chosen set and each internal node of either
    tree being spanned by at most one.  Refuses a leaf label that an LP
    name cannot carry, or that holds ``.``, with which a set's variable
    joins its labels.
    """
    _check_lp_labels(pair, _LP_NAME_PUNCTUATION.replace(".", ""))
    sets, span1, span2 = compatible_set_table(pair)
    labels = pair.labels
    names = ["x_L_" + ".".join(map(labels.__getitem__, leaves))
             for leaves in sets]
    model = LpModel("exponential_lp", objective=dict.fromkeys(names, 1.0),
                    objective_constant=-1.0)
    model.add_variables(names)
    # A loop over each set's few leaves measured faster here than
    # selecting every leaf's row from all sets.
    leaf_rows = [{} for _ in range(pair.n)]
    for name, leaves in zip(names, sets):
        for i in leaves:
            leaf_rows[i][name] = 1.0
    model.add_constraints("leaf", leaf_rows, "=", 1.0)
    packs = []
    for tree, spans in ((pair.t1, span1), (pair.t2, span2)):
        width = tree.n_nodes
        flags = _bit_matrix(spans, width)
        packs += [dict.fromkeys(compress(names, flags[v::width + 1]), 1.0)
                  for v in range(width) if tree.left[v] >= 0]
    model.add_constraints("pack", filter(None, packs), "<=", 1.0)
    return model


@dataclass
class CompactLpGraph:
    """DAG over leaf pairs whose arborescences encode compatible sets.

    Nodes are pairs (i1, i2) of 1-based leaf positions with i1 <= i2;
    the diagonal nodes stand for single leaves.  An arc points from a
    pair to a pair whose meeting node lies strictly lower in both
    trees; arcs keeping the first leaf form one class, arcs moving to
    the second leaf the other.  ``meet1[i][j]`` and ``meet2[i][j]`` are
    the nodes where the leaves at 0-based positions i and j meet in
    each tree.
    """

    nodes: list
    u1: list
    u2: list
    z_leaves: list
    meet1: list
    meet2: list


def build_compact_graph(pair):
    n = pair.n
    if n > COMPACT_LP_CAP:
        raise OracleCapError(
            "arc-flow LP is capped at COMPACT_LP_CAP = %d leaves (got %d)"
            % (COMPACT_LP_CAP, n))
    meet1 = meet_matrix(pair, 1)
    meet2 = meet_matrix(pair, 2)
    nodes = [(i + 1, j + 1) for i in range(n) for j in range(i, n)]
    # Candidate targets (head, m) of an arc, m >= head, with the nodes
    # where head meets m.
    reach = [None] + [
        list(zip(range(h, n + 1), meet1[h - 1][h - 1:], meet2[h - 1][h - 1:]))
        for h in range(1, n + 1)]
    u1 = []
    u2 = []
    for r in nodes:
        i1, i2 = r
        if i1 == i2:
            continue
        # Meeting nodes of head with any leaf lie on head's path to the
        # root, as a does, and post-order ids grow up a path: d lies
        # strictly below a exactly when d < a.
        a1 = meet1[i1 - 1][i2 - 1]
        a2 = meet2[i1 - 1][i2 - 1]
        u1 += [(r, (i1, m)) for m, d1, d2 in reach[i1] if d1 < a1 and d2 < a2]
        u2 += [(r, (i2, m)) for m, d1, d2 in reach[i2] if d1 < a1 and d2 < a2]
    return CompactLpGraph(
        nodes=nodes, u1=u1, u2=u2,
        z_leaves=[(i + 1, i + 1) for i in range(n)], meet1=meet1,
        meet2=meet2)


_ARC_NAME = "y_%d.%d__%d.%d"


def _arc_name(arc):
    return _ARC_NAME % (arc[0] + arc[1])


def build_compact_lp(pair, graph=None):
    """Arc-flow reformulation of the exponential program.

    Variables are one flow per DAG arc plus one saturation variable per
    leaf; the flow rows force arc supports to decompose into the
    arborescences that encode compatible sets, and the packing rows cap
    the total flow of the sets spanning any internal tree node.  A set
    spans a node where a pair of its arborescence meets, which is
    charged to the pair's one first-class arc, and every node strictly
    between the meeting nodes of an arc's ends, charged to that arc.
    Refuses more than ``COMPACT_LP_CAP`` leaves, and a leaf label that
    an LP name cannot carry.
    """
    _check_lp_labels(pair, _LP_NAME_PUNCTUATION)
    if graph is None:
        graph = build_compact_graph(pair)
    n = pair.n
    xnames = ["x_L_" + pair.labels[i] for i in range(n)]
    names1 = list(map(_ARC_NAME.__mod__, starmap(add, graph.u1)))
    names2 = list(map(_ARC_NAME.__mod__, starmap(add, graph.u2)))
    # The objective counts the first-class arcs out of non-diagonal
    # nodes, which every arc leaves, less the arcs into them: 1 for a
    # first-class arc into a diagonal node, 0 for one into another node,
    # -1 for a second-class arc into a non-diagonal node.
    objective = dict.fromkeys(xnames, 1.0)
    objective.update(zip(names1, map(float, starmap(eq, map(
        itemgetter(1), graph.u1)))))
    objective.update(dict.fromkeys(compress(names2, starmap(ne, map(
        itemgetter(1), graph.u2))), -1.0))
    model = LpModel("compact_lp", objective=objective,
                    objective_constant=-1.0)
    model.add_variables(xnames + names1 + names2)

    out1 = defaultdict(list)
    out2 = defaultdict(list)
    into = defaultdict(list)
    for arcs, names, out in ((graph.u1, names1, out1),
                             (graph.u2, names2, out2)):
        for (r, s), name in zip(arcs, names):
            out[r].append(name)
            into[s].append(name)
    # One pass over the non-diagonal nodes gathers every row; the arcs
    # of the two classes and the arcs into a node are disjoint, so each
    # row is a union of constant-coefficient blocks.
    diagonal = set(graph.z_leaves)
    floweq = []
    outin = []
    for r in graph.nodes:
        if r in diagonal:
            continue
        first = out1.get(r, ())
        second = out2.get(r, ())
        inward = into.get(r, ())
        if first or second:
            row = dict.fromkeys(first, 1.0)
            for name in second:
                row[name] = -1.0
            floweq.append(row)
        if first or inward:
            row = dict.fromkeys(first, 1.0)
            for name in inward:
                row[name] = -1.0
            outin.append(row)
    # An arc's head meets strictly below its tail in both trees, so a
    # walk up from the parent of the head's meeting node reaches the
    # tail's.
    packs = []
    for tree, meet in ((pair.t1, graph.meet1), (pair.t2, graph.meet2)):
        parent = tree.parent
        rows = [[] for _ in range(tree.n_nodes)]
        for arcs, names, charged in ((graph.u1, names1, True),
                                     (graph.u2, names2, False)):
            for ((a, b), (c, d)), name in zip(arcs, names):
                top = meet[a - 1][b - 1]
                v = parent[meet[c - 1][d - 1]]
                while v != top:
                    rows[v].append(name)
                    v = parent[v]
                if charged:
                    rows[top].append(name)
        packs += [dict.fromkeys(row, 1.0) for row in rows if row]
    model.add_constraints("floweq", floweq, "=", 0.0)
    model.add_constraints("outin", outin, ">=", 0.0)
    model.add_constraints("leafsat", [
        dict.fromkeys([xnames[i]] + into.get((i + 1, i + 1), []), 1.0)
        for i in range(n)], "=", 1.0)
    model.add_constraints("pack", packs, "<=", 1.0)
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
    model = LpModel("wu_ilp", objective=dict.fromkeys(names, 1.0))
    model.add_variables(names, 0.0, 1.0, integer=True)
    p1 = leaf_path_masks(pair, 1)
    p2 = leaf_path_masks(pair, 2)
    triples = [p1[i][j] | p1[i][k] | p1[j][k]
               for i, j, k in _sorted_triples(pair)]
    paths = [(p1[i][j], p2[i][j]) for i, j in combinations(range(n), 2)]
    crosses = [a1 | b1 for (a1, a2), (b1, b2) in combinations(paths, 2)
               if a2 & b2 and not a1 & b1]
    width = len(names)
    for prefix, masks in (("triple", triples), ("cross", crosses)):
        flags = _bit_matrix(masks, width)
        model.add_constraints(prefix, [
            dict.fromkeys(compress(names, flags[k:k + width]), 1.0)
            for k in range(0, len(flags), width + 1)], ">=", 1.0)
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
            "gap family order is capped at WU_GAP_MAX_ORDER = %d (2^%d "
            "leaves), got %d" % (WU_GAP_MAX_ORDER, WU_GAP_MAX_ORDER, k))
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
