"""Lower-bound certificate carried alongside the refinement loop.

The certificate is a nonpositive potential on the internal nodes of
both trees together with the current partition: the objective is the
potential sum plus the number of blocks minus one.  Feasibility means
no compatible leaf set carries a load above one, where the load of a
leaf set is the potential mass on the internal nodes it spans plus the
number of blocks it intersects.  A feasible certificate's objective is
a lower bound on the optimum number of cuts, which is what makes the
solver's output a certified 2-approximation.
"""

from __future__ import annotations

from .forest_partition import as_blocks
from .lp_toolkit import ENUMERATION_CAP, compatible_set_table
from .tree_model import InvariantError, OracleCapError, spanned_nodes


class DualState:
    """Potentials on internal nodes of both trees plus the decrement log.

    Every decrement is recorded as ``(tree, node)`` in application
    order, so the objective can be recomputed as ``len(events)`` worth
    of unit decrements against the block count.
    """

    __slots__ = ("pair", "y1", "y2", "events")

    def __init__(self, pair):
        self.pair = pair
        self.y1 = [0] * pair.t1.n_nodes
        self.y2 = [0] * pair.t2.n_nodes
        self.events = []

    def star(self, tree, node):
        """Decrement the potential of an internal node by one."""
        if self.pair.tree(tree).left[node] < 0:
            raise InvariantError("potential decrement on a leaf")
        if tree == 1:
            self.y1[node] -= 1
        else:
            self.y2[node] -= 1
        self.events.append((tree, node))

    def y_sum(self):
        return -len(self.events)

    def objective(self, n_components):
        return self.y_sum() + n_components - 1

    def as_dict(self):
        """Nonzero potentials keyed ``t1:<node>`` / ``t2:<node>``."""
        out = {}
        for v, y in enumerate(self.y1):
            if y:
                out["t1:%d" % v] = y
        for v, y in enumerate(self.y2):
            if y:
                out["t2:%d" % v] = y
        return out


def _load_function(pair, dual, components):
    """``load_of(leaves, span1, span2)`` for one certificate.

    The spans are bit sets of the internal nodes a leaf set spans (see
    :func:`lp_toolkit.compatible_set_table`).  Each leaf carries the bit
    set of the blocks holding it, so a set's block count is the size of
    their union, and a leaf in no block adds none.  Only the few nonzero
    potentials are read per set.
    """
    owner = [0] * pair.n
    for k, block in enumerate(as_blocks(components)):
        for x in block:
            owner[x] |= 1 << k
    pots1 = [(1 << v, y) for v, y in enumerate(dual.y1) if y]
    pots2 = [(1 << v, y) for v, y in enumerate(dual.y2) if y]

    def load_of(leaves, span1, span2):
        blocks = 0
        for x in leaves:
            blocks |= owner[x]
        total = blocks.bit_count()
        for bit, y in pots1:
            if span1 & bit:
                total += y
        for bit, y in pots2:
            if span2 & bit:
                total += y
        return total

    return load_of


def load(pair, dual, components, leaves):
    """Certificate load on one leaf set.

    Potential mass on the internal nodes the set spans in either tree,
    plus the number of blocks it intersects.
    """
    spans = [sum(1 << v for v in spanned_nodes(pair, t, leaves)
                 if pair.tree(t).left[v] >= 0) for t in (1, 2)]
    return _load_function(pair, dual, components)(set(leaves), *spans)


def verify_dual_feasibility(pair, dual, components):
    """Check the certificate against every compatible leaf set.

    Reads every compatible set from the pair's compatible-set table,
    which is built once per pair and reused by later calls, so it is
    gated to ``ENUMERATION_CAP`` leaves.  Returns True when every load
    is at most one; on a violation raises InvariantError naming the
    first violating set in lexicographic order.
    """
    if pair.n > ENUMERATION_CAP:
        raise OracleCapError(
            "certificate verification enumerates compatible sets and is "
            "capped at %d leaves (got %d)" % (ENUMERATION_CAP, pair.n))
    if any(y > 0 for y in dual.y1) or any(y > 0 for y in dual.y2):
        raise InvariantError("certificate has a positive potential")
    load_of = _load_function(pair, dual, components)
    for leaves, span1, span2 in zip(*compatible_set_table(pair)):
        total = load_of(leaves, span1, span2)
        if total > 1:
            raise InvariantError(
                "load %d > 1 on compatible set %r"
                % (total, pair.labels_of(leaves)))
    return True


def check_balance(dual, n_components, n_pairs):
    """Twice the certificate objective must cover the final cut count."""
    d = dual.objective(n_components)
    if 2 * d < n_components - 1 - n_pairs:
        raise InvariantError(
            "certificate objective %d cannot certify %d cuts"
            % (d, n_components - 1 - n_pairs))
    return True
