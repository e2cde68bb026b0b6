"""Iterative refinement solver with a certified approximation factor of 2.

Each iteration finds a lowest node of the first tree witnessing that
the current partition is not yet an agreement forest, colors the leaves
red and blue by that node's two child subtrees (white elsewhere), and
refines the partition by cutting the second tree until the colored part
of the partition can no longer be forced apart by later iterations.
The shape of the colored blocks puts each iteration in one of three
cases; cases 1 and 3 are read off the colored meet of the lone
tricolored block and confirmed by the cuts of the red-blue stage.
Refinements that are not strictly necessary are remembered as undo
pairs and reversed after the loop; they exist to pay for the
certificate decrements.

The certificate invariant checked at the end of every iteration is that
twice the certificate objective covers the number of cuts the final
forest will have.  Structural bookkeeping identities relating the block
counts before and after each stage are asserted as well, so a violation
of the analysis anywhere raises InvariantError instead of silently
degrading the guarantee.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain

from .dual_certificate import DualState, check_balance
from .forest_partition import Partition
from .tree_model import InvariantError

RED, BLUE = 0, 1

_CASE_OF_CONDITION = {"a": 1, "b": 2, "c": 3}


@dataclass
class Coloring:
    """Leaf coloring induced by one internal node of the first tree.

    Red is the right child's leaf set, blue the left child's, white the
    rest; ``red`` and ``blue`` hold sorted leaf indices.
    """

    node1: int
    red: list
    blue: list


@dataclass
class Pcs:
    """Lowest problematic node and the condition that fired there.

    Conditions: "a" means the block covering the node restricts to an
    incompatible set below it, "b" means two blocks overlap below it,
    "c" means the covering block restricted below it cannot absorb any
    of the block's outside leaves.
    """

    node: int
    condition: str


@dataclass
class IterationRecord:
    """Bookkeeping for one refinement iteration."""

    index: int
    pcs_node: int
    condition: str
    case: int
    p0: int
    p1: int
    p2: int
    p3: int
    chi: int
    t: int
    n_stars: int
    delta_dual: int
    delta_primal: int
    pair_added: bool
    n_pairs: int
    dual_objective: int


@dataclass
class RedBlueResult:
    """Final forest, certificate, undo pairs and per-iteration records."""

    pair: object
    value: int
    components: tuple
    partition: Partition
    dual: DualState
    dual_objective: int
    pairslist: list
    iterations: list
    trace: list

    @property
    def ratio_bound(self):
        """value / lower bound; None when the lower bound is zero."""
        if self.dual_objective == 0:
            return None
        return self.value / self.dual_objective


def make_coloring(partition, node1):
    """Color the leaf set by the two child subtrees of ``node1``.

    Post-order ids put the left child's leaves, then the right child's,
    in one run of ``t1.leaf_ids``, found by bisection; the same slices of
    the partition's ``order1`` hold their leaf indices, which are sorted.
    """
    t1 = partition.pair.t1
    l, r = t1.left[node1], t1.right[node1]
    if l < 0:
        raise InvariantError("coloring node must be internal")
    ids, order1 = t1.leaf_ids, partition.order1
    lo = bisect_left(ids, t1.subtree_min[node1])
    mid = bisect_right(ids, l, lo)
    hi = bisect_right(ids, r, mid)
    return Coloring(node1, sorted(order1[mid:hi]), sorted(order1[lo:mid]))


class _Sweep:
    """What ``find_lowest_pcs`` keeps on a partition between calls.

    Per node of the first tree below ``stop``, the node where the last
    call stopped (``n_nodes`` when it found none): ``comp``, the root of
    the forest tree of the block whose restriction below the node is
    still incomplete (-1 when none), ``csize``, that restriction's size,
    and ``meet``, its meeting node in the second tree.  ``by_meet`` maps
    a second-tree node to the first-tree nodes that joined two children
    there, stale entries included; ``_resume`` reads it only at the
    meeting nodes of shrunk blocks.  ``roots`` holds the forest-tree
    roots the sweep has seen, and ``next_id`` is the partition's at the
    time.  ``seeds`` holds the first-tree nodes a merge handed over,
    which ``_resume`` reads next.  Block sizes are not kept: a forest
    tree's root counts its block's leaves in the partition's ``live``.
    """

    __slots__ = ("comp", "csize", "meet", "by_meet", "roots", "stop",
                 "next_id", "seeds")

    def __init__(self, partition):
        n1 = partition.pair.t1.n_nodes
        self.comp = [-1] * n1
        self.csize = [0] * n1
        self.meet = [0] * n1
        self.by_meet = {}
        self.roots = {c.root2 for c in partition.comps.values()}
        self.stop = n1
        self.next_id = partition.next_id
        self.seeds = []

    def merged(self, partition, first, fresh, grown):
        """Take the seeds of a merge that created the blocks from id
        ``first`` on (see ``Partition.canonicalize_cuts``), or drop the
        state when splits since the last call left seeds ``_resume``
        has not read yet.

        Seeds: each leaf of ``fresh``, whose roots are new; and for each
        block that kept a seen root but grew, each leaf it gained and
        the node where its key part's restriction completed, found by a
        walk up from one of that part's leaves to the first entry
        whose size reaches the part's (nodes from ``stop`` on are swept
        anyway).  ``roots`` becomes the roots of the merged forest.
        """
        if self.next_id != first:
            partition.sweep = None
            return
        pair = partition.pair
        leaf_node1, parent1 = pair.leaf_node1, pair.t1.parent
        csize, stop, seeds = self.csize, self.stop, self.seeds
        for leaves in fresh:
            seeds.extend(map(leaf_node1.__getitem__, leaves))
        for size, x, moved in grown:
            for leaves in moved:
                seeds.extend(map(leaf_node1.__getitem__, leaves))
            v = leaf_node1[x]
            while v < stop and csize[v] < size:
                v = parent1[v]
            seeds.append(v)
        self.roots = {c.root2 for c in partition.comps.values()}
        self.next_id = partition.next_id


def _resume(partition, sweep):
    """First-tree nodes below ``sweep.stop`` whose entries the splits or
    the merge since the saved sweep may have changed, in ascending order.

    Block ids are never reused, so the blocks from ``sweep.next_id`` on
    are exactly those created since.  Seeds: every leaf of a block with
    a root the sweep has not seen, and for a block that kept a seen
    root, the nodes that joined two children of it at its new meeting
    node ``m``; a merge hands over its own (``_Sweep.merged``) and
    moves ``next_id`` past its blocks.  The answer is the seeds'
    ancestors.

    A block that kept a seen root has shrunk, with no size test: every
    split detaches at least one leaf, since ``split_below`` refuses an
    empty upper block and ``split_component`` needs two nonempty ones.
    A shrunk block needs no other seed.  An entry that no seed marks
    has no detached leaf below it, so its restriction lies inside the
    shrunk block, and its meet lies at or below ``m``.  Condition "c"
    needs the meet to hold the whole block, ``live[p] == size``, so it
    can newly fire only at ``m``.  Entries of nodes that now hold all
    of the block turn complete, and an entry is read only by the
    parent, which compares its size with the block's current size,
    ``live`` at its root.

    A merged block M that keeps the root of its key part Y, the block
    it grew from, has grown instead.  Its other leaves are seeds, so an unseeded node
    with a leaf of M below it has only Y's leaves below: its entry
    (root, size, meet) is still right.  Y's restriction was complete
    only at the seeded node where it completed and above, so every
    unseeded entry of Y was incomplete, and is still, M being larger.
    Condition "c" there needs ``live[p] == |M|`` at its meet ``p``;
    but ``live[p]`` was below ``|Y|``, or "c" had fired, and grew by at
    most the ``|M| - |Y|`` leaves gained, so it stays below ``|M|``.
    Every block whose root moved has all its leaves seeded, and every
    other block keeps its root, its size and the live counts on its
    span, since a merged block's join paths take no node that holds a
    leaf of another block.  So no unseeded entry changes, nor does
    what its parent reads from it.
    """
    pair = partition.pair
    parent1 = pair.t1.parent
    leaf_node1 = pair.leaf_node1
    comps = partition.comps
    comp, meet, roots, stop = sweep.comp, sweep.meet, sweep.roots, sweep.stop
    by_meet = sweep.by_meet
    seeds, sweep.seeds = sweep.seeds, []
    for cid in range(sweep.next_id, partition.next_id):
        c = comps.get(cid)
        if c is None:
            continue
        r = c.root2
        if r not in roots:
            roots.add(r)
            seeds.extend(map(leaf_node1.__getitem__, c.leaves))
        else:
            m = partition.meeting_path(r, c.size)[-1]
            seeds.extend(v for v in by_meet.get(m, ())
                         if v < stop and comp[v] == r and meet[v] == m)
    marked = set()
    for v in seeds:
        while 0 <= v < stop and v not in marked:
            marked.add(v)
            v = parent1[v]
    return sorted(marked)


def find_lowest_pcs(partition):
    """Lowest node of the first tree proving the partition infeasible.

    An ascending pass keeping, per node, the forest-tree root of the
    block whose restriction below the node is incomplete, the size of
    that restriction and its meeting node in the second tree.  A
    restriction is complete when its size reaches its block's, which
    the partition's ``live`` holds at the forest tree's root.  Returns
    None exactly when the partition is an agreement forest.  Where the
    two children's meeting nodes are distinct siblings, their parent is
    the join's meeting node, with no lca query.

    The pass resumes from the state the previous call left on the
    partition (see ``_resume``): it recomputes the entries that the
    splits or the merge since then may have changed below the node
    where that call stopped, then goes on upward from that node.
    Without saved state, on the first call or after a merge that
    followed unread splits, it sweeps the whole first tree.
    """
    pair = partition.pair
    t1, t2 = pair.t1, pair.t2
    n1 = t1.n_nodes
    left, right = t1.left, t1.right
    leaf_index1 = pair.leaf_index1
    leaf_node2 = pair.leaf_node2
    leaf_root = partition.leaf_root
    live2 = partition.live
    parent2 = t2.parent
    lca2 = t2.lca

    sweep = partition.sweep
    if sweep is None:
        sweep = partition.sweep = _Sweep(partition)
        order = range(n1)
    else:
        order = chain(_resume(partition, sweep), range(sweep.stop, n1))
        sweep.next_id = partition.next_id
    comp, csize, meet = sweep.comp, sweep.csize, sweep.meet
    by_meet = sweep.by_meet

    for v in order:
        lv = left[v]
        if lv < 0:
            i = leaf_index1[v]
            comp[v] = leaf_root[i]
            csize[v] = 1
            meet[v] = leaf_node2[i]
            continue
        rv = right[v]
        cl = comp[lv]
        if cl >= 0 and csize[lv] >= live2[cl]:
            cl = -1
        cr = comp[rv]
        if cr >= 0 and csize[rv] >= live2[cr]:
            cr = -1
        if cl < 0 and cr < 0:
            comp[v] = -1
            continue
        if cl < 0 or cr < 0:
            src = rv if cl < 0 else lv
            comp[v] = comp[src]
            csize[v] = csize[src]
            meet[v] = meet[src]
            continue
        if cl != cr:
            sweep.stop = v
            return Pcs(v, "b")
        a = meet[lv]
        b = meet[rv]
        p = parent2[a]
        if p != parent2[b] or a == b:  # not two siblings
            p = lca2(a, b)
        if a == p or b == p:
            sweep.stop = v
            return Pcs(v, "a")
        size = live2[cl]
        sv = csize[lv] + csize[rv]
        if live2[p] == size and sv < size:
            sweep.stop = v
            return Pcs(v, "c")
        comp[v] = cl
        csize[v] = sv
        meet[v] = p
        by_meet.setdefault(p, []).append(v)
    sweep.stop = n1
    return None


def _colored_meet(partition, comp):
    """Second-tree node where the red and blue leaves of a tricolored
    block meet, which the partition keeps current in ``meets``; raises
    unless the block covers it."""
    ua = partition.meets[comp.id]
    if partition.covering(ua) != comp.id:
        raise InvariantError("colored meeting node is not covered by its block")
    return ua


def classify_case(partition):
    """Case of the colored start-of-iteration partition: 1, 2 or 3.

    Case 1: one multicolored block, three colors, colored part not
    shaped alike in both trees, some white leaf outside the colored
    part's meeting node.  Case 2: exactly two multicolored blocks, one
    red+white and one blue+white.  Case 3: one multicolored block,
    three colors, colored part shaped alike, every leaf of the block
    below the colored part's meeting node.  Any other shape raises
    InvariantError.  Cases 1 and 3 are read off the colored meet alone;
    ``run`` confirms the shape by the cuts of ``make_rb_compatible``,
    the next stage to change the partition: some in case 1, none in 3.
    """
    mixed = partition.mixed()
    if len(mixed) == 2:
        (ar, ab, aw), (br, bb, bw) = sorted(mixed.values(), reverse=True)
        if not (ar and aw and not ab and bb and bw and not br):
            raise InvariantError("two multicolored blocks must be red+white and blue+white")
        return 2
    if len(mixed) != 1:
        raise InvariantError("expected one or two multicolored blocks")
    (cid, counts), = mixed.items()
    if not all(counts):
        raise InvariantError("a lone multicolored block must carry all three colors")
    a0 = partition.comps[cid]
    return 1 if partition.live[_colored_meet(partition, a0)] < a0.size else 3


def _rb_violations(partition):
    """Second-tree nodes splitting off a color-incompatible piece, in
    one ascending scan of ``tinted``.

    Fires at a node whose covering block has both red and blue below it
    while at least one of those colors also occurs above it; such a node
    exists if and only if some block's colored part is not shaped alike
    in both trees.  Each node is yielded when the scan reaches it, the
    lowest one firing then (see ``_cut_violations``).
    """
    comps, root_comp = partition.comps, partition.root_comp
    cover = partition.cover
    live_r, live_b = partition.live_r, partition.live_b
    left = partition.pair.t2.left
    for v in partition.tinted:
        if left[v] < 0:
            continue
        r = cover[v]
        if r < 0:
            continue
        lr = live_r[v]
        lb = live_b[v]
        if lr and lb:
            cr, cb = partition.color_counts(comps[root_comp[r]])
            if lr < cr or lb < cb:
                yield v


def _splittable_violations(partition):
    """Second-tree nodes blocking a clean split by color, in one
    ascending scan of ``tinted``, as ``_rb_violations``.

    Fires at a node whose covering block restricts below it to exactly
    two colors while every color the block carries also occurs above it.
    """
    comps, root_comp = partition.comps, partition.root_comp
    cover = partition.cover
    live, live_r, live_b = partition.live, partition.live_r, partition.live_b
    left = partition.pair.t2.left
    for v in partition.tinted:
        if left[v] < 0:
            continue
        r = cover[v]
        if r < 0:
            continue
        lr = live_r[v]
        lb = live_b[v]
        lw = live[v] - lr - lb
        if (lr > 0) + (lb > 0) + (lw > 0) != 2:
            continue
        c = comps[root_comp[r]]
        cr, cb = partition.color_counts(c)
        cw = c.size - cr - cb
        if cr and lr >= cr:
            continue
        if cb and lb >= cb:
            continue
        if cw and lw >= cw:
            continue
        yield v


def make_rb_compatible(partition, dual):
    """Cut until every block's colored part is shaped alike in both trees."""
    return _cut_violations(partition, dual, _rb_violations(partition))


def make_splittable(partition, dual):
    """Cut until every block's color classes are span-disjoint."""
    return _cut_violations(partition, dual, _splittable_violations(partition))


def _cut_violations(partition, dual, violations):
    """Star and cut below each node the scan ``violations`` yields;
    returns the cut nodes in order.

    One scan suffices: a cut below ``v`` changes node counts only on
    ancestors of ``v``, whose ids are larger, lowers block totals to no
    less than any count passed, or zeroes nodes, so no node passed can
    start to fire; and splits never edit the ``tinted`` list it reads.
    """
    nodes = []
    for v in violations:
        dual.star(2, v)
        partition.split_below(v)
        nodes.append(v)
    return nodes


def _outside(smin, tops, nodes):
    """The ``nodes`` not strictly inside the subtree of one of ``tops``,
    in pre-order.

    Subtrees are the id ranges ``[smin[a], a]``, which nest or are
    disjoint, so in pre-order (ascending ``smin``, ancestors first) a
    node lies inside an earlier top's subtree exactly when it is at most
    the largest top before it.  A node goes before a top at the same
    place, so it is not inside its own subtree.
    """
    order = sorted([(smin[v], -v, False) for v in nodes]
                   + [(smin[a], -a, True) for a in tops])
    out = []
    hi = -1
    for _, neg, is_top in order:
        if is_top:
            hi = max(hi, -neg)
        elif -neg > hi:
            out.append(-neg)
    return out


def _top_components(partition):
    """Blocks created this iteration with a maximal meeting node.

    A created block is top when its meeting node in the second tree is
    not a strict descendant of another created block's meeting node.
    Meeting nodes come from walks down from the blocks' roots.
    """
    comps = partition.comps
    created = [cid for cid in partition.created if cid in comps]
    anchors = {cid: partition.meeting_path(comps[cid].root2, comps[cid].size)[-1]
               for cid in created}
    if len(set(anchors.values())) != len(anchors):
        raise InvariantError("two created blocks share a meeting node")
    tops = set(_outside(partition.pair.t2.subtree_min, anchors.values(),
                        anchors.values()))
    return [cid for cid in created if anchors[cid] in tops]


def _color_classes(partition, c):
    """Red and blue leaves of block ``c``, each sorted.

    A walk down from the block's colored meet enters the children that
    are not cut and count a red or blue leaf.  It raises unless it finds
    the counts at the meet.
    """
    cut = partition.cut
    live_r, live_b = partition.live_r, partition.live_b
    t2 = partition.pair.t2
    left, right = t2.left, t2.right
    leaf_index2 = partition.pair.leaf_index2
    reds, blues = [], []
    stack = [partition.meets[c.id]]
    while stack:
        v = stack.pop()
        l = left[v]
        if l < 0:
            (reds if live_r[v] else blues).append(leaf_index2[v])
            continue
        r = right[v]
        if not cut[l] and (live_r[l] or live_b[l]):
            stack.append(l)
        if not cut[r] and (live_r[r] or live_b[r]):
            stack.append(r)
    if (len(reds), len(blues)) != partition.color_counts(c):
        raise InvariantError("color classes disagree with the block's color counts")
    reds.sort()
    blues.sort()
    return reds, blues


def special_split(partition, dual, cid, pairslist):
    """Replace one tricolored block by the two-branch special rule.

    When none of the block's white leaves sit below the meeting node of
    its colored leaves, the block splits into its red part versus the
    rest and the undo pair (lowest red leaf, lowest blue leaf) is
    remembered.  Otherwise it splits four ways: the leaves outside the
    meeting node plus the three color classes below it, at the cost of
    one more certificate decrement at that node.  The red and blue
    classes are read off the installed coloring's counts by a walk of
    this block alone, down from the meeting node, so every leaf outside
    it is white.  Returns (chi, pair_added, node, branch).
    """
    pair = partition.pair
    c = partition.comps[cid]
    r, b = partition.color_counts(c)
    if not (r and b and c.size - r - b):
        raise InvariantError("special split needs a tricolored block")
    ua = _colored_meet(partition, c)
    reds, blues = _color_classes(partition, c)
    if partition.live[ua] == partition.live_r[ua] + partition.live_b[ua]:
        partition.split_component(cid, [reds], rest=True)
        pairslist.append((reds[0], blues[0]))
        return 0, True, ua, 1
    t2 = pair.t2
    nodes2 = pair.leaf_node2
    dual.star(2, ua)
    lo = t2.subtree_min[ua]
    outside = {i for i in c.leaves if not lo <= nodes2[i] <= ua}
    if not outside:
        raise InvariantError("four-way special split needs four blocks")
    # the white leaves below the meeting node are the rest
    partition.split_component(cid, [outside, reds, blues], rest=True)
    return 1, False, ua, 2


def split(partition, dual, pairslist, top_cid):
    """Split every multicolored block apart by color.

    A block carrying all three colors with a leaf outside the meeting
    node of its colored part goes through ``special_split`` instead of
    the plain three-way refinement.  A special split on any block but
    ``top_cid``, the top block of the iteration (or None when no
    special split is legal), raises InvariantError.  Returns (chi,
    pair_added, special) where chi flags the four-way split and special
    carries (block id, node, branch).  The blocks and their red, blue
    and white counts come from ``mixed()``, read once: each block's red
    and blue classes are read off the installed coloring's counts just
    before its split, which leaves the other blocks' counts as they
    were, and the white class is its rest.
    """
    chi = 0
    pair_added = False
    special = None
    for cid, (r, b, w) in sorted(partition.mixed().items()):
        c = partition.comps[cid]
        if (r and b and w
                and partition.live[_colored_meet(partition, c)] < c.size):
            if cid != top_cid:
                raise InvariantError("special split outside the top block")
            added_chi, added_pair, ua, branch = special_split(
                partition, dual, cid, pairslist)
            chi += added_chi
            pair_added = pair_added or added_pair
            special = (cid, ua, branch)
            continue
        parts = [p for p in _color_classes(partition, c) if p]
        partition.split_component(cid, parts, rest=w > 0)
    return chi, pair_added, special


def find_merge_pair(partition):
    """One undoable pair of colored leaves, or None.

    Considers single-color blocks created this iteration.  A block's
    chain is its meeting node, then its ancestors in turn, up to and
    including the first covered ancestor, or up to the root; a block
    reaches the nodes of its chain and the nodes it covers.  Two
    same-color blocks reaching a common node can be remerged, the
    lowest such pair first.  Failing that, a red and a blue block from
    the same start-of-iteration block meeting at an uncovered node can
    be remerged, provided no node from there up to the root is covered
    by a colored block created this iteration.

    A scope block's leaves all carry its color, so its colored meet is
    its meeting node, read with no lca query.  One ascending scan of the
    reached nodes finds the same-color pair, and returns at any node two
    same-color chains reach; the forks, the uncovered nodes exactly two
    chains reach, then hold one red and one blue block and are tried in
    pre-order.  With fewer than two scope blocks no node is reached
    twice, so both find none.  Chains are walked in ascending id order,
    so every pair comes out with its lower id first.
    """
    comps = partition.comps
    scope = {}
    for cid in partition.created:
        c = comps.get(cid)
        if c is None:
            continue
        r, b = partition.color_counts(c)
        if r == c.size:
            scope[cid] = RED
        elif b == c.size:
            scope[cid] = BLUE

    t2 = partition.pair.t2
    parent, root = t2.parent, t2.root
    cover, covering = partition.cover, partition.covering
    meets = partition.meets

    def emit(c1, c2):
        if comps[c1].origin0 != comps[c2].origin0:
            raise InvariantError("undo pair spans two start-of-iteration blocks")
        return (min(comps[c1].leaves), min(comps[c2].leaves))

    reach = {}
    for cid in scope:
        v = meets[cid]
        reach.setdefault(v, []).append(cid)
        while v != root:
            v = parent[v]
            reach.setdefault(v, []).append(cid)
            if cover[v] >= 0:
                break

    forks = []
    for v in sorted(reach):
        rset = reach[v]
        cov = covering(v)
        if cov < 0:
            if len(rset) == 2:
                forks.append(v)
        elif cov in scope and cov not in rset:
            rset = rset + [cov]
        if len(rset) >= 2:
            reds = sorted(c for c in rset if scope[c] == RED)
            blues = sorted(c for c in rset if scope[c] == BLUE)
            if len(reds) >= 2:
                return emit(reds[0], reds[1])
            if len(blues) >= 2:
                return emit(blues[0], blues[1])

    # Forks in pre-order, but none inside a scope meeting node's subtree.
    for v in _outside(t2.subtree_min, map(meets.__getitem__, scope), forks):
        c1, c2 = reach[v]
        if comps[c1].origin0 == comps[c2].origin0:
            return emit(c1, c2)
    return None


def merge_components(partition, pairslist):
    """Undo the remembered splits, most recent first, re-cutting the
    forest in place."""
    partition.merge(reversed(pairslist))


def run(pair, record_snapshots=False, on_iteration=None):
    """Solve one instance, returning the forest and its certificate.

    ``on_iteration(partition, dual, record)`` is called after each
    iteration's bookkeeping checks.  ``record_snapshots`` adds the full
    block families after each stage to the trace, which is otherwise a
    list of compact event dicts.
    """
    partition = Partition(pair)
    dual = DualState(pair)
    pairslist = []
    iterations = []
    trace = [{
        "event": "init",
        "n_leaves": pair.n,
        "labels": list(pair.labels),
    }]

    def stage(name, snapshot, **fields):
        # The stage's event, then its blocks when recording; the count.
        n = len(partition)
        trace.append({"event": "stage", "stage": name, **fields,
                      "n_components": n})
        if record_snapshots:
            trace.append({
                "event": "snapshot",
                "stage": snapshot,
                "components": [list(s) for s in partition.label_sets()],
            })
        return n

    k = 0
    while True:
        pcs = find_lowest_pcs(partition)
        if pcs is None:
            break
        k += 1
        partition.begin_iteration()
        coloring = make_coloring(partition, pcs.node)
        partition.refresh_annotations(coloring)
        case = classify_case(partition)
        if case != _CASE_OF_CONDITION[pcs.condition]:
            raise InvariantError("partition shape disagrees with the detected condition")

        p0 = len(partition)
        events0 = len(dual.events)
        trace.append({
            "event": "iteration_start",
            "iteration": k,
            "pcs_node": pcs.node,
            "condition": pcs.condition,
            "case": case,
            "n_components": p0,
            "red": [pair.labels[i] for i in coloring.red],
            "blue": [pair.labels[i] for i in coloring.blue],
        })
        dual.star(1, pcs.node)

        rb_nodes = make_rb_compatible(partition, dual)
        if case == 1 and not rb_nodes:
            raise InvariantError("color-compatible block must sit below the meeting node")
        if case == 3 and rb_nodes:
            raise InvariantError("color-incompatible block needs a white leaf outside the meeting node")
        p1 = stage("make_rb_compatible", "p1", nodes=rb_nodes)
        p2 = stage("make_splittable", "p2",
                   nodes=make_splittable(partition, dual))

        tops = _top_components(partition)
        if case == 1:
            if len(tops) != 1:
                raise InvariantError("case 1 expects a unique top block")
            top_cid = tops[0]
        else:
            top_cid = None
        t = sum(1 for cid, counts in partition.mixed().items()
                if all(counts) and cid not in tops)

        chi, pair_added, special = split(partition, dual, pairslist, top_cid)
        p3 = stage("split", "p3", chi=chi, t=t,
                   special=None if special is None else {
                       "component": special[0], "node": special[1],
                       "branch": special[2]})

        if not pair_added:
            mp = find_merge_pair(partition)
            if mp is not None:
                pairslist.append(mp)
                pair_added = True
        if pair_added:
            x1, x2 = pairslist[-1]
            trace.append({
                "event": "merge_pair",
                "x1": pair.labels[x1],
                "x2": pair.labels[x2],
            })

        n_stars = len(dual.events) - events0
        delta_dual = (p3 - p0) - n_stars
        if case == 1:
            if p3 - p2 != (p2 - p0) + 1 + 2 * chi + t:
                raise InvariantError("block count identity failed in case 1")
            if delta_dual != p3 - p2 - 1 - chi:
                raise InvariantError("certificate identity failed in case 1")
            if t == 0 and not pair_added:
                raise InvariantError("case 1 with no stray three-color blocks must remember a pair")
        else:
            if p1 != p0:
                raise InvariantError("cases 2 and 3 must not cut before splittability")
            if chi != 0 or special is not None:
                raise InvariantError("special split outside case 1")
            if p3 - p2 != (p2 - p0) + 2:
                raise InvariantError("block count identity failed in case 2/3")
            if delta_dual != p3 - p2 - 1:
                raise InvariantError("certificate identity failed in case 2/3")
        delta_primal = (p3 - p0) - (1 if pair_added else 0)
        if 2 * delta_dual < delta_primal:
            raise InvariantError("iteration gained more cuts than the certificate can pay for")
        check_balance(dual, len(partition), len(pairslist))

        record = IterationRecord(
            index=k, pcs_node=pcs.node, condition=pcs.condition, case=case,
            p0=p0, p1=p1, p2=p2, p3=p3, chi=chi, t=t, n_stars=n_stars,
            delta_dual=delta_dual, delta_primal=delta_primal,
            pair_added=pair_added, n_pairs=len(pairslist),
            dual_objective=dual.objective(len(partition)))
        iterations.append(record)
        trace.append({
            "event": "iteration_end",
            "iteration": k,
            "sizes": [p0, p1, p2, p3],
            "stars": n_stars,
            "delta_dual": delta_dual,
            "delta_primal": delta_primal,
            "n_pairs": len(pairslist),
            "dual_objective": record.dual_objective,
        })
        if on_iteration is not None:
            on_iteration(partition, dual, record)

    d_hat = dual.objective(len(partition))
    p_loop_end = len(partition)
    merge_components(partition, pairslist)
    if find_lowest_pcs(partition) is not None:
        raise InvariantError("final partition is not an agreement forest")
    value = len(partition) - 1
    if value != p_loop_end - 1 - len(pairslist):
        raise InvariantError("merge phase lost or gained blocks")
    if 2 * d_hat < value:
        raise InvariantError("final certificate cannot pay for the forest")
    components = partition.label_sets()
    trace.append({
        "event": "merges",
        "pairs": [[pair.labels[x1], pair.labels[x2]] for x1, x2 in pairslist],
    })
    trace.append({
        "event": "final",
        "value": value,
        "dual_objective": d_hat,
        "n_components": len(partition),
        "components": [list(s) for s in components],
    })
    return RedBlueResult(
        pair=pair, value=value, components=components, partition=partition,
        dual=dual, dual_objective=d_hat, pairslist=pairslist,
        iterations=iterations, trace=trace)
