"""Leaf partitions maintained as forests cut out of the second tree.

The deleted-edge set over the second tree is the authoritative state
while the refinement loop runs: every component is the leaf set of one
tree of the forest obtained by removing the deleted edges, and the
number of deleted edges always equals the number of components minus
one.  The merge phase at the very end is one call that unions
component leaf sets and then re-cuts the forest in place into the
canonical cut set that realizes them (cut above each component's lca
in the second tree, except for one shallowest component that keeps the
original root), writing only what the unions and the moved roots
change.

Every leaf maps to the root of its forest tree (``leaf_root``) and
``root_comp`` names the block of each root, so a split writes
``leaf_root`` only for the leaves it detaches: the part that keeps the
root keeps its entries, gets its new id through ``root_comp`` and
inherits the block's leaf set, from which the detached leaves are
deleted.  Only the output sorts leaves.

Annotations come from two passes over the second tree.  The structural
pass gives, per node, the number of live leaves below it inside its
forest tree and the root of the forest tree covering the node, where
"covering" means the node lies on a path between two leaves of that
tree's block inside the forest.  Coverage holds roots, not block ids,
for the same reason.  Both are current after every public call.  A
split updates the kept tree in place along the cut paths and along the
chain from its root down to its new meeting node, the only nodes whose
live count or coverage can change there, and runs the structural pass
on the trees it detaches, so it costs the size of the new trees, not n.
The pass also checks that every leaf it meets maps to its tree's root.
The color pass runs when a coloring is installed.  It groups the red
and blue leaves by block and skips blocks of one leaf, which no cut
can split.  A block of two or more leaves can be split only at or
below its colored meet, the node where its red and blue leaves meet:
the pass starts ``meets``, the only record of colored blocks, empty,
maps each such block's id to that node, and tints the nodes from the
block's colored leaves up to it, counting the red and blue live
leaves below each.  The counts at the meet are the block's own, and
nothing else records them: ``mixed`` reads each block's red, blue and
white counts there.  Splits keep those counts current: each cut takes
its subtree's red and blue counts off the nodes above it, up to the
first cut node or the meet, and each new block's meet is found by a
walk down from the old meet, when its tree holds it, or from its own
root, the nodes passed being zeroed; a new block of one leaf keeps its
leaf as its meet.  Every other node reads 0, whatever lies below it,
and white counts are live counts minus red and blue.  Only the color
pass writes ``tinted``, the nodes it tinted in ascending order: a node
a split empties stays there, reading 0, until the next pass.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .tree_model import InvariantError, set_compatible, spanned_nodes


class Component:
    """One block of the partition plus bookkeeping for the refinement loop.

    ``root2`` is the root node of the component's tree in the cut
    forest, and ``origin0`` points to the ancestor block that existed
    when the iteration that created this one started (it is read only
    while that iteration runs).  ``leaves`` is a set and ``size`` is
    its length: a block's leaves never change, a split hands its set on
    to the new block that keeps its root, and a merge the larger block's
    set.  A block carries no color: ``Partition.meets`` records the
    colored ones.
    """

    __slots__ = ("id", "leaves", "size", "root2", "origin0")

    def __init__(self, cid, leaves, root2, origin0):
        self.id = cid
        self.leaves = leaves
        self.size = len(leaves)
        self.root2 = root2
        self.origin0 = origin0

    def __repr__(self):
        return "Component(%d, %r)" % (self.id, sorted(self.leaves))


class Partition:
    """Partition of the shared leaf set, realized by cutting the second tree.

    Component ids are never reused, so an id doubles as a generation
    stamp: the blocks created in the current iteration are those with
    ids from ``first_new`` on (the initial block counts as created in
    iteration 0).  A block's leaves are its forest tree's leaves, and
    ``root_comp[leaf_root[i]]`` is the block of leaf ``i``.  The
    annotations are current after every public call: a split updates
    the tree that keeps the block's root in place and rewrites the
    annotation arrays on the trees it detaches only.  ``meets`` maps
    each colored block's id to its colored meet and is the only record
    of colored blocks; a block outside it reads white.  ``sweep`` holds
    ``find_lowest_pcs``'s saved state, to which ``merge`` hands the
    seeds of what it changed.
    ``order1`` lists the leaf indices in first-tree leaf order, so the
    leaves below a first-tree node are one slice of it.
    """

    __slots__ = ("pair", "comps", "leaf_root", "cut", "root_comp",
                 "next_id", "first_new", "coloring", "live", "live_r",
                 "live_b", "tinted", "meets", "cover", "sweep", "order1")

    def __init__(self, pair):
        self.pair = pair
        root = pair.t2.root
        comp = Component(0, set(range(pair.n)), root, 0)
        self.comps = {0: comp}
        self.leaf_root = [root] * pair.n
        self.cut = [False] * pair.t2.n_nodes
        self.root_comp = {root: 0}
        self.next_id = 1
        self.first_new = 0
        self.coloring = None
        n2 = pair.t2.n_nodes
        self.live = [0] * n2
        self.cover = [-1] * n2
        self.live_r = [0] * n2
        self.live_b = [0] * n2
        self.tinted = []
        self.meets = {}
        self.sweep = None
        self.order1 = list(map(pair.leaf_index1.__getitem__, pair.t1.leaf_ids))
        self._refresh_structure([root])

    def __len__(self):
        return len(self.comps)

    def component_of_leaf(self, i):
        return self.comps[self.root_comp[self.leaf_root[i]]]

    def covering(self, v):
        """Id of the block covering node ``v`` of the second tree, or -1."""
        r = self.cover[v]
        return self.root_comp[r] if r >= 0 else -1

    def leaf_sets(self):
        return tuple(sorted(tuple(sorted(c.leaves))
                            for c in self.comps.values()))

    def label_sets(self):
        # Leaf indices follow sorted label order, so each block's sorted
        # indices give its labels sorted.
        labs = self.pair.labels
        return tuple(sorted(
            tuple(map(labs.__getitem__, sorted(c.leaves)))
            for c in self.comps.values()))

    def deleted_edges_labels(self):
        """Each deleted edge as the sorted labels below its child endpoint.

        The label set is taken in the full second tree, so nested cuts
        report nested label sets; entries are sorted lexicographically.
        """
        t2 = self.pair.t2
        return sorted(sorted(t2.labels[u] for u in t2.leaves_below(v))
                      for v in range(t2.n_nodes) if self.cut[v])

    def to_json_dict(self):
        return {
            "n_components": len(self.comps),
            "components": [list(s) for s in self.label_sets()],
            "deleted_edges": self.deleted_edges_labels(),
        }

    @property
    def created(self):
        """Ids created in the current iteration, dead ones included."""
        return range(self.first_new, self.next_id)

    def begin_iteration(self):
        """Start an iteration: ids from here on mark what it creates."""
        self.first_new = self.next_id

    def color_counts(self, c):
        """Red and blue leaves of block ``c``: the counts at its colored
        meet, or (0, 0) without one."""
        m = self.meets.get(c.id)
        if m is None:
            return 0, 0
        return self.live_r[m], self.live_b[m]

    def mixed(self):
        """Each block of two or three colors, mapped to its red, blue
        and white leaf counts, read once at its colored meet."""
        live_r, live_b, comps = self.live_r, self.live_b, self.comps
        out = {}
        for cid, m in self.meets.items():
            r, b = live_r[m], live_b[m]
            w = comps[cid].size - r - b
            if (r > 0) + (b > 0) + (w > 0) > 1:
                out[cid] = r, b, w
        return out

    # ------------------------------------------------------------------
    # annotations

    def refresh_annotations(self, coloring):
        """Install ``coloring`` (None clears it) and count its colors.

        The color counts need no refresh otherwise: every split carries
        them through its cuts.  A block of one leaf that is already
        there reads white, so the coloring goes in before the
        iteration's splits.
        """
        self.coloring = coloring
        self._refresh_colors()

    def _forest_nodes(self, top):
        """Nodes of the forest tree below ``top``, in descending id order.

        Post-order ids make the subtree of ``top`` the id range
        ``[subtree_min[top], top]``, so a walk down the range that jumps
        past each cut subtree collects them.
        """
        cut, smin = self.cut, self.pair.t2.subtree_min
        nodes = [top]
        v, lo = top - 1, smin[top]
        while v >= lo:
            if cut[v]:
                v = smin[v] - 1
            else:
                nodes.append(v)
                v -= 1
        return nodes

    def _refresh_structure(self, roots):
        """Recompute live counts and coverage on the forest trees with
        the given roots.

        One ascending pass over each tree's nodes fills the live counts
        and decides coverage from the live counts of the two children
        against the size of the tree's block.  Every leaf met must map
        to the tree's root, or the cuts do not realize the partition.
        """
        t2 = self.pair.t2
        left, right = t2.left, t2.right
        leaf_index2, leaf_root = self.pair.leaf_index2, self.leaf_root
        cut, live, cover = self.cut, self.live, self.cover
        for root in roots:
            size = self.comps[self.root_comp[root]].size
            for v in reversed(self._forest_nodes(root)):
                l = left[v]
                if l < 0:
                    if leaf_root[leaf_index2[v]] != root:
                        raise InvariantError(
                            "partition is not realizable as a forest of the "
                            "second tree")
                    live[v] = 1
                    cover[v] = root
                    continue
                r = right[v]
                ll = 0 if cut[l] else live[l]
                rr = 0 if cut[r] else live[r]
                lv = ll + rr
                live[v] = lv
                if lv and (lv < size or (ll and rr)):
                    cover[v] = root
                else:
                    cover[v] = -1

    def meeting_path(self, root, size, below=None):
        """Nodes from ``root`` down to the meeting node of ``size``
        leaves of the forest tree it roots, each above the last with one
        child holding all of them.  ``below(v)`` counts those leaves in
        the subtree of ``v``; by default they are the whole block, and
        the live counts count them.
        """
        t2 = self.pair.t2
        left, right = t2.left, t2.right
        cut = self.cut
        if below is None:
            below = self.live.__getitem__
        v = root
        path = [v]
        while left[v] >= 0:
            l, r = left[v], right[v]
            if not cut[l] and below(l) == size:
                v = l
            elif not cut[r] and below(r) == size:
                v = r
            else:
                break
            path.append(v)
        return path

    def _refresh_colors(self):
        """Count the installed coloring's red and blue leaves on the
        tinted nodes, and record each colored block's colored meet.

        The colored leaves are grouped by forest tree, and a block of
        one leaf (its root holds one live leaf) is skipped: no violation
        can fire inside it.  In any other block the colored leaves meet
        at the lca of the smallest and largest of their node ids, the
        first ancestor of the smallest whose id reaches the largest; the
        block's id maps to it in ``meets``, and the walks up from its
        colored leaves stop there, since above it every node holds all
        of the block's colors and no violation can fire either.  The
        previous coloring's entries are zeroed first and ``meets``
        starts empty, so every node outside the new tinted set reads
        zero and every block the pass skips reads white.
        """
        live_r, live_b = self.live_r, self.live_b
        for v in self.tinted:
            live_r[v] = live_b[v] = 0
        self.tinted, self.meets = [], {}
        coloring = self.coloring
        if coloring is None:
            return
        pair = self.pair
        t2 = pair.t2
        left, right, parent = t2.left, t2.right, t2.parent
        cut, live = self.cut, self.live
        leaf_node2, leaf_root = pair.leaf_node2, self.leaf_root
        groups = {}  # forest-tree root -> red and blue leaf nodes
        for k, leaves in enumerate((coloring.red, coloring.blue)):
            for i in leaves:
                r = leaf_root[i]
                if live[r] == 1:  # a block of one leaf
                    continue
                if r in groups:
                    groups[r][k].append(leaf_node2[i])
                else:
                    group = groups[r] = ([], [])
                    group[k].append(leaf_node2[i])
        seen = set()
        for r, (reds, blues) in groups.items():
            for v in reds:
                live_r[v] = 1
            for v in blues:
                live_b[v] = 1
            nodes = reds + blues
            lo, hi = min(nodes), max(nodes)
            while lo < hi:
                lo = parent[lo]
            self.meets[self.root_comp[r]] = lo
            seen.add(lo)
            for v in nodes:
                while v not in seen:
                    seen.add(v)
                    v = parent[v]
        tinted = sorted(seen)
        for v in tinted:
            l = left[v]
            if l < 0:
                continue
            r = right[v]
            tr = tb = 0
            if not cut[l]:
                tr, tb = live_r[l], live_b[l]
            if not cut[r]:
                tr += live_r[r]
                tb += live_b[r]
            live_r[v] = tr
            live_b[v] = tb
        self.tinted = tinted

    # ------------------------------------------------------------------
    # refinement

    def split_below(self, node2):
        """Delete the edge above ``node2``, splitting the covering component.

        The component covering ``node2`` is replaced by the block of its
        leaves inside the subtree of ``node2`` and the complementary
        block; both are new components.  Returns their ids (below,
        above).  Raises when ``node2`` is not covered or the upper block
        would be empty.  The lower block's leaves come from a walk of its
        forest tree; the upper block keeps the root.
        """
        a = self.covering(node2)
        if a < 0:
            raise InvariantError("refinement point is not covered by any component")
        comp = self.comps[a]
        lv = self.live[node2]
        if lv >= comp.size:
            raise InvariantError("refinement would leave an empty upper block")
        left, leaf_index2 = self.pair.t2.left, self.pair.leaf_index2
        below = {leaf_index2[v] for v in self._forest_nodes(node2)
                 if left[v] < 0}
        if len(below) != lv:
            raise InvariantError("live count disagrees with collected leaves")
        return self._replace(comp, [below], [node2, comp.root2])

    def split_component(self, comp_id, parts, rest=False):
        """Replace one component by the given blocks, cutting canonically.

        ``parts`` is a list of disjoint nonempty collections of leaf
        indices inside the component.  Their union is the component, or
        with ``rest`` it leaves a nonempty rest of the component's
        leaves, which forms one more block, the last.  The block whose
        lca in the second tree is shallowest keeps the component's tree
        root; every other block is detached by deleting the edge above
        its own lca.  Valid only when the blocks' spans are pairwise
        disjoint in the second tree; under that condition each detached
        subtree, after the deeper cuts, holds exactly its block.  New
        ids follow ``parts`` order.  Each detached part is copied into a
        set, its block's leaf set; the kept part is not copied.

        One pass over the parts' leaves checks that each lies in the
        component and anchors each part: a part of one leaf at its leaf,
        any other at the lca of its smallest and largest node ids.  The
        rest's lca comes from a walk down from the root that subtracts
        the parts' leaves by bisection, so the call costs the leaves of
        ``parts`` and of the detached blocks.  Every check raises before
        any state changes.
        """
        comp = self.comps[comp_id]
        root = comp.root2
        if len(parts) + rest < 2:
            raise InvariantError("split needs at least two blocks")
        t2 = self.pair.t2
        leaf_node2, leaf_root = self.pair.leaf_node2, self.leaf_root
        nodes, roots = [], []
        for p in parts:
            if not p:
                raise InvariantError("empty block in split")
            start = len(nodes)
            for x in p:
                if leaf_root[x] != root:
                    raise InvariantError(
                        "split blocks do not partition the component")
                nodes.append(leaf_node2[x])
            if len(p) == 1:
                roots.append(nodes[start])
            else:
                ids = nodes[start:]
                roots.append(t2.lca(min(ids), max(ids)))
        total = len(nodes)
        if (len(set(nodes)) != total
                or (total >= comp.size if rest else total != comp.size)):
            raise InvariantError("split blocks do not partition the component")

        depth, smin = t2.depth, t2.subtree_min
        if rest:
            live = self.live
            nodes.sort()

            def rest_below(v):
                return (live[v] - bisect_right(nodes, v)
                        + bisect_left(nodes, smin[v]))

            roots.append(
                self.meeting_path(root, comp.size - total, rest_below)[-1])
        keep = 0
        for k in range(1, len(roots)):
            v, w = roots[k], roots[keep]
            if depth[v] < depth[w] or (depth[v] == depth[w] and v < w):
                keep = k
        roots[keep] = root
        cut = self.cut
        for k, v in enumerate(roots):
            if k != keep and (v == root or cut[v] or v in roots[:k]):
                raise InvariantError("block anchor is not cuttable")
        return self._replace(comp, [p if k == keep else set(p)
                                    for k, p in enumerate(parts)], roots)

    def _replace(self, comp, parts, roots):
        """Replace ``comp`` by blocks rooted at ``roots``, cutting above
        every root but its own; returns the new ids in that order.

        ``parts`` holds the blocks' leaves, or all but the last, which
        is then the rest of ``comp``'s leaves; each detached part is a
        set, which becomes its block's leaf set.  The kept part may be
        any collection: only its length is read, and for a detached rest
        the set difference, which costs the kept block's leaves too,
        but the caller listed those.  Only detached leaves get a new
        ``leaf_root``.  The block that keeps the root keeps ``comp``'s
        leaf set object, which loses the other blocks' leaves in place.
        The detached trees get the structural pass.  ``comp``'s colored
        meet leaves ``meets``.  A new block is colored when the first
        node of its walk counts a red or blue leaf, and ``_lower_meet``
        then records its colored meet.  The walk starts at the old meet
        for the block whose tree holds it: the root with the lowest id
        whose subtree, the id range ``[subtree_min[v], v]``, contains the
        meet.  Every other block starts at its own root, which then has
        all of its colors below.
        """
        root = comp.root2
        keep = roots.index(root)
        if keep < len(parts):
            size = len(parts[keep])
        else:
            size = comp.size - sum(map(len, parts))
        anchors = [v for v in roots if v != root]
        meet = self.meets.pop(comp.id, -1)
        self._cut(root, meet, anchors, size)
        leaf_root, leaves = self.leaf_root, comp.leaves
        blocks = list(parts)
        if len(parts) < len(roots):
            blocks.append(leaves.difference(*parts) if keep < len(parts)
                          else leaves)
        blocks[keep] = leaves
        for k, (p, v) in enumerate(zip(blocks, roots)):
            if k != keep:
                for x in p:
                    leaf_root[x] = v
                leaves -= p

        origin0 = comp.origin0 if comp.id >= self.first_new else comp.id
        comps, root_comp = self.comps, self.root_comp
        del comps[comp.id]
        ids = range(self.next_id, self.next_id + len(roots))
        self.next_id = ids.stop
        smin = self.pair.t2.subtree_min
        holder = -1
        for v in roots:
            if smin[v] <= meet <= v and (holder < 0 or v < holder):
                holder = v
        live_r, live_b = self.live_r, self.live_b
        for cid, p, v in zip(ids, blocks, roots):
            comps[cid] = Component(cid, p, v, origin0)
            root_comp[v] = cid
            top = meet if v == holder else v
            if live_r[top] or live_b[top]:
                self._lower_meet(cid, top)
        self._refresh_structure(anchors)
        return list(ids)

    def _lower_meet(self, cid, top):
        """Record the colored meet of block ``cid`` at the end of the
        walk down from ``top``, a node of its tree with all of its red
        and blue leaves below, and zero the colors of the nodes passed
        on the way, which stay in ``tinted``.  From a leaf the walk
        passes no node, so a block of one leaf gets its leaf.
        """
        live_r, live_b = self.live_r, self.live_b
        path = self.meeting_path(top, live_r[top] + live_b[top],
                                 lambda v: live_r[v] + live_b[v])
        self.meets[cid] = path.pop()
        for v in path:
            live_r[v] = live_b[v] = 0

    def _cut(self, root, meet, anchors, size):
        """Cut the edges above ``anchors``, nodes of the forest tree with
        root ``root``, which keeps ``size`` leaves; ``meet`` is its
        block's colored meet, or -1.

        Each anchor's live, red and blue counts, read before any update,
        come off the nodes above it up to the first cut node: the root,
        or an anchor it nests in, whose counts then exclude it.  The
        colors, nonzero only at or below ``meet``, come off no node
        above it; ``tinted`` keeps the nodes this empties.  In the kept
        tree, coverage changes only on the paths that reach the root,
        where a node holding some but not all of the block's leaves is
        covered, and on the chain from the root down to the block's new
        meeting node: a node there holds every leaf of the block, so
        only the meeting node is covered.  The detached trees are left
        to the structural pass.
        """
        parent = self.pair.t2.parent
        cut, live, cover = self.cut, self.live, self.cover
        live_r, live_b = self.live_r, self.live_b
        counts = []
        for a in anchors:
            counts.append((a, live[a], live_r[a], live_b[a]))
            cut[a] = True
        path = []
        for a, d, dr, db in counts:
            start = len(path)
            tint = a < meet and (dr or db)
            v = parent[a]
            while True:
                live[v] -= d
                if tint:
                    live_r[v] -= dr
                    live_b[v] -= db
                    tint = v != meet
                path.append(v)
                if v == root or cut[v]:
                    break
                v = parent[v]
            if v != root:
                del path[start:]
        for v in path:
            cover[v] = root if 0 < live[v] < size else -1
        down = self.meeting_path(root, size)
        for v in down:
            cover[v] = -1
        cover[down[-1]] = root

    # ------------------------------------------------------------------
    # merging

    def merge(self, pairs):
        """Union the two components containing each pair of leaves, in
        order, then re-cut the forest in place with ``canonicalize_cuts``
        and hand the saved sweep the first-tree seeds of what changed.

        Until the re-cut a merged block has no forest tree: the smaller
        block's leaves map to the larger one's root, its key, which
        names the merged block, and join the larger one's leaf set,
        which the merged block takes over.  Each merged block keeps the
        list of its parts, the blocks before the call, as (root, size,
        leaf) triples, and the list of the leaf sets pointed at its key.
        """
        comps, leaf_root = self.comps, self.leaf_root
        first = self.next_id
        parts, moved = {}, {}
        for x1, x2 in pairs:
            a = self.component_of_leaf(x1)
            b = self.component_of_leaf(x2)
            if a.id == b.id:
                raise InvariantError("merge pair already shares a component")
            if a.size < b.size:
                a, b = b, a
            pa = parts.pop(a.id, None) or [(a.root2, a.size, next(iter(a.leaves)))]
            pa += parts.pop(b.id, None) or [(b.root2, b.size, next(iter(b.leaves)))]
            ma = moved.pop(a.id, None) or []
            moved.pop(b.id, None)
            ma.append(b.leaves)
            key = a.root2
            for x in b.leaves:
                leaf_root[x] = key
            a.leaves |= b.leaves
            del comps[a.id]
            del comps[b.id]
            cid = self.next_id
            self.next_id += 1
            comps[cid] = Component(cid, a.leaves, key, -1)
            self.root_comp[key] = cid
            parts[cid], moved[cid] = pa, ma
        fresh, grown = self.canonicalize_cuts(parts, moved)
        if self.sweep is not None:
            self.sweep.merged(self, first, fresh, grown)

    def canonicalize_cuts(self, parts, moved):
        """Re-cut the forest in place into the canonical one of its
        blocks: each block cut above its lca in the second tree, except
        one of least lca depth (then least lca, then least id), which
        keeps the root.

        ``parts`` and ``moved`` come from ``merge``: every other block
        is a tree of the forest, whose lca is its meeting node, and a
        merged block's lca is the lca of its parts' meeting nodes.  Two
        blocks cut at one lca raise, as do blocks whose spans in the
        second tree share a node: the spans of the forest's trees are
        disjoint, so only a merged block's join paths, from its parts'
        meeting nodes up to its lca, can meet another block's span,
        which ``cover`` shows, or another join path.

        Then only what changes is written.  A block changes when it is
        merged or its root moves; the edges above the changed blocks'
        old and new roots toggle, each toggle adding or taking its
        node's live count on the nodes above it, up to the first cut
        node, and those nodes' coverage is recomputed: a node an added
        edge takes leaves from holds none, unless some removed edge
        gives it a block's leaves.  Join paths are covered by their
        merged block.  A block's span, up to its lca, takes its new root
        in ``cover`` and ``leaf_root`` when the root moves; a merged
        block that keeps its key, the root of the part it grew from (the
        larger block at each union), writes only the leaves it moved
        there.  Returns what ``merge`` hands the sweep: the leaf sets
        whose root is new, and per merged block that kept its key the
        key part's size and one of its leaves with the moved leaf sets.
        """
        t2 = self.pair.t2
        depth, parent, top = t2.depth, t2.parent, t2.root
        left, right = t2.left, t2.right
        comps, cut, live, cover = self.comps, self.cut, self.live, self.cover
        anchor, part_meets = {}, {}
        least = None
        for cid, c in comps.items():
            ps = parts.get(cid)
            if ps is None:
                a = self.meeting_path(c.root2, c.size)[-1]
            else:
                ms = part_meets[cid] = [self.meeting_path(r, s)[-1]
                                        for r, s, _ in ps]
                a = t2.lca(min(ms), max(ms))
            anchor[cid] = a
            if least is None or (depth[a], a) < least[:2]:
                least = depth[a], a, cid
        keep = least[2]
        if len(set(anchor.values())) < len(anchor):
            seen = set()
            for cid in comps:
                if cid != keep:
                    if anchor[cid] in seen:
                        raise InvariantError(
                            "two components share a lca in the second tree")
                    seen.add(anchor[cid])
        joins = {}
        for cid, ms in part_meets.items():
            p = anchor[cid]
            own = {r for r, _, _ in parts[cid]}
            for v in ms:
                while v != p:
                    v = parent[v]
                    owner = joins.get(v)
                    if owner == cid:
                        break
                    if owner is not None or (cover[v] >= 0
                                             and cover[v] not in own):
                        raise InvariantError(
                            "partition is not realizable as a forest of "
                            "the second tree")
                    joins[v] = cid

        changed = []  # (block, new root, old roots)
        for cid, c in comps.items():
            r = top if cid == keep else anchor[cid]
            if cid in parts:
                changed.append((c, r, [q for q, _, _ in parts[cid]]))
            elif r != c.root2:
                changed.append((c, r, [c.root2]))
        new = {r for _, r, _ in changed}
        touched = {}  # node -> root of its tree, or -1 for no leaves
        for r in new:
            if r != top and not cut[r]:
                self._toggle(r, True, -1, touched)
        for _, r, olds in changed:
            for q in olds:
                if q != top and q not in new:
                    self._toggle(q, False, r, touched)
        for v, r in touched.items():
            if r < 0:
                cover[v] = -1
                continue
            l, rr = left[v], right[v]
            lv = live[v]
            both = not cut[l] and live[l] and not cut[rr] and live[rr]
            cover[v] = r if lv and (lv < live[r] or both) else -1

        root_comp, leaf_root = self.root_comp, self.leaf_root
        for _, _, olds in changed:
            for q in olds:
                root_comp.pop(q, None)
        fresh, grown, spans = [], [], []
        for c, r, _ in changed:
            root_comp[r] = c.id
            if c.id in parts and r == c.root2:
                size, x = next((s, x) for q, s, x in parts[c.id] if q == r)
                grown.append((size, x, moved[c.id]))
                spans.append((moved[c.id], r, anchor[c.id]))
            else:
                c.root2 = r
                for x in c.leaves:
                    leaf_root[x] = r
                fresh.append(c.leaves)
                spans.append(([c.leaves], r, anchor[c.id]))
        for v, cid in joins.items():
            cover[v] = comps[cid].root2
        for leaf_sets, r, lca in spans:
            self._cover_span(leaf_sets, r, lca)
        self.refresh_annotations(None)
        return fresh, grown

    def _toggle(self, u, on, root, touched):
        """Cut (``on``) or restore the edge above ``u``: its live count
        comes off or goes onto the nodes above it, up to the first cut
        node or the root, each then mapped to ``root`` in ``touched``."""
        cut, live, parent = self.cut, self.live, self.pair.t2.parent
        top = self.pair.t2.root
        cut[u] = on
        d = -live[u] if on else live[u]
        if d:
            v = parent[u]
            while True:
                live[v] += d
                touched[v] = root
                if cut[v] or v == top:
                    break
                v = parent[v]

    def _cover_span(self, leaf_sets, root, lca):
        """Cover with ``root`` the nodes from each leaf up to the block's
        ``lca``, stopping at a node that already reads ``root``: every
        node there has its path up to ``lca`` covered already."""
        cover, leaf_node2 = self.cover, self.pair.leaf_node2
        parent = self.pair.t2.parent
        for leaves in leaf_sets:
            for x in leaves:
                v = leaf_node2[x]
                while cover[v] != root:
                    cover[v] = root
                    if v == lca:
                        break
                    v = parent[v]


def as_blocks(components):
    """Blocks of a Partition or of any collection of leaf index sets.

    Returns one frozenset of leaf indices per block, so callers can take
    either form of a forest.
    """
    if isinstance(components, Partition):
        return [frozenset(c.leaves) for c in components.comps.values()]
    return [frozenset(b) for b in components]


def _spans_disjoint(spans):
    """True when no two ``(span1, span2)`` pairs share a node in either
    tree, that is when in each tree the sizes add up to the union's."""
    for tree in zip(*spans):
        if sum(map(len, tree)) != len(set().union(*tree)):
            return False
    return True


def is_feasible_maf(pair, components):
    """True when the partition is an agreement forest of the pair.

    Every block must induce the same shape in both trees and the blocks'
    spans must be pairwise node-disjoint in both trees.  Raises
    ValueError when the blocks do not partition the leaf set.
    """
    blocks = as_blocks(components)
    flat = [x for b in blocks for x in b]
    if len(flat) != pair.n or set(flat) != set(range(pair.n)):
        raise ValueError("blocks do not partition the leaf set")
    for b in blocks:
        if not set_compatible(pair, b):
            return False
    return _spans_disjoint(
        [(spanned_nodes(pair, 1, b), spanned_nodes(pair, 2, b))
         for b in blocks])


def is_K_feasible(pair, components, K):
    """Feasibility of a partition relative to a leaf subset K.

    Every block restricted to K must stay compatible even after adding
    any single leaf of the block outside K, and block spans may not
    share nodes of the second tree nor nodes of the first tree spanned
    by K.
    """
    blocks = as_blocks(components)
    kset = set(K)
    for b in blocks:
        bk = sorted(b & kset)
        if not set_compatible(pair, bk):
            return False
        for w in b - kset:
            if not set_compatible(pair, bk + [w]):
                return False
    v1k = spanned_nodes(pair, 1, K) if kset else set()
    return _spans_disjoint(
        [(spanned_nodes(pair, 1, b) & v1k, spanned_nodes(pair, 2, b))
         for b in blocks])
