"""Leaf partitions maintained as forests cut out of the second tree.

The deleted-edge set over the second tree is the authoritative state
while the refinement loop runs: every component is the leaf set of one
tree of the forest obtained by removing the deleted edges, and the
number of deleted edges always equals the number of components minus
one.  The merge phase at the very end is one call that inverts that
authority: it unions component leaf sets and then re-derives a
canonical cut set that realizes them (cut above each component's lca in
the second tree, except for one shallowest component that keeps the
original root).

Every leaf maps to the root of its forest tree (``leaf_root``) and
``root_comp`` names the block of each root, so a split writes
``leaf_root`` only for the leaves it detaches: the part that keeps the
root keeps its entries, gets its new id through ``root_comp`` and
inherits the block's sorted leaf list, from which the detached leaves
are deleted by bisection.

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
The color pass runs when a coloring is installed and visits only the
tinted nodes, the forest-tree ancestors of the red and blue leaves,
found by walking up from each colored leaf until a cut edge or an
already tinted node: per tinted node it counts the red and blue live
leaves below it, and per painted block (one holding a red or blue leaf)
its red and blue leaves and its number of colors.  Splits keep those
counts current: each cut takes its subtree's red and blue counts off
the nodes above it, up to the first cut node.  Every other node has no
red or blue leaf below it, and white counts are live counts minus red
and blue.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain

from .tree_model import InvariantError, set_compatible, spanned_nodes


class Component:
    """One block of the partition plus bookkeeping for the refinement loop.

    ``root2`` is the root node of the component's tree in the cut
    forest, and ``origin0`` points to the ancestor block that existed
    when the iteration that created this one started (it is read only
    while that iteration runs).  ``leaves`` is sorted and ``size`` is
    its length: a block's leaves never change, a split hands its list on
    to the new block that keeps its root.  Red and blue counts follow
    the installed coloring (all white without one).
    """

    __slots__ = ("id", "leaves", "size", "root2", "origin0", "n_red",
                 "n_blue")

    def __init__(self, cid, leaves, root2, origin0):
        self.id = cid
        self.leaves = leaves
        self.size = len(leaves)
        self.root2 = root2
        self.origin0 = origin0
        self.n_red = 0
        self.n_blue = 0

    @property
    def n_white(self):
        return self.size - self.n_red - self.n_blue

    def __repr__(self):
        return "Component(%d, %r)" % (self.id, self.leaves)


def _drop_sorted(leaves, drop):
    """Delete the sorted list ``drop`` from the sorted list ``leaves``,
    which holds all of it, in place, finding each element by bisection.

    A deletion moves the tail of the list in one block copy, and a
    rebuild copies every element with its reference count, so a few
    deletions cost less than a rebuild (by about 100 times for one leaf
    of 100k) and many deletions more (6 times at 5,000).
    """
    if len(drop) < 128:
        for x in reversed(drop):
            del leaves[bisect_left(leaves, x)]
        return
    kept, i = [], 0
    for x in drop:
        j = bisect_left(leaves, x, i)
        kept += leaves[i:j]
        i = j + 1
    kept += leaves[i:]
    leaves[:] = kept


class Partition:
    """Partition of the shared leaf set, realized by cutting the second tree.

    Component ids are never reused, so an id doubles as a generation
    stamp: the blocks created in the current iteration are those with
    ids from ``first_new`` on (the initial block counts as created in
    iteration 0).  A block's leaves are its forest tree's leaves, and
    ``root_comp[leaf_root[i]]`` is the block of leaf ``i``.  The
    annotations are current after every public call: a split updates
    the tree that keeps the block's root in place and rewrites the
    annotation arrays on the trees it detaches only.  ``mixed`` maps
    each block the coloring paints with two or three colors to that
    count.  ``sweep`` holds ``find_lowest_pcs``'s saved state, which
    ``merge`` drops because it re-derives the roots.
    """

    __slots__ = ("pair", "comps", "leaf_root", "cut", "root_comp",
                 "next_id", "first_new", "coloring", "live", "live_r",
                 "live_b", "tinted", "painted", "mixed", "cover", "sweep")

    def __init__(self, pair):
        self.pair = pair
        root = pair.t2.root
        comp = Component(0, list(range(pair.n)), root, 0)
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
        self.painted = set()
        self.mixed = {}
        self.sweep = None
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
        return tuple(sorted(tuple(c.leaves) for c in self.comps.values()))

    def label_sets(self):
        labs = self.pair.labels
        return tuple(sorted(
            tuple(sorted(labs[i] for i in c.leaves))
            for c in self.comps.values()))

    def deleted_edge_nodes(self):
        return [v for v in range(self.pair.t2.n_nodes) if self.cut[v]]

    def deleted_edges_labels(self):
        """Each deleted edge as the sorted labels below its child endpoint.

        The label set is taken in the full second tree, so nested cuts
        report nested label sets; entries are sorted lexicographically.
        """
        t2 = self.pair.t2
        out = []
        for v in self.deleted_edge_nodes():
            out.append([t2.labels[u] for u in t2.leaves_below(v)])
        for e in out:
            e.sort()
        out.sort()
        return out

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

    # ------------------------------------------------------------------
    # annotations

    def refresh_annotations(self, coloring):
        """Install ``coloring`` (None clears it) and count its colors.

        The color counts need no refresh otherwise: every split carries
        them through its cuts.
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
        tinted nodes and painted blocks, and classify the painted blocks
        by color count.

        The previous coloring's entries are zeroed first, so every node
        and block outside the new tinted and painted sets reads zero.
        """
        live_r, live_b, comps = self.live_r, self.live_b, self.comps
        for v in self.tinted:
            live_r[v] = live_b[v] = 0
        for cid in self.painted & comps.keys():
            comps[cid].n_red = comps[cid].n_blue = 0
        self.tinted, self.painted, self.mixed = [], set(), {}
        coloring = self.coloring
        if coloring is None:
            return
        pair = self.pair
        t2 = pair.t2
        left, right, parent, root = t2.left, t2.right, t2.parent, t2.root
        cut = self.cut
        leaf_node2 = pair.leaf_node2
        seen = set()
        for leaves, counts in ((coloring.red, live_r), (coloring.blue, live_b)):
            for v in map(leaf_node2.__getitem__, leaves):
                counts[v] = 1
                while v not in seen:
                    seen.add(v)
                    if cut[v] or v == root:
                        break
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
        root_comp, leaf_root = self.root_comp, self.leaf_root
        for r in {leaf_root[i] for i in chain(coloring.red, coloring.blue)}:
            self._paint(comps[root_comp[r]])

    def _paint(self, c):
        """Record block ``c``, which holds a red or blue leaf, as painted,
        with the red and blue counts of its root, and as mixed when it
        carries two or three colors."""
        r = c.n_red = self.live_r[c.root2]
        b = c.n_blue = self.live_b[c.root2]
        self.painted.add(c.id)
        k = (r > 0) + (b > 0) + (r + b < c.size)
        if k > 1:
            self.mixed[c.id] = k

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
        below = sorted(leaf_index2[v] for v in self._forest_nodes(node2)
                       if left[v] < 0)
        if len(below) != lv:
            raise InvariantError("live count disagrees with collected leaves")
        return self._replace(comp, [below], [node2, comp.root2])

    def split_component(self, comp_id, parts, rest=False):
        """Replace one component by the given blocks, cutting canonically.

        ``parts`` is a list of disjoint nonempty leaf-index lists inside
        the component.  Their union is the component, or with ``rest``
        it leaves a nonempty rest of the component's leaves, which forms
        one more block, the last.  The block whose lca in the second
        tree is shallowest keeps the component's tree root; every other
        block is detached by deleting the edge above its own lca.  Valid
        only when the blocks' spans are pairwise disjoint in the second
        tree; under that condition each detached subtree, after the
        deeper cuts, holds exactly its block.  New ids follow ``parts``
        order.  The last block's lca comes from a walk down from the
        root that counts the other blocks' leaves by bisection, so the
        call costs the leaves of ``parts`` and of the detached blocks.
        """
        comp = self.comps[comp_id]
        root = comp.root2
        if len(parts) + rest < 2:
            raise InvariantError("split needs at least two blocks")
        seen = set()
        for p in parts:
            if not p:
                raise InvariantError("empty block in split")
            seen.update(p)
        total = sum(map(len, parts))
        leaf_root = self.leaf_root
        if (len(seen) != total or set(map(leaf_root.__getitem__, seen)) != {root}
                or (total >= comp.size if rest else total != comp.size)):
            raise InvariantError("split blocks do not partition the component")

        pair = self.pair
        t2 = pair.t2
        depth, smin = t2.depth, t2.subtree_min
        roots = [pair.lca_of_leaves(2, p) for p in parts]
        if rest:
            nodes = sorted(map(pair.leaf_node2.__getitem__, seen))
            live = self.live

            def rest_below(v):
                return live[v] - bisect_right(nodes, v) + bisect_left(nodes, smin[v])

            roots.append(
                self.meeting_path(root, comp.size - total, rest_below)[-1])
        keep = min(range(len(roots)), key=lambda k: (depth[roots[k]], roots[k]))
        roots[keep] = root
        if (len(set(roots)) < len(roots)
                or any(self.cut[v] for v in roots if v != root)):
            raise InvariantError("block anchor is not cuttable")
        return self._replace(comp, [sorted(p) for p in parts], roots)

    def _replace(self, comp, parts, roots):
        """Replace ``comp`` by blocks rooted at ``roots``, cutting above
        every root but its own; returns the new ids in that order.

        ``parts`` holds the blocks' sorted leaf lists, or all but the
        last, which is then the rest of ``comp``'s leaves.  Only
        detached leaves get a new ``leaf_root``.  The block that keeps
        the root keeps ``comp``'s leaf list object, which loses the
        other blocks' leaves.  A detached rest is read off that list,
        which costs the kept block's leaves too, but the caller listed
        those.  The detached trees get the structural pass.
        """
        root = comp.root2
        keep = roots.index(root)
        sizes = [len(p) for p in parts]
        if len(parts) < len(roots):
            sizes.append(comp.size - sum(sizes))
        anchors = [v for v in roots if v != root]
        self._cut(root, anchors, sizes[keep])
        leaf_root = self.leaf_root
        blocks = []
        for k, v in enumerate(roots):
            if k == keep:
                p = comp.leaves
            elif k < len(parts):
                p = parts[k]
            else:
                given = set(chain.from_iterable(parts))
                p = [x for x in comp.leaves if x not in given]
            if k != keep:
                for x in p:
                    leaf_root[x] = v
            blocks.append(p)
        if keep < len(parts):
            comp.leaves[:] = parts[keep]
        else:
            _drop_sorted(comp.leaves, sorted(chain.from_iterable(parts)))

        origin0 = comp.origin0 if comp.id >= self.first_new else comp.id
        comps, root_comp = self.comps, self.root_comp
        live_r, live_b = self.live_r, self.live_b
        del comps[comp.id]
        self.painted.discard(comp.id)
        self.mixed.pop(comp.id, None)
        ids = range(self.next_id, self.next_id + len(roots))
        self.next_id = ids.stop
        for cid, p, v in zip(ids, blocks, roots):
            c = comps[cid] = Component(cid, p, v, origin0)
            root_comp[v] = cid
            if live_r[v] or live_b[v]:
                self._paint(c)
        self._refresh_structure(anchors)
        return list(ids)

    def _cut(self, root, anchors, size):
        """Cut the edges above ``anchors``, nodes of the forest tree
        rooted at ``root``, which keeps ``size`` leaves.

        Each anchor's live, red and blue counts, read before any update,
        come off the nodes above it up to the first cut node: the root,
        or an anchor it nests in, whose count then excludes it.  Tinted
        nodes left without red and blue leaves leave ``tinted``.  In the
        kept tree, coverage changes only on the paths that reach the
        root, and on the chain from the root down to the block's new
        meeting node: a node there holds every leaf of the block, so it
        is covered only if both its children hold some.  The detached
        trees are left to the structural pass.
        """
        t2 = self.pair.t2
        left, right, parent = t2.left, t2.right, t2.parent
        cut, live, cover = self.cut, self.live, self.cover
        live_r, live_b = self.live_r, self.live_b
        counts = [(live[a], live_r[a], live_b[a]) for a in anchors]
        for a in anchors:
            cut[a] = True
        path, emptied = [], []
        for a, (d, dr, db) in zip(anchors, counts):
            start = len(path)
            v = parent[a]
            while True:
                live[v] -= d
                if dr or db:
                    live_r[v] -= dr
                    live_b[v] -= db
                    if not (live_r[v] or live_b[v]):
                        emptied.append(v)
                path.append(v)
                if v == root or cut[v]:
                    break
                v = parent[v]
            if v != root:
                del path[start:]
        for v in path:
            l, r = left[v], right[v]
            ll = 0 if cut[l] else live[l]
            rr = 0 if cut[r] else live[r]
            lv = ll + rr
            cover[v] = root if lv and (lv < size or (ll and rr)) else -1
        for v in self.meeting_path(root, size)[:-1]:
            cover[v] = -1
        tinted = self.tinted
        for v in emptied:
            del tinted[bisect_left(tinted, v)]

    # ------------------------------------------------------------------
    # merging

    def merge(self, pairs):
        """Union the two components containing each pair of leaves, in
        order, then re-derive the cuts with ``canonicalize_cuts``.

        Until then a merged block has no forest tree: the smaller
        block's leaves map to the larger one's old root, which names the
        merged block.
        """
        comps, leaf_root = self.comps, self.leaf_root
        for x1, x2 in pairs:
            a = self.component_of_leaf(x1)
            b = self.component_of_leaf(x2)
            if a.id == b.id:
                raise InvariantError("merge pair already shares a component")
            if a.size < b.size:
                a, b = b, a
            key = leaf_root[a.leaves[0]]
            for x in b.leaves:
                leaf_root[x] = key
            del comps[a.id]
            del comps[b.id]
            cid = self.next_id
            self.next_id += 1
            comps[cid] = Component(cid, sorted(a.leaves + b.leaves), -1, -1)
            self.root_comp[key] = cid
        self.canonicalize_cuts()

    def canonicalize_cuts(self):
        """Re-derive the deleted-edge set from the component leaf sets.

        Cut above each component's lca in the second tree except for one
        component of minimum lca depth, which keeps the original root.
        The structural pass validates that the resulting forest
        reproduces every component, so an unrealizable (span-overlapping)
        family raises.
        """
        pair = self.pair
        t2 = pair.t2
        depth = t2.depth
        anchors = {cid: pair.lca_of_leaves(2, c.leaves)
                   for cid, c in self.comps.items()}
        keep = min(self.comps, key=lambda cid: (depth[anchors[cid]], anchors[cid], cid))
        self.cut = [False] * t2.n_nodes
        self.root_comp = {}
        leaf_root = self.leaf_root
        for cid, c in self.comps.items():
            if cid == keep:
                c.root2 = t2.root
            else:
                v = anchors[cid]
                if self.cut[v]:
                    raise InvariantError("two components share a lca in the second tree")
                self.cut[v] = True
                c.root2 = v
                self.root_comp[v] = cid
            for x in c.leaves:
                leaf_root[x] = c.root2
        self.root_comp[t2.root] = keep
        self.sweep = None
        self._refresh_structure([c.root2 for c in self.comps.values()])
        self.refresh_annotations(None)


def as_blocks(components):
    """Blocks of a Partition or of any collection of leaf index sets.

    Returns one frozenset of leaf indices per block, so callers can take
    either form of a forest.
    """
    if isinstance(components, Partition):
        return [frozenset(c.leaves) for c in components.comps.values()]
    return [frozenset(b) for b in components]


def _spans_disjoint(spans):
    """True when no two ``(span1, span2)`` pairs share a node in either tree."""
    for i, (s1i, s2i) in enumerate(spans):
        for s1j, s2j in spans[i + 1:]:
            if s1i & s1j or s2i & s2j:
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
