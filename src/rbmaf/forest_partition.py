"""Leaf partitions maintained as forests cut out of the second tree.

The deleted-edge set over the second tree is the authoritative state
while the refinement loop runs: every component is the leaf set of one
tree of the forest obtained by removing the deleted edges, and the
number of deleted edges always equals the number of components minus
one.  The merge phase at the very end briefly inverts that authority,
unioning component leaf sets and then re-deriving a canonical cut set
that realizes them (cut above each component's lca in the second tree,
except for one shallowest component that keeps the original root).

Annotations come from two passes over the second tree.  The structural
pass gives, per node, the number of live leaves below it inside its
forest tree and the root of the forest tree covering the node, where
"covering" means the node lies on a path between two leaves of that
tree's block inside the forest.  Coverage holds roots, not block ids:
the part of a split block that keeps the root keeps every entry, and
``root_comp`` names the block.  A split updates the kept tree in place
along the cut paths and along the chain from its root down to its new
meeting node, the only nodes whose live count or coverage can change
there; the detached trees are stale, and the structural pass walks only
stale trees, so it costs the size of the new trees, not n.  It also
checks that every leaf it meets belongs to its tree's block.  The color
pass runs on every refresh but visits only the tinted nodes, the
forest-tree ancestors of the red and blue leaves, found by walking up
from each colored leaf until a cut edge or an already tinted node: per
tinted node it counts the red and blue live leaves below it, and per
painted block (one holding a red or blue leaf) its red and blue leaves
and its number of colors.  Every other node has no red or blue leaf
below it, and white counts are live counts minus red and blue.
"""

from __future__ import annotations

from .tree_model import InvariantError, set_compatible, spanned_nodes

_KEEP = object()


class Component:
    """One block of the partition plus bookkeeping for the refinement loop.

    ``root2`` is the root node of the component's tree in the cut
    forest, and ``origin0`` points to the ancestor block that existed
    when the iteration that created this one started (it is read only
    while that iteration runs).  Red and blue counts are filled by
    annotation refreshes (all white without a coloring).
    """

    __slots__ = ("id", "leaves", "root2", "origin0", "n_red", "n_blue")

    def __init__(self, cid, leaves, root2, origin0):
        self.id = cid
        self.leaves = leaves
        self.root2 = root2
        self.origin0 = origin0
        self.n_red = 0
        self.n_blue = 0

    @property
    def size(self):
        return len(self.leaves)

    @property
    def n_white(self):
        return len(self.leaves) - self.n_red - self.n_blue

    def __repr__(self):
        return "Component(%d, %r)" % (self.id, self.leaves)


class Partition:
    """Partition of the shared leaf set, realized by cutting the second tree.

    Component ids are never reused, so an id doubles as a generation
    stamp: the blocks created in the current iteration are those with
    ids from ``first_new`` on (the initial block counts as created in
    iteration 0).  A block's size is the length of its leaf list, and a
    leaf's forest tree is rooted at its block's ``root2``.  A split
    updates the tree that keeps the block's root in place and records
    the roots of the trees it detaches in ``stale``; readers refresh on
    demand when it is nonempty, and the refresh rewrites the annotation
    arrays on those trees only.  ``mixed`` maps each block the coloring
    paints with two or three colors to that count.  ``sweep`` holds
    ``find_lowest_pcs``'s saved state, which merges drop because they
    re-derive the roots.
    """

    __slots__ = ("pair", "comps", "leaf_comp", "cut", "root_comp",
                 "next_id", "first_new", "stale", "coloring", "live",
                 "live_r", "live_b", "tinted", "painted", "mixed", "cover",
                 "sweep")

    def __init__(self, pair):
        self.pair = pair
        root = pair.t2.root
        comp = Component(0, list(range(pair.n)), root, 0)
        self.comps = {0: comp}
        self.leaf_comp = [0] * pair.n
        self.cut = [False] * pair.t2.n_nodes
        self.root_comp = {root: 0}
        self.next_id = 1
        self.first_new = 0
        self.stale = [root]
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

    def __len__(self):
        return len(self.comps)

    def component_of_leaf(self, i):
        return self.comps[self.leaf_comp[i]]

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

    def begin_iteration(self, k):
        """Start iteration ``k``; the ids, not ``k``, mark what it creates."""
        self.first_new = self.next_id

    # ------------------------------------------------------------------
    # annotations

    def refresh_annotations(self, coloring=_KEEP):
        """Install ``coloring`` (default: keep the current one) and bring
        the annotations up to date.

        The structural pass runs only when the forest changed since the
        last refresh; the color pass always runs.
        """
        if coloring is not _KEEP:
            self.coloring = coloring
        if self.stale:
            self._refresh_structure()
        self._refresh_colors()

    def _refresh_structure(self):
        """Recompute live counts and coverage on the stale forest trees.

        Post-order ids make the tree rooted at ``r`` the id range
        ``[subtree_min[r], r]`` minus the subtrees of its cut nodes, so
        a walk down from ``r`` that jumps past each cut subtree collects
        it.  One ascending pass over those nodes then fills the live
        counts and decides coverage from the live counts of the two
        children against the size of the tree's block.  Every leaf met
        must belong to that block, or the cuts do not realize the
        partition.
        """
        stale = set(self.stale)
        if -1 in stale:
            raise InvariantError(
                "annotations read after merge_leaves: canonicalize_cuts is pending")
        t2 = self.pair.t2
        left, right, smin = t2.left, t2.right, t2.subtree_min
        leaf_index2, leaf_comp = self.pair.leaf_index2, self.leaf_comp
        cut, live, cover = self.cut, self.live, self.cover
        for root in stale:
            nodes = [root]
            v, lo = root - 1, smin[root]
            while v >= lo:
                if cut[v]:
                    v = smin[v] - 1
                else:
                    nodes.append(v)
                    v -= 1
            cid = self.root_comp[root]
            size = len(self.comps[cid].leaves)
            for v in reversed(nodes):
                l = left[v]
                if l < 0:
                    if leaf_comp[leaf_index2[v]] != cid:
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
        self.stale = []

    def _update_kept_tree(self, root, anchors, size):
        """Update the tree rooted at ``root`` in place after the edges
        above ``anchors`` were cut, leaving its block ``size`` leaves.

        Anchors can nest; only the outermost ones count, each taking its
        old live count, which includes the nested ones, off its
        ancestors up to ``root``.  Coverage then changes only on those
        paths, and on the chain from ``root`` down to the block's new
        meeting node: a node there holds every leaf of the block, so it
        is covered only if both its children hold some.
        """
        t2 = self.pair.t2
        left, right, parent, smin = t2.left, t2.right, t2.parent, t2.subtree_min
        cut, live, cover = self.cut, self.live, self.cover
        path = []
        for a in anchors:
            if any(smin[b] <= a < b for b in anchors):
                continue
            d = live[a]
            v = a
            while v != root:
                v = parent[v]
                live[v] -= d
                path.append(v)
        for v in path:
            l, r = left[v], right[v]
            ll = 0 if cut[l] else live[l]
            rr = 0 if cut[r] else live[r]
            lv = ll + rr
            cover[v] = root if lv and (lv < size or (ll and rr)) else -1
        for v in self.meeting_path(root, size)[:-1]:
            cover[v] = -1

    def meeting_path(self, root, size):
        """Nodes from ``root`` down to the meeting node of the block of
        ``size`` leaves whose forest tree it roots: the nodes holding
        every leaf of that block, each above the last with one live child.
        """
        t2 = self.pair.t2
        left, right = t2.left, t2.right
        cut, live = self.cut, self.live
        v = root
        path = [v]
        while left[v] >= 0:
            l, r = left[v], right[v]
            if not cut[l] and live[l] == size:
                v = l
            elif not cut[r] and live[r] == size:
                v = r
            else:
                break
            path.append(v)
        return path

    def _refresh_colors(self):
        """Recount red and blue leaves on the tinted nodes and painted
        blocks, and classify the painted blocks by color count.

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
        leaf_comp = self.leaf_comp
        painted = set()
        for i in coloring.red:
            c = comps[leaf_comp[i]]
            c.n_red += 1
            painted.add(c.id)
        for i in coloring.blue:
            c = comps[leaf_comp[i]]
            c.n_blue += 1
            painted.add(c.id)
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
        mixed = self.mixed
        for cid in painted:
            c = comps[cid]
            k = (c.n_red > 0) + (c.n_blue > 0) + (c.n_red + c.n_blue < len(c.leaves))
            if k > 1:
                mixed[cid] = k
        self.tinted = tinted
        self.painted = painted

    # ------------------------------------------------------------------
    # refinement

    def _new_component(self, leaves, root2, origin0):
        cid = self.next_id
        self.next_id += 1
        self.comps[cid] = Component(cid, leaves, root2, origin0)
        self.root_comp[root2] = cid
        for x in leaves:
            self.leaf_comp[x] = cid
        return cid

    def split_below(self, node2):
        """Delete the edge above ``node2``, splitting the covering component.

        The component covering ``node2`` is replaced by the block of its
        leaves inside the subtree of ``node2`` and the complementary
        block; both are new components.  Returns their ids (below,
        above).  Raises when ``node2`` is not covered or the upper block
        would be empty.
        """
        if self.stale:
            self.refresh_annotations(_KEEP)
        a = self.covering(node2)
        if a < 0:
            raise InvariantError("refinement point is not covered by any component")
        comp = self.comps[a]
        lv = self.live[node2]
        if lv >= len(comp.leaves):
            raise InvariantError("refinement would leave an empty upper block")
        t2 = self.pair.t2
        lo = t2.subtree_min[node2]
        nodes2 = self.pair.leaf_node2
        below = [x for x in comp.leaves if lo <= nodes2[x] <= node2]
        above = [x for x in comp.leaves if not (lo <= nodes2[x] <= node2)]
        if len(below) != lv:
            raise InvariantError("live count disagrees with collected leaves")
        return self._replace(comp, [below, above], [node2, comp.root2])

    def split_component(self, comp_id, parts):
        """Replace one component by the given blocks, cutting canonically.

        ``parts`` is a list of disjoint nonempty leaf-index lists whose
        union is the component.  The block whose lca in the second tree
        is shallowest keeps the component's tree root; every other block
        is detached by deleting the edge above its own lca.  Valid only
        when the blocks' spans are pairwise disjoint in the second tree;
        under that condition each detached subtree, after the deeper
        cuts, holds exactly its block.  New ids follow ``parts`` order.
        When the component's own tree is stale, the pending structural
        refresh runs first; the color pass stays pending.
        """
        comp = self.comps[comp_id]
        if len(parts) < 2:
            raise InvariantError("split needs at least two blocks")
        total = 0
        seen = set()
        for p in parts:
            if not p:
                raise InvariantError("empty block in split")
            total += len(p)
            seen.update(p)
        if total != len(comp.leaves) or seen != set(comp.leaves):
            raise InvariantError("split blocks do not partition the component")

        if comp.root2 in self.stale:
            self._refresh_structure()
        pair = self.pair
        depth = pair.t2.depth
        roots = [pair.lca_of_leaves(2, p) for p in parts]
        keep = min(range(len(parts)), key=lambda k: (depth[roots[k]], roots[k]))
        roots[keep] = comp.root2
        if (len(set(roots)) < len(roots)
                or any(self.cut[v] for v in roots if v != comp.root2)):
            raise InvariantError("block anchor is not cuttable")
        return self._replace(comp, [sorted(p) for p in parts], roots)

    def _replace(self, comp, parts, roots):
        """Replace ``comp`` by the blocks ``parts``, the k-th rooted at
        ``roots[k]``, cutting above every root but its own; returns the
        new ids in ``parts`` order."""
        root = comp.root2
        detached = [v for v in roots if v != root]
        for v in detached:
            self.cut[v] = True
        self._update_kept_tree(root, detached, len(parts[roots.index(root)]))
        self.stale += detached
        origin0 = comp.origin0 if comp.id >= self.first_new else comp.id
        del self.comps[comp.id]
        return [self._new_component(p, v, origin0) for p, v in zip(parts, roots)]

    # ------------------------------------------------------------------
    # merging

    def merge_leaves(self, x1, x2):
        """Union the two components containing the given leaves."""
        a = self.comps[self.leaf_comp[x1]]
        b = self.comps[self.leaf_comp[x2]]
        if a.id == b.id:
            raise InvariantError("merge pair already shares a component")
        merged = sorted(a.leaves + b.leaves)
        del self.comps[a.id]
        del self.comps[b.id]
        # the merged block has no forest tree until canonicalize_cuts,
        # so a refresh before then raises
        self.stale.append(-1)
        self.sweep = None
        return self._new_component(merged, -1, -1)

    def canonicalize_cuts(self):
        """Re-derive the deleted-edge set from the component leaf sets.

        Cut above each component's lca in the second tree except for one
        component of minimum lca depth, which keeps the original root.
        The structural refresh validates that the resulting forest
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
        self.root_comp[t2.root] = keep
        self.stale = [c.root2 for c in self.comps.values()]
        self.sweep = None
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
