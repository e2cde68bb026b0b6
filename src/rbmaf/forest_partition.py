"""Leaf partitions maintained as forests cut out of the second tree.

The deleted-edge set over the second tree is the authoritative state
while the refinement loop runs: every component is the leaf set of one
tree of the forest obtained by removing the deleted edges, and the
number of deleted edges always equals the number of components minus
one.  The merge phase at the very end briefly inverts that authority,
unioning component leaf sets and then re-deriving a canonical cut set
that realizes them (cut above each component's lca in the second tree,
except for one shallowest component that keeps the original root).

Annotations are recomputed from scratch in O(n) after each structural
change: per node of the second tree, the number of live leaves below it
inside its forest tree (split by color, all white without a coloring), the
component owning its tree, and the component covering the node, where
"covering" means the node lies on a path between two leaves of that
component inside the forest.
"""

from __future__ import annotations

from .tree_model import InvariantError, set_compatible, spanned_nodes

_KEEP = object()


class Component:
    """One block of the partition plus bookkeeping for the refinement loop.

    ``root2`` is the root node of the component's tree in the cut
    forest, ``created_iter`` stamps the iteration that created it (0 for
    the initial block), and ``origin0`` points to the ancestor block
    that existed when the current iteration started.  Color counts are
    filled by annotation refreshes (all white without a coloring).
    """

    __slots__ = ("id", "leaves", "root2", "created_iter", "origin0",
                 "n_red", "n_blue", "n_white")

    def __init__(self, cid, leaves, root2, created_iter, origin0):
        self.id = cid
        self.leaves = leaves
        self.root2 = root2
        self.created_iter = created_iter
        self.origin0 = origin0
        self.n_red = 0
        self.n_blue = 0
        self.n_white = 0

    @property
    def size(self):
        return len(self.leaves)

    def __repr__(self):
        return "Component(%d, %r)" % (self.id, self.leaves)


class Partition:
    """Partition of the shared leaf set, realized by cutting the second tree.

    Component ids are never reused, so creation order doubles as a
    generation stamp.  All mutating operations mark the annotation
    arrays dirty; readers refresh on demand.
    """

    __slots__ = ("pair", "comps", "leaf_comp", "cut", "root_comp",
                 "next_id", "iteration", "dirty", "coloring",
                 "live", "live_r", "live_b", "live_w", "acomp", "treecomp")

    def __init__(self, pair):
        self.pair = pair
        root = pair.t2.root
        comp = Component(0, list(range(pair.n)), root, 0, 0)
        self.comps = {0: comp}
        self.leaf_comp = [0] * pair.n
        self.cut = [False] * pair.t2.n_nodes
        self.root_comp = {root: 0}
        self.next_id = 1
        self.iteration = 0
        self.dirty = True
        self.coloring = None
        self.live = self.live_r = self.live_b = self.live_w = None
        self.acomp = self.treecomp = None

    def __len__(self):
        return len(self.comps)

    def component_of_leaf(self, i):
        return self.comps[self.leaf_comp[i]]

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

    def begin_iteration(self, k):
        self.iteration = k
        for c in self.comps.values():
            c.origin0 = c.id

    # ------------------------------------------------------------------
    # annotations

    def refresh_annotations(self, coloring=_KEEP):
        """Recompute live counts, tree ownership and covering components.

        Pass 1 walks nodes in ascending (post-) order accumulating live
        leaf counts per forest tree; pass 2 walks in descending order
        propagating tree ownership downward and deciding coverage from
        the live counts of the two children.
        """
        if coloring is not _KEEP:
            self.coloring = coloring
        pair = self.pair
        t2 = pair.t2
        n = t2.n_nodes
        left, right, parent = t2.left, t2.right, t2.parent
        cut = self.cut
        leaf_index2 = pair.leaf_index2
        leaf_comp = self.leaf_comp
        comps = self.comps

        live = [0] * n
        live_r = [0] * n
        live_b = [0] * n
        live_w = [0] * n
        # Colors are 0 red, 1 blue, 2 white; with no coloring all are white.
        col = self.coloring.color if self.coloring is not None else [2] * pair.n
        for c in comps.values():
            c.n_red = c.n_blue = c.n_white = 0
        for i, cid in enumerate(leaf_comp):
            c = comps[cid]
            k = col[i]
            if k == 0:
                c.n_red += 1
            elif k == 1:
                c.n_blue += 1
            else:
                c.n_white += 1
        for v in range(n):
            l = left[v]
            if l < 0:
                k = col[leaf_index2[v]]
                live[v] = 1
                if k == 0:
                    live_r[v] = 1
                elif k == 1:
                    live_b[v] = 1
                else:
                    live_w[v] = 1
            else:
                r = right[v]
                if cut[l]:
                    t = tr = tb = tw = 0
                else:
                    t, tr, tb, tw = live[l], live_r[l], live_b[l], live_w[l]
                if not cut[r]:
                    t += live[r]
                    tr += live_r[r]
                    tb += live_b[r]
                    tw += live_w[r]
                live[v] = t
                live_r[v] = tr
                live_b[v] = tb
                live_w[v] = tw
        self.live_r, self.live_b, self.live_w = live_r, live_b, live_w

        treecomp = [0] * n
        acomp = [-1] * n
        root_comp = self.root_comp
        sizes = {cid: len(c.leaves) for cid, c in comps.items()}
        for v in range(n - 1, -1, -1):
            if cut[v] or v == n - 1:
                a = root_comp[v]
            else:
                a = treecomp[parent[v]]
            treecomp[v] = a
            lv = live[v]
            if lv == 0:
                continue
            l = left[v]
            if l < 0:
                acomp[v] = a
            elif lv < sizes[a]:
                acomp[v] = a
            else:
                r = right[v]
                ll = 0 if cut[l] else live[l]
                rr = 0 if cut[r] else live[r]
                if ll > 0 and rr > 0:
                    acomp[v] = a
        self.live = live
        self.treecomp = treecomp
        self.acomp = acomp
        self.dirty = False

    # ------------------------------------------------------------------
    # refinement

    def _new_component(self, leaves, root2, origin0):
        cid = self.next_id
        self.next_id += 1
        comp = Component(cid, leaves, root2, self.iteration, origin0)
        self.comps[cid] = comp
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
        if self.dirty:
            self.refresh_annotations(_KEEP)
        a = self.acomp[node2]
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
        self.cut[node2] = True
        bid = self._new_component(below, node2, comp.origin0)
        aid = self._new_component(above, comp.root2, comp.origin0)
        del self.comps[comp.id]
        self.dirty = True
        return bid, aid

    def split_component(self, comp_id, parts):
        """Replace one component by the given blocks, cutting canonically.

        ``parts`` is a list of disjoint nonempty leaf-index lists whose
        union is the component.  The block whose lca in the second tree
        is shallowest keeps the component's tree root; every other block
        is detached by deleting the edge above its own lca.  Valid only
        when the blocks' spans are pairwise disjoint in the second tree;
        under that condition each detached subtree, after the deeper
        cuts, holds exactly its block.  New ids follow ``parts`` order.
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

        pair = self.pair
        depth = pair.t2.depth
        anchors = [pair.lca_of_leaves(2, p) for p in parts]
        keep = min(range(len(parts)), key=lambda k: (depth[anchors[k]], anchors[k]))
        ids = []
        for k, p in enumerate(parts):
            if k == keep:
                ids.append(self._new_component(sorted(p), comp.root2, comp.origin0))
            else:
                v = anchors[k]
                if self.cut[v] or v == comp.root2:
                    raise InvariantError("block anchor is not cuttable")
                self.cut[v] = True
                ids.append(self._new_component(sorted(p), v, comp.origin0))
        del self.comps[comp_id]
        self.dirty = True
        return ids

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
        cid = self._new_component(merged, -1, -1)
        self.dirty = True
        return cid

    def canonicalize_cuts(self):
        """Re-derive the deleted-edge set from the component leaf sets.

        Cut above each component's lca in the second tree except for one
        component of minimum lca depth, which keeps the original root.
        Validates that the resulting forest reproduces every component,
        so an unrealizable (span-overlapping) family raises.
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
        self.dirty = True
        self.refresh_annotations(None)
        nodes2 = pair.leaf_node2
        for i in range(pair.n):
            if self.treecomp[nodes2[i]] != self.leaf_comp[i]:
                raise InvariantError(
                    "partition is not realizable as a forest of the second tree")


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
