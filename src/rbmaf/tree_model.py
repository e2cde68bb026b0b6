"""Rooted binary trees with constant-time lowest common ancestors.

A tree is stored as parallel arrays indexed by node id.  Ids follow a
left-to-right post-order walk, so every child id is smaller than its
parent id, the root is the largest id, and the subtree of node ``v`` is
exactly the contiguous id range ``[subtree_min[v], v]``.  Leaves carry
string labels; internal labels and branch lengths in Newick input are
parsed and discarded.  Lowest common ancestors are range-minimum
queries on depth over the ids themselves (Bender and Farach-Colton,
"The LCA problem revisited", 2000), with no Euler tour: a sparse table
of at most n entries per level, built on the first query.

A :class:`TreePair` binds two trees over the same label set to a shared
dense leaf indexing (labels sorted lexicographically, indices 0..n-1)
and is the handle passed to every algorithm in this package.  The
compatibility and overlap predicates at the bottom of the module define
which leaf sets can survive together inside one agreement component:

* a leaf set is compatible when both trees induce the same shape on it,
  which for binary trees reduces to every leaf triple resolving to the
  same cherry pair in both trees;
* two leaf sets overlap when the node sets spanned by their pairwise
  leaf paths intersect in either tree.

:func:`incompatible_triples` and :func:`leaf_path_masks` tabulate both
predicates per leaf triple and per leaf pair for the exact search, the
compatible-set enumeration and the path-cutting ILP; the triple table
is kept on the pair, so all of them share one copy.  The third shared
table, :func:`meet_matrix`, holds the node where each leaf pair meets;
the triple table and the arc-flow graph read it.
"""

from __future__ import annotations

import re
from bisect import bisect_left


RHO_LABEL = "rho"

# One token per match, after any whitespace: a leaf label, or a ``)``
# with its internal label (group 1), each with an optional ``:length``
# run (group 2); or any other single character (group 3).
_LABEL = r"[^(),;:'\[\]\s]"
_TOKEN = re.compile(r"\s*(?:((?:\)|%s)%s*)(?::([\d.+\-eE]*))?|(.))"
                    % (_LABEL, _LABEL), re.S)
# What the previous token was: an open parenthesis (or nothing), a
# comma, or a whole node.
_OPEN, _COMMA, _ITEM = "open", "comma", "item"


class NewickError(ValueError):
    """Malformed or unsupported Newick input."""


class InvariantError(RuntimeError):
    """A structural invariant the algorithms guarantee was violated."""


class OracleCapError(ValueError):
    """An exponential-time oracle was asked to exceed its size cap."""


class RootedBinaryTree:
    """A rooted, strictly binary tree over labeled leaves.

    Attributes
    ----------
    n_nodes, n_leaves : int
    root : int
        Always ``n_nodes - 1`` (post-order ids).
    parent, left, right : list[int]
        Node arrays; ``-1`` marks "no parent" or "leaf".
    labels : list[str | None]
        Leaf labels, ``None`` on internal nodes.
    depth : list[int]
        Root has depth 0.
    subtree_min : list[int]
        Smallest id in each node's subtree; ancestry tests are two
        integer comparisons.
    leaf_ids : list[int]
        Leaf node ids in ascending order, which is also left-to-right
        order in the tree.
    """

    __slots__ = (
        "n_nodes", "n_leaves", "root", "parent", "left", "right",
        "labels", "depth", "subtree_min", "leaf_ids", "_min_label",
        "_sparse",
    )

    def __init__(self, parent, left, right, labels):
        n = len(parent)
        if n == 0:
            raise NewickError("empty tree")
        self.n_nodes = n
        self.root = n - 1
        self.parent = parent
        self.left = left
        self.right = right
        self.labels = labels
        self.leaf_ids = [v for v in range(n) if left[v] < 0]
        self.n_leaves = len(self.leaf_ids)
        seen = set()
        for v in self.leaf_ids:
            lab = labels[v]
            if not lab:
                raise NewickError("leaf without a label")
            if lab in seen:
                raise NewickError("duplicate leaf label %r" % lab)
            seen.add(lab)

        depth = [0] * n
        for v in range(n - 2, -1, -1):
            depth[v] = depth[parent[v]] + 1
        self.depth = depth

        smin = list(range(n))
        for v in range(n):
            if left[v] >= 0:
                smin[v] = smin[left[v]]
        self.subtree_min = smin

        self._min_label = None

    def _build_lca(self):
        # Sparse table over the post-order ids, built on the first lca
        # call: trees that are only parsed, grafted or walked never pay
        # for it.  Row k holds, for each id i, a shallowest node among
        # the ids [i, i + 2**k).
        depth = self.depth
        row = list(range(self.n_nodes))
        sparse = [row]
        half = 1
        while 2 * half <= self.n_nodes:
            row = [a if depth[a] <= depth[b] else b
                   for a, b in zip(row, row[half:])]
            sparse.append(row)
            half *= 2
        self._sparse = sparse

    def lca(self, u, v):
        """Lowest common ancestor of nodes u and v in O(1).

        For u < v, every id in [u, v) lies below lca(u, v), and the
        range holds a child of it: the child whose subtree holds u.  So
        the answer is the parent of a shallowest id in the range.
        """
        if u == v:
            return u
        if u > v:
            u, v = v, u
        try:
            sparse = self._sparse
        except AttributeError:  # the table is not built yet
            self._build_lca()
            sparse = self._sparse
        k = (v - u).bit_length() - 1
        row = sparse[k]
        x = row[u]
        y = row[v - (1 << k)]
        depth = self.depth
        return self.parent[x if depth[x] <= depth[y] else y]

    def is_ancestor(self, a, v):
        """True when a is v or an ancestor of v."""
        return self.subtree_min[a] <= v <= a

    def leaves_below(self, v):
        """Leaf node ids inside the subtree of v, left to right."""
        ids = self.leaf_ids
        lo = bisect_left(ids, self.subtree_min[v])
        hi = bisect_left(ids, v + 1)
        return ids[lo:hi]

    def min_labels(self):
        """Smallest leaf label in each node's subtree (cached)."""
        if self._min_label is None:
            ml = [None] * self.n_nodes
            left, right, labels = self.left, self.right, self.labels
            for v in range(self.n_nodes):
                if left[v] < 0:
                    ml[v] = labels[v]
                else:
                    a, b = ml[left[v]], ml[right[v]]
                    ml[v] = a if a <= b else b
            self._min_label = ml
        return self._min_label

    def to_newick(self, canonical=False):
        """Serialize; canonical mode orders children by smallest leaf label.

        A walk down from the root writes each label and bracket once into
        one list, joined at the end, so the time is linear in the text.
        """
        ml = self.min_labels() if canonical else None
        left, right, labels = self.left, self.right, self.labels
        pieces = []
        # A string on the stack is text to write, an int a node to visit.
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v.__class__ is str:
                pieces.append(v)
                continue
            l = left[v]
            if l < 0:
                pieces.append(labels[v])
                continue
            r = right[v]
            if canonical and ml[r] < ml[l]:
                l, r = r, l
            pieces.append("(")
            stack += (")", r, ",", l)
        pieces.append(";")
        return "".join(pieces)

    def with_root_sibling(self, label):
        """New tree whose fresh root has a new leaf and this tree as children.

        The ids are the ones ``parse_newick`` gives ``(label,<this
        tree>);``: the new leaf is 0, every old id moves up by one and
        the new root comes last.
        """
        if label in self.labels:
            raise NewickError("label %r already present" % label)
        root = self.n_nodes + 1
        return RootedBinaryTree(
            [root] + [root if p < 0 else p + 1 for p in self.parent] + [-1],
            [-1] + [v + 1 if v >= 0 else -1 for v in self.left] + [0],
            [-1] + [v + 1 if v >= 0 else -1 for v in self.right]
            + [self.n_nodes],
            [label] + self.labels + [None])


def parse_newick(text):
    """Parse a Newick string into a :class:`RootedBinaryTree`.

    Every internal node must have exactly two children, separated by a
    comma.  Leaf labels are any run of characters outside ``(),;:'[]``
    and whitespace.  Internal labels and ``:length`` suffixes directly
    after a label or ``)`` are accepted and ignored.  Whitespace may
    stand between tokens but separates nothing: ``(a b)`` raises
    NewickError, as do an empty child and a comma outside parentheses.
    Quoted labels and ``[...]`` comments are not supported: a quote or
    bracket raises NewickError naming the character and its offset.

    One regular-expression pass reads the text; a leaf gets its
    post-order id when it appears, an internal node when its ``)``
    closes.
    """
    s = text.strip()
    if not s:
        raise NewickError("empty input")
    if s.endswith(";"):
        s = s[:-1].rstrip()
    parent, left, right, labels = [], [], [], []
    stack = []  # the child lists of the enclosing open nodes
    kids = []  # child ids of the innermost open node, or the roots
    prev = _OPEN
    for m in _TOKEN.finditer(s):
        name, length, other = m.groups()
        if other is None:
            v = len(parent)
            if name[0] == ")":
                if not stack:
                    raise NewickError("unbalanced ')'")
                if len(kids) != 2:
                    raise NewickError(
                        "internal node with %d children, need exactly 2"
                        % len(kids))
                if prev is _COMMA:
                    raise NewickError(
                        "expected a leaf label at offset %d" % m.start(1))
                l, r = kids
                parent[l] = parent[r] = v
                left.append(l)
                right.append(r)
                labels.append(None)
                kids = stack.pop()
            else:
                if prev is _ITEM and stack:
                    raise NewickError(
                        "expected ',' at offset %d" % m.start(1))
                left.append(-1)
                right.append(-1)
                labels.append(name)
            if length is not None:
                _check_length(s, m)
            parent.append(-1)
            kids.append(v)
            prev = _ITEM
        elif other == "(":
            if prev is _ITEM and stack:
                raise NewickError("expected ',' at offset %d" % m.start(3))
            stack.append(kids)
            kids = []
            prev = _OPEN
        elif other == ",":
            if not stack:
                raise NewickError("unexpected ',' at offset %d" % m.start(3))
            if prev is not _ITEM:
                raise NewickError(
                    "expected a leaf label at offset %d" % m.start(3))
            prev = _COMMA
        elif other in ";:":
            raise NewickError(
                "unexpected %r at offset %d" % (other, m.start(3)))
        else:
            raise NewickError(
                "unsupported %r at offset %d: quoted labels and comments "
                "are not read" % (other, m.start(3)))
    if stack:
        raise NewickError("unbalanced '('")
    if len(kids) != 1:
        raise NewickError("expected a single root")
    return RootedBinaryTree(parent, left, right, labels)


def _check_length(s, m):
    """Reject a ``:length`` run that is not a number."""
    i = m.start(2)
    j = m.end(2)
    try:
        float(s[i:j])
    except ValueError:
        raise NewickError("bad branch length at offset %d" % i) from None
    if j < len(s) and s[j].isdigit():  # a digit that is not decimal
        raise NewickError("bad branch length at offset %d" % i)


class TreePair:
    """Two rooted binary trees over one label set with shared leaf indices.

    Leaf index ``i`` refers to ``labels[i]`` where ``labels`` is the
    lexicographically sorted label list.  ``leaf_node1[i]`` and
    ``leaf_node2[i]`` give the node ids of that leaf in each tree, and
    ``leaf_index1`` / ``leaf_index2`` invert the maps (``-1`` on
    internal nodes).
    """

    __slots__ = ("t1", "t2", "labels", "n", "index_of",
                 "leaf_node1", "leaf_node2", "leaf_index1", "leaf_index2",
                 "_triples", "_compatible_sets")

    def __init__(self, t1, t2):
        self.leaf_node1 = sorted(t1.leaf_ids, key=t1.labels.__getitem__)
        self.leaf_node2 = sorted(t2.leaf_ids, key=t2.labels.__getitem__)
        self.labels = list(map(t1.labels.__getitem__, self.leaf_node1))
        if self.labels != list(map(t2.labels.__getitem__, self.leaf_node2)):
            raise NewickError("trees carry different label sets")
        self.t1 = t1
        self.t2 = t2
        self.n = len(self.labels)
        self.index_of = {lab: i for i, lab in enumerate(self.labels)}
        self.leaf_index1 = [-1] * t1.n_nodes
        self.leaf_index2 = [-1] * t2.n_nodes
        for i in range(self.n):
            self.leaf_index1[self.leaf_node1[i]] = i
            self.leaf_index2[self.leaf_node2[i]] = i
        # Per-pair tables, built on first use: incompatible_triples and
        # lp_toolkit.compatible_set_table.
        self._triples = None
        self._compatible_sets = None

    def tree(self, t):
        if t == 1:
            return self.t1
        if t == 2:
            return self.t2
        raise ValueError("tree index must be 1 or 2")

    def leaf_node(self, t, i):
        return self.leaf_node1[i] if t == 1 else self.leaf_node2[i]

    def leaf_nodes(self, t):
        return self.leaf_node1 if t == 1 else self.leaf_node2

    def lca_of_leaves(self, t, leaves):
        """Lca of a nonempty collection of leaf indices in tree t.

        Every subtree is a contiguous id range, so the lca of a node set
        is the lca of its smallest and largest ids.
        """
        nodes = self.leaf_nodes(t)
        ids = [nodes[x] for x in leaves]
        return self.tree(t).lca(min(ids), max(ids))

    def labels_of(self, leaves):
        return tuple(sorted(self.labels[i] for i in leaves))


def make_pair(t1, t2, add_rho=False):
    """Validate and pair two trees; optionally graft a shared extra root leaf.

    With ``add_rho`` both trees get a new root whose children are a leaf
    labeled ``rho`` and the old root, which reduces distance-style inputs
    to plain agreement-forest inputs.
    """
    if add_rho:
        t1 = t1.with_root_sibling(RHO_LABEL)
        t2 = t2.with_root_sibling(RHO_LABEL)
    return TreePair(t1, t2)


def pair_from_newick(s1, s2, add_rho=False):
    return make_pair(parse_newick(s1), parse_newick(s2), add_rho=add_rho)


def _cherry(dxy, dxz, dyz):
    """Index (0, 1 or 2) of the triple member outside the cherry pair,
    from the depths of the triple's three pairwise lcas.

    In a strictly binary tree exactly one of the three pairwise lcas
    lies strictly below the other two, which are equal.
    """
    if dxy > dxz and dxy > dyz:
        return 2
    if dxz > dxy and dxz > dyz:
        return 1
    if dyz > dxy and dyz > dxz:
        return 0
    raise InvariantError("triple without a unique cherry pair")


def meet_matrix(pair, t):
    """``meet[i][j]``: the node of tree t where leaves i and j meet.

    Every pair of leaves meets where a node joins the leaves of its two
    children, so one pass over the internal nodes fills the matrix.
    The diagonal holds each leaf's own node.
    """
    tree = pair.tree(t)
    n = pair.n
    below = [None] * tree.n_nodes  # leaf indices under each node
    for i, v in enumerate(pair.leaf_nodes(t)):
        below[v] = [i]
    meet = [[v] * n for v in pair.leaf_nodes(t)]
    for v in range(tree.n_nodes):  # children come before parents
        left = tree.left[v]
        if left < 0:
            continue
        lows, highs = below[left], below[tree.right[v]]
        for i in lows:
            row = meet[i]
            for j in highs:
                row[j] = meet[j][i] = v
        below[v] = lows + highs
    return meet


def triple_compatible(pair, a, b, c):
    """True when leaf indices a, b, c resolve to the same cherry in both trees."""
    def cherry(t):
        tree = pair.tree(t)
        x, y, z = (pair.leaf_node(t, i) for i in (a, b, c))
        depth, lca = tree.depth, tree.lca
        return _cherry(depth[lca(x, y)], depth[lca(x, z)], depth[lca(y, z)])
    return cherry(1) == cherry(2)


def incompatible_triples(pair):
    """Sorted leaf-index triples ``(a, b, c)`` whose cherry differs
    between the two trees, as a frozenset built once per pair.

    A leaf set is compatible exactly when it contains none of them.
    """
    if pair._triples is None:
        pair._triples = _find_incompatible_triples(pair)
    return pair._triples


def _find_incompatible_triples(pair):
    n = pair.n
    d1, d2 = ([[depth[v] for v in row] for row in meet_matrix(pair, t)]
              for t, depth in ((1, pair.t1.depth), (2, pair.t2.depth)))
    return frozenset(
        (a, b, c)
        for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)
        if _cherry(d1[a][b], d1[a][c], d1[b][c])
        != _cherry(d2[a][b], d2[a][c], d2[b][c]))


def leaf_path_masks(pair, t):
    """``masks[i][j]``: bit set of the edges on the leaf i to j path in tree t.

    An edge is named by its lower node; the diagonal is 0.  The masks
    answer node questions too: two leaf paths, or the spans of two
    blocks with disjoint leaves, share a node exactly when they share
    an edge.  A shared edge brings both its ends.  A shared node is
    internal, since a leaf lies only on paths of its own block; each of
    the two spans uses two of that node's at most three incident edges,
    so they have one in common.
    """
    tree = pair.tree(t)
    parent = tree.parent
    up = [0] * tree.n_nodes  # edges from each node up to the root
    for v in range(tree.root - 1, -1, -1):
        up[v] = up[parent[v]] | 1 << v
    leaf = [up[v] for v in pair.leaf_nodes(t)]
    return [[a ^ b for b in leaf] for a in leaf]


def internal_mask(tree):
    """Bit set of the internal nodes of a tree."""
    return int("".join("0" if l < 0 else "1" for l in reversed(tree.left)), 2)


def internal_span(edges, inner):
    """Internal nodes a leaf set spans, as a bit set.

    ``edges`` is the bit set of the edges on the set's leaf paths (an
    OR of :func:`leaf_path_masks` rows) and ``inner`` the tree's
    :func:`internal_mask`.  Every edge brings its lower node; the one
    node left is the set's lca, whose right child is the largest edge
    id and, in post-order, the id just below it.  A singleton has no
    edges and gets node 0, which is always a leaf.
    """
    return (edges | 1 << edges.bit_length()) & inner


def _restricted_clusters(pair, t, xs):
    """Clusters (as leaf-index frozensets) of the tree restricted to xs.

    The internal nodes of the restricted tree are exactly the lcas of
    consecutive leaves in left-to-right order; each contributes the set
    of xs members below it.
    """
    tree = pair.tree(t)
    nodes = sorted(pair.leaf_node(t, x) for x in xs)
    inner = {tree.lca(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)}
    out = set()
    for v in inner:
        lo, hi = tree.subtree_min[v], v
        out.add(frozenset(x for x in xs if lo <= pair.leaf_node(t, x) <= hi))
    return out


def set_compatible(pair, leaves):
    """True when both trees induce the same shape on the given leaf set.

    Equivalent to all leaf triples being compatible; sets of size at
    most two are always compatible.
    """
    xs = sorted(set(leaves))
    if len(xs) <= 2:
        return True
    return _restricted_clusters(pair, 1, xs) == _restricted_clusters(pair, 2, xs)


def spanned_nodes(pair, t, leaves):
    """Node ids lying on some leaf-to-leaf path of the set in tree t.

    This is the union of the paths from each member up to the set's
    lca, which is the lca of its smallest and largest node ids; a
    singleton spans just its own leaf node.
    """
    tree = pair.tree(t)
    nodes = [pair.leaf_node(t, x) for x in set(leaves)]
    if not nodes:
        return set()
    m = tree.lca(min(nodes), max(nodes))
    parent = tree.parent
    seen = {m}
    for v in nodes:
        while v not in seen:
            seen.add(v)
            v = parent[v]
    return seen


def sets_overlap(pair, a, b):
    """True when the spans of leaf sets a and b share a node in either tree."""
    return any(spanned_nodes(pair, t, a) & spanned_nodes(pair, t, b)
               for t in (1, 2))
