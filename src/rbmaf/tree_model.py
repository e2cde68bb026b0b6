"""Rooted binary trees with constant-time lowest common ancestors.

A tree is stored as parallel arrays indexed by node id.  Ids follow a
left-to-right post-order walk, so every child id is smaller than its
parent id, the root is the largest id, and the subtree of node ``v`` is
exactly the contiguous id range ``[subtree_min[v], v]``.  Only
:class:`RootedBinaryTree` derives the arrays, from the labels in that
order (``None`` on internal nodes), which is all that the reader, the
``rho`` graft and the generators hand it.  Leaves carry string labels;
internal labels and branch lengths in Newick input are parsed and
discarded.  One reader loop takes the text's parentheses, commas and
labels in one pass and can graft the shared root leaf ``rho`` as it
reads; plain text, with no whitespace, branch length or other
decoration, is cut into those pieces by ``str.split``, any other text
once at its parentheses and commas.  Lowest common ancestors
climb parent links until the climbs of one tree have taken as many
steps as it has nodes; after that they are range-minimum queries on
depth over the ids themselves (Bender and Farach-Colton, "The LCA
problem revisited", 2000), with no Euler tour: a sparse table of at
most n entries per level, built by the first query past that budget.

A :class:`TreePair` binds two trees over the same label set to a shared
dense leaf indexing (labels sorted lexicographically, indices 0..n-1)
and is the handle passed to every algorithm in this package.  The
compatibility and overlap predicates at the bottom of the module define
which leaf sets can survive together inside one agreement component:

* a leaf set is compatible when both trees induce the same shape on it,
  which for binary trees reduces to every leaf triple resolving to the
  same cherry pair in both trees, and is tested from the meets of the
  leaves consecutive in the first tree, taken in both trees;
* two leaf sets overlap when the node sets spanned by their pairwise
  leaf paths intersect in either tree.

:func:`conflict_masks` and :func:`leaf_path_masks` tabulate both
predicates per leaf pair for the exact search, the compatible-set
enumeration and the path-cutting ILP; a pair's conflict mask holds the
leaves that make an incompatible triple with it, and is kept on the
pair.  The third shared table, :func:`meet_matrix`, holds the node
where each leaf pair meets, for the arc-flow graph.
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
_split = re.compile(r"([(),])").split
# A character that makes a piece between parentheses and commas more
# than one label, and text without one plain.
_special = re.compile(r"[\s:;'\[\]]").search
# What the previous token was: an open parenthesis (or nothing), a
# comma, or a whole node.
_OPEN, _COMMA, _ITEM = "open", "comma", "item"


class NewickError(ValueError):
    """Malformed or unsupported Newick input."""


class _LabelClash(NewickError):
    """A text read with ``add_rho`` already holds the label ``rho``."""


class InvariantError(RuntimeError):
    """A structural invariant the algorithms guarantee was violated."""


class OracleCapError(ValueError):
    """An exponential-time oracle was asked to exceed its size cap."""


class RootedBinaryTree:
    """A rooted, strictly binary tree over labeled leaves, built from its
    left-to-right post-order labels, ``None`` on internal nodes.

    Attributes
    ----------
    n_nodes : int
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
        "n_nodes", "root", "parent", "left", "right",
        "labels", "depth", "subtree_min", "leaf_ids", "_sparse", "_walked",
    )

    def __init__(self, labels):
        """One stack pass derives the node arrays, leaf ids and subtree
        minima: a leaf opens a subtree, an internal node closes the last
        two open ones."""
        n = len(labels)
        parent = [-1] * n
        left = [-1] * n
        right = [-1] * n
        smin = list(range(n))
        leaves = []
        kids = []  # roots of the finished subtrees still waiting for a parent
        for v, name in enumerate(labels):
            if name is None:
                if len(kids) < 2:
                    raise NewickError(
                        "internal node with %d children, need exactly 2"
                        % len(kids))
                r = kids.pop()
                l = kids[-1]
                kids[-1] = v
                left[v] = l
                right[v] = r
                parent[l] = parent[r] = v
                smin[v] = smin[l]
            else:
                leaves.append(v)
                kids.append(v)
        if len(kids) != 1:
            raise NewickError("expected a single root")
        self.n_nodes = n
        self.root = n - 1
        self.parent = parent
        self.left = left
        self.right = right
        self.labels = labels
        self.leaf_ids = leaves
        self.subtree_min = smin
        # One set tells whether any label is empty or repeated; only
        # then does the walk in id order name the first offender.
        names = set(map(labels.__getitem__, leaves))
        if len(names) != len(leaves) or "" in names:
            _check_labels(map(labels.__getitem__, leaves))

        depth = [0] * n
        for v in range(n - 2, -1, -1):
            depth[v] = depth[parent[v]] + 1
        self.depth = depth

        self._sparse = None
        self._walked = 0

    def _build_lca(self):
        # Row k holds, for each id i, a shallowest node among the ids
        # [i, i + 2**k).
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
        return sparse

    def lca(self, u, v):
        """Lowest common ancestor of nodes u and v, amortised O(1).

        For u < v, the ancestors of u have growing ids, and the first
        one whose id is at least v holds v in its subtree's id range:
        that is the answer.  Queries climb from u this way until the
        climbs have taken ``n_nodes`` steps in total, about what the
        sparse table costs to build.  Then the table is built, and it
        answers each query in O(1): every id in [u, v) lies below
        lca(u, v), and the range holds the child of it whose subtree
        holds u, so the answer is the parent of a shallowest id in the
        range.
        """
        if u == v:
            return u
        if u > v:
            u, v = v, u
        sparse = self._sparse
        if sparse is None:
            if self._walked < self.n_nodes:
                parent = self.parent
                w = u
                while u < v:
                    u = parent[u]
                self._walked += self.depth[w] - self.depth[u]
                return u
            sparse = self._build_lca()
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

    def to_newick(self):
        """Serialize, children left to right.

        A walk down from the root writes each label and bracket once into
        one list, joined at the end, so the time is linear in the text.
        """
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
            pieces.append("(")
            stack += (")", right[v], ",", l)
        pieces.append(";")
        return "".join(pieces)

    def with_root_sibling(self, label):
        """New tree whose fresh root has a new leaf and this tree as children.

        The ids are the ones ``parse_newick`` gives ``(label,<this
        tree>);``: the new leaf is 0, every old id moves up by one and
        the new root comes last.  For ``rho`` this is also the tree
        ``parse_newick(text, add_rho=True)`` reads from this tree's text.
        """
        if label in self.labels:
            raise NewickError("label %r already present" % label)
        return RootedBinaryTree([label] + self.labels + [None])


def _check_labels(names):
    """Raise on the first leaf label, in id order, that is empty or
    repeated."""
    seen = set()
    for lab in names:
        if not lab:
            raise NewickError("leaf without a label")
        if lab in seen:
            raise NewickError("duplicate leaf label %r" % lab)
        seen.add(lab)


def parse_newick(text, add_rho=False):
    """Parse a Newick string into a :class:`RootedBinaryTree`.

    Every internal node must have exactly two children, separated by a
    comma.  Leaf labels are any run of characters outside ``(),;:'[]``
    and whitespace.  Internal labels and ``:length`` suffixes directly
    after a label or ``)`` are accepted and ignored.  Whitespace may
    stand between tokens but separates nothing: ``(a b)`` raises
    NewickError, as do an empty child and a comma outside parentheses.
    Quoted labels and ``[...]`` comments are not supported: a quote or
    bracket raises NewickError naming the character and its offset.

    One loop reads the text as pieces: ``(``, ``,``, ``)`` and the text
    between them.  One search tells how the pieces are cut.  Plain
    text, holding no whitespace, ``:``, ``;``, quote or bracket, is
    cut by ``str.split`` once its parentheses and commas are spaced
    out, and each other piece is one label.  Any other text is split
    at its parentheses and commas; a piece between them that holds
    none of those characters is one label, and any other piece is read
    token by token.  The loop lists the labels in post-order, a leaf's
    when it appears and ``None`` when a ``)`` closes, for
    :class:`RootedBinaryTree` to build the tree from.  With ``add_rho``
    the list starts with ``rho`` and ends with the new root, the tree
    :meth:`RootedBinaryTree.with_root_sibling` grafts; offsets in
    messages stay those of ``text``.
    """
    # Leading whitespace stays, as a piece that reads as no label, so
    # that offsets count from the start of ``text``.
    s = text.rstrip()
    if not s:
        raise NewickError("empty input")
    if s.endswith(";"):
        s = s[:-1].rstrip()
    plain = _special(s) is None
    if plain:
        # s holds no whitespace, so the pieces still join up to s.
        pieces = s.replace("(", " ( ").replace(",", " , ").replace(
            ")", " ) ").split()
    else:
        pieces = _split(s)  # text at even indices, "(", ")" or "," at odd
    labels = [RHO_LABEL] if add_rho else []
    kids = 0  # finished subtrees still waiting for a parent
    starts = []  # kids when each open node opened
    prev = _OPEN
    for i, p in enumerate(pieces):
        if p == "(":
            if prev is _ITEM and starts:
                raise NewickError(
                    "expected ',' at offset %d" % _offset(pieces, i))
            starts.append(kids)
            prev = _OPEN
        elif p == ",":
            if not starts:
                raise NewickError(
                    "unexpected ',' at offset %d" % _offset(pieces, i))
            if prev is not _ITEM:
                raise NewickError(
                    "expected a leaf label at offset %d" % _offset(pieces, i))
            prev = _COMMA
        elif p == ")":
            if not starts:
                raise NewickError("unbalanced ')'")
            k = kids - starts.pop()
            if k != 2:
                raise NewickError(
                    "internal node with %d children, need exactly 2" % k)
            if prev is _COMMA:
                raise NewickError(
                    "expected a leaf label at offset %d" % _offset(pieces, i))
            kids -= 1
            labels.append(None)
            prev = _ITEM
        elif plain or not p or _special(p) is None:
            # A delimiter stands before each piece, and of them only ")"
            # leaves prev at a node: a piece after it is that node's
            # internal label.
            if p and prev is not _ITEM:
                kids += 1
                labels.append(p)
                prev = _ITEM
        else:
            for name in _piece_labels(pieces, i, bool(starts)):
                kids += 1
                labels.append(name)
                prev = _ITEM
    if starts:
        raise NewickError("unbalanced '('")
    if kids != 1:
        raise NewickError("expected a single root")
    if not add_rho:
        return RootedBinaryTree(labels)
    labels.append(None)
    try:
        return RootedBinaryTree(labels)
    except NewickError:
        pass
    # The text's own label errors come first, as when it is read alone.
    _check_labels(lab for lab in labels[1:] if lab is not None)
    raise _LabelClash("label %r already present" % RHO_LABEL)


def _offset(pieces, i):
    """Offset in the text of piece i."""
    return sum(map(len, pieces[:i]))


def _piece_labels(pieces, i, nested):
    """Leaf labels in piece i, read token by token.

    After ``)`` the piece is read as the rest of the ``)`` token, so its
    internal label and length are skipped.  A label that follows a node
    inside the piece raises when ``nested`` (the piece lies inside
    parentheses); at the top level it is returned, and the reader
    rejects the extra root at the end.  Offsets are computed only when
    raising.
    """
    p = pieces[i]
    q = ")" + p if pieces[i - 1] == ")" else p
    shift = len(p) - len(q)  # from offsets in q to offsets in p
    names = []
    for m in _TOKEN.finditer(q, 0, len(q.rstrip())):
        name, length, other = m.groups()
        if other is not None:
            at = _offset(pieces, i) + shift + m.start(3)
            if other in ";:":
                raise NewickError("unexpected %r at offset %d" % (other, at))
            raise NewickError("unsupported %r at offset %d: quoted labels "
                              "and comments are not read" % (other, at))
        if name[0] != ")":
            if nested and (names or shift):
                raise NewickError("expected ',' at offset %d"
                                  % (_offset(pieces, i) + shift + m.start(1)))
            names.append(name)
        if length is not None and not _is_length(q, m):
            raise NewickError("bad branch length at offset %d"
                              % (_offset(pieces, i) + shift + m.start(2)))
    return names


def _is_length(q, m):
    """True when the ``:length`` run of match m in q is a number."""
    i, j = m.span(2)
    try:
        float(q[i:j])
    except ValueError:
        return False
    return j == len(q) or not q[j].isdigit()  # a digit that is not decimal


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
                 "_conflicts", "_compatible_sets")

    def __init__(self, t1, t2):
        # One sort, of the first tree's leaves; the second tree's leaves
        # find their index by label.  Labels are unique within a tree,
        # so equal leaf counts and every label found make a bijection.
        leaf_node1 = sorted(t1.leaf_ids, key=t1.labels.__getitem__)
        labels = list(map(t1.labels.__getitem__, leaf_node1))
        index_of = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        if len(t2.leaf_ids) != n:
            raise NewickError("trees carry different label sets")
        leaf_index1 = [-1] * t1.n_nodes
        for i, v in enumerate(leaf_node1):
            leaf_index1[v] = i
        leaf_node2 = [0] * n
        leaf_index2 = [-1] * t2.n_nodes
        labels2, find = t2.labels, index_of.get
        for v in t2.leaf_ids:
            i = find(labels2[v])
            if i is None:
                raise NewickError("trees carry different label sets")
            leaf_node2[i] = v
            leaf_index2[v] = i
        self.t1 = t1
        self.t2 = t2
        self.labels = labels
        self.n = n
        self.index_of = index_of
        self.leaf_node1 = leaf_node1
        self.leaf_node2 = leaf_node2
        self.leaf_index1 = leaf_index1
        self.leaf_index2 = leaf_index2
        # Per-pair tables, built on first use: conflict_masks and
        # lp_toolkit.compatible_set_table.
        self._conflicts = None
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
    """``make_pair(parse_newick(s1), parse_newick(s2), add_rho)``, with
    each text read once: under ``add_rho`` the reader grafts ``rho``
    itself.  As there, a read error in either text is reported before
    a tree that already holds ``rho``.
    """
    try:
        t1 = parse_newick(s1, add_rho)
    except _LabelClash:
        parse_newick(s2, add_rho)  # a read error in s2 comes first
        raise
    return TreePair(t1, parse_newick(s2, add_rho))


def _joins(pair, t):
    """``(v, (lows, low_mask), (highs, high_mask))`` for each internal
    node v of tree t, children first: the leaves below its children."""
    tree = pair.tree(t)
    below = [None] * tree.n_nodes
    for i, v in enumerate(pair.leaf_nodes(t)):
        below[v] = ([i], 1 << i)
    for v in range(tree.n_nodes):  # children come before parents
        if tree.left[v] >= 0:
            low, high = below[tree.left[v]], below[tree.right[v]]
            below[v] = (low[0] + high[0], low[1] | high[1])
            yield v, low, high


def meet_matrix(pair, t):
    """``meet[i][j]``: the node of tree t where leaves i and j meet.

    Every pair of leaves meets where a node joins the leaves of its two
    children, so one pass over the internal nodes fills the matrix.
    The diagonal holds each leaf's own node.
    """
    meet = [[v] * pair.n for v in pair.leaf_nodes(t)]
    for v, (lows, _), (highs, _) in _joins(pair, t):
        for i in lows:
            row = meet[i]
            for j in highs:
                row[j] = meet[j][i] = v
    return meet


def conflict_masks(pair):
    """``conf[x][y]``: bit set of the leaves z for which ``{x, y, z}``
    is incompatible, a symmetric table built once per pair.  In tree t
    let ``X_t`` and ``Y_t`` be the leaves below the children, holding x
    and y, of the node where they meet.  The cherry of ``{x, y, z}`` is
    xz for z in ``X_t``, yz for z in ``Y_t`` and xy for any other z, so
    ``conf[x][y] = (X1 | Y1 | X2 | Y2) & ~(X1 & X2 | Y1 & Y2)``."""
    if pair._conflicts is None:
        pair._conflicts = _build_conflict_masks(pair)
    return pair._conflicts


def _build_conflict_masks(pair):
    n = pair.n
    side = [[0] * n for _ in range(n)]  # side[x][y]: X1 for x and y
    for _, (lows, low), (highs, high) in _joins(pair, 1):
        for i in lows:
            for j in highs:
                side[i][j], side[j][i] = low, high
    conf = [[0] * n for _ in range(n)]
    for _, (lows, x2), (highs, y2) in _joins(pair, 2):
        for i in lows:
            for j in highs:
                x1, y1 = side[i][j], side[j][i]
                conf[i][j] = conf[j][i] = ((x1 | y1 | x2 | y2)
                                           & ~(x1 & x2 | y1 & y2))
    return conf


def incompatible_triples(pair):
    """Sorted leaf-index triples ``(a, b, c)`` whose cherry differs
    between the trees, as a frozenset read from :func:`conflict_masks`.
    A leaf set is compatible exactly when it contains none of them."""
    return frozenset(_sorted_triples(pair))


def _sorted_triples(pair):
    conf = conflict_masks(pair)
    for a in range(pair.n):
        for b in range(a + 1, pair.n):
            rest = conf[a][b] >> b + 1 << b + 1  # the leaves c above b
            while rest:
                yield a, b, (rest & -rest).bit_length() - 1
                rest &= rest - 1


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


def set_compatible(pair, leaves):
    """True when both trees induce the same shape on the given leaf set.

    Equivalent to all leaf triples being compatible; sets of size at
    most two are always compatible.  With the set's k leaves in
    first-tree leaf order, the k - 1 consecutive pairs meet at the
    first tree's restricted internal nodes, and every run of them holds
    the run's own meet once, as its shallowest.  The shapes agree
    exactly when the second tree's meets of the same pairs are
    distinct, so that they too are one restricted node each, and both
    depth sequences have the same nearest shallower position to the
    left of each entry, which fixes the shallowest of every run.
    Linear after the sort, with amortised constant-time lcas.
    """
    nodes1 = sorted(map(pair.leaf_node1.__getitem__, set(leaves)))
    if len(nodes1) <= 2:
        return True
    t1, t2, leaf_node2 = pair.t1, pair.t2, pair.leaf_node2
    nodes2 = [leaf_node2[i] for i in map(pair.leaf_index1.__getitem__, nodes1)]
    meets2 = list(map(t2.lca, nodes2, nodes2[1:]))
    if len(set(meets2)) != len(meets2):
        return False
    return (_shallower_left(map(t1.depth.__getitem__,
                                map(t1.lca, nodes1, nodes1[1:])))
            == _shallower_left(map(t2.depth.__getitem__, meets2)))


def _shallower_left(depths):
    """For each entry, the position of the nearest earlier entry of
    smaller depth, or -1: a Cartesian tree in parent-distance form."""
    out, stack = [], []  # stack: (position, depth), depths increasing
    for j, d in enumerate(depths):
        while stack and stack[-1][1] >= d:
            stack.pop()
        out.append(stack[-1][0] if stack else -1)
        stack.append((j, d))
    return out


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
