"""Slow reference implementations used as oracles by the test suite.

Everything here is written from first principles on top of the plain
parent and child arrays, so the fast library code is checked against
independent logic rather than against itself.
"""

from copy import deepcopy
from itertools import combinations
from types import SimpleNamespace

from rbmaf.forest_partition import _spans_disjoint, as_blocks
from rbmaf.redblue_core import Pcs
from rbmaf.tree_model import (InvariantError, NewickError, RootedBinaryTree,
                              meet_matrix, set_compatible, spanned_nodes)


def root_path(tree, v):
    """Nodes from v up to the root, inclusive."""
    path = [v]
    while tree.parent[v] >= 0:
        v = tree.parent[v]
        path.append(v)
    return path


def naive_lca(tree, u, v):
    on_path = set(root_path(tree, u))
    for node in root_path(tree, v):
        if node in on_path:
            return node
    raise AssertionError("nodes share no ancestor")


def naive_is_ancestor(tree, a, v):
    return a in root_path(tree, v)


def naive_leaves_below(tree, v):
    return sorted(u for u in range(tree.n_nodes)
                  if tree.left[u] < 0 and naive_is_ancestor(tree, v, u))


def path_nodes(tree, u, v):
    """All nodes on the path between two nodes, endpoints included."""
    a = naive_lca(tree, u, v)
    out = {a}
    for w in (u, v):
        while w != a:
            out.add(w)
            w = tree.parent[w]
    return out


def naive_cherry(pair, t, x, y, z):
    """The two leaves of the triple that meet strictly deepest."""
    tree = pair.tree(t)
    nodes = {i: pair.leaf_node(t, i) for i in (x, y, z)}
    best = None
    best_depth = -1
    for a, b in combinations((x, y, z), 2):
        d = tree.depth[naive_lca(tree, nodes[a], nodes[b])]
        if d > best_depth:
            best_depth = d
            best = frozenset((a, b))
    return best


def naive_triple_compatible(pair, a, b, c):
    return naive_cherry(pair, 1, a, b, c) == naive_cherry(pair, 2, a, b, c)


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


def naive_incompatible_triples(pair):
    """Sorted triples whose cherry differs between the trees, by a scan
    of all of them over the meeting depths."""
    n = pair.n
    d1, d2 = ([[depth[v] for v in row] for row in meet_matrix(pair, t)]
              for t, depth in ((1, pair.t1.depth), (2, pair.t2.depth)))
    return frozenset(
        (a, b, c)
        for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)
        if _cherry(d1[a][b], d1[a][c], d1[b][c])
        != _cherry(d2[a][b], d2[a][c], d2[b][c]))


def naive_set_compatible(pair, leaves):
    leaves = sorted(set(leaves))
    return all(naive_triple_compatible(pair, a, b, c)
               for a, b, c in combinations(leaves, 3))


def naive_spanned(pair, t, leaves):
    """Union of all pairwise leaf paths, as tree node ids."""
    tree = pair.tree(t)
    nodes = [pair.leaf_node(t, i) for i in leaves]
    out = set(nodes)
    for u, v in combinations(nodes, 2):
        out |= path_nodes(tree, u, v)
    return out


def naive_feasible(pair, blocks):
    """Agreement forest test: compatibility plus pairwise disjoint spans."""
    blocks = [sorted(set(b)) for b in blocks]
    flat = sorted(x for b in blocks for x in b)
    assert flat == list(range(pair.n)), "blocks must partition the leaves"
    for b in blocks:
        if not naive_set_compatible(pair, b):
            return False
    spans = [(naive_spanned(pair, 1, b), naive_spanned(pair, 2, b))
             for b in blocks]
    for (s1a, s2a), (s1b, s2b) in combinations(spans, 2):
        if s1a & s1b or s2a & s2b:
            return False
    return True


def naive_is_K_feasible(pair, components, K):
    """``is_K_feasible`` as it first was: one ``set_compatible`` call on
    a fresh sorted list per block leaf outside K."""
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


def all_partitions(items):
    """Every set partition of the items, one at a time."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def naive_exact_maf(pair):
    """Minimum cuts over every partition; exponential, for tiny n only."""
    best = pair.n - 1
    for blocks in all_partitions(range(pair.n)):
        if len(blocks) - 1 < best and naive_feasible(pair, blocks):
            best = len(blocks) - 1
    return best


def naive_compatible_sets(pair, min_size=1):
    """Every compatible leaf subset, as sorted tuples of leaf indices."""
    out = []
    for size in range(min_size, pair.n + 1):
        for subset in combinations(range(pair.n), size):
            if naive_set_compatible(pair, subset):
                out.append(subset)
    return out


# ----------------------------------------------------------------------
# certificate check, one leaf set at a time, as the checker first did it


def naive_load(pair, dual, components, leaves):
    """Potential on the internal nodes the set spans in either tree plus
    the number of blocks it meets."""
    total = 0
    for t, y in ((1, dual.y1), (2, dual.y2)):
        left = pair.tree(t).left
        for v in spanned_nodes(pair, t, leaves):
            if left[v] >= 0:
                total += y[v]
    lset = set(leaves)
    return total + sum(1 for b in as_blocks(components) if b & lset)


def naive_first_violation(pair, dual, components, sets):
    """``(load, leaves)`` of the first given leaf set whose load is
    above one, or None."""
    for leaves in sets:
        total = naive_load(pair, dual, components, leaves)
        if total > 1:
            return total, leaves
    return None


# ----------------------------------------------------------------------
# full-sweep solver stages: one pass over every node of the second tree
# (the first tree for the lowest violation) per call, as the solver
# first did them


RED, BLUE, WHITE = 0, 1, 2


def fold_lca(pair, t, leaves):
    """Lca of leaf indices in tree t, folded pairwise."""
    tree = pair.tree(t)
    nodes = [pair.leaf_node(t, x) for x in leaves]
    m = nodes[0]
    for v in nodes[1:]:
        m = tree.lca(m, v)
    return m


def full_structure(partition):
    """Live leaves below every node of the second tree inside its forest
    tree, the block owning each node's tree, and the block covering each
    node (-1 when none), recomputed over the whole tree from the cut set.

    Pass 1 walks nodes in ascending (post-) order accumulating live
    counts; pass 2 walks in descending order propagating tree ownership
    downward and deciding coverage from the live counts of the children.
    """
    t2 = partition.pair.t2
    n = t2.n_nodes
    left, right, parent = t2.left, t2.right, t2.parent
    cut = partition.cut

    live = [0] * n
    for v in range(n):
        l = left[v]
        if l < 0:
            live[v] = 1
        else:
            r = right[v]
            live[v] = (0 if cut[l] else live[l]) + (0 if cut[r] else live[r])

    treecomp = [0] * n
    acomp = [-1] * n
    root_comp, comps = partition.root_comp, partition.comps
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
        elif lv < len(comps[a].leaves):
            acomp[v] = a
        else:
            r = right[v]
            ll = 0 if cut[l] else live[l]
            rr = 0 if cut[r] else live[r]
            if ll > 0 and rr > 0:
                acomp[v] = a
    return live, treecomp, acomp


def rebuilt_forest(partition):
    """The canonical cut forest of the partition's blocks, rebuilt from
    the leaf sets alone, as ``Partition.merge`` first did it.

    Cut above each block's lca in the second tree, except for one block
    of least lca depth (then least lca, then least id), which keeps the
    root.  Returns ``(cut, root_comp, leaf_root, root2)``, ``root2``
    mapping each block id to its root.  Raises InvariantError with the
    merge's messages: when two cut blocks share a lca, and otherwise
    when some leaf's forest tree is not its block's, or a cut block's
    lca is the root, which the kept block's lca then is too.
    """
    pair = partition.pair
    t2 = pair.t2
    anchors = {}
    for cid, c in partition.comps.items():
        nodes = [pair.leaf_node2[x] for x in c.leaves]
        a = nodes[0]
        for v in nodes[1:]:
            a = naive_lca(t2, a, v)
        anchors[cid] = a
    keep = min(anchors, key=lambda cid: (t2.depth[anchors[cid]],
                                         anchors[cid], cid))
    cut = [False] * t2.n_nodes
    root_comp = {t2.root: keep}
    root2 = {keep: t2.root}
    for cid, v in anchors.items():
        if cid == keep:
            continue
        if cut[v]:
            raise InvariantError("two components share a lca in the second tree")
        cut[v] = True
        root_comp[v] = cid
        root2[cid] = v
    if cut[t2.root]:
        raise InvariantError(
            "partition is not realizable as a forest of the second tree")
    leaf_root = [-1] * pair.n
    for cid, c in partition.comps.items():
        for x in c.leaves:
            leaf_root[x] = root2[cid]
    for x in range(pair.n):
        v = pair.leaf_node2[x]
        while not cut[v] and v != t2.root:
            v = t2.parent[v]
        if v != leaf_root[x]:
            raise InvariantError(
                "partition is not realizable as a forest of the second tree")
    return cut, root_comp, leaf_root, root2


def merged_forest(partition, pairs):
    """``rebuilt_forest`` of the blocks ``Partition.merge(pairs)`` would
    leave, worked out on copies of the leaf sets: the union of the two
    blocks holding each pair takes the next id.  Raises InvariantError
    as the merge does, also when a pair already shares a block."""
    blocks = {cid: set(c.leaves) for cid, c in partition.comps.items()}
    cid = partition.next_id
    for x1, x2 in pairs:
        a, b = (next(k for k, s in blocks.items() if x in s) for x in (x1, x2))
        if a == b:
            raise InvariantError("merge pair already shares a component")
        blocks[cid] = blocks.pop(a) | blocks.pop(b)
        cid += 1
    copy = SimpleNamespace(pair=partition.pair, comps={
        k: SimpleNamespace(leaves=s) for k, s in blocks.items()})
    return rebuilt_forest(copy), blocks


def snapshot(partition):
    """Copies of everything a partition holds, its logs and saved sweep
    included, to compare before and after a call that must change
    nothing."""
    sweep = partition.sweep
    return {
        "arrays": [list(a) for a in (
            partition.cut, partition.live, partition.cover,
            partition.leaf_root, partition.live_r, partition.live_b,
            partition.tinted)],
        "root_comp": dict(partition.root_comp),
        "blocks": [(cid, set(c.leaves), c.size, c.root2, c.origin0)
                   for cid, c in partition.comps.items()],
        "ids": (partition.next_id, partition.first_new),
        "colors": (partition.coloring, dict(partition.meets)),
        "logs": deepcopy((partition.split_log, partition.merge_log)),
        "sweep": None if sweep is None else deepcopy(
            {name: getattr(sweep, name) for name in sweep.__slots__}),
    }


def leaf_blocks(partition):
    """The block id of every leaf, read off the blocks' leaf sets."""
    out = [-1] * partition.pair.n
    for cid, c in partition.comps.items():
        for x in c.leaves:
            out[x] = cid
    return out


def cover_blocks(partition):
    """The block covering each node of the second tree (-1 when none),
    read through the partition's root-keyed ``cover`` array."""
    root_comp = partition.root_comp
    return [root_comp[r] if r >= 0 else -1 for r in partition.cover]


def full_lowest_pcs(partition):
    """Lowest node of the first tree proving the partition infeasible.

    Single ascending pass keeping, per node, the block covering it, the
    size of that block's restriction below the node, and the meeting
    node of the restriction in the second tree.  Returns None exactly
    when the partition is an agreement forest.
    """
    pair = partition.pair
    t1, t2 = pair.t1, pair.t2
    n1 = t1.n_nodes
    left, right = t1.left, t1.right
    leaf_index1 = pair.leaf_index1
    leaf_node2 = pair.leaf_node2
    leaf_comp = leaf_blocks(partition)
    live2 = partition.live
    sizes = {cid: len(c.leaves) for cid, c in partition.comps.items()}
    lca2 = t2.lca

    comp = [-1] * n1
    csize = [0] * n1
    meet = [0] * n1

    for v in range(n1):
        lv = left[v]
        if lv < 0:
            i = leaf_index1[v]
            comp[v] = leaf_comp[i]
            csize[v] = 1
            meet[v] = leaf_node2[i]
            continue
        rv = right[v]
        cl = comp[lv]
        if cl >= 0 and csize[lv] >= sizes[cl]:
            cl = -1
        cr = comp[rv]
        if cr >= 0 and csize[rv] >= sizes[cr]:
            cr = -1
        if cl < 0 and cr < 0:
            continue
        if cl < 0 or cr < 0:
            src = rv if cl < 0 else lv
            comp[v] = comp[src]
            csize[v] = csize[src]
            meet[v] = meet[src]
            continue
        if cl != cr:
            return Pcs(v, "b")
        p = lca2(meet[lv], meet[rv])
        if meet[lv] == p or meet[rv] == p:
            return Pcs(v, "a")
        size = sizes[cl]
        sv = csize[lv] + csize[rv]
        if live2[p] == size and sv < size:
            return Pcs(v, "c")
        comp[v] = cl
        csize[v] = sv
        meet[v] = p
    return None


def full_color_counts(partition):
    """Red, blue and white live leaves below every node of the second
    tree inside its forest tree, and ``{block id: [red, blue, white]}``,
    from the partition's coloring's red and blue leaves and cut set (all
    white without a coloring)."""
    pair = partition.pair
    t2 = pair.t2
    n = t2.n_nodes
    left, right, cut = t2.left, t2.right, partition.cut
    coloring = partition.coloring
    col = [WHITE] * pair.n
    if coloring is not None:
        for color, leaves in ((RED, coloring.red), (BLUE, coloring.blue)):
            for i in leaves:
                col[i] = color
    counts = [[0] * n for _ in range(3)]
    for v in range(n):
        if left[v] < 0:
            counts[col[pair.leaf_index2[v]]][v] = 1
            continue
        for live in counts:
            live[v] = sum(live[ch] for ch in (left[v], right[v]) if not cut[ch])
    blocks = {cid: [0, 0, 0] for cid in partition.comps}
    for i, cid in enumerate(leaf_blocks(partition)):
        blocks[cid][col[i]] += 1
    return counts[RED], counts[BLUE], counts[WHITE], blocks


def tinted_color_counts(partition):
    """The red and blue counts of ``full_color_counts`` on the nodes at
    or below the colored meet of each colored block, inside that block's
    forest tree, and 0 on every other node; the nodes where one is
    nonzero, ascending; and ``{block id: colored meet}``, each meet the
    lca of the block's red and blue leaves folded pairwise.  A colored
    block is one of two or more leaves that holds a red or blue leaf, or
    a block of one colored leaf created since the coloring was
    installed, which is right after ``begin_iteration`` as in ``run``:
    its id is at least ``first_new``."""
    pair = partition.pair
    t2 = pair.t2
    n = t2.n_nodes
    live_r, live_b = full_color_counts(partition)[:2]
    coloring = partition.coloring
    colored = {}
    if coloring is not None:
        leaf_comp = leaf_blocks(partition)
        for i in coloring.red + coloring.blue:
            colored.setdefault(leaf_comp[i], []).append(i)
    meets = {cid: fold_lca(pair, 2, leaves) for cid, leaves in colored.items()
             if len(partition.comps[cid].leaves) > 1
             or cid >= partition.first_new}
    inside = [False] * n
    marked = set(meets.values())
    for v in range(n - 1, -1, -1):
        inside[v] = v in marked or (
            v != t2.root and not partition.cut[v] and inside[t2.parent[v]])
    live_r = [x if ok else 0 for x, ok in zip(live_r, inside)]
    live_b = [x if ok else 0 for x, ok in zip(live_b, inside)]
    tinted = [v for v in range(n) if live_r[v] or live_b[v]]
    return live_r, live_b, tinted, meets


def color_classes(partition):
    """Red and blue leaves of every multicolored block, sorted, keyed by
    block id: the installed coloring's lists grouped by current block."""
    classes = {cid: ([], []) for cid in partition.mixed()}
    blocks = leaf_blocks(partition)
    coloring = partition.coloring
    for k, leaves in enumerate((coloring.red, coloring.blue)):
        for i in leaves:
            if blocks[i] in classes:
                classes[blocks[i]][k].append(i)
    return classes


def full_rb_violation(partition):
    """Lowest node whose covering block has red and blue below it and
    one of them above it too."""
    live_r, live_b, _, blocks = full_color_counts(partition)
    acomp = cover_blocks(partition)
    left = partition.pair.t2.left
    for v in range(partition.pair.t2.n_nodes):
        cid = acomp[v]
        if left[v] < 0 or cid < 0:
            continue
        lr, lb = live_r[v], live_b[v]
        if lr and lb and (lr < blocks[cid][RED] or lb < blocks[cid][BLUE]):
            return v
    return None


def full_splittable_violation(partition):
    """Lowest node whose covering block has exactly two colors below it
    and every one of its colors above it too."""
    live_r, live_b, live_w, blocks = full_color_counts(partition)
    acomp = cover_blocks(partition)
    left = partition.pair.t2.left
    for v in range(partition.pair.t2.n_nodes):
        cid = acomp[v]
        if left[v] < 0 or cid < 0:
            continue
        below = (live_r[v], live_b[v], live_w[v])
        if sum(1 for x in below if x) != 2:
            continue
        if all(x < total for x, total in zip(below, blocks[cid]) if total):
            return v
    return None


def full_top_components(partition):
    """Blocks created this iteration whose meeting node lies below no
    other created block's meeting node, in creation order."""
    created = [c for c in partition.comps.values()
               if c.id >= partition.first_new]
    if not created:
        return []
    pair = partition.pair
    t2 = pair.t2
    n = t2.n_nodes
    marked = [False] * n
    anchors = {}
    for c in created:
        a = fold_lca(pair, 2, c.leaves)
        assert not marked[a], "two created blocks share a meeting node"
        marked[a] = True
        anchors[c.id] = a
    below = [False] * n
    for v in range(n - 2, -1, -1):
        p = t2.parent[v]
        below[v] = below[p] or marked[p]
    return [c.id for c in created if not below[anchors[c.id]]]


def full_find_merge_pair(partition):
    """The undoable pair of colored leaves by a full upward scan of the
    second tree and then a root-down search, or None."""
    comps = partition.comps
    blocks = full_color_counts(partition)[3]
    scope = {}
    for c in comps.values():
        if c.id < partition.first_new:
            continue
        for color in (RED, BLUE):
            if blocks[c.id][color] == c.size:
                scope[c.id] = color
    if len(scope) < 2:
        return None

    pair = partition.pair
    t2 = pair.t2
    n = t2.n_nodes
    left, right = t2.left, t2.right
    acomp = cover_blocks(partition)
    bucket = {}
    for cid in scope:
        bucket.setdefault(fold_lca(pair, 2, comps[cid].leaves), []).append(cid)

    def emit(c1, c2):
        c1, c2 = sorted((c1, c2))
        assert comps[c1].origin0 == comps[c2].origin0, \
            "undo pair spans two start-of-iteration blocks"
        return (min(comps[c1].leaves), min(comps[c2].leaves))

    reach = [()] * n
    for v in range(n):
        entries = list(bucket.get(v, ()))
        if left[v] >= 0:
            for ch in (left[v], right[v]):
                if acomp[ch] < 0:
                    entries.extend(reach[ch])
                else:
                    entries.extend(bucket.get(ch, ()))
        rset = entries
        cov = acomp[v]
        if cov in scope and cov not in rset:
            rset = entries + [cov]
        for color in (RED, BLUE):
            same = sorted(c for c in rset if scope[c] == color)
            if len(same) >= 2:
                return emit(same[0], same[1])
        reach[v] = tuple(entries)

    stack = [n - 1]
    while stack:
        v = stack.pop()
        cov = acomp[v]
        if cov in scope:
            continue
        if cov < 0 and len(reach[v]) == 2:
            c1, c2 = reach[v]
            assert scope[c1] != scope[c2], "same-color pair escaped the upward scan"
            if comps[c1].origin0 == comps[c2].origin0:
                return emit(c1, c2)
        if left[v] >= 0:
            stack.append(right[v])
            stack.append(left[v])
    return None


# ----------------------------------------------------------------------
# LP text, one term at a time, as the renderer first did it


def _naive_num(x):
    if x == int(x):
        return str(int(x))
    return repr(float(x))


def _naive_terms(model, coefs):
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
                                       _naive_num(abs(coef)), name))
    if parts and parts[0][0] == "+":
        parts[0] = parts[0][2:]
    return parts


def naive_render_lp_text(model):
    """LP-format text of a model, one Python step per term."""
    lines = ["\\ Problem: %s" % model.name, "Minimize"]
    obj = _naive_terms(model, model.objective)
    c = model.objective_constant
    if c or not obj:
        obj.append(("+ " if c >= 0 else "- ") + _naive_num(abs(c))
                   if obj else _naive_num(c))
    lines.append(" obj: " + " ".join(obj))
    lines.append("Subject To")
    for row in model.constraints:
        lines.append(" %s: %s %s %s" % (
            row.name, " ".join(_naive_terms(model, row.coefs)),
            row.sense, _naive_num(row.rhs)))
    lines.append("Bounds")
    for v in model.variables:
        if v.upper is None:
            lines.append(" %s <= %s" % (_naive_num(v.lower), v.name))
        else:
            lines.append(" %s <= %s <= %s" % (_naive_num(v.lower), v.name,
                                              _naive_num(v.upper)))
    integers = [v.name for v in model.variables if v.integer]
    if integers:
        lines.append("General")
        for name in integers:
            lines.append(" " + name)
    lines.append("End")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Newick text, one character at a time, as the reader first did it, and
# one nested string per node, as the writer first did it


def naive_to_newick(tree, canonical=False):
    """Newick text of a tree, built bottom-up with each internal node's
    text formatted from its children's, so a label is copied once per
    ancestor.  Canonical text puts first the child whose subtree holds
    the smaller least label, so it names the topology alone."""
    parts = [None] * tree.n_nodes
    least = [None] * tree.n_nodes  # least leaf label in each subtree
    for v in range(tree.n_nodes):
        l = tree.left[v]
        if l < 0:
            parts[v] = least[v] = tree.labels[v]
        else:
            r = tree.right[v]
            if canonical and least[r] < least[l]:
                l, r = r, l
            parts[v] = "(%s,%s)" % (parts[l], parts[r])
            least[v] = least[l] if least[l] < least[r] else least[r]
    return parts[tree.root] + ";"


def naive_parse_newick(text):
    """Character-loop Newick reader into nested tuples, then a second
    walk that gives post-order ids and builds the node arrays, which
    :class:`RootedBinaryTree` must derive alike from the labels alone.

    It counts whitespace as a separator and skips empty children, so
    ``(a b)`` and ``(a,,b)`` read as ``(a,b)``; :func:`parse_newick`
    rejects both.
    """
    s = text.rstrip()  # the loop skips leading whitespace
    if not s:
        raise NewickError("empty input")
    if s.endswith(";"):
        s = s[:-1].rstrip()
    end = len(s)

    def read_name(i):
        j = i
        while j < end and s[j] not in "(),;:'[]" and not s[j].isspace():
            j += 1
        return s[i:j], j

    def skip_length(i):
        if i < end and s[i] == ":":
            i += 1
            j = i
            while j < end and (s[j].isdigit() or s[j] in ".+-eE"):
                j += 1
            try:
                float(s[i:j])
            except ValueError:
                raise NewickError("bad branch length at offset %d" % i) from None
            return j
        return i

    stack = [[]]
    i = 0
    while i < end:
        c = s[i]
        if c.isspace() or c == ",":
            i += 1
        elif c == "(":
            stack.append([])
            i += 1
        elif c == ")":
            kids = stack.pop()
            if not stack:
                raise NewickError("unbalanced ')'")
            if len(kids) != 2:
                raise NewickError(
                    "internal node with %d children, need exactly 2" % len(kids))
            i += 1
            _, i = read_name(i)
            i = skip_length(i)
            stack[-1].append((None, kids))
        elif c in ";:":
            raise NewickError("unexpected %r at offset %d" % (c, i))
        elif c in "'[]":
            raise NewickError(
                "unsupported %r at offset %d: quoted labels and comments "
                "are not read" % (c, i))
        else:
            name, i = read_name(i)
            if not name:
                raise NewickError("expected a leaf label at offset %d" % i)
            i = skip_length(i)
            stack[-1].append((name, None))
    if len(stack) != 1:
        raise NewickError("unbalanced '('")
    if len(stack[0]) != 1:
        raise NewickError("expected a single root")

    parent, left, right, labels = [], [], [], []
    work = [[stack[0][0], []]]
    while work:
        node, got = work[-1]
        name, kids = node
        if kids is not None and len(got) < 2:
            work.append([kids[len(got)], []])
            continue
        nid = len(parent)
        parent.append(-1)
        if kids is None:
            left.append(-1)
            right.append(-1)
            labels.append(name)
        else:
            l, r = got
            left.append(l)
            right.append(r)
            labels.append(None)
            parent[l] = nid
            parent[r] = nid
        work.pop()
        if work:
            work[-1][1].append(nid)
    tree = RootedBinaryTree(labels)
    assert (tree.parent, tree.left, tree.right) == (parent, left, right)
    return tree


# ----------------------------------------------------------------------
# random-tree draws by walking the whole tree, as the generator first
# did them


def naive_subtree_nodes(left, right, v):
    """Nodes under ``v`` in pre-order, right child first, by any ids.

    Reversed, the list is the left-to-right post-order, which is the
    node numbering ``parse_newick`` gives the tree's Newick text.
    """
    out = []
    stack = [v]
    while stack:
        u = stack.pop()
        out.append(u)
        if left[u] >= 0:
            stack.append(left[u])
            stack.append(right[u])
    return out


def naive_arrays_newick(left, right, labels, root):
    """Newick text of the tree below ``root``, children left to right,
    for node arrays in any ids.

    The generator wrote this text and parsed it back before it built
    its tree arrays directly.
    """
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):  # a ")" or "," pushed below
            out.append(node)
        elif left[node] < 0:
            out.append(labels[node])
        else:
            out.append("(")
            stack += (")", right[node], ",", left[node])
    return "".join(out) + ";"
