"""Exact search oracle, random instance generators, and the command line.

The console entry point wires the solver, the certificate checker, the
LP emitters, and the instance generators behind one ``rbmaf`` command.
Exit codes: 0 on success, 1 when a solver invariant fails, 2 on bad
usage or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field

from .dual_certificate import verify_dual_feasibility
from .forest_partition import is_feasible_maf
from .lp_toolkit import (
    ENUMERATION_CAP,
    WU_GAP_MAX_ORDER,
    build_compact_lp,
    build_exponential_lp,
    build_wu_ilp,
    fig_instances,
    write_lp_file,
    wu_gap_instance,
)
from .redblue_core import run
from .tree_model import (
    InvariantError,
    NewickError,
    OracleCapError,
    RootedBinaryTree,
    TreePair,
    conflict_masks,
    leaf_path_masks,
    pair_from_newick,
    parse_newick,  # noqa: F401  unused here; perfbench patches this name
)

EXACT_CAP = 10
# Largest cap exact_maf takes: uniform pairs took 0.08-0.12 s at 24
# leaves, 0.23-0.37 s at 26 and 0.30-1.1 s at 28 (x86-64, Python 3.11).
EXACT_CEILING = 24
_SPR_ATTEMPTS = 64
# Largest leaf count random_pair generates.  At this cap one pair peaks
# at about 0.9 KB per leaf (424 MB uniform, 445 MB k-rSPR with k = 20,
# above the interpreter; x86-64, Python 3.11), before any solve.
GENERATED_LEAF_CAP = 500_000
# Largest size `rbmaf bench` runs: its uniform pairs take about n / 2
# iterations, so `run` is quadratic there.
BENCH_LEAF_CAP = 32_000


# ----------------------------------------------------------------------
# exact optimum by exhaustive partition search


def exact_maf(pair, partition_cap=None):
    """Minimum edge deletions over all agreement forests, by exhaustion.

    Walks the set partitions of the leaves in restricted growth order.
    A block may grow only while its leaf triples stay compatible, as one
    bit of the OR of its pairs' :func:`conflict_masks` tells, and its
    spanned edges stay disjoint from every other block in both trees,
    which :func:`leaf_path_masks` shows is the same as disjoint spanned
    nodes.  As spans stay disjoint, the other blocks' edges are the
    union of every block's edges, one int per tree carried down the
    search, less the block's own: a leaf joins a block when its path to
    the block's first leaf misses them in both trees.  Branches already
    using at least the best known number of blocks are cut.  Refuses
    more than ``partition_cap`` leaves (default 10), a cap below 1 and a
    cap above :data:`EXACT_CEILING`; a cap above the default warns.
    """
    cap = EXACT_CAP if partition_cap is None else partition_cap
    if cap < 1:
        raise OracleCapError(
            "exact search cap must be at least 1 leaf (default %d), got %d "
            "for an instance with %d leaves" % (EXACT_CAP, cap, pair.n))
    _check_exact_ceiling(cap)
    if cap > EXACT_CAP:
        warnings.warn(
            "exact search allowed up to %d leaves; the partition count "
            "grows like the Bell numbers" % cap,
            RuntimeWarning, stacklevel=2)
    n = pair.n
    if n > cap:
        raise OracleCapError(
            "exact search capped at %d leaves, got %d" % (cap, n))
    conf = conflict_masks(pair)
    pm1 = leaf_path_masks(pair, 1)
    pm2 = leaf_path_masks(pair, 2)
    best = n - 1
    blocks = []  # [leaves, edges spanned in tree 1, in tree 2, barred leaves]

    def grow(i, used1, used2):
        nonlocal best
        nblocks = len(blocks)
        if nblocks - 1 >= best:
            return
        if i == n:
            best = nblocks - 1
            return
        for block in blocks:
            ms, s1, s2, barred = block
            p1 = pm1[ms[0]][i]
            p2 = pm2[ms[0]][i]
            if not (barred >> i & 1 or p1 & (used1 ^ s1)
                    or p2 & (used2 ^ s2)):
                bar = barred
                for x in ms:
                    bar |= conf[i][x]
                ms.append(i)
                block[1:] = s1 | p1, s2 | p2, bar
                grow(i + 1, used1 | p1, used2 | p2)
                ms.pop()
                block[1:] = s1, s2, barred
        blocks.append([[i], 0, 0, 0])
        grow(i + 1, used1, used2)
        blocks.pop()

    grow(0, 0, 0)
    return best


def _check_exact_ceiling(cap):
    if cap > EXACT_CEILING:
        raise OracleCapError("exact search caps stop at EXACT_CEILING = %d "
                             "leaves, got %d" % (EXACT_CEILING, cap))


# ----------------------------------------------------------------------
# random instances


def _uniform_tree(labels, rng):
    """Uniform rooted binary topology on ``labels`` via random
    sequential insertion.

    Node 0 is the first leaf, and leaf ``i`` (from 1) adds joint
    ``2i - 1`` and leaf ``2i``: the joint takes the place of a node
    drawn uniformly from the ``2i - 1`` made so far, with that node as
    its left child and the new leaf as its right.  Every node is a slot
    (the root's is the one above it), which makes every shape equally
    likely.  In post-order the joint's subtree is the host's followed by
    the leaf and the joint, so an insertion puts those two right after
    the host in a list of post-order successors, and no other link is
    kept.  Leaf 0 stays leftmost, so the post-order starts there.
    """
    m = 2 * len(labels) - 1
    after = [-1] * m
    draw = rng.randrange
    for joint in range(1, m, 2):
        host = draw(joint)
        after[joint] = after[host]
        after[host] = joint + 1
        after[joint + 1] = joint
    named = [None] * m
    named[::2] = labels
    names = [None] * m
    u = 0
    for v in range(m):
        names[v] = named[u]
        u = after[u]
    return RootedBinaryTree(names)


def _post_order_names(left, right, labels, root):
    """Labels of the nodes below ``root`` in left-to-right post-order,
    None on internal nodes: a right-first pre-order walk, reversed."""
    names = []
    visit = names.append
    stack = [root]
    push, pop = stack.append, stack.pop
    while stack:
        u = pop()
        visit(labels[u])
        if left[u] >= 0:
            push(left[u])
            push(right[u])
    names.reverse()
    return names


def _pre_order_node(left, right, size, root, i):
    """Node at index ``i`` of the right-first pre-order below ``root``,
    found by walking down by subtree sizes (``size`` counts nodes).
    Sizes that carry the walk past a leaf raise InvariantError there.
    """
    node = root
    while i:
        if left[node] < 0:
            raise InvariantError(
                "pre-order index past the subtree of node %d" % root)
        i -= 1
        below = size[right[node]]
        if i < below:
            node = right[node]
        else:
            i -= below
            node = left[node]
    return node


def _hang(parent, left, right, node, new):
    """Hang ``new`` where ``node`` hangs, below ``node``'s parent."""
    up = parent[node]
    parent[new] = up
    if left[up] == node:
        left[up] = new
    else:
        right[up] = new


def _resize(parent, size, node, by):
    """Add ``by`` to the size of ``node`` and of each of its ancestors."""
    while node >= 0:
        size[node] += by
        node = parent[node]


def _spr_move(parent, left, right, size, top, rng):
    """One subtree prune and regraft on the arrays, in place; True when
    the tree changed.

    ``top`` is a node above the root, whose left child the root is, so
    every node of the tree has a parent to hang from.  The pruned
    subtree is drawn by its left-to-right post-order index (the root
    excluded) and the regraft point by its right-first pre-order index
    in the pruned tree.  The pruned subtree's former parent becomes the
    joint above the regraft point, with that point as its left child.
    Returns False and leaves the arrays as they were when the pruned
    subtree would go back onto its former sibling: in a rooted binary
    tree with distinct labels that is the only move that gives back the
    same topology.
    """
    root = left[top]
    # post-order index i is right-first pre-order index size - 1 - i
    moving = _pre_order_node(left, right, size, root,
                             size[root] - 1 - rng.randrange(size[root] - 1))
    gone = parent[moving]
    sib = left[gone] if right[gone] == moving else right[gone]
    cut = size[moving] + 1
    _resize(parent, size, parent[gone], -cut)
    _hang(parent, left, right, gone, sib)
    root = left[top]
    host = _pre_order_node(left, right, size, root, rng.randrange(size[root]))
    moved = host != sib  # if not, gone goes back with its children as they were
    if moved:
        left[gone] = host
        right[gone] = moving
        size[gone] = size[host] + cut
    _hang(parent, left, right, host, gone)
    parent[host] = gone
    _resize(parent, size, parent[gone], cut)
    return moved


def random_pair(n, seed=0, mode="uniform", k=None):
    """Random tree pair, deterministic in (n, seed, mode, k).

    ``uniform`` draws two independent topologies, each uniform over the
    rooted binary shapes on the labels (leaves join at a uniformly
    chosen slot, including the one above the root).  ``k_rspr`` copies
    the first tree and applies ``k`` prune and regraft moves, drawing a
    move again (up to 64 times) when it would regraft onto the pruned
    subtree's former sibling, the one move that changes nothing; so the
    true distance is at most ``k``.  When no shape-changing move exists
    (two leaves) the move is skipped.  Randomness comes from
    ``random.Random(seed)`` (Mersenne Twister).  A uniform tree grows
    as a list of post-order successors; the moves edit copies of the
    first tree's ``parent``/``left``/``right`` arrays and subtree sizes.
    Each tree is read out once as its post-order labels, the list
    :class:`RootedBinaryTree` builds it from; no Newick text is written
    or read.  Arguments are checked before anything is allocated; ``n``
    may not exceed :data:`GENERATED_LEAF_CAP`.
    """
    if n < 2:
        raise ValueError("need at least 2 leaves, got %d" % n)
    if n > GENERATED_LEAF_CAP:
        raise ValueError(
            "generated pairs are capped at GENERATED_LEAF_CAP = %d leaves, "
            "got %d" % (GENERATED_LEAF_CAP, n))
    if mode == "k_rspr":
        if k is None or k < 0:
            raise ValueError("k_rspr mode needs k >= 0")
        if k >= n:
            raise ValueError("k must stay below the leaf count n = %d, "
                             "got %d" % (n, k))
    elif mode != "uniform":
        raise ValueError("unknown mode %r" % mode)
    name = "L%%0%dd" % len(str(n))
    labels = [name % i for i in range(1, n + 1)]
    rng = random.Random(seed)
    t1 = _uniform_tree(labels, rng)
    if mode == "uniform":
        t2 = _uniform_tree(labels, rng)
    else:
        top = t1.n_nodes  # a node above the root, for _spr_move
        parent = t1.parent[:-1] + [top, -1]
        left, right = t1.left + [t1.root], t1.right + [-1]
        size = [v - low + 1 for v, low in enumerate(t1.subtree_min)] + [0]
        for _ in range(k):
            for _attempt in range(_SPR_ATTEMPTS):
                if _spr_move(parent, left, right, size, top, rng):
                    break
        t2 = RootedBinaryTree(
            _post_order_names(left, right, t1.labels, left[top]))
    return TreePair(t1, t2)


def corpus(n, count, base_seed=0, mode="mixed"):
    """Seeded ``(name, pair)`` instances on ``n`` leaves, yielded lazily.

    Instance ``i`` uses seed ``base_seed + i``.  ``mixed`` alternates
    independent uniform pairs (even ``i``) with pairs ``k = 1 + i %
    max(1, n - 2)`` prune and regraft moves apart (odd ``i``); ``krspr``
    and ``uniform`` keep to one kind.
    """
    for i in range(count):
        seed = base_seed + i
        if mode == "krspr" or (mode == "mixed" and i % 2):
            k = 1 + i % max(1, n - 2)
            yield ("r%d-n%d-s%d" % (k, n, seed),
                   random_pair(n, seed, mode="k_rspr", k=k))
        else:
            yield "u-n%d-s%d" % (n, seed), random_pair(n, seed)


# ----------------------------------------------------------------------
# reports


@dataclass
class RunReport:
    """One instance's outcome, its certificate, and the optional truth."""

    instance: str
    value: int
    dual: int
    exact: int | None = None
    ratio_exact: float | None = None
    ratio_half: float | None = None
    timings: dict = field(default_factory=dict)

    def validate(self):
        """Check the approximation and certificate inequalities.

        ``value <= 2 * dual`` and ``dual <= exact`` give ``value <= 2 *
        exact``, so that needs no check of its own.
        """
        if self.dual < 0:
            raise InvariantError(
                "%s: negative lower bound %d" % (self.instance, self.dual))
        if self.value > 2 * self.dual:
            raise InvariantError(
                "%s: value %d exceeds twice the lower bound %d"
                % (self.instance, self.value, self.dual))
        if self.exact is not None:
            if self.dual > self.exact:
                raise InvariantError(
                    "%s: lower bound %d above the optimum %d"
                    % (self.instance, self.dual, self.exact))
            if self.value < self.exact:
                raise InvariantError(
                    "%s: value %d below the optimum %d"
                    % (self.instance, self.value, self.exact))
        return True

    def as_dict(self):
        return asdict(self)


def make_report(pair, instance="instance", want_exact=False, exact_cap=None,
                on_iteration=None):
    """Solve one pair, optionally compare against the exact optimum.

    ``on_iteration`` is handed to :func:`run`; its time counts as solve
    time.
    """
    t0 = time.perf_counter()
    result = run(pair, on_iteration=on_iteration)
    timings = {"solve": time.perf_counter() - t0}
    exact = None
    if want_exact:
        t0 = time.perf_counter()
        exact = exact_maf(pair, exact_cap)
        timings["exact"] = time.perf_counter() - t0
    report = RunReport(
        instance=instance,
        value=result.value,
        dual=result.dual_objective,
        exact=exact,
        ratio_exact=(result.value / exact) if exact else None,
        ratio_half=(result.value / (2 * result.dual_objective)
                    if result.dual_objective else None),
        timings=timings,
    )
    report.validate()
    return report, result


def certificate_dict(result):
    """Lower bound certificate in the documented JSON shape."""
    return {
        "y": result.dual.as_dict(),
        "D": result.dual_objective,
        "ratio_bound": result.ratio_bound,
    }


# ----------------------------------------------------------------------
# commands


def _read_tree_text(argument):
    """File path, or a literal Newick string when it looks like one."""
    if os.path.exists(argument):
        with open(argument, "r", encoding="utf-8") as handle:
            return handle.read()
    stripped = argument.strip()
    if stripped.endswith(";") and "(" in stripped:
        return stripped
    raise NewickError("no such file and not a Newick literal: %r" % argument)


def _load_pair(args):
    return pair_from_newick(
        _read_tree_text(args.tree1),
        _read_tree_text(args.tree2),
        add_rho=getattr(args, "add_rho", False),
    )


def _cmd_solve(args):
    pair = _load_pair(args)
    result = run(pair, record_snapshots=bool(args.trace))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for event in result.trace:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
    if args.json:
        payload = result.partition.to_json_dict()
        payload.update({
            "value": result.value,
            "dual": result.dual_objective,
            "ratio_bound": result.ratio_bound,
            "pairs": [[result.pair.labels[a], result.pair.labels[b]]
                      for a, b in result.pairslist],
            "iterations": len(result.iterations),
            "certificate": certificate_dict(result),
        })
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("value %d" % result.value)
        print("dual lower bound %d" % result.dual_objective)
        if result.ratio_bound is not None:
            print("ratio bound %.3f" % result.ratio_bound)
        for block in result.components:
            print("component " + " ".join(block))
    return 0


def _cmd_exact(args):
    pair = _load_pair(args)
    print("exact %d" % exact_maf(pair, args.cap))
    return 0


def _verify_each_iteration(pair):
    """``on_iteration`` hook that re-verifies the certificate."""
    def inspect(partition, dual, record):
        verify_dual_feasibility(pair, dual, partition)
    return inspect


def _cmd_check_dual(args):
    pair = _load_pair(args)
    result = run(pair, on_iteration=_verify_each_iteration(pair))
    verify_dual_feasibility(pair, result.dual, result.partition)
    print("dual certificate feasible after each of %d iterations"
          % len(result.iterations))
    print("value %d lower bound %d" % (result.value, result.dual_objective))
    return 0


_LP_BUILDERS = {
    "exp": build_exponential_lp,
    "compact": build_compact_lp,
    "wu": build_wu_ilp,
}


def _cmd_emit_lp(args):
    pair = _load_pair(args)
    model = _LP_BUILDERS[args.kind](pair)
    write_lp_file(model, args.output)
    print("wrote %s: %d variables, %d constraints, %d nonzeros"
          % (args.output, len(model.variables), len(model.constraints),
             model.nonzeros()))
    return 0


def _cmd_gen(args):
    kind = args.kind
    if kind == "random":
        if args.n is None:
            raise ValueError("gen random needs --n")
        pair = random_pair(args.n, args.seed)
    elif kind == "krspr":
        if args.n is None or args.k is None:
            raise ValueError("gen krspr needs --n and --k")
        pair = random_pair(args.n, args.seed, mode="k_rspr", k=args.k)
    elif kind == "wu":
        pair = wu_gap_instance(2 if args.k is None else args.k)
    else:
        pair = fig_instances()[kind].pair
    prefix = args.out or kind
    path1 = prefix + "_t1.nwk"
    path2 = prefix + "_t2.nwk"
    with open(path1, "w", encoding="utf-8") as handle:
        handle.write(pair.t1.to_newick() + "\n")
    with open(path2, "w", encoding="utf-8") as handle:
        handle.write(pair.t2.to_newick() + "\n")
    print("wrote %s and %s" % (path1, path2))
    return 0


def _cmd_fuzz(args):
    """Sandwich checks over a seeded corpus.

    Instances small enough for the exact search are also compared with
    the optimum and have their certificate re-verified after every
    iteration, as ``check-dual`` does.
    """
    if args.iters < 1:
        raise ValueError("fuzz needs --iters >= 1, got %d" % args.iters)
    _check_exact_ceiling(args.exact_cap)
    want_exact = args.n <= args.exact_cap
    verify = want_exact and args.n <= ENUMERATION_CAP
    failures = []
    worst = None
    for name, pair in corpus(args.n, args.iters, args.seed, args.mode):
        try:
            report, result = make_report(
                pair, instance=name, want_exact=want_exact,
                exact_cap=args.exact_cap,
                on_iteration=_verify_each_iteration(pair) if verify else None)
            if verify:
                verify_dual_feasibility(pair, result.dual, result.partition)
            if not is_feasible_maf(pair, result.partition):
                raise InvariantError("final forest is not an agreement forest")
        except (InvariantError, AssertionError) as error:
            failures.append("%s: %s" % (name, error))
            continue
        if report.ratio_exact is not None:
            worst = max(worst or 0.0, report.ratio_exact)
    if failures:
        for line in failures[:20]:
            print("FAIL " + line, file=sys.stderr)
        print("%d of %d instances failed" % (len(failures), args.iters),
              file=sys.stderr)
        return 1
    summary = ("fuzz ok: %d instances, n=%d, seed=%d, mode=%s"
               % (args.iters, args.n, args.seed, args.mode))
    if worst is not None:
        summary += ", worst value/exact %.3f" % worst
    print(summary)
    return 0


def _cmd_bench(args):
    sizes = []
    for s in filter(None, args.sizes.split(",")):
        if not s.strip().isdigit() or int(s) < 2:
            raise ValueError("bench --sizes needs leaf counts >= 2, got %r" % s)
        if int(s) > BENCH_LEAF_CAP:
            raise ValueError(
                "bench --sizes is capped at BENCH_LEAF_CAP = %d leaves "
                "(run is quadratic on uniform pairs), got %s"
                % (BENCH_LEAF_CAP, s.strip()))
        sizes.append(int(s))
    if not sizes:
        raise ValueError("bench --sizes needs at least one leaf count, got %r"
                         % args.sizes)
    previous = None
    print("%8s %10s %8s %8s %8s" % ("n", "time_s", "value", "dual", "ratio"))
    for n in sizes:
        pair = random_pair(n, args.seed)
        t0 = time.perf_counter()
        result = run(pair)
        elapsed = time.perf_counter() - t0
        ratio = "" if not previous else "%.2f" % (elapsed / previous)
        print("%8d %10.3f %8d %8d %8s"
              % (n, elapsed, result.value, result.dual_objective, ratio))
        previous = elapsed
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rbmaf",
        description="2-approximate maximum agreement forests "
                    "with dual lower bound certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_arguments(p):
        p.add_argument("tree1", help="first tree: Newick file or literal")
        p.add_argument("tree2", help="second tree: Newick file or literal")

    p = sub.add_parser("solve", help="run the 2-approximation")
    add_pair_arguments(p)
    p.add_argument("--add-rho", action="store_true",
                   help="augment both trees with a shared root leaf")
    p.add_argument("--trace", metavar="PATH",
                   help="write a JSONL event trace")
    p.add_argument("--json", action="store_true",
                   help="machine readable output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", help="exhaustive optimum (small instances)")
    add_pair_arguments(p)
    p.add_argument("--cap", type=int, default=None,
                   help="leaf count cap for the search (default 10)")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("check-dual",
                       help="re-verify the certificate after every iteration")
    add_pair_arguments(p)
    p.set_defaults(func=_cmd_check_dual)

    p = sub.add_parser("emit-lp", help="write an LP or ILP file")
    p.add_argument("kind", choices=("exp", "compact", "wu"))
    add_pair_arguments(p)
    p.add_argument("-o", "--output", required=True,
                   help="destination .lp file")
    p.set_defaults(func=_cmd_emit_lp)

    p = sub.add_parser("gen", help="write instance fixtures as Newick files")
    p.add_argument("kind", choices=("random", "krspr", "wu", "fig1", "fig9"))
    p.add_argument("--n", type=int, default=None, help="leaf count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None,
                   help="moves for krspr, order for wu (even, 2 to %d)"
                   % WU_GAP_MAX_ORDER)
    p.add_argument("-o", "--out", default=None, help="output path prefix")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fuzz", help="randomized sandwich checks")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("uniform", "krspr", "mixed"),
                   default="mixed")
    p.add_argument("--exact-cap", type=int, default=EXACT_CAP)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("bench", help="runtime scaling table")
    p.add_argument("--sizes", default="1000,2000,4000")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvariantError, AssertionError) as error:
        print("invariant violation: %s" % error, file=sys.stderr)
        return 1
    except (NewickError, OracleCapError, ValueError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
