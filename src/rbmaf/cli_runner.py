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
from dataclasses import dataclass, field
from itertools import combinations

from .dual_certificate import VERIFY_CAP, verify_dual_feasibility
from .forest_partition import is_feasible_maf
from .lp_toolkit import (
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
    incompatible_triples,
    leaf_path_masks,
    pair_from_newick,
    parse_newick,  # noqa: F401  unused here; perfbench patches this name
)

EXACT_CAP = 10
_SPR_ATTEMPTS = 64


# ----------------------------------------------------------------------
# exact optimum by exhaustive partition search


def exact_maf(pair, partition_cap=None):
    """Minimum edge deletions over all agreement forests, by exhaustion.

    Walks the set partitions of the leaves in restricted growth order.
    A block may grow only while all its leaf triples stay compatible
    and its spanned edges stay disjoint from every other block in both
    trees, which :func:`leaf_path_masks` shows is the same as disjoint
    spanned nodes; branches already using at least the best known
    number of blocks are cut.  Refuses more than ``partition_cap``
    leaves (default 10) and a cap below 1; a cap above the default
    warns.
    """
    cap = EXACT_CAP if partition_cap is None else partition_cap
    if cap < 1:
        raise OracleCapError(
            "exact search cap must be at least 1 leaf (default %d), got %d "
            "for an instance with %d leaves" % (EXACT_CAP, cap, pair.n))
    if cap > EXACT_CAP:
        warnings.warn(
            "exact search allowed up to %d leaves; the partition count "
            "grows like the Bell numbers" % cap,
            RuntimeWarning, stacklevel=2)
    n = pair.n
    if n > cap:
        raise OracleCapError(
            "exact search capped at %d leaves, got %d" % (cap, n))
    if n <= 2:
        return 0
    bad = incompatible_triples(pair)
    pm1 = leaf_path_masks(pair, 1)
    pm2 = leaf_path_masks(pair, 2)
    best = n - 1
    members = []
    span1 = []
    span2 = []

    def grow(i):
        nonlocal best
        nblocks = len(members)
        if nblocks - 1 >= best:
            return
        if i == n:
            best = nblocks - 1
            return
        for k in range(nblocks):
            ms, s1, s2 = members[k], span1[k], span2[k]
            for x, y in combinations(ms, 2):
                if (x, y, i) in bad:
                    break
            else:
                ns1 = s1 | pm1[ms[0]][i]
                ns2 = s2 | pm2[ms[0]][i]
                for j in range(nblocks):
                    if j != k and (ns1 & span1[j] or ns2 & span2[j]):
                        break
                else:
                    ms.append(i)
                    span1[k], span2[k] = ns1, ns2
                    grow(i + 1)
                    ms.pop()
                    span1[k], span2[k] = s1, s2
        members.append([i])
        span1.append(0)
        span2.append(0)
        grow(i + 1)
        members.pop()
        span1.pop()
        span2.pop()

    grow(0)
    return best


# ----------------------------------------------------------------------
# random instances


class _Bud:
    """Mutable node used only while building or editing random trees.

    ``size`` counts the nodes of the subtree below and including it.
    """

    __slots__ = ("left", "right", "parent", "label", "size")

    def __init__(self, label=None):
        self.left = None
        self.right = None
        self.parent = None
        self.label = label
        self.size = 1


def _bud_tree(root):
    """The bud tree as a :class:`RootedBinaryTree`, ids in left-to-right
    post-order: the ids ``parse_newick`` gives the tree's Newick text.

    One explicit-stack walk: a leaf gets its id when it is reached, an
    internal node when both its children are done.
    """
    parent, left, right, labels = [], [], [], []
    stack = [root]
    kids = []  # ids of the finished subtrees still waiting for a parent
    while stack:
        node = stack.pop()
        if node is not None and node.label is None:
            stack += (None, node.right, node.left)  # None closes the node
            continue
        v = len(parent)
        if node is None:
            r = kids.pop()
            l = kids[-1]
            parent[l] = parent[r] = v
            left.append(l)
            right.append(r)
            labels.append(None)
            kids[-1] = v
        else:
            left.append(-1)
            right.append(-1)
            labels.append(node.label)
            kids.append(v)
        parent.append(-1)
    return RootedBinaryTree(parent, left, right, labels)


def _relink(node, new, root):
    """Hang ``new`` where ``node`` hangs; returns the (new) root."""
    up = node.parent
    new.parent = up
    if up is None:
        return new
    if up.left is node:
        up.left = new
    else:
        up.right = new
    return root


def _grow(node, by):
    """Add ``by`` to the size of every proper ancestor of ``node``."""
    node = node.parent
    while node is not None:
        node.size += by
        node = node.parent


def _splice_above(host, graft, root):
    """Insert a new joint above ``host`` adopting ``graft`` as sibling.

    Sizes above the joint are left to the caller.
    """
    joint = _Bud()
    joint.left = host
    joint.right = graft
    joint.size = host.size + graft.size + 1
    root = _relink(host, joint, root)
    host.parent = joint
    graft.parent = joint
    return root


def _uniform_bud(labels, rng):
    """Uniform rooted binary topology via random sequential insertion.

    Each new leaf attaches at one of the 2i-1 slots of the current
    i-leaf tree (one per node, counting the slot above the root), which
    makes every shape equally likely.  Subtree sizes are set in one
    pass at the end.
    """
    nodes = [_Bud(labels[0])]
    root = nodes[0]
    for lab in labels[1:]:
        leaf = _Bud(lab)
        host = nodes[rng.randrange(len(nodes))]
        root = _splice_above(host, leaf, root)
        nodes.append(host.parent)
        nodes.append(leaf)
    order = [root]  # parents before children
    for node in order:
        if node.label is None:
            order.append(node.left)
            order.append(node.right)
    for node in reversed(order):
        if node.label is None:
            node.size = node.left.size + node.right.size + 1
    return root


def _post_order_at(root, i):
    """Node at index ``i`` of the tree's left-to-right post-order.

    That is the node numbering ``_bud_tree`` gives; the walk goes down
    from the root by subtree sizes.
    """
    node = root
    while i != node.size - 1:
        below = node.left.size
        if i < below:
            node = node.left
        else:
            i -= below
            node = node.right
    return node


def _pre_order_at(root, i):
    """Node at index ``i`` of the tree's pre-order, right child first."""
    node = root
    while i:
        i -= 1
        below = node.right.size
        if i < below:
            node = node.right
        else:
            i -= below
            node = node.left
    return node


def _spr_once(root, rng):
    """One subtree prune and regraft, in place; returns the new root.

    The pruned subtree is drawn by its left-to-right post-order index
    (the root excluded) and the regraft point by its right-first
    pre-order index in the pruned tree.  Returns None and leaves the
    tree as it was when the pruned subtree would go back onto its
    former sibling: in a rooted binary tree with distinct labels that
    is the only move that gives back the same topology.
    """
    moving = _post_order_at(root, rng.randrange(root.size - 1))
    gone = moving.parent
    sib = gone.left if gone.right is moving else gone.right
    cut = moving.size + 1
    _grow(gone, -cut)
    root = _relink(gone, sib, root)
    host = _pre_order_at(root, rng.randrange(root.size))
    if host is sib:
        _relink(sib, gone, root)
        sib.parent = gone
        _grow(gone, cut)
        return None
    root = _splice_above(host, moving, root)
    _grow(moving.parent, cut)
    return root


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
    ``random.Random(seed)`` (Mersenne Twister).  Each tree goes from its
    nodes straight to post-order arrays (``_bud_tree``); no Newick text
    is written or read.
    """
    if n < 2:
        raise ValueError("need at least 2 leaves, got %d" % n)
    width = len(str(n))
    labels = ["L%0*d" % (width, i + 1) for i in range(n)]
    rng = random.Random(seed)
    if mode == "uniform":
        t1 = _bud_tree(_uniform_bud(labels, rng))
        t2 = _bud_tree(_uniform_bud(labels, rng))
    elif mode == "k_rspr":
        if k is None or k < 0:
            raise ValueError("k_rspr mode needs k >= 0")
        if k >= n:
            raise ValueError("k must stay below the leaf count")
        root = _uniform_bud(labels, rng)
        t1 = _bud_tree(root)
        for _ in range(k):
            for _attempt in range(_SPR_ATTEMPTS):
                moved = _spr_once(root, rng)
                if moved is not None:
                    root = moved
                    break
        t2 = _bud_tree(root)
    else:
        raise ValueError("unknown mode %r" % mode)
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
        """Check the approximation and certificate inequalities."""
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
            if self.value > 2 * self.exact:
                raise InvariantError(
                    "%s: value %d exceeds twice the optimum %d"
                    % (self.instance, self.value, self.exact))
        return True

    def as_dict(self):
        return {
            "instance": self.instance,
            "value": self.value,
            "dual": self.dual,
            "exact": self.exact,
            "ratio_exact": self.ratio_exact,
            "ratio_half": self.ratio_half,
            "timings": dict(self.timings),
        }


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
    want_exact = args.n <= args.exact_cap
    verify = want_exact and args.n <= VERIFY_CAP
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
