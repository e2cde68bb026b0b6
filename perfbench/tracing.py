"""Per-layer tracing of rbmaf from outside the package.

A :class:`Tracer` replaces public functions and methods of the six rbmaf
modules with thin wrappers, each installed under the name its caller
looks up at call time (module globals, class attributes).  A wrapper
records one span per call: name, start, end, parent span, instance id
and an optional numeric note (nodes swept, pairs found, sets
enumerated, rows rendered).  ``tree_model.lca`` is only counted, as a
span per call would cost more than the call itself.  Spans stay in
memory until :func:`write_spans`; :meth:`Tracer.uninstall` puts every
original back.
"""

from __future__ import annotations

import json
from collections import Counter


def _nodes_swept(args, result):
    return args[0].pair.t2.n_nodes


def _pair_found(args, result):
    return 0 if result is None else 1


def _sets_enumerated(args, result):
    return len(result)


def _rows_rendered(args, result):
    return len(args[0].constraints)


# (module, attribute path, span name, note).  Methods are wrapped on their
# class, so every instance sees the wrapper; parse_newick is wrapped in
# both modules that call it.
SPAN_TARGETS = (
    ("tree_model", "parse_newick", "tree_model.parse_newick", None),
    ("cli_runner", "parse_newick", "tree_model.parse_newick", None),
    ("tree_model", "RootedBinaryTree.__init__", "tree_model.RootedBinaryTree", None),
    ("tree_model", "TreePair.__init__", "tree_model.TreePair", None),
    ("forest_partition", "Partition.refresh_annotations",
     "forest_partition.refresh_annotations", _nodes_swept),
    ("forest_partition", "Partition.split_below", "forest_partition.split_below", None),
    ("forest_partition", "Partition.split_component",
     "forest_partition.split_component", None),
    ("forest_partition", "Partition.canonicalize_cuts",
     "forest_partition.canonicalize_cuts", None),
    ("redblue_core", "find_lowest_pcs", "redblue_core.find_lowest_pcs", None),
    ("redblue_core", "make_coloring", "redblue_core.make_coloring", None),
    ("redblue_core", "classify_case", "redblue_core.classify_case", None),
    ("redblue_core", "make_rb_compatible", "redblue_core.make_rb_compatible", None),
    ("redblue_core", "make_splittable", "redblue_core.make_splittable", None),
    ("redblue_core", "split", "redblue_core.split", None),
    ("redblue_core", "find_merge_pair", "redblue_core.find_merge_pair", _pair_found),
    ("redblue_core", "merge_components", "redblue_core.merge_components", None),
    ("dual_certificate", "verify_dual_feasibility",
     "dual_certificate.verify_dual_feasibility", None),
    ("lp_toolkit", "enumerate_compatible_sets",
     "lp_toolkit.enumerate_compatible_sets", _sets_enumerated),
    ("lp_toolkit", "build_exponential_lp", "lp_toolkit.build_exponential_lp", None),
    ("lp_toolkit", "build_compact_lp", "lp_toolkit.build_compact_lp", None),
    ("lp_toolkit", "build_wu_ilp", "lp_toolkit.build_wu_ilp", None),
    ("lp_toolkit", "render_lp_text", "lp_toolkit.render_lp_text", _rows_rendered),
    ("cli_runner", "random_pair", "cli_runner.random_pair", None),
    ("cli_runner", "exact_maf", "cli_runner.exact_maf", None),
)

COUNT_TARGETS = (
    ("tree_model", "RootedBinaryTree.lca", "tree_model.lca.calls"),
)

# Metrics derived from span notes: span name -> metric name.
NOTE_METRICS = {
    "forest_partition.refresh_annotations": "forest_partition.refresh_annotations.nodes",
    "lp_toolkit.enumerate_compatible_sets": "lp_toolkit.enumerate_compatible_sets.sets",
    "lp_toolkit.render_lp_text": "lp_toolkit.rows",
}

# Spans whose instance id has this prefix belong to instance generation.
SETUP_PREFIX = "gen-"


def _owner_and_name(modules, module, attr):
    owner = modules[module]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span and count recorder for one benchmark process.

    ``clock`` gives span start and end times.  ``instance`` is stamped on every span opened while it is set; the
    benchmark sets it before each operation.  ``spans`` holds
    ``[name, start, end, parent, instance, note]`` lists in call order,
    so a span's index is its id.
    """

    def __init__(self, modules, clock):
        self.modules = modules
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.instance = None
        self._stack = []
        self._installed = []
        self._originals = {}

    # ------------------------------------------------------------------
    # patching

    def install(self):
        for module, attr, name, note in SPAN_TARGETS:
            self._patch(module, attr, self._span_wrapper(name, note))
        for module, attr, name in COUNT_TARGETS:
            self._patch(module, attr, self._count_wrapper(name))

    def _patch(self, module, attr, make_wrapper):
        owner, key = _owner_and_name(self.modules, module, attr)
        original = owner.__dict__[key]
        self._originals.setdefault((module, attr), original)
        setattr(owner, key, make_wrapper(original))
        self._installed.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def leftover_wrappers(self):
        """Patched names that do not hold their original object."""
        out = []
        for (module, attr), original in self._originals.items():
            owner, key = _owner_and_name(self.modules, module, attr)
            if owner.__dict__[key] is not original:
                out.append("%s.%s" % (module, attr))
        return out

    def _span_wrapper(self, name, note):
        spans = self.spans
        stack = self._stack
        clock = self.clock
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                record = [name, clock(), 0.0, stack[-1] if stack else -1,
                          tracer.instance, 0]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if note is not None:
                    record[5] = note(args, result)
                return result
            traced.__wrapped__ = fn
            return traced
        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            counted.__wrapped__ = fn
            return counted
        return make

    # ------------------------------------------------------------------
    # results

    def reset(self):
        """Forget spans and counts; the wrappers stay as they are."""
        del self.spans[:]
        self.counts.clear()

    def add(self, name, amount):
        self.counts[name] += amount

    def metrics(self):
        """Per-layer metrics of everything recorded since the last reset.

        Spans opened while generating instances only feed the
        ``cli_runner.random_pair`` metrics; all others describe the
        solve, check, exact and emit paths.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, instance, note in spans:
            if parent >= 0:
                child[parent] += end - start
        agg = {}
        gen_parses = 0
        for i, (name, start, end, parent, instance, note) in enumerate(spans):
            setup = isinstance(instance, str) and instance.startswith(SETUP_PREFIX)
            if setup:
                if name == "tree_model.parse_newick":
                    gen_parses += 1
                if name != "cli_runner.random_pair":
                    continue
            elif name == "cli_runner.random_pair":
                continue
            row = agg.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += note
        out = {}
        for name in dict.fromkeys(target[2] for target in SPAN_TARGETS):
            calls, total, own, noted = agg.get(name, (0, 0.0, 0.0, 0))
            out[name + ".calls"] = calls
            out[name + ".s"] = total
            out[name + ".self_s"] = own
            if name in NOTE_METRICS:
                out[NOTE_METRICS[name]] = noted
        calls = out["redblue_core.find_merge_pair.calls"]
        found = agg.get("redblue_core.find_merge_pair", (0, 0, 0, 0))[3]
        out["redblue_core.find_merge_pair.hit_ratio"] = found / calls if calls else 0.0
        out["cli_runner.random_pair.parse_newick_calls"] = gen_parses
        for name, value in self.counts.items():
            out[name] = value
        for module, attr, name in COUNT_TARGETS:
            out.setdefault(name, 0)
        return out


def write_spans(segments, origin, path):
    """Write span lists one after another as JSON lines.

    Each segment numbers its spans from zero; ids and parents are
    shifted so they stay unique in the file.  Times are seconds since
    ``origin``.
    """
    offset = 0
    with open(path, "w", encoding="utf-8") as handle:
        for spans in segments:
            for i, (name, start, end, parent, instance, note) in enumerate(spans):
                handle.write(json.dumps({
                    "id": offset + i, "name": name, "start": start - origin,
                    "end": end - origin,
                    "parent": parent + offset if parent >= 0 else -1,
                    "instance": instance, "note": note,
                }) + "\n")
            offset += len(spans)
