"""Workloads of the rbmaf benchmark and the operations run on them.

A workload is a fixed, seeded set of instances, each a pair of Newick
texts made by ``random_pair`` and ``to_newick`` (the ``rbmaf gen``
path).  Instance ``j`` of a run with ``--seed s`` uses generator seed
``SEED_STRIDE * s + j``.  The solver sees only the Newick text: every
operation starts by parsing it, as the matching ``rbmaf`` command does.

Operations (paths):

* ``solve``: parse, pair, ``run``, then ``to_json_dict`` and
  ``certificate_dict`` rendered as JSON (``rbmaf solve --json``);
* ``check_dual``: ``run`` with ``verify_dual_feasibility`` after every
  iteration and once more at the end (``rbmaf check-dual``);
* ``exact``: the ``exact_maf`` oracle (``rbmaf exact``);
* ``emit_lp``: build the exponential, compact and Wu models and render
  each to LP text in memory (``rbmaf emit-lp``).

Every later pass must reproduce the first pass's outputs exactly; the
first outputs are checked in full after the timed passes, so that the
checks add nothing to the time or the peak memory measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from rbmaf import (
    cli_runner,
    dual_certificate,
    forest_partition,
    lp_toolkit,
    redblue_core,
    tree_model,
)

from tracing import SETUP_PREFIX

SEED_STRIDE = 1000

PATHS = ("solve", "check_dual", "exact", "emit_lp")

LP_BUILDERS = ("build_exponential_lp", "build_compact_lp", "build_wu_ilp")


@dataclass(frozen=True)
class Workload:
    """Instance family, sizes and the paths run on every instance.

    ``family`` is ``uniform`` (independent uniform pairs), ``k_rspr``
    (the second tree ``k`` prune and regraft moves from the first) or
    ``mixed`` (alternating the two as ``rbmaf fuzz`` does, with
    ``k = 1 + j % (n - 2)``).
    """

    name: str
    family: str
    sizes: tuple
    paths: tuple
    setup_reps: int
    k: int | None = None
    add_rho: bool = False

    def plan(self, seed):
        """(name, n, generator seed, mode, k) for every instance."""
        out = []
        for j, n in enumerate(self.sizes):
            lib_seed = SEED_STRIDE * seed + j
            if self.family == "uniform" or (self.family == "mixed" and j % 2 == 0):
                out.append(("u-n%d-s%d" % (n, lib_seed), n, lib_seed, "uniform", None))
            else:
                k = self.k if self.k is not None else 1 + j % max(1, n - 2)
                out.append(("r%d-n%d-s%d" % (k, n, lib_seed), n, lib_seed, "k_rspr", k))
        return out


WORKLOADS = {
    "uniform": Workload("uniform", "uniform", (1000, 1200), ("solve",), 9),
    "near": Workload("near", "k_rspr", (1000,) * 8, ("solve",), 3,
                     k=20, add_rho=True),
    "verify": Workload("verify", "mixed", (10,) * 200, PATHS, 5),
}


@dataclass(frozen=True)
class Instance:
    name: str
    newick1: str
    newick2: str


def make_instances(workload, seed, probe, tracer=None):
    """Generate and serialize the workload's instances for one seed.

    Returns the instances, the seconds spent on them scaled to the
    reference speed, and the raw wall seconds, both timed with
    ``probe`` (a :class:`calibrate.SpeedProbe`).
    """
    out = []
    spent = 0.0
    since = len(probe.samples)
    for j, (name, n, lib_seed, mode, k) in enumerate(workload.plan(seed)):
        if tracer is not None:
            tracer.instance = SETUP_PREFIX + str(j)
        start = probe.clock()
        pair = cli_runner.random_pair(n, lib_seed, mode=mode, k=k)
        out.append(Instance(name, pair.t1.to_newick(), pair.t2.to_newick()))
        spent += probe.clock() - start
    return out, spent * probe.factor(since), spent


def fingerprint(instances):
    """SHA-256 over every instance's name and Newick texts."""
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(("%s\t%s\t%s\n" % (inst.name, inst.newick1, inst.newick2))
                      .encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# operations; library names are looked up at call time so that traced
# runs see the wrappers


def _pair(inst, add_rho):
    return tree_model.pair_from_newick(inst.newick1, inst.newick2, add_rho=add_rho)


def solve(inst, add_rho):
    pair = _pair(inst, add_rho)
    result = redblue_core.run(pair)
    payload = result.partition.to_json_dict()
    payload.update({
        "value": result.value,
        "dual": result.dual_objective,
        "ratio_bound": result.ratio_bound,
        "pairs": [[pair.labels[a], pair.labels[b]] for a, b in result.pairslist],
        "iterations": len(result.iterations),
        "certificate": cli_runner.certificate_dict(result),
    })
    return result, payload, json.dumps(payload, indent=2, sort_keys=True)


def check_dual(inst, add_rho):
    pair = _pair(inst, add_rho)
    seen = [0]

    def inspect(partition, dual, record):
        dual_certificate.verify_dual_feasibility(pair, dual, partition)
        seen[0] += 1

    result = redblue_core.run(pair, on_iteration=inspect)
    dual_certificate.verify_dual_feasibility(pair, result.dual, result.partition)
    return result, seen[0]


def exact(inst, add_rho):
    return cli_runner.exact_maf(_pair(inst, add_rho))


def emit_lp(inst, add_rho):
    pair = _pair(inst, add_rho)
    models = [getattr(lp_toolkit, name)(pair) for name in LP_BUILDERS]
    return models, [lp_toolkit.render_lp_text(model) for model in models]


OPERATIONS = {"solve": solve, "check_dual": check_dual, "exact": exact,
              "emit_lp": emit_lp}


def _summary(path, output):
    """(signature, kept): an exact cheap summary compared across passes,
    and what the full check after the timed passes needs."""
    if path == "solve":
        result, payload, text = output
        kept = {key: payload[key] for key in
                ("value", "dual", "n_components", "components", "iterations")}
        kept["certificate_D"] = payload["certificate"]["D"]
        return (len(text), hash(text)), kept
    if path == "check_dual":
        result, seen = output
        summary = (result.value, result.dual_objective, seen)
        return summary, summary
    if path == "exact":
        return output, output
    models, texts = output
    complete = all(text.startswith("\\ Problem: %s\n" % model.name) and text.endswith("End\n")
                   for model, text in zip(models, texts))
    signature = tuple((len(text), hash(text)) for text in texts)
    return signature, (complete, signature[0])


class Runner:
    """Closed loop over one workload's instances, one operation at a time.

    Counts attempted and failed operations.  An operation fails when it
    raises, when its output differs from the same operation's output in
    the first pass, or when that first output fails the full check that
    ``check`` runs after the timed passes.  Operations are timed with
    ``probe`` (a :class:`calibrate.SpeedProbe`).  ``tracer``, when set,
    has ``instance`` set before every operation and receives the
    iteration and cut counts of every solver run.
    """

    def __init__(self, workload, instances, probe):
        self.workload = workload
        self.instances = instances
        self.probe = probe
        self.tracer = None
        self.attempted = 0
        self.failures = []
        self.first = {}
        self.solved = {}
        self.latencies = {path: [] for path in PATHS}

    def one_pass(self):
        """Run every path on every instance.

        Returns per-path seconds scaled to the reference speed, and the
        raw wall seconds of the pass's operations.
        """
        raw = dict.fromkeys(PATHS, 0.0)
        since = len(self.probe.samples)
        times = []
        for j, inst in enumerate(self.instances):
            for path in self.workload.paths:
                elapsed = self._attempt(path, j, inst)
                raw[path] += elapsed
                times.append((path, elapsed))
        factor = self.probe.factor(since)
        for path, elapsed in times:
            self.latencies[path].append(elapsed * factor)
        return {path: seconds * factor for path, seconds in raw.items()}, sum(raw.values())

    def _attempt(self, path, j, inst):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.instance = j
        start = self.probe.clock()
        try:
            output = OPERATIONS[path](inst, self.workload.add_rho)
        except Exception as error:  # a raising operation is a failed one
            self._fail(path, j, "%s: %s" % (type(error).__name__, error))
            return self.probe.clock() - start
        elapsed = self.probe.clock() - start
        if self.tracer is not None and path in ("solve", "check_dual"):
            iterations = output[0].iterations
            self.tracer.add("redblue_core.iterations", len(iterations))
            self.tracer.add("redblue_core.cuts", sum(r.n_stars for r in iterations))
        signature, kept = _summary(path, output)
        first = self.first.setdefault((path, j), (signature, kept))
        if first[0] != signature:
            self._fail(path, j, "output differs from the first pass's output")
        return elapsed

    def _fail(self, path, j, message):
        self.failures.append("%s %s: %s" % (path, self.instances[j].name, message))

    def check(self):
        """Check every operation's first output in full."""
        for j, inst in enumerate(self.instances):
            for path in self.workload.paths:
                if (path, j) not in self.first:
                    continue
                try:
                    problem = getattr(self, "_check_" + path)(j, inst, self.first[(path, j)][1])
                except Exception as error:  # a check that raises rejects the output
                    problem = "check raised %s: %s" % (type(error).__name__, error)
                if problem:
                    self._fail(path, j, problem)

    def _check_solve(self, j, inst, kept):
        pair = _pair(inst, self.workload.add_rho)
        value, dual = kept["value"], kept["dual"]
        if not 0 <= dual <= value <= 2 * dual:
            return "value %d outside [D, 2D] for D = %d" % (value, dual)
        if kept["certificate_D"] != dual:
            return "certificate D differs from the reported lower bound"
        comps = kept["components"]
        if kept["n_components"] != len(comps) or len(comps) != value + 1:
            return "value %d does not match %d components" % (value, len(comps))
        if sorted(label for comp in comps for label in comp) != pair.labels:
            return "components do not partition the leaf labels"
        blocks = [[pair.index_of[label] for label in comp] for comp in comps]
        if not forest_partition.is_feasible_maf(pair, blocks):
            return "components are not an agreement forest"
        self.solved[j] = (value, dual, kept["iterations"], comps)
        return None

    def _check_check_dual(self, j, inst, kept):
        if j not in self.solved:
            return "no checked solve to compare with"
        if kept != self.solved[j][:3]:
            return "check-dual run disagrees with solve"
        return None

    def _check_exact(self, j, inst, kept):
        if j not in self.solved:
            return "no checked solve to compare with"
        value, dual = self.solved[j][:2]
        if not dual <= kept <= value:
            return "optimum %d outside [D, value] = [%d, %d]" % (kept, dual, value)
        return None

    def _check_emit_lp(self, j, inst, kept):
        if j not in self.solved:
            return "no checked solve to compare with"
        complete, exp_signature = kept
        if not complete:
            return "LP text is truncated"
        # The solver's forest, one variable per block, is a point of the
        # exponential LP whose objective is the forest's value.
        model = lp_toolkit.build_exponential_lp(_pair(inst, self.workload.add_rho))
        text = lp_toolkit.render_lp_text(model)
        if (len(text), hash(text)) != exp_signature:
            return "exponential LP differs from the emitted one"
        value, comps = self.solved[j][0], self.solved[j][3]
        point = {"x_L_" + ".".join(comp): 1.0 for comp in comps}
        ok, violations = lp_toolkit.check_feasible_point(model, point)
        if not ok:
            return "forest violates the exponential LP: %s" % violations[0]
        if model.objective_value(point) != value:
            return "exponential LP objective of the forest is not its value"
        return None

    def totals(self):
        """Sums of value and D over the instances whose solve was checked."""
        values = [s[0] for s in self.solved.values()]
        duals = [s[1] for s in self.solved.values()]
        return sum(values), sum(duals)
