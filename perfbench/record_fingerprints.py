"""Record, per workload and seed, the SHA-256 of the generated Newick
text and the solver's value and D totals on it.

Run from the repository root::

    python3 perfbench/record_fingerprints.py

Writes ``perfbench/fingerprints.json`` afresh for seeds 0-49 and the
held-out seed.  ``run.py`` fails a run on a recorded seed whose
generated text differs from the recorded hash, whose ``value_total`` is
above or whose ``dual_total`` is below the recorded one.  So seeded
instances stay byte-identical across generator rewrites, and a speed-up
cannot buy a worse forest or a weaker certificate on those seeds.
Re-record only when a change to the instances or to the solver's
answers is intended.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import calibrate
import run

SEEDS = range(50)


def main():
    run.import_rbmaf()
    import workloads as work

    meta = run.load_json(run.BENCH_DIR / "meta.json")
    probe = calibrate.SpeedProbe()
    recorded = {}
    for name, workload in work.WORKLOADS.items():
        solve_only = dataclasses.replace(workload, paths=("solve",))
        table = recorded[name] = {}
        for seed in [*SEEDS, meta["held_out_seed"]]:
            instances = work.make_instances(workload, seed, probe)[0]
            runner = work.Runner(solve_only, instances, probe)
            runner.one_pass()
            runner.check()
            if runner.failures:
                raise SystemExit("%s seed %d: %s" % (name, seed, runner.failures[0]))
            value_total, dual_total = runner.totals()
            table[str(seed)] = {"text_sha256": work.fingerprint(instances),
                                "value_total": value_total, "dual_total": dual_total}
            print(name, seed, json.dumps(table[str(seed)]), flush=True)
    with open(run.BENCH_DIR / "fingerprints.json", "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
