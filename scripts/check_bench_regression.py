#!/usr/bin/env python3
"""Gate CI on the benchmark snapshots staying healthy.

Compares a freshly produced BENCH_*.json against its committed baseline
(bench/BASELINE_*.json). The snapshot's "bench" field selects the gate:

oracle_calls_accel (bench_oracle_calls):
  * Every configuration row's deterministic counters must match the
    baseline exactly: the corpus is seeded, so logical calls, inference
    runs, verdict-cache hits and misses, and the incremental/full split
    are hardware-independent. Logical-call drift means search behavior
    changed; inference-count drift means an acceleration layer now does
    more (or less) work for the same search.
  * No configuration may diverge from its in-run unaccelerated baseline
    (suggestion and call-count mismatches pinned to zero).
  * Wall-clock is not gated: the accelerated/unaccelerated ratio moves
    with every speed-up of full inference and with machine load, so it
    failed on unchanged code; the inference counts above carry the
    acceleration contract instead.

micro_allocs (bench_micro --json):
  * Each scenario's allocation count (the candidate waves through the
    searcher's serial typechecks path, and one whole search, counted by
    the operator-new interposer) must stay under its ceiling. The counts
    are deterministic for a given libstdc++, but not across toolchains,
    so the ceiling is 1.25x the baseline rather than exact equality:
    enough slack for container implementation drift, tight enough to
    catch reintroduced per-candidate clone traffic.

slice_ablation (bench_slice_ablation):
  * slice-guided must have produced byte-identical suggestion lists to
    slice-ranked on every file (pruning soundness).
  * All deterministic call counters (logical / issued / pruned per
    configuration) must match the baseline exactly.
  * The slice-guided oracle-call reduction must stay at or above the
    driver's floor (min_reduction_pct, currently 25%): the slice has to
    keep paying for itself.

obs (bench_obs):
  * The profiler's priced overhead (per-primitive micro-costs times the
    measured spans-per-check of the warm workload, over the
    registry-only CPU per check -- all within-run, so hardware cancels)
    must stay within the DESIGN.md section 16 budget: <=1% with the
    hooks compiled but idle, <=3% sampling at the default 99 Hz with
    exact phase-CPU stamping.

The quality-telemetry snapshot ("bench": "telemetry") has its own gate,
scripts/compare_telemetry.py; both scripts share scripts/gate_common.py
and its exit-code protocol: 0 = healthy, 1 = regression, 2 = bad
invocation/inputs.
"""

import sys

from gate_common import (check_exact, check_floor, finish, load_snapshot,
                         make_parser, require_kind, require_same_identity)

def config_rows(failures, base, fresh):
    """Pairs up the per-configuration rows, flagging set changes."""
    base_rows = {r["name"]: r for r in base["configs"]}
    fresh_rows = {r["name"]: r for r in fresh["configs"]}
    if set(base_rows) != set(fresh_rows):
        failures.append(
            f"configuration set changed: {sorted(base_rows)} vs "
            f"{sorted(fresh_rows)}")
    return [(name, base_rows[name], fresh_rows[name])
            for name in sorted(set(base_rows) & set(fresh_rows))]


def check_oracle_calls(base, fresh):
    failures = []
    for name, b, f in config_rows(failures, base, fresh):
        check_exact(failures, f"[{name}] logical_calls",
                    f["logical_calls"], b["logical_calls"],
                    "search behavior changed")
        for key in ("inference_runs", "cache_hits", "cache_misses",
                    "incremental", "full"):
            check_exact(failures, f"[{name}] {key}", f.get(key), b[key],
                        "acceleration work changed; re-base deliberately")
        if f["suggestion_mismatches"] != 0 or f["call_count_mismatches"] != 0:
            failures.append(
                f"[{name}] diverged from its in-run baseline: "
                f"{f['suggestion_mismatches']} suggestion / "
                f"{f['call_count_mismatches']} call-count mismatches")
        print(f"[{name}] logical {f['logical_calls']}, inference "
              f"{f.get('inference_runs')} ({f.get('incremental')} "
              f"incremental + {f.get('full')} full)")
    return failures


ALLOC_COUNT_TOLERANCE = 1.25  # per-scenario alloc-count drift allowance


def check_micro_allocs(base, fresh):
    failures = []
    base_rows = {r["name"]: r for r in base["scenarios"]}
    fresh_rows = {r["name"]: r for r in fresh["scenarios"]}
    if set(base_rows) != set(fresh_rows):
        failures.append(
            f"scenario set changed: {sorted(base_rows)} vs "
            f"{sorted(fresh_rows)}")
    check_exact(failures, "waves", fresh.get("waves"), base.get("waves"),
                "scenario shape changed; refresh the baseline deliberately")

    for name in sorted(set(base_rows) & set(fresh_rows)):
        ceiling = base_rows[name]["allocs"] * ALLOC_COUNT_TOLERANCE
        allocs = fresh_rows[name]["allocs"]
        if allocs > ceiling:
            failures.append(
                f"[{name}] allocs {allocs} exceeds {ceiling:.0f} "
                f"({ALLOC_COUNT_TOLERANCE}x baseline "
                f"{base_rows[name]['allocs']})")
        print(f"[{name}] allocs {allocs} (ceiling {ceiling:.0f})")
    return failures


def check_slice_ablation(base, fresh):
    failures = []
    for name, b, f in config_rows(failures, base, fresh):
        for key in ("logical_calls", "issued_calls", "pruned_calls",
                    "files_sliced"):
            check_exact(failures, f"[{name}] {key}", f[key], b[key],
                        "slice or search behavior changed")
        if f["suggestion_mismatches"] != 0:
            failures.append(
                f"[{name}] {f['suggestion_mismatches']} suggestion "
                f"mismatches vs slice-ranked -- pruning is unsound")

    floor = fresh.get("min_reduction_pct", base.get("min_reduction_pct",
                                                    25.0))
    reduction = fresh.get("reduction_pct", 0.0)
    check_floor(failures, "slice-guided reduction_pct", reduction, floor)
    print(f"baseline reduction {base.get('reduction_pct', 0.0):.1f}%, fresh "
          f"{reduction:.1f}% (floor {floor:.0f}%)")
    return failures


PROFILER_OFF_MAX_PCT = 1.0   # hooks compiled in, profiler not running
PROFILER_99HZ_MAX_PCT = 3.0  # sampler at the default 99 Hz + CPU stamps


def check_obs(base, fresh):
    """Observability overhead budgets (bench_obs). Gates the *priced*
    profiler overheads -- per-primitive micro-costs times the measured
    spans-per-check, against the registry-only CPU per check -- because
    the DESIGN.md section 16 budgets (1% / 3%) sit below the end-to-end
    noise floor of a ~1ms workload on shared runners. The end-to-end
    config rows are still checked for set drift so a silently dropped
    measurement cannot pass."""
    failures = []
    config_rows(failures, base, fresh)  # flags config-set drift
    for key, ceiling in (("profiler_off_overhead_pct",
                          PROFILER_OFF_MAX_PCT),
                         ("profiler_99hz_overhead_pct",
                          PROFILER_99HZ_MAX_PCT)):
        pct = fresh.get(key)
        if pct is None:
            failures.append(f"snapshot is missing {key}")
            continue
        if pct > ceiling:
            failures.append(
                f"{key} = {pct:.3f}% exceeds the {ceiling:.0f}% budget")
        print(f"{key}: {pct:+.3f}% (budget {ceiling:.0f}%)")
    return failures


GATES = {
    "oracle_calls_accel": check_oracle_calls,
    "micro_allocs": check_micro_allocs,
    "slice_ablation": check_slice_ablation,
    "obs": check_obs,
}


def main():
    parser = make_parser(
        description=__doc__,
        epilog="examples:\n"
               "  check_bench_regression.py bench/BASELINE_oracle_calls.json"
               " BENCH_oracle_calls.json\n"
               "  check_bench_regression.py "
               "bench/BASELINE_slice_ablation.json "
               "BENCH_slice_ablation.json\n")
    args = parser.parse_args()

    base = load_snapshot(args.baseline)
    fresh = load_snapshot(args.fresh)

    kind = require_kind(base, args.baseline, GATES)
    if fresh.get("bench") != kind:
        print(f"error: {args.fresh} is a {fresh.get('bench')!r} snapshot, "
              f"baseline is {kind!r}", file=sys.stderr)
        sys.exit(2)
    require_same_identity(base, fresh)

    finish(GATES[kind](base, fresh), "bench regression gate")


if __name__ == "__main__":
    main()
