#!/usr/bin/env python3
"""Gate CI on the UCP-solver numbers in bench_perf_summary's JSON output.

Usage: check_bench_regression.py FRESH_JSON BASELINE_JSON

Compares a freshly-emitted BENCH_pr.json against the checked-in baseline
and fails (exit 1) on:
  * any cover-cost difference on the ucp_bnb corpus (the solver is exact:
    costs are machine-independent and must match to 1e-6);
  * any node-count increase on any instance (node counts are deterministic;
    growth means the bounds or reductions got weaker), and any change of
    the ucp_bnb legacy_nodes, the pinned v1 reference tree;
  * a wall-clock regression beyond 20%, measured machine-independently as
    the v2/legacy wall RATIO per instance (both sides of the ratio come
    from the same run on the same machine, so CI hardware drops out);
  * a WAN end-to-end total-cost change (determinism canary);
  * drift in the registry-derived "metrics" totals: the event counts
    (synthesize runs, UCP solves, subsets examined, engine applies) are
    exact-match canaries for the fixed bench workload, total UCP nodes
    must never grow, and the whole-run pricing-cache hit rate must not
    drop;
  * drift in the "profile" section's per-(scope, span-name) event COUNTS:
    the section is built from one scoped serial synthesize, so the set of
    (scope, name) rows and each row's count are machine-independent; the
    *_us timings and latency buckets are machine noise and are ignored;
  * drift in the "partitioned_scaling" section: the 1k-arc geo-WAN
    generator fingerprint, cluster/boundary shape, and stitched cost are
    machine-independent and must match exactly; the optimality gap must
    stay within the 10% acceptance bound; thread-count determinism and
    the exact-path timeout-or-10x flags must hold (both also enforced
    inside bench_perf_summary itself);
  * a WAN thread-sweep slowdown -- the best multi-threaded wall must not
    lose to the serial wall by more than 10% -- asserted ONLY when the
    fresh run's host has more than one hardware thread (on the 1-core CI
    container the sweep is pure oversubscription and proves nothing);
  * drift in the "cover_solver_matrix" section: every backend's cover cost
    (1e-6) and proven optimality per instance, and no per-backend
    node-count growth;
  * drift in the "parallel_bnb" section: rounds-engine cost (1e-6) and
    explored-node count (no growth) against the baseline, plus the
    rounds_threads_identical flag, which must hold on every run.

Absolute wall-clock milliseconds are intentionally NOT compared: the
baseline was recorded on a different machine than CI runs on.
"""
import json
import sys


def fail(msgs):
    for m in msgs:
        print(f"REGRESSION: {m}", file=sys.stderr)
    sys.exit(1)


def wall_ratio(entry):
    """v2 wall over legacy wall; None when the instance is too fast to time
    reliably (sub-millisecond legacy solves are all noise)."""
    legacy = entry.get("legacy_wall_ms", 0.0)
    if legacy < 1.0:
        return None
    return entry["wall_ms"] / legacy


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        fresh = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)

    errors = []

    fresh_ucp = {(e["rows"], e["cols"]): e for e in fresh["ucp_bnb"]}
    base_ucp = {(e["rows"], e["cols"]): e for e in base["ucp_bnb"]}
    for key, b in base_ucp.items():
        e = fresh_ucp.get(key)
        if e is None:
            errors.append(f"ucp_bnb instance {key} missing from fresh run")
            continue
        if "cost" in b and abs(e["cost"] - b["cost"]) > 1e-6:
            errors.append(
                f"{key}: cover cost changed {b['cost']} -> {e['cost']} "
                "(exact solver must be cost-stable)"
            )
        if e["nodes_explored"] > b["nodes_explored"]:
            errors.append(
                f"{key}: nodes_explored grew "
                f"{b['nodes_explored']} -> {e['nodes_explored']}"
            )
        if "legacy_nodes" in b and e.get("legacy_nodes") != b["legacy_nodes"]:
            errors.append(
                f"{key}: v1 reference tree changed, legacy_nodes "
                f"{b['legacy_nodes']} -> {e.get('legacy_nodes')}"
            )
        if not e.get("optimal", False):
            errors.append(f"{key}: solver no longer proves optimality")
        b_ratio = wall_ratio(b) if "legacy_wall_ms" in b else None
        e_ratio = wall_ratio(e)
        if b_ratio is not None and e_ratio is not None \
                and e_ratio > b_ratio * 1.2:
            errors.append(
                f"{key}: v2/legacy wall ratio regressed "
                f"{b_ratio:.4f} -> {e_ratio:.4f} (>20%)"
            )

    fresh_cost = fresh["wan_synthesis"]["total_cost"]
    base_cost = base["wan_synthesis"]["total_cost"]
    if abs(fresh_cost - base_cost) > 1e-6:
        errors.append(
            f"WAN synthesis total_cost changed {base_cost} -> {fresh_cost}"
        )

    # WAN thread-sweep scaling: only meaningful with real cores. On a
    # 1-core host (the CI container) every thread count is time-sliced
    # onto the same core and the comparison is noise, so it is skipped --
    # not faked.
    fresh_hw = fresh["wan_synthesis"].get(
        "hardware_threads", fresh.get("host", {}).get("hardware_threads", 0))
    sweep = fresh["wan_synthesis"].get("wall_ms_best_of_5", {})
    if fresh_hw > 1 and "threads_1" in sweep:
        t1 = sweep["threads_1"]
        multi = [v for k, v in sweep.items()
                 if k.startswith("threads_") and k != "threads_1"
                 and not k.endswith("_warm_cache")]
        if multi and min(multi) > t1 * 1.10:
            errors.append(
                f"WAN thread sweep does not scale on a {fresh_hw}-thread "
                f"host: best multi-threaded wall {min(multi):.3f}ms vs "
                f"serial {t1:.3f}ms (>10% slower)"
            )

    # Incremental edit replay: the speedup is a same-machine ratio like
    # the v2/legacy wall ratio, so it transfers across CI hardware. The
    # hard >= 5x floor is enforced inside bench_perf_summary itself; here
    # we additionally catch drift against the checked-in baseline.
    b_inc = base.get("incremental_replay")
    e_inc = fresh.get("incremental_replay")
    if b_inc is not None:
        if e_inc is None:
            errors.append("incremental_replay section missing from fresh run")
        else:
            if e_inc["speedup"] < 5.0:
                errors.append(
                    f"incremental replay speedup {e_inc['speedup']:.2f}x "
                    "below the 5x acceptance floor"
                )
            if e_inc["speedup"] < b_inc["speedup"] * 0.8:
                errors.append(
                    "incremental replay speedup regressed "
                    f"{b_inc['speedup']:.2f}x -> {e_inc['speedup']:.2f}x "
                    "(>20%)"
                )
            if e_inc["pricing_hit_rate"] < b_inc["pricing_hit_rate"] - 1e-9:
                errors.append(
                    "incremental pricing hit rate dropped "
                    f"{b_inc['pricing_hit_rate']} -> "
                    f"{e_inc['pricing_hit_rate']}"
                )

    # Registry-derived totals (the "metrics" section comes straight from the
    # support::MetricsRegistry delta across the bench run). All machine-
    # independent: event counts, not durations.
    b_m = base.get("metrics")
    e_m = fresh.get("metrics")
    if b_m is not None:
        if e_m is None:
            errors.append("metrics section missing from fresh run")
        else:
            for key in ("synth_runs", "ucp_solves", "subsets_examined",
                        "engine_applies"):
                if key in b_m and e_m.get(key) != b_m[key]:
                    errors.append(
                        f"metrics.{key} changed {b_m[key]} -> "
                        f"{e_m.get(key)} (fixed workload: counts are exact)"
                    )
            if e_m.get("ucp_nodes_total", 0) > b_m.get("ucp_nodes_total", 0):
                errors.append(
                    "metrics.ucp_nodes_total grew "
                    f"{b_m['ucp_nodes_total']} -> {e_m['ucp_nodes_total']} "
                    "(search got weaker)"
                )
            if e_m.get("cache_hit_rate", 0.0) \
                    < b_m.get("cache_hit_rate", 0.0) - 1e-9:
                errors.append(
                    "metrics.cache_hit_rate dropped "
                    f"{b_m['cache_hit_rate']} -> {e_m['cache_hit_rate']}"
                )
            # Robustness guards: the bench harness must run with fault
            # injection unarmed and journaling off, so both totals are
            # pinned at exactly zero (when the bench emits them at all).
            for key in ("fault_fires", "journal_appends"):
                if e_m.get(key, 0) != 0:
                    errors.append(
                        f"metrics.{key} = {e_m[key]} in the bench run "
                        "(fault injection / journaling must be off)"
                    )

    # In-process profiler over one scoped serial synthesize. Only the
    # (scope, name) -> count mapping is compared: span counts are exact for
    # the fixed serial workload, while every *_us field and the latency
    # buckets depend on machine speed and are ignored.
    b_prof = base.get("profile")
    e_prof = fresh.get("profile")
    if b_prof is not None:
        if e_prof is None:
            errors.append("profile section missing from fresh run")
        else:
            b_counts = {(e["scope"], e["name"]): e["count"]
                        for e in b_prof.get("entries", [])}
            e_counts = {(e["scope"], e["name"]): e["count"]
                        for e in e_prof.get("entries", [])}
            for key, count in sorted(b_counts.items()):
                if key not in e_counts:
                    errors.append(
                        f"profile row {key} missing from fresh run "
                        "(instrumentation site disappeared)"
                    )
                elif e_counts[key] != count:
                    errors.append(
                        f"profile row {key} count changed {count} -> "
                        f"{e_counts[key]} (fixed serial workload: span "
                        "counts are exact)"
                    )
            for key in sorted(set(e_counts) - set(b_counts)):
                errors.append(
                    f"profile row {key} appeared in the fresh run only "
                    "(new instrumentation site: refresh the baseline)"
                )

    # Partitioned-synthesis scaling gate. Costs here are stitched sums of
    # exact per-cluster covers on a fingerprint-pinned generator output, so
    # like the WAN canary they are machine-independent (compared with a
    # relative tolerance: the absolute magnitude is ~1e8). Wall-clock
    # fields (partitioned_wall_ms, exact_wall_ms) are intentionally NOT
    # compared; the machine-independent speedup evidence is the
    # exact_timeout_or_10x flag.
    b_p = base.get("partitioned_scaling")
    e_p = fresh.get("partitioned_scaling")
    if b_p is not None:
        if e_p is None:
            errors.append("partitioned_scaling section missing from fresh run")
        else:
            for key in ("workload", "arcs", "seed", "fingerprint",
                        "clusters", "interior_clusters", "boundary_arcs"):
                if key in b_p and e_p.get(key) != b_p[key]:
                    errors.append(
                        f"partitioned_scaling.{key} changed {b_p[key]} -> "
                        f"{e_p.get(key)} (generator and partitioner are "
                        "deterministic)"
                    )
            if abs(e_p["cost"] - b_p["cost"]) > 1e-9 * abs(b_p["cost"]):
                errors.append(
                    f"partitioned_scaling.cost changed {b_p['cost']} -> "
                    f"{e_p['cost']} (stitched cover must be cost-stable)"
                )
            if abs(e_p["lower_bound"] - b_p["lower_bound"]) \
                    > 1e-9 * abs(b_p["lower_bound"]):
                errors.append(
                    "partitioned_scaling.lower_bound changed "
                    f"{b_p['lower_bound']} -> {e_p['lower_bound']}"
                )
            if e_p.get("optimality_gap", 1.0) > 0.10:
                errors.append(
                    f"partitioned_scaling.optimality_gap "
                    f"{e_p.get('optimality_gap')} exceeds the 10% "
                    "acceptance bound"
                )
            for key in ("threads_identical", "exact_timeout_or_10x"):
                if e_p.get(key) is not True:
                    errors.append(
                        f"partitioned_scaling.{key} = {e_p.get(key)} "
                        "(must hold on every run)"
                    )

    # Cover-solver backend matrix. Everything in the section is a
    # deterministic pure function of the pinned instances: per-backend node
    # counts (exact solvers, fixed seeds) and costs. Costs get the usual
    # float tolerance; node counts must not grow.
    b_matrix = {(e["rows"], e["cols"]): e
                for e in base.get("cover_solver_matrix", [])}
    e_matrix = {(e["rows"], e["cols"]): e
                for e in fresh.get("cover_solver_matrix", [])}
    for key, b in b_matrix.items():
        e = e_matrix.get(key)
        if e is None:
            errors.append(
                f"cover_solver_matrix instance {key} missing from fresh run")
            continue
        if abs(e["cost"] - b["cost"]) > 1e-6:
            errors.append(
                f"cover_solver_matrix {key}: reference cost changed "
                f"{b['cost']} -> {e['cost']}"
            )
        for name, bb in b.get("backends", {}).items():
            eb = e.get("backends", {}).get(name)
            if eb is None:
                errors.append(
                    f"cover_solver_matrix {key}: backend '{name}' missing "
                    "from fresh run"
                )
                continue
            if not eb.get("optimal", False):
                errors.append(
                    f"cover_solver_matrix {key}: backend '{name}' no longer "
                    "proves optimality"
                )
            if eb["nodes"] > bb["nodes"]:
                errors.append(
                    f"cover_solver_matrix {key}: backend '{name}' nodes grew "
                    f"{bb['nodes']} -> {eb['nodes']}"
                )

    # Parallel branch-and-bound. The rounds engine's tree is a pure function
    # of the instance (that is the determinism contract), so its cost and
    # node count transfer across machines like the ucp_bnb corpus numbers.
    b_pb = base.get("parallel_bnb")
    e_pb = fresh.get("parallel_bnb")
    if b_pb is not None:
        if e_pb is None:
            errors.append("parallel_bnb section missing from fresh run")
        else:
            if abs(e_pb["rounds_cost"] - b_pb["rounds_cost"]) > 1e-6:
                errors.append(
                    f"parallel_bnb.rounds_cost changed {b_pb['rounds_cost']} "
                    f"-> {e_pb['rounds_cost']} (exact solver must be "
                    "cost-stable)"
                )
            if e_pb["rounds_nodes"] > b_pb["rounds_nodes"]:
                errors.append(
                    "parallel_bnb.rounds_nodes grew "
                    f"{b_pb['rounds_nodes']} -> {e_pb['rounds_nodes']} "
                    "(bounds got weaker)"
                )
            if e_pb.get("rounds_threads_identical") is not True:
                errors.append(
                    "parallel_bnb.rounds_threads_identical = "
                    f"{e_pb.get('rounds_threads_identical')} "
                    "(must hold on every run)"
                )

    if errors:
        fail(errors)
    print("bench regression check: OK "
          f"({len(base_ucp)} ucp instances, WAN cost {fresh_cost:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
