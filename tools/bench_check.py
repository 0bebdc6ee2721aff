#!/usr/bin/env python3
"""Bench regression check for the batched stream transport.

Runs ``bench_micro --smoke`` (the reduced-size batched-transport
comparison; the google-benchmark suite is skipped), loads the
``BENCH_micro.json`` it writes, and gates it three ways:

1. **Absolute floor** — every baseline row must come in above
   ``baseline / tolerance``. CI machines are noisy and heterogeneous,
   so the default tolerance is generous (3x): this catches
   order-of-magnitude regressions (a batch path silently degrading to
   per-record locking), not few-percent drift.

2. **Relative gates** — the *ratios between rows of the same run* are
   machine-speed-invariant, so they are held to a much tighter bound
   (``--ratio-tolerance``, default 1.8x) against the same ratio in the
   committed baseline. A slow runner scales every row down together and
   leaves the ratios alone; losing batching on one edge shows up
   immediately. Gated pairs:

   - ``channel_transfer/batch64  / channel_transfer/batch1``
   - ``pipeline/batched64        / pipeline/record_at_a_time``
   - ``pipeline/fused_batched64  / pipeline/batched64``

3. **Linger gates** — the staging-delay rows (``pipeline_latency/*``,
   a trickling source against a large max_batch so flush timing
   dominates):

   - ``pipeline_latency/linger50`` p99 staging delay must stay within
     ``--budget-tolerance`` x its linger_ms (default 1.3x: the linger
     is enforced by a timed pop, so scheduler jitter adds up to one
     poll interval on top).
   - ``pipeline_latency/linger200`` must be *slower* than linger50
     (sanity: the linger bound visibly sets the tail; if linger200's
     p99 is not above linger50's, the rows measure nothing).

Also asserts the PR 3 acceptance invariant directly on the fresh
measurement: the channel-transfer row at batch 64 must be at least
``--min-batch-speedup`` (default 3x) faster than record-at-a-time.

4. **Partitioned-log gates** — runs ``bench_mlog --smoke`` and checks
   the partition-sweep rows in ``BENCH_mlog.json`` (the skewed
   million-key vessel workload, one producer thread per partition):

   - rows for partitions {1, 4, 16} must all be present, tagged with
     ``workload == skewed_mkeys``, and report non-zero append and
     group-replay throughput;
   - the partitions=4 aggregate append rate must reach
     ``--min-partition-speedup`` (default 2x) over partitions=1 — but
     only when the machine can physically parallelize: the gate reads
     the row's ``hw_threads`` and relaxes to a no-collapse bound
     (>= 0.35x) below 4 hardware threads, since a CPU-bound append
     cannot scale past the core count.

5. **Scenario SLO gates** — runs ``bench_scenario --smoke`` (the
   open-loop city-scale harness) and checks ``BENCH_scenario.json``:

   - all three arms (``scenario/steady``, ``scenario/diurnal``,
     ``scenario/chaos``) present, with a clean error field and
     exactly-once delivery: ``consumed == appended``,
     ``gaps == dups == 0`` — on the chaos arm this proves the
     GroupCursor restarts resumed at the committed watermark;
   - steady-state end-to-end p99 within ``budget_ms x
     --budget-tolerance`` (the same 1.3x contract as the linger
     gates; hw-aware: doubled below 4 hardware threads, where the
     producer/consumer/chaos threads oversubscribe the machine);
   - the chaos arm must *show* its injected faults: ``restarts >= 1``
     and ``sync_stalls >= 1`` (the hooks actually fired), a p999 spike
     of at least ``--min-chaos-spike`` x the injected per-append stall
     (the open-loop schedule makes the producer wedge visible instead
     of silently slowing the load), a non-zero measured disruption,
     and ``recovery_ms <= --max-recovery-ms`` (doubled below 4
     hardware threads).

6. **Spatial-index gates** — runs ``bench_link_discovery --smoke``
   and checks the grid-vs-rtree sweep rows in
   ``BENCH_linkdiscovery.json`` (250k points, radius queries at stored
   points, one clustered and one uniform distribution):

   - rows for {clustered, uniform} x {grid, rtree} must all be
     present with non-zero throughput;
   - per distribution, ``matches`` must be EQUAL between grid and
     rtree — the same differential invariant the oracle test suite
     proves, re-asserted on the bench workload;
   - on the clustered (hub-skewed) arm the rtree must beat the grid
     by ``--min-clustered-speedup`` (default 2.0; measured ~10x —
     hot cells hold thousands of points and the grid scans them
     all). Relaxed to 1.4x below 4 hardware threads;
   - on the uniform arm the grid/rtree ratio must stay within
     ``--max-uniform-ratio`` (default 1.3: the rtree may not give
     up more than 30% where the grid is at its best; measured — the
     rtree actually *wins* at the benched ~61 points/cell density).
     Relaxed x1.5 below 4 hardware threads.

7. **Triplestore star-join gates** — runs ``bench_store_starjoin
   --smoke`` and checks the plan-comparison rows in
   ``BENCH_store.json`` (a clustered-entity graph where 1-in-16
   position nodes carry the full star of predicates):

   - the clustered trio (``store/starjoin/clustered/{scan, vertical,
     adjacency}``) and the spatio-temporal trio
     (``store/starjoin/st/{adjacency, adjacency_pushdown,
     vertical_pushdown}``) must all be present with non-zero
     ``matches``;
   - within each trio, ``matches`` must be EQUAL across every row —
     the same differential invariant tests/kg_equiv_test.cc proves,
     re-asserted on the bench workload (a fast plan that returns
     different bindings is wrong, not fast);
   - the adjacency-index plan must beat the full table scan by
     ``--min-adjacency-speedup`` (default 5.0; measured ~80x — the
     scan touches every triple of every partition per query while
     the merge join only walks the three predicates' postings).
     Relaxed to 2.0 below 4 hardware threads, where the scan plan's
     worker pool cannot parallelize.

8. **RDF enrichment gates** — runs ``bench_rdf_generation --smoke``
    and checks the batch-vs-fused rows in ``BENCH_rdf.json``:

    - ``rdf/generation/batch`` (tight TripleGenerator::Run loop) and
      ``rdf/generation/fused`` (FromVector -> TripleGeneratorStage ->
      KgStoreSink pipeline) must both be present with non-zero
      throughput;
    - ``triples`` must be EQUAL between the two rows: the fused
      path's StoreCounters must account for exactly the triples the
      batch path emits (this is the ReportJson counter-plumbing
      invariant, checked end to end);
    - the fused row must reach ``--min-fused-ratio`` of the batch
      row's records_per_s (default 0.25; measured ~0.53 — the
      pipeline adds channel hops and store interning, but must not
      collapse by an order of magnitude). Relaxed to 0.10 below 4
      hardware threads, where the stage threads oversubscribe.

9. **Keyed-fusion gates** — the keyed-terminal fusion rows in
    ``BENCH_micro.json`` (same ``bench_micro --smoke`` run as gates
    1-3):

    - ``keyed_fusion/fused_keyed`` (stateless prefix running inside
      the partition router) must beat ``keyed_fusion/two_hop`` (prefix
      Emit()ed into its own channel, one extra cross-thread hop) by
      ``--min-keyed-fusion-ratio`` (default 1.3; measured ~1.8 — the
      hop carries 4x the records at 6x the width). Relaxed to a
      no-collapse bound (>= 1.05) below 4 hardware threads;
    - ``keyed_fusion/skewed`` (80% of the stream on one hot key) must
      report a larger ``skew_ratio`` than ``keyed_fusion/uniform`` (the
      per-partition-edge records_in actually resolve the imbalance).

Exit status is non-zero on any failure, so it can gate CI.

Usage:
    tools/bench_check.py [--bench build/bench/bench_micro]
                         [--mlog-bench build/bench/bench_mlog]
                         [--scenario-bench build/bench/bench_scenario]
                         [--linkdiscovery-bench build/bench/bench_link_discovery]
                         [--store-bench build/bench/bench_store_starjoin]
                         [--rdf-bench build/bench/bench_rdf_generation]
                         [--baseline bench/baselines/BENCH_micro.json]
                         [--tolerance 3.0] [--ratio-tolerance 1.8]
                         [--min-batch-speedup 3.0]
                         [--budget-tolerance 1.3]
                         [--min-partition-speedup 2.0]
                         [--max-recovery-ms 2000]
                         [--min-chaos-spike 0.3]
                         [--min-clustered-speedup 2.0]
                         [--max-uniform-ratio 1.3]
                         [--min-adjacency-speedup 5.0]
                         [--min-fused-ratio 0.25]
                         [--min-keyed-fusion-ratio 1.3]
                         [--only micro,mlog,scenario,linkdiscovery,store,rdf]
                         [--no-run]   # reuse existing BENCH_*.json files
"""

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (numerator, denominator) pairs whose measured ratio must stay within
# --ratio-tolerance of the committed baseline's ratio.
RATIO_GATES = [
    ("channel_transfer/batch64", "channel_transfer/batch1"),
    ("pipeline/batched64", "pipeline/record_at_a_time"),
    ("pipeline/fused_batched64", "pipeline/batched64"),
]


def load_rows(path):
    with open(path) as f:
        rows = json.load(f)
    return {row["name"]: row for row in rows}


def row_ratio(rows, num, den):
    """records_per_s ratio num/den, or None when either row is absent."""
    a = rows.get(num)
    b = rows.get(den)
    if not a or not b or not b.get("records_per_s"):
        return None
    return a["records_per_s"] / b["records_per_s"]


def check_absolute(measured, baseline, tolerance, failures):
    print(f"\n{'row':<30} {'measured':>14} {'baseline':>14} {'ratio':>8}")
    for name, base_row in sorted(baseline.items()):
        base = base_row["records_per_s"]
        if base <= 0:
            # Latency rows carry p99_ms instead of a throughput figure;
            # check_latency gates them.
            continue
        if name not in measured:
            failures.append(f"row missing from bench output: {name}")
            print(f"{name:<30} {'MISSING':>14} {base:>14.0f}")
            continue
        got = measured[name]["records_per_s"]
        ratio = got / base if base else float("inf")
        verdict = ""
        if got < base / tolerance:
            failures.append(
                f"{name}: {got:.0f} rec/s < baseline {base:.0f} / "
                f"{tolerance:g} (ratio {ratio:.2f})")
            verdict = "  << REGRESSION"
        print(f"{name:<30} {got:>14.0f} {base:>14.0f} {ratio:>7.2f}x"
              f"{verdict}")


def check_relative(measured, baseline, ratio_tolerance, failures):
    print(f"\n{'relative gate':<50} {'measured':>9} {'baseline':>9}")
    for num, den in RATIO_GATES:
        got = row_ratio(measured, num, den)
        base = row_ratio(baseline, num, den)
        label = f"{num} / {den}"
        if got is None:
            failures.append(f"relative gate rows missing: {label}")
            print(f"{label:<50} {'MISSING':>9}")
            continue
        if base is None:
            # Baseline predates the row (first run after adding it):
            # report, don't gate.
            print(f"{label:<50} {got:>8.2f}x {'n/a':>9}")
            continue
        verdict = ""
        if got < base / ratio_tolerance:
            failures.append(
                f"{label}: measured ratio {got:.2f}x < baseline "
                f"{base:.2f}x / {ratio_tolerance:g}")
            verdict = "  << REGRESSION"
        print(f"{label:<50} {got:>8.2f}x {base:>8.2f}x{verdict}")


def check_latency(measured, budget_tolerance, failures):
    short = measured.get("pipeline_latency/linger50")
    long_ = measured.get("pipeline_latency/linger200")
    if not short or "p99_ms" not in short:
        failures.append("pipeline_latency/linger50 p99 row missing")
        return
    p99 = short["p99_ms"]
    linger = short.get("linger_ms", -1)
    if linger <= 0:
        failures.append("pipeline_latency/linger50 carries no linger_ms")
        return
    limit = linger * budget_tolerance
    ok = p99 <= limit
    print(f"\nlinger: linger50 p99={p99:.2f}ms vs "
          f"linger {linger}ms x {budget_tolerance:g} = {limit:.1f}ms"
          f"{'' if ok else '  << FAIL'}")
    if not ok:
        failures.append(
            f"linger50 staging p99 {p99:.2f}ms > {linger}ms linger x "
            f"{budget_tolerance:g} tolerance")
    if long_ and "p99_ms" in long_:
        ok = long_["p99_ms"] > p99
        print(f"linger200 p99={long_['p99_ms']:.2f}ms "
              f"(must exceed linger50 p99)"
              f"{'' if ok else '  << FAIL'}")
        if not ok:
            failures.append(
                "linger200 row p99 did not exceed the linger50 row — the "
                "linger gate is measuring nothing")
    else:
        failures.append("pipeline_latency/linger200 p99 row missing")


def check_keyed_fusion(measured, min_keyed_fusion_ratio, failures):
    """Gates the keyed-terminal fusion and partition-skew rows (gate 9;
    part of the micro suite)."""
    two_hop = measured.get("keyed_fusion/two_hop")
    fused = measured.get("keyed_fusion/fused_keyed")
    if not two_hop or not fused or not two_hop.get("records_per_s"):
        failures.append("keyed_fusion two_hop/fused_keyed rows missing")
        return
    hw = fused.get("hw_threads", 0)
    # On tiny runners the two constructions time-slice the same cores
    # and the eliminated hop buys less; only a collapse (the fused
    # terminal somehow SLOWER than paying an extra hop) is gated there.
    required = min_keyed_fusion_ratio if hw >= 4 else 1.05
    ratio = fused["records_per_s"] / two_hop["records_per_s"]
    ok = ratio >= required
    print(f"\nfused_keyed vs two_hop: {ratio:.2f}x "
          f"(required >= {required:g}x on {hw} hw threads)"
          f"{'' if ok else '  << FAIL'}")
    if not ok:
        failures.append(
            f"fused keyed terminal at {ratio:.2f}x of two-hop < "
            f"{required:g}x (hw_threads={hw})")

    skewed = measured.get("keyed_fusion/skewed")
    uniform = measured.get("keyed_fusion/uniform")
    if (not skewed or not uniform or "skew_ratio" not in skewed
            or "skew_ratio" not in uniform):
        failures.append("keyed_fusion/skewed or /uniform skew_ratio missing")
        return
    ok = skewed["skew_ratio"] > uniform["skew_ratio"]
    print(f"skew_ratio skewed={skewed['skew_ratio']:.2f} vs "
          f"uniform={uniform['skew_ratio']:.2f} (skewed must exceed)"
          f"{'' if ok else '  << FAIL'}")
    if not ok:
        failures.append(
            f"skewed arm skew_ratio {skewed['skew_ratio']:.2f} does "
            f"not exceed uniform {uniform['skew_ratio']:.2f} — the "
            f"per-edge records_in do not resolve the imbalance")


def check_mlog(rows, min_partition_speedup, failures):
    """Gates the bench_mlog partition-sweep rows (gate 4)."""
    sweep = {r["partitions"]: r for r in rows if "partitions" in r}
    print(f"\n{'partitions':>10} {'append rec/s':>14} {'replay rec/s':>14}")
    for want in (1, 4, 16):
        row = sweep.get(want)
        if not row:
            failures.append(f"BENCH_mlog.json missing partitions={want} row")
            print(f"{want:>10} {'MISSING':>14}")
            continue
        if row.get("workload") != "skewed_mkeys":
            failures.append(
                f"partitions={want} row is not the skewed_mkeys workload")
        append = row.get("append_records_per_s", 0)
        replay = row.get("replay_records_per_s", 0)
        print(f"{want:>10} {append:>14.0f} {replay:>14.0f}")
        if append <= 0 or replay <= 0:
            failures.append(
                f"partitions={want} row reports zero throughput")
    p1 = sweep.get(1)
    p4 = sweep.get(4)
    if not p1 or not p4 or not p1.get("append_records_per_s"):
        failures.append("cannot rate partition scale-out: p1/p4 rows missing")
        return
    hw = p4.get("hw_threads", 0)
    # A CPU-bound append cannot scale past the core count; below 4
    # hardware threads the gate only guards against a pathological
    # collapse (lock contention serializing the partitions).
    required = min_partition_speedup if hw >= 4 else 0.35
    speedup = p4["append_records_per_s"] / p1["append_records_per_s"]
    ok = speedup >= required
    print(f"partitions=4 vs partitions=1 aggregate append: {speedup:.2f}x "
          f"(required >= {required:g}x on {hw} hw threads)"
          f"{'' if ok else '  << FAIL'}")
    if not ok:
        failures.append(
            f"partition scale-out {speedup:.2f}x < {required:g}x "
            f"(hw_threads={hw})")


def check_scenario(rows, budget_tolerance, max_recovery_ms, min_chaos_spike,
                   failures):
    """Gates the open-loop scenario arms (gate 5)."""
    arms = {r["name"]: r for r in rows}
    print(f"\n{'scenario arm':<20} {'p99ms':>8} {'p999ms':>9} {'cons':>7} "
          f"{'gaps':>5} {'dups':>5} {'rst':>4} {'recov':>6}")
    for name in ("scenario/steady", "scenario/diurnal", "scenario/chaos"):
        row = arms.get(name)
        if not row:
            failures.append(f"BENCH_scenario.json missing {name} row")
            print(f"{name:<20} {'MISSING':>8}")
            continue
        print(f"{name:<20} {row['p99_ms']:>8.2f} {row['p999_ms']:>9.2f} "
              f"{row['consumed']:>7} {row['gaps']:>5} {row['dups']:>5} "
              f"{row['restarts']:>4} {row['recovery_ms']:>6}")
        err = row.get("report", {}).get("error", "")
        if err:
            failures.append(f"{name}: run reported an error: {err}")
        # Exactly-once delivery: every appended record reaches the sink
        # once. On the chaos arm this is the resume-at-watermark proof.
        if row["consumed"] != row["appended"]:
            failures.append(
                f"{name}: consumed {row['consumed']} != appended "
                f"{row['appended']} — records lost in flight")
        if row["gaps"] or row["dups"]:
            failures.append(
                f"{name}: delivery not exactly-once (gaps={row['gaps']} "
                f"dups={row['dups']})")

    steady = arms.get("scenario/steady")
    chaos = arms.get("scenario/chaos")
    if not steady or not chaos:
        return
    hw = steady.get("hw_threads", 0)

    # Steady-state SLO: same budget x tolerance contract as the linger
    # staging-latency gates; doubled on runners that cannot physically
    # host producer + 4 shards + chaos without oversubscription.
    tol = budget_tolerance * (1.0 if hw >= 4 else 2.0)
    limit = steady["budget_ms"] * tol
    ok = steady["p99_ms"] <= limit
    print(f"steady e2e p99={steady['p99_ms']:.2f}ms vs budget "
          f"{steady['budget_ms']}ms x {tol:g} = {limit:.1f}ms "
          f"(hw_threads={hw}){'' if ok else '  << FAIL'}")
    if not ok:
        failures.append(
            f"steady scenario p99 {steady['p99_ms']:.2f}ms > "
            f"{steady['budget_ms']}ms budget x {tol:g}")

    # The chaos arm must demonstrate its injections.
    if chaos["restarts"] < 1:
        failures.append("chaos arm recorded no GroupCursor restarts — "
                        "the source-restart fault never fired")
    if chaos["sync_stalls"] < 1:
        failures.append("chaos arm recorded no mlog sync stalls — the "
                        "fsync-stall fault never fired")
    stall = chaos.get("stall_ms", 0)
    if stall > 0:
        spike_floor = min_chaos_spike * stall
        ok = chaos["p999_ms"] >= spike_floor
        print(f"chaos p999={chaos['p999_ms']:.2f}ms vs injected "
              f"{stall}ms stall x {min_chaos_spike:g} = "
              f"{spike_floor:.0f}ms floor{'' if ok else '  << FAIL'}")
        if not ok:
            failures.append(
                f"chaos p999 {chaos['p999_ms']:.2f}ms < "
                f"{spike_floor:.0f}ms — the injected fsync stall left "
                f"no latency signature (open-loop stamping broken?)")
    if chaos["disruption_ms"] <= 0:
        failures.append("chaos arm measured zero SLO disruption — the "
                        "recovery gate is measuring nothing")
    allowed = max_recovery_ms * (1.0 if hw >= 4 else 2.0)
    ok = chaos["recovery_ms"] <= allowed
    print(f"chaos recovery={chaos['recovery_ms']}ms "
          f"(allowed <= {allowed:g}ms on {hw} hw threads)"
          f"{'' if ok else '  << FAIL'}")
    if not ok:
        failures.append(
            f"chaos recovery {chaos['recovery_ms']}ms > {allowed:g}ms — "
            f"the pipeline did not re-meet its SLO after fault clear")


def check_linkdiscovery(rows, min_clustered_speedup, max_uniform_ratio,
                        failures):
    """Gates the grid-vs-rtree spatial index sweep (gate 6)."""
    arms = {r["name"]: r for r in rows}
    print(f"\n{'index arm':<36} {'queries/s':>12} {'matches':>10}")
    for dist in ("clustered", "uniform"):
        for backend in ("grid", "rtree"):
            name = f"linkdiscovery/{dist}/{backend}"
            row = arms.get(name)
            if not row:
                failures.append(
                    f"BENCH_linkdiscovery.json missing {name} row")
                print(f"{name:<36} {'MISSING':>12}")
                continue
            print(f"{name:<36} {row['queries_per_s']:>12.0f} "
                  f"{row['matches']:>10}")
            if row.get("queries_per_s", 0) <= 0:
                failures.append(f"{name} reports zero throughput")

    for dist in ("clustered", "uniform"):
        grid = arms.get(f"linkdiscovery/{dist}/grid")
        rtree = arms.get(f"linkdiscovery/{dist}/rtree")
        if not grid or not rtree:
            failures.append(
                f"cannot rate {dist} arm: grid/rtree rows missing")
            continue
        # Differential invariant on the bench workload itself: both
        # backends must return exactly the same result multiset.
        if grid["matches"] != rtree["matches"]:
            failures.append(
                f"{dist}: grid returned {grid['matches']} matches but "
                f"rtree returned {rtree['matches']} — backends disagree "
                f"on the same queries")
        hw = rtree.get("hw_threads", 0)
        if dist == "clustered":
            # Hot cells hold thousands of points; the rtree's adaptive
            # fanout must pay off. Single-core runners get a softer
            # floor: the skew advantage shrinks when the flat cell
            # scan stays cache-resident.
            required = min_clustered_speedup if hw >= 4 else 1.4
            speedup = rtree["queries_per_s"] / grid["queries_per_s"]
            ok = speedup >= required
            print(f"clustered rtree vs grid: {speedup:.2f}x "
                  f"(required >= {required:g}x on {hw} hw threads)"
                  f"{'' if ok else '  << FAIL'}")
            if not ok:
                failures.append(
                    f"clustered rtree speedup {speedup:.2f}x < "
                    f"{required:g}x (hw_threads={hw})")
        else:
            # Where the grid is at its best the rtree may trail, but
            # not collapse — that would make the default backend a
            # regression for uniform traffic.
            allowed = max_uniform_ratio * (1.0 if hw >= 4 else 1.5)
            ratio = grid["queries_per_s"] / rtree["queries_per_s"]
            ok = ratio <= allowed
            print(f"uniform grid vs rtree: {ratio:.2f}x "
                  f"(allowed <= {allowed:g}x on {hw} hw threads)"
                  f"{'' if ok else '  << FAIL'}")
            if not ok:
                failures.append(
                    f"uniform grid/rtree ratio {ratio:.2f}x > "
                    f"{allowed:g}x (hw_threads={hw})")


def check_store(rows, min_adjacency_speedup, failures):
    """Gates the star-join plan comparison (gate 7)."""
    arms = {r["name"]: r for r in rows}
    trios = {
        "clustered": ["store/starjoin/clustered/scan",
                      "store/starjoin/clustered/vertical",
                      "store/starjoin/clustered/adjacency"],
        "st": ["store/starjoin/st/adjacency",
               "store/starjoin/st/adjacency_pushdown",
               "store/starjoin/st/vertical_pushdown"],
    }
    print(f"\n{'star-join arm':<42} {'matches':>8} {'scanned':>9} "
          f"{'wall ms':>8}")
    for label, names in trios.items():
        for name in names:
            row = arms.get(name)
            if not row:
                failures.append(f"BENCH_store.json missing {name} row")
                print(f"{name:<42} {'MISSING':>8}")
                continue
            print(f"{name:<42} {row['matches']:>8} {row['scanned']:>9} "
                  f"{row['wall_ms']:>8.3f}")
            if row.get("matches", 0) <= 0:
                failures.append(f"{name} found zero matches — the bench "
                                f"graph produced no joinable stars")
        # Differential invariant on the bench workload itself: every
        # plan in the trio must return exactly the same result count.
        counts = {arms[n]["matches"] for n in names if n in arms}
        if len(counts) > 1:
            failures.append(
                f"{label} trio disagrees on matches: "
                f"{sorted(counts)} — a plan is returning wrong bindings")

    scan = arms.get("store/starjoin/clustered/scan")
    adj = arms.get("store/starjoin/clustered/adjacency")
    if not scan or not adj or not adj.get("wall_ms"):
        failures.append("cannot rate adjacency plan: clustered "
                        "scan/adjacency rows missing")
        return
    hw = adj.get("hw_threads", 0)
    # The scan plan fans its partitions across a worker pool; on tiny
    # runners that parallelism is gone and the gap narrows, so the
    # gate only guards against the merge join losing its asymptotic
    # advantage outright.
    required = min_adjacency_speedup if hw >= 4 else 2.0
    speedup = scan["wall_ms"] / adj["wall_ms"]
    ok = speedup >= required
    print(f"clustered adjacency vs scan: {speedup:.1f}x "
          f"(required >= {required:g}x on {hw} hw threads)"
          f"{'' if ok else '  << FAIL'}")
    if not ok:
        failures.append(
            f"adjacency star-join speedup {speedup:.2f}x < "
            f"{required:g}x (hw_threads={hw})")


def check_rdf(rows, min_fused_ratio, failures):
    """Gates the batch-vs-fused RDF enrichment rows (gate 8)."""
    arms = {r["name"]: r for r in rows}
    print(f"\n{'rdf arm':<24} {'records':>9} {'triples':>9} "
          f"{'records/s':>11}")
    for name in ("rdf/generation/batch", "rdf/generation/fused"):
        row = arms.get(name)
        if not row:
            failures.append(f"BENCH_rdf.json missing {name} row")
            print(f"{name:<24} {'MISSING':>9}")
            continue
        print(f"{name:<24} {row['records']:>9} {row['triples']:>9} "
              f"{row['records_per_s']:>11.0f}")
        if row.get("records_per_s", 0) <= 0:
            failures.append(f"{name} reports zero throughput")

    batch = arms.get("rdf/generation/batch")
    fused = arms.get("rdf/generation/fused")
    if not batch or not fused or not batch.get("records_per_s"):
        failures.append("cannot rate fused enrichment: batch/fused rows "
                        "missing")
        return
    # Counter-plumbing invariant: the KnowledgeStore's StoreCounters
    # (the numbers KgStoreSink surfaces through StageMetrics and
    # ReportJson) must account for exactly the triples the tight
    # batch loop emits for the same records.
    if batch["triples"] != fused["triples"]:
        failures.append(
            f"fused path stored {fused['triples']} triples but the batch "
            f"path emitted {batch['triples']} — triples lost between the "
            f"generator stage and the store sink")
    hw = fused.get("hw_threads", 0)
    required = min_fused_ratio if hw >= 4 else 0.10
    ratio = fused["records_per_s"] / batch["records_per_s"]
    ok = ratio >= required
    print(f"fused vs batch enrichment: {ratio:.2f}x "
          f"(required >= {required:g}x on {hw} hw threads)"
          f"{'' if ok else '  << FAIL'}")
    if not ok:
        failures.append(
            f"fused enrichment at {ratio:.2f}x of batch < {required:g}x "
            f"(hw_threads={hw})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench",
        default=os.path.join(REPO_ROOT, "build", "bench", "bench_micro"),
        help="path to the bench_micro binary",
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(REPO_ROOT, "bench", "baselines",
                             "BENCH_micro.json"),
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--tolerance", type=float, default=3.0,
        help="fail when measured < baseline / tolerance (default 3.0)",
    )
    parser.add_argument(
        "--ratio-tolerance", type=float, default=1.8,
        help="fail when a measured row ratio < baseline ratio / this "
             "(default 1.8; ratios are machine-speed-invariant)",
    )
    parser.add_argument(
        "--min-batch-speedup", type=float, default=3.0,
        help="required channel-transfer speedup of batch64 over batch1",
    )
    parser.add_argument(
        "--budget-tolerance", type=float, default=1.3,
        help="allowed pipeline_latency/linger50 p99 as a multiple of "
             "its linger_ms, and scenario steady p99 as a multiple of its "
             "budget_ms (default 1.3; covers linger-poll granularity and "
             "scheduler jitter)",
    )
    parser.add_argument(
        "--mlog-bench",
        default=os.path.join(REPO_ROOT, "build", "bench", "bench_mlog"),
        help="path to the bench_mlog binary (partition-sweep gates)",
    )
    parser.add_argument(
        "--min-partition-speedup", type=float, default=2.0,
        help="required partitions=4 aggregate append speedup over "
             "partitions=1 when >= 4 hardware threads are available "
             "(default 2.0)",
    )
    parser.add_argument(
        "--scenario-bench",
        default=os.path.join(REPO_ROOT, "build", "bench", "bench_scenario"),
        help="path to the bench_scenario binary (open-loop SLO gates)",
    )
    parser.add_argument(
        "--max-recovery-ms", type=float, default=2000.0,
        help="allowed chaos-arm recovery time after fault clear "
             "(default 2000; doubled below 4 hardware threads)",
    )
    parser.add_argument(
        "--min-chaos-spike", type=float, default=0.3,
        help="required chaos-arm p999 as a fraction of the injected "
             "per-append fsync stall (default 0.3)",
    )
    parser.add_argument(
        "--linkdiscovery-bench",
        default=os.path.join(REPO_ROOT, "build", "bench",
                             "bench_link_discovery"),
        help="path to the bench_link_discovery binary (spatial index "
             "gates)",
    )
    parser.add_argument(
        "--min-clustered-speedup", type=float, default=2.0,
        help="required rtree speedup over the grid on the clustered "
             "distribution (default 2.0; relaxed to 1.4 below 4 "
             "hardware threads)",
    )
    parser.add_argument(
        "--max-uniform-ratio", type=float, default=1.3,
        help="allowed grid/rtree throughput ratio on the uniform "
             "distribution (default 1.3; relaxed x1.5 below 4 "
             "hardware threads)",
    )
    parser.add_argument(
        "--store-bench",
        default=os.path.join(REPO_ROOT, "build", "bench",
                             "bench_store_starjoin"),
        help="path to the bench_store_starjoin binary (triplestore "
             "star-join gates)",
    )
    parser.add_argument(
        "--min-adjacency-speedup", type=float, default=5.0,
        help="required adjacency-index star-join speedup over the full "
             "table scan on the clustered arm (default 5.0; relaxed to "
             "2.0 below 4 hardware threads)",
    )
    parser.add_argument(
        "--rdf-bench",
        default=os.path.join(REPO_ROOT, "build", "bench",
                             "bench_rdf_generation"),
        help="path to the bench_rdf_generation binary (batch-vs-fused "
             "enrichment gates)",
    )
    parser.add_argument(
        "--min-fused-ratio", type=float, default=0.25,
        help="required fused-pipeline enrichment throughput as a "
             "fraction of the tight batch loop (default 0.25; relaxed "
             "to 0.10 below 4 hardware threads)",
    )
    parser.add_argument(
        "--min-keyed-fusion-ratio", type=float, default=1.3,
        help="required keyed_fusion/fused_keyed throughput as a multiple "
             "of keyed_fusion/two_hop (default 1.3; relaxed to 1.05 "
             "below 4 hardware threads)",
    )
    parser.add_argument(
        "--only", default="micro,mlog,scenario,linkdiscovery,store,rdf",
        help="comma list of bench suites to run and gate "
             "(default: micro,mlog,scenario,linkdiscovery,store,rdf)",
    )
    parser.add_argument(
        "--no-run", action="store_true",
        help="skip running the benches; check existing BENCH_*.json "
             "files next to the binaries",
    )
    args = parser.parse_args()

    suites = {s.strip() for s in args.only.split(",") if s.strip()}
    unknown = suites - {"micro", "mlog", "scenario", "linkdiscovery",
                        "store", "rdf"}
    if unknown:
        print(f"unknown --only suites: {sorted(unknown)}", file=sys.stderr)
        return 2

    binaries = {
        "micro": (args.bench, "BENCH_micro.json"),
        "mlog": (args.mlog_bench, "BENCH_mlog.json"),
        "scenario": (args.scenario_bench, "BENCH_scenario.json"),
        "linkdiscovery": (args.linkdiscovery_bench,
                          "BENCH_linkdiscovery.json"),
        "store": (args.store_bench, "BENCH_store.json"),
        "rdf": (args.rdf_bench, "BENCH_rdf.json"),
    }
    outputs = {}
    for suite in ("micro", "mlog", "scenario", "linkdiscovery", "store",
                  "rdf"):
        if suite not in suites:
            continue
        binary, result_name = binaries[suite]
        bench_dir = os.path.dirname(os.path.abspath(binary))
        outputs[suite] = os.path.join(bench_dir, result_name)
        if args.no_run:
            continue
        if not os.path.exists(binary):
            print(f"bench binary not found: {binary}", file=sys.stderr)
            return 2
        print(f"running: {binary} --smoke (cwd={bench_dir})")
        proc = subprocess.run([os.path.abspath(binary), "--smoke"],
                              cwd=bench_dir)
        if proc.returncode != 0:
            print(f"{os.path.basename(binary)} exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return 2

    for suite, path in outputs.items():
        if not os.path.exists(path):
            print(f"missing bench output: {path}", file=sys.stderr)
            return 2

    failures = []
    if "micro" in suites:
        measured = load_rows(outputs["micro"])
        baseline = load_rows(args.baseline)
        check_absolute(measured, baseline, args.tolerance, failures)
        check_relative(measured, baseline, args.ratio_tolerance, failures)
        check_latency(measured, args.budget_tolerance, failures)
        check_keyed_fusion(measured, args.min_keyed_fusion_ratio, failures)

        # Acceptance invariant: batching must actually amortize the lock.
        b1 = measured.get("channel_transfer/batch1")
        b64 = measured.get("channel_transfer/batch64")
        if b1 and b64:
            speedup = b64["records_per_s"] / b1["records_per_s"]
            ok = speedup >= args.min_batch_speedup
            print(f"\nchannel transfer batch64 vs batch1: {speedup:.1f}x "
                  f"(required >= {args.min_batch_speedup:g}x)"
                  f"{'' if ok else '  << FAIL'}")
            if not ok:
                failures.append(
                    f"batch64 speedup {speedup:.2f}x < "
                    f"{args.min_batch_speedup:g}x")
        else:
            failures.append("channel_transfer batch1/batch64 rows missing")

    if "mlog" in suites:
        with open(outputs["mlog"]) as f:
            mlog_rows = json.load(f)
        check_mlog(mlog_rows, args.min_partition_speedup, failures)

    if "scenario" in suites:
        with open(outputs["scenario"]) as f:
            scenario_rows = json.load(f)
        check_scenario(scenario_rows, args.budget_tolerance,
                       args.max_recovery_ms, args.min_chaos_spike, failures)

    if "linkdiscovery" in suites:
        with open(outputs["linkdiscovery"]) as f:
            link_rows = json.load(f)
        check_linkdiscovery(link_rows, args.min_clustered_speedup,
                            args.max_uniform_ratio, failures)

    if "store" in suites:
        with open(outputs["store"]) as f:
            store_rows = json.load(f)
        check_store(store_rows, args.min_adjacency_speedup, failures)

    if "rdf" in suites:
        with open(outputs["rdf"]) as f:
            rdf_rows = json.load(f)
        check_rdf(rdf_rows, args.min_fused_ratio, failures)

    if failures:
        print("\nbench_check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbench_check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
