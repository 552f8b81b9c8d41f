#!/usr/bin/env python3
"""CI gate on the machine-readable benchmark report.

Reads ``BENCH_scaling.json`` (written by ``cargo run -p cofs-bench
--bin scaling``; see ``write_bench_json`` in ``crates/bench/src/lib.rs``)
and fails when a structural performance claim regressed:

1. **Storm throughput is monotone in shard count** — the
   "shared-directory storm vs shard count" section's ``creates/s``
   column must be non-decreasing as ``shards`` grows, through the
   claimed scaling regime (<= 4 shards; beyond that the full sweep
   deliberately explores saturation, where per-shard skew makes more
   shards a wash).
2. **Batching improves the bursty storm monotonically** — the
   "shared-directory storm vs batching" section's ``makespan (ms)``
   must not increase along ``max_batch_ops`` 1 -> 4 -> 16, and the
   largest batch size must beat batching off.
3. **Batching never regresses read-only work** — in the "batching
   non-wins" section, the hot-stat rows with batching on must match the
   batching-off makespan (reads never batch).
4. **Read memoization never costs and pays at scale** — in the "bursty
   storm vs read memoization" section, the memoized makespan must not
   exceed the unmemoized one at *every* batch size (a batch of one
   memoizes nothing, so that row is equality), and at the largest batch
   size memoization must strictly beat both the unmemoized run and the
   batching-off baseline — the post-PR-4 per-op-row-work ceiling.
5. **Write-behind journaling never costs on the swept axis and pays at
   scale** — in the "bursty storm vs write-behind journal" section
   (memoization on throughout), the journaled makespan must not exceed
   the journal-off one at *every* swept batch size, must strictly beat
   it at the largest, and the coalescing must be real: every
   journal-on row applies strictly fewer rows than it acked
   (``coalesced`` > 0) while journal-off rows coalesce nothing.
6. **The read-priority lane decouples stat tails from batch size** —
   in the "mixed stat+create storm vs read priority" section, the
   priority rows' stat p99 must not exceed the FIFO rows' at any batch
   size; the FIFO p99 at the largest batch must visibly exceed the
   priority p99 (head-of-line blocking is real and the lane removes
   it); and the priority p99 at the largest batch must stay within
   TAIL_GROWTH_CAP of the priority batching-off p99 (bounded by the
   in-service lump, not the queue, so it no longer grows with
   ``max_batch_ops``).
7. **The elastic policy adapts instead of saturating** — in the
   "shared-directory storm vs shard count" section, the elastic rows'
   ``creates/s`` must be *strictly* monotone across every swept shard
   count (the static claim stops at MAX_CLAIMED_SHARDS; load-adaptive
   splitting is what carries scaling past the directory count), and in
   the "skewed multi-tenant storm vs shard policy" section the elastic
   makespan must be at or below the best static policy's at every
   swept shard count.
8. **Failover degrades boundedly and loses nothing** — in the
   "failover storm vs crash timing" section, every crash row must
   report zero ``lost acked`` ops (journal-acked work survives
   recovery replay), a positive ``nacks`` count (the scripted crash
   was actually observed and ridden out on retries rather than
   silently missed), an availability ``gap`` covering at least the
   scripted downtime, and a makespan within FAILOVER_SLACK of its
   fault-free baseline row plus the gap and the priced recovery work
   (the slack absorbs the post-recovery convoy when backlogged
   clients return together).
9. **The correlated-failure survival knobs actually pay** — in the
   "cascade storm vs correlated failures" section, every fault row
   must report zero ``lost acked`` ops; every standby-on row must
   strictly shrink the availability ``gap`` against its knobs-matched
   standby-off row *and* beat the ``loops x down`` scripted floor the
   cold restart waits out (with every crash absorbed by a promotion);
   and on the convoy-visible standby-off rows, admission control must
   strictly shrink the post-recovery makespan (retry-after pacing
   replaces backoff overshoot).

Claims 1-9 run on the ``scaling`` report only. Any full-mode report
(``"smoke": false``, so also ``BENCH_ablation.json`` and the six paper
reports) gets one more:

10. **No sweep row repeats another by accident** — when two rows of a
    section match in every cell outside CONFIG_COLUMNS, the setting
    that tells them apart changed nothing measured. Such a repeat fails
    unless DECLARED_REPEATS names the pair with its reason, and a
    declared pair that no longer repeats fails too.

The full-mode paper reports also carry the paper's own claims (smoke
sweeps stop short of the knees, so only full mode is gated):

11. **Fig 1 (``fig1``)** — with one process, stat, utime and open_close
    take at most FIG1_HIT_MS through FIG1_KNEE files/dir (the stat
    cache holds every inode) and at least FIG1_CLIFF times that beyond
    it; create rises at every step from FIG1_GROWTH_FROM files/dir on,
    for one process and for two.
12. **Fig 4 (``fig4``)** — COFS create is below GPFS create at every
    files/node, at 4 nodes and at 8.
13. **Fig 5 (``fig5``)** — COFS is below GPFS in every row of the six
    stat, utime and open_close sections, at 4 nodes and at 8.
14. **Table I (``table1``)** — the orderings ``tests/tests/calibration.rs``
    asserts at reduced scale, on sequential and random access: a
    multi-node separate-file read that fits the GPFS page pool
    (``per-node`` <= PAGEPOOL_MB) is a clear COFS loss (cofs/gpfs <
    SMALL_READ_RATIO); every other read is comparable (>
    COMPARABLE_RATIO); a one-node write shows the FUSE copy's moderate
    drawback (WRITE_DRAWBACK); and on the 256MB separate-file writes
    GPFS slows from 4 to 8 nodes while COFS stays above
    WRITE_8_NODE_RATIO of it.

Cells are printed at two decimals, so comparisons allow one unit of
rounding slack (0.011 ms / 1 create/s). Stdlib only; exit status 0 on
success, 1 on any failed check.

With ``--golden`` the script instead compares a regenerated report with
the committed golden and names every cell that moved, as section title,
row key, column header, and old -> new. It also lists sections, rows and
headers that were added or removed. A row's key is its shortest run of
leading cells that tells the section's rows apart in both reports
(``shards=2, policy=elastic``). Exit status 0 when the reports match,
1 otherwise.

Usage: bench_check.py [path/to/BENCH_<name>.json]
       bench_check.py --golden <committed.json> <regenerated.json>
"""

import json
import sys

ROUNDING_MS = 0.011
ROUNDING_RATE = 1.0
MAX_CLAIMED_SHARDS = 4
# A priority-lane stat still waits out the lump *in service* at its
# arrival, so its p99 may sit a bounded factor above the unbatched
# baseline — but it must not track the queue depth the way FIFO does.
TAIL_GROWTH_CAP = 2.0
# A crashed storm pays the scripted gap and the priced recovery work,
# then a convoy: every backlogged client returns at once, so queueing
# stretches beyond the additive bound. The multiplicative slack caps
# that convoy without excusing an unbounded wedge. The full sweep's
# worst observed ratio is ~1.53 (no-journal, late crash, narrow
# shards); 1.7 leaves ~10% headroom without re-admitting a wedge.
FAILOVER_SLACK = 1.7
# Fig 1: a stat-cache hit costs microseconds; past the 1024-entry
# cache every op pays a server fetch, an order of magnitude more.
FIG1_KNEE = 1024
FIG1_HIT_MS = 0.1
FIG1_CLIFF = 10.0
# Fig 1: create grows with the directory above ~512 entries.
FIG1_GROWTH_FROM = 512
# Table I: GPFS's per-node page pool, and calibration.rs's bounds.
PAGEPOOL_MB = 64
SMALL_READ_RATIO = 0.6
COMPARABLE_RATIO = 0.8
WRITE_DRAWBACK = (0.5, 0.98)
WRITE_8_NODE_RATIO = 0.65
# Columns that configure a sweep row rather than measure it.
CONFIG_COLUMNS = {
    "shards",
    "policy",
    "cache ttl",
    "batching",
    "memo",
    "write-behind",
    "lane",
    "workload",
    "journal",
    "crash at (ms)",
    "down (ms)",
    "loops",
    "standby",
    "admission",
    "variant",
    "nodes",
    "shard",
    "operation",
    "files/dir",
    "files/node",
    "aggregate",
    "per-node",
}
NO_SPLIT = "no split fires, so elastic places every directory as hash-by-parent does"
FIG1_HITS = "up to 1024 files the node's 1024-entry stat cache still holds every inode, so each op hits"
FIG1_SPLIT = (
    "setup leaves the last 1024 inodes cached: the first process's scan misses on every file, "
    "the second's hits on every file"
)
FIG1_MISSES = "from 2048 files the second process's range is evicted ahead of its scan too, so every op misses"
FIG5_PLATEAU = (
    "every GPFS op misses the stat cache at one contended server fetch, and a COFS op is one shard "
    "request whose rows do not grow with the directory"
)
ONE_READER = "one node reading 256 MiB or more overflows its 64 MiB page pool, so every size streams alike"


def plateau(first, later, reason, key="files/dir"):
    """Declares each of `later` a repeat of `first` by one key column."""
    return {(f"{key}={n}", f"{key}={first}"): reason for n in later}


# Full-mode rows that repeat an earlier row of their section by
# construction, by section title: (row, earlier row) by configuration
# cells, with why.
DECLARED_REPEATS = {
    "avg. time per stat": {
        **plateau(128, (256, 512, 768, 1024), FIG1_HITS),
        **plateau(1280, (1536,), FIG1_SPLIT),
        **plateau(2048, (2560,), FIG1_MISSES),
    },
    "avg. time per utime": {
        **plateau(128, (256, 512, 768, 1024), FIG1_HITS),
        **plateau(1280, (1536,), FIG1_SPLIT),
    },
    "avg. time per open_close": {
        **plateau(128, (256, 512, 768, 1024), FIG1_HITS),
        **plateau(1280, (1536,), FIG1_SPLIT),
        **plateau(2048, (2560,), FIG1_MISSES),
    },
    "avg. time per stat — 4 nodes": plateau(1024, (2048, 4096, 8192), FIG5_PLATEAU, "files/node"),
    "avg. time per stat — 8 nodes": plateau(1024, (2048, 4096, 8192), FIG5_PLATEAU, "files/node"),
    "avg. time per open_close — 4 nodes": plateau(
        512, (1024, 2048, 4096, 8192), FIG5_PLATEAU, "files/node"
    ),
    "avg. time per open_close — 8 nodes": plateau(
        1024, (2048, 4096, 8192), FIG5_PLATEAU, "files/node"
    ),
    "operation times, shared dir, hierarchical network": {
        ("operation=open_close", "operation=stat"): (
            "64 clients saturate each stack's metadata server, and open+close puts the same demand "
            "on it as stat (one attribute fetch on GPFS, one shard request on COFS), so one queue "
            "sets both means"
        ),
    },
    **{
        f"{access} read / {files} files": {
            (
                f"aggregate={size}, nodes=1, per-node={mib}MB",
                "aggregate=256MB, nodes=1, per-node=256MB",
            ): ONE_READER
            for size, mib in (("1GB", 1024), ("4GB", 4096))
        }
        for access in ("sequential", "random")
        for files in ("separate", "shared")
    },
    "sequential write / shared files": {
        (
            "aggregate=4GB, nodes=8, per-node=512MB",
            "aggregate=4GB, nodes=4, per-node=1024MB",
        ): "writes to the one shared file run at one gigabit link's 110 MiB/s from 4 nodes on",
    },
    "shared-directory storm vs shard count": {
        ("shards=1, policy=elastic", "shards=1, policy=single"): NO_SPLIT,
        ("shards=2, policy=elastic", "shards=2, policy=hash-parent"): NO_SPLIT,
        ("shards=4, policy=elastic", "shards=4, policy=hash-parent"): NO_SPLIT,
        ("shards=8, policy=elastic", "shards=8, policy=hash-parent"): NO_SPLIT,
    },
    "hot-stat storm vs client cache": {
        (
            "shards=1, cache ttl=50ms",
            "shards=1, cache ttl=2ms",
        ): "on one shard a round outlasts both TTLs, so no lease lives into the next round",
    },
    "bursty storm vs read memoization": {
        ("batching=1, memo=on", "batching=1, memo=off"): "a one-op batch memoizes nothing",
    },
    "cascade storm vs correlated failures": {
        (
            f"shards={n}, loops=1, standby=on, admission=on, down (ms)=10.0",
            f"shards={n}, loops=1, standby=on, admission=off, down (ms)=10.0",
        ): "at one loop the promotions leave no convoy, so admission defers nothing"
        for n in (4, 8)
    },
    "placement ablations": {
        (
            "variant=dir limit 2048",
            "variant=paper (hash, spread 8, limit 512)",
        ): "the 512-entry directory limit never binds",
    },
    "mds sharding ablation": {
        (
            "variant=4 shards, subtree (hotspot)",
            "variant=1 shard (paper, centralized)",
        ): "every directory sits under /storm, so subtree keeps them on one shard",
        ("variant=4 shards, elastic", "variant=4 shards, hash-by-parent"): NO_SPLIT,
    },
    "client-cache ablation": {
        (
            "workload=shared-dir (write sharing), cache ttl=10000ms",
            "workload=shared-dir (write sharing), cache ttl=50ms",
        ): "every lease is recalled before either TTL lapses",
    },
}

failures = []


def check(ok, message):
    tag = "ok  " if ok else "FAIL"
    print(f"  [{tag}] {message}")
    if not ok:
        failures.append(message)


def section(report, title):
    for s in report["sections"]:
        if s["title"] == title:
            return s
    print(f"  [FAIL] section missing: {title!r}")
    failures.append(f"missing section {title!r}")
    return None


def column(sec, name):
    try:
        return sec["headers"].index(name)
    except ValueError:
        failures.append(f"column {name!r} missing in {sec['title']!r}")
        print(f"  [FAIL] column missing: {name!r} in {sec['title']!r}")
        return None


def check_shard_monotonicity(report):
    print("shared-directory storm vs shard count:")
    sec = section(report, "shared-directory storm vs shard count")
    if sec is None:
        return
    shards_col = column(sec, "shards")
    rate_col = column(sec, "creates/s")
    if shards_col is None or rate_col is None:
        return
    policy_col = column(sec, "policy")
    static_rows = [
        r
        for r in sec["rows"]
        if policy_col is None or r[policy_col] != "elastic"
    ]
    rows = sorted(static_rows, key=lambda r: float(r[shards_col]))
    check(len(rows) >= 2, f"at least two shard counts swept ({len(rows)} rows)")
    for prev, cur in zip(rows, rows[1:]):
        if float(cur[shards_col]) > MAX_CLAIMED_SHARDS:
            continue  # saturation regime, no monotonicity claim
        ok = float(cur[rate_col]) >= float(prev[rate_col]) - ROUNDING_RATE
        check(
            ok,
            f"creates/s monotone {prev[shards_col]} -> {cur[shards_col]} shards "
            f"({prev[rate_col]} -> {cur[rate_col]})",
        )


def check_batching_monotonicity(report):
    print("shared-directory storm vs batching:")
    sec = section(report, "shared-directory storm vs batching")
    if sec is None:
        return
    batch_col = column(sec, "batching")
    make_col = column(sec, "makespan (ms)")
    if batch_col is None or make_col is None:
        return
    off = [r for r in sec["rows"] if r[batch_col] == "off"]
    on = sorted(
        (r for r in sec["rows"] if r[batch_col] != "off"),
        key=lambda r: int(r[batch_col]),
    )
    check(len(off) == 1, "one batching-off baseline row")
    check(len(on) >= 3, f"max_batch_ops sweep has >= 3 points ({len(on)} rows)")
    for prev, cur in zip(on, on[1:]):
        ok = float(cur[make_col]) <= float(prev[make_col]) + ROUNDING_MS
        check(
            ok,
            f"makespan monotone max_batch_ops {prev[batch_col]} -> {cur[batch_col]} "
            f"({prev[make_col]} -> {cur[make_col]} ms)",
        )
    if off and on:
        best = on[-1]
        ok = float(best[make_col]) < float(off[0][make_col])
        check(
            ok,
            f"largest batch ({best[batch_col]} ops, {best[make_col]} ms) beats "
            f"batching off ({off[0][make_col]} ms)",
        )


def check_hot_stat_non_regression(report):
    print("batching non-wins:")
    sec = section(report, "batching non-wins")
    if sec is None:
        return
    wl_col = column(sec, "workload")
    batch_col = column(sec, "batching")
    make_col = column(sec, "makespan (ms)")
    if wl_col is None or batch_col is None or make_col is None:
        return
    hot = [r for r in sec["rows"] if "hot-stat" in r[wl_col]]
    off = [r for r in hot if r[batch_col] == "off"]
    on = [r for r in hot if r[batch_col] != "off"]
    check(bool(off) and bool(on), "hot-stat measured with batching off and on")
    if not (off and on):
        return
    for row in on:
        ok = float(row[make_col]) <= float(off[0][make_col]) + ROUNDING_MS
        check(
            ok,
            f"batching {row[batch_col]} does not regress hot-stat makespan "
            f"({off[0][make_col]} -> {row[make_col]} ms)",
        )


def check_memoization(report):
    print("bursty storm vs read memoization:")
    sec = section(report, "bursty storm vs read memoization")
    if sec is None:
        return
    batch_col = column(sec, "batching")
    memo_col = column(sec, "memo")
    make_col = column(sec, "makespan (ms)")
    if batch_col is None or memo_col is None or make_col is None:
        return
    off_baseline = [r for r in sec["rows"] if r[batch_col] == "off"]
    check(len(off_baseline) == 1, "one batching-off baseline row")
    sizes = sorted(
        {int(r[batch_col]) for r in sec["rows"] if r[batch_col] != "off"}
    )
    check(len(sizes) >= 3, f"batch-size sweep has >= 3 points ({sizes})")

    def row(size, memo):
        for r in sec["rows"]:
            if r[batch_col] != "off" and int(r[batch_col]) == size and r[memo_col] == memo:
                return r
        return None

    for size in sizes:
        plain, memo = row(size, "off"), row(size, "on")
        if plain is None or memo is None:
            check(False, f"batch size {size} measured with memo off and on")
            continue
        ok = float(memo[make_col]) <= float(plain[make_col]) + ROUNDING_MS
        check(
            ok,
            f"memoized <= unmemoized at {size}-op batches "
            f"({memo[make_col]} vs {plain[make_col]} ms)",
        )
    largest = sizes[-1]
    plain, memo = row(largest, "off"), row(largest, "on")
    if plain is not None and memo is not None:
        check(
            float(memo[make_col]) < float(plain[make_col]),
            f"memoization strictly beats unmemoized at {largest}-op batches "
            f"({memo[make_col]} vs {plain[make_col]} ms)",
        )
        if off_baseline:
            check(
                float(memo[make_col]) < float(off_baseline[0][make_col]),
                f"memoized {largest}-op storm beats batching off "
                f"({memo[make_col]} vs {off_baseline[0][make_col]} ms)",
            )


def check_write_behind(report):
    print("bursty storm vs write-behind journal:")
    sec = section(report, "bursty storm vs write-behind journal")
    if sec is None:
        return
    batch_col = column(sec, "batching")
    wb_col = column(sec, "write-behind")
    make_col = column(sec, "makespan (ms)")
    coal_col = column(sec, "coalesced")
    if batch_col is None or wb_col is None or make_col is None or coal_col is None:
        return
    sizes = sorted({int(r[batch_col]) for r in sec["rows"]})
    check(len(sizes) >= 3, f"batch-size sweep has >= 3 points ({sizes})")

    def row(size, wb):
        for r in sec["rows"]:
            if int(r[batch_col]) == size and r[wb_col] == wb:
                return r
        return None

    for size in sizes:
        plain, behind = row(size, "off"), row(size, "on")
        if plain is None or behind is None:
            check(False, f"batch size {size} measured with write-behind off and on")
            continue
        ok = float(behind[make_col]) <= float(plain[make_col]) + ROUNDING_MS
        check(
            ok,
            f"write-behind <= journal-off at {size}-op batches "
            f"({behind[make_col]} vs {plain[make_col]} ms)",
        )
        check(
            float(behind[coal_col]) > 0,
            f"journal-on coalesces sibling rows at {size}-op batches "
            f"({behind[coal_col]} rows)",
        )
        check(
            float(plain[coal_col]) == 0,
            f"journal-off coalesces nothing at {size}-op batches "
            f"({plain[coal_col]} rows)",
        )
    largest = sizes[-1]
    plain, behind = row(largest, "off"), row(largest, "on")
    if plain is not None and behind is not None:
        check(
            float(behind[make_col]) < float(plain[make_col]),
            f"write-behind strictly beats the memoized-only storm at "
            f"{largest}-op batches ({behind[make_col]} vs {plain[make_col]} ms)",
        )


def check_read_priority(report):
    print("mixed stat+create storm vs read priority:")
    sec = section(report, "mixed stat+create storm vs read priority")
    if sec is None:
        return
    batch_col = column(sec, "batching")
    lane_col = column(sec, "lane")
    p99_col = column(sec, "stat p99 (ms)")
    if batch_col is None or lane_col is None or p99_col is None:
        return

    def row(batching, lane):
        for r in sec["rows"]:
            if r[batch_col] == batching and r[lane_col] == lane:
                return r
        return None

    batchings = []
    for r in sec["rows"]:
        if r[batch_col] not in batchings:
            batchings.append(r[batch_col])
    check(len(batchings) >= 3, f"batching sweep has >= 3 points ({batchings})")
    for b in batchings:
        fifo, prio = row(b, "fifo"), row(b, "priority")
        if fifo is None or prio is None:
            check(False, f"batching {b} measured under fifo and priority")
            continue
        ok = float(prio[p99_col]) <= float(fifo[p99_col]) + ROUNDING_MS
        check(
            ok,
            f"priority stat p99 <= fifo at batching {b} "
            f"({prio[p99_col]} vs {fifo[p99_col]} ms)",
        )
    on_sizes = [b for b in batchings if b != "off"]
    if not on_sizes:
        return
    largest = max(on_sizes, key=int)
    fifo_l, prio_l = row(largest, "fifo"), row(largest, "priority")
    prio_off = row("off", "priority")
    if fifo_l is None or prio_l is None or prio_off is None:
        check(False, "largest-batch and batching-off rows present for both lanes")
        return
    check(
        float(fifo_l[p99_col]) > float(prio_l[p99_col]) + ROUNDING_MS,
        f"fifo p99 at {largest}-op batches exceeds priority "
        f"({fifo_l[p99_col]} vs {prio_l[p99_col]} ms): the lane's win is real",
    )
    cap = TAIL_GROWTH_CAP * float(prio_off[p99_col]) + ROUNDING_MS
    check(
        float(prio_l[p99_col]) <= cap,
        f"priority p99 at {largest}-op batches ({prio_l[p99_col]} ms) stays within "
        f"{TAIL_GROWTH_CAP}x of its batching-off value ({prio_off[p99_col]} ms)",
    )


def check_elastic(report):
    print("elastic policy (storm scaling + skewed tenants):")
    sec = section(report, "shared-directory storm vs shard count")
    if sec is not None:
        shards_col = column(sec, "shards")
        policy_col = column(sec, "policy")
        rate_col = column(sec, "creates/s")
        if shards_col is not None and policy_col is not None and rate_col is not None:
            rows = sorted(
                (r for r in sec["rows"] if r[policy_col] == "elastic"),
                key=lambda r: float(r[shards_col]),
            )
            check(
                len(rows) >= 2,
                f"elastic swept at >= 2 shard counts ({len(rows)} rows)",
            )
            for prev, cur in zip(rows, rows[1:]):
                # Strict: load-adaptive splitting must keep *gaining*
                # through every swept count, where the static rows are
                # allowed to saturate past MAX_CLAIMED_SHARDS.
                check(
                    float(cur[rate_col]) > float(prev[rate_col]),
                    f"elastic creates/s strictly grows {prev[shards_col]} -> "
                    f"{cur[shards_col]} shards ({prev[rate_col]} -> {cur[rate_col]})",
                )
    sec = section(report, "skewed multi-tenant storm vs shard policy")
    if sec is None:
        return
    shards_col = column(sec, "shards")
    policy_col = column(sec, "policy")
    make_col = column(sec, "makespan (ms)")
    if shards_col is None or policy_col is None or make_col is None:
        return
    counts = []
    for r in sec["rows"]:
        if r[shards_col] not in counts:
            counts.append(r[shards_col])
    check(bool(counts), f"skewed storm swept >= 1 shard count ({counts})")
    for n in counts:
        rows = [r for r in sec["rows"] if r[shards_col] == n]
        statics = [r for r in rows if r[policy_col] != "elastic"]
        elastic = [r for r in rows if r[policy_col] == "elastic"]
        if not statics or len(elastic) != 1:
            check(
                False,
                f"{n} shards measured with static policies and one elastic row",
            )
            continue
        best = min(float(r[make_col]) for r in statics)
        got = float(elastic[0][make_col])
        check(
            got <= best + ROUNDING_MS,
            f"elastic makespan beats best static at {n} shards "
            f"({got} vs {best} ms)",
        )


def check_failover(report):
    print("failover storm vs crash timing:")
    sec = section(report, "failover storm vs crash timing")
    if sec is None:
        return
    cols = {
        name: column(sec, name)
        for name in (
            "shards",
            "journal",
            "crash at (ms)",
            "down (ms)",
            "makespan (ms)",
            "nacks",
            "lost acked",
            "gap (ms)",
            "recovery (ms)",
        )
    }
    if any(v is None for v in cols.values()):
        return
    shards_col = cols["shards"]
    journal_col = cols["journal"]
    crash_col = cols["crash at (ms)"]
    down_col = cols["down (ms)"]
    make_col = cols["makespan (ms)"]
    nacks_col = cols["nacks"]
    lost_col = cols["lost acked"]
    gap_col = cols["gap (ms)"]
    rec_col = cols["recovery (ms)"]
    groups = []
    for r in sec["rows"]:
        key = (r[shards_col], r[journal_col])
        if key not in groups:
            groups.append(key)
    crash_rows = [r for r in sec["rows"] if r[crash_col] != "-"]
    check(bool(crash_rows), f"at least one crash row measured ({len(sec['rows'])} rows)")
    for shards, journal in groups:
        rows = [
            r
            for r in sec["rows"]
            if (r[shards_col], r[journal_col]) == (shards, journal)
        ]
        base = [r for r in rows if r[crash_col] == "-"]
        crashed = [r for r in rows if r[crash_col] != "-"]
        if len(base) != 1 or not crashed:
            check(
                False,
                f"{shards} shards (journal {journal}): one fault-free baseline "
                f"row and >= 1 crash row",
            )
            continue
        base_ms = float(base[0][make_col])
        for r in crashed:
            label = (
                f"{shards} shards, journal {journal}, "
                f"crash at {r[crash_col]} ms, down {r[down_col]} ms"
            )
            check(
                float(r[lost_col]) == 0,
                f"zero lost acked ops ({label}: {r[lost_col]})",
            )
            check(
                float(r[nacks_col]) > 0,
                f"crash observed and ridden out ({label}: {r[nacks_col]} nacks)",
            )
            check(
                float(r[gap_col]) >= float(r[down_col]) - ROUNDING_MS,
                f"availability gap covers the scripted downtime "
                f"({label}: gap {r[gap_col]} ms)",
            )
            bound = (
                FAILOVER_SLACK * (base_ms + float(r[gap_col]) + float(r[rec_col]))
                + ROUNDING_MS
            )
            check(
                float(r[make_col]) <= bound,
                f"crashed makespan bounded by (baseline + gap + recovery) x "
                f"{FAILOVER_SLACK} ({label}: {r[make_col]} <= {bound:.2f} ms)",
            )


def check_cascade(report):
    print("cascade storm vs correlated failures:")
    sec = section(report, "cascade storm vs correlated failures")
    if sec is None:
        return
    cols = {
        name: column(sec, name)
        for name in (
            "shards",
            "loops",
            "standby",
            "admission",
            "down (ms)",
            "makespan (ms)",
            "lost acked",
            "promoted",
            "gap (ms)",
        )
    }
    if any(v is None for v in cols.values()):
        return
    shards_col = cols["shards"]
    loops_col = cols["loops"]
    standby_col = cols["standby"]
    adm_col = cols["admission"]
    down_col = cols["down (ms)"]
    make_col = cols["makespan (ms)"]
    lost_col = cols["lost acked"]
    prom_col = cols["promoted"]
    gap_col = cols["gap (ms)"]
    fault_rows = [r for r in sec["rows"] if r[loops_col] != "-"]
    check(bool(fault_rows), f"at least one fault row measured ({len(sec['rows'])} rows)")

    def label(r):
        return (
            f"{r[shards_col]} shards, loops {r[loops_col]}, "
            f"standby {r[standby_col]}, admission {r[adm_col]}"
        )

    def match(rows, **want):
        sel = {
            "shards": shards_col,
            "loops": loops_col,
            "standby": standby_col,
            "admission": adm_col,
        }
        out = [
            r
            for r in rows
            if all(r[sel[k]] == v for k, v in want.items())
        ]
        return out[0] if len(out) == 1 else None

    for r in fault_rows:
        check(
            float(r[lost_col]) == 0,
            f"zero lost acked ops ({label(r)}: {r[lost_col]})",
        )
    for r in fault_rows:
        if r[standby_col] != "on":
            continue
        cold = match(
            fault_rows,
            shards=r[shards_col],
            loops=r[loops_col],
            standby="off",
            admission=r[adm_col],
        )
        if cold is None:
            check(False, f"knobs-matched standby-off row exists for {label(r)}")
            continue
        check(
            float(r[gap_col]) < float(cold[gap_col]),
            f"standby strictly shrinks the gap ({label(r)}: "
            f"{r[gap_col]} < {cold[gap_col]} ms)",
        )
        floor = float(r[loops_col]) * float(r[down_col])
        check(
            float(r[gap_col]) < floor,
            f"standby gap beats the loops x down scripted floor "
            f"({label(r)}: {r[gap_col]} < {floor:.2f} ms)",
        )
        check(
            float(r[prom_col]) > 0,
            f"crashes absorbed by promotion ({label(r)}: {r[prom_col]} promoted)",
        )
    for r in fault_rows:
        # The admission win is gated where the convoy is visible: on
        # the standby-off rows the whole backlog returns after a long
        # scripted outage, and retry-after pacing must strictly beat
        # backoff overshoot. (Behind a promotion the outage is too
        # short for a convoy to form, so no claim is made there.)
        if r[standby_col] != "off" or r[adm_col] != "on":
            continue
        unpaced = match(
            fault_rows,
            shards=r[shards_col],
            loops=r[loops_col],
            standby="off",
            admission="off",
        )
        if unpaced is None:
            check(False, f"admission-off partner row exists for {label(r)}")
            continue
        check(
            float(r[make_col]) < float(unpaced[make_col]),
            f"admission strictly shrinks the post-recovery makespan "
            f"({label(r)}: {r[make_col]} < {unpaced[make_col]} ms)",
        )


def row_name(sec, row):
    """A row as its section title and configuration cells."""
    return f"{sec['title']!r}, {config_label(sec['headers'], row)}"


def check_fig1(report):
    print("fig 1: stat-cache knee and create growth:")
    for op in ("stat", "utime", "open_close"):
        sec = section(report, f"avg. time per {op}")
        if sec is None:
            continue
        dir_col = column(sec, "files/dir")
        ms_col = column(sec, "1 process (ms)")
        if dir_col is None or ms_col is None:
            continue
        below = [r for r in sec["rows"] if r[dir_col] <= FIG1_KNEE]
        above = [r for r in sec["rows"] if r[dir_col] > FIG1_KNEE]
        check(
            bool(below) and bool(above),
            f"{op}: rows on both sides of the {FIG1_KNEE}-entry knee "
            f"({len(below)} and {len(above)})",
        )
        for r in below:
            check(
                r[ms_col] <= FIG1_HIT_MS,
                f"{row_name(sec, r)}: 1 process {r[ms_col]} ms <= {FIG1_HIT_MS} ms (cache hit)",
            )
        floor = FIG1_CLIFF * FIG1_HIT_MS
        for r in above:
            check(
                r[ms_col] >= floor,
                f"{row_name(sec, r)}: 1 process {r[ms_col]} ms >= {floor:.1f} ms (past the cache)",
            )
    sec = section(report, "avg. time per create")
    if sec is None:
        return
    dir_col = column(sec, "files/dir")
    if dir_col is None:
        return
    rows = sorted(
        (r for r in sec["rows"] if r[dir_col] >= FIG1_GROWTH_FROM), key=lambda r: r[dir_col]
    )
    check(len(rows) >= 2, f"create swept at >= 2 sizes from {FIG1_GROWTH_FROM} ({len(rows)})")
    for name in ("1 process (ms)", "2 processes (ms)"):
        col = column(sec, name)
        if col is None:
            continue
        for prev, cur in zip(rows, rows[1:]):
            check(
                cur[col] > prev[col],
                f"create {name[:-5]} rises {prev[dir_col]} -> {cur[dir_col]} files/dir "
                f"({prev[col]} -> {cur[col]} ms)",
            )


def check_cofs_below_gpfs(report, titles, gpfs_name, cofs_name):
    """Every row of each section in `titles` has COFS below GPFS."""
    for title in titles:
        sec = section(report, title)
        if sec is None:
            continue
        g_col, c_col = column(sec, gpfs_name), column(sec, cofs_name)
        if g_col is None or c_col is None:
            continue
        check(bool(sec["rows"]), f"{title!r} has rows")
        for r in sec["rows"]:
            g, c = float(r[g_col]), float(r[c_col])
            check(
                c < g,
                f"{row_name(sec, r)}: cofs {c} ms below gpfs {g} ms"
                + (f" ({g / c:.1f}x)" if c > 0 else ""),
            )


def check_fig4(report):
    print("fig 4: COFS create beats GPFS at every point:")
    titles = ("4 nodes", "8 nodes")
    check_cofs_below_gpfs(report, titles, "gpfs create (ms)", "cofs create (ms)")


def check_fig5(report):
    print("fig 5: COFS stat, utime and open_close beat GPFS at every point:")
    titles = [
        f"avg. time per {op} — {n} nodes"
        for op in ("stat", "utime", "open_close")
        for n in (4, 8)
    ]
    check_cofs_below_gpfs(report, titles, "gpfs (ms)", "cofs (ms)")


def check_table1(report):
    print("table I: who wins which transfer:")

    def mb(cell):
        return int(cell.removesuffix("MB"))

    for access in ("sequential", "random"):
        for op in ("read", "write"):
            for files in ("separate", "shared"):
                sec = section(report, f"{access} {op} / {files} files")
                if sec is None:
                    continue
                cols = [column(sec, h) for h in ("aggregate", "nodes", "per-node")]
                g_col, c_col = column(sec, "gpfs (MiB/s)"), column(sec, "cofs (MiB/s)")
                if None in cols or g_col is None or c_col is None:
                    continue
                agg_col, nodes_col, per_col = cols

                def ratio(r):
                    return float(r[c_col]) / float(r[g_col])

                for r in sec["rows"]:
                    name = f"{row_name(sec, r)}: cofs/gpfs {ratio(r):.3f}"
                    if op == "read":
                        pooled = files == "separate" and r[nodes_col] > 1
                        if pooled and mb(r[per_col]) <= PAGEPOOL_MB:
                            check(
                                ratio(r) < SMALL_READ_RATIO,
                                f"{name} < {SMALL_READ_RATIO} (GPFS page-pool hit)",
                            )
                        else:
                            check(ratio(r) > COMPARABLE_RATIO, f"{name} > {COMPARABLE_RATIO}")
                    elif r[nodes_col] == 1:
                        lo, hi = WRITE_DRAWBACK
                        check(lo <= ratio(r) < hi, f"{name} in [{lo}, {hi}) (FUSE copy)")
                if op != "write" or files != "separate":
                    continue
                small = {r[nodes_col]: r for r in sec["rows"] if r[agg_col] == "256MB"}
                if 4 not in small or 8 not in small:
                    check(False, f"{sec['title']!r}: 256MB written from 4 and 8 nodes")
                    continue
                g4, g8 = float(small[4][g_col]), float(small[8][g_col])
                check(g8 < g4, f"{sec['title']!r}: gpfs 256MB slows 4 -> 8 nodes ({g4} -> {g8})")
                check(
                    ratio(small[8]) > WRITE_8_NODE_RATIO,
                    f"{row_name(sec, small[8])}: cofs/gpfs {ratio(small[8]):.3f} > "
                    f"{WRITE_8_NODE_RATIO}",
                )


PAPER_CHECKS = {"fig1": check_fig1, "fig4": check_fig4, "fig5": check_fig5, "table1": check_table1}


def config_label(headers, row):
    """A row's configuration cells, as ``shards=2, policy=elastic``."""
    return ", ".join(f"{h}={v}" for h, v in zip(headers, row) if h in CONFIG_COLUMNS)


def audit_repeats(report):
    print("repeated sweep rows:")
    for sec in report["sections"]:
        title, headers = sec["title"], sec["headers"]
        declared = DECLARED_REPEATS.get(title, {})
        first = {}
        found = set()
        for row in sec["rows"]:
            cells = tuple(
                (type(v), v) for h, v in zip(headers, row) if h not in CONFIG_COLUMNS
            )
            label = config_label(headers, row)
            if cells not in first:
                first[cells] = label
                continue
            pair = (label, first[cells])
            found.add(pair)
            reason = declared.get(pair)
            check(
                reason is not None,
                f"{title!r}: {label} repeats {first[cells]}"
                + (f" ({reason})" if reason else ", undeclared in DECLARED_REPEATS"),
            )
        for row, twin in declared:
            if (row, twin) not in found:
                check(False, f"{title!r}: declared repeat {row} = {twin} no longer repeats")


def key_width(headers, *row_lists):
    """Shortest leading-cell count that keys every row list uniquely."""
    for width in range(1, len(headers) + 1):
        if all(
            len({tuple(r[:width]) for r in rows}) == len(rows) for rows in row_lists
        ):
            return width
    return len(headers)


def row_label(headers, key):
    return ", ".join(f"{h}={v}" for h, v in zip(headers, key))


def diff_reports(old, new):
    """Lists every difference between two reports, one line each."""
    lines = []
    for field in ("bench", "smoke"):
        if old.get(field) != new.get(field):
            lines.append(f"{field}: {old.get(field)!r} -> {new.get(field)!r}")
    old_secs = {s["title"]: s for s in old["sections"]}
    new_secs = {s["title"]: s for s in new["sections"]}
    for title in old_secs:
        if title not in new_secs:
            lines.append(f"section removed: {title!r}")
    for title in new_secs:
        if title not in old_secs:
            lines.append(f"section added: {title!r}")
    for title, o in old_secs.items():
        n = new_secs.get(title)
        if n is None:
            continue
        if o["headers"] != n["headers"]:
            lines.append(f"{title!r}: headers {o['headers']} -> {n['headers']}")
            continue
        headers = o["headers"]
        width = key_width(headers, o["rows"], n["rows"])
        old_rows = {tuple(r[:width]): r for r in o["rows"]}
        new_rows = {tuple(r[:width]): r for r in n["rows"]}
        for key in old_rows:
            if key not in new_rows:
                lines.append(f"{title!r}: row removed: {row_label(headers, key)}")
        for key in new_rows:
            if key not in old_rows:
                lines.append(f"{title!r}: row added: {row_label(headers, key)}")
        for key, orow in old_rows.items():
            nrow = new_rows.get(key)
            if nrow is None:
                continue
            for h, a, b in zip(headers, orow, nrow):
                # 1 and 1.0 are different cells in the file.
                if (type(a), a) != (type(b), b):
                    lines.append(
                        f"{title!r}, row {row_label(headers, key)}, column {h!r}: {a} -> {b}"
                    )
    return lines


def golden_main(golden_path, fresh_path):
    texts = []
    for path in (golden_path, fresh_path):
        try:
            with open(path, encoding="utf-8") as f:
                texts.append(f.read())
        except OSError as e:
            print(f"cannot read {path}: {e}")
            return 1
    try:
        lines = diff_reports(*(json.loads(t) for t in texts))
    except json.JSONDecodeError as e:
        print(f"cannot parse a report: {e}")
        return 1
    print(f"comparing {fresh_path} with the golden {golden_path}")
    for line in lines:
        print(f"  {line}")
    if lines:
        print(f"\n{len(lines)} difference(s)")
        return 1
    if texts[0] != texts[1]:
        print("\nno cell differs, but the files' layout does")
        return 1
    print("\nreports match")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--golden":
        if len(sys.argv) != 4:
            print("usage: bench_check.py --golden <committed.json> <regenerated.json>")
            return 2
        return golden_main(sys.argv[2], sys.argv[3])
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_scaling.json"
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read {path}: {e}")
        return 1
    print(f"checking {path} (bench={report.get('bench')!r}, smoke={report.get('smoke')})")
    if report.get("bench") == "scaling":
        check_shard_monotonicity(report)
        check_batching_monotonicity(report)
        check_hot_stat_non_regression(report)
        check_memoization(report)
        check_write_behind(report)
        check_read_priority(report)
        check_elastic(report)
        check_failover(report)
        check_cascade(report)
    if report.get("smoke") is False:
        paper = PAPER_CHECKS.get(report.get("bench"))
        if paper is not None:
            paper(report)
        audit_repeats(report)
    if failures:
        print(f"\n{len(failures)} check(s) failed")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
