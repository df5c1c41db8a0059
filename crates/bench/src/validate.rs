//! The validators of the `BENCH_2.json` … `BENCH_10.json` documents that
//! `repro` writes. `repro` runs each on the document it has just
//! written; the `committed_artifacts` test runs each on the committed
//! file. Every validator takes the parsed document and returns the first
//! problem found.

use mdm_obs::json::Value;

use crate::harness::{counter_positive, integer, metric_families, number, require, runs};

/// Statement recording may cost at most this share of throughput (BENCH_7).
pub const STATS_MAX_OVERHEAD_PCT: f64 = 5.0;
/// Monitor sampling may cost at most this share of throughput (BENCH_9).
pub const MONITOR_MAX_OVERHEAD_PCT: f64 = 2.0;
/// Every indexed plan fetches at least this many times fewer tuples
/// than its scan twin (BENCH_6).
pub const INDEX_MIN_REDUCTION: f64 = 50.0;
/// The MVCC sweep runs under at least this many writers (BENCH_10).
pub const MVCC_MIN_WRITERS: u64 = 8;
/// A crash-point sweep explores at least this many crash states (BENCH_5).
pub const TORTURE_MIN_CRASH_POINTS: u64 = 10;

/// BENCH_2, the multi-client commit sweep: per-client-count runs and
/// every engine metric family in the embedded snapshot.
pub fn commit_sweep(doc: &Value) -> Result<(), String> {
    for run in runs(doc)? {
        require(run, &["clients", "txns", "micros"], &["txns_per_sec"])?;
    }
    metric_families(
        doc,
        "engine_metrics",
        &[
            "mdm_pool_hits_total",
            "mdm_pool_misses_total",
            "mdm_pool_evictions_total",
            "mdm_wal_appends_total",
            "mdm_wal_fsyncs_total",
            "mdm_wal_fsync_micros",
            "mdm_wal_group_commit_batch",
            "mdm_wal_eviction_syncs_total",
            "mdm_txn_begins_total",
            "mdm_txn_commits_total",
            "mdm_txn_aborts_total",
            "mdm_txn_active",
            "mdm_lock_waits_total",
            "mdm_lock_wait_die_aborts_total",
        ],
    )?;
    Ok(())
}

/// BENCH_3, the network loopback sweep: throughput and latency
/// percentiles per run, and the `mdm_net_*` families (plus the storage
/// stack underneath) in the embedded server snapshot.
pub fn net_loopback(doc: &Value) -> Result<(), String> {
    for run in runs(doc)? {
        require(
            run,
            &["clients", "requests", "micros"],
            &["requests_per_sec", "p50_micros", "p99_micros"],
        )?;
    }
    metric_families(
        doc,
        "server_metrics",
        &[
            "mdm_net_connections_accepted_total",
            "mdm_net_connections_refused_total",
            "mdm_net_connections_active",
            "mdm_net_decode_errors_total",
            "mdm_net_bytes_in_total",
            "mdm_net_bytes_out_total",
            "mdm_net_request_micros",
            "mdm_net_frame_bytes",
            "mdm_net_requests_total",
            "mdm_wal_appends_total",
            "mdm_txn_commits_total",
        ],
    )?;
    Ok(())
}

/// BENCH_4, tracing overhead: paired traced/untraced figures per run and
/// a traced snapshot that actually recorded traces. No overhead gate.
pub fn trace_overhead(doc: &Value) -> Result<(), String> {
    for run in runs(doc)? {
        require(
            run,
            &["clients"],
            &[
                "untraced_requests_per_sec",
                "traced_requests_per_sec",
                "overhead_pct",
                "untraced_p50_micros",
                "untraced_p99_micros",
                "traced_p50_micros",
                "traced_p99_micros",
            ],
        )?;
    }
    let metrics = metric_families(doc, "server_metrics", &["mdm_trace_recorded_total"])?;
    counter_positive(metrics, "mdm_trace_recorded_total", None)
}

/// BENCH_5, the crash-point torture sweep: the census and reopen-latency
/// fields, at least [`TORTURE_MIN_CRASH_POINTS`] crash states explored,
/// no invariant violations, and every `mdm_fault_*` family.
pub fn crash_torture(doc: &Value) -> Result<(), String> {
    require(
        doc,
        &[
            "boundaries",
            "writes",
            "syncs",
            "crash_points",
            "reopen_p50_micros",
            "reopen_p99_micros",
            "reopen_mean_micros",
        ],
        &[],
    )?;
    let crash_points = integer(doc, "crash_points")?;
    if crash_points < TORTURE_MIN_CRASH_POINTS {
        return Err(format!(
            "only {crash_points} crash points explored — the boundary census collapsed"
        ));
    }
    let violations = doc
        .get("violations")
        .and_then(Value::as_array)
        .ok_or("missing violations array")?;
    if !violations.is_empty() {
        let sample: Vec<&str> = violations
            .iter()
            .take(8)
            .filter_map(Value::as_str)
            .collect();
        return Err(format!(
            "{} invariant violation(s), e.g. {sample:?}",
            violations.len()
        ));
    }
    metric_families(
        doc,
        "fault_metrics",
        &[
            "mdm_fault_ops_total",
            "mdm_fault_injected_total",
            "mdm_fault_crashes_total",
            "mdm_fault_crash_points_total",
            "mdm_fault_violations_total",
            "mdm_fault_reopen_micros",
        ],
    )?;
    Ok(())
}

/// BENCH_6, the secondary-index planner: a run per probe query, each
/// with a non-scan access path and at least `min_reduction` times fewer
/// tuples fetched than its scan twin, and the QUEL pipeline counters.
pub fn index_planner(doc: &Value, min_reduction: f64) -> Result<(), String> {
    integer(doc, "entities")?;
    let runs = runs(doc)?;
    if runs.len() < 3 {
        return Err(format!("expected 3 probe runs, found {}", runs.len()));
    }
    for run in runs {
        let name = run
            .get("query")
            .and_then(Value::as_str)
            .ok_or("run is missing query name")?;
        require(
            run,
            &[
                "rows",
                "scan_rows_scanned",
                "scan_micros",
                "indexed_rows_scanned",
                "indexed_micros",
            ],
            &["speedup"],
        )
        .map_err(|e| format!("run {name}: {e}"))?;
        let paths = run
            .get("indexed_paths")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("run {name} is missing indexed_paths"))?;
        if !paths
            .iter()
            .any(|p| p.as_str().is_some_and(|p| p != "scan"))
        {
            return Err(format!("run {name} chose no non-scan access path"));
        }
        let reduction = number(run, "scanned_reduction")?;
        if reduction < min_reduction {
            return Err(format!(
                "run {name} reduced tuple traffic only {reduction:.1}×, need ≥{min_reduction:.0}×"
            ));
        }
    }
    metric_families(
        doc,
        "quel_metrics",
        &[
            "mdm_quel_rows_scanned_total",
            "mdm_quel_rows_returned_total",
            "mdm_quel_exec_micros",
        ],
    )?;
    Ok(())
}

/// Checks one paired-overhead run: both throughputs, and the gated
/// `overhead_pct` at or below `max_overhead_pct`.
fn overhead_within(run: &Value, what: &str, max_overhead_pct: f64) -> Result<(), String> {
    let clients = integer(run, "clients")?;
    require(run, &[], &["off_requests_per_sec", "on_requests_per_sec"])?;
    let overhead = number(run, "overhead_pct")?;
    if overhead > max_overhead_pct {
        return Err(format!(
            "{clients}-client {what} costs {overhead:.2}% throughput, budget is {max_overhead_pct}%"
        ));
    }
    Ok(())
}

/// BENCH_7, statement-statistics overhead: recording within
/// `max_overhead_pct` of bypassed throughput, statements recorded only
/// while recording, and the planner's scan path exercised.
pub fn stats_overhead(doc: &Value, max_overhead_pct: f64) -> Result<(), String> {
    for run in runs(doc)? {
        overhead_within(run, "recording", max_overhead_pct)?;
        let recorded = integer(run, "statements_recorded")?;
        if recorded < 2 {
            return Err(format!(
                "recording run captured only {recorded} distinct statements"
            ));
        }
        if integer(run, "statements_recorded_off")? != 0 {
            return Err("bypassed run must record nothing".into());
        }
    }
    let metrics = metric_families(
        doc,
        "server_metrics",
        &["mdm_quel_plan_total", "mdm_net_requests_total"],
    )?;
    counter_positive(metrics, "mdm_quel_plan_total", Some(("path", "scan")))
}

/// BENCH_8, replication fan-out: throughput and lag percentiles per
/// topology, and the `mdm_repl_*` families with replicated records.
pub fn repl_fanout(doc: &Value) -> Result<(), String> {
    for run in runs(doc)? {
        require(
            run,
            &[
                "replicas",
                "readers",
                "reads",
                "writes_during",
                "lag_p50_records",
                "lag_p99_records",
            ],
            &["reads_per_sec"],
        )?;
    }
    let metrics = metric_families(
        doc,
        "replica_metrics",
        &[
            "mdm_repl_applied_lsn",
            "mdm_repl_lag_bytes",
            "mdm_repl_batches_total",
            "mdm_repl_records_total",
            "mdm_repl_statements_total",
        ],
    )?;
    counter_positive(metrics, "mdm_repl_records_total", None)
}

/// BENCH_9, continuous-monitoring overhead: sampling within
/// `max_overhead_pct` of passive throughput, samples taken only while
/// sampling, and the monitor and process families present.
pub fn monitor_overhead(doc: &Value, max_overhead_pct: f64) -> Result<(), String> {
    for run in runs(doc)? {
        overhead_within(run, "sampling", max_overhead_pct)?;
        let samples = integer(run, "samples")?;
        if samples < 2 {
            return Err(format!("sampling run took only {samples} samples"));
        }
        if integer(run, "samples_off")? != 0 {
            return Err("passive run must take no samples".into());
        }
    }
    metric_families(
        doc,
        "server_metrics",
        &[
            "mdm_monitor_samples_total",
            "mdm_process_resident_bytes",
            "mdm_process_open_fds",
            "mdm_process_threads",
            "mdm_net_requests_total",
        ],
    )?;
    Ok(())
}

/// BENCH_10, MVCC snapshot reads: at least `min_writers` writers that
/// actually wrote in every cell, snapshot reads at or above the 2PL
/// baseline at every reader count with exactly zero snapshot-reader
/// aborts, and snapshots counted in the MVCC metrics.
pub fn mvcc_reads(doc: &Value, min_writers: u64) -> Result<(), String> {
    let writers = integer(doc, "writers")?;
    if writers < min_writers {
        return Err(format!(
            "write load is {writers} clients, need at least {min_writers}"
        ));
    }
    for run in runs(doc)? {
        let readers = integer(run, "readers")?;
        let locked = number(run, "locked_reads_per_sec")?;
        let snapshot = number(run, "snapshot_reads_per_sec")?;
        if snapshot < locked {
            return Err(format!(
                "{readers}-reader snapshot throughput {snapshot:.1}/s is below \
                 the 2PL baseline {locked:.1}/s"
            ));
        }
        if integer(run, "snapshot_reader_aborts")? != 0 {
            return Err(format!(
                "{readers}-reader snapshot cell recorded reader aborts"
            ));
        }
        for key in ["locked_writes", "snapshot_writes"] {
            if integer(run, key)? == 0 {
                return Err(format!(
                    "{readers}-reader cell has no {key}: write load did not run"
                ));
            }
        }
    }
    let metrics = metric_families(
        doc,
        "mvcc_metrics",
        &[
            "mdm_mvcc_snapshots_total",
            "mdm_mvcc_versions_reclaimed_total",
            "mdm_mvcc_snapshots_open",
        ],
    )?;
    counter_positive(metrics, "mdm_mvcc_snapshots_total", None)
}
