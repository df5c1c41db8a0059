//! Every committed `BENCH_*.json` at the repository root passes the
//! validator `repro` runs on the document it writes, at the full
//! bench's gates. A validator that drifts from the format `repro`
//! emits fails here.

use mdm_bench::validate;
use mdm_obs::json::Value;

fn check(file: &str, validator: impl Fn(&Value) -> Result<(), String>) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let doc = mdm_obs::json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    if let Err(e) = validator(&doc) {
        panic!("{file} fails its validator: {e}");
    }
}

#[test]
fn committed_bench_documents_pass_their_validators() {
    check("BENCH_2.json", validate::commit_sweep);
    check("BENCH_3.json", validate::net_loopback);
    check("BENCH_4.json", validate::trace_overhead);
    check("BENCH_5.json", validate::crash_torture);
    check("BENCH_6.json", |d| {
        validate::index_planner(d, validate::INDEX_MIN_REDUCTION)
    });
    check("BENCH_7.json", |d| {
        validate::stats_overhead(d, validate::STATS_MAX_OVERHEAD_PCT)
    });
    check("BENCH_8.json", validate::repl_fanout);
    check("BENCH_9.json", |d| {
        validate::monitor_overhead(d, validate::MONITOR_MAX_OVERHEAD_PCT)
    });
    check("BENCH_10.json", |d| {
        validate::mvcc_reads(d, validate::MVCC_MIN_WRITERS)
    });
}
