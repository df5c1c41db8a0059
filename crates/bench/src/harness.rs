//! The one bench harness behind `repro` and the `benches/` targets:
//! scratch directories, timing statistics, the loopback sweep, paired
//! overhead rounds, and the JSON document writer together with the
//! checks every `BENCH_*` validator in [`crate::validate`] is built from.
//!
//! Every statistic is taken over raw samples with one nearest-rank
//! [`percentile`]; nothing is interpolated from histogram buckets.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mdm_core::MusicDataManager;
use mdm_net::{ClientConfig, MdmClient, MdmServer, ServerConfig};
use mdm_obs::json::Value;
use mdm_obs::Snapshot;

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it when the guard drops.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `mdm-bench-<tag>-<pid>-<n>`, unique within the process.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mdm-bench-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Nearest-rank percentile: the smallest sample with at least a `q`
/// share of all samples at or below it (`q` in `(0, 1]`). The default
/// value (zero) when there are no samples.
pub fn percentile<T: Copy + PartialOrd + Default>(samples: &[T], q: f64) -> T {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    match rank.clamp(1, sorted.len().max(1)).checked_sub(1) {
        Some(i) if i < sorted.len() => sorted[i],
        _ => T::default(),
    }
}

/// Timed rounds per [`measure`] call, after one warm-up call.
pub const ROUNDS: usize = 10;

/// Wall time one round aims for; the warm-up call sizes the rounds.
const ROUND_TARGET: Duration = Duration::from_millis(10);

/// Per-call time over a [`measure`] call's rounds.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median round, nearest rank.
    pub median: Duration,
    /// Fastest round.
    pub min: Duration,
    /// Slowest round.
    pub max: Duration,
    /// Calls per round.
    pub iters: u32,
}

/// Times `f`: one warm-up call, then [`ROUNDS`] rounds of the same
/// number of calls. Prints `label: median [min, max] / iter` and
/// returns the per-call figures.
pub fn measure<R>(label: &str, mut f: impl FnMut() -> R) -> Summary {
    measure_setup(label, || (), |()| f())
}

/// [`measure`] over fresh inputs: `setup` builds one input per call
/// before its round starts, and the round's outputs drop after its
/// clock stops, so neither setup nor teardown is timed.
pub fn measure_setup<I, R>(
    label: &str,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> R,
) -> Summary {
    // The warm-up's full wall time, setup included, sizes each round,
    // which also bounds how much setup a round does.
    let started = Instant::now();
    drop(black_box(routine(setup())));
    let once = started.elapsed().as_nanos().max(1);
    let iters = (ROUND_TARGET.as_nanos() / once).clamp(1, u32::MAX as u128) as u32;
    let mut per_call = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
        let mut outputs = Vec::with_capacity(inputs.len());
        let started = Instant::now();
        for input in inputs {
            outputs.push(black_box(routine(black_box(input))));
        }
        per_call.push(started.elapsed() / iters);
        drop(outputs);
    }
    let summary = Summary {
        median: percentile(&per_call, 0.5),
        min: percentile(&per_call, 0.0),
        max: percentile(&per_call, 1.0),
        iters,
    };
    println!(
        "{label}: {} [{}, {}] / iter ({ROUNDS} rounds x {iters})",
        fmt_duration(summary.median),
        fmt_duration(summary.min),
        fmt_duration(summary.max)
    );
    summary
}

fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// One loopback sweep's results.
pub struct Sweep {
    /// Wall time from the first client op to the last.
    pub elapsed: Duration,
    /// Every op's client-side latency, in nanoseconds, over all clients.
    pub latencies_ns: Vec<u64>,
    /// The server's metrics after the drained shutdown.
    pub snapshot: Snapshot,
    /// The manager the server returned at shutdown.
    pub mdm: MusicDataManager,
    // Declared after `mdm`: fields drop in order, so the manager closes
    // before its directory is removed.
    _dir: ScratchDir,
}

impl Sweep {
    /// Completed ops per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Client-side latency percentile in microseconds.
    pub fn latency_us(&self, q: f64) -> f64 {
        percentile(&self.latencies_ns, q) as f64 / 1e3
    }
}

/// Serves a fresh MDM over loopback and drives it with `clients`
/// connections of `ops_per_client` ops each. `setup` prepares the
/// manager in-process (schema, statement store, tracer) and returns the
/// server config; `op(client, worker, i)` issues worker `worker`'s
/// `i`-th op. Each op is timed at the client.
pub fn loopback_sweep(
    clients: usize,
    ops_per_client: usize,
    setup: impl FnOnce(&mut MusicDataManager) -> ServerConfig,
    op: impl Fn(&mut MdmClient, usize, usize) + Sync,
) -> Sweep {
    let dir = ScratchDir::new("sweep");
    let mut mdm = MusicDataManager::open(dir.path()).expect("open MDM");
    let config = setup(&mut mdm);
    let server = MdmServer::start(mdm, "127.0.0.1:0", config).expect("start server");
    let addr = server.local_addr().to_string();
    let started = Instant::now();
    let per_client: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|worker| {
                let (addr, op) = (&addr, &op);
                scope.spawn(move || {
                    let config = ClientConfig {
                        client_name: format!("sweep-{worker}"),
                        ..ClientConfig::default()
                    };
                    let mut c = MdmClient::connect(addr, config).expect("connect");
                    (0..ops_per_client)
                        .map(|i| {
                            let t = Instant::now();
                            op(&mut c, worker, i);
                            t.elapsed().as_nanos() as u64
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("sweep client"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mdm = server.shutdown().expect("shutdown");
    Sweep {
        elapsed,
        latencies_ns: per_client.concat(),
        snapshot: mdm.metrics_snapshot(),
        mdm,
        _dir: dir,
    }
}

/// Paired overhead rounds: each round runs the baseline and then the
/// treated condition back to back, so machine noise that drifts over
/// minutes is shared within a pair and cancels in its overhead.
pub struct Paired<T> {
    /// Every round's `(baseline, treated)` runs, in order.
    pub runs: Vec<(T, T)>,
    rates: Vec<(f64, f64)>,
}

/// Runs `rounds` pairs of `run(false)` (baseline) then `run(true)`
/// (treated); `rate` reads a run's throughput.
pub fn paired_rounds<T>(
    rounds: usize,
    mut run: impl FnMut(bool) -> T,
    rate: impl Fn(&T) -> f64,
) -> Paired<T> {
    let runs: Vec<(T, T)> = (0..rounds).map(|_| (run(false), run(true))).collect();
    let rates = runs.iter().map(|(b, t)| (rate(b), rate(t))).collect();
    Paired { runs, rates }
}

impl<T> Paired<T> {
    /// Each round's throughput cost of the treatment, in percent of its
    /// own baseline.
    pub fn overheads_pct(&self) -> Vec<f64> {
        self.rates
            .iter()
            .map(|&(base, treated)| {
                if base > 0.0 {
                    (base - treated) / base * 100.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// The round with the smallest paired overhead. Its overhead is the
    /// statistic the overhead gates test, and its runs supply the counts
    /// those gates check beside it.
    pub fn into_gated_round(mut self) -> (T, T) {
        let overheads = self.overheads_pct();
        let gated = (0..overheads.len())
            .min_by(|&a, &b| overheads[a].total_cmp(&overheads[b]))
            .expect("at least one round");
        self.runs.swap_remove(gated)
    }

    /// The document fields for the pair: the median baseline and treated
    /// throughputs under the given keys, `overhead_pct` (the gated
    /// round's overhead, see [`Paired::into_gated_round`]),
    /// `median_overhead_pct`, and every round in `round_overheads_pct`.
    pub fn fields(&self, base_key: &'static str, treated_key: &'static str) -> Fields {
        let base: Vec<f64> = self.rates.iter().map(|r| r.0).collect();
        let treated: Vec<f64> = self.rates.iter().map(|r| r.1).collect();
        let overheads = self.overheads_pct();
        vec![
            (base_key, percentile(&base, 0.5).into()),
            (treated_key, percentile(&treated, 0.5).into()),
            ("overhead_pct", percentile(&overheads, 0.0).into()),
            ("median_overhead_pct", percentile(&overheads, 0.5).into()),
            (
                "round_overheads_pct",
                Json::Arr(overheads.into_iter().map(Json::from).collect()),
            ),
        ]
    }
}

/// A JSON value to be written; see [`write_document`].
#[derive(Debug, Clone)]
pub enum Json {
    /// A non-negative integer.
    Int(u64),
    /// A number, written with two decimals.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in the given order.
    Obj(Fields),
    /// Text that is already JSON, such as a metrics snapshot export.
    Raw(String),
}

/// An object's fields, in output order.
pub type Fields = Vec<(&'static str, Json)>;

impl Json {
    /// An object from its fields.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
            Json::Num(x) => write!(out, "{x:.2}").expect("write to String"),
            Json::Bool(b) => write!(out, "{b}").expect("write to String"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
            Json::Raw(text) => out.push_str(text),
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<&Snapshot> for Json {
    fn from(s: &Snapshot) -> Json {
        Json::Raw(s.to_json())
    }
}

/// Writes `doc` as newline-terminated text, re-parses that text with
/// the observability crate's own parser, and runs `check` on the parsed
/// document. Returns the text only when both pass.
pub fn write_document(
    doc: &Json,
    check: impl FnOnce(&Value) -> Result<(), String>,
) -> Result<String, String> {
    let mut text = String::new();
    doc.write(&mut text);
    text.push('\n');
    let parsed = mdm_obs::json::parse(&text).map_err(|e| format!("document is not JSON: {e}"))?;
    check(&parsed)?;
    Ok(text)
}

/// The integer field `key` of `v`.
pub fn integer(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field {key}"))
}

/// The number field `key` of `v`.
pub fn number(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number field {key}"))
}

/// Checks that `v` has every `ints` key as an integer and every `nums`
/// key as a number.
pub fn require(v: &Value, ints: &[&str], nums: &[&str]) -> Result<(), String> {
    for key in ints {
        integer(v, key)?;
    }
    for key in nums {
        number(v, key)?;
    }
    Ok(())
}

/// The document's `runs` array, which must not be empty.
pub fn runs(doc: &Value) -> Result<&[Value], String> {
    match doc.get("runs").and_then(Value::as_array) {
        None => Err("missing runs array".into()),
        Some([]) => Err("runs array is empty".into()),
        Some(runs) => Ok(runs),
    }
}

/// The metrics of the snapshot embedded under `section`, after checking
/// that every metric family in `families` appears in it.
pub fn metric_families<'a>(
    doc: &'a Value,
    section: &str,
    families: &[&str],
) -> Result<&'a [Value], String> {
    let metrics = doc
        .get(section)
        .and_then(|m| m.get("metrics"))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing {section}.metrics array"))?;
    for family in families {
        if !metrics
            .iter()
            .any(|m| m.get("name").and_then(Value::as_str) == Some(family))
        {
            return Err(format!("metric {family} missing from snapshot"));
        }
    }
    Ok(metrics)
}

/// Checks that some `name` metric (carrying `label`, if given) has a
/// value above zero.
pub fn counter_positive(
    metrics: &[Value],
    name: &str,
    label: Option<(&str, &str)>,
) -> Result<(), String> {
    let hit = metrics.iter().any(|m| {
        m.get("name").and_then(Value::as_str) == Some(name)
            && label.is_none_or(|(k, v)| {
                m.get("labels")
                    .and_then(|l| l.get(k))
                    .and_then(Value::as_str)
                    == Some(v)
            })
            && m.get("value").and_then(Value::as_u64).unwrap_or(0) > 0
    });
    match (hit, label) {
        (true, _) => Ok(()),
        (false, Some((k, v))) => Err(format!("{name}{{{k}={v}}} never incremented")),
        (false, None) => Err(format!("{name} is zero")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&[7u64, 3], 0.5), 3);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        assert_eq!(percentile(&[2.5, -1.0, 9.0], 0.5), 2.5);
    }

    #[test]
    fn measure_runs_warmup_then_fixed_rounds() {
        let mut calls = 0u32;
        let s = measure("test/count", || calls += 1);
        assert_eq!(calls, 1 + ROUNDS as u32 * s.iters);
        assert!(s.min <= s.median && s.median <= s.max);
    }

    #[test]
    fn measure_setup_builds_one_input_per_call() {
        let (mut built, mut used) = (0u32, 0u32);
        let s = measure_setup(
            "test/setup",
            || {
                built += 1;
                vec![0u8; 64]
            },
            |v| {
                used += 1;
                v.len()
            },
        );
        assert_eq!(built, used);
        assert_eq!(used, 1 + ROUNDS as u32 * s.iters);
    }

    #[test]
    fn paired_rounds_record_every_round() {
        let mut round = 0.0;
        let p = paired_rounds(
            3,
            |treated| {
                round += 0.5;
                if treated {
                    90.0 - round
                } else {
                    100.0
                }
            },
            |&r| r,
        );
        assert_eq!(p.runs.len(), 3);
        assert_eq!(p.overheads_pct().len(), 3);
        let text = write_document(&Json::obj(p.fields("off", "on")), |_| Ok(())).expect("doc");
        let v = mdm_obs::json::parse(&text).expect("parse");
        assert_eq!(number(&v, "overhead_pct").expect("min"), 11.0);
        assert_eq!(number(&v, "median_overhead_pct").expect("median"), 12.0);
        assert_eq!(
            v.get("round_overheads_pct")
                .and_then(Value::as_array)
                .map(<[_]>::len),
            Some(3)
        );
        assert_eq!(p.into_gated_round(), (100.0, 89.0));
    }

    #[test]
    fn documents_round_trip_and_checks_report_what_is_missing() {
        let doc = Json::obj([
            ("bench", "t\"q\n".into()),
            (
                "runs",
                Json::Arr(vec![Json::obj([
                    ("clients", 2usize.into()),
                    ("rate", 1.5.into()),
                ])]),
            ),
            ("ok", true.into()),
            (
                "m",
                Json::Raw(
                    r#"{"metrics":[{"name":"a_total","labels":{"path":"scan"},"value":3}]}"#.into(),
                ),
            ),
        ]);
        let text = write_document(&doc, |v| {
            let runs = runs(v)?;
            require(&runs[0], &["clients"], &["rate"])?;
            let metrics = metric_families(v, "m", &["a_total"])?;
            counter_positive(metrics, "a_total", Some(("path", "scan")))
        })
        .expect("valid document");
        assert!(text.ends_with("}\n"));
        let err = write_document(&doc, |v| metric_families(v, "m", &["b_total"]).map(drop));
        assert_eq!(err, Err("metric b_total missing from snapshot".into()));
        let err = write_document(&doc, |v| {
            counter_positive(
                metric_families(v, "m", &[])?,
                "a_total",
                Some(("path", "index")),
            )
        });
        assert!(err.expect_err("label filter").contains("never incremented"));
        let bad = write_document(&Json::Num(f64::NAN), |_| Ok(()));
        assert!(bad.expect_err("NaN is not JSON").contains("not JSON"));
    }
}
