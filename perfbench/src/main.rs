//! One reproducible benchmark of the music data manager.
//!
//! ```text
//! mdm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]
//! ```
//!
//! Serves a generated score library from one in-process `MdmServer` and
//! drives it over loopback with two client connections, each running a
//! seeded operation stream (see `drive.rs`). Every read is checked
//! against the answer the generator predicts, every write's
//! acknowledgement is checked, and after the timed phase a copy of the
//! data directory is reopened to find acknowledged writes that did not
//! survive.
//!
//! With `--trace 0` the run is untraced and reports the end-to-end
//! metrics. With `--trace 1` it runs the same seed twice, untraced and
//! then with an in-process probe after each operation, and reports the
//! per-layer metrics (README.md maps each to the end-to-end metric it
//! should move). Every run first prints a `{"report": …}` line holding
//! every measurement with its sample count and an environment stamp;
//! the last line is the summary `{"correct", "attempted", "failed",
//! "metrics"}`. The exit code is 1 when any answer was wrong, 2 on a
//! usage or set-up error.

mod affinity;
mod drive;
mod library;
mod probe;
mod rep;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use drive::Mix;
use probe::Probes;
use rep::{Counters, Rep, Settings};
use stats::{half_medians, median, num, Summary};

/// A workload: a library size and a client mix.
pub struct Workload {
    name: &'static str,
    /// Scores stored before the timed phase.
    pub preload: usize,
    /// Who the clients are.
    pub mix: Mix,
    /// Repetitions per run, each with its own set-up, timed phase,
    /// checkpoint and reopen; the end-to-end metrics are their medians.
    /// Cheap set-ups get more, which steadies their medians.
    reps: usize,
}

const WORKLOADS: [Workload; 3] = [
    // ~232k entities; its ~27 MB image overflows the 16 MiB buffer pool.
    Workload {
        name: "library-read",
        preload: 300,
        mix: Mix::Read,
        reps: 5,
    },
    // ~39k entities; its 4.6 MB image fits the pool.
    Workload {
        name: "library-write-mix",
        preload: 50,
        mix: Mix::Write { rate: 200.0 },
        reps: 15,
    },
    // ~155k entities.
    Workload {
        name: "score-load",
        preload: 200,
        mix: Mix::Load,
        reps: 5,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut data_dir = PathBuf::from(".bench_run");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--data-dir" => data_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        data_dir,
    })
}

fn main() -> ExitCode {
    affinity::cpus();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mdm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = args
        .data_dir
        .join(format!("{}-{}", args.workload.name, std::process::id()));
    let outcome = run(&args, &root);
    std::fs::remove_dir_all(&root).ok();
    match outcome {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mdm-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One metric of the summary line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_list(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(num).collect();
    format!("[{}]", items.join(","))
}

/// Median of `f` over the repetitions.
fn rep_median(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Runs the benchmark; `Ok(false)` when an answer was wrong.
fn run(args: &Args, root: &Path) -> Result<bool, String> {
    let w = args.workload;
    let phases_per_rep = 1 + u32::from(args.trace);
    let phase = Duration::from_secs_f64(args.seconds) / (w.reps as u32 * phases_per_rep);
    let settings = Settings {
        workload: w,
        seed: args.seed,
        phase,
        trace: args.trace,
    };
    let mut reps = Vec::with_capacity(w.reps);
    for i in 0..w.reps {
        let dir = root.join(format!("rep-{i}"));
        std::fs::remove_dir_all(&dir).ok();
        let rep = rep::run(&settings, &dir, args.trace && i == 0);
        std::fs::remove_dir_all(&dir).ok();
        reps.push(rep?);
    }

    // Failures, summed over the repetitions.
    let (mut attempted, mut errors, mut wrong, mut lost) = (0, 0, 0, 0);
    let (mut probe_errors, mut probe_wrong) = (0, 0);
    for r in &reps {
        lost += r.lost;
        for p in std::iter::once(&r.plain).chain(&r.traced) {
            attempted += p.log.attempted;
            errors += p.log.errors;
            wrong += p.log.wrong;
            probe_errors += p.log.probes.errors;
            probe_wrong += p.log.probes.wrong;
        }
    }
    let failed = errors + wrong + lost;
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let correct = wrong == 0 && probe_wrong == 0 && probe_errors == 0;

    // End-to-end: medians across repetitions of the untraced phases.
    let mut read_p50s = Vec::new();
    let mut read_p90s = Vec::new();
    let mut read_p99s = Vec::new();
    for r in &reps {
        let s = Summary::of(r.plain.log.reads()).ok_or("no reads were timed")?;
        read_p50s.push(s.p50);
        read_p90s.push(s.p90);
        read_p99s.push(s.p99);
    }
    // The read p50 stays in the report only: reads fall into two modes
    // some 30% apart, and which mode holds the median follows how busy
    // the host is, for whole runs at a time.
    let read_p50 = median(&read_p50s).expect("one repetition");
    let throughputs: Vec<f64> = reps.iter().map(|r| r.plain.throughput()).collect();
    let throughput = median(&throughputs).expect("one repetition");
    let end_to_end = vec![
        m("setup_s", rep_median(&reps, |r| r.setup_s), "s"),
        m("throughput_ops_s", throughput, "1/s"),
        m(
            "read_p90_us",
            median(&read_p90s).expect("one repetition"),
            "us",
        ),
        m("reopen_s", rep_median(&reps, |r| r.reopen_s), "s"),
        m("checkpoint_s", rep_median(&reps, |r| r.checkpoint_s), "s"),
        m(
            "rss_mb",
            rep::peak_rss_bytes().unwrap_or(0) as f64 / 1e6,
            "MB",
        ),
        m(
            "disk_mb",
            rep_median(&reps, |r| r.disk_bytes as f64) / 1e6,
            "MB",
        ),
    ];

    let (layers, write_layers) = if args.trace {
        per_layer(&mut reps, read_p50)?
    } else {
        (Vec::new(), Vec::new())
    };

    // The full report: every measurement with its sample count.
    let mut latency = String::new();
    let mut drift = String::new();
    for class in ["read", "nav", "write", "generator_lateness"] {
        let samples_of = |r: &Rep| -> Vec<f64> {
            let log = &r.plain.log;
            match class {
                "read" => log.reads().to_vec(),
                "nav" => log.nav.clone(),
                "write" => log.write.clone(),
                _ => log.lateness.clone(),
            }
        };
        let pooled: Vec<f64> = reps.iter().flat_map(samples_of).collect();
        if let Some(s) = Summary::of(&pooled) {
            let _ = write!(latency, "{}\"{class}\":{}", sep(&latency), s.to_json());
            let halves: Vec<String> = reps
                .iter()
                .filter_map(|r| half_medians(&samples_of(r)))
                .map(|(a, b)| format!("[{},{}]", num(a), num(b)))
                .collect();
            let _ = write!(drift, "{}\"{class}\":[{}]", sep(&drift), halves.join(","));
        }
    }
    let env = format!(
        "{{\"nproc\":{},\"rev\":\"{}\",\"profile\":\"{}\",\"rustc\":\"{}\",\
         \"pool_pages\":{},\"writer_rate\":{},\"preload\":{},\
         \"repetitions\":{},\"seed\":{}}}",
        affinity::cpus(),
        env_or("PERFBENCH_REV"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env_or("PERFBENCH_RUSTC"),
        mdm_storage::DEFAULT_POOL_PAGES,
        match w.mix {
            Mix::Write { rate } => num(rate),
            _ => "0".into(),
        },
        w.preload,
        w.reps,
        args.seed,
    );
    let entities: Vec<String> = reps
        .iter()
        .map(|r| format!("[{},{}]", r.entities.0, r.entities.1))
        .collect();
    println!(
        "{{\"report\":{{\"workload\":\"{}\",\"trace\":{},\"seconds\":{},\"env\":{env},\
         \"per_rep\":{{\"setup_s\":{},\"throughput_ops_s\":{},\"read_p50_us\":{},\
         \"read_p90_us\":{},\"read_p99_us\":{},\"reopen_s\":{},\"checkpoint_s\":{},\"steal_pct\":{},\
         \"entities_start_end\":[{}],\"scores_after_reopen\":{}}},\
         \"ops\":{{\"attempted\":{attempted},\"errors\":{errors},\"wrong\":{wrong},\"lost\":{lost},\
         \"failed\":{failed},\"error_rate\":{},\"probe_errors\":{probe_errors},\
         \"probe_wrong\":{probe_wrong}}},\
         \"latency_us\":{{{latency}}},\"half_p50_us\":{{{drift}}},\
         \"end_to_end\":{},\"layers\":{},\"write_layers\":{}}}}}",
        w.name,
        args.trace,
        num(args.seconds),
        json_list(reps.iter().map(|r| r.setup_s)),
        json_list(throughputs),
        json_list(read_p50s),
        json_list(read_p90s),
        json_list(read_p99s),
        json_list(reps.iter().map(|r| r.reopen_s)),
        json_list(reps.iter().map(|r| r.checkpoint_s)),
        json_list(reps.iter().map(|r| r.plain.steal_pct)),
        entities.join(","),
        json_list(reps.iter().map(|r| r.scores_after_reopen as f64)),
        num(error_rate),
        metrics_json(&end_to_end),
        metrics_json(&layers),
        metrics_json(&write_layers),
    );
    let reported = if args.trace { layers } else { end_to_end };
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&reported)
    );
    Ok(correct)
}

/// The per-layer metrics of a traced run, and the write-path layers
/// that exist only on workloads that write. Probes and counters pool
/// across repetitions; `read_p50` is the untraced wire read p50.
fn per_layer(reps: &mut [Rep], read_p50: f64) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let mut p = Probes::default();
    let (mut plain, mut traced, mut stored) = (
        Counters::default(),
        Counters::default(),
        Counters::default(),
    );
    let (mut plain_ops, mut plain_s, mut traced_ops, mut traced_s) = (0.0, 0.0, 0.0, 0.0);
    let reads_are_loads = reps.iter().all(|r| r.plain.log.point.is_empty());
    for r in reps.iter_mut() {
        let tr = r
            .traced
            .as_mut()
            .ok_or("a traced run lacks its traced phase")?;
        p.absorb(std::mem::take(&mut tr.log.probes));
        traced.add(&tr.counters);
        traced_ops += tr.log.attempted as f64;
        traced_s += tr.elapsed.as_secs_f64();
        plain.add(&r.plain.counters);
        plain_ops += r.plain.log.attempted as f64;
        plain_s += r.plain.elapsed.as_secs_f64();
        stored.add(&r.checkpoint);
        stored.add(&r.reopen);
    }
    let p50 = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let (core_read, codec) = if reads_are_loads {
        (p50(&p.load), p50(&p.codec_load))
    } else {
        (p50(&p.query_point), p50(&p.codec_point))
    };
    let lock_wait = Summary::of(&p.read_lock_wait).ok_or("no lock waits were probed")?;
    let checkpoint_fsyncs: Vec<f64> = reps.iter().map(|r| r.checkpoint.fsyncs).collect();
    let layers = vec![
        m("net.wire_overhead_us", read_p50 - core_read, "us"),
        m("net.codec_us", codec, "us"),
        m("net.bytes_per_op", plain.net_bytes / plain_ops, "B"),
        m("net.read_lock_wait_p50_us", lock_wait.p50, "us"),
        m("net.read_lock_wait_p99_us", lock_wait.p99, "us"),
        m("core.query_us", p50(&p.query_point), "us"),
        m("core.session_us", p50(&p.session), "us"),
        m("core.nav_query_us", p50(&p.query_nav), "us"),
        m("core.load_score_us", p50(&p.load), "us"),
        m("lang.lex_us", p50(&p.lex), "us"),
        m("lang.parse_us", p50(&p.parse), "us"),
        m("lang.exec_us", p50(&p.exec_point), "us"),
        m("lang.nav_exec_us", p50(&p.exec_nav), "us"),
        m(
            "lang.rows_scanned_per_returned",
            traced.rows_scanned / traced.rows_returned,
            "ratio",
        ),
        m(
            "lang.index_plan_share",
            traced.index_plans / traced.plans,
            "ratio",
        ),
        m(
            "model.save_s",
            reps[0].model_save_s.unwrap_or(f64::NAN),
            "s",
        ),
        m(
            "model.load_s",
            reps[0].model_load_s.unwrap_or(f64::NAN),
            "s",
        ),
        m("storage.snapshot_us", p50(&p.snapshot_pin), "us"),
        m("storage.commit_us", p50(&p.commit), "us"),
        m(
            "storage.fsyncs_per_commit",
            traced.fsyncs / traced.commits,
            "count",
        ),
        m(
            "storage.group_commit_batch",
            traced.batch_sum / traced.batches,
            "count",
        ),
        m(
            "storage.pool_hit_ratio",
            stored.pool_hits / (stored.pool_hits + stored.pool_misses),
            "ratio",
        ),
        m(
            "storage.pool_evictions",
            stored.pool_evictions / reps.len() as f64,
            "count",
        ),
        m(
            "storage.checkpoint_fsyncs",
            p50(&checkpoint_fsyncs),
            "count",
        ),
        m("storage.bytes_written_per_op", plain.wchar / plain_ops, "B"),
        m(
            "obs.trace_overhead_pct",
            100.0 * (1.0 - (traced_ops / traced_s) / (plain_ops / plain_s)),
            "%",
        ),
        m(
            "obs.layer_sum_gap_pct",
            100.0
                * (1.0
                    - (p50(&p.snapshot_pin) + p50(&p.session) + p50(&p.readonly_point))
                        / p50(&p.query_point)),
            "%",
        ),
    ];
    let mut write_layers = Vec::new();
    for (name, v) in [
        ("core.execute_us", &p.execute),
        ("net.write_lock_hold_us", &p.write_lock_hold),
    ] {
        if !v.is_empty() {
            write_layers.push(m(name, p50(v), "us"));
        }
    }
    Ok((layers, write_layers))
}

fn sep(s: &str) -> &'static str {
    if s.is_empty() {
        ""
    } else {
        ","
    }
}

fn env_or(key: &str) -> String {
    std::env::var(key)
        .unwrap_or_else(|_| "unknown".into())
        .replace(['"', '\\'], "")
}
