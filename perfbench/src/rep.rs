//! One repetition of a run: set up a fresh library and server, run the
//! timed phases, then checkpoint, reopen a copy and look for every
//! acknowledged write.
//!
//! A run makes several repetitions and reports medians across them, so
//! one unlucky set-up (memory placement, hash keys, a disk stall) moves a
//! run's figures less.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mdm_core::MusicDataManager;
use mdm_model::Value;
use mdm_net::{ClientConfig, MdmClient, MdmServer, ServerConfig};
use mdm_obs::{Registry, Snapshot};

use crate::drive::{Acked, Log, Mix, Phase};
use crate::library::Library;
use crate::probe;
use crate::Workload;

/// Counter readings a repetition takes from `metrics_snapshot()` diffs
/// and from `/proc`. They add across repetitions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// `mdm_net_bytes_in_total + mdm_net_bytes_out_total`.
    pub net_bytes: f64,
    /// `wchar` of `/proc/self/io`.
    pub wchar: f64,
    /// `mdm_quel_rows_scanned_total`.
    pub rows_scanned: f64,
    /// `mdm_quel_rows_returned_total`.
    pub rows_returned: f64,
    /// `mdm_quel_plan_total` on an index path.
    pub index_plans: f64,
    /// `mdm_quel_plan_total`, every path.
    pub plans: f64,
    /// `mdm_wal_fsyncs_total`.
    pub fsyncs: f64,
    /// `mdm_txn_commits_total`.
    pub commits: f64,
    /// Sum and count of `mdm_wal_group_commit_batch`.
    pub batch_sum: f64,
    /// See `batch_sum`.
    pub batches: f64,
    /// `mdm_pool_hits_total`.
    pub pool_hits: f64,
    /// `mdm_pool_misses_total`.
    pub pool_misses: f64,
    /// `mdm_pool_evictions_total`.
    pub pool_evictions: f64,
}

impl Counters {
    fn of(d: &Snapshot) -> Counters {
        let c = |name: &str| d.counter(name).unwrap_or(0) as f64;
        let plan = |path: &str| {
            d.counter_with("mdm_quel_plan_total", &[("path", path)])
                .unwrap_or(0) as f64
        };
        let batch = d.histogram("mdm_wal_group_commit_batch");
        Counters {
            net_bytes: c("mdm_net_bytes_in_total") + c("mdm_net_bytes_out_total"),
            wchar: 0.0,
            rows_scanned: c("mdm_quel_rows_scanned_total"),
            rows_returned: c("mdm_quel_rows_returned_total"),
            index_plans: plan("index_eq") + plan("index_range"),
            plans: c("mdm_quel_plan_total"),
            fsyncs: c("mdm_wal_fsyncs_total"),
            commits: c("mdm_txn_commits_total"),
            batch_sum: batch.map_or(0.0, |h| h.sum as f64),
            batches: batch.map_or(0.0, |h| h.count as f64),
            pool_hits: c("mdm_pool_hits_total"),
            pool_misses: c("mdm_pool_misses_total"),
            pool_evictions: c("mdm_pool_evictions_total"),
        }
    }

    /// Adds `other` field by field.
    pub fn add(&mut self, o: &Counters) {
        self.net_bytes += o.net_bytes;
        self.wchar += o.wchar;
        self.rows_scanned += o.rows_scanned;
        self.rows_returned += o.rows_returned;
        self.index_plans += o.index_plans;
        self.plans += o.plans;
        self.fsyncs += o.fsyncs;
        self.commits += o.commits;
        self.batch_sum += o.batch_sum;
        self.batches += o.batches;
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
        self.pool_evictions += o.pool_evictions;
    }
}

/// One timed phase's record.
pub struct PhaseResult {
    /// The clients' log.
    pub log: Log,
    /// Wall time the phase took.
    pub elapsed: Duration,
    /// Counters over the phase.
    pub counters: Counters,
    /// Share of CPU time the hypervisor took from this machine, %.
    pub steal_pct: f64,
}

impl PhaseResult {
    /// Completed wire operations per second.
    pub fn throughput(&self) -> f64 {
        self.log.attempted as f64 / self.elapsed.as_secs_f64()
    }
}

/// What one repetition measured.
pub struct Rep {
    /// Empty directory to the first timed operation.
    pub setup_s: f64,
    /// The untraced phase.
    pub plain: PhaseResult,
    /// The traced phase, in a traced run.
    pub traced: Option<PhaseResult>,
    /// Live entities when the timed phases started and ended.
    pub entities: (usize, usize),
    /// `save()` after the timed phases.
    pub checkpoint_s: f64,
    /// Counters over that checkpoint.
    pub checkpoint: Counters,
    /// `MusicDataManager::open` of the copy.
    pub reopen_s: f64,
    /// Counters over that reopen.
    pub reopen: Counters,
    /// Acknowledged writes the reopened copy lacks.
    pub lost: u64,
    /// SCORE entities in the reopened copy.
    pub scores_after_reopen: usize,
    /// Data directory size after the checkpoint, bytes.
    pub disk_bytes: u64,
    /// `persist::save` of the library, when timed.
    pub model_save_s: Option<f64>,
    /// `persist::load` of the checkpointed image, when timed.
    pub model_load_s: Option<f64>,
}

/// The settings of one repetition.
pub struct Settings<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of each timed phase.
    pub phase: Duration,
    /// Whether a traced phase follows the untraced one.
    pub trace: bool,
}

/// A server with its library and its two connected clients.
struct Rig {
    server: MdmServer,
    lib: Library,
    clients: Vec<MdmClient>,
}

fn set_up(dir: &Path, w: &Workload, seed: u64) -> Result<Rig, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (mdm, lib) = Library::build(dir, seed, w.preload, w.mix == Mix::Load)?;
    let server = MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server: {e}"))?;
    let addr = server.local_addr().to_string();
    let clients = (0..2)
        .map(|i| {
            MdmClient::connect(
                &addr,
                ClientConfig {
                    client_name: format!("perfbench-{i}"),
                    ..ClientConfig::default()
                },
            )
            .map_err(|e| format!("connect: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Rig {
        server,
        lib,
        clients,
    })
}

fn snapshot(server: &MdmServer) -> Snapshot {
    server.with_manager(|m| m.metrics_snapshot())
}

fn entity_count(server: &MdmServer) -> usize {
    server.with_manager(|m| m.database().store().entity_count())
}

/// Runs one repetition in the empty directory `root`. With `time_model`
/// it also times `persist::save` and `persist::load` on their own, which
/// on the large library costs as much again as the checkpoint.
pub fn run(s: &Settings, root: &Path, time_model: bool) -> Result<Rep, String> {
    let w = s.workload;
    let live = root.join("live");
    let copy: PathBuf = root.join("copy");

    let t = Instant::now();
    let Rig {
        server,
        lib,
        mut clients,
    } = set_up(&live, w, s.seed)?;
    let setup_s = t.elapsed().as_secs_f64();
    if s.trace {
        probe::create_probe_tables(&server)?;
    }

    // The untraced phase, then in a traced run a second with the same
    // seed and probes.
    let entities_start = entity_count(&server);
    let mut catalog_ids = lib.catalog_ids.clone();
    let mut phases = Vec::new();
    for (number, traced) in [false, true]
        .into_iter()
        .take(1 + usize::from(s.trace))
        .enumerate()
    {
        let phase = Phase {
            server: &server,
            lib: &lib,
            mix: w.mix,
            seed: s.seed,
            number: number as u64,
            duration: s.phase,
            traced,
            catalog_ids: catalog_ids.clone(),
        };
        let before = snapshot(&server);
        let wchar_before = proc_io_wchar();
        let cpu_before = cpu_ticks();
        let (log, elapsed, catalog) = phase.run(&mut clients);
        let steal_pct = cpu_ticks()
            .zip(cpu_before)
            .map_or(f64::NAN, |((t1, s1), (t0, s0))| {
                100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
            });
        let mut counters = Counters::of(&snapshot(&server).delta(&before));
        counters.wchar = proc_io_wchar()
            .zip(wchar_before)
            .map_or(f64::NAN, |(a, b)| (a - b) as f64);
        catalog_ids = catalog;
        phases.push(PhaseResult {
            log,
            elapsed,
            counters,
            steal_pct,
        });
    }
    let entities_end = entity_count(&server);

    // Durability: copy the directory as the timed phases left it, with
    // the server quiesced but no clean save.
    server.with_manager_mut(|_| copy_dir(&live, &copy))?;

    let before = snapshot(&server);
    let t = Instant::now();
    server
        .with_manager_mut(|m| m.save())
        .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_s = t.elapsed().as_secs_f64();
    let checkpoint = Counters::of(&snapshot(&server).delta(&before));
    let model_save_s = if time_model {
        let t = Instant::now();
        server
            .with_manager(|m| mdm_model::persist::save(m.database(), m.engine()))
            .map_err(|e| format!("persist::save: {e}"))?;
        Some(t.elapsed().as_secs_f64())
    } else {
        None
    };
    // The run has taken its own checkpoint: stop without another save.
    drop(clients);
    server.set_read_only(true);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let disk_bytes = dir_bytes(&live);
    let model_load_s = if time_model {
        let engine = mdm_storage::StorageEngine::open_with_registry(
            &live,
            mdm_storage::DEFAULT_POOL_PAGES,
            &Registry::new(),
        )
        .map_err(|e| format!("engine: {e}"))?;
        let t = Instant::now();
        let db = mdm_model::persist::load(&engine).map_err(|e| format!("persist::load: {e}"))?;
        let load_s = t.elapsed().as_secs_f64();
        drop(db);
        Some(load_s)
    } else {
        None
    };

    // Reopen the copy and look for every acknowledged write.
    let t = Instant::now();
    let reopened = MusicDataManager::open(&copy).map_err(|e| format!("reopen: {e}"))?;
    let reopen_s = t.elapsed().as_secs_f64();
    let reopen = Counters::of(&reopened.metrics_snapshot());
    let acked: Vec<&Acked> = phases.iter().flat_map(|p| &p.log.acked).collect();
    let lost = lost_writes(&reopened, &lib, &catalog_ids, &acked);
    let scores_after_reopen = reopened
        .database()
        .instances_of("SCORE")
        .map_or(0, |ids| ids.len());
    drop(reopened);

    let mut phases = phases.into_iter();
    let plain = phases.next().expect("the untraced phase ran");
    Ok(Rep {
        setup_s,
        plain,
        traced: phases.next(),
        entities: (entities_start, entities_end),
        checkpoint_s,
        checkpoint,
        reopen_s,
        reopen,
        lost,
        scores_after_reopen,
        disk_bytes,
        model_save_s,
        model_load_s,
    })
}

/// Counts acknowledged writes whose effect the reopened copy lacks.
fn lost_writes(
    mdm: &MusicDataManager,
    lib: &Library,
    catalog_ids: &[String],
    acked: &[&Acked],
) -> u64 {
    let found = |title: &str| mdm.find_score(title).ok().flatten();
    let mut lost = 0;
    let mut replaced = std::collections::BTreeSet::new();
    for a in acked {
        match a {
            Acked::Replace { k, .. } => {
                replaced.insert(*k);
            }
            Acked::Pair { title } => lost += u64::from(found(title).is_some()),
        }
    }
    // Only the last acknowledged value of each score must be there.
    for k in replaced {
        let ok = found(&lib.titles[k]).is_some_and(|id| {
            mdm.database().get_attr(id, "catalog_id").ok()
                == Some(&Value::String(catalog_ids[k].clone()))
        });
        lost += u64::from(!ok);
    }
    lost
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| format!("copy: {e}"))?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Bytes this process passed to write(2) and its kin (`wchar` in
/// `/proc/self/io`). Sockets send with send(2), which it does not count,
/// so this is the storage layer's writes.
fn proc_io_wchar() -> Option<u64> {
    proc_field("/proc/self/io", "wchar:")
}

/// Total and steal CPU ticks over all CPUs, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Peak resident set size in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    proc_field("/proc/self/status", "VmHWM:").map(|kib| kib * 1024)
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}
