//! The clients of one timed phase and what they record.
//!
//! Closed-loop clients send their next request when the last one has
//! been answered. The open-loop writer sends on a fixed schedule, and
//! each of its operations is timed from when it was due, so a stall also
//! counts against the operations queued behind it.

use std::thread;
use std::time::{Duration, Instant};

use mdm_lang::StmtResult;
use mdm_net::{MdmClient, MdmServer};

use crate::affinity;
use crate::library::{nav_ok, point_ok, Library, Rng};
use crate::probe::{us_since, Probes};

/// Who the clients of a workload are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Two closed-loop library readers.
    Read,
    /// One closed-loop reader and one open-loop QUEL writer.
    Write {
        /// Writes per second.
        rate: f64,
    },
    /// Two closed-loop score loaders.
    Load,
}

/// A write the server acknowledged, which must survive a reopen.
#[derive(Debug, Clone)]
pub enum Acked {
    /// Score `k`'s catalogue id was set to `value`.
    Replace {
        /// Library index.
        k: usize,
        /// The new catalogue id.
        value: String,
    },
    /// A scratch score was appended and deleted again: it must be gone.
    Pair {
        /// The scratch title.
        title: String,
    },
}

/// What one client recorded, in the order its operations ran.
#[derive(Default)]
pub struct Log {
    /// Point-read latencies, µs.
    pub point: Vec<f64>,
    /// Navigation-read latencies, µs.
    pub nav: Vec<f64>,
    /// `LoadScore` latencies, µs.
    pub load: Vec<f64>,
    /// Open-loop write latencies from their due time, µs.
    pub write: Vec<f64>,
    /// How late the open-loop generator sent each request, µs.
    pub lateness: Vec<f64>,
    /// Operations sent.
    pub attempted: u64,
    /// Operations answered with an error.
    pub errors: u64,
    /// Reads whose answer disagreed with the oracle, and writes whose
    /// acknowledgement was not the expected one.
    pub wrong: u64,
    /// Writes acknowledged as expected.
    pub acked: Vec<Acked>,
    /// In-process probes (traced phases only).
    pub probes: Probes,
}

impl Log {
    /// Appends another client's log.
    pub fn absorb(&mut self, other: Log) {
        self.point.extend(other.point);
        self.nav.extend(other.nav);
        self.load.extend(other.load);
        self.write.extend(other.write);
        self.lateness.extend(other.lateness);
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.acked.extend(other.acked);
        self.probes.absorb(other.probes);
    }

    /// The point or load latencies, whichever the workload issues.
    pub fn reads(&self) -> &[f64] {
        if self.point.is_empty() {
            &self.load
        } else {
            &self.point
        }
    }
}

/// One timed phase.
pub struct Phase<'a> {
    /// The server under test.
    pub server: &'a MdmServer,
    /// The library it serves.
    pub lib: &'a Library,
    /// Who the clients are.
    pub mix: Mix,
    /// Workload seed.
    pub seed: u64,
    /// Distinguishes the phases of one run (names, generator streams).
    pub number: u64,
    /// How long the closed-loop clients run.
    pub duration: Duration,
    /// Whether each operation is followed by its in-process probe.
    pub traced: bool,
    /// The current catalogue id of every library score.
    pub catalog_ids: Vec<String>,
}

/// Minimum gap between two commit probes of one client.
const COMMIT_PROBE_EVERY: Duration = Duration::from_millis(10);

impl Phase<'_> {
    /// Runs the phase on its two `clients` and returns their merged log, the wall
    /// time it took, and the catalogue ids the acknowledged writes left.
    pub fn run(&self, clients: &mut [MdmClient]) -> (Log, Duration, Vec<String>) {
        let start = Instant::now();
        let end = start + self.duration;
        let [first, second] = clients else {
            panic!("a phase drives exactly two clients");
        };
        // Client `i` and the session serving it (the `i`-th accepted
        // connection) share CPU `i`.
        let pinned = affinity::cpus() >= 2;
        if pinned {
            for cpu in 0..2 {
                if let Some(tid) = affinity::thread_named(&format!("mdm-session-{cpu}")) {
                    affinity::pin(tid, cpu);
                }
            }
            affinity::pin(0, 1);
        }
        let (a, (b, catalog)) = thread::scope(|s| {
            let a = s.spawn(|| {
                if pinned {
                    affinity::pin(0, 0);
                }
                match self.mix {
                    Mix::Load => self.loader(first, 0, end),
                    _ => self.reader(first, 0, end),
                }
            });
            let b = match self.mix {
                Mix::Read => (self.reader(second, 1, end), self.catalog_ids.clone()),
                Mix::Write { rate } => self.writer(second, start, end, rate),
                Mix::Load => (self.loader(second, 1, end), self.catalog_ids.clone()),
            };
            (a.join().expect("client thread panicked"), b)
        });
        if pinned {
            affinity::unpin_current();
        }
        let elapsed = start.elapsed();
        let mut log = a;
        log.absorb(b);
        (log, elapsed, catalog)
    }

    fn rng(&self, client: u64) -> Rng {
        Rng::new(self.seed, self.number * 16 + client)
    }

    /// The in-process read probe that follows wire operation `i`: the
    /// kinds rotate so every workload measures every read path. A load
    /// costs ten point reads, so one probe in eight is a load.
    fn read_probe(
        &self,
        log: &mut Log,
        client: usize,
        probe_rng: &mut Rng,
        i: u64,
        next_commit: &mut Instant,
    ) {
        let k = probe_rng.below(self.lib.len());
        match i % 8 {
            7 => log.probes.load(self.server, self.lib, k),
            i if i % 2 == 0 => log.probes.point(self.server, self.lib, k),
            _ => log.probes.nav(self.server, self.lib, k),
        }
        if Instant::now() >= *next_commit {
            *next_commit += COMMIT_PROBE_EVERY;
            let row = format!(
                "range of s is SCORE\nreplace s (catalog_id = \"probe-{i}\") where s.title = \"{}\"",
                self.lib.titles[k]
            );
            log.probes.commit(self.server, client, row.as_bytes());
        }
    }

    /// A closed-loop reader alternating point and navigation reads.
    fn reader(&self, client: &mut MdmClient, id: u64, end: Instant) -> Log {
        let mut log = Log::default();
        let mut rng = self.rng(id);
        let mut probe_rng = self.rng(8 + id);
        let mut next_commit = Instant::now();
        let mut i = 0u64;
        while Instant::now() < end {
            let k = rng.below(self.lib.len());
            log.attempted += 1;
            if i.is_multiple_of(2) {
                let q = self.lib.point_query(k);
                let t = Instant::now();
                let answer = client.query(&q);
                log.point.push(us_since(t));
                match answer {
                    Ok(table) if point_ok(&table, &self.lib.composers[k]) => {}
                    Ok(_) => log.wrong += 1,
                    Err(_) => log.errors += 1,
                }
            } else {
                let q = self.lib.nav_query(k);
                let t = Instant::now();
                let answer = client.query(&q);
                log.nav.push(us_since(t));
                match answer {
                    Ok(table) if nav_ok(&table) => {}
                    Ok(_) => log.wrong += 1,
                    Err(_) => log.errors += 1,
                }
            }
            if self.traced {
                self.read_probe(&mut log, id as usize, &mut probe_rng, i, &mut next_commit);
            }
            i += 1;
        }
        log
    }

    /// A closed-loop loader of library scores, each checked against
    /// the score that was stored.
    fn loader(&self, client: &mut MdmClient, id: u64, end: Instant) -> Log {
        let mut log = Log::default();
        let mut rng = self.rng(id);
        let mut probe_rng = self.rng(8 + id);
        let mut next_commit = Instant::now();
        let mut i = 0u64;
        while Instant::now() < end {
            let k = rng.below(self.lib.len());
            log.attempted += 1;
            let t = Instant::now();
            let answer = client.load_score(self.lib.ids[k]);
            log.load.push(us_since(t));
            match answer {
                Ok(score) if score == self.lib.scores[k] => {}
                Ok(_) => log.wrong += 1,
                Err(_) => log.errors += 1,
            }
            if self.traced {
                self.read_probe(&mut log, id as usize, &mut probe_rng, i, &mut next_commit);
            }
            i += 1;
        }
        log
    }

    /// The open-loop QUEL writer: `rate` writes a second, cycling
    /// through a catalogue-id `replace` on a library score and an
    /// append/delete pair of a scratch score, so the live row count
    /// stays constant. It finishes the pair in flight at the deadline.
    fn writer(
        &self,
        client: &mut MdmClient,
        start: Instant,
        end: Instant,
        rate: f64,
    ) -> (Log, Vec<String>) {
        let mut log = Log::default();
        let mut rng = self.rng(1);
        let mut probe_rng = self.rng(9);
        let mut catalog = self.catalog_ids.clone();
        let mut j = 0u64;
        loop {
            let due = start + Duration::from_secs_f64(j as f64 / rate);
            if due >= end && j.is_multiple_of(3) {
                break;
            }
            sleep_until(due);
            log.lateness.push(us_since(due));
            let scratch = format!("tmp-{}-{}", self.number, j - j % 3);
            let (program, want, acked) = match j % 3 {
                0 => {
                    let k = rng.below(self.lib.len());
                    let value = format!("rev-{}-{j}", self.number);
                    let program = format!(
                        "range of s is SCORE\nreplace s (catalog_id = \"{value}\") where s.title = \"{}\"",
                        self.lib.titles[k]
                    );
                    (program, StmtResult::Replaced(1), Acked::Replace { k, value })
                }
                1 => (
                    format!(
                        "append to SCORE (title = \"{scratch}\", catalog_id = \"scratch\", composer = \"nobody\")"
                    ),
                    StmtResult::Appended(1),
                    Acked::Pair { title: scratch },
                ),
                _ => (
                    format!("range of s is SCORE\ndelete s where s.title = \"{scratch}\""),
                    StmtResult::Deleted(1),
                    Acked::Pair { title: scratch },
                ),
            };
            log.attempted += 1;
            let answer = client.execute(&program);
            log.write.push(us_since(due));
            match answer {
                Ok(results) if results.last() == Some(&want) => {
                    if let Acked::Replace { k, value } = &acked {
                        catalog[*k].clone_from(value);
                    }
                    // A pair is durable once its delete is acknowledged.
                    if j % 3 != 1 {
                        log.acked.push(acked);
                    }
                }
                Ok(_) => log.wrong += 1,
                Err(_) => log.errors += 1,
            }
            if self.traced {
                // Re-write a value the library already holds: the
                // probe journals a real write and changes nothing.
                let k = probe_rng.below(self.lib.len());
                log.probes.execute(
                    self.server,
                    &format!(
                        "range of s is SCORE\nreplace s (catalog_id = \"{}\") where s.title = \"{}\"",
                        catalog[k], self.lib.titles[k]
                    ),
                );
            }
            j += 1;
        }
        (log, catalog)
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        thread::sleep(due - now);
    }
}
