//! In-process twins of the wire operations, timed layer by layer.
//!
//! A traced run follows each wire operation with a probe that performs
//! the same kind of work through the crates' public functions on the
//! server's own manager: `MdmServer::with_manager` (the read lock),
//! `MusicDataManager::query_shared` / `load_score` (core),
//! `mdm_lang::lexer::lex`, `parse_tokens` and `Session::execute_readonly`
//! (lang), the message and frame codecs (net) and a begin/insert/commit
//! on a table the benchmark owns (storage). Every probe answer is
//! checked by the same oracle as the wire reads.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mdm_lang::{QuelMetrics, Session};
use mdm_net::{wire, MdmServer, Message};

use crate::library::{nav_ok, point_ok, Library};

/// The engine tables commit probes write to, one per client so that
/// probes never contend for a table lock; no other code reads them.
pub const PROBE_TABLES: [&str; 2] = ["__perfbench_probe_0", "__perfbench_probe_1"];

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Probe timings of one client, in microseconds, in the order taken.
#[derive(Default)]
pub struct Probes {
    /// Time from asking for the read lock to the closure starting.
    pub read_lock_wait: Vec<f64>,
    /// `query_shared` on a point read.
    pub query_point: Vec<f64>,
    /// `query_shared` on a navigation read.
    pub query_nav: Vec<f64>,
    /// `lexer::lex` of a point read.
    pub lex: Vec<f64>,
    /// `parse_tokens` of a point read.
    pub parse: Vec<f64>,
    /// `execute_readonly` of a point read minus its lex and parse.
    pub exec_point: Vec<f64>,
    /// `execute_readonly` of a point read, whole.
    pub readonly_point: Vec<f64>,
    /// `StorageEngine::snapshot`, the pin a shared query holds.
    pub snapshot_pin: Vec<f64>,
    /// Setting up a session wired as the manager wires its own.
    pub session: Vec<f64>,
    /// `execute_readonly` of a navigation read minus its lex and parse.
    pub exec_nav: Vec<f64>,
    /// `load_score`.
    pub load: Vec<f64>,
    /// Encode, frame and decode of a point read's request and response.
    pub codec_point: Vec<f64>,
    /// Encode, frame and decode of a `LoadScore` request and response.
    pub codec_load: Vec<f64>,
    /// Begin, insert and commit of one journal-sized row.
    pub commit: Vec<f64>,
    /// Duration of the `with_manager_mut` closure of a write probe.
    pub write_lock_hold: Vec<f64>,
    /// `execute` of a journaled write.
    pub execute: Vec<f64>,
    /// Probe answers that disagreed with the oracle.
    pub wrong: u64,
    /// Probe calls that returned an error.
    pub errors: u64,
    /// The manager's QUEL metrics, which probe sessions record into.
    quel: Option<Arc<QuelMetrics>>,
}

impl Probes {
    /// Appends another client's probes.
    pub fn absorb(&mut self, other: Probes) {
        let pairs = [
            (&mut self.read_lock_wait, other.read_lock_wait),
            (&mut self.query_point, other.query_point),
            (&mut self.query_nav, other.query_nav),
            (&mut self.lex, other.lex),
            (&mut self.parse, other.parse),
            (&mut self.exec_point, other.exec_point),
            (&mut self.readonly_point, other.readonly_point),
            (&mut self.snapshot_pin, other.snapshot_pin),
            (&mut self.session, other.session),
            (&mut self.exec_nav, other.exec_nav),
            (&mut self.load, other.load),
            (&mut self.codec_point, other.codec_point),
            (&mut self.codec_load, other.codec_load),
            (&mut self.commit, other.commit),
            (&mut self.write_lock_hold, other.write_lock_hold),
            (&mut self.execute, other.execute),
        ];
        for (mine, theirs) in pairs {
            mine.extend(theirs);
        }
        self.wrong += other.wrong;
        self.errors += other.errors;
    }

    /// Probes a point read of score `k`: `query_shared` whole, and
    /// each step it takes through a public function of its own layer
    /// (snapshot pin, session set-up, lex, parse, execute). The two
    /// run in alternating order so neither always finds caches warm.
    pub fn point(&mut self, server: &MdmServer, lib: &Library, k: usize) {
        let q = lib.point_query(k);
        let core_first = self.query_point.len().is_multiple_of(2);
        let asked = Instant::now();
        let table = server.with_manager(|m| {
            self.read_lock_wait.push(us_since(asked));
            let quel = Arc::clone(
                self.quel
                    .get_or_insert_with(|| QuelMetrics::register(&m.metrics_registry())),
            );
            let core = |out: &mut Vec<f64>| {
                let t = Instant::now();
                let table = m.query_shared(&q);
                out.push(us_since(t));
                table
            };
            let table = if core_first {
                Some(core(&mut self.query_point))
            } else {
                None
            };

            let t = Instant::now();
            let pin = m.engine().snapshot();
            self.snapshot_pin.push(us_since(t));
            let t = Instant::now();
            let mut session = Session::with_metrics(quel);
            session.set_statement_store(m.statement_store());
            session.set_lock_registry(m.metrics_registry());
            session.set_monitor(m.monitor());
            self.session.push(us_since(t));
            let t = Instant::now();
            let tokens = mdm_lang::lexer::lex(&q);
            let lex = us_since(t);
            let t = Instant::now();
            let stmts = tokens.and_then(mdm_lang::parse_tokens);
            let parse = us_since(t);
            black_box(stmts.is_ok());
            let t = Instant::now();
            let rows = session.execute_readonly(m.database(), &q);
            let whole = us_since(t);
            black_box(rows.is_ok());
            drop(pin);
            self.lex.push(lex);
            self.parse.push(parse);
            self.readonly_point.push(whole);
            self.exec_point.push(whole - lex - parse);

            table.unwrap_or_else(|| core(&mut self.query_point))
        });
        match table {
            Ok(table) => {
                if !point_ok(&table, &lib.composers[k]) {
                    self.wrong += 1;
                }
                let t = Instant::now();
                let ok = codec_round_trip(&Message::Query { text: q })
                    && codec_round_trip(&Message::Rows { table });
                self.codec_point.push(us_since(t));
                if !ok {
                    self.wrong += 1;
                }
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Probes a navigation read of score `k`.
    pub fn nav(&mut self, server: &MdmServer, lib: &Library, k: usize) {
        let q = lib.nav_query(k);
        let asked = Instant::now();
        let table = server.with_manager(|m| {
            self.read_lock_wait.push(us_since(asked));
            let t = Instant::now();
            let table = m.query_shared(&q);
            self.query_nav.push(us_since(t));

            let t = Instant::now();
            let stmts = mdm_lang::lexer::lex(&q).and_then(mdm_lang::parse_tokens);
            let front = us_since(t);
            black_box(stmts.is_ok());
            let mut session = Session::new();
            session.set_statement_store(m.statement_store());
            let t = Instant::now();
            let rows = session.execute_readonly(m.database(), &q);
            self.exec_nav.push(us_since(t) - front);
            black_box(rows.is_ok());
            table
        });
        match table {
            Ok(table) if nav_ok(&table) => {}
            Ok(_) => self.wrong += 1,
            Err(_) => self.errors += 1,
        }
    }

    /// Probes a load of score `k`, checked against the stored score
    /// when the library kept it.
    pub fn load(&mut self, server: &MdmServer, lib: &Library, k: usize) {
        let id = lib.ids[k];
        let asked = Instant::now();
        let score = server.with_manager(|m| {
            self.read_lock_wait.push(us_since(asked));
            let t = Instant::now();
            let score = m.load_score(id);
            self.load.push(us_since(t));
            score
        });
        match score {
            Ok(score) => {
                if score.title != lib.titles[k]
                    || lib.scores.get(k).is_some_and(|want| *want != score)
                {
                    self.wrong += 1;
                }
                let t = Instant::now();
                let ok = codec_round_trip(&Message::LoadScore { id })
                    && codec_round_trip(&Message::ScoreData { score });
                self.codec_load.push(us_since(t));
                if !ok {
                    self.wrong += 1;
                }
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Probes one journal-sized commit on the benchmark's table
    /// `PROBE_TABLES[client]`.
    pub fn commit(&mut self, server: &MdmServer, client: usize, row: &[u8]) {
        let timed = server.with_manager(|m| {
            let engine = m.engine();
            let table = engine.table_id(PROBE_TABLES[client])?;
            let t = Instant::now();
            let mut txn = engine.begin()?;
            engine.insert(&mut txn, table, row)?;
            engine.commit(txn)?;
            Ok::<f64, mdm_storage::StorageError>(us_since(t))
        });
        match timed {
            Ok(us) => self.commit.push(us),
            Err(_) => self.errors += 1,
        }
    }

    /// Probes a journaled write: `program` must leave the library as
    /// it found it (it re-writes a value the library already holds).
    pub fn execute(&mut self, server: &MdmServer, program: &str) {
        let (hold, result) = server.with_manager_mut(|m| {
            let held = Instant::now();
            let t = Instant::now();
            let result = m.execute(program);
            self.execute.push(us_since(t));
            (us_since(held), result)
        });
        self.write_lock_hold.push(hold);
        match result {
            Ok(results) if results.last() == Some(&mdm_lang::StmtResult::Replaced(1)) => {}
            Ok(_) => self.wrong += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// Encodes `msg`, frames it and decodes the payload again, as client
/// and server do for every request and response. Whether the decoded
/// message equals the original.
fn codec_round_trip(msg: &Message) -> bool {
    let payload = msg.encode_payload();
    let frame = wire::encode_frame(msg.msg_type(), 1, &payload);
    black_box(frame.is_ok());
    Message::decode(msg.msg_type(), &payload).is_ok_and(|back| back == *msg)
}

/// Creates the commit probes' tables.
pub fn create_probe_tables(server: &MdmServer) -> Result<(), String> {
    server.with_manager(|m| {
        PROBE_TABLES.iter().try_for_each(|name| {
            m.engine()
                .create_table(name)
                .map(drop)
                .map_err(|e| format!("probe table: {e}"))
        })
    })
}
