//! F1: one shared MDM serving several clients versus each client keeping
//! its own store — the paper's §2 argument that a shared data manager
//! removes duplicated data management and conversion work.
//!
//! * `shared_store` — N writer clients interleave transactions against
//!   one storage engine (table each; 2PL coordinates them).
//! * `private_stores` — the same work against N separate engines (each
//!   paying its own WAL sync and catalog).
//! * `pipeline_shared` vs `pipeline_convert` — a composition client hands
//!   a score to an analysis client: through the shared MDM (store once,
//!   load once) vs. through a serialization boundary (the DARMS
//!   round-trip clients without a shared manager would need).

use mdm_bench::harness::{measure, measure_setup, ScratchDir};
use mdm_bench::workload::generated_score;
use mdm_core::{Analyst, MusicDataManager};
use mdm_storage::{StorageEngine, TableId};

/// Client-count axis: 1 isolates the no-contention baseline, 8 shows how
/// sharded latching + group commit scale past the core count (on one
/// core the win comes almost entirely from batched fsyncs).
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
const OPS_PER_CLIENT: usize = 50;

/// One client thread per `(engine, table)`, each committing
/// `OPS_PER_CLIENT` single-row transactions.
fn commit_from_clients(targets: &[(StorageEngine, TableId)]) {
    std::thread::scope(|scope| {
        for (eng, t) in targets {
            scope.spawn(move || {
                for i in 0..OPS_PER_CLIENT {
                    let mut txn = eng.begin().expect("begin");
                    eng.insert(&mut txn, *t, format!("row {i}").as_bytes())
                        .expect("insert");
                    eng.commit(txn).expect("commit");
                }
            });
        }
    });
}

fn main() {
    for clients in CLIENT_COUNTS {
        measure_setup(
            &format!("f1_shared_vs_private/shared_store/{clients}"),
            || {
                let dir = ScratchDir::new("shared");
                let eng = StorageEngine::open_with_capacity(dir.path(), 256).expect("open");
                let targets: Vec<_> = (0..clients)
                    .map(|i| {
                        (
                            eng.clone(),
                            eng.create_table(&format!("client_{i}")).expect("table"),
                        )
                    })
                    .collect();
                (targets, dir)
            },
            |(targets, dir)| {
                commit_from_clients(&targets);
                (targets, dir)
            },
        );
        measure_setup(
            &format!("f1_shared_vs_private/private_stores/{clients}"),
            || {
                (0..clients)
                    .map(|_| {
                        let dir = ScratchDir::new("private");
                        let eng = StorageEngine::open_with_capacity(dir.path(), 256).expect("open");
                        let t = eng.create_table("client").expect("table");
                        ((eng, t), dir)
                    })
                    .unzip::<_, _, Vec<_>, Vec<_>>()
            },
            |(targets, dirs)| {
                commit_from_clients(&targets);
                (targets, dirs)
            },
        );
    }

    let score = generated_score(23, 1, 60);
    // Shared MDM: composition stores, analysis loads the same entities.
    let dir = ScratchDir::new("pipe");
    let mut mdm = MusicDataManager::open(dir.path()).expect("open");
    measure("f1_client_pipeline/pipeline_shared_mdm", || {
        let id = mdm.store_score(&score).expect("store");
        let loaded = mdm.load_score(id).expect("load");
        let hist = Analyst::interval_histogram(&loaded);
        mdm_core::delete_score(mdm.database_mut(), id).expect("delete");
        hist.len()
    });

    // Converter boundary: composition emits DARMS text, analysis parses
    // it back — the incompatible-representation world of §2.
    measure("f1_client_pipeline/pipeline_darms_convert", || {
        let voice = &score.movements[0].voices[0];
        let items = mdm_darms::from_voice(voice, score.movements[0].meter).expect("encode");
        let text = mdm_darms::emit(&mdm_darms::canonize(&items));
        let parsed = mdm_darms::parse(&text).expect("parse");
        let back = mdm_darms::to_voice(&parsed).expect("voice");
        let mut loaded = mdm_notation::Score::new("converted");
        let mut m = mdm_notation::Movement::new(
            "m",
            score.movements[0].meter,
            mdm_notation::TempoMap::default(),
        );
        m.voices.push(back);
        loaded.movements.push(m);
        Analyst::interval_histogram(&loaded).len()
    });
}
