//! E2: the storage substrate — transaction throughput, scans, index
//! lookups, and recovery time (the "concurrency control and recovery"
//! the paper's §2 requires of the MDM).

use mdm_bench::harness::{measure, measure_setup, ScratchDir};
use mdm_storage::{encode_i64, StorageEngine, TableId};

/// A fresh engine in its own scratch directory with one table `t`
/// holding `rows` committed records.
fn engine_with_rows(pool_pages: usize, rows: usize) -> (ScratchDir, StorageEngine, TableId) {
    let dir = ScratchDir::new("e2");
    let eng = StorageEngine::open_with_capacity(dir.path(), pool_pages).expect("open");
    let t = eng.create_table("t").expect("table");
    let mut txn = eng.begin().expect("begin");
    for i in 0..rows {
        eng.insert(&mut txn, t, format!("row body number {i}").as_bytes())
            .expect("insert");
    }
    eng.commit(txn).expect("commit");
    (dir, eng, t)
}

fn scan_len(eng: &StorageEngine, t: TableId) -> usize {
    let mut txn = eng.begin().expect("begin");
    let n = eng.scan(&mut txn, t).expect("scan").len();
    eng.commit(txn).expect("commit");
    n
}

fn main() {
    for batch in [1usize, 10, 100] {
        let (_dir, eng, t) = engine_with_rows(mdm_storage::DEFAULT_POOL_PAGES, 0);
        measure(&format!("e2_txn_insert_commit/batch/{batch}"), || {
            let mut txn = eng.begin().expect("begin");
            for i in 0..batch {
                eng.insert(&mut txn, t, format!("record {i}").as_bytes())
                    .expect("insert");
            }
            eng.commit(txn).expect("commit");
        });
    }

    // Thread axis for the latching work: N clients each commit small
    // transactions against their own table of one shared engine. With
    // group commit, concurrent committers share fsyncs, so total time
    // should grow far slower than linearly in N.
    for threads in [1usize, 2, 4, 8] {
        let dir = ScratchDir::new("conc");
        let eng = StorageEngine::open_with_capacity(dir.path(), 256).expect("open");
        let tables: Vec<_> = (0..threads)
            .map(|i| eng.create_table(&format!("t{i}")).expect("table"))
            .collect();
        measure(&format!("e2_concurrent_commit/threads/{threads}"), || {
            std::thread::scope(|scope| {
                for &t in &tables {
                    let eng = eng.clone();
                    scope.spawn(move || {
                        for i in 0..25 {
                            let mut txn = eng.begin().expect("begin");
                            eng.insert(&mut txn, t, format!("row {i}").as_bytes())
                                .expect("insert");
                            eng.commit(txn).expect("commit");
                        }
                    });
                }
            })
        });
    }

    for n in [1_000usize, 10_000] {
        let (_dir, eng, t) = engine_with_rows(mdm_storage::DEFAULT_POOL_PAGES, n);
        measure(&format!("e2_scan/rows/{n}"), || scan_len(&eng, t));
    }

    for n in [1_000usize, 10_000] {
        let dir = ScratchDir::new("idx");
        let eng = StorageEngine::open(dir.path()).expect("open");
        let t = eng.create_table("t").expect("table");
        eng.create_index(t, "by_key").expect("index");
        let mut txn = eng.begin().expect("begin");
        for i in 0..n {
            let rid = eng
                .insert(&mut txn, t, format!("row {i}").as_bytes())
                .expect("insert");
            eng.index_insert(&mut txn, t, "by_key", &encode_i64(i as i64), rid)
                .expect("index");
        }
        eng.commit(txn).expect("commit");
        let mut k = 0i64;
        measure(&format!("e2_index_lookup/point/{n}"), || {
            let mut txn = eng.begin().expect("begin");
            let hit = eng
                .index_lookup(&mut txn, t, "by_key", &encode_i64(k % n as i64))
                .expect("lookup");
            eng.commit(txn).expect("commit");
            k += 7;
            hit.len()
        });
        let lo = (n / 2) as i64;
        measure(&format!("e2_index_lookup/range_100/{n}"), || {
            let mut txn = eng.begin().expect("begin");
            let (from, to) = (encode_i64(lo), encode_i64(lo + 99));
            let hits = eng
                .index_range(&mut txn, t, "by_key", Some(&from), Some(&to))
                .expect("range");
            eng.commit(txn).expect("commit");
            hits.len()
        });
    }

    for ops in [100usize, 1_000, 5_000] {
        measure_setup(
            &format!("e2_recovery/replay_ops/{ops}"),
            || {
                // `ops` committed inserts and no clean shutdown: the
                // engine is leaked to simulate a crash. A small pool keeps
                // each leaked engine from holding 16 MiB.
                let (dir, eng, _) = engine_with_rows(64, ops);
                std::mem::forget(eng);
                dir
            },
            |dir| {
                let eng = StorageEngine::open(dir.path()).expect("recover");
                let replayed = eng.last_recovery().replayed;
                // The engine closes before its directory goes.
                (eng, dir, replayed)
            },
        );
    }

    // Ablation: buffer-pool capacity vs. scan cost on a table larger
    // than the small pools (CLOCK eviction effect).
    for pages in [16usize, 256, 4096] {
        let (_dir, eng, t) = engine_with_rows(pages, 20_000);
        measure(&format!("e2_pool_ablation/scan_20k_rows/{pages}"), || {
            scan_len(&eng, t)
        });
    }
}
