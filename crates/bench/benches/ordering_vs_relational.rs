//! E1: modeled hierarchical ordering vs. client-over-relational baselines.
//!
//! §5.2 contrasts the MDM's modeled orderings with the sort-key machinery
//! relational systems offered. Three implementations of one ordered-store
//! interface (see `mdm_bench::baseline`) are driven through the
//! operations the paper's query operators need:
//!
//! * `append`        — building a score left to right;
//! * `insert_middle` — editing: inserting a chord mid-voice;
//! * `before`        — the §5.6 `before` predicate;
//! * `nth`           — "the third note in chord x".
//!
//! Expected shape: the renumbering baseline degrades linearly on middle
//! inserts (write amplification through WAL and indexes); the float-key
//! baseline stays flat until gaps exhaust; the modeled ordering does an
//! in-memory splice. Scans and positional queries are comparable.

use mdm_bench::harness::{measure, measure_setup};
use mdm_bench::{FloatKeyStore, ModeledOrderingStore, OrderedStore, PositionStore};

const SIZES: [usize; 3] = [100, 1_000, 5_000];

type Make = fn() -> Box<dyn OrderedStore>;

const STORES: [Make; 3] = [
    || Box::new(ModeledOrderingStore::new()),
    || Box::new(PositionStore::new()),
    || Box::new(FloatKeyStore::new()),
];

fn built(make: Make, n: usize) -> Box<dyn OrderedStore> {
    let mut store = make();
    for i in 0..n {
        store.append(i as u64);
    }
    store
}

fn main() {
    for n in SIZES {
        for make in STORES {
            let mut store = built(make, n);
            let name = store.name();
            let (a, z) = ((n / 3) as u64, (2 * n / 3) as u64);
            measure(&format!("e1_before/{name}/{n}"), || store.before(a, z));
            measure(&format!("e1_nth_child/{name}/{n}"), || store.nth(n / 2));
            measure(&format!("e1_ordered_scan/{name}/{n}"), || {
                store.children().len()
            });
            // Last on this store: every call grows it by one child.
            let mut next = n as u64;
            measure(&format!("e1_insert_middle/{name}/{n}"), || {
                store.insert_at(n / 2, next);
                next += 1;
            });
            measure_setup(&format!("e1_append/{name}/{n}"), || (), |()| built(make, n));
        }
    }
}
