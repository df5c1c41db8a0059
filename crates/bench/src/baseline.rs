//! Ordered-storage baselines for experiment E1.
//!
//! §5.2 of the paper contrasts *modeling* order (hierarchical ordering as
//! a first-class concept) with what relational systems of the day
//! offered: sort keys maintained by the client. These three
//! implementations of one interface make that contrast measurable:
//!
//! * [`ModeledOrderingStore`] — the paper's approach: the MDM's instance
//!   graphs hold the ordering; a middle insert is one entity creation
//!   plus an in-memory splice, durability being amortized at save time.
//! * [`PositionStore`] — a client keeping an integer `position` attribute
//!   in a storage-engine table with a B+tree on position: a middle
//!   insert renumbers every following record through the transactional
//!   stack (the write amplification the paper's design avoids).
//! * [`FloatKeyStore`] — the classic client trick: float sort keys with
//!   gap bisection. Inserts are cheap until the float gaps are exhausted,
//!   then the whole table is renumbered.

use std::collections::HashMap;

use mdm_model::{Database, Value};
use mdm_storage::{encode_i64, Rid, StorageEngine, TableId};

use crate::harness::ScratchDir;

/// One ordered collection of `u64` children under a single parent.
pub trait OrderedStore {
    /// Implementation name for reports.
    fn name(&self) -> &'static str;
    /// Inserts `child` at `pos`, shifting later children.
    fn insert_at(&mut self, pos: usize, child: u64);
    /// Number of children.
    fn len(&self) -> usize;
    /// True when no children are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The children in order.
    fn children(&mut self) -> Vec<u64>;
    /// §5.6 `before`: does `a` precede `b`?
    fn before(&mut self, a: u64, b: u64) -> bool;
    /// The n-th child.
    fn nth(&mut self, n: usize) -> Option<u64>;

    /// Appends at the end.
    fn append(&mut self, child: u64) {
        let n = self.len();
        self.insert_at(n, child);
    }
}

// ----------------------------------------------------------------------
// Modeled hierarchical ordering (the paper's design)
// ----------------------------------------------------------------------

/// The MDM model: one CHORD parent, NOTE children in a named ordering.
pub struct ModeledOrderingStore {
    db: Database,
    parent: u64,
    /// external child id → entity id
    ids: HashMap<u64, u64>,
    /// entity id → external child id
    rev: HashMap<u64, u64>,
}

impl ModeledOrderingStore {
    /// Creates the store with its two-type schema.
    pub fn new() -> ModeledOrderingStore {
        let mut db = Database::new();
        db.define_entity("CHORD", vec![]).expect("schema");
        db.define_entity(
            "NOTE",
            vec![mdm_model::AttributeDef {
                name: "name".into(),
                ty: mdm_model::DataType::Integer,
            }],
        )
        .expect("schema");
        db.define_ordering(Some("o"), &["NOTE"], Some("CHORD"))
            .expect("schema");
        let parent = db.create_entity("CHORD", &[]).expect("parent");
        ModeledOrderingStore {
            db,
            parent,
            ids: HashMap::new(),
            rev: HashMap::new(),
        }
    }
}

impl Default for ModeledOrderingStore {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedStore for ModeledOrderingStore {
    fn name(&self) -> &'static str {
        "modeled-ordering"
    }

    fn insert_at(&mut self, pos: usize, child: u64) {
        let e = self
            .db
            .create_entity("NOTE", &[("name", Value::Integer(child as i64))])
            .expect("create");
        self.ids.insert(child, e);
        self.rev.insert(e, child);
        self.db
            .ord_insert("o", Some(self.parent), pos, e)
            .expect("insert");
    }

    fn len(&self) -> usize {
        self.db
            .ord_children("o", Some(self.parent))
            .map_or(0, |v| v.len())
    }

    fn children(&mut self) -> Vec<u64> {
        self.db
            .ord_children("o", Some(self.parent))
            .expect("children")
            .into_iter()
            .map(|e| self.rev[&e])
            .collect()
    }

    fn before(&mut self, a: u64, b: u64) -> bool {
        self.db
            .before("o", self.ids[&a], self.ids[&b])
            .expect("before")
    }

    fn nth(&mut self, n: usize) -> Option<u64> {
        self.db
            .nth_child("o", Some(self.parent), n)
            .expect("nth")
            .map(|e| self.rev[&e])
    }
}

// ----------------------------------------------------------------------
// Integer-position baseline
// ----------------------------------------------------------------------

/// A client-maintained `(child, position)` relation with B+tree indexes
/// on position and child; middle inserts renumber.
pub struct PositionStore {
    engine: StorageEngine,
    table: TableId,
    count: usize,
    _dir: ScratchDir,
}

fn record(child: u64, pos: i64) -> Vec<u8> {
    let mut r = Vec::with_capacity(16);
    r.extend_from_slice(&child.to_le_bytes());
    r.extend_from_slice(&pos.to_le_bytes());
    r
}

fn decode_record(r: &[u8]) -> (u64, i64) {
    (
        u64::from_le_bytes(r[0..8].try_into().expect("record")),
        i64::from_le_bytes(r[8..16].try_into().expect("record")),
    )
}

impl PositionStore {
    /// Creates the backing table and indexes in a fresh temp database.
    pub fn new() -> PositionStore {
        let dir = ScratchDir::new("pos");
        let engine = StorageEngine::open(dir.path()).expect("open engine");
        let table = engine.create_table("items").expect("table");
        engine.create_index(table, "by_pos").expect("index");
        engine.create_index(table, "by_child").expect("index");
        PositionStore {
            engine,
            table,
            count: 0,
            _dir: dir,
        }
    }

    fn rid_of_child(&self, txn: &mut mdm_storage::Txn, child: u64) -> Option<Rid> {
        self.engine
            .index_lookup(txn, self.table, "by_child", &child.to_be_bytes())
            .expect("lookup")
            .into_iter()
            .next()
    }

    fn pos_of_child(&self, txn: &mut mdm_storage::Txn, child: u64) -> Option<i64> {
        let rid = self.rid_of_child(txn, child)?;
        let rec = self.engine.get(txn, self.table, rid).expect("get")?;
        Some(decode_record(&rec).1)
    }
}

impl Default for PositionStore {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedStore for PositionStore {
    fn name(&self) -> &'static str {
        "relational-renumber"
    }

    fn insert_at(&mut self, pos: usize, child: u64) {
        let mut txn = self.engine.begin().expect("begin");
        // Renumber everything at or after `pos` (descending, so unique
        // positions never collide mid-update).
        let hits = self
            .engine
            .index_range(
                &mut txn,
                self.table,
                "by_pos",
                Some(&encode_i64(pos as i64)),
                None,
            )
            .expect("range");
        for (key, rid) in hits.into_iter().rev() {
            let old_pos = mdm_storage::decode_i64(&key);
            let rec = self
                .engine
                .get(&mut txn, self.table, rid)
                .expect("get")
                .expect("rec");
            let (c, _) = decode_record(&rec);
            let new_rid = self
                .engine
                .update(&mut txn, self.table, rid, &record(c, old_pos + 1))
                .expect("update");
            self.engine
                .index_delete(&mut txn, self.table, "by_pos", &key, rid)
                .expect("idx del");
            self.engine
                .index_insert(
                    &mut txn,
                    self.table,
                    "by_pos",
                    &encode_i64(old_pos + 1),
                    new_rid,
                )
                .expect("idx ins");
            if new_rid != rid {
                self.engine
                    .index_delete(&mut txn, self.table, "by_child", &c.to_be_bytes(), rid)
                    .expect("idx del");
                self.engine
                    .index_insert(&mut txn, self.table, "by_child", &c.to_be_bytes(), new_rid)
                    .expect("idx ins");
            }
        }
        let rid = self
            .engine
            .insert(&mut txn, self.table, &record(child, pos as i64))
            .expect("insert");
        self.engine
            .index_insert(&mut txn, self.table, "by_pos", &encode_i64(pos as i64), rid)
            .expect("idx ins");
        self.engine
            .index_insert(&mut txn, self.table, "by_child", &child.to_be_bytes(), rid)
            .expect("idx ins");
        self.engine.commit(txn).expect("commit");
        self.count += 1;
    }

    fn len(&self) -> usize {
        self.count
    }

    fn children(&mut self) -> Vec<u64> {
        let mut txn = self.engine.begin().expect("begin");
        let hits = self
            .engine
            .index_range(&mut txn, self.table, "by_pos", None, None)
            .expect("range");
        let mut out = Vec::with_capacity(hits.len());
        for (_, rid) in hits {
            let rec = self
                .engine
                .get(&mut txn, self.table, rid)
                .expect("get")
                .expect("rec");
            out.push(decode_record(&rec).0);
        }
        self.engine.commit(txn).expect("commit");
        out
    }

    fn before(&mut self, a: u64, b: u64) -> bool {
        let mut txn = self.engine.begin().expect("begin");
        let pa = self.pos_of_child(&mut txn, a);
        let pb = self.pos_of_child(&mut txn, b);
        self.engine.commit(txn).expect("commit");
        matches!((pa, pb), (Some(x), Some(y)) if x < y)
    }

    fn nth(&mut self, n: usize) -> Option<u64> {
        let mut txn = self.engine.begin().expect("begin");
        let hit = self
            .engine
            .index_lookup(&mut txn, self.table, "by_pos", &encode_i64(n as i64))
            .expect("lookup")
            .into_iter()
            .next();
        let out = hit.map(|rid| {
            let rec = self
                .engine
                .get(&mut txn, self.table, rid)
                .expect("get")
                .expect("rec");
            decode_record(&rec).0
        });
        self.engine.commit(txn).expect("commit");
        out
    }
}

// ----------------------------------------------------------------------
// Float-gap-key baseline
// ----------------------------------------------------------------------

fn f64_key(x: f64) -> [u8; 8] {
    let bits = x.to_bits();
    let mapped = if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    };
    mapped.to_be_bytes()
}

/// A client keeping float sort keys, bisecting gaps on middle insert and
/// renumbering the whole table when a gap closes.
pub struct FloatKeyStore {
    engine: StorageEngine,
    table: TableId,
    /// In-memory mirror: (sort key, child) in order — the client's cache.
    order: Vec<(f64, u64)>,
    /// Number of full renumber passes taken (reported by the benches).
    pub renumbers: usize,
    _dir: ScratchDir,
}

impl FloatKeyStore {
    /// Creates the backing table in a fresh temp database.
    pub fn new() -> FloatKeyStore {
        let dir = ScratchDir::new("float");
        let engine = StorageEngine::open(dir.path()).expect("open engine");
        let table = engine.create_table("items").expect("table");
        engine.create_index(table, "by_key").expect("index");
        FloatKeyStore {
            engine,
            table,
            order: Vec::new(),
            renumbers: 0,
            _dir: dir,
        }
    }

    fn write(&self, txn: &mut mdm_storage::Txn, key: f64, child: u64) {
        let mut rec = Vec::with_capacity(16);
        rec.extend_from_slice(&child.to_le_bytes());
        rec.extend_from_slice(&key.to_le_bytes());
        let rid = self.engine.insert(txn, self.table, &rec).expect("insert");
        self.engine
            .index_insert(txn, self.table, "by_key", &f64_key(key), rid)
            .expect("idx");
    }

    fn renumber(&mut self) {
        // Gap exhausted: rewrite every record with keys spaced 1.0 apart.
        self.renumbers += 1;
        self.engine.drop_table("items").expect("drop");
        self.table = self.engine.create_table("items").expect("table");
        self.engine
            .create_index(self.table, "by_key")
            .expect("index");
        let mut txn = self.engine.begin().expect("begin");
        for (i, entry) in self.order.iter_mut().enumerate() {
            entry.0 = i as f64;
        }
        for &(key, child) in &self.order {
            self.write(&mut txn, key, child);
        }
        self.engine.commit(txn).expect("commit");
    }
}

impl Default for FloatKeyStore {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedStore for FloatKeyStore {
    fn name(&self) -> &'static str {
        "relational-floatkey"
    }

    fn insert_at(&mut self, pos: usize, child: u64) {
        let key = match (
            pos.checked_sub(1).and_then(|p| self.order.get(p)),
            self.order.get(pos),
        ) {
            (None, None) => 0.0,
            (Some(&(left, _)), None) => left + 1.0,
            (None, Some(&(right, _))) => right - 1.0,
            (Some(&(left, _)), Some(&(right, _))) => {
                let mid = (left + right) / 2.0;
                if mid <= left || mid >= right {
                    // Precision exhausted: full renumber, then retry.
                    self.order.insert(pos, (0.0, child));
                    // Temporarily give it a placeholder; renumber fixes all.
                    self.renumber();
                    return;
                }
                mid
            }
        };
        self.order.insert(pos, (key, child));
        let mut txn = self.engine.begin().expect("begin");
        self.write(&mut txn, key, child);
        self.engine.commit(txn).expect("commit");
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn children(&mut self) -> Vec<u64> {
        let mut txn = self.engine.begin().expect("begin");
        let hits = self
            .engine
            .index_range(&mut txn, self.table, "by_key", None, None)
            .expect("range");
        let mut out = Vec::with_capacity(hits.len());
        for (_, rid) in hits {
            let rec = self
                .engine
                .get(&mut txn, self.table, rid)
                .expect("get")
                .expect("rec");
            out.push(u64::from_le_bytes(rec[0..8].try_into().expect("rec")));
        }
        self.engine.commit(txn).expect("commit");
        out
    }

    fn before(&mut self, a: u64, b: u64) -> bool {
        let ka = self.order.iter().find(|&&(_, c)| c == a).map(|&(k, _)| k);
        let kb = self.order.iter().find(|&&(_, c)| c == b).map(|&(k, _)| k);
        matches!((ka, kb), (Some(x), Some(y)) if x < y)
    }

    fn nth(&mut self, n: usize) -> Option<u64> {
        // No positional index over float keys: the client scans.
        self.order.get(n).map(|&(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn OrderedStore) {
        // Append 0..10, then insert 100 at position 3 and 101 at 0.
        for i in 0..10 {
            store.append(i);
        }
        store.insert_at(3, 100);
        store.insert_at(0, 101);
        let expect = vec![101, 0, 1, 2, 100, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(store.children(), expect, "{}", store.name());
        assert_eq!(store.len(), 12);
        assert_eq!(store.nth(4), Some(100), "{}", store.name());
        assert!(store.before(101, 9), "{}", store.name());
        assert!(store.before(2, 100), "{}", store.name());
        assert!(!store.before(100, 2), "{}", store.name());
        assert!(!store.before(5, 5), "{}", store.name());
    }

    #[test]
    fn modeled_store_semantics() {
        exercise(&mut ModeledOrderingStore::new());
    }

    #[test]
    fn position_store_semantics() {
        exercise(&mut PositionStore::new());
    }

    #[test]
    fn float_store_semantics() {
        exercise(&mut FloatKeyStore::new());
    }

    #[test]
    fn float_store_renumbers_when_gap_closes() {
        let mut s = FloatKeyStore::new();
        s.append(0);
        s.append(1);
        s.insert_at(1, 2);
        // Inserting repeatedly just after child 2 pinches the gap between
        // two converging keys: the mantissa runs out in ~50 bisections.
        for i in 3..80 {
            s.insert_at(2, i);
        }
        assert!(s.renumbers >= 1, "expected at least one renumber");
        // Order still correct: [0, 2, 79, 78, …, 3, 1].
        let kids = s.children();
        assert_eq!(kids[0], 0);
        assert_eq!(kids[1], 2);
        assert_eq!(kids[2], 79);
        assert_eq!(*kids.last().unwrap(), 1);
        assert_eq!(kids.len(), 80);
    }

    #[test]
    fn all_stores_agree_on_random_ops() {
        let mut modeled = ModeledOrderingStore::new();
        let mut position = PositionStore::new();
        let mut float = FloatKeyStore::new();
        let mut reference: Vec<u64> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for child in 0..60u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pos = (state >> 33) as usize % (reference.len() + 1);
            reference.insert(pos, child);
            modeled.insert_at(pos, child);
            position.insert_at(pos, child);
            float.insert_at(pos, child);
        }
        assert_eq!(modeled.children(), reference);
        assert_eq!(position.children(), reference);
        assert_eq!(float.children(), reference);
    }
}
