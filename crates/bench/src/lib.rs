//! # mdm-bench
//!
//! The benchmark harness: workload generators, the relational baselines
//! for the ordering study (EXPERIMENTS.md, E1), the timing, sweep and
//! document machinery every bench shares ([`harness`]), the validators
//! of the committed `BENCH_*.json` documents ([`validate`]), and the
//! `repro` binary that regenerates every figure of the paper.

pub mod baseline;
pub mod harness;
pub mod validate;
pub mod workload;

pub use baseline::{FloatKeyStore, ModeledOrderingStore, OrderedStore, PositionStore};
