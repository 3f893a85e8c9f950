//! # bench — the experiment harness
//!
//! Shared machinery for reproducing every table and figure of the
//! evaluation (`EXPERIMENTS.md`): scenario definitions, one generic driver
//! over a per-system trait, metric extraction and table formatting.
//!
//! The five system variants (see `DESIGN.md` §5):
//!
//! * **static** — the bare non-reconfigurable Multi-Paxos building block;
//! * **rsmr** — the paper's composition, speculation on (`fast_handoff`);
//! * **rsmr-nospec** — the composition with speculative handoff disabled;
//! * **stw** — stop-the-world composition baseline;
//! * **raft** — raft-lite, natively reconfigurable.
//!
//! Run everything with `cargo run --release -p bench --bin exp_all`.

pub mod experiments;
pub mod microbench;
pub mod runner;
pub mod sharded;
pub mod table;

pub use runner::{RunOut, Scenario, SystemKind};
pub use sharded::{MergedOut, ShardRunOut, ShardScenario, ShardSystem};
pub use table::Table;
