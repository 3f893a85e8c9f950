//! # baselines — comparison systems for the reconfigurable-SMR reproduction
//!
//! Two systems the composed machine (`rsmr-core`) is evaluated against:
//!
//! * [`stw`] — **stop-the-world** reconfiguration over the *same* building
//!   blocks: drain the old instance, transfer state, block on acks, then
//!   start the successor. The naive composition the brief announcement
//!   improves upon; speaks the same wire language as `rsmr-core`, so the
//!   same clients and admin drive it.
//! * [`raft`] — **raft-lite**, a Raft-style natively reconfigurable SMR
//!   with single-server membership changes and snapshot install; the design
//!   dominating open-source practice.

pub mod harness;
pub mod raft;
pub mod stw;

pub use harness::{RaftWorld, StwWorld};
pub use raft::{RaftAdmin, RaftClient, RaftNode, RaftTunables};
pub use stw::StwNode;
