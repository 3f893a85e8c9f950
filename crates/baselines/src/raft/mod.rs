//! `raft-lite`: a Raft-style natively reconfigurable SMR.
//!
//! The comparison system representing the design that dominates
//! open-source practice: reconfiguration is part of the replication
//! protocol (configuration entries in the log, single-server changes,
//! snapshot-based catch-up) rather than a composition of static instances.

mod actor;
mod core;
mod msg;

pub use actor::{RaftAdmin, RaftClient, RaftNode, RaftTunables};
pub use core::{RaftCore, RaftEffects, RaftPropose, RaftRole};
pub use msg::{Index, RaftMsg, RaftRpc, Term};
