//! # consensus — the static, non-reconfigurable SMR building block
//!
//! This crate implements the "building block" half of the PODC'12 brief
//! announcement: a classic **static Multi-Paxos replicated log** over a
//! fixed member set. The block knows nothing about reconfiguration — it has
//! one configuration for its whole life — which is precisely what makes it
//! simple and what the composition layer (`rsmr-core`) exploits.
//!
//! The protocol core ([`MultiPaxos`]) is *sans-I/O*: it is a pure state
//! machine whose inputs are messages and clock ticks and whose outputs are
//! an [`Effects`] value (messages to send, newly committed entries, state to
//! persist). The [`actor`] module adapts it to the `simnet` actor world and
//! adds a minimal client for standalone deployments; `rsmr-core` embeds the
//! same core, one instance per configuration epoch.
//!
//! A self-contained single-decree synod implementation
//! ([`single_decree`]) is included as the object of the crate's agreement
//! property tests.

pub mod actor;
mod config;
mod effects;
mod msg;
mod multipaxos;
pub mod single_decree;
mod types;

pub use config::StaticConfig;
pub use effects::{Effects, FlushCause, FlushStat};
pub use msg::PaxosMsg;
pub use multipaxos::{MultiPaxos, PaxosTunables, ProposeOutcome, Role, ELECTION_TIMEOUT};
pub use types::{Ballot, Command, Slot};
