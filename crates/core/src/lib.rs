//! # rsmr-core — reconfigurable SMR from non-reconfigurable building blocks
//!
//! This crate is the reproduction's primary contribution: a
//! **reconfigurable** replicated state machine assembled from the *static*
//! Multi-Paxos instances of the `consensus` crate, following the PODC 2012
//! brief announcement by Bortnikov, Chockler, Perelman, Roytman, Shachor and
//! Shnayderman.
//!
//! ## The construction
//!
//! * The machine's life is divided into **epochs**. Epoch `e` runs one
//!   static SMR instance over a fixed configuration; the instance knows
//!   nothing about reconfiguration.
//! * A [`Cmd::Reconfigure`] command committed in epoch `e`'s log **closes**
//!   the epoch: by definition, epoch `e`'s externally visible history is the
//!   log prefix up to and including the *first* `Reconfigure` in slot order.
//!   Anything the static block commits after that point is
//!   deterministically discarded by every replica — this *reinterpretation*
//!   of the block's output is what lets an unmodified, non-stoppable block
//!   be composed safely.
//! * The successor instance for epoch `e+1` starts **speculatively**: the
//!   moment a replica processes the committed close command it instantiates
//!   the next block, hands leadership off without an election timeout
//!   (`fast_handoff`), and begins ordering new client commands — while
//!   state transfer to joining members is still in flight. Replicas that
//!   lack the base state buffer the successor's commits and externalize
//!   them only once *anchored*.
//! * Joining members receive a [`BaseState`] (application snapshot + client
//!   session table + configuration chain) from any finalized member of the
//!   previous epoch, then replay the successor's log from slot 0.
//!
//! ## Map of the crate
//!
//! | module | contents |
//! |---|---|
//! | [`chain`] | epochs and the agreed configuration chain |
//! | [`command`] | the replicated command wrapper ([`Cmd`]) |
//! | [`state_machine`] | the application contract ([`StateMachine`]) |
//! | [`session`] | exactly-once client sessions ([`SessionTable`]) |
//! | [`transfer`] | base-state snapshots for state transfer |
//! | [`messages`] | the composed protocol's wire messages |
//! | [`node`] | [`RsmrNode`] — the reconfigurable replica actor |
//! | [`client`] | closed/open-loop clients and the admin actor |

pub mod chain;
pub mod client;
pub mod command;
pub mod harness;
pub mod messages;
pub mod node;
pub mod observe;
pub mod session;
pub mod state_machine;
pub mod transfer;

pub use chain::{ConfigChain, Epoch};
pub use client::{AdminActor, HistoryEntry, OpenLoopClient, RsmrClient, GROUP_COMPLETES_KEYS};
pub use command::{BatchEntry, Cmd};
pub use messages::RsmrMsg;
pub use node::{RsmrNode, RsmrTunables, RETIRE_GRACE, ROLL_AFTER_SLOTS};
pub use observe::InvariantObserver;
pub use session::SessionTable;
pub use state_machine::{CounterSm, StateMachine};
pub use transfer::BaseState;
