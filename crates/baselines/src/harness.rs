//! Ready-made world actors for the baseline systems (mirrors
//! `rsmr_core::harness::World`).

use rsmr_core::client::{AdminActor, RsmrClient};
use rsmr_core::messages::RsmrMsg;
use rsmr_core::state_machine::StateMachine;
use simnet::{Actor, Context, NodeId, Timer};

use crate::raft::{RaftAdmin, RaftClient, RaftMsg, RaftNode};
use crate::stw::StwNode;

/// One node of a stop-the-world world. STW speaks the composed machine's
/// wire language, so the clients and admin are `rsmr-core`'s own.
///
/// One `StwWorld` per node, stored once in the sim's slot table, so the
/// replica/client size imbalance is harmless.
#[allow(clippy::large_enum_variant)]
pub enum StwWorld<S: StateMachine> {
    /// A replica.
    Server(StwNode<S>),
    /// A closed-loop client.
    Client(RsmrClient<S>),
    /// The admin.
    Admin(AdminActor<S>),
}

impl<S: StateMachine> StwWorld<S> {
    /// The wrapped server, if this node is one.
    pub fn as_server(&self) -> Option<&StwNode<S>> {
        match self {
            StwWorld::Server(s) => Some(s),
            _ => None,
        }
    }

    /// The wrapped admin, if this node is one.
    pub fn as_admin(&self) -> Option<&AdminActor<S>> {
        match self {
            StwWorld::Admin(a) => Some(a),
            _ => None,
        }
    }

    /// Requests completed (clients only).
    pub fn completed(&self) -> u64 {
        match self {
            StwWorld::Client(c) => c.completed(),
            _ => 0,
        }
    }
}

impl<S: StateMachine> Actor for StwWorld<S> {
    type Msg = RsmrMsg<S::Op, S::Output>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            StwWorld::Server(a) => a.on_start(ctx),
            StwWorld::Client(a) => a.on_start(ctx),
            StwWorld::Admin(a) => a.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match self {
            StwWorld::Server(a) => a.on_message(ctx, from, msg),
            StwWorld::Client(a) => a.on_message(ctx, from, msg),
            StwWorld::Admin(a) => a.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: Timer) {
        match self {
            StwWorld::Server(a) => a.on_timer(ctx, timer),
            StwWorld::Client(a) => a.on_timer(ctx, timer),
            StwWorld::Admin(a) => a.on_timer(ctx, timer),
        }
    }
}

/// One node of a Raft world. Unboxed for the same reason as
/// [`StwWorld`].
#[allow(clippy::large_enum_variant)]
pub enum RaftWorld<S: StateMachine> {
    /// A replica.
    Server(RaftNode<S>),
    /// A closed-loop client.
    Client(RaftClient<S>),
    /// The membership admin.
    Admin(RaftAdmin<S>),
}

impl<S: StateMachine> RaftWorld<S> {
    /// The wrapped server, if this node is one.
    pub fn as_server(&self) -> Option<&RaftNode<S>> {
        match self {
            RaftWorld::Server(s) => Some(s),
            _ => None,
        }
    }

    /// The wrapped admin, if this node is one.
    pub fn as_admin(&self) -> Option<&RaftAdmin<S>> {
        match self {
            RaftWorld::Admin(a) => Some(a),
            _ => None,
        }
    }

    /// The wrapped client, if this node is one.
    pub fn as_client(&self) -> Option<&RaftClient<S>> {
        match self {
            RaftWorld::Client(c) => Some(c),
            _ => None,
        }
    }

    /// Requests completed (clients only).
    pub fn completed(&self) -> u64 {
        match self {
            RaftWorld::Client(c) => c.completed(),
            _ => 0,
        }
    }
}

impl<S: StateMachine> Actor for RaftWorld<S> {
    type Msg = RaftMsg<S::Op, S::Output>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            RaftWorld::Server(a) => a.on_start(ctx),
            RaftWorld::Client(a) => a.on_start(ctx),
            RaftWorld::Admin(a) => a.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match self {
            RaftWorld::Server(a) => a.on_message(ctx, from, msg),
            RaftWorld::Client(a) => a.on_message(ctx, from, msg),
            RaftWorld::Admin(a) => a.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: Timer) {
        match self {
            RaftWorld::Server(a) => a.on_timer(ctx, timer),
            RaftWorld::Client(a) => a.on_timer(ctx, timer),
            RaftWorld::Admin(a) => a.on_timer(ctx, timer),
        }
    }
}
