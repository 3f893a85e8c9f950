//! Online protocol-invariant checking over the typed event stream.
//!
//! [`InvariantObserver`] subscribes to a [`Sim`](simnet::Sim)'s event bus
//! (via [`Sim::add_observer`](simnet::Sim::add_observer)) and cross-checks
//! the composition-layer lifecycle events every node emits:
//!
//! - **Seal agreement** — every replica that seals an epoch reports the
//!   same seal slot. Divergent seal slots would mean two replicas closed
//!   the same epoch at different points, i.e. a forked configuration chain.
//! - **No apply past the seal point** — once an epoch is sealed at slot
//!   `s`, no command at a slot `> s` of that epoch may ever reach a state
//!   machine. The consensus layer is allowed to *commit* entries past the
//!   seal (the composition discards that tail and re-proposes it in the
//!   successor), so the externally visible invariant is enforced where it
//!   matters: at apply time ([`DomainEvent::CmdApplied`] and
//!   [`DomainEvent::FirstCommit`]). The check is retroactive as well —
//!   applies observed *before* the seal event arrives are re-validated when
//!   the seal slot becomes known.
//! - **Transfers only target live epochs** — a base-state transfer
//!   (requested or served) must name an epoch that exists, i.e. one whose
//!   predecessor has been sealed (or that some node has anchored).
//! - **At most one anchored successor per epoch** — each node's anchor
//!   moves strictly forward: a node never re-anchors an epoch it already
//!   passed, so no epoch acquires two competing successors on any replica.
//!   Together with seal agreement this pins the configuration chain to a
//!   single line.
//! - **One first-commit per (node, epoch)** — the handoff-gap end marker
//!   fires at most once per node and epoch.
//!
//! Per-node expectations (anchor monotonicity, first-commit uniqueness)
//! reset when the checker sees that node crash: a restarted incarnation
//! loses its volatile watermarks and legitimately replays those events.
//! Log-wide facts (seal slots, applied high-water marks) survive crashes —
//! they are properties of the replicated log, not of any one replica.
//!
//! In *strict* mode (the default for tests, via
//! [`InvariantObserver::strict`]) the first violation panics with a
//! description, pointing straight at the offending event. In collecting
//! mode ([`InvariantObserver::new`]) violations accumulate and are checked
//! at the end with [`assert_clean`](InvariantObserver::assert_clean) or
//! inspected with [`violations`](InvariantObserver::violations).
//!
//! ```
//! use rsmr_core::InvariantObserver;
//! use simnet::observe::shared;
//!
//! let checker = shared(InvariantObserver::strict());
//! // sim.add_observer(checker.clone());
//! // ... run the simulation; a violation panics immediately ...
//! // checker.borrow().assert_clean();
//! ```

use std::collections::{BTreeMap, BTreeSet};

use simnet::observe::{DomainEvent, Observer, SimEvent};
use simnet::{NodeId, SimTime};

/// An [`Observer`] that asserts RSMR protocol invariants online.
///
/// See the [module docs](self) for the invariants checked.
#[derive(Debug, Default)]
pub struct InvariantObserver {
    /// Panic at the first violation instead of collecting it.
    strict: bool,
    /// Epoch -> agreed seal slot (first seal event wins; later ones must
    /// match).
    seal_slots: BTreeMap<u64, u64>,
    /// Epoch -> highest slot seen applied in it (across all nodes).
    max_applied: BTreeMap<u64, u64>,
    /// Epochs known to exist: successors of sealed epochs, plus any epoch
    /// some node anchored.
    live: BTreeSet<u64>,
    /// Node -> highest epoch it anchored (must strictly increase).
    anchored_by: BTreeMap<NodeId, u64>,
    /// (node, epoch) pairs that already reported a first commit.
    first_commits: BTreeSet<(NodeId, u64)>,
    /// Violations found so far (empty in strict mode unless panics are
    /// caught).
    violations: Vec<String>,
    /// Total domain events consumed — lets tests assert the stream actually
    /// flowed.
    domain_events: u64,
}

impl InvariantObserver {
    /// A collecting checker: violations accumulate for later inspection.
    pub fn new() -> Self {
        Self::default()
    }

    /// A strict checker: the first violation panics with its description.
    pub fn strict() -> Self {
        InvariantObserver {
            strict: true,
            ..Self::default()
        }
    }

    /// All violations recorded so far (always empty while a strict checker
    /// is alive — it panics instead).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Panics listing every violation unless the stream was clean.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "protocol invariant violations:\n  {}",
            self.violations.join("\n  ")
        );
    }

    /// How many domain events this checker has consumed.
    pub fn domain_events_seen(&self) -> u64 {
        self.domain_events
    }

    fn violation(&mut self, at: SimTime, msg: String) {
        let full = format!("[{at}] {msg}");
        if self.strict {
            panic!("protocol invariant violated: {full}");
        }
        self.violations.push(full);
    }

    fn on_domain(&mut self, at: SimTime, node: NodeId, ev: DomainEvent) {
        self.domain_events += 1;
        match ev {
            DomainEvent::EpochSealed { epoch, seal_slot } => match self.seal_slots.get(&epoch) {
                Some(&agreed) if agreed != seal_slot => self.violation(
                    at,
                    format!(
                        "{node} sealed epoch {epoch} at slot {seal_slot}, \
                             but it was already sealed at slot {agreed}"
                    ),
                ),
                Some(_) => {}
                None => {
                    self.seal_slots.insert(epoch, seal_slot);
                    self.live.insert(epoch + 1);
                    if let Some(&applied) = self.max_applied.get(&epoch) {
                        if applied > seal_slot {
                            self.violation(
                                at,
                                format!(
                                    "epoch {epoch} sealed at slot {seal_slot} after \
                                         slot {applied} was already applied past it"
                                ),
                            );
                        }
                    }
                }
            },
            DomainEvent::CmdApplied { epoch, slot, .. } => {
                self.note_applied(at, node, epoch, slot);
            }
            DomainEvent::FirstCommit { epoch, slot } => {
                if !self.first_commits.insert((node, epoch)) {
                    self.violation(
                        at,
                        format!("{node} reported a second first-commit for epoch {epoch}"),
                    );
                }
                self.note_applied(at, node, epoch, slot);
            }
            DomainEvent::TransferRequested { epoch, provider } => {
                if !self.live.contains(&epoch) {
                    self.violation(
                        at,
                        format!(
                            "{node} requested a transfer of epoch {epoch} from \
                             {provider}, but that epoch was never created"
                        ),
                    );
                }
            }
            DomainEvent::TransferServed { epoch, to, .. } => {
                if !self.live.contains(&epoch) {
                    self.violation(
                        at,
                        format!(
                            "{node} served a transfer of epoch {epoch} to {to}, \
                             but that epoch was never created"
                        ),
                    );
                }
            }
            DomainEvent::Anchored { epoch } => {
                self.live.insert(epoch);
                match self.anchored_by.get(&node) {
                    Some(&prev) if prev >= epoch => self.violation(
                        at,
                        format!(
                            "{node} anchored epoch {epoch} after already \
                             anchoring epoch {prev}"
                        ),
                    ),
                    _ => {
                        self.anchored_by.insert(node, epoch);
                    }
                }
            }
            DomainEvent::ReconfigProposed { .. }
            | DomainEvent::CmdSubmitted { .. }
            | DomainEvent::CmdProposed { .. }
            | DomainEvent::CmdCommitted { .. } => {}
        }
    }

    fn note_applied(&mut self, at: SimTime, node: NodeId, epoch: u64, slot: u64) {
        let high = self.max_applied.entry(epoch).or_insert(slot);
        if slot > *high {
            *high = slot;
        }
        if let Some(&seal) = self.seal_slots.get(&epoch) {
            if slot > seal {
                self.violation(
                    at,
                    format!(
                        "{node} applied slot {slot} of epoch {epoch}, \
                         past its seal point {seal}"
                    ),
                );
            }
        }
    }
}

impl Observer for InvariantObserver {
    fn on_event(&mut self, at: SimTime, ev: &SimEvent) {
        match *ev {
            SimEvent::Domain { node, event } => self.on_domain(at, node, event),
            SimEvent::Crashed { node } => {
                // The node's volatile watermarks are gone; a restarted
                // incarnation may re-anchor and re-report first commits.
                self.anchored_by.remove(&node);
                self.first_commits.retain(|&(n, _)| n != node);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain(node: u64, event: DomainEvent) -> SimEvent {
        SimEvent::Domain {
            node: NodeId(node),
            event,
        }
    }

    fn feed(obs: &mut InvariantObserver, events: &[SimEvent]) {
        for (i, ev) in events.iter().enumerate() {
            obs.on_event(SimTime::from_micros(i as u64), ev);
        }
    }

    #[test]
    fn clean_reconfiguration_stream_passes() {
        let mut obs = InvariantObserver::new();
        feed(
            &mut obs,
            &[
                domain(0, DomainEvent::ReconfigProposed { epoch: 0 }),
                domain(
                    0,
                    DomainEvent::CmdApplied {
                        client: NodeId(100),
                        seq: 1,
                        epoch: 0,
                        slot: 3,
                    },
                ),
                domain(
                    0,
                    DomainEvent::EpochSealed {
                        epoch: 0,
                        seal_slot: 4,
                    },
                ),
                domain(
                    1,
                    DomainEvent::EpochSealed {
                        epoch: 0,
                        seal_slot: 4,
                    },
                ),
                domain(0, DomainEvent::Anchored { epoch: 1 }),
                domain(
                    3,
                    DomainEvent::TransferRequested {
                        epoch: 1,
                        provider: NodeId(0),
                    },
                ),
                domain(
                    0,
                    DomainEvent::TransferServed {
                        epoch: 1,
                        to: NodeId(3),
                        bytes: 64,
                    },
                ),
                domain(3, DomainEvent::Anchored { epoch: 1 }),
                domain(0, DomainEvent::FirstCommit { epoch: 1, slot: 0 }),
            ],
        );
        obs.assert_clean();
        assert_eq!(obs.domain_events_seen(), 9);
    }

    #[test]
    fn divergent_seal_slots_are_flagged() {
        let mut obs = InvariantObserver::new();
        feed(
            &mut obs,
            &[
                domain(
                    0,
                    DomainEvent::EpochSealed {
                        epoch: 2,
                        seal_slot: 7,
                    },
                ),
                domain(
                    1,
                    DomainEvent::EpochSealed {
                        epoch: 2,
                        seal_slot: 9,
                    },
                ),
            ],
        );
        assert_eq!(obs.violations().len(), 1);
        assert!(obs.violations()[0].contains("already sealed at slot 7"));
    }

    #[test]
    fn apply_past_seal_is_flagged_in_both_orders() {
        // Seal first, apply after.
        let mut obs = InvariantObserver::new();
        feed(
            &mut obs,
            &[
                domain(
                    0,
                    DomainEvent::EpochSealed {
                        epoch: 0,
                        seal_slot: 5,
                    },
                ),
                domain(
                    1,
                    DomainEvent::CmdApplied {
                        client: NodeId(100),
                        seq: 1,
                        epoch: 0,
                        slot: 6,
                    },
                ),
            ],
        );
        assert_eq!(obs.violations().len(), 1, "{:?}", obs.violations());

        // Apply first, seal revealed retroactively.
        let mut obs = InvariantObserver::new();
        feed(
            &mut obs,
            &[
                domain(
                    1,
                    DomainEvent::CmdApplied {
                        client: NodeId(100),
                        seq: 1,
                        epoch: 0,
                        slot: 6,
                    },
                ),
                domain(
                    0,
                    DomainEvent::EpochSealed {
                        epoch: 0,
                        seal_slot: 5,
                    },
                ),
            ],
        );
        assert_eq!(obs.violations().len(), 1, "{:?}", obs.violations());
    }

    #[test]
    fn transfers_to_uncreated_epochs_are_flagged() {
        let mut obs = InvariantObserver::new();
        feed(
            &mut obs,
            &[domain(
                3,
                DomainEvent::TransferRequested {
                    epoch: 4,
                    provider: NodeId(0),
                },
            )],
        );
        assert_eq!(obs.violations().len(), 1);
        assert!(obs.violations()[0].contains("never created"));
    }

    #[test]
    fn anchor_regression_is_flagged() {
        let mut obs = InvariantObserver::new();
        feed(
            &mut obs,
            &[
                domain(
                    0,
                    DomainEvent::EpochSealed {
                        epoch: 0,
                        seal_slot: 1,
                    },
                ),
                domain(
                    0,
                    DomainEvent::EpochSealed {
                        epoch: 1,
                        seal_slot: 9,
                    },
                ),
                domain(0, DomainEvent::Anchored { epoch: 2 }),
                domain(0, DomainEvent::Anchored { epoch: 1 }),
            ],
        );
        assert_eq!(obs.violations().len(), 1);
        assert!(obs.violations()[0].contains("already"));
    }

    #[test]
    fn a_crash_resets_per_node_expectations() {
        let mut obs = InvariantObserver::new();
        feed(
            &mut obs,
            &[
                domain(
                    0,
                    DomainEvent::EpochSealed {
                        epoch: 0,
                        seal_slot: 3,
                    },
                ),
                domain(1, DomainEvent::Anchored { epoch: 1 }),
                domain(1, DomainEvent::FirstCommit { epoch: 1, slot: 0 }),
                SimEvent::Crashed { node: NodeId(1) },
                // The restarted incarnation replays both without violation.
                domain(1, DomainEvent::Anchored { epoch: 1 }),
                domain(1, DomainEvent::FirstCommit { epoch: 1, slot: 0 }),
            ],
        );
        obs.assert_clean();
    }

    #[test]
    #[should_panic(expected = "protocol invariant violated")]
    fn strict_mode_panics_at_the_first_violation() {
        let mut obs = InvariantObserver::strict();
        feed(
            &mut obs,
            &[domain(
                3,
                DomainEvent::TransferRequested {
                    epoch: 4,
                    provider: NodeId(0),
                },
            )],
        );
    }

    #[test]
    fn duplicate_first_commit_is_flagged() {
        let mut obs = InvariantObserver::new();
        feed(
            &mut obs,
            &[
                domain(
                    0,
                    DomainEvent::EpochSealed {
                        epoch: 0,
                        seal_slot: 3,
                    },
                ),
                domain(0, DomainEvent::FirstCommit { epoch: 1, slot: 0 }),
                domain(0, DomainEvent::FirstCommit { epoch: 1, slot: 2 }),
            ],
        );
        assert_eq!(obs.violations().len(), 1);
        assert!(obs.violations()[0].contains("second first-commit"));
    }
}
