//! The composed reconfigurable replica.
//!
//! [`RsmrNode`] glues the pieces together: it runs one static
//! [`MultiPaxos`] instance per epoch, routes client traffic to the active
//! instance, enforces the *close-at-first-`Reconfigure`* prefix rule,
//! starts successor instances speculatively, serves and consumes state
//! transfer, and externalizes application effects exactly once.
//!
//! ## Anchoring
//!
//! A replica's application state is always "anchored" at some `(epoch,
//! next_slot)`: the state equals the composed history through every epoch
//! before `epoch` plus `epoch`'s slots below `next_slot`. Committed entries
//! for *later* epochs (or for an epoch whose base the replica does not have
//! yet — a joining member) are buffered and drained in order by the apply
//! pump once the anchor reaches them. The pump is also where the close
//! rule lives: the first `Reconfigure` applied in slot order closes the
//! epoch, everything buffered after it is discarded (with discarded client
//! commands re-proposed into the successor), and the anchor
//! moves to the successor's slot 0.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use consensus::{MultiPaxos, PaxosTunables, ProposeOutcome, Slot, StaticConfig};
use simnet::wire::{self, Wire};
use simnet::{Actor, Context, DomainEvent, NodeId, SimDuration, SimTime, StableStore, Timer};

use crate::chain::{ConfigChain, Epoch};
use crate::command::{BatchEntry, Cmd};
use crate::messages::RsmrMsg;
use crate::session::{SessionDecision, SessionTable};
use crate::state_machine::StateMachine;
use crate::transfer::{
    assemble_full_pages, BaseState, ChunkAssembly, ChunkOutcome, TransferManifest, TransferMode,
    TransferPlan, CHUNK_TARGET,
};

/// How often the node pumps instance timers.
const TICK: SimDuration = SimDuration::from_millis(5);
/// Retry interval for state-transfer requests.
const TRANSFER_RETRY: SimDuration = SimDuration::from_millis(100);
/// How long a closed epoch's instance keeps serving catch-up before it is
/// halted and dropped.
pub const RETIRE_GRACE: SimDuration = SimDuration::from_secs(2);
/// In-epoch incremental compaction: how many snapshot pages the rolling
/// cursor refreshes per tick. Pages whose [`StateMachine::page_version`]
/// still matches the cached encode are skipped, so a full pass over a
/// quiescent state costs nothing; at epoch seal only pages dirtied since
/// the cursor last passed them need re-encoding. Irrelevant for
/// single-page state machines.
const COMPACT_PAGES_PER_TICK: usize = 8;

/// Behaviour knobs of the composed replica.
#[derive(Clone, Debug)]
pub struct RsmrTunables {
    /// Tunables for every embedded building-block instance. Setting
    /// `paxos.lease_duration` also serves pure reads (operations with a
    /// [`StateMachine::query`] answer) locally at the leader under the
    /// read lease, skipping the log.
    pub paxos: PaxosTunables,
    /// Speculative handoff: the closing epoch's leader campaigns in the
    /// successor instance immediately, skipping the election timeout. This
    /// is the headline optimization; experiment E2/E5 toggles it.
    pub fast_handoff: bool,
}

impl Default for RsmrTunables {
    fn default() -> Self {
        RsmrTunables {
            paxos: PaxosTunables::default(),
            fast_handoff: true,
        }
    }
}

/// One epoch's embedded building block plus composition bookkeeping.
struct Instance<O: CmdOp> {
    paxos: MultiPaxos<Cmd<O>>,
    /// Set when the apply pump hits this epoch's first `Reconfigure`:
    /// `(close_slot, successor members)`.
    closed: Option<(Slot, Vec<NodeId>)>,
    /// When set, the instance is halted & dropped after this time.
    retire_at: Option<SimTime>,
}

impl<O: CmdOp> Instance<O> {
    fn new(paxos: MultiPaxos<Cmd<O>>) -> Self {
        Instance {
            paxos,
            closed: None,
            retire_at: None,
        }
    }
}

/// Shorthand for the operation-type bounds.
trait CmdOp: Clone + std::fmt::Debug + PartialEq + simnet::wire::Wire + 'static {}
impl<T: Clone + std::fmt::Debug + PartialEq + simnet::wire::Wire + 'static> CmdOp for T {}

/// Where the application state currently sits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Anchor {
    epoch: Epoch,
    next_slot: Slot,
}

/// An in-flight reconfiguration this node proposed.
#[derive(Clone, Debug)]
struct Closing {
    epoch: Epoch,
    /// The admin to answer at finalize and the configuration it asked
    /// for; `None` for a log roll, which answers no one.
    admin: Option<(NodeId, StaticConfig)>,
    proposed_at: SimTime,
}

/// A state transfer this node is waiting on.
///
/// Tracks retry attempts (for exponential backoff) and every donor the node
/// has learned about — the `Activate` sender, the successor's members, and
/// senders of stashed building-block traffic — so a dead or partitioned
/// donor is failed over instead of retried forever.
#[derive(Clone, Debug)]
struct PendingTransfer {
    epoch: Epoch,
    provider: NodeId,
    last_request: SimTime,
    attempts: u32,
    candidates: Vec<NodeId>,
    /// Delta watermark advertised in the manifest request (`None` for a
    /// blank joiner, which always takes a full transfer).
    since: Option<u64>,
    /// Reassembly state once a manifest has been accepted. Survives donor
    /// rotation: the manifest is a deterministic function of the base, so
    /// a new donor fills in only the missing chunks.
    assembly: Option<ChunkAssembly>,
    /// Chunk indices requested but not yet answered (bounded window).
    inflight: Vec<u64>,
    /// Every chunk index ever requested; re-requesting one (donor crash,
    /// corruption) counts toward `transfer.chunks_resent`.
    requested: BTreeSet<u64>,
    /// When a chunk was last stored (the start, before the first).
    progress_at: SimTime,
}

impl PendingTransfer {
    /// A manifest was adopted and a chunk was stored within `window`.
    fn streaming(&self, now: SimTime, window: SimDuration) -> bool {
        self.assembly.is_some() && now.since(self.progress_at) < window
    }
}

/// One cached page encode, reused while the page's version is unchanged.
struct CachedPage {
    version: Option<u64>,
    bytes: Arc<Vec<u8>>,
}

/// Per-page persistence: `(epoch, page count, header)` metadata…
const KEY_BASE_META: &str = "base/meta";
/// …plus one key per snapshot page; only dirty pages are re-put.
fn page_key(i: usize) -> String {
    format!("base/page/{i:05}")
}

/// Applied slots after which the active epoch's leader rolls the log: it
/// closes the epoch with a `Reconfigure` to the *current* members, and the
/// retired instance takes its log and its `px/` keys with it. Bounds what
/// a replica holds per group to this many slots plus
/// [`RETIRE_GRACE`] worth of commits.
pub const ROLL_AFTER_SLOTS: u64 = 16_384;

/// Persisted acceptor keys of dropped epochs deleted per tick. Deleting a
/// whole epoch's `px/` keys in one callback stalls the runtime for tens of
/// milliseconds per group, long enough for followers to start an election.
const RECLAIM_KEYS_PER_TICK: usize = 256;

const BASES_KEPT: usize = 4;
/// Max chunk requests a joiner keeps in flight (interleaves the stream
/// with live traffic under the egress cap instead of bursting).
const CHUNK_WINDOW: usize = 4;
/// Cap on cached donor-side transfer plans.
const SERVE_PLANS_KEPT: usize = 32;

/// One epoch's committed-but-unapplied entries, by slot, each stamped
/// with its commit time so the apply pump can report the commit→apply
/// latency (`rsmr.commit_to_apply_us`).
type SlotBuffer<Op> = BTreeMap<Slot, (SimTime, Arc<Cmd<Op>>)>;
/// Building-block messages parked for an epoch whose instance does not
/// exist yet.
type Stash<Op> = Vec<(NodeId, consensus::PaxosMsg<Cmd<Op>>)>;

/// The reconfigurable replica actor. See the module docs for the design.
pub struct RsmrNode<S: StateMachine> {
    me: NodeId,
    tun: RsmrTunables,

    /// The agreed configuration chain (`None` until a joining member
    /// installs its first base state).
    chain: Option<ConfigChain>,
    instances: BTreeMap<Epoch, Instance<S::Op>>,

    // --- Externalized application state ---
    sm: S,
    sessions: SessionTable<S::Output>,
    anchor: Option<Anchor>,

    /// Committed-but-not-yet-applied entries, per epoch.
    buffers: BTreeMap<Epoch, SlotBuffer<S::Op>>,
    /// When each still-finalizing epoch was sealed; drained by
    /// `finalize_epoch` into the `rsmr.seal_to_finalize_us` histogram —
    /// the replica-local reconfiguration span.
    sealed_at: BTreeMap<Epoch, SimTime>,
    /// Base states this node can serve, keyed by anchored epoch. Pages
    /// are `Arc`-shared with the page cache and outgoing chunks, so
    /// keeping a few epochs costs little beyond the newest.
    bases: BTreeMap<Epoch, Arc<BaseState<S::Output>>>,

    /// Donor-side transfer plans, keyed by `(epoch, requester)`: chunks
    /// are served from the plan the requester's manifest described, so a
    /// full and a delta transfer of the same epoch never mix. Each plan
    /// carries when it last served a request: a plan still streaming
    /// outlives its base (see `finalize_epoch`).
    serve_plans: BTreeMap<(Epoch, NodeId), (TransferPlan, SimTime)>,

    /// Rolling page-encode cache (in-epoch incremental compaction). Entry
    /// `i` holds the last encode of snapshot page `i` and the page version
    /// it reflects; the seal reuses it when the version still matches.
    page_cache: Vec<CachedPage>,
    /// Next page the compaction cursor refreshes.
    compact_cursor: usize,
    /// Page versions as last persisted, so finalization re-puts only
    /// dirty pages.
    persisted_versions: Vec<Option<u64>>,

    /// Requests this node proposed and owes replies for.
    waiting: BTreeSet<(NodeId, u64)>,
    /// Requests parked while a reconfiguration this node proposed is in
    /// flight; flushed into the successor epoch.
    handoff: VecDeque<(NodeId, u64, S::Op)>,
    /// The reconfiguration this node proposed, if unresolved.
    closing: Option<Closing>,

    /// Joining-member bootstrap / catch-up transfer in flight.
    pending_transfer: Option<PendingTransfer>,

    /// Building-block messages for epochs whose instance does not exist
    /// here yet (e.g. a speculative successor's `Prepare` racing ahead of
    /// the `Activate` that announces the epoch). Replayed on instance
    /// creation — without this, the speculative handoff's first campaign
    /// can be lost and leadership waits out a full election timeout.
    stashed: BTreeMap<Epoch, Stash<S::Op>>,

    /// When each stash first received a message. A stash that *ages* —
    /// traffic keeps arriving for an epoch this node cannot reach locally —
    /// is the signature of a replica that restarted (or fell) behind the
    /// cluster: the tick loop then requests a state transfer from one of
    /// the stashed senders instead of stalling forever.
    stash_since: BTreeMap<Epoch, SimTime>,

    /// The intra-batch tail of the batch that closed the current epoch:
    /// application commands that followed the first `Reconfigure` inside
    /// the same batch. Set by the apply pump at the close, drained by
    /// `finalize_epoch` in the very next pump iteration, where the tail
    /// is re-proposed into the successor *ahead of* the slot-granular
    /// discarded entries (it precedes them in composed log order).
    batch_tail: Vec<(NodeId, u64, S::Op)>,

    /// Dropped epochs whose `px/` keys are still being deleted, a slice
    /// per tick.
    reclaim: BTreeSet<Epoch>,

    /// The anchor as last seen by the tick and since when it has not
    /// moved (the stuck-anchor check).
    anchor_watch: Option<(Anchor, SimTime)>,

    /// Commands applied by this replica (for tests and metrics).
    applied_count: u64,

    /// Newest epoch in which this replica has applied an application
    /// command — drives the `FirstCommit` observability event that closes
    /// the handoff-gap span. Epochs only move forward, so a single
    /// watermark suffices.
    commit_seen_epoch: Option<Epoch>,
}

impl<S: StateMachine + Default> RsmrNode<S> {
    /// Creates a genesis member: a replica of the initial configuration
    /// with a default-constructed application state.
    pub fn genesis(me: NodeId, initial: StaticConfig, tun: RsmrTunables) -> Self {
        Self::genesis_with(me, initial, tun, S::default())
    }
}

impl<S: StateMachine> RsmrNode<S> {
    /// Creates a genesis member with an explicit initial application state.
    pub fn genesis_with(me: NodeId, initial: StaticConfig, tun: RsmrTunables, sm: S) -> Self {
        assert!(initial.contains(me), "{me} is not in the genesis config");
        let chain = ConfigChain::genesis(initial.clone());
        let mut node = Self::new(me, tun, sm, Some((Epoch::ZERO, chain)));
        let paxos = MultiPaxos::new(me, initial, SimTime::ZERO, node.tun.paxos.clone());
        node.instances.insert(Epoch::ZERO, Instance::new(paxos));
        let (genesis_base, _, _) = node.capture_base(Epoch::ZERO);
        node.bases.insert(Epoch::ZERO, Arc::new(genesis_base));
        node
    }

    /// Creates a **joining** replica: it knows nothing and waits for an
    /// [`RsmrMsg::Activate`] naming it a member of some epoch, then pulls
    /// the base state.
    pub fn joining(me: NodeId, tun: RsmrTunables) -> Self
    where
        S: Default,
    {
        Self::joining_with(me, tun, S::default())
    }

    /// Creates a joining replica with an explicit placeholder state (which
    /// is replaced wholesale when the base state arrives).
    pub fn joining_with(me: NodeId, tun: RsmrTunables, placeholder: S) -> Self {
        Self::new(me, tun, placeholder, None)
    }

    /// Rebuilds a replica after a crash from its stable storage: the last
    /// persisted base state plus the building block's persisted acceptor
    /// state. The log since the base is re-learned from peers via catch-up
    /// and replayed (sessions make replay exactly-once).
    pub fn recover(me: NodeId, tun: RsmrTunables, store: &StableStore) -> Option<Self> {
        let base = Self::read_persisted_base(store)?;
        let sm = S::restore_pages(&base.pages)?;
        let anchor_epoch = base.epoch;
        let chain = base.chain.clone();
        let mut node = Self::new(me, tun, sm, Some((anchor_epoch, chain.clone())));
        node.sessions = base.sessions.clone();
        // Those exact pages are what stable storage holds.
        node.mirror_pages(&base);
        node.persisted_versions = node.page_cache.iter().map(|c| c.version).collect();
        node.bases.insert(anchor_epoch, Arc::new(base));
        // Rebuild instances (from the anchored epoch onward) whose acceptor
        // state was persisted and whose configuration we know.
        for (epoch, cfg) in chain.iter() {
            if epoch < anchor_epoch || !cfg.contains(me) {
                continue;
            }
            let prefix = px_prefix(epoch);
            let items: Vec<(String, Vec<u8>)> = store
                .keys_with_prefix(&prefix)
                .map(|k| {
                    (
                        k[prefix.len()..].to_owned(),
                        store.get(k).expect("listed").to_vec(),
                    )
                })
                .collect();
            let paxos = MultiPaxos::recover(
                me,
                cfg.clone(),
                SimTime::ZERO,
                node.tun.paxos.clone(),
                items,
            );
            node.instances.insert(epoch, Instance::new(paxos));
        }
        Some(node)
    }

    /// The state every constructor starts from: `sm` anchored at slot 0
    /// of the epoch in `anchored`, with the chain through it (`None` for
    /// a joiner, which knows neither yet).
    fn new(me: NodeId, tun: RsmrTunables, sm: S, anchored: Option<(Epoch, ConfigChain)>) -> Self {
        let anchor = anchored.as_ref().map(|&(epoch, _)| Anchor {
            epoch,
            next_slot: Slot::ZERO,
        });
        RsmrNode {
            me,
            tun,
            chain: anchored.map(|(_, chain)| chain),
            instances: BTreeMap::new(),
            sm,
            sessions: SessionTable::new(),
            anchor,
            buffers: BTreeMap::new(),
            sealed_at: BTreeMap::new(),
            bases: BTreeMap::new(),
            serve_plans: BTreeMap::new(),
            page_cache: Vec::new(),
            compact_cursor: 0,
            persisted_versions: Vec::new(),
            waiting: BTreeSet::new(),
            handoff: VecDeque::new(),
            closing: None,
            pending_transfer: None,
            stashed: BTreeMap::new(),
            stash_since: BTreeMap::new(),
            batch_tail: Vec::new(),
            reclaim: BTreeSet::new(),
            anchor_watch: None,
            applied_count: 0,
            commit_seen_epoch: None,
        }
    }

    // --- Introspection (used by tests, examples and experiments) ---------

    /// This replica's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The epoch the application state is anchored in, if anchored.
    pub fn anchored_epoch(&self) -> Option<Epoch> {
        self.anchor.map(|a| a.epoch)
    }

    /// The newest epoch this replica runs an instance for.
    pub fn active_epoch(&self) -> Option<Epoch> {
        self.instances.keys().next_back().copied()
    }

    /// True if this replica leads the active epoch's instance.
    pub fn is_active_leader(&self) -> bool {
        self.active_epoch()
            .and_then(|e| self.instances.get(&e))
            .map(|i| i.paxos.is_leader())
            .unwrap_or(false)
    }

    /// The configuration chain, if installed.
    pub fn chain(&self) -> Option<&ConfigChain> {
        self.chain.as_ref()
    }

    /// Read access to the application state machine.
    pub fn state_machine(&self) -> &S {
        &self.sm
    }

    /// Commands applied (externalized) by this replica.
    pub fn applied_count(&self) -> u64 {
        self.applied_count
    }

    /// The client session table.
    pub fn sessions(&self) -> &SessionTable<S::Output> {
        &self.sessions
    }

    /// The donor a pending state transfer is currently aimed at, if any.
    /// Chaos harnesses use this to resolve the "transfer donor" fault role.
    pub fn transfer_provider(&self) -> Option<NodeId> {
        self.pending_transfer.as_ref().map(|pt| pt.provider)
    }

    // --- Internals --------------------------------------------------------

    /// Reads the base state persisted under the per-page keys.
    fn read_persisted_base(store: &StableStore) -> Option<BaseState<S::Output>> {
        let meta = store.get(KEY_BASE_META)?;
        let (epoch, count, header) = wire::from_bytes::<(Epoch, u64, Vec<u8>)>(meta)?;
        // Not pre-sized: `count` comes from disk and may be corrupt.
        let mut pages = Vec::new();
        for i in 0..count as usize {
            pages.push(Arc::new(store.get(&page_key(i))?.to_vec()));
        }
        BaseState::from_parts(epoch, pages, &header)
    }

    /// Captures the base state anchoring `epoch`, reusing cached page
    /// encodes whose version is unchanged since the compaction cursor
    /// last refreshed them. Returns `(base, pages encoded, pages
    /// reused)`.
    fn capture_base(&mut self, epoch: Epoch) -> (BaseState<S::Output>, u64, u64) {
        let n = self.sm.snapshot_pages();
        self.page_cache.truncate(n);
        let encoded: u64 = (0..n).map(|i| self.refresh_page(i)).sum();
        let base = BaseState {
            epoch,
            pages: self
                .page_cache
                .iter()
                .map(|c| Arc::clone(&c.bytes))
                .collect(),
            sessions: self.sessions.clone(),
            chain: self.chain.clone().expect("anchored nodes have a chain"),
        };
        (base, encoded, n as u64 - encoded)
    }

    /// Re-encodes page `i` into the page cache unless its cached version
    /// still matches, first filling any gap below `i`. Returns how many
    /// pages it encoded.
    fn refresh_page(&mut self, i: usize) -> u64 {
        let version = self.sm.page_version(i);
        if version.is_some() && self.page_cache.get(i).is_some_and(|c| c.version == version) {
            return 0;
        }
        let mut encoded = 1;
        while self.page_cache.len() < i {
            encoded += self.refresh_page(self.page_cache.len());
        }
        let entry = CachedPage {
            version,
            bytes: Arc::new(self.sm.snapshot_page(i)),
        };
        if i < self.page_cache.len() {
            self.page_cache[i] = entry;
        } else {
            self.page_cache.push(entry);
        }
        encoded
    }

    /// Makes the page cache mirror `base`, whose state `sm` must hold.
    fn mirror_pages(&mut self, base: &BaseState<S::Output>) {
        self.page_cache = base
            .pages
            .iter()
            .enumerate()
            .map(|(i, p)| CachedPage {
                version: self.sm.page_version(i),
                bytes: Arc::clone(p),
            })
            .collect();
    }

    /// Persists `base` under the per-page keys, re-putting only pages
    /// whose version changed since the last persist. Callers must have
    /// `page_cache` mirroring `base.pages` (capture and install both do).
    fn persist_base(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        base: &BaseState<S::Output>,
    ) {
        let meta = wire::to_bytes(&(base.epoch, base.pages.len() as u64, base.header_bytes()));
        ctx.storage().put(KEY_BASE_META, meta);
        let mut persisted = 0u64;
        for (i, page) in base.pages.iter().enumerate() {
            let version = self.page_cache.get(i).and_then(|c| c.version);
            let clean =
                version.is_some() && self.persisted_versions.get(i).copied() == Some(version);
            if !clean {
                ctx.storage().put(&page_key(i), (**page).clone());
                persisted += 1;
            }
        }
        // Drop pages beyond the new count (page counts are constant per
        // state machine type, but a joiner's placeholder may differ).
        let mut stale = base.pages.len();
        while ctx.storage().get(&page_key(stale)).is_some() {
            ctx.storage().remove(&page_key(stale));
            stale += 1;
        }
        self.persisted_versions = (0..base.pages.len())
            .map(|i| self.page_cache.get(i).and_then(|c| c.version))
            .collect();
        ctx.metrics().incr("transfer.pages_persisted", persisted);
    }

    fn current_members(&self) -> Vec<NodeId> {
        self.chain
            .as_ref()
            .map(|c| c.latest_config().members().to_vec())
            .unwrap_or_default()
    }

    /// Points `client`'s request `seq` at `leader` among `members`.
    fn redirect(
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        client: NodeId,
        seq: u64,
        leader: Option<NodeId>,
        members: Vec<NodeId>,
    ) {
        let msg = RsmrMsg::Redirect {
            seq,
            leader,
            members,
        };
        ctx.send(client, msg);
    }

    /// Refuses `admin`'s reconfiguration of `epoch`; `leader` is where to
    /// retry, if known.
    fn refuse(
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        admin: NodeId,
        epoch: Epoch,
        leader: Option<NodeId>,
    ) {
        let msg = RsmrMsg::ReconfigureReply {
            epoch,
            ok: false,
            leader,
        };
        ctx.send(admin, msg);
    }

    /// Routes one instance's effects into the world and pumps the apply
    /// loop.
    fn process_effects(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        fx: consensus::Effects<Cmd<S::Op>>,
    ) {
        fx.record_stats(ctx.metrics());
        for (key, value) in fx.persist {
            ctx.storage()
                .put(&format!("{}{key}", px_prefix(epoch)), value);
        }
        for (to, inner) in fx.outbound {
            ctx.send(to, RsmrMsg::Paxos { epoch, inner });
        }
        if fx.became_leader {
            ctx.metrics().incr("rsmr.leader_elections", 1);
        }
        for &slot in &fx.proposed {
            ctx.emit_event(DomainEvent::CmdProposed {
                epoch: epoch.0,
                slot: slot.0,
            });
        }
        if !fx.committed.is_empty() {
            let now = ctx.now();
            let buf = self.buffers.entry(epoch).or_default();
            for (slot, cmd) in fx.committed {
                ctx.emit_event(DomainEvent::CmdCommitted {
                    epoch: epoch.0,
                    slot: slot.0,
                });
                buf.insert(slot, (now, cmd));
            }
            self.pump_apply(ctx);
        }
    }

    /// Drains applicable committed entries in composed order, handling
    /// epoch closes and finalization. The heart of the composition.
    fn pump_apply(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        loop {
            let Some(anchor) = self.anchor else { return };
            let epoch = anchor.epoch;

            // Finalize the epoch once the close command has been applied.
            if let Some(inst) = self.instances.get(&epoch) {
                if let Some((close_slot, _)) = inst.closed {
                    if anchor.next_slot > close_slot {
                        self.finalize_epoch(ctx, epoch);
                        continue;
                    }
                }
            }

            let Some((committed_at, cmd)) = self
                .buffers
                .get_mut(&epoch)
                .and_then(|b| b.remove(&anchor.next_slot))
            else {
                return;
            };
            let slot = anchor.next_slot;
            self.anchor = Some(Anchor {
                epoch,
                next_slot: slot.next(),
            });
            let apply_lag = ctx.now().since(committed_at).as_micros();
            ctx.metrics().record("rsmr.commit_to_apply_us", apply_lag);

            match &*cmd {
                Cmd::Noop => {}
                Cmd::App { client, seq, op } => {
                    self.note_first_commit(ctx, epoch, slot);
                    self.apply_app(ctx, epoch, slot, *client, *seq, op)
                }
                Cmd::Batch { entries } => {
                    // Batch-aware close rule: apply the prefix before the
                    // first intra-batch `Reconfigure`, close the epoch at
                    // its position, and surface the tail (commands after
                    // the close point) for re-proposal in the successor.
                    let close = entries
                        .iter()
                        .position(|e| matches!(e, BatchEntry::Reconfigure { .. }));
                    let prefix_end = close.unwrap_or(entries.len());
                    if prefix_end > 0 {
                        self.note_first_commit(ctx, epoch, slot);
                    }
                    for entry in &entries[..prefix_end] {
                        if let BatchEntry::App { client, seq, op } = entry {
                            self.apply_app(ctx, epoch, slot, *client, *seq, op);
                        }
                    }
                    if let Some(idx) = close {
                        let BatchEntry::Reconfigure { members } = &entries[idx] else {
                            unreachable!("position() found a Reconfigure");
                        };
                        let members = members.clone();
                        self.batch_tail = entries[idx + 1..]
                            .iter()
                            .filter_map(|e| match e {
                                BatchEntry::App { client, seq, op } => {
                                    Some((*client, *seq, op.clone()))
                                }
                                // Only the *first* Reconfigure closes; any
                                // later one in the same batch is dropped,
                                // exactly like a buffered one at a later
                                // slot (its admin retries).
                                BatchEntry::Reconfigure { .. } => None,
                            })
                            .collect();
                        ctx.metrics()
                            .incr("rsmr.batch_close_tail", self.batch_tail.len() as u64);
                        self.close_epoch(ctx, epoch, slot, members);
                    }
                }
                Cmd::Reconfigure { members } => {
                    let members = members.clone();
                    self.close_epoch(ctx, epoch, slot, members)
                }
            }
        }
    }

    /// Marks the first applied application command of `epoch`, closing the
    /// handoff-gap span that opened at the predecessor's seal.
    fn note_first_commit(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        slot: Slot,
    ) {
        if self.commit_seen_epoch.is_none_or(|e| e < epoch) {
            self.commit_seen_epoch = Some(epoch);
            ctx.emit_event(DomainEvent::FirstCommit {
                epoch: epoch.0,
                slot: slot.0,
            });
        }
    }

    fn apply_app(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        slot: Slot,
        client: NodeId,
        seq: u64,
        op: &S::Op,
    ) {
        let output = match self.sessions.check(client, seq) {
            SessionDecision::Fresh => {
                let out = self.sm.apply(op);
                self.sessions.record(client, seq, out.clone());
                self.applied_count += 1;
                ctx.metrics().incr("rsmr.applied", 1);
                let now = ctx.now();
                ctx.metrics().timeline_push("rsmr.commits", now, 1.0);
                ctx.emit_event(DomainEvent::CmdApplied {
                    client,
                    seq,
                    epoch: epoch.0,
                    slot: slot.0,
                });
                out
            }
            SessionDecision::Duplicate(out) => {
                ctx.metrics().incr("rsmr.dedup_hits", 1);
                out
            }
            SessionDecision::Stale => {
                self.waiting.remove(&(client, seq));
                return;
            }
        };
        if self.waiting.remove(&(client, seq)) {
            let members = self.current_members();
            ctx.send(
                client,
                RsmrMsg::Reply {
                    seq,
                    output,
                    members,
                },
            );
        }
    }

    /// The apply pump hit the first `Reconfigure` of `epoch`, at `slot`.
    fn close_epoch(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        slot: Slot,
        members: Vec<NodeId>,
    ) {
        let successor = epoch.next();
        let cfg = StaticConfig::new(members.clone());
        self.chain
            .as_mut()
            .expect("anchored")
            .append(successor, cfg);
        if let Some(inst) = self.instances.get_mut(&epoch) {
            inst.closed = Some((slot, members));
        }
        let now = ctx.now();
        self.sealed_at.insert(epoch, now);
        ctx.metrics().incr("rsmr.epochs_closed", 1);
        ctx.metrics()
            .timeline_push("rsmr.epoch_closed", now, epoch.0 as f64);
        ctx.emit_event(DomainEvent::EpochSealed {
            epoch: epoch.0,
            seal_slot: slot.0,
        });
        ctx.trace(|| format!("closed {epoch} at {slot}"));
        // Finalization (and successor creation) happens in the pump's next
        // iteration, via the `closed` marker.
    }

    /// The anchor has applied everything through `epoch`'s close: move to
    /// the successor.
    fn finalize_epoch(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>, epoch: Epoch) {
        let successor = epoch.next();
        let (was_leader, close_slot) = {
            let inst = self.instances.get(&epoch).expect("closing instance exists");
            (
                inst.paxos.is_leader(),
                inst.closed.as_ref().expect("closed").0,
            )
        };
        // The replica-local reconfiguration span: seal observed → epoch
        // finalized (base captured, successor anchored).
        if let Some(sealed) = self.sealed_at.remove(&epoch) {
            let span_us = ctx.now().since(sealed).as_micros();
            ctx.metrics().record("rsmr.seal_to_finalize_us", span_us);
        }

        // Anchor moves first so the captured base reflects exactly the
        // closed prefix.
        self.anchor = Some(Anchor {
            epoch: successor,
            next_slot: Slot::ZERO,
        });
        let (base, pages_encoded, pages_reused) = self.capture_base(successor);
        ctx.metrics()
            .incr("transfer.encode_bytes", base.byte_size() as u64);
        ctx.metrics()
            .incr("transfer.seal_pages_encoded", pages_encoded);
        ctx.metrics()
            .incr("transfer.seal_pages_reused", pages_reused);
        self.persist_base(ctx, &base);
        self.bases.insert(successor, Arc::new(base));
        while self.bases.len() > BASES_KEPT {
            let oldest = *self.bases.keys().next().expect("non-empty");
            self.bases.remove(&oldest);
        }
        // A plan whose base was just evicted keeps serving while its
        // stream is live: a joiner fetching a large base finishes it even
        // as log rolls close epoch after epoch.
        let kept: Vec<Epoch> = self.bases.keys().copied().collect();
        let now = ctx.now();
        self.serve_plans
            .retain(|&(e, _), (_, served)| kept.contains(&e) || now.since(*served) < RETIRE_GRACE);

        // Collect the discarded tail (entries the block committed past the
        // close point) for optional re-proposal. The intra-batch tail of
        // the closing batch comes first: it precedes any later-slot entry
        // in composed log order.
        let mut discarded: Vec<(NodeId, u64, S::Op)> = std::mem::take(&mut self.batch_tail);
        if let Some(tail) = self.buffers.remove(&epoch) {
            discarded.extend(tail.into_iter().filter(|(s, _)| *s > close_slot).flat_map(
                |(_, (_, cmd))| {
                    match &*cmd {
                        Cmd::App { client, seq, op } => vec![(*client, *seq, op.clone())],
                        Cmd::Batch { entries } => entries
                            .iter()
                            .filter_map(|e| match e {
                                BatchEntry::App { client, seq, op } => {
                                    Some((*client, *seq, op.clone()))
                                }
                                BatchEntry::Reconfigure { .. } => None,
                            })
                            .collect(),
                        _ => Vec::new(),
                    }
                },
            ));
        }
        ctx.metrics()
            .incr("rsmr.discarded_tail", discarded.len() as u64);

        let successor_cfg = self
            .chain
            .as_ref()
            .expect("anchored")
            .config(successor)
            .expect("appended at close")
            .clone();

        // Retire the closed instance after a catch-up grace period.
        let retire_at = ctx.now() + RETIRE_GRACE;
        if let Some(inst) = self.instances.get_mut(&epoch) {
            inst.retire_at = Some(inst.retire_at.unwrap_or(retire_at).min(retire_at));
        }

        // Speculative successor startup.
        if successor_cfg.contains(self.me) {
            self.ensure_instance(ctx, successor, &successor_cfg);
            if was_leader && self.tun.fast_handoff {
                let fx = self
                    .instances
                    .get_mut(&successor)
                    .expect("just ensured")
                    .paxos
                    .campaign(ctx.now());
                ctx.metrics().incr("rsmr.fast_handoffs", 1);
                self.process_effects(ctx, successor, fx);
            }
            // Re-propose discarded tail commands and flush parked handoff
            // requests into the successor.
            for (client, seq, op) in discarded {
                if self.waiting.contains(&(client, seq)) {
                    self.submit_to_instance(ctx, successor, client, seq, op);
                }
            }
            let parked: Vec<(NodeId, u64, S::Op)> = self.handoff.drain(..).collect();
            for (client, seq, op) in parked {
                self.submit_to_instance(ctx, successor, client, seq, op);
            }
        } else {
            // Removed from the configuration: serve transfer during the
            // grace period, then this node is done. If this node *led* the
            // closed epoch, nominate a successor member to campaign
            // immediately — otherwise the new epoch waits out a full
            // election timeout (the leader-removal variant of speculative
            // handoff).
            ctx.metrics().incr("rsmr.removed_self", 1);
            let nominee = successor_cfg.members().first().copied();
            if was_leader && self.tun.fast_handoff {
                if let Some(n) = nominee {
                    ctx.metrics().incr("rsmr.nominations", 1);
                    ctx.send(n, RsmrMsg::Nominate { epoch: successor });
                }
            }
            // Point parked and in-flight clients at the successor right
            // away — silently dropping them would cost each a full
            // retransmission timeout.
            let mut redirected: Vec<(NodeId, u64)> = discarded
                .into_iter()
                .map(|(client, seq, _)| (client, seq))
                .filter(|request| self.waiting.remove(request))
                .collect();
            redirected.extend(self.handoff.drain(..).map(|(client, seq, _)| (client, seq)));
            redirected.extend(std::mem::take(&mut self.waiting));
            for (client, seq) in redirected {
                Self::redirect(ctx, client, seq, nominee, successor_cfg.members().to_vec());
            }
        }

        // Tell every successor member the new epoch exists and that this
        // node can serve its base.
        for &m in successor_cfg.members() {
            if m != self.me {
                ctx.send(
                    m,
                    RsmrMsg::Activate {
                        epoch: successor,
                        members: successor_cfg.members().to_vec(),
                    },
                );
            }
        }

        // Resolve the reconfiguration this node proposed. Another
        // `Reconfigure` may have closed the epoch first (two leaders each
        // accepted one): its admin then hears `ok: false` and retries.
        if self.closing.as_ref().is_some_and(|c| c.epoch == epoch) {
            let closing = self.closing.take().expect("checked");
            match closing.admin {
                Some((admin, requested)) => ctx.send(
                    admin,
                    RsmrMsg::ReconfigureReply {
                        epoch: successor,
                        ok: requested == successor_cfg,
                        leader: None,
                    },
                ),
                None => {
                    let same = self.chain.as_ref().and_then(|c| c.config(epoch));
                    if same == Some(&successor_cfg) {
                        ctx.metrics().incr("rsmr.log_rolls", 1);
                    }
                }
            }
        }

        let now = ctx.now();
        ctx.metrics().incr("rsmr.epochs_finalized", 1);
        ctx.metrics()
            .timeline_push("rsmr.epoch_finalized", now, successor.0 as f64);
        ctx.emit_event(DomainEvent::Anchored { epoch: successor.0 });
        ctx.trace(|| format!("finalized {epoch}; anchored at {successor}"));
    }

    fn ensure_instance(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        cfg: &StaticConfig,
    ) {
        // An epoch below the anchor is closed and may be retired: a blank
        // acceptor for it could accept values over already-chosen slots.
        if self.instances.contains_key(&epoch)
            || !cfg.contains(self.me)
            || self.anchor.is_some_and(|a| epoch < a.epoch)
        {
            return;
        }
        let paxos = MultiPaxos::new(self.me, cfg.clone(), ctx.now(), self.tun.paxos.clone());
        self.instances.insert(epoch, Instance::new(paxos));
        ctx.metrics().incr("rsmr.instances_created", 1);
        // Replay protocol messages that arrived before the instance did.
        self.stash_since.remove(&epoch);
        for (from, inner) in self.stashed.remove(&epoch).unwrap_or_default() {
            self.deliver_paxos(ctx, from, epoch, inner);
        }
    }

    /// Feeds one building-block message to `epoch`'s instance, if this
    /// node runs one, and routes the effects.
    fn deliver_paxos(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        from: NodeId,
        epoch: Epoch,
        inner: consensus::PaxosMsg<Cmd<S::Op>>,
    ) {
        if let Some(inst) = self.instances.get_mut(&epoch) {
            let fx = inst.paxos.on_message(from, inner, ctx.now());
            self.process_effects(ctx, epoch, fx);
        }
    }

    fn submit_to_instance(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        client: NodeId,
        seq: u64,
        op: S::Op,
    ) {
        let Some(inst) = self.instances.get_mut(&epoch) else {
            return;
        };
        let (fx, outcome) = inst.paxos.propose(Cmd::App { client, seq, op }, ctx.now());
        match outcome {
            ProposeOutcome::Accepted => {
                self.waiting.insert((client, seq));
            }
            ProposeOutcome::NotLeader(leader) => {
                Self::redirect(ctx, client, seq, leader, self.current_members());
            }
        }
        self.process_effects(ctx, epoch, fx);
    }

    fn handle_request(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        client: NodeId,
        seq: u64,
        op: S::Op,
    ) {
        // Session fast path: an already-applied command is answered from
        // the cache without re-proposing.
        match self.sessions.check(client, seq) {
            SessionDecision::Duplicate(output) => {
                let members = self.current_members();
                ctx.send(
                    client,
                    RsmrMsg::Reply {
                        seq,
                        output,
                        members,
                    },
                );
                return;
            }
            SessionDecision::Stale => return,
            SessionDecision::Fresh => {}
        }
        let Some(active) = self.active_epoch() else {
            // A joining node that is not yet participating: the client will
            // retransmit elsewhere.
            return;
        };
        // Lease-based local read: the leader of the active epoch answers
        // pure reads from its applied state while it holds a quorum lease
        // and is fully anchored (nothing committed-but-unapplied).
        if self.tun.paxos.lease_duration.is_some() && self.anchor.map(|a| a.epoch) == Some(active) {
            if let Some(output) = self.sm.query(&op) {
                let leased = self
                    .instances
                    .get(&active)
                    .map(|i| i.paxos.is_leader() && i.paxos.lease_valid(ctx.now()))
                    .unwrap_or(false);
                let fully_applied = self
                    .buffers
                    .get(&active)
                    .map(|b| b.is_empty())
                    .unwrap_or(true);
                if leased && fully_applied && self.closing.is_none() {
                    ctx.metrics().incr("rsmr.local_reads", 1);
                    let members = self.current_members();
                    ctx.send(
                        client,
                        RsmrMsg::Reply {
                            seq,
                            output,
                            members,
                        },
                    );
                    return;
                }
            }
        }

        // A node removed from the latest configuration no longer serves;
        // send the client straight to the successor's members.
        if let Some(chain) = &self.chain {
            let latest = chain.latest_config();
            if !latest.contains(self.me) {
                let nominee = latest.members().first().copied();
                Self::redirect(ctx, client, seq, nominee, latest.members().to_vec());
                return;
            }
        }
        // While a reconfiguration this node proposed is in flight, park new
        // requests for the successor instead of feeding the closing log.
        if self.closing.is_some() {
            self.handoff.push_back((client, seq, op));
            return;
        }
        self.submit_to_instance(ctx, active, client, seq, op);
    }

    fn handle_reconfigure(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        admin: NodeId,
        members: Vec<NodeId>,
    ) {
        let Some(active) = self.active_epoch() else {
            return;
        };
        if members.is_empty() {
            Self::refuse(ctx, admin, active, None);
            return;
        }
        // Idempotence: asking for the configuration we already have (e.g. an
        // admin retrying after its `ok` reply was lost) succeeds immediately,
        // but only from the leader of that epoch's instance. Any other
        // replica's chain may lag behind a successor that is already live,
        // and its `ok` would acknowledge a configuration that was replaced.
        let requested = StaticConfig::new(members.clone());
        if let Some(chain) = self
            .chain
            .as_ref()
            .filter(|c| c.latest_config() == &requested)
        {
            let epoch = chain.latest_epoch();
            let inst = self.instances.get(&epoch);
            if inst.is_some_and(|i| i.paxos.is_leader()) {
                let ok = RsmrMsg::ReconfigureReply {
                    epoch,
                    ok: true,
                    leader: None,
                };
                ctx.send(admin, ok);
            } else {
                Self::refuse(ctx, admin, active, inst.and_then(|i| i.paxos.leader_hint()));
            }
            return;
        }
        if let Some(closing) = &self.closing {
            // During a log roll the admin is left unanswered: its retry
            // timer resends once the roll has landed, instead of bouncing
            // off refusals until then.
            if closing.admin.is_some() {
                Self::refuse(ctx, admin, active, Some(self.me));
            }
            return;
        }
        let inst = self.instances.get_mut(&active).expect("active exists");
        if !inst.paxos.is_leader() {
            Self::refuse(ctx, admin, active, inst.paxos.leader_hint());
            return;
        }
        let (fx, outcome) = inst.paxos.propose(Cmd::Reconfigure { members }, ctx.now());
        match outcome {
            ProposeOutcome::Accepted => {
                self.closing = Some(Closing {
                    epoch: active,
                    admin: Some((admin, requested)),
                    proposed_at: ctx.now(),
                });
                let now = ctx.now();
                ctx.metrics().incr("rsmr.reconfigs_proposed", 1);
                ctx.metrics()
                    .timeline_push("rsmr.reconfig_proposed", now, active.0 as f64);
                ctx.emit_event(DomainEvent::ReconfigProposed { epoch: active.0 });
            }
            ProposeOutcome::NotLeader(leader) => Self::refuse(ctx, admin, active, leader),
        }
        self.process_effects(ctx, active, fx);
    }

    fn handle_activate(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        from: NodeId,
        epoch: Epoch,
        members: Vec<NodeId>,
    ) {
        let cfg = StaticConfig::new(members);
        match (&mut self.chain, self.anchor) {
            (Some(chain), Some(_)) => {
                // An existing member learning about the successor (possibly
                // before its own pump closes the predecessor).
                if chain.config(epoch).is_none() {
                    if chain.latest_epoch().next() == epoch {
                        chain.append(epoch, cfg.clone());
                    } else if epoch > chain.latest_epoch() {
                        // Too far behind to extend the chain contiguously:
                        // jump via state transfer.
                        self.request_transfer(ctx, epoch, from, cfg.members());
                        return;
                    } else {
                        return; // stale activate for an old epoch
                    }
                }
                self.ensure_instance(ctx, epoch, &cfg);
                // If our anchor can no longer reach `epoch` locally (the
                // predecessor instance is gone from the network), fall back
                // to transfer. Detected lazily in tick; nothing to do here.
            }
            _ => {
                // A joining member: participate immediately (buffer
                // commits), pull the base state.
                self.ensure_instance(ctx, epoch, &cfg);
                self.request_transfer(ctx, epoch, from, cfg.members());
            }
        }
    }

    fn request_transfer(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        provider: NodeId,
        candidates: &[NodeId],
    ) {
        // Never regress: only transfer forward of the current anchor.
        if let Some(anchor) = self.anchor {
            if anchor.epoch >= epoch {
                return;
            }
        }
        if let Some(pt) = &mut self.pending_transfer {
            if pt.epoch > epoch {
                return;
            }
            if pt.epoch == epoch {
                // Already in flight: widen the donor pool, keep the timer.
                for &c in candidates.iter().chain(std::iter::once(&provider)) {
                    if c != self.me && !pt.candidates.contains(&c) {
                        pt.candidates.push(c);
                    }
                }
                return;
            }
            // A newer epoch while chunks are flowing: finish the older
            // base. Its log, which this member has been buffering,
            // carries it forward, and the stuck-anchor check in `tick_everything`
            // catches the case where it cannot. Restarting would throw
            // the progress away, and a transfer that outlasts a few log
            // rolls would never finish.
            if pt.streaming(ctx.now(), RETIRE_GRACE) {
                return;
            }
        }
        let mut pool: Vec<NodeId> = Vec::new();
        for &c in std::iter::once(&provider).chain(candidates.iter()) {
            if c != self.me && !pool.contains(&c) {
                pool.push(c);
            }
        }
        // A replica that already holds anchored state is a *rejoiner*: it
        // advertises its delta watermark so the donor ships only what
        // changed. A blank joiner takes the full stream.
        let since = if self.anchor.is_some() {
            self.sm.delta_watermark()
        } else {
            None
        };
        ctx.metrics().incr("rsmr.transfer_requests", 1);
        ctx.emit_event(DomainEvent::TransferRequested {
            epoch: epoch.0,
            provider,
        });
        self.arm_transfer(ctx, epoch, provider, pool, since);
    }

    /// Arms a transfer of `epoch` from scratch, with donor pool
    /// `candidates`, and asks `provider` for the manifest against
    /// watermark `since`.
    fn arm_transfer(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        provider: NodeId,
        candidates: Vec<NodeId>,
        since: Option<u64>,
    ) {
        self.pending_transfer = Some(PendingTransfer {
            epoch,
            provider,
            last_request: ctx.now(),
            attempts: 0,
            candidates,
            since,
            assembly: None,
            inflight: Vec::new(),
            requested: BTreeSet::new(),
            progress_at: ctx.now(),
        });
        ctx.send(provider, RsmrMsg::ManifestRequest { epoch, since });
    }

    /// Donor side: build (or reuse) the transfer plan for `from` and
    /// reply with its manifest.
    fn handle_manifest_request(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        from: NodeId,
        epoch: Epoch,
        since: Option<u64>,
    ) {
        let Some(base) = self.bases.get(&epoch).cloned() else {
            ctx.send(
                from,
                RsmrMsg::ManifestReply {
                    epoch,
                    manifest: None,
                },
            );
            return;
        };
        let plan = self.build_plan(ctx, &base, since);
        let manifest = plan.manifest.clone();
        ctx.metrics().incr("rsmr.transfers_served", 1);
        ctx.emit_event(DomainEvent::TransferServed {
            epoch: epoch.0,
            to: from,
            bytes: manifest.total_bytes(),
        });
        if self.serve_plans.len() >= SERVE_PLANS_KEPT {
            let oldest = *self.serve_plans.keys().next().expect("non-empty");
            self.serve_plans.remove(&oldest);
        }
        self.serve_plans.insert((epoch, from), (plan, ctx.now()));
        ctx.send(
            from,
            RsmrMsg::ManifestReply {
                epoch,
                manifest: Some(manifest),
            },
        );
    }

    /// Plans a transfer of `base`: a delta against the rejoiner's
    /// watermark when the state machine can serve one, otherwise the full
    /// chunked stream. Deterministic, so every donor holding `base`
    /// produces identical manifests and chunks.
    fn build_plan(
        &self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        base: &BaseState<S::Output>,
        since: Option<u64>,
    ) -> TransferPlan {
        if let Some(watermark) = since {
            if let Some(chunks) = S::delta_from_pages(&base.pages, watermark, CHUNK_TARGET) {
                let plan = TransferPlan::delta(base, chunks, watermark);
                let full = base.byte_size().max(1) as u64;
                ctx.metrics().record(
                    "transfer.delta_ratio",
                    plan.manifest.total_bytes() * 100 / full,
                );
                return plan;
            }
            ctx.metrics().incr("transfer.delta_refused", 1);
        }
        TransferPlan::full(base, CHUNK_TARGET)
    }

    /// Joiner side: a manifest arrived — adopt it (or resume a matching
    /// one) and keep the chunk-request window full.
    fn handle_manifest_reply(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        from: NodeId,
        epoch: Epoch,
        manifest: Option<TransferManifest>,
    ) {
        let now = ctx.now();
        {
            let Some(pt) = &mut self.pending_transfer else {
                return;
            };
            if pt.epoch != epoch {
                return;
            }
            let Some(manifest) = manifest else {
                return; // donor not finalized yet; the tick timer rotates
            };
            if manifest.epoch != epoch {
                return;
            }
            // Chunks flow from whoever answered the manifest request.
            pt.provider = from;
            pt.last_request = now;
            match &pt.assembly {
                Some(a) if *a.manifest() == manifest => {} // resume
                prior => {
                    if prior.is_some() {
                        ctx.metrics().incr("transfer.manifest_restarts", 1);
                    }
                    pt.assembly = Some(ChunkAssembly::new(manifest));
                    pt.inflight.clear();
                }
            }
        }
        self.pump_chunk_requests(ctx);
        self.try_complete_transfer(ctx);
    }

    /// Donor side: serve one chunk from the plan `from`'s manifest came
    /// from. No plan (evicted, or this donor never served the manifest)
    /// means `None`: the joiner rotates and re-requests the manifest.
    fn handle_chunk_request(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        from: NodeId,
        epoch: Epoch,
        index: u64,
    ) {
        let now = ctx.now();
        let plan = self
            .serve_plans
            .get_mut(&(epoch, from))
            .map(|(plan, served)| {
                *served = now;
                &*plan
            });
        let bytes = plan.and_then(|p| p.chunks.get(index as usize)).cloned();
        if let (Some(plan), Some(b)) = (plan, bytes.as_ref()) {
            ctx.metrics().incr("transfer.chunk_bytes", b.len() as u64);
            ctx.metrics().incr("rsmr.transfer_bytes", b.len() as u64);
            if matches!(plan.manifest.mode, TransferMode::Delta { .. }) {
                ctx.metrics()
                    .incr("transfer.delta_chunk_bytes", b.len() as u64);
            }
        }
        ctx.send(
            from,
            RsmrMsg::ChunkReply {
                epoch,
                index,
                bytes,
            },
        );
    }

    /// Joiner side: verify and store one chunk, then refill the window.
    fn handle_chunk_reply(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        index: u64,
        bytes: Option<Arc<Vec<u8>>>,
    ) {
        let now = ctx.now();
        {
            let Some(pt) = &mut self.pending_transfer else {
                return;
            };
            if pt.epoch != epoch {
                return;
            }
            pt.inflight.retain(|&i| i != index);
            let Some(assembly) = &mut pt.assembly else {
                return;
            };
            let Some(bytes) = bytes else {
                return; // donor lost the base; the tick timer rotates
            };
            match assembly.accept(index as usize, bytes) {
                ChunkOutcome::Stored => {
                    // Progress: reset the rotation backoff.
                    pt.attempts = 0;
                    pt.last_request = now;
                    pt.progress_at = now;
                }
                ChunkOutcome::Corrupt => {
                    // Discarded, never applied; stays missing, so the
                    // window refill re-requests it (counted as a resend).
                    ctx.metrics().incr("transfer.chunks_corrupt", 1);
                }
                ChunkOutcome::Duplicate | ChunkOutcome::OutOfRange => {}
            }
        }
        self.pump_chunk_requests(ctx);
        self.try_complete_transfer(ctx);
    }

    /// Keeps up to [`CHUNK_WINDOW`] chunk requests outstanding against the
    /// current provider.
    fn pump_chunk_requests(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        let Some(pt) = &mut self.pending_transfer else {
            return;
        };
        let Some(assembly) = &pt.assembly else {
            return;
        };
        let provider = pt.provider;
        let epoch = pt.epoch;
        let mut resent = 0u64;
        let mut sends: Vec<u64> = Vec::new();
        for i in assembly.missing() {
            if pt.inflight.len() >= CHUNK_WINDOW {
                break;
            }
            let index = i as u64;
            if pt.inflight.contains(&index) {
                continue;
            }
            if !pt.requested.insert(index) {
                resent += 1;
            }
            pt.inflight.push(index);
            sends.push(index);
        }
        if resent > 0 {
            ctx.metrics().incr("transfer.chunks_resent", resent);
        }
        for index in sends {
            ctx.send(provider, RsmrMsg::ChunkRequest { epoch, index });
        }
    }

    /// Installs the transfer once every chunk has arrived and verified.
    fn try_complete_transfer(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        let complete = self
            .pending_transfer
            .as_ref()
            .and_then(|pt| pt.assembly.as_ref())
            .is_some_and(|a| a.is_complete());
        if !complete {
            return;
        }
        let epoch = self.pending_transfer.as_ref().expect("checked").epoch;
        // Never regress the anchor.
        if let Some(anchor) = self.anchor {
            if anchor.epoch >= epoch {
                self.pending_transfer = None;
                return;
            }
        }
        let pt = self.pending_transfer.take().expect("checked");
        let assembly = pt.assembly.expect("checked");
        let manifest = assembly.manifest().clone();
        let chunks = assembly.into_chunks();
        // Validate the header *before* touching the state machine, so a
        // bad donor can never leave state half-mutated.
        let header_ok = {
            let mut buf = manifest.header.as_slice();
            SessionTable::<S::Output>::decode(&mut buf)
                .and_then(|_| ConfigChain::decode(&mut buf))
                .is_some()
                && buf.is_empty()
        };
        if !header_ok {
            ctx.metrics().incr("rsmr.transfer_decode_failures", 1);
            self.arm_transfer(ctx, pt.epoch, pt.provider, pt.candidates, None);
            return;
        }
        match manifest.mode {
            TransferMode::Full { pages } => {
                let assembled = assemble_full_pages(&chunks, pages as usize).and_then(|p| {
                    let sm = S::restore_pages(&p)?;
                    let base = BaseState::from_parts(epoch, p, &manifest.header)?;
                    Some((sm, base))
                });
                let Some((sm, base)) = assembled else {
                    ctx.metrics().incr("rsmr.transfer_decode_failures", 1);
                    self.arm_transfer(ctx, pt.epoch, pt.provider, pt.candidates, None);
                    return;
                };
                self.sm = sm;
                self.install_base(ctx, base);
            }
            TransferMode::Delta { .. } => {
                let owned: Vec<Vec<u8>> = chunks.iter().map(|c| (**c).clone()).collect();
                if !self.sm.apply_delta(&owned) {
                    // Malformed or unusable delta: fall back to a full
                    // transfer (drop the watermark so the next manifest
                    // is `Full`).
                    ctx.metrics().incr("transfer.delta_fallbacks", 1);
                    self.arm_transfer(ctx, pt.epoch, pt.provider, pt.candidates, None);
                    return;
                }
                // Re-derive the pages from the now-complete state so this
                // replica can serve, seal and persist like any other.
                let n = self.sm.snapshot_pages();
                let pages: Vec<Arc<Vec<u8>>> =
                    (0..n).map(|i| Arc::new(self.sm.snapshot_page(i))).collect();
                let base = BaseState::from_parts(epoch, pages, &manifest.header)
                    .expect("header validated above");
                self.install_base(ctx, base);
            }
        }
    }

    /// Anchors this replica on `base` (its state machine must already
    /// hold the matching application state). Shared by the full and delta
    /// chunked transfers. Callers check the never-regress rule *before*
    /// mutating the state machine.
    fn install_base(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        base: BaseState<S::Output>,
    ) {
        let epoch = base.epoch;
        self.pending_transfer = None;
        self.sessions = base.sessions.clone();
        self.chain = Some(base.chain.clone());
        self.anchor = Some(Anchor {
            epoch,
            next_slot: Slot::ZERO,
        });
        // Persisting below re-puts every page (a joiner's storage is behind
        // by definition).
        self.mirror_pages(&base);
        self.persisted_versions.clear();
        self.persist_base(ctx, &base);
        // Make sure we participate in the anchored epoch.
        let cfg = base
            .chain
            .config(epoch)
            .expect("validated by decode")
            .clone();
        self.bases.insert(epoch, Arc::new(base));
        // Drop buffers and instances for epochs we jumped over.
        self.buffers.retain(|&e, _| e >= epoch);
        self.sealed_at.retain(|&e, _| e >= epoch);
        self.drop_epochs_below(epoch);
        self.ensure_instance(ctx, epoch, &cfg);
        let now = ctx.now();
        ctx.metrics().incr("rsmr.transfers_installed", 1);
        ctx.metrics()
            .timeline_push("rsmr.anchored", now, epoch.0 as f64);
        ctx.emit_event(DomainEvent::Anchored { epoch: epoch.0 });
        ctx.trace(|| format!("installed base for {epoch}"));
        self.pump_apply(ctx);
    }

    fn tick_everything(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        let now = ctx.now();

        // Pump every instance's timers.
        let epochs: Vec<Epoch> = self.instances.keys().copied().collect();
        for epoch in epochs {
            let fx = {
                let Some(inst) = self.instances.get_mut(&epoch) else {
                    continue;
                };
                // A retired instance is halted and dropped.
                if inst.retire_at.is_some_and(|at| now >= at) {
                    self.drop_instance(epoch);
                    ctx.metrics().incr("rsmr.instances_retired", 1);
                    continue;
                }
                inst.paxos.tick(now)
            };
            self.process_effects(ctx, epoch, fx);
        }

        self.reclaim_keys(ctx);

        // Drop stashes for epochs that can no longer matter.
        if let Some(anchor) = self.anchor {
            self.stashed.retain(|&e, _| e >= anchor.epoch);
            self.stash_since.retain(|&e, _| e >= anchor.epoch);
        }

        // In-epoch incremental compaction: the rolling cursor refreshes a
        // few page encodes per tick, so the epoch seal re-encodes only the
        // pages dirtied since the cursor last passed them (a bounded tail
        // instead of the full state).
        if self.anchor.is_some() {
            let n = self.sm.snapshot_pages();
            if n > 1 {
                let mut refreshed = 0u64;
                for _ in 0..COMPACT_PAGES_PER_TICK.min(n) {
                    let i = self.compact_cursor % n;
                    self.compact_cursor = (self.compact_cursor + 1) % n;
                    refreshed += self.refresh_page(i);
                }
                if refreshed > 0 {
                    ctx.metrics().incr("transfer.cursor_refreshes", refreshed);
                }
            }
        }

        // A stash that keeps aging means the cluster moved past this
        // replica while it was down (or it rejoined blank): peers are
        // running an epoch we cannot reach through the local chain. Pull a
        // base state from one of the stashed senders instead of waiting for
        // an `Activate` that already went by.
        let reachable = self.chain.as_ref().map(|c| c.latest_epoch());
        let aged: Option<Epoch> = self
            .stash_since
            .iter()
            .filter(|&(&e, &since)| {
                now.since(since) >= TRANSFER_RETRY * 2
                    && reachable.map(|r| e > r).unwrap_or(true)
                    && self
                        .pending_transfer
                        .as_ref()
                        .map(|pt| pt.epoch < e && !pt.streaming(now, RETIRE_GRACE))
                        .unwrap_or(true)
            })
            .map(|(&e, _)| e)
            .next_back();
        if let Some(epoch) = aged {
            let senders: Vec<NodeId> = self
                .stashed
                .get(&epoch)
                .map(|s| s.iter().map(|(from, _)| *from).collect())
                .unwrap_or_default();
            if let Some(&first) = senders.first() {
                ctx.metrics().incr("rsmr.stash_aged_transfers", 1);
                ctx.trace(|| format!("stash for {epoch} aged; pulling base from {first}"));
                self.request_transfer(ctx, epoch, first, &senders);
            }
        }

        // An anchor that sits still for twice the retire grace while this
        // replica runs a later epoch's instance may never move: the logs
        // it needs can be retired everywhere (it finished an older base
        // while the group rolled on, and missed a commit). Pull the newest
        // base instead; being anchored, it fetches a delta.
        if let Some(anchor) = self.anchor {
            let since = match self.anchor_watch {
                Some((seen, since)) if seen == anchor => since,
                _ => now,
            };
            self.anchor_watch = Some((anchor, since));
            let newest = self
                .instances
                .iter()
                .next_back()
                .filter(|&(&e, _)| e > anchor.epoch)
                .map(|(&e, inst)| (e, inst.paxos.config().peers(self.me)));
            if let Some((epoch, peers)) = newest {
                if now.since(since) >= RETIRE_GRACE * 2
                    && self.pending_transfer.is_none()
                    && !peers.is_empty()
                {
                    self.anchor_watch = Some((anchor, now));
                    ctx.metrics().incr("rsmr.stuck_anchor_transfers", 1);
                    self.request_transfer(ctx, epoch, peers[0], &peers);
                }
            }
        }

        // Retry a stalled state transfer with exponential backoff, rotating
        // to an alternate donor each attempt so a crashed or partitioned
        // provider cannot stall the join forever. Chunk progress resets the
        // backoff, so a healthy stream never rotates; on rotation the
        // manifest is re-requested and — the manifest being deterministic —
        // the new donor resumes with only the missing chunks.
        let stalled = self.pending_transfer.as_ref().and_then(|pt| {
            let delay = TRANSFER_RETRY * (1u64 << pt.attempts.min(3));
            (now.since(pt.last_request) >= delay)
                .then(|| (pt.epoch, pt.provider, pt.candidates.clone(), pt.since))
        });
        if let Some((epoch, provider, candidates, since)) = stalled {
            let next_provider = self.pick_transfer_provider(epoch, provider, &candidates);
            if let Some(pt) = &mut self.pending_transfer {
                pt.provider = next_provider;
                pt.last_request = now;
                pt.attempts = pt.attempts.saturating_add(1);
                pt.inflight.clear();
            }
            ctx.metrics().incr("rsmr.transfer_retries", 1);
            ctx.send(next_provider, RsmrMsg::ManifestRequest { epoch, since });
        }

        // A reconfiguration proposal that lost its leader will never
        // finalize here: release parked clients so they retry elsewhere.
        if let Some(closing) = self.closing.clone() {
            let still_leading = self
                .instances
                .get(&closing.epoch)
                .map(|i| i.paxos.is_leader())
                .unwrap_or(false);
            let timed_out = now.since(closing.proposed_at) >= consensus::ELECTION_TIMEOUT * 4;
            if !still_leading || timed_out {
                self.closing = None;
                for (client, seq, _) in std::mem::take(&mut self.handoff) {
                    Self::redirect(ctx, client, seq, None, self.current_members());
                }
                if let Some((admin, _)) = closing.admin {
                    Self::refuse(ctx, admin, closing.epoch, None);
                }
            }
        }

        self.maybe_roll(ctx);
    }

    /// Rolls the log once the anchor passes [`ROLL_AFTER_SLOTS`] in the
    /// active epoch: its leader proposes `Reconfigure` to the current
    /// members, and the close, handoff and retirement an admin's
    /// reconfiguration gets do the rest.
    fn maybe_roll(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        let (Some(anchor), Some(chain)) = (self.anchor, &self.chain) else {
            return;
        };
        // Only with no reconfiguration in flight: none proposed here, and
        // no close applied that the chain already records.
        if self.closing.is_some()
            || anchor.next_slot.0 < ROLL_AFTER_SLOTS
            || chain.latest_epoch() != anchor.epoch
        {
            return;
        }
        let members = chain.latest_config().members().to_vec();
        let epoch = anchor.epoch;
        let Some(inst) = self.instances.get_mut(&epoch) else {
            return;
        };
        if !inst.paxos.is_leader() {
            return;
        }
        let (fx, outcome) = inst.paxos.propose(Cmd::Reconfigure { members }, ctx.now());
        if matches!(outcome, ProposeOutcome::Accepted) {
            self.closing = Some(Closing {
                epoch,
                admin: None,
                proposed_at: ctx.now(),
            });
            ctx.emit_event(DomainEvent::ReconfigProposed { epoch: epoch.0 });
        }
        self.process_effects(ctx, epoch, fx);
    }

    /// Drops every epoch below `epoch`: this replica is anchored past
    /// them, so their instances and persisted acceptor state are dead
    /// weight (and a restart inside the retire grace leaves the latter
    /// behind).
    fn drop_epochs_below(&mut self, epoch: Epoch) {
        let stale: Vec<Epoch> = self
            .chain
            .iter()
            .flat_map(|c| c.iter())
            .map(|(e, _)| e)
            .take_while(|&e| e < epoch)
            .collect();
        for e in stale {
            self.drop_instance(e);
        }
    }

    /// Halts and drops `epoch`'s instance together with its buffered
    /// commits, and queues its persisted acceptor state for deletion.
    fn drop_instance(&mut self, epoch: Epoch) {
        if let Some(mut inst) = self.instances.remove(&epoch) {
            inst.paxos.halt();
        }
        self.buffers.remove(&epoch);
        self.reclaim.insert(epoch);
    }

    /// Deletes up to [`RECLAIM_KEYS_PER_TICK`] `px/` keys of dropped
    /// epochs. Nothing reads them again: recovery rebuilds only epochs at
    /// or above the persisted anchor, and no instance below the anchor is
    /// ever recreated.
    fn reclaim_keys(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        let mut budget = RECLAIM_KEYS_PER_TICK;
        while let Some(&epoch) = self.reclaim.first() {
            let removed = ctx.storage().remove_prefix(&px_prefix(epoch), budget);
            if removed == budget {
                return;
            }
            budget -= removed;
            self.reclaim.remove(&epoch);
        }
    }

    fn pick_transfer_provider(
        &self,
        epoch: Epoch,
        provider: NodeId,
        candidates: &[NodeId],
    ) -> NodeId {
        // Rotate deterministically through every donor we know about: the
        // target epoch's member set (any finalized member can serve) plus
        // the accumulated candidates (Activate sender, successor members,
        // stashed-traffic senders). A blank joiner whose sole announced
        // donor crashed or got partitioned fails over to the others.
        let mut pool: Vec<NodeId> = self
            .chain
            .as_ref()
            .and_then(|c| c.config(epoch))
            .map(|c| c.peers(self.me))
            .unwrap_or_default();
        for &c in candidates {
            if c != self.me && !pool.contains(&c) {
                pool.push(c);
            }
        }
        if pool.is_empty() {
            return provider;
        }
        let idx = pool.iter().position(|&m| m == provider);
        match idx {
            Some(i) => pool[(i + 1) % pool.len()],
            None => pool[0],
        }
    }
}

fn px_prefix(epoch: Epoch) -> String {
    format!("px/{:08x}/", epoch.0)
}

impl<S: StateMachine> Actor for RsmrNode<S> {
    type Msg = RsmrMsg<S::Op, S::Output>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        // Persist the genesis base so crash recovery always has one.
        if let Some(anchor) = self.anchor {
            if ctx.storage().get(KEY_BASE_META).is_none() {
                if let Some(base) = self.bases.get(&anchor.epoch).cloned() {
                    self.persist_base(ctx, &base);
                }
            }
            self.drop_epochs_below(anchor.epoch);
        }
        ctx.set_timer(TICK, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match msg {
            RsmrMsg::Paxos { epoch, inner } => {
                if !self.instances.contains_key(&epoch) {
                    let known = self
                        .chain
                        .as_ref()
                        .and_then(|c| c.config(epoch))
                        .filter(|cfg| cfg.contains(self.me))
                        .cloned();
                    let Some(cfg) = known else {
                        // An epoch we have not learned about yet: stash the
                        // message (bounded) and replay it when the instance
                        // is created; drop only clearly-stale traffic.
                        let stale = self.anchor.map(|a| epoch < a.epoch).unwrap_or(false);
                        if stale {
                            ctx.metrics().incr("rsmr.unroutable_paxos", 1);
                            return;
                        }
                        let stash = self.stashed.entry(epoch).or_default();
                        if stash.len() < 256 {
                            stash.push((from, inner));
                            self.stash_since.entry(epoch).or_insert_with(|| ctx.now());
                            ctx.metrics().incr("rsmr.stashed_paxos", 1);
                        } else {
                            ctx.metrics().incr("rsmr.unroutable_paxos", 1);
                        }
                        return;
                    };
                    // Known epoch we should participate in (e.g. a lost
                    // Activate): create the instance, then deliver.
                    self.ensure_instance(ctx, epoch, &cfg);
                }
                self.deliver_paxos(ctx, from, epoch, inner);
            }
            RsmrMsg::Request { seq, op } => self.handle_request(ctx, from, seq, op),
            RsmrMsg::Reconfigure { members } => self.handle_reconfigure(ctx, from, members),
            RsmrMsg::Activate { epoch, members } => self.handle_activate(ctx, from, epoch, members),
            RsmrMsg::ManifestRequest { epoch, since } => {
                self.handle_manifest_request(ctx, from, epoch, since)
            }
            RsmrMsg::ManifestReply { epoch, manifest } => {
                self.handle_manifest_reply(ctx, from, epoch, manifest)
            }
            RsmrMsg::ChunkRequest { epoch, index } => {
                self.handle_chunk_request(ctx, from, epoch, index)
            }
            RsmrMsg::ChunkReply {
                epoch,
                index,
                bytes,
            } => self.handle_chunk_reply(ctx, epoch, index, bytes),
            RsmrMsg::Nominate { epoch } => {
                // Campaign in the named epoch if we participate in it and
                // no leader is known yet (otherwise the nomination is
                // stale and ignored).
                if let Some(inst) = self.instances.get_mut(&epoch) {
                    if inst.paxos.leader_hint().is_none() {
                        let fx = inst.paxos.campaign(ctx.now());
                        ctx.metrics().incr("rsmr.nominated_campaigns", 1);
                        self.process_effects(ctx, epoch, fx);
                    }
                }
            }
            RsmrMsg::Reply { .. }
            | RsmrMsg::Redirect { .. }
            | RsmrMsg::ReconfigureReply { .. }
            | RsmrMsg::TransferReply { .. }
            | RsmrMsg::TransferAck { .. } => {
                // Client/admin-bound traffic (or baseline-only messages)
                // mis-delivered to a replica.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, _timer: Timer) {
        self.tick_everything(ctx);
        ctx.set_timer(TICK, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_machine::CounterSm;

    #[test]
    fn genesis_node_is_anchored_and_has_one_instance() {
        let cfg = StaticConfig::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let node: RsmrNode<CounterSm> = RsmrNode::genesis(NodeId(0), cfg, RsmrTunables::default());
        assert_eq!(node.anchored_epoch(), Some(Epoch::ZERO));
        assert_eq!(node.active_epoch(), Some(Epoch::ZERO));
        assert_eq!(node.applied_count(), 0);
        assert!(node.chain().is_some());
    }

    #[test]
    #[should_panic(expected = "not in the genesis config")]
    fn genesis_requires_membership() {
        let cfg = StaticConfig::new(vec![NodeId(1)]);
        let _: RsmrNode<CounterSm> = RsmrNode::genesis(NodeId(0), cfg, RsmrTunables::default());
    }

    #[test]
    fn joining_node_is_unanchored() {
        let node: RsmrNode<CounterSm> = RsmrNode::joining(NodeId(9), RsmrTunables::default());
        assert_eq!(node.anchored_epoch(), None);
        assert_eq!(node.active_epoch(), None);
        assert!(node.chain().is_none());
    }

    #[test]
    fn recover_requires_a_persisted_base() {
        let store = StableStore::new();
        assert!(
            RsmrNode::<CounterSm>::recover(NodeId(0), RsmrTunables::default(), &store).is_none()
        );
    }

    // -- batch-aware close point: a `Reconfigure` at *every* intra-batch
    // index must close the epoch at that position, with the batch tail
    // re-proposed into the successor. Batches with an embedded close
    // cannot be produced through `handle_request` (requests park once the
    // epoch is closing), so the test injects a constructed batch directly
    // into whichever replica currently leads — private access is exactly
    // why this lives in the node's own test module.

    use std::cell::RefCell;
    use std::rc::Rc;

    use simnet::{NetConfig, Sim, SimTime, Timer};

    /// A command armed to fire at a given virtual time, shared with the
    /// driving test.
    type ArmedPayload = Rc<RefCell<Option<(SimTime, Cmd<u64>)>>>;

    /// A server that, once `payload` is armed and this replica leads the
    /// active epoch, proposes the constructed batch and seeds `waiting`
    /// for its app entries so the tail re-proposal path fires.
    struct Injector {
        node: RsmrNode<CounterSm>,
        payload: ArmedPayload,
    }

    impl Injector {
        fn try_inject(&mut self, ctx: &mut Context<'_, RsmrMsg<u64, u64>>) {
            let armed = {
                let p = self.payload.borrow();
                matches!(&*p, Some((at, _)) if ctx.now() >= *at)
            };
            if !armed {
                return;
            }
            let Some(epoch) = self.node.active_epoch() else {
                return;
            };
            let leading = self
                .node
                .instances
                .get(&epoch)
                .map(|i| i.paxos.is_leader())
                .unwrap_or(false);
            if !leading {
                return;
            }
            let (_, cmd) = self.payload.borrow_mut().take().expect("armed");
            if let Cmd::Batch { entries } = &cmd {
                for e in entries {
                    if let BatchEntry::App { client, seq, .. } = e {
                        self.node.waiting.insert((*client, *seq));
                    }
                }
            }
            let inst = self.node.instances.get_mut(&epoch).expect("active");
            let (fx, _) = inst.paxos.propose(cmd, ctx.now());
            self.node.process_effects(ctx, epoch, fx);
        }
    }

    impl Actor for Injector {
        type Msg = RsmrMsg<u64, u64>;
        fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
            self.node.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
            self.node.on_message(ctx, from, msg);
            self.try_inject(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: Timer) {
            self.node.on_timer(ctx, timer);
            self.try_inject(ctx);
        }
    }

    /// Runs a 3-server cluster, injects a batch of `n_apps` commands with
    /// a `Reconfigure` spliced in at `close_idx`, and returns per-server
    /// `(anchored epoch, applied count, counter value)` plus the summed
    /// `rsmr.batch_close_tail` metric.
    fn run_intra_batch_close(
        seed: u64,
        n_apps: u64,
        close_idx: usize,
    ) -> (Vec<(u64, u64, u64)>, u64) {
        let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut entries: Vec<BatchEntry<u64>> = (0..n_apps)
            .map(|seq| BatchEntry::App {
                client: NodeId(100),
                seq,
                op: 1 << seq,
            })
            .collect();
        entries.insert(
            close_idx,
            BatchEntry::Reconfigure {
                members: servers.clone(),
            },
        );
        let payload = Rc::new(RefCell::new(Some((
            SimTime::from_millis(500),
            Cmd::Batch { entries },
        ))));

        let mut sim: Sim<Injector> = Sim::new(seed, NetConfig::lan());
        let genesis = StaticConfig::new(servers.clone());
        for &s in &servers {
            sim.add_node_with_id(
                s,
                Injector {
                    node: RsmrNode::genesis(s, genesis.clone(), RsmrTunables::default()),
                    payload: payload.clone(),
                },
            );
        }
        sim.run_until(SimTime::from_secs(5));
        assert!(payload.borrow().is_none(), "batch was injected");

        let states = servers
            .iter()
            .map(|&s| {
                let a = sim.actor(s).expect("server up");
                (
                    a.node.anchored_epoch().expect("anchored").0,
                    a.node.applied_count(),
                    a.node.state_machine().value(),
                )
            })
            .collect();
        (states, sim.metrics().counter("rsmr.batch_close_tail"))
    }

    #[test]
    fn reconfigure_at_every_intra_batch_index_closes_there_and_reproposes_the_tail() {
        const N_APPS: u64 = 5;
        for close_idx in 0..=N_APPS as usize {
            let (states, tail_metric) = run_intra_batch_close(0xC105E, N_APPS, close_idx);
            let tail = N_APPS as usize - close_idx;
            for &(epoch, applied, value) in &states {
                assert_eq!(epoch, 1, "close at index {close_idx}: epoch sealed");
                assert_eq!(
                    applied, N_APPS,
                    "close at index {close_idx}: prefix applied in epoch 0, \
                     tail re-proposed into epoch 1, each exactly once"
                );
                assert_eq!(
                    value,
                    (1 << N_APPS) - 1,
                    "close at index {close_idx}: every op applied exactly once"
                );
            }
            // Every epoch-0 member records the same intra-batch tail — the
            // close point is a pure function of the batch position.
            assert_eq!(
                tail_metric,
                3 * tail as u64,
                "close at index {close_idx}: deterministic tail length"
            );
        }
    }

    #[test]
    fn intra_batch_close_is_deterministic_across_replays() {
        let a = run_intra_batch_close(7, 4, 2);
        let b = run_intra_batch_close(7, 4, 2);
        assert_eq!(a, b, "same seed, same close point, same final state");
    }

    /// A joiner installs a base only through the chunked protocol, which
    /// checks the manifest and every chunk's CRC: a monolithic
    /// `TransferReply` is ignored, even one carrying a well-formed base
    /// for the epoch it is waiting on.
    #[test]
    fn a_joiner_ignores_a_monolithic_transfer_reply() {
        let (donor, joiner) = (NodeId(0), NodeId(1));
        let members = vec![donor, joiner];
        let mut sim: Sim<RsmrNode<CounterSm>> = Sim::new(1, NetConfig::lan());
        sim.add_node_with_id(joiner, RsmrNode::joining(joiner, RsmrTunables::default()));
        // `donor` is not part of the simulation, so it never answers.
        sim.inject(
            donor,
            joiner,
            RsmrMsg::Activate {
                epoch: Epoch(1),
                members: members.clone(),
            },
        );
        sim.run_for(SimDuration::from_millis(50));
        let node = sim.actor(joiner).expect("up");
        assert_eq!(node.transfer_provider(), Some(donor), "transfer pending");

        let mut chain = ConfigChain::genesis(StaticConfig::new(vec![donor]));
        chain.append(Epoch(1), StaticConfig::new(members));
        let base: BaseState<u64> = BaseState {
            epoch: Epoch(1),
            pages: vec![Arc::new(CounterSm::default().snapshot_page(0))],
            sessions: SessionTable::new(),
            chain,
        };
        sim.inject(
            donor,
            joiner,
            RsmrMsg::TransferReply {
                epoch: Epoch(1),
                base: Some(base.encode_bytes()),
            },
        );
        sim.run_for(SimDuration::from_millis(50));
        let node = sim.actor(joiner).expect("up");
        assert_eq!(node.anchored_epoch(), None);
        assert_eq!(node.transfer_provider(), Some(donor), "still pending");
        assert_eq!(sim.metrics().counter("rsmr.transfers_installed"), 0);
    }
}
