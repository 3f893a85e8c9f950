//! The seal-time page cache. A replica keeps the last encode of every
//! snapshot page with the page version it reflects: the in-epoch cursor
//! refreshes dirty pages a few per tick, the seal reuses every encode
//! whose version still matches, and the persisted base is re-put only
//! where a page's version moved since it was last written. A recovered
//! replica rebuilds the cache and the persisted versions from its base.

use consensus::StaticConfig;
use kvstore::kv::PAGES;
use kvstore::{KvOp, KvStore};
use rsmr_core::harness::World;
use rsmr_core::{AdminActor, Epoch, RsmrClient, RsmrNode, RsmrTunables, StateMachine};
use simnet::{NetConfig, NodeId, Sim, SimDuration, SimTime};

const SERVERS: u64 = 3;
const CLIENTS: u64 = 8;
const ADMIN: NodeId = NodeId(90);
/// When the admin removes the last genesis server, sealing epoch 0 on
/// every replica.
const RECONFIGURE_AT: SimTime = SimTime::from_millis(2_000);

struct CacheWorld {
    sim: Sim<World<KvStore>>,
    servers: Vec<NodeId>,
    clients: Vec<NodeId>,
    puts_per_client: u64,
}

impl CacheWorld {
    /// Three genesis servers, clients that each put `puts_per_client`
    /// distinct keys, and an admin that shrinks the group to two servers
    /// at [`RECONFIGURE_AT`].
    fn new(seed: u64, puts_per_client: u64) -> Self {
        let mut sim: Sim<World<KvStore>> = Sim::new(seed, NetConfig::lan());
        let servers: Vec<NodeId> = (0..SERVERS).map(NodeId).collect();
        let genesis = StaticConfig::new(servers.clone());
        for &s in &servers {
            sim.add_node_with_id(
                s,
                World::server(RsmrNode::genesis(
                    s,
                    genesis.clone(),
                    RsmrTunables::default(),
                )),
            );
        }
        let script = vec![(RECONFIGURE_AT, servers[..2].to_vec())];
        sim.add_node_with_id(
            ADMIN,
            World::admin(AdminActor::new(servers.clone(), script)),
        );
        let clients: Vec<NodeId> = (0..CLIENTS).map(|c| NodeId(100 + c)).collect();
        for (i, &c) in clients.iter().enumerate() {
            let gen = move |seq: u64| KvOp::Put(format!("c{i}/k{seq}"), vec![7; 16]);
            sim.add_node_with_id(
                c,
                World::client(RsmrClient::new(servers.clone(), gen, Some(puts_per_client))),
            );
        }
        CacheWorld {
            sim,
            servers,
            clients,
            puts_per_client,
        }
    }

    fn server(&self, id: NodeId) -> &RsmrNode<KvStore> {
        self.sim
            .actor(id)
            .and_then(World::as_server)
            .unwrap_or_else(|| panic!("{id} is not a live server"))
    }

    fn all_completed(&self) -> bool {
        self.clients
            .iter()
            .all(|&c| self.sim.actor(c).map(World::completed) == Some(self.puts_per_client))
    }

    /// Pages of `id`'s state whose version differs from the genesis
    /// state's (every page of an empty store is at version 0).
    fn pages_changed_since_genesis(&self, id: NodeId) -> u64 {
        let genesis = KvStore::new();
        let sm = self.server(id).state_machine();
        (0..sm.snapshot_pages())
            .filter(|&i| sm.page_version(i) != genesis.page_version(i))
            .count() as u64
    }

    /// Runs past the reconfiguration and checks that every replica sealed
    /// epoch 0 exactly once.
    fn run_through_seal(&mut self) {
        self.sim
            .run_until(RECONFIGURE_AT + SimDuration::from_secs(2));
        for &s in &self.servers {
            assert_eq!(self.server(s).anchored_epoch(), Some(Epoch(1)), "{s}");
        }
        assert_eq!(self.sim.metrics().counter("rsmr.epochs_finalized"), SERVERS);
    }
}

/// After a quiet stretch longer than one full cursor pass, the cursor has
/// re-encoded every page the writes dirtied, so the seal encodes no data
/// page again.
#[test]
fn a_seal_after_a_quiet_pass_reuses_every_data_page() {
    let mut w = CacheWorld::new(0xCAC4E, 64);
    // The writes finish well before the reconfiguration: the quiet
    // stretch is many times one 165 ms cursor pass over 257 pages.
    w.sim.run_until(SimTime::from_millis(1_500));
    assert!(w.all_completed(), "every client finished its puts");
    let dirtied = w.pages_changed_since_genesis(NodeId(0));
    assert!(dirtied > PAGES as u64 / 2, "{dirtied} pages dirtied");
    let refreshed = w.sim.metrics().counter("transfer.cursor_refreshes");
    assert!(
        refreshed >= SERVERS * dirtied,
        "{refreshed} cursor refreshes for {dirtied} dirty pages"
    );

    w.run_through_seal();
    let m = w.sim.metrics();
    let reused = m.counter("transfer.seal_pages_reused");
    let encoded = m.counter("transfer.seal_pages_encoded");
    assert!(
        reused >= SERVERS * PAGES as u64,
        "{reused} pages reused, {encoded} encoded"
    );
    assert_eq!(reused + encoded, SERVERS * (PAGES as u64 + 1));
}

/// A replica rebuilt from its persisted genesis base re-puts, at the next
/// seal, only the pages whose version moved since that base, exactly as
/// the replicas that never crashed do.
#[test]
fn a_recovered_replica_persists_only_pages_changed_since_its_base() {
    let mut w = CacheWorld::new(0x2EC0, 6);
    while !w.servers.iter().any(|&s| w.server(s).is_active_leader()) {
        w.sim.step();
    }
    let victim = *w
        .servers
        .iter()
        .find(|&&s| !w.server(s).is_active_leader())
        .expect("two followers");
    w.sim.run_until(SimTime::from_millis(300));
    w.sim.crash(victim);
    w.sim.run_for(SimDuration::from_millis(200));
    let recovered = RsmrNode::recover(victim, RsmrTunables::default(), w.sim.storage(victim))
        .expect("the genesis base was persisted");
    w.sim.restart(victim, World::server(recovered));

    w.sim.run_until(SimTime::from_millis(1_900));
    assert!(w.all_completed(), "every client finished its puts");
    let before = w.sim.metrics().counter("transfer.pages_persisted");
    w.run_through_seal();
    let persisted = w.sim.metrics().counter("transfer.pages_persisted") - before;

    let changed = w.pages_changed_since_genesis(victim);
    assert!(
        changed > 1 && changed < PAGES as u64 / 2,
        "{changed} pages changed"
    );
    for &s in &w.servers {
        assert_eq!(w.pages_changed_since_genesis(s), changed, "{s} converged");
    }
    assert_eq!(persisted, SERVERS * changed);
}
