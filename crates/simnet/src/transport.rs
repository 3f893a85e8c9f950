//! Real-world backends for the actor runtime: wall clocks, TCP transport
//! and file-backed stable storage.
//!
//! The simulator ([`crate::Sim`]) *is* the clock, network and disk of the
//! actors it hosts. To run the identical actors as a real process, the
//! [`crate::runtime::NodeRuntime`] drives them through three narrow traits
//! instead:
//!
//! * [`Clock`] — a monotonic source of [`SimTime`] instants;
//! * [`Transport`] — an unreliable, unordered-across-peers datagram-style
//!   frame carrier (TCP per peer pair, so FIFO per live connection, but no
//!   guarantees across reconnects — exactly the delivery model the actors
//!   already tolerate from the simulated network);
//! * [`StorageBackend`] — a durable write-through sink for
//!   [`crate::StableStore`] mutations, read back in full at process start.
//!
//! Three transport implementations ship here: [`TcpTransport`]
//! (length-prefixed frames over `std::net` TCP with reconnect-and-backoff),
//! [`ChannelTransport`] (in-process channels, for tests), and the trivial
//! [`NullTransport`]. Storage comes as [`FileStorage`] (log-structured: a
//! chain of append-only segment files, cleaned oldest-first) or
//! [`MemStorage`] (volatile); both live in the `wal` module and are
//! re-exported here. See `DESIGN.md` §12 for the exact contracts actors
//! rely on.
//!
//! An async runtime (e.g. tokio) can slot in behind the same traits; the
//! thread-per-connection implementation here was chosen because it needs
//! nothing outside `std`.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sim::NodeId;
use crate::telemetry::{Counter, Gauge, HistogramHandle, Registry};
use crate::time::SimTime;
use crate::wire::crc32c;

pub use crate::wal::{FaultyStorage, FileStorage, MemStorage, StorageBackend};

/// A monotonic time source handing out [`SimTime`] instants.
///
/// The runtime timestamps every callback with `now()`, so actors keep their
/// (virtual-time) `SimTime` signatures unchanged whether a run is simulated
/// or real. Implementations must be monotonic: `now()` never decreases.
pub trait Clock: Send {
    /// The current instant.
    fn now(&self) -> SimTime;
}

/// A [`Clock`] that maps wall time onto [`SimTime`], microsecond for
/// microsecond, counting from a fixed origin.
///
/// Copies share the origin, so several runtimes (e.g. one per client
/// thread) constructed from the same `WallClock` produce directly
/// comparable timestamps.
#[derive(Copy, Clone, Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose `SimTime::ZERO` is now.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.origin.elapsed().as_micros() as u64)
    }
}

/// A hand-cranked [`Clock`] for runtime unit tests: time only moves when
/// the test calls [`ManualClock::advance`]. Handles are cheap clones
/// sharing one counter.
#[derive(Clone, Debug, Default)]
pub struct ManualClock {
    micros: Arc<std::sync::atomic::AtomicU64>,
}

impl ManualClock {
    /// A clock stopped at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.micros.fetch_add(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.micros.load(Ordering::SeqCst))
    }
}

/// What a [`Transport::poll`] call can surface.
#[derive(Clone, Debug)]
pub enum TransportEvent {
    /// A complete frame arrived from `from`.
    Frame {
        /// The sending node, learned from the connection handshake.
        from: NodeId,
        /// The frame payload (length prefix already stripped).
        payload: Vec<u8>,
    },
    /// A connection to `peer` was established (outbound or inbound).
    PeerConnected(NodeId),
    /// The connection to `peer` was lost. Outbound connections reconnect
    /// with backoff automatically; frames sent in the meantime are dropped,
    /// as on a real network.
    PeerDisconnected(NodeId),
}

/// A best-effort frame carrier between named nodes.
///
/// The contract is deliberately no stronger than the simulated network's:
/// frames may be dropped (full queue, dead peer) and there is no ordering
/// across peers — only per-peer FIFO while a single connection lasts.
/// Actors built for `simnet` therefore run unchanged on any implementation.
pub trait Transport: Send {
    /// Queues `payload` for delivery to `to`. Returns `false` when the
    /// frame was dropped immediately (unknown peer or full queue); `true`
    /// means *queued*, not delivered — delivery remains best-effort.
    fn send(&mut self, to: NodeId, payload: Vec<u8>) -> bool;

    /// Waits up to `timeout` for the next event. `None` on timeout.
    fn poll(&mut self, timeout: Duration) -> Option<TransportEvent>;

    /// The local listening address, when the transport has one.
    fn local_addr(&self) -> Option<SocketAddr> {
        None
    }
}

impl Transport for Box<dyn Transport> {
    fn send(&mut self, to: NodeId, payload: Vec<u8>) -> bool {
        (**self).send(to, payload)
    }
    fn poll(&mut self, timeout: Duration) -> Option<TransportEvent> {
        (**self).poll(timeout)
    }
    fn local_addr(&self) -> Option<SocketAddr> {
        (**self).local_addr()
    }
}

/// A [`Transport`] connected to nothing: every send is dropped, every poll
/// times out. Useful for single-node smoke tests.
#[derive(Default)]
pub struct NullTransport;

impl Transport for NullTransport {
    fn send(&mut self, _to: NodeId, _payload: Vec<u8>) -> bool {
        false
    }
    fn poll(&mut self, timeout: Duration) -> Option<TransportEvent> {
        std::thread::sleep(timeout);
        None
    }
}

/// A fault-injecting [`Transport`] decorator for chaos tests against the
/// real backend: drops, duplicates, truncates or bit-flips outgoing
/// payloads with seeded probabilities *before* the inner transport frames
/// them.
///
/// Because the mangling happens before [`encode_frame`] computes the
/// frame CRC, an injected flip arrives with a *valid* frame checksum —
/// this wrapper models a corrupted sender (bad RAM, a buggy peer), and
/// exercises the wire-codec robustness layer (`rt.decode_errors`), not
/// the link-integrity layer. Post-CRC link corruption is injected
/// separately via [`TcpConfig::corrupt_frame`].
pub struct FaultyTransport<T: Transport> {
    inner: T,
    rng: crate::rng::SimRng,
    drop_rate: f64,
    duplicate_rate: f64,
    corrupt_rate: f64,
    truncate_rate: f64,
    injected: u64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with no faults enabled; the draw order is fixed by
    /// `seed`, so a given send sequence injects identically every run.
    pub fn new(inner: T, seed: u64) -> Self {
        FaultyTransport {
            inner,
            rng: crate::rng::SimRng::seed_from_u64(seed ^ 0xFA_017_BAD),
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            injected: 0,
        }
    }

    /// Probability in `[0, 1]` that a send is silently dropped.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Probability in `[0, 1]` that a send goes out twice.
    pub fn with_duplicate_rate(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Probability in `[0, 1]` that one payload bit is flipped.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Probability in `[0, 1]` that the payload tail is chopped off.
    pub fn with_truncate_rate(mut self, rate: f64) -> Self {
        self.truncate_rate = rate;
        self
    }

    /// Faults injected so far (drops + duplicates + corruptions +
    /// truncations).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The wrapped transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, to: NodeId, mut payload: Vec<u8>) -> bool {
        if self.drop_rate > 0.0 && self.rng.gen_bool(self.drop_rate.clamp(0.0, 1.0)) {
            self.injected += 1;
            return true; // "queued", then lost — exactly what callers tolerate
        }
        if !payload.is_empty()
            && self.truncate_rate > 0.0
            && self.rng.gen_bool(self.truncate_rate.clamp(0.0, 1.0))
        {
            let keep = self.rng.gen_range(0..payload.len());
            payload.truncate(keep);
            self.injected += 1;
        }
        if !payload.is_empty()
            && self.corrupt_rate > 0.0
            && self.rng.gen_bool(self.corrupt_rate.clamp(0.0, 1.0))
        {
            let byte = self.rng.gen_range(0..payload.len());
            let bit = self.rng.gen_range(0..8u32);
            payload[byte] ^= 1 << bit;
            self.injected += 1;
        }
        if self.duplicate_rate > 0.0 && self.rng.gen_bool(self.duplicate_rate.clamp(0.0, 1.0)) {
            self.injected += 1;
            let _ = self.inner.send(to, payload.clone());
        }
        self.inner.send(to, payload)
    }

    fn poll(&mut self, timeout: Duration) -> Option<TransportEvent> {
        self.inner.poll(timeout)
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        self.inner.local_addr()
    }
}

/// Error raised by [`FrameBuffer::next_frame`] when the stream is
/// unrecoverable past this point: the length prefix exceeds the configured
/// maximum, or the frame's CRC-32C trailer does not match its payload.
/// Either way the connection must be killed — once framing is suspect,
/// nothing downstream of this byte can be trusted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length announced by the prefix exceeds the configured maximum.
    TooBig {
        /// The length announced by the prefix.
        len: u32,
        /// The configured maximum.
        max: u32,
    },
    /// The payload's CRC-32C does not match the frame trailer.
    Corrupt {
        /// The checksum carried in the frame trailer.
        expected: u32,
        /// The checksum computed over the received payload.
        found: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooBig { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Corrupt { expected, found } => write!(
                f,
                "frame checksum mismatch: trailer {expected:#010x}, payload {found:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps a payload in the wire framing: a little-endian `u32` length prefix,
/// the payload bytes, and a little-endian CRC-32C of the payload. The
/// receiving [`FrameBuffer`] verifies the checksum before a single payload
/// byte is surfaced, so corruption on the wire is always *detected*, never
/// silently decoded.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32c::checksum(payload).to_le_bytes());
    out
}

/// Incremental decoder for length-prefixed, checksummed frames.
///
/// Feed arbitrary byte chunks (as they arrive from a socket) with
/// [`FrameBuffer::extend`]; pull complete frames with
/// [`FrameBuffer::next_frame`]. Partial reads — a length prefix split
/// across reads, a payload arriving byte by byte — reassemble correctly.
/// Every completed frame has its CRC-32C trailer verified before it is
/// returned.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    max_frame: u32,
}

impl FrameBuffer {
    /// A buffer rejecting frames longer than `max_frame` bytes.
    pub fn new(max_frame: u32) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Appends raw bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete, checksum-verified frame; `Ok(None)` when
    /// more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes"));
        if len > self.max_frame {
            return Err(FrameError::TooBig {
                len,
                max: self.max_frame,
            });
        }
        let total = 4 + len as usize + 4;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = &self.buf[4..4 + len as usize];
        let expected = u32::from_le_bytes(self.buf[total - 4..total].try_into().expect("4 bytes"));
        let found = crc32c::checksum(payload);
        if expected != found {
            return Err(FrameError::Corrupt { expected, found });
        }
        let frame = payload.to_vec();
        self.buf.drain(..total);
        Ok(Some(frame))
    }

    /// Bytes currently buffered (for tests and diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// An in-process [`Transport`] over channels: every endpoint created from
/// the same [`ChannelHub`] can frame bytes to every other. Delivery is
/// reliable and FIFO — a convenient harness for runtime tests that do not
/// need sockets.
#[derive(Clone, Default)]
pub struct ChannelHub {
    peers: Arc<Mutex<HashMap<NodeId, Sender<TransportEvent>>>>,
}

impl ChannelHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `me` and returns its endpoint. Re-registering an id
    /// replaces the previous endpoint (its receiver starts missing frames).
    pub fn endpoint(&self, me: NodeId) -> ChannelTransport {
        let (tx, rx) = mpsc::channel();
        lock(&self.peers).insert(me, tx);
        ChannelTransport {
            me,
            peers: Arc::clone(&self.peers),
            rx,
        }
    }
}

/// One endpoint of a [`ChannelHub`].
pub struct ChannelTransport {
    me: NodeId,
    peers: Arc<Mutex<HashMap<NodeId, Sender<TransportEvent>>>>,
    rx: Receiver<TransportEvent>,
}

impl Transport for ChannelTransport {
    fn send(&mut self, to: NodeId, payload: Vec<u8>) -> bool {
        let Some(tx) = lock(&self.peers).get(&to).cloned() else {
            return false;
        };
        tx.send(TransportEvent::Frame {
            from: self.me,
            payload,
        })
        .is_ok()
    }

    fn poll(&mut self, timeout: Duration) -> Option<TransportEvent> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// Configuration for [`TcpTransport::bind`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// This node's id, announced in the connection handshake.
    pub me: NodeId,
    /// Address to accept inbound connections on; `None` for pure clients.
    pub listen: Option<SocketAddr>,
    /// Peers to keep an outbound connection to (reconnecting with backoff).
    pub peers: Vec<(NodeId, SocketAddr)>,
    /// Registry to publish the transport's `net.*` series into (DESIGN
    /// §9); `None` records nothing.
    pub telemetry: Option<Registry>,
    /// Fault injection: 0-based indices (in send order, across all peers)
    /// of outgoing frames whose bytes are bit-flipped *after* the CRC
    /// trailer is computed — i.e. genuine link corruption. The receiver
    /// must detect the mismatch, bump `net.frame_errors` and kill the
    /// connection.
    pub corrupt_frames: Vec<u64>,
}

impl TcpConfig {
    /// A config for node `me` with sensible localhost defaults.
    pub fn new(me: NodeId) -> Self {
        TcpConfig {
            me,
            listen: None,
            peers: Vec::new(),
            telemetry: None,
            corrupt_frames: Vec::new(),
        }
    }

    /// Sets the listen address.
    pub fn listen(mut self, addr: SocketAddr) -> Self {
        self.listen = Some(addr);
        self
    }

    /// Adds an outbound peer.
    pub fn peer(mut self, id: NodeId, addr: SocketAddr) -> Self {
        self.peers.push((id, addr));
        self
    }

    /// Publishes the transport's `net.*` series (per-peer queue occupancy,
    /// coalesced write sizes, reconnects, frame errors) into `registry`.
    pub fn telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Injects link corruption into the `n`-th outgoing frame (0-based,
    /// counted across all peers in send order): one bit of the framed
    /// bytes is flipped after the CRC trailer is computed.
    pub fn corrupt_frame(mut self, n: u64) -> Self {
        self.corrupt_frames.push(n);
        self
    }
}

/// The `net.*` telemetry handles shared by a [`TcpTransport`]'s threads.
#[derive(Clone)]
struct NetStats {
    /// Outbound connections re-established after a break.
    reconnects: Counter,
    /// Connections killed by an oversized/corrupt length prefix.
    frame_errors: Counter,
    /// Frames dropped at send time (unknown peer or full queue).
    dropped_frames: Counter,
    /// Bytes per coalesced write syscall.
    coalesced_write_bytes: HistogramHandle,
}

impl NetStats {
    fn new(registry: &Registry) -> Self {
        NetStats {
            reconnects: registry.counter("net.reconnects"),
            frame_errors: registry.counter("net.frame_errors"),
            dropped_frames: registry.counter("net.dropped_frames"),
            coalesced_write_bytes: registry.histogram("net.coalesced_write_bytes"),
        }
    }
}

/// Occupancy gauges for one configured peer's egress queue: incremented
/// by [`Transport::send`], decremented as the writer thread drains.
#[derive(Clone)]
struct QueueGauges {
    depth: Gauge,
    bytes: Gauge,
}

impl QueueGauges {
    fn new(registry: &Registry, peer: NodeId) -> Self {
        QueueGauges {
            depth: registry.gauge(&format!("net.outbound_queue_depth{{peer=\"{peer}\"}}")),
            bytes: registry.gauge(&format!("net.outbound_queue_bytes{{peer=\"{peer}\"}}")),
        }
    }
}

const MAGIC: [u8; 4] = *b"RSMR";
const VERSION: u16 = 1;
/// How long blocking socket reads wait before re-checking the stop flag.
const READ_SLICE: Duration = Duration::from_millis(100);
/// How long writer threads wait for the next frame before re-checking stop.
const WRITE_SLICE: Duration = Duration::from_millis(100);
/// First reconnect delay; doubles per attempt up to [`RECONNECT_MAX`].
const RECONNECT_MIN: Duration = Duration::from_millis(50);
/// Reconnect delay ceiling.
const RECONNECT_MAX: Duration = Duration::from_secs(2);
/// Per-peer egress queue capacity, in frames; sends beyond it drop.
const QUEUE_CAPACITY: usize = 4096;
/// Largest accepted frame payload, bytes.
const MAX_FRAME: u32 = 64 << 20;

type InboundMap = Arc<Mutex<HashMap<NodeId, (u64, SyncSender<Vec<u8>>)>>>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The connection handshake: magic, protocol version, sender's node id.
fn write_hello(stream: &mut TcpStream, me: NodeId) -> io::Result<()> {
    let mut hello = [0u8; 14];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..6].copy_from_slice(&VERSION.to_le_bytes());
    hello[6..14].copy_from_slice(&me.0.to_le_bytes());
    stream.write_all(&hello)
}

fn read_hello(stream: &mut TcpStream) -> io::Result<NodeId> {
    let mut hello = [0u8; 14];
    stream.read_exact(&mut hello)?;
    if hello[..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let version = u16::from_le_bytes(hello[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("protocol version {version} != {VERSION}"),
        ));
    }
    Ok(NodeId(u64::from_le_bytes(
        hello[6..14].try_into().expect("8 bytes"),
    )))
}

/// A [`Transport`] over real TCP sockets.
///
/// * **Framing**: `u32` little-endian length prefix + payload + CRC-32C
///   trailer (see [`encode_frame`]), preceded on every connection by a
///   14-byte handshake (`"RSMR"`, version, sender id). A frame whose
///   checksum fails verification kills the connection and bumps
///   `net.frame_errors` — corrupted bytes are never surfaced.
/// * **Topology**: one outbound connection per configured peer, kept alive
///   by a reconnect loop with exponential backoff; inbound connections
///   from *unconfigured* nodes (clients) get a reply path registered
///   automatically, so servers can answer nodes they were never told
///   about.
/// * **Threads**: one acceptor, one writer per peer, one reader per live
///   connection. All terminate promptly on drop.
/// * **Loss model**: a full egress queue or a down peer drops frames —
///   callers must already tolerate loss, and every simnet actor does.
pub struct TcpTransport {
    me: NodeId,
    local: Option<SocketAddr>,
    events_rx: Receiver<TransportEvent>,
    outbound: HashMap<NodeId, SyncSender<Vec<u8>>>,
    inbound: InboundMap,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Frames dropped at send time (unknown peer or full queue).
    dropped: u64,
    /// Shared telemetry handles, when a registry was attached.
    stats: Option<NetStats>,
    /// Per-configured-peer egress queue gauges.
    queue_gauges: HashMap<NodeId, QueueGauges>,
    /// Outgoing frames framed so far (the fault injector's clock).
    sent_frames: u64,
    /// Send-order indices of frames to bit-flip post-CRC.
    corrupt_frames: std::collections::BTreeSet<u64>,
}

impl TcpTransport {
    /// Starts the transport: binds the listener (if any) and spawns the
    /// per-peer connector threads.
    pub fn bind(cfg: TcpConfig) -> io::Result<Self> {
        let (events_tx, events_rx) = mpsc::channel::<TransportEvent>();
        let stop = Arc::new(AtomicBool::new(false));
        let inbound: InboundMap = Arc::new(Mutex::new(HashMap::new()));
        let mut threads = Vec::new();
        let stats = cfg.telemetry.as_ref().map(NetStats::new);

        let local = match cfg.listen {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                let local = listener.local_addr()?;
                let acceptor = Acceptor {
                    events: events_tx.clone(),
                    inbound: Arc::clone(&inbound),
                    stop: Arc::clone(&stop),
                    frame_errors: stats.as_ref().map(|s| s.frame_errors.clone()),
                };
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("rsmr-accept-{}", cfg.me))
                        .spawn(move || acceptor.run(listener))?,
                );
                Some(local)
            }
            None => None,
        };

        let mut outbound = HashMap::new();
        let mut queue_gauges = HashMap::new();
        for &(peer, addr) in &cfg.peers {
            if peer == cfg.me {
                continue;
            }
            let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(QUEUE_CAPACITY);
            outbound.insert(peer, tx);
            let gauges = cfg.telemetry.as_ref().map(|r| QueueGauges::new(r, peer));
            if let Some(g) = &gauges {
                queue_gauges.insert(peer, g.clone());
            }
            let conn = Connector {
                me: cfg.me,
                peer,
                addr,
                events: events_tx.clone(),
                stop: Arc::clone(&stop),
                stats: stats.clone(),
                gauges,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rsmr-conn-{}-{}", cfg.me, peer))
                    .spawn(move || conn.run(rx))?,
            );
        }

        Ok(TcpTransport {
            me: cfg.me,
            local,
            events_rx,
            outbound,
            inbound,
            stop,
            threads,
            dropped: 0,
            stats,
            queue_gauges,
            sent_frames: 0,
            corrupt_frames: cfg.corrupt_frames.iter().copied().collect(),
        })
    }

    /// The node id this transport announces in handshakes.
    pub fn node_id(&self) -> NodeId {
        self.me
    }

    /// Frames dropped at send time so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, to: NodeId, payload: Vec<u8>) -> bool {
        let mut frame = encode_frame(&payload);
        let idx = self.sent_frames;
        self.sent_frames += 1;
        if self.corrupt_frames.remove(&idx) {
            // Scripted link corruption: flip a bit past the length prefix
            // (the first payload byte, or the CRC trailer for an empty
            // payload) so the receiver sees a checksum mismatch rather
            // than a desynced stream.
            frame[4] ^= 0x01;
        }
        let frame_len = frame.len() as u64;
        // Configured peers go through their connector's queue; anyone else
        // must have connected to us (a client), giving us a reply path.
        let tx = match self.outbound.get(&to) {
            Some(tx) => tx.clone(),
            None => match lock(&self.inbound).get(&to) {
                Some((_, tx)) => tx.clone(),
                None => {
                    self.dropped += 1;
                    if let Some(s) = &self.stats {
                        s.dropped_frames.add(1);
                    }
                    return false;
                }
            },
        };
        match tx.try_send(frame) {
            Ok(()) => {
                if let Some(g) = self.queue_gauges.get(&to) {
                    g.depth.add(1);
                    g.bytes.add(frame_len);
                }
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.dropped += 1;
                if let Some(s) = &self.stats {
                    s.dropped_frames.add(1);
                }
                false
            }
        }
    }

    fn poll(&mut self, timeout: Duration) -> Option<TransportEvent> {
        match self.events_rx.recv_timeout(timeout) {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        self.local
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        if let Some(addr) = self.local {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
        // Dropping the egress senders unblocks idle writer loops.
        self.outbound.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The accept loop: handshake inbound connections, spawn their readers,
/// and register reply paths for unconfigured peers.
struct Acceptor {
    events: Sender<TransportEvent>,
    inbound: InboundMap,
    stop: Arc<AtomicBool>,
    frame_errors: Option<Counter>,
}

impl Acceptor {
    fn run(self, listener: TcpListener) {
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        let mut next_conn: u64 = 0;
        for stream in listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(READ_SLICE));
            let Ok(peer) = read_hello(&mut stream) else {
                continue;
            };
            let conn_id = next_conn;
            next_conn += 1;

            // Give the peer a reply path over this same connection: one
            // writer thread draining a bounded queue. Newer connections
            // replace older entries (the peer restarted).
            let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(QUEUE_CAPACITY);
            lock(&self.inbound).insert(peer, (conn_id, tx));
            let writer_stream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            };
            let stop_w = Arc::clone(&self.stop);
            readers.push(
                std::thread::Builder::new()
                    .name(format!("rsmr-reply-{peer}"))
                    .spawn(move || write_loop(writer_stream, rx, stop_w))
                    .expect("spawn reply writer"),
            );

            let _ = self.events.send(TransportEvent::PeerConnected(peer));
            let reader = InboundReader {
                peer,
                conn_id,
                events: self.events.clone(),
                inbound: Arc::clone(&self.inbound),
                stop: Arc::clone(&self.stop),
                frame_errors: self.frame_errors.clone(),
            };
            readers.push(
                std::thread::Builder::new()
                    .name(format!("rsmr-read-{peer}"))
                    .spawn(move || reader.run(stream))
                    .expect("spawn reader"),
            );
        }
        // Deregister all reply paths so their writer loops see hangup.
        lock(&self.inbound).clear();
        for t in readers {
            let _ = t.join();
        }
    }
}

struct InboundReader {
    peer: NodeId,
    conn_id: u64,
    events: Sender<TransportEvent>,
    inbound: InboundMap,
    stop: Arc<AtomicBool>,
    frame_errors: Option<Counter>,
}

impl InboundReader {
    fn run(self, stream: TcpStream) {
        read_loop(
            stream,
            self.peer,
            &self.events,
            &self.stop,
            self.frame_errors.as_ref(),
        );
        // Drop the reply path, but only if it is still ours — the peer may
        // already have reconnected and replaced it.
        let mut map = lock(&self.inbound);
        if map
            .get(&self.peer)
            .is_some_and(|(id, _)| *id == self.conn_id)
        {
            map.remove(&self.peer);
        }
        drop(map);
        let _ = self
            .events
            .send(TransportEvent::PeerDisconnected(self.peer));
    }
}

/// The per-configured-peer connection keeper: connect, handshake, then pump
/// the egress queue until the connection or the transport dies; repeat with
/// exponential backoff.
struct Connector {
    me: NodeId,
    peer: NodeId,
    addr: SocketAddr,
    events: Sender<TransportEvent>,
    stop: Arc<AtomicBool>,
    stats: Option<NetStats>,
    gauges: Option<QueueGauges>,
}

impl Connector {
    fn run(self, rx: Receiver<Vec<u8>>) {
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        let mut backoff = RECONNECT_MIN;
        let mut ever_connected = false;
        while !self.stop.load(Ordering::SeqCst) {
            let stream =
                TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)).and_then(|mut s| {
                    s.set_nodelay(true)?;
                    s.set_read_timeout(Some(READ_SLICE))?;
                    write_hello(&mut s, self.me)?;
                    Ok(s)
                });
            let stream = match stream {
                Ok(s) => s,
                Err(_) => {
                    self.sleep_backoff(backoff);
                    backoff = (backoff * 2).min(RECONNECT_MAX);
                    continue;
                }
            };
            backoff = RECONNECT_MIN;
            if ever_connected {
                if let Some(s) = &self.stats {
                    s.reconnects.add(1);
                }
            }
            ever_connected = true;

            // Whatever the peer pushes on this connection (e.g. replies to
            // a client) flows into the same event stream.
            if let Ok(read_stream) = stream.try_clone() {
                let events = self.events.clone();
                let stop = Arc::clone(&self.stop);
                let peer = self.peer;
                let frame_errors = self.stats.as_ref().map(|s| s.frame_errors.clone());
                readers.push(
                    std::thread::Builder::new()
                        .name(format!("rsmr-read-{}-{}", self.me, peer))
                        .spawn(move || {
                            read_loop(read_stream, peer, &events, &stop, frame_errors.as_ref())
                        })
                        .expect("spawn reader"),
                );
            }
            let _ = self.events.send(TransportEvent::PeerConnected(self.peer));
            if !self.write_until_broken(&stream, &rx) {
                break; // transport dropped
            }
            let _ = self
                .events
                .send(TransportEvent::PeerDisconnected(self.peer));
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for t in readers {
            let _ = t.join();
        }
    }

    /// Pumps frames until a write fails (returns `true`: reconnect) or the
    /// transport goes away (returns `false`: exit).
    fn write_until_broken(&self, stream: &TcpStream, rx: &Receiver<Vec<u8>>) -> bool {
        let coalesced = self.stats.as_ref().map(|s| &s.coalesced_write_bytes);
        matches!(
            pump_writes(stream, rx, &self.stop, self.gauges.as_ref(), coalesced),
            WriteEnd::Broken
        )
    }

    fn sleep_backoff(&self, total: Duration) {
        let deadline = Instant::now() + total;
        while Instant::now() < deadline && !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20).min(total));
        }
    }
}

/// Shared by inbound and outbound readers: split the byte stream into
/// frames and forward them as events until EOF, error, or stop.
fn read_loop(
    mut stream: TcpStream,
    peer: NodeId,
    events: &Sender<TransportEvent>,
    stop: &AtomicBool,
    frame_errors: Option<&Counter>,
) {
    let mut frames = FrameBuffer::new(MAX_FRAME);
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => {
                frames.extend(&chunk[..n]);
                loop {
                    match frames.next_frame() {
                        Ok(Some(payload)) => {
                            if events
                                .send(TransportEvent::Frame {
                                    from: peer,
                                    payload,
                                })
                                .is_err()
                            {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Oversized or checksum-failing frame: the
                            // stream is unrecoverable — kill the
                            // connection and let reconnect start clean.
                            if let Some(c) = frame_errors {
                                c.add(1);
                            }
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Drains an egress queue into a socket until hangup — the reply path for
/// inbound (client) connections.
fn write_loop(stream: TcpStream, rx: Receiver<Vec<u8>>, stop: Arc<AtomicBool>) {
    // Reply paths are unmetered: clients come and go with arbitrary ids,
    // so per-peer gauges would grow without bound.
    pump_writes(&stream, &rx, &stop, None, None);
}

/// Why the socket pump stopped: the socket broke (the connector
/// reconnects) or the queue/transport went away (the pump exits).
enum WriteEnd {
    Broken,
    Closed,
}

/// How many queued bytes one wakeup will coalesce into a single
/// `write_all`. Bounds memory and latency under backlog; frames larger
/// than this still go out whole (the first frame is always taken).
const WRITE_COALESCE_BYTES: usize = 256 * 1024;

/// Drains an egress queue into a socket. Each wakeup takes every frame
/// already queued (up to [`WRITE_COALESCE_BYTES`]) and issues one write
/// syscall for the batch — at tens of thousands of frames per second the
/// per-frame wakeup + syscall pair dominates, so coalescing is the
/// difference between a saturated core and headroom.
fn pump_writes(
    mut stream: &TcpStream,
    rx: &Receiver<Vec<u8>>,
    stop: &AtomicBool,
    gauges: Option<&QueueGauges>,
    coalesced: Option<&HistogramHandle>,
) -> WriteEnd {
    let mut batch: Vec<u8> = Vec::with_capacity(WRITE_COALESCE_BYTES);
    loop {
        if stop.load(Ordering::SeqCst) {
            return WriteEnd::Closed;
        }
        let first = match rx.recv_timeout(WRITE_SLICE) {
            Ok(frame) => frame,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return WriteEnd::Closed,
        };
        batch.clear();
        batch.extend_from_slice(&first);
        let mut frames: u64 = 1;
        while batch.len() < WRITE_COALESCE_BYTES {
            match rx.try_recv() {
                Ok(frame) => {
                    batch.extend_from_slice(&frame);
                    frames += 1;
                }
                Err(_) => break,
            }
        }
        if let Some(g) = gauges {
            g.depth.sub(frames);
            g.bytes.sub(batch.len() as u64);
        }
        if let Some(h) = coalesced {
            h.record(batch.len() as u64);
        }
        if stream.write_all(&batch).is_err() {
            return WriteEnd::Broken;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_codec_round_trips() {
        let frame = encode_frame(b"hello");
        assert_eq!(&frame[..4], &5u32.to_le_bytes());
        assert_eq!(frame.len(), 4 + 5 + 4, "length prefix + payload + crc");
        assert_eq!(
            &frame[9..],
            &crc32c::checksum(b"hello").to_le_bytes(),
            "trailer is the payload's CRC-32C"
        );
        let mut fb = FrameBuffer::new(1024);
        fb.extend(&frame);
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(fb.next_frame().unwrap(), None);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn every_single_bit_flip_in_a_frame_is_detected() {
        // Flip each bit of payload and trailer in turn: the decoder must
        // report Corrupt every time, never return mangled bytes. (Bits in
        // the length prefix change the claimed geometry instead — those
        // surface as TooBig, a short read, or a trailer mismatch.)
        let clean = encode_frame(b"payload under test");
        for byte in 4..clean.len() {
            for bit in 0..8 {
                let mut mangled = clean.clone();
                mangled[byte] ^= 1 << bit;
                let mut fb = FrameBuffer::new(1024);
                fb.extend(&mangled);
                assert!(
                    matches!(fb.next_frame(), Err(FrameError::Corrupt { .. })),
                    "flip at {byte}:{bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn empty_frames_are_still_checksummed() {
        let mut frame = encode_frame(b"");
        assert_eq!(frame.len(), 8);
        frame[4] ^= 0x01; // the CRC trailer itself
        let mut fb = FrameBuffer::new(1024);
        fb.extend(&frame);
        assert!(matches!(fb.next_frame(), Err(FrameError::Corrupt { .. })));
    }

    #[test]
    fn partial_reads_reassemble_byte_by_byte() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(b""));
        stream.extend_from_slice(&encode_frame(b"abc"));
        stream.extend_from_slice(&encode_frame(&[0xFFu8; 300]));
        let mut fb = FrameBuffer::new(1024);
        let mut got = Vec::new();
        for &b in &stream {
            fb.extend(&[b]);
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], b"");
        assert_eq!(got[1], b"abc");
        assert_eq!(got[2], vec![0xFFu8; 300]);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn jagged_chunk_boundaries_reassemble() {
        // Split a multi-frame stream at every possible boundary pair.
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(b"first"));
        stream.extend_from_slice(&encode_frame(b"second frame"));
        for cut in 0..stream.len() {
            let mut fb = FrameBuffer::new(1024);
            fb.extend(&stream[..cut]);
            let mut got = Vec::new();
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
            fb.extend(&stream[cut..]);
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
            assert_eq!(got.len(), 2, "cut at {cut}");
            assert_eq!(got[0], b"first");
            assert_eq!(got[1], b"second frame");
        }
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut fb = FrameBuffer::new(8);
        fb.extend(&encode_frame(&[0u8; 9]));
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err, FrameError::TooBig { len: 9, max: 8 });
        assert!(err.to_string().contains("9 bytes"));
    }

    #[test]
    fn faulty_transport_is_deterministic_and_counts_injections() {
        let hub = ChannelHub::new();
        let run = |seed: u64| {
            let mut out = Vec::new();
            let mut rx = hub.endpoint(NodeId(2));
            let mut tx = FaultyTransport::new(hub.endpoint(NodeId(1)), seed)
                .with_drop_rate(0.3)
                .with_corrupt_rate(0.3)
                .with_truncate_rate(0.2)
                .with_duplicate_rate(0.2);
            for i in 0..40u8 {
                tx.send(NodeId(2), vec![i; 8]);
            }
            while let Some(TransportEvent::Frame { payload, .. }) =
                rx.poll(Duration::from_millis(10))
            {
                out.push(payload);
            }
            (out, tx.injected())
        };
        let (a, inj_a) = run(7);
        let (b, inj_b) = run(7);
        assert_eq!(a, b, "same seed must inject identically");
        assert_eq!(inj_a, inj_b);
        assert!(inj_a > 0, "rates this high must fire");
        let (c, _) = run(8);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn corrupted_tcp_frame_kills_the_connection_and_reconnect_resumes() {
        // The wire-integrity satellite, over real sockets: frame #1 out of
        // the client is bit-flipped post-CRC. The server must detect the
        // mismatch (net.frame_errors), drop the connection, and the
        // client's reconnect-with-backoff must get later frames through.
        let server_reg = Registry::new();
        let client_reg = Registry::new();
        let mut server = TcpTransport::bind(
            TcpConfig::new(NodeId(0))
                .listen("127.0.0.1:0".parse().unwrap())
                .telemetry(server_reg.clone()),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TcpTransport::bind(
            TcpConfig::new(NodeId(100))
                .peer(NodeId(0), addr)
                .telemetry(client_reg.clone())
                .corrupt_frame(1),
        )
        .unwrap();

        let counter = |reg: &Registry, name: &str| {
            reg.snapshot()
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut next_seq: u64 = 0;
        let mut delivered: Vec<u64> = Vec::new();
        // Keep sending sequence-numbered frames until, post-corruption,
        // the stream flows again. Frame 1 is mangled on the wire; frames
        // queued behind it on the killed connection may be lost, exactly
        // like network loss.
        loop {
            assert!(
                Instant::now() < deadline,
                "stream never recovered: delivered {delivered:?}"
            );
            if client.send(NodeId(0), next_seq.to_le_bytes().to_vec()) {
                next_seq += 1;
            }
            if let Some(TransportEvent::Frame { payload, .. }) =
                server.poll(Duration::from_millis(20))
            {
                let seq = u64::from_le_bytes(payload.as_slice().try_into().unwrap());
                delivered.push(seq);
                if counter(&server_reg, "net.frame_errors") >= 1 && seq >= 2 {
                    break;
                }
            }
        }
        assert!(
            !delivered.contains(&1),
            "the corrupted frame must never be surfaced: {delivered:?}"
        );
        assert_eq!(counter(&server_reg, "net.frame_errors"), 1);
        assert!(
            counter(&client_reg, "net.reconnects") >= 1,
            "recovery must have gone through a reconnect"
        );
    }

    #[test]
    fn channel_hub_routes_between_endpoints() {
        let hub = ChannelHub::new();
        let mut a = hub.endpoint(NodeId(1));
        let mut b = hub.endpoint(NodeId(2));
        assert!(a.send(NodeId(2), b"ping".to_vec()));
        match b.poll(Duration::from_secs(1)) {
            Some(TransportEvent::Frame { from, payload }) => {
                assert_eq!(from, NodeId(1));
                assert_eq!(payload, b"ping");
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(!b.send(NodeId(99), b"nope".to_vec()), "unknown peer drops");
        assert!(a.poll(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn tcp_transport_sends_both_ways_and_serves_unconfigured_clients() {
        // Server listens; client connects outbound only (no listener) —
        // the server must still be able to reply via the inbound path.
        let mut server =
            TcpTransport::bind(TcpConfig::new(NodeId(0)).listen("127.0.0.1:0".parse().unwrap()))
                .unwrap();
        let addr = server.local_addr().unwrap();
        let mut client =
            TcpTransport::bind(TcpConfig::new(NodeId(100)).peer(NodeId(0), addr)).unwrap();

        // Client -> server.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut sent = false;
        let payload = loop {
            assert!(Instant::now() < deadline, "no frame before deadline");
            if !sent {
                sent = client.send(NodeId(0), b"request".to_vec());
            }
            match server.poll(Duration::from_millis(50)) {
                Some(TransportEvent::Frame { from, payload }) => {
                    assert_eq!(from, NodeId(100));
                    break payload;
                }
                _ => continue,
            }
        };
        assert_eq!(payload, b"request");

        // Server -> client over the client's own connection.
        assert!(server.send(NodeId(100), b"reply".to_vec()));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(Instant::now() < deadline, "no reply before deadline");
            match client.poll(Duration::from_millis(50)) {
                Some(TransportEvent::Frame { from, payload }) => {
                    assert_eq!(from, NodeId(0));
                    assert_eq!(payload, b"reply");
                    break;
                }
                _ => continue,
            }
        }

        // Sends to unknown peers drop and are counted.
        assert!(!server.send(NodeId(42), b"x".to_vec()));
        assert_eq!(server.dropped(), 1);
    }

    #[test]
    fn tcp_transport_telemetry_tracks_queues_writes_and_drops() {
        let registry = Registry::new();
        let mut server =
            TcpTransport::bind(TcpConfig::new(NodeId(0)).listen("127.0.0.1:0".parse().unwrap()))
                .unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TcpTransport::bind(
            TcpConfig::new(NodeId(100))
                .peer(NodeId(0), addr)
                .telemetry(registry.clone()),
        )
        .unwrap();

        // Push a frame through and wait for it to arrive.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut sent = false;
        loop {
            assert!(Instant::now() < deadline, "no frame before deadline");
            if !sent {
                sent = client.send(NodeId(0), b"request".to_vec());
            }
            match server.poll(Duration::from_millis(50)) {
                Some(TransportEvent::Frame { .. }) => break,
                _ => continue,
            }
        }
        // A send to an unknown peer bumps the dropped-frames counter.
        assert!(!client.send(NodeId(42), b"x".to_vec()));

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(Instant::now() < deadline, "telemetry never converged");
            let snap = registry.snapshot();
            let counter = |name: &str| {
                snap.counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0, |(_, v)| *v)
            };
            let coalesced = snap
                .histograms
                .iter()
                .find(|(n, _)| n == "net.coalesced_write_bytes")
                .map_or(0, |(_, h)| h.count());
            let depth = snap
                .gauges
                .iter()
                .find(|(n, _)| n == "net.outbound_queue_depth{peer=\"n0\"}")
                .map_or(u64::MAX, |(_, v)| *v);
            // The frame was written (one coalesced batch), the queue
            // drained back to empty, and the drop was counted.
            if coalesced >= 1 && depth == 0 && counter("net.dropped_frames") == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
