//! Loopback TCP runtime: the same protocol automata over real sockets.
//!
//! The paper's deployment target (§2.1) is n servers connected by an
//! *asynchronous point-to-point network* — the open Internet. The
//! deterministic simulator substitutes for that network in tests; this
//! module closes the gap by running the automata over genuine TCP
//! sockets with length-prefixed binary frames (see [`crate::codec`]),
//! so a message must actually survive serialization, the kernel socket
//! buffers, and a hostile peer's framing before a protocol acts on it.
//!
//! One node loop, [`run_tcp_node_driven`], runs an automaton on real
//! threads: a *single* replica given explicit peer addresses, for true
//! multi-process deployments (each OS process runs one replica; see
//! `bench`'s `tcp_cluster` and `tcp_chaos` binaries). The stop
//! predicate only sees local state, and a configurable linger keeps the
//! replica forwarding traffic after it has decided so slower peers can
//! finish. [`run_tcp_node`] feeds it a fixed input vector, and
//! [`run_tcp_loopback`] starts one such node per party on ephemeral
//! loopback ports for in-process tests.
//!
//! ## Mesh layout
//!
//! Links are unidirectional: party i dials one send-socket to every
//! peer j and accepts one receive-socket from each. A connection opens
//! with an 8-byte handshake (`magic ‖ sender id`, both u32 BE); frames
//! are `u32` BE length + body, capped at [`MAX_FRAME`]; a zero length
//! is an idle heartbeat, not a message. Outbound frames pass through a
//! *bounded* per-peer queue (drop-oldest past a byte cap, counted as
//! `tcp_outbound_dropped`, so a crashed peer cannot grow sender memory
//! without limit). Every socket of a node is driven nonblocking by one
//! epoll event loop ([`crate::reactor`]): it drains the queues into
//! coalesced vectored writes, dials lazily with jittered exponential
//! backoff (peers boot — and restart — at different times), and
//! redials after a failed write without losing the frames in hand.
//! Malformed inbound traffic — bad magic, absurd lengths, bodies that
//! fail to decode — kills that connection only; the counters record
//! what was seen either way.
//!
//! ## Supervision
//!
//! Every outbound link runs a small state machine
//! (Connecting → Up ⇄ Degraded → Down): the event loop owns the
//! connectivity transitions and stamps a last-heard clock that idle
//! heartbeats keep fresh, and the node loop derives Degraded from
//! staleness, exports link gauges, and — on every completed
//! dial-plus-handshake — fires
//! [`Protocol::on_link_up_ctx`], which is how the replicated state
//! machine learns that a restarted peer is back and probes it into
//! state transfer.
//!
//! ## Chaos
//!
//! A [`ChaosConfig`](crate::chaos::ChaosConfig) in [`TcpNodeConfig`]
//! interposes seeded link faults (drop/garble/delay/reorder/throttle/
//! reset and scheduled partitions — see [`crate::chaos`]) between the
//! queue and the socket of every outbound link.
//!
//! Per-direction byte counters are plain atomics that the event loop
//! updates and the node thread folds into its [`Obs`] metrics at exit
//! (`net.tcp_bytes_sent` / `net.tcp_bytes_recv`), honoring the flight
//! recorder's single-writer contract — sockets never touch the
//! recorder directly.

use crate::chaos::ChaosConfig;
use crate::codec::{WireCodec, MAX_FRAME};
use crate::protocol::{Context, Effects, Protocol};
use crate::reactor::ReactorMesh;
use sintra_adversary::party::PartyId;
use sintra_obs::{Layer, MetricsSnapshot, Obs};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handshake magic ("SNTR"): rejects strays that are not a sintra peer.
pub(crate) const MAGIC: u32 = 0x534E_5452;

/// Why an inbound connection's handshake was refused. The connection is
/// dropped either way; the variants exist so rejects are *countable*
/// and diagnosable rather than silently swallowed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandshakeError {
    /// The peer closed (or stalled past the deadline) before sending
    /// the full 8-byte preamble.
    Truncated,
    /// The first word was not [`MAGIC`] — a stray or a port scanner.
    BadMagic(u32),
    /// The claimed sender id is outside `0..n`.
    BadParty {
        /// The id the peer claimed.
        claimed: u32,
        /// The mesh size it must be below.
        n: usize,
    },
}

impl core::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated => write!(f, "handshake truncated"),
            Self::BadMagic(m) => write!(f, "bad handshake magic {m:#010x}"),
            Self::BadParty { claimed, n } => {
                write!(f, "claimed party {claimed} outside mesh of {n}")
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Parses the 8-byte preamble (`magic ‖ sender id`, both u32 BE).
pub(crate) fn parse_handshake(hs: &[u8; 8], n: usize) -> Result<PartyId, HandshakeError> {
    let (magic, peer) = hs.split_at(4);
    let magic = u32::from_be_bytes(magic.try_into().map_err(|_| HandshakeError::Truncated)?);
    let claimed = u32::from_be_bytes(peer.try_into().map_err(|_| HandshakeError::Truncated)?);
    if magic != MAGIC {
        return Err(HandshakeError::BadMagic(magic));
    }
    if claimed as usize >= n {
        return Err(HandshakeError::BadParty { claimed, n });
    }
    Ok(claimed as usize)
}

/// The event loop pulls queued frames into a link's write queue up to
/// this many bytes at a time, and writes them with one `writev`.
pub(crate) const COALESCE_BYTES: usize = 64 * 1024;

/// Node-loop granularity: inbox poll timeout and tick period.
/// Tick-driven logic (fdabc suspect timers, optimistic fallback
/// timeouts) counts ticks, not wall time, so this period only scales
/// those protocols' timeouts.
pub(crate) const TICK_EVERY: Duration = Duration::from_millis(5);

/// Default per-peer outbound queue cap. Roomy next to [`MAX_FRAME`]
/// (a single frame always fits) yet small enough that a peer that is
/// Down for minutes costs megabytes, not gigabytes.
pub const DEFAULT_QUEUE_BYTES: usize = 4 * 1024 * 1024;

/// How long the event loop waits for a dialer's 8-byte handshake
/// before dropping the connection as [`HandshakeError::Truncated`].
pub(crate) const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(2);

/// An idle outbound link sends a zero-length heartbeat frame at this
/// period so the receiving side's staleness detector has something to
/// hear.
pub(crate) const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// An Up link that has heard nothing (not even heartbeats) for this
/// long is marked Degraded.
const STALE_AFTER_MS: u64 = 1_000;

/// Hard deadline on a single outbound dial attempt. Without one, a
/// blackholed peer (SYN silently dropped — no RST) keeps a connect
/// pending for the kernel's SYN-retry schedule (minutes), during which
/// the jittered backoff never runs and the link never degrades.
pub(crate) const DIAL_TIMEOUT: Duration = Duration::from_secs(2);

/// Reconnect backoff bounds (the actual sleep is jittered ±50%).
pub(crate) const BACKOFF_MIN: Duration = Duration::from_millis(10);
pub(crate) const BACKOFF_MAX: Duration = Duration::from_millis(500);

/// The TCP transport a node runs on. There is one: the epoll event
/// loop of [`crate::reactor`]. The enum and [`TcpNodeConfig::runtime`]
/// are kept only because the repo benchmark still assigns
/// `TcpRuntime::Reactor`; nothing reads the field, and both go once
/// the next benchmark-only change drops that assignment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TcpRuntime {
    /// A single epoll event loop per node driving every socket
    /// nonblocking — O(1) threads per node regardless of mesh size.
    #[default]
    Reactor,
}

/// Where a supervised outbound link stands. Transitions are advisory
/// timing signals (the asynchronous model admits no failure
/// detectors): Connecting/Up/Down are owned by the event loop,
/// Degraded is derived by the node loop from inbound staleness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkState {
    /// Dial in progress (or first dial not attempted yet).
    Connecting,
    /// Dial + handshake succeeded; writes are flowing.
    Up,
    /// Writes flow but the peer has been silent past the staleness
    /// horizon.
    Degraded,
    /// Last write or dial failed (or a partition window cut the link);
    /// redial pending.
    Down,
}

impl LinkState {
    fn as_u8(self) -> u8 {
        match self {
            LinkState::Connecting => 0,
            LinkState::Up => 1,
            LinkState::Degraded => 2,
            LinkState::Down => 3,
        }
    }

    fn from_u8(v: u8) -> LinkState {
        match v {
            0 => LinkState::Connecting,
            1 => LinkState::Up,
            2 => LinkState::Degraded,
            _ => LinkState::Down,
        }
    }
}

/// Shared per-peer link telemetry: the event loop publishes
/// connectivity and stamps the last-heard clock, the node loop
/// consumes both.
#[derive(Debug)]
pub(crate) struct LinkSupervisor {
    state: AtomicU8,
    /// Successful dial+handshake count; every increment is a Down→Up
    /// (or first) transition the node loop turns into an
    /// `on_link_up_ctx` callback.
    pub(crate) up_epochs: AtomicU64,
    /// Milliseconds since mesh start when the peer was last heard
    /// (frame or heartbeat), plus one; 0 means never.
    pub(crate) last_rx_ms: AtomicU64,
}

impl LinkSupervisor {
    pub(crate) fn new() -> LinkSupervisor {
        LinkSupervisor {
            state: AtomicU8::new(LinkState::Connecting.as_u8()),
            up_epochs: AtomicU64::new(0),
            last_rx_ms: AtomicU64::new(0),
        }
    }

    pub(crate) fn set(&self, s: LinkState) {
        self.state.store(s.as_u8(), Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> LinkState {
        LinkState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Stamps the last-heard clock with `elapsed` since the mesh epoch.
    pub(crate) fn touch(&self, elapsed: Duration) {
        self.last_rx_ms
            .store(elapsed.as_millis() as u64 + 1, Ordering::Relaxed);
    }
}

/// Bounded outbound queue for one peer: drop-oldest past `cap` bytes,
/// every drop counted. Bounding here is what keeps a sender's memory
/// flat while a peer is Down — the replica's bounded-memory guarantee
/// extended to the wire. The node thread pushes; the event loop pulls
/// without waiting (its doorbell is an eventfd, not this lock).
///
/// Locking is *poison-tolerant*: a thread that panics while holding
/// the mutex poisons it, and propagating that would turn one failed
/// link into a panic on the protocol thread's next `push` — a
/// whole-node crash bought by a single I/O failure. Instead the guard
/// is recovered (the queue is consistent at every unlock: byte
/// accounting happens in the same critical section as the queue
/// mutation), the poison is cleared, and the recovery is counted once
/// in `lane_poisoned`.
#[derive(Debug)]
pub(crate) struct Lane {
    inner: std::sync::Mutex<LaneInner>,
    cap: usize,
    dropped: Arc<AtomicU64>,
    poisoned: Arc<AtomicU64>,
}

#[derive(Debug, Default)]
struct LaneInner {
    q: VecDeque<Vec<u8>>,
    bytes: usize,
    closed: bool,
}

impl Lane {
    pub(crate) fn new(cap: usize, dropped: Arc<AtomicU64>, poisoned: Arc<AtomicU64>) -> Lane {
        Lane {
            inner: std::sync::Mutex::new(LaneInner::default()),
            cap: cap.max(MAX_FRAME + 4),
            dropped,
            poisoned,
        }
    }

    /// Locks the queue, recovering (and counting) a poisoned mutex
    /// instead of propagating the dead thread's panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, LaneInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(e) => {
                self.poisoned.fetch_add(1, Ordering::Relaxed);
                self.inner.clear_poison();
                e.into_inner()
            }
        }
    }

    /// Queues a frame, evicting oldest frames past the cap (the newest
    /// frame always survives). Returns `false` once closed.
    pub(crate) fn push(&self, frame: Vec<u8>) -> bool {
        let mut g = self.lock();
        if g.closed {
            return false;
        }
        g.bytes += frame.len();
        g.q.push_back(frame);
        while g.bytes > self.cap && g.q.len() > 1 {
            if let Some(old) = g.q.pop_front() {
                g.bytes -= old.len();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    /// Takes up to `max_bytes` of queued frames without waiting. The
    /// boolean is true once the lane is closed *and* drained.
    pub(crate) fn pop_batch(&self, max_bytes: usize) -> (Vec<Vec<u8>>, bool) {
        let mut g = self.lock();
        let mut out = Vec::new();
        let mut taken = 0usize;
        while taken < max_bytes {
            let Some(f) = g.q.pop_front() else { break };
            g.bytes -= f.len();
            taken += f.len();
            out.push(f);
        }
        let drained = g.closed && g.q.is_empty();
        (out, drained)
    }

    /// Bytes currently queued (the bounded-memory tests assert on it).
    #[cfg(test)]
    fn queued_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Whether nothing is queued (the reactor's park gate checks this
    /// before sleeping).
    pub(crate) fn is_empty(&self) -> bool {
        self.lock().q.is_empty()
    }

    pub(crate) fn close(&self) {
        self.lock().closed = true;
    }
}

/// Configuration for one replica of a TCP mesh (see [`run_tcp_node`]).
#[derive(Clone, Debug)]
pub struct TcpNodeConfig {
    /// This replica's party id (an index into `addrs`).
    pub me: PartyId,
    /// Listen/dial addresses of every party, indexed by party id.
    pub addrs: Vec<SocketAddr>,
    /// Overall wall-clock budget; the run reports `completed = false`
    /// if the stop predicate has not held by then.
    pub timeout: Duration,
    /// How long to keep processing and forwarding after the local stop
    /// predicate holds, so peers still mid-protocol can finish.
    pub linger: Duration,
    /// `Some(capacity)` enables per-node observability (flight
    /// recorder + metrics): message and tick counters, wall-clock
    /// handling latency (`net.handle_ns`) and the mesh's teardown
    /// counters.
    pub recorder_capacity: Option<usize>,
    /// Seeded link-fault schedule for this node's outbound links;
    /// `None` runs a clean network.
    pub chaos: Option<ChaosConfig>,
    /// Per-peer outbound queue cap in bytes (see
    /// [`DEFAULT_QUEUE_BYTES`]); drop-oldest past it.
    pub queue_bytes: usize,
    /// Keep retrying a failed listener bind for this long — a replica
    /// restarted onto its old port races the kernel's TIME_WAIT
    /// teardown of its predecessor's sockets.
    pub bind_retry: Duration,
    /// Read by nothing: every node runs the one transport (see
    /// [`TcpRuntime`]). Kept until the repo benchmark stops assigning
    /// it; goes with the enum.
    pub runtime: TcpRuntime,
}

impl TcpNodeConfig {
    /// A clean-network config with default queue bound, no chaos, no
    /// bind retry, and no recorder.
    pub fn new(me: PartyId, addrs: Vec<SocketAddr>, timeout: Duration, linger: Duration) -> Self {
        TcpNodeConfig {
            me,
            addrs,
            timeout,
            linger,
            recorder_capacity: None,
            chaos: None,
            queue_bytes: DEFAULT_QUEUE_BYTES,
            bind_retry: Duration::ZERO,
            runtime: TcpRuntime::default(),
        }
    }
}

/// Outcome of a [`run_tcp_node`] run.
#[derive(Debug)]
pub struct TcpNodeReport<O> {
    /// Local outputs in delivery order.
    pub outputs: Vec<O>,
    /// Whether the stop predicate held before the timeout.
    pub completed: bool,
    /// Messages this replica addressed outside `0..n` (dropped).
    pub dropped: u64,
    /// Frame bytes written to peers (handshakes excluded).
    pub bytes_sent: u64,
    /// Frame bytes read from peers (handshakes excluded).
    pub bytes_recv: u64,
    /// Inbound connections dropped for a bad handshake (see
    /// [`HandshakeError`]).
    pub handshake_rejects: u64,
    /// Frames evicted from bounded outbound queues (drop-oldest).
    pub outbound_dropped: u64,
    /// Poisoned-lane recoveries: a thread died holding an outbound
    /// queue's lock and the guard was recovered instead of propagating
    /// the panic. Nonzero means a link failed hard but the node kept
    /// running.
    pub lane_poisoned: u64,
    /// Chaos interposer tallies: (dropped, garbled, resets, delayed,
    /// reordered) — all zero without a [`ChaosConfig`].
    pub chaos_counts: (u64, u64, u64, u64, u64),
    /// Metrics snapshot — empty unless a recorder capacity was set.
    pub metrics: MetricsSnapshot,
}

/// Counters a mesh returns at teardown.
pub(crate) struct MeshStats {
    pub(crate) bytes_sent: u64,
    pub(crate) bytes_recv: u64,
    pub(crate) handshake_rejects: u64,
    pub(crate) outbound_dropped: u64,
    pub(crate) lane_poisoned: u64,
    pub(crate) chaos: (u64, u64, u64, u64, u64),
    /// High-water mark of fds registered with epoll at once.
    pub(crate) fds_peak: u64,
    /// `epoll_wait` returns (each is one batch of events or a tick).
    pub(crate) wakeups: u64,
    /// Read-buffer pool: fresh allocations vs. recycled buffers.
    pub(crate) pool_allocations: u64,
    pub(crate) pool_recycles: u64,
}

impl MeshStats {
    /// Folds the teardown counters into a node's metrics (a no-op on a
    /// disabled [`Obs`]).
    fn record(&self, obs: &Obs) {
        obs.add(Layer::Net, "tcp_bytes_sent", self.bytes_sent);
        obs.add(Layer::Net, "tcp_bytes_recv", self.bytes_recv);
        obs.add(Layer::Net, "handshake_rejected", self.handshake_rejects);
        obs.add(Layer::Net, "tcp_outbound_dropped", self.outbound_dropped);
        obs.add(Layer::Net, "lane_poisoned", self.lane_poisoned);
        let (cd, cg, cr, cl, co) = self.chaos;
        obs.add(Layer::Net, "chaos_dropped", cd);
        obs.add(Layer::Net, "chaos_garbled", cg);
        obs.add(Layer::Net, "chaos_resets", cr);
        obs.add(Layer::Net, "chaos_delayed", cl);
        obs.add(Layer::Net, "chaos_reordered", co);
        obs.gauge_set(Layer::Net, "reactor_fds_peak", self.fds_peak);
        obs.add(Layer::Net, "reactor_wakeups", self.wakeups);
        obs.add(Layer::Net, "pool_allocations", self.pool_allocations);
        obs.add(Layer::Net, "pool_recycles", self.pool_recycles);
    }
}

/// Per-node link bookkeeping for the node loops: turns the event
/// loop's up-epoch increments into `on_link_up_ctx` callbacks, derives
/// the Degraded state from inbound staleness, and exports link gauges.
struct LinkWatch {
    seen_epochs: Vec<u64>,
}

impl LinkWatch {
    fn new(n: usize) -> LinkWatch {
        LinkWatch {
            seen_epochs: vec![0; n],
        }
    }

    fn poll<P: Protocol>(
        &mut self,
        epoch: Instant,
        supervisors: &[Option<Arc<LinkSupervisor>>],
        node: &mut P,
        ctx: &Context,
        fx: &mut Effects<P::Message, P::Output>,
    ) {
        let now_ms = epoch.elapsed().as_millis() as u64;
        let mut up = 0u64;
        for (peer, sup) in supervisors.iter().enumerate() {
            let Some(sup) = sup else { continue };
            let e = sup.up_epochs.load(Ordering::Relaxed);
            if e > self.seen_epochs[peer] {
                self.seen_epochs[peer] = e;
                ctx.obs.inc(Layer::Net, "link_up");
                node.on_link_up_ctx(ctx, peer, fx);
            }
            let last = sup.last_rx_ms.load(Ordering::Relaxed);
            let stale = last != 0 && now_ms.saturating_sub(last) > STALE_AFTER_MS;
            match sup.get() {
                LinkState::Up if stale => {
                    sup.set(LinkState::Degraded);
                    ctx.obs.inc(Layer::Net, "link_degraded");
                }
                LinkState::Degraded if !stale => sup.set(LinkState::Up),
                _ => {}
            }
            if matches!(sup.get(), LinkState::Up | LinkState::Degraded) {
                up += 1;
            }
        }
        if ctx.obs.is_enabled() {
            ctx.obs.gauge_set(Layer::Net, "links_up", up);
        }
    }
}

/// Binds the local listener, retrying for `cfg.bind_retry` — a
/// restarted replica can race TIME_WAIT teardown on its own port.
fn bind_with_retry(cfg: &TcpNodeConfig) -> io::Result<TcpListener> {
    let deadline = Instant::now() + cfg.bind_retry;
    loop {
        match TcpListener::bind(cfg.addrs[cfg.me]) {
            Ok(l) => return Ok(l),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Runs one replica of a TCP mesh to completion — the multi-process
/// entry point (one call per OS process; see `tcp_cluster` in the
/// bench crate).
///
/// Binds `cfg.addrs[cfg.me]`, connects to every peer with
/// retry/backoff, injects `inputs` locally, then drives the automaton:
/// inbox messages, periodic ticks, link-up callbacks, and outbound
/// effects over the wire. After `stop` first holds over the local
/// outputs, the replica keeps running for `cfg.linger` so its
/// shares/acks still reach slower peers, then tears the mesh down.
///
/// # Errors
///
/// Returns an error only for local socket setup failures (bind);
/// peer-level connection trouble is retried, not surfaced.
pub fn run_tcp_node<P>(
    cfg: &TcpNodeConfig,
    node: P,
    inputs: Vec<P::Input>,
    stop: impl Fn(&[P::Output]) -> bool,
) -> io::Result<TcpNodeReport<P::Output>>
where
    P: Protocol,
    P::Message: WireCodec + Send + 'static,
{
    let mut pending = Some(inputs);
    let (report, _node) = run_tcp_node_driven(
        cfg,
        node,
        move |node, ctx, fx| {
            if let Some(inputs) = pending.take() {
                for input in inputs {
                    node.on_input_ctx(ctx, input, fx);
                }
            }
        },
        |_node, outputs| stop(outputs),
    )?;
    Ok(report)
}

/// [`run_tcp_node`] with a *driver* instead of a fixed input vector:
/// the driver runs on every tick (and once at startup) with mutable
/// access to the automaton, so a campaign can pace inputs over wall
/// time; the stop predicate sees the automaton itself, so completion
/// can key off internal state (a replica's applied watermark) rather
/// than only emitted outputs — a restarted replica that caught up by
/// state transfer never re-emits the replies it missed. Returns the
/// final automaton alongside the report for post-run inspection.
///
/// # Errors
///
/// Returns an error only for local socket setup failures (bind);
/// peer-level connection trouble is retried, not surfaced.
pub fn run_tcp_node_driven<P>(
    cfg: &TcpNodeConfig,
    mut node: P,
    mut driver: impl FnMut(&mut P, &Context, &mut Effects<P::Message, P::Output>),
    stop: impl Fn(&P, &[P::Output]) -> bool,
) -> io::Result<(TcpNodeReport<P::Output>, P)>
where
    P: Protocol,
    P::Message: WireCodec + Send + 'static,
{
    let n = cfg.addrs.len();
    let listener = bind_with_retry(cfg)?;
    let mesh: ReactorMesh<P::Message> = ReactorMesh::start(
        cfg.me,
        &cfg.addrs,
        listener,
        cfg.chaos.as_ref(),
        cfg.queue_bytes,
    )?;
    let obs = match cfg.recorder_capacity {
        Some(cap) => Obs::enabled(cap),
        None => Obs::disabled(),
    };

    let started = Instant::now();
    let deadline = started + cfg.timeout;
    let mut fx: Effects<P::Message, P::Output> = Effects::for_parties(n);
    let mut outputs: Vec<P::Output> = Vec::new();
    let mut dropped = 0u64;
    let mut completed = false;
    let mut linger_until: Option<Instant> = None;
    let mut last_tick = Instant::now();
    let mut links = LinkWatch::new(n);

    let ctx_at = |started: Instant, obs: &Obs| Context {
        me: cfg.me,
        n,
        at: started.elapsed().as_nanos() as u64,
        obs: obs.clone(),
    };

    {
        let ctx = ctx_at(started, &obs);
        driver(&mut node, &ctx, &mut fx);
    }

    loop {
        let now = Instant::now();
        if now > deadline {
            break;
        }
        if let Some(until) = linger_until {
            if now >= until {
                break;
            }
        }
        let mut worked = !fx.sends().is_empty() || !fx.outputs().is_empty();
        let ctx = ctx_at(started, &obs);
        if let Some((from, msg)) = mesh.recv_timeout(TICK_EVERY) {
            let handle_started = Instant::now();
            node.on_message_ctx(&ctx, from, msg, &mut fx);
            if obs.is_enabled() {
                obs.inc(Layer::Net, "recv");
                obs.observe(
                    Layer::Net,
                    "handle_ns",
                    handle_started.elapsed().as_nanos() as u64,
                );
            }
            worked = true;
        }
        if last_tick.elapsed() >= TICK_EVERY {
            last_tick = Instant::now();
            driver(&mut node, &ctx, &mut fx);
            node.on_tick_ctx(&ctx, &mut fx);
            if obs.is_enabled() {
                obs.inc(Layer::Net, "tick");
            }
            links.poll(mesh.epoch(), mesh.supervisors(), &mut node, &ctx, &mut fx);
            worked = true;
        }
        if worked {
            outputs.extend(fx.take_outputs());
            for (to, msg) in fx.take_sends() {
                if obs.is_enabled() {
                    obs.inc(Layer::Net, "sent");
                }
                if !mesh.send(to, msg) {
                    dropped += 1;
                    if obs.is_enabled() {
                        obs.inc(Layer::Net, "dropped_route");
                    }
                }
            }
            if !completed && stop(&node, &outputs) {
                completed = true;
                linger_until = Some(Instant::now() + cfg.linger);
            }
        }
    }

    let stats = mesh.shutdown();
    stats.record(&obs);
    Ok((
        TcpNodeReport {
            outputs,
            completed,
            dropped,
            bytes_sent: stats.bytes_sent,
            bytes_recv: stats.bytes_recv,
            handshake_rejects: stats.handshake_rejects,
            outbound_dropped: stats.outbound_dropped,
            lane_poisoned: stats.lane_poisoned,
            chaos_counts: stats.chaos,
            metrics: obs.metrics_snapshot(),
        },
        node,
    ))
}

/// Runs one [`run_tcp_node`] per party on its own thread over loopback
/// and joins them all — the in-process harness for real-thread tests.
/// Each party gets an ephemeral port; a `None` entry is never started,
/// so its port refuses connections like a crashed replica's. Every node
/// stops on its own outputs, then lingers. `configure` adjusts each
/// party's [`TcpNodeConfig`] (30 s timeout, 300 ms linger) before it
/// starts. Reports come back indexed by party.
///
/// # Errors
///
/// Returns the first local socket setup failure (bind).
pub fn run_tcp_loopback<P>(
    nodes: Vec<Option<(P, Vec<P::Input>)>>,
    stop: impl Fn(&[P::Output]) -> bool + Sync,
    configure: impl Fn(&mut TcpNodeConfig),
) -> io::Result<Vec<Option<TcpNodeReport<P::Output>>>>
where
    P: Protocol + Send,
    P::Message: WireCodec + Send + 'static,
    P::Input: Send,
    P::Output: Send,
{
    // Hold every listener until all ports are drawn, so no two parties
    // share one; each node then rebinds its own.
    let listeners = (0..nodes.len())
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let addrs = listeners
        .into_iter()
        .map(|l| l.local_addr())
        .collect::<io::Result<Vec<_>>>()?;
    let (timeout, linger) = (Duration::from_secs(30), Duration::from_millis(300));
    std::thread::scope(|s| {
        let threads: Vec<_> = nodes
            .into_iter()
            .enumerate()
            .map(|(me, slot)| {
                let (node, inputs) = slot?;
                let mut cfg = TcpNodeConfig::new(me, addrs.clone(), timeout, linger);
                configure(&mut cfg);
                let stop = &stop;
                Some(s.spawn(move || run_tcp_node(&cfg, node, inputs, stop)))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.map(|t| t.join().expect("node thread panicked")))
            .map(Option::transpose)
            .collect()
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chaos::{LinkFaults, Partition};
    use crate::codec::{encode_frame, CodecError, Reader};
    use std::io::{Read as _, Write as _};
    use std::net::{Shutdown, TcpStream};

    /// Gossip over real sockets: each node broadcasts its input; every
    /// node outputs what it hears.
    #[derive(Debug)]
    pub(crate) struct Gossip;

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) struct Word(pub(crate) u64);

    impl WireCodec for Word {
        fn encode_into(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_be_bytes());
        }

        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Word(r.u64()?))
        }
    }

    impl Protocol for Gossip {
        type Message = Word;
        type Input = u64;
        type Output = (PartyId, u64);

        fn on_input(&mut self, v: u64, fx: &mut Effects<Word, (PartyId, u64)>) {
            fx.broadcast(Word(v));
        }

        fn on_message(&mut self, from: PartyId, w: Word, fx: &mut Effects<Word, (PartyId, u64)>) {
            fx.output((from, w.0));
        }
    }

    fn honest_handshake(addr: SocketAddr, claim: u32) -> TcpStream {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut hs = [0u8; 8];
        hs[..4].copy_from_slice(&MAGIC.to_be_bytes());
        hs[4..].copy_from_slice(&claim.to_be_bytes());
        s.write_all(&hs).expect("write");
        s
    }

    /// Starts a two-party `(sender, receiver)` mesh pair; `chaos`
    /// interposes on the sender's link.
    fn mesh_pair(chaos: Option<&ChaosConfig>) -> (ReactorMesh<Word>, ReactorMesh<Word>) {
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addrs = vec![l0.local_addr().expect("a"), l1.local_addr().expect("a")];
        let a = ReactorMesh::start(0, &addrs, l0, chaos, DEFAULT_QUEUE_BYTES).expect("mesh");
        let b = ReactorMesh::start(1, &addrs, l1, None, DEFAULT_QUEUE_BYTES).expect("mesh");
        (a, b)
    }

    fn gossip_case(n: usize) {
        let nodes = (0..n).map(|p| Some((Gossip, vec![p as u64 * 3]))).collect();
        let reports = run_tcp_loopback(
            nodes,
            |outs: &[(PartyId, u64)]| outs.len() >= n,
            |cfg| cfg.recorder_capacity = Some(128),
        )
        .expect("loopback sockets bind");
        let mut merged = MetricsSnapshot::default();
        for (party, report) in reports.iter().enumerate() {
            let report = report.as_ref().expect("every party started");
            assert!(report.completed, "party {party} heard all {n} broadcasts");
            for from in 0..n {
                assert!(
                    report.outputs.contains(&(from, from as u64 * 3)),
                    "party {party} heard {from}"
                );
            }
            merged.merge(&report.metrics);
        }
        assert!(
            merged.counter("net.tcp_bytes_sent") > 0,
            "bytes crossed real sockets"
        );
        assert!(merged.counter("net.tcp_bytes_recv") > 0);
        assert!(
            merged.counter("net.link_up") > 0,
            "link supervisors saw connections come up"
        );
        assert!(
            merged.counter("net.reactor_wakeups") > 0,
            "the event loop actually span"
        );
    }

    #[test]
    fn tcp_gossip_delivers_everything() {
        gossip_case(4);
    }

    /// A wider mesh: 42 directed links instead of 12.
    #[test]
    fn tcp_gossip_delivers_everything_on_reactor() {
        gossip_case(7);
    }

    #[test]
    fn handshake_parse_classifies_errors() {
        let mut hs = [0u8; 8];
        hs[..4].copy_from_slice(&MAGIC.to_be_bytes());
        hs[4..].copy_from_slice(&2u32.to_be_bytes());
        assert_eq!(parse_handshake(&hs, 4), Ok(2));
        assert_eq!(
            parse_handshake(&hs, 2),
            Err(HandshakeError::BadParty { claimed: 2, n: 2 })
        );
        hs[..4].copy_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        assert_eq!(
            parse_handshake(&hs, 4),
            Err(HandshakeError::BadMagic(0xDEAD_BEEF))
        );
    }

    /// Starts party 0 of an `n`-party address book whose other
    /// addresses refuse (port 1), so only test sockets reach it.
    fn lone_mesh(n: usize) -> (SocketAddr, ReactorMesh<Word>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut addrs = vec![addr];
        addrs.resize(n, "127.0.0.1:1".parse().expect("addr"));
        let mesh =
            ReactorMesh::start(0, &addrs, listener, None, DEFAULT_QUEUE_BYTES).expect("mesh");
        (addr, mesh)
    }

    fn garbage_handshake_case(n: usize) {
        let (addr, mesh) = lone_mesh(n);

        // Wrong magic: dropped, and the socket sees EOF, not a frame.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut hs = [0u8; 8];
            hs[..4].copy_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
            s.write_all(&hs).expect("write");
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let mut buf = [0u8; 1];
            assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "connection dropped");
        }
        // Truncated handshake: close after three bytes.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&MAGIC.to_be_bytes()[..3]).expect("write");
        }
        // Sender id one past the last party.
        let _ = honest_handshake(addr, n as u32);
        // An honest peer (the last party) still gets through afterwards.
        let last = n - 1;
        let mut s = honest_handshake(addr, last as u32);
        s.write_all(&encode_frame(&Word(7)).expect("fits"))
            .expect("write");
        let got = mesh
            .recv_timeout(Duration::from_secs(10))
            .expect("frame delivered");
        assert_eq!(got, (last, Word(7)));
        let stats = mesh.shutdown();
        assert_eq!(
            stats.handshake_rejects, 3,
            "each garbage connection counted once"
        );
    }

    #[test]
    fn garbage_handshakes_are_rejected_and_counted() {
        garbage_handshake_case(2);
    }

    /// The party-id bound follows the address book, not a fixed n = 2.
    #[test]
    fn garbage_handshakes_are_rejected_and_counted_on_reactor() {
        garbage_handshake_case(4);
    }

    fn mid_handshake_case(n: usize) {
        let (addr, mesh) = lone_mesh(n);

        // Connect and vanish without a single byte.
        {
            let s = TcpStream::connect(addr).expect("connect");
            drop(s);
        }
        // Half a magic word, then a close.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&MAGIC.to_be_bytes()[..2]).expect("write");
            let _ = s.shutdown(Shutdown::Both);
            drop(s);
        }
        // Full magic but only half the party id.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&MAGIC.to_be_bytes()).expect("write");
            s.write_all(&[0u8; 2]).expect("write");
            drop(s);
        }
        // The acceptor survives all three and still serves honest peers.
        let last = n - 1;
        let mut s = honest_handshake(addr, last as u32);
        s.write_all(&encode_frame(&Word(11)).expect("fits"))
            .expect("write");
        let got = mesh
            .recv_timeout(Duration::from_secs(10))
            .expect("frame delivered");
        assert_eq!(got, (last, Word(11)));
        let stats = mesh.shutdown();
        assert_eq!(
            stats.handshake_rejects, 3,
            "every aborted handshake counted"
        );
    }

    #[test]
    fn mid_handshake_disconnects_are_tolerated() {
        mid_handshake_case(2);
    }

    #[test]
    fn mid_handshake_disconnects_are_tolerated_on_reactor() {
        mid_handshake_case(4);
    }

    fn silent_stray_case(n: usize) {
        let (addr, mesh) = lone_mesh(n);

        // A stray that connects and stays silent: the handshake
        // deadline (2s) must cut it loose rather than hold its fd
        // forever.
        let stray = TcpStream::connect(addr).expect("connect");
        // An honest peer dialing behind the stray is served while the
        // stray's clock runs.
        let last = n - 1;
        let mut honest = honest_handshake(addr, last as u32);
        honest
            .write_all(&encode_frame(&Word(23)).expect("fits"))
            .expect("write");
        let got = mesh
            .recv_timeout(Duration::from_secs(10))
            .expect("frame delivered past the silent stray");
        assert_eq!(got, (last, Word(23)));
        // Wait out the deadline before reading the reject counter.
        std::thread::sleep(HANDSHAKE_DEADLINE + Duration::from_millis(300));
        let stats = mesh.shutdown();
        assert_eq!(stats.handshake_rejects, 1, "silent stray counted");
        drop(stray);
    }

    #[test]
    fn handshake_timeout_rejects_silent_strays() {
        silent_stray_case(2);
    }

    #[test]
    fn handshake_timeout_rejects_silent_strays_on_reactor() {
        silent_stray_case(4);
    }

    #[test]
    fn bounded_lane_drops_oldest_and_counts() {
        let dropped = Arc::new(AtomicU64::new(0));
        // Cap clamps up to one max frame; use frames big enough to
        // overflow quickly.
        let lane = Lane::new(
            MAX_FRAME + 4,
            Arc::clone(&dropped),
            Arc::new(AtomicU64::new(0)),
        );
        let frame = vec![7u8; MAX_FRAME / 4];
        for _ in 0..16 {
            assert!(lane.push(frame.clone()));
        }
        assert!(
            dropped.load(Ordering::Relaxed) >= 11,
            "oldest frames evicted past the cap"
        );
        assert!(
            lane.queued_bytes() <= MAX_FRAME + 4,
            "memory stays bounded: {} bytes queued",
            lane.queued_bytes()
        );
        // The newest writes survive.
        let (frames, _) = lane.pop_batch(usize::MAX);
        assert!(!frames.is_empty());
        lane.close();
        let (rest, drained) = lane.pop_batch(usize::MAX);
        assert!(rest.is_empty() && drained);
        assert!(!lane.push(frame), "closed lane refuses frames");
    }

    #[test]
    fn sender_memory_stays_bounded_while_peer_is_down() {
        // Peer 1 is permanently unreachable (nothing listens); the
        // sender keeps broadcasting. Without the bounded lane this
        // grows without limit — the eviction counter proves the cap
        // engaged and the queue stayed flat.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dead = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dead_addr = dead.local_addr().expect("addr");
        drop(dead); // port now refuses connections
        let addrs = vec![addr, dead_addr];
        // Caps clamp up to one max frame (MAX_FRAME + 4), so the
        // effective bound here is ~1MiB; push several times that. The
        // event loop itself holds at most two coalesced batches
        // (2 × COALESCE_BYTES) for the dead link beyond the lane.
        let cap = 64 * 1024;
        let effective = MAX_FRAME + 4;
        let mesh: ReactorMesh<Word> =
            ReactorMesh::start(0, &addrs, listener, None, cap).expect("mesh");
        for i in 0..300_000u64 {
            assert!(mesh.send(1, Word(i)), "sends keep being accepted");
        }
        let queued = mesh.lane(1).queued_bytes();
        assert!(
            queued <= effective + MAX_FRAME + 4,
            "queue bounded at ~{effective} bytes, got {queued}"
        );
        let stats = mesh.shutdown();
        assert!(
            stats.outbound_dropped > 0,
            "evictions were counted: {}",
            stats.outbound_dropped
        );
    }

    /// Sends 400 frames from node 0 to node 1 under `faults` and
    /// returns the distinct frames heard plus the sender's chaos
    /// counters. At most `drop_budget + garble_budget` frames may be
    /// lost (a garbled frame reaches the peer but fails decode); chaos
    /// past the budgets only adds latency.
    fn chaos_case(faults: LinkFaults) -> (u64, (u64, u64, u64, u64, u64)) {
        let total = 400u64;
        let floor = total - faults.drop_budget - faults.garble_budget;
        let chaos = ChaosConfig {
            seed: 42,
            default: faults,
            ..ChaosConfig::default()
        };
        let (sender, receiver) = mesh_pair(Some(&chaos));
        for i in 0..total {
            assert!(sender.send(1, Word(i)));
        }
        let mut got = std::collections::BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while (got.len() as u64) < floor && Instant::now() < deadline {
            if let Some((from, w)) = receiver.recv_timeout(Duration::from_millis(100)) {
                assert_eq!(from, 0);
                got.insert(w.0);
            }
        }
        assert!(
            got.len() as u64 >= floor,
            "budgeted chaos keeps liveness: {}/{total} delivered",
            got.len()
        );
        let stats = sender.shutdown();
        receiver.shutdown();
        (got.len() as u64, stats.chaos)
    }

    #[test]
    fn chaos_faults_are_survivable_and_counted() {
        // Heavy budgeted loss: garbles kill the connection, so this
        // also exercises reconnect, and the counters tally what the
        // interposer did.
        let (_, (dropped, garbled, _resets, _delayed, _reordered)) = chaos_case(LinkFaults {
            drop_per_mille: 200,
            drop_budget: 8,
            garble_per_mille: 200,
            garble_budget: 8,
            reset_per_mille: 50,
            ..LinkFaults::none()
        });
        assert!(dropped > 0, "drops happened and were counted");
        assert!(garbled > 0, "garbles happened and were counted");
        assert!(dropped <= 8 && garbled <= 8, "budgets bound the damage");
    }

    /// Delay and reorder run on the event loop's release timers rather
    /// than destroying anything: every frame must arrive.
    #[test]
    fn chaos_faults_are_survivable_and_counted_on_reactor() {
        let (heard, (dropped, garbled, _resets, delayed, reordered)) = chaos_case(LinkFaults {
            delay_per_mille: 200,
            delay_ms: (1, 10),
            reorder_per_mille: 200,
            ..LinkFaults::none()
        });
        assert_eq!(heard, 400, "delay and reorder lose nothing");
        assert!(delayed > 0, "delays happened and were counted");
        assert!(reordered > 0, "reorders happened and were counted");
        assert_eq!((dropped, garbled), (0, 0));
    }

    /// A 250ms window cutting 0|1, with `group` naming one side: frames
    /// sent during the window arrive only after it ends — blocked, not
    /// dropped.
    fn partition_case(group: Vec<PartyId>) {
        let chaos = ChaosConfig {
            seed: 1,
            partitions: vec![Partition {
                group,
                start: Duration::ZERO,
                end: Duration::from_millis(250),
            }],
            ..ChaosConfig::default()
        };
        let (sender, receiver) = mesh_pair(Some(&chaos));
        let t0 = Instant::now();
        assert!(sender.send(1, Word(99)));
        let got = receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("frame delivered after heal");
        let waited = t0.elapsed();
        assert_eq!(got, (0, Word(99)));
        assert!(
            waited >= Duration::from_millis(200),
            "frame held for the window, not leaked early ({waited:?})"
        );
        sender.shutdown();
        receiver.shutdown();
    }

    #[test]
    fn partition_blocks_then_heals() {
        partition_case(vec![0]);
    }

    /// The sender cuts its link even when the group names only the
    /// receiver.
    #[test]
    fn partition_blocks_then_heals_on_reactor() {
        partition_case(vec![1]);
    }

    /// `both_ways` sends one frame each way to establish both
    /// unidirectional links; otherwise only a → b carries a frame.
    fn heartbeat_case(both_ways: bool) {
        let (a, b) = mesh_pair(None);
        assert!(a.send(1, Word(1)));
        assert_eq!(b.recv_timeout(Duration::from_secs(10)), Some((0, Word(1))));
        if both_ways {
            assert!(b.send(0, Word(2)));
            assert_eq!(a.recv_timeout(Duration::from_secs(10)), Some((1, Word(2))));
        }
        // Now both go idle. Heartbeats (200ms cadence) must keep the
        // last-heard clocks advancing on both sides.
        let before = b.supervisors()[0]
            .as_ref()
            .expect("sup")
            .last_rx_ms
            .load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(600));
        let after = b.supervisors()[0]
            .as_ref()
            .expect("sup")
            .last_rx_ms
            .load(Ordering::Relaxed);
        assert!(
            after > before,
            "idle link stayed audible: {before} → {after}"
        );
        // And the writer-side supervisor reports the link Up.
        assert_eq!(
            a.supervisors()[1].as_ref().expect("sup").get(),
            LinkState::Up
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn heartbeats_keep_an_idle_link_fresh() {
        heartbeat_case(true);
    }

    /// Heartbeats do not need traffic on the reverse link.
    #[test]
    fn heartbeats_keep_an_idle_link_fresh_on_reactor() {
        heartbeat_case(false);
    }

    #[test]
    fn single_node_mesh_loops_back_to_itself() {
        let cfg = TcpNodeConfig::new(
            0,
            vec!["127.0.0.1:0".parse().expect("addr")],
            Duration::from_secs(10),
            Duration::from_millis(0),
        );
        let report = run_tcp_node(&cfg, Gossip, vec![42], |outs: &[(PartyId, u64)]| {
            !outs.is_empty()
        })
        .expect("bind");
        assert!(report.completed);
        assert_eq!(report.outputs, vec![(0, 42)]);
    }

    #[test]
    fn driven_node_paces_inputs_and_sees_state() {
        // The driver injects one input per tick until three are out;
        // the stop predicate keys off the automaton (via the report's
        // returned node), proving &P access works.
        let cfg = TcpNodeConfig::new(
            0,
            vec!["127.0.0.1:0".parse().expect("addr")],
            Duration::from_secs(10),
            Duration::from_millis(0),
        );
        let mut injected = 0u64;
        let (report, node) = run_tcp_node_driven(
            &cfg,
            Gossip,
            move |node, ctx, fx| {
                if injected < 3 {
                    node.on_input_ctx(ctx, injected, fx);
                    injected += 1;
                }
            },
            |_node: &Gossip, outs: &[(PartyId, u64)]| outs.len() >= 3,
        )
        .expect("bind");
        assert!(report.completed);
        assert_eq!(report.outputs.len(), 3);
        let _ = node;
    }

    // -- link-layer bug-sweep regressions ------------------------------

    /// A local blackhole: a listener that never accepts, with its
    /// accept queue wedged full, silently drops further SYNs (no RST)
    /// — the same behavior as a firewalled host or a dead VM with a
    /// live route, but reproducible on loopback. Returns the address
    /// and the sockets keeping the queue full.
    fn blackholed_addr() -> (SocketAddr, TcpListener, Vec<TcpStream>) {
        let victim = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = victim.local_addr().expect("addr");
        let mut fillers = Vec::new();
        while let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            fillers.push(s);
            assert!(fillers.len() < 2048, "backlog never filled");
        }
        (addr, victim, fillers)
    }

    #[test]
    fn reactor_survives_blackholed_peer_and_shuts_down_promptly() {
        // A blackholed peer: the nonblocking connect carries its own
        // deadline (DIAL_TIMEOUT), so the event loop keeps ticking and
        // teardown stays bounded instead of waiting on a SYN.
        let (dark, _victim, _fillers) = blackholed_addr();
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addrs = vec![l0.local_addr().expect("a"), dark];
        let mesh: ReactorMesh<Word> =
            ReactorMesh::start(0, &addrs, l0, None, DEFAULT_QUEUE_BYTES).expect("mesh");
        assert!(mesh.send(1, Word(5)), "send queues while the peer is dark");
        std::thread::sleep(Duration::from_millis(300));
        let t0 = Instant::now();
        let stats = mesh.shutdown();
        assert!(
            t0.elapsed() <= Duration::from_secs(5),
            "teardown bounded despite the dark peer"
        );
        assert_eq!(stats.bytes_sent, 0, "nothing could have been delivered");
    }

    #[test]
    fn reactor_flapping_peer_keeps_fd_count_flat() {
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l0.local_addr().expect("addr");
        let addrs = vec![addr, "127.0.0.1:1".parse().expect("addr")];
        let mesh: ReactorMesh<Word> =
            ReactorMesh::start(0, &addrs, l0, None, DEFAULT_QUEUE_BYTES).expect("mesh");
        let mut zombies = Vec::new();
        for _ in 0..30 {
            zombies.push(honest_handshake(addr, 1));
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut live = zombies.pop().expect("kept the last");
        live.write_all(&encode_frame(&Word(9)).expect("fits"))
            .expect("write");
        assert_eq!(
            mesh.recv_timeout(Duration::from_secs(10)),
            Some((1, Word(9)))
        );
        let stats = mesh.shutdown();
        // 30 flaps without reaping would peak >30 fds; with reaping
        // the loop holds listener + doorbell + a couple of transients.
        assert!(
            stats.fds_peak <= 10,
            "inbound fds reaped on reconnect (peak {})",
            stats.fds_peak
        );
    }

    #[test]
    fn poisoned_lane_degrades_link_instead_of_panicking() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let addrs = vec![addr, "127.0.0.1:1".parse().expect("addr")];
        let mesh: ReactorMesh<Word> =
            ReactorMesh::start(0, &addrs, listener, None, DEFAULT_QUEUE_BYTES).expect("mesh");
        // Poison the lane mutex: panic while holding the guard. Were
        // the poison propagated, the protocol thread's next send would
        // panic — one dead link crashing the whole node.
        let lane = Arc::clone(mesh.lane(1));
        let _ = std::thread::spawn(move || {
            let _g = lane.inner.lock().expect("first lock");
            panic!("simulated death under the lane lock");
        })
        .join();
        assert!(
            mesh.send(1, Word(3)),
            "send survives and recovers the poisoned lock"
        );
        assert!(
            !mesh.lane(1).inner.is_poisoned(),
            "recovery clears the poison"
        );
        let stats = mesh.shutdown();
        assert_eq!(
            stats.lane_poisoned, 1,
            "the one poisoning is counted once, however often the lane is locked after"
        );
    }

    // -- crash-restart rejoin ------------------------------------------

    /// Queues `frames` words while the peer is down.
    fn late_peer_rejoin_case(frames: u64) {
        // "Crash" = nothing listening at the peer's address; "restart"
        // = a listener appears there later. The mesh must keep
        // redialing under backoff and deliver the queued frame once
        // the peer returns.
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let park = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer_addr = park.local_addr().expect("a");
        drop(park); // the peer is now "down"
        let addrs = vec![l0.local_addr().expect("a"), peer_addr];
        let mesh: ReactorMesh<Word> =
            ReactorMesh::start(0, &addrs, l0, None, DEFAULT_QUEUE_BYTES).expect("mesh");
        for i in 0..frames {
            assert!(
                mesh.send(1, Word(77 + i)),
                "frame queues while peer is down"
            );
        }
        std::thread::sleep(Duration::from_millis(300)); // several failed dials
        let revived = TcpListener::bind(peer_addr).expect("rebind");
        let (mut conn, _) = revived.accept().expect("mesh redialed after restart");
        let mut hs = [0u8; 8];
        conn.read_exact(&mut hs).expect("handshake first");
        assert_eq!(parse_handshake(&hs, 2), Ok(0));
        for i in 0..frames {
            let mut len4 = [0u8; 4];
            conn.read_exact(&mut len4).expect("frame length");
            let len = u32::from_be_bytes(len4) as usize;
            let mut body = vec![0u8; len];
            conn.read_exact(&mut body).expect("frame body");
            let mut expect = Vec::new();
            Word(77 + i).encode_into(&mut expect);
            assert_eq!(
                body, expect,
                "the pre-crash frames arrived post-restart, in order"
            );
        }
        // And the restarted peer can speak back — by dialing the
        // mesh's own listener, as a real restarted replica would.
        let mut back = honest_handshake(addrs[0], 1);
        back.write_all(&encode_frame(&Word(88)).expect("fits"))
            .expect("reply");
        assert_eq!(
            mesh.recv_timeout(Duration::from_secs(10)),
            Some((1, Word(88)))
        );
        mesh.shutdown();
    }

    #[test]
    fn late_peer_rejoin_delivers_queued_frames() {
        late_peer_rejoin_case(1);
    }

    #[test]
    fn late_peer_rejoin_delivers_queued_frames_on_reactor() {
        late_peer_rejoin_case(5);
    }
}
