//! Nonblocking epoll reactor: the TCP transport of every mesh node.
//! One event-loop thread per replica drives all of its sockets, so a
//! process hosting many replicas (`shard_cluster` runs G·n of them)
//! pays one I/O thread per replica whatever the mesh size.
//!
//! ## Ownership rules
//!
//! Exactly one thread — the event loop — touches sockets, epoll, the
//! buffer pool, and every per-peer state machine. Other threads
//! interact through two narrow edges only:
//!
//! * outbound: the protocol thread pushes framed bytes into a bounded
//!   drop-oldest [`Lane`] per peer, then rings an eventfd doorbell if
//!   the loop is parked; the loop drains lanes from inside.
//! * inbound: the loop decodes frames and sends them up a crossbeam
//!   channel that `recv_timeout` on the mesh handle reads.
//!
//! That single-owner rule is what lets every socket run nonblocking
//! without locks: there is no state a readiness callback could race.
//!
//! ## Per-peer outbound state machine
//!
//! Idle → Connecting → Up, with Connecting/Up/Down published in the
//! shared [`LinkSupervisor`]. Dials are nonblocking (`SOCK_NONBLOCK` +
//! `EINPROGRESS`, see [`crate::sys`]) with a hard [`DIAL_TIMEOUT`]
//! deadline, and a failed dial backs off exponentially with jitter; a
//! completed dial queues the 8-byte handshake as the first wire item.
//! Inbound connections get a handshake deadline, then framed reads; a
//! fresh handshake from a peer evicts that peer's previous connection,
//! so a peer that reconnects without closing cannot leave its old fd
//! registered.
//!
//! ## How chaos interposes on a nonblocking write path
//!
//! An event loop must never sleep, so chaos delays and throttles are
//! timers: each planned frame carries a release instant, delayed
//! frames sit in a per-peer deferred queue (released in FIFO order — a
//! later frame is never released before an earlier one), throttles set
//! a per-peer mute-until instant, and partitions close the socket and
//! stop draining the lane, so frames wait under the lane's bounded
//! drop-oldest policy. Fault *decisions* come from [`LinkChaos::plan`]
//! in lane order, so the fault sequence for a given `(seed, me, peer)`
//! is fixed by the seed.
//!
//! ## Zero-copy inbound decode
//!
//! Reads land in pooled [`BytesMut`] buffers; each filled buffer is
//! frozen into a ref-counted [`Bytes`] and frames are decoded from
//! cheap slices of it — no per-message `Vec`. A partial frame at the
//! tail is carried (one small copy) into the next pooled buffer, and
//! buffers return to the pool automatically when the last slice
//! drops.

use crate::chaos::{ChaosConfig, ChaosCounters, LinkChaos};
use crate::codec::{encode_frame, WireCodec, MAX_FRAME};
use crate::sys::{
    connect_nonblocking, take_socket_error, ConnectStart, Epoll, EpollEvent, EventFd, EPOLLERR,
    EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::tcp_runtime::{
    parse_handshake, Lane, LinkState, LinkSupervisor, MeshStats, BACKOFF_MAX, BACKOFF_MIN,
    COALESCE_BYTES, DIAL_TIMEOUT, HANDSHAKE_DEADLINE, HEARTBEAT_EVERY, MAGIC,
};
use bytes::{BufPool, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use sintra_adversary::party::PartyId;
use sintra_crypto::rng::SeededRng;
use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsFd, OwnedFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Event-loop tick: the epoll wait timeout, bounding how stale any
/// timer-driven work (redials, heartbeats, deferred chaos releases)
/// can get. Matches the node loops' own 5ms granularity.
const TICK_MS: i32 = 5;

/// Size of each pooled read buffer.
const READ_BUF: usize = 64 * 1024;

/// Pooled read buffers kept for reuse per mesh (beyond this, freed
/// buffers go back to the allocator).
const POOL_KEEP: usize = 64;

/// Bounded grace for flushing still-deliverable frames at shutdown —
/// teardown must not hang on an unreachable peer.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

/// Counters the event loop publishes; the mesh handle reads them at
/// teardown (after joining the loop thread).
#[derive(Default)]
struct SharedStats {
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    handshake_rejects: AtomicU64,
    fds_peak: AtomicU64,
    wakeups: AtomicU64,
    pool_allocations: AtomicU64,
    pool_recycles: AtomicU64,
    /// True while the event loop is (about to be) blocked in
    /// `epoll_wait` with no lane work pending. Producers ring the
    /// doorbell only when they flip this off — a busy loop picks new
    /// frames up on its own sweep, so a hot mesh coalesces sends into
    /// lane batches instead of paying a syscall + wakeup per message.
    parked: AtomicBool,
}

/// One replica's mesh handle: the node loops in
/// [`crate::tcp_runtime`] send, receive and read link state through
/// it while the event loop runs the sockets.
pub(crate) struct ReactorMesh<M> {
    me: PartyId,
    epoch: Instant,
    inbox_tx: Sender<(PartyId, M)>,
    inbox_rx: Receiver<(PartyId, M)>,
    lanes: Vec<Option<Arc<Lane>>>,
    supervisors: Vec<Option<Arc<LinkSupervisor>>>,
    wake: Arc<EventFd>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    outbound_dropped: Arc<AtomicU64>,
    lane_poisoned: Arc<AtomicU64>,
    chaos_counters: Arc<ChaosCounters>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
}

impl<M: WireCodec + Send + 'static> ReactorMesh<M> {
    /// Starts the mesh: sets up epoll + doorbell, registers the
    /// listener, and spawns the single event-loop thread. Returns
    /// immediately; links establish in the background with
    /// retry/backoff while the node already runs.
    pub(crate) fn start(
        me: PartyId,
        addrs: &[SocketAddr],
        listener: TcpListener,
        chaos: Option<&ChaosConfig>,
        queue_bytes: usize,
    ) -> io::Result<ReactorMesh<M>> {
        let n = addrs.len();
        let epoch = Instant::now();
        let (inbox_tx, inbox_rx) = unbounded::<(PartyId, M)>();
        let stats = Arc::new(SharedStats::default());
        let outbound_dropped = Arc::new(AtomicU64::new(0));
        let lane_poisoned = Arc::new(AtomicU64::new(0));
        let chaos_counters = Arc::new(ChaosCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let wake = Arc::new(EventFd::new()?);
        let epoll = Epoll::new()?;
        listener.set_nonblocking(true)?;

        let supervisors: Vec<Option<Arc<LinkSupervisor>>> = (0..n)
            .map(|p| (p != me).then(|| Arc::new(LinkSupervisor::new())))
            .collect();
        let lanes: Vec<Option<Arc<Lane>>> = (0..n)
            .map(|p| {
                (p != me).then(|| {
                    Arc::new(Lane::new(
                        queue_bytes,
                        Arc::clone(&outbound_dropped),
                        Arc::clone(&lane_poisoned),
                    ))
                })
            })
            .collect();

        let mut outs: Vec<Option<OutLink>> = Vec::with_capacity(n);
        for (peer, addr) in addrs.iter().enumerate() {
            if peer == me {
                outs.push(None);
                continue;
            }
            outs.push(Some(OutLink {
                me,
                peer,
                addr: *addr,
                lane: Arc::clone(lanes[peer].as_ref().expect("remote lane")),
                sup: Arc::clone(supervisors[peer].as_ref().expect("remote sup")),
                chaos: chaos.map(|c| LinkChaos::new(c, me, peer, Arc::clone(&chaos_counters))),
                state: OutState::Idle,
                token: None,
                raw: VecDeque::new(),
                deferred: VecDeque::new(),
                wire: VecDeque::new(),
                woff: 0,
                backoff: BACKOFF_MIN,
                next_dial: Instant::now(),
                last_write: Instant::now(),
                throttle_until: Instant::now(),
                // Jitter decorrelates *processes*, not replays: seeded
                // off the pid so survivors of a crash don't redial a
                // restarted replica in lockstep.
                jitter: SeededRng::new(
                    (std::process::id() as u64) << 32 | ((me as u64) << 16) | peer as u64,
                ),
            }));
        }

        let loop_thread = {
            let inbox = inbox_tx.clone();
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let wake = Arc::clone(&wake);
            let supervisors = supervisors.clone();
            std::thread::spawn(move || {
                let mut el = EventLoop::<M> {
                    n,
                    epoch,
                    epoll,
                    wake,
                    listener,
                    slab: Vec::new(),
                    free: Vec::new(),
                    freed: Vec::new(),
                    outs,
                    cur_in: vec![None; n],
                    supervisors,
                    inbox,
                    pool: BufPool::new(READ_BUF, POOL_KEEP),
                    stats,
                    shutdown,
                    live_fds: 0,
                };
                el.run();
            })
        };

        Ok(ReactorMesh {
            me,
            epoch,
            inbox_tx,
            inbox_rx,
            lanes,
            supervisors,
            wake,
            shutdown,
            stats,
            outbound_dropped,
            lane_poisoned,
            chaos_counters,
            loop_thread: Some(loop_thread),
        })
    }

    /// Queues a message. Self-sends short-circuit into the inbox;
    /// remote sends are framed once, pushed into the peer's bounded
    /// lane, and the doorbell wakes the loop. Returns `false` for an
    /// unroutable destination.
    pub(crate) fn send(&self, to: PartyId, msg: M) -> bool {
        if to == self.me {
            return self.inbox_tx.send((self.me, msg)).is_ok();
        }
        let Some(lane) = self.lanes.get(to).and_then(|o| o.as_ref()) else {
            return false;
        };
        match encode_frame(&msg) {
            Some(frame) => {
                let ok = lane.push(frame);
                // Ring only a parked loop (first producer to notice
                // wins the swap); an active loop re-checks the lanes
                // before it parks, so the frame cannot be stranded.
                if ok && self.stats.parked.swap(false, Ordering::SeqCst) {
                    self.wake.ring();
                }
                ok
            }
            None => false, // exceeds MAX_FRAME: refuse at origin
        }
    }

    /// Waits up to `timeout` for the next inbound message.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<(PartyId, M)> {
        self.inbox_rx.recv_timeout(timeout).ok()
    }

    pub(crate) fn epoch(&self) -> Instant {
        self.epoch
    }

    pub(crate) fn supervisors(&self) -> &[Option<Arc<LinkSupervisor>>] {
        &self.supervisors
    }

    /// Flushes and tears down: lanes close, the loop drains what it
    /// can within a bounded grace, every socket closes (peers see
    /// EOF), and the loop thread is joined.
    pub(crate) fn shutdown(mut self) -> MeshStats {
        self.shutdown.store(true, Ordering::Relaxed);
        for lane in self.lanes.iter().flatten() {
            lane.close();
        }
        self.wake.ring();
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
        MeshStats {
            bytes_sent: self.stats.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: self.stats.bytes_recv.load(Ordering::Relaxed),
            handshake_rejects: self.stats.handshake_rejects.load(Ordering::Relaxed),
            outbound_dropped: self.outbound_dropped.load(Ordering::Relaxed),
            lane_poisoned: self.lane_poisoned.load(Ordering::Relaxed),
            chaos: self.chaos_counters.snapshot(),
            fds_peak: self.stats.fds_peak.load(Ordering::Relaxed),
            wakeups: self.stats.wakeups.load(Ordering::Relaxed),
            pool_allocations: self.stats.pool_allocations.load(Ordering::Relaxed),
            pool_recycles: self.stats.pool_recycles.load(Ordering::Relaxed),
        }
    }

    /// The outbound lane toward `peer` (tests inspect and poison it).
    #[cfg(test)]
    pub(crate) fn lane(&self, peer: PartyId) -> &Arc<Lane> {
        self.lanes[peer].as_ref().expect("remote peer")
    }
}

/// One wire item: bytes that must reach the peer contiguously
/// (a frame, the handshake preamble, or a heartbeat). Only `counted`
/// items (data frames) go into `net.tcp_bytes_sent`.
struct WireItem {
    buf: Vec<u8>,
    counted: bool,
}

/// Outbound connection state for one peer.
enum OutState {
    /// No socket; dial when `next_dial` arrives.
    Idle,
    /// Nonblocking connect in flight; fail it at `deadline`.
    Connecting { fd: OwnedFd, deadline: Instant },
    /// Connected; the handshake is (queued to be) written first.
    Up(TcpStream),
}

/// Everything the loop owns for one outbound link.
struct OutLink {
    me: PartyId,
    peer: PartyId,
    addr: SocketAddr,
    lane: Arc<Lane>,
    sup: Arc<LinkSupervisor>,
    chaos: Option<LinkChaos>,
    state: OutState,
    /// Slab token while a socket exists (Connecting or Up).
    token: Option<usize>,
    /// Frames pulled from the lane, not yet rolled through chaos.
    raw: VecDeque<Vec<u8>>,
    /// Chaos-planned frames awaiting their release instant.
    deferred: VecDeque<(Instant, Vec<u8>)>,
    /// Wire items committed to this link, in order; survivors of a
    /// dead connection are retried whole on the next one.
    wire: VecDeque<WireItem>,
    /// Bytes of `wire[0]` already written on the *current* connection.
    woff: usize,
    backoff: Duration,
    next_dial: Instant,
    last_write: Instant,
    throttle_until: Instant,
    jitter: SeededRng,
}

impl OutLink {
    /// Counted (data-frame) bytes not yet on the wire.
    fn has_undelivered(&self) -> bool {
        !self.raw.is_empty() || !self.deferred.is_empty() || self.wire.iter().any(|w| w.counted)
    }
}

/// One accepted inbound connection (handshaking or established).
struct InConn {
    stream: TcpStream,
    /// `None` until the 8-byte preamble parses.
    peer: Option<PartyId>,
    /// Unconsumed tail of the last read (partial frame / preamble).
    tail: Bytes,
    /// Handshake must complete by here or the stray is cut loose.
    deadline: Instant,
}

/// What a slab token points at.
enum Entry {
    Listener,
    Wake,
    /// Outbound socket for this peer (state lives in `outs`).
    Out(PartyId),
    /// Inbound connection.
    In(InConn),
}

/// Outcome of servicing an inbound connection's readiness.
enum ReadVerdict {
    KeepOpen,
    Close,
    /// Close *and* count a handshake reject.
    Reject,
}

/// The single-threaded event loop.
struct EventLoop<M> {
    n: usize,
    epoch: Instant,
    epoll: Epoll,
    wake: Arc<EventFd>,
    listener: TcpListener,
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// Tokens freed while processing the current event batch; merged
    /// into `free` only at the tick boundary, so a stale readiness
    /// record in the same batch can never alias a reused token.
    freed: Vec<usize>,
    outs: Vec<Option<OutLink>>,
    /// Current inbound token per peer (reaping: a fresh handshake
    /// evicts its predecessor).
    cur_in: Vec<Option<usize>>,
    supervisors: Vec<Option<Arc<LinkSupervisor>>>,
    inbox: Sender<(PartyId, M)>,
    pool: BufPool,
    stats: Arc<SharedStats>,
    shutdown: Arc<AtomicBool>,
    live_fds: u64,
}

impl<M: WireCodec + Send + 'static> EventLoop<M> {
    fn run(&mut self) {
        let listener_tok = self.alloc(Entry::Listener);
        let wake_tok = self.alloc(Entry::Wake);
        if self
            .epoll
            .add(self.listener.as_fd(), EPOLLIN, listener_tok as u64)
            .is_err()
        {
            return;
        }
        let wake = Arc::clone(&self.wake);
        if self
            .epoll
            .add(wake.as_fd(), EPOLLIN, wake_tok as u64)
            .is_err()
        {
            return;
        }

        let mut events = [EpollEvent::default(); 64];
        let mut shutdown_at: Option<Instant> = None;
        loop {
            // Park protocol: declare intent to sleep, then re-check
            // the lanes. A producer that pushed before seeing `parked`
            // set is caught by the re-check; one that pushes after
            // sees the flag and rings. Either way no frame waits a
            // full tick while the link could take it.
            let timeout = if self.ingest_ready() {
                0
            } else {
                self.stats.parked.store(true, Ordering::SeqCst);
                if self.ingest_ready() {
                    self.stats.parked.store(false, Ordering::SeqCst);
                    0
                } else {
                    TICK_MS
                }
            };
            let nready = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break,
            };
            self.stats.parked.store(false, Ordering::SeqCst);
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            for ev in &events[..nready] {
                let tok = { ev.token } as usize;
                let bits = { ev.events };
                self.dispatch(tok, bits);
            }

            // Timer-driven maintenance: dials, heartbeats, deferred
            // chaos releases, handshake deadlines, lane draining.
            for peer in 0..self.n {
                self.pump(peer);
            }
            self.expire_handshakes();
            let mut newly_free = std::mem::take(&mut self.freed);
            self.free.append(&mut newly_free);

            if self.shutdown.load(Ordering::Relaxed) {
                let at = *shutdown_at.get_or_insert_with(Instant::now);
                if self.drained() || at.elapsed() >= SHUTDOWN_GRACE {
                    break;
                }
            }
        }
        self.teardown();
    }

    // -- slab ----------------------------------------------------------

    fn alloc(&mut self, entry: Entry) -> usize {
        self.live_fds += 1;
        if self.live_fds > self.stats.fds_peak.load(Ordering::Relaxed) {
            self.stats.fds_peak.store(self.live_fds, Ordering::Relaxed);
        }
        if let Some(tok) = self.free.pop() {
            self.slab[tok] = Some(entry);
            tok
        } else {
            self.slab.push(Some(entry));
            self.slab.len() - 1
        }
    }

    fn release(&mut self, tok: usize) -> Option<Entry> {
        let e = self.slab.get_mut(tok).and_then(Option::take);
        if e.is_some() {
            self.live_fds -= 1;
            self.freed.push(tok);
        }
        e
    }

    // -- event dispatch ------------------------------------------------

    fn dispatch(&mut self, tok: usize, bits: u32) {
        enum Tag {
            Wake,
            Listener,
            In,
            Out(PartyId),
        }
        let tag = match self.slab.get(tok) {
            Some(Some(Entry::Wake)) => Tag::Wake,
            Some(Some(Entry::Listener)) => Tag::Listener,
            Some(Some(Entry::In(_))) => Tag::In,
            Some(Some(Entry::Out(peer))) => Tag::Out(*peer),
            _ => return, // stale token from earlier in the batch
        };
        match tag {
            Tag::Wake => self.wake.drain(),
            Tag::Listener => self.accept_ready(),
            Tag::In => self.in_ready(tok),
            Tag::Out(peer) => self.out_ready(peer, bits),
        }
    }

    /// Accepts until the listener would block; each connection starts
    /// a handshake clock and joins the read set.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let tok = self.alloc(Entry::In(InConn {
                        stream,
                        peer: None,
                        tail: Bytes::new(),
                        deadline: Instant::now() + HANDSHAKE_DEADLINE,
                    }));
                    let added = {
                        let Some(Some(Entry::In(conn))) = self.slab.get(tok) else {
                            unreachable!("just allocated")
                        };
                        self.epoll
                            .add(conn.stream.as_fd(), EPOLLIN | EPOLLRDHUP, tok as u64)
                            .is_ok()
                    };
                    if !added {
                        self.drop_in(tok);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Services a readable inbound connection: pooled reads, handshake
    /// parsing, zero-copy frame decode.
    fn in_ready(&mut self, tok: usize) {
        let mut decoded: Vec<M> = Vec::new();
        let mut traffic = false;
        let mut fresh: Option<PartyId> = None;
        let (verdict, peer) = {
            let Some(Some(Entry::In(conn))) = self.slab.get_mut(tok) else {
                return;
            };
            let v = Self::service_in(
                conn,
                self.n,
                &self.pool,
                &self.stats,
                &mut decoded,
                &mut traffic,
                &mut fresh,
            );
            (v, conn.peer)
        };
        if let Some(p) = fresh {
            // Reap the predecessor: same-peer reconnects must not
            // accumulate connections. SHUT_RD (not a full shutdown)
            // keeps frames already acked into the receive buffer
            // readable until EOF, so draining the old connection now
            // delivers them and then closes it.
            if let Some(old) = self.cur_in[p].replace(tok) {
                if old != tok {
                    if let Some(Some(Entry::In(oc))) = self.slab.get(old) {
                        let _ = oc.stream.shutdown(Shutdown::Read);
                    }
                    self.in_ready(old);
                }
            }
        }
        if let Some(p) = peer {
            if traffic {
                if let Some(Some(sup)) = self.supervisors.get(p) {
                    sup.touch(self.epoch.elapsed());
                }
            }
            // Deliver what decoded even if the connection then died.
            for msg in decoded {
                let _ = self.inbox.send((p, msg));
            }
        }
        match verdict {
            ReadVerdict::KeepOpen => {}
            ReadVerdict::Close => {
                // Dying before the preamble completes is a truncated
                // handshake, and counted as a reject.
                if peer.is_none() && fresh.is_none() {
                    self.stats.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                }
                self.drop_in(tok);
            }
            ReadVerdict::Reject => {
                self.stats.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                self.drop_in(tok);
            }
        }
    }

    /// The borrow-friendly core of [`in_ready`]: drains the socket
    /// into pooled buffers and parses preamble + frames from frozen
    /// slices.
    #[allow(clippy::too_many_arguments)] // internal: split for borrows
    fn service_in(
        conn: &mut InConn,
        n: usize,
        pool: &BufPool,
        stats: &SharedStats,
        decoded: &mut Vec<M>,
        traffic: &mut bool,
        fresh_handshake: &mut Option<PartyId>,
    ) -> ReadVerdict {
        loop {
            let mut chunk: BytesMut = pool.get();
            let start = conn.tail.len();
            chunk.extend_from_slice(&conn.tail);
            // Guarantee real read headroom even when a large partial
            // frame fills the pooled capacity.
            let target = chunk.capacity().max(start + 1024);
            chunk.resize(target, 0);
            let got = match conn.stream.read(&mut chunk[start..]) {
                Ok(0) => return ReadVerdict::Close,
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadVerdict::KeepOpen,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadVerdict::Close,
            };
            chunk.truncate(start + got);
            stats.bytes_recv.fetch_add(got as u64, Ordering::Relaxed);
            let frozen = chunk.freeze();
            let mut off = 0usize;

            if conn.peer.is_none() {
                if frozen.len() < 8 {
                    conn.tail = frozen;
                    continue; // preamble still incomplete
                }
                let mut hs = [0u8; 8];
                hs.copy_from_slice(&frozen[..8]);
                match parse_handshake(&hs, n) {
                    Ok(peer) => {
                        conn.peer = Some(peer);
                        *fresh_handshake = Some(peer);
                        // Handshake bytes are not frame traffic.
                        stats.bytes_recv.fetch_sub(8, Ordering::Relaxed);
                        off = 8;
                    }
                    Err(_) => return ReadVerdict::Reject,
                }
            }

            loop {
                let rest = frozen.len() - off;
                if rest < 4 {
                    break;
                }
                let mut len4 = [0u8; 4];
                len4.copy_from_slice(&frozen[off..off + 4]);
                let len = u32::from_be_bytes(len4) as usize;
                if len == 0 {
                    // Heartbeat: liveness only, nothing to deliver.
                    *traffic = true;
                    off += 4;
                    continue;
                }
                if len > MAX_FRAME {
                    return ReadVerdict::Close;
                }
                if rest < 4 + len {
                    break;
                }
                let body = frozen.slice(off + 4..off + 4 + len);
                match M::decode_exact(&body) {
                    Ok(msg) => {
                        *traffic = true;
                        decoded.push(msg);
                    }
                    Err(_) => return ReadVerdict::Close,
                }
                off += 4 + len;
            }
            conn.tail = frozen.slice(off..);
        }
    }

    /// Tears down one inbound connection by token.
    fn drop_in(&mut self, tok: usize) {
        if let Some(Entry::In(conn)) = self.release(tok) {
            let _ = self.epoll.delete(conn.stream.as_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
            if let Some(peer) = conn.peer {
                if self.cur_in[peer] == Some(tok) {
                    self.cur_in[peer] = None;
                }
            }
        }
    }

    // -- outbound ------------------------------------------------------

    /// Handles readiness on an outbound socket: connect completion or
    /// peer-close detection (writes themselves are pump-driven).
    fn out_ready(&mut self, peer: PartyId, bits: u32) {
        let hup = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
        let Some(mut o) = self.outs.get_mut(peer).and_then(Option::take) else {
            return;
        };
        match &o.state {
            OutState::Connecting { fd, .. } => {
                if bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0 {
                    let ok = !hup && take_socket_error(fd.as_fd()).is_ok();
                    if ok {
                        self.promote(&mut o);
                    } else {
                        self.dial_failed(&mut o);
                    }
                }
            }
            OutState::Up(_) => {
                if hup {
                    self.drop_out_socket(&mut o);
                }
            }
            OutState::Idle => {}
        }
        self.outs[peer] = Some(o);
        self.pump(peer);
    }

    /// The per-peer engine: partitions, lane draining, chaos rolling,
    /// deferred releases, dialing, heartbeats, and the actual writes.
    /// Runs on every tick and after any event touching the peer.
    fn pump(&mut self, peer: PartyId) {
        let Some(mut o) = self.outs.get_mut(peer).and_then(Option::take) else {
            return;
        };
        let shutting_down = self.shutdown.load(Ordering::Relaxed);
        let now = Instant::now();

        // Scheduled partitions: a cut link closes and holds. Frames
        // wait in the bounded lane (drop-oldest under pressure), so
        // healing resumes delivery without unbounded sender memory.
        if o.chaos
            .as_ref()
            .is_some_and(|c| c.cut_at(self.epoch.elapsed()))
        {
            if !matches!(o.state, OutState::Idle) {
                self.drop_out_socket(&mut o);
            }
            self.outs[peer] = Some(o);
            return;
        }

        // Release deferred frames whose instant has come (FIFO).
        Self::release_due(&mut o, now);

        // Pull fresh frames and roll their faults, in lane order.
        let pending: usize = o
            .wire
            .iter()
            .map(|w| w.buf.len())
            .sum::<usize>()
            .saturating_sub(o.woff);
        if o.raw.is_empty() && o.deferred.is_empty() && pending < COALESCE_BYTES {
            let (frames, _) = o.lane.pop_batch(COALESCE_BYTES);
            o.raw.extend(frames);
        }
        let mut reset = false;
        while !reset && !o.raw.is_empty() {
            let f = o.raw.pop_front().expect("checked non-empty");
            match o.chaos.as_mut() {
                Some(c) if c.frame_faults_active() => {
                    let plan = c.plan(f);
                    // A delayed frame is released later; everything
                    // after it queues behind it (FIFO), so the release
                    // floor is the last deferred instant.
                    let floor = o.deferred.back().map_or(now, |(at, _)| *at);
                    let release = plan.delay.map_or(floor, |d| floor.max(now + d));
                    for frame in plan.frames {
                        o.deferred.push_back((release, frame));
                    }
                    reset = plan.reset_first;
                }
                _ => o.wire.push_back(WireItem {
                    buf: f,
                    counted: true,
                }),
            }
        }
        if reset && !matches!(o.state, OutState::Idle) {
            self.drop_out_socket(&mut o);
            o.next_dial = now; // a reset redials promptly, not after backoff
        }
        Self::release_due(&mut o, now);

        // A frame held back for reordering must not starve on an idle
        // link: release it once nothing else is in flight.
        if o.wire.is_empty() && o.raw.is_empty() && o.deferred.is_empty() {
            if let Some(held) = o.chaos.as_mut().and_then(LinkChaos::flush_held) {
                o.wire.push_back(WireItem {
                    buf: held,
                    counted: true,
                });
            }
        }

        // Connection management.
        match &o.state {
            OutState::Idle => {
                if shutting_down && !o.has_undelivered() {
                    // Quiet link at teardown: nothing left to deliver.
                } else if now >= o.next_dial || (shutting_down && o.has_undelivered()) {
                    // Redial even when idle (heartbeats + link-up
                    // probes must resume on a quiet mesh); at shutdown
                    // a final dial gets pending frames out, and its
                    // failure abandons them.
                    self.start_dial(&mut o);
                }
            }
            OutState::Connecting { deadline, .. } => {
                if now >= *deadline {
                    self.dial_failed(&mut o);
                }
            }
            OutState::Up(_) => {}
        }

        // Heartbeat: an idle Up link keeps the peer's staleness
        // detector fed.
        if matches!(o.state, OutState::Up(_))
            && o.wire.is_empty()
            && o.last_write.elapsed() >= HEARTBEAT_EVERY
        {
            o.wire.push_back(WireItem {
                buf: 0u32.to_be_bytes().to_vec(),
                counted: false,
            });
        }

        // Write.
        if matches!(o.state, OutState::Up(_)) && now >= o.throttle_until && !o.wire.is_empty() {
            self.flush(&mut o);
        }
        self.outs[peer] = Some(o);
    }

    /// Moves deferred frames whose release instant has passed onto the
    /// wire queue, preserving order.
    fn release_due(o: &mut OutLink, now: Instant) {
        while o.deferred.front().is_some_and(|(at, _)| *at <= now) {
            let (_, f) = o.deferred.pop_front().expect("checked front");
            o.wire.push_back(WireItem {
                buf: f,
                counted: true,
            });
        }
    }

    /// Starts a nonblocking dial for this peer.
    fn start_dial(&mut self, o: &mut OutLink) {
        o.sup.set(LinkState::Connecting);
        match connect_nonblocking(&o.addr) {
            Ok(ConnectStart::Done(fd)) => {
                let tok = self.alloc(Entry::Out(o.peer));
                o.token = Some(tok);
                if self
                    .epoll
                    .add(fd.as_fd(), EPOLLIN | EPOLLRDHUP, tok as u64)
                    .is_err()
                {
                    o.state = OutState::Connecting {
                        fd,
                        deadline: Instant::now(),
                    };
                    self.dial_failed(o);
                    return;
                }
                o.state = OutState::Connecting {
                    fd,
                    deadline: Instant::now() + DIAL_TIMEOUT,
                };
                self.promote(o);
            }
            Ok(ConnectStart::Pending(fd)) => {
                let tok = self.alloc(Entry::Out(o.peer));
                o.token = Some(tok);
                if self.epoll.add(fd.as_fd(), EPOLLOUT, tok as u64).is_err() {
                    o.state = OutState::Connecting {
                        fd,
                        deadline: Instant::now(),
                    };
                    self.dial_failed(o);
                    return;
                }
                o.state = OutState::Connecting {
                    fd,
                    deadline: Instant::now() + DIAL_TIMEOUT,
                };
            }
            Err(_) => self.dial_failed(o),
        }
    }

    /// A connect completed: promote the fd to a `TcpStream`, switch
    /// interest to reads, queue the handshake preamble first, and mark
    /// the link Up.
    fn promote(&mut self, o: &mut OutLink) {
        let OutState::Connecting { fd, .. } = std::mem::replace(&mut o.state, OutState::Idle)
        else {
            return;
        };
        let tok = o.token.expect("registered at dial");
        let stream = TcpStream::from(fd);
        let _ = stream.set_nodelay(true);
        let _ = self
            .epoll
            .modify(stream.as_fd(), EPOLLIN | EPOLLRDHUP, tok as u64);
        // The 8-byte preamble goes first on every fresh connection; a
        // retried frame follows it, whole.
        o.woff = 0;
        let mut hs = [0u8; 8];
        hs[..4].copy_from_slice(&MAGIC.to_be_bytes());
        hs[4..].copy_from_slice(&(o.me as u32).to_be_bytes());
        o.wire.push_front(WireItem {
            buf: hs.to_vec(),
            counted: false,
        });
        o.state = OutState::Up(stream);
        o.backoff = BACKOFF_MIN;
        o.last_write = Instant::now();
        o.sup.set(LinkState::Up);
        o.sup.up_epochs.fetch_add(1, Ordering::Relaxed);
    }

    /// A dial failed (error, deadline, or registration): back off with
    /// jitter and schedule the next attempt — or, at shutdown, abandon
    /// the undeliverable frames so teardown stays bounded.
    fn dial_failed(&mut self, o: &mut OutLink) {
        self.drop_out_socket(o);
        if self.shutdown.load(Ordering::Relaxed) {
            o.wire.clear();
            o.raw.clear();
            o.deferred.clear();
            o.woff = 0;
            return;
        }
        // Jittered exponential backoff (50%–150% of nominal): lockstep
        // redials from n−1 survivors would hammer a restarting replica
        // in synchronized waves.
        let nominal = o.backoff.as_nanos() as u64;
        let sleep_ns = nominal / 2 + o.jitter.next_below(nominal.max(1));
        o.next_dial = Instant::now() + Duration::from_nanos(sleep_ns);
        o.backoff = (o.backoff * 2).min(BACKOFF_MAX);
    }

    /// Closes this peer's outbound socket (any state) and marks the
    /// link Down. Pending wire items survive for the next connection;
    /// a partially written front item is retransmitted whole (the peer
    /// discarded the partial frame along with the connection).
    fn drop_out_socket(&mut self, o: &mut OutLink) {
        match std::mem::replace(&mut o.state, OutState::Idle) {
            OutState::Idle => {}
            OutState::Connecting { fd, .. } => {
                let _ = self.epoll.delete(fd.as_fd());
                drop(fd);
            }
            OutState::Up(stream) => {
                let _ = self.epoll.delete(stream.as_fd());
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(tok) = o.token.take() {
            self.release(tok);
        }
        o.woff = 0;
        // Drop a leftover handshake item: the next promote() queues a
        // fresh one, and two preambles would desync the peer's framing.
        if o.wire
            .front()
            .is_some_and(|w| !w.counted && w.buf.len() == 8)
        {
            o.wire.pop_front();
        }
        o.sup.set(LinkState::Down);
    }

    /// Writes as much of the wire queue as the socket accepts.
    fn flush(&mut self, o: &mut OutLink) {
        use std::io::IoSlice;
        let mut round_bytes = 0usize;
        let mut dead = false;
        while let OutState::Up(stream) = &mut o.state {
            if o.wire.is_empty() {
                break;
            }
            let wrote = {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(o.wire.len().min(64));
                let mut iter = o.wire.iter();
                let first = iter.next().expect("non-empty");
                slices.push(IoSlice::new(&first.buf[o.woff..]));
                for item in iter.take(63) {
                    slices.push(IoSlice::new(&item.buf));
                }
                match stream.write_vectored(&slices) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            };
            round_bytes += wrote;
            o.last_write = Instant::now();
            let mut left = wrote;
            while left > 0 && !o.wire.is_empty() {
                let remaining = o.wire[0].buf.len() - o.woff;
                if left < remaining {
                    o.woff += left;
                    break;
                }
                left -= remaining;
                let done = o.wire.pop_front().expect("non-empty");
                o.woff = 0;
                if done.counted {
                    self.stats
                        .bytes_sent
                        .fetch_add(done.buf.len() as u64, Ordering::Relaxed);
                }
            }
        }
        if dead {
            self.drop_out_socket(o);
        } else if round_bytes > 0 {
            if let Some(d) = o.chaos.as_ref().and_then(|c| c.throttle_for(round_bytes)) {
                o.throttle_until = Instant::now() + d;
            }
        }
    }

    // -- timers / teardown ---------------------------------------------

    /// Cuts loose inbound connections that never finished their
    /// handshake by the deadline.
    fn expire_handshakes(&mut self) {
        let now = Instant::now();
        let expired: Vec<usize> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(tok, e)| match e {
                Some(Entry::In(c)) if c.peer.is_none() && now >= c.deadline => Some(tok),
                _ => None,
            })
            .collect();
        for tok in expired {
            self.stats.handshake_rejects.fetch_add(1, Ordering::Relaxed);
            self.drop_in(tok);
        }
    }

    /// True when some peer's lane holds frames its link could ingest
    /// right now — the loop skips parking and sweeps again instead.
    /// The gate mirrors `pump`'s pull condition, so a sweep is only
    /// forced when it will actually move frames: a backpressured or
    /// chaos-deferred link waits for its socket event or tick.
    fn ingest_ready(&self) -> bool {
        self.outs.iter().flatten().any(|o| {
            o.raw.is_empty()
                && o.deferred.is_empty()
                && o.wire
                    .iter()
                    .map(|w| w.buf.len())
                    .sum::<usize>()
                    .saturating_sub(o.woff)
                    < COALESCE_BYTES
                && !o.lane.is_empty()
        })
    }

    /// True once every outbound queue is empty: lanes closed+drained,
    /// nothing rolled or deferred, nothing counted half-written.
    fn drained(&mut self) -> bool {
        for o in self.outs.iter_mut().flatten() {
            let (frames, lane_drained) = o.lane.pop_batch(usize::MAX);
            o.raw.extend(frames);
            if !lane_drained || o.has_undelivered() {
                return false;
            }
        }
        true
    }

    /// Final flush + close: held reorder frames go out best-effort,
    /// every socket closes so peers see EOF, supervisors read Down.
    fn teardown(&mut self) {
        for peer in 0..self.n {
            let Some(mut o) = self.outs.get_mut(peer).and_then(Option::take) else {
                continue;
            };
            // A frame held for reordering must not become silent loss
            // at teardown: flush it best-effort on a briefly-blocking
            // socket.
            if let Some(h) = o.chaos.as_mut().and_then(LinkChaos::flush_held) {
                if let OutState::Up(stream) = &mut o.state {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
                    let _ = stream.write_all(&h);
                }
            }
            self.drop_out_socket(&mut o);
            self.outs[peer] = Some(o);
        }
        let toks: Vec<usize> = (0..self.slab.len())
            .filter(|&t| matches!(self.slab[t], Some(Entry::In(_))))
            .collect();
        for tok in toks {
            self.drop_in(tok);
        }
        self.stats
            .pool_allocations
            .store(self.pool.allocations(), Ordering::Relaxed);
        self.stats
            .pool_recycles
            .store(self.pool.recycles(), Ordering::Relaxed);
    }
}
