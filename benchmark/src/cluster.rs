//! The one adapter between the benchmark and the program's runtime.
//!
//! Only this file names the runtime entry points — `dealt_system`,
//! `ReplicaConfig`, `atomic_replicas_with`, `TcpNodeConfig`,
//! `TcpRuntime::Reactor`, `run_tcp_node_driven`, `ReplyCollector` — so a
//! refactor of the runtime zoo (ROADMAP item 2) has one file to port.
//! README lists them as the benchmark's API surface.
//!
//! The system under test is the shipped configuration:
//! `ReplicaConfig::new()` defaults, `KvMachine`, the reactor runtime over
//! loopback TCP with no injected link delay, all replicas in this
//! process. The client's hop to a replica is an in-process channel that
//! the replica's driver closure drains (there is no client wire protocol
//! yet); replies come back over a channel fed from the stop closure.

use crate::host::current_tid;
use crate::trace::{Gate, NodeTrace, Traced};
use sintra::crypto::dealer::{PublicParameters, ServerKeyBundle};
use sintra::net::codec::WireCodec;
use sintra::net::protocol::Context;
use sintra::net::{
    run_tcp_node_driven, Effects, Protocol, TcpNodeConfig, TcpNodeReport, TcpRuntime,
};
use sintra::obs::MetricsSnapshot;
use sintra::protocols::abc::AbcMessage;
use sintra::protocols::common::{digest, Digest, Tag};
use sintra::protocols::pool::PoolStats;
use sintra::rsm::{
    atomic_replicas_with, KvMachine, ReplicaConfig, Reply, ReplyCollector, RsmMessage, RsmNode,
    ServiceReply, StateMachine,
};
use sintra::setup::dealt_system;
use std::cell::Cell;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What replicas say to each other.
pub type WireMsg = RsmMessage<AbcMessage>;

/// A node never gives up on its own; the client ends every run.
const NODE_TIMEOUT: Duration = Duration::from_secs(3600);

/// How long a node keeps forwarding after it is told to stop.
const LINGER: Duration = Duration::from_millis(50);

/// Flight-recorder slots per node in a traced run.
const RECORDER_CAPACITY: usize = 4096;

/// Runs one node of a loopback reactor mesh on the calling thread until
/// `stop` holds. `recorder` switches the program's own counters on.
pub fn run_node<P>(
    me: usize,
    addrs: Vec<SocketAddr>,
    recorder: bool,
    node: P,
    driver: impl FnMut(&mut P, &Context, &mut Effects<P::Message, P::Output>),
    stop: impl Fn(&P, &[P::Output]) -> bool,
) -> (TcpNodeReport<P::Output>, P)
where
    P: Protocol,
    P::Message: WireCodec + Send + 'static,
{
    let mut cfg = TcpNodeConfig::new(me, addrs, NODE_TIMEOUT, LINGER);
    cfg.runtime = TcpRuntime::Reactor;
    cfg.recorder_capacity = recorder.then_some(RECORDER_CAPACITY);
    cfg.bind_retry = Duration::from_secs(5);
    run_tcp_node_driven(&cfg, node, driver, stop).expect("bind loopback listener")
}

/// `n` free loopback addresses. Ports are found by binding port 0 and
/// letting go again; `bind_retry` absorbs the race.
pub fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local address"))
        .collect()
}

/// A loopback address nobody listens on, below the ephemeral range: the
/// kernel never hands such a port to an outgoing connection, so a peer
/// redialling it for a whole run is always refused and can never
/// connect to itself.
fn dead_addr(seed: u64) -> SocketAddr {
    for i in 0..1000 {
        let port = 20_000 + ((seed.wrapping_mul(7919) + i * 13) % 10_000) as u16;
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        if TcpListener::bind(addr).is_ok() {
            return addr;
        }
    }
    panic!("no free port in 20000..30000 for the crashed replica");
}

/// Deals a classical `t`-of-`n` threshold system.
pub fn deal(n: usize, t: usize, seed: u64) -> (PublicParameters, Vec<ServerKeyBundle>) {
    dealt_system(n, t, seed).expect("valid (n, t)")
}

/// The shipped replica configuration over the dealt keys, and the
/// service tag its replies are signed under.
pub fn replicas(
    public: PublicParameters,
    bundles: Vec<ServerKeyBundle>,
    seed: u64,
) -> (Tag, Vec<RsmNode>) {
    let cfg = ReplicaConfig::new().seed(seed);
    let nodes = atomic_replicas_with(&cfg, public, bundles, |_| KvMachine::new());
    (cfg.tag, nodes)
}

/// A replica as the cluster drives it: bare in an untraced run, wrapped
/// in [`Traced`] in a traced one.
pub trait ReplicaNode:
    Protocol<Message = WireMsg, Input = Vec<u8>, Output = Reply> + Send + 'static
{
    fn replica(&self) -> &RsmNode;

    /// Hands the replica a client request that was put on its channel
    /// at `handed`.
    fn submit(
        &mut self,
        ctx: &Context,
        payload: Vec<u8>,
        handed: Instant,
        fx: &mut Effects<WireMsg, Reply>,
    );

    fn into_trace(self) -> Option<NodeTrace>;
}

impl ReplicaNode for RsmNode {
    fn replica(&self) -> &RsmNode {
        self
    }

    fn submit(
        &mut self,
        ctx: &Context,
        payload: Vec<u8>,
        _handed: Instant,
        fx: &mut Effects<WireMsg, Reply>,
    ) {
        self.on_input_ctx(ctx, payload, fx);
    }

    fn into_trace(self) -> Option<NodeTrace> {
        None
    }
}

/// A client request on its way to a replica, and when it was handed off.
type Handoff = (Vec<u8>, Instant);

/// What a replica publishes while it runs, for the client to read.
#[derive(Default)]
struct Progress {
    applied: AtomicU64,
    rounds: AtomicU64,
    recorded: AtomicU64,
    tid: AtomicU32,
}

/// What is left of a replica after the run.
pub struct NodeResult {
    pub me: usize,
    pub applied: u64,
    pub snapshot_digest: Digest,
    /// The program's own counters (empty in an untraced run).
    pub metrics: MetricsSnapshot,
    pub outbound_dropped: u64,
    pub share_fallbacks: u64,
    pub pool: Option<PoolStats>,
    pub trace: Option<NodeTrace>,
}

/// Collects the reply shares of one request until a qualified set of
/// them combines into the service's threshold signature.
pub struct Collector(ReplyCollector);

impl Collector {
    /// Adds one share; invalid and foreign ones are dropped.
    pub fn add(&mut self, reply: Reply) -> bool {
        self.0.add(reply)
    }

    pub fn signed_reply(&self) -> Option<ServiceReply> {
        self.0.signed_reply()
    }
}

/// A running cluster.
pub struct Cluster {
    public: Arc<PublicParameters>,
    tag: Tag,
    inputs: Vec<Option<Sender<Handoff>>>,
    replies: Receiver<Reply>,
    stop: Arc<AtomicBool>,
    progress: Vec<Arc<Progress>>,
    handles: Vec<JoinHandle<NodeResult>>,
}

impl Cluster {
    /// Deals keys, builds the replicas, starts one thread per live
    /// replica and returns without waiting for the mesh: the first
    /// request does that. A `gate` makes the run a traced one.
    pub fn start(
        n: usize,
        t: usize,
        crashed: Option<usize>,
        seed: u64,
        gate: Option<Gate>,
    ) -> Cluster {
        let (public, bundles) = deal(n, t, seed);
        let client_public = Arc::new(public.clone());
        let (tag, replicas) = replicas(public, bundles, seed);

        let mut addrs = free_addrs(n);
        if let Some(dead) = crashed {
            addrs[dead] = dead_addr(seed);
        }
        let (reply_tx, replies) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let mut inputs = Vec::new();
        let mut progress = Vec::new();
        let mut handles = Vec::new();
        for (me, replica) in replicas.into_iter().enumerate() {
            if Some(me) == crashed {
                inputs.push(None);
                continue;
            }
            let (tx, rx) = channel();
            inputs.push(Some(tx));
            let mine = Arc::new(Progress::default());
            progress.push(Arc::clone(&mine));
            let (addrs, reply_tx, stop) = (addrs.clone(), reply_tx.clone(), Arc::clone(&stop));
            let gate = gate.clone();
            let spawn = std::thread::Builder::new().name(format!("replica-{me}"));
            let handle = spawn
                .spawn(move || match gate {
                    None => serve(me, addrs, false, replica, rx, reply_tx, stop, mine),
                    Some(gate) => {
                        let node = Traced::new(replica, gate);
                        serve(me, addrs, true, node, rx, reply_tx, stop, mine)
                    }
                })
                .expect("spawn replica thread");
            handles.push(handle);
        }
        Cluster {
            public: client_public,
            tag,
            inputs,
            replies,
            stop,
            progress,
            handles,
        }
    }

    /// Hands `payload` to replica `target`'s channel.
    pub fn submit(&self, target: usize, payload: Vec<u8>) {
        let tx = self.inputs[target]
            .as_ref()
            .expect("target is a live replica");
        tx.send((payload, Instant::now()))
            .expect("replica thread is running");
    }

    /// Every live replica's `Reply` outputs, as they are emitted.
    pub fn replies(&self) -> &Receiver<Reply> {
        &self.replies
    }

    pub fn collector(&self, payload: &[u8]) -> Collector {
        Collector(ReplyCollector::new(
            self.tag.clone(),
            Arc::clone(&self.public),
            payload,
        ))
    }

    /// Checks a combined reply against the service's one public key, as
    /// a third party would.
    pub fn verify_signed(&self, payload: &[u8], reply: &ServiceReply) -> bool {
        ReplyCollector::verify_signed(&self.public, &self.tag, payload, reply)
    }

    /// Requests each live replica has applied, last time it looked.
    pub fn applied(&self) -> Vec<u64> {
        self.progress
            .iter()
            .map(|p| p.applied.load(Ordering::Relaxed))
            .collect()
    }

    /// Atomic-broadcast rounds completed (the furthest replica).
    pub fn rounds(&self) -> u64 {
        self.progress
            .iter()
            .map(|p| p.rounds.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Flight-recorder events written by all replicas (traced run).
    pub fn recorded(&self) -> u64 {
        self.progress
            .iter()
            .map(|p| p.recorded.load(Ordering::Relaxed))
            .sum()
    }

    /// Kernel thread ids of the replicas' driver threads. Every other
    /// thread of the process that is not the client is a reactor loop.
    pub fn driver_tids(&self) -> Vec<u32> {
        self.progress
            .iter()
            .map(|p| p.tid.load(Ordering::Relaxed))
            .collect()
    }

    /// Stops every replica and waits for its thread.
    pub fn shutdown(self) -> Vec<NodeResult> {
        self.stop.store(true, Ordering::Relaxed);
        self.handles
            .into_iter()
            .map(|h| h.join().expect("replica thread panicked"))
            .collect()
    }
}

#[allow(clippy::too_many_arguments)] // one call site per run mode, all fields distinct
fn serve<P: ReplicaNode>(
    me: usize,
    addrs: Vec<SocketAddr>,
    traced: bool,
    node: P,
    requests: Receiver<Handoff>,
    replies: Sender<Reply>,
    stop: Arc<AtomicBool>,
    progress: Arc<Progress>,
) -> NodeResult {
    progress.tid.store(current_tid(), Ordering::Relaxed);
    let forwarded = Cell::new(0usize);
    let (report, node) = run_node(
        me,
        addrs,
        traced,
        node,
        |node, ctx, fx| {
            while let Ok((payload, handed)) = requests.try_recv() {
                node.submit(ctx, payload, handed, fx);
            }
            if traced {
                progress
                    .recorded
                    .store(ctx.obs.recorded(), Ordering::Relaxed);
            }
        },
        |node, outputs| {
            for reply in &outputs[forwarded.get()..] {
                // The client hangs up once it has what it needs.
                let _ = replies.send(reply.clone());
            }
            forwarded.set(outputs.len());
            let replica = node.replica();
            progress.applied.store(replica.applied(), Ordering::Relaxed);
            progress
                .rounds
                .store(replica.layer().rounds_completed(), Ordering::Relaxed);
            stop.load(Ordering::Relaxed)
        },
    );
    let replica = node.replica();
    let (applied, snapshot_digest) = (replica.applied(), digest(&replica.machine().snapshot()));
    let pool = replica.layer().verify_pool().map(|p| p.stats());
    NodeResult {
        me,
        applied,
        snapshot_digest,
        metrics: report.metrics,
        outbound_dropped: report.outbound_dropped,
        // The fallback counter is per thread: this is the thread that
        // ran the replica.
        share_fallbacks: sintra::obs::global::share_fallback_count(),
        pool,
        trace: node.into_trace(),
    }
}
