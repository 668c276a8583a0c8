//! The traced run's instruments, all outside the program: a wrapper
//! around each replica that times every hook call and classifies what
//! goes in and out, and the span file written when the run ends.
//!
//! Nothing here runs in an untraced run; end-to-end metrics are never
//! taken from a traced one.

use crate::cluster::{ReplicaNode, WireMsg};
use crate::host::{ns_since, thread_cpu_ns};
use sintra::adversary::party::PartyId;
use sintra::net::codec::WireCodec;
use sintra::net::protocol::Context;
use sintra::net::{Effects, Protocol};
use sintra::protocols::abba::AbbaMessage;
use sintra::protocols::abc::AbcMessage;
use sintra::protocols::cbc::CbcMessage;
use sintra::protocols::common::{digest, Digest};
use sintra::protocols::mvba::MvbaMessage;
use sintra::protocols::wire::WireSize;
use sintra::rsm::{Reply, RsmMessage, RsmNode};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Bytes the transport puts in front of every encoded message.
const FRAME_HEADER: usize = 4;

/// What a wire message is, one level below the enum nesting
/// `RsmMessage` → `AbcMessage` → `MvbaMessage` → `CbcMessage` /
/// `AbbaMessage`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Push,
    Queued,
    CbcSend,
    CbcEcho,
    CbcFinal,
    PreVote,
    MainVote,
    Coin,
    Decided,
    ElectCoin,
    CkptShare,
    /// State transfer; no workload triggers it, so it is counted but
    /// has no metric of its own.
    FetchState,
    State,
}

impl Kind {
    pub const COUNT: usize = 13;

    /// The kinds that have per-layer metrics, in ledger order.
    pub const REPORTED: [Kind; 11] = [
        Kind::Push,
        Kind::Queued,
        Kind::CbcSend,
        Kind::CbcEcho,
        Kind::CbcFinal,
        Kind::PreVote,
        Kind::MainVote,
        Kind::Coin,
        Kind::Decided,
        Kind::ElectCoin,
        Kind::CkptShare,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Push => "push",
            Kind::Queued => "queued",
            Kind::CbcSend => "cbc_send",
            Kind::CbcEcho => "cbc_echo",
            Kind::CbcFinal => "cbc_final",
            Kind::PreVote => "pre_vote",
            Kind::MainVote => "main_vote",
            Kind::Coin => "coin",
            Kind::Decided => "decided",
            Kind::ElectCoin => "elect_coin",
            Kind::CkptShare => "ckpt_share",
            Kind::FetchState => "fetch_state",
            Kind::State => "state",
        }
    }
}

/// No round / no request in a span.
pub const NONE: u64 = u64::MAX;

/// The kind of `msg` and the atomic-broadcast round it belongs to
/// ([`NONE`] when it carries none).
pub fn classify(msg: &WireMsg) -> (Kind, u64) {
    match msg {
        RsmMessage::Order(AbcMessage::Push(_)) => (Kind::Push, NONE),
        RsmMessage::Order(AbcMessage::Queued { round, .. }) => (Kind::Queued, *round),
        RsmMessage::Order(AbcMessage::Mvba { round, inner }) => {
            let kind = match inner {
                MvbaMessage::Proposal { inner, .. } => match inner {
                    CbcMessage::Send(_) => Kind::CbcSend,
                    CbcMessage::Echo(_) => Kind::CbcEcho,
                    CbcMessage::Final(_, _) => Kind::CbcFinal,
                },
                MvbaMessage::ElectCoin { .. } => Kind::ElectCoin,
                MvbaMessage::Vote { inner, .. } => match inner {
                    AbbaMessage::PreVote(_) => Kind::PreVote,
                    AbbaMessage::MainVote(_) => Kind::MainVote,
                    AbbaMessage::Coin { .. } => Kind::Coin,
                    AbbaMessage::Decided { .. } => Kind::Decided,
                },
            };
            (kind, *round)
        }
        RsmMessage::CkptShare { round, .. } => (Kind::CkptShare, *round),
        RsmMessage::FetchState { .. } => (Kind::FetchState, NONE),
        RsmMessage::State { round, .. } => (Kind::State, *round),
    }
}

/// Encoded length of `msg` without the frame header.
pub fn wire_bytes(msg: &WireMsg) -> usize {
    match msg {
        RsmMessage::Order(m) => 1 + m.wire_size(),
        RsmMessage::CkptShare { share, .. } => 1 + 8 + 8 + 32 + share.size_bytes(),
        RsmMessage::FetchState { .. } => 1 + 8,
        RsmMessage::State { .. } => msg.encode().len(),
    }
}

/// First eight bytes of a request digest: the id that ties a request's
/// spans together across the client and all replicas.
pub fn req_id(request: &Digest) -> u64 {
    u64::from_be_bytes(request[..8].try_into().expect("8 bytes"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// A request sat in the replica's channel: hand-off by the client
    /// → `on_input_ctx` entered.
    InjectWait,
    /// `on_input_ctx`.
    Input,
    /// `on_message_ctx`.
    Message,
    /// `on_tick_ctx`.
    Tick,
    /// `on_link_up_ctx`.
    LinkUp,
    /// A `Reply` left the replica (an instant, not an interval).
    Reply,
    /// Client: request due (or sent, closed loop) → qualified reply.
    Request,
    /// Client: one `ReplyCollector::add` + `signed_reply` call; nested
    /// in the request's span.
    Collect,
}

impl SpanName {
    fn name(self) -> &'static str {
        match self {
            SpanName::InjectWait => "replica.inject_wait",
            SpanName::Input => "replica.on_input",
            SpanName::Message => "replica.on_message",
            SpanName::Tick => "replica.on_tick",
            SpanName::LinkUp => "replica.on_link_up",
            SpanName::Reply => "replica.reply",
            SpanName::Request => "client.request",
            SpanName::Collect => "client.collect",
        }
    }
}

/// Node id of client-side spans.
pub const CLIENT: u8 = u8::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: SpanName,
    pub node: u8,
    pub kind: Option<Kind>,
    pub round: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU the calling thread consumed between start and end.
    pub cpu_ns: u64,
}

/// Switches span recording on for the measured window only; shared by
/// the client and every wrapper.
#[derive(Clone, Debug)]
pub struct Gate {
    /// 0 while closed, else the number of the window being recorded. A
    /// window can be void and measured again; the number tells a wrapper
    /// to forget what it recorded for the void one.
    window: Arc<AtomicU64>,
    opened: Arc<AtomicU64>,
    /// Zero of every span's clock.
    pub epoch: Instant,
}

impl Gate {
    pub fn new(epoch: Instant) -> Gate {
        Gate {
            window: Arc::new(AtomicU64::new(0)),
            opened: Arc::new(AtomicU64::new(0)),
            epoch,
        }
    }

    pub fn open(&self) {
        let number = self.opened.fetch_add(1, Ordering::Relaxed) + 1;
        self.window.store(number, Ordering::Relaxed);
    }

    pub fn close(&self) {
        self.window.store(0, Ordering::Relaxed);
    }

    /// The window being recorded, if one is open.
    pub fn window(&self) -> Option<u64> {
        match self.window.load(Ordering::Relaxed) {
            0 => None,
            number => Some(number),
        }
    }
}

/// Spans kept per thread are pre-sized so that recording one is a push
/// into spare capacity.
const SPAN_CAPACITY: usize = 1 << 18;

/// What one wrapped replica recorded during the window.
#[derive(Debug)]
pub struct NodeTrace {
    /// The window these records belong to.
    window: u64,
    pub spans: Vec<Span>,
    /// Messages the replica emitted, by kind: (count, encoded bytes),
    /// self-addressed ones included.
    pub sent: [(u64, u64); Kind::COUNT],
    /// Of those, what went to other parties over TCP.
    pub remote_frames: u64,
    pub remote_bytes: u64,
}

/// A replica wrapped for the traced run: delegates every `Protocol`
/// hook, times the call, and counts and sizes the sends it finds in
/// `Effects`.
pub struct Traced {
    inner: RsmNode,
    me: PartyId,
    gate: Gate,
    trace: NodeTrace,
}

type Fx = Effects<WireMsg, Reply>;

impl Traced {
    pub fn new(inner: RsmNode, gate: Gate) -> Traced {
        Traced {
            me: inner.party(),
            inner,
            gate,
            trace: NodeTrace {
                window: 0,
                spans: Vec::with_capacity(SPAN_CAPACITY),
                sent: [(0, 0); Kind::COUNT],
                remote_frames: 0,
                remote_bytes: 0,
            },
        }
    }

    /// Whether to record now; forgets a void window's records when a
    /// new window has opened.
    fn recording(&mut self) -> bool {
        let Some(window) = self.gate.window() else {
            return false;
        };
        if self.trace.window != window {
            self.trace.window = window;
            self.trace.spans.clear();
            self.trace.sent = [(0, 0); Kind::COUNT];
            self.trace.remote_frames = 0;
            self.trace.remote_bytes = 0;
        }
        true
    }

    fn spanned(
        &mut self,
        name: SpanName,
        kind: Option<Kind>,
        round: u64,
        req: u64,
        fx: &mut Fx,
        call: impl FnOnce(&mut RsmNode, &mut Fx),
    ) {
        let (s0, o0) = (fx.sends().len(), fx.outputs().len());
        let start = Instant::now();
        let cpu0 = thread_cpu_ns();
        call(&mut self.inner, fx);
        let cpu_ns = thread_cpu_ns() - cpu0;
        let end_ns = ns_since(self.gate.epoch, Instant::now());
        let node = self.me as u8;
        self.trace.spans.push(Span {
            name,
            node,
            kind,
            round,
            req,
            start_ns: ns_since(self.gate.epoch, start),
            end_ns,
            cpu_ns,
        });
        for (to, msg) in &fx.sends()[s0..] {
            let (k, _) = classify(msg);
            let bytes = wire_bytes(msg) as u64;
            let slot = &mut self.trace.sent[k as usize];
            slot.0 += 1;
            slot.1 += bytes;
            if *to != self.me {
                self.trace.remote_frames += 1;
                self.trace.remote_bytes += bytes + FRAME_HEADER as u64;
            }
        }
        for reply in &fx.outputs()[o0..] {
            // The round being handled when the reply left is the round
            // that ordered the request.
            self.trace.spans.push(Span {
                name: SpanName::Reply,
                node,
                kind: None,
                round,
                req: req_id(&reply.request),
                start_ns: end_ns,
                end_ns,
                cpu_ns: 0,
            });
        }
    }
}

impl Protocol for Traced {
    type Message = WireMsg;
    type Input = Vec<u8>;
    type Output = Reply;

    fn on_input(&mut self, input: Vec<u8>, fx: &mut Fx) {
        self.inner.on_input(input, fx);
    }

    fn on_message(&mut self, from: PartyId, msg: WireMsg, fx: &mut Fx) {
        self.inner.on_message(from, msg, fx);
    }

    fn on_tick(&mut self, fx: &mut Fx) {
        self.inner.on_tick(fx);
    }

    fn on_input_ctx(&mut self, ctx: &Context, input: Vec<u8>, fx: &mut Fx) {
        self.submit(ctx, input, Instant::now(), fx);
    }

    fn on_message_ctx(&mut self, ctx: &Context, from: PartyId, msg: WireMsg, fx: &mut Fx) {
        if !self.recording() {
            return self.inner.on_message_ctx(ctx, from, msg, fx);
        }
        let (kind, round) = classify(&msg);
        self.spanned(
            SpanName::Message,
            Some(kind),
            round,
            NONE,
            fx,
            |inner, fx| inner.on_message_ctx(ctx, from, msg, fx),
        );
    }

    fn on_tick_ctx(&mut self, ctx: &Context, fx: &mut Fx) {
        if !self.recording() {
            return self.inner.on_tick_ctx(ctx, fx);
        }
        self.spanned(SpanName::Tick, None, NONE, NONE, fx, |inner, fx| {
            inner.on_tick_ctx(ctx, fx)
        });
    }

    fn on_link_up_ctx(&mut self, ctx: &Context, peer: PartyId, fx: &mut Fx) {
        if !self.recording() {
            return self.inner.on_link_up_ctx(ctx, peer, fx);
        }
        self.spanned(SpanName::LinkUp, None, NONE, NONE, fx, |inner, fx| {
            inner.on_link_up_ctx(ctx, peer, fx)
        });
    }
}

impl ReplicaNode for Traced {
    fn replica(&self) -> &RsmNode {
        &self.inner
    }

    fn submit(&mut self, ctx: &Context, payload: Vec<u8>, handed: Instant, fx: &mut Fx) {
        if !self.recording() {
            return self.inner.on_input_ctx(ctx, payload, fx);
        }
        let req = req_id(&digest(&payload));
        self.trace.spans.push(Span {
            name: SpanName::InjectWait,
            node: self.me as u8,
            kind: None,
            round: NONE,
            req,
            start_ns: ns_since(self.gate.epoch, handed),
            end_ns: ns_since(self.gate.epoch, Instant::now()),
            cpu_ns: 0,
        });
        self.spanned(SpanName::Input, None, NONE, req, fx, |inner, fx| {
            inner.on_input_ctx(ctx, payload, fx)
        });
    }

    fn into_trace(self) -> Option<NodeTrace> {
        Some(self.trace)
    }
}

fn opt(v: u64) -> String {
    if v == NONE {
        "null".into()
    } else {
        v.to_string()
    }
}

/// Writes every span as one JSON object per line inside a `spans`
/// array, after the host header. Returns how many it wrote.
pub fn write_file<'a>(
    path: &std::path::Path,
    header: &str,
    spans: impl Iterator<Item = &'a Span>,
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"host\": {header},\n\"spans\": [")?;
    let mut written = 0;
    for s in spans {
        let node = if s.node == CLIENT {
            "\"client\"".to_string()
        } else {
            s.node.to_string()
        };
        let kind = s
            .kind
            .map_or("null".to_string(), |k| format!("\"{}\"", k.name()));
        let req = if s.req == NONE {
            "null".to_string()
        } else {
            format!("\"{:016x}\"", s.req)
        };
        write!(
            out,
            "{}\n{{\"name\": \"{}\", \"node\": {node}, \"kind\": {kind}, \"round\": {}, \
             \"req\": {req}, \"start_ns\": {}, \"end_ns\": {}, \"cpu_ns\": {}}}",
            if written == 0 { "" } else { "," },
            s.name.name(),
            opt(s.round),
            s.start_ns,
            s.end_ns,
            s.cpu_ns,
        )?;
        written += 1;
    }
    writeln!(out, "\n]}}")?;
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra::crypto::rng::SeededRng;
    use sintra::protocols::abba::{MainVote, MainVoteJust, PreVote, PreVoteJust};

    /// One message of every variant of every nested enum. Building the
    /// list with exhaustive `match`es below means a new variant fails to
    /// compile here until the classifier (and this list) covers it.
    fn one_of_each() -> Vec<(WireMsg, Kind)> {
        let (public, bundles) = crate::cluster::deal(4, 1, 1);
        let mut rng = SeededRng::new(1);
        let share = bundles[0].signing_key().sign_share(b"m", &mut rng);
        let tsig = {
            let shares: Vec<_> = bundles
                .iter()
                .map(|b| b.signing_key().sign_share(b"m", &mut rng))
                .collect();
            public
                .signing()
                .combine(b"m", &shares, sintra::crypto::tsig::QuorumRule::Qualified)
                .unwrap()
        };
        let coin = bundles[0].coin_key().share(b"c", &mut rng);
        let sig = bundles[0].auth_key().sign(b"q", &mut rng);
        let mvba = |inner| RsmMessage::Order(AbcMessage::Mvba { round: 9, inner });
        let cbc = |inner| mvba(MvbaMessage::Proposal { proposer: 1, inner });
        let vote = |inner| mvba(MvbaMessage::Vote { election: 0, inner });
        vec![
            (RsmMessage::Order(AbcMessage::Push(vec![1])), Kind::Push),
            (
                RsmMessage::Order(AbcMessage::Queued {
                    round: 9,
                    batch: vec![vec![1]],
                    sig,
                }),
                Kind::Queued,
            ),
            (cbc(CbcMessage::Send(vec![1])), Kind::CbcSend),
            (cbc(CbcMessage::Echo(share)), Kind::CbcEcho),
            (
                cbc(CbcMessage::Final(vec![1], tsig.clone())),
                Kind::CbcFinal,
            ),
            (
                mvba(MvbaMessage::ElectCoin {
                    election: 0,
                    share: coin.clone(),
                }),
                Kind::ElectCoin,
            ),
            (
                vote(AbbaMessage::PreVote(PreVote {
                    round: 1,
                    value: true,
                    just: PreVoteJust::FirstRound(None),
                    share,
                })),
                Kind::PreVote,
            ),
            (
                vote(AbbaMessage::MainVote(MainVote {
                    round: 1,
                    vote: sintra::protocols::abba::MainVoteValue::One,
                    just: MainVoteJust::Value(tsig.clone()),
                    share,
                })),
                Kind::MainVote,
            ),
            (
                vote(AbbaMessage::Coin {
                    round: 1,
                    share: coin,
                }),
                Kind::Coin,
            ),
            (
                vote(AbbaMessage::Decided {
                    round: 1,
                    value: true,
                    proof: tsig.clone(),
                }),
                Kind::Decided,
            ),
            (
                RsmMessage::CkptShare {
                    seq: 1,
                    round: 9,
                    digest: [0; 32],
                    share,
                },
                Kind::CkptShare,
            ),
            (RsmMessage::FetchState { have_seq: 0 }, Kind::FetchState),
            (
                RsmMessage::State {
                    seq: 1,
                    round: 9,
                    next_round: 10,
                    snapshot: vec![],
                    dedup: vec![],
                    cert: tsig,
                    tail: vec![],
                },
                Kind::State,
            ),
        ]
    }

    /// Exhaustive over every enum the classifier descends through: a
    /// variant added to any of them stops this from compiling.
    fn variant_index(msg: &WireMsg) -> usize {
        match msg {
            RsmMessage::Order(abc) => match abc {
                AbcMessage::Push(_) => 0,
                AbcMessage::Queued { .. } => 1,
                AbcMessage::Mvba { inner, .. } => match inner {
                    MvbaMessage::Proposal { inner, .. } => match inner {
                        CbcMessage::Send(_) => 2,
                        CbcMessage::Echo(_) => 3,
                        CbcMessage::Final(_, _) => 4,
                    },
                    MvbaMessage::ElectCoin { .. } => 5,
                    MvbaMessage::Vote { inner, .. } => match inner {
                        AbbaMessage::PreVote(_) => 6,
                        AbbaMessage::MainVote(_) => 7,
                        AbbaMessage::Coin { .. } => 8,
                        AbbaMessage::Decided { .. } => 9,
                    },
                },
            },
            RsmMessage::CkptShare { .. } => 10,
            RsmMessage::FetchState { .. } => 11,
            RsmMessage::State { .. } => 12,
        }
    }

    #[test]
    fn classifier_covers_every_variant_of_every_nested_enum() {
        let all = one_of_each();
        let mut seen = [false; Kind::COUNT];
        for (msg, want) in &all {
            let (kind, round) = classify(msg);
            assert_eq!(kind, *want, "{msg:?}");
            seen[variant_index(msg)] = true;
            let has_round = !matches!(kind, Kind::Push | Kind::FetchState);
            assert_eq!(round != NONE, has_round, "{kind:?}");
            if has_round {
                assert_eq!(round, 9);
            }
        }
        assert!(seen.iter().all(|s| *s), "a variant has no sample message");
        // Every kind has a distinct, metric-safe name.
        let names: std::collections::HashSet<_> = all.iter().map(|(_, k)| k.name()).collect();
        assert_eq!(names.len(), Kind::COUNT);
    }

    #[test]
    fn wire_bytes_is_the_encoded_length() {
        for (msg, _) in one_of_each() {
            assert_eq!(wire_bytes(&msg), msg.encode().len(), "{msg:?}");
        }
    }
}
