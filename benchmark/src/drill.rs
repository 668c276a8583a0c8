//! Layer drills: single-threaded calls into each layer's public
//! functions at a workload's (n, t, batch) shape, reported as the
//! minimum over samples — the cost of the layer alone, with nothing
//! else competing for the processor.
//!
//! The traced run multiplies these unit costs by the counts it sees to
//! say how much of a request's CPU the crypto layer explains.

use crate::cluster::{deal, free_addrs, replicas, run_node, WireMsg};
use crate::stats::percentile;
use crate::workload::{Schedule, Workload};
use crate::Metric;
use sintra::adversary::party::{PartyId, PartySet};
use sintra::crypto::dealer::{PublicParameters, ServerKeyBundle};
use sintra::crypto::group::{generator_table, GroupElement};
use sintra::crypto::rng::SeededRng;
use sintra::crypto::tsig::QuorumRule;
use sintra::net::codec::{CodecError, Reader, WireCodec};
use sintra::net::protocol::Context;
use sintra::net::sim::{Behavior, FifoScheduler, Simulation};
use sintra::net::{Effects, Protocol};
use sintra::protocols::abba::{AbbaMessage, MainVote, MainVoteJust, MainVoteValue};
use sintra::protocols::abc::{abc_nodes, AbcMessage};
use sintra::protocols::mvba::MvbaMessage;
use sintra::rsm::{KvMachine, RsmMessage, StateMachine};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples per drill; the minimum is reported.
const SAMPLES: usize = 5;

/// Nanoseconds per call of `f`: the fastest of [`SAMPLES`] timings of
/// `iters` calls each.
fn min_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(crate::metric(name, value, unit));
}

/// One timed crypto operation with the primitive counters it moves:
/// (ns per call, exponentiations per call, multi-exponentiations per
/// call). The traced run prices its own counter readings with a fit
/// over these.
type Priced = (f64, f64, f64);

/// Times `f` and reads the program's global crypto counters across one
/// extra call of it.
fn priced(iters: usize, mut f: impl FnMut()) -> Priced {
    use sintra::obs::global;
    let ns = min_ns(iters, &mut f);
    let before = global::snapshot();
    global::enable();
    f();
    global::disable();
    let after = global::snapshot();
    let moved = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    (ns, moved("crypto.exp"), moved("crypto.multi_exp"))
}

/// Least-squares cost of one exponentiation and one
/// multi-exponentiation, in ns, from the priced operations: the pair
/// `(a, b)` minimising `Σ (ns − a·exps − b·multi_exps)²`.
fn fit(basket: &[Priced]) -> (f64, f64) {
    let (mut see, mut sem, mut smm, mut set, mut smt) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (t, e, m) in basket {
        see += e * e;
        sem += e * m;
        smm += m * m;
        set += e * t;
        smt += m * t;
    }
    let det = see * smm - sem * sem;
    if det.abs() < f64::EPSILON {
        return (0.0, 0.0);
    }
    (
        ((set * smm - smt * sem) / det).max(0.0),
        ((smt * see - set * sem) / det).max(0.0),
    )
}

fn crypto(
    out: &mut Vec<Metric>,
    public: &PublicParameters,
    bundles: &[ServerKeyBundle],
    t: usize,
) -> (f64, f64) {
    let mut rng = SeededRng::new(11);
    let n = bundles.len();
    let msg = b"drill: a message of typical length for a vote or a reply share";
    let sig = public.signing();
    let key = bundles[0].signing_key();
    // A core quorum, n - t shares: what CBC and ABBA verify and combine.
    let shares: Vec<_> = bundles[..n - t]
        .iter()
        .map(|b| b.signing_key().sign_share(msg, &mut rng))
        .collect();
    let coin = public.coin();
    let coin_key = bundles[0].coin_key();
    // A qualified set, t + 1 shares: what releases a coin.
    let coin_shares: Vec<_> = bundles[..t + 1]
        .iter()
        .map(|b| b.coin_key().share(b"drill-coin", &mut rng))
        .collect();
    let exponent = rng.next_nonzero_scalar();
    let table = generator_table();
    let base = GroupElement::generator().exp(&rng.next_nonzero_scalar());

    let mut basket = Vec::new();
    let mut op = |name: &str, per: usize, p: Priced| {
        push(out, name, p.0 / 1e3 / per as f64, "us");
        basket.push(p);
    };
    op(
        "crypto.sign_share_us",
        1,
        priced(50, || {
            black_box(key.sign_share(black_box(msg), &mut rng));
        }),
    );
    op(
        "crypto.verify_share_us",
        1,
        priced(50, || {
            assert!(sig.verify_share(black_box(msg), &shares[0]));
        }),
    );
    op(
        "crypto.batch_verify_us_per_share",
        shares.len(),
        priced(20, || {
            assert!(sig.verify_shares(black_box(msg), &shares, &mut rng).is_ok());
        }),
    );
    op(
        "crypto.combine_us",
        1,
        priced(50, || {
            black_box(
                sig.combine_preverified(&shares, QuorumRule::Core)
                    .expect("core quorum"),
            );
        }),
    );
    op(
        "crypto.coin_share_us",
        1,
        priced(20, || {
            black_box(coin_key.share(black_box(b"drill-coin"), &mut rng));
        }),
    );
    op(
        "crypto.coin_batch_verify_us_per_share",
        coin_shares.len(),
        priced(10, || {
            assert!(coin
                .verify_shares(b"drill-coin", &coin_shares, &mut rng)
                .is_ok());
        }),
    );
    op(
        "crypto.coin_combine_us",
        1,
        priced(20, || {
            black_box(
                coin.combine_preverified(b"drill-coin", &coin_shares)
                    .expect("qualified set"),
            );
        }),
    );
    op(
        "crypto.exp_fixed_us",
        1,
        priced(200, || {
            black_box(table.exp(black_box(&exponent)));
        }),
    );
    op(
        "crypto.exp_var_us",
        1,
        priced(100, || {
            black_box(base.exp(black_box(&exponent)));
        }),
    );
    fit(&basket)
}

fn adversary(out: &mut Vec<Metric>, public: &PublicParameters, t: usize) {
    let structure = public.structure();
    let n = structure.n();
    let qualified: PartySet = (0..t + 1).collect();
    let strong: PartySet = (0..n - t).collect();
    push(
        out,
        "adversary.is_qualified_ns",
        min_ns(10_000, || {
            assert!(structure.is_qualified(black_box(&qualified)));
        }),
        "ns",
    );
    push(
        out,
        "adversary.is_strong_ns",
        min_ns(10_000, || {
            assert!(structure.is_strong(black_box(&strong)));
        }),
        "ns",
    );
    // A fixed non-threshold structure (the paper's Example 2), the same
    // for every workload: the guard for structure-generalising changes.
    let example2 = sintra::adversary::attributes::example2().expect("example 2 is Q3");
    let everyone = PartySet::full(example2.n());
    push(
        out,
        "adversary.example2_is_qualified_ns",
        min_ns(10_000, || {
            assert!(example2.is_qualified(black_box(&everyone)));
        }),
        "ns",
    );
}

fn apps(out: &mut Vec<Metric>, w: &Workload) {
    let requests: Vec<Vec<u8>> = Schedule::new(5, w).take(4096).map(|r| r.payload).collect();
    let ns = (0..SAMPLES)
        .map(|_| {
            let mut kv = KvMachine::new();
            let t = Instant::now();
            for r in &requests {
                black_box(kv.apply(r));
            }
            t.elapsed().as_nanos() as f64 / requests.len() as f64
        })
        .fold(f64::INFINITY, f64::min);
    push(out, "apps.kv_apply_ns", ns, "ns");
}

/// The two messages the codec drill encodes and decodes: a full
/// 16-payload proposal and an agreement vote with its justification.
fn codec_samples(
    public: &PublicParameters,
    bundles: &[ServerKeyBundle],
    w: &Workload,
) -> [WireMsg; 2] {
    let mut rng = SeededRng::new(13);
    let batch: Vec<Vec<u8>> = Schedule::new(5, w).take(16).map(|r| r.payload).collect();
    let queued = AbcMessage::Queued {
        round: 7,
        batch,
        sig: bundles[0].auth_key().sign(b"drill", &mut rng),
    };
    let shares: Vec<_> = bundles
        .iter()
        .map(|b| b.signing_key().sign_share(b"drill", &mut rng))
        .collect();
    let proof = public
        .signing()
        .combine_preverified(&shares, QuorumRule::Core)
        .expect("all parties form a core quorum");
    let vote = AbcMessage::Mvba {
        round: 7,
        inner: MvbaMessage::Vote {
            election: 0,
            inner: AbbaMessage::MainVote(MainVote {
                round: 1,
                vote: MainVoteValue::One,
                just: MainVoteJust::Value(proof),
                share: shares[0],
            }),
        },
    };
    [RsmMessage::Order(queued), RsmMessage::Order(vote)]
}

fn codec(
    out: &mut Vec<Metric>,
    public: &PublicParameters,
    bundles: &[ServerKeyBundle],
    w: &Workload,
) {
    let msgs = codec_samples(public, bundles, w);
    let encoded: Vec<Vec<u8>> = msgs.iter().map(WireCodec::encode).collect();
    push(
        out,
        "net.codec_encode_ns",
        min_ns(2_000, || {
            for m in &msgs {
                black_box(black_box(m).encode());
            }
        }),
        "ns",
    );
    push(
        out,
        "net.codec_decode_ns",
        min_ns(2_000, || {
            for bytes in &encoded {
                black_box(WireMsg::decode_exact(black_box(bytes)).expect("round trip"));
            }
        }),
        "ns",
    );
}

/// The echo drill's wire message: 256 bytes once encoded.
#[derive(Clone, Debug)]
struct EchoMsg {
    pong: bool,
    seq: u64,
    pad: Vec<u8>,
}

const ECHO_FRAME: usize = 256;

impl WireCodec for EchoMsg {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(self.pong as u8);
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&(self.pad.len() as u32).to_be_bytes());
        buf.extend_from_slice(&self.pad);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EchoMsg {
            pong: r.u8()? != 0,
            seq: r.u64()?,
            pad: r.bytes("echo pad", ECHO_FRAME)?,
        })
    }
}

/// Pings in the round-trip phase and frames in flight in the flood
/// phase.
const ECHO_PINGS: u64 = 300;
const ECHO_FLOOD_WINDOW: u64 = 64;
const ECHO_FLOOD: Duration = Duration::from_millis(400);

/// A bench-owned automaton on the real transport: party 0 pings its
/// peers round-robin, first one frame at a time (round-trip time), then
/// with a window of frames in flight (frames per second); everyone else
/// echoes.
struct Echo {
    me: PartyId,
    n: usize,
    links_up: usize,
    next_seq: u64,
    sent_at: Vec<Instant>,
    rtt_ns: Vec<u64>,
    flood_until: Option<Instant>,
    flood_echoed: u64,
    done: Arc<AtomicBool>,
}

impl Echo {
    fn ping(&mut self, fx: &mut Effects<EchoMsg, ()>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_at.push(Instant::now());
        fx.send(
            1 + (seq as usize % (self.n - 1)),
            EchoMsg {
                pong: false,
                seq,
                pad: vec![0x5a; ECHO_FRAME - 13],
            },
        );
    }
}

impl Protocol for Echo {
    type Message = EchoMsg;
    type Input = ();
    type Output = ();

    fn on_input(&mut self, _: (), _: &mut Effects<EchoMsg, ()>) {}

    fn on_message(&mut self, from: PartyId, msg: EchoMsg, fx: &mut Effects<EchoMsg, ()>) {
        if !msg.pong {
            return fx.send(from, EchoMsg { pong: true, ..msg });
        }
        match self.flood_until {
            None => {
                self.rtt_ns
                    .push(self.sent_at[msg.seq as usize].elapsed().as_nanos() as u64);
                if self.next_seq < ECHO_PINGS {
                    return self.ping(fx);
                }
                self.flood_until = Some(Instant::now() + ECHO_FLOOD);
                for _ in 0..ECHO_FLOOD_WINDOW {
                    self.ping(fx);
                }
            }
            Some(until) if Instant::now() < until => {
                self.flood_echoed += 1;
                self.ping(fx);
            }
            Some(_) => self.done.store(true, Ordering::Relaxed),
        }
    }

    fn on_link_up_ctx(&mut self, _: &Context, _: PartyId, fx: &mut Effects<EchoMsg, ()>) {
        self.links_up += 1;
        if self.me == 0 && self.links_up == self.n - 1 {
            self.ping(fx);
        }
    }
}

fn echo(out: &mut Vec<Metric>, n: usize) {
    let addrs = free_addrs(n);
    let done = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..n)
        .map(|me| {
            let (addrs, done) = (addrs.clone(), Arc::clone(&done));
            std::thread::spawn(move || {
                let node = Echo {
                    me,
                    n,
                    links_up: 0,
                    next_seq: 0,
                    sent_at: Vec::with_capacity(1 << 16),
                    rtt_ns: Vec::with_capacity(ECHO_PINGS as usize),
                    flood_until: None,
                    flood_echoed: 0,
                    done: Arc::clone(&done),
                };
                let stop = |_: &Echo, _: &[()]| done.load(Ordering::Relaxed);
                run_node(me, addrs, false, node, |_, _, _| {}, stop).1
            })
        })
        .collect();
    let mut nodes = handles.into_iter().map(|h| h.join().expect("echo thread"));
    let mut pinger = nodes.next().expect("party 0");
    nodes.for_each(drop);
    pinger.rtt_ns.sort_unstable();
    let rtt = percentile(&pinger.rtt_ns, 0.5).expect("pings were answered");
    push(out, "net.echo_rtt_us_p50", rtt as f64 / 1e3, "us");
    push(
        out,
        "net.echo_frames_per_s",
        pinger.flood_echoed as f64 / ECHO_FLOOD.as_secs_f64(),
        "1/s",
    );
}

/// One simulated run in which every burst of `w.sim_burst` requests is
/// ordered before the next is offered: (ns per request, messages sent).
fn simulate<P: Protocol<Input = Vec<u8>>>(w: &Workload, nodes: Vec<P>) -> (f64, u64) {
    let live = w.live();
    let requests: Vec<Vec<u8>> = Schedule::new(5, w)
        .take(w.sim_bursts * w.sim_burst)
        .map(|r| r.payload)
        .collect();
    let mut builder = Simulation::builder(nodes, FifoScheduler).seed(5);
    if let Some(dead) = w.crashed {
        builder = builder.corrupt(dead, Behavior::Crash);
    }
    let mut sim = builder.build();
    let t = Instant::now();
    for (b, burst) in requests.chunks(w.sim_burst).enumerate() {
        for (i, payload) in burst.iter().enumerate() {
            sim.input(live[(b + i) % live.len()], payload.clone());
        }
        sim.run_until_quiet(u64::MAX);
    }
    let ns = t.elapsed().as_nanos() as f64 / requests.len() as f64;
    (ns, sim.stats().sent)
}

fn simulations(
    out: &mut Vec<Metric>,
    public: &PublicParameters,
    bundles: &[ServerKeyBundle],
    w: &Workload,
) {
    let (mut abc_ns, mut rsm_ns) = (f64::INFINITY, f64::INFINITY);
    let mut counts = None;
    // Ordering layer alone and full replica take turns, so that a slow
    // spell of the host falls on both and their difference stays
    // meaningful.
    for _ in 0..SAMPLES {
        let abc = simulate(w, abc_nodes(public.clone(), bundles.to_vec(), 5));
        let rsm = simulate(w, replicas(public.clone(), bundles.to_vec(), 5).1);
        abc_ns = abc_ns.min(abc.0);
        rsm_ns = rsm_ns.min(rsm.0);
        // One seeded scheduler, no clocks: the counts must repeat.
        let seen = *counts.get_or_insert((abc.1, rsm.1));
        assert_eq!(seen, (abc.1, rsm.1), "simulated message counts varied");
    }
    let requests = (w.sim_bursts * w.sim_burst) as f64;
    push(out, "protocols.sim_cpu_us_per_req", abc_ns / 1e3, "us");
    push(
        out,
        "protocols.sim_msgs_per_req",
        counts.expect("samples ran").0 as f64 / requests,
        "count",
    );
    push(out, "rsm.sim_cpu_us_per_req", rsm_ns / 1e3, "us");
    // Apply, reply signing and checkpoints: what the replica adds to
    // the ordering layer under it.
    push(
        out,
        "rsm.self_cpu_us_per_req",
        (rsm_ns - abc_ns) / 1e3,
        "us",
    );
}

/// What the drills found at one workload's shape.
pub struct Drills {
    pub metrics: Vec<Metric>,
    /// Fitted cost of one counted exponentiation and one counted
    /// multi-exponentiation, in ns.
    pub exp_ns: f64,
    pub multi_exp_ns: f64,
}

/// Every drill at `w`'s shape.
pub fn run(w: &Workload) -> Drills {
    let (public, bundles) = deal(w.n, w.t, 5);
    let mut metrics = Vec::new();
    let (exp_ns, multi_exp_ns) = crypto(&mut metrics, &public, &bundles, w.t);
    adversary(&mut metrics, &public, w.t);
    apps(&mut metrics, w);
    codec(&mut metrics, &public, &bundles, w);
    echo(&mut metrics, w.n);
    simulations(&mut metrics, &public, &bundles, w);
    Drills {
        metrics,
        exp_ns,
        multi_exp_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_the_two_unit_costs() {
        // ns = 7·exps + 40·multi_exps, exactly.
        let basket: Vec<Priced> = [(1.0, 0.0), (0.0, 1.0), (3.0, 2.0), (10.0, 1.0), (2.0, 9.0)]
            .iter()
            .map(|&(e, m)| (7.0 * e + 40.0 * m, e, m))
            .collect();
        let (exp_ns, multi_exp_ns) = fit(&basket);
        assert!((exp_ns - 7.0).abs() < 1e-9, "{exp_ns}");
        assert!((multi_exp_ns - 40.0).abs() < 1e-9, "{multi_exp_ns}");
        // Nothing to fit from: no cost, not a division by zero.
        assert_eq!(fit(&[]), (0.0, 0.0));
        assert_eq!(fit(&[(5.0, 1.0, 0.0)]), (0.0, 0.0));
    }

    #[test]
    fn echo_frames_are_256_bytes_and_round_trip() {
        let msg = EchoMsg {
            pong: true,
            seq: 77,
            pad: vec![0x5a; ECHO_FRAME - 13],
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), ECHO_FRAME);
        let back = EchoMsg::decode_exact(&bytes).unwrap();
        assert!(back.pong && back.seq == 77 && back.pad == msg.pad);
    }
}
