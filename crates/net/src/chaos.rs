//! Deterministic link-fault injection for the TCP runtime.
//!
//! The simulator's schedulers ([`crate::sim`]) and fault behaviors
//! ([`crate::faults`]) realize the paper's "network is the adversary"
//! model (§2.2) inside one process. This module carries the same
//! vocabulary onto real sockets: a [`ChaosConfig`] attached to a
//! [`TcpNodeConfig`](crate::tcp_runtime::TcpNodeConfig) interposes on
//! every outbound link of that node and — driven by a seeded generator,
//! so a schedule replays from its seed — drops, delays, reorders,
//! throttles, garbles, or resets frames, and cuts scheduled partitions.
//!
//! ## Fault semantics
//!
//! Faults are applied on the *sender* side of each unidirectional link,
//! frame by frame, in queue order; because the per-link generator is
//! consulted once per frame in that order, the fault sequence for a
//! given `(seed, me, peer)` triple is deterministic even though frame
//! *timing* under real threads is not.
//!
//! * **Drop** destroys a frame outright. Like the simulator's
//!   [`LossyScheduler`](crate::sim::LossyScheduler) it is budgeted:
//!   eventual delivery between honest parties is an assumption the
//!   protocols are allowed to make, so an unbounded dropper is not an
//!   admissible adversary for liveness claims.
//! * **Garble** flips one byte of the frame body. The receiver's codec
//!   rejects the frame and kills the connection, so a garble exercises
//!   both the decode hardening and the reconnect path. Budgeted, like
//!   drops (a garbled frame is a lost frame plus a teardown).
//! * **Reset** closes the connection *before* the frame is written; the
//!   frame survives and is retransmitted after redial. Unbudgeted —
//!   resets cost latency, not delivery.
//! * **Delay** holds the frame back a bounded random interval, modeling
//!   a slow link; **throttle** bounds the link's bytes/ms after every
//!   write. Both reorder nothing by themselves.
//! * **Reorder** holds a frame back and releases it after the next
//!   frame passes — a genuine inversion on the wire, not just jitter.
//! * **Partitions** ([`Partition`]) cut links crossing a group boundary
//!   for a wall-clock window. A cut link *blocks* (frames wait in the
//!   sender's bounded queue) rather than drops, mirroring the
//!   simulator's [`PartitionScheduler`](crate::sim::PartitionScheduler)
//!   whose withheld messages deliver after `heal_at`. Under memory
//!   pressure the bounded queue still drops oldest, so a long partition
//!   degrades gracefully instead of pinning the sender's memory.

use sintra_adversary::party::PartyId;
use sintra_crypto::rng::SeededRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-link fault probabilities and budgets. Probabilities are in
/// per-mille (‰, 0..=1000) so light fault rates stay expressible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkFaults {
    /// Chance ‰ that a frame is destroyed (while budget remains).
    pub drop_per_mille: u32,
    /// Most frames this link may destroy (liveness bound).
    pub drop_budget: u64,
    /// Chance ‰ that one byte of a frame is flipped (while budget
    /// remains).
    pub garble_per_mille: u32,
    /// Most frames this link may garble.
    pub garble_budget: u64,
    /// Chance ‰ that the connection is torn down before a frame (the
    /// frame itself survives and is resent after redial).
    pub reset_per_mille: u32,
    /// Chance ‰ that a frame is delayed.
    pub delay_per_mille: u32,
    /// Delay bounds (inclusive min, exclusive max) in milliseconds.
    pub delay_ms: (u64, u64),
    /// Chance ‰ that a frame is held back past its successor.
    pub reorder_per_mille: u32,
    /// Link rate cap in bytes per millisecond; 0 means uncapped.
    pub throttle_bytes_per_ms: u64,
}

impl LinkFaults {
    /// A fault-free link (the default for links without an override).
    pub fn none() -> LinkFaults {
        LinkFaults {
            drop_per_mille: 0,
            drop_budget: 0,
            garble_per_mille: 0,
            garble_budget: 0,
            reset_per_mille: 0,
            delay_per_mille: 0,
            delay_ms: (0, 1),
            reorder_per_mille: 0,
            throttle_bytes_per_ms: 0,
        }
    }

    /// Whether every fault is off (lets the runtime keep its fast
    /// path — frame coalescing — on clean links).
    pub fn is_none(&self) -> bool {
        *self == LinkFaults::none()
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::none()
    }
}

/// A scheduled split: links crossing the `group` boundary are cut for
/// `[start, end)` measured from the mesh's start instant.
#[derive(Clone, Debug)]
pub struct Partition {
    /// One side of the split (parties not listed form the other side).
    pub group: Vec<PartyId>,
    /// Window start, relative to mesh start.
    pub start: Duration,
    /// Window end, relative to mesh start.
    pub end: Duration,
}

impl Partition {
    /// Whether the `a → b` link crosses this partition's cut.
    pub fn cuts(&self, a: PartyId, b: PartyId) -> bool {
        self.group.contains(&a) != self.group.contains(&b)
    }
}

/// A node's chaos schedule: a seed, a default fault profile, per-link
/// overrides, and scheduled partitions.
#[derive(Clone, Debug, Default)]
pub struct ChaosConfig {
    /// Master seed; each link forks a generator from it, so the same
    /// `(seed, me, peer)` always yields the same fault sequence.
    pub seed: u64,
    /// Faults applied to every outbound link without an override.
    pub default: LinkFaults,
    /// Per-link overrides, keyed by `(sender, receiver)`.
    pub links: Vec<((PartyId, PartyId), LinkFaults)>,
    /// Scheduled partitions (any number; windows may overlap).
    pub partitions: Vec<Partition>,
}

impl ChaosConfig {
    /// The fault profile for the `me → peer` link.
    pub fn faults_for(&self, me: PartyId, peer: PartyId) -> LinkFaults {
        self.links
            .iter()
            .find(|((a, b), _)| *a == me && *b == peer)
            .map(|(_, f)| f.clone())
            .unwrap_or_else(|| self.default.clone())
    }
}

/// Counters shared by all of one node's link interposers, folded into
/// the node's metrics at mesh teardown.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Frames destroyed by drop faults.
    pub dropped: AtomicU64,
    /// Frames corrupted by garble faults.
    pub garbled: AtomicU64,
    /// Connections torn down by reset faults.
    pub resets: AtomicU64,
    /// Frames delayed.
    pub delayed: AtomicU64,
    /// Frames released out of order.
    pub reordered: AtomicU64,
}

impl ChaosCounters {
    /// Relaxed reads of all counters: (dropped, garbled, resets,
    /// delayed, reordered).
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.dropped.load(Ordering::Relaxed),
            self.garbled.load(Ordering::Relaxed),
            self.resets.load(Ordering::Relaxed),
            self.delayed.load(Ordering::Relaxed),
            self.reordered.load(Ordering::Relaxed),
        )
    }
}

/// What the link must do with one queued frame after the interposer
/// rolled its faults: optionally tear the connection down first, wait
/// `delay`, then write `frames` in order (empty if the frame was
/// dropped or held for reordering).
#[derive(Debug)]
pub struct FramePlan {
    /// Close the current connection (and redial) before writing.
    pub reset_first: bool,
    /// Sleep this long before writing (link latency).
    pub delay: Option<Duration>,
    /// Frames to put on the wire, in order.
    pub frames: Vec<Vec<u8>>,
}

/// The per-link interposer: owns the link's seeded generator, fault
/// budgets, and reorder slot. Owned by the event loop — decisions
/// are drawn per frame in queue order, which makes the fault sequence
/// a pure function of `(seed, me, peer)`.
#[derive(Debug)]
pub struct LinkChaos {
    faults: LinkFaults,
    partitions: Vec<Partition>,
    me: PartyId,
    peer: PartyId,
    rng: SeededRng,
    drops_left: u64,
    garbles_left: u64,
    held: Option<Vec<u8>>,
    counters: Arc<ChaosCounters>,
}

impl LinkChaos {
    /// Builds the interposer for the `me → peer` link.
    pub fn new(
        cfg: &ChaosConfig,
        me: PartyId,
        peer: PartyId,
        counters: Arc<ChaosCounters>,
    ) -> Self {
        let faults = cfg.faults_for(me, peer);
        let mut master = SeededRng::new(cfg.seed);
        let rng = master.fork(((me as u64) << 32) | peer as u64);
        LinkChaos {
            drops_left: faults.drop_budget,
            garbles_left: faults.garble_budget,
            faults,
            partitions: cfg
                .partitions
                .iter()
                .filter(|p| p.cuts(me, peer))
                .cloned()
                .collect(),
            me,
            peer,
            rng,
            held: None,
            counters,
        }
    }

    /// Whether this link is inside a partition window at `since_start`
    /// (elapsed time since the mesh started). A cut link must not
    /// transmit — frames wait in the sender's bounded queue.
    pub fn cut_at(&self, since_start: Duration) -> bool {
        self.partitions
            .iter()
            .any(|p| since_start >= p.start && since_start < p.end)
    }

    /// Whether any fault besides partitions is configured (if not, the
    /// link may keep its coalescing fast path).
    pub fn frame_faults_active(&self) -> bool {
        !self.faults.is_none()
    }

    /// The link this interposer covers, `(sender, receiver)`.
    pub fn link(&self) -> (PartyId, PartyId) {
        (self.me, self.peer)
    }

    /// The throttle sleep owed after writing `bytes`, if any.
    pub fn throttle_for(&self, bytes: usize) -> Option<Duration> {
        match self.faults.throttle_bytes_per_ms {
            0 => None,
            rate => Some(Duration::from_millis(bytes as u64 / rate)),
        }
    }

    fn roll(&mut self, per_mille: u32) -> bool {
        per_mille > 0 && self.rng.next_below(1000) < per_mille as u64
    }

    /// Rolls this frame's fate. Call once per queued frame, in order.
    pub fn plan(&mut self, frame: Vec<u8>) -> FramePlan {
        let mut plan = FramePlan {
            reset_first: false,
            delay: None,
            frames: Vec::new(),
        };
        if self.roll(self.faults.reset_per_mille) {
            self.counters.resets.fetch_add(1, Ordering::Relaxed);
            plan.reset_first = true;
        }
        if self.roll(self.faults.delay_per_mille) {
            let (lo, hi) = self.faults.delay_ms;
            let span = hi.saturating_sub(lo).max(1);
            let ms = lo + self.rng.next_below(span);
            self.counters.delayed.fetch_add(1, Ordering::Relaxed);
            plan.delay = Some(Duration::from_millis(ms));
        }
        if self.drops_left > 0 && self.roll(self.faults.drop_per_mille) {
            self.drops_left -= 1;
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            // The frame dies; anything held is still released behind it.
            if let Some(h) = self.held.take() {
                plan.frames.push(h);
            }
            return plan;
        }
        let frame = if self.garbles_left > 0 && self.roll(self.faults.garble_per_mille) {
            self.garbles_left -= 1;
            self.counters.garbled.fetch_add(1, Ordering::Relaxed);
            let mut f = frame;
            // Flip a byte of the *body* (past the 4-byte length prefix
            // when there is one) so the receiver reads a full frame that
            // fails to decode, rather than desyncing the length stream.
            let lo = 4.min(f.len().saturating_sub(1));
            let i = lo + self.rng.next_below((f.len() - lo).max(1) as u64) as usize;
            if let Some(b) = f.get_mut(i) {
                *b ^= 0x55;
            }
            f
        } else {
            frame
        };
        if self.held.is_none() && self.roll(self.faults.reorder_per_mille) {
            // Hold this frame; it rides behind the next one.
            self.held = Some(frame);
            return plan;
        }
        plan.frames.push(frame);
        if let Some(h) = self.held.take() {
            self.counters.reordered.fetch_add(1, Ordering::Relaxed);
            plan.frames.push(h);
        }
        plan
    }

    /// Releases a held frame at flush points (teardown), so reordering
    /// never turns into silent loss.
    pub fn flush_held(&mut self) -> Option<Vec<u8>> {
        self.held.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> Arc<ChaosCounters> {
        Arc::new(ChaosCounters::default())
    }

    #[test]
    fn clean_link_passes_frames_through() {
        let cfg = ChaosConfig::default();
        let mut link = LinkChaos::new(&cfg, 0, 1, counters());
        assert!(!link.frame_faults_active());
        for i in 0..64u8 {
            let plan = link.plan(vec![i]);
            assert!(!plan.reset_first);
            assert!(plan.delay.is_none());
            assert_eq!(plan.frames, vec![vec![i]]);
        }
    }

    #[test]
    fn fault_sequence_is_deterministic_per_link() {
        let cfg = ChaosConfig {
            seed: 7,
            default: LinkFaults {
                drop_per_mille: 300,
                drop_budget: 1_000,
                garble_per_mille: 200,
                garble_budget: 1_000,
                reset_per_mille: 100,
                reorder_per_mille: 150,
                ..LinkFaults::none()
            },
            ..ChaosConfig::default()
        };
        let run = |me, peer| {
            let mut link = LinkChaos::new(&cfg, me, peer, counters());
            let mut trace = Vec::new();
            for i in 0..200u64 {
                let plan = link.plan(i.to_be_bytes().to_vec());
                trace.push((plan.reset_first, plan.frames));
            }
            trace
        };
        assert_eq!(run(0, 1), run(0, 1), "same link replays identically");
        assert_ne!(run(0, 1), run(0, 2), "links draw independent sequences");
        assert_ne!(run(1, 0), run(0, 1), "directions draw independently");
    }

    #[test]
    fn drop_budget_bounds_losses() {
        let cfg = ChaosConfig {
            seed: 3,
            default: LinkFaults {
                drop_per_mille: 1000,
                drop_budget: 5,
                ..LinkFaults::none()
            },
            ..ChaosConfig::default()
        };
        let c = counters();
        let mut link = LinkChaos::new(&cfg, 0, 1, Arc::clone(&c));
        let mut delivered = 0usize;
        for i in 0..100u8 {
            delivered += link.plan(vec![i]).frames.len();
        }
        assert_eq!(c.dropped.load(Ordering::Relaxed), 5, "budget exhausted");
        assert_eq!(delivered, 95, "every frame past the budget survives");
    }

    #[test]
    fn garble_flips_exactly_one_body_byte() {
        let cfg = ChaosConfig {
            seed: 5,
            default: LinkFaults {
                garble_per_mille: 1000,
                garble_budget: u64::MAX,
                ..LinkFaults::none()
            },
            ..ChaosConfig::default()
        };
        let mut link = LinkChaos::new(&cfg, 2, 3, counters());
        let frame = vec![0u8, 0, 0, 4, 1, 2, 3, 4]; // prefix ‖ body
        let plan = link.plan(frame.clone());
        assert_eq!(plan.frames.len(), 1);
        let out = &plan.frames[0];
        assert_eq!(out[..4], frame[..4], "length prefix untouched");
        let flipped = out.iter().zip(frame.iter()).filter(|(a, b)| a != b).count();
        assert_eq!(flipped, 1, "exactly one body byte flipped");
    }

    #[test]
    fn reorder_holds_then_releases_behind_successor() {
        let cfg = ChaosConfig {
            seed: 11,
            default: LinkFaults {
                reorder_per_mille: 1000,
                ..LinkFaults::none()
            },
            ..ChaosConfig::default()
        };
        let c = counters();
        let mut link = LinkChaos::new(&cfg, 0, 1, Arc::clone(&c));
        let first = link.plan(vec![1]);
        assert!(first.frames.is_empty(), "first frame held");
        let second = link.plan(vec![2]);
        // With reorder at 1000‰ the second frame is held too — but a
        // held slot already exists, so it passes and releases the first
        // behind it.
        assert_eq!(second.frames, vec![vec![2], vec![1]], "inverted pair");
        assert_eq!(c.reordered.load(Ordering::Relaxed), 1);
        assert!(link.flush_held().is_none());
    }

    #[test]
    fn partitions_cut_only_crossing_links() {
        let cfg = ChaosConfig {
            seed: 0,
            partitions: vec![Partition {
                group: vec![0, 1],
                start: Duration::from_millis(100),
                end: Duration::from_millis(200),
            }],
            ..ChaosConfig::default()
        };
        let cross = LinkChaos::new(&cfg, 0, 2, counters());
        let inside = LinkChaos::new(&cfg, 0, 1, counters());
        assert!(!cross.cut_at(Duration::from_millis(50)), "before window");
        assert!(cross.cut_at(Duration::from_millis(150)), "inside window");
        assert!(!cross.cut_at(Duration::from_millis(250)), "healed");
        assert!(
            !inside.cut_at(Duration::from_millis(150)),
            "same-side link stays up"
        );
        assert_eq!(cross.link(), (0, 2));
    }

    #[test]
    fn per_link_overrides_beat_the_default() {
        let cfg = ChaosConfig {
            seed: 1,
            default: LinkFaults {
                drop_per_mille: 500,
                drop_budget: 10,
                ..LinkFaults::none()
            },
            links: vec![((0, 3), LinkFaults::none())],
            ..ChaosConfig::default()
        };
        assert!(cfg.faults_for(0, 3).is_none(), "override wins");
        assert_eq!(cfg.faults_for(0, 2).drop_per_mille, 500, "default holds");
    }

    #[test]
    fn throttle_charges_by_bytes() {
        let cfg = ChaosConfig {
            seed: 2,
            default: LinkFaults {
                throttle_bytes_per_ms: 10,
                ..LinkFaults::none()
            },
            ..ChaosConfig::default()
        };
        let link = LinkChaos::new(&cfg, 0, 1, counters());
        assert_eq!(link.throttle_for(100), Some(Duration::from_millis(10)));
        let clean = LinkChaos::new(&ChaosConfig::default(), 0, 1, counters());
        assert_eq!(clean.throttle_for(1 << 20), None, "uncapped by default");
    }
}
