//! Deterministic discrete-event simulation of the asynchronous network.
//!
//! The paper's model (§2): the adversary controls the network — it may
//! reorder and delay messages arbitrarily, subject only to eventual
//! delivery between honest parties, and it fully controls corrupted
//! parties. This simulator realizes that model as a replayable
//! discrete-event loop:
//!
//! * all in-flight messages sit in one pool;
//! * at every step a pluggable [`Scheduler`] — the adversary — picks
//!   which message to deliver next, seeing the full pool (sender,
//!   receiver, and contents, matching "the network is the adversary");
//! * corrupted parties are replaced by [`Behavior`]s that may stay
//!   silent, echo garbage, or run arbitrary custom logic supplied by the
//!   experiment.
//!
//! Self-addressed messages are delivered immediately (local computation
//! cannot be intercepted). Everything is driven by a seeded RNG, so any
//! run — including the adversarial ones — replays bit-identically.

use crate::protocol::{Context, Effects, Protocol};
use sintra_adversary::party::{PartyId, PartySet};
use sintra_crypto::rng::SeededRng;
use sintra_obs::{Layer, MetricsSnapshot, Obs};
use std::collections::VecDeque;

/// A message in flight.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sending party.
    pub from: PartyId,
    /// Receiving party.
    pub to: PartyId,
    /// The message.
    pub msg: M,
    /// Step at which it was sent.
    pub sent_at: u64,
    /// Whether this envelope is a network-duplicated copy of a message
    /// that has already been delivered once. Only such copies may be
    /// dropped by a lossy scheduler — originals are protected, so
    /// eventual delivery between honest parties always holds.
    pub duplicate: bool,
}

/// The network adversary: picks which in-flight message is delivered
/// next. Implementations see the whole pool, including message contents.
pub trait Scheduler<M> {
    /// Returns the index (into `inflight`) of the message to deliver.
    /// `inflight` is never empty when called.
    fn pick(&mut self, inflight: &[Envelope<M>], step: u64, rng: &mut SeededRng) -> usize;

    /// Optionally nominates an envelope to destroy instead of delivering
    /// this step. The simulator honors the nomination only if the
    /// envelope is a [`duplicate`](Envelope::duplicate) copy, so no
    /// scheduler — however adversarial — can break eventual delivery.
    fn drop_candidate(
        &mut self,
        _inflight: &[Envelope<M>],
        _step: u64,
        _rng: &mut SeededRng,
    ) -> Option<usize> {
        None
    }
}

impl<M> Scheduler<M> for Box<dyn Scheduler<M>> {
    fn pick(&mut self, inflight: &[Envelope<M>], step: u64, rng: &mut SeededRng) -> usize {
        (**self).pick(inflight, step, rng)
    }

    fn drop_candidate(
        &mut self,
        inflight: &[Envelope<M>],
        step: u64,
        rng: &mut SeededRng,
    ) -> Option<usize> {
        (**self).drop_candidate(inflight, step, rng)
    }
}

/// Index of the oldest envelope in the pool (ties broken by pool
/// position). Used as the fallback when a starving scheduler is forced
/// to deliver starved traffic: releasing the oldest bounds how long any
/// single message can be withheld.
fn oldest_index<M>(inflight: &[Envelope<M>]) -> usize {
    inflight
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.sent_at)
        .map(|(i, _)| i)
        .expect("inflight nonempty")
}

/// Uniformly random delivery — the "benign" asynchronous network.
#[derive(Clone, Debug, Default)]
pub struct RandomScheduler;

impl<M> Scheduler<M> for RandomScheduler {
    fn pick(&mut self, inflight: &[Envelope<M>], _step: u64, rng: &mut SeededRng) -> usize {
        rng.next_below(inflight.len() as u64) as usize
    }
}

/// Oldest-first delivery (global FIFO).
#[derive(Clone, Debug, Default)]
pub struct FifoScheduler;

impl<M> Scheduler<M> for FifoScheduler {
    fn pick(&mut self, inflight: &[Envelope<M>], _step: u64, _rng: &mut SeededRng) -> usize {
        inflight
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.sent_at)
            .map(|(i, _)| i)
            .expect("inflight nonempty")
    }
}

/// Newest-first delivery — maximal reordering.
#[derive(Clone, Debug, Default)]
pub struct LifoScheduler;

impl<M> Scheduler<M> for LifoScheduler {
    fn pick(&mut self, inflight: &[Envelope<M>], _step: u64, _rng: &mut SeededRng) -> usize {
        inflight
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| e.sent_at)
            .map(|(i, _)| i)
            .expect("inflight nonempty")
    }
}

/// Starves all traffic to and from a victim set: victim messages are
/// delivered only when nothing else is in flight (eventual delivery is
/// preserved, so this is a legal asynchronous adversary — exactly the
/// attack of §2.2 that makes timeout-based failure detectors useless).
#[derive(Clone, Debug)]
pub struct TargetedDelayScheduler {
    /// Parties whose traffic is starved.
    pub victims: PartySet,
}

impl<M> Scheduler<M> for TargetedDelayScheduler {
    fn pick(&mut self, inflight: &[Envelope<M>], _step: u64, rng: &mut SeededRng) -> usize {
        let fast: Vec<usize> = inflight
            .iter()
            .enumerate()
            .filter(|(_, e)| !self.victims.contains(e.from) && !self.victims.contains(e.to))
            .map(|(i, _)| i)
            .collect();
        if fast.is_empty() {
            // Only starved traffic remains: release the oldest envelope
            // so no single message is withheld unboundedly long.
            oldest_index(inflight)
        } else {
            fast[rng.next_below(fast.len() as u64) as usize]
        }
    }
}

/// Splits the parties into two groups and withholds cross-group traffic
/// until `heal_at`; models a temporary partition.
#[derive(Clone, Debug)]
pub struct PartitionScheduler {
    /// One side of the partition (the rest of the parties are the other).
    pub group: PartySet,
    /// Step at which the partition heals.
    pub heal_at: u64,
}

impl<M> Scheduler<M> for PartitionScheduler {
    fn pick(&mut self, inflight: &[Envelope<M>], step: u64, rng: &mut SeededRng) -> usize {
        if step >= self.heal_at {
            return rng.next_below(inflight.len() as u64) as usize;
        }
        let same_side: Vec<usize> = inflight
            .iter()
            .enumerate()
            .filter(|(_, e)| self.group.contains(e.from) == self.group.contains(e.to))
            .map(|(i, _)| i)
            .collect();
        if same_side.is_empty() {
            // Only cross-partition traffic remains: leak the oldest
            // envelope (bounded starvation) rather than a random one.
            oldest_index(inflight)
        } else {
            same_side[rng.next_below(same_side.len() as u64) as usize]
        }
    }
}

/// Wraps any scheduler with bounded message loss: up to `budget`
/// duplicate copies are destroyed instead of delivered, each with
/// `drop_percent` probability per step. Because only
/// [`duplicate`](Envelope::duplicate) envelopes are ever nominated (and
/// the simulator enforces this regardless), every original message is
/// still delivered — loss is a bounded adversarial capability, not a
/// liveness hazard.
#[derive(Clone, Debug)]
pub struct LossyScheduler<S> {
    inner: S,
    drop_percent: u64,
    budget: u64,
}

impl<S> LossyScheduler<S> {
    /// Wraps `inner`, allowing at most `budget` duplicate-copy drops,
    /// each attempted with probability `drop_percent` (clamped to 100).
    pub fn new(inner: S, drop_percent: u64, budget: u64) -> Self {
        LossyScheduler {
            inner,
            drop_percent: drop_percent.min(100),
            budget,
        }
    }

    /// Drops still allowed.
    pub fn remaining_budget(&self) -> u64 {
        self.budget
    }
}

impl<M, S: Scheduler<M>> Scheduler<M> for LossyScheduler<S> {
    fn pick(&mut self, inflight: &[Envelope<M>], step: u64, rng: &mut SeededRng) -> usize {
        self.inner.pick(inflight, step, rng)
    }

    fn drop_candidate(
        &mut self,
        inflight: &[Envelope<M>],
        _step: u64,
        rng: &mut SeededRng,
    ) -> Option<usize> {
        if self.budget == 0 || self.drop_percent == 0 || rng.next_below(100) >= self.drop_percent {
            return None;
        }
        let duplicates: Vec<usize> = inflight
            .iter()
            .enumerate()
            .filter(|(_, e)| e.duplicate)
            .map(|(i, _)| i)
            .collect();
        if duplicates.is_empty() {
            return None;
        }
        self.budget -= 1;
        Some(duplicates[rng.next_below(duplicates.len() as u64) as usize])
    }
}

/// An adaptive adversary given as a closure over the full pool.
pub struct AdaptiveScheduler<M> {
    #[allow(clippy::type_complexity)]
    pick: Box<dyn FnMut(&[Envelope<M>], u64, &mut SeededRng) -> usize + Send>,
}

impl<M> AdaptiveScheduler<M> {
    /// Wraps a picking closure.
    pub fn new(
        pick: impl FnMut(&[Envelope<M>], u64, &mut SeededRng) -> usize + Send + 'static,
    ) -> Self {
        AdaptiveScheduler {
            pick: Box::new(pick),
        }
    }
}

impl<M> Scheduler<M> for AdaptiveScheduler<M> {
    fn pick(&mut self, inflight: &[Envelope<M>], step: u64, rng: &mut SeededRng) -> usize {
        let i = (self.pick)(inflight, step, rng);
        assert!(i < inflight.len(), "scheduler picked out-of-range index");
        i
    }
}

impl<M> core::fmt::Debug for AdaptiveScheduler<M> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AdaptiveScheduler")
    }
}

/// How a corrupted party behaves.
pub enum Behavior<P: Protocol> {
    /// Crashed: absorbs everything, sends nothing.
    Crash,
    /// Arbitrary logic: receives each incoming message and returns the
    /// messages it wants to send.
    #[allow(clippy::type_complexity)]
    Custom(Box<dyn FnMut(PartyId, P::Message, u64) -> Vec<(PartyId, P::Message)> + Send>),
}

impl<P: Protocol> core::fmt::Debug for Behavior<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Behavior::Crash => write!(f, "Crash"),
            Behavior::Custom(_) => write!(f, "Custom"),
        }
    }
}

enum NodeSlot<P: Protocol> {
    Honest(P),
    Corrupted(Behavior<P>),
}

/// Counters the simulator maintains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the pool.
    pub sent: u64,
    /// Messages delivered to a receiving node.
    pub delivered: u64,
    /// Delivery steps executed.
    pub steps: u64,
    /// Self-addressed messages short-circuited.
    pub local_deliveries: u64,
    /// Duplicate copies destroyed by a lossy scheduler instead of
    /// delivered.
    pub dropped: u64,
    /// Total bytes injected into the network (only counted when a meter
    /// is installed with [`Simulation::set_meter`]).
    pub bytes_sent: u64,
}

/// Configures and constructs a [`Simulation`]: scheduler, seed, fault
/// plan, instrumentation, duplication, ticks, and a step budget, each
/// with a sensible default. This supersedes the positional
/// `Simulation::builder(nodes, scheduler).seed(seed).build()` constructor.
///
/// ```ignore
/// let mut sim = Simulation::builder(nodes, RandomScheduler)
///     .seed(42)
///     .instrument(4096)        // per-party metrics + flight recorder
///     .duplication(30)
///     .corrupt(3, Behavior::Crash)
///     .build();
/// ```
pub struct SimulationBuilder<P: Protocol, S> {
    nodes: Vec<P>,
    scheduler: S,
    seed: u64,
    recorder_capacity: Option<usize>,
    duplication_percent: u64,
    tick_every: u64,
    step_budget: u64,
    corruptions: Vec<(PartyId, Behavior<P>)>,
    #[allow(clippy::type_complexity)]
    meter: Option<Box<dyn Fn(&P::Message) -> usize + Send>>,
}

impl<P: Protocol, S: Scheduler<P::Message>> SimulationBuilder<P, S> {
    /// Seeds the simulation RNG (default 0); the seed fully determines
    /// the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Turns instrumentation on: every party gets its own metrics
    /// registry and a flight recorder retaining `recorder_capacity`
    /// events. Off by default (zero recording overhead).
    pub fn instrument(mut self, recorder_capacity: usize) -> Self {
        self.recorder_capacity = Some(recorder_capacity);
        self
    }

    /// Enables random message duplication (see
    /// [`Simulation::enable_duplication`] for the clamping rule).
    pub fn duplication(mut self, percent: u64) -> Self {
        self.duplication_percent = percent;
        self
    }

    /// Enables periodic `on_tick` rounds every `every` steps (for the
    /// failure-detector baseline only).
    pub fn ticks(mut self, every: u64) -> Self {
        self.tick_every = every;
        self
    }

    /// Caps [`Simulation::run`] at `steps` delivery steps (default
    /// 1,000,000).
    pub fn step_budget(mut self, steps: u64) -> Self {
        self.step_budget = steps;
        self
    }

    /// Adds a corruption to the fault plan: `party` runs `behavior`
    /// instead of its honest automaton.
    pub fn corrupt(mut self, party: PartyId, behavior: Behavior<P>) -> Self {
        self.corruptions.push((party, behavior));
        self
    }

    /// Installs a wire-size meter; every remote send is measured into
    /// [`SimStats::bytes_sent`] (and, when instrumented, the
    /// `net.bytes_sent` counter).
    pub fn meter(mut self, meter: impl Fn(&P::Message) -> usize + Send + 'static) -> Self {
        self.meter = Some(Box::new(meter));
        self
    }

    /// Builds the simulation.
    pub fn build(self) -> Simulation<P, S> {
        let n = self.nodes.len();
        let obs = match self.recorder_capacity {
            Some(cap) => (0..n).map(|_| Obs::enabled(cap)).collect(),
            None => vec![Obs::disabled(); n],
        };
        let mut sim = Simulation {
            nodes: self.nodes.into_iter().map(NodeSlot::Honest).collect(),
            inflight: Vec::new(),
            scheduler: self.scheduler,
            rng: SeededRng::new(self.seed),
            outputs: (0..n).map(|_| Vec::new()).collect(),
            stats: SimStats::default(),
            tick_every: self.tick_every,
            max_idle_ticks: 200,
            idle_ticks: 0,
            duplication_percent: self.duplication_percent.min(90),
            meter: self.meter,
            obs,
            step_budget: self.step_budget,
        };
        for (party, behavior) in self.corruptions {
            sim.corrupt(party, behavior);
        }
        sim
    }
}

/// A deterministic simulation of `n` replicas of a protocol under an
/// adversarial scheduler.
///
/// # Examples
///
/// See the crate-level documentation and the protocol crates' tests; the
/// minimal shape is:
///
/// ```ignore
/// let mut sim = Simulation::builder(nodes, RandomScheduler).seed(42).build();
/// sim.input(0, my_input);
/// sim.run_until_quiet(100_000);
/// assert_eq!(sim.outputs(1), sim.outputs(2));
/// ```
pub struct Simulation<P: Protocol, S> {
    nodes: Vec<NodeSlot<P>>,
    inflight: Vec<Envelope<P::Message>>,
    scheduler: S,
    rng: SeededRng,
    outputs: Vec<Vec<P::Output>>,
    stats: SimStats,
    /// Call `on_tick` on every honest node each `tick_every` steps
    /// (0 = never). Only timeout-bearing protocols (the FD baseline, the
    /// optimistic fast path) use this.
    tick_every: u64,
    /// When the pool is empty but ticks are enabled, keep firing idle
    /// tick rounds (local clocks advance even on a silent network) up to
    /// this many consecutive silent rounds.
    max_idle_ticks: u64,
    idle_ticks: u64,
    /// Percentage (0-90) of deliveries that put a duplicate copy of the
    /// message back into the pool — real networks may duplicate, and the
    /// protocols must be idempotent.
    duplication_percent: u64,
    /// Optional byte meter for the `bytes_sent` statistic.
    #[allow(clippy::type_complexity)]
    meter: Option<Box<dyn Fn(&P::Message) -> usize + Send>>,
    /// Per-party observability handles (disabled unless the builder's
    /// `instrument` was called).
    obs: Vec<Obs>,
    /// Step cap for [`run`](Self::run).
    step_budget: u64,
}

impl<P: Protocol, S: Scheduler<P::Message>> Simulation<P, S> {
    /// Starts building a simulation over the given replicas; see
    /// [`SimulationBuilder`] for the knobs.
    pub fn builder(nodes: Vec<P>, scheduler: S) -> SimulationBuilder<P, S> {
        SimulationBuilder {
            nodes,
            scheduler,
            seed: 0,
            recorder_capacity: None,
            duplication_percent: 0,
            tick_every: 0,
            step_budget: 1_000_000,
            corruptions: Vec::new(),
            meter: None,
        }
    }

    /// Installs a wire-size meter; every remote send is measured into
    /// [`SimStats::bytes_sent`].
    pub fn set_meter(&mut self, meter: impl Fn(&P::Message) -> usize + Send + 'static) {
        self.meter = Some(Box::new(meter));
    }

    /// Enables random message duplication: each delivery leaves a copy
    /// in the pool with the given probability. Values above 90 are
    /// clamped to 90 so runs terminate (an unbounded duplication rate
    /// would keep the pool non-empty forever).
    pub fn enable_duplication(&mut self, percent: u64) {
        self.duplication_percent = percent.min(90);
    }

    /// The effective duplication probability (post-clamp).
    pub fn duplication_percent(&self) -> u64 {
        self.duplication_percent
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Replaces a party with a corrupted behavior.
    pub fn corrupt(&mut self, party: PartyId, behavior: Behavior<P>) {
        self.nodes[party] = NodeSlot::Corrupted(behavior);
    }

    /// Enables periodic ticks (for the failure-detector baseline only).
    pub fn enable_ticks(&mut self, every: u64) {
        self.tick_every = every;
    }

    /// The instrumentation context for `party` at the current step.
    fn ctx(&self, party: PartyId) -> Context {
        Context {
            me: party,
            n: self.nodes.len(),
            at: self.stats.steps,
            obs: self.obs[party].clone(),
        }
    }

    /// A party's observability handle (disabled unless the simulation
    /// was built with [`SimulationBuilder::instrument`]).
    pub fn obs(&self, party: PartyId) -> &Obs {
        &self.obs[party]
    }

    /// All parties' metrics folded into one snapshot (counters add,
    /// gauges take the max, histograms merge). Empty when
    /// uninstrumented.
    pub fn metrics_merged(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for obs in &self.obs {
            merged.merge(&obs.metrics_snapshot());
        }
        merged
    }

    /// Injects a local input at a party. No-op on corrupted parties.
    pub fn input(&mut self, party: PartyId, input: P::Input) {
        let mut fx = Effects::for_parties(self.nodes.len());
        let ctx = self.ctx(party);
        if let NodeSlot::Honest(node) = &mut self.nodes[party] {
            node.on_input_ctx(&ctx, input, &mut fx);
        }
        self.absorb(party, fx);
    }

    /// Delivers one message (the scheduler picks which) or, when nothing
    /// is in flight but ticks are enabled, advances the local clocks (up
    /// to a bounded number of consecutive silent rounds, so timeouts can
    /// fire even on a quiet network). Returns `false` when the run has
    /// quiesced.
    pub fn step(&mut self) -> bool {
        if self.inflight.is_empty() {
            if self.tick_every == 0 || self.idle_ticks >= self.max_idle_ticks {
                return false;
            }
            self.stats.steps += 1;
            self.tick_round();
            if self.inflight.is_empty() {
                self.idle_ticks += 1;
            } else {
                self.idle_ticks = 0;
            }
            return true;
        }
        self.idle_ticks = 0;
        self.stats.steps += 1;
        // Give a lossy scheduler the chance to destroy a duplicate copy
        // instead of delivering. The duplicate check is enforced *here*,
        // not trusted to the scheduler: no adversary may drop originals.
        if let Some(idx) =
            self.scheduler
                .drop_candidate(&self.inflight, self.stats.steps, &mut self.rng)
        {
            if self.inflight.get(idx).is_some_and(|e| e.duplicate) {
                let env = self.inflight.swap_remove(idx);
                self.stats.dropped += 1;
                self.obs[env.to].inc(Layer::Net, "dropped_duplicates");
                return true;
            }
        }
        let idx = self
            .scheduler
            .pick(&self.inflight, self.stats.steps, &mut self.rng);
        let env = self.inflight.swap_remove(idx);
        if self.duplication_percent > 0 && self.rng.next_below(100) < self.duplication_percent {
            let mut copy = env.clone();
            copy.sent_at = self.stats.steps;
            copy.duplicate = true;
            self.inflight.push(copy);
        }
        self.deliver(env);
        if self.tick_every > 0 && self.stats.steps.is_multiple_of(self.tick_every) {
            self.tick_round();
        }
        true
    }

    fn tick_round(&mut self) {
        for party in 0..self.nodes.len() {
            let mut fx = Effects::for_parties(self.nodes.len());
            let ctx = self.ctx(party);
            if let NodeSlot::Honest(node) = &mut self.nodes[party] {
                node.on_tick_ctx(&ctx, &mut fx);
            }
            self.absorb(party, fx);
        }
    }

    /// Runs until the pool drains or the builder's step budget
    /// (default 1,000,000) is exhausted; returns steps executed.
    pub fn run(&mut self) -> u64 {
        self.run_until_quiet(self.step_budget)
    }

    /// Runs until the pool drains or `max_steps` is hit; returns steps
    /// executed.
    pub fn run_until_quiet(&mut self, max_steps: u64) -> u64 {
        let mut executed = 0;
        while executed < max_steps && self.step() {
            executed += 1;
        }
        executed
    }

    /// Runs until `predicate` holds (checked after every step), the pool
    /// drains, or `max_steps` elapse. Returns `true` if the predicate
    /// held.
    pub fn run_until(&mut self, max_steps: u64, mut predicate: impl FnMut(&Self) -> bool) -> bool {
        let mut executed = 0;
        loop {
            if predicate(self) {
                return true;
            }
            if executed >= max_steps || !self.step() {
                return predicate(self);
            }
            executed += 1;
        }
    }

    /// Outputs a party has produced so far.
    pub fn outputs(&self, party: PartyId) -> &[P::Output] {
        &self.outputs[party]
    }

    /// Simulation counters.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Read access to an honest node's state (`None` if corrupted).
    pub fn node(&self, party: PartyId) -> Option<&P> {
        match &self.nodes[party] {
            NodeSlot::Honest(p) => Some(p),
            NodeSlot::Corrupted(_) => None,
        }
    }

    /// Consumes the simulation, returning every party's final node state
    /// (`None` for corrupted slots). Campaign invariant checks use this
    /// to inspect internal protocol state — e.g. which parties a node's
    /// batch verification attributed as culprits — after a run.
    pub fn into_nodes(self) -> Vec<Option<P>> {
        self.nodes
            .into_iter()
            .map(|slot| match slot {
                NodeSlot::Honest(p) => Some(p),
                NodeSlot::Corrupted(_) => None,
            })
            .collect()
    }

    /// The set of corrupted parties.
    pub fn corrupted(&self) -> PartySet {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, NodeSlot::Corrupted(_)))
            .map(|(p, _)| p)
            .collect()
    }

    fn deliver(&mut self, env: Envelope<P::Message>) {
        self.stats.delivered += 1;
        let to = env.to;
        let obs = &self.obs[to];
        if obs.is_enabled() {
            obs.inc(Layer::Net, "recv");
            // In-pool latency over simulated time: how many steps the
            // adversary held this envelope.
            obs.observe(
                Layer::Net,
                "delivery_steps",
                self.stats.steps.saturating_sub(env.sent_at),
            );
        }
        let mut fx = Effects::for_parties(self.nodes.len());
        let ctx = self.ctx(to);
        match &mut self.nodes[to] {
            NodeSlot::Honest(node) => {
                node.on_message_ctx(&ctx, env.from, env.msg, &mut fx);
            }
            NodeSlot::Corrupted(Behavior::Crash) => {}
            NodeSlot::Corrupted(Behavior::Custom(f)) => {
                for (dst, msg) in f(env.from, env.msg, self.stats.steps) {
                    fx.send(dst, msg);
                }
            }
        }
        self.absorb(to, fx);
    }

    /// Moves effects into the pool, short-circuiting self-sends through a
    /// local FIFO (they cannot be delayed by the network adversary).
    #[allow(clippy::type_complexity)]
    fn absorb(&mut self, origin: PartyId, mut fx: Effects<P::Message, P::Output>) {
        let mut local: VecDeque<(PartyId, Effects<P::Message, P::Output>)> = VecDeque::new();
        local.push_back((origin, fx_split(&mut fx)));
        self.outputs[origin].extend(fx.take_outputs());
        let n = self.nodes.len();
        while let Some((party, mut effects)) = local.pop_front() {
            for (to, msg) in effects.take_sends() {
                if to >= n {
                    continue; // a Byzantine node may address nonexistent parties
                }
                if to == party {
                    // Immediate local delivery — honest nodes only. A
                    // corrupted node sending to itself is dropped: its
                    // behavior already ran, and looping it back would let
                    // a spamming behavior recurse forever.
                    match &mut self.nodes[to] {
                        NodeSlot::Honest(node) => {
                            self.stats.local_deliveries += 1;
                            self.obs[to].inc(Layer::Net, "local_deliveries");
                            let mut sub = Effects::for_parties(n);
                            let ctx = Context {
                                me: to,
                                n,
                                at: self.stats.steps,
                                obs: self.obs[to].clone(),
                            };
                            node.on_message_ctx(&ctx, party, msg, &mut sub);
                            self.outputs[to].extend(sub.take_outputs());
                            local.push_back((to, sub));
                        }
                        NodeSlot::Corrupted(_) => {}
                    }
                } else {
                    self.stats.sent += 1;
                    self.obs[party].inc(Layer::Net, "sent");
                    if let Some(meter) = &self.meter {
                        let bytes = meter(&msg) as u64;
                        self.stats.bytes_sent += bytes;
                        self.obs[party].add(Layer::Net, "bytes_sent", bytes);
                    }
                    self.inflight.push(Envelope {
                        from: party,
                        to,
                        msg,
                        sent_at: self.stats.steps,
                        duplicate: false,
                    });
                }
            }
        }
    }
}

/// Splits the sends out of an Effects so outputs can be recorded at the
/// call site (helper keeping borrow scopes simple).
fn fx_split<M, O>(fx: &mut Effects<M, O>) -> Effects<M, O> {
    let mut out = Effects::new();
    for (to, m) in fx.take_sends() {
        out.send(to, m);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each node broadcasts its id on input and records everything heard.
    #[derive(Debug)]
    struct Gossip {
        heard: Vec<(PartyId, u64)>,
    }

    impl Protocol for Gossip {
        type Message = u64;
        type Input = u64;
        type Output = (PartyId, u64);

        fn on_input(&mut self, v: u64, fx: &mut Effects<u64, (PartyId, u64)>) {
            fx.broadcast(v);
        }

        fn on_message(&mut self, from: PartyId, v: u64, fx: &mut Effects<u64, (PartyId, u64)>) {
            self.heard.push((from, v));
            fx.output((from, v));
        }
    }

    fn gossip_nodes(n: usize) -> Vec<Gossip> {
        (0..n).map(|_| Gossip { heard: vec![] }).collect()
    }

    #[test]
    fn all_messages_eventually_delivered() {
        let mut sim = Simulation::builder(gossip_nodes(4), RandomScheduler)
            .seed(1)
            .build();
        sim.input(0, 7);
        sim.run_until_quiet(1000);
        for p in 0..4 {
            assert_eq!(sim.outputs(p), &[(0, 7)], "party {p}");
        }
        let stats = sim.stats();
        assert_eq!(stats.sent, 3, "three remote sends");
        assert_eq!(stats.local_deliveries, 1, "one self delivery");
        assert_eq!(stats.delivered, 3);
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed| {
            let mut sim = Simulation::builder(gossip_nodes(5), RandomScheduler)
                .seed(seed)
                .build();
            for p in 0..5 {
                sim.input(p, p as u64 * 10);
            }
            sim.run_until_quiet(10_000);
            (0..5).map(|p| sim.outputs(p).to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn schedulers_change_order_not_outcome() {
        let totals =
            |outputs: &[Vec<(PartyId, u64)>]| outputs.iter().map(|o| o.len()).sum::<usize>();
        let run = |sched: &str| {
            let nodes = gossip_nodes(4);
            let mut outs = Vec::new();
            match sched {
                "random" => {
                    let mut sim = Simulation::builder(nodes, RandomScheduler).seed(3).build();
                    for p in 0..4 {
                        sim.input(p, p as u64);
                    }
                    sim.run_until_quiet(10_000);
                    for p in 0..4 {
                        outs.push(sim.outputs(p).to_vec());
                    }
                }
                "fifo" => {
                    let mut sim = Simulation::builder(nodes, FifoScheduler).seed(3).build();
                    for p in 0..4 {
                        sim.input(p, p as u64);
                    }
                    sim.run_until_quiet(10_000);
                    for p in 0..4 {
                        outs.push(sim.outputs(p).to_vec());
                    }
                }
                _ => {
                    let mut sim = Simulation::builder(nodes, LifoScheduler).seed(3).build();
                    for p in 0..4 {
                        sim.input(p, p as u64);
                    }
                    sim.run_until_quiet(10_000);
                    for p in 0..4 {
                        outs.push(sim.outputs(p).to_vec());
                    }
                }
            }
            outs
        };
        assert_eq!(totals(&run("random")), 16);
        assert_eq!(totals(&run("fifo")), 16);
        assert_eq!(totals(&run("lifo")), 16);
    }

    #[test]
    fn crash_behavior_absorbs() {
        let mut sim = Simulation::builder(gossip_nodes(4), RandomScheduler)
            .seed(4)
            .build();
        sim.corrupt(3, Behavior::Crash);
        sim.input(0, 9);
        sim.run_until_quiet(1000);
        assert_eq!(sim.outputs(3), &[] as &[(PartyId, u64)]);
        assert_eq!(sim.outputs(1), &[(0, 9)]);
        assert_eq!(sim.corrupted(), PartySet::singleton(3));
        assert!(sim.node(3).is_none());
        assert!(sim.node(1).is_some());
    }

    #[test]
    fn custom_behavior_can_equivocate() {
        // Party 2 forwards different values to 0 and 1.
        let mut sim = Simulation::builder(gossip_nodes(3), FifoScheduler)
            .seed(5)
            .build();
        sim.corrupt(
            2,
            Behavior::Custom(Box::new(|_from, _msg, _step| vec![(0, 100), (1, 200)])),
        );
        sim.input(0, 1); // reaches party 2, triggering the equivocation
        sim.run_until_quiet(1000);
        assert!(sim.outputs(0).contains(&(2, 100)));
        assert!(sim.outputs(1).contains(&(2, 200)));
        assert!(!sim.outputs(0).contains(&(2, 200)));
    }

    #[test]
    fn targeted_delay_starves_victim_but_delivers_eventually() {
        let mut sim = Simulation::builder(
            gossip_nodes(4),
            TargetedDelayScheduler {
                victims: PartySet::singleton(0),
            },
        )
        .seed(6)
        .build();
        for p in 0..4 {
            sim.input(p, p as u64);
        }
        // Track when party 0 first receives a *remote* message (its own
        // self-broadcast is delivered locally and immediately).
        let mut steps_until_victim_heard = None;
        let mut steps = 0;
        while sim.step() {
            steps += 1;
            let heard_remote = sim.outputs(0).iter().any(|(from, _)| *from != 0);
            if steps_until_victim_heard.is_none() && heard_remote {
                steps_until_victim_heard = Some(steps);
            }
        }
        // Victim messages delivered only after all others: the victim
        // first hears something only in the second half of the run.
        let total = steps;
        let first = steps_until_victim_heard.expect("eventual delivery");
        assert!(
            first * 2 > total,
            "victim starved: first heard at {first} of {total}"
        );
        // But everything is delivered in the end (3 remote + 1 self).
        assert_eq!(sim.outputs(0).len(), 4);
    }

    #[test]
    fn partition_heals() {
        let group: PartySet = [0, 1].into_iter().collect();
        let mut sim =
            Simulation::builder(gossip_nodes(4), PartitionScheduler { group, heal_at: 50 })
                .seed(7)
                .build();
        for p in 0..4 {
            sim.input(p, p as u64);
        }
        sim.run_until_quiet(10_000);
        for p in 0..4 {
            assert_eq!(
                sim.outputs(p).len(),
                4,
                "party {p} hears everyone after heal"
            );
        }
    }

    #[test]
    fn run_until_predicate() {
        let mut sim = Simulation::builder(gossip_nodes(4), RandomScheduler)
            .seed(8)
            .build();
        sim.input(0, 5);
        let reached = sim.run_until(1000, |s| !s.outputs(2).is_empty());
        assert!(reached);
    }

    #[test]
    fn byzantine_sends_to_nonexistent_party_are_dropped() {
        let mut sim = Simulation::builder(gossip_nodes(3), FifoScheduler)
            .seed(77)
            .build();
        sim.corrupt(
            2,
            Behavior::Custom(Box::new(|_from, _msg, _| {
                vec![(99, 1u64), (0, 2u64)] // 99 does not exist
            })),
        );
        sim.input(0, 5);
        sim.run_until_quiet(1000);
        assert!(sim.outputs(0).contains(&(2, 2)));
    }

    #[test]
    fn duplication_preserves_gossip_semantics() {
        let mut sim = Simulation::builder(gossip_nodes(4), RandomScheduler)
            .seed(78)
            .build();
        sim.enable_duplication(50);
        sim.input(0, 9);
        sim.run_until_quiet(10_000);
        // Every party hears the broadcast at least once; duplicates mean
        // deliveries exceed unique sends.
        for p in 0..4 {
            assert!(sim.outputs(p).iter().any(|(f, v)| *f == 0 && *v == 9));
        }
        assert!(sim.stats().delivered >= sim.stats().sent);
    }

    #[test]
    fn duplication_percent_clamped_at_setter() {
        let mut sim = Simulation::builder(gossip_nodes(2), RandomScheduler)
            .seed(80)
            .build();
        sim.enable_duplication(500);
        assert_eq!(sim.duplication_percent(), 90, "clamped to documented max");
        sim.enable_duplication(35);
        assert_eq!(sim.duplication_percent(), 35);
    }

    #[test]
    fn lossy_scheduler_drops_only_duplicates_within_budget() {
        let budget = 5;
        let mut sim = Simulation::builder(
            gossip_nodes(4),
            LossyScheduler::new(RandomScheduler, 100, budget),
        )
        .seed(81)
        .build();
        sim.enable_duplication(60);
        for p in 0..4 {
            sim.input(p, p as u64);
        }
        sim.run_until_quiet(100_000);
        let stats = sim.stats();
        assert!(stats.dropped > 0, "lossy run should observe drops");
        assert!(stats.dropped <= budget, "drops bounded by budget");
        // Eventual delivery: every original broadcast still reaches
        // every party at least once.
        for p in 0..4 {
            for src in 0..4u64 {
                assert!(
                    sim.outputs(p)
                        .iter()
                        .any(|(f, v)| *f == src as usize && *v == src),
                    "party {p} missing broadcast from {src}"
                );
            }
        }
    }

    #[test]
    fn simulator_refuses_to_drop_originals() {
        /// A malicious scheduler that nominates originals for dropping.
        #[derive(Clone, Debug)]
        struct DropOriginals;
        impl<M> Scheduler<M> for DropOriginals {
            fn pick(&mut self, inflight: &[Envelope<M>], _: u64, rng: &mut SeededRng) -> usize {
                rng.next_below(inflight.len() as u64) as usize
            }
            fn drop_candidate(
                &mut self,
                _inflight: &[Envelope<M>],
                _step: u64,
                _rng: &mut SeededRng,
            ) -> Option<usize> {
                Some(0) // always nominate; sim must veto non-duplicates
            }
        }
        let mut sim = Simulation::builder(gossip_nodes(3), DropOriginals)
            .seed(82)
            .build();
        sim.input(0, 7);
        sim.run_until_quiet(10_000);
        assert_eq!(sim.stats().dropped, 0, "no duplicates exist to drop");
        for p in 0..3 {
            assert!(sim.outputs(p).contains(&(0, 7)), "party {p}");
        }
    }

    #[test]
    fn boxed_scheduler_dispatches() {
        let boxed: Box<dyn Scheduler<u64>> = Box::new(FifoScheduler);
        let mut sim = Simulation::builder(gossip_nodes(3), boxed).seed(83).build();
        sim.input(0, 4);
        sim.run_until_quiet(1_000);
        for p in 0..3 {
            assert!(sim.outputs(p).contains(&(0, 4)));
        }
    }

    #[test]
    fn starvation_fallback_releases_oldest_first() {
        // Everyone is a victim, so the fallback path runs every step:
        // delivery order must then be exactly oldest-first (global FIFO).
        let victims: PartySet = (0..4).collect();
        let mut fifo_sim = Simulation::builder(gossip_nodes(4), FifoScheduler)
            .seed(84)
            .build();
        let mut starved_sim =
            Simulation::builder(gossip_nodes(4), TargetedDelayScheduler { victims })
                .seed(84)
                .build();
        for p in 0..4 {
            fifo_sim.input(p, p as u64);
            starved_sim.input(p, p as u64);
        }
        fifo_sim.run_until_quiet(10_000);
        starved_sim.run_until_quiet(10_000);
        for p in 0..4 {
            assert_eq!(
                fifo_sim.outputs(p),
                starved_sim.outputs(p),
                "fallback must equal FIFO when everything is starved"
            );
        }
    }

    #[test]
    fn meter_counts_remote_bytes() {
        let mut sim = Simulation::builder(gossip_nodes(3), FifoScheduler)
            .seed(79)
            .build();
        sim.set_meter(|_msg: &u64| 8);
        sim.input(0, 1);
        sim.run_until_quiet(100);
        // Two remote sends of 8 bytes each (self-send is local).
        assert_eq!(sim.stats().bytes_sent, 16);
    }

    #[test]
    fn adaptive_scheduler_sees_contents() {
        // Deliver messages with even payloads first.
        let sched = AdaptiveScheduler::new(|pool: &[Envelope<u64>], _, rng| {
            pool.iter()
                .position(|e| e.msg % 2 == 0)
                .unwrap_or_else(|| rng.next_below(pool.len() as u64) as usize)
        });
        let mut sim = Simulation::builder(gossip_nodes(3), sched).seed(9).build();
        sim.input(0, 2);
        sim.input(1, 3);
        sim.run_until_quiet(100);
        // Two broadcasts × three receivers (self-deliveries included).
        let all: usize = (0..3).map(|p| sim.outputs(p).len()).sum();
        assert_eq!(all, 6);
    }

    #[test]
    fn ticks_fire_when_enabled() {
        #[derive(Debug)]
        struct Ticker {
            ticks: u64,
        }
        impl Protocol for Ticker {
            type Message = ();
            type Input = ();
            type Output = u64;
            fn on_input(&mut self, _: (), fx: &mut Effects<(), u64>) {
                fx.send(1, ());
                fx.send(0, ());
            }
            fn on_message(&mut self, _: PartyId, _: (), fx: &mut Effects<(), u64>) {
                fx.output(self.ticks);
            }
            fn on_tick(&mut self, _: &mut Effects<(), u64>) {
                self.ticks += 1;
            }
        }
        let mut sim = Simulation::builder(
            vec![Ticker { ticks: 0 }, Ticker { ticks: 0 }],
            FifoScheduler,
        )
        .seed(10)
        .build();
        sim.enable_ticks(1);
        sim.input(0, ());
        sim.run_until_quiet(100);
        // The tick counter advanced on the node that received remotely.
        assert!(sim.outputs(1)[0] == 0 || sim.node(0).unwrap().ticks > 0);
    }
}
