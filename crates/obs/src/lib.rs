//! # sintra-obs — observability substrate for SINTRA-RS
//!
//! Structured protocol events, a lock-free bounded flight recorder,
//! per-instance metrics (counters / gauges / log₂ histograms), and
//! deterministic JSON + table sinks. The paper's claims (§3, §5) are
//! all *cost* claims — message complexity, expected CKS rounds,
//! threshold-crypto latency — and this crate is how the rest of the
//! workspace measures them.
//!
//! The central handle is [`Obs`]: a cheaply clonable, optionally-absent
//! reference to a per-node recorder + metrics registry. A disabled
//! `Obs` is a `None` — every recording call is a single inline branch
//! and no allocation, so instrumentation left in hot protocol paths
//! costs effectively nothing when turned off.
//!
//! ```
//! use sintra_obs::{Obs, Layer, EventKind, Event};
//!
//! let obs = Obs::enabled(1024);
//! obs.inc(Layer::Rbc, "sent");
//! obs.event(Event::new(Layer::Abba, EventKind::Decide, 0));
//! let snap = obs.metrics_snapshot();
//! assert_eq!(snap.counter("rbc.sent"), 1);
//!
//! let off = Obs::disabled();
//! off.inc(Layer::Rbc, "sent"); // no-op, no allocation
//! assert!(off.metrics_snapshot().is_empty());
//! ```

#![deny(missing_docs)]

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod sink;

pub use event::{Event, EventKind, Layer};
pub use metrics::{HistogramSnapshot, Metrics, MetricsSnapshot};
pub use recorder::FlightRecorder;

use std::sync::Arc;
use std::time::Instant;

/// The shared state behind an enabled [`Obs`] handle.
#[derive(Debug)]
pub struct ObsInner {
    /// Per-node metrics registry.
    pub metrics: Metrics,
    /// Per-node bounded event ring.
    pub recorder: FlightRecorder,
}

/// A per-node observability handle: either disabled (all operations are
/// a single branch) or an `Arc` to a recorder + metrics registry.
///
/// Clones share the same underlying state; a protocol wrapper, the
/// simulator, and a test can all hold handles to one node's registry.
#[derive(Clone, Debug, Default)]
pub struct Obs(Option<Arc<ObsInner>>);

impl Obs {
    /// A disabled handle: every recording call is a no-op.
    pub fn disabled() -> Obs {
        Obs(None)
    }

    /// An enabled handle with a flight recorder retaining
    /// `recorder_capacity` events.
    pub fn enabled(recorder_capacity: usize) -> Obs {
        Obs(Some(Arc::new(ObsInner {
            metrics: Metrics::new(),
            recorder: FlightRecorder::new(recorder_capacity),
        })))
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Bumps counter `<layer>.<name>` by one.
    #[inline]
    pub fn inc(&self, layer: Layer, name: &'static str) {
        if let Some(inner) = &self.0 {
            inner.metrics.add2(layer.as_str(), name, 1);
        }
    }

    /// Bumps counter `<layer>.<name>.<kind>` by one — the per-message-type
    /// form (`kind` is typically a wire-message discriminant). `name`
    /// must be `"sent"` or `"recv"`; other names fall back to the bare
    /// layer prefix (see [`name_of`]).
    #[inline]
    pub fn inc2(&self, layer: Layer, name: &'static str, kind: &'static str) {
        if let Some(inner) = &self.0 {
            inner.metrics.add2(name_of(layer, name), kind, 1);
        }
    }

    /// Adds `delta` to counter `<layer>.<name>`.
    #[inline]
    pub fn add(&self, layer: Layer, name: &'static str, delta: u64) {
        if let Some(inner) = &self.0 {
            inner.metrics.add2(layer.as_str(), name, delta);
        }
    }

    /// Sets gauge `<layer>.<name>` to `value`.
    #[inline]
    pub fn gauge_set(&self, layer: Layer, name: &'static str, value: u64) {
        if let Some(inner) = &self.0 {
            inner.metrics.gauge_set2(layer.as_str(), name, value);
        }
    }

    /// Records `value` into histogram `<layer>.<name>`.
    #[inline]
    pub fn observe(&self, layer: Layer, name: &'static str, value: u64) {
        if let Some(inner) = &self.0 {
            inner.metrics.observe2(layer.as_str(), name, value);
        }
    }

    /// Bumps counter `<layer>.<name>.<shard label>` by one — the
    /// per-shard form used by the multi-group router. Shard names come
    /// from the fixed [`shard_label`] table so the hot path stays
    /// allocation-free; groups past the table share one overflow label.
    #[inline]
    pub fn inc_shard(&self, layer: Layer, name: &'static str, shard: usize) {
        if let Some(inner) = &self.0 {
            inner
                .metrics
                .add2(sharded_name_of(layer, name), shard_label(shard), 1);
        }
    }

    /// Sets gauge `<layer>.<name>.<shard label>` to `value`.
    #[inline]
    pub fn gauge_set_shard(&self, layer: Layer, name: &'static str, shard: usize, value: u64) {
        if let Some(inner) = &self.0 {
            inner
                .metrics
                .gauge_set2(sharded_name_of(layer, name), shard_label(shard), value);
        }
    }

    /// Records `value` into histogram `<layer>.<name>.<shard label>`.
    #[inline]
    pub fn observe_shard(&self, layer: Layer, name: &'static str, shard: usize, value: u64) {
        if let Some(inner) = &self.0 {
            inner
                .metrics
                .observe2(sharded_name_of(layer, name), shard_label(shard), value);
        }
    }

    /// Records a structured event into the flight recorder.
    #[inline]
    pub fn event(&self, event: Event) {
        if let Some(inner) = &self.0 {
            inner.recorder.record(event);
        }
    }

    /// Opens a wall-clock span; when the returned guard drops, the
    /// elapsed nanoseconds land in histogram `<layer>.<name>` and a
    /// `SpanEnd` event is recorded. On a disabled handle the guard is
    /// inert.
    #[inline]
    pub fn span(&self, layer: Layer, name: &'static str) -> Span {
        Span {
            obs: self.clone(),
            layer,
            name,
            started: self.0.as_ref().map(|_| Instant::now()),
        }
    }

    /// Snapshot of this node's metrics (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.0 {
            Some(inner) => inner.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// The retained flight-recorder events, oldest first (empty when
    /// disabled).
    pub fn events(&self) -> Vec<Event> {
        match &self.0 {
            Some(inner) => inner.recorder.snapshot(),
            None => Vec::new(),
        }
    }

    /// Total events ever recorded (0 when disabled).
    pub fn recorded(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.recorder.recorded())
    }

    /// The recorder's bounded capacity (0 when disabled).
    pub fn recorder_capacity(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.recorder.capacity())
    }
}

/// Interns nothing: layer-qualified names are built from a fixed table
/// so the hot path stays `&'static`.
fn name_of(layer: Layer, name: &'static str) -> &'static str {
    // Only the message-direction counters use the three-part form; keep
    // the table tight and fall back to the bare name prefix elsewhere.
    match (layer, name) {
        (Layer::Net, "sent") => "net.sent",
        (Layer::Net, "recv") => "net.recv",
        (Layer::Rbc, "sent") => "rbc.sent",
        (Layer::Rbc, "recv") => "rbc.recv",
        (Layer::Cbc, "sent") => "cbc.sent",
        (Layer::Cbc, "recv") => "cbc.recv",
        (Layer::Abba, "sent") => "abba.sent",
        (Layer::Abba, "recv") => "abba.recv",
        (Layer::Mvba, "sent") => "mvba.sent",
        (Layer::Mvba, "recv") => "mvba.recv",
        (Layer::Abc, "sent") => "abc.sent",
        (Layer::Abc, "recv") => "abc.recv",
        (Layer::Scabc, "sent") => "scabc.sent",
        (Layer::Scabc, "recv") => "scabc.recv",
        (Layer::Optimistic, "sent") => "opt.sent",
        (Layer::Optimistic, "recv") => "opt.recv",
        (Layer::Fdabc, "sent") => "fdabc.sent",
        (Layer::Fdabc, "recv") => "fdabc.recv",
        (Layer::Rsm, "sent") => "rsm.sent",
        (Layer::Rsm, "recv") => "rsm.recv",
        _ => layer.as_str(),
    }
}

/// Distinct per-shard metric labels available before groups collapse
/// into the shared [`SHARD_OVERFLOW_LABEL`] slot.
pub const MAX_SHARD_LABELS: usize = 16;

/// Label recorded for shard ids at or past [`MAX_SHARD_LABELS`].
pub const SHARD_OVERFLOW_LABEL: &str = "gx";

/// The static metric label for shard (group) `shard`: `"g0"`, `"g1"`, …
/// up to [`MAX_SHARD_LABELS`] distinct groups, then the shared overflow
/// label. A fixed table keeps per-shard metric names `&'static` — the
/// same no-allocation guarantee the two-part names give the hot path.
pub fn shard_label(shard: usize) -> &'static str {
    const LABELS: [&str; MAX_SHARD_LABELS] = [
        "g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8", "g9", "g10", "g11", "g12", "g13",
        "g14", "g15",
    ];
    LABELS.get(shard).copied().unwrap_or(SHARD_OVERFLOW_LABEL)
}

/// The dotted layer-qualified prefixes that may carry a per-shard label
/// suffix. Like [`name_of`], a fixed table — unknown names fall back to
/// the bare layer prefix, merging into the aggregate series rather than
/// inventing unbounded key shapes.
fn sharded_name_of(layer: Layer, name: &'static str) -> &'static str {
    match (layer, name) {
        (Layer::Rsm, "request_latency") => "rsm.request_latency",
        (Layer::Abc, "rounds_in_flight") => "abc.rounds_in_flight",
        (Layer::Shard, "routed") => "shard.routed",
        (Layer::Shard, "cross_prepare") => "shard.cross_prepare",
        (Layer::Shard, "cross_abort") => "shard.cross_abort",
        (Layer::Shard, "round") => "shard.round",
        (Layer::Shard, "applied") => "shard.applied",
        _ => layer.as_str(),
    }
}

/// RAII wall-clock span guard returned by [`Obs::span`].
#[derive(Debug)]
pub struct Span {
    obs: Obs,
    layer: Layer,
    name: &'static str,
    started: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.obs.observe(self.layer, self.name, ns);
            let mut e = Event::new(self.layer, EventKind::SpanEnd, 0);
            e.value = ns;
            self.obs.event(e);
        }
    }
}

/// Process-global counters for code with no per-node context — the
/// threshold-crypto primitives. Gated on one relaxed atomic load so
/// disabled cost is a predictable branch.
pub mod global {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static EXP: AtomicU64 = AtomicU64::new(0);
    static MULTI_EXP: AtomicU64 = AtomicU64::new(0);
    static BATCH_VERIFY: AtomicU64 = AtomicU64::new(0);
    static MEMBERSHIP_TEST: AtomicU64 = AtomicU64::new(0);

    /// Turns global crypto-op counting on.
    pub fn enable() {
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Turns global crypto-op counting off.
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Whether counting is on.
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Counts one modular exponentiation.
    #[inline]
    pub fn crypto_exp() {
        if is_enabled() {
            EXP.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one simultaneous multi-exponentiation.
    #[inline]
    pub fn crypto_multi_exp() {
        if is_enabled() {
            MULTI_EXP.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one batched share/proof verification.
    #[inline]
    pub fn crypto_batch_verify() {
        if is_enabled() {
            BATCH_VERIFY.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one group-element membership test (the validation every
    /// element decoded from untrusted bytes goes through).
    #[inline]
    pub fn crypto_membership_test() {
        if is_enabled() {
            MEMBERSHIP_TEST.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current `(exp, multi_exp, batch_verify, membership_test)` totals
    /// as a snapshot with `crypto.*` counter names.
    pub fn snapshot() -> crate::MetricsSnapshot {
        let mut s = crate::MetricsSnapshot::default();
        s.counters
            .insert("crypto.exp".into(), EXP.load(Ordering::Relaxed));
        s.counters
            .insert("crypto.multi_exp".into(), MULTI_EXP.load(Ordering::Relaxed));
        s.counters.insert(
            "crypto.batch_verify".into(),
            BATCH_VERIFY.load(Ordering::Relaxed),
        );
        s.counters.insert(
            "crypto.membership_test".into(),
            MEMBERSHIP_TEST.load(Ordering::Relaxed),
        );
        s
    }

    /// Zeroes the counters (does not change enablement).
    pub fn reset() {
        EXP.store(0, Ordering::Relaxed);
        MULTI_EXP.store(0, Ordering::Relaxed);
        BATCH_VERIFY.store(0, Ordering::Relaxed);
        MEMBERSHIP_TEST.store(0, Ordering::Relaxed);
    }

    thread_local! {
        static SHARE_FALLBACK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Counts `shares` per-share fallback re-verifications taken after
    /// a batch equation failed. Thread-local and always on — tests
    /// assert spam-cost bounds on this thread's count without
    /// interference from parallel test threads, and the fallback path
    /// is rare enough that the increment is free in practice.
    #[inline]
    pub fn crypto_share_fallback(shares: u64) {
        SHARE_FALLBACK.with(|c| c.set(c.get() + shares));
    }

    /// This thread's running fallback re-verification count.
    pub fn share_fallback_count() -> u64 {
        SHARE_FALLBACK.with(|c| c.get())
    }

    /// Zeroes this thread's fallback counter.
    pub fn reset_share_fallback() {
        SHARE_FALLBACK.with(|c| c.set(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let o = Obs::disabled();
        assert!(!o.is_enabled());
        o.inc(Layer::Rbc, "sent");
        o.inc2(Layer::Rbc, "sent", "echo");
        o.observe(Layer::Net, "delivery_steps", 3);
        o.event(Event::new(Layer::Net, EventKind::MsgSent, 0));
        drop(o.span(Layer::Rsm, "apply_ns"));
        assert!(o.metrics_snapshot().is_empty());
        assert!(o.events().is_empty());
        assert_eq!(o.recorded(), 0);
    }

    #[test]
    fn enabled_records_and_clones_share_state() {
        let o = Obs::enabled(16);
        let o2 = o.clone();
        o.inc(Layer::Abba, "rounds");
        o2.inc(Layer::Abba, "rounds");
        o.inc2(Layer::Rbc, "sent", "echo");
        o.event(Event::new(Layer::Abba, EventKind::Decide, 1));
        let snap = o.metrics_snapshot();
        assert_eq!(snap.counter("abba.rounds"), 2);
        assert_eq!(snap.counter("rbc.sent.echo"), 1);
        assert_eq!(o2.events().len(), 1);
    }

    #[test]
    fn span_lands_in_histogram_and_ring() {
        let o = Obs::enabled(8);
        drop(o.span(Layer::Rsm, "apply_ns"));
        let snap = o.metrics_snapshot();
        assert_eq!(snap.hists["rsm.apply_ns"].count, 1);
        let evs = o.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::SpanEnd);
    }

    #[test]
    fn shard_metrics_get_per_group_names() {
        let o = Obs::enabled(8);
        o.inc_shard(Layer::Shard, "routed", 0);
        o.inc_shard(Layer::Shard, "routed", 0);
        o.inc_shard(Layer::Shard, "routed", 3);
        o.inc_shard(Layer::Shard, "cross_prepare", 1);
        o.inc_shard(Layer::Shard, "cross_abort", 1);
        o.gauge_set_shard(Layer::Abc, "rounds_in_flight", 2, 5);
        o.gauge_set_shard(Layer::Shard, "round", 2, 17);
        o.observe_shard(Layer::Rsm, "request_latency", 1, 640);
        // Groups past the label table collapse into the overflow label.
        o.inc_shard(Layer::Shard, "routed", MAX_SHARD_LABELS + 3);
        let s = o.metrics_snapshot();
        assert_eq!(s.counter("shard.routed.g0"), 2);
        assert_eq!(s.counter("shard.routed.g3"), 1);
        assert_eq!(s.counter("shard.cross_prepare.g1"), 1);
        assert_eq!(s.counter("shard.cross_abort.g1"), 1);
        assert_eq!(s.counter("shard.routed.gx"), 1);
        assert_eq!(s.gauges["abc.rounds_in_flight.g2"], 5);
        assert_eq!(s.gauges["shard.round.g2"], 17);
        assert_eq!(s.hists["rsm.request_latency.g1"].count, 1);
        assert_eq!(shard_label(9999), SHARD_OVERFLOW_LABEL);
        // Disabled handles stay no-ops.
        let off = Obs::disabled();
        off.inc_shard(Layer::Shard, "routed", 0);
        assert!(off.metrics_snapshot().is_empty());
    }

    #[test]
    fn global_counters_gate_on_enable() {
        global::reset();
        global::disable();
        global::crypto_exp();
        assert_eq!(global::snapshot().counter("crypto.exp"), 0);
        global::enable();
        global::crypto_exp();
        global::crypto_multi_exp();
        global::crypto_multi_exp();
        global::crypto_batch_verify();
        for _ in 0..3 {
            global::crypto_membership_test();
        }
        let s = global::snapshot();
        assert_eq!(s.counter("crypto.exp"), 1);
        assert_eq!(s.counter("crypto.multi_exp"), 2);
        assert_eq!(s.counter("crypto.batch_verify"), 1);
        assert_eq!(s.counter("crypto.membership_test"), 3);
        global::disable();
        global::reset();
    }
}
