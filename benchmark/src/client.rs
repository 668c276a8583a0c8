//! The single client thread: generates load, collects reply shares,
//! and keeps every latency sample.
//!
//! A request completes when `ReplyCollector::signed_reply()` returns a
//! combined threshold signature from a qualified set. Open-loop latency
//! counts from the instant the request was *due*, so a stalled generator
//! cannot hide the wait it imposes; closed-loop latency counts from the
//! send.

use crate::cluster::{Cluster, Collector};
use crate::host::{
    current_tid, ns_since, process_cpu_s, stolen_cpu_s, stolen_share, thread_cpu_ns, thread_sched,
    Sched,
};
use crate::trace::{req_id, Gate, Span, SpanName, CLIENT, NONE};
use crate::workload::{Load, Request, Schedule};
use sintra::protocols::common::{digest, Digest};
use sintra::rsm::{Reply, ServiceReply};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// A request with no qualified reply this long after it was due has
/// failed.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Every `VERIFY_EVERY`-th completed reply (plus the first and the
/// last) is checked against the service key as a third party would.
const VERIFY_EVERY: u64 = 16;

/// Window bookkeeping with explicit clocks, so the accounting can be
/// tested without a cluster.
#[derive(Debug)]
pub struct Tally {
    w0: Instant,
    w1: Instant,
    /// Requests due (open loop) or sent (closed loop) inside the window.
    pub attempted: u64,
    /// Of those, the ones that got no qualified reply in time.
    pub failed: u64,
    /// Completions that happened inside the window, whenever the
    /// request was issued: the numerator of throughput.
    pub completed_in_window: u64,
    /// Due/send → qualified reply, for every attempted request that
    /// completed.
    pub latencies_ns: Vec<u64>,
    /// Actual hand-off − due time, for every attempted request.
    pub lag_ns: Vec<u64>,
    /// Shares accepted by collectors of measured requests.
    pub replies_used: u64,
    /// CPU spent in `add` + `signed_reply` for measured requests
    /// (traced run only: the thread CPU clock is a system call).
    pub collect_cpu_ns: u64,
}

impl Tally {
    pub fn new(w0: Instant, w1: Instant) -> Tally {
        Tally {
            w0,
            w1,
            attempted: 0,
            failed: 0,
            completed_in_window: 0,
            latencies_ns: Vec::with_capacity(1 << 16),
            lag_ns: Vec::with_capacity(1 << 16),
            replies_used: 0,
            collect_cpu_ns: 0,
        }
    }

    fn in_window(&self, at: Instant) -> bool {
        self.w0 <= at && at < self.w1
    }

    /// A request whose clock starts at `from` was handed off at `now`.
    /// Returns whether it counts as measured.
    pub fn issued(&mut self, from: Instant, now: Instant) -> bool {
        let measured = self.in_window(from);
        if measured {
            self.attempted += 1;
            self.lag_ns.push(ns_since(from, now));
        }
        measured
    }

    pub fn completed(&mut self, from: Instant, measured: bool, now: Instant) {
        if measured {
            self.latencies_ns.push(ns_since(from, now));
        }
        if self.in_window(now) {
            self.completed_in_window += 1;
        }
    }

    pub fn expired(&mut self, measured: bool) {
        if measured {
            self.failed += 1;
        }
    }
}

/// Readings taken at a window edge.
#[derive(Debug)]
pub struct Mark {
    pub at: Instant,
    pub cpu_s: f64,
    /// CPU seconds the hypervisor has taken from the machine so far.
    pub stolen_s: f64,
    /// Counters only a traced run reads.
    pub traced: Option<TracedMark>,
}

#[derive(Debug)]
pub struct TracedMark {
    pub sched: BTreeMap<u32, Sched>,
    pub exps: u64,
    pub multi_exps: u64,
    pub batch_verifies: u64,
    pub rounds: u64,
    pub recorded: u64,
}

/// What the client measured over one window.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub start: Mark,
    pub end: Mark,
    pub client_tid: u32,
    /// Client-side spans (traced run).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Share of the machine's CPU time the hypervisor took during the
    /// window.
    pub fn stolen_share(&self) -> f64 {
        let window_s = (self.end.at - self.start.at).as_secs_f64();
        stolen_share(self.start.stolen_s, self.end.stolen_s, window_s)
    }
}

struct Pending {
    collector: Collector,
    payload: Vec<u8>,
    from: Instant,
    measured: bool,
}

pub struct Client {
    cluster: Cluster,
    schedule: Schedule,
    gate: Option<Gate>,
    pending: HashMap<Digest, Pending>,
    seqs: HashSet<u64>,
    issued: u64,
    completed: u64,
    last: Option<(Vec<u8>, ServiceReply)>,
    spans: Vec<Span>,
}

impl Client {
    /// A `gate` makes this the client of a traced run.
    pub fn new(cluster: Cluster, schedule: Schedule, gate: Option<Gate>) -> Client {
        let spans = Vec::with_capacity(if gate.is_some() { 1 << 17 } else { 0 });
        Client {
            cluster,
            schedule,
            gate,
            pending: HashMap::new(),
            seqs: HashSet::new(),
            issued: 0,
            completed: 0,
            last: None,
            spans,
        }
    }

    /// Requests handed to the cluster so far, warm-up included.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Gives the cluster back, to be shut down.
    pub fn into_cluster(self) -> Cluster {
        self.cluster
    }

    /// Issues `next` and puts the schedule's following request in its
    /// place.
    fn issue_next(&mut self, next: &mut Request, from: Instant, measured: bool) {
        let following = self.schedule.next().expect("endless schedule");
        self.issue(std::mem::replace(next, following), from, measured);
    }

    fn issue(&mut self, req: Request, from: Instant, measured: bool) {
        self.pending.insert(
            digest(&req.payload),
            Pending {
                collector: self.cluster.collector(&req.payload),
                payload: req.payload.clone(),
                from,
                measured,
            },
        );
        self.cluster.submit(req.target, req.payload);
        self.issued += 1;
    }

    /// Feeds one share to its request's collector; on a qualified set,
    /// completes the request. Shares of requests already completed are
    /// dropped unverified.
    fn on_reply(&mut self, reply: Reply, mut tally: Option<&mut Tally>) -> Result<(), String> {
        let key = reply.request;
        let Some(p) = self.pending.get_mut(&key) else {
            return Ok(());
        };
        // The thread CPU clock is a system call; only a traced run pays.
        let traced = self.gate.is_some();
        let started = Instant::now();
        let cpu0 = if traced { thread_cpu_ns() } else { 0 };
        if !p.collector.add(reply) {
            return Err("a replica's reply share was rejected by the collector".into());
        }
        let signed = p.collector.signed_reply();
        let cpu_ns = if traced { thread_cpu_ns() - cpu0 } else { 0 };
        let now = Instant::now();
        let (from, measured) = (p.from, p.measured);
        if let (true, Some(tally)) = (measured, tally.as_deref_mut()) {
            tally.replies_used += 1;
            tally.collect_cpu_ns += cpu_ns;
        }
        let recording = self.gate.as_ref().filter(|g| g.window().is_some());
        if let Some(epoch) = recording.map(|g| g.epoch) {
            let span = Span {
                name: SpanName::Collect,
                node: CLIENT,
                kind: None,
                round: NONE,
                req: req_id(&key),
                start_ns: ns_since(epoch, started),
                end_ns: ns_since(epoch, now),
                cpu_ns,
            };
            self.spans.push(span);
            if signed.is_some() {
                self.spans.push(Span {
                    name: SpanName::Request,
                    start_ns: ns_since(epoch, from),
                    cpu_ns: 0,
                    ..span
                });
            }
        }
        let Some(signed) = signed else {
            return Ok(());
        };
        let p = self.pending.remove(&key).expect("pending entry");
        if !self.seqs.insert(signed.seq) {
            return Err(format!("two requests share seq {}", signed.seq));
        }
        self.completed += 1;
        if self.completed % VERIFY_EVERY == 1 && !self.cluster.verify_signed(&p.payload, &signed) {
            return Err(format!("reply {} fails verify_signed", signed.seq));
        }
        if let Some(tally) = tally {
            tally.completed(from, measured, now);
        }
        self.last = Some((p.payload, signed));
        Ok(())
    }

    /// Drops requests past their deadline.
    fn expire(&mut self, now: Instant, tally: &mut Tally) {
        self.pending.retain(|_, p| {
            let alive = now < p.from + REQUEST_DEADLINE;
            if !alive {
                tally.expired(p.measured);
            }
            alive
        });
    }

    /// Sends the schedule's next request and waits for its qualified
    /// reply: the last step of set-up, which proves the mesh is up.
    pub fn first_request(&mut self) -> Result<(), String> {
        let req = self.schedule.next().expect("endless schedule");
        let sent = Instant::now();
        self.issue(req, sent, false);
        while !self.pending.is_empty() {
            let left = (sent + 3 * REQUEST_DEADLINE).saturating_duration_since(Instant::now());
            match self.cluster.replies().recv_timeout(left) {
                Ok(reply) => self.on_reply(reply, None)?,
                Err(_) => return Err("the first request got no qualified reply".into()),
            }
        }
        Ok(())
    }

    fn mark(&self) -> Mark {
        Mark {
            at: Instant::now(),
            cpu_s: process_cpu_s(),
            stolen_s: stolen_cpu_s(),
            traced: self.gate.as_ref().map(|_| {
                let crypto = sintra::obs::global::snapshot();
                TracedMark {
                    sched: thread_sched(),
                    exps: crypto.counter("crypto.exp"),
                    multi_exps: crypto.counter("crypto.multi_exp"),
                    batch_verifies: crypto.counter("crypto.batch_verify"),
                    rounds: self.cluster.rounds(),
                    recorded: self.cluster.recorded(),
                }
            }),
        }
    }

    /// Offers `load` for `warm` (not measured) and then `window`
    /// (measured), stops issuing, and waits until every request issued
    /// has completed or failed.
    pub fn run(&mut self, load: Load, warm: Duration, window: Duration) -> Result<Outcome, String> {
        let t0 = Instant::now();
        let (w0, w1) = (t0 + warm, t0 + warm + window);
        let mut tally = Tally::new(w0, w1);
        let mut next = self.schedule.next().expect("endless schedule");
        // The schedule's clock: the next request's slot starts now.
        let slot_ns = match load {
            Load::Open { rate } => 1e9 / rate,
            Load::Closed { .. } => 0.0,
        };
        let origin_ns = (next.index as f64 * slot_ns) as u64;
        let due_of = |r: &Request| t0 + Duration::from_nanos(r.due_ns.saturating_sub(origin_ns));

        let (mut start, mut end) = (None, None);
        let mut last_expiry = t0;
        loop {
            let now = Instant::now();
            if start.is_none() && now >= w0 {
                start = Some(self.mark());
                if let Some(g) = &self.gate {
                    g.open();
                }
            }
            if end.is_none() && now >= w1 {
                if let Some(g) = &self.gate {
                    g.close();
                }
                end = Some(self.mark());
            }
            let draining = end.is_some();

            let mut wake = if draining {
                now + Duration::from_millis(100)
            } else if start.is_none() {
                w0
            } else {
                w1
            };
            match load {
                Load::Open { .. } => loop {
                    let due = due_of(&next);
                    if due >= w1 {
                        break;
                    }
                    if due > now {
                        wake = wake.min(due);
                        break;
                    }
                    let measured = tally.issued(due, Instant::now());
                    self.issue_next(&mut next, due, measured);
                },
                Load::Closed { outstanding } => {
                    while !draining && self.pending.len() < outstanding {
                        let sent = Instant::now();
                        let measured = tally.issued(sent, sent);
                        self.issue_next(&mut next, sent, measured);
                    }
                }
            }
            if draining && self.pending.is_empty() {
                break;
            }
            if now.duration_since(last_expiry) >= Duration::from_secs(1) {
                last_expiry = now;
                self.expire(now, &mut tally);
            }
            match self
                .cluster
                .replies()
                .recv_timeout(wake.saturating_duration_since(Instant::now()))
            {
                Ok(reply) => self.on_reply(reply, Some(&mut tally))?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("every replica thread has exited".into())
                }
            }
        }
        Ok(Outcome {
            tally,
            start: start.expect("window opened"),
            end: end.expect("window closed"),
            client_tid: current_tid(),
            spans: std::mem::take(&mut self.spans),
        })
    }

    /// The end-of-run half of the correctness gate that the client can
    /// check: the last reply verifies, and every live replica has
    /// applied exactly the requests issued.
    pub fn settle(&self, failed: u64) -> Result<(), String> {
        if let Some((payload, reply)) = &self.last {
            if !self.cluster.verify_signed(payload, reply) {
                return Err(format!("last reply {} fails verify_signed", reply.seq));
            }
        }
        let deadline = Instant::now() + REQUEST_DEADLINE;
        loop {
            let applied = self.cluster.applied();
            if applied.iter().all(|a| *a == self.issued) {
                return Ok(());
            }
            if applied.iter().any(|a| *a > self.issued) {
                return Err(format!(
                    "replicas applied {applied:?}, more than the {} issued",
                    self.issued
                ));
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "replicas applied {applied:?} of {} issued ({failed} failed)",
                    self.issued
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// The generator stalls for 25 ms: three requests due at 10, 20 and
    /// 30 ms are all handed off at 35 ms and complete at 40 ms. Latency
    /// must count from the due time, and the stall must show as lag.
    #[test]
    fn open_loop_counts_from_due_time_under_a_generator_stall() {
        let t = Instant::now();
        let mut tally = Tally::new(t, t + ms(1000));
        let dues = [10, 20, 30].map(|d| t + ms(d));
        let handed = t + ms(35);
        let measured: Vec<bool> = dues.iter().map(|d| tally.issued(*d, handed)).collect();
        assert_eq!(measured, [true, true, true]);
        for d in dues {
            tally.completed(d, true, t + ms(40));
        }
        assert_eq!(tally.attempted, 3);
        assert_eq!(tally.completed_in_window, 3);
        assert_eq!(
            tally.latencies_ns,
            [30_000_000, 20_000_000, 10_000_000],
            "from due, not from hand-off"
        );
        assert_eq!(tally.lag_ns, [25_000_000, 15_000_000, 5_000_000]);
    }

    #[test]
    fn only_requests_due_in_the_window_are_measured() {
        let t = Instant::now();
        let (w0, w1) = (t + ms(100), t + ms(200));
        let mut tally = Tally::new(w0, w1);
        // Warm-up request, completes inside the window: counts for
        // throughput, not for latency.
        assert!(!tally.issued(t + ms(90), t + ms(90)));
        tally.completed(t + ms(90), false, t + ms(110));
        // Measured request that completes after the window: counts for
        // latency, not for throughput.
        assert!(tally.issued(t + ms(190), t + ms(190)));
        tally.completed(t + ms(190), true, t + ms(210));
        // Due exactly at the window's end: not part of it.
        assert!(!tally.issued(w1, w1));
        // A measured request that never completes.
        assert!(tally.issued(t + ms(150), t + ms(150)));
        tally.expired(true);
        tally.expired(false);
        assert_eq!(tally.attempted, 2);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.completed_in_window, 1);
        assert_eq!(tally.latencies_ns, [20_000_000]);
    }
}
