//! The per-layer ledger of a traced run: where a request's CPU,
//! messages, bytes and waiting went, by layer (= crate).
//!
//! Three sources, all outside the program: (A) the wrapper spans of
//! [`crate::trace`], (B) counters the program already exports, read at
//! the window's edges or at shutdown, (C) the [`crate::drill`] unit
//! costs. "Per request" divides by the requests completed inside the
//! traced window; the few counters only readable at shutdown divide by
//! every request the cluster ever served, and are marked (lifetime).

use crate::client::Outcome;
use crate::cluster::NodeResult;
use crate::drill::Drills;
use crate::stats::percentile_ms;
use crate::trace::{Kind, Span, SpanName};
use crate::{metric, Metric};
use std::collections::HashMap;

/// Default proposal batch cap of the shipped configuration
/// (`AbcTuning::default().batch_cap`), for `protocols.batch_fill`.
fn batch_cap() -> f64 {
    sintra::protocols::abc::AbcTuning::default().batch_cap as f64
}

/// What [`per_layer`] needs besides the traced window itself.
pub struct Context<'a> {
    /// Requests the traced cluster served over its whole life.
    pub lifetime_requests: u64,
    pub driver_tids: &'a [u32],
    /// `cpu_ms_per_req` of the untraced reference window of this run.
    pub untraced_cpu_ms_per_req: f64,
    pub drills: &'a Drills,
}

/// Every span of the run, replica by replica, client spans last.
pub fn spans<'a>(outcome: &'a Outcome, nodes: &'a [NodeResult]) -> impl Iterator<Item = &'a Span> {
    nodes
        .iter()
        .filter_map(|n| n.trace.as_ref())
        .flat_map(|t| &t.spans)
        .chain(&outcome.spans)
}

pub fn per_layer(cx: &Context, outcome: &mut Outcome, nodes: &[NodeResult]) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| out.push(metric(name, value, unit));

    let reqs = (outcome.tally.completed_in_window as f64).max(1.0);
    let lifetime = (cx.lifetime_requests as f64).max(1.0);
    let live = nodes.len() as f64;
    let (start, end) = (
        outcome.start.traced.as_ref().expect("traced run"),
        outcome.end.traced.as_ref().expect("traced run"),
    );
    let traces = || nodes.iter().filter_map(|n| n.trace.as_ref());
    let counter = |name: &str| nodes.iter().map(|n| n.metrics.counter(name)).sum::<u64>() as f64;

    // --- source A: wrapper spans -------------------------------------
    let mut recv = [(0u64, 0u64); Kind::COUNT]; // (messages, handler CPU ns) by kind received
    let (mut busy_ns, mut tick_ns, mut input_ns) = (0u64, 0u64, 0u64);
    let mut inject_wait = Vec::new();
    // Per request: where it entered, and when each replica replied.
    let mut handed: HashMap<u64, (u8, u64)> = HashMap::new();
    let mut replied: HashMap<(u64, u8), u64> = HashMap::new();
    let mut completed: HashMap<u64, u64> = HashMap::new();
    for s in spans(outcome, nodes) {
        match s.name {
            SpanName::Message => {
                let slot = &mut recv[s.kind.expect("message spans carry a kind") as usize];
                slot.0 += 1;
                slot.1 += s.cpu_ns;
                busy_ns += s.cpu_ns;
            }
            SpanName::Tick => {
                tick_ns += s.cpu_ns;
                busy_ns += s.cpu_ns;
            }
            SpanName::Input => {
                input_ns += s.cpu_ns;
                busy_ns += s.cpu_ns;
            }
            SpanName::LinkUp => busy_ns += s.cpu_ns,
            SpanName::InjectWait => {
                inject_wait.push(s.end_ns - s.start_ns);
                handed.insert(s.req, (s.node, s.start_ns));
            }
            SpanName::Reply => {
                replied.entry((s.req, s.node)).or_insert(s.end_ns);
            }
            SpanName::Request => {
                completed.insert(s.req, s.end_ns);
            }
            SpanName::Collect => {}
        }
    }
    let mut sent = [(0u64, 0u64); Kind::COUNT];
    let (mut frames, mut bytes) = (0u64, 0u64);
    for t in traces() {
        for (total, part) in sent.iter_mut().zip(&t.sent) {
            total.0 += part.0;
            total.1 += part.1;
        }
        frames += t.remote_frames;
        bytes += t.remote_bytes;
    }
    // Latency split at the submitting replica's own reply.
    let (mut submit_to_apply, mut apply_to_client) = (Vec::new(), Vec::new());
    for (req, (node, handed_ns)) in &handed {
        let (Some(reply_ns), Some(done_ns)) = (replied.get(&(*req, *node)), completed.get(req))
        else {
            continue;
        };
        submit_to_apply.push(reply_ns.saturating_sub(*handed_ns));
        // The client may have had its qualified set before the
        // submitting replica answered: that is zero, not negative.
        apply_to_client.push(done_ns.saturating_sub(*reply_ns));
    }

    // --- source B: thread accounting at the window's edges -----------
    let (mut driver_run, mut reactor_run, mut client_run) = (0u64, 0u64, 0u64);
    let (mut replica_run, mut replica_wait) = (0u64, 0u64);
    for (tid, after) in &end.sched {
        let before = start.sched.get(tid).copied().unwrap_or_default();
        let run = after.run_ns.saturating_sub(before.run_ns);
        let wait = after.wait_ns.saturating_sub(before.wait_ns);
        if *tid == outcome.client_tid {
            client_run += run;
            continue;
        }
        if cx.driver_tids.contains(tid) {
            driver_run += run;
        } else {
            // Neither the client nor a driver: a reactor loop.
            reactor_run += run;
        }
        replica_run += run;
        replica_wait += wait;
    }
    let cpu_ms_per_req = (outcome.end.cpu_s - outcome.start.cpu_s) * 1e3 / reqs;
    let per_req_ms = |ns: u64| ns as f64 / 1e6 / reqs;

    // --- net ----------------------------------------------------------
    push("net.frames_per_req", frames as f64 / reqs, "count");
    push("net.bytes_per_req", bytes as f64 / reqs, "B");
    push(
        "net.driver_self_ms_per_req",
        per_req_ms(driver_run.saturating_sub(busy_ns)),
        "ms",
    );
    push("net.reactor_cpu_ms_per_req", per_req_ms(reactor_run), "ms");
    push(
        "net.reactor_wakeups_per_req",
        counter("net.reactor_wakeups") / lifetime,
        "count",
    );
    push(
        "net.runq_wait_share",
        replica_wait as f64 / ((replica_run + replica_wait) as f64).max(1.0),
        "ratio",
    );
    push(
        "net.inject_wait_ms_p50",
        percentile_ms(&mut inject_wait, 0.5),
        "ms",
    );
    push(
        "net.outbound_dropped",
        nodes.iter().map(|n| n.outbound_dropped).sum::<u64>() as f64,
        "count",
    );
    push(
        "net.link_degraded_events",
        counter("net.link_degraded"),
        "count",
    );

    // --- protocols ----------------------------------------------------
    let rounds = (end.rounds - start.rounds) as f64;
    push("protocols.rounds_per_req", rounds / reqs, "count");
    push(
        "protocols.batch_fill",
        reqs / (batch_cap() * live * rounds.max(1.0)),
        "ratio",
    );
    for k in Kind::REPORTED {
        let (n, b) = sent[k as usize];
        push(
            &format!("protocols.msgs_per_req.{}", k.name()),
            n as f64 / reqs,
            "count",
        );
        push(
            &format!("protocols.bytes_per_req.{}", k.name()),
            b as f64 / reqs,
            "B",
        );
        let (got, cpu) = recv[k as usize];
        push(
            &format!("protocols.handle_us_per_msg.{}", k.name()),
            cpu as f64 / 1e3 / (got as f64).max(1.0),
            "us",
        );
    }
    push("protocols.busy_ms_per_req", per_req_ms(busy_ns), "ms");
    push("protocols.tick_ms_per_req", per_req_ms(tick_ns), "ms");
    let (jobs, off_thread) = nodes
        .iter()
        .filter_map(|n| n.pool)
        .fold((0u64, 0u64), |(j, o), p| {
            (j + p.submitted, o + p.ran_off_thread)
        });
    push(
        "protocols.verify_jobs_per_req",
        jobs as f64 / lifetime,
        "count",
    );
    push(
        "protocols.verify_offthread_share",
        off_thread as f64 / (jobs as f64).max(1.0),
        "ratio",
    );

    // --- crypto -------------------------------------------------------
    let exps = (end.exps - start.exps) as f64 / reqs;
    let multi_exps = (end.multi_exps - start.multi_exps) as f64 / reqs;
    push("crypto.exps_per_req", exps, "count");
    push("crypto.multi_exps_per_req", multi_exps, "count");
    push(
        "crypto.batch_verifies_per_req",
        (end.batch_verifies - start.batch_verifies) as f64 / reqs,
        "count",
    );
    push(
        "crypto.share_fallbacks",
        nodes.iter().map(|n| n.share_fallbacks).sum::<u64>() as f64,
        "count",
    );
    let modelled_ms = (exps * cx.drills.exp_ns + multi_exps * cx.drills.multi_exp_ns) / 1e6;
    push(
        "crypto.model_cpu_share",
        modelled_ms / cpu_ms_per_req,
        "ratio",
    );

    // --- rsm ----------------------------------------------------------
    push("rsm.input_us_per_req", input_ns as f64 / 1e3 / reqs, "us");
    push(
        "rsm.submit_to_apply_ms_p50",
        percentile_ms(&mut submit_to_apply, 0.5),
        "ms",
    );
    push(
        "rsm.apply_to_client_ms_p50",
        percentile_ms(&mut apply_to_client, 0.5),
        "ms",
    );
    let measured = (outcome.tally.attempted as f64).max(1.0);
    push(
        "rsm.client_verify_us_per_req",
        outcome.tally.collect_cpu_ns as f64 / 1e3 / measured,
        "us",
    );
    push(
        "rsm.client_replies_used_per_req",
        outcome.tally.replies_used as f64 / measured,
        "count",
    );
    push(
        "rsm.ckpts_per_req",
        counter("rsm.ckpt_taken") / live / lifetime,
        "count",
    );

    // --- obs, loadgen, and the ledger's own closure -------------------
    push(
        "obs.trace_overhead_share",
        (cpu_ms_per_req - cx.untraced_cpu_ms_per_req) / cx.untraced_cpu_ms_per_req,
        "ratio",
    );
    push(
        "obs.recorder_events_per_req",
        (end.recorded - start.recorded) as f64 / reqs,
        "count",
    );
    push(
        "loadgen.lag_p95_ms",
        percentile_ms(&mut outcome.tally.lag_ns, 0.95),
        "ms",
    );
    let all_run = (driver_run + reactor_run + client_run) as f64;
    push(
        "loadgen.cpu_share",
        client_run as f64 / all_run.max(1.0),
        "ratio",
    );
    // busy + driver self + reactor + client, over what the process was
    // billed: below 0.9 the ledger has lost a thread.
    push(
        "ledger.cpu_accounted_share",
        all_run / 1e6 / reqs / cpu_ms_per_req,
        "ratio",
    );

    out.extend(
        cx.drills
            .metrics
            .iter()
            .map(|m| metric(&m.name, m.value, m.unit)),
    );
    out
}
