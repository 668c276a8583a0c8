//! End-to-end throughput benchmark: an open-loop load generator over a
//! TCP loopback cluster of full RSM replicas.
//!
//! Emits `BENCH_throughput.json` (in the working directory) with
//! requests/s and p50/p99 request latency versus offered load for
//! n = 4/7/10/16, plus an unbatched (`batch_cap = 1`, `K = 1`)
//! baseline at n = 4 — the configuration every request rode before the
//! batched/pipelined hot path. ROADMAP item 2's "order requests at
//! raw wire speed" claim is tracked against this file.
//!
//! Each configuration is measured self-calibratingly:
//!
//! 1. A **capacity** point injects the whole request budget up front
//!    (offered load ≫ capacity) and divides by the time until every
//!    replica's applied watermark reaches the total — the saturated
//!    requests/s the cluster can order.
//! 2. Two **paced** points then offer ~30% and ~70% of that measured
//!    capacity as an open-loop schedule (requests are injected on the
//!    wall clock regardless of completions), giving the latency-vs-load
//!    rows a closed feedback loop would hide.
//!
//! Requests are spread across all replicas (each submits its share), so
//! every party's proposal batching is exercised, and latency is read
//! from the `rsm.request_latency` histograms each submitter records.
//!
//! Usage:
//!
//! ```text
//! load_gen                 # full sweep, writes BENCH_throughput.json
//! load_gen --quick         # smaller budgets (fast local iteration)
//! load_gen --smoke         # CI gate: one short n=4 run, asserts a
//!                          #   requests/s floor, writes nothing
//! load_gen --floor 25      # override the smoke floor (requests/s)
//! ```

use sintra::net::{run_tcp_node_driven, Protocol, TcpNodeConfig};
use sintra::obs::HistogramSnapshot;
use sintra::rsm::{atomic_replicas_with, KvMachine, ReplicaConfig, RsmNode};
use sintra::setup::dealt_system;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// (n, t) configurations the sweep measures.
const CONFIGS: &[(usize, usize)] = &[(4, 1), (7, 2), (10, 3), (16, 5)];

/// Wall-clock budget for the paced points.
const PACED_SECS: f64 = 2.0;

/// Extra time allowed for the cluster to drain after injection ends.
const DRAIN_BUDGET: Duration = Duration::from_secs(60);

/// Flight-recorder capacity per node (metrics are what we read).
const RECORDER_CAP: usize = 4096;

#[derive(Clone, Copy)]
struct Knobs {
    batch_cap: usize,
    batch_bytes: usize,
    pipeline: usize,
}

struct Point {
    offered_rps: f64,
    achieved_rps: f64,
    total: u64,
    elapsed_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    completed: bool,
}

struct ConfigResult {
    n: usize,
    t: usize,
    mode: &'static str,
    knobs: Knobs,
    points: Vec<Point>,
}

/// Binds `n` ephemeral loopback listeners to find free ports, then
/// releases them for the replicas to claim (a short `bind_retry`
/// absorbs the race).
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

fn build_cluster(n: usize, t: usize, seed: u64, knobs: Knobs) -> Vec<RsmNode> {
    let (public, bundles) = dealt_system(n, t, seed).expect("valid (n, t)");
    let cfg = ReplicaConfig::new()
        .seed(seed)
        .batch_cap(knobs.batch_cap)
        .batch_bytes(knobs.batch_bytes)
        .pipeline_depth(knobs.pipeline as u64);
    atomic_replicas_with(&cfg, public, bundles, |_| KvMachine::new())
}

/// Runs one load point: `total` requests split across the replicas,
/// injected open-loop at `offered_rps` total (`f64::INFINITY` = burst:
/// everything up front). Returns the measured point.
fn run_point(n: usize, t: usize, seed: u64, knobs: Knobs, total: u64, offered_rps: f64) -> Point {
    let nodes = build_cluster(n, t, seed, knobs);
    let addrs = free_addrs(n);
    let paced = offered_rps.is_finite();
    let inject_window = if paced {
        Duration::from_secs_f64(total as f64 / offered_rps)
    } else {
        Duration::ZERO
    };
    let timeout = inject_window + DRAIN_BUDGET;

    // Virtual-time (`ctx.at`) of the moment each replica's applied
    // watermark reached the total, for the slowest-replica elapsed.
    let done_at: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());

    let mut handles = Vec::with_capacity(n);
    for (me, node) in nodes.into_iter().enumerate() {
        let addrs = addrs.clone();
        let done_at = Arc::clone(&done_at);
        // Split the budget; low ids take the remainder.
        let share = total / n as u64 + u64::from((me as u64) < total % n as u64);
        handles.push(std::thread::spawn(move || {
            let mut cfg = TcpNodeConfig::new(me, addrs, timeout, Duration::from_secs(2));
            cfg.recorder_capacity = Some(RECORDER_CAP);
            cfg.bind_retry = Duration::from_secs(5);
            let started = Instant::now();
            let mut injected: u64 = 0;
            let (report, _node) = run_tcp_node_driven(
                &cfg,
                node,
                move |node, ctx, fx| {
                    // Open loop: everything due by now goes in, whether
                    // or not earlier requests have completed.
                    let due = if paced {
                        let per_replica = offered_rps / n as f64;
                        ((started.elapsed().as_secs_f64() * per_replica) as u64).min(share)
                    } else {
                        share
                    };
                    while injected < due {
                        let key = format!("n{me:02}k{injected:06}");
                        node.on_input_ctx(ctx, KvMachine::encode_set(key.as_bytes(), b"v"), fx);
                        injected += 1;
                    }
                    if node.applied() >= total && done_at[me].load(Ordering::Relaxed) == 0 {
                        done_at[me].store(ctx.at.max(1), Ordering::Relaxed);
                    }
                },
                |node, _outputs| node.applied() >= total && !node.is_fetching(),
            )
            .expect("socket setup");
            report
        }));
    }

    let mut latency = HistogramSnapshot::default();
    let mut completed = true;
    for handle in handles {
        let report = handle.join().expect("replica thread");
        completed &= report.completed;
        if let Some(h) = report.metrics.hists.get("rsm.request_latency") {
            latency.merge(h);
        }
    }

    // Slowest replica's virtual-time watermark; fall back to the full
    // timeout if someone never got there (saturation past the budget).
    let slowest_ns = done_at
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .max()
        .unwrap_or(0);
    let elapsed_s = if completed && slowest_ns > 0 {
        slowest_ns as f64 / 1e9
    } else {
        timeout.as_secs_f64()
    };
    Point {
        offered_rps: if paced { offered_rps } else { f64::INFINITY },
        achieved_rps: total as f64 / elapsed_s,
        total,
        elapsed_s,
        p50_ms: latency.quantile(0.5) as f64 / 1e6,
        p99_ms: latency.quantile(0.99) as f64 / 1e6,
        completed,
    }
}

/// Measures one configuration: a burst capacity point, then paced
/// points at ~30% and ~70% of the measured capacity.
fn run_config(
    n: usize,
    t: usize,
    seed: u64,
    knobs: Knobs,
    mode: &'static str,
    budget: u64,
) -> ConfigResult {
    eprintln!(
        "== n={n} t={t} mode={mode} (batch_cap={}, K={}) ==",
        knobs.batch_cap, knobs.pipeline
    );
    let cap = run_point(n, t, seed, knobs, budget, f64::INFINITY);
    eprintln!(
        "   capacity: {:.1} req/s ({} reqs in {:.2}s, p50 {:.2}ms, p99 {:.2}ms{})",
        cap.achieved_rps,
        cap.total,
        cap.elapsed_s,
        cap.p50_ms,
        cap.p99_ms,
        if cap.completed { "" } else { ", TIMED OUT" },
    );
    let mut points = Vec::new();
    for frac in [0.3, 0.7] {
        let rate = (cap.achieved_rps * frac).max(2.0);
        let total = ((rate * PACED_SECS) as u64).max(4);
        let p = run_point(n, t, seed ^ 0x5eed, knobs, total, rate);
        eprintln!(
            "   offered {:.1} req/s: achieved {:.1} req/s, p50 {:.2}ms, p99 {:.2}ms",
            p.offered_rps, p.achieved_rps, p.p50_ms, p.p99_ms
        );
        points.push(p);
    }
    points.push(cap);
    ConfigResult {
        n,
        t,
        mode,
        knobs,
        points,
    }
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

fn to_json(results: &[ConfigResult], speedup: f64) -> String {
    let mut s = String::from("{\n  \"bench\": \"throughput\",\n  \"configs\": [\n");
    for (i, c) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"n\": {}, \"t\": {}, \"mode\": \"{}\", \
             \"batch_cap\": {}, \"pipeline_depth\": {}, \"points\": [\n",
            c.n, c.t, c.mode, c.knobs.batch_cap, c.knobs.pipeline
        ));
        for (j, p) in c.points.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"offered_rps\": {}, \"achieved_rps\": {}, \"requests\": {}, \
                 \"elapsed_s\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"completed\": {}}}{}\n",
                json_f(p.offered_rps),
                json_f(p.achieved_rps),
                p.total,
                json_f(p.elapsed_s),
                json_f(p.p50_ms),
                json_f(p.p99_ms),
                p.completed,
                if j + 1 < c.points.len() { "," } else { "" },
            ));
        }
        s.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"speedup_n4_batched_over_unbatched\": {}\n}}\n",
        json_f(speedup)
    ));
    s
}

/// Peak achieved requests/s across a configuration's points.
fn peak(c: &ConfigResult) -> f64 {
    c.points.iter().map(|p| p.achieved_rps).fold(0.0, f64::max)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let val = |f: &str| {
        args.iter()
            .position(|a| a == f)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse::<f64>().expect("numeric flag value"))
    };
    let quick = has("--quick");
    let smoke = has("--smoke");
    let seed = val("--seed").map_or(7, |v| v as u64);

    let batched = Knobs {
        batch_cap: 16,
        batch_bytes: 64 << 10,
        pipeline: 2,
    };
    let unbatched = Knobs {
        batch_cap: 1,
        batch_bytes: 64 << 10,
        pipeline: 1,
    };

    if smoke {
        // CI gate: one short saturated n=4 run must clear the floor.
        let floor = val("--floor").unwrap_or(25.0);
        let p = run_point(4, 1, seed, batched, 200, f64::INFINITY);
        println!(
            "smoke: {:.1} req/s over {} requests (p50 {:.2}ms, p99 {:.2}ms, floor {floor})",
            p.achieved_rps, p.total, p.p50_ms, p.p99_ms
        );
        assert!(
            p.completed,
            "smoke run timed out before applying all requests"
        );
        assert!(
            p.achieved_rps >= floor,
            "throughput regression: {:.1} req/s is below the floor of {floor} req/s",
            p.achieved_rps
        );
        println!("ok: throughput floor holds");
        return;
    }

    let budget = |n: usize| -> u64 {
        let base: u64 = if quick { 160 } else { 600 };
        // Larger clusters order fewer requests per wall-clock second;
        // shrink the budget so the sweep stays bounded.
        (base / (n as u64 / 4).max(1)).max(80)
    };

    let mut results = Vec::new();
    for &(n, t) in CONFIGS {
        results.push(run_config(n, t, seed, batched, "batched", budget(n)));
    }
    let baseline_budget = if quick { 40 } else { 120 };
    results.push(run_config(
        4,
        1,
        seed,
        unbatched,
        "unbatched",
        baseline_budget,
    ));

    let batched_n4 = peak(
        results
            .iter()
            .find(|c| c.n == 4 && c.mode == "batched")
            .expect("n=4"),
    );
    let unbatched_n4 = peak(
        results
            .iter()
            .find(|c| c.mode == "unbatched")
            .expect("baseline"),
    );
    let speedup = batched_n4 / unbatched_n4;
    println!(
        "n=4 batched {batched_n4:.1} req/s vs unbatched {unbatched_n4:.1} req/s: {speedup:.1}x"
    );

    let json = to_json(&results, speedup);
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");
}
