//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! benchmark setup --workload W --seed N      # one set-up sample
//! benchmark drill [--workload W]             # the layer drills alone
//! ```

mod client;
mod cluster;
mod drill;
mod host;
mod ledger;
mod stats;
mod trace;
mod workload;

use client::{Client, Outcome};
use cluster::{Cluster, NodeResult};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Gate;
use workload::{Schedule, Workload};

/// Load offered before the measured window, for caches, tables and the
/// pipeline to fill.
const WARM_UP: Duration = Duration::from_secs(2);

/// Set-up samples per untraced run; the median is reported. All but the
/// first come from child processes, so that each pays the process-wide
/// lazy initialisation (fixed-base tables, calibration) a real start
/// pays. They run after the measured window: a set-up is short enough
/// that the host's state when the run begins (an idle core waking up)
/// would otherwise decide the reading.
const SETUP_SAMPLES: usize = 7;

/// Share of `--seconds` a traced run spends in its traced window, and
/// again in the two halves of its untraced reference window; the drills
/// get the rest.
const TRACED_WINDOW_SHARE: f64 = 0.4;

/// A run whose generator handed requests off later than this at the 95th
/// percentile is reported as LATE: the client thread waited for a CPU,
/// and latency (counted from due time) includes that wait.
const LAG_LIMIT_MS: f64 = 2.0;

/// The reference host is a virtual machine whose neighbours take up to
/// 60 % of its CPU time for minutes on end. A window during which the
/// hypervisor took more than this share measured the neighbour, not the
/// program: it is void and measured once more on the same cluster. Before
/// each window the run waits for a second without theft, for at most
/// [`CALM_BUDGET`] over the whole run, and then measures regardless.
const STOLEN_LIMIT: f64 = 0.01;
const MAX_WINDOWS: usize = 2;
const CALM_BUDGET: Duration = Duration::from_secs(70);

/// One metric of the final result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// The metric by name, with its unit.
    fn print(&self) {
        println!("{:<46} {:>16.6} {}", self.name, self.value, self.unit);
    }
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [setup|drill] --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workload::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Args {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let Some(workload) = value("--workload").and_then(|w| workload::find(w)) else {
        usage();
    };
    let number = |flag: &str, default: f64| match value(flag) {
        None => default,
        Some(v) => v.parse::<f64>().unwrap_or_else(|_| usage()),
    };
    Args {
        workload,
        seed: number("--seed", 1.0) as u64,
        seconds: number("--seconds", 25.0),
        trace: number("--trace", 0.0) != 0.0,
    }
}

/// A cluster that has answered its first request, and how long that
/// took from the moment key dealing began.
fn set_up(w: &Workload, seed: u64, gate: Option<trace::Gate>) -> Result<(Client, f64), String> {
    let began = Instant::now();
    let cluster = Cluster::start(w.n, w.t, w.crashed, seed, gate.clone());
    let mut client = Client::new(cluster, Schedule::new(seed, w), gate);
    client.first_request()?;
    Ok((client, began.elapsed().as_secs_f64()))
}

/// The replica half of the correctness gate: every live replica applied
/// exactly what was issued and all hold byte-identical state.
fn check_replicas(results: &[NodeResult], issued: u64) -> Result<(), String> {
    for r in results {
        if r.applied != issued {
            return Err(format!(
                "replica {} applied {} of {issued}",
                r.me, r.applied
            ));
        }
        if r.snapshot_digest != results[0].snapshot_digest {
            return Err(format!(
                "replica {} and replica {} hold different state",
                r.me, results[0].me
            ));
        }
    }
    Ok(())
}

/// One measured window and what is left of its cluster.
struct Measured {
    outcome: Outcome,
    nodes: Vec<NodeResult>,
    setup_s: f64,
    /// Requests the cluster served in its whole life, warm-up included.
    issued: u64,
    driver_tids: Vec<u32>,
}

impl Measured {
    /// Process CPU seconds spent in the window and requests completed
    /// in it.
    fn cpu_and_requests(&self) -> (f64, f64) {
        let o = &self.outcome;
        (
            o.end.cpu_s - o.start.cpu_s,
            o.tally.completed_in_window as f64,
        )
    }

    fn cpu_ms_per_req(&self) -> f64 {
        let (cpu_s, requests) = self.cpu_and_requests();
        cpu_s * 1e3 / requests.max(1.0)
    }
}

/// Sleeps until a whole second passes in which the hypervisor left the
/// machine alone, or until `deadline`.
fn wait_for_calm(deadline: Instant) {
    let second = Duration::from_secs(1);
    loop {
        let before = host::stolen_cpu_s();
        std::thread::sleep(second);
        let stolen = host::stolen_share(before, host::stolen_cpu_s(), 1.0);
        if stolen <= STOLEN_LIMIT || Instant::now() + second > deadline {
            return;
        }
    }
}

/// One measured window on a fresh cluster, with the whole correctness
/// gate.
fn measure(
    w: &Workload,
    seed: u64,
    window: Duration,
    gate: Option<Gate>,
    calm_by: Instant,
) -> Result<Measured, String> {
    let (mut client, setup_s) = set_up(w, seed, gate)?;
    wait_for_calm(calm_by);
    let mut outcome = client.run(w.load, WARM_UP, window)?;
    for _ in 1..MAX_WINDOWS {
        if outcome.stolen_share() <= STOLEN_LIMIT {
            break;
        }
        eprintln!(
            "# {}: window void, the hypervisor took {:.1}% of the CPU; measuring again",
            w.name,
            outcome.stolen_share() * 100.0
        );
        wait_for_calm(calm_by);
        outcome = client.run(w.load, WARM_UP, window)?;
    }
    client.settle(outcome.tally.failed)?;
    let issued = client.issued();
    let cluster = client.into_cluster();
    let driver_tids = cluster.driver_tids();
    let nodes = cluster.shutdown();
    check_replicas(&nodes, issued)?;
    Ok(Measured {
        outcome,
        nodes,
        setup_s,
        issued,
        driver_tids,
    })
}

/// Runs this program again as `setup` and reads the one number it
/// prints.
fn setup_sample_in_child(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["setup", "--workload", w.name, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up probe output: {e}"))
}

/// Threads of a run: the client, and a driver and a reactor loop per
/// live replica.
fn threads(w: &Workload) -> usize {
    1 + 2 * w.live().len()
}

/// What a run hands to `main`: the metrics and the two counts of the
/// result line.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// The untraced run: every end-to-end metric.
fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let calm_by = Instant::now() + CALM_BUDGET;
    let mut m = measure(w, seed, Duration::from_secs_f64(seconds), None, calm_by)?;
    let mut setups = vec![m.setup_s];
    for _ in 1..SETUP_SAMPLES {
        setups.push(setup_sample_in_child(w, seed)?);
    }
    let window_s = (m.outcome.end.at - m.outcome.start.at).as_secs_f64();
    let cpu_ms_per_req = m.cpu_ms_per_req();
    let stolen = m.outcome.stolen_share();
    let tally = &mut m.outcome.tally;
    let lat = &mut tally.latencies_ns;
    let metrics = vec![
        metric("setup_s", stats::median(&setups), "s"),
        metric(
            "throughput_rps",
            tally.completed_in_window as f64 / window_s,
            "1/s",
        ),
        metric("latency_p50_ms", stats::percentile_ms(lat, 0.50), "ms"),
        metric("latency_p95_ms", stats::percentile_ms(lat, 0.95), "ms"),
        metric("cpu_ms_per_req", cpu_ms_per_req, "ms"),
        metric("peak_rss_mb", host::peak_rss_mib(), "MiB"),
    ];
    let lag_p95 = stats::percentile_ms(&mut tally.lag_ns, 0.95);
    eprintln!(
        "# {}: {} latency samples, p99 {:.3} ms (not gated), stolen CPU {:.2}%, \
         loadgen lag p95 {lag_p95:.3} ms{}",
        w.name,
        lat.len(),
        stats::percentile_ms(lat, 0.99),
        stolen * 100.0,
        if lag_p95 > LAG_LIMIT_MS {
            " -- LATE"
        } else {
            ""
        },
    );
    Ok(Report {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}

/// The traced run: the traced window on a fresh cluster between the two
/// halves of an untraced reference window, then the drills; every
/// per-layer metric. The reference brackets the traced window so that a
/// steady drift of the host's speed cancels out of the tracing overhead.
fn per_layer(
    w: &Workload,
    seed: u64,
    seconds: f64,
    out_dir: &std::path::Path,
) -> Result<Report, String> {
    let window = Duration::from_secs_f64(seconds * TRACED_WINDOW_SHARE);
    let calm_by = Instant::now() + CALM_BUDGET;
    let before = measure(w, seed, window / 2, None, calm_by)?;

    let gate = Gate::new(Instant::now());
    sintra::obs::global::enable();
    let traced = measure(w, seed, window, Some(gate), calm_by);
    sintra::obs::global::disable();
    let mut traced = traced?;
    let after = measure(w, seed, window / 2, None, calm_by)?;
    let (cpu_s, requests) = [before, after]
        .iter()
        .map(Measured::cpu_and_requests)
        .fold((0.0, 0.0), |sum, part| (sum.0 + part.0, sum.1 + part.1));

    let drills = drill::run(w);
    let cx = ledger::Context {
        lifetime_requests: traced.issued,
        driver_tids: &traced.driver_tids,
        untraced_cpu_ms_per_req: cpu_s * 1e3 / requests.max(1.0),
        drills: &drills,
    };
    let metrics = ledger::per_layer(&cx, &mut traced.outcome, &traced.nodes);
    let spans = ledger::spans(&traced.outcome, &traced.nodes);
    let path = out_dir.join(format!("trace-{}.json", w.name));
    let written = trace::write_file(&path, &host::header_json(seed, threads(w)), spans)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("# {}: {written} spans in {}", w.name, path.display());
    Ok(Report {
        metrics,
        attempted: traced.outcome.tally.attempted,
        failed: traced.outcome.tally.failed,
    })
}

fn result_json(r: &Report) -> String {
    let body: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        body.join(", ")
    )
}

/// Prints every metric by name with its unit, keeps a copy with the
/// host header under `out_dir`, and ends with the one-line result.
fn publish(a: &Args, r: &Report, out_dir: &std::path::Path) -> Result<(), String> {
    r.metrics.iter().for_each(Metric::print);
    let result = result_json(r);
    let kind = if a.trace { "layers" } else { "e2e" };
    let path = out_dir.join(format!("result-{}-{kind}.json", a.workload.name));
    let file = format!(
        "{{\"host\": {},\n\"workload\": \"{}\", \"seconds\": {}, \"result\": {result}}}\n",
        host::header_json(a.seed, threads(a.workload)),
        a.workload.name,
        a.seconds,
    );
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, file))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{result}");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = PathBuf::from(std::env::var("BENCH_OUT").unwrap_or("benchmark/out".into()));
    let result = match args.first().map(String::as_str) {
        Some("setup") => {
            let a = parse(&args[1..]);
            set_up(a.workload, a.seed, None).map(|(client, secs)| {
                client.into_cluster().shutdown();
                println!("{secs}");
            })
        }
        Some("drill") => {
            // One workload's shape, or every workload's.
            let shapes: Vec<&Workload> = if args.iter().any(|a| a == "--workload") {
                vec![parse(&args[1..]).workload]
            } else {
                workload::WORKLOADS.iter().collect()
            };
            for w in shapes {
                println!(
                    "== drills at the shape of {} (n={}, t={})",
                    w.name, w.n, w.t
                );
                drill::run(w).metrics.iter().for_each(Metric::print);
            }
            Ok(())
        }
        _ => {
            let a = parse(&args);
            let report = if a.trace {
                per_layer(a.workload, a.seed, a.seconds, &out_dir)
            } else {
                end_to_end(a.workload, a.seed, a.seconds)
            };
            report.and_then(|r| publish(&a, &r, &out_dir))
        }
    };
    if let Err(why) = result {
        // A violated check prints no metrics.
        eprintln!("benchmark: FAILED: {why}");
        std::process::exit(1);
    }
}
