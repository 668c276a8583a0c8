//! Chaos campaign over real sockets: `n = 4` replica **OS processes**
//! running the full replicated state machine (atomic broadcast +
//! checkpoints + state transfer) on loopback TCP, while the harness
//! SIGKILLs and restarts replicas, schedules a network partition, and
//! injects seeded link faults.
//!
//! ```sh
//! cargo run --release -p bench --bin tcp_chaos              # all scenarios
//! cargo run --release -p bench --bin tcp_chaos -- --quick   # CI smoke
//! cargo run --release -p bench --bin tcp_chaos -- --scenario restarts
//! ```
//!
//! Three scenarios, each a safety + liveness check:
//!
//! * **restarts** — two sequential SIGKILL + restart cycles (replica 3,
//!   then replica 2) while replica 0 keeps injecting writes. A restarted
//!   replica comes back empty on the same port, is re-probed by the
//!   survivors' link-up hooks, rejoins by state transfer, and must end
//!   byte-identical to the replicas that never died.
//! * **partition** — a scheduled `{0,1} | {2,3}` split; neither side has
//!   a qualified quorum, so the round watermark stalls, and after the
//!   window closes the queued requests must order and every replica
//!   converge.
//! * **flaky** — every link delays, reorders, and resets under a seeded
//!   [`ChaosConfig`]; no frame is permanently lost (drops and garbles
//!   are exercised — budgeted — by the `sintra-net` chaos tests), so
//!   the run must still converge while the chaos counters prove the
//!   faults actually fired.
//!
//! Safety is checked as byte-identical SHA-256 digests of every
//! replica's application state; liveness as the ordering round
//! watermark strictly advancing past its value at the fault. Results
//! land in `BENCH_chaos.json`.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sintra::crypto::hash::Sha256;
use sintra::net::protocol::Protocol;
use sintra::net::{run_tcp_node_driven, ChaosConfig, LinkFaults, Partition, TcpNodeConfig};
use sintra::rsm::{rsm_build, KvMachine, OrderingLayer, StateMachine};

/// Replicas in the campaign (the standard 4-of-which-1-may-fail setup).
const N: usize = 4;

/// Per-replica wall-clock budget; a child that cannot converge inside
/// it exits nonzero and fails the campaign.
const CHILD_TIMEOUT: Duration = Duration::from_secs(90);

/// How long the parent waits for a kill gate (an applied-watermark
/// threshold read from child `PROGRESS` lines) before giving up.
const GATE_DEADLINE: Duration = Duration::from_secs(60);

/// Pause between reaping a killed replica and restarting it, long
/// enough that survivors notice the dead link.
const RESTART_AFTER: Duration = Duration::from_millis(300);

/// Cadence of child `PROGRESS` lines.
const PROGRESS_EVERY: Duration = Duration::from_millis(200);

struct Args {
    replica: Option<usize>,
    scenario: Option<String>,
    seed: u64,
    ports: Vec<u16>,
    target: u32,
    pace_ms: u64,
    linger_ms: u64,
    part_ms: (u64, u64),
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        replica: None,
        scenario: None,
        seed: 2001,
        ports: Vec::new(),
        target: 0,
        pace_ms: 0,
        linger_ms: 0,
        part_ms: (0, 0),
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--replica" => args.replica = Some(value().parse().expect("--replica")),
            "--scenario" => args.scenario = Some(value()),
            "--seed" => args.seed = value().parse().expect("--seed"),
            "--ports" => {
                args.ports = value()
                    .split(',')
                    .map(|p| p.parse().expect("--ports"))
                    .collect();
            }
            "--target" => args.target = value().parse().expect("--target"),
            "--pace-ms" => args.pace_ms = value().parse().expect("--pace-ms"),
            "--linger-ms" => args.linger_ms = value().parse().expect("--linger-ms"),
            "--part-ms" => {
                let v = value();
                let (a, b) = v.split_once(',').expect("--part-ms start,end");
                args.part_ms = (a.parse().expect("--part-ms"), b.parse().expect("--part-ms"));
            }
            "--quick" => args.quick = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Per-scenario knobs; `--quick` shrinks everything for CI smoke.
struct Params {
    target: u32,
    pace_ms: u64,
    linger_ms: u64,
    part_ms: (u64, u64),
}

impl Params {
    fn new(scenario: &str, quick: bool) -> Params {
        let (target, pace_ms) = match (scenario, quick) {
            ("restarts", false) => (40, 150),
            ("restarts", true) => (16, 80),
            (_, false) => (30, 150),
            (_, true) => (12, 80),
        };
        Params {
            target,
            pace_ms,
            linger_ms: if quick { 5_000 } else { 8_000 },
            part_ms: if quick { (800, 2_000) } else { (1_500, 3_500) },
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------
// Child mode: one replica process.
// ---------------------------------------------------------------------

/// The chaos schedule a child installs for a scenario. Restart cycles
/// need no interposer — the harness itself is the fault — but every
/// child keeps a generous bind retry so a restarted replica can reclaim
/// its port from the kernel's TIME_WAIT teardown.
fn chaos_for(args: &Args, me: usize) -> Option<ChaosConfig> {
    let scenario = args.scenario.as_deref().expect("--scenario");
    match scenario {
        "restarts" => None,
        "partition" => Some(ChaosConfig {
            seed: args.seed,
            partitions: vec![Partition {
                group: vec![0, 1],
                start: Duration::from_millis(args.part_ms.0),
                end: Duration::from_millis(args.part_ms.1),
            }],
            ..ChaosConfig::default()
        }),
        // Liveness-safe chaos: delays, inversions, and connection
        // resets lose no frame permanently, so the run must converge
        // with no retransmission layer above TCP.
        "flaky" => Some(ChaosConfig {
            seed: args.seed ^ ((me as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            default: LinkFaults {
                delay_per_mille: 200,
                delay_ms: (1, 8),
                reorder_per_mille: 150,
                reset_per_mille: 15,
                throttle_bytes_per_ms: 4096,
                ..LinkFaults::none()
            },
            ..ChaosConfig::default()
        }),
        other => panic!("unknown scenario {other}"),
    }
}

/// Runs one replica: replica 0 paces `target` writes over wall time,
/// everyone reports progress and exits once its applied watermark
/// reaches the target with no state fetch in flight. The final line is
/// the convergence witness the parent compares across replicas.
fn run_replica(me: usize, args: &Args) {
    assert_eq!(args.ports.len(), N, "--ports must list {N} ports");
    let node = rsm_build(args.seed).remove(me);
    let addrs: Vec<SocketAddr> = args
        .ports
        .iter()
        .map(|p| SocketAddr::from(([127, 0, 0, 1], *p)))
        .collect();
    let mut cfg = TcpNodeConfig::new(
        me,
        addrs,
        CHILD_TIMEOUT,
        Duration::from_millis(args.linger_ms),
    );
    cfg.chaos = chaos_for(args, me);
    cfg.bind_retry = Duration::from_secs(10);

    let target = args.target as u64;
    let pace = Duration::from_millis(args.pace_ms);
    let mut injected: u32 = 0;
    let inject_target = args.target;
    let mut next_inject = Instant::now();
    let mut next_progress = Instant::now();
    let (report, node) = run_tcp_node_driven(
        &cfg,
        node,
        move |node, ctx, fx| {
            if me == 0 && injected < inject_target && Instant::now() >= next_inject {
                let key = format!("key{injected:04}");
                let val = format!("val{injected:04}");
                node.on_input_ctx(
                    ctx,
                    KvMachine::encode_set(key.as_bytes(), val.as_bytes()),
                    fx,
                );
                injected += 1;
                next_inject = Instant::now() + pace;
            }
            if Instant::now() >= next_progress {
                println!(
                    "PROGRESS {} {} {}",
                    node.applied(),
                    node.layer().current_round(),
                    u8::from(node.is_fetching())
                );
                next_progress = Instant::now() + PROGRESS_EVERY;
            }
        },
        |node, _outputs| node.applied() >= target && !node.is_fetching(),
    )
    .expect("socket setup");
    assert!(
        report.completed,
        "replica {me} timed out at applied {} of {target}",
        node.applied()
    );
    let digest = Sha256::digest(&node.machine().snapshot());
    let (cd, cg, cr, cl, co) = report.chaos_counts;
    println!(
        "STATE {} APPLIED {} ROUND {} DROPPED {} CHAOS {cd} {cg} {cr} {cl} {co}",
        hex(&digest),
        node.applied(),
        node.layer().current_round(),
        report.outbound_dropped,
    );
}

// ---------------------------------------------------------------------
// Parent mode: process supervision and assertions.
// ---------------------------------------------------------------------

/// The parsed final `STATE` line of a replica process.
#[derive(Clone)]
struct StateLine {
    digest: String,
    applied: u64,
    round: u64,
    outbound_dropped: u64,
    chaos: [u64; 5],
}

fn parse_state(line: &str) -> Option<StateLine> {
    let t: Vec<&str> = line.split_whitespace().collect();
    if t.len() != 14 || t[0] != "STATE" || t[2] != "APPLIED" || t[4] != "ROUND" {
        return None;
    }
    let num = |i: usize| t[i].parse::<u64>().ok();
    Some(StateLine {
        digest: t[1].to_string(),
        applied: num(3)?,
        round: num(5)?,
        outbound_dropped: num(7)?,
        chaos: [num(9)?, num(10)?, num(11)?, num(12)?, num(13)?],
    })
}

/// Live view of one child, fed by its stdout reader thread.
#[derive(Default)]
struct ChildStatus {
    applied: u64,
    round: u64,
    updates: u64,
    state: Option<StateLine>,
}

struct ChildProc {
    child: Child,
    status: Arc<Mutex<ChildStatus>>,
    reader: Option<JoinHandle<()>>,
}

fn spawn_replica(
    exe: &std::path::Path,
    scenario: &str,
    i: usize,
    ports_arg: &str,
    seed: u64,
    p: &Params,
) -> ChildProc {
    let mut child = Command::new(exe)
        .args(["--replica", &i.to_string()])
        .args(["--scenario", scenario])
        .args(["--seed", &seed.to_string()])
        .args(["--ports", ports_arg])
        .args(["--target", &p.target.to_string()])
        .args(["--pace-ms", &p.pace_ms.to_string()])
        .args(["--linger-ms", &p.linger_ms.to_string()])
        .args(["--part-ms", &format!("{},{}", p.part_ms.0, p.part_ms.1)])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn replica");
    let stdout = child.stdout.take().expect("piped stdout");
    let status = Arc::new(Mutex::new(ChildStatus::default()));
    let sink = Arc::clone(&status);
    let reader = thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            let mut st = sink.lock().expect("status lock");
            if let Some(rest) = line.strip_prefix("PROGRESS ") {
                let f: Vec<u64> = rest.split(' ').filter_map(|x| x.parse().ok()).collect();
                if f.len() == 3 {
                    st.applied = f[0];
                    st.round = f[1];
                    st.updates += 1;
                }
            } else if let Some(state) = parse_state(&line) {
                st.state = Some(state);
            }
        }
    });
    ChildProc {
        child,
        status,
        reader: Some(reader),
    }
}

/// SIGKILL — not a polite shutdown — then reap, so the replica dies
/// mid-protocol with sockets severed by the kernel.
fn kill_and_reap(cp: &mut ChildProc, who: usize) {
    cp.child
        .kill()
        .unwrap_or_else(|e| panic!("kill replica {who}: {e}"));
    cp.child
        .wait()
        .unwrap_or_else(|e| panic!("reap replica {who}: {e}"));
    if let Some(r) = cp.reader.take() {
        let _ = r.join();
    }
}

/// Waits for a clean exit and returns the replica's final state line.
fn finish(cp: &mut ChildProc, who: usize) -> StateLine {
    let status = cp.child.wait().expect("replica exit");
    assert!(status.success(), "replica {who} failed: {status}");
    if let Some(r) = cp.reader.take() {
        let _ = r.join();
    }
    let st = cp.status.lock().expect("status lock");
    st.state
        .clone()
        .unwrap_or_else(|| panic!("replica {who} exited without a STATE line"))
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + GATE_DEADLINE;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(25));
    }
}

/// Binds `n` ephemeral loopback listeners to find free ports, then
/// releases them for the replicas to claim.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

struct ScenarioOutcome {
    name: &'static str,
    target: u32,
    kills: u32,
    restarts: u32,
    healed_partitions: u32,
    applied: u64,
    final_round: u64,
    digest: String,
    outbound_dropped: u64,
    chaos: [u64; 5],
    elapsed_ms: u128,
}

/// Safety: every replica ended with byte-identical application state
/// and exactly `target` applied requests (ordering-layer dedup means a
/// rejoin can never double-apply).
fn assert_converged(states: &[StateLine], target: u32) {
    for (i, s) in states.iter().enumerate() {
        assert_eq!(
            s.digest, states[0].digest,
            "replica {i} diverged from replica 0"
        );
        assert_eq!(
            s.applied, target as u64,
            "replica {i} applied {} of {target} requests",
            s.applied
        );
    }
}

fn outcome(
    name: &'static str,
    p: &Params,
    states: &[StateLine],
    started: Instant,
    kills: u32,
    healed_partitions: u32,
) -> ScenarioOutcome {
    let mut chaos = [0u64; 5];
    for s in states {
        for (acc, c) in chaos.iter_mut().zip(s.chaos) {
            *acc += c;
        }
    }
    ScenarioOutcome {
        name,
        target: p.target,
        kills,
        restarts: kills,
        healed_partitions,
        applied: states[0].applied,
        final_round: states.iter().map(|s| s.round).max().unwrap_or(0),
        digest: states[0].digest.clone(),
        outbound_dropped: states.iter().map(|s| s.outbound_dropped).sum(),
        chaos,
        elapsed_ms: started.elapsed().as_millis(),
    }
}

/// Two sequential SIGKILL + restart cycles under live traffic. The
/// second kill is gated on the first victim proving it rejoined
/// (applied > 0 after restarting empty), so the mesh always keeps a
/// qualified quorum and the scenario tests recovery, not mere survival.
fn scenario_restarts(exe: &std::path::Path, seed: u64, quick: bool) -> ScenarioOutcome {
    let p = Params::new("restarts", quick);
    let started = Instant::now();
    let ports = free_ports(N);
    let ports_arg = ports
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut procs: Vec<ChildProc> = (0..N)
        .map(|i| spawn_replica(exe, "restarts", i, &ports_arg, seed, &p))
        .collect();

    let gate1 = u64::from(p.target / 5).max(2);
    wait_until("replica 3 to make progress before the first kill", || {
        procs[3].status.lock().expect("status lock").applied >= gate1
    });
    let round_at_kill1 = procs[3].status.lock().expect("status lock").round;
    println!("  SIGKILL replica 3 (applied ≥ {gate1}, round {round_at_kill1})");
    kill_and_reap(&mut procs[3], 3);
    thread::sleep(RESTART_AFTER);
    procs[3] = spawn_replica(exe, "restarts", 3, &ports_arg, seed, &p);
    println!("  restarted replica 3");

    let gate2 = u64::from(p.target / 2).max(4);
    wait_until(
        "replica 3 to rejoin and replica 2 to reach the second gate",
        || {
            let s3 = procs[3].status.lock().expect("status lock").applied;
            let s2 = procs[2].status.lock().expect("status lock").applied;
            s3 > 0 && s2 >= gate2
        },
    );
    let round_at_kill2 = procs[2].status.lock().expect("status lock").round;
    println!("  SIGKILL replica 2 (applied ≥ {gate2}, round {round_at_kill2})");
    kill_and_reap(&mut procs[2], 2);
    thread::sleep(RESTART_AFTER);
    procs[2] = spawn_replica(exe, "restarts", 2, &ports_arg, seed, &p);
    println!("  restarted replica 2");

    let states: Vec<StateLine> = procs
        .iter_mut()
        .enumerate()
        .map(|(i, cp)| finish(cp, i))
        .collect();
    assert_converged(&states, p.target);
    let final_round = states.iter().map(|s| s.round).max().unwrap_or(0);
    assert!(
        final_round > round_at_kill1 && final_round > round_at_kill2,
        "round watermark ({final_round}) did not advance past the kills \
         ({round_at_kill1}, {round_at_kill2})"
    );
    outcome("restarts", &p, &states, started, 2, 0)
}

/// A scheduled `{0,1} | {2,3}` split: with `t = 1` neither half is a
/// qualified quorum, so ordering stalls until the window closes; the
/// backlog must then order and all four replicas converge.
fn scenario_partition(exe: &std::path::Path, seed: u64, quick: bool) -> ScenarioOutcome {
    let p = Params::new("partition", quick);
    let started = Instant::now();
    let ports = free_ports(N);
    let ports_arg = ports
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut procs: Vec<ChildProc> = (0..N)
        .map(|i| spawn_replica(exe, "partition", i, &ports_arg, seed, &p))
        .collect();

    // Sample the round watermark mid-window; post-heal progress must
    // push every replica strictly past it.
    let mid = Duration::from_millis((p.part_ms.0 + p.part_ms.1) / 2);
    while started.elapsed() < mid {
        thread::sleep(Duration::from_millis(20));
    }
    let rounds_mid: Vec<u64> = procs
        .iter()
        .map(|c| c.status.lock().expect("status lock").round)
        .collect();
    println!("  mid-partition round watermarks: {rounds_mid:?}");

    let states: Vec<StateLine> = procs
        .iter_mut()
        .enumerate()
        .map(|(i, cp)| finish(cp, i))
        .collect();
    assert_converged(&states, p.target);
    for (i, s) in states.iter().enumerate() {
        assert!(
            s.round > rounds_mid[i],
            "replica {i} round watermark stuck at {} after the heal",
            s.round
        );
    }
    outcome("partition", &p, &states, started, 0, 1)
}

/// Seeded link faults on every link of every replica: delays, wire
/// inversions, connection resets, and a byte-rate throttle. Nothing is
/// lost permanently, so convergence is mandatory — and the summed chaos
/// counters prove the faults actually fired.
fn scenario_flaky(exe: &std::path::Path, seed: u64, quick: bool) -> ScenarioOutcome {
    let p = Params::new("flaky", quick);
    let started = Instant::now();
    let ports = free_ports(N);
    let ports_arg = ports
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut procs: Vec<ChildProc> = (0..N)
        .map(|i| spawn_replica(exe, "flaky", i, &ports_arg, seed, &p))
        .collect();
    let states: Vec<StateLine> = procs
        .iter_mut()
        .enumerate()
        .map(|(i, cp)| finish(cp, i))
        .collect();
    assert_converged(&states, p.target);
    let faults_fired: u64 = states
        .iter()
        .map(|s| s.chaos[2] + s.chaos[3] + s.chaos[4])
        .sum();
    assert!(faults_fired > 0, "chaos config injected no faults");
    println!("  {faults_fired} link faults fired (resets + delays + reorders)");
    outcome("flaky", &p, &states, started, 0, 0)
}

fn write_report(path: &str, seed: u64, quick: bool, outcomes: &[ScenarioOutcome]) {
    let scenarios = outcomes
        .iter()
        .map(|o| {
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"target\": {}, \"kills\": {}, ",
                    "\"restarts\": {}, \"healed_partitions\": {}, \"applied\": {}, ",
                    "\"final_round\": {}, \"digest\": \"{}\", \"outbound_dropped\": {}, ",
                    "\"chaos\": {{\"dropped\": {}, \"garbled\": {}, \"resets\": {}, ",
                    "\"delayed\": {}, \"reordered\": {}}}, \"elapsed_ms\": {}}}"
                ),
                o.name,
                o.target,
                o.kills,
                o.restarts,
                o.healed_partitions,
                o.applied,
                o.final_round,
                o.digest,
                o.outbound_dropped,
                o.chaos[0],
                o.chaos[1],
                o.chaos[2],
                o.chaos[3],
                o.chaos[4],
                o.elapsed_ms
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"tcp_chaos\",\n  \"n\": {N},\n  \"t\": 1,\n  \
         \"seed\": {seed},\n  \"quick\": {quick},\n  \
         \"scenarios\": [\n{scenarios}\n  ]\n}}\n"
    );
    std::fs::write(path, json).expect("write chaos report");
    println!("report written to {path}");
}

fn main() {
    let args = parse_args();
    if let Some(me) = args.replica {
        assert!(me < N, "--replica out of range");
        run_replica(me, &args);
        return;
    }
    let exe = std::env::current_exe().expect("current exe");
    let all = ["restarts", "partition", "flaky"];
    if let Some(s) = &args.scenario {
        assert!(all.contains(&s.as_str()), "unknown scenario {s}");
    }
    let mut outcomes = Vec::new();
    for name in all {
        if args.scenario.as_deref().is_some_and(|s| s != name) {
            continue;
        }
        println!("=== scenario {name} ===");
        let o = match name {
            "restarts" => scenario_restarts(&exe, args.seed, args.quick),
            "partition" => scenario_partition(&exe, args.seed, args.quick),
            _ => scenario_flaky(&exe, args.seed, args.quick),
        };
        println!(
            "  ok: {} requests applied on all {N} replicas, digest {}…, \
             round watermark {}, {:.1}s",
            o.applied,
            &o.digest[..16],
            o.final_round,
            o.elapsed_ms as f64 / 1_000.0
        );
        outcomes.push(o);
    }
    write_report("BENCH_chaos.json", args.seed, args.quick, &outcomes);
    println!("tcp_chaos passed: {} scenario(s)", outcomes.len());
}
