//! Integration under true concurrency: the same protocol automata on
//! real OS threads over loopback TCP, one node loop per replica (the
//! paper's time-free design means no code changes between the
//! deterministic simulator and real sockets).

use sintra::adversary::structure::TrustStructure;
use sintra::net::{run_tcp_loopback, ChaosConfig, LinkFaults};
use sintra::protocols::abc::{abc_nodes, AbcDeliver};
use sintra::protocols::fdabc::{fd_nodes, FdDeliver};
use sintra::setup::dealt_system;

#[test]
fn atomic_broadcast_on_threads() {
    let n = 4;
    let (public, bundles) = dealt_system(n, 1, 201).unwrap();
    let inputs = [
        vec![b"threaded-a".to_vec()],
        vec![],
        vec![b"threaded-b".to_vec()],
        vec![],
    ];
    let nodes = abc_nodes(public, bundles, 201)
        .into_iter()
        .zip(inputs)
        .map(Some)
        .collect();
    // Seeded jitter on every link: delays and reorders, never drops.
    let chaos = ChaosConfig {
        seed: 202,
        default: LinkFaults {
            delay_per_mille: 200,
            delay_ms: (1, 10),
            reorder_per_mille: 200,
            ..LinkFaults::none()
        },
        ..ChaosConfig::default()
    };
    let reports = run_tcp_loopback(
        nodes,
        |outs: &[AbcDeliver]| outs.len() >= 2,
        |cfg| cfg.chaos = Some(chaos.clone()),
    )
    .expect("loopback sockets bind");
    let orders: Vec<_> = reports
        .iter()
        .map(|r| {
            let r = r.as_ref().expect("every party started");
            assert!(r.completed, "both broadcasts delivered everywhere");
            r.outputs
                .iter()
                .map(|d| (d.seq, d.payload.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(orders[0].len(), 2);
    let jittered: u64 = reports
        .iter()
        .flatten()
        .map(|r| r.chaos_counts.3 + r.chaos_counts.4)
        .sum();
    assert!(jittered > 0, "frames were delayed or reordered");
    for (p, got) in orders.iter().enumerate().skip(1) {
        assert_eq!(got, &orders[0], "party {p} agrees on the order");
    }
}

/// The failure-detector baseline's view change is driven *only* by
/// `on_tick`: with the view-0 coordinator (party 0) never started, as
/// in the benchmark's crash workload, the live replicas must suspect it
/// on timeout and elect the view-1 coordinator — which deadlocks unless
/// the node loop fires periodic ticks.
#[test]
fn crashed_coordinator_is_replaced_via_ticks_on_threads() {
    let structure = TrustStructure::threshold(4, 1).unwrap();
    let nodes = fd_nodes(&structure, 10)
        .into_iter()
        .enumerate()
        .map(|(p, node)| {
            let inputs = if p == 1 {
                vec![b"survive-the-crash".to_vec()]
            } else {
                vec![]
            };
            (p != 0).then_some((node, inputs))
        })
        .collect();
    let reports = run_tcp_loopback(nodes, |outs: &[FdDeliver]| !outs.is_empty(), |_| {})
        .expect("loopback sockets bind");
    assert!(reports[0].is_none(), "the crashed replica never ran");
    for (p, r) in reports.iter().enumerate().skip(1) {
        let r = r.as_ref().expect("live replicas started");
        assert!(
            r.completed,
            "replica {p} delivered despite the crashed view-0 coordinator"
        );
        assert_eq!(
            r.outputs
                .iter()
                .map(|d| (d.seq, d.payload.clone()))
                .collect::<Vec<_>>(),
            vec![(0, b"survive-the-crash".to_vec())],
            "replica {p}"
        );
    }
}
