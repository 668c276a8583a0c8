//! Real-thread tests: every party of a protocol on its own OS thread,
//! the parties connected over loopback TCP by
//! [`run_tcp_loopback`](crate::run_tcp_loopback) — one
//! [`run_tcp_node`](crate::run_tcp_node) loop per party, so these runs
//! see genuine interleaving nondeterminism on the node loop that the
//! binaries and the benchmark use.

mod tests {
    use crate::protocol::{Effects, Protocol};
    use crate::tcp_runtime::tests::{Gossip, Word};
    use crate::tcp_runtime::{run_tcp_loopback, TcpNodeReport};
    use sintra_adversary::party::PartyId;
    use sintra_obs::MetricsSnapshot;
    use std::time::{Duration, Instant};

    fn merged<O>(reports: &[Option<TcpNodeReport<O>>]) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for report in reports.iter().flatten() {
            merged.merge(&report.metrics);
        }
        merged
    }

    /// Several inputs per party: every party hears every value of
    /// every party.
    #[test]
    fn threaded_gossip_delivers_everything() {
        let (n, k) = (4, 3u64);
        let value = |p: usize, i: u64| p as u64 * 11 + i;
        let nodes = (0..n)
            .map(|p| Some((Gossip, (0..k).map(|i| value(p, i)).collect())))
            .collect();
        let reports = run_tcp_loopback(
            nodes,
            |outs: &[(PartyId, u64)]| outs.len() >= n * k as usize,
            |_| {},
        )
        .expect("loopback sockets bind");
        for (party, report) in reports.iter().enumerate() {
            let report = report.as_ref().expect("every party started");
            assert!(report.completed, "party {party} heard all broadcasts");
            for (from, i) in (0..n).flat_map(|p| (0..k).map(move |i| (p, i))) {
                assert!(
                    report.outputs.contains(&(from, value(from, i))),
                    "party {party} heard input {i} of {from}"
                );
            }
        }
    }

    #[test]
    fn observed_run_collects_wall_clock_metrics() {
        let n = 3;
        let nodes = (0..n).map(|p| Some((Gossip, vec![p as u64]))).collect();
        let reports = run_tcp_loopback(
            nodes,
            |outs: &[(PartyId, u64)]| outs.len() >= n,
            |cfg| cfg.recorder_capacity = Some(256),
        )
        .expect("loopback sockets bind");
        assert!(reports.iter().flatten().all(|r| r.completed));
        assert!(
            reports.iter().flatten().all(|r| !r.metrics.is_empty()),
            "every party reports metrics"
        );
        let merged = merged(&reports);
        assert!(merged.counter("net.recv") > 0, "messages were counted");
        assert!(
            merged.hists["net.handle_ns"].count > 0,
            "wall-clock handling latency was observed"
        );
    }

    #[test]
    fn unobserved_run_reports_empty_metrics() {
        let nodes = vec![Some((Gossip, vec![1])), Some((Gossip, vec![]))];
        let reports = run_tcp_loopback(nodes, |outs: &[(PartyId, u64)]| !outs.is_empty(), |_| {})
            .expect("loopback sockets bind");
        assert!(reports.iter().flatten().all(|r| r.completed));
        assert!(reports.iter().flatten().all(|r| r.metrics.is_empty()));
    }

    /// Broadcasts only from `on_tick`: silent until the node loop drives
    /// time forward, like fdabc suspect timers or optimistic fallback
    /// timeouts.
    #[derive(Debug, Default)]
    struct TickBeacon {
        armed: bool,
        fired: bool,
    }

    impl Protocol for TickBeacon {
        type Message = Word;
        type Input = u64;
        type Output = (PartyId, u64);

        fn on_input(&mut self, _v: u64, _fx: &mut Effects<Word, (PartyId, u64)>) {
            self.armed = true;
        }

        fn on_message(&mut self, from: PartyId, w: Word, fx: &mut Effects<Word, (PartyId, u64)>) {
            fx.output((from, w.0));
        }

        fn on_tick(&mut self, fx: &mut Effects<Word, (PartyId, u64)>) {
            if self.armed && !self.fired {
                self.fired = true;
                fx.broadcast(Word(99));
            }
        }
    }

    #[test]
    fn tick_dependent_protocol_makes_progress_on_threads() {
        let nodes = (0..4)
            .map(|p| Some((TickBeacon::default(), if p == 0 { vec![1] } else { vec![] })))
            .collect();
        let reports = run_tcp_loopback(
            nodes,
            |outs: &[(PartyId, u64)]| outs.contains(&(0, 99)),
            |cfg| cfg.recorder_capacity = Some(64),
        )
        .expect("loopback sockets bind");
        assert!(
            reports.iter().flatten().all(|r| r.completed),
            "on_tick fires on the node loop, so every party hears the beacon"
        );
        assert!(
            merged(&reports).counter("net.tick") > 0,
            "ticks were counted"
        );
    }

    /// Sends every payload to two party ids outside the mesh; the node
    /// loop must count the drops instead of losing them silently.
    #[derive(Debug)]
    struct Misaddresser {
        n: usize,
    }

    impl Protocol for Misaddresser {
        type Message = Word;
        type Input = u64;
        type Output = u64;

        fn on_input(&mut self, v: u64, fx: &mut Effects<Word, u64>) {
            fx.send(self.n, Word(v));
            fx.send(usize::MAX, Word(v));
            fx.output(v);
        }

        fn on_message(&mut self, _from: PartyId, _w: Word, _fx: &mut Effects<Word, u64>) {}
    }

    #[test]
    fn out_of_range_routes_are_counted_not_silent() {
        let nodes = (0..2)
            .map(|p| Some((Misaddresser { n: 2 }, vec![7 + p as u64])))
            .collect();
        // No frame crosses a socket, so no party needs to linger.
        let reports = run_tcp_loopback(
            nodes,
            |outs: &[u64]| !outs.is_empty(),
            |cfg| {
                cfg.recorder_capacity = Some(64);
                cfg.linger = Duration::ZERO;
            },
        )
        .expect("loopback sockets bind");
        for report in reports.iter().flatten() {
            assert!(report.completed);
            assert_eq!(report.dropped, 2, "both bogus destinations counted");
            assert_eq!(report.metrics.counter("net.dropped_route"), 2);
        }
    }

    #[test]
    fn timeout_reports_incomplete() {
        let timeout = Duration::from_millis(200);
        let nodes = vec![Some((Gossip, vec![1])), Some((Gossip, vec![]))];
        let t0 = Instant::now();
        let reports = run_tcp_loopback(
            nodes,
            |_: &[(PartyId, u64)]| false,
            |cfg| cfg.timeout = timeout,
        )
        .expect("loopback sockets bind");
        assert!(
            t0.elapsed() < timeout + Duration::from_secs(1),
            "returned soon after the timeout ({:?})",
            t0.elapsed()
        );
        assert!(
            reports.iter().flatten().all(|r| !r.completed),
            "a stop predicate that never holds"
        );
        let first = reports[0].as_ref().expect("party 0 started");
        assert!(first.outputs.contains(&(0, 1)), "it ran until then");
    }
}
