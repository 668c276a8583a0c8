#![forbid(unsafe_code)]
//! Shared harness code for the SINTRA-RS experiment suite.
//!
//! Each experiment in `DESIGN.md`'s index (E1-E9) has a binary in
//! `src/bin/` that regenerates the corresponding paper artifact as a
//! printed table, plus Criterion timing benches under `benches/`.
//! This library holds the scenario runners they share.

use sintra::adversary::{PartySet, TrustStructure};
use sintra::crypto::dealer::{PublicParameters, ServerKeyBundle};
use sintra::crypto::rng::SeededRng;
use sintra::net::{Behavior, Protocol, RandomScheduler, Scheduler, Simulation};
use sintra::protocols::abc::{abc_nodes, AbcNode};
use sintra::setup::{dealt_system, dealt_system_for};

/// Renders a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!(" {:w$} |", c, w = widths[i]));
        }
        out
    };
    println!("{}", line(headers.iter().map(|h| h.to_string()).collect()));
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Outcome of one atomic-broadcast scenario run.
#[derive(Clone, Copy, Debug)]
pub struct AbcRun {
    /// Payloads delivered at the reference honest server.
    pub delivered: usize,
    /// Whether all honest servers delivered identical sequences.
    pub consistent: bool,
    /// Network deliveries executed.
    pub steps: u64,
    /// Messages injected into the network.
    pub sent: u64,
}

/// Runs atomic broadcast with `crashed` servers down and one request per
/// surviving server in `senders`, under the given scheduler, bounded by
/// `max_steps`.
pub fn run_abc_scenario<S>(
    public: PublicParameters,
    bundles: Vec<ServerKeyBundle>,
    crashed: &PartySet,
    senders: &[usize],
    scheduler: S,
    seed: u64,
    max_steps: u64,
) -> AbcRun
where
    S: Scheduler<<AbcNode as Protocol>::Message>,
{
    let n = public.n();
    let nodes = abc_nodes(public, bundles, seed);
    let mut sim = Simulation::builder(nodes, scheduler).seed(seed).build();
    for p in crashed.iter() {
        sim.corrupt(p, Behavior::Crash);
    }
    for (i, &p) in senders.iter().enumerate() {
        sim.input(p, format!("request-{i}").into_bytes());
    }
    sim.run_until_quiet(max_steps);
    let honest: Vec<usize> = (0..n).filter(|p| !crashed.contains(*p)).collect();
    let reference: Vec<_> = sim.outputs(honest[0]).to_vec();
    let consistent = honest
        .iter()
        .all(|&p| sim.outputs(p) == reference.as_slice());
    AbcRun {
        delivered: reference.len(),
        consistent,
        steps: sim.stats().steps,
        sent: sim.stats().sent,
    }
}

/// Convenience: threshold system scenario.
pub fn run_threshold_abc(
    n: usize,
    t: usize,
    crashed: &PartySet,
    senders: &[usize],
    seed: u64,
    max_steps: u64,
) -> AbcRun {
    let (public, bundles) = dealt_system(n, t, seed).expect("valid parameters");
    run_abc_scenario(
        public,
        bundles,
        crashed,
        senders,
        RandomScheduler,
        seed,
        max_steps,
    )
}

/// Convenience: generalized-structure scenario.
pub fn run_general_abc(
    structure: &TrustStructure,
    crashed: &PartySet,
    senders: &[usize],
    seed: u64,
    max_steps: u64,
) -> AbcRun {
    let (public, bundles) = dealt_system_for(structure, seed);
    run_abc_scenario(
        public,
        bundles,
        crashed,
        senders,
        RandomScheduler,
        seed,
        max_steps,
    )
}

/// Picks `k` sender ids among the survivors of `crashed`.
pub fn pick_senders(n: usize, crashed: &PartySet, k: usize) -> Vec<usize> {
    (0..n).filter(|p| !crashed.contains(*p)).take(k).collect()
}

/// Runs one ABBA instance with the given per-party inputs; returns
/// (decision, max decision round over parties, steps).
pub fn run_abba_once(n: usize, t: usize, inputs: &[bool], seed: u64) -> (bool, u64, u64) {
    run_abba_scheduled(n, t, inputs, seed, false)
}

/// Like [`run_abba_once`], optionally under the maximally reordering
/// LIFO scheduler.
pub fn run_abba_scheduled(
    n: usize,
    t: usize,
    inputs: &[bool],
    seed: u64,
    lifo: bool,
) -> (bool, u64, u64) {
    use sintra::protocols::abba::{Abba, AbbaMessage};
    use sintra::protocols::common::Tag;
    use std::sync::Arc;

    #[derive(Debug)]
    struct Node {
        abba: Abba<()>,
        rng: SeededRng,
    }
    impl Protocol for Node {
        type Message = AbbaMessage<()>;
        type Input = bool;
        type Output = bool;
        fn on_input(&mut self, input: bool, fx: &mut sintra::net::Effects<Self::Message, bool>) {
            let mut out = sintra::protocols::common::Outbox::new(self.abba.n());
            if let Some(d) = self.abba.propose(input, &mut self.rng, &mut out) {
                fx.output(d);
            }
            for (to, m) in out {
                fx.send(to, m);
            }
        }
        fn on_message(
            &mut self,
            from: usize,
            msg: Self::Message,
            fx: &mut sintra::net::Effects<Self::Message, bool>,
        ) {
            let mut out = sintra::protocols::common::Outbox::new(self.abba.n());
            if let Some(d) = self.abba.on_message(from, msg, &mut self.rng, &mut out) {
                fx.output(d);
            }
            for (to, m) in out {
                fx.send(to, m);
            }
        }
    }

    let (public, bundles) = dealt_system(n, t, seed).expect("valid parameters");
    let public = Arc::new(public);
    let nodes: Vec<Node> = bundles
        .into_iter()
        .map(|b| Node {
            abba: Abba::new(Tag::root("bench"), Arc::clone(&public), Arc::new(b)),
            rng: SeededRng::new(seed ^ 0x55aa),
        })
        .collect();
    if lifo {
        let mut sim = Simulation::builder(nodes, sintra::net::LifoScheduler)
            .seed(seed)
            .build();
        for (p, &input) in inputs.iter().enumerate() {
            sim.input(p, input);
        }
        sim.run_until_quiet(50_000_000);
        let decision = sim.outputs(0).first().copied().expect("party 0 decides");
        let max_round = (0..n)
            .filter_map(|p| sim.node(p).map(|node| node.abba.round()))
            .max()
            .unwrap_or(0);
        return (decision, max_round, sim.stats().steps);
    }
    let mut sim = Simulation::builder(nodes, RandomScheduler)
        .seed(seed)
        .build();
    for (p, &input) in inputs.iter().enumerate() {
        sim.input(p, input);
    }
    sim.run_until_quiet(50_000_000);
    let decision = sim.outputs(0).first().copied().expect("party 0 decides");
    let max_round = (0..n)
        .filter_map(|p| sim.node(p).map(|node| node.abba.round()))
        .max()
        .unwrap_or(0);
    (decision, max_round, sim.stats().steps)
}

/// Byte-substring search.
pub fn contains_bytes(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

/// Deep taint scan: does any payload embedded anywhere in this
/// atomic-broadcast message (pushes, signed proposals, MVBA proposal
/// lists, consistent-broadcast finals, vote evidence) contain `needle`?
/// This is the wire knowledge a §2.2 network adversary has.
pub fn abc_message_leaks(msg: &sintra::protocols::abc::AbcMessage, needle: &[u8]) -> bool {
    use sintra::protocols::abc::AbcMessage;
    match msg {
        AbcMessage::Push(p) => contains_bytes(p, needle),
        AbcMessage::Queued { batch, .. } => batch.iter().any(|p| contains_bytes(p, needle)),
        AbcMessage::Mvba { inner, .. } => mvba_leaks(inner, needle),
    }
}

fn mvba_leaks(msg: &sintra::protocols::mvba::MvbaMessage, needle: &[u8]) -> bool {
    use sintra::protocols::cbc::CbcMessage;
    use sintra::protocols::mvba::MvbaMessage;
    match msg {
        MvbaMessage::Proposal { inner, .. } => match inner {
            CbcMessage::Send(p) => contains_bytes(p, needle),
            CbcMessage::Final(p, _) => contains_bytes(p, needle),
            CbcMessage::Echo(_) => false,
        },
        MvbaMessage::ElectCoin { .. } => false,
        MvbaMessage::Vote { inner, .. } => abba_leaks(inner, needle),
    }
}

fn abba_leaks(
    msg: &sintra::protocols::abba::AbbaMessage<sintra::protocols::cbc::Voucher>,
    needle: &[u8],
) -> bool {
    use sintra::protocols::abba::{AbbaMessage, MainVoteJust, PreVote, PreVoteJust};
    fn prevote_leaks(pv: &PreVote<sintra::protocols::cbc::Voucher>, needle: &[u8]) -> bool {
        matches!(&pv.just, PreVoteJust::FirstRound(Some(v)) if contains_bytes(&v.payload, needle))
    }
    match msg {
        AbbaMessage::PreVote(pv) => prevote_leaks(pv, needle),
        AbbaMessage::MainVote(mv) => match &mv.just {
            MainVoteJust::Abstain(a, b) => prevote_leaks(a, needle) || prevote_leaks(b, needle),
            MainVoteJust::Value(_) => false,
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_scenario_runs() {
        let crashed = PartySet::EMPTY;
        let senders = pick_senders(4, &crashed, 2);
        let run = run_threshold_abc(4, 1, &crashed, &senders, 1, 100_000_000);
        assert_eq!(run.delivered, 2);
        assert!(run.consistent);
        assert!(run.steps > 0);
    }

    #[test]
    fn abba_harness_runs() {
        let (decision, round, steps) = run_abba_once(4, 1, &[true, true, true, true], 2);
        assert!(decision);
        assert!(round >= 1);
        assert!(steps > 0);
    }
}
