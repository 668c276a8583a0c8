//! The four workloads and the seeded request schedule.
//!
//! A schedule is a pure function of `(seed, workload)`: the same seed
//! gives the same keys, values, target replicas and due times. The
//! program under test only ever sees the generated requests.

use sintra::crypto::rng::SeededRng;
use sintra::rsm::KvMachine;

/// How the client offers load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Requests are due on a schedule, whether or not earlier ones have
    /// completed; latency counts from the due time.
    Open { rate: f64 },
    /// A fixed number of requests outstanding; each completion sends
    /// the next. Latency counts from the send.
    Closed { outstanding: usize },
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    pub t: usize,
    /// A replica that is never started (the paper's fault case).
    pub crashed: Option<usize>,
    pub load: Load,
    /// The simulation drills offer `sim_bursts` bursts of `sim_burst`
    /// requests, each ordered before the next is offered: the batch
    /// shape the workload settles into, sized so a sample takes tens of
    /// milliseconds at n=4 and half a second at n=10.
    pub sim_burst: usize,
    pub sim_bursts: usize,
}

impl Workload {
    /// Replicas that run, in id order.
    pub fn live(&self) -> Vec<usize> {
        (0..self.n).filter(|p| Some(*p) != self.crashed).collect()
    }
}

/// On the 2-core reference host a lightly filled request costs ≈ 23 ms
/// of CPU at n=4 and ≈ 250 ms at n=10 (measured with this harness: two
/// agreement rounds per request at pipeline depth 2), so both cores pin
/// from ≈ 85 req/s at n=4 and from ≈ 8 req/s at n=10. The n=4 paced rate
/// sits at about half its knee, so paced latency is protocol time and
/// not a backlog. At n=10 no open-loop rate is both below the knee and
/// rich enough in samples, and near the knee queueing multiplies the
/// host's speed drift into a 25 % latency spread; one request at a time
/// has no queue to amplify anything and still rides lightly filled
/// rounds.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "n4-paced",
        n: 4,
        t: 1,
        crashed: None,
        load: Load::Open { rate: 40.0 },
        sim_burst: 1,
        sim_bursts: 8,
    },
    Workload {
        name: "n4-saturated",
        n: 4,
        t: 1,
        crashed: None,
        load: Load::Closed { outstanding: 256 },
        sim_burst: 128,
        sim_bursts: 1,
    },
    Workload {
        name: "n10-serial",
        n: 10,
        t: 3,
        crashed: None,
        load: Load::Closed { outstanding: 1 },
        sim_burst: 1,
        sim_bursts: 2,
    },
    Workload {
        name: "n4-crash1",
        n: 4,
        t: 1,
        crashed: Some(3),
        load: Load::Open { rate: 40.0 },
        sim_burst: 1,
        sim_bursts: 8,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Key and value sizes of every request.
pub const KEY_BYTES: usize = 16;
pub const VALUE_BYTES: usize = 64;

/// One generated request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub index: u64,
    /// `KvMachine::encode_set(key, value)`; the key is unique.
    pub payload: Vec<u8>,
    /// The one replica the client hands the request to.
    pub target: usize,
    /// Nanoseconds after the schedule's start at which the request is
    /// due (open loop; 0 in a closed loop, which sends on completion).
    pub due_ns: u64,
}

/// The endless request stream of one run.
pub struct Schedule {
    rng: SeededRng,
    live: Vec<usize>,
    offset: usize,
    index: u64,
    /// Slot width in ns (open loop): request `i` is due somewhere in
    /// slot `i`.
    slot_ns: Option<f64>,
}

impl Schedule {
    pub fn new(seed: u64, workload: &Workload) -> Schedule {
        let mut rng = SeededRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let live = workload.live();
        // One draw whatever the live count, so `n4-crash1` sees the same
        // key and due-time stream as `n4-paced`.
        let offset = (rng.next_u64() % live.len() as u64) as usize;
        Schedule {
            rng,
            live,
            offset,
            index: 0,
            slot_ns: match workload.load {
                Load::Open { rate } => Some(1e9 / rate),
                Load::Closed { .. } => None,
            },
        }
    }
}

impl Iterator for Schedule {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let i = self.index;
        self.index += 1;
        // Half the key is random, half is the index: seeded and unique.
        let mut key = [0u8; KEY_BYTES];
        key[..8].copy_from_slice(&self.rng.next_u64().to_be_bytes());
        key[8..].copy_from_slice(&i.to_be_bytes());
        let mut value = [0u8; VALUE_BYTES];
        for chunk in value.chunks_mut(8) {
            chunk.copy_from_slice(&self.rng.next_u64().to_be_bytes());
        }
        // A seeded position inside the slot, not the slot edge: evenly
        // spaced arrivals would beat against the driver's 5 ms tick and
        // make the injection wait depend on the phase a run happens to
        // start in.
        let jitter = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let due_ns = self
            .slot_ns
            .map_or(0, |slot| ((i as f64 + jitter) * slot) as u64);
        Some(Request {
            index: i,
            payload: KvMachine::encode_set(&key, &value),
            // Round-robin over the live replicas from a seeded start.
            target: self.live[(self.offset + i as usize) % self.live.len()],
            due_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_identical_keys_targets_and_due_times() {
        for w in &WORKLOADS {
            let a: Vec<Request> = Schedule::new(7, w).take(500).collect();
            let b: Vec<Request> = Schedule::new(7, w).take(500).collect();
            assert_eq!(a, b, "{}", w.name);
            let c: Vec<Request> = Schedule::new(8, w).take(500).collect();
            assert_ne!(
                a.iter().map(|r| &r.payload).collect::<Vec<_>>(),
                c.iter().map(|r| &r.payload).collect::<Vec<_>>(),
                "{}: another seed, other keys",
                w.name
            );
        }
    }

    #[test]
    fn keys_are_unique_and_requests_have_the_stated_shape() {
        let w = find("n4-paced").unwrap();
        let reqs: Vec<Request> = Schedule::new(1, w).take(2000).collect();
        let keys: HashSet<&[u8]> = reqs.iter().map(|r| &r.payload[5..5 + KEY_BYTES]).collect();
        assert_eq!(keys.len(), reqs.len());
        for r in &reqs {
            assert_eq!(r.payload.len(), 1 + 4 + KEY_BYTES + VALUE_BYTES);
        }
    }

    #[test]
    fn open_loop_due_times_stay_in_their_slots() {
        let w = find("n4-paced").unwrap();
        let Load::Open { rate } = w.load else {
            panic!("a paced workload is an open loop");
        };
        let slot = 1e9 / rate;
        let mut last = 0;
        for r in Schedule::new(3, w).take(1000) {
            let lo = (r.index as f64 * slot) as u64;
            let hi = ((r.index + 1) as f64 * slot) as u64;
            assert!((lo..=hi).contains(&r.due_ns));
            assert!(r.due_ns >= last, "due times never go back");
            last = r.due_ns;
        }
    }

    #[test]
    fn crash_workload_keeps_the_paced_stream_and_avoids_the_dead_replica() {
        let paced: Vec<Request> = Schedule::new(5, find("n4-paced").unwrap())
            .take(300)
            .collect();
        let crash: Vec<Request> = Schedule::new(5, find("n4-crash1").unwrap())
            .take(300)
            .collect();
        for (p, c) in paced.iter().zip(&crash) {
            assert_eq!(p.payload, c.payload);
            assert_eq!(p.due_ns, c.due_ns);
            assert_ne!(c.target, 3);
        }
        let used: HashSet<usize> = crash.iter().map(|r| r.target).collect();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn closed_loop_has_no_due_times() {
        let w = find("n4-saturated").unwrap();
        assert!(Schedule::new(1, w).take(100).all(|r| r.due_ns == 0));
    }
}
