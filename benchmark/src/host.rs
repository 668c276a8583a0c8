//! What the host says about this process: CPU time, memory high-water
//! mark, per-thread scheduler accounting, and the header every result
//! carries so two result files are never compared across machines by
//! accident.

use std::collections::BTreeMap;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at
/// 100 on every Linux ABI this repository builds for).
const CLK_TCK: f64 = 100.0;

/// Process user+system CPU seconds so far (`/proc/self/stat` fields 14
/// and 15) — ROADMAP's host-independent currency.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields are counted after the
    // closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let mut fields = rest.split(' ');
    let utime: f64 = fields.nth(11).expect("utime").parse().expect("utime");
    let stime: f64 = fields.next().expect("stime").parse().expect("stime");
    (utime + stime) / CLK_TCK
}

/// CPU seconds the hypervisor has taken from this machine's processors
/// so far (`steal` of the first line of `/proc/stat`), summed over
/// processors. Time a neighbour of the virtual machine used is not the
/// program's, and a window that lost much of it measures the neighbour.
pub fn stolen_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|steal| steal.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / CLK_TCK)
}

/// Share of the machine's CPU time the hypervisor took while
/// [`stolen_cpu_s`] went from `before_s` to `after_s` over `wall_s`
/// seconds.
pub fn stolen_share(before_s: f64, after_s: f64, wall_s: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get()) as f64;
    (after_s - before_s) / (wall_s * cpus)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .expect("VmHWM value")
        .parse()
        .expect("VmHWM number");
    kib / 1024.0
}

/// The calling thread's kernel id.
pub fn current_tid() -> u32 {
    let link = std::fs::read_link("/proc/thread-self").expect("read /proc/thread-self");
    link.file_name()
        .and_then(|s| s.to_str())
        .and_then(|s| s.parse().ok())
        .expect("tid in /proc/thread-self")
}

/// One thread's scheduler accounting: nanoseconds on a CPU and
/// nanoseconds runnable but waiting for one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sched {
    pub run_ns: u64,
    pub wait_ns: u64,
}

/// `/proc/self/task/*/schedstat` for every live thread, by tid.
pub fn thread_sched() -> BTreeMap<u32, Sched> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread may exit between the listing and the read.
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let mut f = text.split_whitespace();
        let (Some(run), Some(wait)) = (f.next(), f.next()) else {
            continue;
        };
        out.insert(
            tid,
            Sched {
                run_ns: run.parse().unwrap_or(0),
                wait_ns: wait.parse().unwrap_or(0),
            },
        );
    }
    out
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU nanoseconds the calling thread has consumed. The traced run
/// charges handler spans in this clock, not the wall clock: with more
/// runnable threads than cores a handler is often preempted mid-call,
/// and wall time would bill the wait to the layer.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` (libc, which std already links) writes one
    // `struct timespec` through the pointer; `ts` is a live, writable,
    // correctly laid out (`repr(C)`, two 64-bit fields on x86-64 and
    // aarch64 Linux) value for the whole call, and the clock id is a
    // constant the kernel defines for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Nanoseconds since `epoch`.
pub fn ns_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// The host header of a result: cores, CPU model, toolchain, commit.
/// `run.sh` passes the toolchain and commit in the environment, because
/// finding them means starting other programs.
pub fn header_json(seed: u64, threads: usize) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .replace(['"', '\\'], "");
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let env = |k: &str| {
        std::env::var(k)
            .unwrap_or_else(|_| "unknown".into())
            .replace(['"', '\\'], "")
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{model}\", \"rustc\": \"{}\", \
         \"git_commit\": \"{}\", \"seed\": {seed}, \"threads\": {threads}}}",
        env("BENCH_RUSTC"),
        env("BENCH_COMMIT"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_advances_with_work_not_with_sleep() {
        let a = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let b = thread_cpu_ns();
        assert!(b - a < 10_000_000, "sleeping is not CPU time: {}", b - a);
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let c = thread_cpu_ns();
        assert!(c - b > 5_000_000, "spinning is CPU time: {}", c - b);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        let tid = current_tid();
        assert!(thread_sched().contains_key(&tid));
    }
}
