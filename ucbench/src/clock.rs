//! Time and memory sources.
//!
//! Round-level times are CPU time, not wall time. The host this
//! benchmark was built on is a 2-vCPU virtual machine under a CPU
//! quota: with both vCPUs busy, 20-30% of the time is stolen by the
//! hypervisor, so wall-clock rounds measured the neighbours more than
//! the program. With paravirtual steal accounting, a thread's CPU
//! clock excludes stolen time. The simulated workloads run on one
//! thread and use that thread's clock; the pool uses the process clock,
//! which sums its two threads (both park, never spin, when idle).
//! Per-operation latencies use the monotonic wall clock, whose read is
//! a vDSO call costing tens of nanoseconds rather than a system call.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread, and every thread it spawns afterwards,
/// to the lowest-numbered CPU it may run on now. Returns that CPU, or
/// `None` if the affinity calls failed (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: as above; `one` is a readable buffer of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (rc == 0).then_some(cpu)
}

fn cpu_ns(id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for),
    // and `id` is one of the Linux CPU-time clock constants above.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Which CPU clock a workload's round-level times are taken on.
#[derive(Clone, Copy, Debug)]
pub enum Meter {
    /// The calling thread (single-threaded simulation).
    Thread,
    /// Every thread of the process (the pool and its worker).
    Process,
}

/// A started measurement on one [`Meter`].
pub struct Stopwatch {
    id: i32,
    start: u64,
}

impl Stopwatch {
    pub fn start(meter: Meter) -> Self {
        let id = match meter {
            Meter::Thread => CLOCK_THREAD_CPUTIME_ID,
            Meter::Process => CLOCK_PROCESS_CPUTIME_ID,
        };
        Stopwatch {
            id,
            start: cpu_ns(id),
        }
    }

    /// CPU nanoseconds consumed since `start`.
    pub fn ns(&self) -> u64 {
        cpu_ns(self.id) - self.start
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
