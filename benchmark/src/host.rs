//! Host-side process measurements from `/proc` (Linux only; every reader
//! returns zeros elsewhere rather than failing the run).

use std::fs;

/// `USER_HZ`: the unit of `/proc/self/stat`'s `utime`/`stime`. Fixed at
/// 100 by the Linux userspace ABI on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU seconds and minor page faults of this process (all
/// threads) so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: f64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name (field 2) may hold spaces; fields count from the
        // closing parenthesis, which ends field 2. minflt is field 10,
        // utime and stime are fields 14 and 15.
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<f64> = after
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0.0))
            .collect();
        let field = |n: usize| fields.get(n - 3).copied().unwrap_or(0.0);
        CpuTimes {
            user_s: field(14) / TICKS_PER_SEC,
            sys_s: field(15) / TICKS_PER_SEC,
            minor_faults: field(10),
        }
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }

    pub fn plus(self, other: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
            minor_faults: self.minor_faults + other.minor_faults,
        }
    }

    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average.
pub fn load_avg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Pins the calling thread, and every thread it starts from now on, to the
/// first CPU it may run on. Returns that CPU, or `None` where pinning is
/// not possible (the run then measures unpinned, and its header says so).
///
/// On a small shared VM the wall time of this stack depends on where the
/// guest scheduler places the backend's worker threads: wake-ups across
/// virtual CPUs cost an exit each, and placement flips between "all on one
/// CPU" and "spread" on a scale of minutes, which moves `bulk_read` between
/// 39 and 54 ms. The gated end-to-end metrics are therefore measured on one
/// CPU; the traced run measures unpinned and reports what the second CPU
/// changes.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The size of glibc's `cpu_set_t`: 1024 CPUs.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls take pid 0 (the calling thread) and access `size`
    // bytes at `mask`, a live local array of exactly that size.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
        let cpu = word * 64 + bits.trailing_zeros() as usize;
        mask = [0; 16];
        mask[word] = 1 << (cpu % 64);
        (sched_setaffinity(0, size, mask.as_ptr()) == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
