//! What the process and the machine report about themselves: peak
//! resident memory, CPU time, and the environment a result was measured
//! in. Linux `/proc` only — this benchmark is sized for one sandbox.

use std::fs;
use std::process::Command;

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line — reporting 0
/// would read as "no memory used".
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// User + system CPU seconds consumed so far by every thread of this
/// process (`/proc/self/stat`, 10 ms ticks).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields are counted after
    // its closing parenthesis (state is field 3, utime 14, stime 15).
    let rest = stat.rsplit_once(')').expect("comm field").1;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("cpu ticks")
    };
    const USER_HZ: f64 = 100.0;
    (tick() + tick()) / USER_HZ
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// one of the CPUs it may run on (the last one). Returns `false` when
/// the kernel refuses, in which case the run goes on unpinned.
///
/// The service workloads need this: client and daemon worker hand a
/// window back and forth, and when the scheduler places them on
/// different cores every hand-over is a cross-core wake-up — in this
/// sandbox's VM that costs more than serving the request, and whether
/// it happens changes from one second to the next (80–100 k vs
/// 250–340 k req/s on the same binary).
pub fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
    // bytes, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().rposition(|&w| w != 0) else {
        return false;
    };
    let bit = 63 - mask[word].leading_zeros();
    mask = [0; 16];
    mask[word] = 1 << bit;
    // SAFETY: `mask` is a live buffer of exactly `bytes` bytes that the
    // call only reads.
    unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 }
}

/// The measurement environment as JSON members (no braces): core count,
/// kernel, compiler.
pub fn env_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    format!(
        "\"nproc\":{nproc},\"kernel\":\"{}\",\"rustc\":\"{}\"",
        kar_obs::escape(kernel.trim()),
        kar_obs::escape(rustc.trim())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        assert!(peak_rss_mib() > 0.5);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..100_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(env_json().contains("\"nproc\":"));
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // On its own thread: the test harness's other threads keep
        // their CPUs.
        std::thread::spawn(|| {
            assert!(pin_to_one_cpu());
            let status = fs::read_to_string("/proc/thread-self/status").unwrap();
            let allowed = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap()
                .trim();
            assert!(allowed.parse::<u32>().is_ok(), "one CPU, got `{allowed}`");
        })
        .join()
        .unwrap();
    }
}
