//! What `/proc` says about a process: CPU time, peak resident memory,
//! thread count — read from outside, so the daemon needs no cooperation.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux ABI; reading it properly needs `sysconf` and so libc.
const USER_HZ: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// utime + stime of a process (`None` = this one), in seconds. 0 when the
/// process is gone.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let Ok(stat) = fs::read_to_string(proc_path(pid, "stat")) else { return 0.0 };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    (ticks(11) + ticks(12)) / USER_HZ
}

/// `VmHWM`, the peak resident set, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let Ok(status) = fs::read_to_string(proc_path(pid, "status")) else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn thread_count(pid: u32) -> usize {
    fs::read_dir(format!("/proc/{pid}/task")).map_or(0, |d| d.count())
}

/// Confines this process to one CPU — the last one it is allowed on — so
/// that every thread it starts and every child it spawns from now on
/// shares that CPU. Done through `taskset`, which util-linux ships; returns
/// the CPU, or `None` when nothing was pinned.
///
/// The served workloads need this: a blocking client and the daemon's
/// reactor hand one request back and forth, and whether the scheduler
/// puts the two on one core (a ~10 µs hand-over) or on two (a ~50 µs
/// wake-up of an idle core) is decided anew every few seconds. On one
/// CPU a round trip is the CPU work of both sides and nothing else.
pub fn pin_to_one_cpu() -> Option<u32> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: u32 = allowed.trim().rsplit([',', '-']).next()?.parse().ok()?;
    let pinned = std::process::Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
    matches!(pinned, Ok(s) if s.success()).then_some(cpu)
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb(None) > 0.0);
        assert!(thread_count(std::process::id()) >= 1);
        let before = cpu_seconds(None);
        let mut x = 0u64;
        while cpu_seconds(None) - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert_eq!(cpu_seconds(Some(u32::MAX)), 0.0, "a missing process reads as zero");
    }
}
