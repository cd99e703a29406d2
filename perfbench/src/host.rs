//! Host-side measurements: process CPU time, peak resident memory, and the
//! host fingerprint (core count, CPU model, calibration loop speed) that
//! every result carries, since host times compare only on one host.

use std::hint::black_box;
use std::time::Instant;

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100 per second
/// by the kernel ABI.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time, all threads (exited ones included).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl Cpu {
    /// Field-wise difference `self - earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// User plus system seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Read this process's CPU time from `/proc/self/stat` (zero when the file
/// is unavailable or malformed).
pub fn process_cpu() -> Cpu {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

/// Fields 14 and 15 of `/proc/<pid>/stat` are utime and stime. The command
/// name (field 2) may hold spaces, so counting starts after its closing
/// parenthesis, where field 3 begins.
fn parse_stat(stat: &str) -> Option<Cpu> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let user: u64 = fields.next()?.parse().ok()?;
    let sys: u64 = fields.next()?.parse().ok()?;
    Some(Cpu {
        user_s: user as f64 / TICKS_PER_S,
        sys_s: sys as f64 / TICKS_PER_S,
    })
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// What a host time must be read together with.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Available parallelism (the sweep's pool width).
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Nanoseconds per iteration of [`calibrate`]'s fixed loop.
    pub calib_ns_per_iter: f64,
}

impl Fingerprint {
    /// Measure this host.
    pub fn measure() -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            cpu_model: cpu_model(),
            calib_ns_per_iter: calibrate(),
        }
    }
}

/// Available parallelism, at least 1.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Nanoseconds per iteration of a fixed xorshift loop (a dependent chain of
/// integer operations), median of three timings.
fn calibrate() -> f64 {
    const ITERS: u64 = 4_000_000;
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_after_a_command_name_with_spaces() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0";
        let cpu = parse_stat(line).unwrap();
        assert_eq!(cpu.user_s, 2.5);
        assert_eq!(cpu.sys_s, 0.75);
    }

    #[test]
    fn malformed_stat_is_none() {
        assert!(parse_stat("42 (x) S 1").is_none());
        assert!(parse_stat("no parenthesis").is_none());
    }
}
