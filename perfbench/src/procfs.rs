//! Process counters read from `/proc/self` (std only; there is no hardware
//! PMU to read instead).

use std::time::Instant;

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User+system CPU time in seconds and minor page faults, from
/// `/proc/self/stat`. Clock ticks are taken as the Linux default of 100 Hz.
fn cpu_and_faults() -> (f64, u64) {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0);
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
    let (minflt, utime, stime) = (field(7), field(11), field(12));
    ((utime + stime) as f64 / TICKS_PER_SECOND, minflt)
}

/// Jiffies the hypervisor stole and all jiffies, summed over every CPU,
/// from the first line of `/proc/stat`.
fn steal_and_total() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// What the process got from the machine over an interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuUse {
    /// CPU seconds per wall second (up to the lane count).
    pub util: f64,
    pub minor_faults: u64,
    /// Share of all CPU time the hypervisor stole from the machine.
    pub steal_frac: f64,
}

/// CPU use, minor faults and host steal over an interval.
pub struct CpuWindow {
    wall: Instant,
    cpu_s: f64,
    faults: u64,
    steal: (u64, u64),
}

impl CpuWindow {
    pub fn start() -> CpuWindow {
        let (cpu_s, faults) = cpu_and_faults();
        CpuWindow {
            wall: Instant::now(),
            cpu_s,
            faults,
            steal: steal_and_total(),
        }
    }

    pub fn finish(&self) -> CpuUse {
        let (cpu_s, faults) = cpu_and_faults();
        let (steal, total) = steal_and_total();
        let wall = self.wall.elapsed().as_secs_f64().max(1e-9);
        CpuUse {
            util: (cpu_s - self.cpu_s) / wall,
            minor_faults: faults.saturating_sub(self.faults),
            steal_frac: steal.saturating_sub(self.steal.0) as f64
                / total.saturating_sub(self.steal.1).max(1) as f64,
        }
    }
}

/// The indices of the `(n + 1) / 2` entries with the least steal: the
/// cleaner half of a run's blocks, which its metrics are computed over.
pub fn cleaner_half(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order.truncate(steal.len().div_ceil(2));
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let window = CpuWindow::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let used = window.finish();
        assert!(used.util >= 0.0);
        assert!((0.0..=1.0).contains(&used.steal_frac));
    }

    #[test]
    fn cleaner_half_keeps_the_blocks_with_least_steal() {
        assert_eq!(cleaner_half(&[0.3, 0.0, 0.1, 0.5, 0.0]), vec![1, 2, 4]);
        assert_eq!(cleaner_half(&[0.2]), vec![0]);
        assert_eq!(cleaner_half(&[0.2, 0.1]), vec![1]);
    }
}
