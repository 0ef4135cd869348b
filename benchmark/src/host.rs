//! Host context: reported next to every traced run, never compared.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cores the cgroup CPU quota (`cpu.max`) allows; the core count when the
/// quota is unlimited or unreadable.
pub fn cpu_quota() -> f64 {
    let text = std::fs::read_to_string("/sys/fs/cgroup/cpu.max").unwrap_or_default();
    let mut fields = text.split_whitespace();
    match (
        fields.next().and_then(|q| q.parse::<f64>().ok()),
        fields.next().and_then(|p| p.parse::<f64>().ok()),
    ) {
        (Some(quota), Some(period)) if period > 0.0 => quota / period,
        _ => cores() as f64,
    }
}

/// A fixed integer loop owned by the benchmark, timed as a host-speed
/// fingerprint: no product code runs in it, so no change to the product can
/// move it. Median of 15 timings, in µs.
pub fn ref_loop_us() -> f64 {
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..200_000u64 {
                x = (x.rotate_left(5) ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}
