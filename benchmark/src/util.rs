//! Clocks, quantiles, hashing and JSON formatting shared by the
//! workloads.

use std::time::Instant;

/// Nanoseconds of CPU time the calling thread has consumed: the clock
/// the engine's trace spans use, so benchmark-side call timings and
/// engine span times add up on one clock.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, exclusive out-pointer for the duration of
    // the call, and the clock id is a constant Linux defines.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    } else {
        0
    }
}

/// Runs `f`, returning its result and the thread-CPU nanoseconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = thread_cpu_ns();
    let out = f();
    (out, thread_cpu_ns().saturating_sub(start))
}

/// [`cpu_timed`] when `on`; otherwise just `f` (0 ns).
pub fn cpu_timed_if<T>(on: bool, f: impl FnOnce() -> T) -> (T, u64) {
    if on {
        cpu_timed(f)
    } else {
        (f(), 0)
    }
}

/// Runs `f`, returning its result and its wall-clock seconds.
pub fn wall_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Completes the `setup_s` sample: rebuilds the set-up (dropping each
/// at once) until there are `repeats` timings. Runs after the timed phase
/// and after peak RSS was read, so neither sees the extra set-ups.
pub fn more_setups<T>(samples: &mut Vec<f64>, repeats: usize, build: impl Fn() -> T) {
    while samples.len() < repeats {
        let (built, t) = wall_timed(&build);
        drop(built);
        samples.push(t);
    }
}

/// Peak resident set of this process in MB (`VmHWM`). Not
/// `getrusage`'s `ru_maxrss`: that one keeps the peak of the image the
/// process ran before `exec`, so under `cargo run` it can report cargo's.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The `q`-quantile of `values` (nearest rank on the sorted sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Whole-pass pacing for closed-loop workloads: after passes that took
/// `timed_s` in all, the last one `last_s`, run another only if the
/// timed total is expected to stay within `seconds`. The first pass
/// always runs, so a run measures at least one full pass.
pub fn another_pass(timed_s: f64, seconds: f64, last_s: f64) -> bool {
    timed_s + last_s <= seconds
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits (`{}` prints the shortest string
/// that round-trips the f64); `null` for a non-finite value, so a
/// reader rejects it instead of taking a made-up number.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `part / whole`, or 0 when nothing was measured.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_a_positive_high_water_mark() {
        let kept = std::hint::black_box(vec![1u8; 8 << 20]);
        assert!(peak_rss_mb() >= 8.0, "{}", kept.len());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
