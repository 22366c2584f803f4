//! Percentiles and the host-drift reference loop.

use std::time::Instant;

/// The median of `xs` (mean of the two middle values for even counts).
/// `xs` must not be empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `xs` (`0 < q <= 1`). `xs` must not
/// be empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One pass of a fixed reference computation (integer mixing over a
/// 256 KiB table), in milliseconds. It is the same code on every
/// commit, so a change in its time measures the host, not the program.
fn host_ref_once() -> f64 {
    let mut table = vec![0u64; 32 * 1024];
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..8_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(x ^ i);
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The median of five reference passes, in milliseconds.
pub fn host_ref_ms() -> f64 {
    let runs: Vec<f64> = (0..5).map(|_| host_ref_once()).collect();
    median(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(median(&[3.0]), 3.0);
    }
}
