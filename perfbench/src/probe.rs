//! Hardware ceilings measured in the same run: FMA throughput from safe
//! Rust, and the n = 1024 GEMM/TRSM/POTRF figures judged against it under
//! the program's default (threaded) kernel configuration.

use crate::stats::median;
use lamb_expr::KernelOp;
use lamb_kernels::{gemm_new, potrf_new, trsm_new, BlockConfig};
use lamb_matrix::random::{random_seeded, random_spd, random_triangular};
use lamb_matrix::{Side, Trans, Uplo};
use std::hint::black_box;
use std::time::Instant;

/// Independent accumulator chains: enough to cover FMA latency times the
/// number of FMA ports with the widest vectors the build targets.
const CHAINS: usize = 64;

/// Fused multiply-add exactly as the micro-kernel issues it: one rounding
/// where the target has hardware FMA, multiply-then-add elsewhere.
#[inline(always)]
fn fmadd(acc: f64, a: f64, b: f64) -> f64 {
    #[cfg(any(target_feature = "fma", target_arch = "aarch64"))]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(any(target_feature = "fma", target_arch = "aarch64")))]
    {
        acc + a * b
    }
}

/// Run `iters` rounds of `CHAINS` independent FMAs; returns a value that
/// depends on every accumulator so none of the work can be dropped.
fn fma_chains(iters: usize, seed: f64) -> f64 {
    let mut acc = [0.0f64; CHAINS];
    let mut a = [0.0f64; CHAINS];
    let mut b = [0.0f64; CHAINS];
    for i in 0..CHAINS {
        // acc ← acc·a + b with a < 1 converges to b / (1 − a): the values
        // stay normal however long the loop runs.
        a[i] = 0.999_999 - 1e-9 * i as f64;
        b[i] = seed * 1e-6;
    }
    let a = black_box(a);
    let b = black_box(b);
    for _ in 0..iters {
        for i in 0..CHAINS {
            acc[i] = fmadd(b[i], acc[i], a[i]);
        }
    }
    acc.iter().sum()
}

/// Peak FMA throughput of one core in GFLOP/s: the chains run for about
/// 0.1 s; the best of five trials, since a neighbour's load can only slow
/// a trial down.
pub fn fma_peak_gflops() -> f64 {
    let iters = 25_000_000;
    let flops = 2.0 * (CHAINS * iters) as f64;
    (0..5)
        .map(|trial| {
            let start = Instant::now();
            black_box(fma_chains(iters, 1.0 + f64::from(trial)));
            flops / start.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// The configuration of the n = 1024 probes: the program's default, which
/// runs large kernels on every rayon thread.
pub fn n1024_config() -> BlockConfig {
    BlockConfig::default()
}

/// Square n = 1024 probes of GEMM, TRSM and POTRF: GFLOP/s of each, the
/// median of three calls.
pub fn n1024_gflops() -> Result<Vec<(&'static str, f64)>, String> {
    let n = 1024;
    let cfg = n1024_config();
    let a = random_seeded(n, n, 1);
    let b = random_seeded(n, n, 2);
    let l = random_triangular(n, Uplo::Lower, 3);
    let s = random_spd(n, 4);
    let time = |f: &dyn Fn() -> lamb_matrix::Result<lamb_matrix::Matrix>| {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            black_box(f().map_err(|e| e.to_string())?);
            samples.push(start.elapsed().as_secs_f64());
        }
        Ok::<f64, String>(median(&samples))
    };
    let gemm = KernelOp::Gemm {
        transa: Trans::No,
        transb: Trans::No,
        m: n,
        n,
        k: n,
    };
    let trsm = KernelOp::Trsm {
        side: Side::Left,
        uplo: Uplo::Lower,
        trans: Trans::No,
        m: n,
        n,
    };
    let potrf = KernelOp::Potrf {
        uplo: Uplo::Lower,
        n,
    };
    Ok(vec![
        (
            "gemm",
            gemm.flops() as f64 / time(&|| gemm_new(Trans::No, &a, Trans::No, &b, &cfg))? / 1e9,
        ),
        (
            "trsm",
            trsm.flops() as f64
                / time(&|| trsm_new(Side::Left, Uplo::Lower, Trans::No, &l, &b, &cfg))?
                / 1e9,
        ),
        (
            "potrf",
            potrf.flops() as f64 / time(&|| potrf_new(Uplo::Lower, &s, &cfg))? / 1e9,
        ),
    ])
}

/// Single-core triad bandwidth in GB/s, `a[i] = b[i] + 3·c[i]` over three
/// arrays of `total_bytes` together: the best of five passes, counting 24
/// bytes per element.
pub fn triad_gbps(total_bytes: u64) -> f64 {
    let n = usize::try_from(total_bytes / 24).expect("array length fits in usize");
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut best: f64 = 0.0;
    for _ in 0..5 {
        let start = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + 3.0 * z;
        }
        black_box(&mut a);
        best = best.max(24.0 * n as f64 / start.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// The last-level cache size reported by the kernel, in bytes.
pub fn llc_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let text = text.trim();
    let (digits, scale) = match text.strip_suffix('K') {
        Some(d) => (d, 1024),
        None => match text.strip_suffix('M') {
            Some(d) => (d, 1024 * 1024),
            None => (text, 1),
        },
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_rates() {
        assert!(fma_peak_gflops() > 0.0);
        assert!(triad_gbps(24 * 4096) > 0.0);
    }
}
