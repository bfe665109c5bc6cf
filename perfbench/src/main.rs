//! The lamb benchmark: one process, one workload per run.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_warm --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer figures of a separate
//! traced run. Every result is checked; any failure makes the exit code 1.
//! See `perfbench/README.md` for the workloads and metrics.

mod layers;
mod paper_exec;
mod plan_warm;
mod probe;
mod report;
mod setup;
mod solve_reuse;
mod stats;
mod trace;

use layers::Layers;
use report::Outcome;
use std::path::PathBuf;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Triad arrays must be this many times the last-level cache before a
/// bandwidth figure means DRAM bandwidth.
const TRIAD_LLC_MULTIPLE: u64 = 4;

/// The most memory the benchmark may take for a bandwidth probe.
const TRIAD_MEMORY_CAP: u64 = 256 * 1024 * 1024;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed);
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// The seed of pass `pass`'s order in a run with `seed`.
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    seed ^ pass.rotate_left(32)
}

/// Most blocks a run's passes are grouped into. The latency figures are
/// medians over blocks, so a burst of load from a neighbour that spans
/// less than half the run moves them little.
const MAX_BLOCKS: usize = 5;

/// One whole pass over a workload's inputs: the request latencies, and the
/// requests served in `busy_s` seconds of work (checks excluded).
#[derive(Default)]
pub struct Pass {
    pub latencies: Vec<f64>,
    pub served: usize,
    pub busy_s: f64,
}

/// Report `latency_p50_ms` and `latency_tail_ms` (the `tail` quantile, also
/// printed as `tail_name`), each the median of its value over blocks of
/// consecutive passes, with as many blocks (up to [`MAX_BLOCKS`]) as leave
/// ten samples beyond the tail in each; and `throughput_req_per_s`, the
/// median over passes of each pass's rate.
pub fn report_passes(out: &mut Outcome, passes: &[Pass], tail: f64, tail_name: &str) {
    let samples: usize = passes.iter().map(|p| p.latencies.len()).sum();
    let beyond_per_sample = 1.0 - tail;
    let blocks = ((samples as f64 * beyond_per_sample / 10.0) as usize)
        .clamp(1, MAX_BLOCKS)
        .min(passes.len().max(1));
    let (mut p50, mut pt, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
    for b in 0..blocks {
        let block = &passes[b * passes.len() / blocks..(b + 1) * passes.len() / blocks];
        let latencies: Vec<f64> = block
            .iter()
            .flat_map(|p| p.latencies.iter().copied())
            .collect();
        p50.push(stats::quantile(&latencies, 0.5).unwrap_or(f64::NAN) * 1e3);
        pt.push(stats::quantile(&latencies, tail).unwrap_or(f64::NAN) * 1e3);
        sizes.push(latencies.len());
    }
    let rates: Vec<f64> = passes.iter().map(|p| p.served as f64 / p.busy_s).collect();
    out.metric("latency_p50_ms", stats::median(&p50), "ms");
    out.metric("latency_tail_ms", stats::median(&pt), "ms");
    out.extra(tail_name, stats::median(&pt), "ms");
    out.metric("throughput_req_per_s", stats::median(&rates), "1/s");
    let smallest = sizes.iter().copied().min().unwrap_or(0);
    let beyond = (smallest as f64 * beyond_per_sample).floor();
    out.note("latency.passes", passes.len());
    let per_block = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note("latency.block_p50_ms", per_block(&p50));
    out.note(
        &format!("latency.block_{}", &tail_name["latency_".len()..]),
        per_block(&pt),
    );
    out.note(
        "latency.samples",
        format!("{samples} in {blocks} blocks (smallest block {smallest})"),
    );
    out.note(
        "latency.tail",
        format!("{tail_name} (at least {beyond} samples beyond it per block)"),
    );
    if beyond < 10.0 {
        out.note(
            "latency.warning",
            "fewer than ten samples beyond the tail percentile",
        );
    }
}

/// Write the traced run's spans under `perfbench/out/` and note where.
pub fn write_trace(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let path = PathBuf::from("perfbench/out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.note(
            "trace.spans_file",
            format!("{} ({} spans)", path.display(), tracer.len()),
        ),
        Err(e) => out.note("trace.spans_file", format!("not written: {e}")),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note("workload", &args.workload);
    out.note("seed", args.seed);
    out.note("seconds", args.seconds);
    out.note("trace", u8::from(args.trace));
    out.note("host", report::host_fingerprint());
    out.note("block_config", setup::block_config().fingerprint());
    out.note("git_revision", report::git_revision());
    let mut layers = Layers::default();
    match args.workload.as_str() {
        "plan_warm" => plan_warm::run(args, &mut out, &mut layers)?,
        "paper_exec" => paper_exec::run(args, &mut out, &mut layers)?,
        "solve_reuse" => solve_reuse::run(args, &mut out, &mut layers)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (plan_warm, paper_exec, solve_reuse)"
            ))
        }
    }
    let rss = report::peak_rss_mib();
    if args.trace {
        // End-to-end figures of a traced run are printed but not reported:
        // the result line of a traced run holds the per-layer figures.
        out.extra.append(&mut out.metrics);
        out.extra("peak_rss_mib", rss, "MiB");
        // The workloads' kernels run on one thread (see
        // `setup::block_config`), so their ceiling is one core's FMA
        // throughput. The n = 1024 probes run the program's default,
        // threaded configuration, so theirs is that times the threads.
        let peak = probe::fma_peak_gflops();
        layers.set("kernels.fma_peak_gflops", peak);
        let threads = rayon::current_num_threads();
        out.note(
            "kernels.n1024.block_config",
            probe::n1024_config().fingerprint(),
        );
        out.note(
            "kernels.n1024.ceiling",
            format!("{threads} x kernels.fma_peak_gflops"),
        );
        for (op, gflops) in probe::n1024_gflops()? {
            layers.set(
                &format!("kernels.n1024.{op}.pct_peak"),
                100.0 * gflops / (peak * threads as f64),
            );
            out.extra(&format!("kernels.n1024.{op}.gflops"), gflops, "GFLOP/s");
        }
        let bandwidth = match probe::llc_bytes() {
            Some(llc) if llc * TRIAD_LLC_MULTIPLE <= TRIAD_MEMORY_CAP => {
                let gbps = probe::triad_gbps(llc * TRIAD_LLC_MULTIPLE);
                out.extra("kernels.mem_bandwidth_gbps", gbps, "GB/s");
                Some(gbps)
            }
            Some(llc) => {
                out.note(
                    "kernels.mem_bandwidth",
                    format!(
                        "omitted with the roofline ratios: triad arrays of {TRIAD_LLC_MULTIPLE} x the {} MiB LLC exceed the {} MiB cap",
                        llc >> 20,
                        TRIAD_MEMORY_CAP >> 20
                    ),
                );
                None
            }
            None => {
                out.note("kernels.mem_bandwidth", "omitted: LLC size unknown");
                None
            }
        };
        layers.finish(&mut out, peak, bandwidth);
    } else {
        out.metric("peak_rss_mib", rss, "MiB");
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            out.print();
            if !out.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
