//! Extension beyond the paper: the **blocking autotuner** headline numbers —
//! `BlockConfig::default()` versus the configuration coordinate descent
//! discovers, on the machine actually running the bench.
//!
//! Three measurements:
//!
//! * **Autotune** — run the measured coordinate descent
//!   ([`lamb_perfmodel::autotune_measured`]) from the compiled-in default
//!   over `(tile, mc, kc, nc, tri_block, parallel_flop_threshold)`.
//! * **Before/after GFLOP/s** — sustained square-GEMM GFLOP/s under the
//!   default and the tuned configuration for n ∈ {256, 512, 1024} (smaller
//!   at reduced `--scale`), the numbers quoted in the README quickstart.
//! * **Store round trip** — the tuned configuration is saved into a schema-v5
//!   calibration store, loaded back, and re-saved; the binary asserts the
//!   document is byte-identical and the configuration survives exactly.
//!
//! The per-size table lands in `autotune.csv`; the headline point (largest n)
//! is emitted as `BENCH_autotune.json` for the perf trajectory.
//!
//! ```text
//! cargo run --release -p lamb-bench --bin extension_autotune [-- --scale 0.25]
//! ```

use lamb_bench::RunOptions;
use lamb_experiments::csvout::write_text;
use lamb_kernels::BlockConfig;
use lamb_perfmodel::{autotune_measured, measured_gemm_gflops, CalibrationStore, MachineModel};

/// One before/after measurement at a single square size.
struct SizeRow {
    n: usize,
    default_gflops: f64,
    tuned_gflops: f64,
}

impl SizeRow {
    fn speedup(&self) -> f64 {
        self.tuned_gflops / self.default_gflops.max(1e-12)
    }
}

/// Round-trip the tuned configuration through a v5 store on disk and insist
/// the document and the configuration both come back bit-identical.
fn assert_store_round_trip(
    tuned: &lamb_perfmodel::TunedConfig,
    out_dir: &std::path::Path,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let mut store = CalibrationStore::new(MachineModel::generic_laptop(), "measured");
    store.meta.block_fingerprint = tuned.config.fingerprint();
    store.tuned = Some(tuned.clone());
    let path = out_dir.join("autotune_store_roundtrip.json");
    store.save(&path).map_err(std::io::Error::other)?;
    let first = std::fs::read_to_string(&path)?;
    let loaded = CalibrationStore::load(&path).map_err(std::io::Error::other)?;
    assert_eq!(
        loaded.tuned.as_ref(),
        Some(tuned),
        "tuned configuration must survive the v5 store round trip exactly"
    );
    loaded.save(&path).map_err(std::io::Error::other)?;
    let second = std::fs::read_to_string(&path)?;
    assert_eq!(
        first, second,
        "v5 store document must re-serialise byte-identically"
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}

fn bench_json(rows: &[SizeRow], tuned_fingerprint: &str, quick: bool) -> String {
    let headline = rows.last().expect("at least one size is measured");
    format!(
        "{{\n  \"bench\": \"autotune\",\n  \"mode\": \"{}\",\n  \
         \"default_fingerprint\": \"{}\",\n  \"tuned_fingerprint\": \"{}\",\n  \
         \"n\": {},\n  \"default_gflops\": {:.3},\n  \"tuned_gflops\": {:.3},\n  \
         \"speedup\": {:.3}\n}}\n",
        if quick { "quick" } else { "full" },
        BlockConfig::default().fingerprint(),
        tuned_fingerprint,
        headline.n,
        headline.default_gflops,
        headline.tuned_gflops,
        headline.speedup()
    )
}

fn main() {
    let opts = RunOptions::from_env();
    // Reduced scale is the CI smoke mode: one descent pass over small
    // operands, and proportionally smaller before/after sizes.
    let quick = opts.scale < 0.99;
    let (sizes, reps): (Vec<usize>, usize) = if quick {
        (
            [256usize, 512, 1024]
                .iter()
                .map(|n| ((*n as f64 * opts.scale) as usize).max(64))
                .collect(),
            3,
        )
    } else {
        (vec![256, 512, 1024], 3)
    };

    let base = BlockConfig::default();
    println!(
        "autotuning from {} ({} mode) ...",
        base.fingerprint(),
        if quick { "quick" } else { "full" }
    );
    let (outcome, tuned) = autotune_measured(&base, quick);
    println!(
        "tuned  : {} after {} evaluation(s) in {} pass(es)",
        tuned.config.fingerprint(),
        outcome.evaluations,
        outcome.passes
    );

    println!("\nsquare GEMM, default vs tuned configuration (best of {reps})");
    println!(
        "{:>6} {:>16} {:>16} {:>8}",
        "n", "default GF/s", "tuned GF/s", "speedup"
    );
    let mut rows = Vec::new();
    for &n in &sizes {
        let default_gflops = measured_gemm_gflops(&base, n, reps);
        let tuned_gflops = measured_gemm_gflops(&tuned.config, n, reps);
        let row = SizeRow {
            n,
            default_gflops,
            tuned_gflops,
        };
        println!(
            "{:>6} {:>16.3} {:>16.3} {:>7.2}x",
            row.n,
            row.default_gflops,
            row.tuned_gflops,
            row.speedup()
        );
        rows.push(row);
    }

    if let Err(e) = assert_store_round_trip(&tuned, &opts.out_dir) {
        eprintln!("store round trip failed: {e}");
        std::process::exit(1);
    }
    println!("\nstore  : tuned configuration round-trips bit-identically through v5");

    let csv: String = std::iter::once("n,default_gflops,tuned_gflops,speedup\n".to_string())
        .chain(rows.iter().map(|r| {
            format!(
                "{},{:.3},{:.3},{:.3}\n",
                r.n,
                r.default_gflops,
                r.tuned_gflops,
                r.speedup()
            )
        }))
        .collect();
    match write_text(&opts.out_dir, "autotune.csv", &csv) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write CSV: {e}"),
    }
    match write_text(
        &opts.out_dir,
        "BENCH_autotune.json",
        &bench_json(&rows, &tuned.config.fingerprint(), quick),
    ) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write JSON: {e}"),
    }
}
