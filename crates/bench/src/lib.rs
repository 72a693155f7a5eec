//! Paper reproduction for AIIO.
//!
//! One `repro_*` binary (`src/bin/`) per table/figure of the paper; each
//! prints the regenerated rows/series next to the paper's numbers and
//! writes machine-readable JSON under `results/`. Run them all with
//! `cargo run --release -p aiio-bench --bin repro_all`. Performance is
//! measured by the separate `perfbench/` package, not here.
//!
//! The shared [`Context`] builds the standard synthetic database and trains
//! the standard model zoo once, caching the trained service on disk so the
//! repro binaries don't retrain repeatedly.

pub mod repro;

use aiio::prelude::*;
use std::path::PathBuf;

/// Scale knobs for the reproduction runs, overridable via environment
/// variables so CI can downscale:
/// * `AIIO_BENCH_JOBS` — database size (default 4000),
/// * `AIIO_BENCH_SEED` — master seed (default 7).
#[derive(Debug, Clone)]
pub struct Scale {
    pub n_jobs: usize,
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        let n_jobs = std::env::var("AIIO_BENCH_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4000);
        let seed = std::env::var("AIIO_BENCH_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(7);
        Scale { n_jobs, seed }
    }
}

/// Shared state for the repro binaries: the database, a trained service,
/// and the output directory.
pub struct Context {
    pub scale: Scale,
    pub db: LogDatabase,
    pub service: AiioService,
}

impl Context {
    /// Build (or load from the on-disk cache) the standard context.
    pub fn standard() -> Context {
        let scale = Scale::default();
        eprintln!(
            "[context] generating database ({} jobs, seed {})...",
            scale.n_jobs, scale.seed
        );
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: scale.n_jobs,
            seed: scale.seed,
            noise_sigma: 0.03,
        })
        .generate();

        let cache = results_dir().join(format!("service_{}_{}.json", scale.n_jobs, scale.seed));
        let service = match AiioService::load(&cache) {
            Ok(s) => {
                eprintln!("[context] loaded cached service from {}", cache.display());
                s
            }
            Err(_) => {
                eprintln!("[context] training the model zoo (cache miss)...");
                let s = AiioService::train(&TrainConfig::fast(), &db)
                    .expect("bench context: model zoo must train"); // xtask-allow: AIIO-P002 — harness entry point; a zero-model zoo cannot produce any figure
                if let Err(e) = s.save(&cache) {
                    eprintln!("[context] warning: could not cache service: {e}");
                }
                s
            }
        };
        Context { scale, db, service }
    }

    /// The train/valid datasets with the paper's half/half split.
    pub fn datasets(&self) -> (Dataset, Dataset) {
        let ds = FeaturePipeline::paper().dataset_of(&self.db);
        let split = self.db.split_indices(0.5, self.scale.seed);
        (ds.subset(&split.train), ds.subset(&split.valid))
    }
}

/// Directory for machine-readable outputs (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Write a serialisable result to `results/<name>.json` and report the path.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) -> std::io::Result<()> {
    let path = results_dir().join(format!("{name}.json"));
    let s = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(&path, s)?;
    eprintln!("[results] wrote {}", path.display());
    Ok(())
}

/// Render a simple aligned table to stdout.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_reads_environment() {
        // Default path (env vars absent in the test environment).
        let s = Scale::default();
        assert!(s.n_jobs > 0);
    }

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.exists());
    }
}
