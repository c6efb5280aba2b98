//! # sc-bench
//!
//! Experiment harness that regenerates every table and figure of the
//! SC-DCNN paper's evaluation. Each `run_*` function prints the
//! corresponding table/series to stdout and returns the underlying data so
//! integration tests can assert on the trends. The thin binaries under
//! `src/bin/` simply call these functions:
//!
//! ```text
//! cargo run -p sc-bench --release --bin table1     # Table 1
//! cargo run -p sc-bench --release --bin fig14      # Figure 14
//! cargo run -p sc-bench --release --bin experiments -- --quick   # everything
//! ```
//!
//! The Criterion benches (`cargo bench -p sc-bench`) measure the raw
//! throughput of the SC primitives, the function blocks and the
//! error-injection inference path; the `bench_kernels` binary times the
//! word-parallel kernels per backend and records `BENCH_kernels.json`.
//! Serving is measured outside this crate, by `servebench/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod settings;

pub use experiments::*;
pub use settings::ExperimentSettings;
