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
//! Nothing here times code. Kernels and serving are measured by
//! `servebench/`, whose traced runs split engine time per plan layer under
//! whichever backend `SC_KERNEL_BACKEND` pins.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod settings;

pub use experiments::*;
pub use settings::ExperimentSettings;
