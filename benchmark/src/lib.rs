//! The repo's benchmark: a closed-loop load harness that hosts the real
//! server in-process, drives it from real TCP clients speaking the line
//! protocol, checks every answer, and reports the end-to-end and
//! per-layer metrics declared in `BENCHMARK.json`. See `README.md`.

pub mod client;
pub mod fixture;
pub mod gen;
pub mod hist;
pub mod layers;
pub mod load;
pub mod run;
pub mod trace;
pub mod workload;
