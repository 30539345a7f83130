//! # bench-suite
//!
//! The paper-report driver and the performance benches.
//!
//! `cargo run --release -p bench-suite --bin paper-report -- --scale default`
//! regenerates every table and figure of the GT-Pin paper from one
//! profiling pass and ends with a digest of its output;
//! [EXPERIMENTS.md](../../EXPERIMENTS.md) quotes it.
//!
//! | target | measures |
//! |---|---|
//! | `paper-report` (bin) | Tables I–II, Figures 2–8, Section III-C overhead, feature-weighting ablation |
//! | `simspeed` | Section I (detailed simulation ≫ native) |
//! | `kmeans_perf` | SimPoint clustering throughput |
//! | `explore_par` | parallel exploration speed-up and bit-identity |
//! | `obsdrain` | GTOBS01 recording + drain against the legacy JSONL path |

pub mod drivers;
