//! # simpoint
//!
//! A SimPoint-style phase-analysis library: the clustering machinery
//! the GT-Pin paper uses to select representative GPU simulation
//! subsets (Hamerly, Perelman, Lau, Calder — *SimPoint 3.0: Faster
//! and more flexible program phase analysis*, JILP 2005).
//!
//! The pipeline, matching the paper's Section V-A procedure:
//!
//! 1. build one sparse [`FeatureVector`] per execution interval,
//! 2. L1-normalize and randomly [`project`](project::project) to a
//!    small dense space (15 dims),
//! 3. run weighted [`kmeans`](kmeans::kmeans_with_threads) for k = 1..=max_k
//!    (max 10 in all the paper's experiments),
//! 4. pick k by [`bic_score`](bic::bic_score) (smallest k within a
//!    fraction of the best), and
//! 5. return one representative interval per cluster plus its
//!    *representation ratio* — the cluster's share of all dynamic
//!    instructions ([`Selection`]).
//!
//! # Example
//!
//! ```
//! use simpoint::{select, FeatureVector, SimpointConfig};
//!
//! // Two behaviours: intervals touching key 1 vs key 2.
//! let vectors: Vec<FeatureVector> = (0..10)
//!     .map(|i| [(1 + (i % 2) as u64, 1.0)].into_iter().collect())
//!     .collect();
//! let weights = vec![100u64; 10];
//! let sel = select(&vectors, &weights, &SimpointConfig::default())?;
//! assert!(sel.k >= 2);
//! assert!((sel.total_ratio() - 1.0).abs() < 1e-9);
//! # Ok::<(), simpoint::SelectError>(())
//! ```

pub mod bic;
pub mod kmeans;
pub mod project;
#[allow(clippy::module_inception)]
pub mod simpoint;
pub mod vector;

pub use kmeans::{kmeans_with_threads, KmeansResult, PAR_MIN_POINTS};
pub use project::{project, DEFAULT_DIMS};
pub use simpoint::{
    select, select_filtered, select_filtered_with_threads, select_with_threads, SelectError,
    Selection, SimpointConfig, SimpointPick, QUARANTINED,
};
pub use vector::FeatureVector;
