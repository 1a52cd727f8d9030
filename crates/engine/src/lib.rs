//! Batch-solving engine for the budget/buffer co-computation suite.
//!
//! The library crates solve *one* configuration at a time; this crate turns
//! them into a system that serves whole experiment campaigns:
//!
//! * [`scenario`] — the declarative model: a [`Scenario`] names a workload
//!   (preset by name or inline configuration), an optional capacity sweep,
//!   [`SolveOptions`](budget_buffer::SolveOptions) and a flow; a [`Suite`]
//!   is a named batch of scenarios. Both live in JSON files.
//! * [`suites`] — the built-in suites: `paper` (the six experiments of the
//!   paper), `paper-plus` (plus the cyclic `ring` experiment) and `smoke`.
//! * [`executor`] — what a run computes: the plan, the (scenario ×
//!   sweep-point) work items the solve job mints as it claims them, the
//!   panic-safe per-item solve and the suite-order outcome assembly; a
//!   panicking solve becomes a per-point error, never a dead run.
//! * [`pool`] — the [`Engine`]: the calling thread plus persistent
//!   `std::thread` workers, parked between runs, that drain both jobs of a
//!   run (solve, validate) as cursor jobs — indices claimed off an atomic
//!   cursor, each result in the slot its index addresses — so results are
//!   deterministic for any `--jobs N`. The free [`run_suite`] wraps a
//!   temporary engine.
//! * [`cache`] — memoization of solves keyed by allocation-free 128-bit
//!   streaming digests of (configuration, options, flow), with
//!   deterministic hit/miss counters; the full canonical JSON is
//!   materialised lazily, only for the disk tier.
//! * [`store`] — the persistent tier below the in-memory cache: a
//!   content-addressed, schema-versioned on-disk store of solve results, so
//!   repeated *processes* (CLI re-runs, CI, sweeps) skip solves too.
//! * [`validate`] — the post-solve validation stage: replay every solved
//!   mapping on the `bbs-scheduler-sim` discrete-event simulator and grade
//!   measured periods and buffer high-water marks against the solver's
//!   guarantees, as one more cursor job on the [`Engine`].
//! * [`gen`] — the seeded scenario generator behind `bbs gen`: schema-valid
//!   random suites (graph shape, platform timings, sweep ranges) for
//!   fuzz-scale validation.
//! * [`report`] — the machine-readable [`SuiteReport`] (schema-versioned
//!   JSON, CSV, markdown) and the human renderers. Reports carry no
//!   wall-clock data and are byte-identical across worker counts.
//! * [`serve`] — the service layer: a long-lived TCP daemon speaking
//!   length-prefixed JSON frames that multiplexes many concurrent clients
//!   onto one shared [`Engine`] + cache/store, behind a bounded
//!   admission-controlled submission queue with round-robin per-client
//!   fairness. Reports obtained through it are byte-identical to local
//!   runs.
//!
//! The `bbs` binary is the command-line face of all of this:
//!
//! ```text
//! bbs run --suite paper --jobs 8 --json report.json
//! bbs run --suite paper --cache-dir target/bbs-cache   # persistent solves
//! bbs run --file my-suite.json --markdown EXPERIMENTS.md
//! bbs list
//! bbs check report.json
//! bbs cache stats --cache-dir target/bbs-cache
//! bbs serve --addr 127.0.0.1:7777 --jobs 8 --cache-dir target/bbs-cache
//! bbs client run --addr 127.0.0.1:7777 --suite smoke --json report.json
//! ```
//!
//! See `docs/ARCHITECTURE.md` for the crate map and the solve pipeline, and
//! `docs/CACHE.md` for the on-disk store format.
//!
//! # Example
//!
//! ```
//! use bbs_engine::{run_scenario, RunSettings, Scenario, SweepSpec, WorkloadSpec};
//! use bbs_taskgraph::presets::PresetSpec;
//!
//! let scenario = Scenario::new(
//!     "demo",
//!     WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
//! )
//! .with_sweep(SweepSpec::range(1, 4));
//! let outcome = run_scenario(&scenario, &RunSettings::default()).unwrap();
//! assert_eq!(outcome.points.len(), 4);
//! assert!(outcome.points.iter().all(|p| p.result.is_ok()));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod cancel;
mod error;
pub mod executor;
pub mod gen;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod store;
pub mod suites;
pub mod validate;

pub use cache::{CacheKey, CacheStats, CanonicalKey, ScenarioKeySeed, SolveCache, SolveSource};
pub use cancel::CancelToken;
pub use error::EngineError;
pub use executor::{
    run_scenario, run_suite, ExecutorStats, ExpansionSummary, FaultAction, PointOutcome,
    RunSettings, ScenarioOutcome, SolveFault, SuiteOutcome,
};
pub use gen::{generate_suite, GenParams};
pub use pool::Engine;
pub use report::{PointReport, ScenarioReport, SuiteReport, SCHEMA_VERSION};
pub use scenario::{Flow, Scenario, Suite, SweepSpec, ValidationMode, WorkloadSpec};
pub use serve::{Reply, Request, ServeConfig, Server, StatsSnapshot};
pub use store::{
    BreakerConfig, CircuitBreaker, GcOutcome, GcPolicy, RemoteBackend, SolveStore, StoreEntry,
    StoreStats, StoreSummary, STORE_SCHEMA_VERSION,
};
pub use validate::{validate_outcome, PointValidation, ValidationReport};

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::{Path, PathBuf};

    /// A unique, self-cleaning scratch directory for unit tests.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(label: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "bbs-engine-test-{label}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            Self(path)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Scenario>();
        assert_send_sync::<Suite>();
        assert_send_sync::<SolveCache>();
        assert_send_sync::<SolveStore>();
        assert_send_sync::<SuiteOutcome>();
        assert_send_sync::<SuiteReport>();
        assert_send_sync::<ValidationReport>();
        assert_send_sync::<EngineError>();
    }
}
