//! Umbrella crate for the budget/buffer co-computation workspace.
//!
//! This package exists to host the workspace-level integration tests in
//! `tests/` and the runnable examples in `examples/`. It simply re-exports the
//! member crates so that examples and tests can use a single, convenient
//! namespace.
//!
//! The actual library lives in the member crates:
//!
//! * [`budget_buffer`] — the paper's contribution (joint budget/buffer sizing).
//! * [`bbs_taskgraph`] — application and platform model.
//! * [`bbs_srdf`] — single-rate dataflow analysis.
//! * [`bbs_conic`] — LP/SOCP interior-point solver.
//! * [`bbs_linalg`] — linear algebra kernels (compressed-row G, the sparse KKT factorisation, the dense start).
//! * [`bbs_scheduler_sim`] — TDM budget-scheduler simulator.
//! * [`bbs_engine`] — batch-solving engine (scenarios, executor, cache, `bbs` CLI).

pub use bbs_conic as conic;
pub use bbs_engine as engine;
pub use bbs_linalg as linalg;
pub use bbs_scheduler_sim as scheduler_sim;
pub use bbs_srdf as srdf;
pub use bbs_taskgraph as taskgraph;
pub use budget_buffer;
