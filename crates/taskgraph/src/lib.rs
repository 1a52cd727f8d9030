//! Application and platform model for throughput-constrained streaming jobs.
//!
//! This crate models the *input* of the joint budget/buffer computation of
//! Wiggers et al. (DATE 2010):
//!
//! * [`Configuration`] — the tuple `C = (Q, P, M, µ, ̺, o, ς, g)`:
//!   task graphs, processors with budget (TDM) schedulers, memories, and the
//!   budget allocation granularity;
//! * [`TaskGraph`] — a streaming job: a directed multigraph of [`Task`]s
//!   connected by bounded FIFO [`Buffer`]s, with a throughput requirement
//!   expressed as a period `µ(T)`;
//! * [`ConfigView`] — a copy-on-write view of a configuration (shared base
//!   plus a per-point delta) that serialises canonically byte-identically to
//!   a materialised clone, used by sweeps to avoid clone-per-point costs;
//! * [`ConfigurationBuilder`] — a fluent, name-based builder used by the
//!   examples and benchmarks;
//! * [`presets`] — the paper's experimental set-ups (`T1`, `T2`) and random
//!   workload generators for scaling studies.
//!
//! # Example
//!
//! ```
//! use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
//!
//! let configuration = producer_consumer(PaperParameters::default(), Some(10));
//! assert_eq!(configuration.num_tasks(), 2);
//! assert!(configuration.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod builder;
mod canonical;
mod configuration;
mod error;
mod graph;
mod ids;
mod memory;
mod processor;
mod task;
mod view;

pub mod presets;

pub use buffer::Buffer;
pub use builder::{
    find_buffer, find_task, find_task_graph, ConfigurationBuilder, TaskGraphBuilder,
};
pub use canonical::{canonical_digest_of, CanonicalDigest, CanonicalHasher};
pub use configuration::{fnv1a, fnv1a_extend, Configuration};
pub use error::ModelError;
pub use graph::TaskGraph;
pub use ids::{BufferId, BufferRef, MemoryId, ProcessorId, TaskGraphId, TaskId, TaskRef};
pub use memory::Memory;
pub use processor::Processor;
pub use task::Task;
pub use view::{apply_capacity_cap, ConfigView};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Configuration>();
        assert_send_sync::<ConfigView>();
        assert_send_sync::<TaskGraph>();
        assert_send_sync::<Task>();
        assert_send_sync::<Buffer>();
        assert_send_sync::<Processor>();
        assert_send_sync::<Memory>();
        assert_send_sync::<ModelError>();
    }

    #[test]
    fn crate_example_runs() {
        let configuration =
            presets::producer_consumer(presets::PaperParameters::default(), Some(10));
        assert_eq!(configuration.num_tasks(), 2);
        assert!(configuration.validate().is_ok());
    }
}
