//! Copy-on-write configuration views.
//!
//! Sweeps evaluate the same [`Configuration`] under many small per-point
//! deltas — today a uniform buffer-capacity cap per sweep point. Cloning the
//! full configuration for every point makes suite *expansion* O(points ×
//! model size) in allocations, which dominates the profile on 10k+-point
//! suites. A [`ConfigView`] removes that cost: it is an
//! `Arc<Configuration>` base plus the delta, cheap to clone (one reference
//! count bump), and it serialises canonically to **exactly** the bytes the
//! materialised clone would produce — so canonical digests, cache keys and
//! store paths derived from a view are indistinguishable from ones derived
//! from a clone. The full configuration is only materialised (once, cached)
//! where real mutation is needed, e.g. at a solver boundary.

use crate::buffer::Buffer;
use crate::canonical::CanonicalDigest;
use crate::configuration::Configuration;
use serde::{canonical, Serialize, Serializer};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A copy-on-write view of a [`Configuration`]: a shared base plus an
/// optional uniform capacity cap applied to every buffer.
///
/// The capped view models what
/// [`with_max_capacity`](crate::Buffer::with_max_capacity) applied to every
/// buffer would produce: the cap *replaces* any per-buffer cap of the base.
/// This matches the capacity sweep of the paper's experiments, where each
/// sweep point constrains all buffers uniformly.
///
/// # Example
///
/// ```
/// use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
/// use bbs_taskgraph::ConfigView;
/// use std::sync::Arc;
///
/// let base = Arc::new(producer_consumer(PaperParameters::default(), None));
/// let view = ConfigView::with_capacity_cap(Arc::clone(&base), 10);
/// // Streams the same canonical bytes as a materialised clone:
/// assert_eq!(view.canonical_json(), view.config().canonical_json());
/// assert_eq!(view.canonical_digest(), view.config().canonical_digest());
/// ```
#[derive(Debug, Clone)]
pub struct ConfigView {
    base: Arc<Configuration>,
    capacity_cap: Option<u64>,
    materialised: OnceLock<Arc<Configuration>>,
}

impl ConfigView {
    /// A view of the base configuration with no delta.
    pub fn new(base: Arc<Configuration>) -> Self {
        Self {
            base,
            capacity_cap: None,
            materialised: OnceLock::new(),
        }
    }

    /// A view that caps the capacity of **every** buffer at `cap`
    /// containers, replacing any per-buffer cap of the base.
    ///
    /// # Panics
    ///
    /// Panics if the cap is zero (mirrors
    /// [`Buffer::with_max_capacity`](crate::Buffer::with_max_capacity)).
    pub fn with_capacity_cap(base: Arc<Configuration>, cap: u64) -> Self {
        assert!(cap > 0, "maximum capacity must be positive");
        Self {
            base,
            capacity_cap: Some(cap),
            materialised: OnceLock::new(),
        }
    }

    /// The shared base configuration, without the delta applied.
    pub fn base(&self) -> &Arc<Configuration> {
        &self.base
    }

    /// The uniform capacity cap of this view, if any.
    pub fn capacity_cap(&self) -> Option<u64> {
        self.capacity_cap
    }

    /// The effective configuration: the base itself when the view carries no
    /// delta, otherwise a materialised clone with the cap applied (computed
    /// once and cached; subsequent calls are free).
    pub fn config(&self) -> &Configuration {
        match self.capacity_cap {
            None => &self.base,
            Some(cap) => self
                .materialised
                .get_or_init(|| Arc::new(apply_capacity_cap(&self.base, cap))),
        }
    }

    /// The effective configuration as a shared handle — the base `Arc` when
    /// the view carries no delta, the cached materialisation otherwise.
    pub fn materialise(&self) -> Arc<Configuration> {
        match self.capacity_cap {
            None => Arc::clone(&self.base),
            Some(cap) => Arc::clone(
                self.materialised
                    .get_or_init(|| Arc::new(apply_capacity_cap(&self.base, cap))),
            ),
        }
    }

    /// The canonical JSON of the effective configuration, streamed from the
    /// view — byte-identical to
    /// [`Configuration::canonical_json`] of [`ConfigView::config`], but
    /// without materialising the capped clone.
    pub fn canonical_json(&self) -> String {
        let mut out = String::new();
        self.serialize_canonical(&mut out);
        out
    }

    /// The streaming [`CanonicalDigest`] of the effective configuration —
    /// equal to [`Configuration::canonical_digest`] of
    /// [`ConfigView::config`], computed without materialising anything.
    pub fn canonical_digest(&self) -> CanonicalDigest {
        crate::canonical::canonical_digest_of(self)
    }
}

impl fmt::Display for ConfigView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.capacity_cap {
            None => write!(f, "view of {}", self.base),
            Some(cap) => write!(f, "view of {} (capacity cap {cap})", self.base),
        }
    }
}

/// Applies a uniform capacity cap to every buffer of a configuration,
/// returning the capped clone. The cap replaces any existing per-buffer cap.
///
/// This is the materialisation primitive behind both
/// [`ConfigView::config`] and the core crate's capacity-sweep helper, so a
/// capped view and a capped clone can never diverge.
///
/// # Panics
///
/// Panics if the cap is zero.
pub fn apply_capacity_cap(base: &Configuration, cap: u64) -> Configuration {
    let mut capped = base.clone();
    for reference in base.all_buffers() {
        let graph = capped.task_graph_mut(reference.graph);
        *graph.buffer_mut(reference.buffer) = graph
            .buffer(reference.buffer)
            .clone()
            .with_max_capacity(cap);
    }
    capped
}

impl Serialize for ConfigView {
    // The capped arm re-emits the derived layout of `Configuration` /
    // `TaskGraph` / `Buffer` (fields in declaration order) with the cap
    // substituted for each buffer's `max_capacity`; the byte-identity with a
    // materialised clone is property-tested in `tests/streaming_digest.rs`.
    fn serialize_canonical(&self, out: &mut dyn Serializer) {
        let Some(cap) = self.capacity_cap else {
            self.base.serialize_canonical(out);
            return;
        };
        out.write_bytes(b"{\"processors\":[");
        for (i, (_, processor)) in self.base.processors().enumerate() {
            if i > 0 {
                out.write_bytes(b",");
            }
            processor.serialize_canonical(out);
        }
        out.write_bytes(b"],\"memories\":[");
        for (i, (_, memory)) in self.base.memories().enumerate() {
            if i > 0 {
                out.write_bytes(b",");
            }
            memory.serialize_canonical(out);
        }
        out.write_bytes(b"],\"task_graphs\":[");
        for (i, (_, graph)) in self.base.task_graphs().enumerate() {
            if i > 0 {
                out.write_bytes(b",");
            }
            out.write_bytes(b"{\"name\":");
            canonical::write_json_string(out, graph.name());
            out.write_bytes(b",\"period\":");
            canonical::write_f64(out, graph.period());
            out.write_bytes(b",\"tasks\":[");
            for (j, (_, task)) in graph.tasks().enumerate() {
                if j > 0 {
                    out.write_bytes(b",");
                }
                task.serialize_canonical(out);
            }
            out.write_bytes(b"],\"buffers\":[");
            for (j, (_, buffer)) in graph.buffers().enumerate() {
                if j > 0 {
                    out.write_bytes(b",");
                }
                write_capped_buffer(buffer, cap, out);
            }
            out.write_bytes(b"]}");
        }
        out.write_bytes(b"],\"budget_granularity\":");
        canonical::write_display(out, self.base.budget_granularity());
        out.write_bytes(b"}");
    }
}

/// Streams one buffer with its `max_capacity` replaced by `cap`.
fn write_capped_buffer(buffer: &Buffer, cap: u64, out: &mut dyn Serializer) {
    out.write_bytes(b"{\"name\":");
    canonical::write_json_string(out, buffer.name());
    out.write_bytes(b",\"producer\":");
    buffer.producer().serialize_canonical(out);
    out.write_bytes(b",\"consumer\":");
    buffer.consumer().serialize_canonical(out);
    out.write_bytes(b",\"memory\":");
    buffer.memory().serialize_canonical(out);
    out.write_bytes(b",\"container_size\":");
    canonical::write_display(out, buffer.container_size());
    out.write_bytes(b",\"initial_tokens\":");
    canonical::write_display(out, buffer.initial_tokens());
    out.write_bytes(b",\"storage_weight\":");
    canonical::write_f64(out, buffer.storage_weight());
    out.write_bytes(b",\"max_capacity\":");
    canonical::write_display(out, cap);
    out.write_bytes(b"}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{producer_consumer, PaperParameters};

    fn base() -> Arc<Configuration> {
        Arc::new(producer_consumer(PaperParameters::default(), None))
    }

    #[test]
    fn uncapped_view_is_the_base() {
        let base = base();
        let view = ConfigView::new(Arc::clone(&base));
        assert!(view.capacity_cap().is_none());
        assert!(std::ptr::eq(view.config(), &*base));
        assert!(Arc::ptr_eq(&view.materialise(), &base));
        assert_eq!(view.canonical_json(), base.canonical_json());
        assert_eq!(view.canonical_digest(), base.canonical_digest());
    }

    #[test]
    fn capped_view_streams_the_capped_clone_bytes() {
        let base = base();
        for cap in [1, 7, 10, u64::MAX] {
            let view = ConfigView::with_capacity_cap(Arc::clone(&base), cap);
            let clone = apply_capacity_cap(&base, cap);
            assert_eq!(view.canonical_json(), clone.canonical_json());
            assert_eq!(view.canonical_digest(), clone.canonical_digest());
            assert_eq!(view.config(), &clone);
        }
    }

    #[test]
    fn cap_replaces_existing_per_buffer_caps() {
        let capped_base = Arc::new(apply_capacity_cap(&base(), 3));
        let view = ConfigView::with_capacity_cap(Arc::clone(&capped_base), 9);
        let clone = apply_capacity_cap(&capped_base, 9);
        assert_eq!(view.canonical_json(), clone.canonical_json());
        for reference in view.config().all_buffers() {
            let buffer = view
                .config()
                .task_graph(reference.graph)
                .buffer(reference.buffer);
            assert_eq!(buffer.max_capacity(), Some(9));
        }
    }

    #[test]
    fn materialisation_is_cached_and_shared() {
        let view = ConfigView::with_capacity_cap(base(), 5);
        let first = view.materialise();
        let second = view.materialise();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(std::ptr::eq(view.config(), &*first));
    }

    #[test]
    fn clone_shares_the_base() {
        let view = ConfigView::with_capacity_cap(base(), 5);
        let copy = view.clone();
        assert!(Arc::ptr_eq(view.base(), copy.base()));
        assert_eq!(copy.capacity_cap(), Some(5));
    }

    #[test]
    fn display_mentions_the_cap() {
        let base = base();
        assert!(!ConfigView::new(Arc::clone(&base))
            .to_string()
            .contains("cap"));
        assert!(ConfigView::with_capacity_cap(base, 4)
            .to_string()
            .contains("capacity cap 4"));
    }

    #[test]
    #[should_panic(expected = "maximum capacity must be positive")]
    fn zero_cap_is_rejected_at_construction() {
        let _ = ConfigView::with_capacity_cap(base(), 0);
    }

    #[test]
    fn tree_serialisation_matches_the_materialised_config() {
        let view = ConfigView::with_capacity_cap(base(), 6);
        assert_eq!(
            serde_json::to_string(&view).unwrap(),
            view.config().canonical_json()
        );
    }
}
