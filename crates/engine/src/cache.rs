//! Memoization of joint solves, keyed by allocation-free streaming digests.
//!
//! Overlapping sweeps and repeated suite runs solve the same SOCP instance
//! over and over (the `paper` suite alone requests the capacity-1..10
//! producer/consumer solve from four different scenarios). The cache keys
//! each solve by the canonical identity of (configuration, options, flow)
//! and computes every instance exactly once.
//!
//! # The two-level key
//!
//! The identity has two representations:
//!
//! * [`CacheKey`] — a 16-byte `Copy` value holding the 128-bit
//!   [`CanonicalDigest`] of
//!   `solver revision ‖ options ‖ flow ‖ configuration`, computed by
//!   *streaming* the canonical JSON bytes into the digest lanes
//!   ([`serde::Serialize::serialize_canonical`], the same stream every
//!   written report and store body comes from) — no JSON string, zero
//!   heap allocation. This is the `HashMap` key of the
//!   in-memory tier, so the per-lookup cost on the hot path is one digest
//!   pass plus a 16-byte hash.
//! * [`CanonicalKey`] — the materialised form: the full canonical JSON of
//!   the configuration and options plus the flow name, verbatim, and the
//!   solver revision ([`bbs_conic::SOLVER_REVISION`]). Only the
//!   persistent [`SolveStore`] needs it (its on-disk entries repeat the
//!   full key so 64-bit path-hash collisions are detected by string
//!   comparison), so it is built *lazily* — once per distinct key, by the
//!   slot claimer, just before the first disk lookup / store write — and
//!   never on a memory hit.
//!
//! Equal canonical JSON implies equal digests, so the digest key space
//! partitions solves exactly as the old string key did (reports and their
//! embedded hit/miss counters are byte-identical). The converse holds up to
//! a 128-bit collision of two *different* instances: probability ~2⁻⁶⁴ even
//! across billions of keys, which the in-memory tier accepts by design. The
//! disk tier is stricter: a digest collision that reaches the store is
//! caught by the full-key comparison there and heals as a fresh solve (see
//! `docs/ARCHITECTURE.md`, "the two-level cache key").
//!
//! The solver revision is part of the identity because raw solver values
//! are a function of the problem *and* the solver's arithmetic: a store
//! filled by one revision must never answer for another.
//!
//! Per-scenario constants are hoisted: a [`ScenarioKeySeed`] folds the
//! revision, the options JSON and the flow into the digest state once per
//! scenario, so a capacity sweep only streams each point's (capped)
//! configuration — and serialises [`SolveOptions`] exactly once per
//! scenario, not once per point (regression-guarded by
//! [`options_serialisation_count`]).
//!
//! # Claiming
//!
//! The per-key slot is claimed *before* solving: when two workers race on
//! the same key, the first claims the slot (one miss) and the second blocks
//! on the slot's condvar until the result lands (one hit). Hit/miss counts
//! are therefore deterministic — misses equal the number of distinct keys,
//! regardless of worker count or scheduling — which keeps reports
//! byte-identical across `--jobs` settings.
//!
//! A cache built with [`SolveCache::with_store`] additionally reads through
//! to a persistent [`SolveStore`] on every in-memory miss and writes every
//! fresh, persistable result back, so repeated *processes* skip solves too.
//! Because only the slot claimer touches the disk tier, the store's
//! counters inherit the same determinism: exactly one disk lookup per
//! distinct key, regardless of `--jobs`.

use crate::store::SolveStore;
use bbs_conic::{ConicError, SOLVER_REVISION};
use bbs_taskgraph::{fnv1a, CanonicalDigest, CanonicalHasher, ConfigView, Configuration};
use budget_buffer::{Mapping, MappingError, SolveOptions};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

thread_local! {
    /// Counts [`SolveOptions`] serialisations performed for key derivation —
    /// test instrumentation guarding the "options are serialised at most
    /// once per scenario, not once per sweep point" hoist against
    /// regressions. Per thread, so that tests running concurrently in one
    /// process cannot bump each other's counts.
    static OPTIONS_SERIALISATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`SolveOptions`] serialisations the calling thread has
/// performed for key derivation so far (see
/// [`ScenarioKeySeed::options_json`]). Exposed for regression tests;
/// compare deltas, not absolute values, and measure runs at `jobs = 1`,
/// which solve on the calling thread.
pub fn options_serialisation_count() -> u64 {
    OPTIONS_SERIALISATIONS.with(Cell::get)
}

/// The hot-path identity of one solve: a 128-bit streaming digest of the
/// solver revision and the `options ‖ flow ‖ configuration` canonical JSON.
///
/// `Copy`, 16 bytes, and built without a single heap allocation — see the
/// [module docs](self) for how it relates to the materialised
/// [`CanonicalKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    digest: CanonicalDigest,
}

impl CacheKey {
    /// Builds the key for solving `configuration` with `options` under
    /// `flow`. Equivalent to
    /// [`ScenarioKeySeed::new`]`(options, flow).`[`key_for`](ScenarioKeySeed::key_for)`(configuration)`;
    /// sweeps should hoist the seed instead of calling this per point.
    ///
    /// `configuration` is anything that streams the canonical configuration
    /// bytes — an owned [`Configuration`] or a copy-on-write
    /// [`ConfigView`], which stream byte-identically, so views and
    /// materialised clones always derive the same key.
    pub fn new<C: Serialize + ?Sized>(
        configuration: &C,
        options: &SolveOptions,
        flow: &str,
    ) -> Self {
        ScenarioKeySeed::new(options, flow).key_for(configuration)
    }

    /// The digest behind the key (for diagnostics and logs).
    pub fn digest(self) -> CanonicalDigest {
        self.digest
    }
}

/// The per-scenario constants of key derivation, hoisted out of the
/// per-point loop: a digest state pre-folded with the solver revision, the
/// options and the flow name. [`ScenarioKeySeed::key_for`] then derives one
/// point's key by streaming only that point's (capped) configuration on
/// top.
///
/// Creating a seed *streams* the options into the digest — no JSON string
/// exists yet. The options JSON (needed only to materialise
/// [`CanonicalKey`]s for the disk tier) is built lazily by
/// [`ScenarioKeySeed::options_json`], at most once per seed, shared by
/// every point of the scenario.
#[derive(Debug)]
pub struct ScenarioKeySeed {
    /// Digest state after folding
    /// `revision ‖ options ‖ 0x00 ‖ flow ‖ 0x00` (the revision through
    /// [`CanonicalHasher::write_u64`], the options as their canonical JSON
    /// byte stream; the NUL separators keep the concatenation
    /// unambiguous).
    state: CanonicalHasher,
    options: SolveOptions,
    options_json: std::sync::OnceLock<Arc<str>>,
    flow: Arc<str>,
}

impl ScenarioKeySeed {
    /// Hoists the key-derivation constants of one scenario. Allocation-wise
    /// this only clones the (heap-free) options and the flow name; the
    /// options are hashed by streaming, not serialised.
    pub fn new(options: &SolveOptions, flow: &str) -> Self {
        let mut state = CanonicalHasher::new();
        state.write_u64(SOLVER_REVISION);
        serde::Serialize::serialize_canonical(options, &mut state);
        state.write(&[0]);
        state.write(flow.as_bytes());
        state.write(&[0]);
        Self {
            state,
            options: options.clone(),
            options_json: std::sync::OnceLock::new(),
            flow: flow.into(),
        }
    }

    /// The key of one solve of `configuration` under this scenario's
    /// options and flow. Allocation-free: clones the pre-folded digest
    /// state (two words) and streams the configuration into it.
    ///
    /// Accepts an owned [`Configuration`] or a copy-on-write
    /// [`ConfigView`] — both stream the same canonical bytes, so sweeps can
    /// derive keys straight from views without ever cloning the
    /// configuration.
    pub fn key_for<C: Serialize + ?Sized>(&self, configuration: &C) -> CacheKey {
        let mut state = self.state.clone();
        configuration.serialize_canonical(&mut state);
        CacheKey {
            digest: state.finish(),
        }
    }

    /// The scenario's options JSON, serialised on first use and shared
    /// (reference-counted) afterwards — so a whole sweep serialises its
    /// options at most once, and runs without a disk tier never do.
    pub fn options_json(&self) -> Arc<str> {
        Arc::clone(self.options_json.get_or_init(|| {
            OPTIONS_SERIALISATIONS.with(|count| count.set(count.get() + 1));
            serde_json::to_string(&self.options)
                .expect("options serialise to JSON")
                .into()
        }))
    }

    /// The flow name the seed was built with.
    pub fn flow(&self) -> Arc<str> {
        Arc::clone(&self.flow)
    }
}

/// The fully materialised canonical identity of one solve — what the
/// persistent [`SolveStore`] addresses entries by and writes into them.
///
/// Built lazily (once per distinct key, never on a memory hit) via
/// [`CanonicalKey::materialise`]; [`CanonicalKey::from_parts`] is the
/// stand-alone constructor for tests and store management code.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalKey {
    /// FNV-1a fingerprint of the configuration's canonical JSON (the low
    /// digest lane) — kept in store entries for diagnostics.
    pub fingerprint: u64,
    /// The canonical JSON of the (capped) configuration, kept verbatim so
    /// store-entry equality is exact: a 64-bit path-hash collision (or a
    /// 128-bit digest collision) can therefore never alias two different
    /// problems to one entry.
    pub configuration: String,
    /// Canonical JSON of the solve options.
    pub options: String,
    /// Flow name (`joint`, `two-phase-min`, `two-phase-fair`).
    pub flow: String,
    /// The [`bbs_conic::SOLVER_REVISION`] whose raw values the entry holds.
    pub solver_revision: u64,
}

impl CanonicalKey {
    /// Materialises the canonical key from a configuration and an
    /// already-serialised options JSON (the hoisted
    /// [`ScenarioKeySeed::options_json`]), for this build's
    /// [`bbs_conic::SOLVER_REVISION`].
    ///
    /// `configuration` may be an owned [`Configuration`] or a
    /// [`ConfigView`]: the canonical JSON is streamed straight from the
    /// value, so a view produces exactly the bytes its materialised clone
    /// would — store paths and on-disk entries are unchanged.
    pub fn materialise<C: Serialize + ?Sized>(
        configuration: &C,
        options_json: &str,
        flow: &str,
    ) -> Self {
        let mut json = String::new();
        configuration.serialize_canonical(&mut json);
        Self {
            fingerprint: fnv1a(json.as_bytes()),
            configuration: json,
            options: options_json.to_string(),
            flow: flow.to_string(),
            solver_revision: SOLVER_REVISION,
        }
    }

    /// Builds the canonical key from scratch, serialising the options —
    /// the stand-alone route used by tests and store management code.
    pub fn from_parts(configuration: &Configuration, options: &SolveOptions, flow: &str) -> Self {
        let options_json = serde_json::to_string(options).expect("options serialise to JSON");
        Self::materialise(configuration, &options_json, flow)
    }
}

/// A source of the effective [`Configuration`] a cache key was derived
/// from — either the configuration itself or a copy-on-write
/// [`ConfigView`].
///
/// [`SolveCache::solve_with`] is generic over this so the executor can pass
/// sweep views straight through: the disk tier resolves the effective
/// configuration *lazily*, only on the slot-claimer path with a store
/// present, which is exactly the boundary where a capped view must
/// materialise anyway.
pub trait KeyConfiguration {
    /// The effective configuration behind the key. For a capped
    /// [`ConfigView`] this materialises (and caches) the capped clone.
    fn effective(&self) -> &Configuration;
}

impl KeyConfiguration for Configuration {
    fn effective(&self) -> &Configuration {
        self
    }
}

impl KeyConfiguration for ConfigView {
    fn effective(&self) -> &Configuration {
        self.config()
    }
}

/// Hit/miss counters of a [`SolveCache`]'s in-memory tier.
///
/// A run's outcome carries the counters its suite implies — misses equal
/// the number of distinct keys, hits the points beyond them (see
/// [`SuiteOutcome::cache`](crate::SuiteOutcome::cache)) — so they are safe
/// to embed in the deterministic [`SuiteReport`](crate::SuiteReport);
/// [`SolveCache::stats`] keeps the running totals of a long-lived cache.
/// Disk-tier counters (which depend on what previous runs left behind)
/// live in [`StoreStats`](crate::StoreStats) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache (including waits on in-flight
    /// solves).
    pub hits: u64,
    /// Lookups that had to go below the in-memory tier (a disk hit or a
    /// fresh solve).
    pub misses: u64,
}

/// Where one solve result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveSource {
    /// Computed by the solver in this run (or the cache was bypassed).
    Fresh,
    /// Answered by the in-memory tier (including waits on another worker's
    /// in-flight solve of the same key).
    Memory,
    /// Answered by the persistent [`SolveStore`] tier.
    Disk,
}

impl SolveSource {
    /// Whether the result was served by either cache tier.
    pub fn is_hit(self) -> bool {
        !matches!(self, SolveSource::Fresh)
    }
}

/// The error recorded for a solve that panicked.
///
/// Both the slot poison-fill below and the executor's per-item panic
/// boundary use this exact constructor, so the claimer of a panicking key
/// and every waiter blocked on its slot report byte-identical errors — a
/// panic therefore cannot make reports diverge across `--jobs` settings.
pub(crate) fn panicked_solve_error() -> MappingError {
    MappingError::Solver(ConicError::NumericalBreakdown {
        iteration: 0,
        detail: "solve panicked".to_string(),
    })
}

/// The placeholder error a cancelled run's unsolved work items retire
/// with. It keeps the executor's slot accounting whole ("every work item
/// reports exactly once") but is never reported: a run whose
/// [`CancelToken`](crate::CancelToken) fired yields
/// [`EngineError::Cancelled`](crate::EngineError::Cancelled) instead of an
/// outcome.
pub(crate) fn cancelled_solve_error() -> MappingError {
    MappingError::Solver(ConicError::NumericalBreakdown {
        iteration: 0,
        detail: "solve cancelled".to_string(),
    })
}

/// One memoization slot: filled exactly once, awaited by later lookups.
struct Slot {
    result: Mutex<Option<Result<Mapping, MappingError>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }
}

/// A thread-safe memoization table for joint solves, optionally layered on
/// a persistent [`SolveStore`].
///
/// # Example
///
/// ```
/// use bbs_engine::{CacheKey, CanonicalKey, SolveCache, SolveSource};
/// use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
/// use budget_buffer::{compute_mapping, with_capacity_cap, SolveOptions};
///
/// let configuration =
///     with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 4);
/// let options = SolveOptions::default().prefer_budget_minimisation();
/// let cache = SolveCache::new();
/// let key = CacheKey::new(&configuration, &options, "joint");
/// // Materialised only if a disk tier needs it — never on this in-memory
/// // cache, and never on a hit.
/// let canonical = || CanonicalKey::from_parts(&configuration, &options, "joint");
///
/// let (first, source) = cache.solve_with(key, &configuration, canonical, || {
///     compute_mapping(&configuration, &options)
/// });
/// assert_eq!(source, SolveSource::Fresh);
///
/// // The second lookup never invokes the solve closure.
/// let canonical = || CanonicalKey::from_parts(&configuration, &options, "joint");
/// let (second, source) = cache.solve_with(key, &configuration, canonical, || unreachable!());
/// assert_eq!(source, SolveSource::Memory);
/// assert_eq!(first.unwrap(), second.unwrap());
/// ```
#[derive(Default)]
pub struct SolveCache {
    slots: Mutex<HashMap<CacheKey, Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    store: Option<SolveStore>,
}

impl SolveCache {
    /// An empty cache with no persistent tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty in-memory cache layered on `store`: in-memory misses read
    /// through to disk, and fresh results are written back.
    pub fn with_store(store: SolveStore) -> Self {
        Self {
            store: Some(store),
            ..Self::default()
        }
    }

    /// The persistent tier, when the cache was built with
    /// [`SolveCache::with_store`].
    pub fn store(&self) -> Option<&SolveStore> {
        self.store.as_ref()
    }

    /// Returns the memoized result for `key`, calling `solve` at most once
    /// per distinct key across all threads (and not at all when the
    /// persistent tier answers). `configuration` must be the configuration
    /// the key was built from — a [`Configuration`] or a [`ConfigView`];
    /// the disk tier rebuilds mappings against its
    /// [effective](KeyConfiguration::effective) form instead of re-parsing
    /// canonical JSON, resolved lazily so views only materialise on the
    /// claimer path of a store-backed cache. `canonical` materialises the
    /// full [`CanonicalKey`] for the disk tier; it runs at most once per
    /// distinct key (the slot claimer, store present), so hits — memory or
    /// in-flight waits — never serialise anything. The [`SolveSource`]
    /// reports which tier, if any, served the result.
    pub fn solve_with(
        &self,
        key: CacheKey,
        configuration: &impl KeyConfiguration,
        canonical: impl FnOnce() -> CanonicalKey,
        solve: impl FnOnce() -> Result<Mapping, MappingError>,
    ) -> (Result<Mapping, MappingError>, SolveSource) {
        let (slot, claimed) = {
            let mut slots = self.slots.lock().expect("cache lock poisoned");
            match slots.entry(key) {
                Entry::Occupied(entry) => (Arc::clone(entry.get()), false),
                Entry::Vacant(entry) => (Arc::clone(entry.insert(Arc::new(Slot::new()))), true),
            }
        };
        if claimed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            // A panicking lookup — whether in the disk tier or in the solve
            // itself — must still fill the slot, or every waiter on this
            // key would block forever and the joining scope would hang
            // instead of propagating the panic.
            let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Only the claimer materialises the canonical key and
                // consults the disk tier, so the materialisation cost is
                // once per distinct key and disk hit/miss counts stay
                // deterministic across worker counts.
                let canonical_key = self.store.as_ref().map(|_| canonical());
                let store = self.store.as_ref().zip(canonical_key.as_ref());
                match store.and_then(|(store, key)| store.load(key, configuration.effective())) {
                    Some(result) => (result, SolveSource::Disk, canonical_key),
                    None => (solve(), SolveSource::Fresh, canonical_key),
                }
            }));
            let (result, source, canonical_key) = match computed {
                Ok(computed) => computed,
                Err(panic) => {
                    let poison = Err(panicked_solve_error());
                    let mut guard = slot.result.lock().expect("slot lock poisoned");
                    *guard = Some(poison);
                    slot.ready.notify_all();
                    drop(guard);
                    std::panic::resume_unwind(panic);
                }
            };
            let mut guard = slot.result.lock().expect("slot lock poisoned");
            *guard = Some(result.clone());
            slot.ready.notify_all();
            drop(guard);
            if source == SolveSource::Fresh {
                if let Some((store, key)) = self.store.as_ref().zip(canonical_key.as_ref()) {
                    store.save(key, &result);
                }
            }
            (result, source)
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let mut guard = slot.result.lock().expect("slot lock poisoned");
            while guard.is_none() {
                guard = slot.ready.wait(guard).expect("slot wait poisoned");
            }
            (guard.clone().expect("slot filled"), SolveSource::Memory)
        }
    }

    /// Current hit/miss counters of the in-memory tier.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
    use budget_buffer::{compute_mapping, with_capacity_cap};

    fn paper_options() -> SolveOptions {
        SolveOptions::default().prefer_budget_minimisation()
    }

    /// The materialisation closure for tests that never consult a store.
    fn unused_canonical() -> CanonicalKey {
        panic!("canonical key must not be materialised without a store")
    }

    #[test]
    fn second_lookup_is_a_hit_with_equal_result() {
        let configuration =
            with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 4);
        let options = paper_options();
        let cache = SolveCache::new();
        let key = CacheKey::new(&configuration, &options, "joint");
        let (first, source1) = cache.solve_with(key, &configuration, unused_canonical, || {
            compute_mapping(&configuration, &options)
        });
        let (second, source2) = cache.solve_with(key, &configuration, unused_canonical, || {
            panic!("must not re-solve")
        });
        assert_eq!(source1, SolveSource::Fresh);
        assert!(!source1.is_hit());
        assert_eq!(source2, SolveSource::Memory);
        assert!(source2.is_hit());
        assert_eq!(first.unwrap(), second.unwrap());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn distinct_caps_use_distinct_keys() {
        let base = producer_consumer(PaperParameters::default(), None);
        let options = paper_options();
        let k4 = CacheKey::new(&with_capacity_cap(&base, 4), &options, "joint");
        let k5 = CacheKey::new(&with_capacity_cap(&base, 5), &options, "joint");
        assert_ne!(k4, k5);
        let other_flow = CacheKey::new(&with_capacity_cap(&base, 4), &options, "two-phase-min");
        assert_ne!(k4, other_flow);
        let other_options = CacheKey::new(
            &with_capacity_cap(&base, 4),
            &paper_options().with_cutting_plane(),
            "joint",
        );
        assert_ne!(k4, other_options);
    }

    #[test]
    fn seed_derived_keys_match_standalone_construction() {
        // The hoisted per-scenario route and the stand-alone constructor
        // must agree key-for-key, or sweeps and single solves of the same
        // instance would stop deduplicating.
        let base = producer_consumer(PaperParameters::default(), None);
        let options = paper_options();
        let seed = ScenarioKeySeed::new(&options, "joint");
        for cap in 1..=6u64 {
            let capped = with_capacity_cap(&base, cap);
            assert_eq!(
                seed.key_for(&capped),
                CacheKey::new(&capped, &options, "joint")
            );
        }
        assert_eq!(seed.key_for(&base), CacheKey::new(&base, &options, "joint"));
    }

    #[test]
    fn materialised_and_standalone_canonical_keys_agree() {
        let configuration =
            with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 3);
        let options = paper_options();
        let seed = ScenarioKeySeed::new(&options, "joint");
        let materialised =
            CanonicalKey::materialise(&configuration, &seed.options_json(), &seed.flow());
        assert_eq!(
            materialised,
            CanonicalKey::from_parts(&configuration, &options, "joint")
        );
        assert_eq!(
            materialised.fingerprint,
            configuration.canonical_fingerprint()
        );
        assert_eq!(materialised.configuration, configuration.canonical_json());
        assert_eq!(materialised.solver_revision, SOLVER_REVISION);
    }

    #[test]
    fn the_key_digest_folds_the_solver_revision_first() {
        // Raw values depend on the solver's arithmetic, so a key of another
        // revision must address another solve.
        let configuration =
            with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 3);
        let options = paper_options();
        let digest_at = |revision: u64| {
            let mut state = CanonicalHasher::new();
            state.write_u64(revision);
            serde::Serialize::serialize_canonical(&options, &mut state);
            state.write(b"\0joint\0");
            configuration.serialize_canonical(&mut state);
            state.finish()
        };
        let key = CacheKey::new(&configuration, &options, "joint");
        assert_eq!(key.digest(), digest_at(SOLVER_REVISION));
        assert_ne!(key.digest(), digest_at(SOLVER_REVISION - 1));
    }

    #[test]
    fn view_derived_keys_match_clone_derived_keys() {
        // The executor derives keys (and canonical keys) straight from
        // copy-on-write views; both must be byte-identical to the
        // clone-derived forms or the store would fork into a second key
        // space.
        let base = Arc::new(producer_consumer(PaperParameters::default(), None));
        let options = paper_options();
        let seed = ScenarioKeySeed::new(&options, "joint");
        for cap in 1..=6u64 {
            let view = ConfigView::with_capacity_cap(Arc::clone(&base), cap);
            let clone = with_capacity_cap(&base, cap);
            assert_eq!(seed.key_for(&view), seed.key_for(&clone));
            let materialised = CanonicalKey::materialise(&view, &seed.options_json(), &seed.flow());
            assert_eq!(
                materialised,
                CanonicalKey::from_parts(&clone, &options, "joint")
            );
            assert_eq!(materialised.configuration, clone.canonical_json());
        }
        let view = ConfigView::new(Arc::clone(&base));
        assert_eq!(seed.key_for(&view), seed.key_for(base.as_ref()));
    }

    #[test]
    fn options_are_serialised_at_most_once_per_seed_never_per_key() {
        let base = producer_consumer(PaperParameters::default(), None);
        let options = paper_options();
        let before = options_serialisation_count();
        let seed = ScenarioKeySeed::new(&options, "joint");
        for cap in 1..=6u64 {
            let _ = seed.key_for(&with_capacity_cap(&base, cap));
        }
        assert_eq!(
            options_serialisation_count() - before,
            0,
            "key derivation alone must never serialise options"
        );
        let first = seed.options_json();
        let second = seed.options_json();
        assert_eq!(first, second);
        assert_eq!(
            options_serialisation_count() - before,
            1,
            "materialisation must serialise exactly once per seed"
        );
    }

    #[test]
    fn key_equality_requires_both_digest_lanes() {
        let base = producer_consumer(PaperParameters::default(), None);
        let options = paper_options();
        let a = CacheKey::new(&with_capacity_cap(&base, 4), &options, "joint");
        let b = CacheKey::new(&with_capacity_cap(&base, 5), &options, "joint");
        assert_ne!(a.digest().lo, b.digest().lo);
        assert_ne!(a.digest().hi, b.digest().hi);
    }

    #[test]
    fn failures_are_memoized_too() {
        let configuration =
            with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 4);
        let cache = SolveCache::new();
        let key = CacheKey::new(&configuration, &paper_options(), "joint");
        let (first, _) = cache.solve_with(key, &configuration, unused_canonical, || {
            Err(MappingError::Infeasible {
                detail: "injected".to_string(),
            })
        });
        assert!(first.is_err());
        let (second, source) = cache.solve_with(key, &configuration, unused_canonical, || {
            panic!("must not re-solve")
        });
        assert_eq!(source, SolveSource::Memory);
        assert_eq!(first, second);
    }

    #[test]
    fn panicking_solve_poisons_the_slot_instead_of_deadlocking() {
        let configuration =
            with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 4);
        let cache = SolveCache::new();
        let key = CacheKey::new(&configuration, &paper_options(), "joint");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.solve_with(key, &configuration, unused_canonical, || {
                panic!("injected solver panic")
            })
        }));
        assert!(panicked.is_err(), "the claimer must re-raise the panic");
        // Waiters (and later lookups) get a poison error instead of hanging.
        let (result, source) = cache.solve_with(key, &configuration, unused_canonical, || {
            panic!("must not re-solve")
        });
        assert_eq!(source, SolveSource::Memory);
        assert!(result.unwrap_err().to_string().contains("panicked"));
    }

    #[test]
    fn disk_tier_answers_fresh_caches() {
        let directory = crate::testutil::TempDir::new("cache-disk-tier");
        let configuration =
            with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 4);
        let options = paper_options();
        let key = CacheKey::new(&configuration, &options, "joint");
        let canonical = || CanonicalKey::from_parts(&configuration, &options, "joint");

        let cold = SolveCache::with_store(SolveStore::open(directory.path()).unwrap());
        let (first, source) = cold.solve_with(key, &configuration, canonical, || {
            compute_mapping(&configuration, &options)
        });
        assert_eq!(source, SolveSource::Fresh);
        assert_eq!(cold.store().unwrap().stats().stored, 1);
        // Same process, same cache: the in-memory tier answers first, and
        // the canonical key is not rebuilt.
        let (_, source) = cold.solve_with(key, &configuration, unused_canonical, || {
            panic!("must not re-solve")
        });
        assert_eq!(source, SolveSource::Memory);

        // A fresh cache on the same directory — a new process — reads disk.
        let canonical = || CanonicalKey::from_parts(&configuration, &options, "joint");
        let warm = SolveCache::with_store(SolveStore::open(directory.path()).unwrap());
        let (second, source) = warm.solve_with(key, &configuration, canonical, || {
            panic!("must not re-solve")
        });
        assert_eq!(source, SolveSource::Disk);
        assert_eq!(first.unwrap(), second.unwrap());
        let stats = warm.store().unwrap().stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.fresh_solves, 0);
        // The in-memory tier still counts the lookup as its own miss.
        assert_eq!(warm.stats(), CacheStats { hits: 0, misses: 1 });
    }

    #[test]
    fn concurrent_lookups_solve_once() {
        let configuration =
            with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 4);
        let options = paper_options();
        let cache = SolveCache::new();
        let solves = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let key = CacheKey::new(&configuration, &options, "joint");
                    let (result, _) =
                        cache.solve_with(key, &configuration, unused_canonical, || {
                            solves.fetch_add(1, Ordering::Relaxed);
                            compute_mapping(&configuration, &options)
                        });
                    assert!(result.is_ok());
                });
            }
        });
        assert_eq!(solves.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }
}
