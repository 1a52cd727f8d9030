//! The persistent, content-addressed solve store — the disk tier below the
//! in-memory [`SolveCache`](crate::SolveCache).
//!
//! Every `bbs` invocation starts with an empty in-memory cache, so without
//! persistence a re-run of a suite pays full solve cost for every distinct
//! problem instance. The store closes that gap: each completed solve is
//! written out keyed by the same canonical identity the in-memory cache
//! uses — the (configuration, options, flow) triple of the
//! [`CanonicalKey`] — and later runs (of any process) read it back instead
//! of solving again.
//!
//! # Backends and tiers
//!
//! *Where* bodies live is behind the [`StoreBackend`] trait (see
//! [`backend`]): the store owns a **primary** backend — by default a
//! [`LocalDirBackend`] directory tree — plus an optional **remote** tier
//! ([`RemoteBackend`], see [`remote`]) speaking the serve protocol to a
//! peer `bbs serve` daemon. Lookups read the primary first, then fall
//! through to the remote; a remote hit is validated like any local entry
//! and written back into the primary (read-through). Fresh results are
//! written to the primary synchronously and shipped to the remote
//! asynchronously (write-behind). The store itself keeps all semantics —
//! addressing, collision guards, validation, retention — so every backend
//! shares one correctness story.
//!
//! # Layout (the local backend)
//!
//! ```text
//! <root>/v2/<hh>/<hhhhhhhhhhhhhhhh>.mlz   current: minilz-compressed JSON
//! <root>/v1/<hh>/<hhhhhhhhhhhhhhhh>.json  read-compat: plain JSON
//! ```
//!
//! where `hhhhhhhhhhhhhhhh` is the 16-hex-digit FNV-1a hash of the full
//! cache key ([`entry_address`]) and `<hh>` its first two digits (a
//! 256-way fan-out so no single directory grows huge). `v2` is
//! [`STORE_SCHEMA_VERSION`]; `v1` trees written by older builds stay
//! readable ([`OLDEST_READABLE_SCHEMA`]) and migrate either lazily on
//! rewrite or in one pass via `bbs cache gc --recompress`. Each entry body
//! is a single JSON object that repeats the *full* canonical key, so a
//! 64-bit hash collision is detected by string comparison and treated as a
//! miss, never as a wrong answer.
//!
//! # Crash- and concurrency-safety
//!
//! Entries are written to a temporary file in the destination directory
//! and atomically renamed into place, so concurrent `bbs --jobs N` runs
//! (or several independent processes sharing one cache directory) can race
//! freely: the worst case is solving the same instance twice and one
//! writer winning the rename. Partial, truncated or otherwise corrupt
//! entries are counted and ignored — the engine falls back to a fresh
//! solve and rewrites the entry.
//!
//! # What is (not) persisted
//!
//! Feasible mappings are stored as the solver's *raw* values plus
//! objective and iteration count; the rounded mapping is reconstructed
//! with [`Mapping::from_raw`], which is deterministic, so a disk hit is
//! bit-identical to the original solve. Genuine infeasibility (no mapping
//! exists — a mathematical property of the problem) is persisted too.
//! Solver breakdowns, model errors and verification failures are *not*
//! persisted: they describe the engine, not the problem, and must be
//! re-attempted by later runs.
//!
//! # Example
//!
//! ```
//! use bbs_engine::{Engine, RunSettings, SolveCache, SolveStore};
//! use bbs_engine::suites::smoke_suite;
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("bbs-store-doc-{}", std::process::id()));
//! let engine = Engine::new(1);
//! let settings = RunSettings::default();
//!
//! // Cold run: every distinct instance is solved and stored.
//! let cache = Arc::new(SolveCache::with_store(SolveStore::open(&dir).unwrap()));
//! engine.run_suite_with_cache(&smoke_suite(), &settings, &cache).unwrap();
//! let cold = cache.store().unwrap().stats();
//! assert_eq!(cold.disk_hits, 0);
//! assert!(cold.stored > 0);
//!
//! // Warm run in a fresh cache (a new process): all disk hits, no solves.
//! let cache = Arc::new(SolveCache::with_store(SolveStore::open(&dir).unwrap()));
//! engine.run_suite_with_cache(&smoke_suite(), &settings, &cache).unwrap();
//! let warm = cache.store().unwrap().stats();
//! assert_eq!(warm.fresh_solves, 0);
//! assert_eq!(warm.disk_hits, cold.stored);
//!
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod backend;
pub mod breaker;
pub mod remote;

pub use backend::{
    LocalDirBackend, RawEntry, StoreBackend, StoreEntry, OLDEST_READABLE_SCHEMA,
    STORE_SCHEMA_VERSION,
};
pub use breaker::{BreakerConfig, CircuitBreaker, RemoteHealth};
pub use remote::RemoteBackend;

use crate::cache::CanonicalKey;
use bbs_taskgraph::{fnv1a, BufferRef, Configuration, MemoryId, ProcessorId, TaskRef};
use budget_buffer::{Mapping, MappingError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, SystemTime};

/// Run counters of a [`SolveStore`], all deterministic across `--jobs`
/// because the in-memory tier funnels exactly one lookup per distinct key
/// to the persistent tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Lookups answered by the primary (local) tier.
    pub disk_hits: u64,
    /// Lookups the primary missed that the remote tier answered.
    pub remote_hits: u64,
    /// Lookups that found no usable entry in any tier and had to solve.
    pub fresh_solves: u64,
    /// Entries newly written to the primary tier: persistable fresh solves
    /// plus read-through fills from the remote tier.
    pub stored: u64,
    /// Entries ignored because they were corrupt, carried a foreign schema
    /// version, or collided with a different key.
    pub rejected: u64,
    /// Whether a remote tier is attached. Configuration, not a counter —
    /// it lets renderers show the remote column only when one exists.
    pub remote_enabled: bool,
    /// Times the remote tier's circuit breaker opened (consecutive
    /// transport failures reached the threshold). Zero without a remote
    /// tier.
    pub breaker_opens: u64,
    /// Times a health probe succeeded against an open breaker and closed
    /// it again.
    pub breaker_closes: u64,
    /// Health probes attempted while the breaker was open (successful or
    /// not).
    pub breaker_probes: u64,
    /// Whether the breaker is open *right now* — remote traffic is being
    /// fail-fasted while background probes look for recovery.
    pub breaker_open: bool,
    /// Write-behind entries dropped because the breaker was open when
    /// their turn came. They cost the peer warmth only; the local tier
    /// already holds them.
    pub dropped_puts: u64,
}

/// What `bbs cache stats` reports: a full scan of the primary tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreSummary {
    /// Readable entries of a supported schema version.
    pub entries: u64,
    /// Entries holding a feasible mapping.
    pub feasible: u64,
    /// Entries holding a persisted infeasibility.
    pub infeasible: u64,
    /// Files that failed to read or parse, or carry a foreign schema
    /// version.
    pub corrupt: u64,
    /// Valid entries still in the `v1` (plain JSON) container format.
    pub v1_entries: u64,
    /// Valid entries in the current `v2` (compressed) container format.
    pub v2_entries: u64,
    /// Physical size of all entry files, in bytes (compressed sizes for
    /// `v2`).
    pub total_bytes: u64,
    /// Uncompressed size of all readable entry bodies, in bytes. The
    /// `logical/physical` ratio is the compression win; for a pure-`v1`
    /// tree the two are equal.
    pub logical_bytes: u64,
}

/// Retention policy for [`SolveStore::gc`]. Unset fields do not constrain.
///
/// Constraints apply in order: age eviction first, then the entry-count
/// cap, then the byte budget — each oldest-first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPolicy {
    /// Keep at most this many entries (the most recently written survive).
    pub max_entries: Option<u64>,
    /// Keep at most this many *physical* bytes of entry files.
    pub max_bytes: Option<u64>,
    /// Remove entries last written longer than this ago.
    pub max_age: Option<Duration>,
}

/// What a [`SolveStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entry files removed.
    pub removed: u64,
    /// Entry files kept.
    pub kept: u64,
    /// Physical bytes of the kept entry files.
    pub kept_bytes: u64,
    /// Entries whose modification time the filesystem could not report.
    /// They are treated as written *now* — never age-evicted — instead of
    /// as infinitely old, which on such filesystems would make a
    /// `--max-age` pass wipe the entire store.
    pub unreadable_mtimes: u64,
}

/// What a [`SolveStore::recompress`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecompressOutcome {
    /// `v1` entries rewritten as `v2` containers.
    pub migrated: u64,
    /// Entries already in the current container format, left untouched.
    pub already_current: u64,
    /// `v1` files skipped because they failed to read or validate; they
    /// stay in place for `bbs cache stats` to report as corrupt.
    pub corrupt: u64,
    /// Valid `v1` entries whose rewrite failed (I/O); left in place.
    pub failed: u64,
}

/// One entry body: the full canonical key (collision guard) plus exactly
/// one of a stored mapping or a stored infeasibility.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredEntry {
    schema: u64,
    fingerprint: u64,
    configuration: String,
    options: String,
    flow: String,
    feasible: Option<StoredMapping>,
    infeasible: Option<StoredInfeasibility>,
}

/// The raw solver values a [`Mapping`] is deterministically rebuilt from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredMapping {
    raw_budgets: Vec<(TaskRef, f64)>,
    raw_space: Vec<(BufferRef, f64)>,
    objective: f64,
    solver_iterations: u64,
}

/// A persisted genuine-infeasibility outcome. `kind` selects the
/// [`MappingError`] variant; the variant's fields ride along as options
/// (the vendored serde derives structs only, so enums are flattened here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredInfeasibility {
    kind: String,
    detail: Option<String>,
    buffer: Option<BufferRef>,
    cap: Option<u64>,
    initial_tokens: Option<u64>,
    processor: Option<ProcessorId>,
    required_cycles: Option<f64>,
    available_cycles: Option<f64>,
    memory: Option<MemoryId>,
    required_storage: Option<u64>,
    available_storage: Option<u64>,
}

/// Entry-count and byte estimates maintained by the write-path cap
/// enforcement; `None` in the surrounding `Mutex<Option<…>>` means
/// "unknown, rescan before the next decision".
#[derive(Debug, Clone, Copy)]
struct TrackedSize {
    entries: u64,
    bytes: u64,
}

/// A persistent, content-addressed store of solve results.
///
/// Open one with [`SolveStore::open`] (a local directory tree), optionally
/// layer a remote tier under it with [`with_remote`](Self::with_remote),
/// and attach it to a cache with
/// [`SolveCache::with_store`](crate::SolveCache::with_store); the cache
/// then reads through to the store on every in-memory miss and writes
/// every fresh, persistable result back. See the [module docs](self) for
/// the format, the tiering and the safety story.
#[derive(Debug)]
pub struct SolveStore {
    root: PathBuf,
    primary: Box<dyn StoreBackend>,
    remote: Option<Box<dyn StoreBackend>>,
    disk_hits: AtomicU64,
    remote_hits: AtomicU64,
    fresh_solves: AtomicU64,
    stored: AtomicU64,
    rejected: AtomicU64,
    /// Automatic size caps enforced on the write path (see
    /// [`SolveStore::with_max_entries`] and
    /// [`SolveStore::with_max_bytes`]); `None` leaves growth to manual
    /// `bbs cache gc`.
    max_entries: Option<u64>,
    max_bytes: Option<u64>,
    /// Size estimate maintained by the cap enforcement. Deliberately
    /// approximate — overwrites and concurrent writers drift it upward,
    /// which only makes enforcement run (and resynchronise from a real
    /// scan) earlier.
    tracked: Mutex<Option<TrackedSize>>,
}

impl SolveStore {
    /// Opens (creating if needed) a store rooted at `dir`, backed by a
    /// [`LocalDirBackend`].
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the directory cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let root = dir.as_ref().to_path_buf();
        let backend = LocalDirBackend::open(&root)?;
        Ok(Self::with_backend(root, Box::new(backend)))
    }

    /// Opens a store rooted at an *existing* directory, creating nothing —
    /// the constructor for read-and-manage commands (`bbs cache`), which
    /// must not materialise a store tree at a mistyped path.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::NotFound`] when `dir` is not a directory.
    pub fn open_existing(dir: impl AsRef<Path>) -> io::Result<Self> {
        let root = dir.as_ref().to_path_buf();
        let backend = LocalDirBackend::open_existing(&root)?;
        Ok(Self::with_backend(root, Box::new(backend)))
    }

    /// Builds a store over an arbitrary primary [`StoreBackend`]. `label`
    /// is what [`root`](Self::root) reports — for the default constructors
    /// it is the real directory; for custom backends it is a display
    /// label.
    pub fn with_backend(label: impl Into<PathBuf>, primary: Box<dyn StoreBackend>) -> Self {
        Self {
            root: label.into(),
            primary,
            remote: None,
            disk_hits: AtomicU64::new(0),
            remote_hits: AtomicU64::new(0),
            fresh_solves: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            max_entries: None,
            max_bytes: None,
            tracked: Mutex::new(None),
        }
    }

    /// Layers a remote tier under the primary backend: lookups fall
    /// through to it on a primary miss (read-through — a remote hit is
    /// validated and written back into the primary), and fresh results are
    /// shipped to it best-effort after the primary write (write-behind).
    #[must_use]
    pub fn with_remote(mut self, remote: Box<dyn StoreBackend>) -> Self {
        self.remote = Some(remote);
        self
    }

    /// Enforces an automatic entry-count cap on the write path: whenever a
    /// write pushes the store beyond `max_entries`, the same deterministic
    /// retention pass `bbs cache gc --max-entries` runs evicts oldest-first
    /// (mtime order, ties broken by path) back down to the cap. A cap of 0
    /// is accepted and keeps the store empty.
    ///
    /// The enforcement keeps a size estimate so the common case (under the
    /// cap) costs one counter bump per write; the estimate is
    /// (re)synchronised from a directory scan when unknown or after every
    /// eviction pass, so concurrent writers and overwrites can only make
    /// enforcement run early, never miss the bound for long.
    #[must_use]
    pub fn with_max_entries(mut self, max_entries: u64) -> Self {
        self.max_entries = Some(max_entries);
        self
    }

    /// Enforces an automatic *byte* budget on the write path, the
    /// physical-size analogue of [`with_max_entries`](Self::with_max_entries)
    /// (`bbs cache gc --max-bytes` is the manual form). Compressed `v2`
    /// entries count at their physical (compressed) size.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// The automatic entry-count cap, when one was set.
    pub fn max_entries(&self) -> Option<u64> {
        self.max_entries
    }

    /// The automatic byte budget, when one was set.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The directory the store was opened at (a display label for custom
    /// backends).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether a remote tier is attached.
    pub fn has_remote(&self) -> bool {
        self.remote.is_some()
    }

    /// This run's counters, including the remote tier's circuit-breaker
    /// health when one is attached.
    pub fn stats(&self) -> StoreStats {
        let health = self
            .remote
            .as_ref()
            .and_then(|remote| remote.health())
            .unwrap_or_default();
        StoreStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            fresh_solves: self.fresh_solves.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            remote_enabled: self.remote.is_some(),
            breaker_opens: health.breaker_opens,
            breaker_closes: health.breaker_closes,
            breaker_probes: health.breaker_probes,
            breaker_open: health.breaker_open,
            dropped_puts: health.dropped_puts,
        }
    }

    /// Looks `key` up in the persistent tiers; `configuration` must be the
    /// configuration the key was built from (it rebuilds the mapping
    /// without re-parsing the key's canonical JSON). Reads the primary
    /// tier first, then the remote; a remote hit is written back into the
    /// primary. Returns `None` — after bumping the fresh-solve counter —
    /// when no tier holds a usable entry.
    pub fn load(
        &self,
        key: &CanonicalKey,
        configuration: &Configuration,
    ) -> Option<Result<Mapping, MappingError>> {
        debug_assert_eq!(
            key.configuration,
            configuration.canonical_json(),
            "load() must receive the configuration its key was built from"
        );
        self.try_load(key, configuration)
    }

    /// [`load`](Self::load) without the matching-configuration debug
    /// assertion — the tier walk itself.
    fn try_load(
        &self,
        key: &CanonicalKey,
        configuration: &Configuration,
    ) -> Option<Result<Mapping, MappingError>> {
        let address = entry_address(key);
        if let Some((result, _)) =
            self.lookup_tier(self.primary.as_ref(), &address, key, configuration, true)
        {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Some(result);
        }
        if let Some(remote) = &self.remote {
            if let Some((result, body)) =
                self.lookup_tier(remote.as_ref(), &address, key, configuration, false)
            {
                self.remote_hits.fetch_add(1, Ordering::Relaxed);
                // Read-through: populate the primary tier so the next run
                // (and the rest of this one) hits locally.
                self.persist_primary(&address, &body);
                return Some(result);
            }
        }
        self.fresh_solves.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// One tier's lookup: fetch, parse, validate (schema, full-key
    /// collision guard, outcome shape), decode. Validation failures bump
    /// the `rejected` counter on any tier; plain *transport/read* errors
    /// bump it only when `count_read_errors` is set (local tier — a
    /// broken remote is expected degradation, not a corrupt entry).
    fn lookup_tier(
        &self,
        tier: &dyn StoreBackend,
        address: &str,
        key: &CanonicalKey,
        configuration: &Configuration,
        count_read_errors: bool,
    ) -> Option<(Result<Mapping, MappingError>, String)> {
        let raw = match tier.get(address) {
            Ok(Some(raw)) => raw,
            // A missing entry is the normal cold-cache case, not a rejection.
            Ok(None) => return None,
            Err(_) => {
                if count_read_errors {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        let Ok(entry) = serde_json::from_str::<StoredEntry>(&raw.body) else {
            return self.reject();
        };
        if !is_readable_schema(entry.schema) {
            return self.reject();
        }
        // Full-key comparison: a 64-bit hash collision surfaces here and
        // falls back to a fresh solve instead of returning a wrong answer.
        if entry.fingerprint != key.fingerprint
            || entry.configuration != key.configuration
            || entry.options != key.options
            || entry.flow != key.flow
        {
            return self.reject();
        }
        match (entry.feasible, entry.infeasible) {
            (Some(mapping), None) => match decode_mapping(&mapping, configuration) {
                Some(mapping) => Some((Ok(mapping), raw.body)),
                None => self.reject(),
            },
            (None, Some(error)) => match decode_infeasibility(&error) {
                Some(error) => Some((Err(error), raw.body)),
                None => self.reject(),
            },
            _ => self.reject(),
        }
    }

    fn reject(&self) -> Option<(Result<Mapping, MappingError>, String)> {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Persists a solve result, best-effort: I/O failures and
    /// non-persistable errors (solver breakdowns, model errors,
    /// verification failures — see the [module docs](self)) are skipped
    /// silently; the next run simply solves again. The primary write is
    /// synchronous; the remote tier (when attached) receives the body
    /// write-behind.
    pub fn save(&self, key: &CanonicalKey, result: &Result<Mapping, MappingError>) {
        let Some(body) = encode_entry(key, result) else {
            return;
        };
        let address = entry_address(key);
        if self.persist_primary(&address, &body) {
            if let Some(remote) = &self.remote {
                // Write-behind, best-effort: a full queue or broken peer
                // costs the peer warmth, never local correctness.
                let _ = remote.put(&address, &body);
            }
        }
    }

    /// Writes one body into the primary tier, counting it and enforcing
    /// the automatic caps. Returns whether the write landed.
    fn persist_primary(&self, address: &str, body: &str) -> bool {
        match self.primary.put(address, body) {
            Ok(bytes) => {
                self.stored.fetch_add(1, Ordering::Relaxed);
                self.enforce_caps(bytes);
                true
            }
            Err(_) => false,
        }
    }

    /// The write-path half of the automatic caps (see
    /// [`SolveStore::with_max_entries`]/[`with_max_bytes`](Self::with_max_bytes)):
    /// bump or rebuild the size estimate and, when it exceeds a cap, run
    /// the same pure [`plan_gc`]-backed eviction `bbs cache gc` uses.
    fn enforce_caps(&self, written_bytes: u64) {
        if self.max_entries.is_none() && self.max_bytes.is_none() {
            return;
        }
        let mut tracked = self.tracked.lock().unwrap_or_else(PoisonError::into_inner);
        let estimate = match tracked.take() {
            Some(size) => TrackedSize {
                entries: size.entries.saturating_add(1),
                bytes: size.bytes.saturating_add(written_bytes),
            },
            // Unknown (first capped write of this process, or a previous
            // enforcement failed): resynchronise from a real scan. The
            // entry just written is already on disk, so the scan includes
            // it.
            None => match self.primary.list() {
                Ok(scan) => TrackedSize {
                    entries: scan.len() as u64,
                    bytes: scan.iter().map(|entry| entry.bytes).sum(),
                },
                // Unreadable tree: leave the estimate unknown and retry on
                // the next write — the caps are best-effort, like `save`.
                Err(_) => return,
            },
        };
        let over = self.max_entries.is_some_and(|cap| estimate.entries > cap)
            || self.max_bytes.is_some_and(|cap| estimate.bytes > cap);
        if over {
            match self.gc(GcPolicy {
                max_entries: self.max_entries,
                max_bytes: self.max_bytes,
                max_age: None,
            }) {
                Ok(outcome) => {
                    *tracked = Some(TrackedSize {
                        entries: outcome.kept,
                        bytes: outcome.kept_bytes,
                    })
                }
                Err(_) => *tracked = None,
            }
        } else {
            *tracked = Some(estimate);
        }
    }

    /// Serves one `store_get` request from a peer: the primary tier's raw
    /// body at `address`, *without* touching the solve counters — a peer's
    /// lookup is not one of this process's solves.
    ///
    /// # Errors
    ///
    /// The primary backend's read error.
    pub fn peer_get(&self, address: &str) -> io::Result<Option<RawEntry>> {
        self.primary.get(address)
    }

    /// Serves one `store_put` request from a peer: validates the body
    /// (parseable, supported schema, exactly one outcome), derives the
    /// address from the *embedded* canonical key — the peer's claimed
    /// address is never trusted — and persists it through the same capped
    /// write path as local saves.
    ///
    /// # Errors
    ///
    /// A human-readable refusal when the body fails validation or the
    /// write fails.
    pub fn peer_put(&self, body: &str) -> Result<(), String> {
        let entry = serde_json::from_str::<StoredEntry>(body)
            .map_err(|e| format!("entry body is not valid JSON: {e}"))?;
        if !is_readable_schema(entry.schema) {
            return Err(format!(
                "unsupported entry schema {} (this build reads {OLDEST_READABLE_SCHEMA}..={STORE_SCHEMA_VERSION})",
                entry.schema
            ));
        }
        if entry.feasible.is_some() == entry.infeasible.is_some() {
            return Err("entry must hold exactly one of feasible/infeasible".to_string());
        }
        let address = address_of_parts(&entry.configuration, &entry.options, &entry.flow);
        if self.persist_primary(&address, body) {
            Ok(())
        } else {
            Err("store write failed".to_string())
        }
    }

    /// Every entry file of the primary tier, all supported versions,
    /// sorted oldest-first (ties broken by path so GC is deterministic
    /// regardless of readdir order). Entries whose mtime the filesystem
    /// cannot report are stamped with the scan time — i.e. as the newest
    /// files present — so retention policies never mistake them for
    /// infinitely old. Files that vanish mid-scan — a concurrent
    /// `gc`/`clear` — are skipped, not errors.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the tree cannot be read.
    pub fn entries(&self) -> io::Result<Vec<StoreEntry>> {
        self.primary.list()
    }

    /// Scans the whole primary tier for `bbs cache stats`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the tree cannot be read.
    pub fn summary(&self) -> io::Result<StoreSummary> {
        let mut summary = StoreSummary::default();
        for entry in self.primary.list()? {
            summary.total_bytes += entry.bytes;
            let raw = self.primary.read_body(&entry).ok();
            if let Some(raw) = &raw {
                summary.logical_bytes += raw.body.len() as u64;
            }
            // Classify with the same validity rule lookups apply, so stats
            // never report entries a lookup would reject.
            let parsed = raw
                .and_then(|raw| serde_json::from_str::<StoredEntry>(&raw.body).ok())
                .filter(|parsed| is_readable_schema(parsed.schema));
            match parsed.map(|parsed| (parsed.feasible.is_some(), parsed.infeasible.is_some())) {
                Some((true, false)) => {
                    summary.entries += 1;
                    summary.feasible += 1;
                }
                Some((false, true)) => {
                    summary.entries += 1;
                    summary.infeasible += 1;
                }
                Some(_) | None => {
                    summary.corrupt += 1;
                    continue;
                }
            }
            if entry.version == 1 {
                summary.v1_entries += 1;
            } else {
                summary.v2_entries += 1;
            }
        }
        Ok(summary)
    }

    /// Removes every entry of the primary tier (all schema versions).
    /// Returns the number of files removed.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the tree cannot be
    /// removed.
    pub fn clear(&self) -> io::Result<u64> {
        self.primary.clear()
    }

    /// Applies a retention policy to the primary tier: first drops entries
    /// older than `max_age` (entries with unreadable mtimes are exempt —
    /// they count as written now), then — oldest first — drops entries
    /// beyond `max_entries`, then beyond `max_bytes`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the tree cannot be read
    /// (individual failed removals are skipped, not errors: a concurrent
    /// run may have removed or replaced the file already).
    pub fn gc(&self, policy: GcPolicy) -> io::Result<GcOutcome> {
        let entries = self.primary.list()?;
        let (remove, mut outcome) = plan_gc(&entries, policy, SystemTime::now());
        for entry in remove {
            if self.primary.remove(entry).unwrap_or(false) {
                outcome.removed += 1;
            }
        }
        Ok(outcome)
    }

    /// Migrates every valid `v1` (plain JSON) entry of the primary tier
    /// into the current compressed `v2` container format, in place —
    /// `bbs cache gc --recompress`. Bodies are carried over *verbatim*
    /// (never re-serialised), so the collision guard and a warm replay are
    /// untouched; only the container changes. Corrupt `v1` files are left
    /// in place for `bbs cache stats` to report.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the tree cannot be read.
    pub fn recompress(&self) -> io::Result<RecompressOutcome> {
        let mut outcome = RecompressOutcome::default();
        for entry in self.primary.list()? {
            if entry.version >= STORE_SCHEMA_VERSION {
                outcome.already_current += 1;
                continue;
            }
            let Ok(raw) = self.primary.read_body(&entry) else {
                outcome.corrupt += 1;
                continue;
            };
            let valid = serde_json::from_str::<StoredEntry>(&raw.body)
                .ok()
                .filter(|parsed| is_readable_schema(parsed.schema))
                .is_some_and(|parsed| parsed.feasible.is_some() != parsed.infeasible.is_some());
            let Some(address) = entry_file_address(&entry.path) else {
                outcome.corrupt += 1;
                continue;
            };
            if !valid {
                outcome.corrupt += 1;
                continue;
            }
            // `put` supersedes the v1 container as part of its contract.
            if self.primary.put(&address, &raw.body).is_ok() {
                outcome.migrated += 1;
            } else {
                outcome.failed += 1;
            }
        }
        Ok(outcome)
    }
}

/// The content address of a key: the 16-hex-digit FNV-1a hash over the
/// full canonical identity — the file stem every backend stores the entry
/// under.
pub fn entry_address(key: &CanonicalKey) -> String {
    address_of_parts(&key.configuration, &key.options, &key.flow)
}

/// [`entry_address`] from the raw canonical strings (used when the key
/// arrives embedded in an entry body instead of as a [`CanonicalKey`]).
/// NUL separators keep `(configuration, options)` splits unambiguous.
pub fn address_of_parts(configuration: &str, options: &str, flow: &str) -> String {
    let mut bytes = Vec::with_capacity(configuration.len() + options.len() + flow.len() + 2);
    bytes.extend_from_slice(configuration.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(options.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(flow.as_bytes());
    format!("{:016x}", fnv1a(&bytes))
}

/// Whether `text` is a well-formed entry address (16 lowercase hex
/// digits) — the validation peers apply to `store_get` requests.
pub fn is_entry_address(text: &str) -> bool {
    text.len() == 16
        && text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Whether entries of this schema version are readable by this build.
fn is_readable_schema(schema: u64) -> bool {
    (OLDEST_READABLE_SCHEMA..=STORE_SCHEMA_VERSION).contains(&schema)
}

/// The address an entry file sits at: its stem, when it is one.
fn entry_file_address(path: &Path) -> Option<String> {
    let stem = path.file_stem()?.to_str()?;
    is_entry_address(stem).then(|| stem.to_string())
}

/// Encodes one persistable result as an entry body (`None` for transient
/// errors, which are deliberately not persisted).
fn encode_entry(key: &CanonicalKey, result: &Result<Mapping, MappingError>) -> Option<String> {
    let outcome = match result {
        Ok(mapping) => (Some(encode_mapping(mapping)), None),
        Err(error) => match encode_infeasibility(error) {
            Some(stored) => (None, Some(stored)),
            None => return None,
        },
    };
    let entry = StoredEntry {
        schema: STORE_SCHEMA_VERSION,
        fingerprint: key.fingerprint,
        configuration: key.configuration.clone(),
        options: key.options.clone(),
        flow: key.flow.clone(),
        feasible: outcome.0,
        infeasible: outcome.1,
    };
    let mut text = serde_json::to_string(&entry).ok()?;
    text.push('\n');
    Some(text)
}

/// The pure retention decision behind [`SolveStore::gc`]: which of the
/// scanned `entries` (oldest-first, as [`SolveStore::entries`] returns
/// them) to remove under `policy` at time `now`. Returns the doomed
/// entries and the outcome with `removed` still zero (the caller counts
/// actual deletions). Split out so eviction order — including mtime ties,
/// unreadable mtimes and the byte budget — is testable without
/// manipulating a filesystem.
fn plan_gc(
    entries: &[StoreEntry],
    policy: GcPolicy,
    now: SystemTime,
) -> (Vec<&StoreEntry>, GcOutcome) {
    let mut keep: Vec<&StoreEntry> = Vec::new();
    let mut remove: Vec<&StoreEntry> = Vec::new();
    let mut outcome = GcOutcome::default();
    for entry in entries {
        if !entry.mtime_readable {
            outcome.unreadable_mtimes += 1;
        }
        let age = now.duration_since(entry.modified).unwrap_or(Duration::ZERO);
        // An unreadable mtime counts as "written now": exempt from age
        // eviction instead of looking infinitely old and wiping the store.
        if entry.mtime_readable && policy.max_age.is_some_and(|limit| age > limit) {
            remove.push(entry);
        } else {
            keep.push(entry);
        }
    }
    if let Some(max_entries) = policy.max_entries {
        // `keep` is oldest-first, so the excess head is the oldest.
        let excess = keep.len().saturating_sub(max_entries as usize);
        remove.extend(keep.drain(..excess));
    }
    if let Some(max_bytes) = policy.max_bytes {
        let mut kept_bytes: u64 = keep.iter().map(|entry| entry.bytes).sum();
        let mut cut = 0;
        while kept_bytes > max_bytes && cut < keep.len() {
            kept_bytes -= keep[cut].bytes;
            cut += 1;
        }
        remove.extend(keep.drain(..cut));
    }
    outcome.kept = keep.len() as u64;
    outcome.kept_bytes = keep.iter().map(|entry| entry.bytes).sum();
    (remove, outcome)
}

fn encode_mapping(mapping: &Mapping) -> StoredMapping {
    StoredMapping {
        raw_budgets: mapping
            .budgets()
            .map(|(task, _)| (task, mapping.raw_budget(task)))
            .collect(),
        raw_space: mapping
            .capacities()
            .map(|(buffer, _)| (buffer, mapping.raw_space(buffer)))
            .collect(),
        objective: mapping.objective(),
        solver_iterations: mapping.solver_iterations() as u64,
    }
}

/// Rebuilds the mapping through [`Mapping::from_raw`], which re-applies the
/// paper's deterministic rounding — the result is identical to the original
/// solve. Returns `None` when the stored task/buffer references do not
/// match the configuration (a tampered or corrupt entry).
fn decode_mapping(stored: &StoredMapping, configuration: &Configuration) -> Option<Mapping> {
    let tasks = configuration.all_tasks();
    let buffers = configuration.all_buffers();
    let raw_budgets: BTreeMap<TaskRef, f64> = stored.raw_budgets.iter().copied().collect();
    let raw_space: BTreeMap<BufferRef, f64> = stored.raw_space.iter().copied().collect();
    let references_match = raw_budgets.len() == tasks.len()
        && tasks.iter().all(|task| raw_budgets.contains_key(task))
        && raw_space.len() == buffers.len()
        && buffers.iter().all(|buffer| raw_space.contains_key(buffer));
    if !references_match {
        return None;
    }
    Some(Mapping::from_raw(
        configuration,
        raw_budgets,
        raw_space,
        stored.objective,
        stored.solver_iterations as usize,
    ))
}

/// Encodes the genuine-infeasibility [`MappingError`] variants; everything
/// else (solver breakdowns, model errors, verification failures) returns
/// `None` and is deliberately not persisted.
fn encode_infeasibility(error: &MappingError) -> Option<StoredInfeasibility> {
    let empty = StoredInfeasibility {
        kind: String::new(),
        detail: None,
        buffer: None,
        cap: None,
        initial_tokens: None,
        processor: None,
        required_cycles: None,
        available_cycles: None,
        memory: None,
        required_storage: None,
        available_storage: None,
    };
    match error {
        MappingError::Infeasible { detail } => Some(StoredInfeasibility {
            kind: "infeasible".to_string(),
            detail: Some(detail.clone()),
            ..empty
        }),
        MappingError::CapBelowInitialTokens {
            buffer,
            cap,
            initial_tokens,
        } => Some(StoredInfeasibility {
            kind: "cap-below-initial-tokens".to_string(),
            buffer: Some(*buffer),
            cap: Some(*cap),
            initial_tokens: Some(*initial_tokens),
            ..empty
        }),
        MappingError::ProcessorOverloaded {
            processor,
            required,
            available,
        } => Some(StoredInfeasibility {
            kind: "processor-overloaded".to_string(),
            processor: Some(*processor),
            required_cycles: Some(*required),
            available_cycles: Some(*available),
            ..empty
        }),
        MappingError::MemoryOverflow {
            memory,
            required,
            available,
        } => Some(StoredInfeasibility {
            kind: "memory-overflow".to_string(),
            memory: Some(*memory),
            required_storage: Some(*required),
            available_storage: Some(*available),
            ..empty
        }),
        MappingError::Model(_)
        | MappingError::Solver(_)
        | MappingError::VerificationFailed { .. } => None,
    }
}

fn decode_infeasibility(stored: &StoredInfeasibility) -> Option<MappingError> {
    match stored.kind.as_str() {
        "infeasible" => Some(MappingError::Infeasible {
            detail: stored.detail.clone()?,
        }),
        "cap-below-initial-tokens" => Some(MappingError::CapBelowInitialTokens {
            buffer: stored.buffer?,
            cap: stored.cap?,
            initial_tokens: stored.initial_tokens?,
        }),
        "processor-overloaded" => Some(MappingError::ProcessorOverloaded {
            processor: stored.processor?,
            required: stored.required_cycles?,
            available: stored.available_cycles?,
        }),
        "memory-overflow" => Some(MappingError::MemoryOverflow {
            memory: stored.memory?,
            required: stored.required_storage?,
            available: stored.available_storage?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
    use bbs_taskgraph::{BufferId, TaskGraphId, TaskId};
    use budget_buffer::{compute_mapping, with_capacity_cap, SolveOptions};
    use std::fs;

    fn solved() -> (Configuration, CanonicalKey, Result<Mapping, MappingError>) {
        let configuration =
            with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 4);
        let options = SolveOptions::default().prefer_budget_minimisation();
        let key = CanonicalKey::from_parts(&configuration, &options, "joint");
        let result = compute_mapping(&configuration, &options);
        (configuration, key, result)
    }

    /// The v2 container path of `key` under `root` (test-side mirror of the
    /// local backend's layout).
    fn v2_path(root: &Path, key: &CanonicalKey) -> PathBuf {
        LocalDirBackend::open_existing(root)
            .unwrap()
            .v2_path(&entry_address(key))
    }

    /// Reads a v2 container's body text back (decompressed).
    fn read_v2(path: &Path) -> String {
        String::from_utf8(minilz::decompress(&fs::read(path).unwrap()).unwrap()).unwrap()
    }

    /// Writes `text` as a v2 container (compressed, non-atomically — tests
    /// only).
    fn write_v2(path: &Path, text: &str) {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, minilz::compress(text.as_bytes())).unwrap();
    }

    /// Writes a pre-migration plain-JSON v1 container for `key`.
    fn write_v1(root: &Path, key: &CanonicalKey, body: &str) -> PathBuf {
        let path = LocalDirBackend::open_existing(root)
            .unwrap()
            .v1_path(&entry_address(key));
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn mapping_round_trips_bit_identically() {
        let directory = TempDir::new("roundtrip");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        store.save(&key, &result);
        let loaded = store.load(&key, &configuration).expect("entry persisted");
        assert_eq!(loaded.unwrap(), result.unwrap());
        assert_eq!(store.stats().disk_hits, 1);
        assert_eq!(store.stats().stored, 1);
        assert!(!store.stats().remote_enabled);
    }

    #[test]
    fn missing_entry_is_a_fresh_solve_not_a_rejection() {
        let directory = TempDir::new("missing");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, _) = solved();
        assert!(store.load(&key, &configuration).is_none());
        let stats = store.stats();
        assert_eq!(stats.fresh_solves, 1);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn infeasibility_variants_round_trip() {
        let cases = vec![
            MappingError::Infeasible {
                detail: "dual unbounded".to_string(),
            },
            MappingError::CapBelowInitialTokens {
                buffer: BufferRef::new(TaskGraphId::new(0), BufferId::new(1)),
                cap: 1,
                initial_tokens: 2,
            },
            MappingError::ProcessorOverloaded {
                processor: ProcessorId::new(3),
                required: 41.5,
                available: 40.0,
            },
            MappingError::MemoryOverflow {
                memory: MemoryId::new(0),
                required: 12,
                available: 8,
            },
        ];
        for error in cases {
            let stored = encode_infeasibility(&error).expect("persistable");
            let json = serde_json::to_string(&stored).unwrap();
            let back: StoredInfeasibility = serde_json::from_str(&json).unwrap();
            let decoded = decode_infeasibility(&back).expect("decodable");
            assert_eq!(decoded, error);
            assert_eq!(decoded.to_string(), error.to_string());
        }
    }

    #[test]
    fn transient_errors_are_not_persisted() {
        use bbs_conic::ConicError;
        let directory = TempDir::new("transient");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, _) = solved();
        store.save(&key, &Err(MappingError::Solver(ConicError::NonFiniteData)));
        assert_eq!(store.stats().stored, 0);
        assert!(store.load(&key, &configuration).is_none());
        assert!(encode_infeasibility(&MappingError::VerificationFailed {
            graph: None,
            detail: "x".to_string(),
        })
        .is_none());
    }

    #[test]
    fn corrupt_and_foreign_schema_entries_are_rejected() {
        let directory = TempDir::new("corrupt");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        store.save(&key, &result);
        let path = v2_path(directory.path(), &key);

        // Not a valid minilz frame at all: an unreadable container.
        fs::write(&path, "{truncated").unwrap();
        assert!(store.load(&key, &configuration).is_none());

        // A well-formed container holding a foreign schema version.
        store.save(&key, &result);
        let mut entry: StoredEntry = serde_json::from_str(&read_v2(&path)).unwrap();
        entry.schema = STORE_SCHEMA_VERSION + 1;
        write_v2(&path, &serde_json::to_string(&entry).unwrap());
        assert!(store.load(&key, &configuration).is_none());
        assert_eq!(store.stats().rejected, 2);
    }

    #[test]
    fn hash_collisions_fall_back_to_a_fresh_solve() {
        let directory = TempDir::new("collision");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        store.save(&key, &result);
        // Simulate a 64-bit hash collision: a different canonical key whose
        // entry file happens to be the one we just wrote. (`try_load`
        // directly: `load`'s debug assertion — correctly — refuses a key
        // that does not match its configuration, and no real Configuration
        // can produce this synthetic canonical JSON.)
        let mut colliding = key.clone();
        colliding.configuration.push(' ');
        let collision_path = v2_path(directory.path(), &colliding);
        fs::create_dir_all(collision_path.parent().unwrap()).unwrap();
        fs::copy(v2_path(directory.path(), &key), &collision_path).unwrap();
        assert!(
            store.try_load(&colliding, &configuration).is_none(),
            "collision must miss"
        );
        assert_eq!(store.stats().rejected, 1);
    }

    #[test]
    fn tampered_references_are_rejected_not_panicking() {
        let directory = TempDir::new("tamper");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        store.save(&key, &result);
        let path = v2_path(directory.path(), &key);
        let mut entry: StoredEntry = serde_json::from_str(&read_v2(&path)).unwrap();
        let stored = entry.feasible.as_mut().unwrap();
        // Point a budget at a task that does not exist in the configuration.
        stored.raw_budgets[0].0 = TaskRef::new(TaskGraphId::new(7), TaskId::new(9));
        write_v2(&path, &serde_json::to_string(&entry).unwrap());
        assert!(store.load(&key, &configuration).is_none());
        assert_eq!(store.stats().rejected, 1);
    }

    #[test]
    fn clear_empties_the_store() {
        let directory = TempDir::new("clear");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        store.save(&key, &result);
        assert_eq!(store.summary().unwrap().entries, 1);
        assert_eq!(store.clear().unwrap(), 1);
        assert_eq!(store.summary().unwrap().entries, 0);
        // The store stays usable after a clear.
        store.save(&key, &result);
        assert!(store.load(&key, &configuration).is_some());
    }

    #[test]
    fn gc_honours_max_entries_and_max_age() {
        let directory = TempDir::new("gc");
        let store = SolveStore::open(directory.path()).unwrap();
        let base = producer_consumer(PaperParameters::default(), None);
        let options = SolveOptions::default().prefer_budget_minimisation();
        for cap in 1..=4u64 {
            let configuration = with_capacity_cap(&base, cap);
            let key = CanonicalKey::from_parts(&configuration, &options, "joint");
            store.save(&key, &compute_mapping(&configuration, &options));
        }
        assert_eq!(store.summary().unwrap().entries, 4);

        let outcome = store
            .gc(GcPolicy {
                max_entries: Some(2),
                ..GcPolicy::default()
            })
            .unwrap();
        assert_eq!(outcome.removed, 2);
        assert_eq!(outcome.kept, 2);
        assert!(outcome.kept_bytes > 0);
        assert_eq!(store.summary().unwrap().entries, 2);

        std::thread::sleep(Duration::from_millis(20));
        let outcome = store
            .gc(GcPolicy {
                max_age: Some(Duration::from_millis(1)),
                ..GcPolicy::default()
            })
            .unwrap();
        assert_eq!(outcome.removed, 2);
        assert_eq!(store.summary().unwrap().entries, 0);
    }

    fn synthetic_entry(name: &str, age: Duration, now: SystemTime, readable: bool) -> StoreEntry {
        StoreEntry {
            path: PathBuf::from(name),
            version: STORE_SCHEMA_VERSION,
            modified: now.checked_sub(age).unwrap(),
            mtime_readable: readable,
            bytes: 1,
        }
    }

    fn removed_paths<'e>(remove: &[&'e StoreEntry]) -> Vec<&'e PathBuf> {
        remove.iter().map(|entry| &entry.path).collect()
    }

    #[test]
    fn gc_never_age_evicts_unreadable_mtimes() {
        // Regression: unreadable mtimes used to decay to UNIX_EPOCH, so on
        // a filesystem without mtimes `gc --max-age` wiped every entry.
        let now = SystemTime::now();
        let entries = vec![
            synthetic_entry("a-old", Duration::from_secs(100), now, true),
            // As `entries()` builds them: stamped with the scan time.
            synthetic_entry("b-unreadable", Duration::ZERO, now, false),
            synthetic_entry("c-fresh", Duration::from_secs(1), now, true),
        ];
        let policy = GcPolicy {
            max_age: Some(Duration::from_secs(10)),
            ..GcPolicy::default()
        };
        let (remove, outcome) = plan_gc(&entries, policy, now);
        assert_eq!(removed_paths(&remove), vec![&PathBuf::from("a-old")]);
        assert_eq!(outcome.kept, 2);
        assert_eq!(outcome.unreadable_mtimes, 1);
        assert_eq!(outcome.removed, 0, "the caller counts actual deletions");
    }

    #[test]
    fn gc_max_entries_still_bounds_unreadable_mtimes() {
        // The age exemption must not make unreadable entries immortal: a
        // size cap still applies to them (oldest-sorted-first as scanned).
        let now = SystemTime::now();
        let entries: Vec<StoreEntry> = (0..3)
            .map(|i| synthetic_entry(&format!("u{i}"), Duration::ZERO, now, false))
            .collect();
        let policy = GcPolicy {
            max_entries: Some(1),
            max_age: Some(Duration::from_secs(10)),
            ..GcPolicy::default()
        };
        let (remove, outcome) = plan_gc(&entries, policy, now);
        assert_eq!(
            removed_paths(&remove),
            vec![&PathBuf::from("u0"), &PathBuf::from("u1")]
        );
        assert_eq!(outcome.kept, 1);
        assert_eq!(outcome.unreadable_mtimes, 3);
    }

    #[test]
    fn gc_byte_budget_evicts_oldest_first() {
        let now = SystemTime::now();
        let mut entries = vec![
            synthetic_entry("a-oldest", Duration::from_secs(30), now, true),
            synthetic_entry("b-mid", Duration::from_secs(20), now, true),
            synthetic_entry("c-newest", Duration::from_secs(10), now, true),
        ];
        for entry in &mut entries {
            entry.bytes = 100;
        }
        let policy = GcPolicy {
            max_bytes: Some(250),
            ..GcPolicy::default()
        };
        let (remove, outcome) = plan_gc(&entries, policy, now);
        assert_eq!(removed_paths(&remove), vec![&PathBuf::from("a-oldest")]);
        assert_eq!(outcome.kept, 2);
        assert_eq!(outcome.kept_bytes, 200);

        // The budget applies after the entry cap: both constraints hold.
        let policy = GcPolicy {
            max_entries: Some(2),
            max_bytes: Some(150),
            ..GcPolicy::default()
        };
        let (remove, outcome) = plan_gc(&entries, policy, now);
        assert_eq!(
            removed_paths(&remove),
            vec![&PathBuf::from("a-oldest"), &PathBuf::from("b-mid")]
        );
        assert_eq!(outcome.kept, 1);
        assert_eq!(outcome.kept_bytes, 100);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        // Entries with identical mtimes must evict in deterministic path
        // order no matter the order the files were created (and hence the
        // readdir order a scan might observe).
        #[test]
        fn gc_breaks_mtime_ties_by_path_regardless_of_creation_order(seed in 0u64..1_000_000) {
            let directory = TempDir::new("gc-ties");
            let store = SolveStore::open(directory.path()).unwrap();
            let base = producer_consumer(PaperParameters::default(), None);
            let options = SolveOptions::default().prefer_budget_minimisation();

            // Shuffle the creation order with a splitmix-style permutation.
            let mut caps: Vec<u64> = (1..=6).collect();
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            for i in (1..caps.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                caps.swap(i, (state % (i as u64 + 1)) as usize);
            }
            for &cap in &caps {
                let configuration = with_capacity_cap(&base, cap);
                let key = CanonicalKey::from_parts(&configuration, &options, "joint");
                store.save(&key, &compute_mapping(&configuration, &options));
            }

            // Force a full mtime tie across every entry.
            let tie = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
            let scanned = store.entries().unwrap();
            proptest::prop_assert_eq!(scanned.len(), 6);
            for entry in &scanned {
                fs::File::options()
                    .write(true)
                    .open(&entry.path)
                    .unwrap()
                    .set_modified(tie)
                    .unwrap();
            }

            let mut all_paths: Vec<PathBuf> =
                scanned.into_iter().map(|entry| entry.path).collect();
            all_paths.sort();
            let outcome = store
                .gc(GcPolicy { max_entries: Some(3), ..GcPolicy::default() })
                .unwrap();
            proptest::prop_assert_eq!(outcome.removed, 3);
            proptest::prop_assert_eq!(outcome.kept, 3);
            let survivors: Vec<PathBuf> = store
                .entries()
                .unwrap()
                .into_iter()
                .map(|entry| entry.path)
                .collect();
            // Tied entries evict in path order: the lexicographically first
            // half goes, the rest survive — independent of `seed`.
            proptest::prop_assert_eq!(&survivors[..], &all_paths[3..]);
        }
    }

    #[test]
    fn automatic_size_cap_bounds_the_store_on_the_write_path() {
        let directory = TempDir::new("auto-cap");
        let store = SolveStore::open(directory.path())
            .unwrap()
            .with_max_entries(2);
        assert_eq!(store.max_entries(), Some(2));
        let base = producer_consumer(PaperParameters::default(), None);
        let options = SolveOptions::default().prefer_budget_minimisation();
        for cap in 1..=5u64 {
            let configuration = with_capacity_cap(&base, cap);
            let key = CanonicalKey::from_parts(&configuration, &options, "joint");
            store.save(&key, &compute_mapping(&configuration, &options));
            assert!(
                store.summary().unwrap().entries <= 2,
                "the cap must hold after every write"
            );
        }
        assert_eq!(store.summary().unwrap().entries, 2);
        // All five writes happened; the cap evicts, it does not block.
        assert_eq!(store.stats().stored, 5);
    }

    #[test]
    fn automatic_byte_budget_bounds_the_store_on_the_write_path() {
        let base = producer_consumer(PaperParameters::default(), None);
        let options = SolveOptions::default().prefer_budget_minimisation();
        // Measure one entry's physical (compressed) size first.
        let probe_dir = TempDir::new("byte-cap-probe");
        let probe = SolveStore::open(probe_dir.path()).unwrap();
        let configuration = with_capacity_cap(&base, 1);
        let key = CanonicalKey::from_parts(&configuration, &options, "joint");
        probe.save(&key, &compute_mapping(&configuration, &options));
        let entry_bytes = probe.summary().unwrap().total_bytes;
        assert!(entry_bytes > 0);

        // Budget for roughly two entries; five writes must stay within it.
        let budget = entry_bytes * 2 + entry_bytes / 2;
        let directory = TempDir::new("byte-cap");
        let store = SolveStore::open(directory.path())
            .unwrap()
            .with_max_bytes(budget);
        assert_eq!(store.max_bytes(), Some(budget));
        for cap in 1..=5u64 {
            let configuration = with_capacity_cap(&base, cap);
            let key = CanonicalKey::from_parts(&configuration, &options, "joint");
            store.save(&key, &compute_mapping(&configuration, &options));
            assert!(
                store.summary().unwrap().total_bytes <= budget,
                "the byte budget must hold after every write"
            );
        }
        assert_eq!(store.stats().stored, 5);
        assert!(store.summary().unwrap().entries >= 1);
    }

    #[test]
    fn overwriting_one_key_under_a_cap_keeps_the_entry() {
        let directory = TempDir::new("auto-cap-overwrite");
        let store = SolveStore::open(directory.path())
            .unwrap()
            .with_max_entries(1);
        let (configuration, key, result) = solved();
        for _ in 0..3 {
            store.save(&key, &result);
        }
        assert_eq!(store.summary().unwrap().entries, 1);
        assert!(store.load(&key, &configuration).is_some());
    }

    #[test]
    fn uncapped_stores_never_run_the_write_path_gc() {
        let directory = TempDir::new("no-cap");
        let store = SolveStore::open(directory.path()).unwrap();
        let base = producer_consumer(PaperParameters::default(), None);
        let options = SolveOptions::default().prefer_budget_minimisation();
        for cap in 1..=4u64 {
            let configuration = with_capacity_cap(&base, cap);
            let key = CanonicalKey::from_parts(&configuration, &options, "joint");
            store.save(&key, &compute_mapping(&configuration, &options));
        }
        assert_eq!(store.summary().unwrap().entries, 4);
    }

    #[test]
    fn summary_counts_feasible_infeasible_and_corrupt() {
        let directory = TempDir::new("summary");
        let store = SolveStore::open(directory.path()).unwrap();
        let (_, key, result) = solved();
        store.save(&key, &result);
        let infeasible_configuration =
            with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 2);
        let options = SolveOptions::default().prefer_budget_minimisation();
        let infeasible_key =
            CanonicalKey::from_parts(&infeasible_configuration, &options, "two-phase-min");
        store.save(
            &infeasible_key,
            &Err(MappingError::Infeasible {
                detail: "injected".to_string(),
            }),
        );
        let shard = directory
            .path()
            .join(format!("v{STORE_SCHEMA_VERSION}"))
            .join("zz");
        fs::create_dir_all(&shard).unwrap();
        fs::write(shard.join("junk.mlz"), "not a frame").unwrap();
        let summary = store.summary().unwrap();
        assert_eq!(summary.entries, 2);
        assert_eq!(summary.feasible, 1);
        assert_eq!(summary.infeasible, 1);
        assert_eq!(summary.corrupt, 1);
        assert_eq!(summary.v2_entries, 2);
        assert_eq!(summary.v1_entries, 0);
        assert!(summary.total_bytes > 0);
        assert!(
            summary.logical_bytes > summary.total_bytes - 11,
            "logical counts uncompressed bodies (junk contributes physical only)"
        );
    }

    /// Produces the exact plain-JSON body a v1-era build would have written
    /// for this key/result.
    fn v1_body(key: &CanonicalKey, result: &Result<Mapping, MappingError>) -> String {
        let mut body = encode_entry(key, result).unwrap();
        // encode_entry stamps the current schema; a v1 build wrote 1.
        body = body.replacen(
            &format!("\"schema\":{STORE_SCHEMA_VERSION}"),
            "\"schema\":1",
            1,
        );
        body
    }

    #[test]
    fn v1_entries_are_read_and_superseded_on_rewrite() {
        let directory = TempDir::new("v1-compat");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        let v1 = write_v1(directory.path(), &key, &v1_body(&key, &result));

        // A v1 tree is fully visible: lookups, stats, per-version counts.
        let loaded = store.load(&key, &configuration).expect("v1 entry readable");
        assert_eq!(loaded.unwrap(), result.clone().unwrap());
        assert_eq!(store.stats().disk_hits, 1);
        let summary = store.summary().unwrap();
        assert_eq!(summary.entries, 1);
        assert_eq!(summary.v1_entries, 1);
        assert_eq!(summary.v2_entries, 0);
        assert_eq!(summary.logical_bytes, summary.total_bytes);

        // A rewrite migrates the entry: the v2 container supersedes the v1
        // file so scans see exactly one entry per key.
        store.save(&key, &result);
        assert!(!v1.exists(), "v1 container must be superseded");
        assert!(v2_path(directory.path(), &key).exists());
        assert_eq!(store.summary().unwrap().v2_entries, 1);
    }

    #[test]
    fn recompress_migrates_v1_bodies_verbatim() {
        let directory = TempDir::new("recompress");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        let body = v1_body(&key, &result);
        let v1 = write_v1(directory.path(), &key, &body);
        // One corrupt straggler stays in place.
        let junk = directory.path().join("v1").join("zz");
        fs::create_dir_all(&junk).unwrap();
        fs::write(junk.join("0000000000000000.json"), "not json").unwrap();

        let outcome = store.recompress().unwrap();
        assert_eq!(outcome.migrated, 1);
        assert_eq!(outcome.corrupt, 1);
        assert_eq!(outcome.already_current, 0);
        assert!(!v1.exists(), "migrated v1 container is removed");
        // The body survives byte-for-byte (still schema 1 inside a v2
        // container — containers and body schemas are independent).
        assert_eq!(read_v2(&v2_path(directory.path(), &key)), body);
        assert!(store.load(&key, &configuration).is_some());

        // A second pass finds nothing left to migrate.
        let again = store.recompress().unwrap();
        assert_eq!(again.migrated, 0);
        assert_eq!(again.already_current, 1);
    }

    #[test]
    fn entry_addresses_validate() {
        assert!(is_entry_address("0123456789abcdef"));
        assert!(!is_entry_address("0123456789ABCDEF"));
        assert!(!is_entry_address("0123456789abcde"));
        assert!(!is_entry_address("0123456789abcdef0"));
        assert!(!is_entry_address("../../etc/passwd"));
        let (_, key, _) = solved();
        assert!(is_entry_address(&entry_address(&key)));
    }

    #[test]
    fn peer_put_validates_and_derives_the_address() {
        let directory = TempDir::new("peer-put");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        let body = encode_entry(&key, &result).unwrap();

        store.peer_put(&body).expect("valid body accepted");
        // The address came from the embedded key, not a peer claim.
        assert!(store.load(&key, &configuration).is_some());
        assert_eq!(store.stats().stored, 1);

        assert!(store.peer_put("not json").is_err());
        let foreign = body.replacen(
            &format!("\"schema\":{STORE_SCHEMA_VERSION}"),
            &format!("\"schema\":{}", STORE_SCHEMA_VERSION + 1),
            1,
        );
        assert!(store.peer_put(&foreign).is_err());
        // Exactly one outcome: strip the feasible mapping out.
        let mut entry: StoredEntry = serde_json::from_str(&body).unwrap();
        entry.feasible = None;
        assert!(store
            .peer_put(&serde_json::to_string(&entry).unwrap())
            .is_err());
        assert_eq!(store.stats().stored, 1, "rejected bodies are not stored");
    }

    /// A shareable in-memory backend standing in for the remote tier, so
    /// the tiering logic is testable without a network.
    #[derive(Debug, Clone, Default)]
    struct MemBackend {
        entries: std::sync::Arc<Mutex<std::collections::BTreeMap<String, String>>>,
        gets: std::sync::Arc<AtomicU64>,
        puts: std::sync::Arc<AtomicU64>,
    }

    impl StoreBackend for MemBackend {
        fn describe(&self) -> String {
            "in-memory test backend".to_string()
        }
        fn get(&self, address: &str) -> io::Result<Option<RawEntry>> {
            self.gets.fetch_add(1, Ordering::Relaxed);
            Ok(self
                .entries
                .lock()
                .unwrap()
                .get(address)
                .map(|body| RawEntry {
                    version: STORE_SCHEMA_VERSION,
                    body: body.clone(),
                }))
        }
        fn put(&self, address: &str, body: &str) -> io::Result<u64> {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.entries
                .lock()
                .unwrap()
                .insert(address.to_string(), body.to_string());
            Ok(body.len() as u64)
        }
        fn list(&self) -> io::Result<Vec<StoreEntry>> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "list"))
        }
        fn read_body(&self, _entry: &StoreEntry) -> io::Result<RawEntry> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "read_body"))
        }
        fn remove(&self, _entry: &StoreEntry) -> io::Result<bool> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "remove"))
        }
        fn clear(&self) -> io::Result<u64> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "clear"))
        }
    }

    #[test]
    fn remote_tier_reads_through_and_writes_behind() {
        let shared = MemBackend::default();
        let (configuration, key, result) = solved();

        // Process 1: fresh solve; the save lands locally and on the remote.
        let dir_a = TempDir::new("tier-a");
        let store_a = SolveStore::open(dir_a.path())
            .unwrap()
            .with_remote(Box::new(shared.clone()));
        assert!(store_a.has_remote());
        assert!(store_a.load(&key, &configuration).is_none());
        store_a.save(&key, &result);
        assert_eq!(shared.puts.load(Ordering::Relaxed), 1);
        let stats = store_a.stats();
        assert_eq!(stats.fresh_solves, 1);
        assert_eq!(stats.remote_hits, 0);
        assert!(stats.remote_enabled);

        // Process 2, cold local dir: the remote answers, and read-through
        // populates the local tier.
        let dir_b = TempDir::new("tier-b");
        let store_b = SolveStore::open(dir_b.path())
            .unwrap()
            .with_remote(Box::new(shared.clone()));
        let loaded = store_b.load(&key, &configuration).expect("remote hit");
        assert_eq!(loaded.unwrap(), result.clone().unwrap());
        let stats = store_b.stats();
        assert_eq!(stats.remote_hits, 1);
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.fresh_solves, 0);
        assert_eq!(stats.stored, 1, "read-through fill counts as stored");

        // The next lookup hits locally without touching the remote again.
        let gets_before = shared.gets.load(Ordering::Relaxed);
        assert!(store_b.load(&key, &configuration).is_some());
        assert_eq!(store_b.stats().disk_hits, 1);
        assert_eq!(shared.gets.load(Ordering::Relaxed), gets_before);
        // Read-through fills are not echoed back to the remote.
        assert_eq!(shared.puts.load(Ordering::Relaxed), 1);
    }
}
