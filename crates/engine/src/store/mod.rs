//! The persistent, content-addressed solve store — the disk tier below the
//! in-memory [`SolveCache`](crate::SolveCache).
//!
//! Every `bbs` invocation starts with an empty in-memory cache, so without
//! persistence a re-run of a suite pays full solve cost for every distinct
//! problem instance. The store closes that gap: each completed solve is
//! written out keyed by the same canonical identity the in-memory cache
//! uses — the (configuration, options, flow, solver revision) of the
//! [`CanonicalKey`] — and later runs (of any process) read it back instead
//! of solving again.
//!
//! # Tiers
//!
//! The store owns a local **directory** tree plus an optional **remote**
//! tier ([`RemoteBackend`], see [`remote`]) speaking the serve protocol to
//! a peer `bbs serve` daemon. Lookups read the directory first, then fall
//! through to the remote; a body from either tier passes the same
//! validation, and a remote hit is written back into the directory
//! (read-through). Fresh results are written to the directory
//! synchronously and shipped to the remote asynchronously (write-behind).
//! The store itself keeps all semantics — addressing, collision guards,
//! validation, retention — so both tiers share one correctness story.
//!
//! # Layout (the directory tier)
//!
//! ```text
//! <root>/v2/<hh>/<hhhhhhhhhhhhhhhh>.mlz   minilz-compressed JSON
//! ```
//!
//! where `hhhhhhhhhhhhhhhh` is the 16-hex-digit FNV-1a hash of the full
//! cache key ([`entry_address`]) and `<hh>` its first two digits (a
//! 256-way fan-out so no single directory grows huge). `v2` is
//! [`STORE_SCHEMA_VERSION`]. Each entry body is a single JSON object that
//! repeats the *full* canonical key, solver revision included, so a 64-bit
//! hash collision is detected by comparison and treated as a miss, never as
//! a wrong answer.
//!
//! # Entry bodies
//!
//! A body has one canonical layout: the compact JSON of its key fields
//! (`schema`, `solver_revision`, `fingerprint`, `configuration`, `options`,
//! `flow`), then its outcome fields (`feasible`, `infeasible`), then a
//! newline. One function writes every body, and every reader applies one
//! validity rule: the body must open with the requesting key's fields in
//! that layout, byte for byte, and hold exactly one outcome. A lookup
//! therefore never parses the key back — it compares bytes and parses only
//! the outcome — and a body in any other layout is a counted rejection.
//! `summary` counts such a body as corrupt, and `peer_put` stores the
//! canonical re-encoding of what a peer sends, not the peer's bytes.
//!
//! # Solver revisions
//!
//! Raw values depend on the solver's arithmetic, so the address and the
//! body both carry [`bbs_conic::SOLVER_REVISION`]. A build looks entries up
//! only at its own revision's addresses and rejects a body of another
//! revision, so no store, local or remote, serves one revision's raw values
//! to another: after an upgrade every point is solved fresh once. Entries
//! of older revisions stay on disk as [`StoreSummary::stale`] until
//! `bbs cache gc` or `bbs cache clear` removes them.
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

pub mod breaker;
mod dir;
pub mod remote;

pub use breaker::{BreakerConfig, CircuitBreaker};
pub use dir::{StoreEntry, STORE_SCHEMA_VERSION};
pub use remote::RemoteBackend;

use dir::LocalDir;

use crate::cache::CanonicalKey;
use bbs_conic::SOLVER_REVISION;
use bbs_taskgraph::{
    fnv1a, fnv1a_extend, BufferRef, Configuration, MemoryId, ProcessorId, TaskRef,
};
use budget_buffer::{Mapping, MappingError};
use serde::{Deserialize, Serialize, Serializer};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, SystemTime};

/// Run counters of a [`SolveStore`], all deterministic across `--jobs`
/// because the in-memory tier funnels exactly one lookup per distinct key
/// to the persistent tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Lookups answered by the local directory tier.
    pub disk_hits: u64,
    /// Lookups the directory missed that the remote tier answered.
    pub remote_hits: u64,
    /// Lookups that found no usable entry in any tier and had to solve.
    pub fresh_solves: u64,
    /// Entries newly written to the directory tier: persistable fresh
    /// solves plus read-through fills from the remote tier.
    pub stored: u64,
    /// Entries ignored because they were corrupt, carried a foreign schema
    /// version or solver revision, or collided with a different key.
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
    /// Write-behind entries dropped because the queue was full, or the
    /// breaker was open or the transport failed when their turn came. They
    /// cost the peer warmth only; the local tier already holds them.
    pub dropped_puts: u64,
}

/// What `bbs cache stats` reports: a full scan of the directory tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreSummary {
    /// Valid entries of this build's solver revision: the ones lookups
    /// serve.
    pub entries: u64,
    /// Of `entries`, those holding a feasible mapping.
    pub feasible: u64,
    /// Of `entries`, those holding a persisted infeasibility.
    pub infeasible: u64,
    /// Valid entries of another solver revision, which no lookup serves.
    pub stale: u64,
    /// Files that failed to read or parse, or carry a foreign schema
    /// version.
    pub corrupt: u64,
    /// Physical (compressed) size of all entry files, in bytes.
    pub total_bytes: u64,
    /// Uncompressed size of all readable entry bodies, in bytes. The
    /// `logical/physical` ratio is the compression win.
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

/// One entry body parsed whole: the full canonical key (collision guard)
/// plus exactly one of a stored mapping or a stored infeasibility. Only
/// readers without a key at hand parse a body this way (`peer_put` and
/// `summary`); a lookup compares the key fields as bytes and parses just
/// the [`StoredOutcome`] (see [`read_outcome`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredEntry {
    schema: u64,
    /// The solver revision that computed the outcome; `None` in bodies
    /// written before the field existed, by revision 1.
    solver_revision: Option<u64>,
    fingerprint: u64,
    configuration: String,
    options: String,
    flow: String,
    feasible: Option<StoredMapping>,
    infeasible: Option<StoredInfeasibility>,
}

impl StoredEntry {
    /// Whether the body has this build's schema and solver revision: the
    /// only bodies whose outcome a lookup may serve.
    fn is_current(&self) -> bool {
        self.schema == STORE_SCHEMA_VERSION && self.solver_revision == Some(SOLVER_REVISION)
    }

    /// The key the body claims to answer, its fingerprint recomputed from
    /// its configuration (as [`CanonicalKey::materialise`] computes it), and
    /// its outcome.
    fn split(self) -> (CanonicalKey, StoredOutcome) {
        let key = CanonicalKey {
            fingerprint: fnv1a(self.configuration.as_bytes()),
            configuration: self.configuration,
            options: self.options,
            flow: self.flow,
            solver_revision: self.solver_revision.unwrap_or(1),
        };
        let outcome = StoredOutcome {
            feasible: self.feasible,
            infeasible: self.infeasible,
        };
        (key, outcome)
    }
}

/// The outcome fields of an entry body, which follow its key fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredOutcome {
    feasible: Option<StoredMapping>,
    infeasible: Option<StoredInfeasibility>,
}

impl StoredOutcome {
    /// The outcome of a persistable result (`None` for transient errors,
    /// which are deliberately not persisted).
    fn of(result: &Result<Mapping, MappingError>) -> Option<Self> {
        Some(match result {
            Ok(mapping) => Self {
                feasible: Some(encode_mapping(mapping)),
                infeasible: None,
            },
            Err(error) => Self {
                feasible: None,
                infeasible: Some(encode_infeasibility(error)?),
            },
        })
    }

    /// Whether the body holds exactly one outcome, as every valid one does.
    fn is_single(&self) -> bool {
        self.feasible.is_some() != self.infeasible.is_some()
    }

    /// Rebuilds the stored result against `configuration`; `None` when the
    /// outcome does not fit it (a tampered or corrupt entry).
    fn decode(&self, configuration: &Configuration) -> Option<Result<Mapping, MappingError>> {
        match (&self.feasible, &self.infeasible) {
            (Some(mapping), None) => decode_mapping(mapping, configuration).map(Ok),
            (None, Some(error)) => decode_infeasibility(error).map(Err),
            _ => None,
        }
    }
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
    dir: LocalDir,
    remote: Option<RemoteBackend>,
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
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the directory cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        LocalDir::open(dir.as_ref()).map(Self::over)
    }

    /// Opens a store rooted at an *existing* directory, creating nothing —
    /// the constructor for read-and-manage commands (`bbs cache`), which
    /// must not materialise a store tree at a mistyped path.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::NotFound`] when `dir` is not a directory.
    pub fn open_existing(dir: impl AsRef<Path>) -> io::Result<Self> {
        LocalDir::open_existing(dir.as_ref()).map(Self::over)
    }

    fn over(dir: LocalDir) -> Self {
        Self {
            dir,
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

    /// Layers a remote tier under the directory: lookups fall through to
    /// it on a directory miss (read-through — a remote hit is validated and
    /// written back into the directory), and fresh results are shipped to
    /// it best-effort after the directory write (write-behind).
    #[must_use]
    pub fn with_remote(mut self, remote: RemoteBackend) -> Self {
        self.remote = Some(remote);
        self
    }

    /// Enforces an automatic entry-count cap on the write path: whenever a
    /// write pushes the store beyond `max_entries`, the same deterministic
    /// retention pass `bbs cache gc --max-entries` runs evicts oldest-first
    /// (mtime order, ties broken by path) down to `max_entries -
    /// max_entries / 16`. That slack lets a full store take `max_entries /
    /// 16` more writes before the next eviction pass and its directory
    /// scan; a cap below 16 has none and evicts back down to the cap. A cap
    /// of 0 is accepted and keeps the store empty.
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
    /// entries count at their physical (compressed) size. A write that
    /// pushes the store beyond `max_bytes` evicts oldest-first down to
    /// `max_bytes - max_bytes / 16`, the same slack as the entry cap.
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

    /// The directory the store was opened at.
    pub fn root(&self) -> &Path {
        self.dir.root()
    }

    /// This run's counters, including the remote tier's circuit-breaker
    /// health when one is attached.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            fresh_solves: self.fresh_solves.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            ..StoreStats::default()
        };
        if let Some(remote) = &self.remote {
            let breaker = remote.breaker();
            stats.remote_enabled = true;
            stats.breaker_opens = breaker.opens();
            stats.breaker_closes = breaker.closes();
            stats.breaker_probes = breaker.probes();
            stats.breaker_open = breaker.is_open();
            stats.dropped_puts = remote.dropped_puts();
        }
        stats
    }

    /// Looks `key` up in the persistent tiers. Reads the directory first,
    /// then the remote; a remote hit is written back into the directory.
    /// Returns `None` — after bumping the fresh-solve counter — when no tier
    /// holds a usable entry. An unreadable local container counts as
    /// rejected; a remote transport error does not (a broken peer is
    /// expected degradation, not a corrupt entry).
    ///
    /// A hit is rebuilt against `configuration` instead of re-parsing the
    /// key's canonical JSON. Decoding reads only its task and buffer
    /// structure, budget granularity and initial tokens, never a capacity
    /// cap, so any configuration that shares those with the one the key was
    /// built from serves: the uncapped base of a capped sweep point
    /// included, which is what [`SolveCache`](crate::SolveCache) passes.
    pub fn load(
        &self,
        key: &CanonicalKey,
        configuration: &Configuration,
    ) -> Option<Result<Mapping, MappingError>> {
        let address = entry_address(key);
        let local = self.dir.get(&address).unwrap_or_else(|_| {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            None
        });
        if let Some(result) = local.and_then(|body| self.accept(&body, key, configuration)) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Some(result);
        }
        let remote_body = self
            .remote
            .as_ref()
            .and_then(|remote| remote.get(&address).ok().flatten());
        if let Some(body) = remote_body {
            if let Some(result) = self.accept(&body, key, configuration) {
                self.remote_hits.fetch_add(1, Ordering::Relaxed);
                // Read-through: populate the directory so the next run
                // (and the rest of this one) hits locally.
                self.persist(&address, &body);
                return Some(result);
            }
        }
        self.fresh_solves.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Validates one tier's body for `key` by the one validity rule of
    /// [`read_outcome`] — schema, revision and full key compared as bytes,
    /// then the outcome parsed — and decodes it. Any failure bumps the
    /// `rejected` counter.
    fn accept(
        &self,
        body: &str,
        key: &CanonicalKey,
        configuration: &Configuration,
    ) -> Option<Result<Mapping, MappingError>> {
        // The full-key comparison inside `read_outcome` is the collision
        // guard: a 64-bit hash collision surfaces there and falls back to a
        // fresh solve instead of returning a wrong answer.
        let decoded = read_outcome(body, key).and_then(|outcome| outcome.decode(configuration));
        if decoded.is_none() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        decoded
    }

    /// Persists a solve result, best-effort: I/O failures and
    /// non-persistable errors (solver breakdowns, model errors,
    /// verification failures — see the [module docs](self)) are skipped
    /// silently; the next run simply solves again. The directory write is
    /// synchronous; the remote tier (when attached) receives the body
    /// write-behind.
    pub fn save(&self, key: &CanonicalKey, result: &Result<Mapping, MappingError>) {
        let Some(body) = encode_entry(key, result) else {
            return;
        };
        if self.persist(&entry_address(key), &body) {
            if let Some(remote) = &self.remote {
                // Write-behind, best-effort: a full queue or broken peer
                // costs the peer warmth, never local correctness.
                remote.put(&body);
            }
        }
    }

    /// Writes one body into the directory, counting it and enforcing the
    /// automatic caps. Returns whether the write landed.
    fn persist(&self, address: &str, body: &str) -> bool {
        match self.dir.put(address, body) {
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
    /// the same pure [`plan_gc`]-backed eviction `bbs cache gc` uses, down
    /// to [`below_cap`] of each cap.
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
            None => match self.dir.list() {
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
                max_entries: self.max_entries.map(below_cap),
                max_bytes: self.max_bytes.map(below_cap),
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

    /// Serves one `store_get` request from a peer: the directory's raw body
    /// at `address`, *without* touching the solve counters — a peer's
    /// lookup is not one of this process's solves.
    ///
    /// # Errors
    ///
    /// The directory's read error.
    pub fn peer_get(&self, address: &str) -> io::Result<Option<String>> {
        self.dir.get(address)
    }

    /// Serves one `store_put` request from a peer: validates the body
    /// (parseable, this build's schema and solver revision, exactly one
    /// outcome, a fingerprint that matches its configuration), derives the
    /// address from the *embedded* canonical key — the peer's claimed
    /// address is never trusted — and persists the entry's canonical
    /// encoding, not the peer's bytes, through the same capped write path
    /// as local saves. A valid body in another layout is therefore stored
    /// in the one layout lookups accept.
    ///
    /// # Errors
    ///
    /// A human-readable refusal when the body fails validation or the
    /// write fails.
    pub fn peer_put(&self, body: &str) -> Result<(), String> {
        let entry = serde_json::from_str::<StoredEntry>(body)
            .map_err(|e| format!("entry body is not valid JSON: {e}"))?;
        if entry.schema != STORE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported entry schema {} (this build reads {STORE_SCHEMA_VERSION})",
                entry.schema
            ));
        }
        if entry.solver_revision != Some(SOLVER_REVISION) {
            return Err(format!(
                "entry of solver revision {} (this build serves revision {SOLVER_REVISION})",
                entry.solver_revision.unwrap_or(1)
            ));
        }
        let fingerprint = entry.fingerprint;
        let (key, outcome) = entry.split();
        if !outcome.is_single() {
            return Err("entry must hold exactly one of feasible/infeasible".to_string());
        }
        if fingerprint != key.fingerprint {
            return Err("entry fingerprint does not match its configuration".to_string());
        }
        let Some(canonical) = encode_body(&key, &outcome) else {
            return Err("entry holds a non-finite number".to_string());
        };
        if self.persist(&entry_address(&key), &canonical) {
            Ok(())
        } else {
            Err("store write failed".to_string())
        }
    }

    /// Every entry file of the directory, sorted oldest-first (ties broken
    /// by path so GC is deterministic regardless of readdir order). Each
    /// write stamps its file with a fine-grained mtime, so this is write
    /// order. Entries whose mtime the filesystem cannot report are stamped
    /// with the scan time — i.e. as the newest files present — so retention
    /// policies never mistake them for infinitely old. Files that vanish
    /// mid-scan — a concurrent `gc`/`clear` — are skipped, not errors.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the tree cannot be read.
    pub fn entries(&self) -> io::Result<Vec<StoreEntry>> {
        self.dir.list()
    }

    /// Scans the whole directory for `bbs cache stats`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the tree cannot be read.
    pub fn summary(&self) -> io::Result<StoreSummary> {
        let mut summary = StoreSummary::default();
        for entry in self.dir.list()? {
            summary.total_bytes += entry.bytes;
            let body = self.dir.read_body(&entry).ok();
            if let Some(body) = &body {
                summary.logical_bytes += body.len() as u64;
            }
            // Classify with the same validity rule lookups apply, so stats
            // never report entries a lookup would reject: a current body
            // counts only if it reads back under the key it claims.
            let parsed = body.as_deref().and_then(|body| {
                let entry = serde_json::from_str::<StoredEntry>(body).ok()?;
                Some((body, entry))
            });
            match parsed {
                Some((body, entry)) if entry.is_current() => {
                    match read_outcome(body, &entry.split().0) {
                        Some(outcome) if outcome.feasible.is_some() => {
                            summary.entries += 1;
                            summary.feasible += 1;
                        }
                        Some(_) => {
                            summary.entries += 1;
                            summary.infeasible += 1;
                        }
                        None => summary.corrupt += 1,
                    }
                }
                Some((_, entry)) if entry.schema == STORE_SCHEMA_VERSION => summary.stale += 1,
                Some(_) | None => summary.corrupt += 1,
            }
        }
        Ok(summary)
    }

    /// Removes every entry of the directory (all schema versions and solver
    /// revisions). Returns the number of files removed.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the tree cannot be
    /// removed.
    pub fn clear(&self) -> io::Result<u64> {
        self.dir.clear()
    }

    /// Applies a retention policy to the directory: first drops entries
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
        let entries = self.dir.list()?;
        let (remove, mut outcome) = plan_gc(&entries, policy, SystemTime::now());
        for entry in remove {
            if self.dir.remove(entry).unwrap_or(false) {
                outcome.removed += 1;
            }
        }
        Ok(outcome)
    }
}

/// Where a write-path eviction pass leaves a capped store: a sixteenth
/// below the cap, so a full store scans its directory once per `cap / 16`
/// writes instead of on every write. Caps below 16 get no slack.
fn below_cap(cap: u64) -> u64 {
    cap - cap / 16
}

/// The content address of a key: the 16-hex-digit FNV-1a hash over the
/// full canonical identity — the file stem the entry is stored under, on
/// this store and on its peers. Equal to [`address_of_parts`] of the key's
/// parts, but the key's fingerprint already *is* the FNV-1a hash of its
/// configuration (as [`CanonicalKey::materialise`] builds it), so the hash
/// continues from there instead of reading the configuration again.
pub fn entry_address(key: &CanonicalKey) -> String {
    let tail: [&[u8]; 6] = [
        &[0],
        key.options.as_bytes(),
        &[0],
        key.flow.as_bytes(),
        &[0],
        &key.solver_revision.to_le_bytes(),
    ];
    let hash = tail
        .iter()
        .fold(key.fingerprint, |hash, bytes| fnv1a_extend(hash, bytes));
    format!("{hash:016x}")
}

/// [`entry_address`] from the raw canonical strings: the definition of the
/// address, hashing the whole identity in one pass. NUL separators keep
/// `(configuration, options)` splits unambiguous; the solver revision
/// follows as 8 little-endian bytes.
pub fn address_of_parts(
    configuration: &str,
    options: &str,
    flow: &str,
    solver_revision: u64,
) -> String {
    let mut bytes = Vec::with_capacity(configuration.len() + options.len() + flow.len() + 11);
    bytes.extend_from_slice(configuration.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(options.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(flow.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&solver_revision.to_le_bytes());
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

/// Encodes one persistable result as an entry body (`None` for transient
/// errors, which are deliberately not persisted).
fn encode_entry(key: &CanonicalKey, result: &Result<Mapping, MappingError>) -> Option<String> {
    encode_body(key, &StoredOutcome::of(result)?)
}

/// Streams the key fields of an entry body for `key` in the canonical
/// layout — `{"schema":…,"solver_revision":…,"fingerprint":…,
/// "configuration":"…","options":"…","flow":"…"`, everything before the
/// outcome. Every body is written through here and every lookup compares
/// against it, so the writer and the byte check cannot disagree.
fn write_key_fields(out: &mut dyn Serializer, key: &CanonicalKey) {
    out.write_bytes(b"{\"schema\":");
    STORE_SCHEMA_VERSION.serialize_canonical(out);
    out.write_bytes(b",\"solver_revision\":");
    key.solver_revision.serialize_canonical(out);
    out.write_bytes(b",\"fingerprint\":");
    key.fingerprint.serialize_canonical(out);
    out.write_bytes(b",\"configuration\":");
    key.configuration.serialize_canonical(out);
    out.write_bytes(b",\"options\":");
    key.options.serialize_canonical(out);
    out.write_bytes(b",\"flow\":");
    key.flow.serialize_canonical(out);
}

/// The opening of the outcome fields that follow the key fields.
const OUTCOME_FIELDS: &str = ",\"feasible\":";

/// The canonical body of `outcome` under `key`: the key fields, the outcome
/// fields and a trailing newline — byte for byte what
/// `serde_json::to_string` of the whole entry writes. `None` when the
/// outcome holds a non-finite number, which JSON cannot carry.
fn encode_body(key: &CanonicalKey, outcome: &StoredOutcome) -> Option<String> {
    // `{"feasible":…,"infeasible":…}`: its fields continue the key's.
    let outcome = serde_json::to_vec(outcome).ok()?;
    let mut body = Vec::new();
    // The key fields hold no float, so the plain byte sink never meets a
    // non-finite one.
    write_key_fields(&mut body, key);
    body.push(b',');
    body.extend_from_slice(&outcome[1..]);
    body.push(b'\n');
    String::from_utf8(body).ok()
}

/// A sink that checks the stream against `rest` instead of keeping it:
/// each chunk must be the next bytes of `rest`, which then holds what
/// follows them; `None` once a chunk differed.
struct Expect<'a> {
    rest: Option<&'a [u8]>,
}

impl Serializer for Expect<'_> {
    fn write_bytes(&mut self, bytes: &[u8]) {
        self.rest = self.rest.and_then(|rest| rest.strip_prefix(bytes));
    }
}

/// The one validity rule of entry bodies, which every reader applies: the
/// body must open with `key`'s key fields in the canonical layout, byte for
/// byte, and go on with the outcome fields, holding exactly one outcome.
/// Returns that outcome. Only the outcome is parsed: the byte comparison
/// checks the schema, the solver revision, the fingerprint and the full
/// canonical key without reading them back, and any other layout of them —
/// whitespace between tokens, reordered fields — fails it. Only this
/// build's solver revision is ever served.
fn read_outcome(body: &str, key: &CanonicalKey) -> Option<StoredOutcome> {
    if key.solver_revision != SOLVER_REVISION {
        return None;
    }
    let mut expect = Expect {
        rest: Some(body.as_bytes()),
    };
    write_key_fields(&mut expect, key);
    // The matched key fields end in an ASCII quote, so `get` never splits
    // a character here.
    let fields = body.get(body.len() - expect.rest?.len()..)?;
    let outcome = fields.strip_prefix(OUTCOME_FIELDS)?;
    let text = ["{\"feasible\":", outcome].concat();
    serde_json::from_str::<StoredOutcome>(&text)
        .ok()
        .filter(StoredOutcome::is_single)
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
    use std::path::PathBuf;

    fn solved() -> (Configuration, CanonicalKey, Result<Mapping, MappingError>) {
        let configuration =
            with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 4);
        let options = SolveOptions::default().prefer_budget_minimisation();
        let key = CanonicalKey::from_parts(&configuration, &options, "joint");
        let result = compute_mapping(&configuration, &options);
        (configuration, key, result)
    }

    /// The container path of `key` under `root`.
    fn entry_path(root: &Path, key: &CanonicalKey) -> PathBuf {
        LocalDir::open_existing(root)
            .unwrap()
            .entry_path(&entry_address(key))
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
    fn a_capped_point_decodes_bit_for_bit_against_its_uncapped_base() {
        // The cache hands the store a sweep point's shared base, never the
        // capped clone: decoding reads no cap, so the hit must equal the
        // fresh solve of the capped point exactly.
        let directory = TempDir::new("capped-base");
        let store = SolveStore::open(directory.path()).unwrap();
        let base = producer_consumer(PaperParameters::default(), None);
        let capped = with_capacity_cap(&base, 2);
        let options = SolveOptions::default().prefer_budget_minimisation();
        let key = CanonicalKey::from_parts(&capped, &options, "joint");
        let fresh = compute_mapping(&capped, &options).unwrap();
        store.save(&key, &Ok(fresh.clone()));
        let loaded = store.load(&key, &base).expect("entry persisted").unwrap();
        let raw_bits = |mapping: &Mapping| {
            let budgets: Vec<u64> = base
                .all_tasks()
                .iter()
                .map(|&task| mapping.raw_budget(task).to_bits())
                .collect();
            let space: Vec<u64> = base
                .all_buffers()
                .iter()
                .map(|&buffer| mapping.raw_space(buffer).to_bits())
                .collect();
            (budgets, space, mapping.objective().to_bits())
        };
        assert_eq!(raw_bits(&loaded), raw_bits(&fresh));
        assert_eq!(loaded.solver_iterations(), fresh.solver_iterations());
        assert_eq!(
            loaded.budgets().collect::<Vec<_>>(),
            fresh.budgets().collect::<Vec<_>>()
        );
        assert_eq!(
            loaded.capacities().collect::<Vec<_>>(),
            fresh.capacities().collect::<Vec<_>>()
        );
        assert_eq!(store.stats().disk_hits, 1);
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
        let path = entry_path(directory.path(), &key);

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
        // entry file is the one we just wrote. The address continues from
        // the fingerprint, so a key that keeps it but differs in its
        // configuration lands exactly there.
        let mut colliding = key.clone();
        colliding.configuration.push(' ');
        assert_eq!(
            entry_path(directory.path(), &colliding),
            entry_path(directory.path(), &key)
        );
        assert!(
            store.load(&colliding, &configuration).is_none(),
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
        let path = entry_path(directory.path(), &key);
        let mut entry: StoredEntry = serde_json::from_str(&read_v2(&path)).unwrap();
        let stored = entry.feasible.as_mut().unwrap();
        // Point a budget at a task that does not exist in the configuration.
        stored.raw_budgets[0].0 = TaskRef::new(TaskGraphId::new(7), TaskId::new(9));
        write_v2(&path, &serde_json::to_string(&entry).unwrap());
        assert!(store.load(&key, &configuration).is_none());
        assert_eq!(store.stats().rejected, 1);
    }

    /// Bodies the writer of an earlier build produced, checked in verbatim
    /// so that entries already on disk can never be stranded: the
    /// producer/consumer pair at cap 4 and a 3-task ring with two initial
    /// tokens at cap 1, both under the paper options and the joint flow. A
    /// solver revision bump records them again.
    const EARLIER_FEASIBLE_BODY: &str = concat!(
        r#"{"schema":2,"solver_revision":2,"fingerprint":17970929707748041630,"configuration":"{\"processors\":[{\"name\":\"p1\",\"replenishment_interval\":40.0,\"scheduling_overhead\":0.0},{\"name\":\"p2\",\"replenishment_interval\":40.0,\"scheduling_overhead\":0.0}],\"memories\":[{\"name\":\"mem\",\"capacity\":4611686018427387903}],\"task_graphs\":[{\"name\":\"T1\",\"period\":10.0,\"tasks\":[{\"name\":\"wa\",\"wcet\":1.0,\"processor\":0,\"budget_weight\":1.0},{\"name\":\"wb\",\"wcet\":1.0,\"processor\":1,\"budget_weight\":1.0}],\"buffers\":[{\"name\":\"bab\",\"producer\":0,\"consumer\":1,\"memory\":0,\"container_size\":1,\"initial_tokens\":0,\"storage_weight\":1.0,\"max_capacity\":4}]}],\"budget_granularity\":1}","#,
        r#""options":"{\"solver\":\"interior-point\",\"ipm\":{\"max_iterations\":100,\"tol_feasibility\":1e-8,\"tol_gap_absolute\":1e-8,\"tol_gap_relative\":1e-8,\"tol_infeasibility\":1e-5,\"regularization\":1e-10,\"step_fraction\":0.99},\"cutting_plane\":{\"max_rounds\":60,\"tol_violation\":1e-7,\"min_linearization_point\":1e-6},\"budget_weight_scale\":1.0,\"storage_weight_scale\":0.001,\"verify\":true}","flow":"joint","#,
        r#""feasible":{"raw_budgets":[[{"graph":0,"task":0},21.83222203570227],[{"graph":0,"task":1},21.8320971206577]],"raw_space":[[{"graph":0,"buffer":0},3.9999999995405697]],"objective":43.66831915635951,"solver_iterations":10},"infeasible":null}"#,
        "\n"
    );

    /// See [`EARLIER_FEASIBLE_BODY`].
    const EARLIER_INFEASIBLE_BODY: &str = concat!(
        r#"{"schema":2,"solver_revision":2,"fingerprint":11955781440470210449,"configuration":"{\"processors\":[{\"name\":\"p1\",\"replenishment_interval\":40.0,\"scheduling_overhead\":0.0},{\"name\":\"p2\",\"replenishment_interval\":40.0,\"scheduling_overhead\":0.0},{\"name\":\"p3\",\"replenishment_interval\":40.0,\"scheduling_overhead\":0.0}],\"memories\":[{\"name\":\"mem\",\"capacity\":4611686018427387903}],\"task_graphs\":[{\"name\":\"ring\",\"period\":10.0,\"tasks\":[{\"name\":\"wa\",\"wcet\":1.0,\"processor\":0,\"budget_weight\":1.0},{\"name\":\"wb\",\"wcet\":1.0,\"processor\":1,\"budget_weight\":1.0},{\"name\":\"wc\",\"wcet\":1.0,\"processor\":2,\"budget_weight\":1.0}],\"buffers\":[{\"name\":\"bwawb\",\"producer\":0,\"consumer\":1,\"memory\":0,\"container_size\":1,\"initial_tokens\":0,\"storage_weight\":1.0,\"max_capacity\":1},{\"name\":\"bwbwc\",\"producer\":1,\"consumer\":2,\"memory\":0,\"container_size\":1,\"initial_tokens\":0,\"storage_weight\":1.0,\"max_capacity\":1},{\"name\":\"bwcwa\",\"producer\":2,\"consumer\":0,\"memory\":0,\"container_size\":1,\"initial_tokens\":2,\"storage_weight\":1.0,\"max_capacity\":1}]}],\"budget_granularity\":1}","#,
        r#""options":"{\"solver\":\"interior-point\",\"ipm\":{\"max_iterations\":100,\"tol_feasibility\":1e-8,\"tol_gap_absolute\":1e-8,\"tol_gap_relative\":1e-8,\"tol_infeasibility\":1e-5,\"regularization\":1e-10,\"step_fraction\":0.99},\"cutting_plane\":{\"max_rounds\":60,\"tol_violation\":1e-7,\"min_linearization_point\":1e-6},\"budget_weight_scale\":1.0,\"storage_weight_scale\":0.001,\"verify\":true}","flow":"joint","#,
        r#""feasible":null,"infeasible":{"kind":"cap-below-initial-tokens","detail":null,"buffer":{"graph":0,"buffer":2},"cap":1,"initial_tokens":2,"processor":null,"required_cycles":null,"available_cycles":null,"memory":null,"required_storage":null,"available_storage":null}}"#,
        "\n"
    );

    /// The raw values of a mapping as bits, in configuration order.
    fn raw_bits(configuration: &Configuration, mapping: &Mapping) -> (Vec<u64>, Vec<u64>, u64) {
        let budgets = configuration
            .all_tasks()
            .iter()
            .map(|&task| mapping.raw_budget(task).to_bits())
            .collect();
        let space = configuration
            .all_buffers()
            .iter()
            .map(|&buffer| mapping.raw_space(buffer).to_bits())
            .collect();
        (budgets, space, mapping.objective().to_bits())
    }

    #[test]
    fn bodies_written_by_earlier_builds_decode_bit_for_bit() {
        let directory = TempDir::new("earlier-bodies");
        let store = SolveStore::open(directory.path()).unwrap();
        let options = SolveOptions::default().prefer_budget_minimisation();

        let pc = with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 4);
        let key = CanonicalKey::from_parts(&pc, &options, "joint");
        // This build writes the same bytes at the same address.
        assert_eq!(
            encode_entry(&key, &compute_mapping(&pc, &options)).unwrap(),
            EARLIER_FEASIBLE_BODY
        );
        write_v2(&entry_path(directory.path(), &key), EARLIER_FEASIBLE_BODY);
        let loaded = store.load(&key, &pc).expect("served").unwrap();
        // Bit for bit the raw values the body holds, and the fresh solve.
        let stored: StoredEntry = serde_json::from_str(EARLIER_FEASIBLE_BODY).unwrap();
        let stored = stored.feasible.unwrap();
        let (budgets, space, objective) = raw_bits(&pc, &loaded);
        fn bits<T>(values: &[(T, f64)]) -> Vec<u64> {
            values.iter().map(|(_, value)| value.to_bits()).collect()
        }
        assert_eq!(budgets, bits(&stored.raw_budgets));
        assert_eq!(space, bits(&stored.raw_space));
        assert_eq!(objective, stored.objective.to_bits());
        assert_eq!(loaded.solver_iterations() as u64, stored.solver_iterations);
        let fresh = compute_mapping(&pc, &options).unwrap();
        assert_eq!(raw_bits(&pc, &loaded), raw_bits(&pc, &fresh));
        assert_eq!(loaded, fresh);

        let ring = bbs_taskgraph::presets::PresetSpec::named("ring")
            .with_tasks(3)
            .with_initial_tokens(2)
            .build()
            .unwrap();
        let ring = with_capacity_cap(&ring, 1);
        let key = CanonicalKey::from_parts(&ring, &options, "joint");
        assert_eq!(entry_address(&key), "484b2bc7e6e5eda6");
        let infeasible = compute_mapping(&ring, &options);
        assert!(matches!(
            infeasible,
            Err(MappingError::CapBelowInitialTokens { .. })
        ));
        assert_eq!(
            encode_entry(&key, &infeasible).unwrap(),
            EARLIER_INFEASIBLE_BODY
        );
        write_v2(&entry_path(directory.path(), &key), EARLIER_INFEASIBLE_BODY);
        assert_eq!(store.load(&key, &ring).expect("served"), infeasible);

        let stats = store.stats();
        assert_eq!((stats.disk_hits, stats.rejected), (2, 0));
        let summary = store.summary().unwrap();
        assert_eq!(
            (summary.feasible, summary.infeasible, summary.corrupt),
            (1, 1, 0)
        );
    }

    /// `text` with the byte at `index` replaced by another ASCII byte.
    fn with_byte_changed(text: &str, index: usize) -> String {
        let mut bytes = text.as_bytes().to_vec();
        bytes[index] = if bytes[index] == b'#' { b'%' } else { b'#' };
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn a_key_that_differs_in_one_byte_is_a_counted_miss() {
        let directory = TempDir::new("one-byte");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        store.save(&key, &result);
        let container = fs::read(entry_path(directory.path(), &key)).unwrap();

        let mut variants: Vec<(String, CanonicalKey)> = Vec::new();
        for (field, text) in [
            ("configuration", &key.configuration),
            ("options", &key.options),
            ("flow", &key.flow),
        ] {
            let last = text.len() - 1;
            let mut edits: Vec<String> = [0, 1, text.len() / 2, last]
                .iter()
                .map(|&index| with_byte_changed(text, index))
                .collect();
            edits.push(text[..last].to_string());
            edits.push(format!("{text}x"));
            for edit in edits {
                let mut variant = key.clone();
                match field {
                    "configuration" => variant.configuration = edit,
                    "options" => variant.options = edit,
                    _ => variant.flow = edit,
                }
                variants.push((field.to_string(), variant));
            }
        }
        variants.push((
            "fingerprint".to_string(),
            CanonicalKey {
                fingerprint: key.fingerprint ^ 1,
                ..key.clone()
            },
        ));
        variants.push((
            "solver_revision".to_string(),
            CanonicalKey {
                solver_revision: key.solver_revision + 1,
                ..key.clone()
            },
        ));
        for (round, (field, variant)) in variants.iter().enumerate() {
            // The body answers the variant's address, as a collision would.
            let path = entry_path(directory.path(), variant);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, &container).unwrap();
            assert!(store.load(variant, &configuration).is_none(), "{field}");
            let stats = store.stats();
            assert_eq!(stats.rejected, round as u64 + 1, "{field}");
            assert_eq!(stats.fresh_solves, round as u64 + 1, "{field}");
        }

        // The schema is a key field of the body alone.
        let path = entry_path(directory.path(), &key);
        fs::write(&path, &container).unwrap();
        let body = read_v2(&path);
        let foreign = body.replacen("{\"schema\":2,", "{\"schema\":3,", 1);
        assert_ne!(foreign, body);
        write_v2(&path, &foreign);
        assert!(store.load(&key, &configuration).is_none());
        assert_eq!(store.stats().rejected, variants.len() as u64 + 1);
        assert_eq!(store.stats().disk_hits, 0);
    }

    #[test]
    fn names_with_escapes_and_non_ascii_text_round_trip() {
        let directory = TempDir::new("escapes");
        let store = SolveStore::open(directory.path()).unwrap();
        let options = SolveOptions::default().prefer_budget_minimisation();
        // A quote, a backslash, a control character (written `\u0001`), a
        // tab and non-ASCII text in a task name, a processor name and the
        // graph name.
        let json = with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 3)
            .canonical_json()
            .replace(r#""wa""#, r#""w\"a\\b\u0001c\td""#)
            .replace(r#""p2""#, r#""prozessor-für-wb-漢""#)
            .replace(r#""T1""#, r#""T\u001f1 ✓""#);
        let configuration: Configuration = serde_json::from_str(&json).unwrap();
        configuration.validate().unwrap();
        let result = compute_mapping(&configuration, &options);
        assert!(result.is_ok());
        let options_json = serde_json::to_string(&options).unwrap();
        let plain = CanonicalKey::materialise(&configuration, &options_json, "joint");
        assert!(plain.configuration.contains(r#"w\"a\\b\u0001c\td"#));
        assert!(plain.configuration.contains("漢"));
        // The canonical JSON escapes its own control characters, so raw
        // ones reach a body's string fields only through the flow name,
        // which the store takes as given.
        let raw = CanonicalKey::materialise(&configuration, &options_json, "jo\"i\\n\u{1}\tt-ü");
        for key in [&plain, &raw] {
            store.save(key, &result);
            let body = read_v2(&entry_path(directory.path(), key));
            let entry: StoredEntry = serde_json::from_str(&body).unwrap();
            assert_eq!(entry.configuration, key.configuration);
            assert_eq!(entry.flow, key.flow);
            // The one writer agrees with the derived whole-entry writer.
            assert_eq!(body, serde_json::to_string(&entry).unwrap() + "\n");
            let loaded = store.load(key, &configuration).expect("served");
            assert_eq!(loaded, result);
        }
        let body = read_v2(&entry_path(directory.path(), &raw));
        assert!(body.contains(r#""flow":"jo\"i\\n\u0001\tt-ü""#), "{body}");
        let stats = store.stats();
        assert_eq!((stats.disk_hits, stats.rejected), (2, 0));
        assert_eq!(store.summary().unwrap().entries, 2);
    }

    #[test]
    fn bodies_in_another_layout_are_counted_misses_and_corrupt() {
        let directory = TempDir::new("layout");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        let body = encode_entry(&key, &result).unwrap();
        let entry: StoredEntry = serde_json::from_str(&body).unwrap();
        let reordered = format!(
            "{{\"schema\":2,\"solver_revision\":{},\"fingerprint\":{},\"configuration\":{},\
             \"flow\":{},\"options\":{},\"feasible\":{},\"infeasible\":null}}\n",
            key.solver_revision,
            key.fingerprint,
            serde_json::to_string(&key.configuration).unwrap(),
            serde_json::to_string(&key.flow).unwrap(),
            serde_json::to_string(&key.options).unwrap(),
            serde_json::to_string(&entry.feasible).unwrap(),
        );
        let outcome_first =
            body.replacen(",\"feasible\":", ",\"infeasible\":null,\"feasible\":", 1);
        let outcome_first = outcome_first.replacen(",\"infeasible\":null}", "}", 1);
        let layouts = [
            // Whitespace between tokens.
            body.replacen("{\"schema\":2,", "{ \"schema\" : 2 , ", 1),
            body.replacen(",\"flow\":", ", \"flow\":", 1),
            body.replacen(",\"fingerprint\":", ",\"fingerprint\": ", 1),
            // Reordered key fields, and the outcome fields first.
            reordered,
            outcome_first,
        ];
        let path = entry_path(directory.path(), &key);
        for (index, layout) in layouts.iter().enumerate() {
            assert_ne!(layout, &body, "layout {index}");
            let parsed: StoredEntry = serde_json::from_str(layout).unwrap();
            assert_eq!(parsed, entry, "layout {index} holds the same entry");
            write_v2(&path, layout);
            assert!(store.load(&key, &configuration).is_none(), "layout {index}");
            assert_eq!(store.stats().rejected, index as u64 + 1);
            let summary = store.summary().unwrap();
            assert_eq!((summary.entries, summary.corrupt), (0, 1), "layout {index}");
        }
        // The canonical layout itself is served and counted.
        write_v2(&path, &body);
        assert!(store.load(&key, &configuration).is_some());
        assert_eq!(store.stats().disk_hits, 1);
        assert_eq!(store.summary().unwrap().entries, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        // The address continues FNV-1a from the fingerprint; for every key
        // `materialise` builds it equals the hash of the whole identity.
        #[test]
        fn continued_addresses_equal_address_of_parts(
            family in 0u32..4,
            tasks in 3usize..8,
            cap in 0u64..12,
            seed in 0u64..1_000,
            flow in 0usize..3,
            cutting in 0u32..2,
        ) {
            use bbs_taskgraph::presets::{PresetSpec, RandomWorkload};
            use bbs_taskgraph::ConfigView;
            use std::sync::Arc;
            let spec = match family {
                0 => PresetSpec::named("producer-consumer"),
                1 => PresetSpec::named("chain").with_tasks(tasks),
                2 => PresetSpec::named("ring").with_tasks(tasks),
                _ => PresetSpec::named("random-dag").with_random(RandomWorkload {
                    num_tasks: tasks + 2,
                    seed,
                    ..RandomWorkload::default()
                }),
            };
            let base = Arc::new(spec.build().unwrap());
            let view = match cap {
                0 => ConfigView::new(base),
                cap => ConfigView::with_capacity_cap(base, cap),
            };
            let mut options = SolveOptions::default().prefer_budget_minimisation();
            if cutting == 1 {
                options = options.with_cutting_plane();
            }
            let flow = ["joint", "two-phase-min", "two-phase-fair"][flow];
            let options_json = serde_json::to_string(&options).unwrap();
            let key = CanonicalKey::materialise(&view, &options_json, flow);
            proptest::prop_assert_eq!(
                entry_address(&key),
                address_of_parts(
                    &key.configuration,
                    &key.options,
                    &key.flow,
                    key.solver_revision
                )
            );
        }
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
    fn a_full_capped_store_evicts_a_sixteenth_below_the_cap_and_scans_rarely() {
        let directory = TempDir::new("auto-cap-slack");
        let store = SolveStore::open(directory.path())
            .unwrap()
            .with_max_entries(32);
        // One stored result under 40 distinct keys.
        let (_, _, result) = solved();
        let base = producer_consumer(PaperParameters::default(), None);
        let options = SolveOptions::default().prefer_budget_minimisation();
        let mut held = Vec::new();
        for cap in 1..=40u64 {
            let key = CanonicalKey::from_parts(&with_capacity_cap(&base, cap), &options, "joint");
            store.save(&key, &result);
            held.push(store.summary().unwrap().entries);
        }
        // Filling up to the cap evicts nothing; the write that crosses it
        // evicts down to 32 - 32 / 16 = 30, and the next pass waits until
        // the store crosses 32 again.
        let mut expected: Vec<u64> = (1..=32).collect();
        expected.extend([30, 31, 32, 30, 31, 32, 30, 31]);
        assert_eq!(held, expected);
        assert_eq!(store.stats().stored, 40);
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
        assert_eq!(summary.stale, 0);
        assert!(summary.total_bytes > 0);
        assert!(
            summary.logical_bytes > summary.total_bytes - 11,
            "logical counts uncompressed bodies (junk contributes physical only)"
        );
    }

    #[test]
    fn entries_of_another_solver_revision_are_never_served() {
        let directory = TempDir::new("revision");
        let store = SolveStore::open(directory.path()).unwrap();
        let (configuration, key, result) = solved();
        // Bodies of revision 1 carry no revision; plant one at this key's
        // address, as a collision or a stale peer could.
        let mut stale: StoredEntry =
            serde_json::from_str(&encode_entry(&key, &result).unwrap()).unwrap();
        stale.solver_revision = None;
        let stale = serde_json::to_string(&stale).unwrap();
        write_v2(&entry_path(directory.path(), &key), &stale);

        assert!(store.load(&key, &configuration).is_none());
        let stats = store.stats();
        assert_eq!(
            (stats.disk_hits, stats.rejected, stats.fresh_solves),
            (0, 1, 1)
        );
        let summary = store.summary().unwrap();
        assert_eq!((summary.entries, summary.stale, summary.corrupt), (0, 1, 0));
        let refusal = store.peer_put(&stale).unwrap_err();
        assert!(refusal.contains("solver revision 1"), "{refusal}");
        // Another revision's key addresses another entry.
        let other = CanonicalKey {
            solver_revision: SOLVER_REVISION + 1,
            ..key.clone()
        };
        assert_ne!(entry_address(&other), entry_address(&key));
        assert!(store.load(&other, &configuration).is_none());

        // The fresh solve's save replaces the stale body.
        store.save(&key, &result);
        let loaded = store.load(&key, &configuration).expect("current entry");
        assert_eq!(loaded.unwrap(), result.unwrap());
        let summary = store.summary().unwrap();
        assert_eq!((summary.entries, summary.stale), (1, 0));
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

    #[test]
    fn remote_tier_reads_through_and_writes_behind() {
        use crate::serve::{ServeConfig, Server};
        let directory = TempDir::new("tier");
        let server = Server::start(ServeConfig {
            store: Some(SolveStore::open(directory.path().join("peer")).unwrap()),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        // Threshold 1 with an hour of backoff: one transport failure opens
        // the breaker for the rest of the test.
        let tiered = |name: &str| {
            let remote = RemoteBackend::connect_with(
                &addr,
                BreakerConfig {
                    threshold: 1,
                    probe_backoff: Duration::from_secs(3600),
                    backoff_cap: Duration::from_secs(3600),
                },
            )
            .unwrap();
            SolveStore::open(directory.path().join(name))
                .unwrap()
                .with_remote(remote)
        };
        let peer_stored = || server.stats().store.expect("peer has a store").stored;
        let (configuration, key, result) = solved();

        // Process 1: fresh solve; the save lands locally and, once the
        // store is dropped (flushing write-behind), on the peer.
        let store_a = tiered("a");
        assert!(store_a.load(&key, &configuration).is_none());
        store_a.save(&key, &result);
        let stats = store_a.stats();
        assert_eq!(stats.fresh_solves, 1);
        assert_eq!(stats.remote_hits, 0);
        assert!(stats.remote_enabled);
        drop(store_a);
        assert_eq!(peer_stored(), 1, "write-behind reached the peer");

        // Process 2, cold local dir: the peer answers, and read-through
        // populates the local tier.
        let store_b = tiered("b");
        let loaded = store_b.load(&key, &configuration).expect("remote hit");
        assert_eq!(loaded.unwrap(), result.clone().unwrap());
        let stats = store_b.stats();
        assert_eq!(stats.remote_hits, 1);
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.fresh_solves, 0);
        assert_eq!(stats.stored, 1, "read-through fill counts as stored");
        drop(store_b);
        assert_eq!(peer_stored(), 1, "read-through fills are not echoed back");

        // Process 3 on the filled dir: a local hit never asks the peer, so
        // a stopped peer leaves the breaker untouched.
        let store_c = tiered("b");
        server.shutdown();
        server.wait();
        assert!(store_c.load(&key, &configuration).is_some());
        let stats = store_c.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.breaker_opens, 0);
    }

    #[test]
    fn gc_evicts_in_write_order_within_one_mtime_tick() {
        let directory = TempDir::new("gc-write-order");
        let store = SolveStore::open(directory.path()).unwrap();
        let base = producer_consumer(PaperParameters::default(), None);
        let options = SolveOptions::default().prefer_budget_minimisation();
        // Solve first, so the saves run back to back, well within one tick
        // of a coarse filesystem clock.
        let mut solved: Vec<(CanonicalKey, Result<Mapping, MappingError>)> = (1..=6u64)
            .map(|cap| {
                let configuration = with_capacity_cap(&base, cap);
                let key = CanonicalKey::from_parts(&configuration, &options, "joint");
                let result = compute_mapping(&configuration, &options);
                (key, result)
            })
            .collect();
        // Descending address order: a path tie-break would keep the first
        // two saved, not the last two.
        solved.sort_by_key(|(key, _)| std::cmp::Reverse(entry_address(key)));
        for (key, result) in &solved {
            store.save(key, result);
        }
        let outcome = store
            .gc(GcPolicy {
                max_entries: Some(2),
                ..GcPolicy::default()
            })
            .unwrap();
        assert_eq!((outcome.removed, outcome.kept), (4, 2));
        let survivors: Vec<PathBuf> = store
            .entries()
            .unwrap()
            .into_iter()
            .map(|entry| entry.path)
            .collect();
        let saved_last: Vec<PathBuf> = solved[4..]
            .iter()
            .map(|(key, _)| entry_path(directory.path(), key))
            .collect();
        assert_eq!(survivors, saved_last);
    }
}
