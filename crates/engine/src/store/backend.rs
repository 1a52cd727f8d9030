//! The [`StoreBackend`] trait and the default [`LocalDirBackend`].
//!
//! A backend is the *I/O half* of the persistent store: it moves opaque
//! entry **bodies** (the canonical JSON text of a stored solve) in and out
//! of some medium, addressed by the 16-hex-digit content hash of the full
//! cache key. Everything semantic — key derivation, collision guards,
//! entry validation, retention planning — stays in
//! [`SolveStore`](crate::SolveStore), so every backend shares one
//! correctness story.
//!
//! Bodies cross the trait boundary as **uncompressed JSON text**. How a
//! backend represents them at rest is its own business: the local
//! directory backend stores `v2` entries as [`minilz`]-compressed files,
//! while the remote backend ships the text verbatim inside protocol
//! frames. Keeping compression below the trait means the wire format needs
//! no binary envelope and a remote peer can re-compress however it likes.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Version of the on-disk entry format: entries live under a `v<N>`
/// directory as minilz-compressed JSON. The plain-JSON `v1` container of
/// older builds is no longer read; its entries were all written by solver
/// revision 1, which no lookup serves (see
/// [`bbs_conic::SOLVER_REVISION`]).
pub const STORE_SCHEMA_VERSION: u64 = 2;

/// One entry file as seen by a [`StoreBackend::list`] scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// Path of the entry file.
    pub path: PathBuf,
    /// Last-modified time; the scan time when the filesystem cannot report
    /// one (see [`StoreEntry::mtime_readable`]).
    pub modified: SystemTime,
    /// Whether the filesystem reported a modification time. Entries without
    /// one sort as the newest files of the scan and are exempt from
    /// age-based eviction.
    pub mtime_readable: bool,
    /// Physical (compressed) file size in bytes.
    pub bytes: u64,
}

/// Where solve-store entry bodies physically live.
///
/// Implementations must be safe to share across the executor's worker
/// threads (`Send + Sync`); the store serialises nothing around them. The
/// contract per method:
///
/// * [`get`](Self::get) — `Ok(None)` is a plain miss; `Err` means a body
///   exists but could not be read back (corrupt container, I/O failure).
/// * [`put`](Self::put) — makes `body` the representation stored at
///   `address`, superseding any previous one; returns the physical bytes
///   written.
/// * [`list`](Self::list)/[`read_body`](Self::read_body)/
///   [`remove`](Self::remove)/[`clear`](Self::clear) — the management
///   surface behind `bbs cache stats|gc|clear`. Backends that cannot
///   enumerate remotely (the network tier) return
///   [`io::ErrorKind::Unsupported`]; management then runs where the data
///   lives.
pub trait StoreBackend: Send + Sync + fmt::Debug {
    /// Human-readable identity for logs and errors.
    fn describe(&self) -> String;

    /// Fetches the body stored at `address` (16 lowercase hex digits): one
    /// JSON object repeating the full canonical key plus the stored
    /// outcome.
    ///
    /// # Errors
    ///
    /// Any error other than a plain miss: unreadable file, corrupt
    /// compression framing, transport failure.
    fn get(&self, address: &str) -> io::Result<Option<String>>;

    /// Stores `body` at `address`, superseding any previous container.
    /// Returns the physical bytes written.
    ///
    /// # Errors
    ///
    /// The underlying I/O or transport error.
    fn put(&self, address: &str, body: &str) -> io::Result<u64>;

    /// Every entry container, sorted oldest-first (mtime, ties by path).
    ///
    /// # Errors
    ///
    /// The underlying scan error, or [`io::ErrorKind::Unsupported`] on
    /// backends without a management surface.
    fn list(&self) -> io::Result<Vec<StoreEntry>>;

    /// Reads the body of one listed entry back out of its container.
    ///
    /// # Errors
    ///
    /// The underlying read/decode error, or
    /// [`io::ErrorKind::Unsupported`].
    fn read_body(&self, entry: &StoreEntry) -> io::Result<String>;

    /// Removes one listed entry. `Ok(false)` means it was already gone (a
    /// concurrent pass won the race) — not an error.
    ///
    /// # Errors
    ///
    /// The underlying removal error, or [`io::ErrorKind::Unsupported`].
    fn remove(&self, entry: &StoreEntry) -> io::Result<bool>;

    /// Removes every entry (every version directory, so trees of older
    /// builds go too). Returns the number of entry containers removed.
    ///
    /// # Errors
    ///
    /// The underlying removal error, or [`io::ErrorKind::Unsupported`].
    fn clear(&self) -> io::Result<u64>;

    /// The backend's self-healing health counters, when it has any. Local
    /// backends have no failure machinery and report `None`; the remote
    /// tier reports its circuit-breaker state (see
    /// [`RemoteHealth`](crate::store::breaker::RemoteHealth)).
    fn health(&self) -> Option<crate::store::breaker::RemoteHealth> {
        None
    }
}

/// The default backend: a content-addressed directory tree.
///
/// ```text
/// <root>/v2/<hh>/<hhhhhhhhhhhhhhhh>.mlz   (minilz-compressed JSON)
/// ```
///
/// Writes are atomic (temp file + rename), so concurrent processes sharing
/// one root can race freely.
#[derive(Debug)]
pub struct LocalDirBackend {
    root: PathBuf,
}

/// Process-global distinguisher for temporary file names: two backends
/// opened on the same directory in one process must never write the same
/// temp file.
static WRITE_COUNTER: AtomicU64 = AtomicU64::new(0);

impl LocalDirBackend {
    /// Opens (creating if needed) a backend rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the directory cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(root.join(format!("v{STORE_SCHEMA_VERSION}")))?;
        Ok(Self { root })
    }

    /// Opens a backend rooted at an *existing* directory, creating nothing
    /// — the constructor for read-and-manage commands (`bbs cache`), which
    /// must not materialise a store tree at a mistyped path.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::NotFound`] when `dir` is not a directory.
    pub fn open_existing(dir: impl AsRef<Path>) -> io::Result<Self> {
        let root = dir.as_ref();
        if !root.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} is not a directory", root.display()),
            ));
        }
        Ok(Self {
            root: root.to_path_buf(),
        })
    }

    /// The directory the backend was opened at.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the container for `address` lives.
    pub fn entry_path(&self, address: &str) -> PathBuf {
        self.root
            .join(format!("v{STORE_SCHEMA_VERSION}"))
            .join(&address[..2])
            .join(format!("{address}.mlz"))
    }

    /// Writes `bytes` to a temporary file next to `path` and renames it
    /// into place, so readers never observe a partial entry.
    fn write_atomically(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let directory = path.parent().expect("entry paths have a shard directory");
        fs::create_dir_all(directory)?;
        let unique = WRITE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let temp = directory.join(format!(".tmp-{}-{unique}", std::process::id()));
        fs::write(&temp, bytes)?;
        match fs::rename(&temp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                // A lost rename race means another process persisted the
                // same entry; drop our copy.
                let _ = fs::remove_file(&temp);
                Err(e)
            }
        }
    }

    /// Scans the version directory, appending its entries to `entries`.
    fn scan(&self, scan_time: SystemTime, entries: &mut Vec<StoreEntry>) -> io::Result<()> {
        let directory = self.root.join(format!("v{STORE_SCHEMA_VERSION}"));
        // A missing version directory is an empty tier (e.g. cleared by a
        // concurrent process); reads stay pure and never create it.
        let shards = match fs::read_dir(&directory) {
            Ok(shards) => shards,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for shard in shards {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            let files = match fs::read_dir(&shard) {
                Ok(files) => files,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            for file in files {
                let file = file?;
                let path = file.path();
                if path.extension().and_then(|e| e.to_str()) != Some("mlz") {
                    continue; // temp files and strays
                }
                let metadata = match file.metadata() {
                    Ok(metadata) => metadata,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(e),
                };
                let (modified, mtime_readable) = match metadata.modified() {
                    Ok(modified) => (modified, true),
                    Err(_) => (scan_time, false),
                };
                entries.push(StoreEntry {
                    path,
                    modified,
                    mtime_readable,
                    bytes: metadata.len(),
                });
            }
        }
        Ok(())
    }
}

/// Decodes one compressed container into its body text.
fn decode(bytes: &[u8]) -> io::Result<String> {
    let raw = minilz::decompress(bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    String::from_utf8(raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

impl StoreBackend for LocalDirBackend {
    fn describe(&self) -> String {
        format!("local dir {}", self.root.display())
    }

    fn get(&self, address: &str) -> io::Result<Option<String>> {
        match fs::read(self.entry_path(address)) {
            Ok(bytes) => decode(&bytes).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn put(&self, address: &str, body: &str) -> io::Result<u64> {
        let frame = minilz::compress(body.as_bytes());
        self.write_atomically(&self.entry_path(address), &frame)?;
        Ok(frame.len() as u64)
    }

    fn list(&self) -> io::Result<Vec<StoreEntry>> {
        let mut entries = Vec::new();
        self.scan(SystemTime::now(), &mut entries)?;
        entries.sort_by(|a, b| {
            a.modified
                .cmp(&b.modified)
                .then_with(|| a.path.cmp(&b.path))
        });
        Ok(entries)
    }

    fn read_body(&self, entry: &StoreEntry) -> io::Result<String> {
        decode(&fs::read(&entry.path)?)
    }

    fn remove(&self, entry: &StoreEntry) -> io::Result<bool> {
        match fs::remove_file(&entry.path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn clear(&self) -> io::Result<u64> {
        let mut removed = 0;
        let versions = match fs::read_dir(&self.root) {
            Ok(versions) => Some(versions),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        for version in versions.into_iter().flatten() {
            let version = version?.path();
            if version.is_dir() {
                removed += count_entry_files(&version)?;
                // A concurrent clear may have won the race; only a tree
                // that still exists unremoved is an error.
                if let Err(e) = fs::remove_dir_all(&version) {
                    if version.exists() {
                        return Err(e);
                    }
                }
            }
        }
        fs::create_dir_all(self.root.join(format!("v{STORE_SCHEMA_VERSION}")))?;
        Ok(removed)
    }
}

fn count_entry_files(directory: &Path) -> io::Result<u64> {
    let mut count = 0;
    let files = match fs::read_dir(directory) {
        Ok(files) => files,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    for entry in files {
        let path = entry?.path();
        if path.is_dir() {
            count += count_entry_files(&path)?;
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("json") | Some("mlz")
        ) {
            count += 1;
        }
    }
    Ok(count)
}
