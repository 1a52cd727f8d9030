//! The local directory tier: where [`SolveStore`](crate::SolveStore) keeps
//! its entry files.
//!
//! [`LocalDir`] moves opaque entry **bodies** (the canonical JSON text of a
//! stored solve) in and out of a content-addressed directory tree,
//! addressed by the 16-hex-digit content hash of the full cache key. It
//! hides the layout, the [`minilz`] compression and the atomic-rename
//! write discipline; everything semantic — key derivation, collision
//! guards, entry validation, retention planning — stays in the store.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Version of the on-disk entry format: entries live under a `v<N>`
/// directory as minilz-compressed JSON. The plain-JSON `v1` container of
/// older builds is no longer read; its entries were all written by solver
/// revision 1, which no lookup serves (see
/// [`bbs_conic::SOLVER_REVISION`]).
pub const STORE_SCHEMA_VERSION: u64 = 2;

/// One entry file as seen by a [`SolveStore::entries`](crate::SolveStore::entries)
/// scan.
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

/// A content-addressed directory tree of entry files.
///
/// ```text
/// <root>/v2/<hh>/<hhhhhhhhhhhhhhhh>.mlz   (minilz-compressed JSON)
/// ```
///
/// Writes are atomic (temp file + rename), so concurrent processes sharing
/// one root can race freely.
#[derive(Debug)]
pub(crate) struct LocalDir {
    root: PathBuf,
}

/// Process-global distinguisher for temporary file names: two stores
/// opened on the same directory in one process must never write the same
/// temp file.
static WRITE_COUNTER: AtomicU64 = AtomicU64::new(0);

impl LocalDir {
    /// Opens (creating if needed) the tree rooted at `dir`.
    pub(crate) fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir.join(format!("v{STORE_SCHEMA_VERSION}")))?;
        Ok(Self {
            root: dir.to_path_buf(),
        })
    }

    /// Opens the tree rooted at an *existing* directory, creating nothing.
    pub(crate) fn open_existing(dir: &Path) -> io::Result<Self> {
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} is not a directory", dir.display()),
            ));
        }
        Ok(Self {
            root: dir.to_path_buf(),
        })
    }

    /// The directory the tree was opened at.
    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    /// Where the container for `address` lives.
    pub(crate) fn entry_path(&self, address: &str) -> PathBuf {
        self.root
            .join(format!("v{STORE_SCHEMA_VERSION}"))
            .join(&address[..2])
            .join(format!("{address}.mlz"))
    }

    /// The body stored at `address`: `Ok(None)` is a plain miss, `Err` a
    /// container that exists but cannot be read back.
    pub(crate) fn get(&self, address: &str) -> io::Result<Option<String>> {
        match fs::read(self.entry_path(address)) {
            Ok(bytes) => decode(&bytes).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Stores `body` at `address`, superseding any previous container.
    /// Returns the physical bytes written.
    pub(crate) fn put(&self, address: &str, body: &str) -> io::Result<u64> {
        let frame = minilz::compress(body.as_bytes());
        write_atomically(&self.entry_path(address), &frame)?;
        Ok(frame.len() as u64)
    }

    /// Every entry container, sorted oldest-first (mtime, ties by path).
    pub(crate) fn list(&self) -> io::Result<Vec<StoreEntry>> {
        let scan_time = SystemTime::now();
        let mut entries = Vec::new();
        let directory = self.root.join(format!("v{STORE_SCHEMA_VERSION}"));
        // A missing version directory is an empty tree (e.g. cleared by a
        // concurrent process); reads stay pure and never create it.
        let shards = match fs::read_dir(&directory) {
            Ok(shards) => shards,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(entries),
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
        entries.sort_by(|a, b| {
            a.modified
                .cmp(&b.modified)
                .then_with(|| a.path.cmp(&b.path))
        });
        Ok(entries)
    }

    /// Reads the body of one listed entry back out of its container.
    pub(crate) fn read_body(&self, entry: &StoreEntry) -> io::Result<String> {
        decode(&fs::read(&entry.path)?)
    }

    /// Removes one listed entry. `Ok(false)` means it was already gone (a
    /// concurrent pass won the race) — not an error.
    pub(crate) fn remove(&self, entry: &StoreEntry) -> io::Result<bool> {
        match fs::remove_file(&entry.path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Removes every entry (every version directory, so trees of older
    /// builds go too). Returns the number of entry containers removed.
    pub(crate) fn clear(&self) -> io::Result<u64> {
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

/// Writes `bytes` to a temporary file next to `path` and renames it into
/// place, so readers never observe a partial entry.
///
/// The temp file is stamped with a fine-grained [`SystemTime::now`] before
/// the rename: filesystems stamp writes from a coarse clock (ext4 in
/// jiffies), so entries written back to back would otherwise share one
/// mtime and retention, which evicts oldest-first, would fall back to path
/// order instead of write order.
fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let directory = path.parent().expect("entry paths have a shard directory");
    fs::create_dir_all(directory)?;
    let unique = WRITE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let temp = directory.join(format!(".tmp-{}-{unique}", std::process::id()));
    let mut file = fs::File::create(&temp)?;
    file.write_all(bytes)?;
    // Best-effort: where the filesystem refuses, its own stamp stands.
    let _ = file.set_modified(SystemTime::now());
    drop(file);
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

/// Decodes one compressed container into its body text.
fn decode(bytes: &[u8]) -> io::Result<String> {
    let raw = minilz::decompress(bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    String::from_utf8(raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
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
