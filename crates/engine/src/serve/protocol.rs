//! The wire protocol: length-prefixed JSON frames and the tagged
//! request/reply vocabulary.
//!
//! Every message is one *frame*: a 4-byte big-endian `u32` payload length
//! followed by that many bytes of UTF-8 JSON. Framing is hand-rolled over
//! `std::io` so the daemon needs no async runtime; a blocked `read` on one
//! connection never stalls another because each connection owns a thread.
//!
//! Requests and replies are *tagged structs* rather than enums: a `kind`
//! discriminant string plus optional per-kind fields. This keeps the wire
//! shape within what the vendored `serde_derive` shim supports (plain
//! non-generic structs) while staying forward-compatible — unknown fields
//! are ignored, missing optional fields decode as `None`.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::scenario::Suite;

/// Upper bound on a single frame's payload, in bytes (32 MiB).
///
/// Large enough for any realistic suite or report, small enough that a
/// corrupt or hostile length header cannot make the peer allocate
/// gigabytes.
pub const MAX_FRAME_BYTES: u32 = 32 * 1024 * 1024;

/// Schema version stamped into every [`StatsSnapshot`].
///
/// Version history: `1` — the PR 7 original; `2` — adds the per-session
/// counters section and the store tier/compression fields (`remote_hits`,
/// `logical_bytes`, per-version entry counts); `3` — adds the failure-model
/// counters: `queue.cancelled`, `sessions.reaped`, and the remote-tier
/// circuit-breaker fields on the store section (`breaker_opens`,
/// `breaker_closes`, `breaker_probes`, `breaker_open`, `dropped_puts`);
/// `4` — the store section drops the per-version entry counts with the
/// `v1` container and counts `stale` entries of other solver revisions.
pub const STATS_SCHEMA_VERSION: u64 = 4;

/// Writes one length-prefixed frame and flushes the stream.
pub fn write_frame<W: Write>(stream: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds u32 length",
        )
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    // One write for header + payload: a split write would let Nagle hold
    // the 4-byte header back for the peer's delayed ACK (~40ms per frame).
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// the connection between messages). EOF in the middle of a frame is an
/// `UnexpectedEof` error — the peer died mid-message. A read timeout set
/// on the stream is waited through, not reported; use
/// [`read_frame_budgeted`] to bound the wait.
pub fn read_frame<R: Read>(stream: &mut R) -> io::Result<Option<Vec<u8>>> {
    // Without budgets or a shutdown flag the budgeted reader ends only in a
    // frame, a clean EOF or an error.
    match read_frame_budgeted(stream, &AtomicBool::new(false), None, None)? {
        FrameRead::Frame(payload) => Ok(Some(payload)),
        _ => Ok(None),
    }
}

/// The outcome of one [`read_frame_budgeted`] call: either a frame, or one
/// of the structured reasons no frame arrived.
#[derive(Debug)]
pub enum FrameRead {
    /// One complete frame payload.
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary — the peer closed between messages.
    Eof,
    /// The shutdown flag was observed while no frame was in progress.
    Shutdown,
    /// No frame *started* within the idle budget: the session is a
    /// candidate for reaping.
    IdleTimeout,
    /// A frame started but did not *complete* within the frame budget — a
    /// slow-loris peer trickling (or abandoning) a header or payload.
    Stalled,
}

/// Like [`read_frame`], but interruptible and budgeted: tolerates read
/// timeouts, re-checking `shutdown` and the deadlines on every tick.
///
/// The stream must have a read timeout configured — that timeout is the
/// poll tick, the budgets here are the policy:
///
/// * `idle_timeout` bounds how long the call waits for a frame to *start*
///   (measured from the call, i.e. from the end of the previous request).
///   `None` waits forever.
/// * `frame_timeout` bounds how long a frame may take from its first byte
///   to its last, closing the classic slow-loris hole where one header
///   byte pinned a session thread indefinitely. Checked on every tick
///   *and* after every partial read, so a byte-per-tick trickle cannot
///   dodge it. `None` waits forever.
///
/// Deadline expiry is a structured [`FrameRead`], never an `Err`: the
/// caller decides whether to reap politely or drop the connection.
pub fn read_frame_budgeted<R: Read>(
    stream: &mut R,
    shutdown: &AtomicBool,
    idle_timeout: Option<Duration>,
    frame_timeout: Option<Duration>,
) -> io::Result<FrameRead> {
    let idle_start = Instant::now();
    let mut frame_start: Option<Instant> = None;
    let over_frame_budget = |frame_start: &Option<Instant>| matches!((frame_start, frame_timeout), (Some(start), Some(budget)) if start.elapsed() >= budget);
    let mut header = [0u8; 4];
    let mut have = 0usize;
    while have < header.len() {
        if over_frame_budget(&frame_start) {
            return Ok(FrameRead::Stalled);
        }
        match stream.read(&mut header[have..]) {
            Ok(0) => {
                if have == 0 {
                    return Ok(FrameRead::Eof);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => {
                frame_start.get_or_insert_with(Instant::now);
                have += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if frame_start.is_none() {
                    if shutdown.load(Ordering::Acquire) {
                        return Ok(FrameRead::Shutdown);
                    }
                    if idle_timeout.is_some_and(|budget| idle_start.elapsed() >= budget) {
                        return Ok(FrameRead::IdleTimeout);
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame header claims {len} bytes, above the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    let mut read = 0usize;
    while read < payload.len() {
        if over_frame_budget(&frame_start) {
            return Ok(FrameRead::Stalled);
        }
        match stream.read(&mut payload[read..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame(payload))
}

/// Serializes a request and writes it as one frame.
pub fn send_request<W: Write>(stream: &mut W, request: &Request) -> io::Result<()> {
    let payload = serde_json::to_vec(request)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(stream, &payload)
}

/// Serializes a reply and writes it as one frame.
pub fn send_reply<W: Write>(stream: &mut W, reply: &Reply) -> io::Result<()> {
    let payload = serde_json::to_vec(reply)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(stream, &payload)
}

/// Reads one frame and decodes it as a [`Reply`].
///
/// Returns `Ok(None)` on clean EOF; a frame that is not valid reply JSON
/// is an `InvalidData` error.
pub fn read_reply<R: Read>(stream: &mut R) -> io::Result<Option<Reply>> {
    read_frame(stream)?
        .map(|payload| decode_reply(&payload))
        .transpose()
}

/// Like [`read_reply`], but the reply must start within `deadline` and
/// then arrive whole within it; a reply that misses the deadline is a
/// `TimedOut` error.
///
/// The stream must have a read timeout configured: it is the tick on
/// which the deadline is checked (see [`read_frame_budgeted`]).
pub fn read_reply_within<R: Read>(stream: &mut R, deadline: Duration) -> io::Result<Option<Reply>> {
    let never = AtomicBool::new(false);
    match read_frame_budgeted(stream, &never, Some(deadline), Some(deadline))? {
        FrameRead::Frame(payload) => decode_reply(&payload).map(Some),
        FrameRead::Eof | FrameRead::Shutdown => Ok(None),
        FrameRead::IdleTimeout | FrameRead::Stalled => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("the reply missed its {deadline:?} deadline"),
        )),
    }
}

fn decode_reply(payload: &[u8]) -> io::Result<Reply> {
    serde_json::from_slice(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A client-to-server message.
///
/// `kind` selects the operation; the optional fields are per-kind
/// parameters:
///
/// * `"run"` — submit a suite for solving. Exactly one of `suite` (an
///   inline suite definition) or `suite_name` (a built-in) may be set;
///   neither defaults to the built-in `paper` suite. `jobs` caps worker
///   parallelism for this submission; `deadline_ms` asks the server to
///   cancel the submission if it has not completed that many milliseconds
///   after the run request was read.
/// * `"cancel"` — cancel the submission identified by `ticket` (from its
///   `"accepted"` reply), whether it is still queued or already running.
///   The cancelled submission's own session receives the structured
///   `"cancelled"` reply; the canceller gets `"cancelled"` as an
///   acknowledgement, or `"error"` if the ticket names no live submission.
/// * `"stats"` — request a [`StatsSnapshot`].
/// * `"store_get"` — fetch one store entry body by content address
///   (`key_hash`); answered with a `"store_entry"` reply. Used by the
///   remote store tier, not by interactive clients.
/// * `"store_put"` — offer one store entry body (`entry`) for the peer's
///   store; the peer validates it and derives the address itself. Answered
///   with `"store_ok"` or `"error"`.
/// * `"shutdown"` — ask the server to drain and exit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Operation discriminant (see the type-level list).
    pub kind: String,
    /// Inline suite definition for a `"run"` request.
    pub suite: Option<Suite>,
    /// Built-in suite name for a `"run"` request.
    pub suite_name: Option<String>,
    /// Worker-parallelism cap for this submission.
    pub jobs: Option<u64>,
    /// Server-side completion deadline for a `"run"`, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Submission ticket to abort, for a `"cancel"`.
    pub ticket: Option<u64>,
    /// Content address (16 lowercase hex digits) for a `"store_get"`.
    pub key_hash: Option<String>,
    /// Entry body text for a `"store_put"`.
    pub entry: Option<String>,
}

impl Request {
    fn blank(kind: &str) -> Self {
        Self {
            kind: kind.to_string(),
            suite: None,
            suite_name: None,
            jobs: None,
            deadline_ms: None,
            ticket: None,
            key_hash: None,
            entry: None,
        }
    }

    /// A `"run"` request for a built-in suite by name.
    pub fn run_builtin(name: &str, jobs: u64) -> Self {
        Self {
            suite_name: Some(name.to_string()),
            jobs: Some(jobs),
            ..Self::blank("run")
        }
    }

    /// A `"run"` request carrying an inline suite definition.
    pub fn run_suite(suite: Suite, jobs: u64) -> Self {
        Self {
            suite: Some(suite),
            jobs: Some(jobs),
            ..Self::blank("run")
        }
    }

    /// This request with a server-side completion deadline attached
    /// (meaningful on `"run"` requests).
    pub fn with_deadline_ms(self, deadline_ms: u64) -> Self {
        Self {
            deadline_ms: Some(deadline_ms),
            ..self
        }
    }

    /// A `"cancel"` request for the submission holding `ticket`.
    pub fn cancel(ticket: u64) -> Self {
        Self {
            ticket: Some(ticket),
            ..Self::blank("cancel")
        }
    }

    /// A `"stats"` request.
    pub fn stats() -> Self {
        Self::blank("stats")
    }

    /// A `"store_get"` request for the entry at `address`.
    pub fn store_get(address: &str) -> Self {
        Self {
            key_hash: Some(address.to_string()),
            ..Self::blank("store_get")
        }
    }

    /// A `"store_put"` request offering one entry body.
    pub fn store_put(body: String) -> Self {
        Self {
            entry: Some(body),
            ..Self::blank("store_put")
        }
    }

    /// A `"shutdown"` request.
    pub fn shutdown() -> Self {
        Self::blank("shutdown")
    }
}

/// A server-to-client message.
///
/// `kind` is the discriminant:
///
/// * `"accepted"` — the submission was admitted; `ticket` identifies it,
///   `queue_depth` is the depth observed at admission. The submission's
///   only other reply follows once it ends: `"report"`, `"cancelled"` or
///   `"error"`.
/// * `"rejected"` — admission control refused the submission; `message`
///   says why and `retry_after_ms` is the suggested back-off. Never sent
///   silently — every refused submission gets one.
/// * `"report"` — the submission is complete; `report` holds the exact
///   `SuiteReport::to_json()` text, every point's outcome included, and
///   `message` carries a failure summary when any point failed
///   unexpectedly.
/// * `"cancelled"` — the submission identified by `ticket` was aborted
///   (client disconnect, `"cancel"` request, or deadline); `message` names
///   the reason. Sent in place of the `"report"` the submission will never
///   produce, and to acknowledge a `"cancel"` request.
/// * `"stats"` — answer to a `"stats"` request, in `stats`.
/// * `"store_entry"` — answer to a `"store_get"`: `entry` holds the body
///   (absent on a miss — a miss is a normal reply, not an error).
/// * `"store_ok"` — acknowledgement of an accepted `"store_put"`.
/// * `"bye"` — acknowledgement of a `"shutdown"` request.
/// * `"error"` — the request could not be handled; `message` explains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reply {
    /// Message discriminant (see the type-level list).
    pub kind: String,
    /// Submission ticket, on `"accepted"`.
    pub ticket: Option<u64>,
    /// Queue depth observed at admission, on `"accepted"`.
    pub queue_depth: Option<u64>,
    /// Suggested back-off before retrying, on `"rejected"`.
    pub retry_after_ms: Option<u64>,
    /// Human-readable detail, on `"rejected"`, `"report"` and `"error"`.
    pub message: Option<String>,
    /// The full report JSON text, on `"report"`.
    pub report: Option<String>,
    /// The stats payload, on `"stats"`.
    pub stats: Option<StatsSnapshot>,
    /// The entry body, on a `"store_entry"` hit.
    pub entry: Option<String>,
}

impl Reply {
    fn blank(kind: &str) -> Self {
        Self {
            kind: kind.to_string(),
            ticket: None,
            queue_depth: None,
            retry_after_ms: None,
            message: None,
            report: None,
            stats: None,
            entry: None,
        }
    }

    /// An `"accepted"` reply.
    pub fn accepted(ticket: u64, queue_depth: u64) -> Self {
        Self {
            ticket: Some(ticket),
            queue_depth: Some(queue_depth),
            ..Self::blank("accepted")
        }
    }

    /// A `"rejected"` reply with a retry hint.
    pub fn rejected(message: &str, retry_after_ms: u64) -> Self {
        Self {
            message: Some(message.to_string()),
            retry_after_ms: Some(retry_after_ms),
            ..Self::blank("rejected")
        }
    }

    /// A `"report"` reply carrying the exact report JSON text and an
    /// optional failure summary.
    pub fn report(report: String, failures: Option<String>) -> Self {
        Self {
            report: Some(report),
            message: failures,
            ..Self::blank("report")
        }
    }

    /// A `"cancelled"` reply: the aborted submission's ticket plus the
    /// reason the abort happened.
    pub fn cancelled(ticket: u64, reason: &str) -> Self {
        Self {
            ticket: Some(ticket),
            message: Some(reason.to_string()),
            ..Self::blank("cancelled")
        }
    }

    /// A `"stats"` reply.
    pub fn stats(snapshot: StatsSnapshot) -> Self {
        Self {
            stats: Some(snapshot),
            ..Self::blank("stats")
        }
    }

    /// A `"store_entry"` reply: the body on a hit, absent on a miss.
    pub fn store_entry(body: Option<String>) -> Self {
        Self {
            entry: body,
            ..Self::blank("store_entry")
        }
    }

    /// A `"store_ok"` reply acknowledging an accepted `"store_put"`.
    pub fn store_ok() -> Self {
        Self::blank("store_ok")
    }

    /// A `"bye"` reply acknowledging shutdown.
    pub fn bye() -> Self {
        Self::blank("bye")
    }

    /// An `"error"` reply with an explanation.
    pub fn error(message: &str) -> Self {
        Self {
            message: Some(message.to_string()),
            ..Self::blank("error")
        }
    }
}

/// Counters of the bounded submission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Submissions currently waiting in the queue.
    pub depth: u64,
    /// Submissions handed to the engine but not yet completed.
    pub in_flight: u64,
    /// Admission-control capacity (queued + in-flight bound).
    pub capacity: u64,
    /// Total submissions ever admitted.
    pub submitted: u64,
    /// Total submissions completed.
    pub completed: u64,
    /// Total submissions refused by admission control.
    pub rejected: u64,
    /// Total submissions aborted by cancellation (client disconnect,
    /// `cancel` request, or deadline). Cancelled submissions also count as
    /// `completed` — their queue slot is released normally.
    pub cancelled: u64,
}

/// Counters of the shared engine pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Threads that drain each submission's jobs ([`Engine::workers`]):
    /// the dispatcher plus the pooled threads.
    ///
    /// [`Engine::workers`]: crate::Engine::workers
    pub workers: u64,
}

/// Combined view of the persistent store: contents plus lifetime traffic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreReport {
    /// Root directory of the on-disk store.
    pub directory: String,
    /// Entries currently on disk.
    pub entries: u64,
    /// Entries holding feasible results.
    pub feasible: u64,
    /// Entries holding infeasible results.
    pub infeasible: u64,
    /// Entries of another solver revision, which no lookup serves.
    pub stale: u64,
    /// Unreadable or schema-mismatched entries.
    pub corrupt: u64,
    /// Physical (compressed) bytes across all entries.
    pub total_bytes: u64,
    /// Uncompressed bytes across all readable entry bodies.
    pub logical_bytes: u64,
    /// Solves answered from the local disk tier this process.
    pub disk_hits: u64,
    /// Solves answered by a remote store peer this process.
    pub remote_hits: u64,
    /// Solves that missed every persistent tier this process.
    pub fresh_solves: u64,
    /// Results newly written to disk this process.
    pub stored: u64,
    /// Entries ignored as corrupt, foreign-schema or colliding this
    /// process.
    pub rejected: u64,
    /// Times the remote tier's circuit breaker opened (consecutive-failure
    /// threshold reached) this process. Zero without a remote tier.
    pub breaker_opens: u64,
    /// Times a health probe closed the breaker again this process.
    pub breaker_closes: u64,
    /// Health probes (`store_get` round trips) attempted while the
    /// breaker was open this process.
    pub breaker_probes: u64,
    /// Whether the breaker is open right now (the remote tier is being
    /// bypassed between probes).
    pub breaker_open: bool,
    /// Write-behind puts dropped because the remote tier was unavailable.
    pub dropped_puts: u64,
}

impl StoreReport {
    /// Combines one store's on-disk scan with its per-process traffic
    /// counters.
    pub fn from_parts(
        directory: &std::path::Path,
        summary: crate::store::StoreSummary,
        stats: crate::store::StoreStats,
    ) -> Self {
        Self {
            directory: directory.display().to_string(),
            entries: summary.entries,
            feasible: summary.feasible,
            infeasible: summary.infeasible,
            stale: summary.stale,
            corrupt: summary.corrupt,
            total_bytes: summary.total_bytes,
            logical_bytes: summary.logical_bytes,
            disk_hits: stats.disk_hits,
            remote_hits: stats.remote_hits,
            fresh_solves: stats.fresh_solves,
            stored: stats.stored,
            rejected: stats.rejected,
            breaker_opens: stats.breaker_opens,
            breaker_closes: stats.breaker_closes,
            breaker_probes: stats.breaker_probes,
            breaker_open: stats.breaker_open,
            dropped_puts: stats.dropped_puts,
        }
    }

    /// Builds the combined view of one store: the on-disk scan
    /// ([`SolveStore::summary`](crate::SolveStore::summary), zeroed if the
    /// scan fails — stats must stay servable on a degraded disk) plus this
    /// process's traffic counters
    /// ([`SolveStore::stats`](crate::SolveStore::stats)).
    pub fn for_store(store: &crate::store::SolveStore) -> Self {
        Self::from_parts(
            store.root(),
            store.summary().unwrap_or_default(),
            store.stats(),
        )
    }
}

/// Counters of the daemon's connection-level admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Client sessions currently connected.
    pub active: u64,
    /// Maximum concurrent sessions accepted before reject-at-accept.
    pub limit: u64,
    /// Connections refused because the session limit was reached.
    pub rejected: u64,
    /// Sessions closed by the server's deadlines: idle connections past the
    /// idle timeout, and slow-loris peers that stalled mid-frame.
    pub reaped: u64,
}

/// The machine-readable stats object.
///
/// This is the **one** serialized shape shared by the `stats` protocol
/// request and `bbs cache stats --json`: both emit exactly
/// [`StatsSnapshot::to_json`]. Sections are optional so each producer
/// includes only what it has — the CLI offline path has a store but no
/// queue or engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Stats schema version ([`STATS_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Submission-queue counters, when a queue exists.
    pub queue: Option<QueueStats>,
    /// Engine-pool counters, when an engine exists.
    pub engine: Option<EngineStats>,
    /// In-memory solve-cache counters, when a cache exists.
    pub cache: Option<CacheStats>,
    /// Persistent-store view, when a store is attached.
    pub store: Option<StoreReport>,
    /// Connection-admission counters, when a daemon produced the snapshot.
    pub sessions: Option<SessionStats>,
}

impl StatsSnapshot {
    /// An empty snapshot at the current schema version.
    pub fn new() -> Self {
        Self {
            schema: STATS_SCHEMA_VERSION,
            queue: None,
            engine: None,
            cache: None,
            store: None,
            sessions: None,
        }
    }

    /// Serializes the snapshot as pretty JSON with a trailing newline —
    /// the canonical machine-readable form for both the protocol and the
    /// CLI.
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("stats snapshot serializes");
        text.push('\n');
        text
    }

    /// Parses a snapshot back from [`StatsSnapshot::to_json`] output.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

impl Default for StatsSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, SweepSpec, WorkloadSpec};
    use bbs_taskgraph::presets::PresetSpec;
    use std::io::Cursor;

    fn sample_suite() -> Suite {
        Suite::new(
            "wire",
            vec![Scenario::new(
                "pc",
                WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
            )
            .with_sweep(SweepSpec::range(1, 3))],
        )
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"first").unwrap();
        write_frame(&mut buffer, b"").unwrap();
        write_frame(&mut buffer, "snowman \u{2603}".as_bytes()).unwrap();
        let mut cursor = Cursor::new(buffer);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap(),
            "snowman \u{2603}".as_bytes()
        );
        // Clean EOF at a frame boundary is a graceful end of stream.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_and_oversized_headers_are_errors() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"whole frame").unwrap();
        buffer.truncate(buffer.len() - 3);
        let mut cursor = Cursor::new(buffer);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let huge = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        let mut cursor = Cursor::new(huge);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut sink = Vec::new();
        let payload = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        assert!(write_frame(&mut sink, &payload).is_err());
    }

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let requests = vec![
            Request::run_builtin("smoke", 4),
            Request::run_builtin("smoke", 4).with_deadline_ms(1500),
            Request::run_suite(sample_suite(), 2),
            Request::cancel(7),
            Request::stats(),
            Request::store_get("00ff00ff00ff00ff"),
            Request::store_put("{\"schema\":2}\n".to_string()),
            Request::shutdown(),
        ];
        let mut buffer = Vec::new();
        for request in &requests {
            send_request(&mut buffer, request).unwrap();
        }
        let mut cursor = Cursor::new(buffer);
        for request in &requests {
            let payload = read_frame(&mut cursor).unwrap().unwrap();
            let decoded: Request = serde_json::from_slice(&payload).unwrap();
            assert_eq!(&decoded, request);
        }
    }

    #[test]
    fn replies_round_trip_including_the_verbatim_report_text() {
        let report_text = "{\n  \"schema\": 1,\n  \"name\": \"quoted \\\"x\\\"\"\n}\n";
        let replies = vec![
            Reply::accepted(7, 3),
            Reply::rejected("queue full", 250),
            Reply::report(report_text.to_string(), Some("1 failure".to_string())),
            Reply::cancelled(7, "client disconnected"),
            Reply::stats(StatsSnapshot::new()),
            Reply::store_entry(Some("{\"schema\":2}\n".to_string())),
            Reply::store_entry(None),
            Reply::store_ok(),
            Reply::bye(),
            Reply::error("unknown kind"),
        ];
        let mut buffer = Vec::new();
        for reply in &replies {
            let payload = serde_json::to_vec(reply).unwrap();
            write_frame(&mut buffer, &payload).unwrap();
        }
        let mut cursor = Cursor::new(buffer);
        for reply in &replies {
            let decoded = read_reply(&mut cursor).unwrap().unwrap();
            assert_eq!(&decoded, reply);
        }
        // The report text survives escaping byte-for-byte — the property
        // the CI `cmp` gate rests on.
        let echoed = Reply::report(report_text.to_string(), None);
        let wire = serde_json::to_vec(&echoed).unwrap();
        let back: Reply = serde_json::from_slice(&wire).unwrap();
        assert_eq!(back.report.as_deref(), Some(report_text));
    }

    #[test]
    fn stats_snapshot_round_trips_with_and_without_sections() {
        let empty = StatsSnapshot::new();
        assert_eq!(StatsSnapshot::from_json(&empty.to_json()).unwrap(), empty);

        let full = StatsSnapshot {
            schema: STATS_SCHEMA_VERSION,
            queue: Some(QueueStats {
                depth: 2,
                in_flight: 1,
                capacity: 32,
                submitted: 40,
                completed: 37,
                rejected: 5,
                cancelled: 3,
            }),
            engine: Some(EngineStats { workers: 8 }),
            cache: Some(CacheStats {
                hits: 10,
                misses: 6,
            }),
            store: Some(StoreReport {
                directory: "/tmp/store".to_string(),
                entries: 6,
                feasible: 4,
                infeasible: 2,
                stale: 1,
                corrupt: 0,
                total_bytes: 4096,
                logical_bytes: 9000,
                disk_hits: 3,
                remote_hits: 1,
                fresh_solves: 6,
                stored: 6,
                rejected: 0,
                breaker_opens: 1,
                breaker_closes: 1,
                breaker_probes: 4,
                breaker_open: false,
                dropped_puts: 2,
            }),
            sessions: Some(SessionStats {
                active: 2,
                limit: 64,
                rejected: 1,
                reaped: 1,
            }),
        };
        let text = full.to_json();
        assert!(text.ends_with('\n'));
        assert_eq!(StatsSnapshot::from_json(&text).unwrap(), full);

        // A v1-era snapshot (no sessions section, no tier fields) still
        // decodes: missing optional fields are `None`/zero, not errors.
        let legacy = "{\"schema\":1,\"queue\":null,\"engine\":null,\"cache\":null,\"store\":null}";
        let decoded = StatsSnapshot::from_json(legacy).unwrap();
        assert_eq!(decoded.schema, 1);
        assert!(decoded.sessions.is_none());
    }

    /// A reader following a fixed script of results, simulating a socket
    /// with a read timeout: `None` entries time out (`WouldBlock`), `Some`
    /// entries deliver bytes. After the script, every read times out.
    struct ScriptedReader {
        script: std::collections::VecDeque<Option<Vec<u8>>>,
    }

    impl ScriptedReader {
        fn new(script: Vec<Option<&[u8]>>) -> Self {
            Self {
                script: script.into_iter().map(|s| s.map(<[u8]>::to_vec)).collect(),
            }
        }
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.pop_front() {
                Some(Some(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    Ok(n)
                }
                Some(None) | None => Err(io::Error::new(io::ErrorKind::WouldBlock, "tick")),
            }
        }
    }

    #[test]
    fn budgeted_read_reaps_idle_streams_and_mid_frame_stalls() {
        let live = AtomicBool::new(false);

        // Nothing ever arrives: the idle budget fires (zero budget — the
        // first timeout tick is already over it).
        let mut idle = ScriptedReader::new(vec![None, None]);
        let read = read_frame_budgeted(&mut idle, &live, Some(Duration::ZERO), None).unwrap();
        assert!(matches!(read, FrameRead::IdleTimeout), "got {read:?}");

        // One header byte, then silence: the idle budget no longer applies
        // (a frame is in progress) but the frame budget does — the
        // slow-loris hole this call exists to close.
        let mut loris = ScriptedReader::new(vec![Some(&[0u8][..]), None, None]);
        let read = read_frame_budgeted(
            &mut loris,
            &live,
            Some(Duration::from_secs(3600)),
            Some(Duration::ZERO),
        )
        .unwrap();
        assert!(matches!(read, FrameRead::Stalled), "got {read:?}");

        // A byte-per-tick trickle cannot dodge the frame budget either:
        // the budget is checked between reads, not only on timeouts.
        let mut trickle = ScriptedReader::new(vec![
            Some(&[0u8][..]),
            Some(&[0u8][..]),
            Some(&[0u8][..]),
            Some(&[4u8][..]),
            Some(&[b'a'][..]),
            None,
        ]);
        let read = read_frame_budgeted(&mut trickle, &live, None, Some(Duration::ZERO)).unwrap();
        assert!(matches!(read, FrameRead::Stalled), "got {read:?}");

        // An unbudgeted read still delivers a whole frame across ticks.
        let mut patient = ScriptedReader::new(vec![
            None,
            Some(&[0u8, 0, 0, 2][..]),
            None,
            Some(&[b'h'][..]),
            Some(&[b'i'][..]),
        ]);
        let read = read_frame_budgeted(&mut patient, &live, None, None).unwrap();
        match read {
            FrameRead::Frame(payload) => assert_eq!(payload, b"hi"),
            other => panic!("expected a frame, got {other:?}"),
        }

        // The shutdown flag still interrupts an idle wait.
        let shutting_down = AtomicBool::new(true);
        let mut idle = ScriptedReader::new(vec![None]);
        let read = read_frame_budgeted(&mut idle, &shutting_down, None, None).unwrap();
        assert!(matches!(read, FrameRead::Shutdown), "got {read:?}");
    }

    #[test]
    fn malformed_reply_frames_are_invalid_data() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"{not json").unwrap();
        let mut cursor = Cursor::new(buffer);
        let err = read_reply(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        cursor.set_position(0);
        let err = read_reply_within(&mut cursor, Duration::from_secs(60)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_reply_read_within_a_deadline_times_out_or_decodes() {
        // Silence, or a reply that starts and then stops: both miss the
        // (zero) deadline.
        let mut silent = ScriptedReader::new(vec![None, None]);
        let err = read_reply_within(&mut silent, Duration::ZERO).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let mut stalled = ScriptedReader::new(vec![Some(&[0u8][..]), None, None]);
        let err = read_reply_within(&mut stalled, Duration::ZERO).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);

        // A whole reply within the deadline decodes, and a clean EOF is
        // `None`, as for `read_reply`.
        let mut buffer = Vec::new();
        send_reply(&mut buffer, &Reply::store_ok()).unwrap();
        let mut cursor = Cursor::new(buffer);
        let reply = read_reply_within(&mut cursor, Duration::from_secs(60)).unwrap();
        assert_eq!(reply.map(|r| r.kind), Some("store_ok".to_string()));
        assert!(read_reply_within(&mut cursor, Duration::from_secs(60))
            .unwrap()
            .is_none());
    }
}
