//! The service layer: a long-lived multi-client solve daemon.
//!
//! `bbs serve` turns the one-shot solve pipeline into a server: a
//! [`Server`] listens on a `std::net::TcpListener`, accepts connections
//! from many concurrent clients, and multiplexes their suite submissions
//! onto **one** shared [`Engine`](crate::Engine) and one shared
//! [`SolveCache`](crate::SolveCache)/[`SolveStore`](crate::SolveStore)
//! pair. The moving parts:
//!
//! * [`protocol`] — the wire format: 4-byte big-endian length-prefixed
//!   UTF-8 JSON frames carrying tagged [`Request`]/[`Reply`] structs, plus
//!   the machine-readable [`StatsSnapshot`] that both the `stats` request
//!   and `bbs cache stats --json` serialize.
//! * [`queue`] — the bounded [`SubmissionQueue`]: admission control
//!   (reject-with-retry-after when full, never a silent drop) and
//!   round-robin per-client fairness when draining.
//! * [`session`] — one reader thread per connection: frames in, requests
//!   dispatched, replies out; an admitted run is answered with
//!   `"accepted"`, then its whole report in one `"report"` reply.
//! * [`server`] — the accept loop, the single dispatcher thread feeding
//!   the shared engine, and graceful shutdown (drain in-flight, refuse
//!   new).
//! * [`fault`] — deterministic test-only fault injection ([`FaultPlan`],
//!   `BBS_TEST_FAULT_PLAN`): dropped/stalled replies, refused store puts,
//!   severed sessions, stalled solves.
//!
//! # Failure model
//!
//! Submissions are cancellable end to end: each carries a
//! [`CancelToken`](crate::CancelToken) that the owning session fires on
//! client disconnect, on an explicit `"cancel"` request (from any
//! session, by ticket), or when the request's `deadline_ms` elapses —
//! queued submissions abort before touching the engine, running ones
//! within one work item. Sessions themselves are bounded: an optional
//! idle timeout reaps silent clients, a per-frame read budget reaps
//! byte-trickling ones, and every reply write carries a timeout. The
//! `bbs client` bounds its own waits in turn: every reply but a run's
//! result must arrive within a fixed 5 s deadline, so a daemon that
//! swallows one fails the command instead of hanging it. A run's result
//! may take as long as the run; with `deadline_ms` the client waits that
//! long plus the fixed deadline.
//!
//! # Determinism carve-out
//!
//! Each submission's report is deterministic and byte-identical to
//! `bbs run` of the same suite, regardless of cache warmth (see
//! [`Engine::submit`](crate::Engine::submit)). The *interleaving* of
//! frames across different connections is scheduling-dependent and is
//! deliberately kept out of every report.

pub mod fault;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod session;

pub use fault::{FaultPlan, ReplyAction, FAULT_PLAN_ENV};
pub use protocol::{
    read_frame, read_frame_budgeted, read_reply, read_reply_within, send_reply, send_request,
    write_frame, EngineStats, FrameRead, QueueStats, Reply, Request, SessionStats, StatsSnapshot,
    StoreReport, MAX_FRAME_BYTES, STATS_SCHEMA_VERSION,
};
pub use queue::{Admission, SubmissionQueue};
pub use server::{ServeConfig, Server};
