//! [`RemoteBackend`]: a store tier that speaks the serve protocol to a
//! peer `bbs serve` daemon. It sends two request kinds, `store_get` and
//! `store_put`; the peer's own store counters are in its `stats` reply.
//!
//! The tier sits *under* the local directory as a read-through /
//! write-behind cache of last resort:
//!
//! * **read-through** — a local miss asks the peer with a `store_get`
//!   request; on a hit the body is validated exactly like a local entry
//!   (full-key comparison included) and written back into the local
//!   directory, so the next run hits locally.
//! * **write-behind** — fresh solves return as soon as the local write
//!   lands; a background writer thread ships `store_put` requests to the
//!   peer afterwards, each acknowledged, over its own connection. Dropping
//!   the backend (end of run) joins the writer, so a finished process has
//!   durably handed everything to the peer.
//!
//! Failure policy: the remote tier is strictly best-effort, and failures
//! heal. Both the synchronous requests and the writer thread go through
//! one breaker-guarded round trip, which feeds a shared [`CircuitBreaker`]:
//! enough consecutive transport failures open it, after which every
//! operation — reads and write-behind puts alike — fails fast without
//! touching the network. Every reply is awaited for at most
//! [`REPLY_DEADLINE`], so a peer that accepts requests but never answers
//! is a transport failure too, not a wedged caller, writer thread or
//! process exit. A missed deadline is not retried: each operation against
//! a silent peer, health probes included, costs one deadline, and since
//! the synchronous connection is held for the whole round trip, lookups
//! queued behind it wait that deadline out too. Once the current backoff
//! elapses, the next operation doubles as a health probe — a `store_get`,
//! which the peer answers with one file lookup however large its store
//! is; a successful probe closes the breaker and traffic (including the
//! write-behind queue) resumes, all without restarting the process. A
//! broken or absent peer can cost fresh solves, never wrong answers — and
//! because remote lookups happen only on the in-memory tier's claimer
//! path, the report byte-identity invariants hold with or without the
//! tier.
//!
//! One failure is still permanent: a peer that *answers* but refuses store
//! requests (e.g. it serves without a store attached) will refuse every
//! key, so the first semantic refusal latches the backend off — probing a
//! healthy-but-unwilling peer cannot help.
//!
//! Retention and `clear` run where the data lives, on the peer.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use super::breaker::{BreakerConfig, CircuitBreaker, Gate};
use crate::serve::protocol::{read_reply_within, send_request, Reply, Request};

/// How long a store request waits on the peer: its reply must start
/// within this deadline and then arrive whole within it, and each request
/// write must finish within it. A peer that misses it has failed the
/// round trip, like one that closed the connection, but a missed reply is
/// not asked for again.
pub const REPLY_DEADLINE: Duration = Duration::from_secs(2);

/// The read-timeout tick on which a pending reply checks the deadline.
const READ_TICK: Duration = Duration::from_millis(50);

/// The well-formed address the breaker's health probe asks for. Any
/// address will do: the answer, hit or miss, proves the peer is back.
const PROBE_ADDRESS: &str = "0000000000000000";

/// Queued-but-unsent `store_put` bodies the writer thread will buffer
/// before [`RemoteBackend::put`] starts dropping (best-effort, counted).
const WRITE_BEHIND_CAPACITY: usize = 1024;

/// A solve-store tier backed by a peer `bbs serve` daemon.
///
/// See the [module docs](self) for the tiering and failure story. Attach
/// one with [`SolveStore::with_remote`](crate::SolveStore::with_remote);
/// build one with [`RemoteBackend::connect`].
#[derive(Debug)]
pub struct RemoteBackend {
    addr: String,
    /// The synchronous request connection (`store_get`).
    /// `None` between a transport error and the reconnect attempt.
    conn: Mutex<Option<TcpStream>>,
    /// Raised on the first *semantic* refusal (the peer answered but
    /// rejected the store request); permanent — see the [module
    /// docs](self).
    refused: AtomicBool,
    /// Transport health: open = fail fast, probe on backoff, self-heal.
    breaker: Arc<CircuitBreaker>,
    /// `store_put` bodies dropped: write-behind queue full, or breaker
    /// open / transport failure when their turn came.
    dropped_puts: Arc<AtomicU64>,
    writer: Mutex<Option<WriteBehind>>,
}

#[derive(Debug)]
struct WriteBehind {
    sender: mpsc::SyncSender<String>,
    handle: JoinHandle<()>,
}

impl RemoteBackend {
    /// Connects to a peer daemon at `addr` (e.g. `127.0.0.1:4780`) with the
    /// default [`BreakerConfig`].
    ///
    /// The synchronous connection is established eagerly so a mistyped
    /// address fails the command instead of silently degrading every
    /// lookup; the write-behind thread opens its own connection lazily on
    /// the first queued put.
    ///
    /// # Errors
    ///
    /// Returns the underlying connection error.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Self::connect_with(addr, BreakerConfig::default())
    }

    /// [`connect`](Self::connect) with explicit circuit-breaker tuning.
    ///
    /// # Errors
    ///
    /// Returns the underlying connection error.
    pub fn connect_with(addr: &str, breaker: BreakerConfig) -> io::Result<Self> {
        let stream = open(addr)?;
        Ok(Self {
            addr: addr.to_string(),
            conn: Mutex::new(Some(stream)),
            refused: AtomicBool::new(false),
            breaker: Arc::new(CircuitBreaker::new(breaker)),
            dropped_puts: Arc::new(AtomicU64::new(0)),
            writer: Mutex::new(None),
        })
    }

    /// The transport circuit breaker, for inspection.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// How many write-behind puts were dropped because the queue was full,
    /// the breaker was open or the transport failed. Diagnostic only —
    /// drops cost the *peer* warmth, never local correctness.
    pub fn dropped_puts(&self) -> u64 {
        self.dropped_puts.load(Ordering::Relaxed)
    }

    /// Fetches the body the peer stores at `address` (16 lowercase hex
    /// digits) with a `store_get` request; `Ok(None)` is a plain miss.
    ///
    /// # Errors
    ///
    /// Transport failures, an open breaker, or a refusal — after which the
    /// backend stops asking for good (see the [module docs](self)).
    pub fn get(&self, address: &str) -> io::Result<Option<String>> {
        let reply = self.request(&Request::store_get(address))?;
        match reply.kind.as_str() {
            "store_entry" => Ok(reply.entry),
            _ => {
                // A peer that answers but refuses (no store attached, bad
                // address) will refuse every key; stop asking — permanently,
                // the breaker cannot heal unwillingness.
                self.refused.store(true, Ordering::Release);
                Err(reply_error(&reply))
            }
        }
    }

    /// Queues `body` for the write-behind thread, best-effort: a full
    /// queue drops it (counted in [`dropped_puts`](Self::dropped_puts)),
    /// and after a refusal nothing is queued at all. The peer derives the
    /// address from the body itself.
    pub fn put(&self, body: &str) {
        if self.refused.load(Ordering::Acquire) {
            return;
        }
        let Ok(sender) = self.writer_sender() else {
            return;
        };
        if sender.try_send(body.to_string()).is_err() {
            self.dropped_puts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Flushes the write-behind queue: blocks until every queued put has
    /// been acknowledged by the peer (or dropped). Dropping the backend
    /// flushes implicitly.
    pub fn flush(&self) {
        let taken = self
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(writer) = taken {
            drop(writer.sender);
            let _ = writer.handle.join();
        }
    }

    /// One breaker-guarded round trip on the synchronous connection,
    /// unless the peer has refused store requests before.
    fn request(&self, request: &Request) -> io::Result<Reply> {
        if self.refused.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("remote store {} refused store requests", self.addr),
            ));
        }
        let mut conn = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        guarded_round_trip(&self.addr, &mut conn, &self.breaker, request)
    }

    /// The writer-thread sender, spawning the thread on first use.
    fn writer_sender(&self) -> io::Result<mpsc::SyncSender<String>> {
        let mut guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if guard.is_none() {
            let (sender, receiver) = mpsc::sync_channel(WRITE_BEHIND_CAPACITY);
            let addr = self.addr.clone();
            let breaker = Arc::clone(&self.breaker);
            let dropped = Arc::clone(&self.dropped_puts);
            let handle = std::thread::Builder::new()
                .name("bbs-store-write-behind".to_string())
                .spawn(move || write_behind_loop(&addr, receiver, &breaker, &dropped))?;
            *guard = Some(WriteBehind { sender, handle });
        }
        Ok(guard.as_ref().expect("writer just ensured").sender.clone())
    }
}

impl Drop for RemoteBackend {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The write-behind thread: its own connection, one acknowledged
/// `store_put` per queued body, behind the shared breaker. A put the
/// breaker fails fast, or whose round trip fails, is dropped (counted);
/// once a probe closes the breaker the remaining queue ships normally —
/// the re-attach half of self-healing.
fn write_behind_loop(
    addr: &str,
    receiver: mpsc::Receiver<String>,
    breaker: &CircuitBreaker,
    dropped: &AtomicU64,
) {
    let mut conn: Option<TcpStream> = None;
    for body in receiver {
        // Any decoded reply is an acknowledgement; an `"error"` reply means
        // the peer refused this body (e.g. it failed validation) —
        // retrying cannot help, move on.
        if guarded_round_trip(addr, &mut conn, breaker, &Request::store_put(body)).is_err() {
            dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One request/reply round trip behind the breaker: fail fast while open,
/// probe with a `store_get` once the backoff has elapsed, and record the
/// transport outcome either way.
fn guarded_round_trip(
    addr: &str,
    conn: &mut Option<TcpStream>,
    breaker: &CircuitBreaker,
    request: &Request,
) -> io::Result<Reply> {
    match breaker.gate() {
        Gate::Open => {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("remote store {addr}: circuit breaker open"),
            ));
        }
        Gate::Probe => {
            breaker.record_probe();
            attempt_round_trip(addr, conn, &Request::store_get(PROBE_ADDRESS))
                .inspect_err(|_| breaker.record_failure())?;
            breaker.record_success();
        }
        Gate::Closed => {}
    }
    let reply = attempt_round_trip(addr, conn, request);
    if reply.is_ok() {
        breaker.record_success();
    } else {
        breaker.record_failure();
    }
    reply
}

/// One round trip over a reusable connection slot. A connection the peer
/// closed or reset gets a single reconnect attempt; a reply that missed
/// [`REPLY_DEADLINE`] does not, since a second wait on a silent peer would
/// only double the cost. Leaves the slot empty on failure.
fn attempt_round_trip(
    addr: &str,
    conn: &mut Option<TcpStream>,
    request: &Request,
) -> io::Result<Reply> {
    for attempt in 0..2 {
        if conn.is_none() {
            *conn = Some(open(addr)?);
        }
        let stream = conn.as_mut().expect("connection just ensured");
        match round_trip(stream, request) {
            Ok(reply) => return Ok(reply),
            Err(e) => {
                *conn = None;
                if attempt == 1 || e.kind() == io::ErrorKind::TimedOut {
                    return Err(e);
                }
            }
        }
    }
    unreachable!("the second attempt returned")
}

/// Opens a connection whose reads tick every [`READ_TICK`] and whose
/// writes give up after [`REPLY_DEADLINE`].
fn open(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_write_timeout(Some(REPLY_DEADLINE))?;
    Ok(stream)
}

/// Sends one request and reads its reply within [`REPLY_DEADLINE`] (a
/// `TimedOut` error when it misses); a clean EOF is an error here — the
/// peer must answer every store request.
fn round_trip(stream: &mut TcpStream, request: &Request) -> io::Result<Reply> {
    send_request(stream, request)?;
    read_reply_within(stream, REPLY_DEADLINE)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed the connection before replying",
        )
    })
}

fn reply_error(reply: &Reply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        match &reply.message {
            Some(message) => format!("peer refused store request: {message}"),
            None => format!("unexpected {:?} reply to a store request", reply.kind),
        },
    )
}
