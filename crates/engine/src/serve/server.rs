//! The daemon: accept loop, shared state, the single dispatcher feeding
//! the engine, and graceful shutdown.
//!
//! Threading model: one accept thread, one dispatcher thread, one session
//! thread per connection. All submissions — no matter how many clients —
//! funnel through the bounded [`SubmissionQueue`] into **one**
//! [`Engine`], sharing one [`SolveCache`] (optionally backed by one
//! [`SolveStore`]). The dispatcher is deliberately serial: the engine's
//! worker pool provides the parallelism *within* a submission, and serial
//! dispatch keeps the fairness order the queue computed.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use super::fault::FaultPlan;
use super::protocol::{send_reply, EngineStats, Reply, SessionStats, StatsSnapshot, StoreReport};
use super::queue::SubmissionQueue;
use super::session::handle_connection;
use crate::cache::SolveCache;
use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::executor::{RunSettings, SuiteOutcome};
use crate::pool::Engine;
use crate::scenario::Suite;
use crate::store::SolveStore;

/// Configuration of a [`Server`].
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads of the shared engine pool.
    pub workers: usize,
    /// Admission-control capacity of the submission queue
    /// (queued + in-flight).
    pub queue_capacity: u64,
    /// Back-off hint attached to `"rejected"` replies, in milliseconds.
    pub retry_after_ms: u64,
    /// Maximum concurrent client sessions. Connections beyond the cap are
    /// refused *at accept* with a `"rejected"` reply — flood protection in
    /// front of the submission queue, so a connection storm cannot pile up
    /// session threads.
    pub max_sessions: u64,
    /// Optional persistent store backing the shared cache.
    pub store: Option<SolveStore>,
    /// Reap a session whose client has sent nothing for this long while no
    /// run is in flight (`bbs serve --idle-timeout-ms`). `None` lets idle
    /// sessions linger until they disconnect — the historical behaviour.
    pub idle_timeout: Option<Duration>,
    /// Ceiling on how long one request frame may take from its first byte
    /// to its last. A peer trickling bytes (slow loris) is reaped when the
    /// budget runs out instead of pinning a session thread forever.
    pub frame_timeout: Duration,
    /// Test-only fault injection (see [`FaultPlan`]); the default plan
    /// injects nothing.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 32,
            retry_after_ms: 250,
            max_sessions: 64,
            store: None,
            idle_timeout: None,
            frame_timeout: Duration::from_secs(10),
            faults: FaultPlan::default(),
        }
    }
}

/// One admitted suite submission travelling from a session to the
/// dispatcher; the result comes back over `reply`.
pub(crate) struct Submission {
    pub(crate) suite: Suite,
    pub(crate) jobs: usize,
    pub(crate) reply: mpsc::Sender<Result<SuiteOutcome, EngineError>>,
    /// Fired by the owning session (client disconnect, deadline, `cancel`
    /// request) — aborts the submission whether still queued or already
    /// running.
    pub(crate) cancel: CancelToken,
}

/// Everything the accept, dispatcher and session threads share.
pub(crate) struct ServiceState {
    pub(crate) engine: Engine,
    pub(crate) cache: Arc<SolveCache>,
    pub(crate) queue: SubmissionQueue<Submission>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) retry_after_ms: u64,
    pub(crate) tickets: AtomicU64,
    pub(crate) clients: AtomicU64,
    /// Sessions currently connected (incremented by the accept loop
    /// *before* the session thread spawns, decremented when the session
    /// ends — so the cap check is race-free under serial accepts).
    pub(crate) active_sessions: AtomicU64,
    /// Connections refused by the session cap.
    pub(crate) session_rejects: AtomicU64,
    pub(crate) max_sessions: u64,
    /// Sessions closed by the server: idle timeouts and mid-frame stalls.
    pub(crate) reaped: AtomicU64,
    /// In-flight submissions by ticket, so a `cancel` request from any
    /// session can fire the right token. Entries live from admission until
    /// the owning session has its result.
    pub(crate) running: Mutex<HashMap<u64, CancelToken>>,
    pub(crate) idle_timeout: Option<Duration>,
    pub(crate) frame_timeout: Duration,
    pub(crate) faults: FaultPlan,
    local_addr: SocketAddr,
}

impl ServiceState {
    /// The machine-readable stats object: every section is present on a
    /// server (the store section only when one is attached).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queue: Some(self.queue.stats()),
            engine: Some(EngineStats {
                workers: self.engine.workers() as u64,
            }),
            cache: Some(self.cache.stats()),
            store: self.cache.store().map(StoreReport::for_store),
            sessions: Some(SessionStats {
                active: self.active_sessions.load(Ordering::Relaxed),
                limit: self.max_sessions,
                rejected: self.session_rejects.load(Ordering::Relaxed),
                reaped: self.reaped.load(Ordering::Relaxed),
            }),
            ..StatsSnapshot::new()
        }
    }

    /// Registers an admitted submission's cancel token under its ticket.
    pub(crate) fn register_running(&self, ticket: u64, cancel: CancelToken) {
        self.running
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(ticket, cancel);
    }

    /// Removes a submission from the cancel registry (result delivered,
    /// admission refused, or the session died).
    pub(crate) fn unregister_running(&self, ticket: u64) {
        self.running
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&ticket);
    }

    /// Fires the cancel token registered under `ticket`, from any session.
    /// `false` when no such submission is in flight.
    pub(crate) fn cancel_ticket(&self, ticket: u64) -> bool {
        let registry = self.running.lock().unwrap_or_else(PoisonError::into_inner);
        match registry.get(&ticket) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Starts graceful shutdown: refuse new submissions, let the
    /// dispatcher drain what was admitted, wake the accept loop.
    ///
    /// Idempotent — the shutdown request, `Server::shutdown` and repeated
    /// calls all converge on the same quiescent state.
    pub(crate) fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.queue.close();
        // The accept thread blocks in `incoming()`; a throwaway local
        // connection wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running solve service.
///
/// [`start`](Self::start) binds and spawns the threads;
/// [`shutdown`](Self::shutdown) (or a client's `"shutdown"` request)
/// begins the graceful drain; [`wait`](Self::wait) joins everything.
pub struct Server {
    local_addr: SocketAddr,
    accept: JoinHandle<()>,
    dispatcher: JoinHandle<()>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    state: Arc<ServiceState>,
}

impl Server {
    /// Binds the listener and spawns the accept and dispatcher threads.
    pub fn start(config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = match config.store {
            Some(store) => Arc::new(SolveCache::with_store(store)),
            None => Arc::new(SolveCache::new()),
        };
        let state = Arc::new(ServiceState {
            engine: Engine::new(config.workers),
            cache,
            queue: SubmissionQueue::new(config.queue_capacity),
            shutdown: AtomicBool::new(false),
            retry_after_ms: config.retry_after_ms,
            tickets: AtomicU64::new(0),
            clients: AtomicU64::new(0),
            active_sessions: AtomicU64::new(0),
            session_rejects: AtomicU64::new(0),
            max_sessions: config.max_sessions,
            reaped: AtomicU64::new(0),
            running: Mutex::new(HashMap::new()),
            idle_timeout: config.idle_timeout,
            frame_timeout: config.frame_timeout,
            faults: config.faults,
            local_addr,
        });

        let dispatcher = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("bbs-serve-dispatch".to_string())
                .spawn(move || {
                    while let Some(submission) = state.queue.pop() {
                        // A token that fired while the submission was still
                        // queued aborts without touching the engine at all.
                        let result = if submission.cancel.is_cancelled() {
                            Err(EngineError::Cancelled)
                        } else {
                            let mut settings = RunSettings::with_jobs(submission.jobs);
                            settings.fault = state.faults.solve_fault();
                            state.engine.submit_with_cancel(
                                &submission.suite,
                                &settings,
                                &state.cache,
                                &submission.cancel,
                            )
                        };
                        if matches!(result, Err(EngineError::Cancelled)) {
                            state.queue.record_cancelled();
                        }
                        // Count completion BEFORE handing the result back:
                        // a client that has its report in hand must observe
                        // `completed` already bumped when it asks for stats.
                        state.queue.complete();
                        // A receiver gone missing means the session died;
                        // the work still completed and the counters say so.
                        let _ = submission.reply.send(result);
                    }
                })?
        };

        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let state = Arc::clone(&state);
            let sessions = Arc::clone(&sessions);
            std::thread::Builder::new()
                .name("bbs-serve-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if state.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let mut stream = match stream {
                            Ok(stream) => stream,
                            Err(_) => continue,
                        };
                        // Reject-at-accept: the accept loop is serial, so
                        // checking and incrementing here (before the spawn)
                        // is race-free — a flood can never overshoot the
                        // cap by more than the one connection being judged.
                        if state.active_sessions.load(Ordering::Relaxed) >= state.max_sessions {
                            state.session_rejects.fetch_add(1, Ordering::Relaxed);
                            let reply =
                                Reply::rejected("session limit reached", state.retry_after_ms);
                            // Bounded courtesy write: a reject must never
                            // let a slow-reading client stall the accepts.
                            let _ =
                                stream.set_write_timeout(Some(std::time::Duration::from_secs(1)));
                            let _ = send_reply(&mut stream, &reply);
                            continue;
                        }
                        state.active_sessions.fetch_add(1, Ordering::Relaxed);
                        let session_state = Arc::clone(&state);
                        let handle = std::thread::Builder::new()
                            .name("bbs-serve-session".to_string())
                            .spawn(move || {
                                handle_connection(stream, Arc::clone(&session_state));
                                session_state
                                    .active_sessions
                                    .fetch_sub(1, Ordering::Relaxed);
                            });
                        match handle {
                            Ok(handle) => {
                                sessions
                                    .lock()
                                    .expect("session registry poisoned")
                                    .push(handle);
                            }
                            // The thread never started, so its decrement
                            // never runs; undo the optimistic increment.
                            Err(_) => {
                                state.active_sessions.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                    }
                })?
        };

        Ok(Self {
            local_addr,
            accept,
            dispatcher,
            sessions,
            state,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The current stats snapshot, as the `"stats"` request reports it.
    pub fn stats(&self) -> StatsSnapshot {
        self.state.snapshot()
    }

    /// Begins graceful shutdown from the server side: admitted
    /// submissions still complete, new ones are refused.
    pub fn shutdown(&self) {
        self.state.initiate_shutdown();
    }

    /// Joins the accept loop, the dispatcher and every session thread.
    /// Call after [`shutdown`](Self::shutdown) (or after a client sent a
    /// `"shutdown"` request) — on a live server this blocks until one of
    /// those happens.
    pub fn wait(self) {
        // Accept first: once it exits, no new session threads appear and
        // the registry below is complete.
        let _ = self.accept.join();
        let _ = self.dispatcher.join();
        let handles =
            std::mem::take(&mut *self.sessions.lock().expect("session registry poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::{read_reply, send_request, Request};
    use std::net::TcpStream;

    #[test]
    fn starts_on_an_ephemeral_port_and_shuts_down_cleanly() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.addr();
        assert_ne!(addr.port(), 0);
        let stats = server.stats();
        assert_eq!(stats.queue.map(|q| q.capacity), Some(32));
        assert_eq!(stats.engine.map(|e| e.workers), Some(4));
        assert!(stats.store.is_none());
        server.shutdown();
        server.wait();
    }

    #[test]
    fn session_cap_rejects_at_accept_and_recovers() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_sessions: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr();

        // First client occupies the only session slot (a round trip
        // proves its session thread is up, not just queued at accept).
        let mut first = TcpStream::connect(addr).unwrap();
        send_request(&mut first, &Request::stats()).unwrap();
        let stats = read_reply(&mut first).unwrap().unwrap();
        assert_eq!(stats.kind, "stats");
        let sessions = stats.stats.unwrap().sessions.unwrap();
        assert_eq!(sessions.active, 1);
        assert_eq!(sessions.limit, 1);

        // Second client is refused before any request is read.
        let mut second = TcpStream::connect(addr).unwrap();
        let refusal = read_reply(&mut second).unwrap().unwrap();
        assert_eq!(refusal.kind, "rejected");
        assert_eq!(refusal.message.as_deref(), Some("session limit reached"));
        assert!(refusal.retry_after_ms.is_some());
        assert_eq!(server.stats().sessions.unwrap().rejected, 1);

        // Releasing the slot lets a later client in (poll: the decrement
        // races the close notification).
        drop(first);
        let mut admitted = false;
        for _ in 0..100 {
            let mut third = TcpStream::connect(addr).unwrap();
            send_request(&mut third, &Request::stats()).unwrap();
            match read_reply(&mut third) {
                Ok(Some(reply)) if reply.kind == "stats" => {
                    admitted = true;
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        assert!(admitted, "slot must free up after the first client leaves");

        server.shutdown();
        server.wait();
    }

    #[test]
    fn a_shutdown_request_from_a_client_stops_wait() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        send_request(&mut stream, &Request::shutdown()).unwrap();
        let bye = read_reply(&mut stream).unwrap().unwrap();
        assert_eq!(bye.kind, "bye");
        server.wait();
        // After shutdown the port refuses (or resets) new submissions.
        if let Ok(mut late) = TcpStream::connect(addr) {
            let outcome = send_request(&mut late, &Request::run_builtin("smoke", 1))
                .and_then(|_| read_reply(&mut late));
            assert!(!matches!(outcome, Ok(Some(ref r)) if r.kind == "accepted"));
        }
    }
}
