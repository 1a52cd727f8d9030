//! One connection, one thread: reads request frames, dispatches them,
//! writes replies.
//!
//! A session owns its socket for its whole lifetime. Requests on one
//! connection are handled strictly in order; a `"run"` request is answered
//! with `"accepted"` at admission, then blocks the session (not the
//! server) until the dispatcher returns its outcome, which goes back as
//! one `"report"` reply carrying every point in deterministic suite order
//! (or as `"cancelled"` or `"error"`). A short read timeout lets an *idle*
//! session notice graceful shutdown without a dedicated control channel.
//!
//! While a run is in flight the session keeps watching its socket: a
//! client that disconnects, exceeds its requested deadline, or sends a
//! `"cancel"` frame fires the submission's [`CancelToken`], aborting the
//! work within one work item — a dead client no longer burns the engine
//! for a report nobody will read. Sessions themselves are reaped when the
//! server's idle timeout or per-frame read budget runs out, so a silent
//! or byte-trickling peer cannot pin a session thread forever.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use super::fault::ReplyAction;
use super::protocol::{read_frame_budgeted, send_reply, FrameRead, Reply, Request};
use super::queue::Admission;
use super::server::{ServiceState, Submission};
use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::report::SuiteReport;
use crate::scenario::Suite;
use crate::store::is_entry_address;
use crate::suites::builtin_suite;

/// How long an idle read waits before re-checking the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// How long the run wait-loop sleeps between checks of the dispatcher
/// channel, the client socket and the deadline.
const RUN_POLL: Duration = Duration::from_millis(50);

/// Ceiling on per-submission worker parallelism a client may request.
const MAX_JOBS: u64 = 64;

/// Per-write timeout on every session reply, so one stalled reader cannot
/// wedge a session thread mid-write.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Runs one connection to completion. Never panics outward; any I/O
/// failure simply ends the session (and fires the cancel token of a run
/// in flight, if any).
pub(crate) fn handle_connection(mut stream: TcpStream, state: Arc<ServiceState>) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let client_id = state.clients.fetch_add(1, Ordering::Relaxed) + 1;
    loop {
        let payload = match read_frame_budgeted(
            &mut stream,
            &state.shutdown,
            state.idle_timeout,
            Some(state.frame_timeout),
        ) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::IdleTimeout) => {
                state.reaped.fetch_add(1, Ordering::Relaxed);
                let _ = send_reply(&mut stream, &Reply::error("session reaped: idle timeout"));
                break;
            }
            Ok(FrameRead::Stalled) => {
                state.reaped.fetch_add(1, Ordering::Relaxed);
                // Courtesy only — a peer that trickles bytes may well not
                // read this either.
                let _ = send_reply(
                    &mut stream,
                    &Reply::error("session reaped: request frame stalled"),
                );
                break;
            }
            // Clean EOF, shutdown while idle, or a broken/garbled peer.
            Ok(FrameRead::Eof) | Ok(FrameRead::Shutdown) | Err(_) => break,
        };
        if state.faults.sever_now() {
            break; // injected mid-request crash: no reply, just vanish
        }
        let request: Request = match serde_json::from_slice(&payload) {
            Ok(request) => request,
            Err(e) => {
                let reply = Reply::error(&format!("malformed request: {e}"));
                if send_reply_faulted(&mut stream, &state, &reply).is_err() {
                    break;
                }
                continue;
            }
        };
        let keep_going = match request.kind.as_str() {
            "run" => handle_run(&mut stream, &state, client_id, request),
            "cancel" => {
                let reply = match request.ticket {
                    Some(ticket) => state.cancel_ticket(ticket),
                    None => Reply::error("cancel needs a ticket"),
                };
                send_reply_faulted(&mut stream, &state, &reply).is_ok()
            }
            "stats" => {
                send_reply_faulted(&mut stream, &state, &Reply::stats(state.snapshot())).is_ok()
            }
            // Store-peer requests are answered inline by the session
            // thread: they are pure I/O against the shared store and must
            // not wait behind queued solve submissions.
            "store_get" => {
                send_reply_faulted(&mut stream, &state, &handle_store_get(&state, &request)).is_ok()
            }
            "store_put" => {
                send_reply_faulted(&mut stream, &state, &handle_store_put(&state, &request)).is_ok()
            }
            "shutdown" => {
                let _ = send_reply_faulted(&mut stream, &state, &Reply::bye());
                state.initiate_shutdown();
                false
            }
            other => {
                let reply = Reply::error(&format!(
                    "unknown request kind {other:?} (expected run, cancel, stats, store_get, \
                     store_put or shutdown)"
                ));
                send_reply_faulted(&mut stream, &state, &reply).is_ok()
            }
        };
        if !keep_going {
            break;
        }
    }
}

/// [`send_reply`] through the fault plan: the injected drop swallows the
/// frame (reported as sent), the injected stall sleeps first.
fn send_reply_faulted(
    stream: &mut TcpStream,
    state: &ServiceState,
    reply: &Reply,
) -> io::Result<()> {
    match state.faults.reply_action() {
        ReplyAction::Deliver => send_reply(stream, reply),
        ReplyAction::Drop => Ok(()),
        ReplyAction::Stall(millis) => {
            std::thread::sleep(Duration::from_millis(millis));
            send_reply(stream, reply)
        }
    }
}

/// What [`poll_client`] observed on the socket while a run was in flight.
enum ClientPoll {
    /// Nothing to report; keep waiting.
    Idle,
    /// The client is gone (EOF, reset, or an unusable frame stream).
    Disconnected,
}

/// One tick of mid-run socket watching: detects a disconnected client and
/// services frames that arrive while the run is in flight (`cancel` for
/// this or any other ticket; everything else is refused until the run's
/// result is out). Restores the idle read timeout before returning.
fn poll_client(
    stream: &mut TcpStream,
    state: &ServiceState,
    own_ticket: u64,
    cancel: &CancelToken,
    cancel_reason: &mut Option<String>,
) -> ClientPoll {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
    let mut probe = [0u8; 1];
    let poll = match stream.peek(&mut probe) {
        Ok(0) => ClientPoll::Disconnected,
        Ok(_) => {
            // Bytes are waiting: read the whole frame with the normal
            // budgets (no idle budget — the first byte already arrived).
            let _ = stream.set_read_timeout(Some(IDLE_POLL));
            match read_frame_budgeted(stream, &state.shutdown, None, Some(state.frame_timeout)) {
                Ok(FrameRead::Frame(payload)) => {
                    handle_midrun_frame(stream, state, own_ticket, cancel, cancel_reason, &payload);
                    ClientPoll::Idle
                }
                Ok(FrameRead::Shutdown) => ClientPoll::Idle,
                Ok(FrameRead::Stalled) => {
                    state.reaped.fetch_add(1, Ordering::Relaxed);
                    ClientPoll::Disconnected
                }
                Ok(FrameRead::Eof) | Ok(FrameRead::IdleTimeout) | Err(_) => {
                    ClientPoll::Disconnected
                }
            }
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            ClientPoll::Idle
        }
        Err(_) => ClientPoll::Disconnected,
    };
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    poll
}

/// Services one frame that arrived while a run was in flight.
fn handle_midrun_frame(
    stream: &mut TcpStream,
    state: &ServiceState,
    own_ticket: u64,
    cancel: &CancelToken,
    cancel_reason: &mut Option<String>,
    payload: &[u8],
) {
    let request: Request = match serde_json::from_slice(payload) {
        Ok(request) => request,
        Err(e) => {
            let reply = Reply::error(&format!("malformed request: {e}"));
            let _ = send_reply_faulted(stream, state, &reply);
            return;
        }
    };
    match request.kind.as_str() {
        "cancel" => {
            // A bare cancel targets this session's own run.
            let target = request.ticket.unwrap_or(own_ticket);
            if target == own_ticket {
                cancel.cancel();
                cancel_reason.get_or_insert_with(|| "cancelled by request".to_string());
                // The pending run reply arrives as the `cancelled` frame —
                // that is the acknowledgement.
            } else {
                let _ = send_reply_faulted(stream, state, &state.cancel_ticket(target));
            }
        }
        other => {
            let reply = Reply::error(&format!(
                "a run is in flight on this session; {other:?} must wait for its result"
            ));
            let _ = send_reply_faulted(stream, state, &reply);
        }
    }
}

/// Handles one `"run"` request end to end; returns `false` when the
/// session should end (write failure or a vanished client).
fn handle_run(
    stream: &mut TcpStream,
    state: &ServiceState,
    client_id: u64,
    request: Request,
) -> bool {
    let suite = match resolve_suite(&request) {
        Ok(suite) => suite,
        Err(message) => return send_reply_faulted(stream, state, &Reply::error(&message)).is_ok(),
    };
    let jobs = request.jobs.unwrap_or(1).clamp(1, MAX_JOBS) as usize;
    let (reply_tx, reply_rx) = mpsc::channel();
    let cancel = CancelToken::new();
    let ticket = state.tickets.fetch_add(1, Ordering::Relaxed) + 1;
    // Register before pushing: once admitted, the submission must be
    // cancellable with no window where the dispatcher could pick it up
    // unregistered.
    state.register_running(ticket, cancel.clone());
    let submission = Submission {
        suite,
        jobs,
        reply: reply_tx,
        cancel: cancel.clone(),
    };
    match state.queue.push(client_id, submission) {
        Err(Admission::Full) => {
            state.unregister_running(ticket);
            let reply = Reply::rejected("queue full", state.retry_after_ms);
            return send_reply_faulted(stream, state, &reply).is_ok();
        }
        Err(Admission::Closed) => {
            state.unregister_running(ticket);
            let reply = Reply::rejected("server is shutting down", state.retry_after_ms);
            return send_reply_faulted(stream, state, &reply).is_ok();
        }
        Ok(()) => {}
    }
    let depth = state.queue.stats().depth;
    if send_reply_faulted(stream, state, &Reply::accepted(ticket, depth)).is_err() {
        // The client is unreachable before the run even started; abort the
        // work instead of solving for nobody. The dispatcher still owns
        // the slot accounting.
        cancel.cancel();
        state.unregister_running(ticket);
        return false;
    }
    let deadline = request
        .deadline_ms
        .map(|millis| Instant::now() + Duration::from_millis(millis));
    let mut cancel_reason: Option<String> = None;
    let mut client_gone = false;
    // Wait for the dispatcher while watching the clock and the socket.
    // After a disconnect we keep waiting for the result — the engine
    // aborts via the token; the channel must stay open until it does.
    let result = loop {
        match reply_rx.recv_timeout(RUN_POLL) {
            Ok(result) => break Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some(at) = deadline {
                    if Instant::now() >= at && !cancel.is_cancelled() {
                        cancel.cancel();
                        cancel_reason.get_or_insert_with(|| "deadline exceeded".to_string());
                    }
                }
                if !client_gone {
                    if let ClientPoll::Disconnected =
                        poll_client(stream, state, ticket, &cancel, &mut cancel_reason)
                    {
                        client_gone = true;
                        cancel.cancel();
                        cancel_reason.get_or_insert_with(|| "client disconnected".to_string());
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break None,
        }
    };
    state.unregister_running(ticket);
    if client_gone {
        return false;
    }
    let outcome = match result {
        None => {
            let reply = Reply::error("server dropped the submission during shutdown");
            return send_reply_faulted(stream, state, &reply).is_ok();
        }
        Some(Err(EngineError::Cancelled)) => {
            let reason = cancel_reason.as_deref().unwrap_or("cancellation requested");
            return send_reply_faulted(stream, state, &Reply::cancelled(ticket, reason)).is_ok();
        }
        Some(Err(e)) => {
            let reply = Reply::error(&format!("suite failed: {e}"));
            return send_reply_faulted(stream, state, &reply).is_ok();
        }
        // A token that fired too late to matter changes nothing: the
        // completed outcome goes back normally, byte-identical.
        Some(Ok(outcome)) => outcome,
    };
    // The byte-exact report — the same JSON `bbs run --json` would write.
    let failures = outcome.unexpected_failures();
    let message = if failures.is_empty() {
        None
    } else {
        Some(format!("{} point(s) failed unexpectedly", failures.len()))
    };
    let report = SuiteReport::from_outcome(&outcome);
    send_reply_faulted(stream, state, &Reply::report(report.to_json(), message)).is_ok()
}

/// Answers one `"store_get"`: the entry body at the requested address, or
/// a bodiless `"store_entry"` on a miss. Peer lookups never touch the
/// store's solve counters — they are the *peer's* solves, not this
/// daemon's.
fn handle_store_get(state: &ServiceState, request: &Request) -> Reply {
    let Some(store) = state.cache.store() else {
        return Reply::error("server has no persistent store attached");
    };
    let Some(address) = request.key_hash.as_deref().filter(|a| is_entry_address(a)) else {
        return Reply::error("store_get needs key_hash: 16 lowercase hex digits");
    };
    match store.peer_get(address) {
        Ok(body) => Reply::store_entry(body),
        Err(e) => Reply::error(&format!("store read failed: {e}")),
    }
}

/// Answers one `"store_put"`: validate the offered body and persist it
/// through the store's capped write path. The address is derived from the
/// body's embedded key — a peer's claimed address is never trusted.
fn handle_store_put(state: &ServiceState, request: &Request) -> Reply {
    if state.faults.fail_store_put_now() {
        return Reply::error("store_put refused: injected fault");
    }
    let Some(store) = state.cache.store() else {
        return Reply::error("server has no persistent store attached");
    };
    let Some(body) = request.entry.as_deref() else {
        return Reply::error("store_put needs an entry body");
    };
    match store.peer_put(body) {
        Ok(()) => Reply::store_ok(),
        Err(message) => Reply::error(&format!("store_put refused: {message}")),
    }
}

/// Picks the suite a `"run"` request addresses: an inline definition XOR
/// a built-in name, defaulting to the built-in `paper` suite.
fn resolve_suite(request: &Request) -> Result<Suite, String> {
    match (&request.suite, &request.suite_name) {
        (Some(_), Some(_)) => Err("set either suite or suite_name, not both".to_string()),
        (Some(suite), None) => Ok(suite.clone()),
        (None, Some(name)) => {
            builtin_suite(name).ok_or_else(|| format!("unknown built-in suite {name:?}"))
        }
        (None, None) => Ok(builtin_suite("paper").expect("paper suite is built in")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_suite_prefers_explicit_choices_and_defaults_to_paper() {
        assert_eq!(resolve_suite(&Request::stats()).unwrap().name, "paper");
        assert_eq!(
            resolve_suite(&Request::run_builtin("smoke", 1))
                .unwrap()
                .name,
            "smoke"
        );
        let inline = Suite::new("inline", Vec::new());
        assert_eq!(
            resolve_suite(&Request::run_suite(inline.clone(), 1))
                .unwrap()
                .name,
            "inline"
        );
        assert!(resolve_suite(&Request::run_builtin("nope", 1)).is_err());
        let mut both = Request::run_builtin("smoke", 1);
        both.suite = Some(inline);
        assert!(resolve_suite(&both).is_err());
    }
}
