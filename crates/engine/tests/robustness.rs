//! Fault-tolerance integration tests of the service layer: idle and
//! slow-loris reaping, cooperative cancellation (disconnect, deadline,
//! explicit cancel by ticket), and the determinism invariant that a
//! cancelled neighbour never changes what a healthy client receives.
//!
//! All timing here is poll-until-deadline, never sleep-and-hope: the
//! asserts read the server's own counters.

use bbs_engine::serve::{read_reply, send_request, FaultPlan, Reply, Request, ServeConfig, Server};
use bbs_engine::suites::smoke_suite;
use bbs_engine::{
    run_suite, CancelToken, Engine, EngineError, RunSettings, Scenario, SolveCache, Suite,
    SuiteReport, WorkloadSpec,
};
use bbs_taskgraph::presets::PresetSpec;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The reference report text: what a local one-shot run of `smoke` emits.
fn local_smoke_report() -> String {
    let outcome = run_suite(&smoke_suite(), &RunSettings::with_jobs(2)).unwrap();
    SuiteReport::from_outcome(&outcome).to_json()
}

/// Polls `condition` against fresh server stats until it holds or 30 s
/// elapse — counters move on scheduler time, not ours.
fn wait_for(server: &Server, what: &str, condition: impl Fn(&bbs_engine::StatsSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = server.stats();
        if condition(&stats) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A stall on `smoke-chain` cap 2 holds the engine mid-suite long enough
/// to observe cancellation, and leaves work *after* the stalled item under
/// both pop orders (it is neither the first nor the last item of `smoke`).
fn stall_plan(millis: u64) -> FaultPlan {
    FaultPlan::parse(&format!("stall-solve:smoke-chain:2:{millis}")).unwrap()
}

#[test]
fn a_pre_fired_cancel_token_aborts_the_submission_and_the_engine_survives() {
    let engine = Engine::new(2);
    let cache = Arc::new(SolveCache::new());
    let settings = RunSettings::with_jobs(2);
    let cancel = CancelToken::new();
    cancel.cancel();
    let err = engine
        .submit_with_cancel(&smoke_suite(), &settings, &cache, &cancel)
        .unwrap_err();
    assert!(matches!(err, EngineError::Cancelled), "got {err:?}");

    // The pool is fully reusable afterwards, and a cancelled predecessor
    // leaves no trace in the next report.
    let outcome = engine.submit(&smoke_suite(), &settings, &cache).unwrap();
    assert_eq!(
        SuiteReport::from_outcome(&outcome).to_json(),
        local_smoke_report()
    );
}

#[test]
fn an_idle_session_is_reaped_and_the_server_stays_healthy() {
    let server = Server::start(ServeConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Connect and say nothing: the server owes us nothing but a courtesy
    // error before it hangs up.
    let mut silent = TcpStream::connect(addr).unwrap();
    let reply = read_reply(&mut silent).unwrap().unwrap();
    assert_eq!(reply.kind, "error");
    assert_eq!(
        reply.message.as_deref(),
        Some("session reaped: idle timeout")
    );
    assert!(matches!(read_reply(&mut silent), Ok(None) | Err(_)));
    wait_for(&server, "the idle reap", |stats| {
        stats.sessions.as_ref().is_some_and(|s| s.reaped == 1)
    });

    // A session that *does* talk within the budget is not reaped.
    let mut healthy = TcpStream::connect(addr).unwrap();
    send_request(&mut healthy, &Request::stats()).unwrap();
    assert_eq!(read_reply(&mut healthy).unwrap().unwrap().kind, "stats");
    server.shutdown();
    server.wait();
}

#[test]
fn a_slow_loris_peer_is_reaped_mid_frame() {
    let server = Server::start(ServeConfig {
        frame_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Two header bytes, then silence: the frame budget, not the idle
    // budget, must end this connection.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(&[0u8, 0u8]).unwrap();
    loris.flush().unwrap();
    let reply = read_reply(&mut loris).unwrap().unwrap();
    assert_eq!(reply.kind, "error");
    assert_eq!(
        reply.message.as_deref(),
        Some("session reaped: request frame stalled")
    );
    wait_for(&server, "the slow-loris reap", |stats| {
        stats.sessions.as_ref().is_some_and(|s| s.reaped == 1)
    });

    // The listener still serves honest clients.
    let mut healthy = TcpStream::connect(addr).unwrap();
    send_request(&mut healthy, &Request::stats()).unwrap();
    assert_eq!(read_reply(&mut healthy).unwrap().unwrap().kind, "stats");
    server.shutdown();
    server.wait();
}

#[test]
fn a_disconnect_mid_solve_cancels_the_run_and_the_next_client_is_byte_identical() {
    let server = Server::start(ServeConfig {
        workers: 1,
        faults: stall_plan(1000),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Submit, get admitted, vanish while the stalled solve is in flight.
    let mut ghost = TcpStream::connect(addr).unwrap();
    send_request(&mut ghost, &Request::run_builtin("smoke", 1)).unwrap();
    assert_eq!(read_reply(&mut ghost).unwrap().unwrap().kind, "accepted");
    drop(ghost);

    // The session notices the dead socket, fires the token, and the
    // dispatcher retires the submission as cancelled — completed (the slot
    // is released) *and* counted as cancelled.
    wait_for(&server, "the cancelled drain", |stats| {
        stats
            .queue
            .as_ref()
            .is_some_and(|q| q.completed == 1 && q.cancelled == 1 && q.in_flight == 0)
    });

    // A healthy client on the freed engine gets the byte-exact report —
    // the aborted neighbour left no fingerprint.
    let mut healthy = TcpStream::connect(addr).unwrap();
    send_request(&mut healthy, &Request::run_builtin("smoke", 1)).unwrap();
    assert_eq!(read_reply(&mut healthy).unwrap().unwrap().kind, "accepted");
    let reply = read_reply(&mut healthy).unwrap().unwrap();
    assert_eq!(reply.kind, "report", "unexpected reply: {reply:?}");
    let text = reply.report.expect("report text");
    assert_eq!(text, local_smoke_report());
    let report = SuiteReport::from_json(&text).unwrap();
    let points: usize = report.scenarios.iter().map(|s| s.points.len()).sum();
    assert_eq!(points, 8);
    let queue = server.stats().queue.unwrap();
    assert_eq!(queue.completed, 2);
    assert_eq!(queue.cancelled, 1);
    server.shutdown();
    server.wait();
}

#[test]
fn an_expired_deadline_returns_a_structured_cancelled_reply() {
    let server = Server::start(ServeConfig {
        workers: 1,
        faults: stall_plan(1200),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    send_request(
        &mut stream,
        &Request::run_builtin("smoke", 1).with_deadline_ms(150),
    )
    .unwrap();
    assert_eq!(read_reply(&mut stream).unwrap().unwrap().kind, "accepted");
    let reply = read_reply(&mut stream).unwrap().unwrap();
    assert_eq!(reply.kind, "cancelled", "unexpected reply: {reply:?}");
    assert_eq!(reply.message.as_deref(), Some("deadline exceeded"));
    assert!(reply.ticket.is_some());
    let queue = server.stats().queue.unwrap();
    assert_eq!(queue.cancelled, 1);

    // The session survives its own cancelled run: without a deadline the
    // same suite (still stalled) completes normally.
    send_request(&mut stream, &Request::run_builtin("smoke", 1)).unwrap();
    loop {
        let reply = read_reply(&mut stream).unwrap().unwrap();
        match reply.kind.as_str() {
            "accepted" => {}
            "report" => break,
            other => panic!("unexpected reply kind `{other}`"),
        }
    }
    server.shutdown();
    server.wait();
}

#[test]
fn a_second_session_can_cancel_a_run_by_ticket() {
    let server = Server::start(ServeConfig {
        workers: 1,
        faults: stall_plan(1500),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let mut victim = TcpStream::connect(addr).unwrap();
    send_request(&mut victim, &Request::run_builtin("smoke", 1)).unwrap();
    let accepted = read_reply(&mut victim).unwrap().unwrap();
    assert_eq!(accepted.kind, "accepted");
    let ticket = accepted.ticket.expect("accepted replies carry the ticket");

    // The controller cancels from a different connection and gets an
    // immediate acknowledgement; the victim's pending run reply turns into
    // the structured `cancelled` frame.
    let mut controller = TcpStream::connect(addr).unwrap();
    send_request(&mut controller, &Request::cancel(ticket)).unwrap();
    let ack: Reply = read_reply(&mut controller).unwrap().unwrap();
    assert_eq!(ack.kind, "cancelled", "unexpected ack: {ack:?}");
    assert_eq!(ack.ticket, Some(ticket));

    let reply = read_reply(&mut victim).unwrap().unwrap();
    assert_eq!(reply.kind, "cancelled", "unexpected reply: {reply:?}");
    assert_eq!(reply.ticket, Some(ticket));
    assert_eq!(reply.message.as_deref(), Some("cancellation requested"));

    // Cancelling a ticket that no longer exists is a loud error, not a
    // silent no-op.
    send_request(&mut controller, &Request::cancel(ticket)).unwrap();
    let stale = read_reply(&mut controller).unwrap().unwrap();
    assert_eq!(stale.kind, "error");
    wait_for(&server, "the cancelled drain", |stats| {
        stats
            .queue
            .as_ref()
            .is_some_and(|q| q.completed == 1 && q.cancelled == 1)
    });
    server.shutdown();
    server.wait();
}

#[test]
fn a_session_with_a_run_in_flight_can_cancel_another_ticket() {
    let server = Server::start(ServeConfig {
        workers: 1,
        faults: stall_plan(1500),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // A finished ticket: a suite the stall does not address runs through.
    let mut victim = TcpStream::connect(addr).unwrap();
    let quick = Suite::new(
        "quick",
        vec![Scenario::new(
            "pc",
            WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
        )],
    );
    send_request(&mut victim, &Request::run_suite(quick, 1)).unwrap();
    let stale = read_reply(&mut victim).unwrap().unwrap().ticket.unwrap();
    assert_eq!(read_reply(&mut victim).unwrap().unwrap().kind, "report");

    // The canceller's own stalled run is in flight, and the victim's run
    // queues behind it.
    let mut canceller = TcpStream::connect(addr).unwrap();
    send_request(&mut canceller, &Request::run_builtin("smoke", 1)).unwrap();
    assert_eq!(
        read_reply(&mut canceller).unwrap().unwrap().kind,
        "accepted"
    );
    send_request(&mut victim, &Request::run_builtin("smoke", 1)).unwrap();
    let accepted = read_reply(&mut victim).unwrap().unwrap();
    assert_eq!(accepted.kind, "accepted");
    let ticket = accepted.ticket.unwrap();

    // Mid-run, the canceller fires the victim's ticket and gets the
    // acknowledgement an idle session gets; a stale ticket is an error.
    send_request(&mut canceller, &Request::cancel(ticket)).unwrap();
    let ack = read_reply(&mut canceller).unwrap().unwrap();
    assert_eq!(ack.kind, "cancelled", "unexpected ack: {ack:?}");
    assert_eq!(ack.ticket, Some(ticket));
    assert_eq!(ack.message.as_deref(), Some("cancellation requested"));
    send_request(&mut canceller, &Request::cancel(stale)).unwrap();
    let error = read_reply(&mut canceller).unwrap().unwrap();
    assert_eq!(error.kind, "error", "unexpected reply: {error:?}");
    assert_eq!(
        error.message,
        Some(format!("no active submission with ticket {stale}"))
    );

    // The canceller's own run still ends in its byte-exact report, and the
    // victim's in `cancelled`.
    let reply = read_reply(&mut canceller).unwrap().unwrap();
    assert_eq!(reply.kind, "report", "unexpected reply: {reply:?}");
    assert_eq!(reply.report.expect("report text"), local_smoke_report());
    let reply = read_reply(&mut victim).unwrap().unwrap();
    assert_eq!(reply.kind, "cancelled", "unexpected reply: {reply:?}");
    assert_eq!(reply.ticket, Some(ticket));
    wait_for(&server, "the three drains", |stats| {
        stats
            .queue
            .as_ref()
            .is_some_and(|q| q.completed == 3 && q.cancelled == 1)
    });
    server.shutdown();
    server.wait();
}
