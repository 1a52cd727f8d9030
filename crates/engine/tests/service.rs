//! Integration tests of the service layer: real sockets against a real
//! [`Server`], plus the `bbs serve`/`bbs client` binary surface via
//! `CARGO_BIN_EXE_bbs`.
//!
//! The load-bearing property throughout: a report obtained through the
//! service is **byte-identical** to a local `bbs run` of the same suite —
//! cold cache, warm shared cache, or many concurrent clients.

use bbs_engine::serve::{
    read_reply, send_request, FaultPlan, Reply, Request, ServeConfig, Server, StatsSnapshot,
};
use bbs_engine::suites::smoke_suite;
use bbs_engine::{run_suite, RunSettings, SolveStore, SuiteReport};
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A unique, self-cleaning scratch directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bbs-service-it-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&path);
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The reference report text: what a local one-shot run of `smoke` emits.
fn local_smoke_report() -> String {
    let outcome = run_suite(&smoke_suite(), &RunSettings::with_jobs(2)).unwrap();
    SuiteReport::from_outcome(&outcome).to_json()
}

/// The number of points in the report a `"report"` reply carries.
fn report_points(reply: &Reply) -> usize {
    let report = SuiteReport::from_json(reply.report.as_deref().expect("report text")).unwrap();
    report.scenarios.iter().map(|s| s.points.len()).sum()
}

/// Submits one `"run"` over an open connection and returns its report
/// reply with the number of points the report holds. Panics on rejection
/// — callers that expect back-pressure drive the protocol by hand.
fn submit_and_collect(stream: &mut TcpStream, request: &Request) -> (usize, Reply) {
    send_request(stream, request).unwrap();
    let accepted = read_reply(stream).unwrap().unwrap();
    assert_eq!(accepted.kind, "accepted", "unexpected reply: {accepted:?}");
    let reply = read_reply(stream).unwrap().unwrap();
    assert_eq!(reply.kind, "report", "unexpected reply: {reply:?}");
    (report_points(&reply), reply)
}

#[test]
fn an_admitted_run_is_answered_by_accepted_then_its_report_alone() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    send_request(&mut stream, &Request::run_builtin("smoke", 2)).unwrap();
    let kinds: Vec<String> = (0..2)
        .map(|_| read_reply(&mut stream).unwrap().unwrap().kind)
        .collect();
    assert_eq!(kinds, ["accepted", "report"]);
    // The session writes a run's replies before it reads the next request,
    // so the answer to this one is the first frame after the report.
    send_request(&mut stream, &Request::stats()).unwrap();
    let next = read_reply(&mut stream).unwrap().unwrap();
    assert_eq!(next.kind, "stats", "a frame followed the report: {next:?}");
    server.shutdown();
    server.wait();
}

#[test]
fn served_reports_are_byte_identical_to_local_runs_cold_and_warm() {
    let reference = local_smoke_report();
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // Cold shared cache.
    let (points, report) = submit_and_collect(&mut stream, &Request::run_builtin("smoke", 2));
    assert_eq!(points, 8, "smoke has 8 sweep points");
    assert_eq!(report.message, None);
    assert_eq!(report.report.as_deref(), Some(reference.as_str()));

    // Warm shared cache — every solve now comes from memory, yet the
    // report (including its hit/miss counters) must not change.
    let (_, warm) = submit_and_collect(&mut stream, &Request::run_builtin("smoke", 2));
    assert_eq!(warm.report.as_deref(), Some(reference.as_str()));

    // And independent of the per-submission jobs cap.
    let (_, one_job) = submit_and_collect(&mut stream, &Request::run_builtin("smoke", 1));
    assert_eq!(one_job.report.as_deref(), Some(reference.as_str()));

    server.shutdown();
    server.wait();
}

#[test]
fn four_concurrent_clients_get_identical_reports() {
    let reference = Arc::new(local_smoke_report());
    let server = Server::start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let reference = Arc::clone(&reference);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                barrier.wait();
                for _ in 0..3 {
                    let (points, report) =
                        submit_and_collect(&mut stream, &Request::run_builtin("smoke", 2));
                    assert_eq!(points, 8);
                    assert_eq!(report.report.as_deref(), Some(reference.as_str()));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let stats = server.stats();
    let queue = stats.queue.unwrap();
    assert_eq!(queue.submitted, 12);
    assert_eq!(queue.completed, 12);
    assert_eq!(queue.depth, 0);
    assert_eq!(queue.in_flight, 0);
    server.shutdown();
    server.wait();
}

#[test]
fn a_full_queue_rejects_with_retry_and_the_retry_succeeds() {
    let reference = Arc::new(local_smoke_report());
    // Capacity 1: while any submission is queued or in flight, every other
    // client is refused at the door with a structured retry hint.
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 1,
        retry_after_ms: 5,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let clients = 3;
    let submissions_each = 4u64;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let reference = Arc::clone(&reference);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                barrier.wait();
                let mut rejections = 0u64;
                for _ in 0..submissions_each {
                    'submit: loop {
                        send_request(&mut stream, &Request::run_builtin("smoke", 1)).unwrap();
                        loop {
                            let reply = read_reply(&mut stream).unwrap().unwrap();
                            match reply.kind.as_str() {
                                "accepted" => {}
                                "report" => {
                                    assert_eq!(
                                        reply.report.as_deref(),
                                        Some(reference.as_str()),
                                        "a report after back-pressure must still be byte-exact"
                                    );
                                    break 'submit;
                                }
                                "rejected" => {
                                    // The structured refusal: reason + hint.
                                    assert_eq!(reply.message.as_deref(), Some("queue full"));
                                    let wait = reply.retry_after_ms.expect("retry hint");
                                    assert_eq!(wait, 5);
                                    rejections += 1;
                                    std::thread::sleep(std::time::Duration::from_millis(wait));
                                    continue 'submit;
                                }
                                other => panic!("unexpected reply kind `{other}`"),
                            }
                        }
                    }
                }
                rejections
            })
        })
        .collect();
    let rejections: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let stats = server.stats();
    let queue = stats.queue.unwrap();
    // Every submission eventually completed; none were dropped silently.
    assert_eq!(queue.completed, clients as u64 * submissions_each);
    assert_eq!(queue.rejected, rejections);
    // Three clients racing a capacity-1 queue from a barrier must collide:
    // at most one of the first simultaneous volley can be admitted.
    assert!(rejections >= 1, "expected at least one rejection");
    server.shutdown();
    server.wait();
}

#[test]
fn stats_exposes_queue_engine_cache_and_store_sections() {
    let directory = TempDir::new("stats");
    let server = Server::start(ServeConfig {
        workers: 3,
        store: Some(SolveStore::open(directory.path()).unwrap()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    submit_and_collect(&mut stream, &Request::run_builtin("smoke", 2));

    send_request(&mut stream, &Request::stats()).unwrap();
    let reply = read_reply(&mut stream).unwrap().unwrap();
    assert_eq!(reply.kind, "stats");
    let snapshot = reply.stats.unwrap();
    // The snapshot round-trips through its canonical JSON form — the same
    // text `bbs cache stats --json` prints.
    assert_eq!(
        StatsSnapshot::from_json(&snapshot.to_json()).unwrap(),
        snapshot
    );
    let queue = snapshot.queue.unwrap();
    assert_eq!(queue.submitted, 1);
    assert_eq!(queue.completed, 1);
    assert_eq!(snapshot.engine.unwrap().workers, 3);
    let cache = snapshot.cache.unwrap();
    assert_eq!(cache.misses, 8, "8 distinct smoke keys missed the cache");
    let store = snapshot.store.unwrap();
    assert_eq!(store.entries, 8);
    assert_eq!(store.stored, 8);
    assert_eq!(store.fresh_solves, 8);
    server.shutdown();
    server.wait();
}

#[test]
fn graceful_shutdown_drains_admitted_work_and_refuses_new() {
    let reference = local_smoke_report();
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Admit a submission, then shut down before collecting its replies.
    let mut worker = TcpStream::connect(addr).unwrap();
    send_request(&mut worker, &Request::run_builtin("smoke", 2)).unwrap();
    let accepted = read_reply(&mut worker).unwrap().unwrap();
    assert_eq!(accepted.kind, "accepted");

    let mut controller = TcpStream::connect(addr).unwrap();
    send_request(&mut controller, &Request::shutdown()).unwrap();
    assert_eq!(read_reply(&mut controller).unwrap().unwrap().kind, "bye");

    // The admitted submission still completes in full.
    let reply = read_reply(&mut worker).unwrap().unwrap();
    assert_eq!(reply.kind, "report", "unexpected reply: {reply:?}");
    assert_eq!(reply.report.as_deref(), Some(reference.as_str()));
    let points = report_points(&reply);
    assert_eq!(points, 8);
    // And the whole server winds down without hanging.
    server.wait();
}

#[test]
fn closed_queue_rejects_new_submissions_during_drain() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    // Open the connection while the server still accepts, but submit only
    // after shutdown: the session is alive, the queue is closed.
    let mut stream = TcpStream::connect(addr).unwrap();
    send_request(&mut stream, &Request::stats()).unwrap();
    assert_eq!(read_reply(&mut stream).unwrap().unwrap().kind, "stats");
    server.shutdown();
    send_request(&mut stream, &Request::run_builtin("smoke", 1)).unwrap();
    // The session may already have exited between the flag flip and our
    // frame landing; a dropped connection is an acceptable (and loud)
    // refusal too — just never a silent hang or a success.
    if let Ok(Some(reply)) = read_reply(&mut stream) {
        assert_eq!(reply.kind, "rejected", "unexpected reply: {reply:?}");
        assert_eq!(reply.message.as_deref(), Some("server is shutting down"));
        assert!(reply.retry_after_ms.is_some());
    }
    server.wait();
}

#[test]
fn an_oversized_frame_header_ends_the_session_but_not_the_server() {
    use std::io::Write as _;
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    // A header claiming one byte above the 32 MiB cap, with no body: the
    // session must refuse to allocate and drop the connection.
    let mut attacker = TcpStream::connect(addr).unwrap();
    let oversized = (32 * 1024 * 1024 + 1u32).to_be_bytes();
    attacker.write_all(&oversized).unwrap();
    attacker.flush().unwrap();
    // The server closes the connection (EOF) rather than replying; either a
    // clean close or a reset counts, a reply or a hang does not.
    match read_reply(&mut attacker) {
        Ok(None) | Err(_) => {}
        Ok(Some(reply)) => panic!("expected a closed connection, got {reply:?}"),
    }

    // The listener and dispatcher survive: a fresh connection still serves.
    let mut healthy = TcpStream::connect(addr).unwrap();
    let (points, report) = submit_and_collect(&mut healthy, &Request::run_builtin("smoke", 2));
    assert_eq!(points, 8);
    assert_eq!(
        report.report.as_deref(),
        Some(local_smoke_report().as_str())
    );
    server.shutdown();
    server.wait();
}

#[test]
fn a_malformed_json_frame_gets_an_error_reply_and_the_session_continues() {
    use std::io::Write as _;
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // A well-formed frame whose payload is not a request: framing survives,
    // decoding fails, and the session must say so instead of dying.
    let garbage = b"{this is not json";
    let mut frame = Vec::new();
    frame.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
    frame.extend_from_slice(garbage);
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();
    let reply = read_reply(&mut stream).unwrap().unwrap();
    assert_eq!(reply.kind, "error");
    assert!(
        reply
            .message
            .as_deref()
            .is_some_and(|m| m.starts_with("malformed request")),
        "unexpected message: {:?}",
        reply.message
    );

    // A truncated frame — header promising more bytes than ever arrive —
    // ends a *different* session quietly (there is nothing left to parse).
    let mut truncated = TcpStream::connect(server.addr()).unwrap();
    truncated.write_all(&64u32.to_be_bytes()).unwrap();
    truncated.write_all(b"short").unwrap();
    drop(truncated);

    // The first session is still alive and fully functional after its
    // error reply, and the server after the truncated one.
    let (points, _) = submit_and_collect(&mut stream, &Request::run_builtin("smoke", 1));
    assert_eq!(points, 8);
    server.shutdown();
    server.wait();
}

#[test]
fn a_client_disconnecting_mid_submission_releases_its_queue_slot() {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Submit, get admitted, then vanish without collecting any replies.
    let mut ghost = TcpStream::connect(addr).unwrap();
    send_request(&mut ghost, &Request::run_builtin("smoke", 2)).unwrap();
    assert_eq!(read_reply(&mut ghost).unwrap().unwrap().kind, "accepted");
    drop(ghost);

    // The dispatcher must finish the orphaned work and free its slot: with
    // queue_capacity 1, the next submission can only be admitted once
    // `complete()` ran. Poll the counters rather than sleeping blind.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let queue = server.stats().queue.unwrap();
        if queue.completed == 1 && queue.in_flight == 0 && queue.depth == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned submission never drained: {queue:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // The freed slot admits and serves a well-behaved client.
    let mut healthy = TcpStream::connect(addr).unwrap();
    let (points, report) = submit_and_collect(&mut healthy, &Request::run_builtin("smoke", 2));
    assert_eq!(points, 8);
    assert_eq!(
        report.report.as_deref(),
        Some(local_smoke_report().as_str())
    );
    let queue = server.stats().queue.unwrap();
    assert_eq!(queue.submitted, 2);
    assert_eq!(queue.completed, 2);
    server.shutdown();
    server.wait();
}

/// Runs the real `bbs` binary, asserting success, returning stdout.
fn bbs(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_bbs"))
        .args(args)
        .output()
        .expect("bbs binary runs");
    assert!(
        output.status.success(),
        "bbs {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("bbs prints UTF-8")
}

#[test]
fn cli_serve_and_client_round_trip_byte_identical_reports() {
    let directory = TempDir::new("cli");
    fs::create_dir_all(directory.path()).unwrap();
    let baseline = directory.path().join("baseline.json");
    let served = directory.path().join("served.json");
    let served_warm = directory.path().join("served-warm.json");

    bbs(&[
        "run",
        "--suite",
        "smoke",
        "--quiet",
        "--json",
        baseline.to_str().unwrap(),
    ]);

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_bbs"))
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bbs serve starts");
    let mut daemon_stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut announcement = String::new();
    daemon_stdout.read_line(&mut announcement).unwrap();
    let addr = announcement
        .trim()
        .strip_prefix("bbs serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {announcement:?}"))
        .to_string();

    bbs(&[
        "client",
        "run",
        "--addr",
        &addr,
        "--suite",
        "smoke",
        "--quiet",
        "--json",
        served.to_str().unwrap(),
    ]);
    bbs(&[
        "client",
        "run",
        "--addr",
        &addr,
        "--suite",
        "smoke",
        "--quiet",
        "--json",
        served_warm.to_str().unwrap(),
    ]);
    let stats = bbs(&["client", "stats", "--addr", &addr]);
    let snapshot = StatsSnapshot::from_json(&stats).unwrap();
    assert_eq!(snapshot.queue.unwrap().completed, 2);
    let bench = bbs(&[
        "client",
        "bench",
        "--addr",
        &addr,
        "--clients",
        "2",
        "--requests",
        "2",
        "--suite",
        "smoke",
    ]);
    assert!(bench.contains("4 completed (32 points)"), "bench: {bench}");

    let shutdown = bbs(&["client", "shutdown", "--addr", &addr]);
    assert!(shutdown.contains("server acknowledged shutdown"));
    let status = daemon.wait().expect("bbs serve exits");
    assert!(status.success(), "bbs serve must exit 0 after shutdown");
    let mut rest = String::new();
    daemon_stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("shut down cleanly"), "stdout tail: {rest:?}");

    let baseline_text = fs::read_to_string(&baseline).unwrap();
    assert_eq!(baseline_text, fs::read_to_string(&served).unwrap());
    assert_eq!(baseline_text, fs::read_to_string(&served_warm).unwrap());
}

#[test]
fn cli_client_run_prints_every_point_of_the_report_in_suite_order() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let stdout = bbs(&["client", "run", "--addr", &addr, "--suite", "smoke"]);
    let lines: Vec<&str> = stdout.lines().collect();
    // The queue depth at admission depends on scheduling.
    assert!(
        lines[0].starts_with("accepted as ticket 1 (queue depth "),
        "stdout: {stdout}"
    );
    assert_eq!(
        lines[1..],
        [
            "  smoke-pc cap 1: feasible",
            "  smoke-pc cap 2: feasible",
            "  smoke-pc cap 3: feasible",
            "  smoke-pc cap 4: feasible",
            "  smoke-chain cap 2: feasible",
            "  smoke-chain cap 6: feasible",
            "  smoke-ring cap 2: feasible",
            "  smoke-ring cap 4: feasible",
            "report complete: 8 points",
        ]
    );
    server.shutdown();
    server.wait();
}

/// Runs the real `bbs` binary for at most `bound`, killing it if it is
/// still running then. Returns its exit status (`None` if it was killed)
/// and its stderr.
fn bbs_within(args: &[&str], bound: Duration) -> (Option<ExitStatus>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bbs"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bbs binary runs");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if started.elapsed() >= bound {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    (status, stderr)
}

/// A daemon whose fault plan swallows the given reply frame.
fn start_dropping(directive: &str) -> Server {
    Server::start(ServeConfig {
        workers: 2,
        faults: FaultPlan::parse(directive).unwrap(),
        ..ServeConfig::default()
    })
    .unwrap()
}

#[test]
fn client_stats_gives_up_on_a_swallowed_reply_at_its_deadline() {
    let server = start_dropping("drop-reply:1");
    let addr = server.addr().to_string();
    let (status, stderr) = bbs_within(
        &["client", "stats", "--addr", &addr],
        Duration::from_secs(8),
    );
    let status = status.expect("client stats must give up on its own within 8 s");
    assert!(!status.success());
    assert!(stderr.contains("deadline"), "stderr: {stderr}");
    server.shutdown();
    server.wait();
}

#[test]
fn client_run_with_a_deadline_gives_up_on_a_swallowed_report() {
    // Reply 1 is `accepted`, reply 2 the run's result.
    let server = start_dropping("drop-reply:2");
    let addr = server.addr().to_string();
    let args = [
        "client",
        "run",
        "--addr",
        &addr,
        "--suite",
        "smoke",
        "--deadline-ms",
        "500",
    ];
    let (status, stderr) = bbs_within(&args, Duration::from_secs(8));
    let status = status.expect("client run --deadline-ms 500 must give up on its own within 8 s");
    assert!(!status.success());
    assert!(stderr.contains("deadline"), "stderr: {stderr}");
    server.shutdown();
    server.wait();
}
