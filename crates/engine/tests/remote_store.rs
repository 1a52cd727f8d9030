//! Integration tests of the remote store tier: a `bbs serve` daemon acting
//! as a store peer for local runs via the `store_get`/`store_put` protocol
//! requests, with read-through fills and write-behind population.

use bbs_engine::serve::{read_reply, send_request, FaultPlan};
use bbs_engine::store::entry_address;
use bbs_engine::store::remote::REPLY_DEADLINE;
use bbs_engine::suites::smoke_suite;
use bbs_engine::{
    generate_suite, BreakerConfig, CanonicalKey, Engine, GenParams, RemoteBackend, Request,
    RunSettings, ServeConfig, Server, SolveCache, SolveStore, Suite, SuiteOutcome, SuiteReport,
};
use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
use budget_buffer::{compute_mapping, with_capacity_cap, SolveOptions};
use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A unique, self-cleaning scratch directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bbs-remote-store-{label}-{}-{:?}",
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

/// Runs `suite` against `cache` on a one-off engine of `settings.jobs`
/// workers.
fn run_cached(suite: &Suite, settings: &RunSettings, cache: &Arc<SolveCache>) -> SuiteOutcome {
    Engine::new(settings.jobs)
        .run_suite_with_cache(suite, settings, cache)
        .unwrap()
}

/// Starts a store-backed daemon on an ephemeral port.
fn start_peer(store_dir: &Path) -> Server {
    Server::start(ServeConfig {
        store: Some(SolveStore::open(store_dir).unwrap()),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap()
}

/// A local store in `dir` with the daemon at `addr` as its remote tier.
fn tiered_cache(dir: &Path, addr: &str) -> Arc<SolveCache> {
    let remote = RemoteBackend::connect(addr).unwrap();
    Arc::new(SolveCache::with_store(
        SolveStore::open(dir).unwrap().with_remote(remote),
    ))
}

#[test]
fn write_behind_populates_the_peer_and_read_through_refills_cold_dirs() {
    let directory = TempDir::new("tiering");
    let peer_dir = directory.path().join("peer");
    let server = start_peer(&peer_dir);
    let addr = server.addr().to_string();
    let settings = RunSettings::default();
    let suite = smoke_suite();

    // Run 1: everything is cold — 8 fresh solves land in the local dir
    // synchronously and stream to the peer via write-behind. Dropping the
    // cache (and with it the remote backend) flushes the writer.
    let first_report;
    {
        let cache = tiered_cache(&directory.path().join("a"), &addr);
        let outcome = run_cached(&suite, &settings, &cache);
        let stats = cache.store().unwrap().stats();
        assert!(stats.remote_enabled);
        assert_eq!(stats.fresh_solves, 8);
        assert_eq!(stats.remote_hits, 0);
        assert_eq!(stats.stored, 8);
        first_report = SuiteReport::from_outcome(&outcome).to_json();
    }
    let peer_summary = SolveStore::open_existing(&peer_dir)
        .unwrap()
        .summary()
        .unwrap();
    assert_eq!(peer_summary.entries, 8, "write-behind reached the peer");
    assert_eq!(
        peer_summary.stale, 0,
        "every entry is of this solver revision"
    );

    // Run 2: a brand-new local dir — every miss is served by the peer and
    // read through into the local tier; nothing is solved.
    {
        let cache = tiered_cache(&directory.path().join("b"), &addr);
        let outcome = run_cached(&suite, &settings, &cache);
        let stats = cache.store().unwrap().stats();
        assert_eq!(stats.fresh_solves, 0, "the peer keeps the run warm");
        assert_eq!(stats.remote_hits, 8);
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.stored, 8, "read-through fills the local tier");
        assert_eq!(SuiteReport::from_outcome(&outcome).to_json(), first_report);
    }
    // The fills are now ordinary local entries...
    let local = SolveStore::open_existing(directory.path().join("b"))
        .unwrap()
        .summary()
        .unwrap();
    assert_eq!(local.entries, 8);

    // Run 3: the same local dir again — all plain disk hits, no remote
    // traffic needed, and still the identical report.
    {
        let cache = tiered_cache(&directory.path().join("b"), &addr);
        let outcome = run_cached(&suite, &settings, &cache);
        let stats = cache.store().unwrap().stats();
        assert_eq!(stats.disk_hits, 8);
        assert_eq!(stats.remote_hits, 0);
        assert_eq!(stats.fresh_solves, 0);
        assert_eq!(SuiteReport::from_outcome(&outcome).to_json(), first_report);
    }

    // The report never learned the store existed: a store-free run matches.
    let reference = run_cached(&suite, &settings, &Arc::new(SolveCache::new()));
    assert_eq!(
        SuiteReport::from_outcome(&reference).to_json(),
        first_report
    );

    server.shutdown();
    server.wait();
}

#[test]
fn a_store_put_in_another_layout_is_stored_canonically_and_served() {
    let directory = TempDir::new("canonical-put");
    let configuration = with_capacity_cap(&producer_consumer(PaperParameters::default(), None), 4);
    let options = SolveOptions::default().prefer_budget_minimisation();
    let key = CanonicalKey::from_parts(&configuration, &options, "joint");
    let result = compute_mapping(&configuration, &options);
    let address = entry_address(&key);

    // The canonical body of one solve, as a local store writes it.
    let local = SolveStore::open(directory.path().join("local")).unwrap();
    local.save(&key, &result);
    let body = local.peer_get(&address).unwrap().expect("saved");
    // The same entry with whitespace between its tokens: valid JSON, but
    // not the layout lookups accept.
    let padded = body
        .replacen("{\"schema\":", "{ \"schema\" : ", 1)
        .replacen(",\"configuration\":", " ,\n  \"configuration\": ", 1)
        .replacen(",\"feasible\":", ", \"feasible\" :\t", 1)
        + "  \n";
    assert_ne!(padded, body);

    let peer_dir = directory.path().join("peer");
    let server = start_peer(&peer_dir);
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    send_request(&mut stream, &Request::store_put(padded)).unwrap();
    let reply = read_reply(&mut stream).unwrap().expect("a reply");
    assert_eq!(reply.kind, "store_ok", "{:?}", reply.message);
    drop(stream);
    server.shutdown();
    server.wait();

    // The peer stored the canonical bytes, so a later lookup is a disk hit.
    let peer = SolveStore::open_existing(&peer_dir).unwrap();
    assert_eq!(
        peer.peer_get(&address).unwrap().as_deref(),
        Some(body.as_str())
    );
    let loaded = peer.load(&key, &configuration).expect("a disk hit");
    assert_eq!(loaded, result);
    let stats = peer.stats();
    assert_eq!((stats.disk_hits, stats.rejected), (1, 0));
    assert_eq!(peer.summary().unwrap().entries, 1);
}

#[test]
fn peer_stats_reports_the_daemon_store_and_a_dead_peer_degrades_gracefully() {
    let directory = TempDir::new("degrade");
    let peer_dir = directory.path().join("peer");
    let server = start_peer(&peer_dir);
    let addr = server.addr().to_string();
    let settings = RunSettings::default();
    let suite = smoke_suite();

    // Populate the peer, then read its own store report.
    {
        let cache = tiered_cache(&directory.path().join("a"), &addr);
        run_cached(&suite, &settings, &cache);
    }
    let report = server.stats().store.expect("the peer has a store");
    assert_eq!(report.entries, 8);
    assert_eq!(report.stale, 0);

    // Kill the peer. A tiered run against the dead address must still
    // succeed — remote errors are degradation, not failures — with every
    // solve done locally and nothing counted as rejected.
    server.shutdown();
    server.wait();
    // Connecting may already fail (the listener is gone) or briefly
    // succeed on OS-buffered sockets; both paths must degrade.
    let remote = RemoteBackend::connect(&addr).ok();
    let store = SolveStore::open(directory.path().join("c")).unwrap();
    let store = match remote {
        Some(remote) => store.with_remote(remote),
        None => store,
    };
    let cache = Arc::new(SolveCache::with_store(store));
    let outcome = run_cached(&suite, &settings, &cache);
    assert!(outcome.unexpected_failures().is_empty());
    let stats = cache.store().unwrap().stats();
    assert_eq!(stats.fresh_solves, 8);
    assert_eq!(stats.rejected, 0, "remote transport errors are not rejects");
}

#[test]
fn a_peer_blip_opens_the_breaker_and_a_probe_heals_it_in_process() {
    let directory = TempDir::new("breaker");
    let peer_dir = directory.path().join("peer");
    let server = start_peer(&peer_dir);
    let addr = server.addr().to_string();
    let settings = RunSettings::default();
    let suite = smoke_suite();

    // Populate the peer through a throwaway tiered run (dropping the cache
    // flushes the write-behind queue).
    {
        let cache = tiered_cache(&directory.path().join("a"), &addr);
        run_cached(&suite, &settings, &cache);
    }

    // The backend under test: a tight breaker so the blip and the heal
    // both fit in test time. Connected while the peer is still up.
    let remote = RemoteBackend::connect_with(
        &addr,
        BreakerConfig {
            threshold: 2,
            probe_backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(200),
        },
    )
    .unwrap();
    // Health check: the live peer answers, with a plain miss.
    assert_eq!(remote.get("00ff00ff00ff00ff").unwrap(), None);

    // Blip: the peer dies. Two consecutive transport failures open the
    // breaker; the backend is degraded, not broken.
    server.shutdown();
    server.wait();
    assert!(remote.get("00ff00ff00ff00ff").is_err());
    assert!(remote.get("00ff00ff00ff00ff").is_err());
    let breaker = remote.breaker();
    assert!(breaker.is_open(), "two failures at threshold 2 must open");
    assert_eq!(breaker.opens(), 1);
    assert_eq!(breaker.closes(), 0);

    // Heal: restart the peer on the same address (std listeners set
    // SO_REUSEADDR), wait out the probe backoff, and attach the *same*
    // backend instance to a cold local dir. The first lookup probes,
    // closes the breaker, and every smoke key is served remotely again —
    // no process restart, no new connection object.
    let server = Server::start(ServeConfig {
        store: Some(SolveStore::open(&peer_dir).unwrap()),
        workers: 1,
        addr: addr.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    std::thread::sleep(Duration::from_millis(60));
    let cache = Arc::new(SolveCache::with_store(
        SolveStore::open(directory.path().join("b"))
            .unwrap()
            .with_remote(remote),
    ));
    let outcome = run_cached(&suite, &settings, &cache);
    assert!(outcome.unexpected_failures().is_empty());
    let stats = cache.store().unwrap().stats();
    assert_eq!(stats.remote_hits, 8, "remote hits resume after the heal");
    assert_eq!(stats.fresh_solves, 0);
    assert_eq!(stats.breaker_opens, 1);
    assert_eq!(stats.breaker_closes, 1);
    assert!(!stats.breaker_open);
    assert!(stats.breaker_probes >= 1);

    // Write-behind re-attached too: fresh solves of a suite the peer has
    // never seen stream back to it through the healed connection.
    let extra = generate_suite(&GenParams {
        seed: 11,
        points: 4,
    });
    run_cached(&extra, &settings, &cache);
    let fresh = cache.store().unwrap().stats().fresh_solves;
    assert!(
        fresh > 0,
        "the generated suite must actually solve something"
    );
    drop(cache); // flush the write-behind queue
    let peer_summary = SolveStore::open_existing(&peer_dir)
        .unwrap()
        .summary()
        .unwrap();
    assert!(
        peer_summary.entries > 8,
        "write-behind after the heal must reach the peer, got {} entries",
        peer_summary.entries
    );

    server.shutdown();
    server.wait();
}

#[test]
fn a_peer_that_swallows_a_reply_costs_one_deadline_not_a_wedged_get() {
    let directory = TempDir::new("silent");
    let server = Server::start(ServeConfig {
        store: Some(SolveStore::open(directory.path().join("peer")).unwrap()),
        workers: 1,
        faults: FaultPlan::parse("drop-reply:1").unwrap(),
        ..ServeConfig::default()
    })
    .unwrap();
    let remote = RemoteBackend::connect(&server.addr().to_string()).unwrap();

    // The peer never answers the first `store_get`: the wait for that
    // reply gives up at the deadline, without a second wait on a retry.
    let (done, answer) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        let started = Instant::now();
        let first = remote.get("00ff00ff00ff00ff").map_err(|e| e.kind());
        let waited = started.elapsed();
        let _ = done.send((first, waited, remote));
    });
    let (first, waited, remote) = answer
        .recv_timeout(REPLY_DEADLINE + REPLY_DEADLINE / 2)
        .expect("a swallowed reply must cost one reply deadline");
    caller.join().unwrap();
    assert_eq!(first, Err(io::ErrorKind::TimedOut));
    assert!(waited >= REPLY_DEADLINE, "gave up after {waited:?}");

    // The failure is recorded but does not open the default breaker, and
    // the next lookup, on a fresh connection, gets the peer's answer: a
    // plain miss.
    assert_eq!(remote.breaker().opens(), 0);
    assert_eq!(remote.get("00ff00ff00ff00ff").unwrap(), None);

    server.shutdown();
    server.wait();
}

#[test]
fn a_peer_that_never_answers_is_a_transport_failure_the_breaker_records() {
    // The kernel completes every handshake, but nothing ever reads a
    // request or writes a reply.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let remote = RemoteBackend::connect_with(
        &silent.local_addr().unwrap().to_string(),
        BreakerConfig {
            threshold: 1,
            probe_backoff: Duration::from_secs(3600),
            backoff_cap: Duration::from_secs(3600),
        },
    )
    .unwrap();

    let (done, outcome) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        // The one attempt times out, and the failure opens the breaker ...
        let first = remote.get("00ff00ff00ff00ff").map_err(|e| e.kind());
        let opens = remote.breaker().opens();
        // ... after which reads and write-behind puts fail fast, so the
        // flush behind process exit returns at once.
        let second = remote.get("00ff00ff00ff00ff").map_err(|e| e.kind());
        remote.put("{}");
        remote.flush();
        let _ = done.send((first, opens, second, remote.dropped_puts()));
    });
    let (first, opens, second, dropped) = outcome
        .recv_timeout(REPLY_DEADLINE + REPLY_DEADLINE / 2)
        .expect("a silent peer must not wedge the backend");
    caller.join().unwrap();
    assert_eq!(first, Err(io::ErrorKind::TimedOut));
    assert_eq!(opens, 1);
    assert_eq!(second, Err(io::ErrorKind::NotConnected));
    assert_eq!(dropped, 1);
}

#[test]
fn a_peer_without_a_store_turns_the_tier_off_for_good() {
    let directory = TempDir::new("refusal");
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let settings = RunSettings::default();
    // Threshold 1: a single transport failure would open the breaker.
    let remote = RemoteBackend::connect_with(
        &addr,
        BreakerConfig {
            threshold: 1,
            probe_backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        },
    )
    .unwrap();
    let cache = Arc::new(SolveCache::with_store(
        SolveStore::open(directory.path().join("local"))
            .unwrap()
            .with_remote(remote),
    ));

    // The peer answers but refuses: every point solves locally, and the
    // refusal is neither a rejected entry nor a transport failure.
    let outcome = run_cached(&smoke_suite(), &settings, &cache);
    assert!(outcome.unexpected_failures().is_empty());
    let stats = cache.store().unwrap().stats();
    assert_eq!(stats.fresh_solves, 8);
    assert_eq!(stats.remote_hits, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.breaker_opens, 0);

    // With the peer gone, a latched tier never touches the network again:
    // no lookup or put fails, so the breaker neither opens nor probes.
    server.shutdown();
    server.wait();
    let extra = generate_suite(&GenParams {
        seed: 11,
        points: 4,
    });
    run_cached(&extra, &settings, &cache);
    let stats = cache.store().unwrap().stats();
    assert!(stats.fresh_solves > 8, "the generated suite solves fresh");
    assert_eq!(stats.breaker_opens, 0);
    assert_eq!(stats.breaker_probes, 0);
}
