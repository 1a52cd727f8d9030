//! Integration tests of the remote store tier: a `bbs serve` daemon acting
//! as a store peer for local runs via the `store_get`/`store_put` protocol
//! requests, with read-through fills and write-behind population.

use bbs_engine::suites::smoke_suite;
use bbs_engine::{
    generate_suite, BreakerConfig, Engine, GenParams, RemoteBackend, RunSettings, ServeConfig,
    Server, SolveCache, SolveStore, Suite, SuiteOutcome, SuiteReport,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

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
        SolveStore::open(dir).unwrap().with_remote(Box::new(remote)),
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
    assert_eq!(peer_summary.v2_entries, 8);

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
fn peer_stats_reports_the_daemon_store_and_a_dead_peer_degrades_gracefully() {
    let directory = TempDir::new("degrade");
    let peer_dir = directory.path().join("peer");
    let server = start_peer(&peer_dir);
    let addr = server.addr().to_string();
    let settings = RunSettings::default();
    let suite = smoke_suite();

    // Populate the peer, then ask it for its own store report.
    {
        let cache = tiered_cache(&directory.path().join("a"), &addr);
        run_cached(&suite, &settings, &cache);
    }
    let probe = RemoteBackend::connect(&addr).unwrap();
    let report = probe.peer_stats().unwrap();
    assert_eq!(report.entries, 8);
    assert_eq!(report.v2_entries, 8);
    drop(probe);

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
        Some(remote) => store.with_remote(Box::new(remote)),
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
    assert_eq!(remote.peer_stats().unwrap().entries, 8);

    // Blip: the peer dies. Two consecutive transport failures open the
    // breaker; the backend is degraded, not broken.
    server.shutdown();
    server.wait();
    assert!(remote.peer_stats().is_err());
    assert!(remote.peer_stats().is_err());
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
            .with_remote(Box::new(remote)),
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
