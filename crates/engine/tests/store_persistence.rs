//! Integration tests of the persistent solve store: cross-process reuse,
//! corruption fallback, retention, jobs-independence, and the `bbs cache`
//! CLI surface.
//!
//! "Cross-process" is exercised two ways: by opening fresh
//! [`SolveCache`]/[`SolveStore`] pairs on one directory (each pair is what a
//! new process would build), and for the CLI tests by actually spawning the
//! `bbs` binary via `CARGO_BIN_EXE_bbs`.

use bbs_engine::suites::smoke_suite;
use bbs_engine::{
    Engine, GcPolicy, RunSettings, Scenario, SolveCache, SolveSource, SolveStore, Suite,
    SuiteOutcome, SuiteReport, SweepSpec, WorkloadSpec,
};
use bbs_taskgraph::presets::PresetSpec;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// A unique, self-cleaning scratch directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bbs-store-it-{label}-{}-{:?}",
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

fn fresh_cache(directory: &Path) -> Arc<SolveCache> {
    Arc::new(SolveCache::with_store(SolveStore::open(directory).unwrap()))
}

/// A suite mixing feasible sweeps with an expected infeasibility, so
/// persistence of both outcome kinds is exercised.
fn mixed_suite() -> Suite {
    Suite::new(
        "mixed",
        vec![
            Scenario::new(
                "pc",
                WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
            )
            .with_sweep(SweepSpec::range(1, 5)),
            Scenario::new(
                "ring-tight",
                WorkloadSpec::preset(
                    PresetSpec::named("ring")
                        .with_tasks(3)
                        .with_initial_tokens(2),
                ),
            )
            .with_sweep(SweepSpec::range(1, 3))
            .expecting_infeasible(),
        ],
    )
}

#[test]
fn second_process_is_all_disk_hits_with_an_identical_report() {
    let directory = TempDir::new("reuse");
    let settings = RunSettings::default();

    let cold_cache = fresh_cache(directory.path());
    let cold = run_cached(&mixed_suite(), &settings, &cold_cache);
    let cold_stats = cold_cache.store().unwrap().stats();
    assert_eq!(cold_stats.disk_hits, 0);
    assert_eq!(cold_stats.fresh_solves, 8, "5 pc caps + 3 ring caps");
    assert_eq!(cold_stats.stored, 8, "infeasibility is persisted too");

    let warm_cache = fresh_cache(directory.path());
    let warm = run_cached(&mixed_suite(), &settings, &warm_cache);
    let warm_stats = warm_cache.store().unwrap().stats();
    assert_eq!(warm_stats.fresh_solves, 0, "nothing solved on a warm store");
    assert_eq!(warm_stats.disk_hits, 8);
    assert_eq!(warm_stats.stored, 0);
    assert!(warm
        .scenarios
        .iter()
        .flat_map(|s| &s.points)
        .all(|p| p.source == SolveSource::Disk));

    // Same mappings, same error strings, byte-identical reports.
    let cold_report = SuiteReport::from_outcome(&cold).to_json();
    let warm_report = SuiteReport::from_outcome(&warm).to_json();
    assert_eq!(cold_report, warm_report);
    // The persisted infeasibility round-trips its exact message.
    assert_eq!(
        warm.scenarios[1].points[0].result.as_ref().unwrap_err(),
        cold.scenarios[1].points[0].result.as_ref().unwrap_err()
    );
}

#[test]
fn corrupt_and_foreign_version_entries_fall_back_to_fresh_solves() {
    let directory = TempDir::new("corrupt");
    let settings = RunSettings::default();
    let suite = smoke_suite();

    let cache = fresh_cache(directory.path());
    run_cached(&suite, &settings, &cache);
    let stored = cache.store().unwrap().stats().stored;
    assert!(stored > 0);

    // Garble one entry and stamp another with a foreign schema version —
    // decompressing and recompressing the v2 container around the edit.
    let entries = cache.store().unwrap().entries().unwrap();
    assert_eq!(entries.len() as u64, stored);
    fs::write(&entries[0].path, "{truncated garbage").unwrap();
    let text = String::from_utf8(minilz::decompress(&fs::read(&entries[1].path).unwrap()).unwrap())
        .unwrap();
    fs::write(
        &entries[1].path,
        minilz::compress(text.replace("\"schema\":2", "\"schema\":999").as_bytes()),
    )
    .unwrap();

    let recovering = fresh_cache(directory.path());
    let outcome = run_cached(&suite, &settings, &recovering);
    assert!(outcome.unexpected_failures().is_empty());
    let stats = recovering.store().unwrap().stats();
    assert_eq!(stats.disk_hits, stored - 2);
    assert_eq!(stats.fresh_solves, 2, "both bad entries were re-solved");
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.stored, 2, "and both were re-written");

    // Third run: the store healed itself.
    let healed = fresh_cache(directory.path());
    run_cached(&suite, &settings, &healed);
    assert_eq!(healed.store().unwrap().stats().fresh_solves, 0);
}

#[test]
fn reports_are_byte_identical_across_jobs_with_the_disk_tier() {
    let directory = TempDir::new("jobs");
    let suite = mixed_suite();

    // Cold, parallel.
    let parallel_cache = fresh_cache(directory.path());
    let parallel = run_cached(&suite, &RunSettings::with_jobs(8), &parallel_cache);
    // Warm, sequential — different jobs *and* different disk state.
    let sequential_cache = fresh_cache(directory.path());
    let sequential = run_cached(&suite, &RunSettings::with_jobs(1), &sequential_cache);

    let parallel_report = SuiteReport::from_outcome(&parallel);
    let sequential_report = SuiteReport::from_outcome(&sequential);
    assert_eq!(parallel_report.to_json(), sequential_report.to_json());
    // The in-memory counters embedded in the report are disk-independent...
    assert_eq!(parallel.cache, sequential.cache);
    // ...while the store counters differ exactly by the warm/cold state.
    assert_eq!(parallel.store.unwrap().fresh_solves, 8);
    assert_eq!(sequential.store.unwrap().disk_hits, 8);
}

#[test]
fn gc_retention_is_enforced() {
    let directory = TempDir::new("gc");
    let cache = fresh_cache(directory.path());
    run_cached(&mixed_suite(), &RunSettings::default(), &cache);
    let store = cache.store().unwrap();
    assert_eq!(store.summary().unwrap().entries, 8);

    let outcome = store
        .gc(GcPolicy {
            max_entries: Some(3),
            max_age: None,
            max_bytes: None,
        })
        .unwrap();
    assert_eq!(outcome.removed, 5);
    assert_eq!(outcome.kept, 3);
    assert_eq!(store.summary().unwrap().entries, 3);

    // A later run back-fills only the evicted entries.
    let refill = fresh_cache(directory.path());
    run_cached(&mixed_suite(), &RunSettings::default(), &refill);
    let stats = refill.store().unwrap().stats();
    assert_eq!(stats.disk_hits, 3);
    assert_eq!(stats.fresh_solves, 5);
    assert_eq!(refill.store().unwrap().summary().unwrap().entries, 8);
}

/// Runs the real `bbs` binary with the given arguments, returning stdout.
fn bbs(args: &[&str], env: &[(&str, &str)]) -> String {
    let mut command = Command::new(env!("CARGO_BIN_EXE_bbs"));
    command.args(args);
    for (key, value) in env {
        command.env(key, value);
    }
    let output = command.output().expect("bbs binary runs");
    assert!(
        output.status.success(),
        "bbs {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("bbs prints UTF-8")
}

#[test]
fn cli_round_trip_run_stats_gc_clear() {
    let directory = TempDir::new("cli");
    let dir = directory.path().to_str().unwrap();
    let json_cold = directory.path().join("cold.json");
    let json_warm = directory.path().join("warm.json");
    let cache_dir = directory.path().join("cache");
    let cache_dir = cache_dir.to_str().unwrap();

    let cold = bbs(
        &[
            "run",
            "--suite",
            "smoke",
            "--cache-dir",
            cache_dir,
            "--json",
            json_cold.to_str().unwrap(),
        ],
        &[],
    );
    assert!(cold.contains("/ 8 newly stored /"), "stdout: {cold}");

    // The warm run goes through BBS_CACHE_DIR instead of the flag.
    let warm = bbs(
        &[
            "run",
            "--suite",
            "smoke",
            "--json",
            json_warm.to_str().unwrap(),
        ],
        &[("BBS_CACHE_DIR", cache_dir)],
    );
    assert!(
        warm.contains("store: 8 disk hits / 0 fresh solves /"),
        "stdout: {warm}"
    );
    assert_eq!(
        fs::read_to_string(&json_cold).unwrap(),
        fs::read_to_string(&json_warm).unwrap(),
        "cold and warm reports must be byte-identical"
    );

    let stats = bbs(&["cache", "stats", "--cache-dir", cache_dir], &[]);
    assert!(stats.contains("8 entries (8 feasible, 0 infeasible)"));

    let gc = bbs(
        &[
            "cache",
            "gc",
            "--max-entries",
            "2",
            "--cache-dir",
            cache_dir,
        ],
        &[],
    );
    assert!(gc.contains("removed 6 entries, kept 2"), "stdout: {gc}");

    let cleared = bbs(&["cache", "clear", "--cache-dir", cache_dir], &[]);
    assert!(cleared.contains("removed 2 entries"), "stdout: {cleared}");
    let stats = bbs(&["cache", "stats", "--cache-dir", cache_dir], &[]);
    assert!(stats.contains("0 entries (0 feasible, 0 infeasible)"));

    // `--no-cache` must not touch the store even when the env var is set.
    let raw = bbs(
        &["run", "--suite", "smoke", "--no-cache", "--quiet"],
        &[("BBS_CACHE_DIR", dir)],
    );
    assert!(raw.is_empty());
    let stats = bbs(&["cache", "stats", "--cache-dir", dir], &[]);
    assert!(stats.contains("0 entries"), "stdout: {stats}");
}

#[test]
fn two_processes_racing_on_one_cache_dir_leave_a_consistent_store() {
    let directory = TempDir::new("race");
    let cache_dir = directory.path().join("cache");
    let cache_dir = cache_dir.to_str().unwrap();

    // Two real `bbs` processes start simultaneously on one cold store and
    // race every write. The store's claim/atomic-rename discipline must
    // keep the result indistinguishable from a serial fill.
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_bbs"))
            .args([
                "run",
                "--suite",
                "smoke",
                "--cache-dir",
                cache_dir,
                "--quiet",
            ])
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("bbs spawns")
    };
    let mut first = spawn();
    let mut second = spawn();
    assert!(first.wait().expect("first racer exits").success());
    assert!(second.wait().expect("second racer exits").success());

    let stats = bbs(&["cache", "stats", "--cache-dir", cache_dir], &[]);
    assert!(
        stats.contains("8 entries (8 feasible, 0 infeasible)"),
        "stdout: {stats}"
    );
    // A third, warm process finds every solve on disk — the racers lost
    // no entries and corrupted none.
    let warm = bbs(
        &[
            "run",
            "--suite",
            "smoke",
            "--cache-dir",
            cache_dir,
            "--json",
            "-",
            "--quiet",
        ],
        &[],
    );
    let timing = bbs(&["run", "--suite", "smoke", "--cache-dir", cache_dir], &[]);
    assert!(
        timing.contains("/ 0 fresh solves /"),
        "warm run should solve nothing, stdout: {timing}"
    );
    // And its report matches a store-free run byte for byte.
    let reference = bbs(&["run", "--suite", "smoke", "--json", "-", "--quiet"], &[]);
    assert_eq!(warm, reference);
}

#[test]
fn cache_stats_json_emits_the_shared_stats_snapshot() {
    use bbs_engine::StatsSnapshot;

    let directory = TempDir::new("stats-json");
    let cache_dir = directory.path().join("cache");
    let cache_dir = cache_dir.to_str().unwrap();
    bbs(
        &[
            "run",
            "--suite",
            "smoke",
            "--cache-dir",
            cache_dir,
            "--quiet",
        ],
        &[],
    );

    let text = bbs(&["cache", "stats", "--json", "--cache-dir", cache_dir], &[]);
    // The output is the serve protocol's stats object — same serializer,
    // same schema — restricted to the store section an offline CLI has.
    let snapshot = StatsSnapshot::from_json(&text).expect("stats --json parses");
    // Schema 3 added the session-reap and remote-breaker counters.
    assert_eq!(snapshot.schema, 3);
    assert!(snapshot.queue.is_none());
    assert!(snapshot.engine.is_none());
    assert!(snapshot.cache.is_none());
    assert!(snapshot.sessions.is_none());
    let store = snapshot.store.expect("store section present");
    assert_eq!(store.entries, 8);
    assert_eq!(store.feasible, 8);
    assert_eq!(store.infeasible, 0);
    assert_eq!(store.corrupt, 0);
    assert!(store.total_bytes > 0);
    assert!(store.directory.ends_with("cache"));
    // A freshly-written store is all-v2, and the logical (uncompressed)
    // size is tracked separately from the on-disk size.
    assert_eq!(store.v1_entries, 0);
    assert_eq!(store.v2_entries, 8);
    assert!(store.logical_bytes > 0);
    // This invocation only scanned; it moved no traffic.
    assert_eq!(store.disk_hits, 0);
    assert_eq!(store.fresh_solves, 0);
    assert_eq!(store.stored, 0);
    assert_eq!(store.remote_hits, 0);
}
