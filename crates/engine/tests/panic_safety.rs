//! Panic safety and executor integration tests, driven through the real
//! `bbs` binary (`CARGO_BIN_EXE_bbs`).
//!
//! The contract under test: a panicking solve is a *per-point* error — the
//! run completes, every other point solves, the report stays schema-valid
//! and `--jobs`-deterministic — and the process exits non-zero because a
//! panic is an unexpected failure, never an expected infeasibility. Faults
//! are injected through `BBS_TEST_FAULT_PLAN`, the one fault hook of every
//! command.

use bbs_engine::SuiteReport;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// The fault-plan variable every `bbs` command reads.
const PLAN: &str = "BBS_TEST_FAULT_PLAN";

/// A unique, self-cleaning scratch directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bbs-panic-it-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("scratch directory");
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

/// Runs the real `bbs` binary without asserting on its exit status.
fn bbs_raw(args: &[&str], env: &[(&str, &str)], cwd: Option<&Path>) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_bbs"));
    command.args(args);
    for (key, value) in env {
        command.env(key, value);
    }
    if let Some(cwd) = cwd {
        command.current_dir(cwd);
    }
    command.output().expect("bbs binary runs")
}

#[test]
fn injected_panic_is_a_per_point_error_not_an_abort() {
    let directory = TempDir::new("inject");
    let report_path = directory.path().join("faulted.json");
    let output = bbs_raw(
        &[
            "run",
            "--suite",
            "smoke",
            "--jobs",
            "4",
            "--json",
            report_path.to_str().unwrap(),
            "--quiet",
        ],
        &[(PLAN, "panic-solve:smoke-pc:2")],
        None,
    );
    // The run completes and reports the panic as an unexpected failure.
    assert!(
        !output.status.success(),
        "a panicked point is an unexpected failure"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unexpected failures") && stderr.contains("smoke-pc cap 2"),
        "stderr: {stderr}"
    );

    // The report was still written, is schema-valid, and localises the
    // fault to exactly the addressed point.
    let report = SuiteReport::from_json(&fs::read_to_string(&report_path).unwrap()).unwrap();
    for scenario in &report.scenarios {
        for point in &scenario.points {
            if scenario.scenario == "smoke-pc" && point.capacity_cap == Some(2) {
                assert!(!point.feasible);
                let error = point.error.as_deref().unwrap();
                assert!(error.contains("panicked"), "error: {error}");
            } else {
                assert!(
                    point.feasible,
                    "{} cap {:?} must still solve",
                    scenario.scenario, point.capacity_cap
                );
            }
        }
    }
}

#[test]
fn faulted_reports_stay_jobs_deterministic() {
    let directory = TempDir::new("inject-jobs");
    let mut reports = Vec::new();
    for jobs in ["1", "16"] {
        let path = directory.path().join(format!("j{jobs}.json"));
        let args = [
            "run",
            "--suite",
            "smoke",
            "--jobs",
            jobs,
            "--json",
            path.to_str().unwrap(),
            "--quiet",
        ];
        let output = bbs_raw(&args, &[(PLAN, "panic-solve:smoke-chain:6")], None);
        assert!(!output.status.success());
        reports.push(fs::read_to_string(&path).unwrap());
    }
    assert_eq!(reports[0], reports[1], "jobs 1 vs 16 under a panic");
}

#[test]
fn malformed_panic_spec_fails_loudly() {
    let output = bbs_raw(
        &["run", "--suite", "smoke", "--quiet"],
        &[(PLAN, "panic-solve:missing-a-cap")],
        None,
    );
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains(PLAN));
}

#[test]
fn a_directive_only_a_daemon_applies_is_refused_by_run() {
    let output = bbs_raw(
        &["run", "--suite", "smoke", "--quiet"],
        &[(PLAN, "drop-reply:1")],
        None,
    );
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(PLAN) && stderr.contains("drop-reply"),
        "stderr: {stderr}"
    );
}

#[test]
fn a_stalled_solve_slows_the_run_but_not_its_report() {
    let directory = TempDir::new("stall");
    let run = |name: &str, plan: &str| {
        let path = directory.path().join(name);
        let args = [
            "run",
            "--suite",
            "smoke",
            "--json",
            path.to_str().unwrap(),
            "--quiet",
        ];
        let started = Instant::now();
        let output = bbs_raw(&args, &[(PLAN, plan)], None);
        let elapsed = started.elapsed();
        assert!(
            output.status.success(),
            "{plan}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        (fs::read(&path).unwrap(), elapsed)
    };
    let (clean, _) = run("clean.json", "");
    let (stalled, elapsed) = run("stalled.json", "stall-solve:smoke-pc:2:300");
    assert!(elapsed >= Duration::from_millis(300), "took {elapsed:?}");
    assert_eq!(stalled, clean, "a stall changes no report byte");
}

#[test]
fn panic_spec_matching_no_point_fails_loudly() {
    // A well-formed spec that addresses a nonexistent point must error,
    // not run the suite cleanly and let the chaos check pass vacuously.
    for spec in [
        "panic-solve:no-such-scenario:1",
        "panic-solve:smoke-pc:99",
        "panic-solve:smoke-pc:-",
    ] {
        let output = bbs_raw(
            &["run", "--suite", "smoke", "--quiet"],
            &[(PLAN, spec)],
            None,
        );
        assert!(!output.status.success(), "spec {spec} must fail");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("matches no work item"),
            "spec {spec} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}

#[test]
fn blank_cache_env_behaves_like_unset() {
    // `BBS_CACHE_DIR=""` (an unset shell variable) and whitespace-only
    // values must not be taken as real paths: the run uses no store and
    // creates nothing in the working directory.
    for blank in ["", "   ", "\t"] {
        let cwd = TempDir::new("blank-env");
        let output = bbs_raw(
            &["run", "--suite", "smoke", "--quiet"],
            &[("BBS_CACHE_DIR", blank)],
            Some(cwd.path()),
        );
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            !stdout.contains("store:"),
            "no store tier may be attached: {stdout}"
        );
        let leftovers: Vec<_> = fs::read_dir(cwd.path())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(
            leftovers.is_empty(),
            "a blank BBS_CACHE_DIR={blank:?} materialised {leftovers:?}"
        );

        // Management commands agree: a blank env var means *no* directory.
        let stats = bbs_raw(
            &["cache", "stats"],
            &[("BBS_CACHE_DIR", blank)],
            Some(cwd.path()),
        );
        assert!(!stats.status.success());
        assert!(String::from_utf8_lossy(&stats.stderr).contains("no cache directory"));
    }
}

#[test]
fn pool_line_reports_workers_and_caught_panics() {
    // The `pool:` timing line is the only place the executor shows: how
    // many threads drained the solves and how many panics they caught. It
    // sits outside the report, which stays byte-identical across `--jobs`.
    let directory = TempDir::new("pool-line");
    let mut reports = Vec::new();
    for (jobs, inject, expected) in [
        ("1", "", "pool: 1 workers / 0 caught panics\n"),
        ("4", "", "pool: 4 workers / 0 caught panics\n"),
        (
            "4",
            "panic-solve:smoke-pc:2",
            "pool: 4 workers / 1 caught panics\n",
        ),
    ] {
        let path = directory
            .path()
            .join(format!("j{jobs}-{}.json", inject.len()));
        let output = bbs_raw(
            &[
                "run",
                "--suite",
                "smoke",
                "--jobs",
                jobs,
                "--json",
                path.to_str().unwrap(),
            ],
            &[(PLAN, inject)],
            None,
        );
        assert_eq!(output.status.success(), inject.is_empty());
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(expected), "--jobs {jobs}: {stdout}");
        if inject.is_empty() {
            reports.push(fs::read_to_string(&path).unwrap());
        }
    }
    assert_eq!(reports[0], reports[1], "the report never learns --jobs");
}
