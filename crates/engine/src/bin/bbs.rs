//! `bbs` — run budget/buffer scenario suites from the command line.
//!
//! ```text
//! bbs run [--suite NAME | --file PATH] [--jobs N] [--no-cache]
//!         [--cache-dir DIR] [--cache-max-entries N]
//!         [--cache-max-bytes N] [--remote-store HOST:PORT]
//!         [--json PATH] [--csv PATH] [--markdown PATH] [--quiet]
//! bbs validate [--suite NAME | --file PATH] [--jobs N] [--json PATH] [--quiet]
//! bbs gen [--seed N] [--points M] [--out PATH]
//! bbs expand [--suite NAME | --file PATH] [--jobs N]
//! bbs list
//! bbs check [REPORT.json | SUITE.json | -]
//! bbs cache (stats [--json] | clear
//!           | gc [--max-entries N] [--max-age SECONDS] [--max-bytes N])
//!           [--cache-dir DIR]
//! bbs serve [--addr HOST:PORT] [--jobs N] [--queue-capacity N]
//!           [--retry-after-ms MS] [--max-sessions N] [--idle-timeout-ms MS]
//!           [--cache-dir DIR] [--cache-max-entries N] [--cache-max-bytes N]
//!           [--remote-store HOST:PORT]
//! bbs client (run | stats | shutdown | bench) --addr HOST:PORT [...]
//! ```
//!
//! `run` executes a built-in suite (default: `paper`) or a suite file,
//! prints the result tables plus a timing summary, and optionally writes the
//! machine-readable report as JSON/CSV/markdown (`-` writes to stdout).
//! Suites run on an [`Engine`] worker pool of `--jobs` threads; reports are
//! byte-identical for every `--jobs` count (CI compares them).
//! With `--cache-dir` (or the `BBS_CACHE_DIR` environment variable) solves
//! are also persisted to a content-addressed on-disk store, so later
//! invocations skip them entirely; `--cache-max-entries` (or
//! `BBS_CACHE_MAX_ENTRIES`) and `--cache-max-bytes` (or
//! `BBS_CACHE_MAX_BYTES`) bound that store's size on the write path.
//! `--remote-store` (or `BBS_REMOTE_STORE`) layers a peer `bbs serve`
//! daemon's store under the local directory as a read-through/write-behind
//! tier — misses consult the peer, fresh solves are offered back to it.
//! `bbs cache` inspects and manages the store. `expand` runs only the
//! resolve-and-expand pipeline stage and reports the work-item counts — a
//! dry run for suite files. `check` parses and
//! schema-validates a report produced by `run`. The exit code is non-zero
//! when anything failed, including scenarios with unexpectedly infeasible
//! points.
//!
//! `validate` solves a suite with post-solve replay validation forced on
//! every scenario and prints the deterministic validation summary (replayed
//! points, violations) on stdout — timings go to stderr, so the summary is
//! byte-identical across `--jobs` counts, and a
//! nonzero exit means a measured violation. `gen` emits a schema-valid
//! random suite from a seed (`bbs gen --seed 7 | bbs check` round-trips),
//! for fuzz-scale validation campaigns.
//!
//! `serve` hosts the engine as a long-lived daemon: many concurrent
//! clients share one worker pool and one cache/store through a bounded,
//! fairness-scheduled submission queue (see `bbs_engine::serve`).
//! `--idle-timeout-ms` reaps sessions whose client goes silent between
//! requests; `--remote-store` (with `--cache-dir`) layers a peer daemon's
//! store under the daemon's own, guarded by a self-healing circuit
//! breaker.
//! `client` is its counterpart: `run` submits a suite and receives a
//! report byte-identical to a local `bbs run` (`--retries` bounds
//! automatic resubmission after structured rejections, `--deadline-ms`
//! asks the server to cancel the submission if it has not finished in
//! time), `stats` fetches the machine-readable counters (the same object
//! `bbs cache stats --json` prints), `shutdown` asks the daemon to drain
//! and exit, and `bench` is a load generator driving many concurrent
//! submissions.

use bbs_engine::report::render_timing_summary;
use bbs_engine::serve::{read_reply, send_request, FaultPlan, Reply, Request, StoreReport};
use bbs_engine::suites::{builtin_suite, builtin_suite_names};
use bbs_engine::{
    generate_suite, Engine, GcPolicy, GenParams, PanicInjection, RemoteBackend, RunSettings,
    ServeConfig, Server, SolveCache, SolveStore, StatsSnapshot, Suite, SuiteOutcome, SuiteReport,
    ValidationReport,
};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage:
  bbs run [--suite NAME | --file PATH] [--jobs N] [--no-cache]
          [--cache-dir DIR] [--cache-max-entries N]
          [--cache-max-bytes N] [--remote-store HOST:PORT]
          [--json PATH] [--csv PATH] [--markdown PATH] [--quiet]
  bbs validate [--suite NAME | --file PATH] [--jobs N] [--json PATH] [--quiet]
  bbs gen [--seed N] [--points M] [--out PATH]
  bbs expand [--suite NAME | --file PATH] [--jobs N]
  bbs list
  bbs check [REPORT.json | SUITE.json | -]
  bbs cache (stats [--json] | clear
            | gc [--max-entries N] [--max-age SECONDS] [--max-bytes N])
            [--cache-dir DIR]
  bbs serve [--addr HOST:PORT] [--jobs N] [--queue-capacity N]
            [--retry-after-ms MS] [--max-sessions N] [--idle-timeout-ms MS]
            [--cache-dir DIR] [--cache-max-entries N] [--cache-max-bytes N]
            [--remote-store HOST:PORT]
  bbs client run --addr HOST:PORT [--suite NAME | --file PATH] [--jobs N]
            [--retries N] [--deadline-ms MS] [--json PATH] [--quiet]
  bbs client (stats | shutdown) --addr HOST:PORT
  bbs client bench --addr HOST:PORT [--clients N] [--requests N]
            [--suite NAME] [--jobs N]

`--json`/`--csv`/`--markdown` accept `-` for stdout. `--cache-dir` (or the
BBS_CACHE_DIR environment variable) persists solve results across runs;
`--cache-max-entries` (or BBS_CACHE_MAX_ENTRIES) and `--cache-max-bytes`
(or BBS_CACHE_MAX_BYTES) bound that store on the write path with the same
eviction `cache gc` applies. `--remote-store HOST:PORT` (or
BBS_REMOTE_STORE) layers a peer `bbs serve` daemon's store under the local
directory: misses are fetched from the peer, fresh solves offered back.
Stored results belong to the solver revision that computed them; after an
upgrade `cache stats` counts older ones as stale and `cache gc` ages them
out.
`serve` hosts the engine for many concurrent clients; `client run` fetches
a report byte-identical to a local `bbs run` of the same suite, retrying
up to `--retries` times (default 3) after structured rejections and
optionally carrying a server-enforced `--deadline-ms`. `serve
--idle-timeout-ms` reaps sessions whose client goes silent between
requests.
`validate` replays every solved mapping on the scheduler simulator and
exits nonzero on measured throughput or capacity violations; its stdout
summary is byte-identical across --jobs counts. `gen` emits
a seed-deterministic random suite (`-` or --out for the destination);
`check` accepts suite files and validation reports too, and `-` reads
stdin, so `bbs gen --seed 7 | bbs check` verifies a generated suite.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("gen") => gen(&args[1..]),
        Some("expand") => expand(&args[1..]),
        Some("list") => list(),
        Some("check") => check(&args[1..]),
        Some("cache") => cache(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bbs: {message}");
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    suite: Option<String>,
    file: Option<String>,
    jobs: usize,
    use_cache: bool,
    cache_dir: Option<String>,
    cache_max_entries: Option<u64>,
    cache_max_bytes: Option<u64>,
    remote_store: Option<String>,
    json: Option<String>,
    csv: Option<String>,
    markdown: Option<String>,
    quiet: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        suite: None,
        file: None,
        jobs: 1,
        use_cache: true,
        cache_dir: None,
        cache_max_entries: None,
        cache_max_bytes: None,
        remote_store: None,
        json: None,
        csv: None,
        markdown: None,
        quiet: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--suite" => parsed.suite = Some(value("--suite")?),
            "--file" => parsed.file = Some(value("--file")?),
            "--jobs" => {
                let raw = value("--jobs")?;
                parsed.jobs = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| (1..=64).contains(&n))
                    .ok_or_else(|| format!("--jobs must be 1..=64, got `{raw}`"))?;
            }
            "--no-cache" => parsed.use_cache = false,
            "--cache-dir" => parsed.cache_dir = Some(non_empty_dir(value("--cache-dir")?)?),
            "--cache-max-entries" => {
                let raw = value("--cache-max-entries")?;
                parsed.cache_max_entries =
                    Some(raw.parse::<u64>().map_err(|_| {
                        format!("--cache-max-entries must be a count, got `{raw}`")
                    })?);
            }
            "--cache-max-bytes" => {
                let raw = value("--cache-max-bytes")?;
                parsed.cache_max_bytes =
                    Some(raw.parse::<u64>().map_err(|_| {
                        format!("--cache-max-bytes must be a byte count, got `{raw}`")
                    })?);
            }
            "--remote-store" => parsed.remote_store = Some(value("--remote-store")?),
            "--json" => parsed.json = Some(value("--json")?),
            "--csv" => parsed.csv = Some(value("--csv")?),
            "--markdown" => parsed.markdown = Some(value("--markdown")?),
            "--quiet" => parsed.quiet = true,
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if parsed.suite.is_some() && parsed.file.is_some() {
        return Err("use either --suite or --file, not both".to_string());
    }
    Ok(parsed)
}

fn load_suite(args: &RunArgs) -> Result<Suite, String> {
    if let Some(path) = &args.file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let suite: Suite =
            serde_json::from_str(&text).map_err(|e| format!("{path} is not a suite file: {e}"))?;
        return Ok(suite);
    }
    let name = args.suite.as_deref().unwrap_or("paper");
    builtin_suite(name).ok_or_else(|| {
        format!(
            "no built-in suite `{name}`; known: {}",
            builtin_suite_names().join(", ")
        )
    })
}

/// Distinguishes concurrent writers' temp files (two `bbs client` threads,
/// or a future multi-report run) the same way the store does.
static WRITE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes a report atomically: temp file in the target directory, then
/// rename (the store's pattern). An interrupted or failed write — torn
/// down process, full disk — can never leave a truncated file at `path`;
/// readers see the old content or the new, nothing in between.
fn write_output(path: &str, contents: &str, label: &str) -> Result<(), String> {
    if path == "-" {
        print!("{contents}");
        return Ok(());
    }
    let tmp = format!(
        "{path}.tmp-{}-{}",
        std::process::id(),
        WRITE_COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let finish = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    finish.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot write {label} {path}: {e}")
    })
}

/// Rejects an empty or all-whitespace `--cache-dir` (e.g. an unset or
/// mistyped shell variable), which would otherwise be taken as a real path
/// and root the store in the current working directory.
fn non_empty_dir(dir: String) -> Result<String, String> {
    if dir.trim().is_empty() {
        Err("--cache-dir needs a non-empty path".to_string())
    } else {
        Ok(dir)
    }
}

/// The cache directory in effect: the flag wins over `BBS_CACHE_DIR`. An
/// empty or all-whitespace environment value behaves exactly like an unset
/// one — `BBS_CACHE_DIR="" bbs run` must not conjure a store out of `""`.
fn effective_cache_dir(flag: Option<&str>) -> Option<String> {
    flag.map(str::to_string)
        .or_else(|| std::env::var("BBS_CACHE_DIR").ok())
        .filter(|dir| !dir.trim().is_empty())
}

/// Fault injection from `BBS_TEST_INJECT_PANIC` (`<scenario>:<cap>`, with
/// `-` as the cap of an unswept solve) — the hook behind the panic-safety
/// integration tests and CI chaos checks. Unset or empty means none.
///
/// # Errors
///
/// A malformed spec is an error, not a silent no-op: a chaos check that
/// believes it injected a fault but did not would pass vacuously.
fn injected_panic_from_env() -> Result<Option<PanicInjection>, String> {
    let Some(raw) = std::env::var_os("BBS_TEST_INJECT_PANIC") else {
        return Ok(None);
    };
    // A non-Unicode value is malformed, not unset.
    let spec = raw
        .to_str()
        .ok_or_else(|| format!("BBS_TEST_INJECT_PANIC must be valid Unicode, got {raw:?}"))?;
    if spec.trim().is_empty() {
        return Ok(None);
    }
    parse_panic_spec(spec).map(Some)
}

fn parse_panic_spec(spec: &str) -> Result<PanicInjection, String> {
    let malformed = || format!("BBS_TEST_INJECT_PANIC must be `<scenario>:<cap|->`, got `{spec}`");
    let (scenario, cap) = spec.rsplit_once(':').ok_or_else(malformed)?;
    if scenario.is_empty() {
        return Err(malformed());
    }
    let capacity_cap = match cap {
        "-" => None,
        cap => Some(cap.parse::<u64>().map_err(|_| malformed())?),
    };
    Ok(PanicInjection {
        scenario: scenario.to_string(),
        capacity_cap,
    })
}

fn open_store(dir: &str) -> Result<SolveStore, String> {
    SolveStore::open(dir).map_err(|e| format!("cannot open cache directory {dir}: {e}"))
}

/// The automatic store size cap in effect: the flag wins over
/// `BBS_CACHE_MAX_ENTRIES`. A malformed environment value is an error, not
/// a silently unbounded store; an empty or all-whitespace one behaves like
/// an unset one.
fn effective_cache_max_entries(flag: Option<u64>) -> Result<Option<u64>, String> {
    if flag.is_some() {
        return Ok(flag);
    }
    match std::env::var("BBS_CACHE_MAX_ENTRIES") {
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => raw
            .trim()
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("BBS_CACHE_MAX_ENTRIES must be a count, got `{raw}`")),
        Err(_) => Ok(None),
    }
}

/// The automatic store byte budget in effect: the flag wins over
/// `BBS_CACHE_MAX_BYTES`, with the same malformed-is-an-error discipline
/// as [`effective_cache_max_entries`].
fn effective_cache_max_bytes(flag: Option<u64>) -> Result<Option<u64>, String> {
    if flag.is_some() {
        return Ok(flag);
    }
    match std::env::var("BBS_CACHE_MAX_BYTES") {
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => raw
            .trim()
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("BBS_CACHE_MAX_BYTES must be a byte count, got `{raw}`")),
        Err(_) => Ok(None),
    }
}

/// The remote store peer in effect: the flag wins over `BBS_REMOTE_STORE`;
/// an empty or all-whitespace value behaves like an unset one.
fn effective_remote_store(flag: Option<&str>) -> Option<String> {
    flag.map(str::to_string)
        .or_else(|| std::env::var("BBS_REMOTE_STORE").ok())
        .filter(|addr| !addr.trim().is_empty())
}

/// Builds the persistent store `run`/`validate` hang off the cache:
/// directory tier, write-path caps, then the optional remote tier.
fn configured_store(dir: &str, args: &RunArgs) -> Result<SolveStore, String> {
    let mut store = open_store(dir)?;
    if let Some(cap) = effective_cache_max_entries(args.cache_max_entries)? {
        store = store.with_max_entries(cap);
    }
    if let Some(budget) = effective_cache_max_bytes(args.cache_max_bytes)? {
        store = store.with_max_bytes(budget);
    }
    if let Some(addr) = effective_remote_store(args.remote_store.as_deref()) {
        let remote = RemoteBackend::connect(&addr)
            .map_err(|e| format!("cannot connect to remote store {addr}: {e}"))?;
        store = store.with_remote(Box::new(remote));
    }
    Ok(store)
}

fn run(args: &[String]) -> Result<(), String> {
    let args = parse_run_args(args)?;
    let suite = load_suite(&args)?;
    let settings = RunSettings {
        jobs: args.jobs,
        use_cache: args.use_cache,
        inject_panic: injected_panic_from_env()?,
        ..RunSettings::default()
    };
    let outcome = solve_suite(&args, &suite, &settings)?;
    let report = SuiteReport::from_outcome(&outcome);
    report.validate().map_err(|e| e.to_string())?;

    if let Some(path) = &args.json {
        write_output(path, &report.to_json(), "JSON report")?;
    }
    if let Some(path) = &args.csv {
        write_output(path, &report.to_csv(), "CSV report")?;
    }
    if let Some(path) = &args.markdown {
        write_output(path, &report.to_markdown(), "markdown report")?;
    }
    if !args.quiet {
        print!("{}", report.to_tables());
        print!("{}", render_timing_summary(&outcome));
    }
    check_failures(&outcome)
}

/// Solves `suite` for `run` and `validate` on an engine of `--jobs`
/// workers, against the cache tiers the flags and environment configure.
fn solve_suite(
    args: &RunArgs,
    suite: &Suite,
    settings: &RunSettings,
) -> Result<SuiteOutcome, String> {
    // `--no-cache` bypasses both tiers: without the in-memory tier there is
    // no deterministic once-per-key funnel to hang the disk tier off.
    let cache = match effective_cache_dir(args.cache_dir.as_deref()) {
        Some(dir) if args.use_cache => SolveCache::with_store(configured_store(&dir, args)?),
        _ if effective_remote_store(args.remote_store.as_deref()).is_some() => {
            return Err(
                "--remote-store needs a local cache directory (--cache-dir) and caching enabled"
                    .to_string(),
            );
        }
        _ => SolveCache::new(),
    };
    Engine::new(settings.jobs)
        .run_suite_with_cache(suite, settings, &Arc::new(cache))
        .map_err(|e| e.to_string())
}

/// Fails with the outcome's unexpected failures — not just infeasibility:
/// solver breakdowns and model errors land here too (see
/// `SuiteOutcome::unexpected_failures`).
fn check_failures(outcome: &SuiteOutcome) -> Result<(), String> {
    let failures = outcome.unexpected_failures();
    if failures.is_empty() {
        return Ok(());
    }
    let mut message = String::from("unexpected failures:");
    for (scenario, cap, error) in failures {
        let cap = cap.map(|c| format!(" cap {c}")).unwrap_or_default();
        message.push_str(&format!("\n  {scenario}{cap}: {error}"));
    }
    Err(message)
}

/// `bbs validate`: solve a suite with replay validation forced on every
/// scenario and print the deterministic summary. Replays run on the same
/// pooled workers as the solves; the stdout summary carries no wall-clock
/// data, so CI can `cmp` it across `--jobs` counts. Exit is nonzero on any
/// measured violation or unexpected solve failure.
fn validate(args: &[String]) -> Result<(), String> {
    let args = parse_run_args(args)?;
    let suite = load_suite(&args)?;
    let settings = RunSettings {
        jobs: args.jobs,
        use_cache: args.use_cache,
        validate_all: true,
        inject_panic: injected_panic_from_env()?,
        ..RunSettings::default()
    };
    let outcome = solve_suite(&args, &suite, &settings)?;
    let report = ValidationReport::from_outcome(&outcome);
    if let Some(path) = &args.json {
        write_output(path, &report.to_json(), "JSON validation report")?;
    }
    // Summary on stdout (deterministic), timings on stderr (not): piping
    // stdout through `cmp` is the CI determinism gate.
    print!("{}", report.render_summary());
    if !args.quiet {
        eprint!("{}", render_timing_summary(&outcome));
    }
    check_failures(&outcome)?;
    match report.violations() {
        0 => Ok(()),
        n => Err(format!("{n} validation violation(s)")),
    }
}

/// `bbs gen`: emit a schema-valid random suite from a seed. Byte-identical
/// for equal seeds, so generated campaigns are reproducible; `--out -`
/// (the default) writes to stdout for piping into `bbs check` or a file.
fn gen(args: &[String]) -> Result<(), String> {
    let mut params = GenParams::default();
    let mut out = "-".to_string();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => {
                let raw = value("--seed")?;
                params.seed = raw
                    .parse::<u64>()
                    .map_err(|_| format!("--seed must be an unsigned integer, got `{raw}`"))?;
            }
            "--points" => {
                let raw = value("--points")?;
                params.points = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| (1..=100_000).contains(&n))
                    .ok_or_else(|| format!("--points must be 1..=100000, got `{raw}`"))?;
            }
            "--out" => out = value("--out")?,
            other => return Err(format!("unknown flag `{other}` for `gen`\n{USAGE}")),
        }
    }
    let suite = generate_suite(&params);
    let mut json =
        serde_json::to_string_pretty(&suite).map_err(|e| format!("cannot serialise suite: {e}"))?;
    json.push('\n');
    write_output(&out, &json, "suite file")
}

/// `bbs expand`: run only the resolve-and-expand pipeline stage — on the
/// pooled workers, exactly as `run` would — and report the counts without
/// solving anything. A dry run for suite files and a smoke test for the
/// parallel expansion path.
fn expand(args: &[String]) -> Result<(), String> {
    let args = parse_run_args(args)?;
    let suite = load_suite(&args)?;
    let settings = RunSettings {
        jobs: args.jobs,
        ..RunSettings::default()
    };
    let summary = Engine::new(settings.jobs)
        .expand_suite(&suite, &settings)
        .map_err(|e| e.to_string())?;
    println!(
        "suite `{}`: expanded {} work items across {} scenarios ({} jobs)",
        suite.name,
        summary.points,
        summary.scenarios,
        settings.jobs.max(1),
    );
    Ok(())
}

fn list() -> Result<(), String> {
    for name in builtin_suite_names() {
        let suite = builtin_suite(name).expect("listed suites exist");
        let points: usize = suite
            .scenarios
            .iter()
            .map(|s| {
                s.sweep
                    .as_ref()
                    .and_then(|sweep| sweep.caps().ok())
                    .map_or(1, |caps| caps.len())
            })
            .sum();
        println!(
            "{name:<12} {:>2} scenarios, {points:>3} solve points",
            suite.scenarios.len()
        );
    }
    Ok(())
}

/// `bbs check`: parse and schema-validate a suite-report, validation-report
/// or suite file. `-` (or no argument) reads stdin, so generated suites
/// round-trip: `bbs gen --seed 7 | bbs check`.
fn check(args: &[String]) -> Result<(), String> {
    let path = match args {
        [] => "-",
        [path] => path.as_str(),
        _ => return Err(format!("`check` needs at most one path\n{USAGE}")),
    };
    let text = if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        text
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    let shown = if path == "-" { "stdin" } else { path };

    let report_error = match SuiteReport::from_json(&text) {
        Ok(report) => {
            let points: usize = report.scenarios.iter().map(|s| s.points.len()).sum();
            println!(
                "{shown}: valid schema v{} report of suite `{}` ({} scenarios, {points} points)",
                report.schema_version,
                report.suite,
                report.scenarios.len()
            );
            return Ok(());
        }
        Err(e) => e,
    };
    if let Ok(report) = ValidationReport::from_json(&text) {
        let points: usize = report.scenarios.iter().map(|s| s.points.len()).sum();
        println!(
            "{shown}: valid schema v{} validation report of suite `{}` ({} scenarios, \
             {points} points, {} violation(s))",
            report.schema_version,
            report.suite,
            report.scenarios.len(),
            report.violations()
        );
        return Ok(());
    }
    match serde_json::from_str::<Suite>(&text) {
        Ok(suite) => {
            suite.validate().map_err(|e| e.to_string())?;
            let points: usize = suite
                .scenarios
                .iter()
                .map(|s| {
                    s.sweep
                        .as_ref()
                        .and_then(|sweep| sweep.caps().ok())
                        .map_or(1, |caps| caps.len())
                })
                .sum();
            println!(
                "{shown}: valid suite `{}` ({} scenarios, {points} solve points)",
                suite.name,
                suite.scenarios.len()
            );
            Ok(())
        }
        Err(_) => Err(format!(
            "{shown} is neither a report, a validation report nor a suite: {report_error}"
        )),
    }
}

struct CacheArgs {
    action: String,
    cache_dir: Option<String>,
    max_entries: Option<u64>,
    max_age: Option<Duration>,
    max_bytes: Option<u64>,
    json: bool,
}

fn parse_cache_args(args: &[String]) -> Result<CacheArgs, String> {
    let [action, flags @ ..] = args else {
        return Err(format!("`cache` needs an action\n{USAGE}"));
    };
    if !matches!(action.as_str(), "stats" | "clear" | "gc") {
        return Err(format!(
            "unknown cache action `{action}`; known: stats, clear, gc\n{USAGE}"
        ));
    }
    let mut parsed = CacheArgs {
        action: action.clone(),
        cache_dir: None,
        max_entries: None,
        max_age: None,
        max_bytes: None,
        json: false,
    };
    let mut iter = flags.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cache-dir" => parsed.cache_dir = Some(non_empty_dir(value("--cache-dir")?)?),
            "--max-entries" if action == "gc" => {
                let raw = value("--max-entries")?;
                parsed.max_entries = Some(
                    raw.parse::<u64>()
                        .map_err(|_| format!("--max-entries must be a count, got `{raw}`"))?,
                );
            }
            "--json" if action == "stats" => parsed.json = true,
            "--max-age" if action == "gc" => {
                let raw = value("--max-age")?;
                let seconds = raw
                    .parse::<u64>()
                    .map_err(|_| format!("--max-age must be a number of seconds, got `{raw}`"))?;
                parsed.max_age = Some(Duration::from_secs(seconds));
            }
            "--max-bytes" if action == "gc" => {
                let raw = value("--max-bytes")?;
                parsed.max_bytes = Some(
                    raw.parse::<u64>()
                        .map_err(|_| format!("--max-bytes must be a byte count, got `{raw}`"))?,
                );
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` for `cache {action}`\n{USAGE}"
                ))
            }
        }
    }
    if action == "gc"
        && parsed.max_entries.is_none()
        && parsed.max_age.is_none()
        && parsed.max_bytes.is_none()
    {
        return Err("`cache gc` needs --max-entries, --max-age and/or --max-bytes".to_string());
    }
    Ok(parsed)
}

fn cache(args: &[String]) -> Result<(), String> {
    let args = parse_cache_args(args)?;
    let dir = effective_cache_dir(args.cache_dir.as_deref())
        .ok_or("no cache directory: pass --cache-dir or set BBS_CACHE_DIR")?;
    // Unlike `run` (which creates the directory to populate it), the
    // management commands refuse to conjure one up — a typo'd path should
    // error, not materialise an empty store tree.
    let store = SolveStore::open_existing(&dir)
        .map_err(|_| format!("cache directory {dir} does not exist"))?;
    match args.action.as_str() {
        "stats" => {
            let summary = store
                .summary()
                .map_err(|e| format!("cannot scan {dir}: {e}"))?;
            if args.json {
                // The same serialized shape the serve protocol's `stats`
                // request returns — one serializer, two transports. The
                // store section is all an offline CLI has; a daemon adds
                // queue/engine/cache sections.
                let snapshot = StatsSnapshot {
                    store: Some(StoreReport::from_parts(
                        store.root(),
                        summary,
                        store.stats(),
                    )),
                    ..StatsSnapshot::new()
                };
                print!("{}", snapshot.to_json());
                return Ok(());
            }
            println!("cache directory {dir}:");
            println!(
                "  {} entries ({} feasible, {} infeasible), {} bytes",
                summary.entries, summary.feasible, summary.infeasible, summary.total_bytes
            );
            println!(
                "  {} bytes logical (uncompressed), {} bytes on disk",
                summary.logical_bytes, summary.total_bytes
            );
            if summary.stale > 0 {
                println!(
                    "  {} stale entries of another solver revision (never served; \
                     `bbs cache gc` or `clear` removes them)",
                    summary.stale
                );
            }
            if summary.corrupt > 0 {
                println!(
                    "  {} corrupt or foreign-version files (ignored by lookups; `bbs cache gc` \
                     or `clear` removes them)",
                    summary.corrupt
                );
            }
        }
        "clear" => {
            let removed = store
                .clear()
                .map_err(|e| format!("cannot clear {dir}: {e}"))?;
            println!("cache directory {dir}: removed {removed} entries");
        }
        "gc" => {
            let outcome = store
                .gc(GcPolicy {
                    max_entries: args.max_entries,
                    max_age: args.max_age,
                    max_bytes: args.max_bytes,
                })
                .map_err(|e| format!("cannot gc {dir}: {e}"))?;
            println!(
                "cache directory {dir}: removed {} entries, kept {} ({} bytes)",
                outcome.removed, outcome.kept, outcome.kept_bytes
            );
            if outcome.unreadable_mtimes > 0 {
                println!(
                    "  {} entries had unreadable mtimes (treated as written now, \
                     never age-evicted)",
                    outcome.unreadable_mtimes
                );
            }
        }
        _ => unreachable!("validated by parse_cache_args"),
    }
    Ok(())
}

struct ServeArgs {
    addr: String,
    jobs: usize,
    queue_capacity: u64,
    retry_after_ms: u64,
    max_sessions: u64,
    idle_timeout_ms: Option<u64>,
    cache_dir: Option<String>,
    cache_max_entries: Option<u64>,
    cache_max_bytes: Option<u64>,
    remote_store: Option<String>,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut parsed = ServeArgs {
        addr: "127.0.0.1:0".to_string(),
        jobs: 4,
        queue_capacity: 32,
        retry_after_ms: 250,
        max_sessions: ServeConfig::default().max_sessions,
        idle_timeout_ms: None,
        cache_dir: None,
        cache_max_entries: None,
        cache_max_bytes: None,
        remote_store: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => parsed.addr = value("--addr")?,
            "--jobs" => {
                let raw = value("--jobs")?;
                parsed.jobs = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| (1..=64).contains(&n))
                    .ok_or_else(|| format!("--jobs must be 1..=64, got `{raw}`"))?;
            }
            "--queue-capacity" => {
                let raw = value("--queue-capacity")?;
                parsed.queue_capacity =
                    raw.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--queue-capacity must be at least 1, got `{raw}`")
                    })?;
            }
            "--retry-after-ms" => {
                let raw = value("--retry-after-ms")?;
                parsed.retry_after_ms = raw
                    .parse::<u64>()
                    .map_err(|_| format!("--retry-after-ms must be milliseconds, got `{raw}`"))?;
            }
            "--max-sessions" => {
                let raw = value("--max-sessions")?;
                parsed.max_sessions = raw
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--max-sessions must be at least 1, got `{raw}`"))?;
            }
            "--idle-timeout-ms" => {
                let raw = value("--idle-timeout-ms")?;
                parsed.idle_timeout_ms = Some(
                    raw.parse::<u64>()
                        .ok()
                        .filter(|&ms| ms >= 1)
                        .ok_or_else(|| {
                            format!("--idle-timeout-ms must be at least 1, got `{raw}`")
                        })?,
                );
            }
            "--cache-dir" => parsed.cache_dir = Some(non_empty_dir(value("--cache-dir")?)?),
            "--cache-max-entries" => {
                let raw = value("--cache-max-entries")?;
                parsed.cache_max_entries =
                    Some(raw.parse::<u64>().map_err(|_| {
                        format!("--cache-max-entries must be a count, got `{raw}`")
                    })?);
            }
            "--cache-max-bytes" => {
                let raw = value("--cache-max-bytes")?;
                parsed.cache_max_bytes =
                    Some(raw.parse::<u64>().map_err(|_| {
                        format!("--cache-max-bytes must be a byte count, got `{raw}`")
                    })?);
            }
            "--remote-store" => parsed.remote_store = Some(value("--remote-store")?),
            other => return Err(format!("unknown flag `{other}` for `serve`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// `bbs serve`: host the engine as a long-lived daemon (see
/// `bbs_engine::serve`). Blocks until a client sends `shutdown`.
fn serve(args: &[String]) -> Result<(), String> {
    let args = parse_serve_args(args)?;
    let remote_store = effective_remote_store(args.remote_store.as_deref());
    let store = match effective_cache_dir(args.cache_dir.as_deref()) {
        Some(dir) => {
            let mut store = open_store(&dir)?;
            if let Some(cap) = effective_cache_max_entries(args.cache_max_entries)? {
                store = store.with_max_entries(cap);
            }
            if let Some(budget) = effective_cache_max_bytes(args.cache_max_bytes)? {
                store = store.with_max_bytes(budget);
            }
            if let Some(addr) = &remote_store {
                let remote = RemoteBackend::connect(addr)
                    .map_err(|e| format!("cannot connect to remote store {addr}: {e}"))?;
                store = store.with_remote(Box::new(remote));
            }
            Some(store)
        }
        None if remote_store.is_some() => {
            return Err("--remote-store needs a local cache directory (--cache-dir)".to_string());
        }
        None => None,
    };
    let server = Server::start(ServeConfig {
        addr: args.addr,
        workers: args.jobs,
        queue_capacity: args.queue_capacity,
        retry_after_ms: args.retry_after_ms,
        max_sessions: args.max_sessions,
        store,
        idle_timeout: args.idle_timeout_ms.map(Duration::from_millis),
        faults: FaultPlan::from_env()?.unwrap_or_default(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    println!("bbs serve: listening on {}", server.addr());
    // Stdout is block-buffered when piped; scripts parse this line to learn
    // the ephemeral port, so it must leave the process before we block.
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot announce address: {e}"))?;
    server.wait();
    println!("bbs serve: shut down cleanly");
    Ok(())
}

fn client(args: &[String]) -> Result<(), String> {
    let [action, flags @ ..] = args else {
        return Err(format!("`client` needs an action\n{USAGE}"));
    };
    match action.as_str() {
        "run" => client_run(flags),
        "stats" => client_stats(flags),
        "shutdown" => client_shutdown(flags),
        "bench" => client_bench(flags),
        other => Err(format!(
            "unknown client action `{other}`; known: run, stats, shutdown, bench\n{USAGE}"
        )),
    }
}

fn connect(addr: Option<&str>) -> Result<TcpStream, String> {
    let addr = addr.ok_or("`client` needs --addr HOST:PORT")?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

fn next_reply(stream: &mut TcpStream) -> Result<Reply, String> {
    read_reply(stream)
        .map_err(|e| format!("connection failed: {e}"))?
        .ok_or_else(|| "server closed the connection early".to_string())
}

struct ClientRunArgs {
    addr: Option<String>,
    suite: Option<String>,
    file: Option<String>,
    jobs: u64,
    retries: u64,
    deadline_ms: Option<u64>,
    json: Option<String>,
    quiet: bool,
}

fn parse_client_run_args(args: &[String]) -> Result<ClientRunArgs, String> {
    let mut parsed = ClientRunArgs {
        addr: None,
        suite: None,
        file: None,
        jobs: 1,
        retries: 3,
        deadline_ms: None,
        json: None,
        quiet: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => parsed.addr = Some(value("--addr")?),
            "--suite" => parsed.suite = Some(value("--suite")?),
            "--file" => parsed.file = Some(value("--file")?),
            "--jobs" => {
                let raw = value("--jobs")?;
                parsed.jobs = raw
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| (1..=64).contains(&n))
                    .ok_or_else(|| format!("--jobs must be 1..=64, got `{raw}`"))?;
            }
            "--retries" => {
                let raw = value("--retries")?;
                parsed.retries = raw
                    .parse::<u64>()
                    .map_err(|_| format!("--retries must be a count, got `{raw}`"))?;
            }
            "--deadline-ms" => {
                let raw = value("--deadline-ms")?;
                parsed.deadline_ms = Some(
                    raw.parse::<u64>()
                        .ok()
                        .filter(|&ms| ms >= 1)
                        .ok_or_else(|| format!("--deadline-ms must be at least 1, got `{raw}`"))?,
                );
            }
            "--json" => parsed.json = Some(value("--json")?),
            "--quiet" => parsed.quiet = true,
            other => return Err(format!("unknown flag `{other}` for `client run`\n{USAGE}")),
        }
    }
    if parsed.suite.is_some() && parsed.file.is_some() {
        return Err("use either --suite or --file, not both".to_string());
    }
    Ok(parsed)
}

/// `bbs client run`: submit one suite, stream the progress, and write the
/// returned report — byte-identical to a local `bbs run --json` of the
/// same suite — with the same atomic write discipline. Structured
/// rejections are retried automatically up to `--retries` times (each
/// sleeping the server's `retry_after_ms` hint), so transient back-
/// pressure does not fail scripts; a `cancelled` reply (deadline, explicit
/// cancel) is a nonzero exit carrying the server's reason.
fn client_run(args: &[String]) -> Result<(), String> {
    let args = parse_client_run_args(args)?;
    let request = if let Some(path) = &args.file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let suite: Suite =
            serde_json::from_str(&text).map_err(|e| format!("{path} is not a suite file: {e}"))?;
        Request::run_suite(suite, args.jobs)
    } else {
        Request::run_builtin(args.suite.as_deref().unwrap_or("paper"), args.jobs)
    };
    let request = match args.deadline_ms {
        Some(ms) => request.with_deadline_ms(ms),
        None => request,
    };
    let mut stream = connect(args.addr.as_deref())?;
    send_request(&mut stream, &request).map_err(|e| format!("cannot submit: {e}"))?;
    let mut points = 0u64;
    let mut rejections = 0u64;
    loop {
        let reply = next_reply(&mut stream)?;
        match reply.kind.as_str() {
            "accepted" => {
                if !args.quiet {
                    println!(
                        "accepted as ticket {} (queue depth {})",
                        reply.ticket.unwrap_or(0),
                        reply.queue_depth.unwrap_or(0)
                    );
                }
            }
            "rejected" => {
                let reason = reply
                    .message
                    .as_deref()
                    .unwrap_or("no reason given")
                    .to_string();
                let wait = reply.retry_after_ms.unwrap_or(100);
                if rejections >= args.retries {
                    return Err(format!(
                        "submission rejected: {reason} (retry after {wait} ms; gave up after \
                         {rejections} retries)"
                    ));
                }
                rejections += 1;
                if !args.quiet {
                    println!(
                        "rejected ({reason}); retry {rejections}/{} in {wait} ms",
                        args.retries
                    );
                }
                std::thread::sleep(Duration::from_millis(wait));
                send_request(&mut stream, &request).map_err(|e| format!("cannot resubmit: {e}"))?;
            }
            "cancelled" => {
                return Err(format!(
                    "submission cancelled: {}",
                    reply.message.as_deref().unwrap_or("no reason given")
                ));
            }
            "point" => {
                points += 1;
                if !args.quiet {
                    let cap = reply
                        .capacity_cap
                        .map(|c| format!("cap {c}"))
                        .unwrap_or_else(|| "uncapped".to_string());
                    println!(
                        "  {} {}: {}",
                        reply.scenario.as_deref().unwrap_or("?"),
                        cap,
                        if reply.feasible == Some(true) {
                            "feasible"
                        } else {
                            "infeasible"
                        }
                    );
                }
            }
            "report" => {
                let text = reply.report.ok_or("report reply carried no report text")?;
                if let Some(path) = &args.json {
                    write_output(path, &text, "JSON report")?;
                }
                if !args.quiet {
                    println!("report complete: {points} points");
                }
                // A failure summary means the suite ran but some points
                // failed unexpectedly — mirror `bbs run`'s nonzero exit.
                return match reply.message {
                    None => Ok(()),
                    Some(message) => Err(message),
                };
            }
            "error" => {
                return Err(reply
                    .message
                    .unwrap_or_else(|| "server reported an error".to_string()))
            }
            other => return Err(format!("unexpected reply kind `{other}`")),
        }
    }
}

fn parse_addr_only(args: &[String], action: &str) -> Result<Option<String>, String> {
    let mut addr = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--addr" => {
                addr = Some(
                    iter.next()
                        .cloned()
                        .ok_or_else(|| "--addr needs a value".to_string())?,
                );
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` for `client {action}`\n{USAGE}"
                ))
            }
        }
    }
    Ok(addr)
}

/// `bbs client stats`: print the daemon's machine-readable counters — the
/// same object `bbs cache stats --json` prints for an offline store.
fn client_stats(args: &[String]) -> Result<(), String> {
    let addr = parse_addr_only(args, "stats")?;
    let mut stream = connect(addr.as_deref())?;
    send_request(&mut stream, &Request::stats()).map_err(|e| format!("cannot query: {e}"))?;
    let reply = next_reply(&mut stream)?;
    match (reply.kind.as_str(), reply.stats) {
        ("stats", Some(snapshot)) => {
            print!("{}", snapshot.to_json());
            Ok(())
        }
        ("error", _) => Err(reply
            .message
            .unwrap_or_else(|| "server reported an error".to_string())),
        (other, _) => Err(format!("unexpected reply kind `{other}`")),
    }
}

/// `bbs client shutdown`: ask the daemon to drain in-flight work and exit.
fn client_shutdown(args: &[String]) -> Result<(), String> {
    let addr = parse_addr_only(args, "shutdown")?;
    let mut stream = connect(addr.as_deref())?;
    send_request(&mut stream, &Request::shutdown()).map_err(|e| format!("cannot request: {e}"))?;
    let reply = next_reply(&mut stream)?;
    match reply.kind.as_str() {
        "bye" => {
            println!("server acknowledged shutdown");
            Ok(())
        }
        "error" => Err(reply
            .message
            .unwrap_or_else(|| "server reported an error".to_string())),
        other => Err(format!("unexpected reply kind `{other}`")),
    }
}

struct ClientBenchArgs {
    addr: Option<String>,
    clients: u64,
    requests: u64,
    suite: String,
    jobs: u64,
}

fn parse_client_bench_args(args: &[String]) -> Result<ClientBenchArgs, String> {
    let mut parsed = ClientBenchArgs {
        addr: None,
        clients: 8,
        requests: 4,
        suite: "smoke".to_string(),
        jobs: 1,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let count = |name: &str, raw: String| {
            raw.parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("{name} must be at least 1, got `{raw}`"))
        };
        match flag.as_str() {
            "--addr" => parsed.addr = Some(value("--addr")?),
            "--clients" => parsed.clients = count("--clients", value("--clients")?)?,
            "--requests" => parsed.requests = count("--requests", value("--requests")?)?,
            "--suite" => parsed.suite = value("--suite")?,
            "--jobs" => parsed.jobs = count("--jobs", value("--jobs")?)?.min(64),
            other => {
                return Err(format!(
                    "unknown flag `{other}` for `client bench`\n{USAGE}"
                ))
            }
        }
    }
    Ok(parsed)
}

/// `bbs client bench`: the load generator — N concurrent client
/// connections each submitting M suites through real sockets, retrying
/// after structured rejections, reporting aggregate throughput.
fn client_bench(args: &[String]) -> Result<(), String> {
    let args = parse_client_bench_args(args)?;
    let addr = args
        .addr
        .clone()
        .ok_or("`client bench` needs --addr HOST:PORT")?;
    let start = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..args.clients {
        let addr = addr.clone();
        let suite = args.suite.clone();
        let requests = args.requests;
        let jobs = args.jobs;
        handles.push(std::thread::spawn(
            move || -> Result<(u64, u64, u64), String> {
                let mut stream = connect(Some(&addr))?;
                let request = Request::run_builtin(&suite, jobs);
                let (mut completed, mut retries, mut points) = (0u64, 0u64, 0u64);
                for _ in 0..requests {
                    'submit: loop {
                        send_request(&mut stream, &request)
                            .map_err(|e| format!("cannot submit: {e}"))?;
                        loop {
                            let reply = next_reply(&mut stream)?;
                            match reply.kind.as_str() {
                                "accepted" => {}
                                "point" => points += 1,
                                "report" => {
                                    completed += 1;
                                    break 'submit;
                                }
                                "rejected" => {
                                    // Structured back-pressure: honour the
                                    // server's retry hint, then resubmit.
                                    retries += 1;
                                    std::thread::sleep(Duration::from_millis(
                                        reply.retry_after_ms.unwrap_or(100),
                                    ));
                                    continue 'submit;
                                }
                                "error" => {
                                    return Err(reply
                                        .message
                                        .unwrap_or_else(|| "server reported an error".to_string()))
                                }
                                other => return Err(format!("unexpected reply kind `{other}`")),
                            }
                        }
                    }
                }
                Ok((completed, retries, points))
            },
        ));
    }
    let (mut completed, mut retries, mut points) = (0u64, 0u64, 0u64);
    for handle in handles {
        let (c, r, p) = handle
            .join()
            .map_err(|_| "bench client thread panicked".to_string())??;
        completed += c;
        retries += r;
        points += p;
    }
    let elapsed = start.elapsed();
    println!(
        "bench: {} clients x {} submissions of `{}` against {addr}",
        args.clients, args.requests, args.suite
    );
    println!(
        "  {completed} completed ({points} points), {retries} retries after rejection, {:.2?} total",
        elapsed
    );
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        println!("  {:.1} submissions/s", completed as f64 / secs);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn run_args_parse_the_scheduler_flag() {
        // One scheduler is left, so the old switch is an unknown flag.
        assert_eq!(parse_run_args(&strings(&["--jobs", "8"])).unwrap().jobs, 8);
        let error = parse_run_args(&strings(&["--jobs", "8", "--no-steal"]))
            .err()
            .unwrap();
        assert!(error.starts_with("unknown flag `--no-steal`"), "{error}");
    }

    #[test]
    fn run_args_parse_the_executor_and_cap_flags() {
        // One executor is left, so the old switch is an unknown flag.
        let error = parse_run_args(&strings(&["--fresh-executor"]))
            .err()
            .unwrap();
        assert!(
            error.starts_with("unknown flag `--fresh-executor`"),
            "{error}"
        );
        let parsed = parse_run_args(&strings(&["--cache-max-entries", "128"])).unwrap();
        assert_eq!(parsed.cache_max_entries, Some(128));
        let default = parse_run_args(&[]).unwrap();
        assert_eq!(default.cache_max_entries, None);
        assert!(parse_run_args(&strings(&["--cache-max-entries", "lots"])).is_err());
        // The flag wins over the environment; parsing of the flag itself
        // never consults the environment.
        assert_eq!(
            effective_cache_max_entries(Some(3)).unwrap(),
            Some(3),
            "explicit flag must win"
        );
    }

    #[test]
    fn empty_or_whitespace_cache_dirs_are_rejected() {
        assert!(non_empty_dir(String::new()).is_err());
        assert!(non_empty_dir("   ".to_string()).is_err());
        assert!(non_empty_dir("\t\n".to_string()).is_err());
        assert_eq!(non_empty_dir("dir".to_string()).unwrap(), "dir");
        // A path with inner whitespace is a real path.
        assert!(non_empty_dir("my cache".to_string()).is_ok());
    }

    #[test]
    fn client_run_args_parse_retry_and_deadline_flags() {
        let parsed =
            parse_client_run_args(&strings(&["--retries", "0", "--deadline-ms", "500"])).unwrap();
        assert_eq!(parsed.retries, 0);
        assert_eq!(parsed.deadline_ms, Some(500));
        let default = parse_client_run_args(&[]).unwrap();
        assert_eq!(default.retries, 3);
        assert_eq!(default.deadline_ms, None);
        assert!(parse_client_run_args(&strings(&["--deadline-ms", "0"])).is_err());
        assert!(parse_client_run_args(&strings(&["--retries", "many"])).is_err());
    }

    #[test]
    fn serve_args_parse_the_robustness_flags() {
        let parsed = parse_serve_args(&strings(&[
            "--idle-timeout-ms",
            "250",
            "--remote-store",
            "127.0.0.1:9",
        ]))
        .unwrap();
        assert_eq!(parsed.idle_timeout_ms, Some(250));
        assert_eq!(parsed.remote_store.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(parse_serve_args(&[]).unwrap().idle_timeout_ms, None);
        assert!(parse_serve_args(&strings(&["--idle-timeout-ms", "0"])).is_err());
    }

    #[test]
    fn panic_specs_parse_or_error_loudly() {
        assert_eq!(
            parse_panic_spec("fig2a:3").unwrap(),
            PanicInjection {
                scenario: "fig2a".to_string(),
                capacity_cap: Some(3),
            }
        );
        assert_eq!(
            parse_panic_spec("solo:-").unwrap(),
            PanicInjection {
                scenario: "solo".to_string(),
                capacity_cap: None,
            }
        );
        // Scenario names may contain `:`; the cap is the last segment.
        assert_eq!(
            parse_panic_spec("a:b:1").unwrap().scenario,
            "a:b".to_string()
        );
        assert!(parse_panic_spec("no-cap").is_err());
        assert!(parse_panic_spec(":1").is_err());
        assert!(parse_panic_spec("name:notanumber").is_err());
    }
}
