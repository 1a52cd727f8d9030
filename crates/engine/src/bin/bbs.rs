//! `bbs` — run budget/buffer scenario suites from the command line.
//!
//! `bbs --help` lists every command with the flags it accepts. Each flag is
//! declared once below (name, value, range, environment variable) and each
//! command lists the flags it reads; the parser, the environment overlay
//! and the help text all read that one table, so a command accepts exactly
//! the flags it reads.
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
//! `bbs cache` inspects and manages the store. `expand` resolves the suite
//! and mints its work items without solving, and reports the counts — a
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
//! submissions. A client gives up on a reply after 5 s, except on a run's
//! result: that waits as long as the run takes, or with `--deadline-ms D`
//! until D ms plus 5 s after the submission was accepted.

use bbs_engine::report::render_timing_summary;
use bbs_engine::serve::{
    read_reply, read_reply_within, send_request, FaultPlan, Reply, Request, StoreReport,
    FAULT_PLAN_ENV,
};
use bbs_engine::suites::{builtin_suite, builtin_suite_names};
use bbs_engine::{
    generate_suite, Engine, GcPolicy, GenParams, RemoteBackend, RunSettings, ServeConfig, Server,
    SolveCache, SolveFault, SolveStore, StatsSnapshot, Suite, SuiteOutcome, SuiteReport,
    ValidationReport,
};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a flag's value must be. Every given value and every environment
/// fallback is checked against it before the command runs.
#[derive(PartialEq)]
enum Kind {
    /// Takes no value.
    Switch,
    /// A path, address or name; blank is refused.
    Text,
    /// An unsigned integer in `min..=max`.
    Count { min: u64, max: u64 },
}

/// One command-line flag, declared once for every command that reads it.
#[derive(PartialEq)]
struct Flag {
    name: &'static str,
    /// The value's placeholder in the synopsis; empty for a switch.
    meta: &'static str,
    kind: Kind,
    /// Consulted when the flag is absent; a blank value means unset.
    env: Option<&'static str>,
    /// A command that lists the flag cannot run without it.
    required: bool,
}

const fn flag(name: &'static str, meta: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        meta,
        kind,
        env: None,
        required: false,
    }
}

const fn switch(name: &'static str) -> Flag {
    flag(name, "", Kind::Switch)
}

const fn text(name: &'static str, meta: &'static str) -> Flag {
    flag(name, meta, Kind::Text)
}

const fn count(name: &'static str, meta: &'static str, min: u64, max: u64) -> Flag {
    flag(name, meta, Kind::Count { min, max })
}

const SUITE: Flag = text("--suite", "NAME");
const FILE: Flag = text("--file", "PATH");
const JOBS: Flag = count("--jobs", "N", 1, 64);
const NO_CACHE: Flag = switch("--no-cache");
const CACHE_DIR: Flag = Flag {
    env: Some("BBS_CACHE_DIR"),
    ..text("--cache-dir", "DIR")
};
const CACHE_MAX_ENTRIES: Flag = Flag {
    env: Some("BBS_CACHE_MAX_ENTRIES"),
    ..count("--cache-max-entries", "N", 0, u64::MAX)
};
const CACHE_MAX_BYTES: Flag = Flag {
    env: Some("BBS_CACHE_MAX_BYTES"),
    ..count("--cache-max-bytes", "N", 0, u64::MAX)
};
const REMOTE_STORE: Flag = Flag {
    env: Some("BBS_REMOTE_STORE"),
    ..text("--remote-store", "HOST:PORT")
};
/// Where `run`, `validate` and `client run` write the JSON report.
const JSON: Flag = text("--json", "PATH");
const CSV: Flag = text("--csv", "PATH");
const MARKDOWN: Flag = text("--markdown", "PATH");
const QUIET: Flag = switch("--quiet");
const SEED: Flag = count("--seed", "N", 0, u64::MAX);
const POINTS: Flag = count("--points", "M", 1, 100_000);
const OUT: Flag = text("--out", "PATH");
/// `cache stats` prints the stats object as JSON.
const STATS_JSON: Flag = switch("--json");
const MAX_ENTRIES: Flag = count("--max-entries", "N", 0, u64::MAX);
const MAX_AGE: Flag = count("--max-age", "SECONDS", 0, u64::MAX);
const MAX_BYTES: Flag = count("--max-bytes", "N", 0, u64::MAX);
/// The address `serve` listens on.
const LISTEN_ADDR: Flag = text("--addr", "HOST:PORT");
/// The daemon a `client` command talks to.
const SERVER_ADDR: Flag = Flag {
    required: true,
    ..text("--addr", "HOST:PORT")
};
const QUEUE_CAPACITY: Flag = count("--queue-capacity", "N", 1, u64::MAX);
const RETRY_AFTER_MS: Flag = count("--retry-after-ms", "MS", 0, u64::MAX);
const MAX_SESSIONS: Flag = count("--max-sessions", "N", 1, u64::MAX);
const IDLE_TIMEOUT_MS: Flag = count("--idle-timeout-ms", "MS", 1, u64::MAX);
const RETRIES: Flag = count("--retries", "N", 0, u64::MAX);
const DEADLINE_MS: Flag = count("--deadline-ms", "MS", 1, u64::MAX);
/// `client bench` spawns one thread per client.
const CLIENTS: Flag = count("--clients", "N", 1, 1024);
const REQUESTS: Flag = count("--requests", "N", 1, u64::MAX);

/// One command line: the words that pick it, the flags it reads, its
/// positional operand, and its body.
struct Command {
    words: &'static [&'static str],
    flags: &'static [&'static Flag],
    operand: Option<&'static str>,
    run: fn(&Args) -> Result<(), String>,
}

const fn command(
    words: &'static [&'static str],
    flags: &'static [&'static Flag],
    run: fn(&Args) -> Result<(), String>,
) -> Command {
    Command {
        words,
        flags,
        operand: None,
        run,
    }
}

const COMMANDS: &[Command] = &[
    command(
        &["run"],
        &[
            &SUITE,
            &FILE,
            &JOBS,
            &NO_CACHE,
            &CACHE_DIR,
            &CACHE_MAX_ENTRIES,
            &CACHE_MAX_BYTES,
            &REMOTE_STORE,
            &JSON,
            &CSV,
            &MARKDOWN,
            &QUIET,
        ],
        run,
    ),
    command(
        &["validate"],
        &[
            &SUITE,
            &FILE,
            &JOBS,
            &NO_CACHE,
            &CACHE_DIR,
            &CACHE_MAX_ENTRIES,
            &CACHE_MAX_BYTES,
            &REMOTE_STORE,
            &JSON,
            &QUIET,
        ],
        validate,
    ),
    command(&["gen"], &[&SEED, &POINTS, &OUT], gen),
    command(&["expand"], &[&SUITE, &FILE, &JOBS], expand),
    command(&["list"], &[], list),
    Command {
        operand: Some("[REPORT.json | SUITE.json | -]"),
        ..command(&["check"], &[], check)
    },
    command(&["cache", "stats"], &[&STATS_JSON, &CACHE_DIR], cache_stats),
    command(&["cache", "clear"], &[&CACHE_DIR], cache_clear),
    command(
        &["cache", "gc"],
        &[&MAX_ENTRIES, &MAX_AGE, &MAX_BYTES, &CACHE_DIR],
        cache_gc,
    ),
    command(
        &["serve"],
        &[
            &LISTEN_ADDR,
            &JOBS,
            &QUEUE_CAPACITY,
            &RETRY_AFTER_MS,
            &MAX_SESSIONS,
            &IDLE_TIMEOUT_MS,
            &CACHE_DIR,
            &CACHE_MAX_ENTRIES,
            &CACHE_MAX_BYTES,
            &REMOTE_STORE,
        ],
        serve,
    ),
    command(
        &["client", "run"],
        &[
            &SERVER_ADDR,
            &SUITE,
            &FILE,
            &JOBS,
            &RETRIES,
            &DEADLINE_MS,
            &JSON,
            &QUIET,
        ],
        client_run,
    ),
    command(&["client", "stats"], &[&SERVER_ADDR], client_stats),
    command(&["client", "shutdown"], &[&SERVER_ADDR], client_shutdown),
    command(
        &["client", "bench"],
        &[&SERVER_ADDR, &CLIENTS, &REQUESTS, &SUITE, &JOBS],
        client_bench,
    ),
];

/// What `bbs --help` says after the synopses.
const NOTES: &str = "\
`--suite` and `--file` exclude each other; without either, `client bench`
submits `smoke` and every other command takes `paper`.
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
optionally carrying a server-enforced `--deadline-ms`. A client gives up
on a reply after 5 s; a run's result may take as long as the run, or
`--deadline-ms` plus 5 s. `serve --idle-timeout-ms` reaps sessions whose
client goes silent between requests.
`validate` replays every solved mapping on the scheduler simulator and
exits nonzero on measured throughput or capacity violations; its stdout
summary is byte-identical across --jobs counts. `gen` emits
a seed-deterministic random suite (`-` or --out for the destination);
`check` accepts suite files and validation reports too, and `-` reads
stdin, so `bbs gen --seed 7 | bbs check` verifies a generated suite.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        args.first().map(String::as_str),
        Some("--help" | "-h" | "help")
    ) {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let env = |name: &str| std::env::var(name).ok();
    match parse(&args, &env).and_then(|args| (args.command.run)(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bbs: {message}");
            ExitCode::FAILURE
        }
    }
}

/// One synopsis per command, from the table, then the notes.
fn usage() -> String {
    let synopses: Vec<String> = COMMANDS.iter().map(Command::synopsis).collect();
    format!("usage:\n{}\n\n{NOTES}", synopses.join("\n"))
}

impl Command {
    fn name(&self) -> String {
        self.words.join(" ")
    }

    /// `  bbs WORDS OPERAND FLAGS…`, wrapped under the first flag; a
    /// required flag has no brackets.
    fn synopsis(&self) -> String {
        let flags = self.flags.iter().map(|flag| {
            let spelled = format!("{} {}", flag.name, flag.meta)
                .trim_end()
                .to_string();
            if flag.required {
                spelled
            } else {
                format!("[{spelled}]")
            }
        });
        let mut synopsis = format!("  bbs {}", self.name());
        let indent = synopsis.len();
        let mut width = indent;
        for item in self.operand.map(str::to_string).into_iter().chain(flags) {
            if width > indent && width + 1 + item.len() > 78 {
                synopsis.push('\n');
                synopsis.push_str(&" ".repeat(indent));
                width = indent;
            }
            synopsis.push(' ');
            synopsis.push_str(&item);
            width += 1 + item.len();
        }
        synopsis
    }
}

impl Flag {
    /// Checks `raw`, given for this flag by `source` (the flag or its
    /// environment variable), against the flag's kind.
    fn check(&self, source: &str, raw: &str) -> Result<String, String> {
        match self.kind {
            Kind::Switch => Ok(String::new()),
            Kind::Text if raw.trim().is_empty() => Err(format!("{source} needs a non-empty value")),
            Kind::Text => Ok(raw.to_string()),
            Kind::Count { min, max } => raw
                .parse::<u64>()
                .ok()
                .filter(|n| (min..=max).contains(n))
                .map(|n| n.to_string())
                .ok_or_else(|| {
                    let range = match (min, max) {
                        (0, u64::MAX) => "an unsigned integer".to_string(),
                        (min, u64::MAX) => format!("at least {min}"),
                        (min, max) => format!("{min}..={max}"),
                    };
                    format!("{source} must be {range}, got `{raw}`")
                }),
        }
    }
}

/// A checked command line: the command, each flag's value (the last of a
/// repeated flag, else its environment fallback) and the operand.
struct Args {
    command: &'static Command,
    values: HashMap<&'static str, String>,
    operand: Option<String>,
}

impl Args {
    fn text(&self, flag: &Flag) -> Option<&str> {
        debug_assert!(
            self.command.flags.contains(&flag),
            "`{}` reads {} without listing it",
            self.command.name(),
            flag.name
        );
        self.values.get(flag.name).map(String::as_str)
    }

    fn switch(&self, flag: &Flag) -> bool {
        self.text(flag).is_some()
    }

    fn count(&self, flag: &Flag) -> Option<u64> {
        self.text(flag)
            .map(|n| n.parse().expect("parse stores checked counts"))
    }
}

/// Parses `args` (without the program name) against the table; `env` looks
/// up the environment fallbacks (`main` passes the process environment).
///
/// # Errors
///
/// An unknown command or action, a flag the command does not list, a
/// missing, blank or out-of-range value, a malformed environment fallback,
/// or a missing required flag.
fn parse(args: &[String], env: &dyn Fn(&str) -> Option<String>) -> Result<Args, String> {
    let command = pick(args)?;
    let mut parsed = Args {
        command,
        values: HashMap::new(),
        operand: None,
    };
    let mut rest = args[command.words.len()..].iter();
    while let Some(arg) = rest.next() {
        let Some(flag) = command.flags.iter().find(|flag| flag.name == arg.as_str()) else {
            if command.operand.is_none() || parsed.operand.is_some() {
                return Err(format!(
                    "unknown flag `{arg}` for `{}`\n{}",
                    command.name(),
                    usage()
                ));
            }
            parsed.operand = Some(arg.clone());
            continue;
        };
        let raw = match flag.kind {
            Kind::Switch => "",
            _ => rest
                .next()
                .ok_or_else(|| format!("{} needs a value", flag.name))?,
        };
        parsed.values.insert(flag.name, flag.check(flag.name, raw)?);
    }
    for flag in command.flags {
        let Some(var) = flag.env else { continue };
        if parsed.values.contains_key(flag.name) {
            continue;
        }
        // A blank value (an unset or mistyped shell variable) means unset.
        let Some(raw) = env(var).filter(|raw| !raw.trim().is_empty()) else {
            continue;
        };
        let raw = match flag.kind {
            Kind::Count { .. } => raw.trim(),
            _ => raw.as_str(),
        };
        parsed.values.insert(flag.name, flag.check(var, raw)?);
    }
    let missing = command
        .flags
        .iter()
        .find(|flag| flag.required && !parsed.values.contains_key(flag.name));
    if let Some(flag) = missing {
        return Err(format!(
            "`{}` needs {} {}",
            command.name(),
            flag.name,
            flag.meta
        ));
    }
    Ok(parsed)
}

/// The command whose words `args` starts with.
fn pick(args: &[String]) -> Result<&'static Command, String> {
    let named = |command: &&Command| {
        args.get(..command.words.len()).is_some_and(|head| {
            head.iter()
                .map(String::as_str)
                .eq(command.words.iter().copied())
        })
    };
    if let Some(command) = COMMANDS.iter().find(named) {
        return Ok(command);
    }
    let Some(first) = args.first() else {
        return Err(usage());
    };
    let actions: Vec<&str> = COMMANDS
        .iter()
        .filter(|command| command.words.len() > 1 && command.words[0] == first.as_str())
        .map(|command| command.words[1])
        .collect();
    let known = actions.join(", ");
    let message = match args.get(1) {
        _ if actions.is_empty() => format!("unknown command `{first}`"),
        Some(action) => format!("unknown {first} action `{action}`; known: {known}"),
        None => format!("`{first}` needs an action; known: {known}"),
    };
    Err(format!("{message}\n{}", usage()))
}

/// The suite file `--file` names, if any.
fn suite_file(args: &Args) -> Result<Option<Suite>, String> {
    if args.text(&SUITE).is_some() && args.text(&FILE).is_some() {
        return Err("use either --suite or --file, not both".to_string());
    }
    let Some(path) = args.text(&FILE) else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| format!("{path} is not a suite file: {e}"))
}

fn load_suite(args: &Args) -> Result<Suite, String> {
    if let Some(suite) = suite_file(args)? {
        return Ok(suite);
    }
    let name = args.text(&SUITE).unwrap_or("paper");
    builtin_suite(name).ok_or_else(|| {
        format!(
            "no built-in suite `{name}`; known: {}",
            builtin_suite_names().join(", ")
        )
    })
}

fn jobs(args: &Args) -> usize {
    args.count(&JOBS).map_or(1, |n| n as usize)
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

/// The solve fault `BBS_TEST_FAULT_PLAN` injects into `run` and
/// `validate` — the hook behind the panic-safety integration tests and CI
/// chaos checks. Unset or empty means none.
///
/// # Errors
///
/// A malformed plan, or one holding a directive only a daemon can apply,
/// is an error, not a silent no-op: a chaos check that believes it
/// injected a fault but did not would pass vacuously.
fn solve_fault_from_env() -> Result<Option<SolveFault>, String> {
    let Some(plan) = FaultPlan::from_env()? else {
        return Ok(None);
    };
    plan.solve_fault_only()
        .map_err(|e| format!("{FAULT_PLAN_ENV}: {e}"))
}

/// The persistent store of `run`, `validate` and `serve`, if the flags or
/// environment name a directory: directory tier, write-path caps, then the
/// optional remote tier.
fn configured_store(args: &Args) -> Result<Option<SolveStore>, String> {
    let remote = args.text(&REMOTE_STORE);
    let Some(dir) = args.text(&CACHE_DIR) else {
        return match remote {
            Some(_) => {
                Err("--remote-store needs a local cache directory (--cache-dir)".to_string())
            }
            None => Ok(None),
        };
    };
    let mut store =
        SolveStore::open(dir).map_err(|e| format!("cannot open cache directory {dir}: {e}"))?;
    if let Some(cap) = args.count(&CACHE_MAX_ENTRIES) {
        store = store.with_max_entries(cap);
    }
    if let Some(budget) = args.count(&CACHE_MAX_BYTES) {
        store = store.with_max_bytes(budget);
    }
    if let Some(addr) = remote {
        let remote = RemoteBackend::connect(addr)
            .map_err(|e| format!("cannot connect to remote store {addr}: {e}"))?;
        store = store.with_remote(remote);
    }
    Ok(Some(store))
}

fn run(args: &Args) -> Result<(), String> {
    let outcome = solve_suite(args, false)?;
    let report = SuiteReport::from_outcome(&outcome);
    report.validate().map_err(|e| e.to_string())?;

    if let Some(path) = args.text(&JSON) {
        write_output(path, &report.to_json(), "JSON report")?;
    }
    if let Some(path) = args.text(&CSV) {
        write_output(path, &report.to_csv(), "CSV report")?;
    }
    if let Some(path) = args.text(&MARKDOWN) {
        write_output(path, &report.to_markdown(), "markdown report")?;
    }
    if !args.switch(&QUIET) {
        print!("{}", report.to_tables());
        print!("{}", render_timing_summary(&outcome));
    }
    check_failures(&outcome)
}

/// Solves the suite the flags name for `run` and `validate` (which forces
/// replay validation on) on an engine of `--jobs` workers, against the
/// cache tiers the flags and environment configure.
fn solve_suite(args: &Args, validate_all: bool) -> Result<SuiteOutcome, String> {
    let suite = load_suite(args)?;
    let settings = RunSettings {
        jobs: jobs(args),
        use_cache: !args.switch(&NO_CACHE),
        validate_all,
        fault: solve_fault_from_env()?,
        ..RunSettings::default()
    };
    // `--no-cache` bypasses both tiers: without the in-memory tier there is
    // no deterministic once-per-key funnel to hang the disk tier off.
    let store = if settings.use_cache {
        configured_store(args)?
    } else if args.text(&REMOTE_STORE).is_some() {
        return Err("--remote-store needs caching enabled".to_string());
    } else {
        None
    };
    let cache = store.map_or_else(SolveCache::new, SolveCache::with_store);
    Engine::new(settings.jobs)
        .run_suite_with_cache(&suite, &settings, &Arc::new(cache))
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
/// engine threads as the solves; the stdout summary carries no wall-clock
/// data, so CI can `cmp` it across `--jobs` counts. Exit is nonzero on any
/// measured violation or unexpected solve failure.
fn validate(args: &Args) -> Result<(), String> {
    let outcome = solve_suite(args, true)?;
    let report = ValidationReport::from_outcome(&outcome);
    if let Some(path) = args.text(&JSON) {
        write_output(path, &report.to_json(), "JSON validation report")?;
    }
    // Summary on stdout (deterministic), timings on stderr (not): piping
    // stdout through `cmp` is the CI determinism gate.
    print!("{}", report.render_summary());
    if !args.switch(&QUIET) {
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
fn gen(args: &Args) -> Result<(), String> {
    let defaults = GenParams::default();
    let params = GenParams {
        seed: args.count(&SEED).unwrap_or(defaults.seed),
        points: args.count(&POINTS).map_or(defaults.points, |n| n as usize),
    };
    let suite = generate_suite(&params);
    let mut json =
        serde_json::to_string_pretty(&suite).map_err(|e| format!("cannot serialise suite: {e}"))?;
    json.push('\n');
    write_output(args.text(&OUT).unwrap_or("-"), &json, "suite file")
}

/// `bbs expand`: resolve the suite and mint every work item — as one
/// cursor job on an engine of `--jobs` workers, through the same minting a
/// run's solve job calls — and report the counts without solving anything.
/// A dry run for suite files and a smoke test for the parallel minting
/// path.
fn expand(args: &Args) -> Result<(), String> {
    let suite = load_suite(args)?;
    let jobs = jobs(args);
    let summary = Engine::new(jobs)
        .expand_suite(&suite, &RunSettings::with_jobs(jobs))
        .map_err(|e| e.to_string())?;
    println!(
        "suite `{}`: expanded {} work items across {} scenarios ({jobs} jobs)",
        suite.name, summary.points, summary.scenarios,
    );
    Ok(())
}

/// Solve points of a suite: one per cap of a swept scenario, else one.
fn solve_points(suite: &Suite) -> usize {
    suite
        .scenarios
        .iter()
        .map(|s| {
            s.sweep
                .as_ref()
                .and_then(|sweep| sweep.caps().ok())
                .map_or(1, |caps| caps.len())
        })
        .sum()
}

fn list(_: &Args) -> Result<(), String> {
    for name in builtin_suite_names() {
        let suite = builtin_suite(name).expect("listed suites exist");
        println!(
            "{name:<12} {:>2} scenarios, {:>3} solve points",
            suite.scenarios.len(),
            solve_points(&suite)
        );
    }
    Ok(())
}

/// `bbs check`: parse and schema-validate a suite-report, validation-report
/// or suite file. `-` (or no argument) reads stdin, so generated suites
/// round-trip: `bbs gen --seed 7 | bbs check`.
fn check(args: &Args) -> Result<(), String> {
    let path = args.operand.as_deref().unwrap_or("-");
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
            println!(
                "{shown}: valid suite `{}` ({} scenarios, {} solve points)",
                suite.name,
                suite.scenarios.len(),
                solve_points(&suite)
            );
            Ok(())
        }
        Err(_) => Err(format!(
            "{shown} is neither a report, a validation report nor a suite: {report_error}"
        )),
    }
}

/// The store `bbs cache` manages and its directory. Unlike `run` (which
/// creates the directory to populate it), the management commands refuse
/// to conjure one up — a typo'd path should error, not materialise an
/// empty store tree.
fn existing_store(args: &Args) -> Result<(SolveStore, &str), String> {
    let dir = args
        .text(&CACHE_DIR)
        .ok_or("no cache directory: pass --cache-dir or set BBS_CACHE_DIR")?;
    let store = SolveStore::open_existing(dir)
        .map_err(|_| format!("cache directory {dir} does not exist"))?;
    Ok((store, dir))
}

fn cache_stats(args: &Args) -> Result<(), String> {
    let (store, dir) = existing_store(args)?;
    let summary = store
        .summary()
        .map_err(|e| format!("cannot scan {dir}: {e}"))?;
    if args.switch(&STATS_JSON) {
        // The same serialized shape the serve protocol's `stats` request
        // returns — one serializer, two transports. The store section is
        // all an offline CLI has; a daemon adds queue/engine/cache sections.
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
    Ok(())
}

fn cache_clear(args: &Args) -> Result<(), String> {
    let (store, dir) = existing_store(args)?;
    let removed = store
        .clear()
        .map_err(|e| format!("cannot clear {dir}: {e}"))?;
    println!("cache directory {dir}: removed {removed} entries");
    Ok(())
}

fn cache_gc(args: &Args) -> Result<(), String> {
    let policy = GcPolicy {
        max_entries: args.count(&MAX_ENTRIES),
        max_age: args.count(&MAX_AGE).map(Duration::from_secs),
        max_bytes: args.count(&MAX_BYTES),
    };
    if policy == GcPolicy::default() {
        return Err("`cache gc` needs --max-entries, --max-age and/or --max-bytes".to_string());
    }
    let (store, dir) = existing_store(args)?;
    let outcome = store
        .gc(policy)
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
    Ok(())
}

/// The daemon configuration the flags and environment ask for; an absent
/// flag keeps `ServeConfig::default()`'s value.
fn serve_config(args: &Args) -> Result<ServeConfig, String> {
    let defaults = ServeConfig::default();
    Ok(ServeConfig {
        addr: args
            .text(&LISTEN_ADDR)
            .map_or(defaults.addr, str::to_string),
        workers: args.count(&JOBS).map_or(defaults.workers, |n| n as usize),
        queue_capacity: args
            .count(&QUEUE_CAPACITY)
            .unwrap_or(defaults.queue_capacity),
        retry_after_ms: args
            .count(&RETRY_AFTER_MS)
            .unwrap_or(defaults.retry_after_ms),
        max_sessions: args.count(&MAX_SESSIONS).unwrap_or(defaults.max_sessions),
        idle_timeout: args
            .count(&IDLE_TIMEOUT_MS)
            .map(Duration::from_millis)
            .or(defaults.idle_timeout),
        store: configured_store(args)?,
        ..defaults
    })
}

/// `bbs serve`: host the engine as a long-lived daemon (see
/// `bbs_engine::serve`). Blocks until a client sends `shutdown`.
fn serve(args: &Args) -> Result<(), String> {
    let config = serve_config(args)?;
    let server = Server::start(ServeConfig {
        faults: FaultPlan::from_env()?.unwrap_or_default(),
        ..config
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

/// How long a `client` command waits for any reply but a run's result.
/// The daemon sends them at once; the slowest, `stats`, scans the store
/// (about 0.6 s for 10,000 entries), so a reply this late was lost.
const REPLY_DEADLINE: Duration = Duration::from_secs(5);

/// The read-timeout tick on which a pending reply checks its deadline.
const READ_TICK: Duration = Duration::from_millis(50);

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(READ_TICK))
        .map_err(|e| format!("cannot set a read timeout on {addr}: {e}"))?;
    Ok(stream)
}

fn client_addr(args: &Args) -> &str {
    args.text(&SERVER_ADDR)
        .expect("parse refuses a client command without --addr")
}

/// The next reply, which must arrive within `deadline` when one is given.
fn next_reply(stream: &mut TcpStream, deadline: Option<Duration>) -> Result<Reply, String> {
    match deadline {
        Some(deadline) => read_reply_within(stream, deadline),
        None => read_reply(stream),
    }
    .map_err(|e| format!("connection failed: {e}"))?
    .ok_or_else(|| "server closed the connection early".to_string())
}

fn server_error(reply: Reply) -> String {
    reply
        .message
        .unwrap_or_else(|| "server reported an error".to_string())
}

/// What one submission came back with.
struct Submitted {
    /// The report text, byte-identical to a local `bbs run --json`.
    report: String,
    /// The server's summary of the suite's unexpected failures, if any.
    failures: Option<String>,
    points: u64,
    rejections: u64,
}

/// Submits `request` and waits for its report. A structured rejection
/// sleeps the server's `retry_after_ms` hint and resubmits, at most
/// `retries` times, so transient back-pressure does not fail scripts; a
/// `cancelled` reply (deadline, explicit cancel) is an error carrying the
/// server's reason. Admission is answered within [`REPLY_DEADLINE`]; the
/// run's result may take as long as the run, or its `deadline_ms` plus
/// [`REPLY_DEADLINE`]. Unless `quiet`, progress and each point of the
/// report go to stdout.
fn submit(
    stream: &mut TcpStream,
    request: &Request,
    retries: u64,
    quiet: bool,
) -> Result<Submitted, String> {
    let mut rejections = 0u64;
    loop {
        send_request(stream, request).map_err(|e| format!("cannot submit: {e}"))?;
        let reply = next_reply(stream, Some(REPLY_DEADLINE))?;
        match reply.kind.as_str() {
            "accepted" => {
                if !quiet {
                    println!(
                        "accepted as ticket {} (queue depth {})",
                        reply.ticket.unwrap_or(0),
                        reply.queue_depth.unwrap_or(0)
                    );
                }
                break;
            }
            "rejected" => {
                let reason = reply.message.as_deref().unwrap_or("no reason given");
                let wait = reply.retry_after_ms.unwrap_or(100);
                if rejections >= retries {
                    return Err(format!(
                        "submission rejected: {reason} (retry after {wait} ms; gave up after \
                         {rejections} retries)"
                    ));
                }
                rejections += 1;
                if !quiet {
                    println!("rejected ({reason}); retry {rejections}/{retries} in {wait} ms");
                }
                std::thread::sleep(Duration::from_millis(wait));
            }
            "error" => return Err(server_error(reply)),
            other => return Err(format!("unexpected reply kind `{other}`")),
        }
    }
    let wait = request
        .deadline_ms
        .map(|ms| Duration::from_millis(ms) + REPLY_DEADLINE);
    let reply = next_reply(stream, wait)?;
    match reply.kind.as_str() {
        "report" => {}
        "cancelled" => {
            return Err(format!(
                "submission cancelled: {}",
                reply.message.as_deref().unwrap_or("no reason given")
            ));
        }
        "error" => return Err(server_error(reply)),
        other => return Err(format!("unexpected reply kind `{other}`")),
    }
    let text = reply.report.ok_or("report reply carried no report text")?;
    let report =
        SuiteReport::from_json(&text).map_err(|e| format!("server sent a bad report: {e}"))?;
    let mut points = 0u64;
    for scenario in &report.scenarios {
        for point in &scenario.points {
            points += 1;
            if !quiet {
                let cap = point
                    .capacity_cap
                    .map_or_else(|| "uncapped".to_string(), |c| format!("cap {c}"));
                let verdict = if point.feasible {
                    "feasible"
                } else {
                    "infeasible"
                };
                println!("  {} {cap}: {verdict}", scenario.scenario);
            }
        }
    }
    Ok(Submitted {
        report: text,
        failures: reply.message,
        points,
        rejections,
    })
}

/// `--retries` of `client run`, default 3.
fn retry_limit(args: &Args) -> u64 {
    args.count(&RETRIES).unwrap_or(3)
}

/// `bbs client run`: submit one suite, stream the progress, and write the
/// returned report — byte-identical to a local `bbs run --json` of the
/// same suite — with the same atomic write discipline.
fn client_run(args: &Args) -> Result<(), String> {
    let jobs = args.count(&JOBS).unwrap_or(1);
    let request = match suite_file(args)? {
        Some(suite) => Request::run_suite(suite, jobs),
        None => Request::run_builtin(args.text(&SUITE).unwrap_or("paper"), jobs),
    };
    let request = match args.count(&DEADLINE_MS) {
        Some(ms) => request.with_deadline_ms(ms),
        None => request,
    };
    let mut stream = connect(client_addr(args))?;
    let quiet = args.switch(&QUIET);
    let submitted = submit(&mut stream, &request, retry_limit(args), quiet)?;
    if let Some(path) = args.text(&JSON) {
        write_output(path, &submitted.report, "JSON report")?;
    }
    if !quiet {
        println!("report complete: {} points", submitted.points);
    }
    // A failure summary means the suite ran but some points failed
    // unexpectedly — mirror `bbs run`'s nonzero exit.
    submitted.failures.map_or(Ok(()), Err)
}

/// Sends one request to the daemon and returns its reply; an `error` reply
/// is an error.
fn ask(args: &Args, request: &Request) -> Result<Reply, String> {
    let mut stream = connect(client_addr(args))?;
    send_request(&mut stream, request).map_err(|e| format!("cannot send request: {e}"))?;
    let reply = next_reply(&mut stream, Some(REPLY_DEADLINE))?;
    match reply.kind.as_str() {
        "error" => Err(server_error(reply)),
        _ => Ok(reply),
    }
}

/// `bbs client stats`: print the daemon's machine-readable counters — the
/// same object `bbs cache stats --json` prints for an offline store.
fn client_stats(args: &Args) -> Result<(), String> {
    let reply = ask(args, &Request::stats())?;
    match (reply.kind.as_str(), reply.stats) {
        ("stats", Some(snapshot)) => {
            print!("{}", snapshot.to_json());
            Ok(())
        }
        (other, _) => Err(format!("unexpected reply kind `{other}`")),
    }
}

/// `bbs client shutdown`: ask the daemon to drain in-flight work and exit.
fn client_shutdown(args: &Args) -> Result<(), String> {
    let reply = ask(args, &Request::shutdown())?;
    match reply.kind.as_str() {
        "bye" => {
            println!("server acknowledged shutdown");
            Ok(())
        }
        other => Err(format!("unexpected reply kind `{other}`")),
    }
}

/// `bbs client bench`: the load generator — `--clients` concurrent
/// connections each submitting `--requests` suites through real sockets,
/// retrying every structured rejection, reporting aggregate throughput.
fn client_bench(args: &Args) -> Result<(), String> {
    let addr = client_addr(args);
    let clients = args.count(&CLIENTS).unwrap_or(8);
    let requests = args.count(&REQUESTS).unwrap_or(4);
    let suite = args.text(&SUITE).unwrap_or("smoke");
    let request = Request::run_builtin(suite, args.count(&JOBS).unwrap_or(1));
    let start = Instant::now();
    let client = || -> Result<(u64, u64), String> {
        let mut stream = connect(addr)?;
        let (mut retries, mut points) = (0, 0);
        for _ in 0..requests {
            let submitted = submit(&mut stream, &request, u64::MAX, true)?;
            retries += submitted.rejections;
            points += submitted.points;
        }
        Ok((retries, points))
    };
    let (mut retries, mut points) = (0u64, 0u64);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients).map(|_| scope.spawn(client)).collect();
        for handle in handles {
            let (r, p) = handle
                .join()
                .map_err(|_| "bench client thread panicked".to_string())??;
            retries += r;
            points += p;
        }
        Ok::<(), String>(())
    })?;
    let elapsed = start.elapsed();
    let completed = clients * requests;
    println!("bench: {clients} clients x {requests} submissions of `{suite}` against {addr}");
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

    /// Parses `args` against an environment holding only `vars`.
    fn parse_in(args: &[&str], vars: &[(&str, &str)]) -> Result<Args, String> {
        let env = |name: &str| {
            vars.iter()
                .find(|(var, _)| *var == name)
                .map(|(_, value)| value.to_string())
        };
        parse(&strings(args), &env)
    }

    fn parse_error(args: &[&str], vars: &[(&str, &str)]) -> String {
        parse_in(args, vars).err().expect("parse must fail")
    }

    #[test]
    fn run_args_parse_the_scheduler_flag() {
        // One scheduler is left, so the old switch is an unknown flag.
        let parsed = parse_in(&["run", "--jobs", "8"], &[]).unwrap();
        assert_eq!(parsed.count(&JOBS), Some(8));
        let error = parse_error(&["run", "--jobs", "8", "--no-steal"], &[]);
        assert!(error.starts_with("unknown flag `--no-steal`"), "{error}");
    }

    #[test]
    fn run_args_parse_the_executor_and_cap_flags() {
        // One executor is left, so the old switch is an unknown flag.
        let error = parse_error(&["run", "--fresh-executor"], &[]);
        assert!(
            error.starts_with("unknown flag `--fresh-executor`"),
            "{error}"
        );
        let parsed = parse_in(&["run", "--cache-max-entries", "128"], &[]).unwrap();
        assert_eq!(parsed.count(&CACHE_MAX_ENTRIES), Some(128));
        let default = parse_in(&["run"], &[]).unwrap();
        assert_eq!(default.count(&CACHE_MAX_ENTRIES), None);
        assert!(parse_in(&["run", "--cache-max-entries", "lots"], &[]).is_err());
        for (flag, var) in [
            (&CACHE_MAX_ENTRIES, "BBS_CACHE_MAX_ENTRIES"),
            (&CACHE_MAX_BYTES, "BBS_CACHE_MAX_BYTES"),
        ] {
            // The flag wins over the environment, and a malformed
            // environment value is then never consulted.
            for env in ["7", "lots"] {
                let parsed = parse_in(&["run", flag.name, "3"], &[(var, env)]).unwrap();
                assert_eq!(
                    parsed.count(flag),
                    Some(3),
                    "explicit {} must win",
                    flag.name
                );
            }
            let parsed = parse_in(&["run"], &[(var, " 7 ")]).unwrap();
            assert_eq!(parsed.count(flag), Some(7));
            for blank in ["", "  ", "\t"] {
                assert_eq!(
                    parse_in(&["run"], &[(var, blank)]).unwrap().count(flag),
                    None
                );
            }
            // Malformed is an error naming the variable, whether or not a
            // store is configured to use it.
            for args in [&["run"][..], &["run", "--cache-dir", "dir"][..]] {
                let error = parse_error(args, &[(var, "lots")]);
                assert!(error.contains(var), "{error}");
            }
        }
    }

    #[test]
    fn empty_or_whitespace_cache_dirs_are_rejected() {
        for blank in ["", "   ", "\t\n"] {
            assert!(parse_in(&["run", "--cache-dir", blank], &[]).is_err());
        }
        let parsed = parse_in(&["run", "--cache-dir", "dir"], &[]).unwrap();
        assert_eq!(parsed.text(&CACHE_DIR), Some("dir"));
        // A path with inner whitespace is a real path.
        assert!(parse_in(&["run", "--cache-dir", "my cache"], &[]).is_ok());
        // Every text flag of every command refuses a blank value.
        for command in COMMANDS {
            for flag in command.flags.iter().filter(|flag| flag.kind == Kind::Text) {
                let mut args = command.words.to_vec();
                args.extend([flag.name, " "]);
                let error = parse_error(&args, &[]);
                assert!(error.starts_with(flag.name), "{args:?}: {error}");
            }
        }
        // The flag wins over the environment; a blank environment value
        // means unset.
        for (flag, var) in [
            (&CACHE_DIR, "BBS_CACHE_DIR"),
            (&REMOTE_STORE, "BBS_REMOTE_STORE"),
        ] {
            let parsed = parse_in(&["run", flag.name, "a"], &[(var, "b")]).unwrap();
            assert_eq!(parsed.text(flag), Some("a"));
            let parsed = parse_in(&["run"], &[(var, "b")]).unwrap();
            assert_eq!(parsed.text(flag), Some("b"));
            for blank in ["", "   ", "\t"] {
                assert_eq!(
                    parse_in(&["run"], &[(var, blank)]).unwrap().text(flag),
                    None
                );
            }
        }
    }

    #[test]
    fn client_run_args_parse_retry_and_deadline_flags() {
        let client_run = ["client", "run", "--addr", "127.0.0.1:9"];
        let mut args = client_run.to_vec();
        args.extend(["--retries", "0", "--deadline-ms", "500"]);
        let parsed = parse_in(&args, &[]).unwrap();
        assert_eq!(retry_limit(&parsed), 0);
        assert_eq!(parsed.count(&DEADLINE_MS), Some(500));
        let default = parse_in(&client_run, &[]).unwrap();
        assert_eq!(retry_limit(&default), 3);
        assert_eq!(default.count(&DEADLINE_MS), None);
        for bad in [["--deadline-ms", "0"], ["--retries", "many"]] {
            let mut args = client_run.to_vec();
            args.extend(bad);
            assert!(parse_in(&args, &[]).is_err(), "{args:?}");
        }
        let error = parse_error(&["client", "run"], &[]);
        assert!(error.contains("needs --addr HOST:PORT"), "{error}");
    }

    #[test]
    fn serve_args_parse_the_robustness_flags() {
        let parsed = parse_in(
            &[
                "serve",
                "--idle-timeout-ms",
                "250",
                "--remote-store",
                "127.0.0.1:9",
            ],
            &[],
        )
        .unwrap();
        assert_eq!(parsed.count(&IDLE_TIMEOUT_MS), Some(250));
        assert_eq!(parsed.text(&REMOTE_STORE), Some("127.0.0.1:9"));
        let parsed = parse_in(&["serve", "--idle-timeout-ms", "250"], &[]).unwrap();
        let config = serve_config(&parsed).unwrap();
        assert_eq!(config.idle_timeout, Some(Duration::from_millis(250)));
        assert!(parse_in(&["serve", "--idle-timeout-ms", "0"], &[]).is_err());
        // Without flags, serve runs on `ServeConfig::default()`.
        let config = serve_config(&parse_in(&["serve"], &[]).unwrap()).unwrap();
        let defaults = ServeConfig::default();
        assert_eq!(config.idle_timeout, None);
        assert_eq!(config.addr, defaults.addr);
        assert_eq!(config.workers, defaults.workers);
        assert_eq!(config.queue_capacity, defaults.queue_capacity);
        assert_eq!(config.retry_after_ms, defaults.retry_after_ms);
        assert_eq!(config.max_sessions, defaults.max_sessions);
        assert!(config.store.is_none());
    }

    #[test]
    fn commands_refuse_flags_they_never_read() {
        let ignored: &[(&str, &[&str])] = &[
            ("validate", &["--csv", "x"]),
            ("validate", &["--markdown", "x"]),
            ("expand", &["--no-cache"]),
            ("expand", &["--cache-dir", "x"]),
            ("expand", &["--cache-max-entries", "1"]),
            ("expand", &["--cache-max-bytes", "1"]),
            ("expand", &["--remote-store", "127.0.0.1:9"]),
            ("expand", &["--json", "x"]),
            ("expand", &["--csv", "x"]),
            ("expand", &["--markdown", "x"]),
            ("expand", &["--quiet"]),
            ("list", &["x"]),
            ("list", &["--quiet"]),
        ];
        for (command, flag) in ignored {
            let mut args = vec![*command];
            args.extend(*flag);
            let error = parse_error(&args, &[]);
            let expected = format!("unknown flag `{}` for `{command}`", flag[0]);
            assert!(error.starts_with(&expected), "{args:?}: {error}");
        }
    }

    #[test]
    fn client_bench_bounds_jobs_and_clients() {
        let bench = ["client", "bench", "--addr", "127.0.0.1:9"];
        for (flag, refused, accepted) in [("--jobs", "65", "64"), ("--clients", "1025", "1024")] {
            for value in ["0", refused] {
                let mut args = bench.to_vec();
                args.extend([flag, value]);
                let error = parse_error(&args, &[]);
                assert!(error.starts_with(flag), "{error}");
            }
            let mut args = bench.to_vec();
            args.extend([flag, accepted]);
            assert!(parse_in(&args, &[]).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn help_renders_every_command_from_the_table() {
        let help = usage();
        for command in COMMANDS {
            let synopsis = command.synopsis();
            assert!(help.contains(&synopsis), "{synopsis}");
            for flag in command.flags {
                assert!(
                    synopsis.contains(flag.name),
                    "{synopsis} lacks {}",
                    flag.name
                );
            }
        }
        assert!(help.contains("  bbs client run --addr HOST:PORT [--suite NAME]"));
        assert!(help.contains("  bbs serve [--addr HOST:PORT]"));
        assert!(help.contains("  bbs check [REPORT.json | SUITE.json | -]"));
        assert!(help.lines().all(|line| line.len() <= 78), "{help}");
    }
}
