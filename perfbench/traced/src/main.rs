//! `bbs-traced`: the traced pass of the repository benchmark.
//!
//! ```text
//! bbs-traced batch (--suite-file PATH | --builtin NAME) --store DIR --jobs N
//!                  --report PATH --spans PATH
//! bbs-traced serve --store DIR --jobs N --clients N --submissions N
//!                  --stats-requests N --spans PATH
//! ```
//!
//! `batch` drives one `bbs run --json` pass in-process through each layer's
//! public functions, with a span around every call: suite load, expansion,
//! per point the cache key, the store and the solver pipeline (validate,
//! model, formulation, lowering, IPM, extraction, verify), then the
//! validation stage and report rendering. The report it writes must equal
//! the one `bbs run` writes for the same suite and store state, so the
//! traced pass provably does the same work. `serve` runs the daemon
//! in-process and drives a closed loop of `run_builtin smoke` submissions
//! over `--clients` connections, timing each round trip and each `stats`
//! request.
//!
//! Spans go to `--spans` as JSON lines; stdout gets one JSON object of
//! exact work counters.

mod trace;

use bbs_conic::{solve_with_cutting_planes, SolveStatus};
use bbs_engine::serve::{read_frame, write_frame, Reply, Request};
use bbs_engine::suites::builtin_suite;
use bbs_engine::{
    validate_outcome, CacheKey, CacheStats, CanonicalKey, Engine, ExecutorStats, Flow,
    PointOutcome, RunSettings, ScenarioKeySeed, ScenarioOutcome, ServeConfig, Server, SolveCache,
    SolveSource, SolveStore, Suite, SuiteOutcome, SuiteReport,
};
use bbs_scheduler_sim::{validate_mapping, SimulationSettings};
use bbs_taskgraph::{ConfigView, Configuration};
use budget_buffer::formulation::Formulation;
use budget_buffer::model::DataflowModel;
use budget_buffer::verify::verify_mapping;
use budget_buffer::{
    compute_mapping_two_phase, BudgetPolicy, Mapping, MappingError, SolveOptions, SolverKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use trace::{Tracer, NO_POINT, ROOT};

/// Forwards to the system allocator, counting every allocation call (the
/// pattern of `crates/engine/tests/alloc_free.rs`).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter is an atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Spans a pass may record before the buffer grows.
const SPAN_CAPACITY: usize = 1 << 17;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("batch") => Args::parse(&args[1..]).and_then(|a| batch(&a)),
        Some("serve") => Args::parse(&args[1..]).and_then(|a| serve(&a)),
        _ => Err("usage: bbs-traced (batch | serve) [flags]".to_string()),
    };
    match result {
        Ok(counters) => {
            println!("{counters}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("bbs-traced: {message}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Default)]
struct Args {
    suite_file: Option<String>,
    builtin: Option<String>,
    store: String,
    jobs: usize,
    clients: usize,
    report: Option<String>,
    spans: String,
    submissions: usize,
    stats_requests: usize,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Args {
            jobs: 2,
            clients: 1,
            ..Args::default()
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = iter
                .next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))?;
            let count = || {
                value
                    .parse::<usize>()
                    .map_err(|_| format!("{flag} needs a count, got `{value}`"))
            };
            match flag.as_str() {
                "--suite-file" => parsed.suite_file = Some(value.clone()),
                "--builtin" => parsed.builtin = Some(value.clone()),
                "--store" => parsed.store = value.clone(),
                "--jobs" => parsed.jobs = count()?.max(1),
                "--clients" => parsed.clients = count()?.max(1),
                "--report" => parsed.report = Some(value.clone()),
                "--spans" => parsed.spans = value.clone(),
                "--submissions" => parsed.submissions = count()?,
                "--stats-requests" => parsed.stats_requests = count()?,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if parsed.store.is_empty() || parsed.spans.is_empty() {
            return Err("--store and --spans are required".to_string());
        }
        Ok(parsed)
    }
}

/// Exact work counters of one pass, shared by its workers.
#[derive(Default)]
struct Counters {
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    disk_hits: AtomicU64,
    fresh_solves: AtomicU64,
    ipm_solves: AtomicU64,
    ipm_iterations: AtomicU64,
    iter_limit_points: AtomicU64,
    lowered: AtomicU64,
    formulation_vars: AtomicU64,
    formulation_rows: AtomicU64,
    g_nnz: AtomicU64,
    kkt_dim: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// One scenario resolved for the traced pass, as the engine's planner does.
struct Plan {
    base: Arc<Configuration>,
    flow: Flow,
    options: SolveOptions,
    seed: ScenarioKeySeed,
    caps: Vec<Option<u64>>,
}

impl Plan {
    /// The copy-on-write view of one sweep point.
    fn view(&self, cap: Option<u64>) -> ConfigView {
        match cap {
            Some(cap) => ConfigView::with_capacity_cap(Arc::clone(&self.base), cap),
            None => ConfigView::new(Arc::clone(&self.base)),
        }
    }
}

/// A memo slot: filled once by the claimer, read by every later lookup.
type Slot = Arc<OnceLock<Result<Mapping, MappingError>>>;

fn load_suite(args: &Args) -> Result<Suite, String> {
    match (&args.suite_file, &args.builtin) {
        (Some(path), None) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("{path} is not a suite file: {e}"))
        }
        (None, Some(name)) => builtin_suite(name).ok_or_else(|| format!("no built-in `{name}`")),
        _ => Err("give exactly one of --suite-file and --builtin".to_string()),
    }
}

fn plan(suite: &Suite) -> Result<Vec<Plan>, String> {
    suite
        .scenarios
        .iter()
        .map(|scenario| {
            let base = scenario.workload.resolve().map_err(|e| e.to_string())?;
            let flow = scenario.resolved_flow().map_err(|e| e.to_string())?;
            let options = scenario.resolved_options();
            let caps = match &scenario.sweep {
                Some(sweep) => sweep
                    .caps()
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(Some)
                    .collect(),
                None => vec![None],
            };
            Ok(Plan {
                base: Arc::new(base),
                flow,
                seed: ScenarioKeySeed::new(&options, flow.as_str()),
                options,
                caps,
            })
        })
        .collect()
}

/// `bbs run --json` for one suite, in-process and traced.
fn batch(args: &Args) -> Result<String, String> {
    let settings = RunSettings::with_jobs(args.jobs);
    let tracer = Tracer::with_capacity(SPAN_CAPACITY);
    let pass_start = Instant::now();
    let pass = tracer.open("pass", ROOT, NO_POINT, 0);
    let suite = tracer.span("suite.load", pass, NO_POINT, 0, |_| load_suite(args))?;
    let engine = tracer.span("engine.start", pass, NO_POINT, 0, |_| {
        Engine::new(args.jobs)
    });
    tracer
        .span("engine.expand", pass, NO_POINT, 0, |_| {
            engine.expand_suite(&suite, &settings)
        })
        .map_err(|e| e.to_string())?;
    let plans = tracer.span("plan", pass, NO_POINT, 0, |_| plan(&suite))?;
    let store = tracer.span("store.open", pass, NO_POINT, 0, |_| {
        SolveStore::open(&args.store)
    });
    let store = store.map_err(|e| format!("cannot open store {}: {e}", args.store))?;

    // Flattened (scenario, point) coordinates, claimed off an atomic cursor.
    let items: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(s, plan)| (0..plan.caps.len()).map(move |p| (s, p)))
        .collect();
    let slots: Vec<OnceLock<PointOutcome>> = (0..items.len()).map(|_| OnceLock::new()).collect();
    let memo: Mutex<HashMap<CacheKey, Slot>> = Mutex::new(HashMap::new());
    let counters = Counters::default();
    let cursor = AtomicUsize::new(0);
    let workers = args.jobs.min(items.len().max(1));

    let allocations_before = allocations();
    tracer.span("points", pass, NO_POINT, 0, |points| {
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let context = PointContext {
                    tracer: &tracer,
                    plans: &plans,
                    store: &store,
                    memo: &memo,
                    counters: &counters,
                    parent: points,
                    thread: worker,
                };
                let (items, slots, cursor) = (&items, &slots, &cursor);
                scope.spawn(move || loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(scenario, point)) = items.get(index) else {
                        break;
                    };
                    let outcome = context.run_point(index, scenario, point);
                    let _ = slots[index].set(outcome);
                });
            }
        });
    });
    let point_allocations = allocations() - allocations_before;

    let mut outcome = tracer.span("assemble", pass, NO_POINT, 0, |_| {
        let mut slots = slots.into_iter();
        let scenarios = suite
            .scenarios
            .iter()
            .zip(&plans)
            .map(|(scenario, plan)| ScenarioOutcome {
                scenario: scenario.clone(),
                configuration: (*plan.base).clone(),
                flow: plan.flow,
                options: plan.options.clone(),
                points: (0..plan.caps.len())
                    .map(|_| {
                        slots
                            .next()
                            .and_then(OnceLock::into_inner)
                            .expect("every point reports exactly once")
                    })
                    .collect(),
            })
            .collect();
        SuiteOutcome {
            suite: suite.name.clone(),
            scenarios,
            cache: CacheStats {
                hits: get(&counters.memo_hits),
                misses: get(&counters.memo_misses),
            },
            cache_enabled: true,
            store: Some(store.stats()),
            executor: ExecutorStats::default(),
            wall_time: Duration::ZERO,
        }
    });
    tracer.span("validate.stage", pass, NO_POINT, 0, |_| {
        validate_outcome(&mut outcome, &settings)
    });
    let json = tracer.span("report.render", pass, NO_POINT, 0, |_| {
        let report = SuiteReport::from_outcome(&outcome);
        report.validate().map(|()| report.to_json())
    });
    let json = json.map_err(|e| e.to_string())?;
    if let Some(path) = &args.report {
        tracer
            .span("report.write", pass, NO_POINT, 0, |_| {
                std::fs::write(path, &json)
            })
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    tracer.close(pass);
    let pass_wall = pass_start.elapsed();

    // Probes after the pass: layers the pass reaches only as a whole.
    let (replays, violations) = replay_probe(&tracer, &outcome, &settings);
    let engine_run = tracer.span("probe.engine_run", ROOT, NO_POINT, 0, |_| {
        let cache = Arc::new(SolveCache::with_store(
            SolveStore::open(&args.store).expect("the pass opened this store"),
        ));
        engine.run_suite_with_cache(&suite, &settings, &cache)
    });
    let engine_run = engine_run.map_err(|e| e.to_string())?;
    let summary = store
        .summary()
        .map_err(|e| format!("cannot scan store {}: {e}", args.store))?;
    tracer
        .write_jsonl(&args.spans)
        .map_err(|e| format!("cannot write {}: {e}", args.spans))?;

    let fields = [
        ("points", items.len() as u64),
        ("memo_hits", get(&counters.memo_hits)),
        ("memo_misses", get(&counters.memo_misses)),
        ("disk_hits", get(&counters.disk_hits)),
        ("fresh_solves", get(&counters.fresh_solves)),
        ("ipm_solves", get(&counters.ipm_solves)),
        ("ipm_iterations", get(&counters.ipm_iterations)),
        ("iter_limit_points", get(&counters.iter_limit_points)),
        ("lowered", get(&counters.lowered)),
        ("formulation_vars", get(&counters.formulation_vars)),
        ("formulation_rows", get(&counters.formulation_rows)),
        ("g_nnz", get(&counters.g_nnz)),
        ("kkt_dim", get(&counters.kkt_dim)),
        ("point_allocations", point_allocations),
        ("store_entries", summary.entries),
        ("store_bytes", summary.total_bytes),
        ("replays", replays),
        ("violations", violations),
        ("engine_steals", engine_run.executor.steals),
    ];
    Ok(counters_json(&fields, pass_wall))
}

/// Everything one worker of the traced points phase shares.
struct PointContext<'a> {
    tracer: &'a Tracer,
    plans: &'a [Plan],
    store: &'a SolveStore,
    memo: &'a Mutex<HashMap<CacheKey, Slot>>,
    counters: &'a Counters,
    parent: usize,
    thread: usize,
}

impl PointContext<'_> {
    /// One point, as `SolveCache::solve_with` serves it: key, in-memory
    /// tier, store tier, then a fresh solve written back to the store.
    fn run_point(&self, index: usize, scenario: usize, point: usize) -> PointOutcome {
        let (tracer, thread) = (self.tracer, self.thread);
        let plan = &self.plans[scenario];
        let cap = plan.caps[point];
        tracer.span("point", self.parent, index, thread, |span| {
            let view = plan.view(cap);
            let key = tracer.span("cache.key", span, index, thread, |_| {
                plan.seed.key_for(&view)
            });
            let slot = Arc::clone(
                self.memo
                    .lock()
                    .expect("memo lock poisoned")
                    .entry(key)
                    .or_default(),
            );
            let mut source = SolveSource::Memory;
            let mut solve_time = Duration::ZERO;
            let result = slot.get_or_init(|| {
                let canonical = tracer.span("cache.canonical", span, index, thread, |_| {
                    CanonicalKey::materialise(&view, &plan.seed.options_json(), plan.flow.as_str())
                });
                let loaded = tracer.span("store.load", span, index, thread, |_| {
                    self.store.load(&canonical, view.config())
                });
                if let Some(result) = loaded {
                    source = SolveSource::Disk;
                    return result;
                }
                source = SolveSource::Fresh;
                let start = Instant::now();
                let result = tracer.span("solve", span, index, thread, |solve| {
                    self.solve(&view, plan, solve, index)
                });
                solve_time = start.elapsed();
                tracer.span("store.save", span, index, thread, |_| {
                    self.store.save(&canonical, &result)
                });
                result
            });
            match source {
                SolveSource::Memory => bump(&self.counters.memo_hits, 1),
                SolveSource::Disk => {
                    bump(&self.counters.memo_misses, 1);
                    bump(&self.counters.disk_hits, 1);
                }
                SolveSource::Fresh => {
                    bump(&self.counters.memo_misses, 1);
                    bump(&self.counters.fresh_solves, 1);
                }
            }
            PointOutcome {
                capacity_cap: cap,
                result: result.clone(),
                solve_time,
                source,
                validation: None,
            }
        })
    }

    /// The solver pipeline of `compute_mapping_view` (joint flow) or the
    /// two-phase baselines, one span per layer.
    fn solve(
        &self,
        view: &ConfigView,
        plan: &Plan,
        parent: usize,
        index: usize,
    ) -> Result<Mapping, MappingError> {
        let (tracer, thread) = (self.tracer, self.thread);
        let policy = match plan.flow {
            Flow::Joint => None,
            Flow::TwoPhaseMin => Some(BudgetPolicy::ThroughputMinimum),
            Flow::TwoPhaseFair => Some(BudgetPolicy::FairShare),
        };
        if let Some(policy) = policy {
            return tracer.span("solve.two_phase", parent, index, thread, |_| {
                compute_mapping_two_phase(view.config(), policy, &plan.options)
                    .map(|outcome| outcome.mapping)
            });
        }
        let configuration: &Configuration = view.base();
        tracer.span("taskgraph.validate", parent, index, thread, |_| {
            configuration.validate()
        })?;
        let model = tracer.span("model.build", parent, index, thread, |_| {
            DataflowModel::build_view(view)
        });
        let formulation = tracer.span("formulation.build", parent, index, thread, |_| {
            Formulation::build_view(view, &model, &plan.options)
        })?;
        let counters = self.counters;
        let (solution, iterations) = match plan.options.solver {
            SolverKind::InteriorPoint => {
                let lowered = tracer.span("lower.build", parent, index, thread, |_| {
                    formulation.builder.clone().build()
                })?;
                let problem = lowered.problem();
                let g_nnz = (0..problem.g.nrows())
                    .map(|r| problem.g.row(r).iter().filter(|v| **v != 0.0).count() as u64)
                    .sum();
                bump(&counters.lowered, 1);
                bump(
                    &counters.formulation_vars,
                    formulation.builder.num_vars() as u64,
                );
                bump(&counters.formulation_rows, problem.num_rows() as u64);
                bump(&counters.g_nnz, g_nnz);
                bump(
                    &counters.kkt_dim,
                    (problem.num_vars() + problem.num_rows()) as u64,
                );
                let solution = tracer.span("ipm.solve", parent, index, thread, |_| {
                    lowered.solve(&plan.options.ipm)
                })?;
                bump(&counters.ipm_solves, 1);
                bump(&counters.ipm_iterations, solution.iterations() as u64);
                match solution.status() {
                    SolveStatus::Optimal => {
                        let iterations = solution.iterations();
                        (solution, iterations)
                    }
                    status => {
                        if status == SolveStatus::MaxIterations {
                            bump(&counters.iter_limit_points, 1);
                        }
                        return Err(MappingError::Infeasible {
                            detail: status.to_string(),
                        });
                    }
                }
            }
            SolverKind::CuttingPlane => {
                let outcome = tracer.span("ipm.cutting_plane", parent, index, thread, |_| {
                    solve_with_cutting_planes(
                        &formulation.builder,
                        &plan.options.ipm,
                        &plan.options.cutting_plane,
                    )
                })?;
                if !outcome.converged || !outcome.solution.status().is_optimal() {
                    return Err(MappingError::Infeasible {
                        detail: format!(
                            "cutting-plane loop did not converge ({} rounds, status {})",
                            outcome.rounds,
                            outcome.solution.status()
                        ),
                    });
                }
                (outcome.solution, outcome.rounds)
            }
        };
        let mapping = tracer.span("extract", parent, index, thread, |_| {
            let raw_budgets: BTreeMap<_, _> = formulation
                .variables
                .budgets
                .iter()
                .map(|(&task, &var)| (task, solution.value(var)))
                .collect();
            let raw_space: BTreeMap<_, _> = formulation
                .variables
                .buffer_space
                .iter()
                .map(|(&buffer, &var)| (buffer, solution.value(var)))
                .collect();
            Mapping::from_raw(
                configuration,
                raw_budgets,
                raw_space,
                solution.objective(),
                iterations,
            )
        });
        if plan.options.verify {
            tracer.span("verify", parent, index, thread, |_| {
                verify_mapping(configuration, &mapping)
            })?;
        }
        Ok(mapping)
    }
}

/// Replays every point the validation stage replayed, one
/// `validate_mapping` call per span; returns (replays, violations).
fn replay_probe(tracer: &Tracer, outcome: &SuiteOutcome, settings: &RunSettings) -> (u64, u64) {
    let simulation = SimulationSettings {
        iterations: settings.simulation_iterations,
        ..SimulationSettings::default()
    };
    let (mut replays, mut violations) = (0, 0);
    tracer.span("probe.replay", ROOT, NO_POINT, 0, |probe| {
        for scenario in &outcome.scenarios {
            for (point, outcome) in scenario.points.iter().enumerate() {
                let (Ok(mapping), Some(_)) = (&outcome.result, &outcome.validation) else {
                    continue;
                };
                let budgets = mapping.budgets().collect();
                let capacities = mapping.capacities().collect();
                let validation = tracer.span("sim.replay", probe, point, 0, |_| {
                    validate_mapping(&scenario.configuration, &budgets, &capacities, &simulation)
                });
                replays += 1;
                if !validation.period_ok() || validation.buffer_violations() > 0 {
                    violations += 1;
                }
            }
        }
    });
    (replays, violations)
}

/// The daemon in-process: a closed loop of `run_builtin smoke` submissions
/// over `clients` connections, then `stats` round trips, then in-process
/// probes of the engine, key and report layers on the same suite.
fn serve(args: &Args) -> Result<String, String> {
    let store = SolveStore::open(&args.store)
        .map_err(|e| format!("cannot open store {}: {e}", args.store))?;
    let server = Server::start(ServeConfig {
        workers: args.jobs,
        store: Some(store),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.addr();
    let connect = || -> Result<TcpStream, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    };
    let request = serde_json::to_vec(&Request::run_builtin("smoke", args.jobs as u64))
        .map_err(|e| e.to_string())?;
    // Priming submission, outside the pass: its report is the reference
    // every timed submission must match.
    let reference = submit(&mut connect()?, &request)?.report;

    let tracer = Tracer::with_capacity(SPAN_CAPACITY);
    let frames = AtomicU64::new(0);
    let bytes = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let failures = Mutex::new(Vec::new());
    let clients = args.clients;
    let pass_start = Instant::now();
    tracer.span("pass", ROOT, NO_POINT, 0, |pass| {
        std::thread::scope(|scope| {
            for client in 0..clients {
                let (tracer, request, reference) = (&tracer, &request, &reference);
                let (frames, bytes, mismatches, failures) =
                    (&frames, &bytes, &mismatches, &failures);
                let mut stream = match connect() {
                    Ok(stream) => stream,
                    Err(e) => {
                        failures.lock().expect("failure list").push(e);
                        continue;
                    }
                };
                scope.spawn(move || {
                    for index in (client..args.submissions).step_by(clients) {
                        let served = tracer.span("serve.submit", pass, index, client, |_| {
                            submit(&mut stream, request)
                        });
                        match served {
                            Ok(served) => {
                                bump(frames, served.frames);
                                bump(bytes, served.bytes);
                                if &served.report != reference {
                                    bump(mismatches, 1);
                                }
                            }
                            Err(e) => failures.lock().expect("failure list").push(e),
                        }
                    }
                });
            }
        });
    });
    let pass_wall = pass_start.elapsed();
    if let Some(first) = failures.lock().expect("failure list").first() {
        return Err(format!("served submission failed: {first}"));
    }

    let stats_request = serde_json::to_vec(&Request::stats()).map_err(|e| e.to_string())?;
    let mut stream = connect()?;
    for index in 0..args.stats_requests {
        tracer.span("serve.stats", ROOT, index, 0, |_| {
            write_frame(&mut stream, &stats_request)
                .and_then(|()| read_frame(&mut stream))
                .map_err(|e| format!("stats round trip failed: {e}"))
        })?;
    }
    let shutdown = serde_json::to_vec(&Request::shutdown()).map_err(|e| e.to_string())?;
    write_frame(&mut stream, &shutdown)
        .and_then(|()| read_frame(&mut stream))
        .map_err(|e| format!("shutdown failed: {e}"))?;
    drop(stream);
    server.wait();

    // In-process probes of the layers a submission crosses.
    let suite = builtin_suite("smoke").ok_or("no built-in smoke suite")?;
    let settings = RunSettings::with_jobs(args.jobs);
    let engine = Engine::new(args.jobs);
    let cache = Arc::new(SolveCache::new());
    engine
        .submit(&suite, &settings, &cache)
        .map_err(|e| e.to_string())?;
    tracer
        .span("engine.expand", ROOT, NO_POINT, 0, |_| {
            engine.expand_suite(&suite, &settings)
        })
        .map_err(|e| e.to_string())?;
    let plans = plan(&suite)?;
    let mut points = 0u64;
    for plan in &plans {
        for cap in &plan.caps {
            let view = plan.view(*cap);
            tracer.span("cache.key", ROOT, points as usize, 0, |_| {
                std::hint::black_box(plan.seed.key_for(&view))
            });
            points += 1;
        }
    }
    let before = cache.stats();
    let outcome = tracer.span("engine.submit", ROOT, NO_POINT, 0, |_| {
        engine.submit(&suite, &settings, &cache)
    });
    let outcome = outcome.map_err(|e| e.to_string())?;
    let after = cache.stats();
    // Allocations of the per-point work of a warm submission, counted on
    // one thread: across the engine's workers, channel wake-ups allocate
    // depending on thread timing and the count would not repeat.
    let allocations_before = allocations();
    for plan in &plans {
        for cap in &plan.caps {
            let view = plan.view(*cap);
            let canonical =
                || CanonicalKey::materialise(&view, &plan.seed.options_json(), plan.flow.as_str());
            let (result, _) = cache.solve_with(plan.seed.key_for(&view), &view, canonical, || {
                unreachable!("the submission above filled every slot")
            });
            std::hint::black_box(result).ok();
        }
    }
    std::hint::black_box(SuiteReport::from_outcome(&outcome).to_json());
    let submit_allocations = allocations() - allocations_before;
    tracer.span("report.render", ROOT, NO_POINT, 0, |_| {
        std::hint::black_box(SuiteReport::from_outcome(&outcome).to_json())
    });
    tracer
        .write_jsonl(&args.spans)
        .map_err(|e| format!("cannot write {}: {e}", args.spans))?;

    let fields = [
        ("submissions", args.submissions as u64),
        ("points", points),
        ("reply_frames", frames.load(Ordering::Relaxed)),
        ("reply_bytes", bytes.load(Ordering::Relaxed)),
        ("report_mismatches", mismatches.load(Ordering::Relaxed)),
        ("memo_hits", after.hits - before.hits),
        ("memo_misses", after.misses - before.misses),
        ("submit_allocations", submit_allocations),
    ];
    Ok(counters_json(&fields, pass_wall))
}

/// What one served submission returned.
struct Served {
    report: String,
    frames: u64,
    bytes: u64,
}

/// Sends one request and reads replies up to the final `report` frame.
fn submit(stream: &mut TcpStream, request: &[u8]) -> Result<Served, String> {
    write_frame(stream, request).map_err(|e| format!("cannot submit: {e}"))?;
    let (mut frames, mut bytes) = (0, 0);
    loop {
        let frame = read_frame(stream)
            .map_err(|e| format!("connection failed: {e}"))?
            .ok_or("server closed the connection early")?;
        frames += 1;
        bytes += 4 + frame.len() as u64;
        let reply: Reply = serde_json::from_slice(&frame).map_err(|e| e.to_string())?;
        match reply.kind.as_str() {
            "accepted" | "point" => {}
            "report" if reply.message.is_none() => {
                let report = reply.report.ok_or("report reply carried no report")?;
                return Ok(Served {
                    report,
                    frames,
                    bytes,
                });
            }
            other => {
                return Err(format!(
                    "unexpected `{other}` reply: {}",
                    reply.message.unwrap_or_default()
                ))
            }
        }
    }
}

fn counters_json(fields: &[(&str, u64)], pass_wall: Duration) -> String {
    let mut json = format!("{{\"pass_wall_s\":{}", pass_wall.as_secs_f64());
    for (name, value) in fields {
        json.push_str(&format!(",\"{name}\":{value}"));
    }
    json.push('}');
    json
}
