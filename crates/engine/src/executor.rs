//! The batch executor: what a suite run computes, phase by phase.
//!
//! A suite expands into a flat list of *work items* — one per (scenario,
//! sweep point) pair, in suite order. Expansion is two-staged: a serial
//! *plan* pass resolves each scenario's workload, flow, options and hoisted
//! [`ScenarioKeySeed`] exactly once, and the *expand* phase turns every
//! sweep point into a work item holding a copy-on-write [`ConfigView`] — an
//! `Arc` of the scenario's base configuration plus the point's capacity cap
//! — instead of an owned clone.
//!
//! Expand, solve and validate each run as one cursor job on the pooled
//! [`Engine`]: threads claim item indices off one atomic cursor and every
//! result lands in the slot addressed by its index, so outcomes come back
//! in suite order no matter which worker ran what.
//! Combined with the cache's deterministic hit/miss accounting this makes
//! the run's report independent of the worker count.
//!
//! Every solve executes inside a `catch_unwind` boundary: a panicking solve
//! becomes an error outcome *on that point* — using the same error the
//! [`SolveCache`] poison-fills its slot with, so waiters on the panicking
//! key report identically — and the rest of the suite keeps running.

use crate::cache::{
    cancelled_solve_error, panicked_solve_error, CacheKey, CacheStats, CanonicalKey,
    ScenarioKeySeed, SolveCache, SolveSource,
};
use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::pool::Engine;
use crate::scenario::{Flow, Scenario, Suite};
use crate::store::StoreStats;
use crate::validate::PointValidation;
use bbs_taskgraph::{ConfigView, Configuration};
use budget_buffer::{
    compute_mapping_two_phase, compute_mapping_view, BudgetPolicy, Mapping, MappingError,
    SolveOptions,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a suite is executed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSettings {
    /// Number of worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Memoize solves in a run-wide [`SolveCache`].
    pub use_cache: bool,
    /// Firings per task when a point is replayed by the validation stage.
    pub simulation_iterations: usize,
    /// Replay every scenario's feasible points in the validation stage,
    /// whether or not the scenario requests it (`bbs validate`); `false`
    /// (the default) validates only scenarios flagged `validate: "sim"`.
    pub validate_all: bool,
    /// Fault injection for tests and CI chaos checks (the `panic-solve` or
    /// `stall-solve` directive of a [`FaultPlan`](crate::serve::FaultPlan)):
    /// the addressed point panics or sleeps while executing, before its
    /// cache lookup, so the fault fires on that point regardless of
    /// slot-claim races. A panic that matches no point of the suite is an
    /// error, never a silent no-op; a stall that matches none does nothing,
    /// because the serve layer applies one plan to every submission.
    /// `None` (the default) injects nothing.
    pub fault: Option<SolveFault>,
}

/// Selects one work item for fault injection (see [`RunSettings::fault`]):
/// the point of scenario `scenario` whose capacity cap is `capacity_cap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveFault {
    /// Name of the scenario to fault.
    pub scenario: String,
    /// Capacity cap of the sweep point to fault (`None` for single solves).
    pub capacity_cap: Option<u64>,
    /// What the addressed point does.
    pub action: FaultAction,
}

/// What the point a [`SolveFault`] addresses does while executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic: the point becomes a per-point error.
    Panic,
    /// Sleep this many milliseconds, then solve normally: the lever that
    /// keeps a submission running long enough for cancellation, deadline
    /// and disconnect paths to be testable.
    Stall(u64),
}

impl Default for RunSettings {
    fn default() -> Self {
        Self {
            jobs: 1,
            use_cache: true,
            simulation_iterations: 256,
            validate_all: false,
            fault: None,
        }
    }
}

impl RunSettings {
    /// Settings with `jobs` workers and the cache enabled.
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs,
            ..Self::default()
        }
    }
}

/// The outcome of one work item: one solve (plus optional validation).
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The capacity cap of the sweep point (`None` for single solves).
    pub capacity_cap: Option<u64>,
    /// The mapping, or the error that prevented one.
    pub result: Result<Mapping, MappingError>,
    /// Wall-clock time this worker spent actually solving: zero on cache
    /// hits (even ones that waited on another worker's in-flight solve, so
    /// shared work is never double-counted). Never part of the serialisable
    /// report.
    pub solve_time: Duration,
    /// Which tier — in-memory, disk, or neither — served the result.
    pub source: SolveSource,
    /// The validation stage's verdict, when this point was replayed (the
    /// scenario requested `validate: "sim"`, or the run forced
    /// [`RunSettings::validate_all`], and the solve was feasible).
    pub validation: Option<PointValidation>,
}

/// The outcome of one scenario: its resolved inputs plus one
/// [`PointOutcome`] per sweep point.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario as submitted.
    pub scenario: Scenario,
    /// The resolved (uncapped) workload configuration.
    pub configuration: Configuration,
    /// The resolved flow.
    pub flow: Flow,
    /// The resolved solver options.
    pub options: SolveOptions,
    /// One outcome per sweep point, in sweep order.
    pub points: Vec<PointOutcome>,
}

impl ScenarioOutcome {
    /// The total budgets of the feasible points, in sweep order (the series
    /// behind the Figure 2(b)-style derivative).
    pub fn feasible_total_budgets(&self) -> Vec<u64> {
        self.points
            .iter()
            .filter_map(|p| p.result.as_ref().ok().map(Mapping::total_budget))
            .collect()
    }
}

/// Pool counters of one run: how it was executed, not what it computed.
/// Printed with the timing summary and deliberately kept out of the
/// deterministic [`SuiteReport`](crate::SuiteReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Threads that drained the solve phase: `jobs` clamped to the pool
    /// size and to the number of work items.
    pub workers: u64,
    /// Always 0: every thread claims items off one shared cursor, so no
    /// item is ever stolen. Kept only for its one reader, the benchmark's
    /// `engine.steals` metric (`perfbench/traced`).
    pub steals: u64,
    /// Panicking items converted to per-point error outcomes.
    pub caught_panics: u64,
}

/// The outcome of a full suite run.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// Name of the suite.
    pub suite: String,
    /// One outcome per scenario, in suite order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Cache counters of the run, a function of the suite alone: one miss
    /// per distinct solve key and one hit per repeated one, however warm
    /// the cache was and whichever points a fault skipped (all zero when
    /// the cache was disabled).
    pub cache: CacheStats,
    /// Whether the cache was enabled.
    pub cache_enabled: bool,
    /// Counters of the persistent disk tier, when the cache carries one
    /// (see [`SolveCache::with_store`]).
    pub store: Option<StoreStats>,
    /// Scheduler counters of the run.
    pub executor: ExecutorStats,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
}

impl SuiteOutcome {
    /// Infeasible or failed points that the suite did not declare as
    /// expected, as `(scenario, capacity_cap, error)` tuples.
    ///
    /// `expect_infeasible` only excuses *infeasibility* — a model whose
    /// constraints genuinely admit no mapping. Solver breakdowns, model
    /// errors and verification failures are regressions and stay unexpected
    /// even in such scenarios, so they can never hide behind an expected
    /// false negative.
    pub fn unexpected_failures(&self) -> Vec<(String, Option<u64>, String)> {
        let mut failures = Vec::new();
        for outcome in &self.scenarios {
            let expect_infeasible = outcome.scenario.expect_infeasible.unwrap_or(false);
            for point in &outcome.points {
                if let Err(error) = &point.result {
                    if expect_infeasible && is_infeasibility(error) {
                        continue;
                    }
                    failures.push((
                        outcome.scenario.name.clone(),
                        point.capacity_cap,
                        error.to_string(),
                    ));
                }
            }
        }
        failures
    }
}

/// Whether an error reports genuine infeasibility (no mapping exists) as
/// opposed to a solver, model or verification failure.
fn is_infeasibility(error: &MappingError) -> bool {
    matches!(
        error,
        MappingError::Infeasible { .. }
            | MappingError::CapBelowInitialTokens { .. }
            | MappingError::ProcessorOverloaded { .. }
            | MappingError::MemoryOverflow { .. }
    )
}

/// One solve to perform: a copy-on-write [`ConfigView`] of the scenario's
/// shared base configuration (plus the point's capacity cap). The cache key
/// is pre-derived (from the scenario's hoisted [`ScenarioKeySeed`],
/// streaming straight from the view) so workers never serialise anything on
/// the hot path; the shared seed rides along for the lazy [`CanonicalKey`]
/// materialisation of points that reach the disk tier (its options JSON is
/// built at most once per scenario, and not at all without a store).
/// Building an item allocates nothing: the view is two `Arc` bumps and a
/// `Copy` cap, and the capped configuration only materialises at the solver
/// boundary, for points that actually solve.
pub(crate) struct WorkItem {
    capacity_cap: Option<u64>,
    view: ConfigView,
    options: SolveOptions,
    seed: Arc<ScenarioKeySeed>,
    flow: Flow,
    key: CacheKey,
}

impl WorkItem {
    /// The pre-derived cache key of this solve — what every run counts
    /// distinct keys over for its report's hit/miss counters.
    pub(crate) fn key(&self) -> CacheKey {
        self.key
    }
}

/// The solve phase of one run: item `i` of its cursor job solves
/// `items[i]`.
pub(crate) struct SolveJob {
    pub(crate) items: Vec<WorkItem>,
    pub(crate) cache: Arc<SolveCache>,
    pub(crate) settings: RunSettings,
    /// Flat index of the point [`RunSettings::fault`] addresses.
    pub(crate) fault_target: Option<usize>,
    pub(crate) cancel: CancelToken,
    pub(crate) caught_panics: Arc<AtomicU64>,
}

impl SolveJob {
    /// Solves item `index` behind the panic boundary: a panicking solve
    /// becomes an error outcome on this point, with the same error the
    /// cache poison-fills its slot with (see
    /// [`panicked_solve_error`](crate::cache)), so the claimer and every
    /// waiter of a panicking key report identically regardless of which of
    /// them this item happened to be.
    ///
    /// The run's [`CancelToken`] is checked first: an item claimed after it
    /// fired is retired *unsolved* — its slot still reports exactly once,
    /// assembly completes normally, and only the items already executing
    /// run to completion.
    pub(crate) fn run(&self, index: usize) -> PointOutcome {
        let item = &self.items[index];
        if self.cancel.is_cancelled() {
            // The placeholder outcome is never reported: a cancelled run
            // yields `EngineError::Cancelled`, not an outcome.
            return unsolved(item, cancelled_solve_error());
        }
        let fault = match &self.settings.fault {
            Some(fault) if self.fault_target == Some(index) => Some(fault.action),
            _ => None,
        };
        let execute = || execute_item(index, item, &self.cache, &self.settings, fault);
        catch_unwind(AssertUnwindSafe(execute)).unwrap_or_else(|_| {
            self.caught_panics.fetch_add(1, Ordering::Relaxed);
            unsolved(item, panicked_solve_error())
        })
    }
}

/// The outcome of an item that never produced a mapping of its own.
fn unsolved(item: &WorkItem, error: MappingError) -> PointOutcome {
    PointOutcome {
        capacity_cap: item.capacity_cap,
        result: Err(error),
        solve_time: Duration::ZERO,
        source: SolveSource::Fresh,
        validation: None,
    }
}

/// Runs a whole suite with a fresh solve cache on a temporary
/// [`Engine`] of `settings.jobs` workers. Callers that run suites
/// repeatedly should hold an `Engine` instead: its workers park between
/// runs.
///
/// # Errors
///
/// Returns an [`EngineError`] when the suite fails validation; solver-level
/// failures are *data* (recorded per point), not errors.
pub fn run_suite(suite: &Suite, settings: &RunSettings) -> Result<SuiteOutcome, EngineError> {
    Engine::new(settings.jobs).run_suite(suite, settings)
}

/// The per-scenario resolution of one suite: the built workload (shared
/// with every work item's view), flow, options and point count. The
/// scenario itself is *not* cloned here — the outcome assembler reads it
/// back from the suite it already borrows.
pub(crate) struct ResolvedScenario {
    pub(crate) configuration: Arc<Configuration>,
    pub(crate) flow: Flow,
    pub(crate) options: SolveOptions,
    pub(crate) points: usize,
}

/// One scenario resolved but not yet expanded: everything
/// [`ScenarioPlan::item`] needs to mint any of the scenario's work items.
pub(crate) struct ScenarioPlan {
    configuration: Arc<Configuration>,
    options: SolveOptions,
    seed: Arc<ScenarioKeySeed>,
    flow: Flow,
    caps: Vec<Option<u64>>,
}

impl ScenarioPlan {
    /// Mints the work item of one sweep point. Allocation-free: the view
    /// shares the plan's base configuration, the options are heap-free, and
    /// the cache key streams straight from the view.
    fn item(&self, point_index: usize) -> WorkItem {
        let cap = self.caps[point_index];
        let view = match cap {
            Some(cap) => ConfigView::with_capacity_cap(Arc::clone(&self.configuration), cap),
            None => ConfigView::new(Arc::clone(&self.configuration)),
        };
        let key = self.seed.key_for(&view);
        WorkItem {
            capacity_cap: cap,
            view,
            options: self.options.clone(),
            seed: Arc::clone(&self.seed),
            flow: self.flow,
            key,
        }
    }
}

/// The expand phase of one run: item `i` of its cursor job mints the work
/// item of flat (suite-order) index `i`.
pub(crate) struct Expansion {
    plans: Vec<ScenarioPlan>,
    /// The flat index of each plan's first point.
    starts: Vec<usize>,
    points: usize,
}

impl Expansion {
    fn new(plans: Vec<ScenarioPlan>) -> Self {
        let mut starts = Vec::with_capacity(plans.len());
        let mut points = 0;
        for plan in &plans {
            starts.push(points);
            points += plan.caps.len();
        }
        Self {
            plans,
            starts,
            points,
        }
    }

    /// Number of work items the suite expands to.
    pub(crate) fn points(&self) -> usize {
        self.points
    }

    /// Mints the work item at flat index `index`; allocation-free.
    pub(crate) fn item(&self, index: usize) -> WorkItem {
        // The last plan starting at or before `index` owns it.
        let plan = self.starts.partition_point(|&start| start <= index) - 1;
        self.plans[plan].item(index - self.starts[plan])
    }
}

/// A suite resolved into per-scenario plans, not yet expanded into items.
pub(crate) struct Planned {
    pub(crate) resolved: Vec<ResolvedScenario>,
    pub(crate) expansion: Expansion,
    pub(crate) fault_target: Option<usize>,
}

/// The serial half of preparation: resolves every scenario exactly once
/// (full `Suite::validate` would build each workload a second time just to
/// discard it), hoists the per-scenario [`ScenarioKeySeed`], expands the
/// sweep specs to cap lists, and resolves the injected fault to a flat item
/// index. No per-point work happens here — that is the expand phase.
pub(crate) fn plan(suite: &Suite, settings: &RunSettings) -> Result<Planned, EngineError> {
    suite.validate_structure()?;
    let in_scenario = |name: &str, e: EngineError| {
        EngineError::InvalidScenario(format!("scenario `{name}`: {e}"))
    };
    let mut resolved = Vec::with_capacity(suite.scenarios.len());
    let mut plans = Vec::with_capacity(suite.scenarios.len());
    // Consecutive scenarios overwhelmingly share options and flow (whole
    // built-in suites use the paper defaults), so the hoisted seed is
    // reused across scenarios too: one options fold for a hundred
    // same-options scenarios instead of one each.
    let mut last_seed: Option<(SolveOptions, Flow, Arc<ScenarioKeySeed>)> = None;
    // The injected fault resolved to a flat item index, so workers compare
    // one index instead of a per-item scenario-name clone.
    let fault = settings.fault.as_ref();
    let mut fault_target: Option<usize> = None;
    let mut first_point = 0;
    for scenario in &suite.scenarios {
        let configuration = Arc::new(
            scenario
                .workload
                .resolve()
                .map_err(|e| in_scenario(&scenario.name, e))?,
        );
        let flow = scenario
            .resolved_flow()
            .map_err(|e| in_scenario(&scenario.name, e))?;
        // The validation stage reads the mode back from the outcome's
        // scenario; rejecting unknown modes here keeps that read
        // infallible.
        scenario
            .resolved_validation()
            .map_err(|e| in_scenario(&scenario.name, e))?;
        let options = scenario.resolved_options();
        // The key-derivation constants of the scenario — options and flow —
        // are folded into the digest state exactly once here (or reused
        // outright); each expanded point only streams its own view.
        let seed = match &last_seed {
            Some((seed_options, seed_flow, seed))
                if *seed_flow == flow && seed_options == &options =>
            {
                Arc::clone(seed)
            }
            _ => {
                let seed = Arc::new(ScenarioKeySeed::new(&options, flow.as_str()));
                last_seed = Some((options.clone(), flow, Arc::clone(&seed)));
                seed
            }
        };
        let caps: Vec<Option<u64>> = match &scenario.sweep {
            Some(sweep) => sweep
                .caps()
                .map_err(|e| in_scenario(&scenario.name, e))?
                .into_iter()
                .map(Some)
                .collect(),
            None => vec![None],
        };
        if let Some(fault) = fault.filter(|fault| fault.scenario == scenario.name) {
            fault_target = caps
                .iter()
                .position(|cap| *cap == fault.capacity_cap)
                .map(|point| first_point + point);
        }
        first_point += caps.len();
        resolved.push(ResolvedScenario {
            configuration: Arc::clone(&configuration),
            flow,
            options: options.clone(),
            points: caps.len(),
        });
        plans.push(ScenarioPlan {
            configuration,
            options,
            seed,
            flow,
            caps,
        });
    }

    // A panic that addresses no point would make every chaos check pass
    // vacuously — refuse it instead of silently not injecting. A stall that
    // matches nothing is deliberately *not* refused: the serve layer
    // applies one fault plan to every submission, and only the addressed
    // suite should slow down.
    if let Some(fault) = fault.filter(|fault| fault.action == FaultAction::Panic) {
        if fault_target.is_none() {
            return Err(EngineError::InvalidInput(format!(
                "panic-solve matches no work item: scenario `{}` has no point with capacity \
                 cap {:?}",
                fault.scenario, fault.capacity_cap
            )));
        }
    }
    Ok(Planned {
        resolved,
        expansion: Expansion::new(plans),
        fault_target,
    })
}

/// What a suite expands to, without solving anything — the counts behind
/// `bbs check --suite` style diagnostics, the expansion benchmarks and the
/// allocation regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpansionSummary {
    /// Scenarios resolved.
    pub scenarios: usize,
    /// Work items (one per scenario × sweep point) expanded.
    pub points: usize,
}

/// Assembles the run's [`SuiteOutcome`] from the solve phase's results,
/// which arrive in flat suite order, and the run's cache `counters`. The
/// wall time is left for the caller to stamp once the validation stage is
/// done.
pub(crate) fn assemble_outcome(
    suite: &Suite,
    resolved: Vec<ResolvedScenario>,
    points: Vec<PointOutcome>,
    settings: &RunSettings,
    cache: &SolveCache,
    counters: CacheStats,
    executor: ExecutorStats,
) -> SuiteOutcome {
    let mut points = points.into_iter();
    let scenarios = suite
        .scenarios
        .iter()
        .zip(resolved)
        .map(|(scenario, resolved)| ScenarioOutcome {
            scenario: scenario.clone(),
            // Every work item (and its view) is gone once the solve phase
            // returns, so the shared base is normally unwrapped for free; a
            // straggling reference costs one clone per scenario, never per
            // point.
            configuration: Arc::try_unwrap(resolved.configuration)
                .unwrap_or_else(|shared| (*shared).clone()),
            flow: resolved.flow,
            options: resolved.options,
            points: points.by_ref().take(resolved.points).collect(),
        })
        .collect();

    SuiteOutcome {
        suite: suite.name.clone(),
        scenarios,
        cache: counters,
        cache_enabled: settings.use_cache,
        store: settings
            .use_cache
            .then(|| cache.store().map(|store| store.stats()))
            .flatten(),
        executor,
        wall_time: Duration::ZERO,
    }
}

/// Runs a single scenario (a one-element suite with the scenario's name).
///
/// # Errors
///
/// See [`run_suite`].
pub fn run_scenario(
    scenario: &Scenario,
    settings: &RunSettings,
) -> Result<ScenarioOutcome, EngineError> {
    let suite = Suite::new(&scenario.name, vec![scenario.clone()]);
    let outcome = run_suite(&suite, settings)?;
    Ok(outcome
        .scenarios
        .into_iter()
        .next()
        .expect("one scenario in, one outcome out"))
}

fn execute_item(
    index: usize,
    item: &WorkItem,
    cache: &SolveCache,
    settings: &RunSettings,
    fault: Option<FaultAction>,
) -> PointOutcome {
    // Deliberately *before* the cache lookup: a fault inside the solve
    // closure would only fire if this point happened to be the slot
    // claimer, making the faulted outcome race-dependent. Here the
    // addressed point always panics or stalls — and nothing else does — so
    // injected-fault reports stay `--jobs`-deterministic. (The
    // claimer-panic path through the cache's slot poison-fill is
    // unit-covered in `cache::tests`.)
    match fault {
        Some(FaultAction::Panic) => panic!(
            "injected panic: work item {index}, cap {:?}",
            item.capacity_cap
        ),
        Some(FaultAction::Stall(millis)) => std::thread::sleep(Duration::from_millis(millis)),
        None => {}
    }
    // Timed inside the closure so that a cache hit — including one that
    // blocks waiting for another worker's in-flight solve — reports zero
    // solver work instead of double-counting the shared solve.
    let solve_duration = std::cell::Cell::new(Duration::ZERO);
    let solve = || {
        let start = Instant::now();
        let result = solve_flow(&item.view, &item.options, item.flow);
        solve_duration.set(start.elapsed());
        result
    };
    let (result, source) = if settings.use_cache {
        // The key was pre-derived from the scenario's hoisted seed; the
        // full canonical JSON is only materialised — by the slot claimer,
        // once per distinct key — when a disk tier actually needs it. Both
        // stream straight from the view, byte-identically to the capped
        // clone they replace.
        let canonical =
            || CanonicalKey::materialise(&item.view, &item.seed.options_json(), item.flow.as_str());
        cache.solve_with(item.key, &item.view, canonical, solve)
    } else {
        (solve(), SolveSource::Fresh)
    };
    let solve_time = solve_duration.get();
    PointOutcome {
        capacity_cap: item.capacity_cap,
        result,
        solve_time,
        source,
        // Replays happen in the post-solve validation stage, never here:
        // the solve path stays cache-shaped (one mapping per distinct key)
        // and validation stays a pure function of the assembled outcome.
        validation: None,
    }
}

fn solve_flow(
    view: &ConfigView,
    options: &SolveOptions,
    flow: Flow,
) -> Result<Mapping, MappingError> {
    match flow {
        // The joint flow consumes the view directly (the formulation takes
        // the cap as an override); the two-phase baselines still demand an
        // owned configuration, so the view materialises here — the solver
        // boundary, where mutation is real — and only for points that
        // actually solve (cache hits never reach this closure).
        Flow::Joint => compute_mapping_view(view, options),
        Flow::TwoPhaseMin => {
            compute_mapping_two_phase(view.config(), BudgetPolicy::ThroughputMinimum, options)
                .map(|outcome| outcome.mapping)
        }
        Flow::TwoPhaseFair => {
            compute_mapping_two_phase(view.config(), BudgetPolicy::FairShare, options)
                .map(|outcome| outcome.mapping)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SweepSpec, WorkloadSpec};
    use bbs_taskgraph::presets::PresetSpec;
    use budget_buffer::sweep_buffer_capacity;

    fn pc_sweep_scenario(name: &str) -> Scenario {
        Scenario::new(
            name,
            WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
        )
        .with_sweep(SweepSpec::range(1, 6))
    }

    /// A panic injected at `scenario`'s point of capacity cap `cap`.
    fn panic_at(scenario: &str, cap: Option<u64>) -> Option<SolveFault> {
        Some(SolveFault {
            scenario: scenario.to_string(),
            capacity_cap: cap,
            action: FaultAction::Panic,
        })
    }

    #[test]
    fn engine_sweep_matches_direct_sweep() {
        let outcome = run_scenario(&pc_sweep_scenario("pc"), &RunSettings::default()).unwrap();
        let direct = sweep_buffer_capacity(
            &outcome.configuration,
            1..=6,
            &SolveOptions::default().prefer_budget_minimisation(),
        )
        .unwrap();
        assert_eq!(outcome.points.len(), direct.len());
        for (point, reference) in outcome.points.iter().zip(&direct) {
            assert_eq!(point.capacity_cap, Some(reference.capacity_cap));
            assert_eq!(point.result.as_ref().unwrap(), &reference.mapping);
        }
    }

    #[test]
    fn parallel_run_produces_same_mappings_in_same_order() {
        let suite = Suite::new("par", vec![pc_sweep_scenario("a"), pc_sweep_scenario("b")]);
        let sequential = run_suite(&suite, &RunSettings::with_jobs(1)).unwrap();
        let parallel = run_suite(&suite, &RunSettings::with_jobs(8)).unwrap();
        assert_eq!(sequential.scenarios.len(), parallel.scenarios.len());
        for (s, p) in sequential.scenarios.iter().zip(&parallel.scenarios) {
            assert_eq!(s.scenario.name, p.scenario.name);
            for (sp, pp) in s.points.iter().zip(&p.points) {
                assert_eq!(sp.capacity_cap, pp.capacity_cap);
                assert_eq!(sp.result.as_ref().unwrap(), pp.result.as_ref().unwrap());
            }
        }
        assert_eq!(sequential.cache, parallel.cache);
    }

    /// Regression test for the per-point options re-serialisation bug: a
    /// sweep used to call `serde_json::to_string(options)` for every point
    /// of every scenario. Now a storeless run serialises options zero
    /// times, and a store-backed run exactly once per scenario (the first
    /// claimer materialises, the shared seed caches).
    #[test]
    fn suite_runs_serialise_options_at_most_once_per_scenario() {
        let suite = Suite::new("hoist", vec![pc_sweep_scenario("hoist")]);

        let before = crate::cache::options_serialisation_count();
        run_suite(&suite, &RunSettings::default()).unwrap();
        assert_eq!(
            crate::cache::options_serialisation_count() - before,
            0,
            "a run without a disk tier must not serialise options at all"
        );

        let directory = crate::testutil::TempDir::new("options-hoist");
        let store = crate::store::SolveStore::open(directory.path()).unwrap();
        let cache = Arc::new(SolveCache::with_store(store));
        let before = crate::cache::options_serialisation_count();
        Engine::new(1)
            .run_suite_with_cache(&suite, &RunSettings::default(), &cache)
            .unwrap();
        assert_eq!(
            crate::cache::options_serialisation_count() - before,
            1,
            "six store-backed points must serialise their options exactly once"
        );
    }

    #[test]
    fn identical_scenarios_hit_the_cache() {
        let suite = Suite::new(
            "cached",
            vec![pc_sweep_scenario("first"), pc_sweep_scenario("second")],
        );
        let outcome = run_suite(&suite, &RunSettings::default()).unwrap();
        assert_eq!(outcome.cache.misses, 6);
        assert_eq!(outcome.cache.hits, 6);
        assert!(outcome.scenarios[1]
            .points
            .iter()
            .all(|p| p.source == SolveSource::Memory));
        assert!(outcome.unexpected_failures().is_empty());
    }

    #[test]
    fn repeated_runs_reuse_a_shared_cache() {
        let suite = Suite::new("repeat", vec![pc_sweep_scenario("pc")]);
        let engine = Engine::new(1);
        let cache = Arc::new(SolveCache::new());
        let settings = RunSettings::default();
        let first = engine
            .run_suite_with_cache(&suite, &settings, &cache)
            .unwrap();
        assert_eq!(first.cache.misses, 6);
        assert_eq!(first.cache.hits, 0);
        let second = engine
            .run_suite_with_cache(&suite, &settings, &cache)
            .unwrap();
        // Counters are a function of the suite: the warm run reports the
        // cold run's, and every point came from memory (no new solves).
        assert_eq!(second.cache, first.cache);
        assert!(second.scenarios[0]
            .points
            .iter()
            .all(|p| p.source == SolveSource::Memory));
        for (a, b) in first.scenarios[0]
            .points
            .iter()
            .zip(&second.scenarios[0].points)
        {
            assert_eq!(a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        }
    }

    #[test]
    fn disabled_cache_reports_zero_counters() {
        let settings = RunSettings {
            use_cache: false,
            ..RunSettings::default()
        };
        let outcome = run_scenario(&pc_sweep_scenario("raw"), &settings).unwrap();
        assert!(outcome
            .points
            .iter()
            .all(|p| p.source == SolveSource::Fresh));
        // Even a dirty shared cache must not leak counters into a run that
        // bypassed it.
        let engine = Engine::new(1);
        let cache = Arc::new(SolveCache::new());
        let suite = Suite::new("raw", vec![pc_sweep_scenario("raw")]);
        engine
            .run_suite_with_cache(&suite, &RunSettings::default(), &cache)
            .unwrap();
        let bypassed = engine
            .run_suite_with_cache(&suite, &settings, &cache)
            .unwrap();
        assert!(!bypassed.cache_enabled);
        assert_eq!(bypassed.cache, CacheStats { hits: 0, misses: 0 });
    }

    #[test]
    fn expect_infeasible_excuses_only_genuine_infeasibility() {
        use bbs_conic::ConicError;

        assert!(is_infeasibility(&MappingError::Infeasible {
            detail: "x".to_string()
        }));
        assert!(!is_infeasibility(&MappingError::Solver(
            ConicError::NonFiniteData
        )));

        // A solver breakdown inside an expect_infeasible scenario still
        // counts as an unexpected failure.
        let scenario = pc_sweep_scenario("broken").expecting_infeasible();
        let configuration = scenario.workload.resolve().unwrap();
        let options = scenario.resolved_options();
        let outcome = SuiteOutcome {
            suite: "s".to_string(),
            scenarios: vec![ScenarioOutcome {
                scenario,
                configuration,
                flow: Flow::Joint,
                options,
                points: vec![
                    PointOutcome {
                        capacity_cap: Some(1),
                        result: Err(MappingError::Infeasible {
                            detail: "expected".to_string(),
                        }),
                        solve_time: Duration::ZERO,
                        source: SolveSource::Fresh,
                        validation: None,
                    },
                    PointOutcome {
                        capacity_cap: Some(2),
                        result: Err(MappingError::Solver(ConicError::NonFiniteData)),
                        solve_time: Duration::ZERO,
                        source: SolveSource::Fresh,
                        validation: None,
                    },
                ],
            }],
            cache: CacheStats { hits: 0, misses: 0 },
            cache_enabled: true,
            store: None,
            executor: ExecutorStats::default(),
            wall_time: Duration::ZERO,
        };
        let failures = outcome.unexpected_failures();
        assert_eq!(failures.len(), 1, "only the solver breakdown surfaces");
        assert_eq!(failures[0].1, Some(2));
    }

    #[test]
    fn infeasible_points_are_data_not_errors() {
        // Ring with 2 initial tokens is infeasible at cap 1 (cap below the
        // initial tokens).
        let scenario = Scenario::new(
            "ring-tight",
            WorkloadSpec::preset(
                PresetSpec::named("ring")
                    .with_tasks(3)
                    .with_initial_tokens(2),
            ),
        )
        .with_sweep(SweepSpec::range(1, 3))
        .expecting_infeasible();
        let outcome = run_scenario(&scenario, &RunSettings::default()).unwrap();
        assert!(outcome.points[0].result.is_err());
        assert!(outcome.points[1].result.is_ok());
        let suite = Suite::new("s", vec![scenario]);
        let suite_outcome = run_suite(&suite, &RunSettings::default()).unwrap();
        assert!(suite_outcome.unexpected_failures().is_empty());
    }

    /// Regression test for the poisoned-queue abort: before the rewrite a
    /// panicking solve poisoned the shared queue mutex and the next pop's
    /// `expect("queue lock poisoned")` took the whole run down. Now the
    /// panicking point reports a per-point error and every other point
    /// still solves.
    #[test]
    fn panicking_solve_is_a_per_point_error_not_an_abort() {
        let suite = Suite::new(
            "faulted",
            vec![pc_sweep_scenario("a"), pc_sweep_scenario("b")],
        );
        let settings = RunSettings {
            jobs: 4,
            fault: panic_at("a", Some(3)),
            ..RunSettings::default()
        };
        let outcome = run_suite(&suite, &settings).unwrap();
        assert_eq!(outcome.executor.caught_panics, 1);
        for scenario in &outcome.scenarios {
            for point in &scenario.points {
                if scenario.scenario.name == "a" && point.capacity_cap == Some(3) {
                    let error = point.result.as_ref().unwrap_err().to_string();
                    assert!(error.contains("panicked"), "unexpected error: {error}");
                } else {
                    assert!(point.result.is_ok(), "other points must still solve");
                }
            }
        }
        // The panic is a solver breakdown, so it must surface as an
        // unexpected failure (and fail `bbs run`), never hide.
        assert_eq!(outcome.unexpected_failures().len(), 1);
    }

    #[test]
    fn panicking_solve_keeps_reports_jobs_deterministic() {
        let suite = Suite::new(
            "faulted",
            vec![pc_sweep_scenario("a"), pc_sweep_scenario("b")],
        );
        let report = |jobs: usize| {
            let settings = RunSettings {
                jobs,
                fault: panic_at("b", Some(2)),
                ..RunSettings::default()
            };
            crate::SuiteReport::from_outcome(&run_suite(&suite, &settings).unwrap()).to_json()
        };
        assert_eq!(report(1), report(8));
    }

    #[test]
    fn injection_matching_no_point_is_refused() {
        // A typo'd scenario or out-of-sweep cap must error, not silently
        // inject nothing and let a chaos check pass vacuously.
        for (scenario, cap) in [("nope", Some(3)), ("a", Some(99)), ("a", None)] {
            let settings = RunSettings {
                fault: panic_at(scenario, cap),
                ..RunSettings::default()
            };
            let error = run_scenario(&pc_sweep_scenario("a"), &settings).unwrap_err();
            assert!(
                error.to_string().contains("matches no work item"),
                "unexpected error: {error}"
            );
        }
    }

    #[test]
    fn a_stall_matching_no_point_is_a_no_op() {
        // The serve layer applies one plan to every submission, so a stall
        // addressed to another suite must leave this one alone.
        let settings = RunSettings {
            fault: Some(SolveFault {
                scenario: "elsewhere".to_string(),
                capacity_cap: Some(1),
                action: FaultAction::Stall(60_000),
            }),
            ..RunSettings::default()
        };
        let outcome = run_scenario(&pc_sweep_scenario("a"), &settings).unwrap();
        assert!(outcome.points.iter().all(|p| p.result.is_ok()));
    }

    #[test]
    fn uncached_panicking_solve_is_caught_too() {
        let settings = RunSettings {
            use_cache: false,
            jobs: 2,
            fault: panic_at("raw", Some(1)),
            ..RunSettings::default()
        };
        let outcome = run_scenario(&pc_sweep_scenario("raw"), &settings).unwrap();
        assert!(outcome.points[0].result.is_err());
        assert!(outcome.points[1..].iter().all(|p| p.result.is_ok()));
    }

    #[test]
    fn single_worker_executes_in_suite_order() {
        // With one worker the calling thread claims the cursor's indices
        // in ascending order, walking the suite front to back: the first
        // scenario claims every key and the second one hits memory — the
        // user-visible order a sequential run has always had.
        let suite = Suite::new(
            "order",
            vec![pc_sweep_scenario("first"), pc_sweep_scenario("second")],
        );
        let outcome = run_suite(&suite, &RunSettings::default()).unwrap();
        assert!(outcome.scenarios[0]
            .points
            .iter()
            .all(|p| p.source == SolveSource::Fresh));
        assert!(outcome.scenarios[1]
            .points
            .iter()
            .all(|p| p.source == SolveSource::Memory));
    }

    #[test]
    fn oversubscribed_pool_steals_and_stays_deterministic() {
        // More workers than a single scenario's share: 16 threads claim 24
        // items of four scenarios off one cursor, most of them one each.
        let scenarios: Vec<Scenario> = (0..4)
            .map(|i| pc_sweep_scenario(&format!("s{i}")))
            .collect();
        let suite = Suite::new("oversub", scenarios);
        let sequential = run_suite(&suite, &RunSettings::with_jobs(1)).unwrap();
        let parallel = run_suite(&suite, &RunSettings::with_jobs(16)).unwrap();
        assert_eq!(
            crate::SuiteReport::from_outcome(&sequential).to_json(),
            crate::SuiteReport::from_outcome(&parallel).to_json()
        );
        assert_eq!(parallel.executor.workers, 16);
    }

    #[test]
    fn two_phase_flow_runs_through_engine() {
        let scenario = Scenario::new(
            "tp",
            WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
        )
        .with_flow(Flow::TwoPhaseFair);
        let outcome = run_scenario(&scenario, &RunSettings::default()).unwrap();
        let direct = compute_mapping_two_phase(
            &outcome.configuration,
            BudgetPolicy::FairShare,
            &SolveOptions::default().prefer_budget_minimisation(),
        )
        .unwrap();
        assert_eq!(outcome.points[0].result.as_ref().unwrap(), &direct.mapping);
    }

    #[test]
    fn legacy_simulate_flag_still_checks_the_guarantee() {
        let scenario = Scenario::new(
            "sim",
            WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
        )
        .with_sweep(SweepSpec::list([4u64]))
        .with_simulation();
        let outcome = run_scenario(&scenario, &RunSettings::default()).unwrap();
        let check = outcome.points[0].validation.as_ref().unwrap();
        assert!(check.is_sound(), "paper setup must meet its guarantee");
        assert_eq!(check.required_period, 10.0);
        assert!(check.measured_period.is_finite());
    }
}
