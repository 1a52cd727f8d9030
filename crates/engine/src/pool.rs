//! The engine: one persistent worker pool and the one parallel primitive
//! every job of a run uses.
//!
//! A run is a serial plan and two *cursor jobs* — solve every point, then
//! replay each distinct solved mapping once. A cursor job is `len`
//! independent items whose indices the participating threads claim off a
//! shared `AtomicUsize`, in ascending order, with item `i`'s result landing
//! in slot `i`. Results therefore come back in suite order no matter who
//! ran what, so reports are byte-identical across worker counts. The replay
//! job's verdicts are then copied to every (scenario, point) that shares
//! the mapping, in suite order too.
//!
//! One rule decides who drains a job: its useful parallelism is `jobs`
//! clamped to [`Engine::workers`] and to the item count, and the calling
//! thread is always one of the drainers. An engine of `n` workers spawns
//! `n − 1` pooled threads, which park on an idle channel receive between
//! jobs (no spinning, no wakeups); a job with `t` useful threads is sent to
//! `t − 1` of them, drained on the calling thread alongside them, and
//! handed back once the last of them has retired. With one useful thread
//! nothing is sent, so `--jobs 1` walks the suite front to back without a
//! thread hop.
//!
//! The free [`run_suite`](crate::run_suite) and
//! [`run_scenario`](crate::run_scenario) are thin wrappers over a temporary
//! engine.
//!
//! # Example
//!
//! ```
//! use bbs_engine::suites::smoke_suite;
//! use bbs_engine::{Engine, RunSettings, SolveCache, SolveSource};
//! use std::sync::Arc;
//!
//! let engine = Engine::new(4);
//! let cache = Arc::new(SolveCache::new());
//! let settings = RunSettings::with_jobs(4);
//! // Two runs over the same pool: the second re-uses both the parked
//! // worker threads and the shared cache (zero fresh solves).
//! let first = engine
//!     .run_suite_with_cache(&smoke_suite(), &settings, &cache)
//!     .unwrap();
//! let second = engine
//!     .run_suite_with_cache(&smoke_suite(), &settings, &cache)
//!     .unwrap();
//! // The counters are the suite's, however warm the cache was.
//! assert_eq!(second.cache, first.cache);
//! assert!(second
//!     .scenarios
//!     .iter()
//!     .flat_map(|scenario| &scenario.points)
//!     .all(|point| point.source == SolveSource::Memory), "no new solves");
//! ```

use crate::cache::{CacheKey, CacheStats, SolveCache};
use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::executor::{
    assemble_outcome, plan, ExecutorStats, ExpansionSummary, PointOutcome, RunSettings, SolveJob,
    SuiteOutcome,
};
use crate::scenario::Suite;
use crate::validate::{replay_guarded, replay_tasks};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// One job of a run: `slots.len()` independent items, claimed off `cursor`
/// in ascending order; item `i`'s result lands in `slots[i]`.
struct CursorJob<T, F> {
    cursor: AtomicUsize,
    slots: Vec<OnceLock<T>>,
    run: F,
}

/// The type-erased face of a [`CursorJob`] that its drainers see.
trait Drain: Send + Sync {
    /// Claims and runs items until the cursor passes the last one.
    fn drain(&self);
}

impl<T, F> Drain for CursorJob<T, F>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Send + Sync,
{
    fn drain(&self) {
        loop {
            // Relaxed: the cursor only hands out indices. Results are
            // published by the slots' own synchronisation and by the job's
            // hand-back to the caller once every drainer has retired.
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.slots.get(index) else {
                break;
            };
            // The cursor hands out every index once, so the slot is empty.
            let _ = slot.set((self.run)(index));
        }
    }
}

/// What a parked worker is handed: the job to drain, and a sender whose
/// drop tells the caller that this worker retired. Fields drop in
/// declaration order, even while unwinding, so the job handle is always
/// released before the retirement is signalled.
struct Assignment {
    job: Arc<dyn Drain>,
    _retired: mpsc::Sender<()>,
}

/// One pooled thread: its assignment channel plus the join handle. The
/// sender is an `Option` only so `Drop` can close the channel (waking the
/// parked thread into a clean exit) before joining.
struct Worker {
    assignments: Option<mpsc::Sender<Assignment>>,
    thread: Option<JoinHandle<()>>,
}

/// A reusable batch engine: the calling thread plus a pool of threads
/// spawned once, parked between jobs, and reused by every
/// [`Engine::run_suite`] call. See the [module docs](self).
pub struct Engine {
    pooled: Vec<Worker>,
}

impl Engine {
    /// An engine whose jobs `workers` threads can drain (clamped to at
    /// least 1): the calling thread plus `workers − 1` pooled threads,
    /// spawned here. They park immediately and cost nothing until a job is
    /// sent to them; `Engine::new(1)` spawns none.
    pub fn new(workers: usize) -> Self {
        let pooled = (1..workers.max(1))
            .map(|index| {
                let (assignments, inbox) = mpsc::channel::<Assignment>();
                let thread = std::thread::Builder::new()
                    .name(format!("bbs-engine-{index}"))
                    .spawn(move || {
                        // Parked here between jobs; exits when the Engine
                        // drops its sender.
                        while let Ok(assignment) = inbox.recv() {
                            assignment.job.drain();
                        }
                    })
                    .expect("spawning an engine worker thread");
                Worker {
                    assignments: Some(assignments),
                    thread: Some(thread),
                }
            })
            .collect();
        Self { pooled }
    }

    /// Number of threads that can drain a job: the calling thread plus the
    /// pooled ones — the `workers` the engine was built with.
    pub fn workers(&self) -> usize {
        self.pooled.len() + 1
    }

    /// Runs a whole suite on this engine with a fresh solve cache.
    /// `settings.jobs` is honoured up to [`Engine::workers`].
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when the suite fails validation;
    /// solver-level failures are *data* (recorded per point), not errors.
    pub fn run_suite(
        &self,
        suite: &Suite,
        settings: &RunSettings,
    ) -> Result<SuiteOutcome, EngineError> {
        self.run_suite_with_cache(suite, settings, &Arc::new(SolveCache::new()))
    }

    /// Runs a whole suite on this engine against a caller-owned
    /// (shared) [`SolveCache`], so repeated runs skip redundant solves.
    ///
    /// The outcome's counters are a function of the suite alone — `misses`
    /// is the number of distinct solve keys it expands to, `hits` the
    /// number of repeated ones (zero both without the cache) — so a run's
    /// report is byte-identical to a fresh-cache run of the same suite
    /// **no matter how warm the shared tiers are**. What the shared tiers
    /// actually answered stays observable in the outcome's `store` counters
    /// and per-point [`SolveSource`](crate::SolveSource)s (timing-summary
    /// data, never part of the report).
    ///
    /// # Errors
    ///
    /// See [`Engine::run_suite`].
    pub fn run_suite_with_cache(
        &self,
        suite: &Suite,
        settings: &RunSettings,
        cache: &Arc<SolveCache>,
    ) -> Result<SuiteOutcome, EngineError> {
        self.run(suite, settings, cache, &CancelToken::new())
    }

    /// Runs one suite *submission* against the shared pool and cache tiers —
    /// the entry point of server-style callers (see
    /// [`serve`](crate::serve)), where one long-lived cache outlives many
    /// submissions. The same run as [`Engine::run_suite_with_cache`].
    ///
    /// # Errors
    ///
    /// See [`Engine::run_suite`].
    pub fn submit(
        &self,
        suite: &Suite,
        settings: &RunSettings,
        cache: &Arc<SolveCache>,
    ) -> Result<SuiteOutcome, EngineError> {
        self.run_suite_with_cache(suite, settings, cache)
    }

    /// [`Engine::submit`] with cooperative cancellation: when `cancel`
    /// fires, every thread draining this submission retires its remaining
    /// items unsolved (the item already executing finishes — abort within
    /// one work item per thread), the validation stage is skipped, and the
    /// call returns [`EngineError::Cancelled`] instead of an outcome.
    ///
    /// Cancellation is *observation-only* for everything shared: solves
    /// that completed before the token fired stay cached (and stored), so
    /// concurrent and later submissions are unaffected — their reports stay
    /// byte-identical to solo runs.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] when the token fired before the run
    /// completed; otherwise see [`Engine::run_suite`].
    pub fn submit_with_cancel(
        &self,
        suite: &Suite,
        settings: &RunSettings,
        cache: &Arc<SolveCache>,
        cancel: &CancelToken,
    ) -> Result<SuiteOutcome, EngineError> {
        self.run(suite, settings, cache, cancel)
    }

    /// Resolves `suite` and mints every work item, as one cursor job on
    /// this engine, and reports the counts without solving anything. The
    /// job mints through the same `SuitePlan::item` the solve job of a run
    /// calls, so this measures minting on its own; it is not a stage of a
    /// run. Used by `bbs expand`, the expansion benchmarks and the
    /// allocation tests.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when the suite fails validation.
    pub fn expand_suite(
        &self,
        suite: &Suite,
        settings: &RunSettings,
    ) -> Result<ExpansionSummary, EngineError> {
        let plan = Arc::new(plan(suite, settings)?);
        let keys = self.run_job(settings.jobs, plan.points(), {
            let plan = Arc::clone(&plan);
            move |index| plan.item(index).key()
        });
        Ok(ExpansionSummary {
            scenarios: plan.scenarios(),
            points: keys.len(),
        })
    }

    /// The pipeline behind every run: plan, solve, validate.
    fn run(
        &self,
        suite: &Suite,
        settings: &RunSettings,
        cache: &Arc<SolveCache>,
        cancel: &CancelToken,
    ) -> Result<SuiteOutcome, EngineError> {
        let start = Instant::now();
        let plan = Arc::new(plan(suite, settings)?);
        if cancel.is_cancelled() {
            // Cancelled while still queued: skip the solve job too.
            return Err(EngineError::Cancelled);
        }
        let len = plan.points();
        let caught_panics = Arc::new(AtomicU64::new(0));
        let job = SolveJob {
            plan: Arc::clone(&plan),
            cache: Arc::clone(cache),
            settings: settings.clone(),
            cancel: cancel.clone(),
            caught_panics: Arc::clone(&caught_panics),
        };
        let solved = self.run_job(settings.jobs, len, move |index| job.run(index));
        let counters = if settings.use_cache {
            distinct_key_counters(&solved)
        } else {
            CacheStats { hits: 0, misses: 0 }
        };
        let executor = ExecutorStats {
            workers: self.threads(settings.jobs, len) as u64,
            steals: 0,
            caught_panics: caught_panics.load(Ordering::Relaxed),
        };
        // The job, and the plan handle it held, dropped inside `run_job`.
        let plan = Arc::try_unwrap(plan)
            .ok()
            .expect("the solve job released the plan");
        let points = solved.into_iter().map(|(_, point)| point);
        let mut outcome =
            assemble_outcome(suite, plan, points, settings, cache, counters, executor);
        // A cancelled run skips the validation stage: its outcome is
        // discarded anyway, and replays would keep the pool busy after the
        // abort. A token that fires during validation still cancels.
        if !cancel.is_cancelled() {
            self.validate(&mut outcome, settings);
        }
        if cancel.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        outcome.wall_time = start.elapsed();
        Ok(outcome)
    }

    /// The validation stage: replays every requested feasible point of
    /// `outcome` and attaches the verdicts to their points. Tasks with equal
    /// (interned configuration, budgets, capacities) share one replay: the
    /// cursor job runs the distinct replays in first-occurrence suite order,
    /// and each verdict — a caught panic's included — is copied to every
    /// point that shares it. Returns the number of replays run.
    pub(crate) fn validate(&self, outcome: &mut SuiteOutcome, settings: &RunSettings) -> usize {
        let tasks = Arc::new(replay_tasks(outcome, settings));
        let mut replay_of_identity = HashMap::with_capacity(tasks.len());
        // `replays[r]` is the first task of distinct replay `r`;
        // `shared[t]` is the replay task `t` takes its verdict from.
        let mut replays = Vec::new();
        let shared: Vec<usize> = tasks
            .iter()
            .enumerate()
            .map(|(task_index, task)| {
                *replay_of_identity
                    .entry(task.identity())
                    .or_insert_with(|| {
                        replays.push(task_index);
                        replays.len() - 1
                    })
            })
            .collect();
        let iterations = settings.simulation_iterations;
        let verdicts = self.run_job(settings.jobs, replays.len(), {
            let tasks = Arc::clone(&tasks);
            move |index| replay_guarded(&tasks[replays[index]], iterations)
        });
        for (task, &replay) in tasks.iter().zip(&shared) {
            outcome.scenarios[task.scenario_index].points[task.point_index].validation =
                Some(verdicts[replay].clone());
        }
        verdicts.len()
    }

    /// Threads that drain a job of `len` items at `jobs`: `jobs` clamped to
    /// [`Engine::workers`] and to the item count, never below one.
    fn threads(&self, jobs: usize, len: usize) -> usize {
        jobs.min(self.workers()).min(len).max(1)
    }

    /// Runs one cursor job of `len` items and returns the results in index
    /// order: sends the job to `threads − 1` parked pooled threads, drains
    /// it on the calling thread alongside them, then waits until the last
    /// of them has retired. With one useful thread nothing is sent and the
    /// wait returns at once.
    fn run_job<T, F>(&self, jobs: usize, len: usize, run: F) -> Vec<T>
    where
        T: Send + Sync + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let job = Arc::new(CursorJob {
            cursor: AtomicUsize::new(0),
            slots: (0..len).map(|_| OnceLock::new()).collect(),
            run,
        });
        let (retired, all_retired) = mpsc::channel();
        for worker in &self.pooled[..self.threads(jobs, len) - 1] {
            let assignment = Assignment {
                job: Arc::clone(&job) as Arc<dyn Drain>,
                _retired: retired.clone(),
            };
            worker
                .assignments
                .as_ref()
                .expect("pool is alive while the engine exists")
                .send(assignment)
                .expect("engine worker thread is alive");
        }
        drop(retired);
        job.drain();
        // Nothing is ever sent: the receive returns once the last pooled
        // drainer has dropped its sender, at once when none was sent one.
        let _ = all_retired.recv();
        let job = Arc::try_unwrap(job)
            .ok()
            .expect("every drainer released the job before retiring");
        let mut results = Vec::with_capacity(len);
        results.extend(
            job.slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("every item runs exactly once")),
        );
        results
    }
}

/// The cache counters of a solved suite: one miss per distinct key, one
/// hit per repeated one — what every run with the cache on reports.
fn distinct_key_counters(solved: &[(CacheKey, PointOutcome)]) -> CacheStats {
    let mut distinct = HashSet::with_capacity(solved.len());
    let misses = solved
        .iter()
        .filter(|(key, _)| distinct.insert(*key))
        .count() as u64;
    CacheStats {
        hits: solved.len() as u64 - misses,
        misses,
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Closing the assignment channels wakes every parked thread into a
        // clean exit; then join so no thread outlives the pool.
        for worker in &mut self.pooled {
            worker.assignments.take();
        }
        for worker in &mut self.pooled {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cancelled_solve_error;
    use crate::cache::SolveSource;
    use crate::executor::{run_suite, FaultAction, SolveFault};
    use crate::scenario::{Scenario, SweepSpec, WorkloadSpec};
    use crate::suites::smoke_suite;
    use crate::SuiteReport;
    use bbs_taskgraph::presets::PresetSpec;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn pc_sweep_scenario(name: &str) -> Scenario {
        Scenario::new(
            name,
            WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
        )
        .with_sweep(SweepSpec::range(1, 6))
    }

    #[test]
    fn cursor_job_runs_every_index_once_into_its_own_slot() {
        let engine = Engine::new(16);
        let caller = std::thread::current().id();
        // Zero items, fewer items than workers, and more items than
        // workers.
        for len in [0usize, 1, 3, 100] {
            for jobs in [1usize, 2, 16] {
                let runs: Arc<Vec<AtomicUsize>> =
                    Arc::new((0..len).map(|_| AtomicUsize::new(0)).collect());
                let threads: Arc<Mutex<HashMap<ThreadId, Option<String>>>> = Arc::default();
                let results = engine.run_job(jobs, len, {
                    let (runs, threads) = (Arc::clone(&runs), Arc::clone(&threads));
                    move |index| {
                        runs[index].fetch_add(1, Ordering::Relaxed);
                        let thread = std::thread::current();
                        threads
                            .lock()
                            .unwrap()
                            .insert(thread.id(), thread.name().map(str::to_string));
                        index * 10
                    }
                });
                assert_eq!(
                    results,
                    (0..len).map(|index| index * 10).collect::<Vec<_>>(),
                    "len={len} jobs={jobs}: results out of slot order"
                );
                assert!(
                    runs.iter().all(|count| count.load(Ordering::Relaxed) == 1),
                    "len={len} jobs={jobs}: an index ran other than once"
                );
                let threads = threads.lock().unwrap();
                let useful = engine.threads(jobs, len);
                if useful == 1 {
                    assert!(
                        threads.keys().all(|&thread| thread == caller),
                        "len={len} jobs={jobs}: one useful thread drains on the caller"
                    );
                } else {
                    assert!(
                        threads.iter().all(|(&thread, name)| thread == caller
                            || name
                                .as_deref()
                                .is_some_and(|name| name.starts_with("bbs-engine-"))),
                        "len={len} jobs={jobs}: only the caller and pooled threads drain"
                    );
                }
                assert!(
                    threads.len() <= useful,
                    "len={len} jobs={jobs}: {} threads ran items, {useful} useful",
                    threads.len()
                );
            }
        }
    }

    #[test]
    fn a_token_fired_mid_run_retires_the_remaining_items() {
        let engine = Engine::new(16);
        let suite = Suite::new(
            "cancelled",
            vec![pc_sweep_scenario("a"), pc_sweep_scenario("b")],
        );
        for jobs in [1usize, 2, 16] {
            let settings = RunSettings::with_jobs(jobs);
            let plan = Arc::new(plan(&suite, &settings).unwrap());
            let len = plan.points();
            let job = SolveJob {
                plan,
                cache: Arc::new(SolveCache::new()),
                settings,
                cancel: CancelToken::new(),
                caught_panics: Arc::default(),
            };
            // Item 0 fires the token once it has solved.
            let points = engine.run_job(jobs, len, move |index| {
                let (_, outcome) = job.run(index);
                if index == 0 {
                    job.cancel.cancel();
                }
                outcome
            });
            assert_eq!(points.len(), 12, "jobs={jobs}: every slot reports once");
            assert!(points[0].result.is_ok(), "jobs={jobs}: item 0 finished");
            let retired = points
                .iter()
                .filter(|point| point.result == Err(cancelled_solve_error()))
                .count();
            assert_eq!(
                retired + points.iter().filter(|p| p.result.is_ok()).count(),
                12,
                "jobs={jobs}: every item is solved or retired, none dropped"
            );
            if jobs == 1 {
                // The calling thread claims in suite order: everything
                // after item 0 was claimed after the token fired.
                assert_eq!(retired, 11);
            }
        }
    }

    #[test]
    fn one_pool_serves_many_runs_and_shares_the_cache() {
        let engine = Engine::new(4);
        let cache = Arc::new(SolveCache::new());
        let settings = RunSettings::with_jobs(4);
        let suite = Suite::new("repeat", vec![pc_sweep_scenario("pc")]);
        let first = engine
            .run_suite_with_cache(&suite, &settings, &cache)
            .unwrap();
        assert_eq!(first.cache.misses, 6);
        let second = engine
            .run_suite_with_cache(&suite, &settings, &cache)
            .unwrap();
        // The warm run reports the cold run's counters, and no new solves:
        // every point came from the shared cache.
        assert_eq!(second.cache, first.cache);
        assert!(second.scenarios[0]
            .points
            .iter()
            .all(|p| p.source == SolveSource::Memory));
    }

    #[test]
    fn submit_reports_submission_local_counters_on_a_warm_shared_cache() {
        let engine = Engine::new(4);
        let cache = Arc::new(SolveCache::new());
        let settings = RunSettings::with_jobs(4);
        let suite = Suite::new("served", vec![pc_sweep_scenario("pc")]);
        let cold = engine.submit(&suite, &settings, &cache).unwrap();
        let warm = engine.submit(&suite, &settings, &cache).unwrap();
        // Counted by the suite alone: 6 distinct keys, no repeats — the
        // same counters whether the shared tiers were cold or warm.
        assert_eq!(cold.cache, CacheStats { hits: 0, misses: 6 });
        assert_eq!(warm.cache, cold.cache);
        // And therefore byte-identical reports, including against a cold
        // one-shot run.
        let reference = SuiteReport::from_outcome(&run_suite(&suite, &settings).unwrap());
        assert_eq!(
            SuiteReport::from_outcome(&cold).to_json(),
            reference.to_json()
        );
        assert_eq!(
            SuiteReport::from_outcome(&warm).to_json(),
            reference.to_json()
        );
        // The shared tiers really did answer the warm submission.
        assert!(warm.scenarios[0]
            .points
            .iter()
            .all(|p| p.source == SolveSource::Memory));
    }

    #[test]
    fn submit_counts_repeated_keys_within_a_submission_as_hits() {
        let engine = Engine::new(2);
        let cache = Arc::new(SolveCache::new());
        let settings = RunSettings::with_jobs(2);
        // Two identical scenarios: six distinct keys, six repeats — exactly
        // what a cold fresh-cache run of the same suite reports.
        let suite = Suite::new(
            "dupes",
            vec![pc_sweep_scenario("first"), pc_sweep_scenario("second")],
        );
        let outcome = engine.submit(&suite, &settings, &cache).unwrap();
        assert_eq!(outcome.cache, CacheStats { hits: 6, misses: 6 });
        let reference = run_suite(&suite, &settings).unwrap();
        assert_eq!(outcome.cache, reference.cache);
    }

    #[test]
    fn validation_replays_each_distinct_mapping_once_and_fans_the_verdicts_out() {
        use crate::validate::PointValidation;
        use bbs_taskgraph::presets::PaperParameters;
        // Two identical scenarios whose sweeps overlap on caps 3..=6, and a
        // third of the same graph at period 10.01 instead of 10: it solves
        // to the same mappings, but its configuration differs, so it must
        // share no replay with the first two. A 3-task ring solves to equal
        // budgets at caps 1..=3 but to other capacities at cap 1 than at
        // caps 2 and 3, so capacities are part of a replay's identity too.
        let slower = PresetSpec {
            params: Some(PaperParameters {
                period: 10.01,
                ..PaperParameters::default()
            }),
            ..PresetSpec::named("producer-consumer")
        };
        let suite = Suite::new(
            "memo",
            vec![
                pc_sweep_scenario("a"),
                pc_sweep_scenario("b").with_sweep(SweepSpec::range(3, 8)),
                Scenario::new("c", WorkloadSpec::preset(slower)).with_sweep(SweepSpec::range(1, 8)),
                Scenario::new(
                    "ring",
                    WorkloadSpec::preset(PresetSpec::named("ring").with_tasks(3)),
                )
                .with_sweep(SweepSpec::range(1, 3)),
            ],
        );
        let engine = Engine::new(16);
        let solved = engine.run_suite(&suite, &RunSettings::default()).unwrap();
        let mapping_at = |scenario: usize, cap: u64| {
            let point = solved.scenarios[scenario]
                .points
                .iter()
                .find(|point| point.capacity_cap == Some(cap))
                .unwrap();
            let mapping = point.result.as_ref().unwrap();
            (
                mapping.budgets().collect::<Vec<_>>(),
                mapping.capacities().collect::<Vec<_>>(),
            )
        };
        assert!(
            (1..=6).any(|cap| mapping_at(2, cap) == mapping_at(0, cap)),
            "the third scenario must repeat a mapping of the first two"
        );
        assert_eq!(mapping_at(3, 1).0, mapping_at(3, 2).0);
        assert_ne!(mapping_at(3, 1).1, mapping_at(3, 2).1);
        // The distinct (configuration, budgets, capacities) triples,
        // counted independently of the stage.
        let mut distinct = HashSet::new();
        for scenario in &solved.scenarios {
            let configuration = scenario.configuration.canonical_json();
            for point in &scenario.points {
                let mapping = point.result.as_ref().unwrap();
                distinct.insert((
                    configuration.clone(),
                    mapping.budgets().collect::<Vec<_>>(),
                    mapping.capacities().collect::<Vec<_>>(),
                ));
            }
        }
        assert_eq!(distinct.len(), 18, "8 shared by a and b, 8 of c, 2 rings");

        let mut reference: Option<Vec<Option<PointValidation>>> = None;
        for jobs in [1usize, 2, 16] {
            let settings = RunSettings {
                validate_all: true,
                jobs,
                ..RunSettings::default()
            };
            let mut outcome = solved.clone();
            let replays = engine.validate(&mut outcome, &settings);
            assert_eq!(replays, distinct.len(), "jobs={jobs}");
            let tasks = replay_tasks(&outcome, &settings);
            assert_eq!(tasks.len(), 23, "jobs={jobs}");
            for task in &tasks {
                let point = &outcome.scenarios[task.scenario_index].points[task.point_index];
                assert_eq!(
                    point.validation,
                    Some(replay_guarded(task, settings.simulation_iterations)),
                    "jobs={jobs}: scenario {} cap {:?}",
                    task.scenario_index,
                    point.capacity_cap
                );
            }
            let third = &outcome.scenarios[2].points;
            assert!(third
                .iter()
                .all(|point| point.validation.as_ref().unwrap().required_period == 10.01));
            let verdicts: Vec<_> = outcome
                .scenarios
                .iter()
                .flat_map(|scenario| scenario.points.iter().map(|p| p.validation.clone()))
                .collect();
            match &reference {
                Some(reference) => assert_eq!(&verdicts, reference, "jobs={jobs}"),
                None => reference = Some(verdicts),
            }
        }
    }

    #[test]
    fn jobs_beyond_the_pool_size_are_clamped() {
        let engine = Engine::new(2);
        let outcome = engine
            .run_suite(
                &Suite::new("clamp", vec![pc_sweep_scenario("pc")]),
                &RunSettings::with_jobs(64),
            )
            .unwrap();
        assert_eq!(outcome.executor.workers, 2);
        assert!(outcome.unexpected_failures().is_empty());
    }

    #[test]
    fn pooled_panic_injection_is_a_per_point_error_and_the_pool_survives() {
        let suite = Suite::new("faulted", vec![pc_sweep_scenario("a")]);
        // `Engine::new(1)` has no pooled thread: its caller drains alone.
        let (alone, pooled) = (Engine::new(1), Engine::new(16));
        for (engine, jobs) in [(&alone, 2usize), (&pooled, 1), (&pooled, 2), (&pooled, 16)] {
            let context = format!("workers={} jobs={jobs}", engine.workers());
            let settings = RunSettings {
                jobs,
                fault: Some(SolveFault {
                    scenario: "a".to_string(),
                    capacity_cap: Some(3),
                    action: FaultAction::Panic,
                }),
                ..RunSettings::default()
            };
            let outcome = engine.run_suite(&suite, &settings).unwrap();
            assert_eq!(outcome.executor.caught_panics, 1, "{context}");
            let failures = outcome.unexpected_failures();
            assert_eq!(failures.len(), 1, "{context}");
            assert_eq!(failures[0].1, Some(3), "{context}");
            // The same pool keeps working after catching a panic.
            let healthy = engine
                .run_suite(&smoke_suite(), &RunSettings::with_jobs(jobs))
                .unwrap();
            assert!(healthy.unexpected_failures().is_empty(), "{context}");
            assert_eq!(healthy.executor.caught_panics, 0, "{context}");
        }
    }

    #[test]
    fn invalid_suites_error_without_touching_the_pool() {
        let engine = Engine::new(2);
        let empty = Suite::new("empty", Vec::new());
        assert!(engine.run_suite(&empty, &RunSettings::default()).is_err());
        // Still healthy.
        let outcome = engine
            .run_suite(&smoke_suite(), &RunSettings::default())
            .unwrap();
        assert!(outcome.unexpected_failures().is_empty());
    }
}
