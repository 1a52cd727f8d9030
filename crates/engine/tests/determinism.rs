//! Determinism guarantees of the batch engine.
//!
//! The serialisable report must be a pure function of the suite definition:
//! identical bytes across worker counts, cache settings and repeated runs.

use bbs_engine::suites::{
    gen_smoke_suite, paper_plus_suite, smoke_suite, sweep_10k_suite, SWEEP_10K_POINTS,
};
use bbs_engine::{
    generate_suite, run_suite, CacheKey, Engine, GenParams, RunSettings, Scenario, SolveCache,
    Suite, SuiteReport, SweepSpec, ValidationReport, WorkloadSpec,
};
use bbs_taskgraph::presets::PresetSpec;
use budget_buffer::{compute_mapping, with_capacity_cap, SolveOptions};
use proptest::prelude::*;

fn report_json(suite: &Suite, settings: &RunSettings) -> String {
    let outcome = run_suite(suite, settings).expect("suite runs");
    SuiteReport::from_outcome(&outcome).to_json()
}

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let suite = smoke_suite();
    let sequential = report_json(&suite, &RunSettings::with_jobs(1));
    for jobs in [2, 8, 16] {
        assert_eq!(
            sequential,
            report_json(&suite, &RunSettings::with_jobs(jobs)),
            "JSON reports must not depend on --jobs (jobs={jobs})"
        );
    }
}

#[test]
fn reports_are_byte_identical_across_repeated_runs() {
    let suite = smoke_suite();
    let settings = RunSettings::with_jobs(4);
    assert_eq!(
        report_json(&suite, &settings),
        report_json(&suite, &settings)
    );
}

#[test]
fn reports_do_not_depend_on_the_cache() {
    let suite = smoke_suite();
    let cached = report_json(&suite, &RunSettings::default());
    let uncached = report_json(
        &suite,
        &RunSettings {
            use_cache: false,
            ..RunSettings::default()
        },
    );
    // The runs differ only in the cache section of the report.
    let strip = |json: &str| {
        json.lines()
            .filter(|l| {
                !l.contains("\"enabled\"") && !l.contains("\"hits\"") && !l.contains("\"misses\"")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&cached), strip(&uncached));
}

#[test]
fn pooled_and_per_run_executors_report_byte_identically_on_paper_plus() {
    // The full paper-plus suite at one worker through the free `run_suite`
    // (a temporary engine per run) versus eight workers on a long-lived
    // Engine pool: reports must be byte-identical.
    let suite = paper_plus_suite();
    let per_run = report_json(&suite, &RunSettings::with_jobs(1));
    let pooled = SuiteReport::from_outcome(
        &Engine::new(8)
            .run_suite(&suite, &RunSettings::with_jobs(8))
            .expect("suite runs"),
    )
    .to_json();
    assert_eq!(per_run, pooled, "--jobs 1 vs --jobs 8 diverged");
}

#[test]
fn sweep_10k_reports_are_byte_identical_across_jobs_and_executors() {
    // The 10 000-point generated sweep goes through the parallel expansion,
    // the cursor-claimed solve and the slot-ordered assembly; one worker
    // (the free `run_suite`) versus sixteen (a long-lived Engine pool), the
    // JSON report must not move by a byte. Only ten distinct cache keys
    // exist, so the suite is cheap to solve and this is really a
    // scheduling/expansion determinism test at scale.
    let suite = sweep_10k_suite();
    let baseline = report_json(&suite, &RunSettings::with_jobs(1));
    let pooled = SuiteReport::from_outcome(
        &Engine::new(16)
            .run_suite(&suite, &RunSettings::with_jobs(16))
            .expect("suite runs"),
    )
    .to_json();
    assert_eq!(baseline, pooled, "--jobs 1 vs --jobs 16 diverged");
    let report = SuiteReport::from_json(&baseline).unwrap();
    assert_eq!(report.scenarios[0].points.len(), SWEEP_10K_POINTS);
    assert!(report.scenarios[0].points.iter().all(|p| p.feasible));
}

#[test]
fn suite_with_expected_infeasible_points_is_still_deterministic() {
    let suite = Suite::new(
        "edge",
        vec![Scenario::new(
            "ring-tight",
            WorkloadSpec::preset(
                PresetSpec::named("ring")
                    .with_tasks(3)
                    .with_initial_tokens(2),
            ),
        )
        .with_sweep(SweepSpec::range(1, 4))
        .expecting_infeasible()],
    );
    let sequential = report_json(&suite, &RunSettings::with_jobs(1));
    let parallel = report_json(&suite, &RunSettings::with_jobs(8));
    assert_eq!(sequential, parallel);
    let report = SuiteReport::from_json(&sequential).unwrap();
    assert!(!report.scenarios[0].points[0].feasible);
    assert!(report.scenarios[0].points[1].feasible);
}

#[test]
fn validation_summaries_are_byte_identical_across_jobs_and_executors() {
    // The `bbs validate` surface: a generated suite (every scenario carries
    // `validate: "sim"`), replayed at one worker through the free
    // `run_suite` and at two and sixteen on a long-lived Engine pool — the
    // validation report JSON and the rendered summary must not move by a
    // byte.
    let suite = gen_smoke_suite();
    let settings = |jobs| RunSettings {
        validate_all: true,
        jobs,
        ..RunSettings::default()
    };
    let baseline = ValidationReport::from_outcome(&run_suite(&suite, &settings(1)).unwrap());
    assert!(baseline.validated_points() > 0, "nothing was replayed");
    let engine = Engine::new(16);
    for jobs in [2usize, 16] {
        let pooled =
            ValidationReport::from_outcome(&engine.run_suite(&suite, &settings(jobs)).unwrap());
        assert_eq!(
            baseline.to_json(),
            pooled.to_json(),
            "validation JSON diverged at --jobs {jobs}"
        );
        assert_eq!(
            baseline.render_summary(),
            pooled.render_summary(),
            "summary diverged at --jobs {jobs}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // `bbs gen --seed N` must be a pure function of its parameters: equal
    // seeds produce byte-identical suite files, and every generated suite
    // passes schema validation.
    #[test]
    fn same_seed_generates_byte_identical_suites(seed in 0u64..100_000) {
        let params = GenParams { seed, points: 8 };
        let first = serde_json::to_string_pretty(&generate_suite(&params)).unwrap();
        let second = serde_json::to_string_pretty(&generate_suite(&params)).unwrap();
        prop_assert_eq!(&first, &second);
        generate_suite(&params).validate().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // A cache hit must return a mapping equal to a fresh, uncached solve —
    // over random capacity caps, weight trade-offs and chain lengths.
    #[test]
    fn cache_hit_equals_fresh_solve(
        cap in 1u64..12,
        tasks in 2usize..5,
        storage_weight in 1e-3f64..1.0,
    ) {
        let spec = PresetSpec::named("chain").with_tasks(tasks);
        let configuration = with_capacity_cap(&spec.build().unwrap(), cap);
        let mut options = SolveOptions::default().prefer_budget_minimisation();
        options.storage_weight_scale = storage_weight;

        let cache = SolveCache::new();
        let key = CacheKey::new(&configuration, &options, "joint");
        let canonical = || panic!("no disk tier: the canonical key must stay unmaterialised");
        let (first, source_first) =
            cache.solve_with(key, &configuration, canonical, || compute_mapping(&configuration, &options));
        let (hit_result, source_second) =
            cache.solve_with(key, &configuration, canonical, || panic!("second lookup must not solve"));
        let fresh = compute_mapping(&configuration, &options);

        prop_assert!(!source_first.is_hit());
        prop_assert!(source_second.is_hit());
        prop_assert_eq!(first.clone().unwrap(), hit_result.unwrap());
        prop_assert_eq!(first.unwrap(), fresh.unwrap());
    }
}
