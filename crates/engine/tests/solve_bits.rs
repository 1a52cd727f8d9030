//! The solver's raw bits, pinned.
//!
//! The solve store serves raw budgets, raw space, objectives and iteration
//! counts to later processes and to peers, while the paper's tables show
//! only rounded cells, so a change that moves raw values could pass every
//! report diff. This test folds one FNV-1a hash per suite over every
//! point's scenario name and cap, then either the mapping's raw budgets in
//! task order, its raw space in buffer order, its objective's bits and its
//! iteration count, or the `Display` text of its error.
//!
//! The constants are a function of the solver's arithmetic, which
//! [`bbs_conic::SOLVER_REVISION`] names: a change that bumps the revision
//! updates them, and any other change must leave them as they are.

use bbs_engine::suites::{gen_smoke_suite, paper_plus_suite, runtime_scenario};
use bbs_engine::{generate_suite, run_suite, GenParams, RunSettings, Suite};
use bbs_taskgraph::fnv1a;

// The hashes at solver revision 2.
const PAPER_PLUS_BITS: u64 = 10_078_098_043_160_638_777;
const GEN_SMOKE_BITS: u64 = 16_273_984_540_470_973_183;
const GEN_SEED_11_BITS: u64 = 448_669_181_097_736_286;
const RUNTIME_48_BITS: u64 = 329_782_700_125_420_430;

/// Runs `suite` and hashes every point's raw outcome.
fn solve_bits(suite: &Suite) -> u64 {
    let outcome = run_suite(suite, &RunSettings::with_jobs(2)).expect("suite runs");
    let mut bytes = Vec::new();
    for scenario in &outcome.scenarios {
        for point in &scenario.points {
            bytes.extend_from_slice(scenario.scenario.name.as_bytes());
            bytes.extend_from_slice(format!(" {:?};", point.capacity_cap).as_bytes());
            match &point.result {
                Ok(mapping) => {
                    for (task, _) in mapping.budgets() {
                        bytes.extend_from_slice(&mapping.raw_budget(task).to_bits().to_le_bytes());
                    }
                    for (buffer, _) in mapping.capacities() {
                        bytes.extend_from_slice(&mapping.raw_space(buffer).to_bits().to_le_bytes());
                    }
                    bytes.extend_from_slice(&mapping.objective().to_bits().to_le_bytes());
                    bytes.extend_from_slice(&mapping.solver_iterations().to_le_bytes());
                }
                Err(error) => bytes.extend_from_slice(error.to_string().as_bytes()),
            }
        }
    }
    fnv1a(&bytes)
}

#[test]
fn paper_plus_raw_bits_are_pinned() {
    assert_eq!(solve_bits(&paper_plus_suite()), PAPER_PLUS_BITS);
}

#[test]
fn gen_smoke_raw_bits_are_pinned() {
    assert_eq!(solve_bits(&gen_smoke_suite()), GEN_SMOKE_BITS);
}

#[test]
fn gen_seed_11_raw_bits_are_pinned() {
    let suite = generate_suite(&GenParams {
        seed: 11,
        points: 200,
    });
    assert_eq!(solve_bits(&suite), GEN_SEED_11_BITS);
}

#[test]
fn runtime_48_raw_bits_are_pinned() {
    let suite = Suite::new("runtime-48", vec![runtime_scenario(48)]);
    assert_eq!(solve_bits(&suite), RUNTIME_48_BITS);
}
