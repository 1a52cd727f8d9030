//! Every interior-point decision of the built-in and generated suites
//! carries a certificate that `bbs_conic::check_certificate` confirms from
//! the problem data alone.
//!
//! Each point is lowered and solved the way the engine's joint flow does it
//! (view, dataflow model, formulation, conic model, IPM), and the raw
//! solution is checked: an optimum by its recomputed residuals and gap, an
//! infeasibility by its Farkas ray. Points whose formulation already proves
//! infeasibility, and the two-phase and cutting-plane scenarios, make no
//! IPM decision and are not counted.

use bbs_conic::{check_certificate, solve_cone_problem, CertificateError, SolveStatus};
use bbs_engine::suites::builtin_suite;
use bbs_engine::{generate_suite, Flow, GenParams, Suite};
use bbs_taskgraph::ConfigView;
use budget_buffer::formulation::Formulation;
use budget_buffer::model::DataflowModel;
use budget_buffer::SolverKind;
use std::sync::Arc;

/// IPM outcomes over one suite's joint, interior-point points.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    optimal: usize,
    infeasible: usize,
    /// Stopped at the iteration limit: no claim, so nothing to certify.
    undecided: usize,
}

/// Solves every joint IPM point of `suite` and checks its certificate,
/// panicking on the first claim that does not hold.
fn certify(suite: &Suite) -> Tally {
    let mut tally = Tally::default();
    for scenario in &suite.scenarios {
        let options = scenario.resolved_options();
        if scenario.resolved_flow().unwrap() != Flow::Joint
            || options.solver != SolverKind::InteriorPoint
        {
            continue;
        }
        let base = Arc::new(scenario.workload.resolve().unwrap());
        let caps = match &scenario.sweep {
            Some(sweep) => sweep.caps().unwrap().into_iter().map(Some).collect(),
            None => vec![None],
        };
        for cap in caps {
            let view = match cap {
                Some(cap) => ConfigView::with_capacity_cap(Arc::clone(&base), cap),
                None => ConfigView::new(Arc::clone(&base)),
            };
            let model = DataflowModel::build_view(&view);
            let Ok(formulation) = Formulation::build_view(&view, &model, &options) else {
                continue;
            };
            let model = formulation.builder.clone().build().unwrap();
            let raw = solve_cone_problem(model.problem(), &options.ipm)
                .unwrap_or_else(|e| panic!("{} cap {cap:?}: {e}", scenario.name));
            match check_certificate(model.problem(), &raw, &options.ipm) {
                Ok(()) if raw.status == SolveStatus::Optimal => tally.optimal += 1,
                Ok(()) => tally.infeasible += 1,
                Err(CertificateError::NoClaim(_)) => tally.undecided += 1,
                Err(e) => panic!(
                    "{} cap {cap:?}: `{}` is not certified: {e}",
                    scenario.name, raw.status
                ),
            }
        }
    }
    tally
}

fn generated(seed: u64) -> Suite {
    generate_suite(&GenParams { seed, points: 200 })
}

#[test]
fn paper_plus_decisions_are_certified() {
    let tally = certify(&builtin_suite("paper-plus").unwrap());
    assert_eq!(tally.undecided, 0);
    assert!(tally.optimal > 40, "{tally:?}");
}

#[test]
fn smoke_decisions_are_certified() {
    let tally = certify(&builtin_suite("smoke").unwrap());
    assert_eq!(tally.undecided, 0);
    assert!(tally.optimal > 0, "{tally:?}");
}

#[test]
fn gen_smoke_decisions_are_certified() {
    let tally = certify(&builtin_suite("gen-smoke").unwrap());
    assert_eq!(tally.undecided, 0, "{tally:?}");
}

#[test]
fn generated_seed_11_decisions_are_certified() {
    let tally = certify(&generated(11));
    assert!(tally.optimal > 0 && tally.infeasible > 0, "{tally:?}");
}

#[test]
fn generated_seed_12_decisions_are_certified() {
    let tally = certify(&generated(12));
    assert!(tally.optimal > 0 && tally.infeasible > 0, "{tally:?}");
}
