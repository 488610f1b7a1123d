//! Integration tests for the liveness verification subsystem: the declarative `"liveness"`
//! check property (state graph → SCC fair-cycle pass → lasso witness), the temporal
//! monitors on both backends, and the regression gate the CI job mirrors: the
//! non-stabilizing `checker-liveness` preset *must* report a fair starvation lasso, and
//! the `ss`-rung `checker-safety` preset must stay clean.

use kl_exclusion::prelude::*;

use analysis::monitor;
use analysis::scenario::preset;

/// The fair-cycle regression gate, positive half: the Figure-3 instance under the
/// pusher-only rung has a weakly fair lasso starving the 2-unit requester, found from the
/// preset alone.
#[test]
fn checker_liveness_preset_reports_a_fair_starvation_lasso() {
    let report = preset("checker-liveness")
        .expect("bundled preset")
        .compile()
        .expect("preset validates")
        .check()
        .expect("the pusher rung lowers into the checker");
    assert!(report.exhaustive(), "the Figure-3 liveness instance fits the preset budget");
    assert!(report.ok(), "safety holds along the livelock");
    assert!(!report.live(), "the pusher-only rung must starve a requester");
    let witness = report.liveness.iter().find(|w| w.victim == 1).expect("process a starves");
    assert!(!witness.cycle.is_empty());
    assert!(!witness.progress_nodes.is_empty(), "the cycle makes real progress");
    // The printed witness names the victim and the cycle.
    let rendered = witness.render();
    assert!(rendered.contains("process 1"), "{rendered}");
    assert!(rendered.contains("cycle"), "{rendered}");
}

/// The gate, negative halves: one rung up (priority token) the same instance is clean, and
/// the `ss` safety preset finds no lasso either.
#[test]
fn priority_and_ss_rungs_are_lasso_free() {
    let nonstab = preset("checker-liveness-nonstab")
        .expect("bundled preset")
        .compile()
        .expect("preset validates")
        .check()
        .expect("the nonstab rung lowers into the checker");
    assert!(nonstab.exhaustive());
    assert!(nonstab.live(), "the priority token removes the Figure-3 livelock");

    let ss = preset("checker-safety")
        .expect("bundled preset")
        .compile()
        .expect("preset validates")
        .check()
        .expect("the ss rung lowers into the checker");
    assert!(ss.ok(), "safety: {:?}", ss.violations);
    assert!(ss.live(), "no fair starvation lasso under the full protocol");
}

/// The liveness pass has no process limit: the liveness preset moved to a 65-process star
/// (one more process than a 64-bit word holds) explores to its budget and reports a
/// truncated result instead of taking the process down.
#[test]
fn liveness_check_on_more_than_64_processes_reports_instead_of_panicking() {
    let mut spec = preset("checker-liveness").expect("bundled preset");
    spec.topology = TopologySpec::Star { n: 65 };
    spec.workload = WorkloadSpec::Saturated { units: 1, hold: 1 };
    spec.check.max_configurations = 2_000;
    let (report, graph) = spec
        .compile()
        .expect("the 65-process spec validates")
        .check_with_graph(false)
        .expect("the pusher rung lowers into the checker");
    assert!(report.truncated, "2 000 configurations cannot exhaust a 65-process star");
    assert!(!report.exhaustive());
    assert_eq!(report.configurations, 2_000);
    assert_eq!(graph.len(), 2_000, "liveness records the graph");
}

/// Replaying a checker lasso through the streaming monitors reproduces the checker's
/// verdict — the cross-backend agreement `klex fuzz` enforces campaign-wide.
#[test]
fn monitors_confirm_the_checker_lasso() {
    let spec = preset("checker-liveness").unwrap();
    let report = spec.clone().compile().unwrap().check().unwrap();
    let witness = report.liveness.first().expect("lasso found");
    let mut monitors: Vec<Box<dyn monitor::TemporalMonitor>> = monitor::MONITOR_NAMES
        .iter()
        .map(|name| monitor::monitor_for(name, spec.config.k, spec.config.l).unwrap())
        .collect();
    let verdicts = monitor::feed_lasso(&mut monitors, witness);
    let liveness = verdicts.iter().find(|r| r.name == "request-eventually-cs").unwrap();
    assert!(liveness.verdict.is_violated(), "{verdicts:?}");
    for safety in ["at-most-k-in-cs", "l-availability"] {
        let verdict = &verdicts.iter().find(|r| r.name == safety).unwrap().verdict;
        assert!(!verdict.is_violated(), "{safety}: {verdict:?}");
    }
}

/// The simulator-under-monitors backend: a stabilizing scenario satisfies its declared
/// safety monitors, and the declarative `properties` field drives which monitors run.
#[test]
fn simulator_monitors_certify_the_declared_properties() {
    let (outcome, monitors) = preset("figure3-ss")
        .expect("bundled preset")
        .compile()
        .expect("preset validates")
        .run_monitored();
    assert!(outcome.outcome.is_satisfied());
    let names: Vec<&str> = monitors.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, ["request-eventually-cs", "at-most-k-in-cs", "l-availability"]);
    for report in &monitors {
        assert!(
            !report.verdict.is_violated(),
            "{}: {:?} — the self-stabilizing rung must not violate its certificates",
            report.name,
            report.verdict
        );
    }
}

/// Closure as data: `check.from_legitimate` stabilizes the ss instance before exploring,
/// and every reachable configuration stays legitimate.
#[test]
fn from_legitimate_check_verifies_closure() {
    let report = Scenario::builder("closure")
        .topology(TopologySpec::Figure3)
        .protocol(ProtocolSpec::Ss)
        .config(ConfigSpec::new(2, 2).with_cmax(0))
        .workload(WorkloadSpec::Saturated { units: 1, hold: 0 })
        .check(CheckSpec {
            max_configurations: 300_000,
            max_depth: 0,
            properties: vec!["legitimate".into(), "safety".into()],
            from_legitimate: true,
        })
        .build()
        .expect("the closure scenario validates")
        .check()
        .expect("the ss rung lowers into the checker");
    assert!(report.exhaustive());
    assert!(report.ok(), "closure violated: {:?}", report.violations);
    assert!(report.deadlock_free());
}

/// `from_legitimate` is rejected where it is meaningless.
#[test]
fn from_legitimate_is_validated() {
    let bad = Scenario::builder("bad")
        .topology(TopologySpec::Figure3)
        .protocol(ProtocolSpec::Pusher)
        .kl(2, 3)
        .check(CheckSpec { from_legitimate: true, ..CheckSpec::default() })
        .build();
    assert!(matches!(bad, Err(ScenarioError::Invalid(_))));
}

/// Unknown monitor names are rejected at spec validation time.
#[test]
fn unknown_property_monitors_are_rejected() {
    let bad = Scenario::builder("bad")
        .topology(TopologySpec::Figure3)
        .kl(1, 2)
        .properties(&["no-such-monitor"])
        .build();
    assert!(matches!(bad, Err(ScenarioError::Invalid(_))));
}

/// A deterministic mini fuzz campaign stays disagreement-free — the in-tree shadow of the
/// CI `klex fuzz --smoke` job.
#[test]
fn mini_fuzz_campaign_is_clean() {
    let opts = bench::fuzz::FuzzOptions {
        scenarios: 12,
        max_configurations: 2_000,
        sim_steps: 400,
        out_dir: std::env::temp_dir(),
        ..bench::fuzz::FuzzOptions::new(bench::fuzz::CI_SEED)
    };
    let summary = bench::fuzz::run_campaign(&opts).unwrap();
    assert!(summary.clean(), "disagreements: {:?}", summary.disagreements);
    assert_eq!(summary.scenarios, 12);
}
