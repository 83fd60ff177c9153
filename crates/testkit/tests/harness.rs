//! Harness self-tests: determinism, oracle sensitivity, shrinking, and
//! replay-file round-tripping.
//!
//! The merge-layer fault-injection flag
//! ([`cosmos_query::merge::faultinject`]) is process-global, and cargo
//! runs the `#[test]`s of one binary on parallel threads — so every test
//! here that executes scenarios takes `LOCK`, and the tests that inject
//! the bug arm it through a guard that disarms on drop (panic included).

use cosmos_query::merge::faultinject;
use cosmos_testkit::{
    check_scenario, check_scenario_opts, gen, run_scenario, shrink, CheckOptions, Event,
    RunOptions, Scenario,
};
use std::sync::{Mutex, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms the deliberate merge bug for one scope; disarms on drop.
struct InjectedBug;

impl InjectedBug {
    fn arm() -> Self {
        faultinject::set_skip_retighten(true);
        InjectedBug
    }
}

impl Drop for InjectedBug {
    fn drop(&mut self) {
        faultinject::set_skip_retighten(false);
    }
}

/// Seed expansion is a pure function of the seed, and executing the same
/// scenario twice produces identical digests — the contract that makes
/// `cosmos-sim run --seed S` replayable bit-for-bit.
#[test]
fn seed_expansion_and_execution_are_deterministic() {
    let _g = lock();
    let a = gen::generate(7);
    let b = gen::generate(7);
    assert_eq!(a, b, "seed expansion must be a pure function of the seed");

    let r1 = run_scenario(&a, &RunOptions::default()).expect("run");
    let r2 = run_scenario(&b, &RunOptions::default()).expect("run");
    assert_eq!(r1.digest, r2.digest, "same scenario, same digest");
    assert_eq!(r1.routing_digests, r2.routing_digests);
    assert_eq!(r1.published.len(), r2.published.len());
}

/// Acceptance check from the issue: a deliberately broken merge layer —
/// selection re-tightening skipped, so members of merged groups
/// over-deliver — is caught by the *metamorphic* oracle alone (the
/// differential oracle is disabled here), within a 64-seed sweep. Seeds
/// 1 and 6 are the first two such catches.
#[test]
fn injected_merge_bug_is_caught_by_metamorphic_oracle() {
    let _g = lock();
    let _bug = InjectedBug::arm();
    let opts = CheckOptions {
        differential: false,
        metamorphic_merge: true,
        metamorphic_tree: false,
        metamorphic_batch: false,
        determinism: false,
        static_verify: false,
        metrics_conservation: false,
        bound_soundness: false,
        overload_budget: None,
        inject_shed_leak: false,
    };
    for seed in [1u64, 6] {
        let scenario = gen::generate(seed);
        let failure = check_scenario_opts(&scenario, &opts)
            .expect_err("the broken merge layer must over-deliver");
        assert_eq!(
            failure.oracle, "metamorphic-merge",
            "seed {seed}: wrong oracle fired: {failure}"
        );
    }
}

/// Acceptance check from the issue: the *static* verifier catches the
/// same injected merge bug symbolically — as a V0501 split-filter
/// violation — with every publish event stripped from the scenario, so
/// not a single tuple flows. The dynamic oracles above need deliveries
/// to diverge; `cosmos-verify` proves the over-delivery from the routing
/// state alone.
#[test]
fn injected_merge_bug_is_caught_statically_before_any_publish() {
    let _g = lock();
    let _bug = InjectedBug::arm();
    let opts = CheckOptions {
        differential: false,
        metamorphic_merge: false,
        metamorphic_tree: false,
        metamorphic_batch: false,
        determinism: false,
        static_verify: true,
        metrics_conservation: false,
        bound_soundness: false,
        overload_budget: None,
        inject_shed_leak: false,
    };
    for seed in [1u64, 6] {
        let mut scenario = gen::generate(seed);
        scenario
            .events
            .retain(|e| !matches!(e, Event::Publish { .. }));
        let failure = check_scenario_opts(&scenario, &opts)
            .expect_err("the static verifier must reject the unre-tightened split filter");
        assert!(
            failure.oracle.starts_with("static-verify"),
            "seed {seed}: wrong oracle fired: {failure}"
        );
        assert!(
            failure.detail.contains("V0501"),
            "seed {seed}: expected a V0501 split-filter violation: {failure}"
        );
    }
}

/// The same seeds pass every oracle on a healthy build — the failures
/// above are the bug's doing, not the harness's.
#[test]
fn bug_seeds_pass_on_healthy_build() {
    let _g = lock();
    assert!(!faultinject::skip_retighten());
    for seed in [1u64, 6] {
        check_scenario(&gen::generate(seed)).unwrap_or_else(|f| panic!("seed {seed}: {f}"));
    }
}

/// The shrinker returns a strictly smaller scenario that still fails,
/// exercising the skip-tolerance of every event kind.
#[test]
fn shrinker_minimizes_failing_scenarios() {
    let _g = lock();
    let _bug = InjectedBug::arm();
    let scenario = gen::generate(1);
    assert!(check_scenario(&scenario).is_err(), "seed 1 must fail armed");
    let small = shrink(&scenario, 120);
    assert!(
        small.events.len() < scenario.events.len(),
        "no events dropped ({} of {})",
        small.events.len(),
        scenario.events.len()
    );
    assert!(
        check_scenario(&small).is_err(),
        "shrunk scenario must still fail"
    );
}

/// Runtime-determinism probe — the dynamic twin of `cosmos-detlint`'s
/// D0201/D0301 lints: a full scenario run never pushes the metrics
/// hub's virtual clock past the largest published tuple timestamp, and
/// the clock never regresses. A wall-clock or ambient-randomness leak
/// into the metrics path would trip this at runtime even if the lint's
/// static heuristics (or an allowlist entry) missed the site.
#[test]
fn full_run_makes_zero_runtime_determinism_violations() {
    let _g = lock();
    for seed in [1u64, 3, 6, 7] {
        let run = run_scenario(&gen::generate(seed), &RunOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            run.runtime_violations.is_empty(),
            "seed {seed}: {:?}",
            run.runtime_violations
        );
        assert!(
            !run.published.is_empty(),
            "seed {seed}: no publishes — the probe never saw a clock advance"
        );
    }
}

/// Failure files replay: JSON round-trips losslessly and version
/// mismatches are rejected instead of silently misinterpreted.
#[test]
fn scenario_json_round_trips() {
    let scenario = gen::generate(3);
    let json = scenario.to_json();
    let back = Scenario::from_json(&json).expect("parse back");
    assert_eq!(scenario, back);

    let mut stale = scenario;
    stale.version += 1;
    assert!(
        Scenario::from_json(&stale.to_json()).is_err(),
        "future versions must be rejected"
    );
}
