//! The coverage-guided fuzzing regression suite: the committed corpus under `tests/corpus/`
//! replays green through every engine, coverage guidance demonstrably beats blind
//! generation, corpus entries are shrink-minimal, and the mutation operators never produce
//! an invalid spec.
//!
//! `tests/corpus/` is the persistent artifact of a fixed-seed guided campaign
//! (`klex fuzz --seed $((0x5EEDC0DE)) --scenarios 48 --max-configs 2000 --steps 400
//! --campaign --corpus tests/corpus`): `MANIFEST.json` maps each coverage-signature key to
//! a shrink-minimized `ScenarioSpec` JSON file that reaches it.  Regenerating with the same
//! command is a no-op; a diff means signature extraction or an engine changed behaviour.

use std::path::Path;

use analysis::scenario::{mutate_spec, random_spec, GenLimits, ScenarioSpec};
use bench::fuzz::{self, Corpus, FuzzOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn committed_corpus() -> Corpus {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"));
    Corpus::load(dir).expect("tests/corpus/MANIFEST.json parses")
}

/// Tentpole: every committed corpus entry replays cleanly through the delta and interned
/// engines (plus the simulator-under-monitors arm) and still reaches exactly the coverage
/// signature its manifest key records.
#[test]
fn committed_corpus_replays_green_through_all_engines() {
    let corpus = committed_corpus();
    assert!(!corpus.is_empty(), "the committed regression corpus must not be empty");
    for entry in corpus.entries() {
        let eval = fuzz::evaluate(&entry.spec, 0)
            .unwrap_or_else(|err| panic!("{} ({}): {err}", entry.key, entry.file));
        assert_eq!(
            eval.signature.key(),
            entry.key,
            "{}: the spec no longer reaches its recorded signature",
            entry.file
        );
    }
}

/// Acceptance criterion: at a fixed seed, the coverage-guided campaign discovers strictly
/// more distinct coverage signatures per 1000 scenarios than the blind generator.  Guidance
/// needs room to compound — the corpus and the stratum statistics both start empty — so the
/// comparison runs at full campaign scale with small per-scenario budgets.
#[test]
fn guided_campaign_beats_blind_generation() {
    let blind_opts = FuzzOptions {
        scenarios: 1_000,
        max_configurations: 1_000,
        sim_steps: 300,
        out_dir: std::env::temp_dir(),
        ..FuzzOptions::new(42)
    };
    let guided_opts = FuzzOptions { guided: true, ..blind_opts.clone() };
    let blind = fuzz::run_campaign(&blind_opts).expect("in-memory campaign cannot fail to save");
    let guided = fuzz::run_campaign(&guided_opts).expect("in-memory campaign cannot fail to save");
    assert!(blind.clean(), "blind campaign disagreements: {:?}", blind.disagreements);
    assert!(guided.clean(), "guided campaign disagreements: {:?}", guided.disagreements);
    assert!(
        guided.distinct_signatures > blind.distinct_signatures,
        "coverage guidance must beat blind generation: guided {} vs blind {}",
        guided.distinct_signatures,
        blind.distinct_signatures
    );
}

/// Shrinking runs to a fixpoint, so committed corpus entries are *minimal*: re-shrinking
/// any of them is a no-op (no candidate in the shrinking menu preserves the signature), and
/// the entry therefore still reproduces the verdict encoded in its key.
#[test]
fn committed_corpus_entries_are_shrink_minimal() {
    let corpus = committed_corpus();
    for entry in corpus.entries() {
        let reshrunk = fuzz::shrink_to_signature(entry.spec.clone(), &entry.key);
        assert_eq!(
            reshrunk, entry.spec,
            "{}: re-shrinking a committed entry must be a no-op",
            entry.file
        );
    }
}

/// Shrinking with an arbitrary predicate is idempotent: a second greedy pass over the
/// result of the first finds nothing left to remove.
#[test]
fn shrinking_is_idempotent_under_arbitrary_predicates() {
    let limits = GenLimits::default();
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for index in 0..8 {
        let spec = random_spec(&mut rng, &limits, format!("idem-{index}"));
        // A predicate decoupled from the verdict machinery: keep the protocol rung.
        let rung = spec.protocol;
        let keep = move |candidate: &ScenarioSpec| candidate.protocol == rung;
        let once = fuzz::shrink_with(spec, &keep);
        let twice = fuzz::shrink_with(once.clone(), &keep);
        assert_eq!(twice, once, "idem-{index}: second shrink pass must be a no-op");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Satellite: mutation chains of any length only ever produce valid specs — every
    /// mutant compiles, and its JSON serialization round-trips losslessly.  48 cases ×
    /// up to 60 mutations ≈ thousands of operator applications per run.
    #[test]
    fn mutation_chains_stay_valid_and_roundtrip(
        seed in 0u64..1_000_000_000,
        chain in 1usize..=60,
    ) {
        let limits = GenLimits::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spec = random_spec(&mut rng, &limits, "chain");
        for step in 0..chain {
            spec = mutate_spec(&spec, &mut rng, &limits);
            prop_assert!(
                spec.clone().compile().is_ok(),
                "seed {seed} step {step}: mutant fails validation: {spec:?}"
            );
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json);
            prop_assert!(back.is_ok(), "seed {seed} step {step}: round-trip parse failed");
            prop_assert_eq!(
                back.unwrap(),
                spec.clone(),
                "seed {} step {}: lossy JSON round-trip",
                seed,
                step
            );
        }
    }

    /// The coverage signature of a spec is deterministic: two evaluations of the same spec
    /// (including the seeded simulator run feeding the monitor verdicts) produce the same
    /// key.
    #[test]
    fn signatures_are_deterministic_across_evaluations(seed in 0u64..1_000_000_000) {
        let limits = GenLimits { max_nodes: 6, ..GenLimits::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spec = random_spec(&mut rng, &limits, "deterministic");
        spec.check.max_configurations = 1_000;
        let first = fuzz::evaluate(&spec, 0).expect("clean evaluation");
        let second = fuzz::evaluate(&spec, 0).expect("clean evaluation");
        prop_assert_eq!(first.signature.key(), second.signature.key());
    }
}

/// A guided campaign seeded from the committed corpus treats every committed key as
/// already-covered: replayed signatures are not "novel", so the corpus only grows.
#[test]
fn campaigns_extend_rather_than_rediscover_the_committed_corpus() {
    let mut corpus = committed_corpus();
    let initial = corpus.len();
    let opts = FuzzOptions {
        scenarios: 32,
        max_configurations: 1_000,
        sim_steps: 300,
        guided: true,
        out_dir: std::env::temp_dir(),
        ..FuzzOptions::new(7)
    };
    let summary = fuzz::run_campaign_with(&opts, &mut corpus);
    assert!(summary.clean(), "disagreements: {:?}", summary.disagreements);
    assert_eq!(summary.initial_corpus_size, initial);
    assert_eq!(corpus.len(), initial + summary.novel_signatures as usize);
}
