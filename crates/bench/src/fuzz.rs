//! `klex fuzz` — the coverage-guided cross-engine differential campaign.
//!
//! # The differential oracle
//!
//! Every scenario the campaign evaluates is run through **three** executions of the same
//! spec and their answers are compared:
//!
//! 1. the **delta** checker engine ([`checker::ExploreEngine::Delta`]);
//! 2. the **interned** checker engine ([`checker::ExploreEngine::Interned`]) — the two
//!    reports must be identical field for field (states, transitions, per-level frontier
//!    sizes, violations, deadlocks, fair-cycle lassos, and the recorded
//!    [`checker::GraphSummary`]);
//! 3. the **simulator under monitors** ([`analysis::scenario::CompiledScenario::run_monitored`])
//!    — a monitor-observed safety violation on a concrete execution of a fault-free,
//!    override-free scenario must be reproduced by the exhaustive exploration (the
//!    simulated execution is one of the schedules the checker covers), and a checker lasso
//!    must be re-confirmed by replaying it through the streaming monitors
//!    ([`analysis::monitor::feed_lasso`]).
//!
//! Any disagreement is **shrunk**: the failing spec is greedily reduced (drop the fault,
//! simplify the daemon and workload, shrink the topology, lower ℓ) while the disagreement
//! reproduces, and the minimal spec is written to disk as a JSON [`ScenarioSpec`] that
//! `klex run <file> --backend check` replays.
//!
//! # Coverage guidance and the corpus
//!
//! Each clean evaluation is fingerprinted by an [`analysis::coverage::CoverageSignature`] —
//! a bucketed summary of the *structure* the scenario exercised (frontier shape, SCC
//! decomposition, channel occupancy extremes, verdict combination).  A [`Corpus`] maps each
//! signature key ever observed to one spec that reaches it; in **guided** mode
//! ([`FuzzOptions::guided`], `klex fuzz --campaign`) most new scenarios are produced by
//! mutating corpus entries ([`analysis::scenario::mutate_spec`]) rather than drawn blind,
//! which biases the search toward the frontier of already-reached structure.  Mutation also
//! explores dimensions the blind generator never samples (initial-configuration overrides,
//! bootstrapped roots, injected garbage), so a guided campaign discovers strictly more
//! distinct signatures per scenario than a blind one of the same seed — asserted by
//! `tests/fuzz_regression.rs`.
//!
//! A corpus can persist on disk (`klex fuzz --corpus DIR`): `MANIFEST.json` lists
//! `key → file` pairs and every `sig-*.json` is a plain replayable [`ScenarioSpec`].  Specs
//! added to a *persistent* corpus are first shrunk to a minimal spec with the same
//! signature ([`shrink_to_signature`]); greedy shrinking runs to a fixpoint, so re-shrinking
//! a committed entry is a no-op.  The committed corpus under `tests/corpus/` is replayed
//! through all engines by `tests/fuzz_regression.rs` on every CI run.
//!
//! # Determinism and sharding
//!
//! The campaign proceeds in fixed-size batches.  The spec of scenario `i` depends only on
//! the campaign seed, `i` (via [`analysis::harness::trial_seed`]) and the corpus snapshot
//! at the start of `i`'s batch; batches are evaluated across worker shards with
//! [`analysis::harness::run_sharded`] and merged back **in index order**.  The whole
//! campaign — signatures, corpus, disagreements — is therefore a function of
//! `(seed, options, starting corpus)` alone, identical at every `--shards` value.  CI runs
//! a fixed-seed smoke campaign (`klex fuzz --smoke --campaign`) whose zero-disagreement,
//! novelty-finding result is a regression gate.

use analysis::coverage::CoverageSignature;
use analysis::harness::{auto_shards, run_sharded, trial_seed};
use analysis::monitor;
use analysis::{NullSink, ProgressSink};
use analysis::scenario::{mutate_spec, random_spec, GenLimits, ScenarioSpec, StopSpec};
use checker::{ExplorationReport, ExploreEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Options of one campaign.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Campaign seed; everything (generation and execution) is a function of it.
    pub seed: u64,
    /// Number of scenarios to generate and cross-check.
    pub scenarios: u64,
    /// Checker state budget per scenario (exceeding it truncates, which is fine: both
    /// engines must truncate identically).
    pub max_configurations: usize,
    /// Simulator activations per scenario.
    pub sim_steps: u64,
    /// Where to write the shrunk reproduction spec of a disagreement.
    pub out_dir: PathBuf,
    /// Print one line per scenario instead of a progress summary.
    pub verbose: bool,
    /// Nothing reads it: it was the worker count of the removed parallel checker arm and
    /// stays only so existing callers compile; ROADMAP item 9 removes it.
    pub threads: usize,
    /// Campaign shards: how many scenarios are cross-checked concurrently
    /// ([`analysis::harness::run_sharded`]); `0` = one per core.  Results are identical at
    /// every value.
    pub shards: usize,
    /// Directory of the persistent corpus (`MANIFEST.json` + `sig-*.json`); `None` keeps
    /// the corpus in memory for the duration of the campaign.
    pub corpus_dir: Option<PathBuf>,
    /// Coverage-guided mode: prefer mutating corpus entries over blind generation.
    pub guided: bool,
}

impl FuzzOptions {
    /// The default campaign: 200 scenarios with roomy per-scenario budgets.
    pub fn new(seed: u64) -> Self {
        FuzzOptions {
            seed,
            scenarios: 200,
            max_configurations: 20_000,
            sim_steps: 3_000,
            out_dir: PathBuf::from("."),
            verbose: false,
            threads: 0,
            shards: 0,
            corpus_dir: None,
            guided: false,
        }
    }

    /// The CI smoke campaign: the fixed seed and tightened budgets that keep 200 scenarios
    /// within roughly half a minute.
    pub fn smoke() -> Self {
        FuzzOptions {
            seed: CI_SEED,
            scenarios: 200,
            max_configurations: 6_000,
            sim_steps: 1_500,
            ..FuzzOptions::new(CI_SEED)
        }
    }
}

/// The fixed seed of the CI smoke campaign.
pub const CI_SEED: u64 = 0x5EED_C0DE;

/// Probability that a guided campaign mutates a corpus entry instead of drawing blind
/// (once the corpus is non-empty).  Kept below a half: the blind draws preserve the
/// generator's broad diversity while the mutation share adds the corpus-adjacent and
/// blind-unreachable (init-override) structure.
const GUIDED_MUTATION_P: f64 = 0.4;

/// Guided candidate redraws: how many times [`generate_one`] may reject a candidate from a
/// depleted stratum and draw again.
const GUIDED_REDRAWS: u32 = 6;

/// Evaluations a stratum needs before its novelty yield is trusted for rejection.
const STRATUM_MIN_TRIES: u64 = 3;

/// Acceptance-probability floor for depleted strata: even a stratum that stopped yielding
/// keeps a residual share of draws (its tail may still hide rare buckets).
const STRATUM_FLOOR: f64 = 0.1;

/// A candidate's generation stratum and the per-stratum novelty bookkeeping of one
/// campaign.
///
/// Strata are deliberately coarse — process count × protocol rung — so each accumulates
/// meaningful statistics within a few batches.  The campaign records, per stratum, how many
/// scenarios were evaluated and how many produced a *novel* signature; guided generation
/// then rejects (and redraws) candidates from strata whose observed yield has collapsed.
/// This is the second coverage-feedback channel next to corpus mutation: blind generation
/// keeps spending draws on regions it has already exhausted (small instances saturate their
/// handful of buckets within the first batches), while the guided campaign reallocates
/// those draws to strata that still produce new structure.
type Stratum = (usize, &'static str);

/// Per-stratum (evaluations, novel signatures) counts.
type StratumStats = BTreeMap<Stratum, (u64, u64)>;

fn stratum_of(spec: &ScenarioSpec) -> Stratum {
    (spec.topology.len(), spec.protocol.label())
}

/// Scenarios per deterministic generation/evaluation batch.  A constant (never a function
/// of the shard count): generation for a batch sees the corpus snapshot at the batch start,
/// so the batch size is part of the campaign's deterministic definition.
const BATCH: u64 = 32;

/// One cross-engine disagreement, with the spec that (still) reproduces it.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// Index of the generated scenario within the campaign.
    pub scenario_index: u64,
    /// What disagreed.
    pub detail: String,
    /// The shrunk reproducing spec.
    pub spec: ScenarioSpec,
    /// Where the reproducing spec was written (when writing succeeded).
    pub written_to: Option<PathBuf>,
}

/// Aggregate result of one campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzSummary {
    /// Scenarios generated and executed.
    pub scenarios: u64,
    /// Scenarios whose exploration covered the whole reachable space within budget.
    pub exhaustive: u64,
    /// Scenarios in which the checker found a fair starvation lasso.
    pub liveness_violations: u64,
    /// Scenarios in which the checker found a safety violation (expected for none of the
    /// generated regimes, but counted rather than assumed).
    pub safety_violations: u64,
    /// Scenarios on which the sim-vs-checker oracle applied (fault-free, override-free,
    /// exhaustively explored).
    pub differential_oracle_runs: u64,
    /// Distinct coverage-signature keys observed during this campaign.
    pub distinct_signatures: usize,
    /// Signature keys this campaign added to the corpus (not reached by any entry the
    /// corpus held when the campaign started).
    pub novel_signatures: u64,
    /// Corpus entries when the campaign started.
    pub initial_corpus_size: usize,
    /// Corpus entries when the campaign finished.
    pub corpus_size: usize,
    /// The disagreements found (empty is the healthy outcome).
    pub disagreements: Vec<Disagreement>,
}

impl FuzzSummary {
    /// True when the campaign finished without any cross-engine disagreement.
    pub fn clean(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// The result of one clean three-way evaluation of a spec.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Distinct configurations the exploration visited.
    pub configurations: usize,
    /// The exploration covered the whole reachable space within budget.
    pub exhaustive: bool,
    /// The checker found a fair starvation lasso.
    pub liveness_violation: bool,
    /// The checker found a safety violation.
    pub safety_violation: bool,
    /// The sim-vs-checker safety oracle applied to this scenario.
    pub differential_oracle: bool,
    /// The structural coverage fingerprint (delta report + simulator monitor verdicts).
    pub signature: CoverageSignature,
}

// ---------------------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------------------

/// One corpus entry: a (shrunken) spec reaching one coverage signature.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// The signature key ([`CoverageSignature::key`]) this spec reaches.
    pub key: String,
    /// File name of the spec inside the corpus directory (`sig-<hash>.json`).
    pub file: String,
    /// The spec itself.
    pub spec: ScenarioSpec,
}

/// A persistent (or in-memory) set of specs, one per distinct coverage signature.
///
/// On disk a corpus is a directory holding `MANIFEST.json` — `{"version": 1, "entries":
/// [{"key": …, "file": …}, …]}` — plus one plain [`ScenarioSpec`] JSON file per entry,
/// replayable with `klex run <file> --backend check`.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    dir: Option<PathBuf>,
    entries: BTreeMap<String, CorpusEntry>,
}

impl Corpus {
    /// An empty corpus that lives only for this process.
    pub fn in_memory() -> Corpus {
        Corpus::default()
    }

    /// Loads the corpus stored in `dir`; a missing directory or manifest yields an empty
    /// corpus *bound to* `dir` (the first [`Corpus::save`] creates it).
    pub fn load(dir: &Path) -> Result<Corpus, String> {
        let mut corpus = Corpus { dir: Some(dir.to_path_buf()), entries: BTreeMap::new() };
        let manifest_path = dir.join("MANIFEST.json");
        let text = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => text,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(corpus),
            Err(err) => return Err(format!("unreadable {}: {err}", manifest_path.display())),
        };
        let manifest = serde_json::from_str(&text)
            .map_err(|e| format!("unparsable {}: {e}", manifest_path.display()))?;
        let Some(serde_json::Value::Array(listed)) = manifest.get("entries") else {
            return Err(format!("{} has no `entries` array", manifest_path.display()));
        };
        for entry in listed {
            let (Some(key), Some(file)) = (
                entry.get("key").and_then(|v| v.as_str()),
                entry.get("file").and_then(|v| v.as_str()),
            ) else {
                return Err(format!("{}: entry without key/file", manifest_path.display()));
            };
            let spec_path = dir.join(file);
            let spec_text = std::fs::read_to_string(&spec_path)
                .map_err(|e| format!("unreadable corpus spec {}: {e}", spec_path.display()))?;
            let spec = ScenarioSpec::from_json(&spec_text)
                .map_err(|e| format!("bad corpus spec {}: {e}", spec_path.display()))?;
            corpus.entries.insert(
                key.to_string(),
                CorpusEntry { key: key.to_string(), file: file.to_string(), spec },
            );
        }
        Ok(corpus)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the corpus holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when some entry already reaches `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// True when the corpus persists to a directory (vs. in-memory only).
    pub fn is_persistent(&self) -> bool {
        self.dir.is_some()
    }

    /// The entries in key order (the iteration order every deterministic consumer uses).
    pub fn entries(&self) -> impl Iterator<Item = &CorpusEntry> {
        self.entries.values()
    }

    /// The specs in key order.
    pub fn specs(&self) -> Vec<&ScenarioSpec> {
        self.entries.values().map(|e| &e.spec).collect()
    }

    /// Adds (or replaces) the spec reaching `key`.
    pub fn insert(&mut self, key: String, spec: ScenarioSpec) {
        let file = format!("sig-{:016x}.json", fnv64(&key));
        self.entries.insert(key.clone(), CorpusEntry { key, file, spec });
    }

    /// Writes the manifest and every spec file; a no-op for in-memory corpora.
    pub fn save(&self) -> Result<(), String> {
        let Some(dir) = &self.dir else { return Ok(()) };
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut manifest = String::from("{\n  \"version\": 1,\n  \"entries\": [\n");
        for (i, entry) in self.entries.values().enumerate() {
            // Keys and file names come from CoverageSignature::key()/fnv64: no characters
            // that need JSON escaping.
            manifest.push_str(&format!(
                "    {{\"key\": \"{}\", \"file\": \"{}\"}}{}\n",
                entry.key,
                entry.file,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
            let path = dir.join(&entry.file);
            std::fs::write(&path, entry.spec.to_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        manifest.push_str("  ]\n}\n");
        let path = dir.join("MANIFEST.json");
        std::fs::write(&path, manifest).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// FNV-1a over the key string — stable file names for corpus entries.
fn fnv64(s: &str) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

// ---------------------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------------------

/// Loads (or creates) the corpus named by the options, runs a campaign, and saves the
/// corpus back; see the [module docs](self).
pub fn run_campaign(opts: &FuzzOptions) -> Result<FuzzSummary, String> {
    let mut corpus = match &opts.corpus_dir {
        Some(dir) => Corpus::load(dir)?,
        None => Corpus::in_memory(),
    };
    let summary = run_campaign_with(opts, &mut corpus);
    corpus.save()?;
    Ok(summary)
}

/// Runs a campaign against a caller-managed corpus (which is mutated, not saved).
pub fn run_campaign_with(opts: &FuzzOptions, corpus: &mut Corpus) -> FuzzSummary {
    run_campaign_observed(opts, corpus, &NullSink)
}

/// [`run_campaign_with`] under observation: `sink` hears `"fuzz"` progress after every
/// evaluated batch and is polled for cancellation between batches (a batch is the
/// campaign's determinism unit, so stopping on its boundary leaves the corpus coherent —
/// the summary simply covers fewer scenarios).
pub fn run_campaign_observed(
    opts: &FuzzOptions,
    corpus: &mut Corpus,
    sink: &dyn ProgressSink,
) -> FuzzSummary {
    let limits = GenLimits {
        sim_steps: opts.sim_steps,
        max_configurations: opts.max_configurations,
        ..GenLimits::default()
    };
    let shards = if opts.shards == 0 { auto_shards() } else { opts.shards };
    // Persistent corpora are the regression suite: keep their entries minimal.  In-memory
    // campaigns skip the (evaluation-heavy) signature-preserving shrink.
    let shrink_novel = corpus.is_persistent();

    let mut summary = FuzzSummary { initial_corpus_size: corpus.len(), ..FuzzSummary::default() };
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut strata: StratumStats = BTreeMap::new();
    let mut index = 0u64;
    while index < opts.scenarios {
        if sink.cancelled() {
            break;
        }
        let batch = BATCH.min(opts.scenarios - index);
        // Generation sees the corpus and stratum-stats snapshots at the batch start; the
        // evaluation fans out over the shards; the merge below walks results in index
        // order.  Every step is a function of (seed, index, snapshot), so the campaign is
        // shard-count-independent.
        let bases: Vec<ScenarioSpec> = corpus.specs().into_iter().cloned().collect();
        let specs: Vec<ScenarioSpec> =
            (0..batch).map(|b| generate_one(opts, &limits, &bases, &strata, index + b)).collect();
        let outcomes =
            run_sharded(batch, opts.seed, shards, |b, _seed| evaluate(&specs[b as usize], 0));
        for (offset, outcome) in outcomes.into_iter().enumerate() {
            let scenario_index = index + offset as u64;
            let spec = &specs[offset];
            summary.scenarios += 1;
            match outcome {
                Ok(eval) => {
                    summary.exhaustive += u64::from(eval.exhaustive);
                    summary.liveness_violations += u64::from(eval.liveness_violation);
                    summary.safety_violations += u64::from(eval.safety_violation);
                    summary.differential_oracle_runs += u64::from(eval.differential_oracle);
                    let key = eval.signature.key();
                    if opts.verbose {
                        println!(
                            "  [{scenario_index:>4}] {} — {} states{} sig {key}",
                            spec.name,
                            eval.configurations,
                            if eval.exhaustive { "" } else { " (truncated)" },
                        );
                    }
                    seen.insert(key.clone());
                    let slot = strata.entry(stratum_of(spec)).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += u64::from(!corpus.contains(&key));
                    if !corpus.contains(&key) {
                        summary.novel_signatures += 1;
                        let entry = if shrink_novel {
                            shrink_to_signature(spec.clone(), &key)
                        } else {
                            spec.clone()
                        };
                        corpus.insert(key, entry);
                    }
                }
                Err(detail) => {
                    let shrunk = shrink(spec.clone());
                    let written_to = write_reproduction(opts, scenario_index, &shrunk);
                    summary.disagreements.push(Disagreement {
                        scenario_index,
                        detail,
                        spec: shrunk,
                        written_to,
                    });
                }
            }
        }
        index += batch;
        sink.progress("fuzz", index, opts.scenarios);
    }
    summary.distinct_signatures = seen.len();
    summary.corpus_size = corpus.len();
    summary
}

/// Produces the spec of scenario `index`: a mutation chain off a corpus entry in guided
/// mode (with probability [`GUIDED_MUTATION_P`] once the corpus is non-empty), a blind
/// draw otherwise — and, in guided mode, rejection-resampled away from strata whose
/// novelty yield has collapsed.  Deterministic in `(opts.seed, index, bases, strata)`.
fn generate_one(
    opts: &FuzzOptions,
    limits: &GenLimits,
    bases: &[ScenarioSpec],
    strata: &StratumStats,
    index: u64,
) -> ScenarioSpec {
    let mut rng = StdRng::seed_from_u64(trial_seed(opts.seed, index));
    let draw = |rng: &mut StdRng| {
        if opts.guided && !bases.is_empty() && rng.gen_bool(GUIDED_MUTATION_P) {
            let mut spec = bases[rng.gen_range(0usize..bases.len())].clone();
            for _ in 0..rng.gen_range(2u32..=5) {
                spec = mutate_spec(&spec, rng, limits);
            }
            // Fresh seed stream: the mutant inherits the base's *structure* (topology
            // shape, rung, parameters, overrides) but not its randomness, so mutants of
            // one corpus entry decorrelate instead of replaying near-identical executions.
            spec.base_seed = rng.gen::<u64>();
            spec
        } else {
            random_spec(rng, limits, "blind")
        }
    };
    let mut spec = draw(&mut rng);
    if opts.guided {
        for _ in 0..GUIDED_REDRAWS {
            let (tries, novel) =
                strata.get(&stratum_of(&spec)).copied().unwrap_or((0, 0));
            if tries < STRATUM_MIN_TRIES {
                break; // Not enough evidence to call the stratum depleted.
            }
            let observed_yield = novel as f64 / tries as f64;
            if rng.gen_bool(observed_yield.max(STRATUM_FLOOR)) {
                break; // Accept proportionally to how often this stratum still pays off.
            }
            spec = draw(&mut rng);
        }
    }
    // Uniform budgets and a campaign-unique label regardless of provenance (corpus entries
    // may carry shrunken budgets; comparisons across scenarios need equal ones).
    spec.check.max_configurations = opts.max_configurations;
    if matches!(spec.stop, StopSpec::Steps { .. }) {
        spec.stop = StopSpec::Steps { steps: opts.sim_steps };
    }
    spec.name = format!(
        "fuzz-{index} {} n={} k={} l={}",
        spec.protocol.label(),
        spec.topology.len(),
        spec.config.k,
        spec.config.l
    );
    spec
}

/// Runs the three executions of one spec, applies the oracles, and fingerprints the
/// behaviour.  `Err` carries a human-readable description of the first disagreement.
///
/// Nothing reads `_threads`: it was the worker count of the removed parallel checker arm
/// and stays only so existing callers compile; ROADMAP item 9 removes it.
pub fn evaluate(spec: &ScenarioSpec, _threads: usize) -> Result<Evaluation, String> {
    let scenario = spec
        .clone()
        .compile()
        .map_err(|e| format!("generated spec failed to validate: {e}"))?;

    let delta = scenario
        .check_with(ExploreEngine::Delta)
        .map_err(|e| format!("delta lowering failed: {e}"))?;
    let interned = scenario
        .check_with(ExploreEngine::Interned)
        .map_err(|e| format!("interned lowering failed: {e}"))?;
    compare_reports("delta", &delta, "interned", &interned)?;

    // The simulator run, monitored.  Monitors are advisory on faulty scenarios (a fault can
    // legitimately break the safety bounds); on fault-free, override-free scenarios whose
    // exploration was exhaustive they are an oracle: a monitor-observed safety violation is
    // one concrete schedule, and the checker covered all of them.  Fault-schedule campaigns
    // are excluded for the same reason as one-shot faults: the simulator's measured phase
    // starts from a post-campaign configuration the checker's exploration root does not
    // share step for step.
    let (_, monitors) = scenario.run_monitored();
    let oracle_applies = spec.fault.is_none()
        && spec.fault_schedule.is_none()
        && spec.init.is_none()
        && delta.exhaustive();
    let checker_safety_violated = delta.violations.iter().any(|v| v.property == "safety");
    if oracle_applies {
        for report in &monitors {
            let safety_monitor =
                report.name == "at-most-k-in-cs" || report.name == "l-availability";
            if safety_monitor && report.verdict.is_violated() && !checker_safety_violated {
                return Err(format!(
                    "monitor/checker mismatch: simulator monitor {} reports {:?} but the \
                     exhaustive exploration found no safety violation",
                    report.name, report.verdict
                ));
            }
        }
    }

    // A checker lasso must be re-confirmed by the streaming monitors replaying it.
    if let Some(witness) = delta.liveness.first() {
        let mut replay: Vec<Box<dyn monitor::TemporalMonitor>> = ["request-eventually-cs"]
            .iter()
            .map(|name| monitor::monitor_for(name, spec.config.k, spec.config.l).expect("known"))
            .collect();
        let verdicts = monitor::feed_lasso(&mut replay, witness);
        if !verdicts[0].verdict.is_violated() {
            return Err(format!(
                "monitor/checker mismatch: the checker reports a fair starvation lasso for \
                 process {} but the request-eventually-cs monitor replaying it returns {:?}",
                witness.victim, verdicts[0].verdict
            ));
        }
    }

    Ok(Evaluation {
        configurations: delta.configurations,
        exhaustive: delta.exhaustive(),
        liveness_violation: !delta.live(),
        safety_violation: checker_safety_violated,
        differential_oracle: oracle_applies,
        signature: CoverageSignature::of(&delta, &monitors),
    })
}

/// Field-for-field comparison of two engines' reports, labeled for the error message.
fn compare_reports(
    ln: &str,
    left: &ExplorationReport,
    rn: &str,
    right: &ExplorationReport,
) -> Result<(), String> {
    let mismatch = |what: &str, l: String, r: String| {
        Err(format!("{ln}/{rn} mismatch in {what}: {ln} {l} vs {rn} {r}"))
    };
    if left.configurations != right.configurations {
        return mismatch(
            "configurations",
            left.configurations.to_string(),
            right.configurations.to_string(),
        );
    }
    if left.transitions != right.transitions {
        return mismatch(
            "transitions",
            left.transitions.to_string(),
            right.transitions.to_string(),
        );
    }
    if left.max_depth != right.max_depth {
        return mismatch("max_depth", left.max_depth.to_string(), right.max_depth.to_string());
    }
    if left.truncated != right.truncated {
        return mismatch("truncated", left.truncated.to_string(), right.truncated.to_string());
    }
    if left.frontier_sizes != right.frontier_sizes {
        return mismatch(
            "frontier_sizes",
            format!("{:?}", left.frontier_sizes),
            format!("{:?}", right.frontier_sizes),
        );
    }
    if left.graph_summary != right.graph_summary {
        return mismatch(
            "graph_summary",
            format!("{:?}", left.graph_summary),
            format!("{:?}", right.graph_summary),
        );
    }
    let violations = |r: &ExplorationReport| -> Vec<(String, usize)> {
        r.violations.iter().map(|v| (v.property.clone(), v.depth)).collect()
    };
    if violations(left) != violations(right) {
        return mismatch(
            "violations",
            format!("{:?}", violations(left)),
            format!("{:?}", violations(right)),
        );
    }
    let deadlocks = |r: &ExplorationReport| -> Vec<(usize, Vec<usize>)> {
        r.deadlocks.iter().map(|d| (d.depth, d.blocked.clone())).collect()
    };
    if deadlocks(left) != deadlocks(right) {
        return mismatch(
            "deadlocks",
            format!("{:?}", deadlocks(left)),
            format!("{:?}", deadlocks(right)),
        );
    }
    let lassos = |r: &ExplorationReport| -> Vec<(usize, usize, usize)> {
        r.liveness.iter().map(|w| (w.victim, w.stem_len(), w.cycle_len())).collect()
    };
    if lassos(left) != lassos(right) {
        return mismatch(
            "liveness lassos",
            format!("{:?}", lassos(left)),
            format!("{:?}", lassos(right)),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------------------

/// Greedy predicate-preserving shrinking: repeatedly tries a fixed menu of simplifications,
/// keeping any candidate that still validates and satisfies `keep`, until none applies.
/// Running to the fixpoint makes shrinking idempotent: re-shrinking the result changes
/// nothing, because every menu candidate was already tried and rejected in the final round.
pub fn shrink_with(mut spec: ScenarioSpec, keep: &dyn Fn(&ScenarioSpec) -> bool) -> ScenarioSpec {
    loop {
        let mut reduced = false;
        for candidate in shrink_candidates(&spec) {
            if candidate.clone().compile().is_err() {
                continue;
            }
            if keep(&candidate) {
                spec = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return spec;
        }
    }
}

/// Shrinks a disagreeing spec while *some* disagreement reproduces (any disagreement
/// counts, so the reduction cannot wander off to a different-but-real bug).
fn shrink(spec: ScenarioSpec) -> ScenarioSpec {
    shrink_with(spec, &|candidate| evaluate(candidate, 0).is_err())
}

/// Shrinks a spec while it keeps evaluating cleanly **to the same signature key** — the
/// corpus-minimization shrink.  Because the signature encodes the verdict flags (safety,
/// deadlock, lasso, monitor verdicts), the shrunken spec still reproduces its verdict.
pub fn shrink_to_signature(spec: ScenarioSpec, key: &str) -> ScenarioSpec {
    shrink_with(spec, &|candidate| {
        evaluate(candidate, 0).map(|e| e.signature.key() == key).unwrap_or(false)
    })
}

/// The simplification menu, most drastic first.
fn shrink_candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    use analysis::scenario::{DaemonSpec, TopologySpec, WorkloadSpec};
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut ScenarioSpec)| {
        let mut candidate = spec.clone();
        f(&mut candidate);
        if candidate != *spec {
            out.push(candidate);
        }
    };
    // Shrink the topology.
    let n = spec.topology.len();
    if n > 2 {
        push(&|s| s.topology = TopologySpec::Chain { n: n - 1 });
    }
    push(&|s| s.topology = TopologySpec::Chain { n });
    // Drop overrides, the faults (whole schedule first, then epoch by epoch), and simplify
    // the daemon.
    push(&|s| s.init = None);
    push(&|s| s.fault = None);
    push(&|s| s.fault_schedule = None);
    if spec.fault_schedule.as_ref().is_some_and(|sched| sched.epochs.len() > 1) {
        push(&|s| {
            if let Some(sched) = &mut s.fault_schedule {
                sched.epochs.pop();
            }
        });
    }
    push(&|s| s.daemon = DaemonSpec::RoundRobin);
    // Simplify the workload.
    push(&|s| {
        if let WorkloadSpec::Needs { needs, hold } = &s.workload {
            let mut needs = needs.clone();
            if let Some(first_busy) = needs.iter().position(|&u| u > 0) {
                needs[first_busy] = 0;
                s.workload = WorkloadSpec::Needs { needs, hold: *hold };
            }
        }
    });
    push(&|s| {
        let hold = match &s.workload {
            WorkloadSpec::Saturated { hold, .. } | WorkloadSpec::Needs { hold, .. } => *hold,
            _ => 0,
        };
        if hold > 0 {
            match &mut s.workload {
                WorkloadSpec::Saturated { hold, .. } | WorkloadSpec::Needs { hold, .. } => {
                    *hold = 0
                }
                _ => {}
            }
        }
    });
    push(&|s| s.workload = WorkloadSpec::Saturated { units: 1, hold: 0 });
    // Shrink the parameters.
    if spec.config.l > 1 {
        push(&|s| {
            s.config.l -= 1;
            s.config.k = s.config.k.min(s.config.l);
        });
    }
    // Shorten the simulated run.
    if let StopSpec::Steps { steps } = spec.stop {
        if steps > 200 {
            push(&|s| s.stop = StopSpec::Steps { steps: steps / 2 });
        }
    }
    out
}

/// Writes the shrunk reproduction spec to `out_dir`, returning the path on success.
fn write_reproduction(opts: &FuzzOptions, index: u64, spec: &ScenarioSpec) -> Option<PathBuf> {
    let path = opts.out_dir.join(format!("klex-fuzz-failure-{:#x}-{index}.json", opts.seed));
    match std::fs::write(&path, spec.to_json()) {
        Ok(()) => Some(path),
        Err(err) => {
            eprintln!("could not write the reproduction spec to {}: {err}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> FuzzOptions {
        FuzzOptions {
            scenarios: 6,
            max_configurations: 1_500,
            sim_steps: 300,
            out_dir: std::env::temp_dir(),
            ..FuzzOptions::new(7)
        }
    }

    #[test]
    fn a_tiny_campaign_is_deterministic_and_clean() {
        let first = run_campaign(&tiny_opts()).unwrap();
        assert!(first.clean(), "disagreements: {:?}", first.disagreements);
        assert_eq!(first.scenarios, 6);
        assert!(first.distinct_signatures >= 1);
        let second = run_campaign(&tiny_opts()).unwrap();
        assert_eq!(first.exhaustive, second.exhaustive);
        assert_eq!(first.liveness_violations, second.liveness_violations);
        assert_eq!(first.safety_violations, second.safety_violations);
        assert_eq!(first.distinct_signatures, second.distinct_signatures);
        assert_eq!(first.novel_signatures, second.novel_signatures);
    }

    #[test]
    fn campaigns_are_shard_count_independent() {
        let run_at = |shards: usize| {
            let opts = FuzzOptions { shards, ..tiny_opts() };
            let mut corpus = Corpus::in_memory();
            let summary = run_campaign_with(&opts, &mut corpus);
            let keys: Vec<String> = corpus.entries().map(|e| e.key.clone()).collect();
            (summary.distinct_signatures, summary.novel_signatures, keys)
        };
        let one = run_at(1);
        let four = run_at(4);
        assert_eq!(one, four);
    }

    #[test]
    fn guided_campaigns_reuse_and_extend_the_corpus() {
        let opts = FuzzOptions { guided: true, ..tiny_opts() };
        let mut corpus = Corpus::in_memory();
        let first = run_campaign_with(&opts, &mut corpus);
        assert!(first.clean(), "disagreements: {:?}", first.disagreements);
        assert_eq!(first.initial_corpus_size, 0);
        assert_eq!(first.corpus_size, corpus.len());
        assert!(first.novel_signatures >= 1);
        // A second campaign over the same corpus counts only *new* keys as novel: the
        // corpus grows by exactly the novel count, never by re-found keys.
        let second = run_campaign_with(&opts, &mut corpus);
        assert!(second.clean());
        assert_eq!(second.initial_corpus_size, first.corpus_size);
        assert_eq!(
            second.corpus_size,
            second.initial_corpus_size + second.novel_signatures as usize
        );
    }

    #[test]
    fn corpora_roundtrip_through_disk() {
        let dir = std::env::temp_dir().join(format!("klex-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = Corpus::load(&dir).unwrap();
        assert!(corpus.is_empty() && corpus.is_persistent());
        let mut rng = StdRng::seed_from_u64(5);
        let spec = random_spec(&mut rng, &GenLimits::default(), "roundtrip");
        corpus.insert("s1d1p1f0-key".to_string(), spec.clone());
        corpus.save().unwrap();
        let reloaded = Corpus::load(&dir).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert!(reloaded.contains("s1d1p1f0-key"));
        assert_eq!(reloaded.specs()[0], &spec);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shrinking_candidates_always_validate_or_are_skipped() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = random_spec(&mut rng, &GenLimits::default(), "shrink-menu");
        let candidates = shrink_candidates(&spec);
        assert!(!candidates.is_empty());
        for candidate in candidates {
            let n = candidate.topology.len();
            assert!(n >= 2 || candidate.clone().compile().is_err());
        }
    }
}
