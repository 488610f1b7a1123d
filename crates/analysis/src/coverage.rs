//! Structural coverage signatures for the differential fuzzer.
//!
//! A [`CoverageSignature`] compresses one explored scenario — its
//! [`checker::ExplorationReport`], the [`checker::GraphSummary`] of the state graph it
//! recorded, and the simulator's monitor verdicts — into a small,
//! deterministic, engine-independent fingerprint of the *shape* of the behaviour it
//! exercised: how the BFS frontier grew, how the state graph decomposes into strongly
//! connected components, how full channels got, and which verdict combination the property
//! machinery produced.  Two scenarios with the same signature stress the checkers the same
//! way; a scenario with a *new* signature reached state-graph structure no corpus entry
//! reaches, which is what the coverage-guided campaign in `bench::fuzz` optimizes for.
//!
//! Every numeric feature is **bucketed** (log₂ classes, clamped raw values, quarter
//! positions) so the signature space stays small enough that a campaign saturates
//! meaningfully instead of treating every state count as novel.  The signature is a pure
//! function of its inputs: reports are engine-independent by the parity contract, and the
//! monitor verdicts come from the (seeded, deterministic) simulator run — so identical
//! specs always produce identical signatures, which makes corpus keys stable across
//! campaigns, shards and hosts.

use crate::monitor::{Monitor, MonitorReport, Verdict};
use checker::{ExplorationReport, GraphSummary};

/// Shape class of the per-level frontier-size sequence of a BFS exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrontierShape {
    /// Zero or one level: nothing to classify.
    Point,
    /// Every level has the same size.
    Flat,
    /// Sizes never shrink (and grow at least once).
    Widening,
    /// Sizes never grow (and shrink at least once).
    Narrowing,
    /// One rise followed by one fall — the classic reachable-set bulge.
    Unimodal,
    /// Multiple direction changes.
    Jagged,
}

impl FrontierShape {
    /// Classifies a frontier-size sequence.
    pub fn classify(sizes: &[usize]) -> FrontierShape {
        if sizes.len() <= 1 {
            return FrontierShape::Point;
        }
        let mut rose = false;
        let mut fell = false;
        let mut switches = 0u32;
        let mut last: Option<bool> = None; // Some(true) = rising, Some(false) = falling
        for pair in sizes.windows(2) {
            let dir = match pair[1].cmp(&pair[0]) {
                std::cmp::Ordering::Greater => Some(true),
                std::cmp::Ordering::Less => Some(false),
                std::cmp::Ordering::Equal => None,
            };
            let Some(dir) = dir else { continue };
            if dir {
                rose = true;
            } else {
                fell = true;
            }
            if let Some(prev) = last {
                if prev != dir {
                    switches += 1;
                }
            }
            last = Some(dir);
        }
        match (rose, fell, switches) {
            (false, false, _) => FrontierShape::Flat,
            (true, false, _) => FrontierShape::Widening,
            (false, true, _) => FrontierShape::Narrowing,
            (true, true, 1) => FrontierShape::Unimodal,
            _ => FrontierShape::Jagged,
        }
    }

    /// One-letter code used in signature keys.
    pub fn code(self) -> char {
        match self {
            FrontierShape::Point => 'p',
            FrontierShape::Flat => 'f',
            FrontierShape::Widening => 'w',
            FrontierShape::Narrowing => 'n',
            FrontierShape::Unimodal => 'u',
            FrontierShape::Jagged => 'j',
        }
    }
}

/// The structural coverage fingerprint of one explored scenario; see the [module
/// docs](self).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CoverageSignature {
    /// log₂ class of the number of distinct configurations.
    pub states_class: u8,
    /// log₂ class of the deepest BFS level.
    pub depth_class: u8,
    /// log₂ class of the largest frontier.
    pub peak_class: u8,
    /// Shape of the frontier-size sequence.
    pub frontier_shape: FrontierShape,
    /// Quarter (0–3) of the depth range in which the largest frontier occurs.
    pub peak_quarter: u8,
    /// log₂ class of the strongly-connected-component count (0 when no graph was recorded).
    pub scc_class: u8,
    /// log₂ class of the largest SCC's size.
    pub largest_scc_class: u8,
    /// Non-trivial SCCs (size ≥ 2 or self-loop), clamped to 15.
    pub nontrivial_sccs: u8,
    /// Largest total in-flight message count over all configurations, clamped to 15.
    pub max_in_flight: u8,
    /// Largest single-channel occupancy over all configurations, clamped to 15.
    pub max_channel_occupancy: u8,
    /// The exploration hit a bound before exhausting the reachable space.
    pub truncated: bool,
    /// The checker found a safety-property violation.
    pub safety_violated: bool,
    /// The checker found a violation of some non-safety per-configuration property.
    pub other_violated: bool,
    /// The checker found a deadlocked configuration.
    pub deadlock: bool,
    /// The fair-cycle pass found a starvation lasso.
    pub lasso: bool,
    /// Per-monitor verdict combination, one code per [`Monitor::ALL`] entry in canonical
    /// order: `S`atisfied, `I`nconclusive, `V`iolated, `-` (monitor not run).
    pub monitor_verdicts: [char; Monitor::ALL.len()],
}

/// log₂ bucket of a count: 0 → 0, 1 → 1, 2–3 → 2, 4–7 → 3, …
fn log2_class(x: usize) -> u8 {
    (usize::BITS - x.leading_zeros()) as u8
}

impl CoverageSignature {
    /// Extracts the signature of one explored scenario from the checker's report, the
    /// summary of the graph it recorded (the all-zero summary of the empty graph when it
    /// recorded none), and the simulator run's monitor verdicts (pass an empty slice when no
    /// monitors ran).
    pub fn of(
        report: &ExplorationReport,
        summary: &GraphSummary,
        monitors: &[MonitorReport],
    ) -> CoverageSignature {
        let peak = report.frontier_sizes.iter().copied().max().unwrap_or(0);
        let peak_quarter = if report.frontier_sizes.len() <= 1 {
            0
        } else {
            let peak_level = report
                .frontier_sizes
                .iter()
                .enumerate()
                .max_by_key(|&(level, &size)| (size, std::cmp::Reverse(level)))
                .map_or(0, |(level, _)| level);
            (peak_level * 4 / report.frontier_sizes.len()).min(3) as u8
        };
        let mut monitor_verdicts = ['-'; Monitor::ALL.len()];
        for report in monitors {
            monitor_verdicts[report.monitor as usize] = match report.verdict {
                Verdict::Satisfied => 'S',
                Verdict::Inconclusive => 'I',
                Verdict::Violated(_) => 'V',
            };
        }
        CoverageSignature {
            states_class: log2_class(report.configurations),
            depth_class: log2_class(report.max_depth),
            peak_class: log2_class(peak),
            frontier_shape: FrontierShape::classify(&report.frontier_sizes),
            peak_quarter,
            scc_class: log2_class(summary.scc_count),
            largest_scc_class: log2_class(summary.largest_scc),
            nontrivial_sccs: summary.nontrivial_sccs.min(15) as u8,
            max_in_flight: summary.max_in_flight.min(15) as u8,
            max_channel_occupancy: summary.max_channel_occupancy.min(15) as u8,
            truncated: report.truncated,
            safety_violated: report.violations.iter().any(|v| v.property == "safety"),
            other_violated: report.violations.iter().any(|v| v.property != "safety"),
            deadlock: !report.deadlocks.is_empty(),
            lasso: !report.liveness.is_empty(),
            monitor_verdicts,
        }
    }

    /// The canonical compact rendering — the corpus key.  Stable across campaigns (it is
    /// what `tests/corpus/MANIFEST.json` records), so treat the format as persistent.
    pub fn key(&self) -> String {
        let flags: String = [
            ('t', self.truncated),
            ('s', self.safety_violated),
            ('v', self.other_violated),
            ('d', self.deadlock),
            ('l', self.lasso),
        ]
        .iter()
        .filter(|(_, set)| *set)
        .map(|(code, _)| *code)
        .collect();
        let monitors: String = self.monitor_verdicts.iter().collect();
        format!(
            "s{}d{}p{}{}q{}-c{}g{}n{}-f{}o{}-{}-{}",
            self.states_class,
            self.depth_class,
            self.peak_class,
            self.frontier_shape.code(),
            self.peak_quarter,
            self.scc_class,
            self.largest_scc_class,
            self.nontrivial_sccs,
            self.max_in_flight,
            self.max_channel_occupancy,
            if flags.is_empty() { "none".to_string() } else { flags },
            monitors,
        )
    }
}

impl std::fmt::Display for CoverageSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_classes_bucket_doublings() {
        assert_eq!(log2_class(0), 0);
        assert_eq!(log2_class(1), 1);
        assert_eq!(log2_class(2), 2);
        assert_eq!(log2_class(3), 2);
        assert_eq!(log2_class(4), 3);
        assert_eq!(log2_class(7), 3);
        assert_eq!(log2_class(8), 4);
    }

    #[test]
    fn frontier_shapes_classify() {
        assert_eq!(FrontierShape::classify(&[]), FrontierShape::Point);
        assert_eq!(FrontierShape::classify(&[5]), FrontierShape::Point);
        assert_eq!(FrontierShape::classify(&[2, 2, 2]), FrontierShape::Flat);
        assert_eq!(FrontierShape::classify(&[1, 2, 2, 4]), FrontierShape::Widening);
        assert_eq!(FrontierShape::classify(&[4, 2, 2, 1]), FrontierShape::Narrowing);
        assert_eq!(FrontierShape::classify(&[1, 3, 5, 4, 2]), FrontierShape::Unimodal);
        assert_eq!(FrontierShape::classify(&[1, 3, 2, 4, 1]), FrontierShape::Jagged);
    }

    #[test]
    fn signature_of_the_default_report_is_stable() {
        let report = ExplorationReport::default();
        let summary = GraphSummary::default();
        let sig = CoverageSignature::of(&report, &summary, &[]);
        assert_eq!(sig, CoverageSignature::of(&report, &summary, &[]));
        assert_eq!(sig.key(), "s0d0p0pq0-c0g0n0-f0o0-none-----");
    }

    #[test]
    fn monitor_verdicts_land_in_canonical_slots() {
        let report = ExplorationReport::default();
        let monitors = vec![
            MonitorReport {
                monitor: Monitor::LAvailability,
                verdict: Verdict::Violated("x".to_string()),
            },
            MonitorReport { monitor: Monitor::RequestEventuallyCS, verdict: Verdict::Satisfied },
        ];
        let sig = CoverageSignature::of(&report, &GraphSummary::default(), &monitors);
        assert_eq!(sig.monitor_verdicts, ['S', '-', 'V', '-']);
        assert!(sig.key().ends_with("S-V-"));
    }
}
