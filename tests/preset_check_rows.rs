//! The exact `klex run <preset> --backend check` row of every bundled preset.
//!
//! Exhaustive exploration has no randomness, so each figure below is a function of the
//! preset alone: a change to the explorer's representation (transition records, parent
//! links, the commuting-diamond and local-transition shortcuts) or to a protocol's captured
//! state that moves any of them — the reachable set, its depth, a witness count — fails
//! here by name.  Release builds take the shortcuts without the debug oracle, so this test
//! also runs in CI's release differential step.

use analysis::scenario::{preset, PRESET_NAMES};
use bench::runner::{run_rows, Backend, RunRequest};

/// One preset's check row: configurations, transitions, max_depth, exhaustive,
/// violations, deadlocks, and liveness_violations (only for presets that check liveness).
type Row = (&'static str, u64, u64, u64, bool, u64, u64, Option<u64>);

const ROWS: [Row; 15] = [
    ("figure2", 1, 8, 0, true, 0, 1, None),
    ("figure2-pusher", 50_000, 587_205, 30, false, 0, 0, None),
    ("figure2-ss", 50_000, 594_250, 30, false, 0, 0, None),
    ("figure3-pusher", 1_560, 7_842, 21, true, 0, 0, None),
    ("figure3-nonstab", 4_229, 22_072, 42, true, 0, 0, None),
    ("figure3-ss", 100_000, 543_910, 76, false, 0, 0, None),
    ("quickstart", 100_000, 1_106_128, 28, false, 0, 0, None),
    ("theorem2", 100_000, 1_182_855, 24, false, 0, 0, None),
    ("timeout", 100_000, 1_213_043, 29, false, 0, 0, None),
    ("churn-campaign", 19_673, 115_822, 7, true, 1, 0, None),
    ("fault-gauntlet", 100_000, 1_563_062, 9, false, 0, 0, None),
    ("checker-safety", 20_000, 112_392, 75, false, 0, 0, Some(0)),
    ("checker-liveness", 1_560, 7_842, 21, true, 0, 0, Some(1)),
    ("checker-liveness-nonstab", 4_229, 22_072, 42, true, 0, 0, Some(0)),
    ("checker-churn", 21, 120, 8, true, 0, 0, None),
];

/// The presets the checker cannot lower (stateful workloads, the ring baseline).
const UNCHECKABLE: [&str; 3] = ["theorem1", "unbounded", "ring"];

#[test]
fn every_preset_check_row_is_pinned() {
    let request = RunRequest { backend: Backend::Check, shards: 1, threads: None, bench: false };
    for name in PRESET_NAMES {
        let scenario = preset(name).expect("bundled preset").compile().expect("valid preset");
        let result = run_rows(&scenario, &request, None);
        let Some(row) = ROWS.iter().find(|row| row.0 == name) else {
            assert!(UNCHECKABLE.contains(&name), "{name}: a preset with no pinned check row");
            assert!(result.is_err(), "{name}: now has a check row; pin it");
            continue;
        };
        let product = result.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(product.rows.len(), 1, "{name}");
        let metrics = &product.rows[0].metrics;
        let metric = |key: &str| metrics.get(key).copied();
        let count = |value: u64| Some(value as f64);
        let expected = [
            ("configurations", count(row.1)),
            ("transitions", count(row.2)),
            ("max_depth", count(row.3)),
            ("exhaustive", count(u64::from(row.4))),
            ("violations", count(row.5)),
            ("deadlocks", count(row.6)),
            ("liveness_violations", row.7.and_then(count)),
        ];
        for (key, value) in expected {
            assert_eq!(metric(key), value, "{name}: {key}");
        }
        assert_eq!(metrics.len(), 6 + usize::from(row.7.is_some()), "{name}: {metrics:?}");
    }
}
