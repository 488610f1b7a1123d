//! The exact `klex run <preset> --backend sim` and `--backend harness` rows of every bundled
//! preset, and the `sim` row of one preset per stop rule with a snapshot cut every 16
//! activations.
//!
//! A simulation is a pure function of its spec, so every metric below is a function of the
//! preset alone.  A change that moves one — a stop rule's boundary (every rule is the one
//! streak loop, `treenet::run_sustained`), a daemon, the quiet-tick shortcut, the live token
//! census, a snapshot runner — fails here by preset and metric.  The snapshot rows cover
//! `figure2` (quiescence), `figure2-pusher` (CS entries), `figure2-ss` (a predicate that
//! must hold once) and `theorem1` (a sustained predicate).  Release builds skip the
//! quiet-tick handlers that debug builds run and check, so this test also runs in CI's
//! release differential step.

use analysis::scenario::{preset, InitiatorSpec, SnapshotSpec, PRESET_NAMES};
use bench::runner::{run_rows, Backend, RunRequest};

/// One preset's row: every metric, in the row's (alphabetical) order.
type Pin = (&'static str, &'static [(&'static str, f64)]);

const SIM: [Pin; 18] = [
    (
        "figure2",
        &[
            ("blocked_requesters", 4.0),
            ("cs_entries", 0.0),
            ("in_flight", 0.0),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("satisfied", 1.0),
            ("steps", 63.0),
        ],
    ),
    (
        "figure2-pusher",
        &[
            ("cs_entries", 20.0),
            ("messages_sent", 140.0),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("satisfied", 1.0),
            ("steps", 404.0),
        ],
    ),
    (
        "figure2-ss",
        &[
            ("converged", 1.0),
            ("cs_entries", 6.0),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("satisfied", 1.0),
            ("steps", 5261.0),
        ],
    ),
    (
        "figure3-pusher",
        &[
            ("cs_entries", 6199.0),
            ("jain_index", 0.8709008643760431),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("mon:request-eventually-cs", 0.0),
            ("satisfied", 1.0),
            ("steps", 60000.0),
        ],
    ),
    (
        "figure3-nonstab",
        &[
            ("cs_entries", 5486.0),
            ("jain_index", 0.867229013301171),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("mon:request-eventually-cs", 0.0),
            ("satisfied", 1.0),
            ("steps", 60000.0),
        ],
    ),
    (
        "figure3-ss",
        &[
            ("cs_entries", 4952.0),
            ("jain_index", 0.8512449050732415),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("mon:request-eventually-cs", 0.0),
            ("satisfied", 1.0),
            ("steps", 60000.0),
        ],
    ),
    (
        "quickstart",
        &[
            ("cs_entries", 7042.0),
            ("jain_index", 0.7595132744989302),
            ("messages_sent", 44650.0),
            ("satisfied", 1.0),
            ("steps", 200000.0),
            ("waiting_max", 25.0),
            ("waiting_mean", 6.46388967870344),
        ],
    ),
    (
        "theorem1",
        &[("converged", 1.0), ("convergence_activations", 6927.0), ("warmup_activations", 6296.0)],
    ),
    (
        "theorem2",
        &[
            ("cs_entries", 5050.0),
            ("satisfied", 1.0),
            ("waiting_max", 23.0),
            ("waiting_mean", 6.034318587581829),
        ],
    ),
    (
        "timeout",
        &[
            ("cs_entries", 2200.0),
            ("messages_sent", 8754.0),
            ("satisfied", 1.0),
            ("steps", 40000.0),
        ],
    ),
    ("unbounded", &[("converged", 1.0), ("convergence_activations", 1742.0)]),
    ("ring", &[("converged", 1.0), ("cs_entries", 0.0), ("satisfied", 1.0), ("steps", 5436.0)]),
    (
        "churn-campaign",
        &[
            ("cs_entries", 1482.0),
            ("epoch0_convergence", 1373.0),
            ("epoch1_convergence", 0.0),
            ("epoch2_convergence", 8076.0),
            ("epoch3_convergence", 0.0),
            ("epoch_convergence_max", 8076.0),
            ("epoch_convergence_mean", 2362.25),
            ("epochs_converged", 4.0),
            ("epochs_total", 4.0),
            ("satisfied", 1.0),
        ],
    ),
    (
        "fault-gauntlet",
        &[
            ("cs_entries", 1469.0),
            ("epoch0_convergence", 3148.0),
            ("epoch1_convergence", 0.0),
            ("epoch2_convergence", 2890.0),
            ("epoch_convergence_max", 3148.0),
            ("epoch_convergence_mean", 2012.6666666666667),
            ("epochs_converged", 3.0),
            ("epochs_total", 3.0),
        ],
    ),
    (
        "checker-safety",
        &[
            ("cs_entries", 1150.0),
            ("messages_sent", 2542.0),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("mon:request-eventually-cs", 0.0),
            ("satisfied", 1.0),
            ("steps", 5000.0),
        ],
    ),
    (
        "checker-liveness",
        &[
            ("cs_entries", 2291.0),
            ("messages_sent", 6667.0),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("mon:request-eventually-cs", 0.0),
            ("satisfied", 1.0),
            ("steps", 10000.0),
        ],
    ),
    (
        "checker-liveness-nonstab",
        &[
            ("cs_entries", 1944.0),
            ("messages_sent", 6668.0),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("mon:request-eventually-cs", 0.0),
            ("satisfied", 1.0),
            ("steps", 10000.0),
        ],
    ),
    (
        "checker-churn",
        &[
            ("cs_entries", 1346.0),
            ("epoch0_convergence", 1201.0),
            ("epoch1_convergence", 1657.0),
            ("epoch2_convergence", 1652.0),
            ("epoch_convergence_max", 1657.0),
            ("epoch_convergence_mean", 1503.3333333333333),
            ("epochs_converged", 3.0),
            ("epochs_total", 3.0),
            ("messages_sent", 3748.0),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("satisfied", 1.0),
            ("steps", 5000.0),
        ],
    ),
];

const HARNESS: [Pin; 18] = [
    (
        "figure2",
        &[
            ("blocked_requesters_max", 4.0),
            ("blocked_requesters_mean", 4.0),
            ("blocked_requesters_p95", 4.0),
            ("cs_entries_max", 0.0),
            ("cs_entries_mean", 0.0),
            ("cs_entries_p95", 0.0),
            ("in_flight_max", 0.0),
            ("in_flight_mean", 0.0),
            ("in_flight_p95", 0.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 63.0),
            ("steps_mean", 63.0),
            ("steps_p95", 63.0),
        ],
    ),
    (
        "figure2-pusher",
        &[
            ("cs_entries_max", 20.0),
            ("cs_entries_mean", 20.0),
            ("cs_entries_p95", 20.0),
            ("messages_sent_max", 140.0),
            ("messages_sent_mean", 140.0),
            ("messages_sent_p95", 140.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 404.0),
            ("steps_mean", 404.0),
            ("steps_p95", 404.0),
        ],
    ),
    (
        "figure2-ss",
        &[
            ("converged_max", 1.0),
            ("converged_mean", 1.0),
            ("converged_p95", 1.0),
            ("cs_entries_max", 6.0),
            ("cs_entries_mean", 6.0),
            ("cs_entries_p95", 6.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 5261.0),
            ("steps_mean", 5261.0),
            ("steps_p95", 5261.0),
        ],
    ),
    (
        "figure3-pusher",
        &[
            ("cs_entries_max", 6224.0),
            ("cs_entries_mean", 6187.75),
            ("cs_entries_p95", 6224.0),
            ("jain_index_max", 0.8739629119438911),
            ("jain_index_mean", 0.8721452908345271),
            ("jain_index_p95", 0.8739629119438911),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 60000.0),
            ("steps_mean", 60000.0),
            ("steps_p95", 60000.0),
        ],
    ),
    (
        "figure3-nonstab",
        &[
            ("cs_entries_max", 5493.0),
            ("cs_entries_mean", 5483.75),
            ("cs_entries_p95", 5493.0),
            ("jain_index_max", 0.8661346605412419),
            ("jain_index_mean", 0.8652557172906814),
            ("jain_index_p95", 0.8661346605412419),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 60000.0),
            ("steps_mean", 60000.0),
            ("steps_p95", 60000.0),
        ],
    ),
    (
        "figure3-ss",
        &[
            ("cs_entries_max", 5018.0),
            ("cs_entries_mean", 4973.0),
            ("cs_entries_p95", 5018.0),
            ("jain_index_max", 0.8502630412565416),
            ("jain_index_mean", 0.8494546302503954),
            ("jain_index_p95", 0.8502630412565416),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 60000.0),
            ("steps_mean", 60000.0),
            ("steps_p95", 60000.0),
        ],
    ),
    (
        "quickstart",
        &[
            ("cs_entries_max", 6963.0),
            ("cs_entries_mean", 6963.0),
            ("cs_entries_p95", 6963.0),
            ("jain_index_max", 0.7574817213988341),
            ("jain_index_mean", 0.7574817213988341),
            ("jain_index_p95", 0.7574817213988341),
            ("messages_sent_max", 44318.0),
            ("messages_sent_mean", 44318.0),
            ("messages_sent_p95", 44318.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 200000.0),
            ("steps_mean", 200000.0),
            ("steps_p95", 200000.0),
            ("waiting_max_max", 24.0),
            ("waiting_max_mean", 24.0),
            ("waiting_max_p95", 24.0),
            ("waiting_mean_max", 6.459237958303379),
            ("waiting_mean_mean", 6.459237958303379),
            ("waiting_mean_p95", 6.459237958303379),
        ],
    ),
    (
        "theorem1",
        &[
            ("converged_max", 1.0),
            ("converged_mean", 1.0),
            ("converged_p95", 1.0),
            ("convergence_activations_max", 4711.0),
            ("convergence_activations_mean", 3385.2),
            ("convergence_activations_p95", 4711.0),
            ("warmup_activations_max", 6618.0),
            ("warmup_activations_mean", 6420.4),
            ("warmup_activations_p95", 6618.0),
        ],
    ),
    (
        "theorem2",
        &[
            ("cs_entries_max", 5046.0),
            ("cs_entries_mean", 5044.333333333333),
            ("cs_entries_p95", 5046.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("waiting_max_max", 25.0),
            ("waiting_max_mean", 22.666666666666668),
            ("waiting_max_p95", 25.0),
            ("waiting_mean_max", 6.032949583167924),
            ("waiting_mean_mean", 6.029119492240029),
            ("waiting_mean_p95", 6.032949583167924),
        ],
    ),
    (
        "timeout",
        &[
            ("cs_entries_max", 2172.0),
            ("cs_entries_mean", 2172.0),
            ("cs_entries_p95", 2172.0),
            ("messages_sent_max", 8734.0),
            ("messages_sent_mean", 8734.0),
            ("messages_sent_p95", 8734.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 40000.0),
            ("steps_mean", 40000.0),
            ("steps_p95", 40000.0),
        ],
    ),
    (
        "unbounded",
        &[
            ("converged_max", 1.0),
            ("converged_mean", 1.0),
            ("converged_p95", 1.0),
            ("convergence_activations_max", 4171.0),
            ("convergence_activations_mean", 2223.0),
            ("convergence_activations_p95", 4171.0),
        ],
    ),
    (
        "ring",
        &[
            ("converged_max", 1.0),
            ("converged_mean", 1.0),
            ("converged_p95", 1.0),
            ("cs_entries_max", 0.0),
            ("cs_entries_mean", 0.0),
            ("cs_entries_p95", 0.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 5756.0),
            ("steps_mean", 5756.0),
            ("steps_p95", 5756.0),
        ],
    ),
    (
        "churn-campaign",
        &[
            ("cs_entries_max", 1427.0),
            ("cs_entries_mean", 1411.3333333333333),
            ("cs_entries_p95", 1427.0),
            ("epoch0_convergence_max", 7077.0),
            ("epoch0_convergence_mean", 5199.0),
            ("epoch0_convergence_p95", 7077.0),
            ("epoch1_convergence_max", 0.0),
            ("epoch1_convergence_mean", 0.0),
            ("epoch1_convergence_p95", 0.0),
            ("epoch2_convergence_max", 8145.0),
            ("epoch2_convergence_mean", 5005.666666666667),
            ("epoch2_convergence_p95", 8145.0),
            ("epoch3_convergence_max", 406.0),
            ("epoch3_convergence_mean", 233.33333333333334),
            ("epoch3_convergence_p95", 406.0),
            ("epoch_convergence_max_max", 8145.0),
            ("epoch_convergence_max_mean", 7323.333333333333),
            ("epoch_convergence_max_p95", 8145.0),
            ("epoch_convergence_mean_max", 3288.75),
            ("epoch_convergence_mean_mean", 2609.5),
            ("epoch_convergence_mean_p95", 3288.75),
            ("epochs_converged_max", 4.0),
            ("epochs_converged_mean", 4.0),
            ("epochs_converged_p95", 4.0),
            ("epochs_total_max", 4.0),
            ("epochs_total_mean", 4.0),
            ("epochs_total_p95", 4.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
        ],
    ),
    (
        "fault-gauntlet",
        &[
            ("cs_entries_max", 1512.0),
            ("cs_entries_mean", 1386.0),
            ("cs_entries_p95", 1512.0),
            ("epoch0_convergence_max", 4545.0),
            ("epoch0_convergence_mean", 3445.3333333333335),
            ("epoch0_convergence_p95", 4545.0),
            ("epoch1_convergence_max", 8250.0),
            ("epoch1_convergence_mean", 2750.0),
            ("epoch1_convergence_p95", 8250.0),
            ("epoch2_convergence_max", 5807.0),
            ("epoch2_convergence_mean", 3376.6666666666665),
            ("epoch2_convergence_p95", 5807.0),
            ("epoch_convergence_max_max", 8250.0),
            ("epoch_convergence_max_mean", 5217.333333333333),
            ("epoch_convergence_max_p95", 8250.0),
            ("epoch_convergence_mean_max", 5065.0),
            ("epoch_convergence_mean_mean", 3190.6666666666665),
            ("epoch_convergence_mean_p95", 5065.0),
            ("epochs_converged_max", 3.0),
            ("epochs_converged_mean", 3.0),
            ("epochs_converged_p95", 3.0),
            ("epochs_total_max", 3.0),
            ("epochs_total_mean", 3.0),
            ("epochs_total_p95", 3.0),
        ],
    ),
    (
        "checker-safety",
        &[
            ("cs_entries_max", 1150.0),
            ("cs_entries_mean", 1150.0),
            ("cs_entries_p95", 1150.0),
            ("messages_sent_max", 2542.0),
            ("messages_sent_mean", 2542.0),
            ("messages_sent_p95", 2542.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 5000.0),
            ("steps_mean", 5000.0),
            ("steps_p95", 5000.0),
        ],
    ),
    (
        "checker-liveness",
        &[
            ("cs_entries_max", 2291.0),
            ("cs_entries_mean", 2291.0),
            ("cs_entries_p95", 2291.0),
            ("messages_sent_max", 6667.0),
            ("messages_sent_mean", 6667.0),
            ("messages_sent_p95", 6667.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 10000.0),
            ("steps_mean", 10000.0),
            ("steps_p95", 10000.0),
        ],
    ),
    (
        "checker-liveness-nonstab",
        &[
            ("cs_entries_max", 1944.0),
            ("cs_entries_mean", 1944.0),
            ("cs_entries_p95", 1944.0),
            ("messages_sent_max", 6668.0),
            ("messages_sent_mean", 6668.0),
            ("messages_sent_p95", 6668.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 10000.0),
            ("steps_mean", 10000.0),
            ("steps_p95", 10000.0),
        ],
    ),
    (
        "checker-churn",
        &[
            ("cs_entries_max", 1345.0),
            ("cs_entries_mean", 1345.0),
            ("cs_entries_p95", 1345.0),
            ("epoch0_convergence_max", 1201.0),
            ("epoch0_convergence_mean", 1201.0),
            ("epoch0_convergence_p95", 1201.0),
            ("epoch1_convergence_max", 0.0),
            ("epoch1_convergence_mean", 0.0),
            ("epoch1_convergence_p95", 0.0),
            ("epoch2_convergence_max", 1681.0),
            ("epoch2_convergence_mean", 1681.0),
            ("epoch2_convergence_p95", 1681.0),
            ("epoch_convergence_max_max", 1681.0),
            ("epoch_convergence_max_mean", 1681.0),
            ("epoch_convergence_max_p95", 1681.0),
            ("epoch_convergence_mean_max", 960.6666666666666),
            ("epoch_convergence_mean_mean", 960.6666666666666),
            ("epoch_convergence_mean_p95", 960.6666666666666),
            ("epochs_converged_max", 3.0),
            ("epochs_converged_mean", 3.0),
            ("epochs_converged_p95", 3.0),
            ("epochs_total_max", 3.0),
            ("epochs_total_mean", 3.0),
            ("epochs_total_p95", 3.0),
            ("messages_sent_max", 3747.0),
            ("messages_sent_mean", 3747.0),
            ("messages_sent_p95", 3747.0),
            ("satisfied_max", 1.0),
            ("satisfied_mean", 1.0),
            ("satisfied_p95", 1.0),
            ("steps_max", 5000.0),
            ("steps_mean", 5000.0),
            ("steps_p95", 5000.0),
        ],
    ),
];

const SIM_SNAPSHOT_16: [Pin; 4] = [
    (
        "figure2",
        &[
            ("blocked_requesters", 4.0),
            ("cs_entries", 0.0),
            ("in_flight", 2.0),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("satisfied", 0.0),
            ("snapshots_clean", 0.0),
            ("snapshots_taken", 2083.0),
            ("steps", 100000.0),
        ],
    ),
    (
        "figure2-pusher",
        &[
            ("cs_entries", 20.0),
            ("messages_sent", 254.0),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("satisfied", 1.0),
            ("snapshots_clean", 0.0),
            ("snapshots_taken", 6.0),
            ("steps", 612.0),
        ],
    ),
    (
        "figure2-ss",
        &[
            ("converged", 1.0),
            ("cs_entries", 6.0),
            ("mon:at-most-k-in-cs", 1.0),
            ("mon:l-availability", 1.0),
            ("satisfied", 1.0),
            ("snapshots_clean", 0.0),
            ("snapshots_taken", 160.0),
            ("steps", 7837.0),
        ],
    ),
    (
        "theorem1",
        &[
            ("converged", 1.0),
            ("convergence_activations", 7733.0),
            ("snapshots_clean", 10.0),
            ("snapshots_taken", 33.0),
            ("warmup_activations", 6296.0),
        ],
    ),
];

/// The metrics of `name`'s one `backend` row, with snapshots every `interval` activations
/// when one is given.
fn row(name: &str, backend: Backend, interval: Option<u64>) -> Vec<(String, f64)> {
    let mut spec = preset(name).expect("bundled preset");
    spec.snapshots =
        interval.map(|interval| SnapshotSpec { interval, initiator: InitiatorSpec::Root });
    let scenario = spec.compile().expect("valid preset");
    let request = RunRequest { backend, shards: 1, threads: None, bench: false };
    let product = run_rows(&scenario, &request, None).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(product.rows.len(), 1, "{name}");
    product.rows[0].metrics.iter().map(|(key, value)| (key.clone(), *value)).collect()
}

fn assert_pinned(pins: &[Pin], backend: Backend, interval: Option<u64>) {
    for (name, metrics) in pins {
        let expected: Vec<(String, f64)> =
            metrics.iter().map(|(key, value)| (key.to_string(), *value)).collect();
        assert_eq!(row(name, backend, interval), expected, "{name}");
    }
}

#[test]
fn every_preset_sim_row_is_pinned() {
    assert_eq!(SIM.map(|pin| pin.0), PRESET_NAMES);
    assert_pinned(&SIM, Backend::Sim, None);
}

#[test]
fn every_preset_harness_row_is_pinned() {
    assert_eq!(HARNESS.map(|pin| pin.0), PRESET_NAMES);
    assert_pinned(&HARNESS, Backend::Harness, None);
}

#[test]
fn every_stop_rule_with_snapshots_every_16_activations_is_pinned() {
    assert_pinned(&SIM_SNAPSHOT_16, Backend::Sim, Some(16));
}
