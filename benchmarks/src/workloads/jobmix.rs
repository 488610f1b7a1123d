//! The job mix `serve_mix` submits: an endless, seeded stream of request bodies in four
//! classes, balanced in every block of four so that any prefix holds the classes in equal
//! shares.

use super::{conv, seed_stream};
use analysis::scenario::{
    ConfigSpec, DaemonSpec, ProtocolSpec, ScenarioSpec, StopSpec, TopologySpec, WorkloadSpec,
};

/// What a job asks the daemon to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A full spec body: 3 M steps of the steady-state simulation at n=4095, monitored.
    Sim,
    /// A Theorem-1 spec at n=15: 8 convergence trials on one shard.
    Harness,
    /// The `checker-safety` preset on the sequential engine.
    Check,
    /// An eight-scenario differential fuzz campaign with small per-scenario budgets (the sum
    /// of eight capped costs varies far less from job to job than two large ones).
    Fuzz,
}

pub const CLASSES: [Class; 4] = [Class::Sim, Class::Harness, Class::Check, Class::Fuzz];

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Sim => "sim",
            Class::Harness => "harness",
            Class::Check => "check",
            Class::Fuzz => "fuzz",
        }
    }
}

/// Fuzz jobs draw their campaign from a fixed pool of this many, all known to be clean (the
/// unit tests run every one).  A fuzzer fed fresh seeds for ever will one day find a
/// disagreement between the engines, which is its purpose and not a benchmark failure.
pub const FUZZ_POOL: u64 = 64;

/// The body of the `slot`-th pooled fuzz campaign.  Every campaign knob is spelled out, so
/// the body says all that the job does.
pub fn fuzz_body(slot: u64) -> String {
    format!(
        "{{\"fuzz\": {{\"seed\": {}, \"scenarios\": 8, \"max_configurations\": 600, \
         \"sim_steps\": 300, \"guided\": true, \"shards\": 1, \"threads\": 1}}}}",
        seed_stream(0x66757a7a, slot % FUZZ_POOL)
    )
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    pub class: Class,
    /// The `POST /jobs` body.
    pub body: String,
}

fn sim_spec(seed: u64) -> String {
    ScenarioSpec::builder("benchmark serve sim n=4095")
        .topology(TopologySpec::Binary { n: 4095 })
        .protocol(ProtocolSpec::Ss)
        .config(ConfigSpec::new(3, 5).with_timeout(50))
        .workload(WorkloadSpec::Uniform {
            seed: seed_stream(seed, 1),
            p_request: 0.05,
            max_units: 3,
            max_hold: 20,
        })
        .daemon(DaemonSpec::RandomFair { seed: seed_stream(seed, 2) })
        .stop(StopSpec::Steps { steps: 3_000_000 })
        .properties(&["request-eventually-cs", "at-most-k-in-cs", "l-availability"])
        .spec()
        .to_json()
}

/// The `index`-th job of the stream seeded by `seed`.
pub fn job(seed: u64, index: u64) -> Job {
    // Each block of four is a seeded permutation of the classes (Fisher-Yates).
    let block = index / 4;
    let mut order = CLASSES;
    for i in (1..4usize).rev() {
        let pick = seed_stream(seed_stream(seed, 8), block * 4 + i as u64) % (i as u64 + 1);
        order.swap(i, pick as usize);
    }
    let class = order[(index % 4) as usize];
    let job_seed = seed_stream(seed, 1_000 + index);
    let body = match class {
        Class::Sim => format!("{{\"spec\": {}, \"backend\": \"sim\"}}", sim_spec(job_seed)),
        Class::Harness => format!(
            "{{\"spec\": {}, \"backend\": \"harness\", \"shards\": 1}}",
            conv::spec_json(15, job_seed, 8)
        ),
        Class::Check => {
            "{\"preset\": \"checker-safety\", \"backend\": \"check\", \"threads\": 1}".to_string()
        }
        Class::Fuzz => fuzz_body(job_seed),
    };
    Job { class, body }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(seed: u64, count: u64) -> Vec<Job> {
        (0..count).map(|index| job(seed, index)).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_bodies_in_the_same_order() {
        assert_eq!(mix(1, 320), mix(1, 320));
    }

    #[test]
    fn another_seed_gives_another_mix() {
        let (a, b) = (mix(1, 320), mix(2, 320));
        assert_ne!(a, b);
        let order = |jobs: &[Job]| jobs.iter().map(|j| j.class).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b), "the class order is seeded too");
    }

    #[test]
    fn every_prefix_of_320_is_balanced_four_classes_of_80() {
        let jobs = mix(7, 320);
        for class in CLASSES {
            assert_eq!(jobs.iter().filter(|j| j.class == class).count(), 80);
        }
        for block in jobs.chunks(4) {
            let mut classes: Vec<Class> = block.iter().map(|j| j.class).collect();
            classes.sort();
            assert_eq!(classes, CLASSES);
        }
    }

    #[test]
    fn every_pooled_fuzz_campaign_is_clean() {
        for slot in 0..FUZZ_POOL {
            let job = Job { class: Class::Fuzz, body: fuzz_body(slot) };
            crate::workloads::serve::in_process(&job)
                .unwrap_or_else(|e| panic!("pooled campaign {slot}: {e}"));
        }
        assert_eq!(fuzz_body(3), fuzz_body(3 + FUZZ_POOL));
    }

    #[test]
    fn bodies_are_what_the_daemon_accepts() {
        for j in mix(3, 8) {
            let doc = serde_json::from_str(&j.body).expect("bodies are JSON");
            match j.class {
                Class::Sim | Class::Harness => {
                    let spec = bench::history::render(doc.get("spec").unwrap());
                    ScenarioSpec::from_json(&spec).unwrap().compile().unwrap();
                }
                Class::Check => assert_eq!(doc["preset"], "checker-safety"),
                Class::Fuzz => assert_eq!(doc["fuzz"]["scenarios"], 8u64),
            }
        }
    }
}
