//! The per-layer metrics of the traced run.
//!
//! Each layer is a module of the repository, timed from outside through its public
//! functions.  Where a workload's round is one fused call that cannot be split from outside,
//! its parts are timed standalone on the same network ("probe passes").  The engine,
//! scheduler and build probes run on the simulator workload's own warm network when there is
//! one (so they show the cache-resident and the miss-bound value of the same layer) and on
//! the n=1023 network otherwise; every other probe runs on one fixed instance.

use crate::report::Metric;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::jobmix::{self, Class};
use crate::workloads::sim::{self, SimState};
use crate::workloads::{check, compile_spec, conv, seed_stream, serve, timed, Ctx, Measured};
use analysis::harness::{render_jsonl, trial_seed};
use analysis::scenario::{preset, ScenarioNode, ScenarioSpec, WorkloadSpec};
use analysis::SnapshotMonitor;
use bench::fuzz::{self, FuzzOptions};
use bench::runner::{run_rows, Backend, RunRequest};
use klex_core::{is_legitimate, Message};
use std::hint::black_box;
use std::time::Instant;
use treenet::{
    engine, AppDriver, Channel, EnabledShape, EventScheduler, FaultInjector, FaultPlan,
    InitiatorPolicy, Restartable, SnapshotPlan, SnapshotRunner, StepUndo,
};

/// Median over `repeats` timings of `calls` calls of `body`, in nanoseconds per call.
fn ns_per_call(repeats: usize, calls: u64, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                body();
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

fn parse(spec: &str) -> Result<ScenarioSpec, String> {
    ScenarioSpec::from_json(spec).map_err(|e| e.to_string())
}

/// `analysis.scenario.json` and `analysis.scenario.compile`, over the specs the workloads
/// generate (what a served job pays per request, the compile twice).
fn scenario_layers(seed: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    let texts = [
        sim::spec_json(sim::CACHE_1K.nodes, seed),
        conv::spec_json(conv::NODES, seed, conv::TRIALS),
        check::star7_json(),
        check::ssfig3_json(true),
    ];
    let specs: Vec<ScenarioSpec> = texts.iter().map(|t| parse(t)).collect::<Result<_, _>>()?;
    let per_spec = texts.len() as f64;
    let decode = ns_per_call(5, 200, || {
        for text in &texts {
            black_box(ScenarioSpec::from_json(black_box(text)).is_ok());
        }
    });
    let encode = ns_per_call(5, 200, || {
        for spec in &specs {
            black_box(black_box(spec).to_json());
        }
    });
    // `compile` consumes its spec: clone outside the timed loop.
    let compile_samples: Vec<f64> = (0..5)
        .map(|_| {
            let batch: Vec<ScenarioSpec> = (0..200).flat_map(|_| specs.clone()).collect();
            let count = batch.len() as f64;
            let started = Instant::now();
            for spec in batch {
                black_box(spec.compile().is_ok());
            }
            started.elapsed().as_nanos() as f64 / count
        })
        .collect();
    out.push(Metric::new("json.decode_us", decode / per_spec / 1e3, "us"));
    out.push(Metric::new("json.encode_us", encode / per_spec / 1e3, "us"));
    out.push(Metric::new("compile.compile_us", median(&compile_samples) / 1e3, "us"));
    Ok(())
}

/// `topology.builders`, `treenet.network` (build), `treenet.engine`, `treenet.scheduler`
/// on `state`'s network.
fn engine_layers(state: &mut SimState, tracer: &Tracer, out: &mut Vec<Metric>) {
    let n = state.net.len();
    let steps: u64 = if n > 100_000 { 2_000_000 } else { 8_000_000 };

    let ((), topology_s) = timed(|| {
        black_box(topology::builders::binary(black_box(n)));
    });
    out.push(Metric::new("topology.build_ms", topology_s * 1e3, "ms"));
    let build_s = tracer.durations_s("treenet.network/build_ss").last().copied().unwrap_or(0.0);
    out.push(Metric::new("network.build_ms", build_s * 1e3, "ms"));
    out.push(Metric::new(
        "network.bytes_per_node",
        state.build_rss_mib * (1u64 << 20) as f64 / n as f64,
        "B",
    ));

    let counters = |m: &treenet::Metrics| (m.activations, m.ticks, m.deliveries);
    let before = counters(state.net.metrics());
    let step_ns =
        ns_per_call(3, 1, || engine::run(&mut state.net, &mut state.daemon, steps)) / steps as f64;
    let after = counters(state.net.metrics());
    let activations = (after.0 - before.0) as f64;
    out.push(Metric::new("engine.step_ns", step_ns, "ns"));
    out.push(Metric::new("engine.tick_share", (after.1 - before.1) as f64 / activations, "ratio"));
    out.push(Metric::new(
        "engine.deliveries_per_mstep",
        (after.2 - before.2) as f64 / activations * 1e6,
        "count",
    ));

    let event_steps = steps / 4;
    let step_event_ns = ns_per_call(3, event_steps, || {
        state.net.step_event(&mut state.daemon);
    });
    out.push(Metric::new("engine.step_event_ns", step_event_ns, "ns"));

    let pick_ns = ns_per_call(3, steps / 2, || {
        black_box(state.daemon.next_event(&EnabledShape::new(state.net.enabled_set())));
    });
    out.push(Metric::new("scheduler.pick_ns", pick_ns, "ns"));
}

/// `workloads` (one driver call), `treenet.snapshot` and `treenet.clocks` on a fresh n=1023
/// network: the plain fused loop, then with cuts, then with clocks.
fn instrumentation_layers(seed: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    const WARM: u64 = 8_000_000;
    const STEPS: u64 = 8_000_000;
    let n = sim::CACHE_1K.nodes;
    let uniform = parse(&sim::spec_json(n, seed))?;

    // What a tick of an idle process pays the application: `next_request` through the boxed
    // driver.  (The issue's `1 − Idle step_ns / Uniform step_ns` reads −5 %: under `Uniform`
    // at n=1023 nearly every process is waiting for tokens and never calls its driver, while
    // `Idle` processes call theirs on every tick and leave every token circulating.)
    let mut driver = uniform.workload.driver_factory(0, vec![false; n])(0);
    let mut now = 0;
    let call_ns = ns_per_call(5, 2_000_000, || {
        now += 1;
        black_box(driver.next_request(0, black_box(now)));
    });
    out.push(Metric::new("driver.call_ns", call_ns, "ns"));

    let scenario = uniform.clone().compile().map_err(|e| e.to_string())?;
    let mut net = scenario.build_ss().map_err(|e| e.to_string())?;
    let mut daemon = scenario.make_daemon();
    engine::run(&mut net, &mut daemon, WARM);
    let plain_ns = ns_per_call(3, 1, || engine::run(&mut net, &mut daemon, STEPS)) / STEPS as f64;

    let cfg = uniform.config.to_kl(n);
    let plan = SnapshotPlan { interval: 128 * n as u64, initiator: InitiatorPolicy::Rotate };
    let mut runner = SnapshotRunner::new(plan);
    let mut monitor = SnapshotMonitor::new(&cfg);
    let cut_ns = ns_per_call(1, 1, || {
        treenet::run_with_snapshots(&mut net, &mut daemon, STEPS, &mut runner, &mut monitor)
    }) / STEPS as f64;
    out.push(Metric::new("snapshot.overhead_pct", (cut_ns / plain_ns - 1.0) * 100.0, "%"));
    let clean = monitor.verdicts().iter().filter(|v| v.clean()).count();
    out.push(Metric::new("snapshot.cuts_clean", clean as f64, "count"));

    net.enable_clocks();
    let clock_ns = ns_per_call(3, 1, || engine::run(&mut net, &mut daemon, STEPS)) / STEPS as f64;
    out.push(Metric::new("clocks.overhead_pct", (clock_ns / plain_ns - 1.0) * 100.0, "%"));
    Ok(())
}

/// The layers the convergence trials lean on, at their size (n=31): reset, undo/redo,
/// channels, fault injection, the legitimacy predicate, delivery-dominated stepping, and the
/// harness itself.
fn trial_layers(seed: u64, tracer: &mut Tracer, out: &mut Vec<Metric>) -> Result<(), String> {
    let scenario = compile_spec(&conv::spec_json(conv::NODES, seed, conv::TRIALS))?;
    let spec = scenario.spec().clone();
    let cfg = spec.config.to_kl(conv::NODES);
    let mut net = scenario.build_ss().map_err(|e| e.to_string())?;
    let mut daemon = scenario.make_daemon();

    let leaves: Vec<bool> = (0..net.len()).map(|v| net.topology().is_leaf(v)).collect();
    let reset_ns = ns_per_call(5, 2_000, || {
        let mut drivers = spec.workload.driver_factory(0, leaves.clone());
        net.reset_trial(|v, node| {
            node.restart();
            node.set_driver(drivers(v));
        });
    });
    out.push(Metric::new("network.reset_us", reset_ns / 1e3, "us"));

    // Stabilise, then time the predicate where it runs longest: on a legitimate network it
    // cannot exit early.
    let stabilised =
        engine::run_until(&mut net, &mut daemon, 4_000_000, |net| is_legitimate(net, &cfg));
    if !stabilised.is_satisfied() {
        return Err("probe network (n=31) did not stabilise in 4000000 steps".to_string());
    }
    let legit_ns = ns_per_call(5, 200_000, || {
        black_box(is_legitimate(black_box(&net), &cfg));
    });
    out.push(Metric::new("legitimacy.eval_ns", legit_ns, "ns"));

    let mut undo = StepUndo::new();
    let undo_ns = ns_per_call(5, 1_000_000, || {
        let activation = daemon.next_event(&EnabledShape::new(net.enabled_set()));
        net.execute_undoable(activation, &mut undo);
        net.revert(&mut undo);
    });
    out.push(Metric::new("network.undo_pair_ns", undo_ns, "ns"));

    let mut channel = Channel::new();
    let channel_ns = ns_per_call(5, 2_000_000, || {
        channel.push(black_box(Message::ResT));
        black_box(channel.pop());
    });
    out.push(Metric::new("channel.push_pop_ns", channel_ns, "ns"));

    let mut injector = FaultInjector::new(seed_stream(seed, 40));
    let plan = FaultPlan::catastrophic(cfg.cmax);
    let inject_ns = ns_per_call(5, 500, || {
        black_box(injector.inject(&mut net, &plan));
    });
    out.push(Metric::new("fault.inject_us", inject_ns / 1e3, "us"));

    // Every process always requesting and ℓ = 24 tokens on 31 nodes: most steps deliver.
    let mut dense = spec.clone();
    dense.config.l = 24;
    dense.workload = WorkloadSpec::Saturated { units: 3, hold: 1 };
    (dense.warmup, dense.fault) = (None, None);
    let dense = dense.compile().map_err(|e| e.to_string())?;
    let mut dense_net = dense.build_ss().map_err(|e| e.to_string())?;
    let mut dense_daemon = dense.make_daemon();
    engine::run(&mut dense_net, &mut dense_daemon, 400_000);
    let dense_ns = ns_per_call(5, 1, || engine::run(&mut dense_net, &mut dense_daemon, 2_000_000))
        / 2_000_000.0;
    out.push(Metric::new("engine.dense_step_ns", dense_ns, "ns"));

    // The harness, cut at its next public boundary: one span per `run_trial`.
    let mut activations = 0;
    for index in 0..conv::TRIALS {
        let stream = trial_seed(spec.base_seed, index);
        let outcome =
            tracer.span("analysis.harness/run_trial", index, |_| scenario.run_trial(index, stream));
        activations += conv::trial_activations(&outcome.metrics);
    }
    let trial_s = tracer.durations_s("analysis.harness/run_trial");
    let trial_ms: Vec<f64> = trial_s.iter().map(|s| s * 1e3).collect();
    out.push(Metric::new("harness.trial_p50_ms", median(&trial_ms), "ms"));
    out.push(Metric::new("harness.trial_p95_ms", percentile(&trial_ms, 0.95), "ms"));
    let activation_ns = trial_s.iter().sum::<f64>() * 1e9 / activations as f64;
    out.push(Metric::new("legitimacy.share_pct", legit_ns / activation_ns * 100.0, "%"));
    // One shard runs the trials one after another, which is what the spans above timed.
    let one: f64 = trial_s.iter().sum();
    let ((), two) = timed(|| {
        black_box(scenario.run_harness(2));
    });
    out.push(Metric::new("harness.shard2_speedup", one / two, "ratio"));
    Ok(())
}

/// `checker.snapshot` (the packed codec), `checker.explore` and `checker.liveness`.
fn checker_layers(tracer: &mut Tracer, out: &mut Vec<Metric>) -> Result<(), String> {
    // The codec on instance A's network, a few activations into its run.
    let mut net = klex_core::pusher::network(
        topology::builders::star(7),
        klex_core::KlConfig::new(2, 3, 7),
        checker::drivers::from_needs_holding(&[0, 2, 1, 2, 1, 1, 1]),
    );
    treenet::run_for(&mut net, &mut treenet::RoundRobin::new(), 40);
    let mut packed = Vec::new();
    let capture_ns = ns_per_call(5, 200_000, || {
        checker::snapshot::capture_packed(black_box(&net), &mut packed);
    });
    let restore_ns = ns_per_call(5, 200_000, || {
        checker::snapshot::restore_packed(&mut net, black_box(&packed));
    });
    out.push(Metric::new("codec.capture_ns", capture_ns, "ns"));
    out.push(Metric::new("codec.restore_ns", restore_ns, "ns"));

    let star7 = compile_spec(&check::star7_json())?;
    let ssfig3 = compile_spec(&check::ssfig3_json(true))?;
    let ssfig3_safety_only = compile_spec(&check::ssfig3_json(false))?;
    let timed = |tracer: &mut Tracer, name: &str, scenario| {
        let started = Instant::now();
        let report = tracer.span(name, 0, |_| check::explore(scenario))?;
        Ok::<_, String>((report, started.elapsed().as_secs_f64()))
    };
    let (a, a_s) = timed(tracer, "checker.explore/check(star7)", &star7)?;
    let (b, b_s) = timed(tracer, "checker.explore/check(ssfig3)", &ssfig3)?;
    let (plain, plain_s) =
        timed(tracer, "checker.explore/check(ssfig3, safety only)", &ssfig3_safety_only)?;
    if !(check::certified(&check::STAR7, &a) && check::certified(&check::SSFIG3, &b))
        || plain.configurations != b.configurations
    {
        return Err("probe explorations did not certify their instances".to_string());
    }
    let (configurations, transitions) =
        (a.configurations + b.configurations, a.transitions + b.transitions);
    out.push(Metric::new("explore.star7_states_per_s", a.configurations as f64 / a_s, "1/s"));
    out.push(Metric::new("explore.ssfig3_states_per_s", b.configurations as f64 / b_s, "1/s"));
    out.push(Metric::new("explore.transitions_per_s", transitions as f64 / (a_s + b_s), "1/s"));
    out.push(Metric::new(
        "explore.dedup_ratio",
        configurations as f64 / transitions as f64,
        "ratio",
    ));
    out.push(Metric::new("explore.arena_bytes", (a.arena_bytes + b.arena_bytes) as f64, "B"));
    out.push(Metric::new(
        "codec.bytes_per_state",
        (a.arena_bytes + b.arena_bytes) as f64 / configurations as f64,
        "B",
    ));
    out.push(Metric::new("liveness.pass_ms", (b_s - plain_s) * 1e3, "ms"));
    Ok(())
}

/// `bench.runner`, `analysis.monitor` and `bench.fuzz`: what each class of served job costs
/// in process, with no daemon in the way.
fn runner_layers(seed: u64, tracer: &mut Tracer, out: &mut Vec<Metric>) -> Result<(), String> {
    for class in [Class::Sim, Class::Harness, Class::Check] {
        let index = (0..)
            .find(|&i| jobmix::job(seed, i).class == class)
            .expect("every block has every class");
        let job = jobmix::job(seed, index);
        let name = format!("bench.runner/run_rows({})", class.label());
        let samples: Vec<f64> = (0..3)
            .map(|_| tracer.span(&name, index, |_| serve::in_process(&job)).map(|(_, ms)| ms))
            .collect::<Result<_, _>>()?;
        out.push(Metric {
            name: format!("runner.{}_ms", class.label()),
            value: median(&samples),
            unit: "ms",
        });
    }

    let checker_safety = preset("checker-safety").ok_or("no checker-safety preset")?;
    let scenario = checker_safety.clone().compile().map_err(|e| e.to_string())?;
    let request = RunRequest { backend: Backend::All, shards: 1, threads: Some(1), bench: false };
    let rows = run_rows(&scenario, &request, None)?.rows;
    let render_ns = ns_per_call(5, 2_000, || {
        black_box(render_jsonl(black_box(&rows)));
    });
    out.push(Metric::new("runner.render_us", render_ns / 1e3, "us"));

    // The served sim spec declares three monitors; `run` is the same execution without them.
    let sim_index = (0..).find(|&i| jobmix::job(seed, i).class == Class::Sim).expect("a sim job");
    let body =
        serde_json::from_str(&jobmix::job(seed, sim_index).body).map_err(|e| e.to_string())?;
    let sim_spec = parse(&bench::history::render(&body["spec"]))?;
    let sim_scenario = sim_spec.compile().map_err(|e| e.to_string())?;
    let plain_ns = ns_per_call(3, 1, || {
        black_box(sim_scenario.run());
    });
    let monitored_ns = ns_per_call(3, 1, || {
        black_box(sim_scenario.run_monitored());
    });
    out.push(Metric::new("monitor.overhead_pct", (monitored_ns / plain_ns - 1.0) * 100.0, "%"));

    let evaluate_ns = ns_per_call(3, 1, || {
        black_box(fuzz::evaluate(&checker_safety, 1).is_ok());
    });
    out.push(Metric::new("fuzz.evaluate_ms", evaluate_ns / 1e6, "ms"));
    let mut options = FuzzOptions::new(seed_stream(seed, 41));
    (options.scenarios, options.max_configurations, options.sim_steps) = (16, 6_000, 1_500);
    (options.shards, options.threads, options.guided) = (1, 1, true);
    options.out_dir = std::env::temp_dir();
    let ((), campaign_s) = timed(|| {
        let summary = tracer.span("bench.fuzz/run_campaign", 0, |_| {
            fuzz::run_campaign_with(&options, &mut fuzz::Corpus::in_memory())
        });
        black_box(summary);
    });
    out.push(Metric::new("fuzz.scenarios_per_s", options.scenarios as f64 / campaign_s, "1/s"));
    Ok(())
}

/// Runs every layer's probes and appends their metrics to `measured.layers`.
pub fn run_all(ctx: &mut Ctx, measured: &mut Measured) -> Result<(), String> {
    let seed = ctx.seed;
    let mut out = Vec::new();
    scenario_layers(seed, &mut out)?;
    let mut state = match measured.warm_net.take() {
        Some(state) => state,
        None => sim::setup(&sim::CACHE_1K, &sim::spec_json(sim::CACHE_1K.nodes, seed), ctx)?,
    };
    engine_layers(&mut state, ctx.tracer, &mut out);
    drop(state);
    instrumentation_layers(seed, &mut out)?;
    trial_layers(seed, ctx.tracer, &mut out)?;
    checker_layers(ctx.tracer, &mut out)?;
    runner_layers(seed, ctx.tracer, &mut out)?;
    out.extend(match measured.serve_layers.take() {
        Some(layers) => layers,
        None => serve::probe(seed, ctx.tracer)?,
    });
    measured.layers.extend(out);
    Ok(())
}
