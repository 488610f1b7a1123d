//! `klex` — the scenario CLI: run any declarative scenario (a JSON [`ScenarioSpec`] file or
//! a named preset) through any backend, and render the result as markdown, JSON lines or
//! CSV.
//!
//! ```text
//! klex list                               # named presets and experiments
//! klex run figure2                        # preset through the simulator
//! klex run figure2 --backend all          # simulator + sharded harness + checker
//! klex run spec.json --format jsonl       # JSON spec file, machine-readable output
//! klex show figure2                       # print a preset's JSON (a template for specs)
//! klex experiment e5                      # a full experiment table (KLEX_SCALE=quick|full)
//! klex serve --addr 127.0.0.1:7199        # resident scenario-as-a-service daemon
//! klex submit figure2 --backend check     # enqueue a job on a running daemon
//! klex watch 1                            # follow a job's JSONL progress stream
//! ```
//!
//! Backends (`--backend`, default `sim`):
//!
//! * `sim` — one simulated execution (trial 0: the spec's seeds verbatim);
//! * `harness` — the spec's trial plan, sharded across cores (`--shards N` to override);
//! * `check` — bounded-exhaustive exploration of the spec's instance;
//! * `all` — all three, one rendered row each.
//!
//! `run` and serve-daemon jobs share one row-building path ([`bench::runner`]), so a job's
//! JSONL result is byte-identical to `klex run <spec> --format jsonl` of the same spec.

use analysis::harness::{render_csv, render_jsonl, render_markdown_table};
use analysis::scenario::{
    preset, CompiledScenario, FaultScheduleSpec, InitiatorSpec, ScenarioSpec, SnapshotSpec,
    PRESET_NAMES,
};
use bench::runner::{run_rows, Backend, RunRequest};
use bench::serve::{self, ServeOptions};
use bench::{experiments, history, ExperimentReport, Scale};
use std::process::ExitCode;

const EXPERIMENTS: [&str; 15] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
];

fn usage() -> &'static str {
    "klex — one declarative scenario spec, three backends\n\
     \n\
     USAGE:\n\
       klex list                                     list presets and experiments\n\
       klex show <preset>                            print a preset's JSON spec\n\
       klex run <spec.json | preset> [options]       run a scenario\n\
       klex experiment <e1..e15 | all> [--json]      run a full experiment table\n\
       klex fuzz [options]                           cross-engine differential campaign\n\
       klex serve [options]                          scenario-as-a-service daemon\n\
       klex submit <spec.json | preset> [options]    enqueue a run job on a daemon\n\
       klex submit --fuzz [options]                  enqueue a fuzz campaign on a daemon\n\
       klex status [<id>]                            one job (or all jobs) on a daemon\n\
       klex watch <id>                               follow a job's JSONL progress stream\n\
       klex cancel <id>                              cancel a queued or running job\n\
     \n\
     OPTIONS (run):\n\
       --backend sim|harness|check|all               backend selection (default: sim)\n\
       --format markdown|jsonl|csv                   output rendering (default: markdown)\n\
       --shards N                                    harness worker threads (default: cores)\n\
       --bench                                       add checker throughput columns\n\
                                                     (states_per_sec, arena_bytes)\n\
       --fault-schedule FILE.json                    override the spec's fault campaign\n\
                                                     ({seed, epochs, max_steps[, window]})\n\
       --snapshots                                   periodic consistent snapshots with\n\
                                                     cut-level safety verdicts (default\n\
                                                     interval: 128n activations, min 1024)\n\
       --snapshot-interval N                         like --snapshots with an explicit\n\
                                                     interval of N activations\n\
     \n\
     OPTIONS (experiment):\n\
       --json                                        also print each table as JSON lines\n\
     \n\
     OPTIONS (fuzz):\n\
       --smoke                                       the fixed-seed CI campaign\n\
                                                     (200 scenarios, tight budgets)\n\
       --seed N                                      campaign seed (default: 1)\n\
       --scenarios N                                 scenarios to generate (default: 200)\n\
       --max-configs N                               checker states per scenario\n\
       --steps N                                     simulator activations per scenario\n\
       --out DIR                                     where shrunk failure specs are written\n\
       --corpus DIR                                  persistent coverage corpus\n\
                                                     (MANIFEST.json + sig-*.json specs)\n\
       --campaign                                    coverage-guided mode: mutate corpus\n\
                                                     entries instead of drawing blind\n\
       --shards N                                    concurrently evaluated scenarios\n\
                                                     (default: cores; results identical)\n\
       --verbose                                     one line per scenario\n\
     \n\
     OPTIONS (serve):\n\
       --addr HOST:PORT                              bind address (default: 127.0.0.1:7199;\n\
                                                     port 0 picks an ephemeral port)\n\
       --workers N                                   job workers (default: one per core)\n\
       --queue N                                     queued-job capacity (default: 64)\n\
       --seed N                                      per-job seed stream (default: 0)\n\
     \n\
     OPTIONS (submit/status/watch/cancel):\n\
       --addr HOST:PORT                              daemon address (default: 127.0.0.1:7199)\n\
       submit also accepts the run options above, or --fuzz with --seed/--scenarios\n\
     \n\
     ENVIRONMENT:\n\
       KLEX_SCALE=quick|full                         experiment scale (default: full)"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("presets:");
            for name in PRESET_NAMES {
                println!("  {name}");
            }
            println!("experiments:");
            for name in EXPERIMENTS {
                println!("  {name}");
            }
            ExitCode::SUCCESS
        }
        Some("show") => match args.get(1) {
            Some(name) => match preset(name) {
                Some(spec) => {
                    println!("{}", spec.to_json());
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("unknown preset `{name}` (try `klex list`)");
                    ExitCode::FAILURE
                }
            },
            None => {
                eprintln!("{}", usage());
                ExitCode::FAILURE
            }
        },
        Some("run") => run_command(&args[1..]),
        Some("experiment") => experiment_command(&args[1..]),
        Some("fuzz") => fuzz_command(&args[1..]),
        Some("serve") => serve_command(&args[1..]),
        Some("submit") => submit_command(&args[1..]),
        Some("status") => status_command(&args[1..]),
        Some("watch") => watch_command(&args[1..]),
        Some("cancel") => cancel_command(&args[1..]),
        _ => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// Default snapshot cadence for `--snapshots`: one cut every 128 activations per node,
/// floored so tiny topologies still leave room for each cut to complete before the next.
///
/// The interval counts from each cut's *completion*, and a cut's assembly takes roughly
/// 40–50 activations per node under fair random scheduling (the last markers wait for the
/// daemon to drain the queues ahead of them), during which every delivery pays the
/// in-transit recording cost.  128n keeps that recording duty cycle near 25%, which holds
/// the whole-run overhead comfortably under the 15% budget the scale benchmark tracks.
fn default_snapshot_interval(nodes: usize) -> u64 {
    (128 * nodes as u64).max(1024)
}

/// Resolves a scenario source: a named preset, or a path to a JSON spec file.  A
/// `--fault-schedule` file overrides the spec's campaign before validation, and
/// `--snapshots` / `--snapshot-interval` (`Some(None)` / `Some(Some(n))`) attach a
/// [`SnapshotSpec`] the same way.
fn load_scenario(
    source: &str,
    schedule_path: Option<&str>,
    snapshots: Option<Option<u64>>,
) -> Result<CompiledScenario, String> {
    let mut spec = if let Some(spec) = preset(source) {
        spec
    } else {
        let text = std::fs::read_to_string(source).map_err(|e| {
            format!("`{source}` is neither a preset (try `klex list`) nor a readable file: {e}")
        })?;
        ScenarioSpec::from_json(&text).map_err(|e| e.to_string())?
    };
    if let Some(path) = schedule_path {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable fault schedule `{path}`: {e}"))?;
        let value = serde_json::from_str(&text)
            .map_err(|e| format!("unparsable fault schedule `{path}`: {e}"))?;
        let schedule = serde_json::from_value::<FaultScheduleSpec>(&value)
            .map_err(|e| format!("bad fault schedule `{path}`: {e}"))?;
        spec.fault_schedule = Some(schedule);
    }
    if let Some(interval) = snapshots {
        let interval = interval.unwrap_or_else(|| default_snapshot_interval(spec.topology.len()));
        spec.snapshots = Some(SnapshotSpec { interval, initiator: InitiatorSpec::Root });
    }
    spec.compile().map_err(|e| e.to_string())
}

fn run_command(args: &[String]) -> ExitCode {
    let Some(source) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let mut request = RunRequest::default();
    let mut format = "markdown".to_string();
    let mut schedule_path: Option<String> = None;
    let mut snapshots: Option<Option<u64>> = None;
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        let mut value =
            |flag: &str| iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let result = match arg.as_str() {
            "--backend" => {
                value("--backend").and_then(|v| Backend::parse(&v)).map(|v| request.backend = v)
            }
            "--format" => value("--format").map(|v| format = v),
            "--shards" => value("--shards").and_then(|v| {
                v.parse::<usize>().map(|v| request.shards = v.max(1)).map_err(|e| e.to_string())
            }),
            "--bench" => {
                request.bench = true;
                Ok(())
            }
            "--fault-schedule" => value("--fault-schedule").map(|v| schedule_path = Some(v)),
            "--snapshots" => {
                // An explicit `--snapshot-interval` wins regardless of flag order.
                if snapshots.is_none() {
                    snapshots = Some(None);
                }
                Ok(())
            }
            "--snapshot-interval" => value("--snapshot-interval").and_then(|v| {
                v.parse::<u64>().map_err(|e| e.to_string()).and_then(|v| {
                    if v == 0 {
                        Err("--snapshot-interval must be positive".to_string())
                    } else {
                        snapshots = Some(Some(v));
                        Ok(())
                    }
                })
            }),
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    if !["markdown", "jsonl", "csv"].contains(&format.as_str()) {
        // Validated before any backend runs: a typo'd format must not cost a full run.
        eprintln!("unknown format `{format}` (markdown|jsonl|csv)");
        return ExitCode::FAILURE;
    }

    let scenario = match load_scenario(source, schedule_path.as_deref(), snapshots) {
        Ok(scenario) => scenario,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    // The serve daemon executes submitted jobs through the same function — the rendered
    // rows are byte-identical either way.
    let product = match run_rows(&scenario, &request, None) {
        Ok(product) => product,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    for warning in &product.warnings {
        eprintln!("{warning}");
    }
    match format.as_str() {
        "markdown" => {
            print!("{}", render_markdown_table(&scenario.spec().name, &product.rows));
            for note in &product.notes {
                println!("\n{note}");
            }
        }
        "jsonl" => println!("{}", render_jsonl(&product.rows)),
        "csv" => print!("{}", render_csv(&product.rows)),
        _ => unreachable!("the format was validated before the backends ran"),
    }
    ExitCode::SUCCESS
}

/// `klex fuzz`: run a cross-engine differential campaign (see [`bench::fuzz`]).
fn fuzz_command(args: &[String]) -> ExitCode {
    // `--smoke` selects the base option set and the remaining flags override it, in either
    // order — `--seed 99 --smoke` and `--smoke --seed 99` mean the same campaign.
    let mut opts = if args.iter().any(|a| a == "--smoke") {
        bench::fuzz::FuzzOptions::smoke()
    } else {
        bench::fuzz::FuzzOptions::new(1)
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value =
            |flag: &str| iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let result = match arg.as_str() {
            "--smoke" => Ok(()),
            "--seed" => value("--seed")
                .and_then(|v| v.parse::<u64>().map_err(|e| e.to_string()))
                .map(|v| opts.seed = v),
            "--scenarios" => value("--scenarios")
                .and_then(|v| v.parse::<u64>().map_err(|e| e.to_string()))
                .map(|v| opts.scenarios = v.max(1)),
            "--max-configs" => value("--max-configs")
                .and_then(|v| v.parse::<usize>().map_err(|e| e.to_string()))
                .map(|v| opts.max_configurations = v.max(16)),
            "--steps" => value("--steps")
                .and_then(|v| v.parse::<u64>().map_err(|e| e.to_string()))
                .map(|v| opts.sim_steps = v.max(1)),
            "--out" => value("--out").map(|v| opts.out_dir = v.into()),
            "--corpus" => value("--corpus").map(|v| opts.corpus_dir = Some(v.into())),
            "--campaign" => {
                opts.guided = true;
                Ok(())
            }
            "--shards" => value("--shards")
                .and_then(|v| v.parse::<usize>().map_err(|e| e.to_string()))
                .map(|v| opts.shards = v),
            "--verbose" => {
                opts.verbose = true;
                Ok(())
            }
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "fuzz campaign: seed {:#x}, {} scenarios{}, <= {} checker states and {} simulator \
         activations each",
        opts.seed,
        opts.scenarios,
        if opts.guided { " (coverage-guided)" } else { "" },
        opts.max_configurations,
        opts.sim_steps
    );
    let started = std::time::Instant::now();
    let summary = match bench::fuzz::run_campaign(&opts) {
        Ok(summary) => summary,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "ran {} scenarios in {:.1}s: {} explored exhaustively, {} with a fair-cycle \
         liveness violation, {} with a checker safety violation, {} sim-vs-checker oracle \
         applications",
        summary.scenarios,
        started.elapsed().as_secs_f64(),
        summary.exhaustive,
        summary.liveness_violations,
        summary.safety_violations,
        summary.differential_oracle_runs,
    );
    println!(
        "coverage: {} distinct signatures, {} novel (corpus {} -> {} entries)",
        summary.distinct_signatures,
        summary.novel_signatures,
        summary.initial_corpus_size,
        summary.corpus_size,
    );
    // A guided campaign starting from an empty corpus always finds novelty (the first
    // scenario's signature is new by definition) — zero means the coverage plumbing broke.
    if opts.guided && summary.initial_corpus_size == 0 && summary.novel_signatures == 0 {
        eprintln!("coverage-guided campaign found no novel signature from an empty corpus");
        return ExitCode::FAILURE;
    }
    if summary.clean() {
        println!("zero cross-engine disagreements");
        ExitCode::SUCCESS
    } else {
        for disagreement in &summary.disagreements {
            eprintln!(
                "DISAGREEMENT at scenario {}: {}",
                disagreement.scenario_index, disagreement.detail
            );
            if let Some(path) = &disagreement.written_to {
                eprintln!("  shrunk reproduction written to {}", path.display());
            }
            eprintln!("  spec: {}", disagreement.spec.to_json());
        }
        ExitCode::FAILURE
    }
}

/// Parses `klex experiment` arguments into `(name, json, quick)`: the first non-flag
/// argument is the experiment name and `--json` may stand anywhere; `scale` is the value of
/// `KLEX_SCALE`, if set.
fn parse_experiment_args(
    args: &[String],
    scale: Option<&str>,
) -> Result<(String, bool, bool), String> {
    let mut name = None;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            other if name.is_none() => name = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let name = name.ok_or_else(|| "experiment name missing (e1..e15 or `all`)".to_string())?;
    let quick = match scale {
        None | Some("" | "full") => false,
        Some("quick") => true,
        Some(other) => return Err(format!("unknown KLEX_SCALE `{other}` (quick|full)")),
    };
    Ok((name, json, quick))
}

fn experiment_command(args: &[String]) -> ExitCode {
    let scale = std::env::var("KLEX_SCALE").ok();
    let (name, json, quick) = match parse_experiment_args(args, scale.as_deref()) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let run = |name: &str, scale: Scale| -> Option<ExperimentReport> {
        Some(match name {
            "e1" => experiments::figures::e1_dfs_circulation(scale),
            "e2" => experiments::figures::e2_deadlock(scale),
            "e3" => experiments::figures::e3_livelock(scale),
            "e4" => experiments::figures::e4_virtual_ring(scale),
            "e5" => experiments::theorem1::e5_convergence(scale),
            "e6" => experiments::theorem2::e6_waiting_time(scale),
            "e7" => experiments::liveness::e7_kl_liveness(scale),
            "e8" => experiments::comparison::e8_tree_vs_ring(scale),
            "e9" => experiments::comparison::e9_throughput(scale),
            "e10" => experiments::ablation::e10_ablation(scale),
            "e11" => experiments::general::e11_general_networks(scale),
            "e12" => experiments::exhaustive::e12_exhaustive(scale),
            "e13" => experiments::timeout::e13_timeout_sweep(scale),
            "e14" => experiments::unbounded::e14_unbounded_counter(scale),
            "e15" => experiments::crash::e15_crash_recovery(scale),
            _ => return None,
        })
    };
    let names: Vec<&str> = if name == "all" { EXPERIMENTS.to_vec() } else { vec![name.as_str()] };
    for name in names {
        match run(name, scale.clone()) {
            Some(report) => {
                println!("{}", report.to_markdown());
                if json {
                    println!("{}", report.to_jsonl());
                }
            }
            None => {
                eprintln!("unknown experiment `{name}` (e1..e15 or `all`)");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

const DEFAULT_ADDR: &str = "127.0.0.1:7199";

/// `klex serve`: run the resident scenario-as-a-service daemon until `POST /shutdown`.
fn serve_command(args: &[String]) -> ExitCode {
    let mut opts = ServeOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value =
            |flag: &str| iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let result = match arg.as_str() {
            "--addr" => value("--addr").map(|v| opts.addr = v),
            "--workers" => value("--workers")
                .and_then(|v| v.parse::<usize>().map_err(|e| e.to_string()))
                .map(|v| opts.workers = v),
            "--queue" => value("--queue")
                .and_then(|v| v.parse::<usize>().map_err(|e| e.to_string()))
                .map(|v| opts.queue_cap = v.max(1)),
            "--seed" => value("--seed")
                .and_then(|v| v.parse::<u64>().map_err(|e| e.to_string()))
                .map(|v| opts.seed = v),
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    let server = match serve::Server::start(&opts) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    // Printed on stdout so scripts can scrape the resolved port when `--addr` used port 0.
    println!("klex serve listening on {}", server.addr());
    server.wait();
    println!("klex serve stopped");
    ExitCode::SUCCESS
}

/// Parses `--addr HOST:PORT` out of `args`, returning the address and the remaining args.
fn split_addr(args: &[String]) -> Result<(String, Vec<String>), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--addr" {
            addr = iter.next().cloned().ok_or("--addr needs a value")?;
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((addr, rest))
}

/// `klex submit`: enqueue a run job (or, with `--fuzz`, a fuzz campaign) on a daemon.
fn submit_command(args: &[String]) -> ExitCode {
    let (addr, rest) = match split_addr(args) {
        Ok(parts) => parts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let mut source: Option<String> = None;
    let mut fuzz = false;
    // Run-job fields sit at the body's top level; fuzz knobs nest under `"fuzz": {...}`.
    let mut run_fields: Vec<String> = Vec::new();
    let mut fuzz_fields: Vec<String> = Vec::new();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut value =
            |flag: &str| iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let result = match arg.as_str() {
            "--fuzz" => {
                fuzz = true;
                Ok(())
            }
            "--backend" => {
                value("--backend").map(|v| run_fields.push(format!("\"backend\": {v:?}")))
            }
            "--shards" => value("--shards").and_then(|v| {
                v.parse::<usize>()
                    .map(|v| run_fields.push(format!("\"shards\": {v}")))
                    .map_err(|e| e.to_string())
            }),
            "--bench" => {
                run_fields.push("\"bench\": true".to_string());
                Ok(())
            }
            "--seed" => value("--seed").and_then(|v| {
                v.parse::<u64>()
                    .map(|v| fuzz_fields.push(format!("\"seed\": {v}")))
                    .map_err(|e| e.to_string())
            }),
            "--scenarios" => value("--scenarios").and_then(|v| {
                v.parse::<u64>()
                    .map(|v| fuzz_fields.push(format!("\"scenarios\": {v}")))
                    .map_err(|e| e.to_string())
            }),
            other if !other.starts_with('-') && source.is_none() => {
                source = Some(other.to_string());
                Ok(())
            }
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    // Build the POST /jobs body.  Presets travel by name; spec files travel inline as the
    // parsed JSON object, so the daemon runs exactly what the file says.
    let body = if fuzz {
        if source.is_some() || !run_fields.is_empty() {
            eprintln!("--fuzz takes only --seed/--scenarios (and --addr)");
            return ExitCode::FAILURE;
        }
        format!("{{\"fuzz\": {{{}}}}}", fuzz_fields.join(", "))
    } else {
        if !fuzz_fields.is_empty() {
            eprintln!("--seed/--scenarios need --fuzz");
            return ExitCode::FAILURE;
        }
        let Some(source) = source else {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        };
        let first = if preset(&source).is_some() {
            format!("\"preset\": {source:?}")
        } else {
            match std::fs::read_to_string(&source) {
                Ok(text) => format!("\"spec\": {}", text.trim_end()),
                Err(e) => {
                    eprintln!(
                        "`{source}` is neither a preset (try `klex list`) nor a readable file: {e}"
                    );
                    return ExitCode::FAILURE;
                }
            }
        };
        let mut body = format!("{{{first}");
        for field in &run_fields {
            body.push_str(", ");
            body.push_str(field);
        }
        body.push('}');
        body
    };
    match serve::client::submit(&addr, &body) {
        Ok(id) => {
            println!("{id}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// `klex status`: print one job (by id) or the whole job table of a daemon.
fn status_command(args: &[String]) -> ExitCode {
    let (addr, rest) = match split_addr(args) {
        Ok(parts) => parts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let fetched = match rest.first() {
        Some(id_text) => match id_text.parse::<u64>() {
            Ok(id) => serve::client::status(&addr, id),
            Err(_) => {
                eprintln!("`{id_text}` is not a job id");
                return ExitCode::FAILURE;
            }
        },
        None => serve::client::jobs(&addr),
    };
    match fetched {
        Ok(doc) => {
            println!("{}", history::render(&doc));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// `klex watch`: follow a job's JSONL progress stream to completion.  Exits zero only if
/// the job finished in state `done`.
fn watch_command(args: &[String]) -> ExitCode {
    let (addr, rest) = match split_addr(args) {
        Ok(parts) => parts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let Some(Ok(id)) = rest.first().map(|t| t.parse::<u64>()) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let mut print_line = |line: &str| println!("{line}");
    match serve::client::watch(&addr, id, &mut print_line) {
        Ok(doc) => {
            let state = doc.get("state").and_then(|v| v.as_str()).unwrap_or("unknown");
            if state == "done" {
                ExitCode::SUCCESS
            } else {
                if let Some(error) = doc.get("error").and_then(|v| v.as_str()) {
                    eprintln!("job {id} {state}: {error}");
                } else {
                    eprintln!("job {id} finished in state {state}");
                }
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// `klex cancel`: cancel a queued or running job on a daemon.
fn cancel_command(args: &[String]) -> ExitCode {
    let (addr, rest) = match split_addr(args) {
        Ok(parts) => parts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let Some(Ok(id)) = rest.first().map(|t| t.parse::<u64>()) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    match serve::client::cancel(&addr, id) {
        Ok(state) => {
            println!("job {id}: {state}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], scale: Option<&str>) -> Result<(String, bool, bool), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_experiment_args(&args, scale)
    }

    fn parsed(name: &str, json: bool, quick: bool) -> (String, bool, bool) {
        (name.to_string(), json, quick)
    }

    #[test]
    fn experiment_name_is_the_first_non_flag_argument() {
        assert_eq!(parse(&["e5"], None), Ok(parsed("e5", false, false)));
        assert_eq!(parse(&["--json", "e5"], None), Ok(parsed("e5", true, false)));
        assert_eq!(parse(&["all", "--json"], Some("quick")), Ok(parsed("all", true, true)));
        assert!(parse(&[], None).is_err());
        assert!(parse(&["--json"], None).is_err());
        assert!(parse(&["e5", "e6"], None).is_err());
        assert!(parse(&["e5", "--jsn"], None).is_err());
    }

    #[test]
    fn unrecognised_scale_is_an_error() {
        assert_eq!(parse(&["e1"], Some("full")), Ok(parsed("e1", false, false)));
        assert_eq!(parse(&["e1"], Some("")), Ok(parsed("e1", false, false)));
        let err = parse(&["e1"], Some("quik")).unwrap_err();
        assert!(err.contains("quik"), "{err}");
    }
}
