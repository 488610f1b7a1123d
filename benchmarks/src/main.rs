//! `klex-benchmark` — the repository's benchmark.
//!
//! ```text
//! klex-benchmark --workload <name> --seed <S> --seconds <T> --trace <0|1>
//! klex-benchmark run   --workload <name>|--all [--seed S] [--seconds T] [--out FILE]
//! klex-benchmark trace --workload <name>|--all [--seed S]
//! klex-benchmark verify [--seed S]
//! klex-benchmark compare <A> <B> [--force]
//! klex-benchmark calibrate <FILE>
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs; `run` and `trace` are the same
//! thing by name.  Every workload runs in a process of its own (so its peak resident set is
//! its own), prints each metric as `name value unit`, ends with one JSON line, and exits
//! non-zero when a correctness check fails.  See `README.md` beside this package.

mod compare;
mod host;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Metric;
use std::io::Write;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{benchmark_dir, Ctx, WORKLOADS};

/// Parsed command-line options of `run` / `trace` / `verify`.
struct Options {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_golden: bool,
    out: Option<String>,
}

fn parse_options(args: &[String], trace: bool) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        all: false,
        seed: workloads::GOLDEN_SEED,
        seconds: 15.0,
        trace,
        write_golden: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?.clone()),
            "--all" => options.all = true,
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => options.trace = value()? == "1",
            "--write-golden" => options.write_golden = true,
            "--out" => options.out = Some(value()?.clone()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(options)
}

/// Runs one workload in this process and prints its result.
fn run_workload(name: &str, options: &Options) -> Result<bool, String> {
    let out_dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    // The fuzzer writes reproduction specs of a disagreement to the temporary directory;
    // keep that inside the package too.
    std::env::set_var("TMPDIR", &out_dir);

    let host = host::fingerprint();
    println!("# host {}", report::to_line(&host));
    println!("# workload {name} seed {} trace {}", options.seed, u8::from(options.trace));

    let mut tracer = Tracer::new(options.trace);
    let mut ctx = Ctx {
        seed: options.seed,
        seconds: options.seconds,
        trace: options.trace,
        write_golden: options.write_golden,
        tracer: &mut tracer,
    };
    let mut measured = match name {
        "sim_cache_1k" => workloads::sim::run(&workloads::sim::CACHE_1K, &mut ctx),
        "sim_dram_512k" => workloads::sim::run(&workloads::sim::DRAM_512K, &mut ctx),
        "conv_trials_31" => workloads::conv::run(&mut ctx),
        "check_mixed" => workloads::check::run(&mut ctx),
        "serve_mix" => workloads::serve::run(&mut ctx),
        other => Err(format!("unknown workload `{other}` (known: {})", workload_names())),
    }?;

    let metrics: Vec<Metric> = if options.trace {
        probes::run_all(&mut ctx, &mut measured)?;
        let path = out_dir.join(format!("trace-{name}.json"));
        let doc = trace::to_value(name, tracer.spans());
        std::fs::write(&path, bench::history::render(&doc) + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# {} spans written to {}", tracer.spans().len(), path.display());
        std::mem::take(&mut measured.layers)
    } else {
        report::end_to_end(&measured)?
    };

    compare::check_declared(if options.trace { "per_layer" } else { "end_to_end" }, &metrics)?;

    let print = |m: &Metric| println!("{} {} {}", m.name, m.value, m.unit);
    metrics.iter().for_each(print);
    report::diagnostics(&measured).iter().for_each(print);
    println!(
        "round_s {}",
        measured.round_s.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
    );
    for (name, count) in &measured.exact {
        println!("exact.{name} {count} count");
    }
    if let Some(out) = &options.out {
        let record = report::record(&host, name, options.seed, &measured, &metrics);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("cannot open {out}: {e}"))?;
        writeln!(file, "{}", report::to_line(&record))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    println!("{}", report::result_line(&measured, &metrics));
    Ok(measured.failed == 0)
}

fn workload_names() -> String {
    WORKLOADS.join(", ")
}

/// Runs every workload, each in a fresh process of this executable; true when all passed.
fn run_each_in_a_process(mode: &str, extra: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .arg(mode)
            .args(["--workload", name])
            .args(extra)
            .status()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        if !status.success() {
            eprintln!("{name}: FAILED ({status})");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn run_or_trace(args: &[String], trace: bool) -> Result<bool, String> {
    let options = parse_options(args, trace)?;
    match (&options.workload, options.all) {
        (Some(name), false) => run_workload(name, &options),
        (None, true) => {
            let extra: Vec<String> = args.iter().filter(|a| *a != "--all").cloned().collect();
            run_each_in_a_process(if trace { "trace" } else { "run" }, &extra)
        }
        _ => Err("give exactly one of --workload <name> and --all".to_string()),
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let Some(first) = args.first() else {
        return Err(format!("usage: see benchmarks/README.md (workloads: {})", workload_names()));
    };
    match first.as_str() {
        flag if flag.starts_with("--") => run_or_trace(args, false),
        "run" => run_or_trace(&args[1..], false),
        "trace" => run_or_trace(&args[1..], true),
        // The correctness checks are the tail of every run; `verify` runs each workload for
        // its minimum number of rounds and keeps only the verdict.
        "verify" => {
            let mut extra = args[1..].to_vec();
            extra.extend(["--seconds".to_string(), "0".to_string()]);
            let ok = run_each_in_a_process("run", &extra)?;
            println!("verify: {}", if ok { "PASS" } else { "FAIL" });
            Ok(ok)
        }
        "compare" => compare::compare(&args[1..]),
        "calibrate" => compare::calibrate(&args[1..]),
        "prefault" => {
            let mib =
                args.get(1).and_then(|m| m.parse().ok()).ok_or("prefault needs a size in MiB")?;
            host::touch_pages(mib);
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("klex-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
