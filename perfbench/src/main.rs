//! End-to-end host-time benchmark of the stashdir simulator and harness.
//!
//! Runs one workload repeatedly for `--seconds`, checks every case's
//! output, and prints a table followed by one JSON line with the medians.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` interleaves
//! untraced and traced iterations and reports the per-layer metrics
//! derived from the spans, plus the tracing overhead. See `README.md`.

mod bench;
mod check;
mod trace;

use bench::{Bench, Outcome};
use check::{fingerprint, Pins};
use stashdir::StatSink;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

const USAGE: &str =
    "usage: stashdir-perfbench --workload <xl_private|canneal_discovery|paper_sweep|all>
       [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--print-pins]";

/// Scratch artifacts and span files live under this directory of the
/// working directory.
const OUT_DIR: &str = ".perfbench";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_pins: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: check::PINNED_SEED,
        seconds: 10,
        trace: false,
        print_pins: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds takes a whole number above 0")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--print-pins" => args.print_pins = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Bench::from_name(&args.workload).is_none() {
        return Err(format!("unknown --workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_each_in_own_process(&args);
    }
    let bench = Bench::from_name(&args.workload).expect("checked by parse_args");
    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    if args.print_pins {
        let mut tracer = Tracer::new();
        let outcome = bench.iterate(args.seed, &Pins::none(), &work, &mut tracer);
        for (id, report) in &outcome.reports {
            println!("{id} {:016x}", fingerprint(report));
        }
        let _ = std::fs::remove_dir(OUT_DIR);
        return ExitCode::SUCCESS;
    }
    let pins = match Pins::committed() {
        Ok(pins) => pins,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let run = measure(bench, &args, &pins, &work);
    let _ = std::fs::remove_dir(OUT_DIR);
    print_run(bench, &args, &run);
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of its own, so each peak-RSS
/// reading covers one workload only.
fn run_each_in_own_process(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for bench in Bench::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", bench.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.print_pins {
            cmd.arg("--print-pins");
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("cannot run {}: {e}", bench.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Everything one run measured.
struct Run {
    untraced: Vec<Outcome>,
    traced: Vec<Outcome>,
    /// Tracer run ids of `traced`, index for index.
    traced_runs: Vec<u32>,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
    peak_rss_mb: f64,
    spans_file: Option<PathBuf>,
}

/// Repeats the workload until the next iteration would overrun
/// `--seconds`. The first iteration warms the allocator and caches: it is
/// checked but not timed. A traced run then orders untraced and traced
/// iterations ABBA, so both see the same conditions.
fn measure(bench: Bench, args: &Args, pins: &Pins, work: &Path) -> Run {
    let mut run = Run {
        untraced: Vec::new(),
        traced: Vec::new(),
        traced_runs: Vec::new(),
        attempted: 0,
        failed: 0,
        tracer: Tracer::new(),
        peak_rss_mb: 0.0,
        spans_file: None,
    };
    let min_iterations = if args.trace { 3 } else { 2 };
    let start = Instant::now();
    let mut iterations = 0u32;
    loop {
        let timed = iterations > 0;
        let traced = args.trace && timed && matches!(iterations % 4, 2 | 3);
        run.tracer.next_run(traced);
        let id = run.tracer.run();
        let tracer = &mut run.tracer;
        match catch_unwind(AssertUnwindSafe(|| {
            bench.iterate(args.seed, pins, work, tracer)
        })) {
            Ok(outcome) => {
                run.attempted += outcome.attempted;
                run.failed += outcome.failed;
                if traced {
                    run.traced.push(outcome);
                    run.traced_runs.push(id);
                } else if timed {
                    run.untraced.push(outcome);
                }
            }
            Err(_) => {
                let cases = bench.cases_per_iteration();
                run.attempted += cases;
                run.failed += cases;
            }
        }
        iterations += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let projected = elapsed * f64::from(iterations + 1) / f64::from(iterations);
        if iterations >= min_iterations && projected > args.seconds as f64 {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(work);
    run.peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    if args.trace {
        let path = Path::new(OUT_DIR).join("spans").join(format!(
            "{}-seed{}.jsonl",
            bench.name(),
            args.seed
        ));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => run.spans_file = Some(path),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    run
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty slice.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A named metric with its unit.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(run: &Run) -> Vec<Metric> {
    let walls: Vec<f64> = run.untraced.iter().map(|o| o.wall_s).collect();
    let setups: Vec<f64> = run
        .untraced
        .iter()
        .flat_map(|o| o.setup_s.clone())
        .collect();
    let rates: Vec<f64> = run
        .untraced
        .iter()
        .map(|o| ratio(o.ops as f64, o.wall_s))
        .collect();
    vec![
        ("wall_s", median(&walls), "s"),
        ("setup_s", median(&setups), "s"),
        ("ops_per_s", median(&rates), "1/s"),
        ("peak_rss_mb", run.peak_rss_mb, "MiB"),
    ]
}

/// Per-layer metrics from the traced iterations: span timings are
/// medians over iterations; counts come from the last traced iteration
/// (they repeat exactly).
fn per_layer(run: &Run) -> Vec<Metric> {
    let span = |name| run.tracer.per_run_secs(&run.traced_runs, name);
    let med = |name| median(&span(name));
    let last = run.traced.last();
    let mut sum = StatSink::new();
    let mut inv_round_means = Vec::new();
    for (_, report) in last.iter().flat_map(|o| &o.reports) {
        sum.merge(&report.sink);
        inv_round_means.extend(report.sink.get("bank.mean_inv_round_size"));
    }
    let stat = |key| sum.get_or_zero(key);
    let flits: f64 = sum
        .iter()
        .filter(|(k, _)| k.starts_with("noc.flits."))
        .map(|(_, v)| v)
        .sum();
    let messages = stat("noc.total_messages");
    let ops = last.map_or(0.0, |o| o.ops as f64);
    let run_s = span("sim.run");
    let per = |per_iter: &[f64], den: f64| {
        let v: Vec<f64> = per_iter.iter().map(|s| ratio(s * 1e9, den)).collect();
        median(&v)
    };
    let execute_s = span("harness.execute");
    let pool_util: Vec<f64> = run
        .traced
        .iter()
        .zip(&execute_s)
        .map(|(o, e)| ratio(o.case_s.iter().sum(), bench::SWEEP_JOBS as f64 * e))
        .collect();
    let case_q = |q| {
        let v: Vec<f64> = run
            .traced
            .iter()
            .map(|o| quantile(&o.case_s, q) * 1e3)
            .collect();
        median(&v)
    };
    let untraced: Vec<f64> = run.untraced.iter().map(|o| o.wall_s).collect();
    let traced: Vec<f64> = run.traced.iter().map(|o| o.wall_s).collect();
    let discoveries = stat("bank.discoveries") + stat("bank.evict_discoveries");
    vec![
        ("workloads.generate_s", med("workloads.generate"), "s"),
        ("sim.new_s", med("sim.new"), "s"),
        ("sim.run_s", median(&run_s), "s"),
        ("sim.run_ns_per_op", per(&run_s, ops), "ns"),
        ("sim.run_ns_per_msg", per(&run_s, messages), "ns"),
        ("sim.cycles", stat("machine.cycles"), "count"),
        ("noc.messages", messages, "count"),
        ("noc.flit_hops", stat("noc.flit_hops"), "count"),
        (
            "noc.hops_per_msg",
            ratio(stat("noc.flit_hops"), flits),
            "hops",
        ),
        ("protocol.discoveries", discoveries, "count"),
        (
            "protocol.discovery_found_ratio",
            ratio(stat("bank.discoveries_found"), stat("bank.discoveries")),
            "ratio",
        ),
        (
            "protocol.inv_round_size_mean",
            ratio(inv_round_means.iter().sum(), inv_round_means.len() as f64),
            "probes",
        ),
        ("core.dir_lookups", stat("dir.lookups"), "count"),
        (
            "core.silent_evictions",
            stat("dir.silent_evictions"),
            "count",
        ),
        (
            "core.invalidating_evictions",
            stat("dir.invalidating_evictions"),
            "count",
        ),
        (
            "core.copies_invalidated",
            stat("dir.copies_invalidated"),
            "count",
        ),
        ("mem.l2_misses", stat("l2.misses"), "count"),
        ("mem.llc_misses", stat("llc.misses"), "count"),
        ("mem.dram_accesses", stat("dram.accesses"), "count"),
        ("harness.plan_s", med("harness.plan"), "s"),
        ("harness.execute_s", median(&execute_s), "s"),
        ("harness.pool_util", median(&pool_util), "ratio"),
        ("harness.case_p50_ms", case_q(0.5), "ms"),
        ("harness.case_p90_ms", case_q(0.9), "ms"),
        ("harness.save_report_s", med("harness.save_report"), "s"),
        ("harness.load_report_s", med("harness.load_report"), "s"),
        ("harness.resume_s", med("harness.resume"), "s"),
        ("harness.assemble_s", med("harness.assemble"), "s"),
        ("trace.overhead_s", median(&traced) - median(&untraced), "s"),
    ]
}

/// Per-layer timings of direct simulator calls, which the sweep makes
/// inside the harness instead.
const DIRECT_CALL_TIMINGS: [&str; 5] = [
    "workloads.generate_s",
    "sim.new_s",
    "sim.run_s",
    "sim.run_ns_per_op",
    "sim.run_ns_per_msg",
];

/// Whether a per-layer metric is measured on `bench`. The JSON line
/// carries every metric; the ones a workload does not exercise read 0.
fn measured_on(bench: Bench, name: &str) -> bool {
    let sweep = bench == Bench::PaperSweep;
    if name.starts_with("harness.") {
        sweep
    } else {
        !(sweep && DIRECT_CALL_TIMINGS.contains(&name))
    }
}

fn print_run(bench: Bench, args: &Args, run: &Run) {
    println!(
        "{} seed={} seconds={} trace={}: {} untraced + {} traced iterations",
        bench.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.untraced.len(),
        run.traced.len()
    );
    let walls: Vec<String> = run
        .untraced
        .iter()
        .map(|o| format!("{:.3}", o.wall_s))
        .collect();
    println!("  untraced iteration wall_s: {}", walls.join(" "));
    let e2e = end_to_end(run);
    for (name, value, unit) in &e2e {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!(
        "  {:<32} {:>16.6} ratio ({} failed of {} attempted cases)",
        "failed_frac",
        ratio(run.failed as f64, run.attempted as f64),
        run.failed,
        run.attempted
    );
    let layers = per_layer(run);
    if args.trace {
        println!("per-layer (traced iterations):");
        for (name, value, unit) in layers.iter().filter(|(n, ..)| measured_on(bench, n)) {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        if let Some(path) = &run.spans_file {
            println!("spans: {}", path.display());
        }
    }
    let metrics = if args.trace { &layers } else { &e2e };
    let mut json = String::new();
    for (name, value, unit) in metrics {
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted,
        run.failed
    );
}
