//! The benchmark's workloads. Each iteration is a fixed amount of
//! simulation generated from the seed, driven only through public calls:
//! `Workload::generate`, `Machine::new` and `Machine::run` for the
//! single-machine workloads, and the harness's plan, execute, artifact
//! and assemble calls for the sweep.

use crate::check::{fingerprint, Pins};
use crate::trace::Tracer;
use stashdir::{CoverageRatio, DirSpec, Machine, SimReport, SystemConfig, Workload};
use stashdir_harness::artifact::{self, ArtifactStyle};
use stashdir_harness::experiments;
use stashdir_harness::runner::{execute_cases, PersistOptions};
use stashdir_harness::{CaseSpec, CaseStatus, Params, RunOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// E20's headline point: `data_parallel` on 1024 cores, stash@1/8.
    XlPrivate,
    /// `canneal` on 64 cores, stash@1/8: the discovery broadcast path.
    CannealDiscovery,
    /// E3's 156-case plan through the harness, persisted and resumed.
    PaperSweep,
}

/// Ops per core of the sweep's cases.
const SWEEP_OPS: usize = 2000;
/// The sweep's worker threads (the host has 2 cores).
pub const SWEEP_JOBS: usize = 2;
/// Extra plan expansions per sweep iteration, so its microsecond set-up
/// time is a median over many samples.
const PLAN_REPS: usize = 32;

impl Bench {
    /// Every workload, in reporting order.
    pub const ALL: [Bench; 3] = [Bench::XlPrivate, Bench::CannealDiscovery, Bench::PaperSweep];

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Bench::XlPrivate => "xl_private",
            Bench::CannealDiscovery => "canneal_discovery",
            Bench::PaperSweep => "paper_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The single simulated machine of a single-machine workload.
    pub fn machine_case(self, seed: u64) -> Option<CaseSpec> {
        let stash = DirSpec::stash(CoverageRatio::new(1, 8));
        let (cores, workload, ops) = match self {
            Bench::XlPrivate => (1024, Workload::DataParallel, 1000),
            Bench::CannealDiscovery => (64, Workload::Canneal, 2000),
            Bench::PaperSweep => return None,
        };
        let config = SystemConfig::default().with_cores(cores).with_dir(stash);
        Some(CaseSpec::new(config, workload, ops, seed))
    }

    /// Cases one iteration attempts.
    pub fn cases_per_iteration(self) -> u64 {
        match self.machine_case(0) {
            Some(_) => 1,
            None => sweep_experiment().cases(Params { ops: 1, seed: 0 }).len() as u64,
        }
    }

    /// Runs one iteration. `work` is a scratch directory for artifacts.
    pub fn iterate(self, seed: u64, pins: &Pins, work: &Path, tracer: &mut Tracer) -> Outcome {
        let root = tracer.begin(self.name());
        let outcome = match self.machine_case(seed) {
            Some(case) => run_machine(&case, pins, tracer),
            None => run_sweep(SWEEP_OPS, seed, pins, work, tracer),
        };
        tracer.end(root);
        outcome
    }
}

/// What one iteration measured and produced.
#[derive(Debug)]
pub struct Outcome {
    /// Host seconds for the whole iteration.
    pub wall_s: f64,
    /// Host seconds before the first simulated event; several samples
    /// when the iteration repeats its set-up.
    pub setup_s: Vec<f64>,
    /// Simulated ops retired.
    pub ops: u64,
    /// Cases attempted.
    pub attempted: u64,
    /// Cases that failed an output check.
    pub failed: u64,
    /// Completed reports by case id, in plan order.
    pub reports: Vec<(String, SimReport)>,
    /// Pool durations of the executed cases, in seconds (sweep only).
    pub case_s: Vec<f64>,
}

fn run_machine(case: &CaseSpec, pins: &Pins, tracer: &mut Tracer) -> Outcome {
    let start = Instant::now();
    let span = tracer.begin("workloads.generate");
    let traces = case
        .workload
        .generate(case.config.cores, case.ops, case.seed);
    tracer.end(span);
    let span = tracer.begin("sim.new");
    let machine = Machine::new(case.config.clone());
    tracer.end(span);
    let setup = start.elapsed();
    let span = tracer.begin("sim.run");
    let report = catch_unwind(AssertUnwindSafe(|| machine.run(traces)));
    tracer.end(span);
    let wall = start.elapsed();

    let id = case.id();
    let expected_ops = case.config.cores as u64 * case.ops as u64;
    let ok = matches!(&report, Ok(r) if pins.case_ok(case.seed, &id, r, expected_ops));
    Outcome {
        wall_s: wall.as_secs_f64(),
        setup_s: vec![setup.as_secs_f64()],
        ops: report.as_ref().map_or(0, |r| r.completed_ops),
        attempted: 1,
        failed: u64::from(!ok),
        reports: report.map(|r| vec![(id, r)]).unwrap_or_default(),
        case_s: Vec::new(),
    }
}

fn sweep_experiment() -> experiments::Experiment {
    experiments::find("perf_vs_coverage").expect("E3 is in the registry")
}

/// E3 through the harness: plan, execute with persistence, save and load
/// every report, resume from the run's artifacts, assemble the table.
fn run_sweep(ops: usize, seed: u64, pins: &Pins, work: &Path, tracer: &mut Tracer) -> Outcome {
    const RUN: &str = "sweep";
    let exp = sweep_experiment();
    let params = Params { ops, seed };
    let options = RunOptions {
        jobs: SWEEP_JOBS,
        ..Default::default()
    };
    let keys = || vec![exp.key.to_string()];
    let persist = |resume| PersistOptions {
        resume,
        style: ArtifactStyle::Pretty,
    };
    let export = work.join("export");
    let _ = std::fs::remove_dir_all(work);

    let start = Instant::now();
    let span = tracer.begin("harness.plan");
    let cases = exp.cases(params);
    tracer.end(span);
    let setup = start.elapsed();

    let span = tracer.begin("harness.execute");
    let exec = execute_cases(&cases, RUN, work, keys(), params, &options, persist(false));
    tracer.end(span);
    let Ok(exec) = exec else {
        return Outcome::all_failed(cases.len(), start.elapsed(), setup);
    };
    let mut ok: Vec<bool> = exec
        .outcomes
        .iter()
        .map(|o| {
            let expected = o.spec.config.cores as u64 * o.spec.ops as u64;
            o.status == CaseStatus::Completed
                && o.report
                    .as_ref()
                    .is_some_and(|r| pins.case_ok(seed, &o.spec.id(), r, expected))
        })
        .collect();
    let ids: Vec<String> = cases.iter().map(CaseSpec::id).collect();
    let fresh: Vec<Option<u64>> = ids
        .iter()
        .map(|id| exec.results.get(id).map(fingerprint))
        .collect();

    for id in &ids {
        if let Some(report) = exec.results.get(id) {
            let span = tracer.begin("harness.save_report");
            // A failed save shows as a failed load below.
            let _ = artifact::save_report(&export, id, report);
            tracer.end(span);
        }
    }
    for (i, id) in ids.iter().enumerate() {
        let span = tracer.begin("harness.load_report");
        let loaded = artifact::load_report(&export, id);
        tracer.end(span);
        ok[i] &= loaded.ok().map(|r| fingerprint(&r)) == fresh[i];
    }

    let span = tracer.begin("harness.resume");
    let resumed = execute_cases(&cases, RUN, work, keys(), params, &options, persist(true));
    tracer.end(span);
    match &resumed {
        // Every case completed above must come back from its artifact.
        Ok(r) if r.resumed == exec.results.len() => {
            for (i, id) in ids.iter().enumerate() {
                ok[i] &= r.results.get(id).map(fingerprint) == fresh[i];
            }
        }
        _ => ok.iter_mut().for_each(|o| *o = false),
    }

    let span = tracer.begin("harness.assemble");
    let assembled = (exec.results.len() == cases.len())
        .then(|| catch_unwind(AssertUnwindSafe(|| exp.assemble(params, &exec.results))));
    tracer.end(span);
    let wall = start.elapsed();
    // The table is the sweep's output: when it breaks, every case fails.
    if assembled.is_some_and(|a| !a.is_ok_and(|a| a.table.to_csv().lines().count() > 1)) {
        ok.iter_mut().for_each(|o| *o = false);
    }

    let mut setup_s = vec![setup.as_secs_f64()];
    for _ in 0..PLAN_REPS {
        let t = Instant::now();
        std::hint::black_box(exp.cases(std::hint::black_box(params)));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(work);

    let mut reports = Vec::with_capacity(ids.len());
    let mut results = exec.results;
    for id in &ids {
        if let Some(r) = results.remove(id) {
            reports.push((id.clone(), r));
        }
    }
    Outcome {
        wall_s: wall.as_secs_f64(),
        setup_s,
        ops: reports.iter().map(|(_, r)| r.completed_ops).sum(),
        attempted: cases.len() as u64,
        failed: ok.iter().filter(|&&o| !o).count() as u64,
        reports,
        case_s: exec
            .outcomes
            .iter()
            .map(|o| o.duration.as_secs_f64())
            .collect(),
    }
}

impl Outcome {
    /// An iteration whose every case failed before producing output.
    pub fn all_failed(cases: usize, wall: Duration, setup: Duration) -> Outcome {
        Outcome {
            wall_s: wall.as_secs_f64(),
            setup_s: vec![setup.as_secs_f64()],
            ops: 0,
            attempted: cases as u64,
            failed: cases as u64,
            reports: Vec::new(),
            case_s: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("stashdir_perfbench_{tag}_{}", std::process::id()))
    }

    fn small_canneal(seed: u64) -> CaseSpec {
        let config = SystemConfig::default()
            .with_cores(16)
            .with_dir(DirSpec::stash(CoverageRatio::new(1, 8)));
        CaseSpec::new(config, Workload::Canneal, 200, seed)
    }

    #[test]
    fn wrong_pin_fails_a_machine_case_without_panicking() {
        let case = small_canneal(3);
        let mut tracer = Tracer::new();
        let first = run_machine(&case, &Pins::none(), &mut tracer);
        assert_eq!((first.attempted, first.failed), (1, 0));
        let right = fingerprint(&first.reports[0].1);
        let pin = |fp: u64| Pins::parse(3, &format!("{} {fp:016x}\n", case.id())).unwrap();

        let good = run_machine(&case, &pin(right), &mut tracer);
        assert_eq!(good.failed, 0);
        let bad = run_machine(&case, &pin(right ^ 1), &mut tracer);
        assert_eq!((bad.attempted, bad.failed), (1, 1));
        // Another seed checks only violations and op counts.
        let other = run_machine(&small_canneal(4), &pin(right ^ 1), &mut tracer);
        assert_eq!(other.failed, 0);
    }

    #[test]
    fn wrong_pin_fails_one_sweep_case_and_the_rest_pass() {
        let work = scratch("sweep");
        let mut tracer = Tracer::new();
        tracer.next_run(true);
        let first = run_sweep(20, 5, &Pins::none(), &work, &mut tracer);
        assert_eq!(first.attempted, 156);
        assert_eq!(first.failed, 0);
        assert_eq!(first.case_s.len(), 156);
        let mut pins = String::new();
        for (i, (id, report)) in first.reports.iter().enumerate() {
            let fp = fingerprint(report) ^ u64::from(i == 0);
            pins.push_str(&format!("{id} {fp:016x}\n"));
        }
        let second = run_sweep(20, 5, &Pins::parse(5, &pins).unwrap(), &work, &mut tracer);
        assert_eq!((second.attempted, second.failed), (156, 1));
        for name in [
            "harness.save_report",
            "harness.load_report",
            "harness.resume",
        ] {
            assert!(tracer.per_run_secs(&[1], name)[0] > 0.0, "{name}");
        }
        assert!(!work.exists());
    }
}
