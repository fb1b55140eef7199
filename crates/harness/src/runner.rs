//! Orchestration: expand experiment selections into a deduplicated case
//! list, execute it on the pool (optionally resuming from a prior
//! manifest), persist per-case artifacts and the run manifest, and
//! assemble each experiment's tables with output identical to the old
//! serial binaries.

use crate::artifact;
use crate::digest;
use crate::experiments::{registry, Experiment, ResultSet};
use crate::manifest::RunManifest;
use crate::params::Params;
use crate::plan::CaseSpec;
use crate::pool::{run_cases, CaseOutcome, CaseStatus, RunOptions};
use std::collections::{HashMap, HashSet};
use std::io;
use std::io::IsTerminal as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Everything one sweep invocation needs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Experiment keys to run (must exist in the registry).
    pub experiments: Vec<String>,
    /// Run name: manifest and artifacts live in `<out_root>/<run>/`.
    pub run: String,
    /// Ops/seed for every case.
    pub params: Params,
    /// Pool options (jobs, fail-fast, progress, panic injection).
    pub options: RunOptions,
    /// Skip cases already completed in `<out_root>/<run>/manifest.json`.
    pub resume: bool,
    /// Where CSVs land and run directories nest (the serial binaries
    /// used `results/`).
    pub out_root: PathBuf,
    /// Print assembled tables and save lines to stdout (off in tests).
    pub print_tables: bool,
    /// Write per-case artifacts as single-line JSON instead of pretty
    /// (`--compact-artifacts`).
    pub compact_artifacts: bool,
}

impl SweepConfig {
    /// A config with the given experiments and defaults matching the old
    /// serial binaries: `results/` output, env-derived params, progress
    /// on a tty, all cores.
    pub fn new(experiments: Vec<String>, run: impl Into<String>) -> Self {
        SweepConfig {
            experiments,
            run: run.into(),
            params: Params::default(),
            options: RunOptions {
                jobs: env_jobs(),
                progress: std::io::stderr().is_terminal(),
                ..Default::default()
            },
            resume: false,
            out_root: PathBuf::from("results"),
            print_tables: true,
            compact_artifacts: false,
        }
    }
}

/// `STASHDIR_JOBS` (0 / unset = all cores).
fn env_jobs() -> usize {
    std::env::var("STASHDIR_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// What one execution produced (before table assembly).
#[derive(Debug)]
pub struct ExecReport {
    /// One outcome per unique case, in plan order.
    pub outcomes: Vec<CaseOutcome>,
    /// Completed reports keyed by case id (resumed ones included).
    pub results: ResultSet,
    /// Cases satisfied from a prior manifest + artifacts.
    pub resumed: usize,
    /// Cases actually executed this invocation.
    pub ran: usize,
    /// Cases that panicked.
    pub failed: usize,
    /// Cases that exceeded the per-case wall-clock budget.
    pub timed_out: usize,
    /// The manifest, as saved to `<run_dir>/manifest.json`.
    pub manifest: RunManifest,
    /// The run directory.
    pub run_dir: PathBuf,
}

/// How [`execute_cases`] persists per-case artifacts and whether it may
/// reuse them from a prior run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistOptions {
    /// Satisfy cases completed by a prior manifest from their artifacts
    /// instead of re-running them (`--resume`).
    pub resume: bool,
    /// On-disk rendering for per-case artifacts
    /// (`--compact-artifacts` selects [`ArtifactStyle::Compact`]).
    ///
    /// [`ArtifactStyle::Compact`]: artifact::ArtifactStyle::Compact
    pub style: artifact::ArtifactStyle,
}

/// Executes `cases` (deduplicated by the caller) under `run`, resuming
/// from an existing manifest when asked, writing per-case artifacts and
/// the run manifest.
///
/// # Errors
///
/// Returns any I/O error writing artifacts or the manifest; simulation
/// panics are *not* errors (they become `failed` case records).
pub fn execute_cases(
    cases: &[CaseSpec],
    run: &str,
    out_root: &Path,
    experiment_keys: Vec<String>,
    params: Params,
    options: &RunOptions,
    persist: PersistOptions,
) -> io::Result<ExecReport> {
    let run_dir = out_root.join(run);
    let prior = if persist.resume {
        RunManifest::load(&run_dir)
    } else {
        None
    };

    // Satisfy what we can from the prior manifest + artifacts.
    let mut resumed: HashMap<usize, CaseOutcome> = HashMap::new();
    if let Some(prior) = &prior {
        for (i, spec) in cases.iter().enumerate() {
            let id = spec.id();
            let digest_hex = digest::hex(spec.digest());
            if !prior.completed(&id, &digest_hex) {
                continue;
            }
            if let Ok(report) = artifact::load_report(&run_dir, &id) {
                let duration = prior
                    .record(&id)
                    .map(|r| Duration::from_millis(r.duration_ms))
                    .unwrap_or(Duration::ZERO);
                resumed.insert(
                    i,
                    CaseOutcome {
                        spec: spec.clone(),
                        status: CaseStatus::Completed,
                        duration,
                        attempts: 0,
                        report: Some(report),
                        error: None,
                    },
                );
            }
        }
    }

    let to_run: Vec<CaseSpec> = cases
        .iter()
        .enumerate()
        .filter(|(i, _)| !resumed.contains_key(i))
        .map(|(_, c)| c.clone())
        .collect();

    let start = Instant::now();
    let mut fresh = run_cases(&to_run, options).into_iter();
    let wall = start.elapsed();

    // Merge back into plan order.
    let resumed_idx: HashSet<usize> = resumed.keys().copied().collect();
    let mut outcomes: Vec<CaseOutcome> = Vec::with_capacity(cases.len());
    for i in 0..cases.len() {
        match resumed.remove(&i) {
            Some(o) => outcomes.push(o),
            None => outcomes.push(fresh.next().expect("one outcome per submitted case")),
        }
    }

    // Persist artifacts for freshly completed cases, then the manifest.
    // A resumed case's artifact is already on disk, byte for byte.
    for (i, outcome) in outcomes.iter().enumerate() {
        if resumed_idx.contains(&i) {
            continue;
        }
        if let (CaseStatus::Completed, Some(report)) = (outcome.status, outcome.report.as_ref()) {
            artifact::save_report_styled(&run_dir, &outcome.spec.id(), report, persist.style)?;
        }
    }
    let mut manifest = RunManifest::from_outcomes(
        run,
        experiment_keys,
        params.ops,
        params.seed,
        options.resolved_jobs(),
        wall,
        &outcomes,
    );
    // Resumed cases carry their *prior* durations (useful in the record)
    // but did no work this invocation; speedup must not count them.
    if !resumed_idx.is_empty() {
        let fresh_ms: u64 = outcomes
            .iter()
            .enumerate()
            .filter(|(i, _)| !resumed_idx.contains(i))
            .map(|(_, o)| o.duration.as_millis() as u64)
            .sum();
        manifest.speedup = fresh_ms as f64 / manifest.wall_ms.max(1) as f64;
    }
    manifest.save(&run_dir)?;

    let results: ResultSet = outcomes
        .iter()
        .filter_map(|o| o.report.clone().map(|r| (o.spec.id(), r)))
        .collect();
    let resumed_total = cases.len() - to_run.len();
    let failed = outcomes
        .iter()
        .filter(|o| o.status == CaseStatus::Failed)
        .count();
    let timed_out = outcomes
        .iter()
        .filter(|o| o.status == CaseStatus::TimedOut)
        .count();
    Ok(ExecReport {
        ran: to_run.len(),
        resumed: resumed_total,
        failed,
        timed_out,
        results,
        manifest,
        run_dir,
        outcomes,
    })
}

/// A finished sweep: execution plus table assembly.
#[derive(Debug)]
pub struct SweepSummary {
    /// Execution record (outcomes, manifest, counts).
    pub exec: ExecReport,
    /// Experiments whose tables could not be assembled because a needed
    /// case failed or was skipped.
    pub incomplete: Vec<&'static str>,
    /// CSV paths written, in registry order.
    pub csv_paths: Vec<PathBuf>,
}

/// Resolves `keys` against the registry, preserving order.
fn resolve(keys: &[String]) -> Result<Vec<Experiment>, String> {
    let reg = registry();
    keys.iter()
        .map(|k| {
            reg.iter()
                .find(|e| e.key == *k)
                .copied()
                .ok_or_else(|| format!("unknown experiment `{k}` (try --list)"))
        })
        .collect()
}

/// Runs a full sweep: dedup cases across the selected experiments,
/// execute, persist manifest + artifacts, assemble and save each
/// experiment's table.
///
/// # Errors
///
/// Returns `InvalidInput` for unknown experiment keys and any underlying
/// I/O error from persisting artifacts, manifests or CSVs.
pub fn run_sweep(cfg: &SweepConfig) -> io::Result<SweepSummary> {
    let experiments =
        resolve(&cfg.experiments).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;

    // The union of every experiment's cases, first-seen order.
    let mut seen = HashSet::new();
    let mut cases: Vec<CaseSpec> = Vec::new();
    for exp in &experiments {
        for case in exp.cases(cfg.params) {
            if seen.insert(case.id()) {
                cases.push(case);
            }
        }
    }

    let exec = execute_cases(
        &cases,
        &cfg.run,
        &cfg.out_root,
        experiments.iter().map(|e| e.key.to_string()).collect(),
        cfg.params,
        &cfg.options,
        PersistOptions {
            resume: cfg.resume,
            style: if cfg.compact_artifacts {
                artifact::ArtifactStyle::Compact
            } else {
                artifact::ArtifactStyle::Pretty
            },
        },
    )?;

    let mut incomplete = Vec::new();
    let mut csv_paths = Vec::new();
    for exp in &experiments {
        let needed = exp.cases(cfg.params);
        if needed.iter().any(|c| !exec.results.contains_key(&c.id())) {
            incomplete.push(exp.key);
            if cfg.print_tables {
                eprintln!(
                    "[{} not assembled: missing or failed cases — see {}]",
                    exp.key,
                    RunManifest::path(&exec.run_dir).display()
                );
            }
            continue;
        }
        let assembled = exp.assemble(cfg.params, &exec.results);
        std::fs::create_dir_all(&cfg.out_root)?;
        let path = cfg.out_root.join(format!("{}.csv", exp.csv));
        std::fs::write(&path, assembled.table.to_csv())?;
        if cfg.print_tables {
            assembled.table.print();
            println!("[saved {}]", path.display());
            if let Some(note) = &assembled.note {
                println!("{note}");
            }
        }
        csv_paths.push(path);
    }

    Ok(SweepSummary {
        exec,
        incomplete,
        csv_paths,
    })
}

/// Entry point shared by the ported per-experiment binaries
/// (`exp_perf_vs_coverage` & co.): run exactly one experiment on the
/// parallel harness, honoring the common command-line flags.
pub fn run_single_experiment_cli(key: &str) -> ExitCode {
    let mut cfg = SweepConfig::new(vec![key.to_string()], key);
    match apply_common_flags(&mut cfg, std::env::args().skip(1)) {
        Ok(FlagOutcome::Proceed) => {}
        Ok(FlagOutcome::Exit) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    finish_sweep(&cfg)
}

/// Runs a configured sweep and maps the outcome to an exit code,
/// printing the closing summary line.
pub fn finish_sweep(cfg: &SweepConfig) -> ExitCode {
    match run_sweep(cfg) {
        Ok(summary) => {
            let m = &summary.exec.manifest;
            let timeouts = if summary.exec.timed_out > 0 {
                format!(", {} timed out", summary.exec.timed_out)
            } else {
                String::new()
            };
            eprintln!(
                "run `{}`: {} cases ({} ran, {} resumed, {} failed{timeouts}) in {:.1}s wall, {:.2}x speedup on {} workers; manifest {}",
                m.run,
                m.cases.len(),
                summary.exec.ran,
                summary.exec.resumed,
                summary.exec.failed,
                m.wall_ms as f64 / 1000.0,
                m.speedup,
                m.jobs,
                RunManifest::path(&summary.exec.run_dir).display(),
            );
            if summary.exec.failed > 0
                || summary.exec.timed_out > 0
                || !summary.incomplete.is_empty()
            {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Whether flag parsing wants the process to continue or exit cleanly
/// (e.g. after `--help`).
pub enum FlagOutcome {
    /// Run the sweep.
    Proceed,
    /// Flags fully handled (help/list); exit success.
    Exit,
}

/// Common flags shared by `sweep` and the per-experiment binaries.
pub fn common_usage() -> &'static str {
    "  --jobs <n>           worker threads (default: all cores; STASHDIR_JOBS)\n\
     \x20 --ops <n>            operations per core (default 10000; STASHDIR_OPS)\n\
     \x20 --seed <n>           workload seed (default 7; STASHDIR_SEED)\n\
     \x20 --run <name>         run directory name under results/\n\
     \x20 --out <dir>          output root (default results/)\n\
     \x20 --resume             skip cases completed in the run's manifest\n\
     \x20 --compact-artifacts  single-line per-case JSON (smaller runs)\n\
     \x20 --fail-fast          cancel remaining cases after the first failure\n\
     \x20 --timeout-secs <n>   per-case wall-clock budget; over-budget cases\n\
     \x20                      are recorded timed_out and abandoned\n\
     \x20 --retries <n>        extra attempts for failed/timed-out cases\n\
     \x20 --backoff-ms <n>     base backoff between attempts (default 0)\n\
     \x20 --no-progress        suppress the live progress line\n\
     \x20 --inject-panic <s>   test hook: panic in cases whose id contains <s>\n\
     \x20 --help               this text"
}

/// Applies the common flag set to `cfg`. Unknown flags are errors.
///
/// # Errors
///
/// Returns a usage/error message for unknown flags or malformed values.
pub fn apply_common_flags(
    cfg: &mut SweepConfig,
    args: impl Iterator<Item = String>,
) -> Result<FlagOutcome, String> {
    let mut it = args;
    while let Some(flag) = it.next() {
        match parse_one_common_flag(cfg, &flag, &mut it)? {
            Some(FlagOutcome::Exit) => return Ok(FlagOutcome::Exit),
            Some(FlagOutcome::Proceed) => {}
            None => return Err(format!("unknown flag {flag}\n{}", common_usage())),
        }
    }
    Ok(FlagOutcome::Proceed)
}

/// Tries to consume one common flag; `Ok(None)` means "not a common
/// flag" (the sweep binary layers its own on top).
///
/// # Errors
///
/// Returns a message for malformed values.
pub fn parse_one_common_flag(
    cfg: &mut SweepConfig,
    flag: &str,
    it: &mut impl Iterator<Item = String>,
) -> Result<Option<FlagOutcome>, String> {
    let mut value = |name: &str| {
        it.next()
            .ok_or_else(|| format!("{name} needs a value\n{}", common_usage()))
    };
    match flag {
        "--jobs" => {
            cfg.options.jobs = value("--jobs")?
                .parse()
                .map_err(|e| format!("bad --jobs: {e}"))?;
        }
        "--ops" => {
            cfg.params.ops = value("--ops")?
                .parse()
                .map_err(|e| format!("bad --ops: {e}"))?;
        }
        "--seed" => {
            cfg.params.seed = value("--seed")?
                .parse()
                .map_err(|e| format!("bad --seed: {e}"))?;
        }
        "--run" => cfg.run = value("--run")?,
        "--out" => cfg.out_root = PathBuf::from(value("--out")?),
        "--resume" => cfg.resume = true,
        "--compact-artifacts" => cfg.compact_artifacts = true,
        "--fail-fast" => cfg.options.fail_fast = true,
        "--timeout-secs" => {
            let secs: u64 = value("--timeout-secs")?
                .parse()
                .map_err(|e| format!("bad --timeout-secs: {e}"))?;
            cfg.options.timeout = Some(Duration::from_secs(secs));
        }
        "--retries" => {
            cfg.options.retries = value("--retries")?
                .parse()
                .map_err(|e| format!("bad --retries: {e}"))?;
        }
        "--backoff-ms" => {
            let ms: u64 = value("--backoff-ms")?
                .parse()
                .map_err(|e| format!("bad --backoff-ms: {e}"))?;
            cfg.options.backoff = Duration::from_millis(ms);
        }
        "--no-progress" => cfg.options.progress = false,
        "--inject-panic" => cfg.options.inject_panic = Some(value("--inject-panic")?),
        "--help" | "-h" => {
            println!("usage: [options]\n{}", common_usage());
            return Ok(Some(FlagOutcome::Exit));
        }
        _ => return Ok(None),
    }
    Ok(Some(FlagOutcome::Proceed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stashdir::{CoverageRatio, DirSpec, SystemConfig, Workload};

    fn tmp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("stashdir_runner_{tag}_{}", std::process::id()))
    }

    fn small_cases(n: u64) -> Vec<CaseSpec> {
        (0..n)
            .map(|i| {
                CaseSpec::new(
                    SystemConfig::default()
                        .with_cores(4)
                        .with_dir(DirSpec::stash(CoverageRatio::new(1, 8))),
                    Workload::Uniform,
                    40,
                    i,
                )
            })
            .collect()
    }

    #[test]
    fn execute_writes_manifest_and_artifacts() {
        let root = tmp_root("exec");
        let cases = small_cases(3);
        let rep = execute_cases(
            &cases,
            "r1",
            &root,
            vec!["x".into()],
            Params { ops: 40, seed: 0 },
            &RunOptions {
                jobs: 2,
                ..Default::default()
            },
            PersistOptions {
                resume: false,
                style: artifact::ArtifactStyle::Compact,
            },
        )
        .unwrap();
        assert_eq!(rep.ran, 3);
        assert_eq!(rep.resumed, 0);
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.results.len(), 3);
        assert!(RunManifest::path(&rep.run_dir).exists());
        for c in &cases {
            assert!(artifact::case_path(&rep.run_dir, &c.id()).exists());
        }
        // Second invocation with resume touches nothing.
        let rep2 = execute_cases(
            &cases,
            "r1",
            &root,
            vec!["x".into()],
            Params { ops: 40, seed: 0 },
            &RunOptions::default(),
            PersistOptions {
                resume: true,
                style: artifact::ArtifactStyle::Pretty,
            },
        )
        .unwrap();
        assert_eq!(rep2.resumed, 3);
        assert_eq!(rep2.ran, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn flags_apply() {
        let mut cfg = SweepConfig::new(vec!["traffic".into()], "t");
        let args = [
            "--jobs",
            "3",
            "--ops",
            "123",
            "--seed",
            "9",
            "--resume",
            "--fail-fast",
            "--no-progress",
            "--run",
            "other",
            "--inject-panic",
            "zzz",
            "--timeout-secs",
            "30",
            "--retries",
            "2",
            "--backoff-ms",
            "250",
        ]
        .iter()
        .map(|s| s.to_string());
        assert!(matches!(
            apply_common_flags(&mut cfg, args),
            Ok(FlagOutcome::Proceed)
        ));
        assert_eq!(cfg.options.jobs, 3);
        assert_eq!(cfg.params.ops, 123);
        assert_eq!(cfg.params.seed, 9);
        assert!(cfg.resume);
        assert!(cfg.options.fail_fast);
        assert!(!cfg.options.progress);
        assert_eq!(cfg.run, "other");
        assert_eq!(cfg.options.inject_panic.as_deref(), Some("zzz"));
        assert_eq!(cfg.options.timeout, Some(Duration::from_secs(30)));
        assert_eq!(cfg.options.retries, 2);
        assert_eq!(cfg.options.backoff, Duration::from_millis(250));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let mut cfg = SweepConfig::new(vec![], "t");
        assert!(apply_common_flags(&mut cfg, ["--bogus".to_string()].into_iter()).is_err());
    }

    #[test]
    fn unknown_experiment_key_is_invalid_input() {
        let mut cfg = SweepConfig::new(vec!["not_a_thing".into()], "t");
        cfg.print_tables = false;
        cfg.out_root = tmp_root("badkey");
        let err = run_sweep(&cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&cfg.out_root).ok();
    }
}
