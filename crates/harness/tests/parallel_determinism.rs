//! Integration tests for the tentpole guarantees of the harness:
//!
//! 1. **Parallel = serial, byte for byte.** A plan run through the
//!    work-stealing pool yields `SimReport` JSON identical to the same
//!    cases run one at a time on one thread.
//! 2. **Panic isolation + resume.** An injected per-case panic is
//!    recorded as `failed` in the manifest while every other case
//!    completes; re-invoking with resume re-runs *only* the failed case
//!    and leaves the artifacts of resumed cases untouched.

use stashdir::{CoverageRatio, DirSpec, SystemConfig, Workload};
use stashdir_harness::artifact::{case_path, report_to_json, ArtifactStyle};
use stashdir_harness::runner::{execute_cases, PersistOptions};
use stashdir_harness::{run_cases, CaseStatus, ExperimentPlan, Params, RunManifest, RunOptions};
use std::path::PathBuf;

/// A 2 schemes x 2 workloads x 2 seeds plan on a small 4-core machine,
/// sized so the whole file runs in seconds.
fn small_plan() -> ExperimentPlan {
    ExperimentPlan::new("itest", SystemConfig::default().with_cores(4), 200)
        .dirs(vec![
            DirSpec::sparse(CoverageRatio::new(1, 4)),
            DirSpec::stash(CoverageRatio::new(1, 8)),
        ])
        .workloads(vec![Workload::Uniform, Workload::ProducerConsumer])
        .seeds(vec![7, 1234])
}

fn tmp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("stashdir_itest_{tag}_{}", std::process::id()))
}

#[test]
fn parallel_pool_matches_serial_byte_for_byte() {
    let cases = small_plan().expand();
    assert_eq!(cases.len(), 8);

    let parallel = run_cases(
        &cases,
        &RunOptions {
            jobs: 4,
            ..Default::default()
        },
    );
    let serial = run_cases(
        &cases,
        &RunOptions {
            jobs: 1,
            ..Default::default()
        },
    );

    for ((spec, par), ser) in cases.iter().zip(&parallel).zip(&serial) {
        assert_eq!(par.status, CaseStatus::Completed, "{}", spec.id());
        assert_eq!(ser.status, CaseStatus::Completed, "{}", spec.id());
        let par_json = report_to_json(par.report.as_ref().unwrap()).render_pretty();
        let ser_json = report_to_json(ser.report.as_ref().unwrap()).render_pretty();
        assert_eq!(
            par_json,
            ser_json,
            "parallel and serial reports diverge for {}",
            spec.id()
        );
    }
}

#[test]
fn injected_panic_is_failed_in_manifest_and_resume_reruns_only_it() {
    let root = tmp_root("resume");
    std::fs::remove_dir_all(&root).ok();
    let cases = small_plan().expand();
    let victim = cases[3].id();
    let params = Params { ops: 200, seed: 7 };

    // First invocation: one case panics, the rest must complete.
    let first = execute_cases(
        &cases,
        "run",
        &root,
        vec!["itest".into()],
        params,
        &RunOptions {
            jobs: 2,
            inject_panic: Some(victim.clone()),
            ..Default::default()
        },
        PersistOptions {
            resume: false,
            style: ArtifactStyle::Pretty,
        },
    )
    .unwrap();
    assert_eq!(first.failed, 1);
    assert_eq!(first.ran, cases.len());
    assert_eq!(first.results.len(), cases.len() - 1);

    let manifest = RunManifest::load(&first.run_dir).expect("manifest written");
    for record in &manifest.cases {
        if record.id == victim {
            assert_eq!(record.status, CaseStatus::Failed);
            assert!(
                record.error.as_deref().unwrap().contains("injected fault"),
                "failed record carries the panic message"
            );
        } else {
            assert_eq!(record.status, CaseStatus::Completed, "{}", record.id);
        }
    }

    // Resume without the fault: only the failed case re-runs.
    let second = execute_cases(
        &cases,
        "run",
        &root,
        vec!["itest".into()],
        params,
        &RunOptions {
            jobs: 2,
            ..Default::default()
        },
        PersistOptions {
            resume: true,
            style: ArtifactStyle::Pretty,
        },
    )
    .unwrap();
    assert_eq!(second.resumed, cases.len() - 1, "completed cases skipped");
    assert_eq!(second.ran, 1, "only the failed case re-ran");
    assert_eq!(second.failed, 0);
    assert_eq!(second.results.len(), cases.len());

    let healed = RunManifest::load(&second.run_dir).unwrap();
    assert!(healed
        .cases
        .iter()
        .all(|c| c.status == CaseStatus::Completed));

    // The re-run case's artifact matches a from-scratch simulation.
    let fresh = run_cases(&[cases[3].clone()], &RunOptions::default());
    let fresh_json = report_to_json(fresh[0].report.as_ref().unwrap()).render_pretty();
    let resumed_json = report_to_json(&second.results[&victim]).render_pretty();
    assert_eq!(fresh_json, resumed_json);

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn resume_reruns_cases_whose_digest_changed() {
    let root = tmp_root("digest");
    std::fs::remove_dir_all(&root).ok();
    let params = Params { ops: 100, seed: 7 };
    let before = small_plan().expand();
    execute_cases(
        &before,
        "run",
        &root,
        vec![],
        params,
        &RunOptions::default(),
        PersistOptions {
            resume: false,
            style: ArtifactStyle::Pretty,
        },
    )
    .unwrap();

    // Same ids would collide only if the config digest matched; a changed
    // hidden knob must force a re-run even with the manifest present.
    let changed: Vec<_> = before
        .iter()
        .map(|c| {
            let mut spec = c.clone();
            spec.config.notify_clean_evictions = false;
            spec
        })
        .collect();
    let rep = execute_cases(
        &changed,
        "run",
        &root,
        vec![],
        params,
        &RunOptions::default(),
        PersistOptions {
            resume: true,
            style: ArtifactStyle::Pretty,
        },
    )
    .unwrap();
    assert_eq!(rep.resumed, 0, "changed configs must not resume");
    assert_eq!(rep.ran, changed.len());

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn resume_leaves_resumed_artifacts_untouched() {
    let root = tmp_root("untouched");
    std::fs::remove_dir_all(&root).ok();
    let params = Params { ops: 100, seed: 7 };
    let cases = small_plan().expand();
    let persist = |resume| PersistOptions {
        resume,
        style: ArtifactStyle::Pretty,
    };
    execute_cases(
        &cases,
        "run",
        &root,
        vec![],
        params,
        &RunOptions::default(),
        persist(false),
    )
    .unwrap();

    // Back-date every artifact so a rewrite would show in its mtime
    // whatever the filesystem's timestamp resolution.
    let stamp = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
    let run_dir = root.join("run");
    let before: Vec<(PathBuf, Vec<u8>)> = cases
        .iter()
        .map(|c| {
            let path = case_path(&run_dir, &c.id());
            let file = std::fs::File::options().write(true).open(&path).unwrap();
            file.set_modified(stamp).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();

    let rep = execute_cases(
        &cases,
        "run",
        &root,
        vec![],
        params,
        &RunOptions::default(),
        persist(true),
    )
    .unwrap();
    assert_eq!(rep.resumed, cases.len(), "every case resumes");
    assert_eq!(rep.ran, 0);
    for (path, bytes) in before {
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{}", path.display());
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        assert_eq!(mtime, stamp, "{} was rewritten", path.display());
    }

    std::fs::remove_dir_all(&root).ok();
}
