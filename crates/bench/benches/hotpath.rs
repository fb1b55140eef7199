//! The hot-path benchmark gate: microbenches of the inner-loop
//! structures this repo optimized — event diagnostics, message
//! arena allocation, batched bank stepping, directory lookup keys,
//! occupancy-proportional set storage, and stat bumping — plus scaled-down E9 macro points (64 and 256 cores),
//! with a JSON baseline (`BENCH_sim_hotpath.json` at the repo root)
//! and a `--check` mode that fails on regression.
//!
//! Each optimized structure is benchmarked **next to its legacy
//! implementation** (the pre-overhaul string ring, SipHash map, and
//! string-keyed `BTreeMap` bump), so the committed JSON carries
//! baseline *and* post-change medians and the claimed improvement can
//! be re-verified on any host from one file.
//!
//! ```sh
//! # Run and print:
//! cargo bench -p stashdir-bench --bench hotpath
//! # Refresh the committed baseline:
//! cargo bench -p stashdir-bench --bench hotpath -- --record
//! # The CI gate (fails on >10% regression vs the committed file):
//! cargo bench -p stashdir-bench --bench hotpath -- --check
//! ```

use criterion::{BenchResult, Criterion};
use stashdir::common::json::Value;
use stashdir::common::{BlockAddr, Cycle, DetRng, FxHashMap, StatSink};
use stashdir::mem::{ReplKind, SetAssoc};
use stashdir::sim::arena::Arena;
use stashdir::sim::event::EventQueue;
use stashdir::{CoverageRatio, DirConfig, DirSpec, SystemConfig, Workload};
use stashdir_harness::{run_case, Params};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::process::ExitCode;

/// Committed baseline location (repo root).
fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim_hotpath.json")
}

/// Allowed regression of any median before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.10;

/// Required speedup of the new implementation over its legacy twin on
/// at least one of the event-dispatch / stat-bump microbenches.
const REQUIRED_IMPROVEMENT: f64 = 0.20;

/// A stand-in for the simulator's `Event` payload (same shape/size as
/// `machine::Event`'s larger variant).
#[derive(Debug, Clone, Copy)]
#[allow(dead_code)]
enum BenchEvent {
    Issue(u16),
    Msg { from: u16, block: u64, version: u64 },
}

const RING_DEPTH: usize = 32;

fn bench_event_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_dispatch");
    // Legacy: every noted event renders a Debug string into a VecDeque
    // (the pre-overhaul `recent_events` trail).
    group.bench_function("legacy_string_ring", |b| {
        let mut ring: VecDeque<String> = VecDeque::new();
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            let event = BenchEvent::Msg {
                from: (cycle % 64) as u16,
                block: cycle * 7,
                version: cycle,
            };
            if ring.len() == RING_DEPTH {
                ring.pop_front();
            }
            ring.push_back(format!("{cycle}: {event:?}"));
            black_box(ring.len())
        });
    });
    // Post: store the `(cycle, event)` value in a fixed ring; format
    // only at quiesce (outside the loop).
    group.bench_function("value_ring", |b| {
        let mut ring: Vec<(u64, BenchEvent)> = Vec::with_capacity(RING_DEPTH);
        let mut head = 0usize;
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            let event = BenchEvent::Msg {
                from: (cycle % 64) as u16,
                block: cycle * 7,
                version: cycle,
            };
            if ring.len() < RING_DEPTH {
                ring.push((cycle, event));
            } else {
                ring[head] = (cycle, event);
                head = (head + 1) % RING_DEPTH;
            }
            black_box(ring.len())
        });
    });
    group.finish();
}

/// Stand-in for `machine::BankMsg` (same shape/size as the simulator's
/// in-flight message payload).
#[derive(Debug, Clone, Copy)]
#[allow(dead_code)]
struct BenchMsg {
    from: u16,
    block: u64,
    version: u64,
}

/// Same-cycle events per wave — a whole machine's banks firing at once,
/// the shape the SoA overhaul batches (one wave ≈ one cycle at 64
/// cores).
const WAVE: usize = 64;

fn wave_msg(cycle: u64, i: usize) -> BenchMsg {
    BenchMsg {
        from: (i % WAVE) as u16,
        block: cycle.wrapping_mul(7).wrapping_add(i as u64),
        version: cycle,
    }
}

fn bench_msg_arena(c: &mut Criterion) {
    let mut group = c.benchmark_group("msg_arena");
    // Legacy: one heap allocation per in-flight message, freed at pop,
    // with the pointer carried through every heap sift.
    group.bench_function("boxed", |b| {
        let mut queue: EventQueue<Box<BenchMsg>> = EventQueue::new();
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            for i in 0..WAVE {
                queue.push(Cycle::new(cycle), Box::new(wave_msg(cycle, i)));
            }
            let mut sum = 0u64;
            while let Some((_, msg)) = queue.pop() {
                sum = sum.wrapping_add(msg.version);
            }
            black_box(sum)
        });
    });
    // Post: payloads live in a generation-checked slab; the queue holds
    // 8-byte handles, and freed slots recycle through the freelist so
    // steady state allocates nothing.
    group.bench_function("slab_handles", |b| {
        let mut queue: EventQueue<stashdir::sim::arena::SlabRef> = EventQueue::new();
        let mut arena: Arena<BenchMsg> = Arena::new();
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            for i in 0..WAVE {
                let slot = arena.alloc(wave_msg(cycle, i));
                queue.push(Cycle::new(cycle), slot);
            }
            let mut sum = 0u64;
            while let Some((_, slot)) = queue.pop() {
                if let Some(msg) = arena.take(slot) {
                    sum = sum.wrapping_add(msg.version);
                }
            }
            black_box(sum)
        });
    });
    group.finish();
}

fn bench_bank_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("bank_step");
    // Legacy: one heap pop (full sift) per event, even when a whole
    // wave of bank messages lands on the same cycle.
    group.bench_function("pop_per_event", |b| {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            for i in 0..WAVE as u32 {
                queue.push(Cycle::new(cycle), i);
            }
            let mut sum = 0u32;
            while let Some((_, e)) = queue.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        });
    });
    // Post: drain the whole cycle into a reused contiguous buffer and
    // walk it linearly (`pop_batch`), amortizing the heap churn.
    group.bench_function("pop_batch", |b| {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut buf: Vec<u32> = Vec::new();
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            for i in 0..WAVE as u32 {
                queue.push(Cycle::new(cycle), i);
            }
            let mut sum = 0u32;
            while queue.pop_batch(&mut buf).is_some() {
                for &e in &buf {
                    sum = sum.wrapping_add(e);
                }
            }
            black_box(sum)
        });
    });
    group.finish();
}

fn bench_dir_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("dir_lookup");
    group.bench_function("stash8_install_lookup", |b| {
        let dir = DirConfig::stash(64, 8).build(1);
        let mut rng = DetRng::seed_from(2);
        b.iter(|| {
            let block = BlockAddr::new(rng.below(4096));
            black_box(dir.lookup(block));
        });
    });
    // The key-hashing swap, isolated: the same block-keyed map traffic
    // through std's SipHash vs the hand-rolled FxHash.
    group.bench_function("block_map_siphash", |b| {
        let mut map: HashMap<BlockAddr, u64> = HashMap::new();
        for i in 0..4096u64 {
            map.insert(BlockAddr::new(i), i);
        }
        let mut rng = DetRng::seed_from(3);
        b.iter(|| black_box(map.get(&BlockAddr::new(rng.below(8192)))));
    });
    group.bench_function("block_map_fxhash", |b| {
        let mut map: FxHashMap<BlockAddr, u64> = FxHashMap::default();
        for i in 0..4096u64 {
            map.insert(BlockAddr::new(i), i);
        }
        let mut rng = DetRng::seed_from(3);
        b.iter(|| black_box(map.get(&BlockAddr::new(rng.below(8192)))));
    });
    group.finish();
}

fn bench_set_assoc(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_assoc");
    // One LLC bank of the 1024-core E20 point: a 1024-set x 16-way LRU
    // array built from nothing and filled with ~650 lines, about two per
    // touched set (two address regions that share their set indices),
    // each fill followed by a lookup. The last 1023 banks built stay
    // alive, as the rest of the machine's LLC does, so every fill lands
    // in the memory footprint of a whole 1024-bank LLC; the oldest bank
    // is dropped inside the timed iteration.
    group.bench_function("sparse_llc_1024x16", |b| {
        let mut banks: VecDeque<SetAssoc<[u64; 2]>> = VecDeque::with_capacity(1024);
        b.iter(|| {
            if banks.len() == 1024 {
                banks.pop_front();
            }
            let mut llc = SetAssoc::new(1024, 16, ReplKind::Lru, 5);
            for i in 0..650u64 {
                let block = BlockAddr::new(((i % 2) << 20) | (i / 2));
                llc.insert(block, [i, i]);
                black_box(llc.get(block));
            }
            banks.push_back(llc);
        });
    });
    group.finish();
}

const STAT_KEYS: [&str; 8] = [
    "l1.hits",
    "l1.misses",
    "l2.hits",
    "l2.misses",
    "llc.hits",
    "dir.lookups",
    "noc.flit_hops",
    "dram.accesses",
];

fn bench_stat_bump(c: &mut Criterion) {
    let mut group = c.benchmark_group("stat_bump");
    // Legacy: every bump walks a string-keyed BTreeMap (the
    // pre-overhaul `StatSink` representation).
    group.bench_function("string_btreemap", |b| {
        let mut sink: BTreeMap<String, f64> = BTreeMap::new();
        let mut i = 0usize;
        b.iter(|| {
            let key = STAT_KEYS[i % STAT_KEYS.len()];
            i += 1;
            *sink.entry(key.to_string()).or_insert(0.0) += 1.0;
            black_box(sink.len())
        });
    });
    // Post: one-time interning, then a dense-vector add per bump.
    group.bench_function("interned", |b| {
        let mut sink = StatSink::new();
        let ids: Vec<_> = STAT_KEYS.iter().map(|k| sink.register(*k)).collect();
        let mut i = 0usize;
        b.iter(|| {
            let id = ids[i % ids.len()];
            i += 1;
            sink.bump(id, 1.0);
            black_box(sink.len())
        });
    });
    group.finish();
}

fn bench_macro_e9(c: &mut Criterion) {
    let mut group = c.benchmark_group("macro");
    // A scaled-down E9 point: the 64-core stash@1/8 Stencil case with a
    // tiny op budget — the full simulator stack (caches, directory,
    // NoC, DRAM, checker) end to end.
    group.bench_function("e9_64c_stash8_scaled", |b| {
        let config = SystemConfig::default()
            .with_cores(64)
            .with_dir(DirSpec::stash(CoverageRatio::new(1, 8)));
        b.iter(|| {
            let report = run_case(
                config.clone(),
                Workload::Stencil,
                Params { ops: 25, seed: 7 },
            );
            black_box(report.cycles)
        });
    });
    // The XL point the SoA overhaul unlocked: 256 cores through the
    // same stack (E20's second grid column), op budget scaled down to
    // keep the gate quick.
    group.bench_function("e9_256c_stash8_scaled", |b| {
        let config = SystemConfig::default()
            .with_cores(256)
            .with_dir(DirSpec::stash(CoverageRatio::new(1, 8)));
        b.iter(|| {
            let report = run_case(
                config.clone(),
                Workload::DataParallel,
                Params { ops: 10, seed: 7 },
            );
            black_box(report.cycles)
        });
    });
    group.finish();
}

fn results_to_json(results: &[BenchResult]) -> Value {
    let benches = results
        .iter()
        .map(|r| {
            (
                r.label(),
                Value::object(vec![
                    ("median_ns".into(), r.median_ns.into()),
                    ("mean_ns".into(), r.mean_ns.into()),
                    ("iters".into(), r.iters.into()),
                ]),
            )
        })
        .collect();
    Value::object(vec![
        ("schema".into(), "stashdir/bench-hotpath/v1".into()),
        ("benches".into(), Value::object(benches)),
    ])
}

fn median_of(results: &[BenchResult], label: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| r.label() == label)
        .map(|r| r.median_ns)
}

/// The measured-improvement assertion: the overhauled implementation
/// must beat its legacy twin by ≥20% on event dispatch or stat bumping.
fn check_improvement(results: &[BenchResult]) -> Result<(), String> {
    let pairs = [
        (
            "event_dispatch",
            "event_dispatch/legacy_string_ring",
            "event_dispatch/value_ring",
        ),
        (
            "stat_bump",
            "stat_bump/string_btreemap",
            "stat_bump/interned",
        ),
        ("msg_arena", "msg_arena/boxed", "msg_arena/slab_handles"),
        (
            "bank_step",
            "bank_step/pop_per_event",
            "bank_step/pop_batch",
        ),
    ];
    let mut best = f64::MIN;
    for (name, legacy, new) in pairs {
        let (Some(old), Some(new_ns)) = (median_of(results, legacy), median_of(results, new))
        else {
            return Err(format!("missing {name} results"));
        };
        let improvement = 1.0 - new_ns / old;
        println!(
            "gate: {name}: legacy {old:.1} ns -> new {new_ns:.1} ns ({:+.1}%)",
            -improvement * 100.0
        );
        best = best.max(improvement);
    }
    if best >= REQUIRED_IMPROVEMENT {
        Ok(())
    } else {
        Err(format!(
            "no hot-path microbench improved by ≥{:.0}% (best {:.1}%)",
            REQUIRED_IMPROVEMENT * 100.0,
            best * 100.0
        ))
    }
}

fn check_against_baseline(results: &[BenchResult]) -> Result<(), String> {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading {}: {e} (run with --record first)", path.display()))?;
    let value = Value::parse(&text).map_err(|e| format!("parsing baseline: {e:?}"))?;
    let benches = value
        .get("benches")
        .and_then(|b| b.as_object())
        .ok_or("baseline has no benches section")?;
    let mut failures = Vec::new();
    for (label, entry) in benches {
        let Some(baseline_median) = entry.get("median_ns").and_then(Value::as_f64) else {
            continue;
        };
        let Some(current) = median_of(results, label) else {
            failures.push(format!("bench {label} present in baseline but not run"));
            continue;
        };
        let ratio = current / baseline_median;
        let verdict = if ratio > 1.0 + REGRESSION_TOLERANCE {
            failures.push(format!(
                "{label}: {current:.1} ns vs baseline {baseline_median:.1} ns ({:+.1}%)",
                (ratio - 1.0) * 100.0
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "check: {label:<42} {current:>10.1} ns (baseline {baseline_median:.1}, {:+5.1}%) {verdict}",
            (ratio - 1.0) * 100.0
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} bench(es) regressed >{:.0}%:\n  {}",
            failures.len(),
            REGRESSION_TOLERANCE * 100.0,
            failures.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let record = args.iter().any(|a| a == "--record");
    let check = args.iter().any(|a| a == "--check");

    let mut criterion = Criterion::default();
    bench_event_dispatch(&mut criterion);
    bench_msg_arena(&mut criterion);
    bench_bank_step(&mut criterion);
    bench_dir_lookup(&mut criterion);
    bench_set_assoc(&mut criterion);
    bench_stat_bump(&mut criterion);
    bench_macro_e9(&mut criterion);
    let results = criterion.results();

    if let Err(e) = check_improvement(results) {
        eprintln!("hotpath gate: {e}");
        return ExitCode::FAILURE;
    }

    if record {
        let path = baseline_path();
        let mut text = results_to_json(results).render_pretty();
        if !text.ends_with('\n') {
            text.push('\n');
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("hotpath gate: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("hotpath gate: baseline written to {}", path.display());
    }

    if check {
        if let Err(e) = check_against_baseline(results) {
            eprintln!("hotpath gate: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "hotpath gate: no regression beyond {:.0}%",
            REGRESSION_TOLERANCE * 100.0
        );
    }

    ExitCode::SUCCESS
}
