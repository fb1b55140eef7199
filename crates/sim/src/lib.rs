//! A tiled-CMP discrete-event simulator for evaluating coherence
//! directories — the substrate on which the Stash Directory (HPCA 2014)
//! reproduction runs its experiments.
//!
//! # Machine model
//!
//! `N` tiles in a 2-D mesh. Each tile has an in-order, trace-driven core
//! with a private L1 and private L2 (L2 inclusive of L1, coherence kept at
//! L2), plus one bank of the shared, inclusive LLC with its co-located
//! directory slice. Blocks are address-interleaved across banks; a block's
//! bank is its **home**. Off-chip DRAM hangs off the banks.
//!
//! # Simulation discipline
//!
//! The engine is event-driven, but each coherence transaction is computed
//! *procedurally and atomically* inside the handler that starts it: the
//! handler walks the whole message exchange (request → probes → replies →
//! data), calling the NoC model for every leg to obtain arrival times, and
//! applies all state changes immediately, in event order. Per-block
//! busy-windows at the home enforce transaction serialization in *time*,
//! while event order enforces it in *program order*. Point-to-point
//! channels are FIFO (arrival times are clamped monotonic per
//! source/destination pair), which closes the classic
//! writeback-overtaken-by-refetch race.
//!
//! This discipline trades a small amount of timing fidelity (probes take
//! effect in program order slightly before their modeled arrival) for a
//! protocol engine whose correctness is easy to state and test: see
//! [`checker`] for the machine-wide invariants verified during and after
//! every run.
//!
//! # Examples
//!
//! ```
//! use stashdir_common::{BlockAddr, MemOp};
//! use stashdir_sim::{Machine, SystemConfig};
//!
//! // Two cores ping-pong a block; default 16-core machine.
//! let config = SystemConfig::default();
//! let mut traces = vec![Vec::new(); config.cores as usize];
//! for i in 0..100u64 {
//!     traces[0].push(MemOp::write(BlockAddr::new(i % 4)));
//!     traces[1].push(MemOp::read(BlockAddr::new(i % 4)));
//! }
//! let report = Machine::new(config).run(traces);
//! assert!(report.cycles > 0);
//! assert_eq!(report.completed_ops, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod bank;
pub mod checker;
pub mod config;
pub mod event;
pub mod fault;
mod live;
pub mod machine;
pub mod private;
pub mod report;
pub mod values;

pub use config::{CoverageRatio, DirSpec, SystemConfig};
pub use fault::{
    expected_detector, Detector, FaultBurst, FaultClass, FaultConfig, FaultPlan, FaultSummary,
    TAXONOMY,
};
pub use machine::Machine;
pub use report::{SimReport, TransitionHits};
