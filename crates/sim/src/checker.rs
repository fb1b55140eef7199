//! Machine-wide coherence and consistency invariants.
//!
//! The checker runs over a quiesced machine snapshot — which, under the
//! simulator's program-order discipline, is *every* point between event
//! handlers — and verifies the invariants DESIGN.md commits to:
//!
//! * **I1/I2 (directory coverage)**: every valid private copy is named by
//!   its home directory entry, or (stash directory only) hidden under a
//!   set stash bit.
//! * **I3 (single writer)**: at most one E/M copy of a block exists, and
//!   it excludes all other valid copies.
//! * **I4 (LLC inclusion)**: every valid private copy is LLC-resident at
//!   its home.
//! * **I5 (value correctness)**: every valid private copy holds the
//!   latest written version, and the latest version is reachable (some
//!   copy, parked writeback, LLC line or DRAM holds it).
//! * **I6 (liveness, final only)**: every core retired its whole trace
//!   and no writebacks are left parked.
//! * **I7 (L1 inclusion)**: each core's L1 content is a subset of its L2
//!   content.
//! * **Stash discipline**: a set stash bit implies the block is untracked
//!   at its home.

use crate::machine::Machine;
use stashdir_common::{BlockAddr, CoreId, FxHashMap};
use stashdir_protocol::{DirView, PrivState};

/// Runs every invariant over `machine`, returning human-readable
/// violation descriptions (empty = clean). `final_check` additionally
/// verifies liveness (I6).
pub fn check(machine: &Machine, final_check: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let uses_stash = machine.config().dir.uses_stash();

    // Gather every valid private copy as (block, core, state, version).
    let mut copies: Vec<(BlockAddr, CoreId, PrivState, u64)> = Vec::new();
    for hier in &machine.privs {
        let core = hier.core();
        // I7: L1 ⊆ L2.
        for l1_block in hier.l1_blocks() {
            if !hier.l2_holds(l1_block) {
                problems.push(format!("I7: {core} holds {l1_block} in L1 but not L2"));
            }
        }
        copies.extend(
            hier.l2_entries()
                .into_iter()
                .map(|(block, line)| (block, core, line.state, line.version)),
        );
    }
    // Sorted so violation messages come out in block order, then core
    // order — checker output feeds failure reports. A core holds a block
    // at most once, so the key is unique.
    copies.sort_unstable_by_key(|&(block, core, _, _)| (block, core));

    for holders in copies.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(block, ..)) = holders.first() else {
            continue;
        };
        let home = machine.home(block);
        // lint: allow(indexing) — `home()`/`dir_bank_of()` return in-range BankIds.
        let bank = &machine.banks[home.index()];
        // The entry may live away from the home (opaque sharding).
        // lint: allow(indexing) — `dir_bank_of()` returns an in-range BankId.
        let view = machine.banks[machine.dir_bank_of(block).index()].dir_view(block);
        let llc_line = bank.llc_peek(block);
        let stash = llc_line.is_some_and(|l| l.stash);
        let llc_resident = llc_line.is_some();

        // I3: single writer.
        let exclusive_holders = || {
            holders
                .iter()
                .filter(|(_, _, s, _)| s.is_exclusive())
                .map(|(_, c, _, _)| *c)
        };
        if exclusive_holders().nth(1).is_some() {
            let all: Vec<CoreId> = exclusive_holders().collect();
            problems.push(format!(
                "I3: {block} has multiple exclusive holders: {all:?}"
            ));
        }
        if let Some(first) = exclusive_holders().next() {
            if holders.len() > 1 {
                problems.push(format!(
                    "I3: {block} has an exclusive copy at {first} alongside {} other copies",
                    holders.len() - 1
                ));
            }
        }

        // I4: LLC inclusion.
        if !llc_resident {
            problems.push(format!(
                "I4: {block} cached privately but not resident in {home}'s LLC"
            ));
        }

        // I1/I2: directory coverage per holder, plus state agreement.
        for (_, core, state, _) in holders {
            let covered = match &view {
                DirView::Untracked => false,
                DirView::Exclusive(owner) => owner == core,
                DirView::Shared(set) => set.contains(*core),
            };
            let hidden = uses_stash && stash;
            if !covered && !hidden {
                problems.push(format!(
                    "I1/I2: {core} holds {block} ({state}) but {home} tracks {view} with stash={stash}"
                ));
            }
            if covered && state.is_exclusive() && !matches!(view, DirView::Exclusive(_)) {
                problems.push(format!(
                    "I1: {core} holds {block} in {state} but {home} tracks it as {view}"
                ));
            }
        }

        // I5: every valid copy holds the latest version.
        let latest = machine.values.latest(block);
        for (_, core, state, version) in holders {
            if *version != latest {
                problems.push(format!(
                    "I5: {core} holds {block} ({state}) at version {version}, latest is {latest}"
                ));
            }
        }
    }

    // Stash discipline + I5 reachability, scanned from the banks.
    for bank in &machine.banks {
        for (block, line) in bank.llc_entries() {
            if line.stash {
                if !uses_stash {
                    problems.push(format!(
                        "stash: {block} has a stash bit under a non-stash directory"
                    ));
                }
                // lint: allow(indexing) — `dir_bank_of()` returns an in-range BankId.
                if machine.banks[machine.dir_bank_of(block).index()].dir_view(block)
                    != DirView::Untracked
                {
                    problems.push(format!(
                        "stash: {block} is tracked yet keeps its stash bit set"
                    ));
                }
            }
        }
        // Directory entries must point at resident LLC lines (inclusion
        // seen from the home side — an opaque shard tracks blocks homed at
        // *other* banks, so residence is checked at each block's home).
        for (block, _) in bank.dir_entries() {
            // lint: allow(indexing) — `home()` returns an in-range BankId.
            if machine.banks[machine.home(block).index()]
                .llc_peek(block)
                .is_none()
            {
                problems.push(format!(
                    "I4: {} tracks {block} without an LLC line",
                    bank.id()
                ));
            }
        }
    }

    // I5 reachability: the latest version of every written block exists
    // somewhere.
    let mut wb_versions: FxHashMap<BlockAddr, u64> = FxHashMap::default();
    for hier in &machine.privs {
        for (block, entry) in hier.wb_entries() {
            let best = wb_versions.entry(block).or_insert(0);
            *best = (*best).max(entry.version);
        }
    }
    // Written blocks come sorted, like `copies`, so one forward walk
    // pairs each block with its copies.
    let mut cursor = copies.iter().peekable();
    for (block, latest) in machine.values.written_blocks() {
        while cursor.next_if(|c| c.0 < block).is_some() {}
        let mut in_copies = false;
        while let Some(c) = cursor.next_if(|c| c.0 == block) {
            in_copies |= c.3 == latest;
        }
        let reachable = in_copies
            || wb_versions.get(&block).copied().unwrap_or(0) == latest
            // lint: allow(indexing) — `home()` returns an in-range BankId.
            || machine.banks[machine.home(block).index()]
                .llc_peek(block)
                .is_some_and(|l| l.version == latest)
            || machine.dram_store.get(&block).copied().unwrap_or(0) == latest;
        if !reachable {
            problems.push(format!(
                "I5: latest version {latest} of {block} is unreachable (lost write)"
            ));
        }
    }

    // I6: liveness (final only).
    if final_check {
        let cores = &machine.cores;
        for (i, (((pc, trace), pending), finish)) in cores
            .pc
            .iter()
            .zip(&cores.trace)
            .zip(&cores.pending)
            .zip(&cores.finish)
            .enumerate()
        {
            if *pc < trace.len() || pending.is_some() || finish.is_none() {
                problems.push(format!(
                    "I6: core{i} did not retire its trace (pc {}/{}, pending={})",
                    pc,
                    trace.len(),
                    pending.is_some()
                ));
            }
        }
        for hier in &machine.privs {
            if !hier.wb_entries().is_empty() {
                problems.push(format!(
                    "I6: {} still has parked writebacks at end of run",
                    hier.core()
                ));
            }
        }
    }

    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::LlcLine;
    use crate::config::{CoverageRatio, DirSpec, SystemConfig};
    use crate::machine::Machine;
    use stashdir_common::BlockAddr;
    use stashdir_protocol::Grant;

    /// A fresh, empty machine whose state the tests corrupt by hand.
    fn machine(dir: DirSpec) -> Machine {
        use stashdir_mem::{CacheConfig, ReplKind};
        let cfg = SystemConfig {
            cores: 4,
            l1: CacheConfig::new(256, 2, 64, 1, ReplKind::Lru),
            l2: CacheConfig::new(512, 2, 64, 4, ReplKind::Lru),
            llc_bank: CacheConfig::new(1024, 2, 64, 8, ReplKind::Lru),
            dir,
            ..SystemConfig::default()
        };
        Machine::new(cfg)
    }

    fn stash_machine() -> Machine {
        machine(DirSpec::stash(CoverageRatio::new(1, 8)))
    }

    /// Installs a fully consistent single-owner block: LLC line, directory
    /// entry and private copy all agree.
    fn install_consistent(m: &mut Machine, block: BlockAddr, core: u16) {
        let home = m.home(block);
        m.banks[home.index()].llc_insert(
            block,
            LlcLine {
                version: 0,
                dirty: false,
                stash: false,
            },
        );
        m.banks[home.index()].dir_install(block, DirView::Exclusive(CoreId::new(core)));
        m.privs[core as usize].fill(block, Grant::Exclusive, 0);
    }

    #[test]
    fn clean_machine_passes() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        install_consistent(&mut m, BlockAddr::new(1), 1);
        assert!(check(&m, false).is_empty());
    }

    #[test]
    fn detects_untracked_private_copy() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        m.banks[home.index()].dir_remove(BlockAddr::new(0));
        let problems = check(&m, false);
        assert!(
            problems.iter().any(|p| p.starts_with("I1/I2")),
            "{problems:?}"
        );
    }

    #[test]
    fn stash_bit_excuses_untracked_copy() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        m.banks[home.index()].dir_remove(BlockAddr::new(0));
        m.banks[home.index()].set_stash_bit(BlockAddr::new(0), true);
        assert!(check(&m, false).is_empty(), "hidden copies are legal");
    }

    #[test]
    fn stash_bit_does_not_excuse_under_sparse() {
        let mut m = machine(DirSpec::sparse(CoverageRatio::new(1, 8)));
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        m.banks[home.index()].dir_remove(BlockAddr::new(0));
        m.banks[home.index()].set_stash_bit(BlockAddr::new(0), true);
        let problems = check(&m, false);
        assert!(problems.iter().any(|p| p.starts_with("I1/I2")));
        assert!(
            problems.iter().any(|p| p.contains("non-stash")),
            "a sparse machine must not carry stash bits: {problems:?}"
        );
    }

    #[test]
    fn detects_double_exclusive_owners() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        // A second core conjures an exclusive copy out of thin air.
        m.privs[1].fill(BlockAddr::new(0), Grant::Modified, 0);
        let problems = check(&m, false);
        assert!(problems.iter().any(|p| p.starts_with("I3")), "{problems:?}");
    }

    #[test]
    fn detects_missing_llc_line() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        m.banks[home.index()].llc_remove(BlockAddr::new(0));
        let problems = check(&m, false);
        assert!(problems.iter().any(|p| p.starts_with("I4")), "{problems:?}");
    }

    #[test]
    fn detects_stale_copy_version() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        // The tracker believes a newer write exists somewhere.
        let v = m.values.on_write(CoreId::new(1), BlockAddr::new(0));
        assert!(v > 0);
        let problems = check(&m, false);
        assert!(problems.iter().any(|p| p.starts_with("I5")), "{problems:?}");
    }

    #[test]
    fn detects_lost_latest_write() {
        let mut m = stash_machine();
        // A write happened but no location holds its version.
        m.values.on_write(CoreId::new(0), BlockAddr::new(7));
        let problems = check(&m, false);
        assert!(
            problems.iter().any(|p| p.contains("lost write")),
            "{problems:?}"
        );
    }

    #[test]
    fn latest_in_dram_is_reachable() {
        let mut m = stash_machine();
        let v = m.values.on_write(CoreId::new(0), BlockAddr::new(7));
        m.dram_store.insert(BlockAddr::new(7), v);
        assert!(check(&m, false).is_empty());
    }

    #[test]
    fn detects_tracked_block_with_stash_bit() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        m.banks[home.index()].set_stash_bit(BlockAddr::new(0), true);
        let problems = check(&m, false);
        assert!(
            problems.iter().any(|p| p.contains("keeps its stash bit")),
            "{problems:?}"
        );
    }

    #[test]
    fn detects_directory_entry_without_llc_line() {
        let mut m = stash_machine();
        let block = BlockAddr::new(0);
        let home = m.home(block);
        m.banks[home.index()].dir_install(block, DirView::Exclusive(CoreId::new(0)));
        let problems = check(&m, false);
        assert!(
            problems.iter().any(|p| p.contains("without an LLC line")),
            "{problems:?}"
        );
    }

    #[test]
    fn detects_l1_block_missing_from_l2() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        install_consistent(&mut m, BlockAddr::new(1), 2);
        m.privs[2].drop_l2_only(BlockAddr::new(1));
        let problems = check(&m, false);
        assert_eq!(
            problems,
            vec!["I7: core2 holds B0x1 in L1 but not L2".to_string()],
            "the L2 loss hides the copy from every other invariant"
        );
    }

    #[test]
    fn detects_core_with_unretired_trace() {
        let mut m = stash_machine();
        // Four cores whose (empty) traces all retired at cycle 0.
        m.cores.trace = vec![Vec::new(); 4];
        m.cores.pc = vec![0; 4];
        m.cores.pending = vec![None; 4];
        m.cores.finish = vec![Some(stashdir_common::Cycle::ZERO); 4];
        assert!(check(&m, true).is_empty(), "every core retired");
        m.cores.trace[3] = vec![stashdir_common::MemOp::read(BlockAddr::new(5))];
        assert!(check(&m, false).is_empty(), "liveness is final-only");
        assert_eq!(
            check(&m, true),
            vec!["I6: core3 did not retire its trace (pc 0/1, pending=false)".to_string()]
        );
    }

    #[test]
    fn violation_order_is_pinned_across_blocks() {
        let mut m = stash_machine();
        // Block 0x9: a conjured second exclusive owner at core 1.
        install_consistent(&mut m, BlockAddr::new(9), 3);
        m.privs[1].fill(BlockAddr::new(9), Grant::Modified, 0);
        // Block 0x2: tracked and cached, but its LLC line is gone.
        install_consistent(&mut m, BlockAddr::new(2), 0);
        let home = m.home(BlockAddr::new(2));
        m.banks[home.index()].llc_remove(BlockAddr::new(2));
        let problems = check(&m, false);
        let home9 = m.home(BlockAddr::new(9));
        assert_eq!(
            problems,
            vec![
                format!("I4: B0x2 cached privately but not resident in {home}'s LLC"),
                "I3: B0x9 has multiple exclusive holders: [CoreId(1), CoreId(3)]".to_string(),
                "I3: B0x9 has an exclusive copy at core1 alongside 1 other copies".to_string(),
                format!(
                    "I1/I2: core1 holds B0x9 (M) but {home9} tracks Excl(core3) with stash=false"
                ),
                format!("I4: {home} tracks B0x2 without an LLC line"),
            ]
        );
    }

    #[test]
    fn detects_exclusive_copy_tracked_as_shared() {
        let mut m = stash_machine();
        install_consistent(&mut m, BlockAddr::new(0), 0);
        let home = m.home(BlockAddr::new(0));
        let mut sharers = stashdir_common::SharerSet::new(4);
        sharers.insert(CoreId::new(0));
        sharers.insert(CoreId::new(1));
        m.banks[home.index()].dir_install(BlockAddr::new(0), DirView::Shared(sharers));
        let problems = check(&m, false);
        assert!(
            problems.iter().any(|p| p.contains("tracks it as")),
            "{problems:?}"
        );
    }
}
