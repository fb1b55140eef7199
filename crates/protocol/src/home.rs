//! The home-node (LLC bank + directory slice) decision logic.
//!
//! [`decide`] answers: given a demand request and the directory's current
//! knowledge of a block, which probes must be sent, what permission is
//! granted, and what the directory should record afterwards. [`decide_put`]
//! handles eviction notifications, including the stale-put races that
//! per-block serialization leaves possible. Both are pure functions; the
//! simulator executes their output with timing.
//!
//! The stash directory adds exactly one decision here: a request that
//! misses in the directory while the LLC line's *stash bit* is set must
//! first run a **discovery** round ([`needs_discovery`]); the round's
//! result upgrades the home's knowledge, after which [`decide`] applies
//! unchanged.

use crate::msg::{DiscoveryIntent, Grant, Probe, Request};
use serde::{Deserialize, Serialize};
use stashdir_common::{CoreId, SharerSet};
use std::fmt;

/// What the directory knows about a block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirView {
    /// No directory entry: as far as tracking goes, no private cache holds
    /// the block. (Under the stash directory this may be a lie — see
    /// [`needs_discovery`].)
    Untracked,
    /// One private cache holds the block in E or M.
    Exclusive(CoreId),
    /// The listed caches hold the block in S.
    Shared(SharerSet),
}

impl DirView {
    /// `true` when exactly one core is known to hold the block — the
    /// *private block* predicate that decides stash-eviction safety.
    pub fn is_private(&self) -> bool {
        match self {
            DirView::Exclusive(_) => true,
            DirView::Shared(set) => set.len() == 1,
            DirView::Untracked => false,
        }
    }

    /// Every core the view names.
    pub fn holders(&self) -> Vec<CoreId> {
        match self {
            DirView::Untracked => Vec::new(),
            DirView::Exclusive(owner) => vec![*owner],
            DirView::Shared(set) => set.iter().collect(),
        }
    }
}

impl fmt::Display for DirView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirView::Untracked => f.write_str("Untracked"),
            DirView::Exclusive(owner) => write!(f, "Excl({owner})"),
            DirView::Shared(set) => write!(f, "Shared{set}"),
        }
    }
}

/// The home's plan for one demand request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Probes to deliver (and collect replies for) before granting.
    pub probes: Vec<(CoreId, Probe)>,
    /// Permission granted to the requester once probes complete.
    pub grant: Grant,
    /// What the directory records afterwards, in the common (race-free)
    /// case. The simulator reconciles against actual probe replies when an
    /// owner turns out to have evicted concurrently.
    pub new_view: DirView,
    /// `true` when the freshest data comes from the probed owner rather
    /// than the LLC.
    pub data_from_owner: bool,
    /// `false` for ownership upgrades where the requester already holds
    /// the data and only needs permission.
    pub needs_data: bool,
}

/// Plans a demand request (`GetS`, `GetM` or `Upgrade`).
///
/// `capacity` is the number of cores (sizes fresh sharer sets).
///
/// # Panics
///
/// Panics if called with a `Put*` request — evictions go through
/// [`decide_put`].
///
/// # Examples
///
/// ```
/// use stashdir_common::CoreId;
/// use stashdir_protocol::home::{decide, DirView};
/// use stashdir_protocol::msg::{Grant, Request};
///
/// // A read miss on an untracked block grants Exclusive (no sharers to
/// // disturb, and the common private case avoids a later Upgrade).
/// let out = decide(Request::GetS, CoreId::new(2), &DirView::Untracked, 16);
/// assert_eq!(out.grant, Grant::Exclusive);
/// assert!(out.probes.is_empty());
/// assert_eq!(out.new_view, DirView::Exclusive(CoreId::new(2)));
/// ```
pub fn decide(req: Request, requester: CoreId, view: &DirView, capacity: u16) -> RequestOutcome {
    match req {
        Request::GetS => decide_gets(requester, view, capacity),
        Request::GetM | Request::Upgrade => decide_getm(req, requester, view, capacity),
        other => panic!("decide() only handles demand requests, got {other}"),
    }
}

fn decide_gets(requester: CoreId, view: &DirView, capacity: u16) -> RequestOutcome {
    match view {
        DirView::Untracked => RequestOutcome {
            probes: Vec::new(),
            // E-grant on uncached read: the dominant private-data pattern
            // the stash directory exploits.
            grant: Grant::Exclusive,
            new_view: DirView::Exclusive(requester),
            data_from_owner: false,
            needs_data: true,
        },
        DirView::Exclusive(owner) if *owner == requester => {
            // The tracked owner is asking again: it silently dropped a
            // clean copy (possible when eviction notices are disabled).
            // Re-grant exclusively; no probes needed.
            RequestOutcome {
                probes: Vec::new(),
                grant: Grant::Exclusive,
                new_view: DirView::Exclusive(requester),
                data_from_owner: false,
                needs_data: true,
            }
        }
        DirView::Exclusive(owner) => {
            let mut sharers = SharerSet::singleton(capacity, *owner);
            sharers.insert(requester);
            RequestOutcome {
                probes: vec![(*owner, Probe::FwdGetS)],
                grant: Grant::Shared,
                new_view: DirView::Shared(sharers),
                data_from_owner: true,
                needs_data: true,
            }
        }
        DirView::Shared(set) => {
            let mut sharers = set.clone();
            sharers.insert(requester);
            RequestOutcome {
                probes: Vec::new(),
                grant: Grant::Shared,
                new_view: DirView::Shared(sharers),
                data_from_owner: false,
                needs_data: true,
            }
        }
    }
}

fn decide_getm(req: Request, requester: CoreId, view: &DirView, capacity: u16) -> RequestOutcome {
    let _ = capacity;
    match view {
        DirView::Untracked => RequestOutcome {
            probes: Vec::new(),
            grant: Grant::Modified,
            new_view: DirView::Exclusive(requester),
            data_from_owner: false,
            // An Upgrade that raced to Untracked lost its copy to a
            // directory eviction; it needs data again.
            needs_data: true,
        },
        DirView::Exclusive(owner) if *owner == requester => RequestOutcome {
            probes: Vec::new(),
            grant: Grant::Modified,
            new_view: DirView::Exclusive(requester),
            needs_data: req != Request::Upgrade,
            data_from_owner: false,
        },
        DirView::Exclusive(owner) => RequestOutcome {
            probes: vec![(*owner, Probe::FwdGetM)],
            grant: Grant::Modified,
            new_view: DirView::Exclusive(requester),
            data_from_owner: true,
            needs_data: true,
        },
        DirView::Shared(set) => {
            let requester_has_copy = set.contains(requester);
            let probes = set
                .iter()
                .filter(|&c| c != requester)
                .map(|c| (c, Probe::Inv))
                .collect();
            RequestOutcome {
                probes,
                grant: Grant::Modified,
                new_view: DirView::Exclusive(requester),
                data_from_owner: false,
                // An Upgrade whose copy survived needs no data; a raced
                // Upgrade (copy already invalidated) or plain GetM does.
                needs_data: !(req == Request::Upgrade && requester_has_copy),
            }
        }
    }
}

/// The home's verdict on an eviction notification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PutOutcome {
    /// The put matches the directory's knowledge.
    Accept {
        /// What the directory records afterwards.
        new_view: DirView,
        /// `true` when the put carried dirty data that must be written to
        /// the LLC.
        writeback: bool,
    },
    /// The put lost a race (ownership already moved); acknowledge and
    /// discard — **including its data**, which is stale by definition.
    Stale,
}

/// Plans an eviction notification (`PutS`, `PutE` or `PutM`).
///
/// # Panics
///
/// Panics if called with a demand request.
///
/// # Examples
///
/// ```
/// use stashdir_common::CoreId;
/// use stashdir_protocol::home::{decide_put, DirView, PutOutcome};
/// use stashdir_protocol::msg::Request;
///
/// let owner = CoreId::new(1);
/// let out = decide_put(Request::PutM, owner, &DirView::Exclusive(owner));
/// assert_eq!(
///     out,
///     PutOutcome::Accept { new_view: DirView::Untracked, writeback: true },
/// );
/// // The same put after ownership moved is stale.
/// let raced = decide_put(Request::PutM, owner, &DirView::Exclusive(CoreId::new(2)));
/// assert_eq!(raced, PutOutcome::Stale);
/// ```
pub fn decide_put(req: Request, from: CoreId, view: &DirView) -> PutOutcome {
    match req {
        Request::PutS => match view {
            DirView::Shared(set) if set.contains(from) => {
                let mut rest = set.clone();
                rest.remove(from);
                let new_view = if rest.is_empty() {
                    DirView::Untracked
                } else {
                    DirView::Shared(rest)
                };
                PutOutcome::Accept {
                    new_view,
                    writeback: false,
                }
            }
            _ => PutOutcome::Stale,
        },
        Request::PutE | Request::PutM => match view {
            DirView::Exclusive(owner) if *owner == from => PutOutcome::Accept {
                new_view: DirView::Untracked,
                writeback: req == Request::PutM,
            },
            _ => PutOutcome::Stale,
        },
        other => panic!("decide_put() only handles evictions, got {other}"),
    }
}

/// `true` when the home must run a discovery round before it can serve a
/// request: the directory has no entry, but the LLC remembers (via the
/// stash bit) that an entry tracking a private copy was silently dropped.
pub fn needs_discovery(view: &DirView, stash_bit: bool) -> bool {
    stash_bit && *view == DirView::Untracked
}

/// The probe set for a discovery round: every core except `exclude` (the
/// requester cannot be the hidden owner — it just missed).
pub fn discovery_targets(num_cores: u16, exclude: Option<CoreId>) -> Vec<CoreId> {
    (0..num_cores)
        .map(CoreId::new)
        .filter(|&c| Some(c) != exclude)
        .collect()
}

/// The discovery intent implied by the triggering request.
pub fn discovery_intent(req: Request) -> DiscoveryIntent {
    match req {
        Request::GetS => DiscoveryIntent::Share,
        _ => DiscoveryIntent::Invalidate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(i: u16) -> CoreId {
        CoreId::new(i)
    }

    fn shared(cores: &[u16]) -> DirView {
        let mut set = SharerSet::new(16);
        set.extend(cores.iter().map(|&c| core(c)));
        DirView::Shared(set)
    }

    /// A directory slot's payload is an `Option<DirView>`; a field that
    /// grows it past two words costs every slot of every slice.
    #[test]
    fn a_directory_view_is_two_words() {
        assert_eq!(std::mem::size_of::<DirView>(), 16);
        assert_eq!(std::mem::size_of::<Option<DirView>>(), 16);
    }

    #[test]
    fn gets_untracked_grants_exclusive() {
        let out = decide(Request::GetS, core(0), &DirView::Untracked, 16);
        assert_eq!(out.grant, Grant::Exclusive);
        assert!(out.probes.is_empty());
        assert!(!out.data_from_owner);
        assert!(out.needs_data);
    }

    #[test]
    fn gets_on_owned_block_forwards_to_owner() {
        let out = decide(Request::GetS, core(0), &DirView::Exclusive(core(3)), 16);
        assert_eq!(out.probes, vec![(core(3), Probe::FwdGetS)]);
        assert_eq!(out.grant, Grant::Shared);
        assert!(out.data_from_owner);
        assert_eq!(out.new_view, shared(&[0, 3]));
    }

    #[test]
    fn gets_on_shared_block_serves_from_llc() {
        let out = decide(Request::GetS, core(5), &shared(&[1, 2]), 16);
        assert!(out.probes.is_empty());
        assert_eq!(out.grant, Grant::Shared);
        assert_eq!(out.new_view, shared(&[1, 2, 5]));
    }

    #[test]
    fn gets_from_stale_owner_regrants() {
        // Silent-eviction mode: the tracked owner itself misses again.
        let out = decide(Request::GetS, core(4), &DirView::Exclusive(core(4)), 16);
        assert!(out.probes.is_empty());
        assert_eq!(out.grant, Grant::Exclusive);
        assert_eq!(out.new_view, DirView::Exclusive(core(4)));
    }

    #[test]
    fn getm_untracked_grants_modified() {
        let out = decide(Request::GetM, core(0), &DirView::Untracked, 16);
        assert_eq!(out.grant, Grant::Modified);
        assert!(out.probes.is_empty());
        assert_eq!(out.new_view, DirView::Exclusive(core(0)));
    }

    #[test]
    fn getm_on_owned_block_forwards_invalidating() {
        let out = decide(Request::GetM, core(0), &DirView::Exclusive(core(7)), 16);
        assert_eq!(out.probes, vec![(core(7), Probe::FwdGetM)]);
        assert!(out.data_from_owner);
        assert_eq!(out.new_view, DirView::Exclusive(core(0)));
    }

    #[test]
    fn getm_on_shared_block_invalidates_everyone_else() {
        let out = decide(Request::GetM, core(1), &shared(&[1, 2, 9]), 16);
        let mut targets: Vec<u16> = out.probes.iter().map(|(c, _)| c.get()).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![2, 9]);
        assert!(out.probes.iter().all(|&(_, p)| p == Probe::Inv));
        assert_eq!(out.new_view, DirView::Exclusive(core(1)));
    }

    #[test]
    fn upgrade_with_live_copy_needs_no_data() {
        let out = decide(Request::Upgrade, core(1), &shared(&[1, 2]), 16);
        assert!(!out.needs_data);
        assert_eq!(out.grant, Grant::Modified);
        assert_eq!(out.probes.len(), 1);
    }

    #[test]
    fn upgrade_that_lost_its_copy_needs_data() {
        // The requester was invalidated while its Upgrade was in flight:
        // the sharer set no longer contains it.
        let out = decide(Request::Upgrade, core(1), &shared(&[2]), 16);
        assert!(out.needs_data);
        // And when the whole entry vanished:
        let out = decide(Request::Upgrade, core(1), &DirView::Untracked, 16);
        assert!(out.needs_data);
        assert_eq!(out.grant, Grant::Modified);
    }

    #[test]
    fn upgrade_from_sole_owner_is_permission_only() {
        let out = decide(Request::Upgrade, core(6), &DirView::Exclusive(core(6)), 16);
        assert!(!out.needs_data);
        assert!(out.probes.is_empty());
    }

    #[test]
    fn puts_removes_one_sharer() {
        let out = decide_put(Request::PutS, core(2), &shared(&[1, 2]));
        assert_eq!(
            out,
            PutOutcome::Accept {
                new_view: shared(&[1]),
                writeback: false
            }
        );
    }

    #[test]
    fn puts_of_last_sharer_untracks() {
        let out = decide_put(Request::PutS, core(1), &shared(&[1]));
        assert_eq!(
            out,
            PutOutcome::Accept {
                new_view: DirView::Untracked,
                writeback: false
            }
        );
    }

    #[test]
    fn pute_untracks_without_writeback() {
        let out = decide_put(Request::PutE, core(1), &DirView::Exclusive(core(1)));
        assert_eq!(
            out,
            PutOutcome::Accept {
                new_view: DirView::Untracked,
                writeback: false
            }
        );
    }

    #[test]
    fn stale_puts_are_dropped() {
        assert_eq!(
            decide_put(Request::PutS, core(9), &shared(&[1, 2])),
            PutOutcome::Stale
        );
        assert_eq!(
            decide_put(Request::PutM, core(1), &DirView::Untracked),
            PutOutcome::Stale
        );
        assert_eq!(
            decide_put(Request::PutE, core(1), &shared(&[1])),
            PutOutcome::Stale,
            "an E-put against a shared view lost a FwdGetS race"
        );
    }

    #[test]
    fn discovery_only_when_untracked_and_stashed() {
        assert!(needs_discovery(&DirView::Untracked, true));
        assert!(!needs_discovery(&DirView::Untracked, false));
        assert!(!needs_discovery(&DirView::Exclusive(core(0)), true));
        assert!(!needs_discovery(&shared(&[1]), true));
    }

    #[test]
    fn discovery_targets_exclude_requester() {
        let targets = discovery_targets(4, Some(core(2)));
        let raw: Vec<u16> = targets.iter().map(|c| c.get()).collect();
        assert_eq!(raw, vec![0, 1, 3]);
        assert_eq!(discovery_targets(3, None).len(), 3);
    }

    #[test]
    fn discovery_intent_tracks_request() {
        assert_eq!(discovery_intent(Request::GetS), DiscoveryIntent::Share);
        assert_eq!(discovery_intent(Request::GetM), DiscoveryIntent::Invalidate);
        assert_eq!(
            discovery_intent(Request::Upgrade),
            DiscoveryIntent::Invalidate
        );
    }

    #[test]
    fn is_private_predicate() {
        assert!(DirView::Exclusive(core(0)).is_private());
        assert!(shared(&[3]).is_private());
        assert!(!shared(&[3, 4]).is_private());
        assert!(!DirView::Untracked.is_private());
    }

    #[test]
    fn holders_lists_view_members() {
        assert!(DirView::Untracked.holders().is_empty());
        assert_eq!(DirView::Exclusive(core(3)).holders(), vec![core(3)]);
        assert_eq!(shared(&[1, 4]).holders(), vec![core(1), core(4)]);
    }

    #[test]
    #[should_panic(expected = "only handles demand")]
    fn decide_rejects_puts() {
        decide(Request::PutM, core(0), &DirView::Untracked, 16);
    }

    #[test]
    #[should_panic(expected = "only handles evictions")]
    fn decide_put_rejects_demands() {
        decide_put(Request::GetS, core(0), &DirView::Untracked);
    }

    #[test]
    fn display_renders_views() {
        assert_eq!(DirView::Untracked.to_string(), "Untracked");
        assert_eq!(DirView::Exclusive(core(2)).to_string(), "Excl(core2)");
        assert_eq!(shared(&[1, 2]).to_string(), "Shared{1,2}");
    }
}
