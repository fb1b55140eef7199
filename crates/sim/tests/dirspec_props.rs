//! Property tests for the `DirSpec` grammar: every backend kind's
//! `Display` rendering must parse back to the same spec (the sweep CLI,
//! case ids and CSV labels all round-trip through this pair), and an
//! unknown kind must name every valid one in its error.

use proptest::prelude::*;
use stashdir_core::DirReplPolicy;
use stashdir_sim::{CoverageRatio, DirSpec, SystemConfig};

const VALID_KINDS: [&str; 7] = [
    "fullmap",
    "sparse",
    "stash",
    "cuckoo",
    "limited-ptr",
    "dls",
    "opaque",
];

fn coverage() -> impl Strategy<Value = CoverageRatio> {
    (1u32..5, 1u32..33).prop_map(|(num, den)| CoverageRatio::new(num, den))
}

/// Specs as the parser produces them: every kind, with the per-kind
/// default replacement policy (the grammar does not encode `repl`).
fn any_spec() -> impl Strategy<Value = DirSpec> {
    prop_oneof![
        Just(DirSpec::FullMap),
        Just(DirSpec::Dls),
        (coverage(), 1usize..17).prop_map(|(coverage, assoc)| DirSpec::Sparse {
            coverage,
            assoc,
            repl: DirReplPolicy::Lru,
        }),
        (coverage(), 1usize..17).prop_map(|(coverage, assoc)| DirSpec::Stash {
            coverage,
            assoc,
            repl: DirReplPolicy::PrivateFirstLru,
        }),
        coverage().prop_map(|coverage| DirSpec::Cuckoo { coverage }),
        (coverage(), 1usize..17, 1u8..13)
            .prop_map(|(coverage, assoc, k)| { DirSpec::LimitedPtr { coverage, assoc, k } }),
        (coverage(), 1usize..17).prop_map(|(coverage, assoc)| DirSpec::Opaque { coverage, assoc }),
    ]
}

/// Random lowercase identifiers for the unknown-kind property.
fn lowercase_word() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 1..13)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

proptest! {
    #[test]
    fn display_parses_back_to_the_same_spec(spec in any_spec()) {
        let shown = spec.to_string();
        let parsed: DirSpec = shown.parse().expect("Display output must parse");
        prop_assert_eq!(parsed, spec);
        // And the rendering is a fixed point: no canonicalization drift.
        prop_assert_eq!(parsed.to_string(), shown);
    }

    #[test]
    fn unknown_kinds_name_every_valid_kind(kind in lowercase_word()) {
        if VALID_KINDS.contains(&kind.as_str()) {
            return Ok(()); // sampled a real kind; nothing to check
        }
        let err = kind.parse::<DirSpec>().expect_err("unknown kind must not parse");
        for name in VALID_KINDS {
            prop_assert!(
                err.contains(name),
                "error `{}` does not name valid kind `{}`",
                err,
                name
            );
        }
    }
}

/// A set holds at most 256 ways (its replacement state stores way indices
/// in bytes), so the grammar rejects wider geometry and names the limit.
#[test]
fn geometry_above_256_ways_is_rejected_by_the_parser() {
    for kind in ["sparse", "stash", "limited-ptr2", "opaque"] {
        let err = format!("{kind}@1/8x100000w")
            .parse::<DirSpec>()
            .expect_err("100000 ways must not parse");
        assert!(err.contains("at most 256 ways"), "{kind}: {err}");
        let widest: DirSpec = format!("{kind}@1/8x256w").parse().expect("256 ways parse");
        assert!(widest.to_string().ends_with("x256w"));
    }
}

/// A slice too large to build panics with a message when the system is
/// validated, instead of aborting the process in the allocator.
#[test]
fn oversized_directory_slice_panics_before_allocating() {
    let spec: DirSpec = "stash@4000000000/1".parse().expect("coverage parses");
    let cfg = SystemConfig::default().with_cores(16).with_dir(spec);
    for (what, result) in [
        ("validate", std::panic::catch_unwind(|| cfg.validate())),
        (
            "dir_slice",
            std::panic::catch_unwind(|| cfg.dir_slice()).map(|_| ()),
        ),
    ] {
        let payload = result.expect_err("oversized slice must be rejected");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("a slice holds at most 16777216"),
            "{what}: {msg}"
        );
    }
    // Programmatic specs cannot sneak wide sets past the parser either.
    let wide = SystemConfig::default().with_dir(DirSpec::Sparse {
        coverage: CoverageRatio::new(1, 8),
        assoc: 257,
        repl: DirReplPolicy::Lru,
    });
    assert!(std::panic::catch_unwind(|| wide.validate()).is_err());
}
