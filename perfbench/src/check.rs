//! Output checks: a finished case is correct when it reports no
//! coherence violation, retires every op it was given, and — on the
//! pinned seed — reproduces its pinned simulated-statistics fingerprint.

use stashdir::SimReport;
use stashdir_harness::digest;
use std::collections::HashMap;

/// The seed whose fingerprints `pins.txt` holds (the repository's
/// default workload seed).
pub const PINNED_SEED: u64 = 7;

/// The fingerprint of a report's simulated statistics: FNV-1a over the
/// cycle count, the retired-op count and the full stat CSV.
pub fn fingerprint(report: &SimReport) -> u64 {
    let text = format!(
        "{}\n{}\n{}",
        report.cycles,
        report.completed_ops,
        report.sink.to_csv()
    );
    digest::fnv1a(text.as_bytes())
}

/// Pinned fingerprints by case id, for one seed.
#[derive(Debug, Clone)]
pub struct Pins {
    seed: Option<u64>,
    by_case: HashMap<String, u64>,
}

impl Pins {
    /// The pins committed beside the benchmark.
    pub fn committed() -> Result<Pins, String> {
        Pins::parse(PINNED_SEED, include_str!("../pins.txt"))
    }

    /// No pins: only violations and op counts are checked.
    pub fn none() -> Pins {
        Pins {
            seed: None,
            by_case: HashMap::new(),
        }
    }

    /// Parses `<case id> <16 hex digits>` lines.
    pub fn parse(seed: u64, text: &str) -> Result<Pins, String> {
        let mut by_case = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let mut fields = line.split_whitespace();
            let (Some(id), Some(hex), None) = (fields.next(), fields.next(), fields.next()) else {
                return Err(format!("pins line {}: expected `<case id> <hex>`", n + 1));
            };
            let value = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("pins line {}: bad fingerprint: {e}", n + 1))?;
            by_case.insert(id.to_string(), value);
        }
        Ok(Pins {
            seed: Some(seed),
            by_case,
        })
    }

    /// Whether `report` passes every output check. On the pinned seed a
    /// case without a pin fails, so a stale pin file cannot pass silently.
    pub fn case_ok(&self, seed: u64, case_id: &str, report: &SimReport, expected_ops: u64) -> bool {
        report.violations.is_empty()
            && report.completed_ops == expected_ops
            && (self.seed != Some(seed) || self.by_case.get(case_id) == Some(&fingerprint(report)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_pins_cover_every_case_of_the_pinned_seed() {
        let pins = Pins::committed().expect("pins.txt parses");
        // xl_private + canneal_discovery + the sweep's 156 cases.
        assert_eq!(pins.by_case.len(), 158);
        assert!(pins.by_case.keys().all(|id| id.contains("-s7-")));
    }

    #[test]
    fn malformed_pins_are_an_error() {
        assert!(Pins::parse(7, "only-an-id\n").is_err());
        assert!(Pins::parse(7, "id not-hex\n").is_err());
    }
}
