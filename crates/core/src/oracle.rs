//! End-to-end data-integrity oracle.
//!
//! A replay is only trustworthy if, after all the dedup remapping,
//! cache indirection and fault recovery, every logical block still
//! reads back the content last written to it. This module provides the
//! differential check: a deliberately naive [`ReferenceModel`] (a flat
//! LBA → fingerprint map with no dedup, no caching, no failure
//! handling) is run in lockstep with the real stack, and a post-replay
//! [`OracleObserver::verify`] pass walks every live logical block
//! through the real Map/ChunkStore path and diffs it against the
//! model.
//!
//! Because the model shares *no* code with the stack's write path, any
//! divergence — a misdirected extent, a refcount bug that let a pinned
//! block be overwritten, a crash-recovery gap, an injected corruption —
//! shows up as a pinpointed [`IntegrityDiff`]. The same pass also folds
//! in the store's own internal invariants
//! ([`ChunkStore::check_invariants`]) and a full NVRAM journal replay
//! ([`ChunkStore::verify_journal_recovery`]), so structural damage is
//! caught even when the content mapping happens to survive it.
//!
//! The oracle is strictly opt-in: [`ReplayBuilder::verify`] wires it
//! up, and with it off the replay hot path runs the exact same
//! zero-allocation route as before (enforced by `tests/alloc.rs`).
//!
//! [`ChunkStore::check_invariants`]: pod_dedup::ChunkStore::check_invariants
//! [`ChunkStore::verify_journal_recovery`]: pod_dedup::ChunkStore::verify_journal_recovery
//! [`ReplayBuilder::verify`]: crate::runner::ReplayBuilder::verify

use std::collections::HashMap;
use std::fmt;

use crate::obs::{StackEvent, StackObserver};
use crate::stack::DedupLayer;
use pod_types::{Fingerprint, IoRequest, Lba};

/// How many divergent blocks an [`IntegrityReport`] keeps verbatim;
/// beyond this only the count grows.
pub const MAX_REPORTED_DIFFS: usize = 8;

/// The reference model: what a perfect, dedup-free store would hold.
///
/// One entry per logical block ever written, pointing at the
/// fingerprint of the content last written there. Overwrites replace;
/// nothing is ever shared, evicted or recovered — the model cannot
/// have the bugs it is checking for.
#[derive(Debug, Clone, Default)]
pub struct ReferenceModel {
    map: HashMap<u64, Fingerprint>,
}

impl ReferenceModel {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one trace request: writes update the model block by
    /// block, reads are ignored (they carry no content identity).
    pub fn record_request(&mut self, req: &IoRequest) {
        if !req.op.is_write() {
            return;
        }
        for (lba, fp) in req.write_chunks() {
            self.map.insert(lba.raw(), fp);
        }
    }

    /// Directly set the expected content of one block — test hook for
    /// forcing a divergence.
    pub fn insert(&mut self, lba: u64, fp: Fingerprint) {
        self.map.insert(lba, fp);
    }

    /// Expected content of `lba`, if the block was ever written.
    pub fn expected(&self, lba: u64) -> Option<Fingerprint> {
        self.map.get(&lba).copied()
    }

    /// Number of live logical blocks the model tracks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` while nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Live LBAs in ascending order — the deterministic verify walk.
    fn sorted_lbas(&self) -> Vec<u64> {
        let mut lbas: Vec<u64> = self.map.keys().copied().collect();
        lbas.sort_unstable();
        lbas
    }
}

/// One logical block whose stored content disagrees with the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityDiff {
    /// The divergent logical block.
    pub lba: u64,
    /// What the reference model says was last written there.
    pub expected: Fingerprint,
    /// What the real stack resolves the block to (`None` = the mapping
    /// was lost entirely).
    pub actual: Option<Fingerprint>,
}

impl fmt::Display for IntegrityDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.actual {
            Some(fp) => write!(
                f,
                "lba {}: expected {:016x}, stored {:016x}",
                self.lba,
                self.expected.prefix_u64(),
                fp.prefix_u64()
            ),
            None => write!(
                f,
                "lba {}: expected {:016x}, mapping lost",
                self.lba,
                self.expected.prefix_u64()
            ),
        }
    }
}

/// Outcome of one verification pass.
#[derive(Debug, Clone, Default)]
pub struct IntegrityReport {
    /// Logical blocks walked (one per live model entry).
    pub checked: u64,
    /// Blocks whose stored content diverged from the model.
    pub divergent: u64,
    /// The first [`MAX_REPORTED_DIFFS`] divergences, in LBA order.
    pub diffs: Vec<IntegrityDiff>,
    /// Store-internal invariant or journal-recovery failure, if any.
    pub invariant_error: Option<String>,
    /// Faults the observer saw injected during the replay (context for
    /// reading a failure — a clean run should pass even with these).
    pub faults_seen: u64,
}

impl IntegrityReport {
    /// `true` when every block matched and the store's internal
    /// invariants held.
    pub fn passed(&self) -> bool {
        self.divergent == 0 && self.invariant_error.is_none()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.passed() {
            format!(
                "verify PASS: {} blocks checked, 0 divergent, invariants ok",
                self.checked
            )
        } else {
            let first = self
                .diffs
                .first()
                .map(|d| format!("; first: {d}"))
                .unwrap_or_default();
            let inv = self
                .invariant_error
                .as_deref()
                .map(|e| format!("; invariants: {e}"))
                .unwrap_or_default();
            format!(
                "verify FAIL: {} blocks checked, {} divergent{first}{inv}",
                self.checked, self.divergent
            )
        }
    }
}

/// The oracle: a [`ReferenceModel`] fed in lockstep with the replay
/// plus the post-replay differential walk.
///
/// As a [`StackObserver`] it rides the chain to count injected faults;
/// the request stream is fed to it directly by the runner (events are
/// `Copy` and deliberately carry no request payloads).
#[derive(Debug, Default)]
pub struct OracleObserver {
    model: ReferenceModel,
    faults_seen: u64,
}

impl OracleObserver {
    /// A fresh oracle with an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirror one trace request into the reference model.
    pub fn observe_request(&mut self, req: &IoRequest) {
        self.model.record_request(req);
    }

    /// The reference model (inspection).
    pub fn model(&self) -> &ReferenceModel {
        &self.model
    }

    /// Walk every live logical block through the real dedup layer and
    /// diff the resolved content against the model, then fold in the
    /// store's internal invariants and an NVRAM journal recovery check.
    pub fn verify(&self, dedup: &DedupLayer) -> IntegrityReport {
        let mut report = IntegrityReport {
            faults_seen: self.faults_seen,
            ..IntegrityReport::default()
        };
        for lba in self.model.sorted_lbas() {
            report.checked += 1;
            let expected = self.model.expected(lba).expect("live model entry");
            let actual = dedup.content_of(Lba::new(lba));
            if actual != Some(expected) {
                report.divergent += 1;
                if report.diffs.len() < MAX_REPORTED_DIFFS {
                    report.diffs.push(IntegrityDiff {
                        lba,
                        expected,
                        actual,
                    });
                }
            }
        }
        let store = dedup.engine().store();
        if let Err(e) = store
            .check_invariants()
            .and_then(|()| store.verify_journal_recovery())
        {
            report.invariant_error = Some(e.to_string());
        }
        report
    }
}

impl StackObserver for OracleObserver {
    fn on_event(&mut self, ev: &StackEvent) {
        if matches!(ev, StackEvent::FaultInjected { .. }) {
            self.faults_seen += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::FaultKind;
    use pod_types::SimTime;

    fn fp(id: u64) -> Fingerprint {
        Fingerprint::from_content_id(id)
    }

    fn wreq(id: u64, lba: u64, contents: &[u64]) -> IoRequest {
        IoRequest::write(
            id,
            SimTime::from_micros(id),
            Lba::new(lba),
            contents.iter().copied().map(fp).collect(),
        )
    }

    #[test]
    fn model_tracks_last_write_per_block() {
        let mut m = ReferenceModel::new();
        m.record_request(&wreq(0, 10, &[1, 2, 3]));
        m.record_request(&wreq(1, 11, &[9])); // overwrite middle block
        m.record_request(&IoRequest::read(2, SimTime::ZERO, Lba::new(10), 3));
        assert_eq!(m.len(), 3);
        assert_eq!(m.expected(10), Some(fp(1)));
        assert_eq!(m.expected(11), Some(fp(9)));
        assert_eq!(m.expected(12), Some(fp(3)));
        assert_eq!(m.expected(13), None);
    }

    #[test]
    fn report_summary_names_the_first_divergence() {
        let rep = IntegrityReport {
            checked: 5,
            divergent: 1,
            diffs: vec![IntegrityDiff {
                lba: 42,
                expected: fp(7),
                actual: None,
            }],
            invariant_error: None,
            faults_seen: 0,
        };
        assert!(!rep.passed());
        let s = rep.summary();
        assert!(s.contains("FAIL"), "{s}");
        assert!(s.contains("lba 42"), "{s}");
        assert!(s.contains("mapping lost"), "{s}");
        let ok = IntegrityReport {
            checked: 5,
            ..IntegrityReport::default()
        };
        assert!(ok.passed());
        assert!(ok.summary().contains("PASS"));
    }

    #[test]
    fn observer_counts_fault_events() {
        let mut o = OracleObserver::new();
        o.on_event(&StackEvent::FaultInjected {
            kind: FaultKind::ReadError,
            delay_us: 500,
        });
        o.on_event(&StackEvent::Recovered {
            kind: FaultKind::ReadError,
            repaired_entries: 0,
        });
        o.on_event(&StackEvent::Finished);
        assert_eq!(o.faults_seen, 1);
    }
}
