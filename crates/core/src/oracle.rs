//! End-to-end data-integrity oracle.
//!
//! A replay is only trustworthy if, after all the dedup remapping,
//! cache indirection and fault recovery, every logical block still
//! reads back the content last written to it. [`verify`] is that check,
//! and its reference is the trace itself: one pass over the requests
//! from newest to oldest marks each written LBA in a [`BlockSet`], and
//! the first time a block is met, the fingerprint there is by
//! definition the last write to it. The pass resolves the block through
//! the real Map/ChunkStore path right there and diffs the two.
//!
//! The reference shares *no* code with the stack — no dedup, no
//! eviction, no recovery, not even a model to keep in step: nothing is
//! recorded while the replay runs. Any divergence — a misdirected
//! extent, a refcount bug that let a pinned block be overwritten, a
//! crash-recovery gap, an injected corruption — shows up as a
//! pinpointed [`IntegrityDiff`]. The same call also folds in the
//! store's own internal invariants ([`ChunkStore::check_invariants`])
//! and a full NVRAM journal replay
//! ([`ChunkStore::verify_journal_recovery`]), so structural damage is
//! caught even when the content mapping happens to survive it.
//!
//! The oracle is strictly opt-in: [`ReplayBuilder::verify`] runs it
//! once, after the replay finishes, so the replay hot path is the same
//! zero-allocation route with it on or off (enforced by
//! `tests/alloc.rs`).
//!
//! [`ChunkStore::check_invariants`]: pod_dedup::ChunkStore::check_invariants
//! [`ChunkStore::verify_journal_recovery`]: pod_dedup::ChunkStore::verify_journal_recovery
//! [`ReplayBuilder::verify`]: crate::runner::ReplayBuilder::verify

use std::fmt;

use pod_dedup::{BlockSet, DedupEngine};
use pod_trace::Trace;
use pod_types::{Fingerprint, IoRequest};

/// How many divergent blocks an [`IntegrityReport`] keeps verbatim;
/// beyond this only the count grows.
pub const MAX_REPORTED_DIFFS: usize = 8;

/// One logical block whose stored content disagrees with the last
/// write the trace made to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityDiff {
    /// The divergent logical block.
    pub lba: u64,
    /// The content the trace last wrote there.
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
    /// Logical blocks checked (one per block the trace wrote).
    pub checked: u64,
    /// Blocks whose stored content diverged from their last write.
    pub divergent: u64,
    /// The [`MAX_REPORTED_DIFFS`] lowest divergent LBAs, ascending.
    pub diffs: Vec<IntegrityDiff>,
    /// Store-internal invariant or journal-recovery failure, if any.
    pub invariant_error: Option<String>,
    /// Faults injected during the replay (context for reading a
    /// failure — a clean run should pass even with these).
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

/// Check every block `trace` wrote against what `engine` resolves it
/// to, then fold in the store's invariants and journal recovery.
///
/// `trace` is the trace `engine` replayed (a replay refuses any LBA
/// outside its store's logical space, which sizes the pass's seen-set).
/// Throttled serve requests are copies of trace requests with the same
/// content in the same per-tenant order, so the tenant's own trace is
/// the reference for them too. [`IntegrityReport::faults_seen`] is left
/// at 0 for the caller, who holds the stack's counters.
pub fn verify(engine: &DedupEngine, trace: &Trace) -> IntegrityReport {
    let store = engine.store();
    let mut seen = BlockSet::new(store.logical_blocks());
    let mut report = IntegrityReport::default();
    let mut diffs = Vec::new();
    let writes = trace.requests.iter().rev().filter(|r| r.op.is_write());
    for (lba, expected) in writes.flat_map(IoRequest::write_chunks) {
        if !seen.insert(lba.raw()) {
            continue; // a newer write already set this block's content
        }
        report.checked += 1;
        let actual = engine.content_of(lba);
        if actual != Some(expected) {
            diffs.push(IntegrityDiff {
                lba: lba.raw(),
                expected,
                actual,
            });
        }
    }
    report.divergent = diffs.len() as u64;
    diffs.sort_unstable_by_key(|d| d.lba);
    diffs.truncate(MAX_REPORTED_DIFFS);
    report.diffs = diffs;
    if let Err(e) = store
        .check_invariants()
        .and_then(|()| store.verify_journal_recovery())
    {
        report.invariant_error = Some(e.to_string());
    }
    report
}

/// The oracle's per-request hook, from when it kept a model in step
/// with the replay. [`verify`] needs no feed, so
/// [`observe_request`](Self::observe_request) does nothing; the type
/// stays because `benchmark/src/traced.rs` mirrors the replay loop
/// through it.
#[derive(Debug, Default)]
pub struct OracleObserver;

impl OracleObserver {
    /// The hook.
    pub fn new() -> Self {
        Self
    }

    /// Does nothing: the trace is the reference.
    pub fn observe_request(&mut self, _req: &IoRequest) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::replay_finished;
    use crate::{Scheme, StorageStack};
    use pod_trace::TraceProfile;
    use pod_types::Lba;
    use std::collections::HashMap;

    fn fp(id: u64) -> Fingerprint {
        Fingerprint::from_content_id(id)
    }

    fn finished(scheme: Scheme, trace: &Trace) -> StorageStack {
        replay_finished(scheme, trace).1
    }

    /// The spec the backward pass must equal: every write applied
    /// oldest first to a map, then each entry checked in LBA order.
    /// Returns the blocks checked and every divergence, ascending.
    fn last_write_model(engine: &DedupEngine, trace: &Trace) -> (u64, Vec<IntegrityDiff>) {
        let mut model: HashMap<u64, Fingerprint> = HashMap::new();
        for req in trace.requests.iter().filter(|r| r.op.is_write()) {
            for (lba, fp) in req.write_chunks() {
                model.insert(lba.raw(), fp);
            }
        }
        let mut lbas: Vec<u64> = model.keys().copied().collect();
        lbas.sort_unstable();
        let diffs = lbas
            .into_iter()
            .filter_map(|lba| {
                let expected = model[&lba];
                let actual = engine.content_of(Lba::new(lba));
                (actual != Some(expected)).then_some(IntegrityDiff {
                    lba,
                    expected,
                    actual,
                })
            })
            .collect();
        (model.len() as u64, diffs)
    }

    /// `verify` agrees with the model on everything it reports.
    fn assert_matches_model(engine: &DedupEngine, trace: &Trace, what: &str) -> IntegrityReport {
        let (checked, all) = last_write_model(engine, trace);
        let rep = verify(engine, trace);
        assert_eq!(rep.checked, checked, "{what}: blocks checked");
        assert_eq!(rep.divergent, all.len() as u64, "{what}: divergent");
        let lowest = &all[..all.len().min(MAX_REPORTED_DIFFS)];
        assert_eq!(rep.diffs, lowest, "{what}: the lowest LBAs, ascending");
        assert_eq!(rep.invariant_error, None, "{what}");
        rep
    }

    #[test]
    fn backward_pass_equals_a_last_write_model() {
        for profile in [
            TraceProfile::web_vm(),
            TraceProfile::homes(),
            TraceProfile::mail(),
        ] {
            let trace = profile.scaled(0.004).generate(17);
            let written: usize = trace
                .requests
                .iter()
                .filter(|r| r.op.is_write())
                .map(|r| r.chunks.len())
                .sum();
            for scheme in Scheme::all() {
                let stack = finished(scheme, &trace);
                let what = format!("{scheme} on {}", trace.name);
                let rep = assert_matches_model(stack.engine(), &trace, &what);
                assert!(rep.passed(), "{what}: {}", rep.summary());
                assert!(
                    (rep.checked as usize) < written,
                    "{what}: the trace rewrites blocks ({} of {written} distinct)",
                    rep.checked
                );
            }
        }
    }

    #[test]
    fn a_mutated_trace_diverges_exactly_where_its_last_writes_changed() {
        let trace = TraceProfile::mail().scaled(0.004).generate(17);
        let stack = finished(Scheme::Pod, &trace);
        // Change the content of every fifth write. Only blocks whose
        // last write was changed may diverge; rewritten ones must not.
        let mut mutated = trace.clone();
        for req in mutated
            .requests
            .iter_mut()
            .filter(|r| r.op.is_write())
            .step_by(5)
        {
            for chunk in &mut req.chunks {
                *chunk = fp(chunk.prefix_u64() ^ 0x5A5A_5A5A);
            }
        }
        let rep = assert_matches_model(stack.engine(), &mutated, "mutated trace");
        assert!(
            rep.divergent > MAX_REPORTED_DIFFS as u64,
            "{} divergent",
            rep.divergent
        );
        assert_eq!(rep.diffs.len(), MAX_REPORTED_DIFFS);
        assert!(rep.diffs.windows(2).all(|w| w[0].lba < w[1].lba));
        assert!(rep.summary().contains("FAIL"), "{}", rep.summary());
        // The unmutated trace still passes against the same stack.
        assert!(verify(stack.engine(), &trace).passed());
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
}
