//! Write-request classification (paper Fig. 5).
//!
//! After fingerprinting, each chunk of a write request either has a
//! *candidate* — a live physical block already storing the same content —
//! or is new. Select-Dedupe then sorts the request into:
//!
//! 1. **Fully redundant & sequential** — every chunk has a candidate and
//!    the candidates form one ascending physical run → deduplicate the
//!    whole request (it is *removed* from the disk I/O stream).
//! 2. **Scattered partial** — some redundancy, but no sequential
//!    candidate run of at least the threshold → write everything
//!    (deduplicating would fragment future reads for negligible gain).
//! 3. **Contiguous partial** — at least one sequential candidate run of
//!    ≥ threshold chunks → deduplicate those runs, write the rest.
//!
//! The same machinery classifies for iDedup (runs ≥ its own, larger,
//! threshold; no full-request special case — small requests are bypassed
//! wholesale) and Full-Dedupe (every candidate chunk is deduplicated,
//! sequential or not).

use pod_types::Pba;

/// Per-chunk dedup candidate: `Some(pba)` when a live copy of the
/// chunk's content exists at `pba`.
pub type ChunkCandidate = Option<Pba>;

/// Classification tag. The classifiers return this and deposit the
/// dedup ranges into caller-owned scratch, so the replay hot path never
/// touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    /// Category 1: dedup all chunks (request removed from disk I/O).
    FullyRedundantSequential,
    /// Category 2: write all chunks, dedup nothing.
    ScatteredPartial,
    /// Category 3: dedup the scratch-resident ranges, write the rest.
    ContiguousPartial,
    /// No chunk is redundant: plain unique write.
    Unique,
}

/// Maximal runs of consecutive chunks whose candidates exist and are
/// physically sequential (`pba[i+1] == pba[i] + 1`), as `(start, len)`
/// pairs in caller-owned scratch (cleared first).
fn sequential_runs_into(candidates: &[ChunkCandidate], runs: &mut Vec<(usize, usize)>) {
    runs.clear();
    let mut i = 0;
    while i < candidates.len() {
        let Some(start_pba) = candidates[i] else {
            i += 1;
            continue;
        };
        let start = i;
        let mut prev = start_pba;
        i += 1;
        while i < candidates.len() {
            match candidates[i] {
                Some(p) if p.raw() == prev.raw() + 1 => {
                    prev = p;
                    i += 1;
                }
                _ => break,
            }
        }
        runs.push((start, i - start));
    }
}

/// Classify a write request for **Select-Dedupe** with the given
/// duplicate-run `threshold` (paper default 3). `runs` receives the
/// sequential candidate runs, `ranges` the chunk index ranges to
/// deduplicate (both cleared first). For the fully-redundant-sequential
/// case `ranges` holds the single full-request range, so callers can
/// drive the dedup loop off `ranges` uniformly for every class.
pub fn classify_for_select_into(
    candidates: &[ChunkCandidate],
    threshold: usize,
    runs: &mut Vec<(usize, usize)>,
    ranges: &mut Vec<(usize, usize)>,
) -> ClassKind {
    runs.clear();
    ranges.clear();
    let redundant = candidates.iter().filter(|c| c.is_some()).count();
    if redundant == 0 {
        return ClassKind::Unique;
    }
    sequential_runs_into(candidates, runs);
    // Category 1: a single run covering the entire request.
    if redundant == candidates.len() {
        if let [(0, len)] = runs.as_slice() {
            if *len == candidates.len() {
                ranges.push((0, candidates.len()));
                return ClassKind::FullyRedundantSequential;
            }
        }
    }
    // Category 3: below-threshold total redundancy never qualifies; and
    // the deduplicated data must be long sequential runs.
    if redundant >= threshold {
        ranges.extend(runs.iter().copied().filter(|&(_, len)| len >= threshold));
        if !ranges.is_empty() {
            return ClassKind::ContiguousPartial;
        }
    }
    ClassKind::ScatteredPartial
}

/// Classify for **iDedup**: only sequential duplicate runs of at least
/// `threshold` chunks are deduplicated; anything else — including fully
/// redundant small requests — is written as-is. This is the
/// capacity-oriented policy POD argues against. Scratch contract as in
/// [`classify_for_select_into`].
pub fn classify_for_idedup_into(
    candidates: &[ChunkCandidate],
    threshold: usize,
    runs: &mut Vec<(usize, usize)>,
    ranges: &mut Vec<(usize, usize)>,
) -> ClassKind {
    sequential_runs_into(candidates, runs);
    ranges.clear();
    ranges.extend(runs.iter().copied().filter(|&(_, len)| len >= threshold));
    if ranges.is_empty() {
        if candidates.iter().any(|c| c.is_some()) {
            return ClassKind::ScatteredPartial;
        }
        return ClassKind::Unique;
    }
    if ranges[..] == [(0, candidates.len())] {
        return ClassKind::FullyRedundantSequential;
    }
    ClassKind::ContiguousPartial
}

/// Classify for **Full-Dedupe**: every chunk with a candidate is
/// deduplicated, regardless of layout. Scattered dedup is exactly what
/// causes Full-Dedupe's fragmentation problem. Scratch contract as in
/// [`classify_for_select_into`].
pub fn classify_for_full_into(
    candidates: &[ChunkCandidate],
    ranges: &mut Vec<(usize, usize)>,
) -> ClassKind {
    ranges.clear();
    for (i, c) in candidates.iter().enumerate() {
        if c.is_some() {
            match ranges.last_mut() {
                Some((start, len)) if *start + *len == i => *len += 1,
                _ => ranges.push((i, 1)),
            }
        }
    }
    if ranges.is_empty() {
        return ClassKind::Unique;
    }
    if ranges[..] == [(0, candidates.len())] {
        return ClassKind::FullyRedundantSequential;
    }
    ClassKind::ContiguousPartial
}

#[cfg(test)]
mod tests {
    use super::*;
    use ClassKind::*;

    /// A classification with the ranges it deposited.
    type Class = (ClassKind, Vec<(usize, usize)>);

    fn c(vals: &[i64]) -> Vec<ChunkCandidate> {
        // -1 = no candidate; otherwise the candidate PBA.
        vals.iter()
            .map(|&v| {
                if v < 0 {
                    None
                } else {
                    Some(Pba::new(v as u64))
                }
            })
            .collect()
    }

    fn runs(cand: &[ChunkCandidate]) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        sequential_runs_into(cand, &mut runs);
        runs
    }

    fn select(cand: &[ChunkCandidate], threshold: usize) -> Class {
        let (mut runs, mut ranges) = (Vec::new(), Vec::new());
        let kind = classify_for_select_into(cand, threshold, &mut runs, &mut ranges);
        (kind, ranges)
    }

    fn idedup(cand: &[ChunkCandidate], threshold: usize) -> Class {
        let (mut runs, mut ranges) = (Vec::new(), Vec::new());
        let kind = classify_for_idedup_into(cand, threshold, &mut runs, &mut ranges);
        (kind, ranges)
    }

    fn full(cand: &[ChunkCandidate]) -> Class {
        let mut ranges = Vec::new();
        let kind = classify_for_full_into(cand, &mut ranges);
        (kind, ranges)
    }

    #[test]
    fn runs_detected() {
        let cand = c(&[10, 11, 12, -1, 50, 99, 100]);
        assert_eq!(runs(&cand), vec![(0, 3), (4, 1), (5, 2)]);
    }

    #[test]
    fn runs_split_on_non_sequential_candidates() {
        let cand = c(&[10, 12, 13]);
        assert_eq!(runs(&cand), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn empty_candidates_no_runs() {
        assert!(runs(&c(&[-1, -1])).is_empty());
        assert!(runs(&[]).is_empty());
    }

    // --- Select-Dedupe ---

    #[test]
    fn select_cat1_fully_redundant_sequential() {
        assert_eq!(
            select(&c(&[7, 8, 9, 10]), 3),
            (FullyRedundantSequential, vec![(0, 4)])
        );
    }

    #[test]
    fn select_single_block_fully_redundant_is_cat1() {
        // The small-write case iDedup ignores and POD embraces.
        assert_eq!(
            select(&c(&[42]), 3),
            (FullyRedundantSequential, vec![(0, 1)])
        );
    }

    #[test]
    fn select_cat2_scattered_below_threshold() {
        assert_eq!(select(&c(&[5, -1, -1, 77]), 3), (ScatteredPartial, vec![]));
    }

    #[test]
    fn select_cat3_contiguous_run_at_threshold() {
        assert_eq!(
            select(&c(&[20, 21, 22, -1, -1]), 3),
            (ContiguousPartial, vec![(0, 3)])
        );
    }

    #[test]
    fn select_fully_redundant_but_scattered_is_not_cat1() {
        // All chunks redundant but stored non-sequentially: deduping all
        // of them would fragment reads. Runs of >= threshold still dedup.
        assert_eq!(select(&c(&[10, 20, 30, 40]), 3), (ScatteredPartial, vec![]));
        assert_eq!(
            select(&c(&[10, 11, 12, 40]), 3),
            (ContiguousPartial, vec![(0, 3)])
        );
    }

    #[test]
    fn select_unique_request() {
        assert_eq!(select(&c(&[-1, -1]), 3), (Unique, vec![]));
    }

    #[test]
    fn select_short_redundant_run_below_threshold_scattered() {
        assert_eq!(select(&c(&[10, 11, -1, -1]), 3), (ScatteredPartial, vec![]));
    }

    // --- iDedup ---

    #[test]
    fn idedup_bypasses_small_fully_redundant_requests() {
        // 2-block fully redundant request, threshold 8: bypassed.
        assert_eq!(idedup(&c(&[5, 6]), 8), (ScatteredPartial, vec![]));
    }

    #[test]
    fn idedup_dedups_long_sequential_runs() {
        let cand = c(&[10, 11, 12, 13, 14, 15, 16, 17, -1, -1]);
        assert_eq!(idedup(&cand, 8), (ContiguousPartial, vec![(0, 8)]));
    }

    #[test]
    fn idedup_full_request_run_is_cat1() {
        let cand = c(&[10, 11, 12, 13, 14, 15, 16, 17]);
        assert_eq!(idedup(&cand, 8), (FullyRedundantSequential, vec![(0, 8)]));
    }

    #[test]
    fn idedup_unique() {
        assert_eq!(idedup(&c(&[-1]), 8), (Unique, vec![]));
    }

    // --- Full-Dedupe ---

    #[test]
    fn full_dedups_every_candidate_even_scattered() {
        assert_eq!(
            full(&c(&[10, -1, 99, -1])),
            (ContiguousPartial, vec![(0, 1), (2, 1)]),
            "scattered chunks are deduplicated anyway"
        );
    }

    #[test]
    fn full_fully_redundant_any_layout_removes_request() {
        // Even a scattered fully-redundant request is entirely deduped.
        assert_eq!(
            full(&c(&[10, 50, 90])),
            (FullyRedundantSequential, vec![(0, 3)])
        );
    }

    #[test]
    fn full_unique() {
        assert_eq!(full(&c(&[-1, -1])), (Unique, vec![]));
    }

    #[test]
    fn into_variants_fill_full_range_for_cat1() {
        // The scratch contract: FullyRedundantSequential deposits the
        // single full-request range so callers drive dedup off `ranges`,
        // and reused scratch is cleared by every call.
        let (mut runs, mut ranges) = (Vec::new(), vec![(9, 9)]);
        let kind = classify_for_select_into(&c(&[7, 8, 9]), 3, &mut runs, &mut ranges);
        assert_eq!(kind, FullyRedundantSequential);
        assert_eq!(ranges, vec![(0, 3)]);

        let kind = classify_for_idedup_into(&c(&[7, 8, 9]), 3, &mut runs, &mut ranges);
        assert_eq!(kind, FullyRedundantSequential);
        assert_eq!(ranges, vec![(0, 3)]);

        let kind = classify_for_full_into(&c(&[10, 50, 90]), &mut ranges);
        assert_eq!(kind, FullyRedundantSequential);
        assert_eq!(ranges, vec![(0, 3)]);

        let kind = classify_for_select_into(&c(&[-1]), 3, &mut runs, &mut ranges);
        assert_eq!(kind, Unique);
        assert!(runs.is_empty() && ranges.is_empty());
    }
}
