//! Bounded work-stealing executor for the experiment grid.
//!
//! The experiment drivers previously spawned one unbounded thread per
//! scheme / sweep point, which oversubscribes small machines on big
//! grids and leaves cores idle on small grids. `Executor` instead runs
//! a fixed-width worker pool over a shared injector queue: workers pull
//! the next unclaimed item index from an atomic cursor (self-scheduling
//! steal), so the grid keeps every worker busy until the queue drains
//! regardless of per-item skew.
//!
//! Results are collected **input-ordered**: each worker tags results
//! with the item index it claimed, and the merge writes them back into
//! their original slots. Output is therefore byte-identical no matter
//! how many workers run or how the queue interleaves — the determinism
//! tests in `tests/determinism.rs` lock this in for widths 1, 2, and 8.
//! The serving engine runs its shard jobs through the same
//! [`Executor::map`]: an item is a whole shard, and the claiming worker
//! drives that shard's entire replay before stealing the next one.
//!
//! The default width is `std::thread::available_parallelism()`,
//! overridable process-wide via [`set_default_width`] (the CLI's
//! `--jobs N` flag) or per-executor via [`Executor::with_width`]. At a
//! default width of 2 or more, every stack also runs its simulated
//! array on a thread of its own (see
//! [`disk_on_own_thread`](crate::stack::disk_on_own_thread)).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide width override; 0 means "auto" (available parallelism).
static DEFAULT_WIDTH: AtomicUsize = AtomicUsize::new(0);

/// Override the default executor width process-wide (`--jobs N`).
/// Passing 0 restores auto-detection.
pub fn set_default_width(width: usize) {
    DEFAULT_WIDTH.store(width, Ordering::Relaxed);
}

/// Width new executors use: the [`set_default_width`] override if set,
/// otherwise the machine's available parallelism (at least 1).
pub fn default_width() -> usize {
    match DEFAULT_WIDTH.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Fixed-width scoped-thread executor with an injector queue and
/// input-ordered result collection.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    width: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// Executor at the process default width (see [`default_width`]).
    pub fn new() -> Self {
        Self::with_width(default_width())
    }

    /// Executor with an explicit worker count.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn with_width(width: usize) -> Self {
        assert!(width > 0, "executor needs at least one worker");
        Self { width }
    }

    /// Worker count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Apply `f` to every item, at most `width` at a time, returning
    /// results in input order.
    ///
    /// Items are claimed dynamically (each idle worker steals the next
    /// unprocessed index), so uneven per-item cost does not serialize
    /// the grid. `f` must be deterministic per item for the ordered
    /// output to be reproducible across widths — all experiment
    /// workloads here are.
    ///
    /// # Panics
    /// Propagates a panic from any worker.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let width = self.width.min(items.len());
        if width == 1 {
            return items.iter().map(f).collect();
        }

        let cursor = AtomicUsize::new(0);
        let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..width)
                .map(|_| {
                    let cursor = &cursor;
                    let f = &f;
                    s.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            local.push((i, f(item)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor worker panicked"))
                .collect()
        });

        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(items.len(), || None);
        for (i, r) in buckets.into_iter().flatten() {
            debug_assert!(out[i].is_none(), "item {i} claimed twice");
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every item claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_input_ordered() {
        let items: Vec<u64> = (0..100).collect();
        for width in [1, 2, 3, 8, 64] {
            let got = Executor::with_width(width).map(&items, |&x| x * 2);
            let want: Vec<u64> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = Executor::with_width(4).map(&items, |&i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn width_exceeding_items_is_fine() {
        let out = Executor::with_width(16).map(&[1, 2, 3], |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = Executor::with_width(4).map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn skewed_work_still_ordered() {
        // Make early items slow so later items finish first.
        let items: Vec<u64> = (0..32).collect();
        let got = Executor::with_width(8).map(&items, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_width_rejected() {
        let _ = Executor::with_width(0);
    }

    #[test]
    fn default_width_override_roundtrip() {
        let auto = default_width();
        assert!(auto >= 1);
        set_default_width(3);
        assert_eq!(default_width(), 3);
        assert_eq!(Executor::new().width(), 3);
        set_default_width(0);
        assert_eq!(default_width(), auto);
    }
}
