//! Per-disk I/O schedulers.
//!
//! The paper's testbed ran Linux MD over stock HDDs; the queue discipline
//! matters because Select-Dedupe's win partly comes from *shortening the
//! disk queue* ("the significant number of reduced write requests ...
//! greatly shortens the length of the disk I/O queue", §IV-B). We provide
//! FIFO (MD's effective order under trace replay), SSTF, and a LOOK-style
//! elevator, compared by `experiments::scheduler_sweep`
//! (`ablation_scheduler.csv`).

/// Queue discipline used by each simulated disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// First-in first-out: earliest arrival, ties to the lowest index
    /// in the pending queue. The engine removes a dispatched op with
    /// `swap_remove`, moving the queue's last op into its place, so ops
    /// that arrived at the same time are not always served in the order
    /// they were submitted.
    #[default]
    Fifo,
    /// Shortest seek time first (greedy).
    Sstf,
    /// LOOK elevator: service in the current direction, reverse at the
    /// last pending request.
    Elevator,
}

impl SchedulerKind {
    /// Pick the index of the next op to service from `pending`, read in
    /// place: `key` gives each op's `(lba, arrival_us)`, its disk-local
    /// target block and its arrival time in µs.
    ///
    /// * `head` — current head position (disk-local block).
    /// * `direction_up` — elevator state: sweeping toward higher blocks.
    ///
    /// Returns `(index, new_direction_up)`. `pending` must be non-empty.
    pub fn pick<T>(
        &self,
        pending: &[T],
        key: impl Fn(&T) -> (u64, u64),
        head: u64,
        direction_up: bool,
    ) -> (usize, bool) {
        debug_assert!(!pending.is_empty());
        let lba = |op: &T| key(op).0;
        match self {
            SchedulerKind::Fifo => {
                // Earliest arrival; ties to the lowest index (stable min).
                let mut best = 0;
                for (i, op) in pending.iter().enumerate().skip(1) {
                    if key(op).1 < key(&pending[best]).1 {
                        best = i;
                    }
                }
                (best, direction_up)
            }
            SchedulerKind::Sstf => {
                let mut best = 0;
                let mut best_dist = lba(&pending[0]).abs_diff(head);
                for (i, op) in pending.iter().enumerate().skip(1) {
                    let d = lba(op).abs_diff(head);
                    if d < best_dist {
                        best = i;
                        best_dist = d;
                    }
                }
                (best, direction_up)
            }
            SchedulerKind::Elevator => {
                // Nearest pending request in the sweep direction; if none,
                // reverse.
                let in_dir = |lba: u64| {
                    if direction_up {
                        lba >= head
                    } else {
                        lba <= head
                    }
                };
                let candidate = pending
                    .iter()
                    .enumerate()
                    .filter(|(_, op)| in_dir(lba(op)))
                    .min_by_key(|(_, op)| lba(op).abs_diff(head));
                match candidate {
                    Some((i, _)) => (i, direction_up),
                    None => {
                        let (i, _) = pending
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, op)| lba(op).abs_diff(head))
                            .expect("pending non-empty");
                        (i, !direction_up)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pending op, holding just what [`SchedulerKind::pick`] reads.
    #[derive(Clone, Copy, Debug)]
    struct View {
        lba: u64,
        arrival_us: u64,
    }

    fn view(lba: u64, arrival_us: u64) -> View {
        View { lba, arrival_us }
    }

    fn pick(kind: SchedulerKind, pending: &[View], head: u64, dir: bool) -> (usize, bool) {
        kind.pick(pending, |v| (v.lba, v.arrival_us), head, dir)
    }

    #[test]
    fn fifo_picks_earliest_arrival() {
        let pending = [view(100, 30), view(50, 10), view(70, 20)];
        let (i, _) = pick(SchedulerKind::Fifo, &pending, 0, true);
        assert_eq!(i, 1);
    }

    #[test]
    fn fifo_tie_breaks_by_submission_order() {
        // On a slice, index order; the engine's queues are not kept in
        // submission order (`engine::tests::fifo_ties_follow_the_queue_not_submission_order`).
        let pending = [view(100, 10), view(50, 10)];
        let (i, _) = pick(SchedulerKind::Fifo, &pending, 0, true);
        assert_eq!(i, 0);
    }

    #[test]
    fn sstf_picks_nearest() {
        let pending = [view(100, 1), view(55, 2), view(70, 3)];
        let (i, _) = pick(SchedulerKind::Sstf, &pending, 60, true);
        assert_eq!(i, 1); // |55-60| = 5 is minimal
    }

    #[test]
    fn elevator_continues_direction() {
        let pending = [view(40, 1), view(80, 2), view(65, 3)];
        // Head at 60 sweeping up: nearest >= 60 is 65.
        let (i, up) = pick(SchedulerKind::Elevator, &pending, 60, true);
        assert_eq!(i, 2);
        assert!(up);
    }

    #[test]
    fn elevator_reverses_at_end() {
        let pending = [view(40, 1), view(10, 2)];
        // Head at 60 sweeping up: nothing above, reverse and take nearest.
        let (i, up) = pick(SchedulerKind::Elevator, &pending, 60, true);
        assert_eq!(i, 0); // 40 is nearest below
        assert!(!up, "direction flips");
    }

    #[test]
    fn elevator_down_sweep() {
        let pending = [view(40, 1), view(80, 2)];
        let (i, up) = pick(SchedulerKind::Elevator, &pending, 60, false);
        assert_eq!(i, 0);
        assert!(!up);
    }

    #[test]
    fn default_is_fifo() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Fifo);
    }

    const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Fifo,
        SchedulerKind::Sstf,
        SchedulerKind::Elevator,
    ];

    /// Every scheduler must return a valid index for every queue length,
    /// even under adversarial arrivals: identical LBAs, identical
    /// arrival times, and maximally distant positions in one queue.
    #[test]
    fn adversarial_queues_always_yield_a_valid_index() {
        let queues: [&[View]; 4] = [
            &[view(5, 0); 7],                              // all identical
            &[view(0, 3), view(u64::MAX, 3), view(42, 3)], // arrival ties
            &[view(u64::MAX, 0), view(0, 1)],              // extreme span
            &[view(9, 9)],                                 // singleton
        ];
        for kind in ALL {
            for q in queues {
                for dir in [false, true] {
                    let (i, _) = pick(kind, q, u64::MAX / 2, dir);
                    assert!(i < q.len(), "{kind:?} picked {i} of {}", q.len());
                }
            }
        }
    }

    /// FIFO is starvation-free by construction: draining any queue
    /// services ops in arrival order no matter where they land on disk.
    #[test]
    fn fifo_drains_in_arrival_order() {
        let mut pending = vec![
            view(900, 4),
            view(10, 0),
            view(800, 2),
            view(20, 1),
            view(500, 3),
        ];
        let mut order = Vec::new();
        let mut head = 0;
        while !pending.is_empty() {
            let (i, _) = pick(SchedulerKind::Fifo, &pending, head, true);
            let op = pending.remove(i);
            head = op.lba;
            order.push(op.arrival_us);
        }
        assert_eq!(order, [0, 1, 2, 3, 4]);
    }

    /// SSTF starves distant requests: with a stream of near-head
    /// arrivals, the far op is always passed over. This is the known
    /// unfairness the elevator exists to fix, pinned here so a future
    /// "improvement" to SSTF doesn't silently change engine behavior.
    #[test]
    fn sstf_starves_the_far_request_under_near_arrivals() {
        let far = view(1_000_000, 0); // oldest request, far from head
        for step in 0..50u64 {
            let near = view(step, step + 1); // younger but near
            let (i, _) = pick(SchedulerKind::Sstf, &[far, near], step, true);
            assert_eq!(i, 1, "SSTF keeps choosing the near op at step {step}");
        }
    }

    /// The elevator services every pending request exactly once per
    /// drain (no starvation): one up sweep, one reversal, one down
    /// sweep, and every LBA is visited.
    #[test]
    fn elevator_drain_visits_every_request_once() {
        let mut pending = vec![
            view(70, 0),
            view(10, 1),
            view(95, 2),
            view(40, 3),
            view(60, 4),
        ];
        let mut head = 50;
        let mut dir = true;
        let mut visited = Vec::new();
        while !pending.is_empty() {
            let (i, ndir) = pick(SchedulerKind::Elevator, &pending, head, dir);
            let op = pending.remove(i);
            head = op.lba;
            dir = ndir;
            visited.push(op.lba);
        }
        // Up sweep from 50 (60, 70, 95), reverse, down sweep (40, 10).
        assert_eq!(visited, [60, 70, 95, 40, 10]);
        // LOOK property: the visit order reverses direction at most once.
        let dirs: Vec<bool> = visited.windows(2).map(|w| w[1] > w[0]).collect();
        let reversals = dirs.windows(2).filter(|d| d[0] != d[1]).count();
        assert!(reversals <= 1, "more than one reversal: {visited:?}");
    }

    /// An elevator sweeping down behaves symmetrically: nearest request
    /// at-or-below the head wins, and a queue of one follows the same
    /// reversal rule.
    #[test]
    fn elevator_symmetry_on_down_sweep() {
        let pending = [view(55, 0), view(45, 1), view(48, 2)];
        let (i, up) = pick(SchedulerKind::Elevator, &pending, 50, false);
        assert_eq!(i, 2, "48 is the nearest at-or-below 50");
        assert!(!up);
        assert_eq!(
            pick(SchedulerKind::Elevator, &[view(48, 0)], 50, false),
            (0, false)
        );
        assert_eq!(
            pick(SchedulerKind::Elevator, &[view(55, 0)], 50, false),
            (0, true),
            "reverses up"
        );
    }
}
