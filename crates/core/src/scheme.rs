//! The five evaluated schemes.

use crate::stack::{CacheKeying, StackSpec};
use pod_dedup::DedupPolicy;

/// A complete storage-stack configuration under evaluation (paper §IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// HDD array without deduplication.
    Native,
    /// Traditional full inline dedup with a complete (on-disk) index.
    FullDedupe,
    /// Capacity-oriented selective dedup (Srinivasan et al., FAST'12).
    IDedup,
    /// POD's write-path component alone, with a fixed 50/50 cache split
    /// (§IV-B isolates it this way first).
    SelectDedupe,
    /// The full POD system: Select-Dedupe + adaptive iCache (§IV-C).
    Pod,
    /// Post-processing deduplication (paper Table I): native write path,
    /// background dedup pass for capacity savings only.
    PostProcess,
    /// I/O Deduplication (Koller & Rangaswami; paper Table I): native
    /// write path with a content-addressed read cache.
    IODedup,
}

impl Scheme {
    /// The five schemes of the paper's quantitative evaluation (§IV), in
    /// presentation order.
    pub fn all() -> [Scheme; 5] {
        [
            Scheme::Native,
            Scheme::FullDedupe,
            Scheme::IDedup,
            Scheme::SelectDedupe,
            Scheme::Pod,
        ]
    }

    /// Every implemented scheme, including the two additional rows of
    /// the qualitative comparison in Table I.
    pub fn extended() -> [Scheme; 7] {
        [
            Scheme::Native,
            Scheme::FullDedupe,
            Scheme::IDedup,
            Scheme::SelectDedupe,
            Scheme::Pod,
            Scheme::PostProcess,
            Scheme::IODedup,
        ]
    }

    /// The dedup policy driving the write path.
    pub fn policy(&self) -> DedupPolicy {
        match self {
            Scheme::Native => DedupPolicy::Native,
            Scheme::FullDedupe => DedupPolicy::FullDedupe,
            Scheme::IDedup => DedupPolicy::IDedup,
            Scheme::SelectDedupe | Scheme::Pod => DedupPolicy::SelectDedupe,
            Scheme::PostProcess => DedupPolicy::PostProcess,
            Scheme::IODedup => DedupPolicy::IODedup,
        }
    }

    /// Whether the iCache adapts its partition (POD only; everything
    /// else uses the paper's fixed split).
    pub fn adaptive_icache(&self) -> bool {
        matches!(self, Scheme::Pod)
    }

    /// Whether the scheme deduplicates at all (and therefore owns the
    /// storage-node cache budget).
    pub fn dedups(&self) -> bool {
        !matches!(self, Scheme::Native)
    }

    /// Whether fingerprinting happens on the write's critical path.
    /// PostProcess hashes out-of-band during its background scan.
    pub fn inline_hashing(&self) -> bool {
        self.dedups() && !matches!(self, Scheme::PostProcess)
    }

    /// Whether the read cache is content-addressed (I/O-Dedup's design:
    /// duplicate blocks share one cache slot).
    pub fn content_addressed_cache(&self) -> bool {
        matches!(self, Scheme::IODedup)
    }

    /// The declarative stack this scheme composes. This is the single
    /// point where a `Scheme` becomes layer configuration — the replay
    /// driver consumes only the returned [`StackSpec`].
    pub fn stack_spec(&self) -> StackSpec {
        StackSpec {
            name: self.name(),
            policy: self.policy(),
            dedups: self.dedups(),
            inline_hashing: self.inline_hashing(),
            adaptive_icache: self.adaptive_icache(),
            keying: if self.content_addressed_cache() {
                CacheKeying::Content
            } else {
                CacheKeying::Lba
            },
        }
    }

    /// Start building a replay of this scheme:
    /// `Scheme::Pod.builder().trace(&t).run()?`. See
    /// [`ReplayBuilder`](crate::runner::ReplayBuilder).
    pub fn builder(self) -> crate::runner::ReplayBuilder<'static> {
        crate::runner::ReplayBuilder::new(self)
    }

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Native => "Native",
            Scheme::FullDedupe => "Full-Dedupe",
            Scheme::IDedup => "iDedup",
            Scheme::SelectDedupe => "Select-Dedupe",
            Scheme::Pod => "POD",
            Scheme::PostProcess => "Post-Process",
            Scheme::IODedup => "I/O-Dedup",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_map_correctly() {
        assert_eq!(Scheme::Native.policy(), DedupPolicy::Native);
        assert_eq!(Scheme::FullDedupe.policy(), DedupPolicy::FullDedupe);
        assert_eq!(Scheme::IDedup.policy(), DedupPolicy::IDedup);
        assert_eq!(Scheme::SelectDedupe.policy(), DedupPolicy::SelectDedupe);
        assert_eq!(Scheme::Pod.policy(), DedupPolicy::SelectDedupe);
    }

    #[test]
    fn only_pod_adapts() {
        for s in Scheme::extended() {
            assert_eq!(s.adaptive_icache(), s == Scheme::Pod);
        }
    }

    #[test]
    fn extended_set_is_superset() {
        for s in Scheme::all() {
            assert!(Scheme::extended().contains(&s));
        }
        assert_eq!(Scheme::PostProcess.policy(), DedupPolicy::PostProcess);
        assert_eq!(Scheme::IODedup.policy(), DedupPolicy::IODedup);
    }

    #[test]
    fn hashing_placement() {
        assert!(Scheme::Pod.inline_hashing());
        assert!(Scheme::IODedup.inline_hashing());
        assert!(!Scheme::PostProcess.inline_hashing(), "hashes out-of-band");
        assert!(!Scheme::Native.inline_hashing());
        assert!(Scheme::IODedup.content_addressed_cache());
        assert!(!Scheme::Pod.content_addressed_cache());
    }

    #[test]
    fn native_does_not_dedup() {
        assert!(!Scheme::Native.dedups());
        assert!(Scheme::Pod.dedups());
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Scheme::Pod.name(), "POD");
        assert_eq!(format!("{}", Scheme::SelectDedupe), "Select-Dedupe");
    }

    #[test]
    fn stack_spec_mirrors_scheme_flags() {
        for s in Scheme::extended() {
            let spec = s.stack_spec();
            assert_eq!(spec.name, s.name());
            assert_eq!(spec.policy, s.policy());
            assert_eq!(spec.dedups, s.dedups());
            assert_eq!(spec.inline_hashing, s.inline_hashing());
            assert_eq!(spec.adaptive_icache, s.adaptive_icache());
            assert_eq!(
                spec.keying == CacheKeying::Content,
                s.content_addressed_cache()
            );
        }
    }

    /// Observed, not declared: a tiny replay scans in the background
    /// exactly under Post-Process, and every stack closes iCache epochs
    /// (non-adaptive stacks still account requests, they just never
    /// repartition).
    #[test]
    fn background_steps_follow_the_scheme() {
        let trace = pod_trace::TraceProfile::mail().scaled(0.004).generate(17);
        for s in Scheme::extended() {
            let rep = s
                .builder()
                .config(crate::SystemConfig::test_default())
                .trace(&trace)
                .run()
                .expect("replay");
            assert_eq!(rep.stack.all.scans > 0, s == Scheme::PostProcess, "{s}");
            assert!(rep.icache_epochs > 0, "{s}");
        }
    }

    /// Each `BackgroundScan` as (requests done before it, chunks it
    /// examined), and whether `Finished` had been emitted.
    #[derive(Default)]
    struct ScanLog {
        requests_done: u64,
        scans: Vec<(u64, u64)>,
        finished: bool,
    }

    impl crate::StackObserver for ScanLog {
        fn on_event(&mut self, ev: &crate::StackEvent) {
            match *ev {
                crate::StackEvent::RequestDone { .. } => self.requests_done += 1,
                crate::StackEvent::BackgroundScan { scanned_chunks, .. } => {
                    assert!(!self.finished, "scan after Finished");
                    self.scans.push((self.requests_done, scanned_chunks));
                }
                crate::StackEvent::Finished => self.finished = true,
                _ => {}
            }
        }
    }

    /// The Post-Process cadence: one scan after every 2,000th request,
    /// each examining at most 16,384 queued chunks, and the rest of the
    /// backlog drained by `finish`, after the last request.
    #[test]
    fn post_process_scans_every_2000_requests_and_drains_at_finish() {
        use pod_types::{Fingerprint, IoRequest, Lba, SimTime};
        // 4,500 writes of 16 fresh blocks each over 512 extents: 32,000
        // chunks queue up per 2,000 requests, more than one scan takes.
        let requests = (0..4_500u64)
            .map(|i| {
                let chunks = (0..16)
                    .map(|b| Fingerprint::from_content_id(i * 16 + b + 1))
                    .collect();
                let lba = Lba::new(i % 512 * 16);
                IoRequest::write(SimTime::from_micros(i * 1_000), lba, chunks)
            })
            .collect();
        let trace = pod_trace::Trace {
            name: "post-process-cadence".into(),
            requests,
            memory_budget_bytes: 1 << 20,
        };
        let (_, chain) = Scheme::PostProcess
            .builder()
            .config(crate::SystemConfig::test_default())
            .trace(&trace)
            .observer(ScanLog::default())
            .run_observed()
            .expect("replay");
        let log = chain.sink::<ScanLog>().expect("scan log");
        assert!(log.finished);
        assert_eq!(
            log.scans,
            [
                // In the replay, capped at the batch.
                (2_000, 16_384),
                (4_000, 16_384),
                // At finish: the 39,232-chunk backlog, a batch at a time.
                (4_500, 16_384),
                (4_500, 16_384),
                (4_500, 6_464),
            ]
        );
    }

    #[test]
    fn stack_spec_pod_vs_iodedup_composition() {
        let pod = Scheme::Pod.stack_spec();
        assert!(pod.adaptive_icache && pod.inline_hashing && pod.dedups);
        assert_eq!(pod.keying, CacheKeying::Lba);
        assert_eq!(pod.policy, DedupPolicy::SelectDedupe);

        let io = Scheme::IODedup.stack_spec();
        assert_eq!(io.keying, CacheKeying::Content);
        assert!(!io.adaptive_icache);

        let native = Scheme::Native.stack_spec();
        assert!(!native.dedups && !native.inline_hashing);

        let post = Scheme::PostProcess.stack_spec();
        assert!(post.dedups && !post.inline_hashing, "hashes out-of-band");
        assert_eq!(post.policy, DedupPolicy::PostProcess);
    }
}
