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
