//! VM-image fleet workload.
//!
//! The paper singles out virtual-machine platforms as POD's natural
//! habitat: images "that are mostly identical but differ in a few data
//! blocks" (§III-A), with prior studies measuring up to 90 % redundancy
//! across VM storage. This generator provisions a fleet of VMs from a
//! common golden image: each VM writes its whole image sequentially into
//! a private address region, with a small per-VM mutation rate
//! (configuration, logs, machine identity). Dedup-wise the result is the
//! textbook best case for POD — long fully-redundant sequential runs —
//! and the worst case for Native capacity.

use crate::synth::Trace;
use pod_types::rng::Rng;
use pod_types::{Fingerprint, IoRequest, Lba, SimTime};

/// Blocks per write request while streaming an image (256 KiB).
const REQUEST_BLOCKS: u64 = 64;
/// Gap between consecutive provisioning writes, µs.
const WRITE_GAP_US: u64 = 12_000;
/// DRAM budget attached to the trace, bytes.
const MEMORY_BUDGET_BYTES: u64 = 64 * 1024 * 1024;

/// Configuration of a VM provisioning workload. Every VM streams its
/// image in 256 KiB writes spaced 12 ms apart, and the trace carries a
/// 64 MiB DRAM budget.
#[derive(Debug, Clone)]
pub struct VmFleetConfig {
    /// Number of VMs provisioned.
    pub n_vms: usize,
    /// Golden-image size in 4 KiB blocks.
    pub image_blocks: u64,
    /// Probability that any given block of a clone differs from the
    /// golden image (instance-specific state).
    pub mutation_rate: f64,
}

impl Default for VmFleetConfig {
    fn default() -> Self {
        Self {
            n_vms: 8,
            image_blocks: 8_192, // 32 MiB golden image
            mutation_rate: 0.02,
        }
    }
}

impl VmFleetConfig {
    /// Generate the provisioning trace: VM 0 streams the golden image,
    /// then each subsequent VM streams its lightly mutated clone into
    /// its own region. The VMs do not interleave: each streams its
    /// whole image before the next one starts.
    pub fn generate(&self, seed: u64) -> Trace {
        assert!(self.n_vms >= 1, "fleet needs at least one VM");
        assert!(self.image_blocks >= 1);
        assert!((0.0..=1.0).contains(&self.mutation_rate));
        let mut rng = Rng::seed_from_u64(seed);
        let mut requests: Vec<IoRequest> = Vec::new();
        let mut clock = 0u64;
        let mut next_unique: u64 = 1 << 40; // clone-private content ids

        // Per-VM streaming cursors; VM v owns region [v*image, (v+1)*image).
        for vm in 0..self.n_vms as u64 {
            let region = vm * self.image_blocks;
            let mut off = 0u64;
            while off < self.image_blocks {
                let len = REQUEST_BLOCKS.min(self.image_blocks - off) as u32;
                let chunks: Vec<Fingerprint> = (0..len as u64)
                    .map(|i| {
                        let block = off + i;
                        // Golden-image content id is the block number;
                        // clones mutate a sprinkling of blocks.
                        if vm > 0 && rng.bool(self.mutation_rate) {
                            next_unique += 1;
                            Fingerprint::from_content_id(next_unique)
                        } else {
                            Fingerprint::from_content_id(block + 1)
                        }
                    })
                    .collect();
                clock += WRITE_GAP_US;
                requests.push(IoRequest::write(
                    SimTime::from_micros(clock),
                    Lba::new(region + off),
                    chunks,
                ));
                off += len as u64;
            }
        }
        Trace {
            name: format!(
                "vm-fleet({}x{}MiB)",
                self.n_vms,
                self.image_blocks * 4 / 1024
            ),
            requests,
            memory_budget_bytes: MEMORY_BUDGET_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> VmFleetConfig {
        VmFleetConfig {
            n_vms: 4,
            image_blocks: 256,
            mutation_rate: 0.05,
        }
    }

    #[test]
    fn fleet_covers_every_vm_region() {
        let t = small().generate(7);
        let blocks_written: u64 = t.requests.iter().map(|r| r.nblocks as u64).sum();
        assert_eq!(blocks_written, 4 * 256);
        assert_eq!(t.write_ratio(), 1.0);
        assert_eq!(t.address_span_blocks(), 4 * 256);
    }

    #[test]
    fn clones_are_mostly_identical() {
        let t = small().generate(7);
        let mut contents: HashSet<Fingerprint> = HashSet::new();
        for r in &t.requests {
            contents.extend(r.chunks.iter().copied());
        }
        // 4 VMs x 256 blocks but unique contents ~ 256 + mutations.
        let unique = contents.len() as f64;
        let total = 4.0 * 256.0;
        assert!(
            unique < total * 0.4,
            "fleet should be heavily redundant: {unique} unique of {total}"
        );
    }

    #[test]
    fn first_vm_is_all_golden() {
        let t = small().generate(7);
        for r in t.requests.iter().take_while(|r| r.lba.raw() < 256) {
            for (lba, fp) in r.write_chunks() {
                assert_eq!(
                    fp,
                    Fingerprint::from_content_id(lba.raw() + 1),
                    "vm 0 writes the unmodified golden image"
                );
            }
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = small().generate(1);
        let b = small().generate(1);
        let c = small().generate(2);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    #[should_panic(expected = "at least one VM")]
    fn zero_vms_rejected() {
        let cfg = VmFleetConfig {
            n_vms: 0,
            ..small()
        };
        let _ = cfg.generate(1);
    }
}
