//! Disk and array specifications.
//!
//! The mechanical model is the standard three-term HDD service time:
//! `seek(distance) + rotational latency + transfer`, with seek modelled
//! as `min_seek + (max_seek - min_seek) * sqrt(d / capacity)` (the usual
//! square-root approximation of arm acceleration) and rotation as half a
//! revolution for any non-sequential access. Sequential continuation
//! (head already at the target block) pays transfer time only.

use pod_types::{PodError, PodResult, SimDuration};

/// Mechanical parameters of one disk drive.
#[derive(Clone, Debug, PartialEq)]
pub struct DiskSpec {
    /// Usable capacity in 4 KiB blocks.
    pub capacity_blocks: u64,
    /// Track-to-track (minimum non-zero) seek, µs.
    pub min_seek_us: u64,
    /// Full-stroke seek, µs.
    pub max_seek_us: u64,
    /// Spindle speed, revolutions per minute.
    pub rpm: u32,
    /// Sustained transfer time per 4 KiB block, µs.
    pub transfer_us_per_block: u64,
}

impl DiskSpec {
    /// WDC WD1600AAJS (the paper's data disks): 160 GB, 7200 rpm,
    /// ~0.8 ms track-to-track, ~8.9 ms avg seek (max ~17 ms), ~95 MB/s
    /// sustained → ~42 µs per 4 KiB block.
    pub fn wd1600aajs() -> Self {
        Self {
            capacity_blocks: 160 * 1024 * 1024 / 4, // 160 GB of 4 KiB blocks
            min_seek_us: 800,
            max_seek_us: 17_000,
            rpm: 7200,
            transfer_us_per_block: 42,
        }
    }

    /// A small, fast disk for unit tests: latencies are round numbers so
    /// expected service times are easy to compute by hand.
    pub fn test_disk() -> Self {
        Self {
            capacity_blocks: 10_000,
            min_seek_us: 100,
            max_seek_us: 1_000,
            rpm: 6_000, // 10 ms/rev -> 5 ms half-rev
            transfer_us_per_block: 10,
        }
    }

    /// Time for one full platter revolution.
    pub fn revolution(&self) -> SimDuration {
        SimDuration::from_micros(60_000_000 / self.rpm as u64)
    }

    /// Average rotational latency (half a revolution).
    pub fn avg_rotational_latency(&self) -> SimDuration {
        SimDuration::from_micros(60_000_000 / self.rpm as u64 / 2)
    }

    /// Seek time for a head movement of `distance` blocks.
    pub fn seek_time(&self, distance: u64) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let frac = (distance as f64 / self.capacity_blocks as f64).min(1.0);
        let us =
            self.min_seek_us as f64 + (self.max_seek_us - self.min_seek_us) as f64 * frac.sqrt();
        SimDuration::from_micros(round_non_negative(us))
    }

    /// Full service time for an access at `distance` blocks from the
    /// current head position, transferring `nblocks`.
    ///
    /// `distance == 0` models sequential continuation: no seek, no
    /// rotational delay, pure media transfer.
    pub fn service_time(&self, distance: u64, nblocks: u32) -> SimDuration {
        let transfer = SimDuration::from_micros(self.transfer_us_per_block * nblocks as u64);
        if distance == 0 {
            transfer
        } else {
            self.seek_time(distance) + self.avg_rotational_latency() + transfer
        }
    }

    /// Validate invariants.
    pub fn validate(&self) -> PodResult<()> {
        if self.capacity_blocks == 0 {
            return Err(PodError::InvalidConfig("disk capacity is zero".into()));
        }
        if self.rpm == 0 {
            return Err(PodError::InvalidConfig("rpm is zero".into()));
        }
        if self.max_seek_us < self.min_seek_us {
            return Err(PodError::InvalidConfig(
                "max seek shorter than min seek".into(),
            ));
        }
        Ok(())
    }
}

/// `x.round() as u64` for a finite `x ≥ 0`, without the libm call.
///
/// Below 2^52 the sum `x + 0.5` truncates to the rounded value, except
/// just under 0.5, where the sum itself rounds up to 1.0; from 2^52 on
/// every `f64` is already an integer.
#[inline]
fn round_non_negative(x: f64) -> u64 {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    if x < 0.5 {
        0
    } else if x < TWO_POW_52 {
        (x + 0.5) as u64
    } else {
        x as u64
    }
}

/// Array geometry: a RAID-5 with rotating parity, where small writes
/// pay read-modify-write (the paper's array, §IV-B).
#[derive(Clone, Debug, PartialEq)]
pub struct RaidConfig {
    /// Number of member disks, one stripe unit of each stripe holding
    /// parity.
    pub ndisks: usize,
    /// Stripe unit in 4 KiB blocks (paper: 64 KiB → 16 blocks).
    pub stripe_unit_blocks: u64,
}

impl RaidConfig {
    /// The paper's evaluation array: 4-disk RAID-5, 64 KiB stripe unit
    /// (§IV-B).
    pub fn paper_raid5() -> Self {
        Self {
            ndisks: 4,
            stripe_unit_blocks: 16,
        }
    }

    /// Data disks per stripe (excludes parity).
    pub fn data_disks(&self) -> usize {
        self.ndisks - 1
    }

    /// Validate invariants.
    pub fn validate(&self) -> PodResult<()> {
        if self.ndisks < 3 {
            return Err(PodError::InvalidConfig(
                "RAID-5 requires at least 3 disks".into(),
            ));
        }
        if self.stripe_unit_blocks == 0 {
            return Err(PodError::InvalidConfig("stripe unit is zero".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revolution_math() {
        let d = DiskSpec::test_disk();
        assert_eq!(d.revolution().as_micros(), 10_000);
        assert_eq!(d.avg_rotational_latency().as_micros(), 5_000);
        let w = DiskSpec::wd1600aajs();
        assert_eq!(w.revolution().as_micros(), 8_333);
    }

    #[test]
    fn seek_zero_distance_is_free() {
        let d = DiskSpec::test_disk();
        assert_eq!(d.seek_time(0), SimDuration::ZERO);
    }

    #[test]
    fn seek_grows_with_distance_and_saturates() {
        let d = DiskSpec::test_disk();
        let near = d.seek_time(1);
        let mid = d.seek_time(2_500); // quarter of capacity -> sqrt = .5
        let far = d.seek_time(10_000);
        let beyond = d.seek_time(1_000_000);
        assert!(near >= SimDuration::from_micros(100));
        assert!(near < mid && mid < far);
        assert_eq!(mid.as_micros(), 100 + 450); // 100 + 900*0.5
        assert_eq!(far.as_micros(), 1_000);
        assert_eq!(beyond, far, "distance clamps at full stroke");
    }

    /// The seek model exactly as written, rounded by `f64::round`.
    fn libm_seek_us(d: &DiskSpec, distance: u64) -> u64 {
        let frac = (distance as f64 / d.capacity_blocks as f64).min(1.0);
        (d.min_seek_us as f64 + (d.max_seek_us - d.min_seek_us) as f64 * frac.sqrt()).round() as u64
    }

    #[test]
    fn seek_time_rounds_exactly_like_f64_round() {
        let mut sub_us = DiskSpec::test_disk();
        // Seeks of 0..=1 µs: every distance up to a quarter of the disk
        // rounds down, the quarter itself (exactly 0.5) and beyond up.
        sub_us.min_seek_us = 0;
        sub_us.max_seek_us = 1;
        for d in [DiskSpec::test_disk(), DiskSpec::wd1600aajs(), sub_us] {
            let cap = d.capacity_blocks;
            let stride = (cap / 100_003).max(1);
            let distances = (1..=65_536).chain((1..=cap + 1).step_by(stride as usize));
            for distance in distances.chain([cap - 1, cap, cap + 1, u64::MAX]) {
                assert_eq!(
                    d.seek_time(distance).as_micros(),
                    libm_seek_us(&d, distance),
                    "{d:?} at distance {distance}"
                );
            }
        }
    }

    #[test]
    fn rounding_edges() {
        let just_below_half = f64::from_bits(0.5f64.to_bits() - 1);
        assert_eq!(
            just_below_half + 0.5,
            1.0,
            "the case the first arm exists for"
        );
        let odd_past_2_52 = 4_503_599_627_370_497.0;
        for x in [
            0.0,
            just_below_half,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.5,
            2.5,
            1_000.499_999_999_999_9,
            odd_past_2_52,
            f64::MAX,
        ] {
            assert_eq!(round_non_negative(x), x.round() as u64, "{x:e}");
        }
    }

    #[test]
    fn sequential_service_is_transfer_only() {
        let d = DiskSpec::test_disk();
        assert_eq!(d.service_time(0, 4).as_micros(), 40);
    }

    #[test]
    fn random_service_includes_seek_and_rotation() {
        let d = DiskSpec::test_disk();
        // seek(10000)=1000, rot=5000, transfer 1 block = 10
        assert_eq!(d.service_time(10_000, 1).as_micros(), 6_010);
    }

    #[test]
    fn spec_validation() {
        assert!(DiskSpec::wd1600aajs().validate().is_ok());
        let mut bad = DiskSpec::test_disk();
        bad.capacity_blocks = 0;
        assert!(bad.validate().is_err());
        let mut bad2 = DiskSpec::test_disk();
        bad2.max_seek_us = 10;
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn raid_config_validation() {
        assert!(RaidConfig::paper_raid5().validate().is_ok());
        let bad = RaidConfig {
            ndisks: 2,
            stripe_unit_blocks: 16,
        };
        assert!(bad.validate().is_err());
        let bad2 = RaidConfig {
            ndisks: 4,
            stripe_unit_blocks: 0,
        };
        assert!(bad2.validate().is_err());
    }
}
