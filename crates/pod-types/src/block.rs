//! Block addressing: logical (`Lba`) and physical (`Pba`) block addresses.
//!
//! POD deduplicates at a fixed 4 KiB chunk granularity, so one "block"
//! here is one dedup chunk. `Lba` is the address a client (file system)
//! uses; `Pba` is where the block physically lives after the dedup layer
//! has had its say. The Map table in `pod-dedup` maintains the m-to-1
//! `Lba -> Pba` relation described in §III-B of the paper.

use core::fmt;

/// Size of one deduplication chunk / logical block, in bytes.
pub const BLOCK_BYTES: u64 = 4096;

/// `log2(BLOCK_BYTES)`, for cheap byte/block conversions.
pub const BLOCK_SHIFT: u32 = 12;

macro_rules! addr_newtype {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Construct from a raw block number.
            #[inline]
            pub const fn new(block: u64) -> Self {
                Self(block)
            }

            /// The raw block number.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// The address `n` blocks after this one.
            #[inline]
            pub const fn add(self, n: u64) -> Self {
                Self(self.0 + n)
            }

            /// Distance in blocks to `other` (absolute value).
            #[inline]
            pub const fn distance(self, other: Self) -> u64 {
                self.0.abs_diff(other.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }
    };
}

addr_newtype!(
    /// Logical block address, as seen by the file system above POD.
    Lba,
    "Lba"
);

addr_newtype!(
    /// Physical block address on the (simulated) storage array, after
    /// deduplication remapping.
    Pba,
    "Pba"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_constants_agree() {
        assert_eq!(1u64 << BLOCK_SHIFT, BLOCK_BYTES);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Pba::new(10);
        let b = Pba::new(25);
        assert_eq!(a.distance(b), 15);
        assert_eq!(b.distance(a), 15);
        assert_eq!(a.distance(a), 0);
    }

    #[test]
    fn display_and_debug_format() {
        assert_eq!(format!("{}", Lba::new(5)), "Lba5");
        assert_eq!(format!("{:?}", Pba::new(5)), "Pba(5)");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(Lba::new(1) < Lba::new(2));
        let mut v = vec![Pba::new(3), Pba::new(1), Pba::new(2)];
        v.sort();
        assert_eq!(v, vec![Pba::new(1), Pba::new(2), Pba::new(3)]);
    }
}
