//! Simulated time.
//!
//! The storage simulator is a discrete-event simulation; all latencies in
//! the paper's evaluation are in the microsecond-to-millisecond range, so
//! time is tracked as integral **microseconds** in a `u64`. That gives
//! ~584 000 years of range — enough for any trace replay.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds since the epoch.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is actually later (callers comparing out-of-order completions rely
    /// on this never panicking).
    #[inline]
    pub const fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// Microseconds in this span.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds in this span.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(100);
        let d = SimDuration::from_micros(50);
        assert_eq!((t + d).as_micros(), 150);
        assert_eq!((t + d) - t, d);
        assert_eq!(d + d, SimDuration::from_micros(100));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(20);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a).as_micros(), 10);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }

    #[test]
    fn max_of() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(a.max_of(b), b);
        assert_eq!(b.max_of(a), b);
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(format!("{}", SimDuration::from_micros(1500)), "1.500ms");
        assert_eq!(format!("{}", SimTime::from_micros(250)), "0.250ms");
    }
}
