//! Simulation time.
//!
//! All simulators in this workspace share a single notion of virtual time:
//! an unsigned number of **picoseconds** since simulation start. Picosecond
//! resolution lets us express both sub-nanosecond bus beats (a 1000 MT/s,
//! 8-bit flash channel moves one byte per nanosecond) and long NAND array
//! operations (tens of microseconds) without rounding error, while a `u64`
//! still covers more than 200 days of virtual time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time or a duration, measured in picoseconds.
///
/// `SimTime` is deliberately a single type for both instants and durations;
/// discrete-event simulators overwhelmingly mix the two (`now + latency`)
/// and a two-type scheme adds friction without catching real bugs at this
/// scale.
///
/// # Examples
///
/// ```
/// use sim_core::SimTime;
///
/// let t_r = SimTime::from_micros(30);
/// let beat = SimTime::from_nanos(1);
/// assert_eq!(t_r / beat, 30_000);
/// assert_eq!(t_r + beat, SimTime::from_picos(30_001_000));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant / zero-length duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Creates a time from a floating-point number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        let ps = secs * 1e12;
        assert!(ps <= u64::MAX as f64, "SimTime overflow: {secs} s");
        SimTime(ps as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// This time expressed in (truncated) nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0 / 1_000
    }

    /// This time expressed in (truncated) microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This time expressed in floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// Multiplies a duration by an integer count.
    #[inline]
    pub const fn times(self, n: u64) -> SimTime {
        SimTime(self.0 * n)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime addition overflow"),
        )
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

/// Dividing two times yields the dimensionless ratio (truncated).
impl Div for SimTime {
    type Output = u64;
    #[inline]
    fn div(self, rhs: SimTime) -> u64 {
        assert!(rhs.0 != 0, "division by zero SimTime");
        self.0 / rhs.0
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |acc, t| acc + t)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        }
    }
}

/// Computes the time to move `bytes` bytes over a link of
/// `bytes_per_second` bandwidth, rounding up to the next picosecond.
///
/// # Panics
///
/// Panics if `bytes_per_second` is zero, or if the time does not fit
/// in a [`SimTime`] (about 213 days).
///
/// # Examples
///
/// ```
/// use sim_core::time::transfer_time;
/// // 16 KiB over a 1 GB/s flash channel takes 16.384 us.
/// let t = transfer_time(16 * 1024, 1_000_000_000);
/// assert_eq!(t.as_nanos(), 16_384);
/// ```
#[inline]
pub fn transfer_time(bytes: u64, bytes_per_second: u64) -> SimTime {
    assert!(bytes_per_second > 0, "zero bandwidth");
    // ps = bytes * 1e12 / B/s, computed in u128 to avoid overflow.
    let ps = (bytes as u128 * 1_000_000_000_000u128).div_ceil(bytes_per_second as u128);
    SimTime::from_picos(u64::try_from(ps).expect("SimTime overflow: transfer time"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_nanos(1).as_picos(), 1_000);
        assert_eq!(SimTime::from_micros(1).as_picos(), 1_000_000);
        assert_eq!(SimTime::from_millis(1).as_picos(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_picos(), 1_000_000_000_000);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = SimTime::from_micros(30);
        let b = SimTime::from_nanos(500);
        assert_eq!((a + b) - b, a);
        assert_eq!(a * 2, SimTime::from_micros(60));
        assert_eq!(a / 2, SimTime::from_micros(15));
    }

    #[test]
    fn ratio_division() {
        assert_eq!(SimTime::from_micros(30) / SimTime::from_micros(10), 3);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            SimTime::from_nanos(1).saturating_sub(SimTime::from_nanos(2)),
            SimTime::ZERO
        );
    }

    #[test]
    fn from_secs_f64_matches_integer_path() {
        assert_eq!(SimTime::from_secs_f64(0.000_03), SimTime::from_micros(30));
    }

    #[test]
    #[should_panic]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn transfer_time_basic() {
        // 1 byte at 1 GB/s = 1 ns.
        assert_eq!(transfer_time(1, 1_000_000_000), SimTime::from_nanos(1));
        // Rounds up.
        assert_eq!(transfer_time(1, 3_000_000_000_000).as_picos(), 1);
        assert_eq!(transfer_time(0, 1), SimTime::ZERO);
    }

    #[test]
    fn transfer_time_large_values_no_overflow() {
        // 70 GB at 40 GB/s = 1.75 s.
        let t = transfer_time(70_000_000_000, 40_000_000_000);
        assert!((t.as_secs_f64() - 1.75).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn transfer_time_overflow_panics() {
        transfer_time(u64::MAX, 1);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_picos(12).to_string(), "12ps");
        assert_eq!(SimTime::from_micros(30).to_string(), "30.000us");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(SimTime::from_nanos).sum();
        assert_eq!(total, SimTime::from_nanos(10));
    }
}
