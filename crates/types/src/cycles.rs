//! Simulated-time accounting.
//!
//! All latencies in the simulator are expressed in **CPU cycles** of the
//! modelled 240 MHz single-issue processor. Bus and memory-controller
//! devices run at 120 MHz; [`Cycles::from_bus_cycles`] converts their cycle
//! counts into CPU cycles ([`CPU_CYCLES_PER_BUS_CYCLE`] each).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// CPU cycles per bus (and MMC) cycle: the paper's 240 MHz CPU over HP's
/// 120 MHz Runway bus.
pub const CPU_CYCLES_PER_BUS_CYCLE: u64 = 2;

/// A duration measured in simulated CPU clock cycles.
///
/// ```
/// use mtlb_types::Cycles;
///
/// let trap = Cycles::new(25);
/// let probes = Cycles::new(8) * 3;
/// assert_eq!((trap + probes).get(), 49);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Wraps a raw cycle count.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Converts a bus/MMC cycle count into CPU cycles
    /// ([`CPU_CYCLES_PER_BUS_CYCLE`] each), checked like the counters.
    ///
    /// ```
    /// use mtlb_types::Cycles;
    ///
    /// assert_eq!(Cycles::from_bus_cycles(5), Cycles::new(10));
    /// ```
    #[must_use]
    pub fn from_bus_cycles(bus_cycles: u64) -> Cycles {
        Cycles(bus_cycles) * CPU_CYCLES_PER_BUS_CYCLE
    }

    /// Returns this duration as a fraction of `total` (0.0 when `total`
    /// is zero). Used for e.g. "fraction of runtime spent in TLB misses".
    #[must_use]
    pub fn fraction_of(self, total: Cycles) -> f64 {
        if total.0 == 0 {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }
}

impl Add for Cycles {
    type Output = Cycles;

    #[expect(
        clippy::expect_used,
        reason = "Documented contract: cycle accounting must never wrap — a wrapped counter would fabricate results silently."
    )]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.checked_add(rhs.0).expect("cycle counter overflow"))
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl Sub for Cycles {
    type Output = Cycles;

    #[expect(
        clippy::expect_used,
        reason = "Documented contract: subtracting a later timestamp from an earlier one is a simulator bug."
    )]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.checked_sub(rhs.0).expect("cycle counter underflow"))
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;

    #[expect(
        clippy::expect_used,
        reason = "Documented contract: cycle accounting must never wrap — a wrapped counter would fabricate results silently."
    )]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0.checked_mul(rhs).expect("cycle counter overflow"))
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl From<u64> for Cycles {
    fn from(n: u64) -> Cycles {
        Cycles(n)
    }
}

impl From<Cycles> for u64 {
    fn from(c: Cycles) -> u64 {
        c.0
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let a = Cycles::new(10);
        let b = Cycles::new(3);
        assert_eq!((a + b).get(), 13);
        assert_eq!((a - b).get(), 7);
        assert_eq!((b * 4).get(), 12);
        let mut c = a;
        c += b;
        c -= Cycles::new(1);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Cycles = (1..=4).map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(10));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn checked_subtraction_panics() {
        let _ = Cycles::new(1) - Cycles::new(2);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Cycles::new(1).saturating_sub(Cycles::new(5)), Cycles::ZERO);
        assert_eq!(
            Cycles::new(5).saturating_sub(Cycles::new(1)),
            Cycles::new(4)
        );
    }

    #[test]
    fn fractions() {
        assert_eq!(Cycles::new(25).fraction_of(Cycles::new(100)), 0.25);
        assert_eq!(Cycles::new(25).fraction_of(Cycles::ZERO), 0.0);
    }

    #[test]
    fn bus_cycles_convert_at_the_paper_ratio() {
        assert_eq!(Cycles::from_bus_cycles(1), Cycles::new(2));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn bus_conversion_is_checked() {
        let _ = Cycles::from_bus_cycles(u64::MAX);
    }

    #[test]
    fn display() {
        assert_eq!(Cycles::new(42).to_string(), "42 cycles");
    }
}
