//! Timestamps and partition-date arithmetic.
//!
//! The feature store partitions offline data by *date* and performs
//! point-in-time joins on millisecond timestamps. We keep our own minimal
//! time types (milliseconds since the Unix epoch, proleptic Gregorian dates)
//! so the whole workspace is deterministic and does not depend on wall-clock
//! or timezone state.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Milliseconds since the Unix epoch (UTC). Negative values are allowed and
/// represent pre-1970 instants, though the store never generates them.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct Timestamp(pub i64);

/// A span of time in milliseconds. Used for cadences, windows and TTLs.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct Duration(pub(crate) i64);

pub(crate) const MILLIS_PER_SECOND: i64 = 1_000;
pub(crate) const MILLIS_PER_MINUTE: i64 = 60 * MILLIS_PER_SECOND;
pub(crate) const MILLIS_PER_HOUR: i64 = 60 * MILLIS_PER_MINUTE;
pub const MILLIS_PER_DAY: i64 = 24 * MILLIS_PER_HOUR;

impl Duration {
    pub const ZERO: Duration = Duration(0);

    pub fn millis(ms: i64) -> Self {
        Duration(ms)
    }
    pub fn seconds(s: i64) -> Self {
        Duration(s * MILLIS_PER_SECOND)
    }
    pub fn minutes(m: i64) -> Self {
        Duration(m * MILLIS_PER_MINUTE)
    }
    pub fn hours(h: i64) -> Self {
        Duration(h * MILLIS_PER_HOUR)
    }
    pub fn days(d: i64) -> Self {
        Duration(d * MILLIS_PER_DAY)
    }
    pub fn as_millis(self) -> i64 {
        self.0
    }
    pub fn is_positive(self) -> bool {
        self.0 > 0
    }
}

impl Timestamp {
    /// The epoch itself; convenient experiment origin.
    pub const EPOCH: Timestamp = Timestamp(0);

    pub fn millis(ms: i64) -> Self {
        Timestamp(ms)
    }

    pub fn as_millis(self) -> i64 {
        self.0
    }

    /// The partition date (days since epoch, floored) this instant falls in.
    pub fn date(self) -> Date {
        Date(self.0.div_euclid(MILLIS_PER_DAY) as i32)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let date = self.date();
        let rem = self.0.rem_euclid(MILLIS_PER_DAY);
        let (h, m, s, ms) = (
            rem / MILLIS_PER_HOUR,
            rem % MILLIS_PER_HOUR / MILLIS_PER_MINUTE,
            rem % MILLIS_PER_MINUTE / MILLIS_PER_SECOND,
            rem % MILLIS_PER_SECOND,
        );
        write!(f, "{date}T{h:02}:{m:02}:{s:02}.{ms:03}Z")
    }
}

/// A calendar date used as the offline-store partition key, stored as whole
/// days since the Unix epoch. Display formats as ISO `YYYY-MM-DD` using the
/// proleptic Gregorian calendar.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct Date(pub(crate) i32);

impl Date {
    pub fn from_days(days: i32) -> Self {
        Date(days)
    }

    pub fn days_since_epoch(self) -> i32 {
        self.0
    }

    /// Midnight (inclusive start) of this date.
    pub fn start(self) -> Timestamp {
        Timestamp(self.0 as i64 * MILLIS_PER_DAY)
    }

    /// Midnight of the following date (exclusive end).
    pub fn end(self) -> Timestamp {
        Timestamp((self.0 as i64 + 1) * MILLIS_PER_DAY)
    }

    /// Civil (year, month, day) via Howard Hinnant's `civil_from_days`.
    pub(crate) fn civil(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719_468;
        let era = z.div_euclid(146_097);
        let doe = z.rem_euclid(146_097); // day of era [0, 146096]
        let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        ((y + i64::from(m <= 2)) as i32, m, d)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.civil();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A simulated, manually-advanced clock.
///
/// Materialization scheduling, streaming watermarks and freshness metrics all
/// read "now" from a [`SimClock`], which makes every experiment reproducible
/// and lets tests fast-forward days in microseconds.
#[derive(Debug, Clone)]
pub struct SimClock {
    now: Timestamp,
}

impl SimClock {
    pub fn new(start: Timestamp) -> Self {
        SimClock { now: start }
    }

    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Advance the clock by `d`; panics on a negative span (time cannot
    /// run backwards in a simulation, and silently allowing it hides bugs).
    pub fn advance(&mut self, d: Duration) {
        assert!(
            d.0 >= 0,
            "SimClock cannot move backwards (advance by {} ms)",
            d.0
        );
        self.now += d;
    }
}

#[cfg(test)]
impl Date {
    /// Inverse of [`Date::civil`] (`days_from_civil`): the reference the
    /// round-trip test checks `civil` against.
    fn from_civil(y: i32, m: u32, d: u32) -> Self {
        let y = i64::from(y) - i64::from(m <= 2);
        let era = y.div_euclid(400);
        let yoe = y.rem_euclid(400);
        let mp = i64::from(if m > 2 { m - 3 } else { m + 9 });
        let doy = (153 * mp + 2) / 5 + i64::from(d) - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Date((era * 146_097 + doe - 719_468) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_of_epoch_is_1970() {
        assert_eq!(Timestamp::EPOCH.date().civil(), (1970, 1, 1));
        assert_eq!(Timestamp::EPOCH.date().to_string(), "1970-01-01");
    }

    #[test]
    fn civil_round_trips_across_leap_years() {
        for days in [-1000, -1, 0, 1, 59, 60, 365, 366, 11_016, 18_628, 20_000] {
            let d = Date::from_days(days);
            let (y, m, dd) = d.civil();
            assert_eq!(Date::from_civil(y, m, dd), d, "days={days}");
        }
    }

    #[test]
    fn known_dates() {
        assert_eq!(Date::from_civil(2000, 3, 1).to_string(), "2000-03-01");
        assert_eq!(Date::from_civil(2021, 8, 16).days_since_epoch(), 18_855);
        assert_eq!(Date::from_days(18_855).civil(), (2021, 8, 16));
    }

    #[test]
    fn timestamp_date_boundaries() {
        let d = Date::from_days(3);
        assert_eq!(d.start().date(), d);
        assert_eq!((d.end() - Duration::millis(1)).date(), d);
        assert_eq!(d.end().date(), Date::from_days(4));
    }

    #[test]
    fn negative_timestamps_floor_correctly() {
        // One millisecond before the epoch belongs to 1969-12-31.
        let t = Timestamp(-1);
        assert_eq!(t.date().civil(), (1969, 12, 31));
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::days(1).as_millis(), 86_400_000);
        assert_eq!(
            Duration::hours(2) + Duration::minutes(30),
            Duration::minutes(150)
        );
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::millis(1_000);
        assert_eq!(t + Duration::seconds(2), Timestamp::millis(3_000));
        assert_eq!(t - Duration::seconds(1), Timestamp::EPOCH);
        assert_eq!(Timestamp::millis(5_000) - t, Duration::seconds(4));
    }

    #[test]
    fn display_formats() {
        let t = Date::from_civil(2021, 8, 16).start() + Duration::hours(13) + Duration::millis(42);
        assert_eq!(t.to_string(), "2021-08-16T13:00:00.042Z");
    }

    #[test]
    fn sim_clock_advances() {
        let mut c = SimClock::new(Timestamp::EPOCH);
        c.advance(Duration::hours(1));
        assert_eq!(c.now(), Timestamp::millis(MILLIS_PER_HOUR));
        c.advance(Duration::hours(23));
        assert_eq!(c.now().date(), Date::from_days(1));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn sim_clock_rejects_regression() {
        let mut c = SimClock::new(Timestamp::millis(10));
        c.advance(Duration::millis(-5));
    }
}
