//! Window specifications and assignment.

use fstore_common::{Duration, FsError, Result, Timestamp};

/// How events are grouped into time windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Non-overlapping windows of `size`, aligned to the epoch.
    Tumbling { size: Duration },
    /// Overlapping windows of `size` starting every `slide` (a "hopping"
    /// window when `slide < size`; equivalent to tumbling when equal).
    Sliding { size: Duration, slide: Duration },
}

impl WindowSpec {
    pub fn tumbling(size: Duration) -> Self {
        WindowSpec::Tumbling { size }
    }

    pub fn sliding(size: Duration, slide: Duration) -> Self {
        WindowSpec::Sliding { size, slide }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        match *self {
            WindowSpec::Tumbling { size } if size.is_positive() => Ok(()),
            WindowSpec::Sliding { size, slide } if size.is_positive() && slide.is_positive() => {
                if slide.as_millis() > size.as_millis() {
                    Err(FsError::Stream(format!(
                        "slide ({} ms) must not exceed window size ({} ms)",
                        slide.as_millis(),
                        size.as_millis()
                    )))
                } else {
                    Ok(())
                }
            }
            _ => Err(FsError::Stream("window durations must be positive".into())),
        }
    }

    pub(crate) fn size(&self) -> Duration {
        match *self {
            WindowSpec::Tumbling { size } | WindowSpec::Sliding { size, .. } => size,
        }
    }

    /// Window start timestamps that contain instant `t`, ascending.
    pub(crate) fn assign(&self, t: Timestamp) -> Vec<Timestamp> {
        match *self {
            WindowSpec::Tumbling { size } => {
                let s = size.as_millis();
                vec![Timestamp::millis(t.as_millis().div_euclid(s) * s)]
            }
            WindowSpec::Sliding { size, slide } => {
                let (sz, sl) = (size.as_millis(), slide.as_millis());
                let last_start = t.as_millis().div_euclid(sl) * sl;
                let mut starts = Vec::new();
                let mut start = last_start;
                // every window with start in (t - size, t]
                while start > t.as_millis() - sz {
                    starts.push(Timestamp::millis(start));
                    start -= sl;
                }
                starts.reverse();
                starts
            }
        }
    }

    /// End (exclusive) of a window beginning at `start`.
    pub(crate) fn end_of(&self, start: Timestamp) -> Timestamp {
        start + self.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: i64) -> Timestamp {
        Timestamp::millis(x)
    }

    #[test]
    fn validation() {
        assert!(WindowSpec::tumbling(Duration::millis(10))
            .validate()
            .is_ok());
        assert!(WindowSpec::tumbling(Duration::ZERO).validate().is_err());
        assert!(
            WindowSpec::sliding(Duration::millis(10), Duration::millis(5))
                .validate()
                .is_ok()
        );
        assert!(
            WindowSpec::sliding(Duration::millis(5), Duration::millis(10))
                .validate()
                .is_err()
        );
    }

    #[test]
    fn tumbling_assignment() {
        let w = WindowSpec::tumbling(Duration::millis(10));
        assert_eq!(w.assign(ms(0)), vec![ms(0)]);
        assert_eq!(w.assign(ms(9)), vec![ms(0)]);
        assert_eq!(w.assign(ms(10)), vec![ms(10)]);
        assert_eq!(w.assign(ms(-1)), vec![ms(-10)], "negative times floor");
        assert_eq!(w.end_of(ms(10)), ms(20));
    }

    #[test]
    fn sliding_assignment_covers_overlaps() {
        let w = WindowSpec::sliding(Duration::millis(10), Duration::millis(5));
        // t=12 → windows starting at 5 and 10 (starts in (2, 12])
        assert_eq!(w.assign(ms(12)), vec![ms(5), ms(10)]);
        // t=10 → starts 5 and 10
        assert_eq!(w.assign(ms(10)), vec![ms(5), ms(10)]);
        // t=4 → starts -5 and 0
        assert_eq!(w.assign(ms(4)), vec![ms(-5), ms(0)]);
    }

    #[test]
    fn sliding_equal_slide_is_tumbling() {
        let s = WindowSpec::sliding(Duration::millis(10), Duration::millis(10));
        let t = WindowSpec::tumbling(Duration::millis(10));
        for x in [0i64, 3, 9, 10, 25] {
            assert_eq!(s.assign(ms(x)), t.assign(ms(x)), "t={x}");
        }
    }

    #[test]
    fn every_assigned_window_contains_the_instant() {
        let w = WindowSpec::sliding(Duration::millis(30), Duration::millis(7));
        for t in 0..200i64 {
            let starts = w.assign(ms(t));
            assert!(!starts.is_empty());
            for s in starts {
                assert!(
                    s <= ms(t) && ms(t) < w.end_of(s),
                    "t={t} start={}",
                    s.as_millis()
                );
            }
        }
    }
}
