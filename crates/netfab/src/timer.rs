//! A single-level hashed timing wheel for the event loop.
//!
//! Every time-driven behaviour of a node's fabric — heartbeat cadence,
//! suspect/staleness deadlines, scripted `StallWriter` expiry, reconnect
//! retry pacing — is an entry here, expired from the one loop thread.
//! That decouples heartbeats from writer idleness by construction: a tick
//! is due when the clock says so, no matter how saturated the loop's IO
//! queues are (the loop bounds its `poll` timeout by
//! [`TimerWheel::next_deadline`]).
//!
//! Layout: `SLOTS` buckets of `GRANULARITY` each (a ~1s horizon).
//! Deadlines beyond the horizon sit in an overflow list and migrate into
//! the wheel as it turns. Insert and per-tick advance are O(1) amortized;
//! `next_deadline` scans the (tiny, mostly empty) slot array.

use std::time::{Duration, Instant};

/// Bucket width. 4ms is far below the shortest cadence the fabric uses
/// (20ms reconnect rounds) and coarse enough that an idle wheel turn
/// touches nothing.
const GRANULARITY: Duration = Duration::from_millis(4);

/// Bucket count: horizon = 256 * 4ms ≈ 1s, covering every heartbeat-scale
/// deadline; suspect windows (seconds) ride the overflow list.
const SLOTS: usize = 256;

/// A deadline-ordered multi-set of `T`, expired in wall-clock order at
/// bucket granularity.
pub(crate) struct TimerWheel<T> {
    slots: Vec<Vec<(Instant, T)>>,
    /// Index of the bucket covering `[cursor_time, cursor_time + GRANULARITY)`.
    cursor: usize,
    /// Lower edge of the current bucket.
    cursor_time: Instant,
    /// Deadlines at or beyond the horizon, migrated in as the wheel turns.
    overflow: Vec<(Instant, T)>,
    len: usize,
}

impl<T> TimerWheel<T> {
    pub fn new(now: Instant) -> TimerWheel<T> {
        TimerWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            cursor_time: now,
            overflow: Vec::new(),
            len: 0,
        }
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `item` for `deadline`. Past deadlines land in the current
    /// bucket and fire on the next [`TimerWheel::expire`].
    pub fn insert(&mut self, deadline: Instant, item: T) {
        self.len += 1;
        let horizon = GRANULARITY * SLOTS as u32;
        let offset = deadline.saturating_duration_since(self.cursor_time);
        if offset >= horizon {
            self.overflow.push((deadline, item));
            return;
        }
        let ticks = (offset.as_nanos() / GRANULARITY.as_nanos()) as usize;
        let slot = (self.cursor + ticks) % SLOTS;
        self.slots[slot].push((deadline, item));
    }

    /// The earliest pending deadline, for bounding a `poll` timeout.
    pub fn next_deadline(&self) -> Option<Instant> {
        if self.len == 0 {
            return None;
        }
        self.slots.iter().flatten().map(|(d, _)| *d).chain(self.overflow.iter().map(|(d, _)| *d)).min()
    }

    /// Remove and return every item whose deadline is at or before `now`,
    /// advancing the wheel. Items in a visited bucket that are not yet due
    /// (same bucket, later sub-tick) stay put.
    pub fn expire(&mut self, now: Instant) -> Vec<T> {
        let mut due = Vec::new();
        if self.len == 0 {
            // Keep the cursor tracking the clock so long-idle wheels do
            // not spin through thousands of empty buckets later.
            self.fast_forward(now);
            return due;
        }
        loop {
            let i = self.cursor;
            let mut j = 0;
            while j < self.slots[i].len() {
                if self.slots[i][j].0 <= now {
                    due.push(self.slots[i].swap_remove(j).1);
                    self.len -= 1;
                } else {
                    j += 1;
                }
            }
            // Advance only once the current bucket's window has fully
            // passed; otherwise a later insert into this window would be
            // filed behind the cursor and orbit the whole wheel.
            if now < self.cursor_time + GRANULARITY {
                break;
            }
            self.cursor_time += GRANULARITY;
            self.cursor = (self.cursor + 1) % SLOTS;
            self.migrate_overflow();
        }
        due
    }

    /// Jump the cursor close to `now` without visiting buckets (all empty).
    fn fast_forward(&mut self, now: Instant) {
        debug_assert_eq!(self.len, 0);
        while now >= self.cursor_time + GRANULARITY {
            self.cursor_time += GRANULARITY;
            self.cursor = (self.cursor + 1) % SLOTS;
        }
    }

    /// Pull overflow entries that now fit inside the horizon into their
    /// bucket (called once per wheel tick).
    fn migrate_overflow(&mut self) {
        let horizon = GRANULARITY * SLOTS as u32;
        let mut j = 0;
        while j < self.overflow.len() {
            let offset = self.overflow[j].0.saturating_duration_since(self.cursor_time);
            if offset < horizon {
                let (deadline, item) = self.overflow.swap_remove(j);
                let ticks = (offset.as_nanos() / GRANULARITY.as_nanos()) as usize;
                let slot = (self.cursor + ticks) % SLOTS;
                self.slots[slot].push((deadline, item));
            } else {
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order_across_buckets() {
        let t0 = Instant::now();
        let mut w = TimerWheel::new(t0);
        w.insert(t0 + Duration::from_millis(40), "b");
        w.insert(t0 + Duration::from_millis(8), "a");
        w.insert(t0 + Duration::from_millis(120), "c");
        assert_eq!(w.next_deadline(), Some(t0 + Duration::from_millis(8)));
        assert_eq!(w.expire(t0 + Duration::from_millis(9)), vec!["a"]);
        assert_eq!(w.expire(t0 + Duration::from_millis(41)), vec!["b"]);
        assert!(w.expire(t0 + Duration::from_millis(100)).is_empty());
        assert_eq!(w.expire(t0 + Duration::from_millis(121)), vec!["c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let t0 = Instant::now();
        let mut w = TimerWheel::new(t0 + Duration::from_secs(1));
        w.insert(t0, 1u32); // already overdue
        assert_eq!(w.expire(t0 + Duration::from_secs(1)), vec![1]);
    }

    #[test]
    fn overflow_migrates_into_the_wheel() {
        let t0 = Instant::now();
        let mut w = TimerWheel::new(t0);
        // Far beyond the ~1s horizon.
        w.insert(t0 + Duration::from_secs(3), "far");
        w.insert(t0 + Duration::from_millis(10), "near");
        assert_eq!(w.next_deadline(), Some(t0 + Duration::from_millis(10)));
        assert_eq!(w.expire(t0 + Duration::from_millis(20)), vec!["near"]);
        // Not due yet after 2s of turning...
        assert!(w.expire(t0 + Duration::from_secs(2)).is_empty());
        assert!(!w.is_empty());
        // ...and fires once its time comes.
        assert_eq!(w.expire(t0 + Duration::from_millis(3100)), vec!["far"]);
    }

    #[test]
    fn same_bucket_not_yet_due_stays() {
        let t0 = Instant::now();
        let mut w = TimerWheel::new(t0);
        // Both land in the same 4ms bucket; expiring at +1ms must fire
        // only the first.
        w.insert(t0 + Duration::from_micros(500), "now");
        w.insert(t0 + Duration::from_micros(3500), "later");
        assert_eq!(w.expire(t0 + Duration::from_millis(1)), vec!["now"]);
        assert_eq!(w.expire(t0 + Duration::from_millis(4)), vec!["later"]);
    }

    #[test]
    fn periodic_rearm_fires_on_schedule_under_insert_load() {
        // The satellite-2 property at wheel level: a periodic tick
        // re-armed on every expiry keeps firing while the wheel is
        // bombarded with unrelated insertions (sustained load).
        let t0 = Instant::now();
        let mut w: TimerWheel<&str> = TimerWheel::new(t0);
        let period = Duration::from_millis(20);
        w.insert(t0 + period, "tick");
        let mut now = t0;
        let mut fired = 0;
        let mut next = t0 + period;
        for step in 1..=400u64 {
            now = t0 + Duration::from_millis(step); // 1ms virtual clock
            for k in 0..5 {
                // Load: deadlines scattered near and far.
                w.insert(now + Duration::from_millis(500 + k * 37), "load");
            }
            for item in w.expire(now) {
                if item == "tick" {
                    fired += 1;
                    next += period;
                    w.insert(next, "tick");
                }
            }
        }
        assert_eq!(fired, 20, "20ms period over 400ms must fire exactly 20 times");
        let _ = now;
    }

    #[test]
    fn idle_wheel_fast_forwards() {
        let t0 = Instant::now();
        let mut w: TimerWheel<u8> = TimerWheel::new(t0);
        // A long idle gap (many horizons) then a short timer: still exact.
        assert!(w.expire(t0 + Duration::from_secs(10)).is_empty());
        w.insert(t0 + Duration::from_millis(10_008), 9);
        assert!(w.expire(t0 + Duration::from_millis(10_004)).is_empty());
        assert_eq!(w.expire(t0 + Duration::from_millis(10_009)), vec![9]);
    }
}
