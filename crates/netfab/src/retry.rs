//! One retry policy for every transient-failure loop.
//!
//! Rendezvous dials, node-process spawns and shm segment mapping all used
//! to carry their own ad-hoc attempts/backoff constants. [`RetryPolicy`]
//! unifies them: bounded attempts, exponential backoff from `base` capped
//! at `cap`, and optional *deterministic* jitter (hashed from a caller-supplied seed,
//! so two ranks retrying the same resource desynchronize without any
//! global randomness — replays stay byte-identical for a given seed).

use std::time::Duration;

use serde::{Deserialize, Error, Serialize, Value};

/// A bounded exponential-backoff retry policy (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts, including the first (`>= 1`).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub base: Duration,
    /// Ceiling the doubling saturates at.
    pub cap: Duration,
    /// Add a deterministic per-attempt jitter of up to +50% of the
    /// computed backoff, hashed from the seed passed to
    /// [`RetryPolicy::delay`].
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Matches the historical rendezvous dial loop: 8 attempts,
        // 10 ms first backoff, capped well under any boot deadline.
        RetryPolicy { attempts: 8, base: Duration::from_millis(10), cap: Duration::from_millis(640), jitter: false }
    }
}

impl RetryPolicy {
    /// The pause before attempt `attempt + 1` (so `delay(0, _)` follows
    /// the first failure). `seed` feeds the jitter hash; callers pass
    /// something stable and distinct per retrier (rank, slot index) so
    /// contending retriers spread out deterministically.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let exp = attempt.min(20); // 2^20 × base saturates any sane cap
        let backoff = self.base.saturating_mul(1u32 << exp).min(self.cap);
        if !self.jitter || backoff.is_zero() {
            return backoff;
        }
        // splitmix64 over (seed, attempt): stateless, deterministic.
        let mut z = seed ^ (u64::from(attempt)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let extra_ns = (backoff.as_nanos() as u64 / 2).checked_mul(z % 1000).map(|x| x / 1000).unwrap_or(0);
        backoff + Duration::from_nanos(extra_ns)
    }

    /// Run `op` up to [`RetryPolicy::attempts`] times, sleeping the
    /// policy's backoff between failures. The attempt index (0-based) is
    /// passed in; the final error is returned when every attempt fails.
    pub fn run<T, E>(&self, seed: u64, mut op: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(e);
                    }
                    std::thread::sleep(self.delay(attempt - 1, seed));
                }
            }
        }
    }

    /// Like [`RetryPolicy::run`], but stop retrying (and return the last
    /// error) once `give_up` reports true — used where an overall
    /// deadline outranks the attempt budget.
    pub fn run_until<T, E>(
        &self,
        seed: u64,
        mut give_up: impl FnMut() -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    if attempt >= attempts || give_up() {
                        return Err(e);
                    }
                    std::thread::sleep(self.delay(attempt - 1, seed));
                }
            }
        }
    }
}

impl Serialize for RetryPolicy {
    fn to_value(&self) -> Value {
        Value::map(vec![
            ("attempts", Value::U64(u64::from(self.attempts))),
            ("base_us", Value::U64(self.base.as_micros() as u64)),
            ("cap_us", Value::U64(self.cap.as_micros() as u64)),
            ("jitter", Value::Bool(self.jitter)),
        ])
    }
}

impl Deserialize for RetryPolicy {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(RetryPolicy {
            attempts: v.field("attempts")?.as_u64()? as u32,
            base: Duration::from_micros(v.field("base_us")?.as_u64()?),
            cap: Duration::from_micros(v.field("cap_us")?.as_u64()?),
            jitter: v.field("jitter")?.as_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            attempts: 10,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(55),
            jitter: false,
        };
        assert_eq!(p.delay(0, 0), Duration::from_millis(10));
        assert_eq!(p.delay(1, 0), Duration::from_millis(20));
        assert_eq!(p.delay(2, 0), Duration::from_millis(40));
        assert_eq!(p.delay(3, 0), Duration::from_millis(55));
        assert_eq!(p.delay(60, 0), Duration::from_millis(55), "huge attempt index must not overflow");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy { attempts: 4, base: Duration::from_millis(8), cap: Duration::from_secs(1), jitter: true };
        let d1 = p.delay(2, 42);
        let d2 = p.delay(2, 42);
        assert_eq!(d1, d2, "same (attempt, seed) must jitter identically");
        let plain = Duration::from_millis(32);
        assert!(d1 >= plain && d1 <= plain + plain / 2, "jitter out of bounds: {d1:?}");
        assert_ne!(p.delay(2, 42), p.delay(2, 43), "different seeds should desynchronize");
    }

    #[test]
    fn run_retries_up_to_attempts() {
        let p = RetryPolicy { attempts: 3, base: Duration::ZERO, cap: Duration::ZERO, jitter: false };
        let mut calls = 0;
        let r: Result<(), &str> = p.run(0, |_| {
            calls += 1;
            Err("nope")
        });
        assert_eq!((r, calls), (Err("nope"), 3));
        let mut calls = 0;
        let r: Result<u32, &str> = p.run(0, |a| {
            if a == 1 {
                Ok(7)
            } else {
                calls += 1;
                Err("again")
            }
        });
        assert_eq!((r, calls), (Ok(7), 1));
    }

    #[test]
    fn run_until_respects_give_up() {
        let p = RetryPolicy { attempts: 100, base: Duration::ZERO, cap: Duration::ZERO, jitter: false };
        let calls = std::cell::Cell::new(0);
        let r: Result<(), ()> = p.run_until(
            0,
            || calls.get() >= 2,
            |_| {
                calls.set(calls.get() + 1);
                Err(())
            },
        );
        assert!(r.is_err());
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let p = RetryPolicy {
            attempts: 5,
            base: Duration::from_micros(1500),
            cap: Duration::from_millis(200),
            jitter: true,
        };
        assert_eq!(RetryPolicy::from_value(&p.to_value()).unwrap(), p);
        let d = RetryPolicy::default();
        assert_eq!(RetryPolicy::from_value(&d.to_value()).unwrap(), d);
    }
}
