//! The daemon's one time source. The schedulers decide against "now",
//! the flight recorder stamps spans, the metrics windows age out by the
//! second and the journal times fsync waits: all read the one [`Clock`]
//! an `AllocationService` owns, so a span's stamp and a grant's start
//! are the same reading. The clock runs on **wall** time (a live
//! daemon) or **virtual** time (replay and test harnesses, via
//! `AllocationService::set_time`). A read takes no lock; virtual reads
//! are counted ([`Clock::reads`]), which pins each request's reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// `virtual_bits` on wall time (no finite `f64` has these bits).
const WALL: u64 = u64::MAX;

/// Seconds on the process's monotonic clock: the one place the daemon
/// reads the wall.
fn wall_secs() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let now = Instant::now();
    now.duration_since(*ORIGIN.get_or_init(|| now))
        .as_secs_f64()
}

/// Seconds to whole microseconds, the unit of span stamps.
pub fn micros(secs: f64) -> u64 {
    (secs * 1e6) as u64
}

/// A wall or virtual time source in seconds. Each atomic holds a whole
/// value and publishes no other data, so all are relaxed.
#[derive(Debug)]
pub struct Clock {
    /// The virtual time as `f64` bits, or [`WALL`].
    virtual_bits: AtomicU64,
    /// Seconds added to the wall reading, as `f64` bits: a fresh clock
    /// starts at 0, and recovery rebases it past every recovered stamp.
    offset_bits: AtomicU64,
    /// Reads taken on virtual time.
    reads: AtomicU64,
}

impl Clock {
    /// A wall clock reading 0 now.
    pub fn wall() -> Clock {
        Clock {
            virtual_bits: AtomicU64::new(WALL),
            offset_bits: AtomicU64::new((-wall_secs()).to_bits()),
            reads: AtomicU64::new(0),
        }
    }

    /// The current time in seconds.
    pub fn now(&self) -> f64 {
        match self.virtual_bits.load(Ordering::Relaxed) {
            WALL => wall_secs() + f64::from_bits(self.offset_bits.load(Ordering::Relaxed)),
            bits => {
                self.reads.fetch_add(1, Ordering::Relaxed);
                f64::from_bits(bits)
            }
        }
    }

    /// The virtual time, without counting a read; `None` on wall time.
    /// What a snapshot records as each machine's `clock`.
    pub fn virtual_time(&self) -> Option<f64> {
        match self.virtual_bits.load(Ordering::Relaxed) {
            WALL => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Switches to virtual time at `t`. Once virtual, time never moves
    /// backwards: an earlier `t` is clamped to the current time.
    pub fn set_time(&self, t: f64) {
        let _ = self
            .virtual_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some(match bits {
                    WALL => t.to_bits(),
                    current => t.max(f64::from_bits(current)).to_bits(),
                })
            });
    }

    /// Advances the clock to at least `t`, on either time base: a wall
    /// clock restarted at zero would put recovered stamps in the future
    /// (EASY planning hours ahead, negative waits on the first drains).
    /// Recovery calls it before the service serves anyone.
    pub fn advance_to(&self, t: f64) {
        if self.virtual_time().is_some() {
            self.set_time(t);
        } else if self.now() < t {
            self.offset_bits
                .store((t - wall_secs()).to_bits(), Ordering::Relaxed);
        }
    }

    /// How many times the clock was read on virtual time.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}
