//! Time sources for telemetry: a monotonic nanosecond clock plus the
//! host's hardware cycle counter.
//!
//! The "cycle" unit is the host counter's native tick: `rdtsc` on x86_64
//! (TSC ticks, constant-rate on every machine this targets) and
//! `cntvct_el0` on aarch64 (the generic timer, which ticks at the counter
//! frequency, *not* the core clock). Absolute tick counts are therefore
//! host-specific; reports compare them against modelled cycles as a
//! *ratio whose flatness across shapes* is the signal (see
//! [`crate::telemetry::report::ModelJoin`]).
//!
//! Only recording calls read these clocks: every stamp in the drivers
//! sits behind the call's `record` flag, so an unrecorded call reads none.

use crate::telemetry::report::PhaseTimes;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first telemetry stamp of the process.
#[inline]
pub fn wall_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(target_arch = "x86_64")]
#[inline]
pub fn cycles() -> u64 {
    // SAFETY: `rdtsc` is unprivileged and has no memory effects.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(target_arch = "aarch64")]
#[inline]
pub fn cycles() -> u64 {
    let v: u64;
    // SAFETY: CNTVCT_EL0 is readable from EL0; no memory effects.
    unsafe { core::arch::asm!("mrs {v}, cntvct_el0", v = out(reg) v, options(nomem, nostack)) };
    v
}

/// No hardware counter on this target: fall back to the monotonic clock
/// so ratios stay finite (documented as ns, not ticks).
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
#[inline]
pub fn cycles() -> u64 {
    wall_ns()
}

/// A paired (wall-ns, cycle) reading — the unit of every scoped
/// measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stamp {
    pub ns: u64,
    pub cycles: u64,
}

impl Stamp {
    #[inline]
    pub fn now() -> Self {
        Stamp { ns: wall_ns(), cycles: cycles() }
    }

    /// Both deltas from `self` to now.
    #[inline]
    pub fn elapsed(self) -> PhaseTimes {
        self.delta_to(Stamp::now())
    }

    /// Both deltas from `self` to a later stamp.
    #[inline]
    pub fn delta_to(self, end: Stamp) -> PhaseTimes {
        PhaseTimes {
            wall_ns: end.ns.saturating_sub(self.ns),
            cycles: end.cycles.saturating_sub(self.cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_monotonic() {
        let a = Stamp::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let b = Stamp::now();
        assert!(b.ns > a.ns, "the wall clock must tick across a sleep");
        assert!(b.cycles >= a.cycles);
        assert!(a.elapsed().wall_ns >= a.delta_to(b).wall_ns);
    }
}
