//! Scoped per-call recording: pack counts/bytes and the dispatched
//! kernel-shape histogram.
//!
//! A recording call creates one [`Session`] per GEMM and hands it to the
//! driver as its recorder, which installs a thread-local tally in every
//! thread that does work for it ([`with_session`]). The recording hooks the packing and dispatch paths
//! call ([`record_pack_a`], [`record_pack_b`], [`record_tile`]) write to
//! that tally — plain thread-local counters, no atomics in the hot path —
//! and the tally is merged into the session when the scope ends. A thread
//! with no installed tally (every untraced call, i.e. the default hot
//! path) pays one thread-local check; with the `telemetry` feature off
//! the hooks are empty `#[inline(always)]` functions and even that check
//! disappears.

use crate::telemetry::report::TileCount;

/// Counters one thread accumulates inside a session scope.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    pub a_packs: u64,
    pub b_packs: u64,
    pub a_bytes: u64,
    pub b_bytes: u64,
    /// Histogram of dispatched `(m_r, n_r)` shapes. Kept as a small
    /// linear-searched vec: a plan dispatches a handful of distinct
    /// shapes, so this beats hashing in the hot path.
    pub tiles: Vec<((usize, usize), u64)>,
}

impl SessionStats {
    // Only called from the feature-on scope teardown.
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    fn merge(&mut self, other: &SessionStats) {
        self.a_packs += other.a_packs;
        self.b_packs += other.b_packs;
        self.a_bytes += other.a_bytes;
        self.b_bytes += other.b_bytes;
        for &(shape, count) in &other.tiles {
            match self.tiles.iter_mut().find(|(s, _)| *s == shape) {
                Some((_, c)) => *c += count,
                None => self.tiles.push((shape, count)),
            }
        }
    }

    /// The histogram as sorted [`TileCount`] buckets.
    pub fn tile_counts(&self) -> Vec<TileCount> {
        let mut tiles: Vec<TileCount> =
            self.tiles.iter().map(|&((mr, nr), count)| TileCount { mr, nr, count }).collect();
        tiles.sort_unstable_by_key(|t| (t.mr, t.nr));
        tiles
    }
}

/// One traced GEMM call's shared collector. Threads merge their local
/// tallies into it when their [`with_session`] scope ends (one lock per
/// scope, never in the hot path).
#[derive(Debug, Default)]
pub struct Session {
    stats: parking_lot::Mutex<SessionStats>,
}

impl Session {
    pub fn new() -> Self {
        Session::default()
    }

    /// Drain the merged counters.
    pub fn take(&self) -> SessionStats {
        std::mem::take(&mut self.stats.lock())
    }
}

#[cfg(feature = "telemetry")]
mod imp {
    use super::{Session, SessionStats};
    use std::cell::RefCell;
    use std::sync::Arc;

    struct Tally {
        session: Arc<Session>,
        local: SessionStats,
    }

    thread_local! {
        static TALLY: RefCell<Option<Tally>> = const { RefCell::new(None) };
    }

    /// Run `f` with a tally for `session` installed in this thread,
    /// merging it into the session afterwards. Scopes do not nest: a
    /// recording driver installs exactly one scope per thread per phase.
    ///
    /// The merge runs from a drop guard, so it happens even when `f`
    /// unwinds — required by the worker-panic containment in
    /// `crate::native`, where a caught panic on the caller thread must
    /// not leave a stale tally behind (the next traced call on that
    /// thread would trip the nesting check above).
    pub fn with_session<R>(session: &Arc<Session>, f: impl FnOnce() -> R) -> R {
        struct MergeGuard;
        impl Drop for MergeGuard {
            fn drop(&mut self) {
                TALLY.with(|t| {
                    if let Some(tally) = t.borrow_mut().take() {
                        tally.session.stats.lock().merge(&tally.local);
                    }
                });
            }
        }
        TALLY.with(|t| {
            let prev = t
                .borrow_mut()
                .replace(Tally { session: session.clone(), local: SessionStats::default() });
            debug_assert!(prev.is_none(), "telemetry session scopes must not nest");
        });
        let _guard = MergeGuard;
        f()
    }

    #[inline]
    fn with_tally(f: impl FnOnce(&mut SessionStats)) {
        TALLY.with(|t| {
            if let Some(tally) = t.borrow_mut().as_mut() {
                f(&mut tally.local);
            }
        });
    }

    #[inline]
    pub fn record_pack_a(bytes: u64) {
        with_tally(|s| {
            s.a_packs += 1;
            s.a_bytes += bytes;
        });
    }

    #[inline]
    pub fn record_pack_b(bytes: u64) {
        with_tally(|s| {
            s.b_packs += 1;
            s.b_bytes += bytes;
        });
    }

    #[inline]
    pub fn record_tile(mr: usize, nr: usize) {
        with_tally(|s| match s.tiles.iter_mut().find(|(shape, _)| *shape == (mr, nr)) {
            Some((_, c)) => *c += 1,
            None => s.tiles.push(((mr, nr), 1)),
        });
    }
}

#[cfg(not(feature = "telemetry"))]
mod imp {
    use super::Session;
    use std::sync::Arc;

    /// Feature off: run `f` with no recording installed.
    #[inline(always)]
    pub fn with_session<R>(_session: &Arc<Session>, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    pub fn record_pack_a(_bytes: u64) {}

    #[inline(always)]
    pub fn record_pack_b(_bytes: u64) {}

    #[inline(always)]
    pub fn record_tile(_mr: usize, _nr: usize) {}
}

pub use imp::{record_pack_a, record_pack_b, record_tile, with_session};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn recording_outside_a_scope_is_a_no_op() {
        record_pack_a(100);
        record_tile(5, 16);
        let s = Session::new();
        assert_eq!(s.take().a_packs, 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn scoped_recording_lands_in_the_session() {
        let s = Arc::new(Session::new());
        with_session(&s, || {
            record_pack_a(64);
            record_pack_a(64);
            record_pack_b(128);
            record_tile(5, 16);
            record_tile(5, 16);
            record_tile(8, 4);
        });
        // Recording after the scope must not leak into the session.
        record_tile(5, 16);
        let stats = s.take();
        assert_eq!((stats.a_packs, stats.a_bytes), (2, 128));
        assert_eq!((stats.b_packs, stats.b_bytes), (1, 128));
        let tiles = stats.tile_counts();
        assert_eq!(tiles.len(), 2);
        assert_eq!((tiles[0].mr, tiles[0].nr, tiles[0].count), (5, 16, 2));
        assert_eq!((tiles[1].mr, tiles[1].nr, tiles[1].count), (8, 4, 1));
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn scopes_merge_across_threads() {
        let s = Arc::new(Session::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    with_session(s, || {
                        record_pack_b(32);
                        record_tile(4, 16);
                    });
                });
            }
        });
        let stats = s.take();
        assert_eq!(stats.b_packs, 4);
        assert_eq!(stats.tile_counts()[0].count, 4);
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn feature_off_records_nothing_inside_scopes() {
        let s = Arc::new(Session::new());
        with_session(&s, || {
            record_pack_a(64);
            record_tile(5, 16);
        });
        let stats = s.take();
        assert_eq!(stats.a_packs, 0);
        assert!(stats.tiles.is_empty());
    }
}
