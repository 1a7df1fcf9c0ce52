//! Wall-clock span scopes aggregated into a per-phase profile.
//!
//! `span!("generate_topology")` returns an RAII guard; when it drops, the
//! elapsed wall time is folded into a process-global registry keyed by
//! span name. `repro profile` prints the resulting phase breakdown.
//!
//! Spans are **wall-clock** and therefore live outside the deterministic
//! world: they never enter `metrics.json` or trace files, only the
//! human-facing profile. Recording from worker threads is safe (the
//! registry is a mutex over a `BTreeMap`); per-span cost is one lock per
//! scope exit, so spans belong around *phases* (topology generation, the
//! event fan-out, the measurement fold), never inside per-event hot loops.
//!
//! Each thread also keeps its own totals ([`thread_total_secs`]): a
//! before/after difference on one thread brackets exactly the spans that
//! closed on it, whatever other threads record meanwhile.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use bgpscale_simkernel::wallclock::Stopwatch;

/// Aggregate timing of one named span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of times the span was entered and exited.
    pub calls: u64,
    /// Total wall time across all calls, in nanoseconds.
    pub total_ns: u128,
}

impl SpanStats {
    /// Mean wall time per call in seconds (0 with no calls).
    pub fn mean_secs(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e9
        }
    }

    /// Total wall time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, SpanStats>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, SpanStats>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static THREAD_TOTALS: RefCell<BTreeMap<&'static str, u128>> = const { RefCell::new(BTreeMap::new()) };
}

/// Folds one completed scope into the global profile and the calling
/// thread's totals. Usually called via the guard's `Drop`, but exposed
/// for manual instrumentation.
pub fn record(name: &'static str, elapsed_ns: u128) {
    {
        let mut map = registry().lock().expect("span registry poisoned");
        let stats = map.entry(name).or_default();
        stats.calls += 1;
        stats.total_ns += elapsed_ns;
    }
    THREAD_TOTALS.with(|t| *t.borrow_mut().entry(name).or_default() += elapsed_ns);
}

/// Total wall time, in seconds, of the `name` spans that closed on the
/// calling thread. Never reset: callers take differences.
pub fn thread_total_secs(name: &str) -> f64 {
    THREAD_TOTALS.with(|t| t.borrow().get(name).copied().unwrap_or(0)) as f64 / 1e9
}

/// A snapshot of every span recorded so far, in name order.
pub fn snapshot() -> Vec<(&'static str, SpanStats)> {
    registry()
        .lock()
        .expect("span registry poisoned")
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect()
}

/// The stats of one span, if it has been recorded.
pub fn get(name: &str) -> Option<SpanStats> {
    registry()
        .lock()
        .expect("span registry poisoned")
        .get(name)
        .copied()
}

/// Clears the global profile (call at the start of a profiled run so the
/// report covers exactly that run).
pub fn reset() {
    registry().lock().expect("span registry poisoned").clear();
}

/// RAII guard created by [`crate::span!`]; records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    watch: Stopwatch,
}

impl SpanGuard {
    /// Enters a named span (prefer the [`crate::span!`] macro).
    pub fn enter(name: &'static str) -> SpanGuard {
        SpanGuard {
            name,
            watch: Stopwatch::start(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        record(self.name, self.watch.elapsed_ns());
    }
}

/// Opens a wall-clock span scope that records into the global profile
/// when the returned guard drops:
///
/// ```
/// {
///     let _span = bgpscale_obs::span!("generate_topology");
///     // ... phase work ...
/// } // recorded here
/// # assert!(bgpscale_obs::span::get("generate_topology").is_some());
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share one process-global registry; to stay robust under
    // parallel test execution they assert on distinct span names and on
    // monotone deltas rather than absolute registry contents.

    #[test]
    fn guard_records_on_drop() {
        let before = get("obs_test_guard").map_or(0, |s| s.calls);
        {
            let _g = crate::span!("obs_test_guard");
        }
        let after = get("obs_test_guard").expect("recorded");
        assert_eq!(after.calls, before + 1);
    }

    #[test]
    fn stats_aggregate_calls_and_time() {
        record("obs_test_agg", 1_000);
        record("obs_test_agg", 3_000);
        let s = get("obs_test_agg").unwrap();
        assert!(s.calls >= 2);
        assert!(s.total_ns >= 4_000);
        assert!(s.mean_secs() > 0.0);
        assert!(s.total_secs() > 0.0);
    }

    #[test]
    fn thread_totals_accumulate_alongside_the_global_profile() {
        let before = thread_total_secs("obs_test_thread");
        record("obs_test_thread", 2_000_000_000);
        {
            let _g = crate::span!("obs_test_thread");
        }
        let after = thread_total_secs("obs_test_thread");
        assert!(after - before >= 2.0, "{before} → {after}");
        assert!(get("obs_test_thread").unwrap().total_ns >= 2_000_000_000);
        assert_eq!(thread_total_secs("obs_test_never_recorded"), 0.0);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        record("obs_test_z", 1);
        record("obs_test_a", 1);
        let snap = snapshot();
        let names: Vec<_> = snap.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
