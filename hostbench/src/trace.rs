//! Spans recorded by the benchmark around its calls into each layer's
//! public functions.
//!
//! A span's *self time* is its duration minus the time its thread spent
//! in nested spans or in [`Tracer::wait`] (a fan-out to other threads,
//! whose workers record their own spans). Self times therefore add up
//! to at most `threads × wall`, which [`Tracer::check_self_time`]
//! asserts. Spans are aggregated per layer name in memory; a disabled
//! tracer only calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug, Default)]
struct Layer {
    self_ns: u64,
    calls: u64,
}

thread_local! {
    /// Nested-time accumulators of this thread's open spans.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Per-layer span aggregator; see the module docs.
pub struct Tracer {
    enabled: bool,
    layers: Mutex<BTreeMap<&'static str, Layer>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            layers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> (R, u64, u64) {
        OPEN.with(|o| o.borrow_mut().push(0));
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as u64;
        let nested = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let nested = o.pop().expect("span stack is balanced");
            if let Some(parent) = o.last_mut() {
                *parent += ns;
            }
            nested
        });
        (r, ns, nested)
    }

    /// Run `f` as one call of layer `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let (r, ns, nested) = self.timed(f);
        self.record(name, ns.saturating_sub(nested));
        r
    }

    /// Run `f`, a fan-out whose workers record their own spans: the
    /// interval counts as waiting, not as the enclosing span's self time.
    pub fn wait<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.timed(f).0
    }

    /// Add one call of `self_ns` to layer `name`.
    fn record(&self, name: &'static str, self_ns: u64) {
        let mut layers = self.layers.lock().expect("tracer lock poisoned");
        let layer = layers.entry(name).or_default();
        layer.self_ns += self_ns;
        layer.calls += 1;
    }

    /// Total self time of `name`, seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 * 1e-9
    }

    /// Calls recorded for `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.get(name).calls
    }

    /// Mean self time per call of `name`, nanoseconds (0 when idle).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let l = self.get(name);
        if l.calls == 0 {
            0.0
        } else {
            l.self_ns as f64 / l.calls as f64
        }
    }

    fn get(&self, name: &str) -> Layer {
        self.layers
            .lock()
            .expect("tracer lock poisoned")
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Summed self time over every layer, seconds.
    pub fn total_seconds(&self) -> f64 {
        let total: u64 = self
            .layers
            .lock()
            .expect("tracer lock poisoned")
            .values()
            .map(|l| l.self_ns)
            .sum();
        total as f64 * 1e-9
    }

    /// Reconciliation: summed self time over every layer must not
    /// exceed `threads × wall_s` (plus 1% for clock granularity).
    pub fn check_self_time(&self, threads: usize, wall_s: f64) -> Result<(), String> {
        let total_s = self.total_seconds();
        if total_s > threads as f64 * wall_s * 1.01 {
            return Err(format!(
                "summed self time {total_s:.3} s exceeds {threads} threads x {wall_s:.3} s wall"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            t.wait(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        assert_eq!(t.calls("outer"), 1);
        assert!(t.seconds("inner") >= 0.02);
        assert!(
            t.seconds("outer") < 0.01,
            "outer self {}",
            t.seconds("outer")
        );
        assert!(t.check_self_time(1, 0.05).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.calls("x"), 0);
    }
}
