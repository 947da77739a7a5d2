//! Driver-clocked time-series sampling.
//!
//! [`run_sampled`] is the deterministic twin of the live proxy's wall-clock
//! sampler thread: it advances any [`Driver`] to a deadline in fixed
//! `interval` steps, snapshotting a [`sidecar_obs::MetricsRegistry`]
//! into a [`sidecar_obs::Sampler`] at each tick. Because
//! `Driver::run_until` clamps the clock to the requested deadline (dispatch
//! rule: monotone clock), the ticks land at *exactly* `start + k·interval`
//! on the shared nanosecond axis — so two runs of the same seeded world
//! produce byte-identical `TimeSeries::render()` output, which is what the
//! golden time-series fixture asserts.
//!
//! The contract mirrors the live sampler deliberately:
//!
//! * the sampler is primed at the start time (no point emitted — rates need
//!   a window);
//! * one [`SamplePoint`](sidecar_obs::SamplePoint) per whole interval;
//! * a trailing partial window (when `deadline - start` is not a multiple
//!   of `interval`) is simulated but **not** sampled — partial windows
//!   would skew rates and break cross-run comparability;
//! * sampling stops at the first tick that finds the driver idle (no
//!   queued events or pending timers) — the remaining windows would be
//!   all-zero rates, and skipping them keeps sampling cost proportional
//!   to activity rather than horizon. The driver still runs to the
//!   deadline afterwards.

use crate::driver::Driver;
use crate::time::{SimDuration, SimTime};
use sidecar_obs::{MetricsRegistry, Sampler};

/// Runs `driver` until `deadline`, sampling `registry` into `sampler` every
/// `interval` (see the module docs for the exact tick contract). Returns
/// the driver's clock, which is `deadline` for the simulator.
///
/// The registry is passed as a handle rather than read through the driver
/// so the same loop serves worlds and live drivers alike (both keep theirs
/// in `WorldObs`; a live proxy also `Clone`-shares it with its admin
/// thread).
///
/// # Panics
///
/// Panics if `interval` is zero — a zero window has no rate.
pub fn run_sampled(
    driver: &mut dyn Driver,
    registry: &MetricsRegistry,
    deadline: SimTime,
    interval: SimDuration,
    sampler: &mut Sampler,
) -> SimTime {
    assert!(
        interval > SimDuration::ZERO,
        "run_sampled: sampling interval must be non-zero"
    );
    let start = driver.now();
    // Prime the delta baseline at the start of the first window. If the
    // caller reuses a sampler across calls this is a non-advancing sample
    // and is ignored, preserving the earlier baseline.
    sampler.sample(start.as_nanos(), registry.snapshot());
    let mut tick = start + interval;
    while tick <= deadline {
        driver.run_until(tick);
        sampler.sample(tick.as_nanos(), registry.snapshot());
        // Once the world has drained (no queued events, no pending
        // timers), every further window would be all-zero rates; the
        // sample just taken closed the last active window. Stopping here
        // keeps sampling cost proportional to *activity*, not horizon,
        // and idleness is deterministic in the simulator so golden runs
        // stay byte-stable.
        if driver.is_idle() {
            break;
        }
        tick += interval;
    }
    if driver.now() < deadline {
        driver.run_until(deadline);
    }
    driver.now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::node::{Context, IfaceId, Node};
    use crate::packet::{FlowId, Packet};
    use crate::world::World;

    /// Emits one data packet per `period` until `total` are sent, bumping a
    /// world counter per send — a deterministic rate source.
    struct Ticker {
        period: SimDuration,
        total: u64,
        sent: u64,
    }

    impl Node for Ticker {
        fn name(&self) -> &str {
            "ticker"
        }

        fn on_start(&mut self, ctx: &mut Context) {
            ctx.set_timer_after(self.period, 1);
        }

        fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {}

        fn on_timer(&mut self, _token: u64, ctx: &mut Context) {
            self.sent += 1;
            ctx.obs_inc("telemetry.test.sent");
            ctx.obs_gauge("telemetry.test.inflight", self.sent as f64);
            let pkt = Packet::data(FlowId(1), self.sent, self.sent, 1200, ctx.now());
            ctx.send(IfaceId(0), pkt);
            if self.sent < self.total {
                ctx.set_timer_after(self.period, 1);
            }
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    struct Sink;

    impl Node for Sink {
        fn name(&self) -> &str {
            "sink"
        }

        fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {}

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn ticker_world(seed: u64) -> World {
        let mut w = World::new(seed);
        let t = w.add_node(Box::new(Ticker {
            period: SimDuration::from_millis(10),
            total: 400,
            sent: 0,
        }));
        let s = w.add_node(Box::new(Sink));
        w.connect(t, s, LinkConfig::default(), LinkConfig::default());
        w
    }

    fn sample_run(seed: u64) -> String {
        let mut w = ticker_world(seed);
        let registry = w.obs().metrics.clone();
        let mut sampler = Sampler::with_capacity(64);
        let end = run_sampled(
            &mut w,
            &registry,
            SimTime::ZERO + SimDuration::from_secs(2),
            SimDuration::from_millis(500),
            &mut sampler,
        );
        assert_eq!(end, SimTime::ZERO + SimDuration::from_secs(2));
        sampler.series().render()
    }

    #[test]
    fn samples_land_on_exact_ticks() {
        let mut w = ticker_world(7);
        let registry = w.obs().metrics.clone();
        let mut sampler = Sampler::with_capacity(64);
        run_sampled(
            &mut w,
            &registry,
            SimTime::ZERO + SimDuration::from_secs(2),
            SimDuration::from_millis(500),
            &mut sampler,
        );
        let points: Vec<_> = sampler.series().points().collect();
        // Priming sample emits nothing; 4 whole windows follow.
        assert_eq!(points.len(), 4);
        for (k, p) in points.iter().enumerate() {
            assert_eq!(p.at_ns, (k as u64 + 1) * 500_000_000);
        }
        // The ticker sends every 10 ms, so each 500 ms window holds 50
        // sends: a steady 100/s rate.
        for p in &points {
            let rate = p
                .rates
                .iter()
                .find(|(n, _)| n == "telemetry.test.sent")
                .map(|(_, r)| *r)
                .expect("sent rate present");
            assert!((rate - 100.0).abs() < 1e-9, "rate {rate}");
        }
    }

    #[test]
    fn partial_trailing_window_is_run_but_not_sampled() {
        let mut w = ticker_world(7);
        let registry = w.obs().metrics.clone();
        let mut sampler = Sampler::with_capacity(64);
        // 1.25 s deadline with a 500 ms interval: windows close at 0.5 s
        // and 1.0 s; the last 250 ms are simulated but unsampled.
        let end = run_sampled(
            &mut w,
            &registry,
            SimTime::ZERO + SimDuration::from_millis(1250),
            SimDuration::from_millis(500),
            &mut sampler,
        );
        assert_eq!(end.as_nanos(), 1_250_000_000);
        let points: Vec<_> = sampler.series().points().collect();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].at_ns, 1_000_000_000);
    }

    #[test]
    fn sampled_runs_are_byte_stable() {
        let a = sample_run(42);
        let b = sample_run(42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn sampler_baseline_survives_chained_calls() {
        let mut w = ticker_world(7);
        let registry = w.obs().metrics.clone();
        let mut sampler = Sampler::with_capacity(64);
        // Two half-runs must equal one whole run: the second call's priming
        // sample is non-advancing and must not reset the delta baseline.
        run_sampled(
            &mut w,
            &registry,
            SimTime::ZERO + SimDuration::from_secs(1),
            SimDuration::from_millis(500),
            &mut sampler,
        );
        run_sampled(
            &mut w,
            &registry,
            SimTime::ZERO + SimDuration::from_secs(2),
            SimDuration::from_millis(500),
            &mut sampler,
        );
        assert_eq!(sampler.series().render(), sample_run(7));
    }

    #[test]
    fn sampling_stops_when_the_world_drains() {
        let mut w = World::new(7);
        // 50 sends over 0.5 s, then nothing: the world drains early.
        let t = w.add_node(Box::new(Ticker {
            period: SimDuration::from_millis(10),
            total: 50,
            sent: 0,
        }));
        let s = w.add_node(Box::new(Sink));
        w.connect(t, s, LinkConfig::default(), LinkConfig::default());
        let registry = w.obs().metrics.clone();
        let mut sampler = Sampler::with_capacity(64);
        let end = run_sampled(
            &mut w,
            &registry,
            SimTime::ZERO + SimDuration::from_secs(10),
            SimDuration::from_millis(500),
            &mut sampler,
        );
        // The driver still reaches the deadline…
        assert_eq!(end, SimTime::ZERO + SimDuration::from_secs(10));
        // …but sampling stopped at the first all-idle tick: the 0.5 s
        // window holds the sends, the 1.0 s window the trailing delivery,
        // and none of the remaining 18 all-zero windows are recorded.
        let points: Vec<_> = sampler.series().points().collect();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].at_ns, 1_000_000_000);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_panics() {
        let mut w = ticker_world(7);
        let registry = w.obs().metrics.clone();
        let mut sampler = Sampler::with_capacity(4);
        run_sampled(
            &mut w,
            &registry,
            SimTime::ZERO + SimDuration::from_secs(1),
            SimDuration::ZERO,
            &mut sampler,
        );
    }
}
