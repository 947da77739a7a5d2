//! Deterministic observability: metrics + event traces for the Sidecar repro.
//!
//! The three sidecar protocols (paper §2.1–§2.3) are judged by *in-network
//! mechanism* — quACK cadence, decode outcomes, proxy retransmissions,
//! degradation events — which end-to-end throughput numbers can hide. This
//! crate provides the measurement substrate that makes mechanism visible and
//! testable:
//!
//! * [`MetricsRegistry`] — a lock-cheap registry of monotonic counters,
//!   gauges, and fixed-bucket histograms, keyed by `&'static str`. Hot loops
//!   hold a [`Counter`] handle (one relaxed atomic add per event, no map
//!   lookup); everything is snapshot-able into a plain-data
//!   [`MetricsSnapshot`] with a stable, line-based text encoding.
//! * [`EventTrace`] — a bounded ring buffer of typed [`Event`]s stamped with
//!   simulated-time nanoseconds. The rendering is byte-stable across runs of
//!   the same `(topology, seed)`, which makes traces golden-testable.
//!
//! # Determinism contract
//!
//! Nothing in this crate reads a wall clock, thread id, or any other
//! environmental entropy. Timestamps are caller-supplied `u64` nanoseconds
//! (the simulator passes `SimTime::as_nanos()`), map iteration is `BTreeMap`
//! order, and floats encode via shortest-roundtrip formatting. Two runs of a
//! deterministic simulation therefore produce identical snapshots and
//! identical trace renderings.
//!
//! The crate holds no process-wide state. Every registry and trace belongs
//! to the host (a simulated `World` or a `LiveDriver`) that records into
//! it, and callers combine finished runs as plain data
//! ([`MetricsSnapshot::merge`], [`EventTrace::absorb`]).
//!
//! The crate is intentionally zero-dependency (std only) and sits *below*
//! `sidecar-netsim` in the dependency graph: the simulator depends on obs,
//! never the reverse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod expo;
pub mod lifecycle;
mod metrics;
mod scoreboard;
mod snapshot;
mod timeseries;
mod trace;

pub use event::{
    AuthRejectKind, ControlKind, DropCause, Event, QuackErrorKind, SessionState, TraceClass,
};
pub use expo::{parse_prometheus, render_prometheus, sanitize_metric_name};
pub use lifecycle::{Lifecycle, PacketTimeline, TraceId};
pub use metrics::{Counter, MetricsRegistry};
pub use scoreboard::{FlowHealthRow, FlowScoreboard, HealthDim, ScoreboardSnapshot};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use timeseries::{
    counter_delta, diff_point, PercentileTrack, SamplePoint, Sampler, TimeSeries, WRAP_GUARD,
};
pub use trace::EventTrace;
