//! Sidecar protocols: PEP-style performance enhancements for E2E-encrypted
//! ("paranoid") transports, built on the quACK.
//!
//! Reproduces §2 of [Sidecar (HotNets '22)]: a *sidecar protocol* is spoken
//! between sidecars on hosts and proxies, loosely coupled to the unchanged
//! base transport. Proxies stay regular routers — they "can withhold or
//! delay packets, but they cannot modify the packets or make decisions
//! based on their contents"; the sidecar only ever reads the opaque
//! per-packet identifier.
//!
//! * [`endpoint`] — [`QuackProducer`]/[`QuackConsumer`] state machines with
//!   all the §3.3 practical considerations (threshold reset, reorder grace,
//!   in-flight truncation, epoch resets, dropped/stale quACK handling).
//! * [`messages`] — the sidecar wire vocabulary (quACK, configure, reset,
//!   hello).
//! * [`negotiate`] — the `Hello` offer of §3.2's `t`, `b`, `c`; a producer
//!   accepts only its own quACK shape, and a refused flow runs end to end.
//! * [`auth`] — the HMAC-authenticated, replay-protected control channel
//!   (sealed twin wire tags, per-session keys from a pre-shared secret,
//!   RFC 4303-style sliding replay window).
//! * [`flows`] — the bounded, sharded [`FlowTable`] mapping flow ids to
//!   per-flow sidecar sessions (a proxy serves many connections; each gets
//!   its own sketch, epoch, and supervision).
//! * [`protocols`] — the three protocols of Table 1 as runnable simulation
//!   scenarios with baselines:
//!   [`protocols::ccd`] (congestion-control division, §2.1),
//!   [`protocols::ack_reduction`] (§2.2), and
//!   [`protocols::retx`] (in-network retransmission, §2.3).
//!
//! [Sidecar (HotNets '22)]: https://doi.org/10.1145/3563766.3564113

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod config;
pub mod endpoint;
pub mod flows;
pub mod messages;
pub mod negotiate;
pub mod protocols;
pub mod supervise;

pub use auth::{
    hmac_sha256, AuthError, AuthStats, ChannelAuth, ReplayWindow, AUTH_OVERHEAD, MAC_LEN,
    REPLAY_WINDOW,
};
pub use config::{AuthConfig, QuackFrequency, SidecarConfig, SupervisionConfig};
pub use endpoint::{
    ConfirmedLoss, ConsumerStats, LogEntry, ProcessError, QuackConsumer, QuackProducer, QuackReport,
};
pub use flows::{FlowTable, FlowTableConfig, FlowTableStats, FoldBuffer, FoldStats, SlotId};
pub use messages::{MessageError, SidecarMessage};
pub use negotiate::offer;
pub use supervise::{PollOutcome, Supervisor, SupervisorState, SupervisorStats};
