//! Deterministic discrete-event network simulator for the Sidecar
//! (HotNets '22) reproduction.
//!
//! The paper's sidecar protocols were proposed for real networks with real
//! QUIC endpoints and middleboxes. This crate substitutes a deterministic
//! simulator that exposes exactly the observables those protocols consume:
//!
//! * packets carrying opaque pseudo-random identifiers (encrypted-header
//!   surrogates, paper §3.2),
//! * links with configurable rate, propagation delay, drop-tail queues,
//!   Bernoulli/Gilbert–Elliott loss, and reordering jitter, and
//! * a QUIC-like "paranoid" transport ([`transport`]) with pluggable
//!   congestion control, RFC 6298-style RTT estimation, and QUIC-style loss
//!   detection — the *base protocol* that sidecars accelerate without
//!   modifying.
//!
//! Determinism is end-to-end: a `(topology, seed)` pair reproduces a run
//! byte-for-byte, which the test suites rely on (smoltcp-style reproducible
//! fault injection).
//!
//! # Example: two hosts over a lossy link
//!
//! ```
//! use sidecar_netsim::link::{LinkConfig, LossModel};
//! use sidecar_netsim::time::SimDuration;
//! use sidecar_netsim::transport::{ReceiverNode, SenderConfig, SenderNode};
//! use sidecar_netsim::world::World;
//!
//! let mut world = World::new(7);
//! let sender = world.add_node(SenderNode::boxed(SenderConfig {
//!     total_packets: Some(200),
//!     ..SenderConfig::default()
//! }));
//! let receiver = world.add_node(ReceiverNode::boxed(Default::default()));
//! world.connect(
//!     sender,
//!     receiver,
//!     LinkConfig { loss: LossModel::Bernoulli { p: 0.01 }, ..LinkConfig::default() },
//!     LinkConfig::default(),
//! );
//! world.run_until_idle(1_000_000);
//! let stats = world.node_as::<SenderNode>(sender).stats();
//! assert_eq!(stats.delivered_packets, 200); // reliable despite loss
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod fault;
pub mod forward;
pub mod link;
pub mod node;
pub mod obs;
pub mod packet;
pub mod rng;
pub mod router;
pub mod sched;
pub mod telemetry;
pub mod time;
pub mod transport;
pub mod world;

pub use driver::Driver;
pub use fault::FaultPlan;
pub use forward::Forwarder;
pub use link::{Link, LinkConfig, LinkStats, LossModel};
pub use node::{Context, IfaceId, LinkId, Node, NodeId, TimerHandle};
pub use obs::WorldObs;
pub use packet::{AckInfo, FlowId, Packet, PacketKind, Payload};
pub use rng::SimRng;
pub use router::FlowRouter;
pub use telemetry::run_sampled;
pub use time::{transmission_time, SimDuration, SimTime};
pub use world::World;
