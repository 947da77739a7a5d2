//! Umbrella crate for the Sidecar (HotNets '22) reproduction.
//!
//! Re-exports the workspace crates so examples and integration tests can use
//! a single dependency:
//!
//! * [`galois`] — prime fields, polynomials, Newton's identities.
//! * [`quack`] — the quACK power-sum sketch, its decoders and wire codec.
//! * [`netsim`] — deterministic discrete-event network simulator.
//! * [`proto`] — sidecar endpoints and the three sidecar protocols.

#![forbid(unsafe_code)]

pub use sidecar_galois as galois;
pub use sidecar_netsim as netsim;
pub use sidecar_proto as proto;
pub use sidecar_quack as quack;
