//! The **quACK** ("quick ACK"): a concise sketch of a multiset of packet
//! identifiers that lets a sender holding the list of candidate packets
//! efficiently decode exactly which of them a receiver has *not* received.
//!
//! This crate reproduces the core contribution of
//! ["Sidecar: In-Network Performance Enhancements in the Age of Paranoid
//! Transport Protocols" (HotNets '22)](https://doi.org/10.1145/3563766.3564113):
//!
//! > *Construction:* `R → quACK` — *Decoding:* `S + quACK → S \ R` (Fig. 2)
//!
//! where `S` is the multiset of sent identifiers and `R ⊆ S` the received
//! ones. Identifiers are `b`-bit integers sampled from randomly-encrypted
//! packet headers, so they look uniformly random and carry no protocol
//! semantics — that is what lets a middlebox acknowledge end-to-end-encrypted
//! packets it cannot parse.
//!
//! # Quick start
//!
//! ```
//! use sidecar_quack::{PowerSumQuack, Quack32};
//!
//! // Receiver side: accumulate each arriving identifier.
//! let mut receiver = Quack32::new(20); // threshold t = 20
//! for id in [0xDEAD_BEEF_u64, 0x1234_5678, 0x0BAD_CAFE] {
//!     receiver.insert(id);
//! }
//!
//! // Sender side: mirror sums over everything sent, then decode.
//! let sent: Vec<u64> = vec![0xDEAD_BEEF, 0x1234_5678, 0xFEED_F00D, 0x0BAD_CAFE];
//! let mut sender = Quack32::new(20);
//! for &id in &sent {
//!     sender.insert(id);
//! }
//!
//! let decoded = sender.difference(&receiver).decode_with_log(&sent).unwrap();
//! assert_eq!(decoded.missing_values(&sent), vec![0xFEED_F00D]);
//! ```
//!
//! # Modules
//!
//! * [`power_sum`] — the power-sum quACK itself ([`PowerSumQuack`]), generic
//!   over the identifier width via `sidecar_galois::Field`.
//! * [`decode`] — the decoder output ([`DecodedQuack`]) with
//!   missing/indeterminate classification (paper §3.2).
//! * [`sha256`] — from-scratch SHA-256 under the sidecar control channel's
//!   HMAC (no hash crate in the offline dependency set).
//! * [`wire`] — the bit-exact wire codec (`b·t + c` bits, §4.2 "QuACK
//!   Size").
//! * [`collision`] — collision/indeterminacy probability math (§4.2,
//!   Table 3).
//! * [`id`] — extracting pseudo-random identifiers from opaque header bytes.
//! * [`dynamic`] — runtime-width quACKs for negotiated identifier widths.
//!
//! The sketches the paper compares the quACK against (Table 2's two
//! strawmen, the invertible Bloom lookup table) are experiment code and
//! live in `sidecar-bench` (`sidecar_bench::baselines`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collision;
pub mod decode;
pub mod dynamic;
pub mod id;
pub mod power_sum;
pub mod sha256;
pub mod wire;

pub use decode::{DecodeError, DecodedQuack, IndeterminateGroup, PacketFate};
pub use dynamic::{DynError, DynQuack};
pub use power_sum::{PowerSumQuack, Quack16, Quack24, Quack32, Quack64};
pub use wire::{WireError, WireFormat, DEFAULT_COUNT_BITS};
