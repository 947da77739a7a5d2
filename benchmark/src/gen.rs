//! Seeded input generation. The benchmark owns its generator (SplitMix64)
//! instead of borrowing the repository's `SimRng`, so a change to the
//! program can never change the inputs it is measured on.

use sidecar_netsim::packet::{FlowId, Packet};
use sidecar_netsim::time::SimTime;

/// SplitMix64: a full-period 64-bit generator with no state to warm up.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below 2^-40
    /// for every bound this benchmark uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// An independent seed for stream `stream` of run seed `seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Nominal on-the-wire size stamped on generated data packets. The live
/// wire carries the field, not that many bytes (see README, caveats).
pub const NOMINAL_PACKET_BYTES: u32 = 1_500;

/// The data packets a live workload sends, in order: sequence numbers count
/// up from 0, flows rotate round-robin over `1..=flows`, identifiers are
/// uniform 32-bit draws.
#[derive(Clone, Debug)]
pub struct PacketStream {
    rng: Rng,
    flows: u32,
    next_seq: u64,
}

impl PacketStream {
    pub fn new(seed: u64, flows: u32) -> Self {
        assert!(flows > 0, "a stream needs a flow");
        PacketStream {
            rng: Rng::new(derive_seed(seed, 0x11FE)),
            flows,
            next_seq: 0,
        }
    }

    /// The next packet, stamped with `sent_at_ns` (the instant it was due,
    /// on the generator's clock) so the sink can time it without a table.
    pub fn next_packet(&mut self, sent_at_ns: u64) -> Packet {
        let seq = self.next_seq;
        self.next_seq += 1;
        let flow = FlowId(1 + (seq % self.flows as u64) as u32);
        let id = self.rng.next_u64() & 0xFFFF_FFFF;
        Packet::data(
            flow,
            seq,
            id,
            NOMINAL_PACKET_BYTES,
            SimTime::from_nanos(sent_at_ns),
        )
    }
}

/// One `sketch` round's inputs: the identifiers a sender logged and the
/// positions in that log the receiver never saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SketchRound {
    pub ids: Vec<u64>,
    /// Ascending log positions of the dropped identifiers.
    pub dropped: Vec<usize>,
    /// `ids` with the dropped positions left out, in log order.
    pub received: Vec<u64>,
}

/// `n` identifiers of which `missing` are dropped. Identifiers are distinct
/// modulo the 32-bit field's prime, so the decode is always exact: the
/// paper's Table 2 measures decode cost, not collision handling, and a round
/// that cannot fail keeps `failed` at zero by construction.
pub fn sketch_round(rng: &mut Rng, n: usize, missing: usize) -> SketchRound {
    assert!(missing <= n);
    let mut ids: Vec<u64> = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n);
    while ids.len() < n {
        let id = rng.next_u64() & 0xFFFF_FFFF;
        if seen.insert(id % sidecar_galois::P32) {
            ids.push(id);
        }
    }
    // One drop in each of `missing` equal strata of the log. The decoder
    // walks the log until the last root is found, so where the drops fall
    // sets its cost; strata keep that spread even from round to round and
    // seed to seed while every position can still be hit.
    let stratum = n / missing.max(1);
    let dropped: Vec<usize> = (0..missing)
        .map(|k| k * stratum + rng.below(stratum as u64) as usize)
        .collect();
    let received = ids
        .iter()
        .enumerate()
        .filter(|(i, _)| dropped.binary_search(i).is_err())
        .map(|(_, &id)| id)
        .collect();
    SketchRound {
        ids,
        dropped,
        received,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64, flows: u32, n: usize) -> Vec<u8> {
        let mut s = PacketStream::new(seed, flows);
        (0..n)
            .flat_map(|i| sidecar_live::wire::encode(&s.next_packet(i as u64 * 50_000)))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream_bytes(7, 8, 500), stream_bytes(7, 8, 500));
        assert_ne!(stream_bytes(7, 8, 500), stream_bytes(8, 8, 500));
        let mut a = Rng::new(derive_seed(7, 3));
        let mut b = Rng::new(derive_seed(7, 3));
        assert_eq!(
            sketch_round(&mut a, 1000, 20),
            sketch_round(&mut b, 1000, 20)
        );
    }

    #[test]
    fn stream_rotates_flows_and_counts_sequence_numbers() {
        let mut s = PacketStream::new(1, 3);
        let flows: Vec<u32> = (0..6).map(|_| s.next_packet(0).flow.0).collect();
        assert_eq!(flows, [1, 2, 3, 1, 2, 3]);
        assert_eq!(s.next_packet(9).seq, 6);
    }

    #[test]
    fn sketch_round_is_distinct_and_consistent() {
        let r = sketch_round(&mut Rng::new(5), 1000, 20);
        assert_eq!(
            (r.ids.len(), r.dropped.len(), r.received.len()),
            (1000, 20, 980)
        );
        let distinct: std::collections::HashSet<_> = r.ids.iter().collect();
        assert_eq!(distinct.len(), 1000);
        assert!(r.dropped.windows(2).all(|w| w[0] < w[1]));
        assert!(r.dropped.iter().all(|&i| !r.received.contains(&r.ids[i])));
    }
}
