//! A from-scratch SHA-256 (FIPS 180-4).
//!
//! Two users. The paper's second strawman (`sidecar_bench::baselines`)
//! returns "a hash of a sorted concatenation of all the received packets"
//! (§1) — 256 bits on the wire (Table 2). And it is the core of the
//! control channel's HMAC (DESIGN.md §12): every authenticated control
//! datagram is hashed once to seal and once to open, so what this module
//! spends around the compression function — copies in [`Sha256::update`],
//! padding in [`Sha256::finalize`] — is part of what a quACK costs, not
//! only of Table 2's construction-time row.
//!
//! The approved offline dependency set has no hash crate, so SHA-256 is
//! implemented here directly and validated against the FIPS test vectors
//! below. The compression function is plain scalar code: `unsafe` is
//! forbidden crate-wide, which rules out the SHA-NI intrinsics.

/// SHA-256 initial hash values (fractional parts of square roots of the
/// first eight primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-256 round constants (fractional parts of cube roots of the first 64
/// primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// An incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while let Some((block, tail)) = rest.split_first_chunk::<64>() {
            self.compress(block);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length.wrapping_mul(8);
        // Padding, written straight into the block buffer (`buffered < 64`
        // always): 0x80, zeros until 8 bytes remain in a block, the length.
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            // No room left for the length: it goes in a block of its own.
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Hex helper used by tests and debug output.
pub fn to_hex(digest: &[u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST CAVS reference vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..255u8).collect();
        let oneshot = Sha256::digest(&data);
        for split in [0usize, 1, 63, 64, 65, 128, 200, 255] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn exactly_one_block() {
        // 64-byte message exercises the empty-buffer fast path + padding
        // into a second block.
        let data = [0xABu8; 64];
        let d1 = Sha256::digest(&data);
        let mut h = Sha256::new();
        for b in data {
            h.update(&[b]);
        }
        assert_eq!(h.finalize(), d1);
    }

    /// Reference padding: 0x80, then one `update` per zero byte until eight
    /// bytes remain in the block, then the bit length — the obviously-right
    /// form `finalize` must agree with.
    fn finalize_bytewise(mut h: Sha256) -> [u8; 32] {
        let bit_len = h.length.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buffered != 56 {
            h.update(&[0]);
        }
        h.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = h.buffer;
        h.compress(&block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(h.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn every_length_to_200_matches_bytewise_padding() {
        // 55/56 and 119/120 straddle "padding fits this block" vs "spills
        // into one more"; 63/64 straddle the empty-buffer case.
        let data: Vec<u8> = (0..200usize).map(|i| (i * 7 + 3) as u8).collect();
        let mut chain = Sha256::new();
        for len in 0..=200 {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            let digest = Sha256::digest(&data[..len]);
            assert_eq!(digest, finalize_bytewise(h), "len {len}");
            chain.update(&digest);
        }
        // The 201 digests, hashed in order, as an independent
        // implementation (Python's hashlib) computes them.
        assert_eq!(
            to_hex(&chain.finalize()),
            "3275febb4612d86d586eb9f11cd21e648a9fc7d95e0f6b8d362786e28c9c5b79"
        );
    }

    #[test]
    fn fifty_five_and_fifty_six_bytes() {
        // 55 bytes: padding fits in one block; 56 bytes: spills into two.
        for len in [55usize, 56] {
            let data = vec![b'x'; len];
            let mut h = Sha256::new();
            h.update(&data);
            let inc = h.finalize();
            assert_eq!(inc, Sha256::digest(&data), "len {len}");
        }
    }
}
