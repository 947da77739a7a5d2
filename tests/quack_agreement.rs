//! Integration: the quACK's wire size across identifier widths (§4.2).

use sidecar_repro::quack::WireFormat;

#[test]
fn cross_width_wire_sizes_rank_as_expected() {
    let sizes: Vec<usize> = [16u32, 24, 32, 64]
        .iter()
        .map(|&b| {
            WireFormat {
                id_bits: b,
                threshold: 20,
                count_bits: 16,
            }
            .encoded_bytes()
        })
        .collect();
    assert_eq!(sizes, vec![42, 62, 82, 162]);
    assert!(sizes.windows(2).all(|w| w[0] < w[1]));
}
