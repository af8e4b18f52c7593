//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the frame
//! checksum of the write-ahead log.
//!
//! Implemented here rather than pulled in as a dependency because the
//! build environment is crates.io-free (see the workspace manifest).
//! Slice-by-8: eight 256-entry tables built in a `const fn`, so eight
//! payload bytes cost eight independent lookups and one dependent xor
//! chain instead of eight dependent lookups. A writer checksums its
//! frames before it takes the log's mutex, but an in-memory store makes
//! the checksum a visible share of an append, and recovery checksums
//! every byte it reads.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // `tables[k][b]` is the checksum state after byte `b` and `k` zero
    // bytes: one more zero byte is one more bytewise step.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One bytewise step of the reflected CRC.
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// The CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = step(crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    /// The one-table, byte-at-a-time CRC the slices must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &b| step(crc, b))
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = TestRng::deterministic(&format!("crc/{seed}"));
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"\0"), 0xD202_EF8D);
    }

    #[test]
    fn slices_agree_with_the_bytewise_reference() {
        // Every length through one word and well into the next, at every
        // start offset within a word: the eight-byte body, the remainder
        // loop and every split between them.
        for seed in 1..=4u64 {
            let buf = noise(64 + 8, seed);
            for offset in 0..8 {
                for len in 0..=64 {
                    let data = &buf[offset..offset + len];
                    assert_eq!(
                        crc32(data),
                        crc32_bytewise(data),
                        "seed {seed} offset {offset} len {len}"
                    );
                }
            }
        }
        // A segment-sized and a frame-limit-sized buffer.
        for len in [4 << 10, 1 << 20] {
            let data = noise(len + 3, len as u64);
            assert_eq!(crc32(&data[3..]), crc32_bytewise(&data[3..]), "len {len}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"write-ahead log frame payload".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
