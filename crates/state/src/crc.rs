//! CRC-32 (IEEE 802.3 polynomial), hand-rolled so the crate stays
//! dependency-free.
//!
//! The framed snapshot format checksums every record independently
//! (see [`crate::reader`]): a single flipped bit anywhere in a record —
//! header, length field, payload, or the stored CRC itself — must make
//! that record, and only that record, fail verification. CRC-32 detects
//! all single- and double-bit errors and all burst errors up to 32 bits,
//! which covers the torn-write and bit-rot fault classes the chaos
//! harness injects.

/// The reflected IEEE polynomial (used by zlib, PNG, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// One-shot CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// // The classic check value for the IEEE polynomial.
/// assert_eq!(cs_state::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC-32, for checksumming a record's frame fields and
/// payload without concatenating them first.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        for &b in data {
            crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The finished checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"collectionswitch snapshot payload";
        for split in 0..data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(data));
        }
    }

    #[test]
    fn single_byte_changes_are_detected() {
        let base = b"record payload under test".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupt = base.clone();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
