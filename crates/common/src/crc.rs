//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every durable record the workspace writes to disk (WAL frames,
//! segment files, cached snapshots).
//!
//! Slicing-by-16: sixteen sliced tables built at compile time fold 16
//! bytes per step, and the bytewise loop over the first table takes the
//! final `< 16` bytes. No external crate, per the vendored-deps policy. The
//! incremental form ([`crc32_update`]) lets callers checksum a header and a
//! payload without concatenating them.

/// Bytes folded per step, one table each.
const SLICES: usize = 16;

/// `TABLES[0]` is the bytewise table of the reflected IEEE polynomial;
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so a
/// byte that sits `k` places before the end of a 16-byte step is looked up
/// in table `k`.
const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
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
    let mut k = 1;
    while k < SLICES {
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

static TABLES: [[u32; 256]; SLICES] = make_tables();

/// Feed `bytes` into a running checksum previously returned by
/// [`crc32`] or `crc32_update`. Start a chain with `crc32_update(0, ..)`.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut steps = bytes.chunks_exact(SLICES);
    for step in &mut steps {
        // The running CRC folds into the first four bytes; byte `j` of the
        // step is then `15 - j` places before its end.
        let mut step: [u8; SLICES] = step.try_into().expect("a 16-byte step");
        let head = crc ^ u32::from_le_bytes([step[0], step[1], step[2], step[3]]);
        step[..4].copy_from_slice(&head.to_le_bytes());
        crc = (0..SLICES).fold(0, |acc, j| {
            acc ^ TABLES[SLICES - 1 - j][usize::from(step[j])]
        });
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The CRC-32 of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"header-bytes|payload-bytes-0123456789";
        for split in 0..data.len() {
            let inc = crc32_update(crc32_update(0, &data[..split]), &data[split..]);
            assert_eq!(inc, crc32(data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"durability matters";
        let good = crc32(data);
        let mut corrupted = data.to_vec();
        for i in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), good, "flip byte {i} bit {bit}");
                corrupted[i] ^= 1 << bit;
            }
        }
    }
}
