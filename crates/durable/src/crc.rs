//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the per-frame
//! and per-snapshot checksum, implemented in-crate so the durability layer
//! stays dependency-free, like everything else in the workspace.
//!
//! Two implementations, one result:
//!
//! - **Slicing-by-8** (eight const-built tables, one 8-byte chunk per
//!   step) is the portable reference. Its steps form one dependency
//!   chain, so it is latency-bound at about 1.3 GB/s.
//! - **Carry-less-multiply folding** (Gopal et al., "Fast CRC Computation
//!   for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009)
//!   folds four independent 16-byte lanes 64 bytes at a time with
//!   `PCLMULQDQ`, merges them, and finishes with a Barrett reduction; the
//!   bytes past the last whole 16-byte block go through slicing-by-8.
//!
//! [`crc32`] folds when all of these hold, and otherwise runs
//! slicing-by-8:
//!
//! - the target is `x86_64` and runtime detection finds `PCLMULQDQ`
//!   (the rest of the kernel is SSE2, part of the `x86_64` baseline);
//! - the input is at least 64 bytes long (the fixed-width WAL frames
//!   never are; batch frames and snapshots always are);
//! - [`pinnsoc_nn::kernel::active`] is not
//!   [`KernelPath::Scalar`](pinnsoc_nn::kernel::KernelPath::Scalar), so
//!   `PINNSOC_FORCE_KERNEL=scalar` runs the reference end to end.
//!
//! Both compute the same polynomial division, so the choice only changes
//! speed; a seeded test checks equality over lengths and alignments.

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
    // tables[k][b] = CRC of byte b followed by k zero bytes: lets one step
    // fold 8 input bytes via 8 independent lookups.
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

/// Shortest input [`crc32`] folds with `PCLMULQDQ`: the kernel starts from
/// four whole 16-byte blocks.
const FOLD_MIN_BYTES: usize = 64;

/// CRC-32 of `bytes` (init `!0`, final xor `!0` — the zlib/PNG convention).
/// Dispatches as the [module docs](self) describe.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if let Some(crc) = clmul::crc32(bytes) {
            return crc;
        }
    }
    !sliced(!0, bytes)
}

/// Slicing-by-8 update of a raw (uninverted) CRC state — the reference
/// path, and the tail of the folding one.
fn sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The `PCLMULQDQ` folding kernel. The `// SAFETY:` comment on each block
/// records its obligation: the runtime feature check before the one
/// `#[target_feature]` call, and 16 readable bytes behind every load.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use pinnsoc_nn::kernel::{self, KernelPath};
    use std::arch::x86_64::*;

    // Fold constants for the bit-reflected polynomial (Gopal et al.,
    // 2009): powers of x modulo P that carry a 128-bit lane 512 bits
    // (`K1`, `K2`) or 128 bits (`K3`, `K4`) ahead, the 96 → 64-bit step
    // (`K5`), and P with its Barrett quotient μ = ⌊x⁶⁴ / P⌋ for the final
    // 64 → 32 bits. All are stored reflected and shifted left by one, as
    // reflected carry-less products need.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// The CRC-32 of `bytes` by folding, or `None` when the dispatch rule
    /// in the [module docs](super) picks slicing-by-8.
    pub(super) fn crc32(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < super::FOLD_MIN_BYTES
            || kernel::active() == KernelPath::Scalar
            || !is_x86_feature_detected!("pclmulqdq")
        {
            return None;
        }
        // SAFETY: PCLMULQDQ was detected on this CPU just above, and the
        // length check meets `fold`'s four-block minimum.
        Some(!unsafe { fold(!0, bytes) })
    }

    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and the unaligned load has
        // no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` carried one fold distance ahead (its low and high 64 bits
    /// multiplied by the two `keys`), xored into `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advances the raw CRC state `crc` over `bytes`.
    ///
    /// # Safety
    ///
    /// The CPU must support `PCLMULQDQ`, and `bytes` must hold at least
    /// four 16-byte blocks.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (head, body) = blocks.split_at(4);
        let mut lanes = [
            load(&head[0]),
            load(&head[1]),
            load(&head[2]),
            load(&head[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut groups = body.chunks_exact(4);
        for group in &mut groups {
            for (lane, block) in lanes.iter_mut().zip(group) {
                *lane = fold_into(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(lanes[0], lanes[1], k3k4);
        acc = fold_into(acc, lanes[2], k3k4);
        acc = fold_into(acc, lanes[3], k3k4);
        for block in groups.remainder() {
            acc = fold_into(acc, load(block), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett reduction to 32 bits; in the reflected domain the
        // remainder sits in bits 32..64.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        let state = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, t2), 4)) as u32;
        super::sliced(state, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn reference(bytes: &[u8]) -> u32 {
        !sliced(!0, bytes)
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_path_matches_bytewise_reference_at_every_length() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        }
        let data: Vec<u8> = (0..64u32)
            .map(|k| (k.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                reference(&data[..len]),
                bytewise(&data[..len]),
                "length {len}"
            );
        }
    }

    /// The dispatched CRC equals slicing-by-8 on every length 0..=8192 at
    /// every start offset 0..16 (so unaligned slices too), over seeded
    /// random bytes.
    #[test]
    fn dispatched_crc_matches_reference_over_lengths_and_offsets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0C2C_3232);
        let data: Vec<u8> = (0..8192 + 16).map(|_| rng.gen::<u32>() as u8).collect();
        for offset in 0..16 {
            // The reference state of every prefix, one byte at a time.
            let mut state = !0;
            for len in 0..=8192 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), !state, "offset {offset}, length {len}");
                state = sliced(state, &data[offset + len..][..1]);
            }
        }
    }

    /// One check value far above the dispatch threshold: 1 MiB of
    /// `k * 31 mod 251`, as computed by zlib's `crc32`.
    #[test]
    fn one_mebibyte_check_value() {
        let data: Vec<u8> = (0..1usize << 20).map(|k| (k * 31 % 251) as u8).collect();
        assert_eq!(crc32(&data), 0x8744_4ED4);
        assert_eq!(reference(&data), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"pinnsoc durable wal record".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
