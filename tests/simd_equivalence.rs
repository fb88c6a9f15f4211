//! Corpus-backed equivalence properties for the vectorized datapath.
//!
//! Every dispatched kernel — CRC-32/CRC-16 slicing/folding, the NH SSE2/AVX2
//! lanes and the 4-buffer lockstep variant, the GHASH multipliers, the
//! AES-NI block batches, and the AEAD arm built on all of them — must be
//! **byte-identical** to its portable scalar oracle for arbitrary
//! message lengths (0–9000 B) and arbitrary split points. This is the
//! scalar-fallback guarantee DESIGN.md's "SIMD kernels" section
//! promises, enforced over random corpora with persistent failure
//! replay (`ib_runtime::check`): any counterexample ever found is
//! re-checked on every future run before new random exploration.
//!
//! On hosts without the CPU features (or under `IB_SIMD=off`) the
//! dispatched paths *are* the scalar paths and these properties pin the
//! dispatch plumbing instead — they are meaningful in both worlds.

use ib_crypto::aes::Aes128;
use ib_crypto::crc::{crc16_bitwise, crc32_bitwise};
use ib_crypto::mac::{AnyMac, AuthAlgorithm, Mac};
use ib_crypto::simd::{gf128, nh};
use ib_crypto::{AesGcm32, Crc16, Crc32, Umac};
use ib_runtime::check;

/// Exclusive length bound: past the largest (jumbo-ish) MTU the paper's
/// experiments use, and far past every kernel's widest stride.
const MAX_LEN: usize = 9001;

#[test]
fn crc_kernels_match_bitwise_reference() {
    check::run(
        "simd-eq: crc32 slice4/slice8/auto and crc16 slice8/auto == bitwise, any split",
        64,
        |g| (g.bytes(0..MAX_LEN), g.u64()),
        |(b, s)| {
            check::shrink_bytes(b)
                .into_iter()
                .map(|b| (b, *s))
                .collect()
        },
        |(bytes, split)| {
            let want = crc32_bitwise(bytes);
            assert_eq!(ib_crypto::crc32_ieee(bytes), want, "table kernel");
            assert_eq!(Crc32::new().update_slice4(bytes).finalize(), want);
            assert_eq!(Crc32::new().update_slice8(bytes).finalize(), want);
            assert_eq!(Crc32::new().update_auto(bytes).finalize(), want);
            let want16 = crc16_bitwise(bytes);
            assert_eq!(Crc16::new().update(bytes).finalize(), want16, "slice-by-8");
            assert_eq!(Crc16::new().update_auto(bytes).finalize(), want16);
            // Streaming through the dispatched kernel must fold the
            // running state across any split identically.
            let cut = (*split as usize) % (bytes.len() + 1);
            let mut c = Crc32::new();
            c.update_auto(&bytes[..cut]);
            c.update_auto(&bytes[cut..]);
            assert_eq!(c.finalize(), want, "split at {cut}");
            let mut c = Crc16::new();
            c.update_auto(&bytes[..cut]).update(&bytes[cut..]);
            assert_eq!(c.finalize(), want16, "crc16 split at {cut}");
        },
    );
    check::run(
        "simd-eq: crc16/crc32 auto == bitwise across multi-way splits",
        64,
        |g| {
            let bytes = g.bytes(0..MAX_LEN);
            let mut cuts: Vec<usize> = (0..g.usize_in(0..9))
                .map(|_| g.usize_in(0..bytes.len() + 1))
                .collect();
            cuts.sort_unstable();
            (bytes, cuts)
        },
        check::no_shrink,
        |(bytes, cuts)| {
            let (mut c16, mut c32, mut at) = (Crc16::new(), Crc32::new(), 0);
            for &cut in cuts.iter().chain([&bytes.len()]) {
                c16.update_auto(&bytes[at..cut]);
                c32.update_auto(&bytes[at..cut]);
                at = cut;
            }
            assert_eq!(c16.finalize(), crc16_bitwise(bytes), "cuts {cuts:?}");
            assert_eq!(c32.finalize(), crc32_bitwise(bytes), "cuts {cuts:?}");
        },
    );
    // Every start misalignment against a cache line, at every length
    // around the 64 B dispatch threshold and a few bulk sizes: the
    // folding kernel's unaligned loads and its hand-off to the table
    // tail must not depend on where the buffer sits.
    let backing: Vec<u8> = (0..9200u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
        .collect();
    let base = backing.as_ptr().align_offset(64);
    let lens = (0..=200).chain([1023, 1024, 1025, 4096, 9000]);
    for len in lens {
        for mis in 0..64 {
            let d = &backing[base + mis..base + mis + len];
            let want16 = crc16_bitwise(d);
            assert_eq!(
                Crc16::new().update_auto(d).finalize(),
                want16,
                "auto {len}@{mis}"
            );
            assert_eq!(
                Crc16::new().update(d).finalize(),
                want16,
                "slice8 {len}@{mis}"
            );
            assert_eq!(
                Crc32::new().update_auto(d).finalize(),
                crc32_bitwise(d),
                "crc32 {len}@{mis}"
            );
        }
    }
}

#[test]
fn nh_lanes_match_scalar() {
    check::run(
        "simd-eq: nh dispatched lane == scalar, any pair count",
        64,
        |g| {
            let pairs = g.usize_in(0..129); // 0..=1024 bytes, one NH chunk
            let data = g.bytes(pairs * 8..pairs * 8 + 1);
            let keys: Vec<u32> = (0..pairs * 2).map(|_| g.u64() as u32).collect();
            (data, keys, g.u64())
        },
        check::no_shrink,
        |(data, keys, sum)| {
            assert_eq!(
                nh::nh_pairs(*sum, keys, data),
                nh::nh_pairs_scalar(*sum, keys, data),
                "{} pairs",
                data.len() / 8
            );
        },
    );
    check::run(
        "simd-eq: nh x4 lockstep == 4 independent scalars",
        48,
        |g| {
            let bufs: Vec<Vec<u8>> = (0..4).map(|_| g.bytes(0..1025)).collect();
            let min = bufs.iter().map(|b| b.len()).min().unwrap();
            let len = g.usize_in(0..min / 8 + 1) * 8;
            let keys: Vec<u32> = (0..256).map(|_| g.u64() as u32).collect();
            let sums = [g.u64(), g.u64(), g.u64(), g.u64()];
            (bufs, keys, len, sums)
        },
        check::no_shrink,
        |(bufs, keys, len, sums)| {
            let b = [&bufs[0][..], &bufs[1][..], &bufs[2][..], &bufs[3][..]];
            let got = nh::nh_pairs_x4(*sums, keys, b, *len);
            for (j, lane) in got.iter().enumerate() {
                let want = nh::nh_pairs_scalar(sums[j], &keys[..len / 4], &b[j][..*len]);
                assert_eq!(*lane, want, "lane {j} over {len} bytes");
            }
        },
    );
}

#[test]
fn ghash_multipliers_match() {
    check::run(
        "simd-eq: gf128 clmul/table == shift-and-xor reference",
        128,
        |g| (g.u64(), g.u64(), g.u64(), g.u64()),
        check::no_shrink,
        |&(x0, x1, h0, h1)| {
            let x = (x0 as u128) | ((x1 as u128) << 64);
            let mut h_block = [0u8; 16];
            h_block[..8].copy_from_slice(&h0.to_be_bytes());
            h_block[8..].copy_from_slice(&h1.to_be_bytes());
            let key = gf128::GhashKey::new(&h_block);
            let want = gf128::mul_scalar(x, gf128::from_block(&h_block));
            assert_eq!(key.mul_table(x), want, "Shoup table");
            assert_eq!(key.mul(x), want, "dispatched");
        },
    );
}

#[test]
fn aes_block_batches_match_table_implementation() {
    check::run(
        "simd-eq: aes-ni single/quad/octet == FIPS 197 tables",
        48,
        |g| {
            let key: [u8; 16] = std::array::from_fn(|_| g.u8());
            let blocks: Vec<[u8; 16]> = (0..8).map(|_| std::array::from_fn(|_| g.u8())).collect();
            (key, blocks)
        },
        check::no_shrink,
        |(key, blocks)| {
            let aes = Aes128::new(key);
            let soft: Vec<[u8; 16]> = blocks
                .iter()
                .map(|b| {
                    let mut s = *b;
                    aes.encrypt_block_soft(&mut s);
                    s
                })
                .collect();
            let mut one = blocks[0];
            aes.encrypt_block(&mut one);
            assert_eq!(one, soft[0], "single dispatched block");
            let mut quad: [[u8; 16]; 4] = std::array::from_fn(|i| blocks[i]);
            aes.encrypt_blocks(&mut quad);
            assert_eq!(&quad[..], &soft[..4], "quad batch");
            let mut octet: [[u8; 16]; 8] = std::array::from_fn(|i| blocks[i]);
            aes.encrypt_blocks(&mut octet);
            assert_eq!(&octet[..], &soft[..], "octet batch");
        },
    );
}

#[test]
fn umac_paths_match_scalar_oracle() {
    check::run(
        "simd-eq: umac one-shot/stream/x4 == scalar oracle",
        32,
        |g| {
            let key: [u8; 16] = std::array::from_fn(|_| g.u8());
            let msg = g.bytes(0..MAX_LEN);
            let cuts: Vec<u64> = (0..g.usize_in(0..6)).map(|_| g.u64()).collect();
            (key, msg, cuts, g.u64())
        },
        check::no_shrink,
        |(key, msg, cuts, nonce)| {
            let u = Umac::new(key);
            let want = u.tag32_scalar(*nonce, msg);
            assert_eq!(u.hash64(msg), u.hash64_scalar(msg), "hash64");
            assert_eq!(u.tag32(*nonce, msg), want, "one-shot");
            // Streaming across arbitrary split points.
            let mut splits: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (msg.len() + 1)).collect();
            splits.sort_unstable();
            let mut s = u.stream(*nonce);
            let mut prev = 0;
            for &c in &splits {
                s.update(&msg[prev..c]);
                prev = c;
            }
            s.update(&msg[prev..]);
            assert_eq!(s.finalize(), want, "stream splits {splits:?}");
            // 4-lane lockstep over distinct-length suffixes.
            let q = msg.len() / 4;
            let msgs = [&msg[..], &msg[q..], &msg[q * 2..], &msg[q * 3..]];
            let nonces = [*nonce, nonce ^ 1, nonce ^ 2, nonce ^ 3];
            let got = u.tag32_x4(nonces, msgs);
            for (j, tag) in got.iter().enumerate() {
                assert_eq!(*tag, u.tag32_scalar(nonces[j], msgs[j]), "x4 lane {j}");
            }
        },
    );
}

#[test]
fn mac_stream_matches_one_shot_every_algorithm() {
    check::run(
        "simd-eq: MacStream splits == one-shot, every algorithm",
        16,
        |g| {
            let key: [u8; 16] = std::array::from_fn(|_| g.u8());
            let msg = g.bytes(0..4097);
            let cuts: Vec<u64> = (0..g.usize_in(0..5)).map(|_| g.u64()).collect();
            (key, msg, cuts, g.u64())
        },
        check::no_shrink,
        |(key, msg, cuts, nonce)| {
            for alg in AuthAlgorithm::ALL {
                let mac = AnyMac::new(alg, key);
                let want = mac.tag32(*nonce, msg);
                let mut splits: Vec<usize> =
                    cuts.iter().map(|&c| c as usize % (msg.len() + 1)).collect();
                splits.sort_unstable();
                let mut s = mac.stream(*nonce);
                let mut prev = 0;
                for &c in &splits {
                    s.update(&msg[prev..c]);
                    prev = c;
                }
                s.update(&msg[prev..]);
                assert_eq!(s.finalize(), want, "{} stream {splits:?}", alg.name());
            }
        },
    );
}

#[test]
fn aead_round_trips_and_rejects_tampering() {
    check::run(
        "simd-eq: aead seal/open deterministic round-trip, tamper reject",
        48,
        |g| {
            let key: [u8; 16] = std::array::from_fn(|_| g.u8());
            (key, g.u64(), g.bytes(0..64), g.bytes(0..MAX_LEN), g.u64())
        },
        check::no_shrink,
        |(key, nonce, aad, data, tamper)| {
            let aead = AesGcm32::new(key);
            let mut sealed = data.clone();
            let tag = aead.seal(*nonce, aad, &mut sealed);
            let mut sealed2 = data.clone();
            assert_eq!(
                aead.seal(*nonce, aad, &mut sealed2),
                tag,
                "deterministic tag"
            );
            assert_eq!(sealed, sealed2, "deterministic ciphertext");
            let mut opened = sealed.clone();
            assert!(aead.open(*nonce, aad, &mut opened, tag), "round trip");
            assert_eq!(&opened, data, "decrypts to the plaintext");
            let mut intact = sealed.clone();
            assert!(!aead.open(*nonce, aad, &mut intact, tag ^ 1), "bad tag");
            assert_eq!(intact, sealed, "buffer untouched on failure");
            if !sealed.is_empty() {
                let mut forged = sealed.clone();
                let i = *tamper as usize % forged.len();
                forged[i] ^= 0x40;
                assert!(
                    !aead.open(*nonce, aad, &mut forged, tag),
                    "flipped ciphertext byte {i}"
                );
            }
        },
    );
}
