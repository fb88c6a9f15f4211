//! Property-based tests over the core invariants the scheme rests on:
//! packet round-tripping, CRC implementations agreeing, variant-field
//! masking, MAC tamper-detection, key-envelope round trips, and replay
//! window monotonicity.
//!
//! Driven by `ib_runtime::check`: cases generate from a deterministic
//! seed (override with `CHECK_SEED=<u64>` to replay a failure), and
//! failing cases shrink before being reported.

use ib_crypto::crc::{crc16_bitwise, crc16_iba, crc32_bitwise, crc32_ieee, Crc32};
use ib_crypto::mac::{AnyMac, AuthAlgorithm};
use ib_crypto::toyrsa;
use ib_crypto::umac::Umac;
use ib_mgmt::keymgmt::{KeyEnvelope, SecretKey};
use ib_packet::{Grh, Lid, OpCode, PKey, Packet, PacketBuilder, Psn, QKey, Qpn, VirtualLane};
use ib_runtime::check;
use ib_security::auth::{Authenticator, KeyScope};
use ib_security::replay::ReplayWindow;

const OPCODES: [OpCode; 5] = [
    OpCode::RC_SEND_ONLY,
    OpCode::UD_SEND_ONLY,
    OpCode::RC_RDMA_WRITE_ONLY,
    OpCode::RC_RDMA_READ_REQUEST,
    OpCode::RC_ACKNOWLEDGE,
];

fn build(opcode: OpCode, slid: u16, dlid: u16, pkey: u16, psn: u32, payload: Vec<u8>) -> Packet {
    builder(opcode, slid, dlid, pkey, psn, payload).build()
}

/// A builder carrying every extended header `opcode` calls for.
fn builder(
    opcode: OpCode,
    slid: u16,
    dlid: u16,
    pkey: u16,
    psn: u32,
    payload: Vec<u8>,
) -> PacketBuilder {
    let mut b = PacketBuilder::new(opcode)
        .slid(Lid(slid))
        .dlid(Lid(dlid))
        .pkey(PKey(pkey))
        .psn(Psn::new(psn));
    if opcode.service.has_deth() {
        b = b.qkey(QKey(psn ^ 0xABCD), Qpn::new(slid as u32));
    }
    if opcode.operation.has_reth() {
        b = b.rdma(0x1000, ib_packet::RKey(77), payload.len() as u32);
    }
    if opcode.operation.has_aeth() {
        b = b.ack(0, psn);
    }
    if opcode.operation.has_payload() {
        b = b.payload(payload);
    }
    b
}

/// Any packet the builder can produce round-trips bit-exactly.
#[test]
fn packet_roundtrip() {
    check::run(
        "packet_roundtrip",
        256,
        |g| {
            (
                *g.choose(&OPCODES),
                g.u16_in(1..100),
                g.u16_in(1..100),
                g.u16_in(0x8000..0x9000),
                g.u32_in(0..0x00FF_FFFF),
                g.bytes(0..1024),
            )
        },
        |(opcode, slid, dlid, pkey, psn, payload)| {
            check::shrink_bytes(payload)
                .into_iter()
                .map(|p| (*opcode, *slid, *dlid, *pkey, *psn, p))
                .collect()
        },
        |&(opcode, slid, dlid, pkey, psn, ref payload)| {
            let pkt = build(opcode, slid, dlid, pkey, psn, payload.clone());
            assert!(pkt.icrc_ok());
            assert!(pkt.vcrc_ok());
            let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
            assert_eq!(parsed, pkt);
        },
    );
}

/// Every opcode the parser knows (so every DETH/RETH/AETH combination),
/// with and without a GRH, at every payload length 0–4100: seal → wire →
/// parse is the identity and the VCRC holds on both sides. Lengths up to
/// 130 run on every shape (all four pad classes, and payloads either side
/// of the CRC kernels' 64 B dispatch threshold); beyond that the shapes
/// take turns.
#[test]
fn packet_roundtrip_every_shape_and_length() {
    let shapes: Vec<(OpCode, bool)> = (0..=255u8)
        .filter_map(OpCode::from_byte)
        .flat_map(|op| [(op, false), (op, true)])
        .collect();
    assert_eq!(shapes.len(), 2 * (3 * 14 + 4), "RC/UC/RD x 14 + UD sends");
    let mut wire = Vec::new();
    let mut shell = PacketBuilder::new(OpCode::RC_SEND_ONLY).build();
    let mut roundtrip = |(opcode, grh): (OpCode, bool), len: usize| {
        let payload = (0..len).map(|i| (i * 131 + len) as u8).collect();
        let mut b = builder(opcode, 3, 4, 0x8001, len as u32, payload);
        if grh {
            b = b.grh(Grh::default());
        }
        let pkt = b.build();
        assert!(pkt.vcrc_ok(), "{opcode:?} grh={grh} len={len}");
        pkt.write_into(&mut wire);
        assert_eq!(wire.len(), pkt.wire_len());
        shell.parse_into(&wire).unwrap();
        assert_eq!(shell, pkt, "{opcode:?} grh={grh} len={len}");
        assert!(shell.vcrc_ok());
    };
    for &shape in &shapes {
        for len in 0..=130 {
            roundtrip(shape, len);
        }
    }
    let carrying: Vec<_> = shapes
        .iter()
        .filter(|(op, _)| op.operation.has_payload())
        .collect();
    for len in 131..=4100 {
        roundtrip(*carrying[len % carrying.len()], len);
    }
}

/// The CRC-32 kernels agree with the bitwise reference on arbitrary
/// data, as does the dispatched CRC-16.
#[test]
fn crc_implementations_agree() {
    check::run(
        "crc_implementations_agree",
        256,
        |g| g.bytes(0..2048),
        |data| check::shrink_bytes(data),
        |data| {
            let reference = crc32_bitwise(data);
            assert_eq!(crc32_ieee(data), reference);
            assert_eq!(Crc32::new().update(data).finalize(), reference);
            assert_eq!(crc16_iba(data), crc16_bitwise(data));
        },
    );
}

/// The variant fields (VL, Resv8a) never affect the ICRC; every
/// invariant field does.
#[test]
fn icrc_masking_invariants() {
    check::run(
        "icrc_masking_invariants",
        256,
        |g| {
            let payload = g.bytes(1..256);
            let flip_index = g.index(payload.len());
            (g.u8() % 16, g.u8(), payload, flip_index)
        },
        check::no_shrink,
        |&(vl, selector, ref payload, flip_index)| {
            let mut pkt = build(OpCode::RC_SEND_ONLY, 1, 2, 0x8001, 5, payload.clone());
            let base_icrc = pkt.compute_icrc();
            // Variant rewrites: ICRC unchanged.
            pkt.lrh.vl = VirtualLane(vl);
            pkt.bth.resv8a = selector;
            assert_eq!(pkt.compute_icrc(), base_icrc);
            // Invariant flip: ICRC changes.
            pkt.payload[flip_index] ^= 0x01;
            assert_ne!(pkt.compute_icrc(), base_icrc);
        },
    );
}

/// Every keyed MAC detects every single-bit payload flip (probabilistic
/// in principle, but a 2^-32-chance false pass never fires in practice;
/// a failure here means a real bug).
#[test]
fn macs_detect_bit_flips() {
    check::run(
        "macs_detect_bit_flips",
        256,
        |g| {
            let payload = g.bytes(1..512);
            let flip = g.index(payload.len());
            let alg_idx = g.usize_in(1..AuthAlgorithm::ALL.len());
            (g.u64(), g.u64(), payload, flip, alg_idx)
        },
        check::no_shrink,
        |&(seed, nonce, ref payload, flip, alg_idx)| {
            let alg = AuthAlgorithm::ALL[alg_idx];
            let key = SecretKey::from_seed(seed).0;
            let mac = AnyMac::new(alg, &key);
            let tag = mac.tag32(nonce, payload);
            let mut tampered = payload.clone();
            tampered[flip] ^= 1 << (seed % 8);
            assert!(
                !mac.verify(nonce, &tampered, tag),
                "{alg:?} missed flip at {flip}"
            );
            assert!(mac.verify(nonce, payload, tag));
        },
    );
}

/// UMAC's Carter-Wegman structure: same message, different nonces give
/// different tags (pad freshness), and the hash half is nonce-free.
#[test]
fn umac_nonce_freshness() {
    check::run(
        "umac_nonce_freshness",
        256,
        |g| {
            let n1 = g.u64();
            let mut n2 = g.u64();
            if n2 == n1 {
                n2 = n1.wrapping_add(1);
            }
            (g.u64(), n1, n2, g.bytes(0..256))
        },
        check::no_shrink,
        |&(seed, n1, n2, ref msg)| {
            let u = Umac::new(&SecretKey::from_seed(seed).0);
            assert_eq!(u.hash64(msg), u.hash64(msg));
            // Tag difference equals pad difference: t1 ^ t2 independent of msg.
            let d1 = u.tag32(n1, msg) ^ u.tag32(n2, msg);
            let d2 = u.tag32(n1, b"other") ^ u.tag32(n2, b"other");
            assert_eq!(d1, d2);
        },
    );
}

/// Toy-RSA envelopes round-trip arbitrary secrets for arbitrary key
/// pairs.
#[test]
fn envelope_roundtrip() {
    check::run(
        "envelope_roundtrip",
        128,
        |g| (g.u64_in(1..5000), g.u64()),
        |&(k, s)| {
            check::shrink_pair(k, s)
                .into_iter()
                .filter(|&(k, _)| k >= 1)
                .collect()
        },
        |&(key_seed, secret_seed)| {
            let (pk, sk) = toyrsa::generate_keypair(key_seed);
            let secret = SecretKey::from_seed(secret_seed);
            let env = KeyEnvelope::seal(&secret, &pk);
            assert_eq!(env.open(&sk), Some(secret));
        },
    );
}

/// Replay window: any sequence of offers accepts each value at most
/// once.
#[test]
fn replay_window_never_accepts_twice() {
    check::run(
        "replay_window_never_accepts_twice",
        256,
        |g| {
            let len = g.usize_in(1..100);
            let seqs: Vec<u64> = (0..len).map(|_| g.u64_in(0..200)).collect();
            (seqs, g.u32_in(1..64))
        },
        |(seqs, window)| {
            // Shrink by dropping halves of the offer sequence.
            let n = seqs.len();
            let mut out = Vec::new();
            if n > 1 {
                out.push((seqs[..n / 2].to_vec(), *window));
                out.push((seqs[n / 2..].to_vec(), *window));
                out.push((seqs[..n - 1].to_vec(), *window));
            }
            out
        },
        |(seqs, window)| {
            let mut w = ReplayWindow::new(*window);
            let mut accepted = std::collections::HashSet::new();
            for &s in seqs {
                if w.accept(s) {
                    assert!(accepted.insert(s), "sequence {s} accepted twice");
                }
            }
        },
    );
}

/// End-to-end: an authenticated packet round-trips the wire and
/// verifies.
#[test]
fn tagged_packet_wire_invariants() {
    check::run(
        "tagged_packet_wire_invariants",
        256,
        |g| (g.u32_in(0..0xFFFF), g.bytes(1..512)),
        |(psn, payload)| {
            check::shrink_bytes(payload)
                .into_iter()
                .filter(|p| !p.is_empty())
                .map(|p| (*psn, p))
                .collect()
        },
        |&(psn, ref payload)| {
            let pkey = PKey(0x8001);
            let mut auth = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
            auth.keys
                .install_partition_secret(pkey, SecretKey::from_seed(11));
            let mut pkt = build(OpCode::UD_SEND_ONLY, 1, 2, 0x8001, psn, payload.clone());
            auth.tag_packet(&mut pkt).unwrap();
            let wire = pkt.to_bytes();
            let parsed = Packet::parse(&wire).unwrap();
            assert!(auth.verify_packet(&parsed).is_ok());
        },
    );
}

/// The scratch-buffer serialization forms are byte-identical to the
/// allocating ones for every header combination (GRH present or absent,
/// DETH/RETH/AETH per opcode), and the buffer-free ICRC equals the CRC-32
/// of exactly the materialized ICRC message.
#[test]
fn scratch_serialization_matches_allocating_forms() {
    check::run(
        "scratch_serialization_matches_allocating_forms",
        256,
        |g| {
            (
                *g.choose(&OPCODES),
                g.bool(),
                g.u16_in(1..100),
                g.u16_in(1..100),
                g.u16_in(0x8000..0x9000),
                g.u32_in(0..0x00FF_FFFF),
                g.bytes(0..1024),
            )
        },
        |(opcode, grh, slid, dlid, pkey, psn, payload)| {
            check::shrink_bytes(payload)
                .into_iter()
                .map(|p| (*opcode, *grh, *slid, *dlid, *pkey, *psn, p))
                .collect()
        },
        |&(opcode, grh, slid, dlid, pkey, psn, ref payload)| {
            let mut pkt = build(opcode, slid, dlid, pkey, psn, payload.clone());
            if grh {
                pkt.grh = Some(ib_packet::Grh {
                    sgid: ib_packet::grh::Gid(slid as u128),
                    dgid: ib_packet::grh::Gid(dlid as u128),
                    ..Default::default()
                });
                pkt.seal();
            }
            let mut wire = vec![0xAA; 7]; // stale contents must not leak through
            pkt.write_into(&mut wire);
            assert_eq!(wire, pkt.to_bytes(), "write_into == to_bytes");
            let mut msg = vec![0x55; 3];
            pkt.icrc_message_into(&mut msg);
            assert_eq!(msg, pkt.icrc_message(), "icrc_message_into == icrc_message");
            assert_eq!(
                pkt.compute_icrc(),
                crc32_ieee(&msg),
                "ICRC over the slice walk"
            );
        },
    );
}

/// Management datagrams round-trip through their 256-byte wire form for
/// arbitrary header fields and attribute payloads, and malformed buffers
/// fail with the right error instead of mis-parsing.
#[test]
fn mad_roundtrip_and_malformed_buffers() {
    use ib_packet::mad::{Mad, Method, MgmtClass, MAD_HEADER_LEN, MAD_LEN};
    use ib_packet::ParseError;

    const CLASSES: [MgmtClass; 2] = [MgmtClass::SubnLid, MgmtClass::SubnAdm];
    const METHODS: [Method; 5] = [
        Method::Get,
        Method::Set,
        Method::GetResp,
        Method::Trap,
        Method::TrapRepress,
    ];

    check::run(
        "mad_roundtrip_and_malformed_buffers",
        256,
        |g| {
            (
                g.index(CLASSES.len()),
                g.index(METHODS.len()),
                g.u64(),
                (g.u64(), g.bytes(0..MAD_LEN - MAD_HEADER_LEN)),
            )
        },
        |(class, method, h, (tid, data))| {
            check::shrink_bytes(data)
                .into_iter()
                .map(|d| (*class, *method, *h, (*tid, d)))
                .collect()
        },
        |&(class, method, h, (tid, ref data))| {
            let mut mad = Mad {
                mgmt_class: CLASSES[class],
                method: METHODS[method],
                status: h as u16,
                transaction_id: tid,
                attribute_id: (h >> 16) as u16,
                attribute_modifier: (h >> 32) as u32,
                data: [0; MAD_LEN - MAD_HEADER_LEN],
            };
            mad.data[..data.len()].copy_from_slice(data);

            // Round trip: every field and the attribute payload survive.
            let bytes = mad.to_bytes();
            assert_eq!(bytes.len(), MAD_LEN);
            let back = Mad::parse(&bytes).expect("well-formed MAD parses");
            assert_eq!(back, mad);

            // Truncation at any shorter length reports Truncated with an
            // honest byte count, never a garbled MAD.
            let cut = (tid % MAD_LEN as u64) as usize;
            match Mad::parse(&bytes[..cut]) {
                Err(ParseError::Truncated { needed, got }) => {
                    assert_eq!(needed, MAD_LEN);
                    assert_eq!(got, cut);
                }
                other => panic!("truncated parse must fail, got {other:?}"),
            }

            // Corrupt class / method bytes are rejected as unknown
            // opcodes rather than aliasing onto a valid enum value.
            let bad_class = 0x42u8 ^ (h as u8 & 0x10);
            let mut b = bytes;
            b[1] = bad_class;
            assert_eq!(Mad::parse(&b), Err(ParseError::UnknownOpCode(bad_class)));
            b[1] = bytes[1];
            b[3] = 0x7F;
            assert_eq!(Mad::parse(&b), Err(ParseError::UnknownOpCode(0x7F)));
        },
    );
}
