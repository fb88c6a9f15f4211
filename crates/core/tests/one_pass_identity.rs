//! The one-pass datapath against a reference assembled the long way.
//!
//! For every packet shape the RC endpoint emits (SEND First / Middle /
//! Last / Only, WRITE First / Only with a RETH, READ request, READ
//! responses with and without an AETH, ACK / NAK / RNR), with and without
//! a GRH, payloads 0–4100 B in rotation, key epochs 0 / 1 / 127 and all
//! three [`ChannelSecurity`] arms:
//!
//! * the bytes [`SecureChannel::seal_into`] and [`SecureChannel::seal`]
//!   produce equal a reference built from independent pieces — the
//!   allocating slice-walk image [`Packet::icrc_message`],
//!   [`AnyMac::tag32`] (the byte-table CRC-32 for the plain arm),
//!   [`Packet::write_into`] and [`crc16_iba`];
//! * admission ([`SecureChannel::admit_view`] on a view of the image, and
//!   the `&Packet` entry point [`SecureChannel::admit`]) returns the
//!   reference receiver's verdict and keeps the same [`ChannelStats`] on
//!   clean images, VCRC-repaired tampering of the payload, RETH and P_Key,
//!   and stale and future key epochs;
//! * every single-bit flip of an image is rejected at parse, before any
//!   admission (all bits of images up to [`EVERY_BIT_UP_TO`] bytes; above
//!   that all header and trailer bits and every [`PAYLOAD_BIT_STRIDE`]th
//!   payload bit, so the debug-build suite stays fast).

use ib_crypto::crc::{crc16_iba, crc32_ieee};
use ib_crypto::mac::{AnyMac, AuthAlgorithm};
use ib_mgmt::keymgmt::{KeyEpoch, SecretKey};
use ib_packet::{
    Aeth, Grh, Lid, NakCode, OpCode, Operation, PKey, Packet, PacketBuilder, Psn, Qpn, RKey,
    TransportService, VirtualLane,
};
use ib_security::channel::ChannelStats;
use ib_security::{
    Admit, AuthError, Authenticator, ChannelError, ChannelSecurity, KeyScope, ReplayVerdict,
    ReplayWindow, SecureChannel,
};

const PKEY: PKey = PKey(0x8001);
const WINDOW: u32 = 64;
const EVERY_BIT_UP_TO: usize = 640;
const PAYLOAD_BIT_STRIDE: usize = 61;
/// Offset of the BTH (and of its P_Key) in an image without / with a GRH.
const BTH_AT: [usize; 2] = [8, 48];

fn secret(epoch: u32) -> SecretKey {
    SecretKey::from_seed(0xE90C_0000 + u64::from(epoch))
}

/// Every shape the endpoint's two templates take: data segments with
/// the headers their operation carries (read responses get the
/// decorative `Aeth::ack(0)`), and the three reply kinds.
fn shapes() -> Vec<(Operation, Option<Aeth>)> {
    use Operation::*;
    let mut v: Vec<_> = [
        SendFirst,
        SendMiddle,
        SendLast,
        SendOnly,
        RdmaWriteFirst,
        RdmaWriteOnly,
        RdmaReadRequest,
        RdmaReadResponseFirst,
        RdmaReadResponseMiddle,
        RdmaReadResponseLast,
        RdmaReadResponseOnly,
    ]
    .into_iter()
    .map(|op| (op, op.has_aeth().then(|| Aeth::ack(0))))
    .collect();
    v.extend(
        [
            Aeth::ack(5),
            Aeth::nak(NakCode::PsnSequenceError, 5),
            Aeth::rnr(0, 5),
        ]
        .map(|a| (Acknowledge, Some(a))),
    );
    v
}

/// An unsealed-for-auth packet of one shape (plain CRCs from the
/// builder), with non-zero variant fields so the mask matters.
fn build(op: Operation, aeth: Option<Aeth>, grh: bool, psn: u32, len: usize) -> Packet {
    let opcode = OpCode {
        service: TransportService::ReliableConnection,
        operation: op,
    };
    let mut b = PacketBuilder::new(opcode)
        .slid(Lid(3))
        .dlid(Lid(4))
        .vl(VirtualLane(5))
        .pkey(PKEY)
        .dest_qp(Qpn(7))
        .psn(Psn(psn));
    if grh {
        b = b.grh(Grh {
            traffic_class: 0xA5,
            flow_label: 0x5_4321,
            hop_limit: 9,
            ..Grh::default()
        });
    }
    if op.has_reth() {
        b = b.rdma(0x1000 + u64::from(psn), RKey(0x5EC0_0001), len as u32);
    }
    if op.has_payload() {
        b = b.payload((0..len).map(|i| (i * 31 + len) as u8).collect());
    }
    let mut p = b.build();
    if aeth.is_some() {
        p.aeth = aeth;
    }
    p
}

/// The sender's view of a security arm at key epoch `e`.
fn sender(security: ChannelSecurity, e: u32) -> SecureChannel {
    let mut tx = SecureChannel::new(security, PKEY, secret(0), WINDOW);
    if e > 0 {
        tx.install_epoch(0, KeyEpoch(e), secret(e));
    }
    tx
}

/// The reference seal: header fields the sender stamps, then the tag
/// over the allocating ICRC image, the wire bytes, the VCRC over them.
fn reference_seal(security: ChannelSecurity, e: u32, mut p: Packet) -> Vec<u8> {
    let image;
    p.icrc = match security {
        ChannelSecurity::NoAuth => {
            image = p.icrc_message();
            crc32_ieee(&image)
        }
        ChannelSecurity::Auth | ChannelSecurity::AuthReplay => {
            p.bth.key_epoch = KeyEpoch(e).wire_id();
            p.bth.resv8a = AuthAlgorithm::Umac32.selector();
            image = p.icrc_message();
            AnyMac::new(AuthAlgorithm::Umac32, &secret(e).0).tag32(Authenticator::nonce(&p), &image)
        }
    };
    let mut wire = Vec::new();
    p.write_into(&mut wire);
    let n = wire.len();
    let vcrc = crc16_iba(&wire[..n - 2]);
    wire[n - 2..].copy_from_slice(&vcrc.to_be_bytes());
    wire
}

/// What a receiver holding exactly the key versions `live` (ascending)
/// must decide, computed the long way: an owned parse, the allocating
/// ICRC image, an explicit search of the live versions, the window.
struct Reference {
    security: ChannelSecurity,
    live: Vec<(KeyEpoch, SecretKey)>,
    window: Option<ReplayWindow>,
    stats: ChannelStats,
}

impl Reference {
    fn new(security: ChannelSecurity, live: &[u32]) -> Reference {
        Reference {
            security,
            live: live.iter().map(|&e| (KeyEpoch(e), secret(e))).collect(),
            window: (security == ChannelSecurity::AuthReplay).then(|| ReplayWindow::new(WINDOW)),
            stats: ChannelStats::default(),
        }
    }

    fn integrity(&self, p: &Packet) -> Result<(), AuthError> {
        let image = p.icrc_message();
        let plain = || {
            if crc32_ieee(&image) == p.icrc {
                Ok(())
            } else {
                Err(AuthError::BadIcrc)
            }
        };
        match (self.security, p.bth.resv8a) {
            (_, 0) => plain(),
            (ChannelSecurity::NoAuth, _) => Ok(()),
            (_, 1) if p.bth.pkey != PKEY => Err(AuthError::NoKey),
            (_, 1) => {
                let wire = p.bth.key_epoch;
                let Some(&(_, s)) = self.live.iter().rev().find(|(e, _)| e.wire_id() == wire)
                else {
                    let current = self.live.last().unwrap().0;
                    return Err(match KeyEpoch::resolve_wire(wire, current) {
                        Some(e) if e > current => AuthError::FutureEpoch(wire),
                        _ => AuthError::StaleEpoch(wire),
                    });
                };
                let tag =
                    AnyMac::new(AuthAlgorithm::Umac32, &s.0).tag32(Authenticator::nonce(p), &image);
                if tag == p.icrc {
                    Ok(())
                } else {
                    Err(AuthError::BadTag)
                }
            }
            (_, other) => Err(AuthError::UnknownSelector(other)),
        }
    }

    /// `None`: the image does not parse, so nothing is admitted.
    fn admit(&mut self, wire: &[u8]) -> Option<Result<Admit, ChannelError>> {
        let p = Packet::parse(wire).ok()?;
        let integrity = self.integrity(&p);
        let s = &mut self.stats;
        Some(match integrity {
            Err(e) => {
                match e {
                    AuthError::StaleEpoch(_) => s.rejected_stale_epoch += 1,
                    AuthError::FutureEpoch(_) => s.rejected_future_epoch += 1,
                    _ => s.rejected_auth += 1,
                }
                Err(ChannelError::Auth(e))
            }
            Ok(()) => match self.window.as_mut().map(|w| w.offer_psn(p.bth.psn.0)) {
                None | Some(ReplayVerdict::Fresh) => {
                    s.fresh += 1;
                    Ok(Admit::Fresh)
                }
                Some(ReplayVerdict::Duplicate) => {
                    s.duplicates += 1;
                    Ok(Admit::Duplicate)
                }
                Some(ReplayVerdict::Stale) => {
                    s.rejected_stale += 1;
                    Err(ChannelError::StalePsn)
                }
            },
        })
    }
}

/// A channel holding exactly the key versions `live` (ascending; one
/// version, or a version and its successor inside the grace window),
/// beside its reference twin.
fn receiver(security: ChannelSecurity, live: &[u32]) -> (SecureChannel, Reference) {
    let mut rx = SecureChannel::new(security, PKEY, secret(0), WINDOW);
    rx.set_epoch_grace(100);
    if live[0] > 0 {
        rx.install_epoch(0, KeyEpoch(live[0]), secret(live[0]));
        rx.advance_time(100);
    }
    for &e in &live[1..] {
        rx.install_epoch(200, KeyEpoch(e), secret(e));
    }
    (rx, Reference::new(security, live))
}

/// Admit `wire` through the view path of one channel and the `&Packet`
/// path of another, and check both against the reference.
fn admit_all_three(
    views: &mut SecureChannel,
    packets: &mut SecureChannel,
    reference: &mut Reference,
    wire: &[u8],
    what: &str,
) -> Result<Admit, ChannelError> {
    let expected = reference.admit(wire).expect("admission cases parse");
    let view = Packet::parse_view(wire).unwrap();
    assert_eq!(views.admit_view(&view), expected, "{what}: view verdict");
    let packet = Packet::parse(wire).unwrap();
    assert_eq!(packets.admit(&packet), expected, "{what}: &Packet verdict");
    assert_eq!(views.stats, reference.stats, "{what}: view stats");
    assert_eq!(packets.stats, reference.stats, "{what}: &Packet stats");
    expected
}

/// Flip a wire byte and repair the VCRC, like an in-path attacker.
fn tamper(wire: &[u8], at: usize, mask: u8) -> Vec<u8> {
    let mut w = wire.to_vec();
    w[at] ^= mask;
    let n = w.len();
    let vcrc = crc16_iba(&w[..n - 2]);
    w[n - 2..].copy_from_slice(&vcrc.to_be_bytes());
    w
}

fn every_single_bit_flip_fails_to_parse(wire: &[u8], payload_at: usize, what: &str) {
    let payload_end = wire.len() - 6;
    for bit in 0..wire.len() * 8 {
        let byte = bit / 8;
        let in_payload = (payload_at..payload_end).contains(&byte);
        if wire.len() > EVERY_BIT_UP_TO && in_payload && bit % PAYLOAD_BIT_STRIDE != 0 {
            continue;
        }
        let mut w = wire.to_vec();
        w[byte] ^= 1 << (bit % 8);
        assert!(
            Packet::parse_view(&w).is_err() && Packet::parse(&w).is_err(),
            "{what}: bit {bit} flipped, still parsed"
        );
    }
}

#[test]
fn one_pass_seal_and_admission_match_the_reference() {
    let mut case = 0usize;
    for (op, aeth) in shapes() {
        for grh in [false, true] {
            for security in ChannelSecurity::ALL {
                let epochs: &[u32] = match security {
                    ChannelSecurity::NoAuth => &[0],
                    _ => &[0, 1, 127],
                };
                for &e in epochs {
                    case += 1;
                    let len = if op.has_payload() {
                        (case * 1031) % 4101
                    } else {
                        0
                    };
                    let psn = (case * 7919) as u32 & 0x00FF_FFFF;
                    let what = format!("{op:?} grh={grh} {security:?} epoch {e} len {len}");
                    let p = build(op, aeth, grh, psn, len);
                    let expected = reference_seal(security, e, p.clone());

                    // --- one seal body, two entry points ------------------
                    let tx = sender(security, e);
                    let mut sealed = p.clone();
                    let mut wire = vec![0xEE; 3]; // stale bytes must not leak
                    tx.seal_into(&mut sealed, &mut wire).unwrap();
                    assert_eq!(wire, expected, "{what}: seal_into bytes");
                    assert_eq!(sealed, Packet::parse(&expected).unwrap(), "{what}");
                    let mut via_seal = p.clone();
                    tx.seal(&mut via_seal).unwrap();
                    assert_eq!(via_seal.to_bytes(), expected, "{what}: seal bytes");

                    // --- every single-bit flip dies at parse --------------
                    let payload_at = BTH_AT[grh as usize]
                        + 12
                        + if op.has_reth() { 16 } else { 0 }
                        + if aeth.is_some() { 4 } else { 0 };
                    if e == 0 {
                        every_single_bit_flip_fails_to_parse(&wire, payload_at, &what);
                    }

                    // --- admission: clean, replayed, tampered -------------
                    let mut configs: Vec<Vec<u32>> = vec![vec![e]];
                    if security != ChannelSecurity::NoAuth {
                        configs.extend([vec![e, e + 1], vec![e + 1]]);
                        if e > 0 {
                            configs.push(vec![e - 1]);
                        }
                    }
                    for live in configs {
                        let what = format!("{what}, receiver holds {live:?}");
                        let (mut rx_view, mut reference) = receiver(security, &live);
                        let (mut rx_pkt, _) = receiver(security, &live);
                        let mut admit = |w: &[u8], label: &str| {
                            admit_all_three(
                                &mut rx_view,
                                &mut rx_pkt,
                                &mut reference,
                                w,
                                &format!("{what} {label}"),
                            )
                        };
                        let verdict = admit(&wire, "clean");
                        let clean = live.contains(&e) || security == ChannelSecurity::NoAuth;
                        if !clean {
                            let want = if live[0] > e {
                                AuthError::StaleEpoch(KeyEpoch(e).wire_id())
                            } else {
                                AuthError::FutureEpoch(KeyEpoch(e).wire_id())
                            };
                            assert_eq!(verdict, Err(ChannelError::Auth(want)), "{what}");
                            continue;
                        }
                        assert_eq!(verdict, Ok(Admit::Fresh), "{what}");
                        let again = admit(&wire, "replayed");
                        let want = match security {
                            ChannelSecurity::AuthReplay => Admit::Duplicate,
                            _ => Admit::Fresh,
                        };
                        assert_eq!(again, Ok(want), "{what}");

                        let bth = BTH_AT[grh as usize];
                        let mut tampers = vec![(bth + 3, 0x01, "P_Key")];
                        if op.has_reth() {
                            tampers.push((bth + 12 + 9, 0x80, "R_Key"));
                        }
                        if len > 0 {
                            tampers.push((payload_at + len / 2, 0x40, "payload"));
                        }
                        for (at, mask, field) in tampers {
                            let v = admit(&tamper(&wire, at, mask), field);
                            let want = match (security, field) {
                                (ChannelSecurity::NoAuth, _) => AuthError::BadIcrc,
                                // The forged partition is not this channel's.
                                (_, "P_Key") => AuthError::NoKey,
                                _ => AuthError::BadTag,
                            };
                            assert_eq!(v, Err(ChannelError::Auth(want)), "{what} {field}");
                        }
                    }
                }
            }
        }
    }
    assert_eq!(case, shapes().len() * 2 * 7);
}

/// The P_Key row with a receiver that *does* hold the forged partition,
/// under the same secret (the worst case for detection): the lookup
/// succeeds, and the MAC — which covered the original P_Key — fails.
#[test]
fn vcrc_repaired_pkey_swap_is_a_bad_tag_when_both_partitions_are_keyed() {
    let mut auth = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
    auth.keys.install_partition_secret(PKEY, secret(0));
    auth.keys.install_partition_secret(PKey(0x8000), secret(0));
    let mut image = Vec::new();
    for (op, aeth) in shapes() {
        for grh in [false, true] {
            let mut p = build(op, aeth, grh, 99, 100);
            let mut wire = Vec::new();
            auth.seal_into(&mut p, &mut wire, &mut image).unwrap();
            let view = Packet::parse_view(&wire).unwrap();
            assert_eq!(auth.verify_view(&view, &mut image), Ok(()));
            let forged = tamper(&wire, BTH_AT[grh as usize] + 3, 0x01);
            let view = Packet::parse_view(&forged).unwrap();
            assert_eq!(view.bth.pkey, PKey(0x8000));
            assert_eq!(
                auth.verify_view(&view, &mut image),
                Err(AuthError::BadTag),
                "{op:?} grh={grh}"
            );
        }
    }
}

/// The mask, judged by its effect rather than by a second copy of it:
/// on an authenticated image, a single-bit change (VCRC repaired) to
/// LRH.VL or to the GRH's traffic class, flow label or hop limit — what
/// switches and routers rewrite — still admits; a change to any other
/// header bit or to the tag is refused, at parse or at admission.
#[test]
fn exactly_the_variant_fields_are_free() {
    let variant = |grh: bool, byte: usize, bit: usize| match byte {
        0 => bit >= 4,
        8 if grh => bit < 4,
        9..=11 | 15 if grh => true,
        _ => false,
    };
    for (op, aeth) in shapes() {
        for grh in [false, true] {
            let tx = sender(ChannelSecurity::Auth, 0);
            let mut p = build(op, aeth, grh, 42, 24);
            let mut wire = Vec::new();
            tx.seal_into(&mut p, &mut wire).unwrap();
            let (mut rx, _) = receiver(ChannelSecurity::Auth, &[0]);
            let header_end = wire.len() - 6 - if op.has_payload() { 24 } else { 0 };
            let icrc = wire.len() - 6..wire.len() - 2;
            for byte in (0..header_end).chain(icrc) {
                for bit in 0..8 {
                    let forged = tamper(&wire, byte, 1 << bit);
                    let admitted =
                        Packet::parse_view(&forged).is_ok_and(|view| rx.verify_only(&view).is_ok());
                    assert_eq!(
                        admitted,
                        variant(grh, byte, bit),
                        "{op:?} grh={grh}: byte {byte} bit {bit}"
                    );
                }
            }
        }
    }
}
