//! SM-plane wire protocol: the key plane's messages encoded as MADs and
//! carried in UD packets to QP0 on the management virtual lane.
//!
//! Every message is one 256-byte [`Mad`] using the vendor attribute range
//! (`attr::SM_HEARTBEAT` … `attr::SM_KEY_UPDATE`). Key material never
//! travels in the clear: both replica mirroring (`SM_KEY_REPLICATE`) and
//! CA re-keying (`SM_KEY_UPDATE`) carry a [`KeyEnvelope`] — the secret
//! sealed to the recipient's toy-RSA public key — packed into the MAD's
//! 232-byte data area. Senders are identified by the packet's SLID, so
//! acks can be routed without a source field in the payload.

use ib_mgmt::keymgmt::KeyEnvelope;
use ib_mgmt::KeyEpoch;
use ib_packet::mad::{attr, Mad, Method};
use ib_packet::types::{Lid, PKey, Psn, QKey, Qpn, VirtualLane};
use ib_packet::{OpCode, Packet, PacketBuilder, WireView};

/// QP0: the management QP every port owns (IBA §3.5.3). All SM-plane
/// MADs are addressed to it, which is also how the rekey harness
/// demultiplexes management traffic from data flows.
pub(crate) const SM_QPN: Qpn = Qpn(0);

/// VL 15, the management lane: [`ib_sim`]'s VL arbitration scans lanes
/// highest-first, so SM-plane traffic preempts data even under load.
pub(crate) const MGMT_VL: u8 = 15;

/// Well-known Q_Key for the management plane (the GSI Q_Key idea).
pub(crate) const MGMT_QKEY: QKey = QKey(0x8001_0000);

/// Envelope blocks that fit the data area after the largest fixed
/// header (15 bytes): `15 + 27 × 8 = 231 ≤ 232`.
const MAX_ENVELOPE_BLOCKS: usize = 27;

/// One SM-plane message, the typed view of a vendor-attribute MAD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmMessage {
    /// Leader liveness beacon, sent every heartbeat interval.
    Heartbeat { term: u64, leader: u8 },
    /// A replica claims leadership of `term` after an election timeout.
    LeaderClaim { term: u64, claimant: u8 },
    /// Leader → follower replica: mirror key version `(pkey, epoch)`,
    /// sealed to the follower's public key.
    ReplicateKey {
        term: u64,
        pkey: PKey,
        epoch: KeyEpoch,
        envelope: KeyEnvelope,
    },
    /// Follower → leader: version `(pkey, epoch)` is mirrored.
    ReplicateAck {
        term: u64,
        pkey: PKey,
        epoch: KeyEpoch,
        replica: u8,
    },
    /// Leader → member CA: install key version `(pkey, epoch)`, sealed
    /// to the CA's public key.
    KeyUpdate {
        term: u64,
        pkey: PKey,
        epoch: KeyEpoch,
        envelope: KeyEnvelope,
    },
    /// Member CA → leader: version `(pkey, epoch)` is installed on
    /// node `node`.
    KeyUpdateAck {
        pkey: PKey,
        epoch: KeyEpoch,
        node: u16,
    },
}

fn put_u64(data: &mut [u8], off: usize, v: u64) {
    data[off..off + 8].copy_from_slice(&v.to_be_bytes());
}

fn get_u64(data: &[u8], off: usize) -> u64 {
    u64::from_be_bytes(data[off..off + 8].try_into().unwrap())
}

fn put_envelope(data: &mut [u8], off: usize, env: &KeyEnvelope) {
    assert!(
        env.ciphertext.len() <= MAX_ENVELOPE_BLOCKS,
        "envelope exceeds MAD data area"
    );
    data[off] = env.ciphertext.len() as u8;
    for (i, block) in env.ciphertext.iter().enumerate() {
        put_u64(data, off + 1 + 8 * i, *block);
    }
}

fn get_envelope(data: &[u8], off: usize) -> Option<KeyEnvelope> {
    let n = data[off] as usize;
    if n > MAX_ENVELOPE_BLOCKS {
        return None;
    }
    let blocks = (0..n).map(|i| get_u64(data, off + 1 + 8 * i)).collect();
    Some(KeyEnvelope { ciphertext: blocks })
}

impl SmMessage {
    /// Encode as a MAD carrying `transaction_id`.
    pub fn encode(&self, transaction_id: u64) -> Mad {
        let mut mad = Mad {
            transaction_id,
            ..Mad::default()
        };
        let d = &mut mad.data;
        match self {
            SmMessage::Heartbeat { term, leader } => {
                mad.method = Method::Get;
                mad.attribute_id = attr::SM_HEARTBEAT;
                put_u64(d, 0, *term);
                d[8] = *leader;
            }
            SmMessage::LeaderClaim { term, claimant } => {
                mad.method = Method::Set;
                mad.attribute_id = attr::SM_LEADER_CLAIM;
                put_u64(d, 0, *term);
                d[8] = *claimant;
            }
            SmMessage::ReplicateKey {
                term,
                pkey,
                epoch,
                envelope,
            } => {
                mad.method = Method::Set;
                mad.attribute_id = attr::SM_KEY_REPLICATE;
                put_u64(d, 0, *term);
                d[8..10].copy_from_slice(&pkey.0.to_be_bytes());
                d[10..14].copy_from_slice(&epoch.0.to_be_bytes());
                put_envelope(d, 14, envelope);
            }
            SmMessage::ReplicateAck {
                term,
                pkey,
                epoch,
                replica,
            } => {
                mad.method = Method::GetResp;
                mad.attribute_id = attr::SM_KEY_REPLICATE;
                put_u64(d, 0, *term);
                d[8..10].copy_from_slice(&pkey.0.to_be_bytes());
                d[10..14].copy_from_slice(&epoch.0.to_be_bytes());
                d[14] = *replica;
            }
            SmMessage::KeyUpdate {
                term,
                pkey,
                epoch,
                envelope,
            } => {
                mad.method = Method::Set;
                mad.attribute_id = attr::SM_KEY_UPDATE;
                put_u64(d, 0, *term);
                d[8..10].copy_from_slice(&pkey.0.to_be_bytes());
                d[10..14].copy_from_slice(&epoch.0.to_be_bytes());
                put_envelope(d, 14, envelope);
            }
            SmMessage::KeyUpdateAck { pkey, epoch, node } => {
                mad.method = Method::GetResp;
                mad.attribute_id = attr::SM_KEY_UPDATE;
                d[0..2].copy_from_slice(&pkey.0.to_be_bytes());
                d[2..6].copy_from_slice(&epoch.0.to_be_bytes());
                d[6..8].copy_from_slice(&node.to_be_bytes());
            }
        }
        mad
    }

    /// Decode from a MAD; `None` if it isn't an SM-plane message.
    pub(crate) fn decode(mad: &Mad) -> Option<SmMessage> {
        let d = &mad.data;
        let pkey = PKey(u16::from_be_bytes([d[8], d[9]]));
        let epoch = KeyEpoch(u32::from_be_bytes(d[10..14].try_into().unwrap()));
        match (mad.attribute_id, mad.method) {
            (attr::SM_HEARTBEAT, Method::Get) => Some(SmMessage::Heartbeat {
                term: get_u64(d, 0),
                leader: d[8],
            }),
            (attr::SM_LEADER_CLAIM, Method::Set) => Some(SmMessage::LeaderClaim {
                term: get_u64(d, 0),
                claimant: d[8],
            }),
            (attr::SM_KEY_REPLICATE, Method::Set) => Some(SmMessage::ReplicateKey {
                term: get_u64(d, 0),
                pkey,
                epoch,
                envelope: get_envelope(d, 14)?,
            }),
            (attr::SM_KEY_REPLICATE, Method::GetResp) => Some(SmMessage::ReplicateAck {
                term: get_u64(d, 0),
                pkey,
                epoch,
                replica: d[14],
            }),
            (attr::SM_KEY_UPDATE, Method::Set) => Some(SmMessage::KeyUpdate {
                term: get_u64(d, 0),
                pkey,
                epoch,
                envelope: get_envelope(d, 14)?,
            }),
            (attr::SM_KEY_UPDATE, Method::GetResp) => Some(SmMessage::KeyUpdateAck {
                pkey: PKey(u16::from_be_bytes([d[0], d[1]])),
                epoch: KeyEpoch(u32::from_be_bytes(d[2..6].try_into().unwrap())),
                node: u16::from_be_bytes([d[6], d[7]]),
            }),
            _ => None,
        }
    }
}

/// Wrap a MAD in its wire packet: UD SEND to QP0 on VL 15.
pub fn mad_packet(src: Lid, dst: Lid, mad: &Mad) -> Packet {
    PacketBuilder::new(OpCode::UD_SEND_ONLY)
        .slid(src)
        .dlid(dst)
        .vl(VirtualLane(MGMT_VL))
        .dest_qp(SM_QPN)
        .qkey(MGMT_QKEY, SM_QPN)
        .psn(Psn(0))
        .payload(mad.to_bytes().to_vec())
        .build()
}

/// Recognize an SM-plane delivery: a packet addressed to QP0 whose
/// payload parses as a MAD. Returns the sender's node index (SLID − 1)
/// and the MAD.
pub(crate) fn mad_of(p: &WireView) -> Option<(usize, Mad)> {
    if p.bth.dest_qp != SM_QPN {
        return None;
    }
    let mad = Mad::parse(p.payload).ok()?;
    Some(((p.lrh.slid.0 as usize).checked_sub(1)?, mad))
}

/// `mad_of` on wire bytes.
pub fn parse_mad_packet(bytes: &[u8]) -> Option<(usize, Mad)> {
    mad_of(&Packet::parse_view(bytes).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_crypto::toyrsa::generate_keypair;
    use ib_mgmt::keymgmt::SecretKey;

    fn sample_envelope() -> KeyEnvelope {
        let (pk, _) = generate_keypair(7);
        KeyEnvelope::seal(&SecretKey::from_seed(99), &pk)
    }

    #[test]
    fn all_messages_round_trip_through_mads() {
        let msgs = [
            SmMessage::Heartbeat { term: 3, leader: 1 },
            SmMessage::LeaderClaim {
                term: 4,
                claimant: 2,
            },
            SmMessage::ReplicateKey {
                term: 4,
                pkey: PKey(0x8001),
                epoch: KeyEpoch(9),
                envelope: sample_envelope(),
            },
            SmMessage::ReplicateAck {
                term: 4,
                pkey: PKey(0x8001),
                epoch: KeyEpoch(9),
                replica: 2,
            },
            SmMessage::KeyUpdate {
                term: 4,
                pkey: PKey(0x7FFF),
                epoch: KeyEpoch(130),
                envelope: sample_envelope(),
            },
            SmMessage::KeyUpdateAck {
                pkey: PKey(0x7FFF),
                epoch: KeyEpoch(130),
                node: 11,
            },
        ];
        for (i, msg) in msgs.iter().enumerate() {
            let mad = msg.encode(i as u64);
            assert_eq!(mad.transaction_id, i as u64);
            let wire = Mad::parse(&mad.to_bytes()).unwrap();
            assert_eq!(SmMessage::decode(&wire).as_ref(), Some(msg), "{msg:?}");
        }
    }

    #[test]
    fn envelope_survives_the_full_wire_path_and_opens() {
        let (pk, sk) = generate_keypair(42);
        let secret = SecretKey::from_seed(0xFEED);
        let msg = SmMessage::KeyUpdate {
            term: 1,
            pkey: PKey(0x8001),
            epoch: KeyEpoch(1),
            envelope: KeyEnvelope::seal(&secret, &pk),
        };
        let pkt = mad_packet(Lid(3), Lid(5), &msg.encode(77));
        assert_eq!(pkt.bth.dest_qp, SM_QPN);
        assert_eq!(pkt.lrh.vl, VirtualLane(MGMT_VL));
        let (src, mad) = parse_mad_packet(&pkt.to_bytes()).unwrap();
        assert_eq!(src, 2, "SLID 3 is node 2");
        match SmMessage::decode(&mad).unwrap() {
            SmMessage::KeyUpdate { envelope, .. } => {
                assert_eq!(envelope.open(&sk), Some(secret));
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn data_packets_are_not_mistaken_for_mads() {
        let data = PacketBuilder::new(OpCode::UD_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .dest_qp(Qpn(8))
            .payload(vec![0u8; 256])
            .build();
        assert!(parse_mad_packet(&data.to_bytes()).is_none());
    }
}
