//! Whole-packet composition, serialization, parsing, and CRC handling.
//!
//! The central security-relevant artifact is [`Packet::icrc_message`]: the
//! byte stream the ICRC covers — all *invariant* fields, with the variant
//! fields (LRH.VL; GRH traffic class, flow label, hop limit; BTH.Resv8a)
//! masked to ones per IBA spec §7.8.1. Under the paper's scheme this same
//! stream is what the MAC authenticates, so:
//!
//! * switches can still rewrite VL / hop limit without invalidating the tag,
//! * the BTH.Resv8a selector byte is writable without re-tagging, and
//! * every key the attacker might have captured (P_Key in BTH, Q_Key in
//!   DETH, R_Key in RETH) *is* covered, closing the Table 3 forgery paths.

use crate::bth::{Bth, BTH_LEN, BTH_RESV8A_OFFSET};
use crate::error::ParseError;
use crate::eth::{Aeth, Deth, Reth, AETH_LEN, DETH_LEN, RETH_LEN};
use crate::grh::{Grh, GRH_LEN};
use crate::lrh::{Lnh, Lrh, LRH_LEN};
use crate::opcode::OpCode;
use crate::types::{Lid, PKey, Psn, QKey, Qpn, RKey, VirtualLane};
use ib_crypto::crc::{crc16_iba, Crc16, Crc32};

/// ICRC field size on the wire.
pub const ICRC_LEN: usize = 4;
/// VCRC field size on the wire.
pub const VCRC_LEN: usize = 2;

/// A fully-described IBA data packet.
///
/// Invariant once [`Packet::seal`] has run: `lrh.pkt_len`, `bth.pad_count`,
/// `icrc` and `vcrc` are consistent with the contents. The `icrc` field
/// holds either a real CRC-32 (when `bth.resv8a == 0`) or an authentication
/// tag (non-zero selector) — the wire layout is identical, which is the
/// paper's compatibility argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    pub lrh: Lrh,
    pub grh: Option<Grh>,
    pub bth: Bth,
    pub deth: Option<Deth>,
    pub reth: Option<Reth>,
    pub aeth: Option<Aeth>,
    pub payload: Vec<u8>,
    /// ICRC or authentication tag (see struct docs).
    pub icrc: u32,
    /// Link-level variant CRC.
    pub vcrc: u16,
}

/// Upper bound on the header bytes of any packet shape (every optional
/// header present at once) — sizes the stack image in
/// [`Packet::header_image`].
const MAX_HEADER_LEN: usize = LRH_LEN + GRH_LEN + BTH_LEN + DETH_LEN + RETH_LEN + AETH_LEN;

impl Packet {
    /// Total on-wire size in bytes (LRH through VCRC).
    pub fn wire_len(&self) -> usize {
        self.header_len() + self.padded_payload_len() + ICRC_LEN + VCRC_LEN
    }

    fn header_len(&self) -> usize {
        LRH_LEN
            + self.grh.map_or(0, |_| GRH_LEN)
            + BTH_LEN
            + self.deth.map_or(0, |_| DETH_LEN)
            + self.reth.map_or(0, |_| RETH_LEN)
            + self.aeth.map_or(0, |_| AETH_LEN)
    }

    fn padded_payload_len(&self) -> usize {
        self.payload.len() + self.bth.pad_count as usize
    }

    /// Recompute the length-derived fields only: pad count and LRH packet
    /// length (in 4-byte words, through the ICRC). The send hot path runs
    /// this after swapping the payload of a reused packet template, then
    /// lets the security layer fill `icrc`/`vcrc`.
    pub fn seal_lengths(&mut self) {
        self.bth.pad_count = ((4 - (self.payload.len() % 4)) % 4) as u8;
        let words = (self.header_len() + self.padded_payload_len() + ICRC_LEN) / 4;
        self.lrh.pkt_len = words as u16;
    }

    /// Recompute the derived fields so the packet is internally consistent:
    /// pad count, LRH packet length (in 4-byte words, through the ICRC),
    /// then ICRC (plain CRC-32 mode) and VCRC. Callers installing an
    /// authentication tag run `seal()` first, then overwrite `icrc` via
    /// [`Packet::set_auth_tag`] and refresh the VCRC.
    pub fn seal(&mut self) {
        self.seal_lengths();
        self.icrc = self.compute_icrc();
        self.vcrc = self.compute_vcrc();
    }

    /// The one header serializer: every header present, back to back,
    /// into the caller's stack image; returns the length used (an
    /// out-parameter because returning the 88-byte array by value cost a
    /// copy per call). `masked` sets the variant fields to
    /// ones (LRH.VL; GRH traffic class, flow label, hop limit; BTH.Resv8a
    /// — IBA spec §7.8.1), giving the bytes the ICRC/MAC covers; unmasked
    /// is the wire image the VCRC covers.
    #[inline(always)]
    fn header_image(&self, masked: bool, hdr: &mut [u8; MAX_HEADER_LEN]) -> usize {
        let mut n = 0;
        let mut put = |b: &[u8]| {
            hdr[n..n + b.len()].copy_from_slice(b);
            n += b.len();
        };
        put(&self.lrh.to_bytes());
        if let Some(grh) = &self.grh {
            put(&grh.to_bytes());
        }
        put(&self.bth.to_bytes());
        if let Some(deth) = &self.deth {
            put(&deth.to_bytes());
        }
        if let Some(reth) = &self.reth {
            put(&reth.to_bytes());
        }
        if let Some(aeth) = &self.aeth {
            put(&aeth.to_bytes());
        }
        if masked {
            mask_variant_fields(hdr, self.grh.is_some());
        }
        n
    }

    /// Visit LRH through pad (exclusive of ICRC/VCRC) as three slices:
    /// header image, payload in place, zero pad. Few large slices keep the
    /// CRC kernels on their bulk path, and nothing here touches the heap.
    /// `masked` gives the *invariant-field* stream the ICRC (and the MAC
    /// replacing it) covers; unmasked, the wire image. Forced inline, with
    /// [`Packet::header_image`], so `masked` folds to a constant in each
    /// walk (measured: without it every MAC arm of `mac_table4` pays ~8 ns
    /// per packet). The authenticated datapath does not walk it: it tags
    /// one contiguous masked copy of the wire image
    /// ([`Packet::write_sealed`], [`WireView::masked_image_into`]).
    #[inline(always)]
    fn for_each_slice(&self, masked: bool, mut f: impl FnMut(&[u8])) {
        let mut hdr = [0u8; MAX_HEADER_LEN];
        let n = self.header_image(masked, &mut hdr);
        f(&hdr[..n]);
        f(&self.payload);
        f(&[0u8; 3][..self.bth.pad_count as usize]);
    }

    /// Serialize into a reusable buffer (cleared first, capacity retained
    /// across calls — the steady-state send path allocates nothing). The
    /// packet should be sealed (or have had a tag installed) first; this
    /// emits fields verbatim.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.wire_len());
        self.for_each_slice(false, |s| out.extend_from_slice(s));
        out.extend_from_slice(&self.icrc.to_be_bytes());
        out.extend_from_slice(&self.vcrc.to_be_bytes());
    }

    /// Serialize into `out` and seal it — the one seal body of the
    /// authenticated datapath: `tag` runs one-shot over `image` (the
    /// caller's scratch, cleared first), a contiguous copy of the bytes
    /// the ICRC covers (LRH through pad) with the variant fields masked to
    /// ones; its result goes into the ICRC slot, and the VCRC is computed
    /// once, over the written bytes. `self.icrc` / `self.vcrc` are updated
    /// to match, so the packet stays the sealed twin of its image. Length
    /// fields must already be consistent ([`Packet::seal_lengths`]).
    ///
    /// The copy is deliberate: masking `out` in place and restoring it
    /// measured ~13 ns slower per 64 B packet (and no faster at 1 KiB).
    pub fn write_sealed(
        &mut self,
        out: &mut Vec<u8>,
        image: &mut Vec<u8>,
        tag: impl FnOnce(&[u8]) -> u32,
    ) {
        self.write_into(out);
        masked_copy(out, self.grh.is_some(), image);
        self.icrc = tag(image);
        let n = out.len();
        out[n - ICRC_LEN - VCRC_LEN..n - VCRC_LEN].copy_from_slice(&self.icrc.to_be_bytes());
        self.vcrc = crc16_iba(&out[..n - VCRC_LEN]);
        out[n - VCRC_LEN..].copy_from_slice(&self.vcrc.to_be_bytes());
    }

    /// Serialize to freshly-allocated wire bytes. Hot paths prefer
    /// [`Packet::write_into`] with a reused buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(&mut out);
        out
    }

    /// Materialize the invariant-field byte stream (headers with the
    /// variant fields masked to ones, then payload and pad) into a reusable
    /// buffer (cleared first, capacity retained across calls).
    pub fn icrc_message_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.header_len() + self.padded_payload_len());
        self.for_each_slice(true, |s| out.extend_from_slice(s));
    }

    /// The invariant-field byte stream as a fresh allocation — the tag
    /// reference. Hot paths use [`Packet::icrc_message_into`] (reused
    /// buffer) instead.
    pub fn icrc_message(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.icrc_message_into(&mut out);
        out
    }

    /// Compute the CRC-32 ICRC over the invariant fields without
    /// materializing the masked copy (carry-less folding kernel when the
    /// CPU has PCLMULQDQ, slice-by-8 otherwise — bit-identical either way).
    pub fn compute_icrc(&self) -> u32 {
        let mut crc = Crc32::new();
        self.for_each_slice(true, |s| {
            crc.update_auto(s);
        });
        crc.finalize()
    }

    /// Compute the VCRC: CRC-16 over everything from LRH through the ICRC
    /// field, *unmasked* (the VCRC is recomputed by every switch that
    /// rewrites a variant field). Same kernel dispatch as the ICRC.
    pub fn compute_vcrc(&self) -> u16 {
        let mut crc = Crc16::new();
        self.for_each_slice(false, |s| {
            crc.update_auto(s);
        });
        crc.update_auto(&self.icrc.to_be_bytes());
        crc.finalize()
    }

    /// Install an authentication tag: set the BTH selector, place the tag in
    /// the ICRC field, and refresh the VCRC (which covers the tag bytes).
    pub fn set_auth_tag(&mut self, selector: u8, tag: u32) {
        self.bth.resv8a = selector;
        self.icrc = tag;
        self.vcrc = self.compute_vcrc();
    }

    /// True if the stored ICRC matches the computed CRC-32 (only meaningful
    /// when `bth.resv8a == 0`).
    pub fn icrc_ok(&self) -> bool {
        self.icrc == self.compute_icrc()
    }

    /// True if the stored VCRC matches.
    pub fn vcrc_ok(&self) -> bool {
        self.vcrc == self.compute_vcrc()
    }

    /// A switch moving this packet to a different VL: rewrite the variant
    /// field and recompute only the VCRC — the ICRC/tag must survive, which
    /// the unit test `vl_rewrite_preserves_icrc` verifies.
    pub fn rewrite_vl(&mut self, vl: VirtualLane) {
        self.lrh.vl = vl;
        self.vcrc = self.compute_vcrc();
    }

    /// Parse and validate a wire buffer into an owned packet: the checks
    /// of [`Packet::parse_view`], then a copy of the payload.
    pub fn parse(buf: &[u8]) -> Result<Packet, ParseError> {
        let mut pkt = PacketBuilder::new(OpCode::RC_SEND_ONLY).packet;
        pkt.parse_into(buf)?;
        Ok(pkt)
    }

    /// Parse a wire buffer into `self`, reusing the payload allocation
    /// (cleared first, capacity retained), with [`Packet::parse_view`]'s
    /// validation. On `Err` the packet is left untouched.
    pub fn parse_into(&mut self, buf: &[u8]) -> Result<(), ParseError> {
        let v = Packet::parse_view(buf)?;
        self.lrh = v.lrh;
        self.grh = v.grh;
        self.bth = v.bth;
        self.deth = v.deth;
        self.reth = v.reth;
        self.aeth = v.aeth;
        self.payload.clear();
        self.payload.extend_from_slice(v.payload);
        self.icrc = v.icrc;
        self.vcrc = v.vcrc;
        Ok(())
    }

    /// The only constructor of a [`WireView`]: check structural
    /// consistency and the VCRC over exactly the bytes of `buf` (not a
    /// re-serialization of the parsed fields, which would forgive flipped
    /// reserved bits and non-zero pad bytes), then borrow the payload.
    /// ICRC verification is left to the caller because under the
    /// authentication scheme the field may hold a MAC tag instead.
    /// Inlined so the caller's view is built in place rather than
    /// returned and copied (measured: 15–20 % of a 64 B `handle_wire`).
    #[inline]
    pub fn parse_view(buf: &[u8]) -> Result<WireView<'_>, ParseError> {
        let lrh = Lrh::parse(buf)?;
        let expected_len = lrh.pkt_len as usize * 4 + VCRC_LEN;
        if buf.len() < expected_len {
            return Err(ParseError::Truncated {
                needed: expected_len,
                got: buf.len(),
            });
        }
        if buf.len() != expected_len {
            return Err(ParseError::LengthMismatch {
                header_words: lrh.pkt_len,
                actual_words: buf.len() / 4,
            });
        }
        let mut off = LRH_LEN;
        let grh = if lrh.lnh == Lnh::IbaGlobal {
            let g = Grh::parse(&buf[off..])?;
            off += GRH_LEN;
            Some(g)
        } else {
            None
        };
        let bth = Bth::parse(&buf[off..])?;
        off += BTH_LEN;
        let deth = if bth.opcode.service.has_deth() {
            let d = Deth::parse(&buf[off..])?;
            off += DETH_LEN;
            Some(d)
        } else {
            None
        };
        let reth = if bth.opcode.operation.has_reth() {
            let r = Reth::parse(&buf[off..])?;
            off += RETH_LEN;
            Some(r)
        } else {
            None
        };
        let aeth = if bth.opcode.operation.has_aeth() {
            let a = Aeth::parse(&buf[off..])?;
            off += AETH_LEN;
            Some(a)
        } else {
            None
        };
        let trailer = ICRC_LEN + VCRC_LEN;
        if buf.len() < off + trailer {
            return Err(ParseError::Truncated {
                needed: off + trailer,
                got: buf.len(),
            });
        }
        let padded_payload_len = buf.len() - off - trailer;
        if (bth.pad_count as usize) > padded_payload_len {
            return Err(ParseError::BadPadCount {
                pad: bth.pad_count,
                payload_len: padded_payload_len,
            });
        }
        let payload_len = padded_payload_len - bth.pad_count as usize;
        let (covered, vcrc) = buf.split_at(buf.len() - VCRC_LEN);
        let got = u16::from_be_bytes([vcrc[0], vcrc[1]]);
        let expected = crc16_iba(covered);
        if expected != got {
            return Err(ParseError::BadVcrc { expected, got });
        }
        let icrc_off = off + padded_payload_len;
        Ok(WireView {
            lrh,
            grh,
            bth,
            deth,
            reth,
            aeth,
            payload: &buf[off..off + payload_len],
            icrc: u32::from_be_bytes(buf[icrc_off..icrc_off + ICRC_LEN].try_into().unwrap()),
            vcrc: got,
            bytes: buf,
        })
    }
}

/// A received packet borrowed from the buffer it arrived in: header
/// fields by value, the payload as a slice of the wire bytes. Only
/// [`Packet::parse_view`] builds one, after checking the VCRC over exactly
/// the bytes it borrows, so holding a view means the link-level check ran
/// once, over what arrived — admission need not (and does not) repeat it.
#[derive(Debug, Clone, Copy)]
pub struct WireView<'a> {
    pub lrh: Lrh,
    pub grh: Option<Grh>,
    pub bth: Bth,
    pub deth: Option<Deth>,
    pub reth: Option<Reth>,
    pub aeth: Option<Aeth>,
    pub payload: &'a [u8],
    /// ICRC or authentication tag, as received.
    pub icrc: u32,
    /// The VCRC, already checked.
    pub vcrc: u16,
    /// The whole checked wire image (private: no view without the check).
    bytes: &'a [u8],
}

impl WireView<'_> {
    /// Copy the bytes the ICRC covers (LRH through pad) into `out`
    /// (cleared first, capacity retained) and mask the variant fields to
    /// ones: the contiguous image a one-shot MAC or CRC-32 runs over.
    pub fn masked_image_into(&self, out: &mut Vec<u8>) {
        masked_copy(self.bytes, self.grh.is_some(), out);
    }
}

/// Copy a wire image's ICRC-covered bytes (all but ICRC and VCRC) into
/// `out`, cleared first, and mask the variant fields.
fn masked_copy(wire: &[u8], grh: bool, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&wire[..wire.len() - ICRC_LEN - VCRC_LEN]);
    mask_variant_fields(out, grh);
}

/// Set the variant fields of an image that starts at the LRH to ones (IBA
/// spec §7.8.1): LRH.VL; with a GRH, its traffic class, flow label and
/// hop limit; BTH.Resv8a. What remains is what the ICRC — and the MAC
/// replacing it — covers.
#[inline(always)]
fn mask_variant_fields(image: &mut [u8], grh: bool) {
    image[0] |= 0xF0; // VL
    let mut bth = LRH_LEN;
    if grh {
        // Traffic class + flow label live in the low 28 bits of word 0.
        image[bth] |= 0x0F;
        image[bth + 1..bth + 4].fill(0xFF);
        image[bth + 7] = 0xFF; // hop limit
        bth += GRH_LEN;
    }
    image[bth + BTH_RESV8A_OFFSET] = 0xFF; // the selector rides here
}

/// Fluent builder for [`Packet`]. Produces a sealed packet (valid CRCs in
/// plain-ICRC mode); authentication layers then swap the tag in.
///
/// ```
/// use ib_packet::{PacketBuilder, OpCode, Lid, PKey, Psn, Qpn};
/// let pkt = PacketBuilder::new(OpCode::RC_SEND_ONLY)
///     .slid(Lid(1)).dlid(Lid(2))
///     .pkey(PKey(0x8001))
///     .dest_qp(Qpn(7)).psn(Psn(0))
///     .payload(b"hello".to_vec())
///     .build();
/// assert!(pkt.icrc_ok() && pkt.vcrc_ok());
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    packet: Packet,
}

impl PacketBuilder {
    /// Start a packet with the given opcode; extended headers the opcode
    /// requires are created with default contents.
    pub fn new(opcode: OpCode) -> Self {
        let bth = Bth {
            opcode,
            ..Bth::default()
        };
        let packet = Packet {
            lrh: Lrh {
                vl: VirtualLane(0),
                lver: 0,
                sl: 0,
                lnh: Lnh::IbaLocal,
                dlid: Lid(0),
                pkt_len: 0,
                slid: Lid(0),
            },
            grh: None,
            bth,
            deth: opcode.service.has_deth().then(Deth::default),
            reth: opcode.operation.has_reth().then(Reth::default),
            aeth: opcode.operation.has_aeth().then(Aeth::default),
            payload: Vec::new(),
            icrc: 0,
            vcrc: 0,
        };
        PacketBuilder { packet }
    }

    /// Source LID.
    pub fn slid(mut self, lid: Lid) -> Self {
        self.packet.lrh.slid = lid;
        self
    }

    /// Destination LID.
    pub fn dlid(mut self, lid: Lid) -> Self {
        self.packet.lrh.dlid = lid;
        self
    }

    /// Service level (QoS class).
    pub fn sl(mut self, sl: u8) -> Self {
        self.packet.lrh.sl = sl & 0x0F;
        self
    }

    /// Virtual lane.
    pub fn vl(mut self, vl: VirtualLane) -> Self {
        self.packet.lrh.vl = vl;
        self
    }

    /// Attach a GRH (switches LNH to global).
    pub fn grh(mut self, grh: Grh) -> Self {
        self.packet.lrh.lnh = Lnh::IbaGlobal;
        self.packet.grh = Some(grh);
        self
    }

    /// Partition key.
    pub fn pkey(mut self, pkey: PKey) -> Self {
        self.packet.bth.pkey = pkey;
        self
    }

    /// Destination QP.
    pub fn dest_qp(mut self, qpn: Qpn) -> Self {
        self.packet.bth.dest_qp = qpn;
        self
    }

    /// Packet sequence number.
    pub fn psn(mut self, psn: Psn) -> Self {
        self.packet.bth.psn = psn;
        self
    }

    /// Q_Key + source QP (panics if the opcode's service has no DETH —
    /// that is a programming error, not input-dependent).
    pub fn qkey(mut self, qkey: QKey, src_qp: Qpn) -> Self {
        let deth = self
            .packet
            .deth
            .as_mut()
            .expect("opcode's transport service carries no DETH");
        deth.qkey = qkey;
        deth.src_qp = src_qp;
        self
    }

    /// RDMA target (panics if the opcode carries no RETH).
    pub fn rdma(mut self, virt_addr: u64, rkey: RKey, dma_len: u32) -> Self {
        let reth = self.packet.reth.as_mut().expect("opcode carries no RETH");
        reth.virt_addr = virt_addr;
        reth.rkey = rkey;
        reth.dma_len = dma_len;
        self
    }

    /// ACK syndrome/MSN (panics if the opcode carries no AETH).
    pub fn ack(mut self, syndrome: u8, msn: u32) -> Self {
        let aeth = self.packet.aeth.as_mut().expect("opcode carries no AETH");
        aeth.syndrome = syndrome;
        aeth.msn = msn & 0x00FF_FFFF;
        self
    }

    /// Payload bytes.
    pub fn payload(mut self, payload: Vec<u8>) -> Self {
        self.packet.payload = payload;
        self
    }

    /// Seal and return the packet.
    pub fn build(mut self) -> Packet {
        self.packet.seal();
        self.packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc_packet(payload_len: usize) -> Packet {
        PacketBuilder::new(OpCode::RC_SEND_ONLY)
            .slid(Lid(10))
            .dlid(Lid(20))
            .pkey(PKey(0x8005))
            .dest_qp(Qpn(42))
            .psn(Psn(1000))
            .payload((0..payload_len).map(|i| i as u8).collect())
            .build()
    }

    #[test]
    fn visitor_slices_concatenate_to_icrc_message() {
        // The masked walk (header image, payload, pad) against the masked
        // copy of the serialized wire bytes the datapath tags.
        for len in [0usize, 1, 3, 4, 100] {
            let pkt = rc_packet(len);
            let mut concat = Vec::new();
            pkt.for_each_slice(true, |s| concat.extend_from_slice(s));
            let mut image = Vec::new();
            masked_copy(&pkt.to_bytes(), false, &mut image);
            assert_eq!(concat, image, "len {len}");
        }
    }

    #[test]
    fn into_forms_match_allocating_forms_and_reuse_buffers() {
        let mut wire = Vec::new();
        let mut msg = Vec::new();
        for len in [1024usize, 0, 3, 100] {
            // Descending-then-ascending sizes exercise buffer reuse.
            let pkt = rc_packet(len);
            pkt.write_into(&mut wire);
            assert_eq!(wire, pkt.to_bytes(), "wire len {len}");
            pkt.icrc_message_into(&mut msg);
            assert_eq!(msg, pkt.icrc_message(), "msg len {len}");
        }
    }

    #[test]
    fn seal_lengths_then_crcs_equals_seal() {
        let mut a = rc_packet(37);
        a.payload.extend_from_slice(b"more bytes");
        let mut b = a.clone();
        a.seal();
        b.seal_lengths();
        b.icrc = b.compute_icrc();
        b.vcrc = b.compute_vcrc();
        assert_eq!(a, b);
    }

    #[test]
    fn sealed_packet_has_valid_crcs() {
        for len in [0usize, 1, 2, 3, 4, 100, 1024] {
            let pkt = rc_packet(len);
            assert!(pkt.icrc_ok(), "icrc len {len}");
            assert!(pkt.vcrc_ok(), "vcrc len {len}");
            assert_eq!(pkt.wire_len() % 4, 2, "aligned + 2 VCRC bytes, len {len}");
        }
    }

    #[test]
    fn roundtrip_rc() {
        let pkt = rc_packet(100);
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed, pkt);
    }

    #[test]
    fn parse_into_reuses_and_matches_parse() {
        let mut scratch = Packet::parse(&rc_packet(512).to_bytes()).unwrap();
        let cap = scratch.payload.capacity();
        for len in [256usize, 0, 100, 512] {
            let pkt = rc_packet(len);
            scratch.parse_into(&pkt.to_bytes()).unwrap();
            assert_eq!(scratch, pkt, "len {len}");
            assert_eq!(scratch.payload.capacity(), cap, "len {len}: no realloc");
        }
        // Validation parity with `parse`.
        let mut bytes = rc_packet(8).to_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert!(matches!(
            scratch.parse_into(&bytes),
            Err(ParseError::BadVcrc { .. })
        ));
    }

    #[test]
    fn roundtrip_ud_with_deth() {
        let pkt = ud_packet_with_pad();
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed, pkt);
        assert_eq!(parsed.deth.unwrap().qkey, QKey(0xDEAD_BEEF));
    }

    #[test]
    fn roundtrip_rdma_write_with_reth() {
        let pkt = PacketBuilder::new(OpCode::RC_RDMA_WRITE_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .rdma(0x7000_0000_0000, RKey(0xCAFE_F00D), 64)
            .payload(vec![1; 64])
            .build();
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed, pkt);
        assert_eq!(parsed.reth.unwrap().rkey, RKey(0xCAFE_F00D));
    }

    #[test]
    fn roundtrip_ack_with_aeth() {
        let pkt = PacketBuilder::new(OpCode::RC_ACKNOWLEDGE)
            .slid(Lid(3))
            .dlid(Lid(4))
            .ack(0, 55)
            .build();
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed.aeth.unwrap().msn, 55);
    }

    #[test]
    fn roundtrip_with_grh() {
        let pkt = PacketBuilder::new(OpCode::RC_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .grh(Grh::default())
            .payload(vec![5; 10])
            .build();
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed, pkt);
        assert!(parsed.grh.is_some());
    }

    #[test]
    fn vl_rewrite_preserves_icrc() {
        // The heart of the ICRC-as-MAC compatibility claim: a switch moving
        // the packet to another VL recomputes only the VCRC.
        let mut pkt = rc_packet(64);
        let icrc_before = pkt.icrc;
        pkt.rewrite_vl(VirtualLane(7));
        assert_eq!(pkt.icrc, icrc_before);
        assert!(pkt.icrc_ok(), "ICRC still valid after VL rewrite");
        assert!(pkt.vcrc_ok(), "VCRC refreshed");
        // And the parsed form agrees.
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed.icrc, icrc_before);
    }

    #[test]
    fn resv8a_rewrite_preserves_icrc_but_not_vcrc() {
        let mut pkt = rc_packet(64);
        let icrc_before = pkt.compute_icrc();
        pkt.bth.resv8a = 3;
        assert_eq!(
            pkt.compute_icrc(),
            icrc_before,
            "Resv8a is masked from ICRC"
        );
        assert!(
            !pkt.vcrc_ok(),
            "VCRC covers the raw bytes, must be refreshed"
        );
    }

    #[test]
    fn set_auth_tag_keeps_wire_parseable() {
        let mut pkt = rc_packet(32);
        pkt.set_auth_tag(1, 0xA5A5_5A5A);
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed.bth.resv8a, 1);
        assert_eq!(parsed.icrc, 0xA5A5_5A5A);
        // A legacy receiver checking it as a CRC would reject it...
        assert!(!parsed.icrc_ok());
        // ...but the link layer is perfectly happy.
        assert!(parsed.vcrc_ok());
    }

    #[test]
    fn payload_tamper_breaks_icrc() {
        let pkt = rc_packet(128);
        let mut bytes = pkt.to_bytes();
        // Flip a payload byte and fix up the VCRC so only ICRC catches it.
        let payload_off = 8 + 12;
        bytes[payload_off + 5] ^= 0x40;
        let mut reparsed_fail = Packet::parse(&bytes);
        // VCRC now fails (it covers everything).
        assert!(matches!(reparsed_fail, Err(ParseError::BadVcrc { .. })));
        // Fix the VCRC like an in-path attacker (or switch) would:
        let n = bytes.len();
        let vcrc = crc16_iba(&bytes[..n - 2]);
        bytes[n - 2..].copy_from_slice(&vcrc.to_be_bytes());
        reparsed_fail = Packet::parse(&bytes);
        let tampered = reparsed_fail.unwrap();
        assert!(!tampered.icrc_ok(), "ICRC must catch the payload change");
    }

    #[test]
    fn pkey_is_covered_by_icrc() {
        let mut pkt = rc_packet(16);
        let before = pkt.compute_icrc();
        pkt.bth.pkey = PKey(0x8099);
        assert_ne!(pkt.compute_icrc(), before, "P_Key is invariant ⇒ covered");
    }

    #[test]
    fn icrc_message_matches_compute_icrc() {
        let pkt = PacketBuilder::new(OpCode::UD_SEND_ONLY)
            .slid(Lid(9))
            .dlid(Lid(8))
            .qkey(QKey(77), Qpn(5))
            .payload(vec![0xEE; 45])
            .build();
        assert_eq!(
            ib_crypto::crc::crc32_ieee(&pkt.icrc_message()),
            pkt.compute_icrc()
        );
    }

    #[test]
    fn parse_rejects_wrong_length() {
        let pkt = rc_packet(20);
        let mut bytes = pkt.to_bytes();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            Packet::parse(&bytes),
            Err(ParseError::LengthMismatch { .. })
        ));
        let bytes = pkt.to_bytes();
        assert!(matches!(
            Packet::parse(&bytes[..bytes.len() - 3]),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn parse_rejects_corrupt_vcrc() {
        let pkt = rc_packet(8);
        let mut bytes = pkt.to_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert!(matches!(
            Packet::parse(&bytes),
            Err(ParseError::BadVcrc { .. })
        ));
    }

    /// A UD packet with three pad bytes: the shape with the most wire
    /// bits that no parsed field keeps.
    fn ud_packet_with_pad() -> Packet {
        PacketBuilder::new(OpCode::UD_SEND_ONLY)
            .slid(Lid(1))
            .dlid(Lid(2))
            .qkey(QKey(0xDEAD_BEEF), Qpn(77))
            .payload(vec![9; 33])
            .build()
    }

    #[test]
    fn parse_checks_the_vcrc_over_the_received_bytes() {
        // Bits the header parsers drop and `to_bytes` re-emits as zero: a
        // VCRC recomputed from the parsed fields cannot see them change.
        let clean = ud_packet_with_pad().to_bytes();
        let n = clean.len();
        let deth_resv = LRH_LEN + BTH_LEN + 4;
        let pad = n - VCRC_LEN - ICRC_LEN - 3;
        let unmodelled = [
            (1, 0x0C),         // LRH reserved pair beside LNH
            (4, 0xF8),         // LRH reserved five above PktLen
            (deth_resv, 0xFF), // DETH reserved byte
            (pad, 0xFF),
            (pad + 1, 0xFF),
            (pad + 2, 0xFF),
        ];
        for (at, mask) in unmodelled {
            for bit in (0..8).filter(|b| mask & (1u8 << b) != 0) {
                let mut bytes = clean.clone();
                bytes[at] ^= 1 << bit;
                assert!(
                    matches!(Packet::parse(&bytes), Err(ParseError::BadVcrc { .. })),
                    "byte {at} bit {bit} flipped, still parsed"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_wire_image_is_rejected() {
        let with_grh = PacketBuilder::new(OpCode::RC_RDMA_WRITE_ONLY)
            .grh(Grh::default())
            .rdma(0x1000, RKey(7), 5)
            .payload(vec![3; 5])
            .build();
        for pkt in [ud_packet_with_pad(), with_grh, rc_packet(64)] {
            let clean = pkt.to_bytes();
            assert_eq!(Packet::parse(&clean).unwrap(), pkt);
            for bit in 0..clean.len() * 8 {
                let mut bytes = clean.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert!(Packet::parse(&bytes).is_err(), "bit {bit} flipped");
            }
        }
    }

    #[test]
    fn builder_defaults_are_sane() {
        let pkt = PacketBuilder::new(OpCode::RC_SEND_ONLY).build();
        assert_eq!(pkt.bth.resv8a, 0, "default is plain-ICRC mode");
        assert!(pkt.deth.is_none());
        assert!(pkt.payload.is_empty());
        assert!(pkt.icrc_ok());
    }
}
