//! Securing RDMA: the R_Key exposure (Table 3, last row), end to end.
//!
//! ```text
//! cargo run --example secure_rdma
//! ```
//!
//! RDMA writes bypass the destination QP entirely — the HCA writes memory
//! as soon as the R_Key in the RETH matches. A captured R_Key therefore
//! gives silent remote-memory access in stock IBA. This example builds
//! genuine RDMA-write packets, registers a memory region, and shows the
//! write being applied for a keyed peer and refused for a forger, under
//! QP-level connected-service keys (§4.3: "even if R_Key is exposed,
//! QP-level key management guarantees authentic communication").

use ib_crypto::mac::AuthAlgorithm;
use ib_crypto::toyrsa;
use ib_mgmt::keymgmt::QpKeyManager;
use ib_packet::{Lid, OpCode, PKey, Packet, PacketBuilder, Psn, Qpn, RKey, WireView};
use ib_security::auth::{AuthError, Authenticator, KeyScope};

/// A toy RDMA-capable memory region guarded by an R_Key.
struct MemoryRegion {
    rkey: RKey,
    base: u64,
    data: Vec<u8>,
}

impl MemoryRegion {
    /// Apply an arrived RDMA write if its RETH authorizes it.
    fn apply_write(&mut self, pkt: &WireView) -> Result<(), String> {
        let reth = pkt.reth.as_ref().ok_or("not an RDMA packet")?;
        if reth.rkey != self.rkey {
            return Err(format!("R_Key mismatch: {}", reth.rkey));
        }
        let off = reth
            .virt_addr
            .checked_sub(self.base)
            .ok_or("address below region")? as usize;
        let end = off + pkt.payload.len();
        if end > self.data.len() {
            return Err("write past region end".into());
        }
        self.data[off..end].copy_from_slice(pkt.payload);
        Ok(())
    }
}

fn rdma_write(psn: u32, rkey: RKey, addr: u64, dest_qp: Qpn, payload: &[u8]) -> Packet {
    PacketBuilder::new(OpCode::RC_RDMA_WRITE_ONLY)
        .slid(Lid(1))
        .dlid(Lid(2))
        .pkey(PKey(0x8001))
        .dest_qp(dest_qp)
        .psn(Psn(psn))
        .rdma(addr, rkey, payload.len() as u32)
        .payload(payload.to_vec())
        .build()
}

fn main() {
    // Target node registers 64 bytes of memory at 0x10000 under an R_Key.
    let rkey = RKey(0xCAFE_F00D);
    let mut region = MemoryRegion {
        rkey,
        base: 0x10000,
        data: vec![0u8; 64],
    };
    let dest_qp = Qpn(9);

    // ---- connection setup with QP-level key exchange (§4.3) ----
    let (target_pub, target_priv) = toyrsa::generate_keypair(0xBEEF);
    let mut initiator_mgr = QpKeyManager::new(42);
    let (secret, envelope) = initiator_mgr.initiate_connection(&target_pub);
    let received = envelope.open(&target_priv).expect("target opens envelope");
    assert_eq!(secret, received);

    let mut initiator = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::QpLevel);
    initiator.keys.install_connection_secret(dest_qp, secret);
    let mut target = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::QpLevel);
    target.keys.install_connection_secret(dest_qp, received);
    let mut image = Vec::new();

    // ---- legitimate RDMA write ----
    let mut pkt = rdma_write(1, rkey, 0x10010, dest_qp, b"RDMA payload");
    let mut wire = Vec::new();
    initiator
        .seal_into(&mut pkt, &mut wire, &mut image)
        .expect("keyed initiator tags");
    println!("RDMA write-only packet: {} bytes on the wire", wire.len());

    let arrived = Packet::parse_view(&wire).expect("valid wire packet");
    target
        .verify_view(&arrived, &mut image)
        .expect("tag verifies");
    region.apply_write(&arrived).expect("write applies");
    assert_eq!(&region.data[0x10..0x10 + 12], b"RDMA payload");
    println!("keyed peer: tag verified, memory written at +0x10.");

    // ---- attacker captured the R_Key off the wire ----
    // Stock IBA check is R_Key-only: the forged write WOULD apply.
    let forged = rdma_write(2, rkey, 0x10000, dest_qp, b"OWNED!").to_bytes();
    let forged = Packet::parse_view(&forged).expect("valid wire packet");
    assert!(
        region.apply_write(&forged).is_ok(),
        "stock IBA: captured R_Key is sufficient — the vulnerability"
    );
    println!("stock IBA: forged write with captured R_Key APPLIED (vulnerability shown).");
    region.data[..6].fill(0); // undo for the secured run

    // Under the scheme the target verifies *before* the write. The forged
    // packet carries selector 0 (plain ICRC), and an authenticated
    // connection requires a tag: refused without any policy gate.
    let verdict = target.verify_view(&forged, &mut image);
    assert_eq!(verdict, Err(AuthError::AuthRequired));
    println!("with ICRC-as-MAC: selector-0 forgery -> {verdict:?}");

    // The forger's alternative is to claim authentication and guess the
    // 32-bit tag (success probability ~2^-30 per attempt):
    let mut guessed = rdma_write(3, rkey, 0x10000, dest_qp, b"OWNED!");
    guessed.set_auth_tag(AuthAlgorithm::Umac32.selector(), 0xDEAD_BEEF); // a guess
    let guessed = guessed.to_bytes();
    let verdict = target.verify_view(&Packet::parse_view(&guessed).unwrap(), &mut image);
    println!("claimed UMAC with a guessed tag -> {verdict:?}");
    assert_eq!(
        verdict,
        Err(AuthError::BadTag),
        "guessed tag must not verify"
    );
    println!("secure_rdma complete: R_Key exposure closed by QP-level keys.");
}
