//! Table 3, demonstrated: what each captured IBA key buys an attacker in
//! stock IBA, and how the ICRC-as-MAC scheme closes every row.
//!
//! ```text
//! cargo run --example key_attacks
//! ```

use ib_crypto::mac::AuthAlgorithm;
use ib_mgmt::keys::{KeyClass, VULNERABILITIES};
use ib_packet::{PKey, QKey};
use ib_security::auth::{AuthError, KeyScope};
use ib_security::fabric::{FabricError, SecureFabric};

fn banner(class: KeyClass) {
    let v = class.vulnerability();
    println!("── {} ──", class.name());
    println!("   impact if exposed: {}", v.impact);
    if !v.also_requires.is_empty() {
        let also: Vec<&str> = v.also_requires.iter().map(|k| k.name()).collect();
        println!("   attacker also needs: {}", also.join(" + "));
    }
}

fn main() {
    println!(
        "IBA key-exposure matrix ({} rows, paper Table 3)\n",
        VULNERABILITIES.len()
    );

    let p1 = PKey(0x8001);

    // ---------- P_Key row ----------
    banner(KeyClass::PKey);
    let mut fabric = SecureFabric::new(4, AuthAlgorithm::Umac32, KeyScope::Partition, 11);
    fabric.create_partition(p1, &[0, 1]);
    // Stock IBA: plaintext P_Key captured; outsider (node 3) injects and
    // the receiver's only check is the P_Key table — which matches.
    let wire = fabric
        .send_unauthenticated(3, 1, p1, QKey(1), b"P_Key forgery")
        .unwrap();
    let stock = fabric.deliver(1, &wire);
    println!("   stock IBA: forged injection with captured P_Key -> {stock:?}");
    assert!(stock.is_ok(), "stock IBA accepts: that's the vulnerability");
    // With MAC required: same forgery dies.
    fabric.require_auth_for_partition(p1);
    let wire = fabric
        .send_unauthenticated(3, 1, p1, QKey(1), b"P_Key forgery")
        .unwrap();
    let secured = fabric.deliver(1, &wire);
    println!("   with ICRC-as-MAC:                            -> {secured:?}");
    assert_eq!(secured, Err(FabricError::Auth(AuthError::AuthRequired)));
    println!();

    // ---------- Q_Key row ----------
    banner(KeyClass::QKey);
    // QP-level fabric: datagram secrets minted per (Q_Key request).
    let mut fabric = SecureFabric::new(4, AuthAlgorithm::Umac32, KeyScope::QpLevel, 12);
    fabric.create_partition(p1, &[0, 1, 2]);
    let qkey = fabric.request_qkey(0, 1); // node 0 legitimately keyed to node 1
                                          // Node 2 is *inside* the partition and has captured both P_Key and the
                                          // Q_Key off the wire — the Table 3 precondition. It still has no
                                          // per-QP secret, so it cannot tag:
    let forged = fabric.send_datagram(2, 1, p1, qkey, b"Q_Key forgery");
    println!("   insider with captured P_Key+Q_Key, QP-level keys -> {forged:?}");
    assert!(forged.is_err());
    let legit = fabric.send_datagram(0, 1, p1, qkey, b"legit").unwrap();
    assert!(fabric.deliver(1, &legit).is_ok());
    println!("   legitimate keyed sender                          -> Ok");
    println!();

    // ---------- M_Key / B_Key rows ----------
    banner(KeyClass::MKey);
    println!("   M_Key guards SMP writes; see ib_mgmt::sm::SubnetManager::check_mkey.");
    println!("   Under the scheme, management packets carry tags like any other —");
    println!("   a captured M_Key without the management secret cannot re-configure.");
    banner(KeyClass::BKey);
    println!("   B_Key: identical argument at the baseboard-management level.");
    println!();

    // ---------- Memory-key row ----------
    banner(KeyClass::MemoryKey);
    println!("   RDMA packets carry the R_Key in the RETH, *inside* ICRC coverage —");
    println!("   see examples/secure_rdma.rs for the end-to-end demonstration that a");
    println!("   captured R_Key cannot produce a verifying RDMA write.");
    println!();

    println!(
        "All {} Table 3 rows are closed by per-packet MACs (paper A.5).",
        VULNERABILITIES.len()
    );
}
