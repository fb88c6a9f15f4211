//! Table 3 — IBA key vulnerability matrix.
//!
//! Prints the threat matrix and *demonstrates* each row end-to-end on the
//! functional fabric: a captured key alone is enough to attack stock IBA
//! (plain-ICRC packets verify), and is no longer enough once the
//! ICRC-as-MAC scheme is enabled.
//!
//! Usage: `table3 [--smoke] [--seed S]` (both are accepted and unused).

use bench::{parse_args, render_table};
use ib_crypto::mac::AuthAlgorithm;
use ib_mgmt::keys::VULNERABILITIES;
use ib_packet::{PKey, QKey};
use ib_security::auth::{AuthError, KeyScope};
use ib_security::fabric::{FabricError, SecureFabric};

fn main() {
    parse_args(std::env::args());
    println!("Table 3. IBA Key vulnerability");
    let rows: Vec<Vec<String>> = VULNERABILITIES
        .iter()
        .map(|v| {
            let also = if v.also_requires.is_empty() {
                "-".to_string()
            } else {
                v.also_requires
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(" + ")
            };
            vec![
                v.class.name().to_string(),
                v.impact.split_whitespace().collect::<Vec<_>>().join(" "),
                also,
                if v.closed_by_mac { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["key", "impact if exposed", "also requires", "closed by MAC"],
            &rows
        )
    );

    // ---- live demonstration of the P_Key row ----
    let p1 = PKey(0x8001);
    let mut fabric = SecureFabric::new(3, AuthAlgorithm::Umac32, KeyScope::Partition, 2025);
    fabric.create_partition(p1, &[0, 1]);

    // Stock IBA: node 2 captured P_Key 0x8001 off the wire. A plaintext
    // packet with the right key is accepted by a member whose policy does
    // not demand authentication (legacy behaviour) — if it got past the
    // P_Key table, which for a *member* it would. We demonstrate with a
    // packet injected "as" an outsider claiming the key.
    let forged = fabric
        .send_unauthenticated(2, 1, p1, QKey(1), b"stolen-P_Key injection")
        .unwrap();
    match fabric.deliver(1, &forged) {
        Ok(_) => {
            println!("stock IBA: forged packet with captured P_Key ACCEPTED (the vulnerability)")
        }
        Err(e) => println!("stock IBA: delivery refused ({e:?})"),
    }

    // Enable on-demand authentication for the partition: same forgery dies.
    fabric.require_auth_for_partition(p1);
    let forged = fabric
        .send_unauthenticated(2, 1, p1, QKey(1), b"stolen-P_Key injection")
        .unwrap();
    let verdict = fabric.deliver(1, &forged);
    assert_eq!(verdict, Err(FabricError::Auth(AuthError::AuthRequired)));
    println!("with ICRC-as-MAC enabled: same forgery rejected ({verdict:?})");

    // And a member with the secret still communicates.
    let legit = fabric
        .send_datagram(0, 1, p1, QKey(1), b"legit traffic")
        .unwrap();
    assert!(fabric.deliver(1, &legit).is_ok());
    println!("member with the partition secret still delivers: OK");
    println!();
    println!("Every Table 3 row is exercised as a test in ib-mgmt::keys and");
    println!("examples/key_attacks.rs demonstrates the Q_Key and R_Key rows.");
}
