//! Table 4 — time & forgery complexity of the authentication candidates.
//!
//! Two halves:
//! 1. the paper's literature-derived rows (cycles/byte normalized to
//!    350 MHz), recomputed from the registry constants;
//! 2. *measured* rows for this repository's own implementations: wall-clock
//!    throughput on the paper's 1500-bit (188-byte) message size, converted
//!    to cycles/byte against an estimated CPU clock and renormalized.
//!
//! Absolute numbers differ from 1999-2004 hardware, but the ordering
//! CRC > UMAC >> MD5 > SHA1 must (and does) hold.
//!
//! Usage: `table4 [--smoke] [--seed S]` (the seed is not used).

use bench::{estimate_cpu_hz, parse_args, render_table, sample_arms, BenchConfig, Summary};
use ib_crypto::crc::crc32_ieee;
use ib_crypto::hmac::Hmac;
use ib_crypto::mac::AuthAlgorithm;
use ib_crypto::md5::Md5;
use ib_crypto::pmac::Pmac;
use ib_crypto::sha1::Sha1;
use ib_crypto::stream_mac::StreamMac;
use ib_crypto::umac::Umac;
use ib_security::analysis::macs::{
    cycles_per_byte_from_throughput, expected_forgery_attempts, gbps_from_cycles_per_byte,
    paper_table4, umac_link_speed_check, TABLE4_CLOCK_MHZ,
};

/// The paper's Table 4 message size: "a 4-byte authentication tag from a
/// 1500 bits message".
const MSG_BYTES: usize = 1500 / 8;

fn main() {
    let (smoke, _) = parse_args(std::env::args());
    let config = BenchConfig::new(smoke);

    // ---- paper rows ----
    println!("Table 4. Time & forgery complexity — paper reference rows (350 MHz)");
    let rows: Vec<Vec<String>> = paper_table4()
        .iter()
        .map(|r| {
            vec![
                r.algorithm.to_string(),
                format!("{:.2}", r.cycles_per_byte),
                format!("{:.2}", r.gbps),
                if r.forgery_log2 == 0 {
                    "1".to_string()
                } else {
                    format!("~2^{}", r.forgery_log2)
                },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Algorithm", "Cycles/byte", "Gbits/sec", "Forgery Prob."],
            &rows
        )
    );

    // ---- measured rows ----
    let cpu_hz = estimate_cpu_hz();
    println!(
        "Measured on this machine (estimated clock {:.2} GHz), {MSG_BYTES}-byte messages:",
        cpu_hz / 1e9
    );
    let msg = vec![0xA5u8; MSG_BYTES];
    let key = [7u8; 16];
    let umac = Umac::new(&key);
    let stream = StreamMac::new(&key);
    let pmac = Pmac::new(&key);

    let mut nonce = 0u64;
    let mut measured: Vec<(AuthAlgorithm, f64)> = Vec::new();
    let cases: Vec<(AuthAlgorithm, Box<dyn FnMut()>)> = vec![
        (
            AuthAlgorithm::Icrc,
            Box::new(|| {
                std::hint::black_box(crc32_ieee(std::hint::black_box(&msg)));
            }),
        ),
        (AuthAlgorithm::Umac32, {
            let msg = msg.clone();
            let umac = umac.clone();
            Box::new(move || {
                nonce += 1;
                std::hint::black_box(umac.tag32(nonce, std::hint::black_box(&msg)));
            })
        }),
        (AuthAlgorithm::HmacMd5, {
            let msg = msg.clone();
            Box::new(move || {
                std::hint::black_box(Hmac::<Md5>::tag32(&key, std::hint::black_box(&msg)));
            })
        }),
        (AuthAlgorithm::HmacSha1, {
            let msg = msg.clone();
            Box::new(move || {
                std::hint::black_box(Hmac::<Sha1>::tag32(&key, std::hint::black_box(&msg)));
            })
        }),
        (AuthAlgorithm::StreamMac, {
            let msg = msg.clone();
            let stream = stream.clone();
            let mut n = 0u64;
            Box::new(move || {
                n += 1;
                std::hint::black_box(stream.tag32(n, std::hint::black_box(&msg)));
            })
        }),
        (AuthAlgorithm::Pmac, {
            let msg = msg.clone();
            let pmac = pmac.clone();
            let mut n = 0u64;
            Box::new(move || {
                n += 1;
                std::hint::black_box(pmac.tag32(n, std::hint::black_box(&msg)));
            })
        }),
    ];

    let mut mrows = Vec::new();
    for (alg, mut f) in cases {
        let sample_ns = &sample_arms(&config, &mut [&mut *f])[0];
        let m = Summary::new(
            format!("table4/{}", alg.name()),
            sample_ns,
            MSG_BYTES as u64,
        );
        println!("{m}");
        let bytes_per_sec = m.bytes_per_sec();
        let cpb = cycles_per_byte_from_throughput(bytes_per_sec, cpu_hz);
        let gbps_here = bytes_per_sec * 8.0 / 1e9;
        let gbps_350 = gbps_from_cycles_per_byte(cpb, TABLE4_CLOCK_MHZ);
        measured.push((alg, cpb));
        mrows.push(vec![
            alg.name().to_string(),
            format!("{cpb:.2}"),
            format!("{gbps_here:.2}"),
            format!("{gbps_350:.3}"),
            if alg.forgery_log2() == 0 {
                "1".to_string()
            } else {
                format!(
                    "~2^{} ({:.1e} attempts)",
                    alg.forgery_log2(),
                    expected_forgery_attempts(alg.forgery_log2())
                )
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Algorithm",
                "Cycles/byte",
                "Gb/s (this CPU)",
                "Gb/s @350MHz",
                "Forgery Prob."
            ],
            &mrows
        )
    );

    // ---- shape checks ----
    let cpb = |alg: AuthAlgorithm| measured.iter().find(|(a, _)| *a == alg).unwrap().1;
    assert!(
        cpb(AuthAlgorithm::Icrc) < cpb(AuthAlgorithm::HmacMd5),
        "CRC must be cheaper than HMAC-MD5"
    );
    assert!(
        cpb(AuthAlgorithm::Umac32) < cpb(AuthAlgorithm::HmacMd5),
        "UMAC must beat HMAC-MD5"
    );
    assert!(
        cpb(AuthAlgorithm::HmacMd5) < cpb(AuthAlgorithm::HmacSha1),
        "MD5 must beat SHA1"
    );
    println!("OK: ordering CRC < UMAC < HMAC-MD5 < HMAC-SHA1 (cycles/byte) holds.");

    // ---- §6 link-speed feasibility ----
    let (umac_gbps, link, feasible) = umac_link_speed_check();
    println!();
    println!(
        "Link-speed check (§5.2/§6): UMAC at 200 MHz = {umac_gbps:.2} Gb/s vs {link} Gb/s 1x link -> {}",
        if feasible { "feasible (within pipeline tolerance)" } else { "NOT feasible" }
    );
    assert!(feasible);
}
