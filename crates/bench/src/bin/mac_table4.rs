//! Table 4 as *throughput over real packets* — MB/s and cycles/byte for
//! every authentication candidate over {64 B, 1 KiB, 4 KiB} payloads: each
//! iteration serializes the ICRC message with
//! [`Packet::icrc_message_into`] into a reused scratch buffer, then runs
//! the one-shot MAC over it (no per-packet allocation). That tag must equal
//! the one over the allocating [`Packet::icrc_message`] reference (asserted
//! per algorithm and size before anything is timed).
//!
//! A second section compares the scalar kernels against the runtime-
//! dispatched SIMD paths (`IB_SIMD=off` forces both arms scalar): CRC-32
//! slicing-by-8 vs PCLMULQDQ folding, scalar vs vectorized UMAC, the
//! 4-packet multi-buffer UMAC, and the AES-GCM-style AEAD seal/open arm.
//! Every point carries `gbps`, `pkts_per_sec`, and the ratio against the
//! paper's 2.5 Gbps link rate.
//!
//! Usage: `mac_table4 [--smoke] [--seed S]`

use bench::{
    bench_doc, estimate_cpu_hz, paired_ratio, parse_args, render_table, sample_arms,
    write_bench_json, BenchConfig, Summary,
};
use ib_crypto::crc::{Crc16, Crc32};
use ib_crypto::mac::{AnyMac, AuthAlgorithm};
use ib_crypto::umac::Umac;
use ib_crypto::AesGcm32;
use ib_packet::types::{Lid, PKey, Psn, Qpn};
use ib_packet::{OpCode, Packet, PacketBuilder};
use ib_runtime::{Json, ToJson};

/// Payload sizes under test: minimum-ish, the UMAC NH chunk size, and a
/// multi-chunk jumbo frame.
const SIZES: [usize; 3] = [64, 1024, 4096];
/// Fixed nonce: tag paths must agree bit-for-bit, and throughput does not
/// depend on its value.
const NONCE: u64 = 0x0001_0000_002A;

/// The two link CRCs as (group, portable slice-by-8 kernel, dispatched
/// kernel): ICRC and VCRC share one folding kernel, so they share one
/// cell shape and one kind of gate.
type CrcKernel = fn(&[u8]) -> u32;
const CRC_KERNELS: [(&str, CrcKernel, CrcKernel); 2] = [
    (
        "crc32",
        |m| Crc32::new().update(m).finalize(),
        |m| Crc32::new().update_auto(m).finalize(),
    ),
    (
        "crc16",
        |m| Crc16::new().update(m).finalize() as u32,
        |m| Crc16::new().update_auto(m).finalize() as u32,
    ),
];

/// A sealed RC data packet carrying `len` deterministic payload bytes.
fn packet_for(len: usize) -> Packet {
    let mut payload = vec![0u8; len];
    for (i, b) in payload.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31).wrapping_add(7);
    }
    PacketBuilder::new(OpCode::RC_SEND_ONLY)
        .slid(Lid(1))
        .dlid(Lid(2))
        .pkey(PKey(0x8001))
        .dest_qp(Qpn(7))
        .psn(Psn(42))
        .payload(payload)
        .build()
}

/// The paper's Discussion argues MAC viability against this link rate.
const LINK_RATE_GBPS: f64 = 2.5;

/// One CRC cell: the portable kernel, then the dispatched one.
fn crc_cell(config: &BenchConfig, scalar: CrcKernel, auto: CrcKernel, msg: &[u8]) -> Vec<Vec<f64>> {
    let mut arms: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            std::hint::black_box(scalar(msg));
        }),
        Box::new(|| {
            std::hint::black_box(auto(msg));
        }),
    ];
    sample_arms(config, &mut arms)
}

/// One UMAC cell: scalar, dispatched, and the 4-packet lockstep lane.
fn umac_cell(config: &BenchConfig, umac: &Umac, msg: &[u8]) -> Vec<Vec<f64>> {
    let nonces = [NONCE, NONCE ^ 1, NONCE ^ 2, NONCE ^ 3];
    let quad = [msg; 4];
    let mut arms: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            std::hint::black_box(umac.tag32_scalar(NONCE, msg));
        }),
        Box::new(|| {
            std::hint::black_box(umac.tag32(NONCE, msg));
        }),
        Box::new(|| {
            std::hint::black_box(umac.tag32_x4(nonces, quad));
        }),
    ];
    sample_arms(config, &mut arms)
}

/// Measurements a wall-clock floor may take before it fails.
const FLOOR_TRIES: u32 = 3;

/// Gate one wall-clock floor. `judge` reads a cell's raw samples and
/// returns the figures it judged, `Ok` when the floor holds. On a miss
/// that cell alone is re-measured, [`FLOOR_TRIES`] measurements in all:
/// this class of host drifts between two clock states inside a run, which
/// fails a single measurement of untouched code about one run in five,
/// while a real regression fails every try. Tag equality and document
/// structure are asserted once and never retried.
fn hold_floor(
    what: &str,
    first: &[Vec<f64>],
    mut remeasure: impl FnMut() -> Vec<Vec<f64>>,
    judge: impl Fn(&[Vec<f64>]) -> Result<String, String>,
) {
    let mut verdict = judge(first);
    let mut tries = 1;
    while verdict.is_err() && tries < FLOOR_TRIES {
        verdict = judge(&remeasure());
        tries += 1;
    }
    match verdict {
        Ok(figures) => println!("OK: {what} ({figures}) tries={tries}"),
        Err(figures) => panic!("{what} ({figures}) tries={tries}"),
    }
}

fn main() {
    let (smoke, seed) = parse_args(std::env::args());
    let config = BenchConfig::new(smoke);

    let mut key = [0u8; 16];
    key.copy_from_slice(&[seed.0.to_le_bytes(), (!seed.0).to_le_bytes()].concat());
    let packets: Vec<Packet> = SIZES.iter().map(|&len| packet_for(len)).collect();
    // The timed message is the ICRC message (masked headers + padded
    // payload), not just the payload.
    let msg_lens: Vec<usize> = packets.iter().map(|p| p.icrc_message().len()).collect();

    // ---- equivalence gate: scratch one-shot against the allocating reference ----
    for alg in AuthAlgorithm::ALL {
        let mac = AnyMac::new(alg, &key);
        for (packet, &msg_len) in packets.iter().zip(&msg_lens) {
            let reference = mac.tag32(NONCE, &packet.icrc_message());
            let mut scratch = Vec::new();
            packet.icrc_message_into(&mut scratch);
            assert_eq!(scratch.len(), msg_len);
            assert_eq!(
                mac.tag32(NONCE, &scratch),
                reference,
                "{} / {msg_len} B: tag paths must agree",
                alg.name()
            );
        }
    }
    println!(
        "OK: icrc_message() and scratch one-shot tags identical for every algorithm and size.\n"
    );

    // ---- timed runs ----
    // Every timed cell with the packets one iteration MACs (the
    // multi-buffer cells below MAC four at a time), in print order.
    let mut results: Vec<(Summary, u64)> = Vec::new();
    let mut record = |id: String, sample_ns: &[f64], bytes_per_iter: usize, pkts: u64| {
        let m = Summary::new(id, sample_ns, bytes_per_iter as u64);
        println!("{m}");
        results.push((m, pkts));
    };
    // (alg, payload_len, msg_len) per Table 4 measurement, in push order —
    // ids are display-only (algorithm names contain '/').
    let mut meta: Vec<(AuthAlgorithm, usize, usize)> = Vec::new();
    for alg in AuthAlgorithm::ALL {
        let mac = AnyMac::new(alg, &key);
        for (packet, (&size, &msg_len)) in packets.iter().zip(SIZES.iter().zip(&msg_lens)) {
            let mut scratch = Vec::new();
            let sample_ns = sample_arms(
                &config,
                &mut [|| {
                    packet.icrc_message_into(&mut scratch);
                    std::hint::black_box(mac.tag32(NONCE, &scratch));
                }],
            );
            record(
                format!("mac/{}-{size}B", alg.name()),
                &sample_ns[0],
                msg_len,
                1,
            );
            meta.push((alg, size, msg_len));
        }
    }

    // ---- SIMD dispatch section: scalar kernels vs the dispatched ones ----
    // With `IB_SIMD=off` both arms run the identical scalar code, so the
    // printed structure (and every tag) is unchanged — only the numbers
    // move. CI byte-diffs the number-normalized output both ways.
    // A virtualized host's clock can drift by tens of percent over
    // seconds, so the arms of each comparison are interleaved *sample by
    // sample*: a
    // frequency dip lands on all arms of the adjacent sample tuple, not
    // on whichever arm happened to run in that window.
    let msgs: Vec<Vec<u8>> = packets.iter().map(|p| p.icrc_message()).collect();
    let umac = Umac::new(&key);
    let gcm = AesGcm32::new(&key);
    for msg in &msgs {
        for (group, scalar, auto) in CRC_KERNELS {
            assert_eq!(scalar(msg), auto(msg), "{group} dispatch changed the sum");
        }
        assert_eq!(
            umac.tag32_scalar(NONCE, msg),
            umac.tag32(NONCE, msg),
            "umac dispatch changed the tag"
        );
        let quad = [&msg[..]; 4];
        let x4 = umac.tag32_x4([NONCE, NONCE ^ 1, NONCE ^ 2, NONCE ^ 3], quad);
        for (j, t) in x4.iter().enumerate() {
            assert_eq!(*t, umac.tag32(NONCE ^ j as u64, msg), "x4 lane {j}");
        }
        let mut sealed = msg.clone();
        let tag = gcm.seal(NONCE, b"", &mut sealed);
        assert!(gcm.open(NONCE, b"", &mut sealed, tag), "AEAD round-trip");
        assert_eq!(sealed, *msg);
    }
    println!("OK: dispatched kernels byte-identical to scalar; AEAD round-trips.\n");

    // Raw CRC and UMAC samples per (group, size) for the speedup floors.
    let mut simd_raw: Vec<(&str, usize, Vec<Vec<f64>>)> = Vec::new();
    for (i, &size) in SIZES.iter().enumerate() {
        let msg = &msgs[i];
        let msg_len = msg_lens[i];
        for (group, scalar, auto) in CRC_KERNELS {
            let samples = crc_cell(&config, scalar, auto, msg);
            for (arm, ns) in ["scalar", "simd"].iter().zip(&samples) {
                record(format!("{group}/{arm}-{size}B"), ns, msg_len, 1);
            }
            simd_raw.push((group, size, samples));
        }
        {
            let samples = umac_cell(&config, &umac, msg);
            // The x4 lane MACs four messages per iteration: it carries the
            // true total so bytes/s stays comparable with the single cells.
            for ((arm, pkts), ns) in [("scalar", 1), ("simd", 1), ("x4", 4)].iter().zip(&samples) {
                record(
                    format!("umac/{arm}-{size}B"),
                    ns,
                    *pkts as usize * msg_len,
                    *pkts,
                );
            }
            simd_raw.push(("umac", size, samples));
        }
        {
            let mut sealed = msg.clone();
            let tag = gcm.seal(NONCE, b"", &mut sealed);
            let mut seal_buf = vec![0u8; msg_len];
            let mut open_buf = vec![0u8; msg_len];
            let mut arms: Vec<Box<dyn FnMut() + '_>> = vec![
                Box::new(|| {
                    seal_buf.copy_from_slice(msg);
                    std::hint::black_box(gcm.seal(NONCE, b"", &mut seal_buf));
                }),
                Box::new(|| {
                    open_buf.copy_from_slice(&sealed);
                    std::hint::black_box(gcm.open(NONCE, b"", &mut open_buf, tag));
                }),
            ];
            let samples = sample_arms(&config, &mut arms);
            drop(arms);
            for (arm, ns) in ["seal", "open"].iter().zip(&samples) {
                record(format!("aead/{arm}-{size}B"), ns, msg_len, 1);
            }
        }
    }

    let cpu_hz = estimate_cpu_hz();
    assert!(results.len() > meta.len());
    // ---- Table 4, throughput form ----
    println!(
        "\nTable 4 as throughput (estimated clock {:.2} GHz; MB/s over the ICRC message):",
        cpu_hz / 1e9
    );
    let trows: Vec<Vec<String>> = meta
        .iter()
        .zip(&results)
        .map(|(&(alg, size, msg_len), (m, _))| {
            let mbps = m.bytes_per_sec() / 1e6;
            let cpb = m.median_ns * 1e-9 * cpu_hz / msg_len as f64;
            vec![
                alg.name().to_string(),
                size.to_string(),
                format!("{mbps:.1}"),
                format!("{cpb:.2}"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["algorithm", "payload B", "MB/s", "cycles/byte"], &trows)
    );

    // ---- SIMD dispatch table (line-rate form) ----
    println!(
        "\nSIMD dispatch vs scalar (Gbps over the ICRC message; link rate {LINK_RATE_GBPS} Gbps):"
    );
    let mut srows: Vec<Vec<String>> = Vec::new();
    for (m, ppi) in &results[meta.len()..] {
        let gbps = m.bytes_per_sec() * 8.0 / 1e9;
        srows.push(vec![
            m.id.clone(),
            format!("{gbps:.2}"),
            format!("{:.0}", *ppi as f64 * 1e9 / m.median_ns),
            format!("{:.2}", gbps / LINK_RATE_GBPS),
        ]);
    }
    println!(
        "{}",
        render_table(&["kernel", "Gbps", "pkts/s", "x link rate"], &srows)
    );

    // ---- wall-clock floors (on paired ratios, see `hold_floor`) ----
    // With the CPU features present the dispatched kernels must actually
    // pay off; without them (including `IB_SIMD=off`) both arms run the
    // same code and the gate is a ≥0.95× non-regression floor on the
    // dispatch overhead itself.
    let caps = ib_crypto::simd::caps();
    let simd_cell = |group: &str, size: usize| -> &[Vec<f64>] {
        let cell = simd_raw.iter().find(|&&(g, s, _)| g == group && s == size);
        &cell.expect("every simd cell was measured").2
    };
    // Median paired per-packet speedup of one dispatched lane over the
    // scalar arm; `pkts` scales lanes that tag several packets per
    // iteration (the x4 arm).
    let speedup_lane = |samples: &[Vec<f64>], lane: usize, pkts: f64| -> f64 {
        paired_ratio(&samples[0], &samples[lane]).0 * pkts
    };
    let at_least = |speedup: f64, bar: f64| -> Result<String, String> {
        let figures = format!("{speedup:.2}x scalar, need >= {bar}x");
        if speedup >= bar {
            Ok(figures)
        } else {
            Err(figures)
        }
    };
    // Both widths run the same folding kernel against their own
    // slice-by-8 tables; the bars sit far under the margins measured on
    // the recorded host (results/mac_throughput.txt), so they catch a
    // dispatch that stopped happening, not a few percent.
    let i_4k = SIZES.iter().position(|&s| s == 4096).expect("4 KiB cell");
    let i_1k = SIZES.iter().position(|&s| s == 1024).expect("1 KiB cell");
    for ((group, scalar, auto), with_pclmul) in CRC_KERNELS.into_iter().zip([2.0, 4.0]) {
        let bar = if caps.pclmul { with_pclmul } else { 0.95 };
        hold_floor(
            &format!("{group} @ 4 KiB: dispatched kernel"),
            simd_cell(group, 4096),
            || crc_cell(&config, scalar, auto, &msgs[i_4k]),
            |samples| at_least(speedup_lane(samples, 1, 1.0), bar),
        );
    }
    let umac_bar = if caps.avx2 || caps.sse2 { 1.5 } else { 0.95 };
    // The scalar NH loop auto-vectorizes well, so the single-buffer
    // margin is modest; the 4-packet lockstep lane (`Umac::tag32_x4`, a
    // Table-4 arm only — the receive path verifies one packet at a time)
    // also pipelines the four nonce pads through AES. The gate takes the
    // best dispatched lane per packet.
    hold_floor(
        "UMAC @ 1 KiB: best dispatched lane per packet",
        simd_cell("umac", 1024),
        || umac_cell(&config, &umac, &msgs[i_1k]),
        |samples| {
            let best = speedup_lane(samples, 1, 1.0).max(speedup_lane(samples, 2, 4.0));
            at_least(best, umac_bar)
        },
    );

    // ---- BENCH_mac_throughput.json: every point gains the line-rate
    // headline fields (gbps, pkts_per_sec, vs_link_rate_2_5gbps) ----
    let points = results.iter().map(|(m, ppi)| {
        let gbps = m.bytes_per_sec() * 8.0 / 1e9;
        let Json::Obj(mut fields) = m.to_json() else {
            unreachable!("a summary row is an object")
        };
        fields.push(("gbps".to_string(), gbps.to_json()));
        fields.push((
            "pkts_per_sec".to_string(),
            (*ppi as f64 * 1e9 / m.median_ns).to_json(),
        ));
        fields.push((
            "vs_link_rate_2_5gbps".to_string(),
            (gbps / LINK_RATE_GBPS).to_json(),
        ));
        Json::Obj(fields)
    });
    let doc = bench_doc(
        "mac_throughput",
        seed,
        config.to_json([
            (
                "payload_sizes",
                Json::arr(SIZES.iter().map(|&s| (s as u64).to_json())),
            ),
            (
                "message_lens",
                Json::arr(msg_lens.iter().map(|&l| (l as u64).to_json())),
            ),
            (
                "simd_groups",
                Json::arr(
                    ["crc32", "crc16", "umac", "aead"]
                        .iter()
                        .map(|g| g.to_json()),
                ),
            ),
            ("lanes", Json::arr([1u64, 4].iter().map(|&l| l.to_json()))),
            ("link_rate_gbps", LINK_RATE_GBPS.to_json()),
            ("simd_active", (caps.any() as u64).to_json()),
            ("cpu_hz", cpu_hz.to_json()),
            ("smoke", smoke.to_json()),
        ]),
        points.collect(),
    );
    let path = write_bench_json("mac_throughput", &doc).expect("write BENCH_mac_throughput.json");
    println!("wrote {}", path.display());
}
