//! Table 4 as *throughput over real packets* — MB/s and cycles/byte for
//! every authentication candidate over {64 B, 1 KiB, 4 KiB} payloads,
//! comparing two tag-computation paths:
//!
//! * `oneshot`  — serialize with [`Packet::icrc_message_into`] into a
//!   reused scratch buffer, then one-shot MAC (no per-packet allocation).
//! * `stream`   — no materialization at all: walk the packet's masked
//!   header slices with [`Packet::for_each_icrc_slice`] straight through
//!   the incremental [`MacStream`] kernels.
//!
//! Both must produce the tag the allocating [`Packet::icrc_message`]
//! reference gives (asserted per algorithm and size before anything is
//! timed), and streaming UMAC must keep pace with one-shot — that is the
//! §5.2 link-rate argument: the MAC can run while the packet streams
//! through the port, with no copy.
//!
//! A second section compares the scalar kernels against the runtime-
//! dispatched SIMD paths (`IB_SIMD=off` forces both arms scalar): CRC-32
//! slicing-by-8 vs PCLMULQDQ folding, scalar vs vectorized UMAC, the
//! 4-packet multi-buffer UMAC, and the AES-GCM-style AEAD seal/open arm.
//! Every point carries `gbps`, `pkts_per_sec`, and the ratio against the
//! paper's 2.5 Gbps link rate.
//!
//! Usage: `mac_table4 [--smoke] [--seed S]`

use std::time::{Duration, Instant};

use bench::{estimate_cpu_hz, render_table, seed_arg, smoke_arg, write_bench_json};
use ib_crypto::crc::{Crc16, Crc32};
use ib_crypto::mac::{AnyMac, AuthAlgorithm, Mac};
use ib_crypto::umac::Umac;
use ib_crypto::AesGcm32;
use ib_packet::types::{Lid, PKey, Psn, Qpn};
use ib_packet::{OpCode, Packet, PacketBuilder};
use ib_runtime::bench::{BenchConfig, Harness, Measurement};
use ib_runtime::{Json, ToJson};

/// Payload sizes under test: minimum-ish, the UMAC NH chunk size, and a
/// multi-chunk jumbo frame.
const SIZES: [usize; 3] = [64, 1024, 4096];
/// Tag-computation paths, in measurement order.
const ARMS: [&str; 2] = ["oneshot", "stream"];
/// Fixed nonce: arms must agree bit-for-bit, and throughput does not
/// depend on its value.
const NONCE: u64 = 0x0001_0000_002A;

/// A sealed RC data packet carrying `len` deterministic payload bytes.
/// The two link CRCs as (group, portable slice-by-8 kernel, dispatched
/// kernel): ICRC and VCRC share one folding kernel, so they share one
/// cell shape and one kind of gate.
type CrcKernel = fn(&[u8]) -> u32;
const CRC_KERNELS: [(&str, CrcKernel, CrcKernel); 2] = [
    (
        "crc32",
        |m| Crc32::new().update_slice8(m).finalize(),
        |m| Crc32::new().update_auto(m).finalize(),
    ),
    (
        "crc16",
        |m| Crc16::new().update(m).finalize() as u32,
        |m| Crc16::new().update_auto(m).finalize() as u32,
    ),
];

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

fn stream_tag(mac: &AnyMac, packet: &Packet) -> u32 {
    let mut st = mac.stream(NONCE);
    packet.for_each_icrc_slice(|slice| st.update(slice));
    st.finalize()
}

/// The paper's Discussion argues MAC viability against this link rate.
const LINK_RATE_GBPS: f64 = 2.5;

/// Interleave `arms` sample-by-sample under one shared batch size (see
/// the timed-runs comment in `main`: a clock-frequency dip then lands on
/// every arm of the adjacent sample tuple, not on whichever arm ran
/// last). Returns one raw sample vector per arm, ns per iteration.
fn measure_paired(config: &BenchConfig, arms: &mut [Box<dyn FnMut() + '_>]) -> Vec<Vec<f64>> {
    let sample_window = config.measurement / (config.samples * arms.len() as u32);
    let mut batch: u64 = 1;
    let warmup_end = Instant::now() + config.warmup;
    loop {
        let mut slowest = Duration::ZERO;
        for run in arms.iter_mut() {
            let start = Instant::now();
            for _ in 0..batch {
                run();
            }
            slowest = slowest.max(start.elapsed());
        }
        if slowest * 10 >= sample_window && Instant::now() >= warmup_end {
            break;
        }
        if slowest * 10 < sample_window {
            batch = batch.saturating_mul(2);
        }
    }
    let mut sample_ns = vec![Vec::new(); arms.len()];
    for _ in 0..config.samples {
        for (a, run) in arms.iter_mut().enumerate() {
            let start = Instant::now();
            for _ in 0..batch {
                run();
            }
            sample_ns[a].push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
    sample_ns
}

/// One (algorithm, size) cell of the Table 4 section, in [`ARMS`] order.
fn mac_cell(config: &BenchConfig, mac: &AnyMac, packet: &Packet) -> Vec<Vec<f64>> {
    let mut scratch = Vec::new();
    let mut arms: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            packet.icrc_message_into(&mut scratch);
            std::hint::black_box(mac.tag32(NONCE, &scratch));
        }),
        Box::new(|| {
            std::hint::black_box(stream_tag(mac, packet));
        }),
    ];
    measure_paired(config, &mut arms)
}

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
    measure_paired(config, &mut arms)
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
    measure_paired(config, &mut arms)
}

/// Ascending per-sample time ratios `num[i] / den[i]`. The arms of a cell
/// run back-to-back within each sample tuple, so a clock dip hits
/// numerator and denominator almost equally and cancels — unlike
/// cross-arm floors or means, which drift apart when the throttle window
/// moves mid-cell.
fn paired_ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    let mut ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    ratios.sort_by(f64::total_cmp);
    ratios
}

fn median(sorted: &[f64]) -> f64 {
    sorted[sorted.len() / 2]
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
    let args: Vec<String> = std::env::args().collect();
    let smoke = smoke_arg(&args);
    let seed = seed_arg(&args);
    let config = if smoke {
        BenchConfig {
            warmup: Duration::from_millis(20),
            measurement: Duration::from_millis(80),
            samples: 5,
        }
    } else {
        BenchConfig {
            warmup: Duration::from_millis(200),
            measurement: Duration::from_millis(300),
            samples: 15,
        }
    };

    let mut key = [0u8; 16];
    key.copy_from_slice(&[seed.0.to_le_bytes(), (!seed.0).to_le_bytes()].concat());
    let packets: Vec<Packet> = SIZES.iter().map(|&len| packet_for(len)).collect();
    // The timed message is the ICRC message (masked headers + padded
    // payload), not just the payload.
    let msg_lens: Vec<usize> = packets.iter().map(|p| p.icrc_message().len()).collect();

    // ---- equivalence gate: both paths against the allocating reference ----
    for alg in AuthAlgorithm::ALL {
        let mac = AnyMac::new(alg, &key);
        for (packet, &msg_len) in packets.iter().zip(&msg_lens) {
            let reference = mac.tag32(NONCE, &packet.icrc_message());
            let mut scratch = Vec::new();
            packet.icrc_message_into(&mut scratch);
            assert_eq!(scratch.len(), msg_len);
            let oneshot = mac.tag32(NONCE, &scratch);
            let streamed = stream_tag(&mac, packet);
            assert_eq!(
                (reference, oneshot),
                (streamed, streamed),
                "{} / {msg_len} B: all tag paths must agree",
                alg.name()
            );
        }
    }
    println!(
        "OK: icrc_message(), oneshot and stream tags identical for every algorithm and size.\n"
    );

    // ---- timed runs ----
    // This host's clock throttles by tens of percent over seconds, so the
    // arms of each comparison are interleaved *sample by sample*: a
    // frequency dip lands on all arms of the adjacent sample tuple, not
    // on whichever arm happened to run in that window. The raw samples
    // then flow through the harness's normal statistics pipeline
    // (Tukey fences, bootstrap CI) via `Group::record`.
    let mut harness = Harness::new(config);
    // (arm, alg, payload_len, msg_len) per measurement, in push order —
    // ids are display-only (algorithm names contain '/').
    let mut meta: Vec<(&str, AuthAlgorithm, usize, usize)> = Vec::new();
    // Packets processed per iteration, one entry per recorded point (the
    // multi-buffer cells below MAC four at a time).
    let mut pkts_per_iter: Vec<u64> = Vec::new();
    // The one cell a floor reads: streaming vs one-shot UMAC at 1 KiB.
    let mut umac_1k_paths = Vec::new();
    for alg in AuthAlgorithm::ALL {
        let mac = AnyMac::new(alg, &key);
        for (i, &size) in SIZES.iter().enumerate() {
            let msg_len = msg_lens[i];
            let sample_ns = mac_cell(&config, &mac, &packets[i]);
            let id = format!("{}-{size}B", alg.name());
            for (a, &arm) in ARMS.iter().enumerate() {
                harness
                    .group(arm)
                    .throughput_bytes(msg_len as u64)
                    .record(&id, &sample_ns[a]);
                meta.push((arm, alg, size, msg_len));
                pkts_per_iter.push(1);
            }
            if (alg, size) == (AuthAlgorithm::Umac32, 1024) {
                umac_1k_paths = sample_ns;
            }
        }
    }

    // ---- SIMD dispatch section: scalar kernels vs the dispatched ones ----
    // With `IB_SIMD=off` both arms run the identical scalar code, so the
    // printed structure (and every tag) is unchanged — only the numbers
    // move. CI byte-diffs the number-normalized output both ways.
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
            for (a, arm) in ["scalar", "simd"].iter().enumerate() {
                harness
                    .group(group)
                    .throughput_bytes(msg_len as u64)
                    .record(&format!("{arm}-{size}B"), &samples[a]);
                pkts_per_iter.push(1);
            }
            simd_raw.push((group, size, samples));
        }
        {
            let samples = umac_cell(&config, &umac, msg);
            for (a, arm) in ["scalar", "simd", "x4"].iter().enumerate() {
                let id = format!("{arm}-{size}B");
                let mut group = harness.group("umac");
                if *arm == "x4" {
                    // Four messages per iteration: carry the true total so
                    // bytes/s stays comparable with the single cells.
                    group.record_with_bytes(&id, &samples[a], 4 * msg_len as u64);
                    pkts_per_iter.push(4);
                } else {
                    group
                        .throughput_bytes(msg_len as u64)
                        .record(&id, &samples[a]);
                    pkts_per_iter.push(1);
                }
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
            let samples = measure_paired(&config, &mut arms);
            drop(arms);
            for (a, arm) in ["seal", "open"].iter().enumerate() {
                harness
                    .group("aead")
                    .throughput_bytes(msg_len as u64)
                    .record(&format!("{arm}-{size}B"), &samples[a]);
                pkts_per_iter.push(1);
            }
        }
    }

    let cpu_hz = estimate_cpu_hz();
    let results = harness.results().to_vec();
    assert_eq!(results.len(), pkts_per_iter.len());
    assert!(results.len() > meta.len());
    let cell = |arm: &str, alg: AuthAlgorithm, size: usize| -> &Measurement {
        let idx = meta
            .iter()
            .position(|&(a, g, s, _)| a == arm && g == alg && s == size)
            .expect("every (arm, alg, size) was measured");
        &results[idx]
    };
    // ---- Table 4, throughput form ----
    println!(
        "\nTable 4 as throughput (estimated clock {:.2} GHz; MB/s over the ICRC message):",
        cpu_hz / 1e9
    );
    let mut trows: Vec<Vec<String>> = Vec::new();
    for alg in AuthAlgorithm::ALL {
        for (i, &size) in SIZES.iter().enumerate() {
            let msg_len = msg_lens[i];
            for &arm in &ARMS {
                let m = cell(arm, alg, size);
                let mbps = m.bytes_per_sec().unwrap_or(0.0) / 1e6;
                let cpb = m.mean_ns * 1e-9 * cpu_hz / msg_len as f64;
                trows.push(vec![
                    arm.to_string(),
                    alg.name().to_string(),
                    size.to_string(),
                    format!("{mbps:.1}"),
                    format!("{cpb:.2}"),
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &["path", "algorithm", "payload B", "MB/s", "cycles/byte"],
            &trows
        )
    );

    // ---- SIMD dispatch table (line-rate form) ----
    println!(
        "\nSIMD dispatch vs scalar (Gbps over the ICRC message; link rate {LINK_RATE_GBPS} Gbps):"
    );
    let mut srows: Vec<Vec<String>> = Vec::new();
    for (m, &ppi) in results[meta.len()..]
        .iter()
        .zip(&pkts_per_iter[meta.len()..])
    {
        let gbps = m.bytes_per_sec().unwrap_or(0.0) * 8.0 / 1e9;
        srows.push(vec![
            m.id.clone(),
            format!("{gbps:.2}"),
            format!("{:.0}", ppi as f64 * 1e9 / m.mean_ns),
            format!("{:.2}", gbps / LINK_RATE_GBPS),
        ]);
    }
    println!(
        "{}",
        render_table(&["kernel", "Gbps", "pkts/s", "x link rate"], &srows)
    );

    // ---- wall-clock floors (on paired ratios, see `hold_floor`) ----
    // Streaming UMAC keeps pace with the one-shot kernel at the NH chunk
    // size (1 KiB): the incremental state machine costs nothing material.
    // Smoke runs (5 samples over ~2 ms windows) gate structure and tag
    // equivalence in CI, not 5 %-level perf claims — widen the bars.
    let (med_bar, best_bar) = if smoke { (1.25, 1.10) } else { (1.05, 1.00) };
    // Even the paired median moves ±7 % run-to-run on this host, so the
    // gate is a disjunction: a genuine ≥5 % incremental-state overhead
    // would both push the median past the bar *and* keep streaming from
    // ever winning a paired sample.
    let umac_mac = AnyMac::new(AuthAlgorithm::Umac32, &key);
    let i_1k = SIZES.iter().position(|&s| s == 1024).expect("1 KiB cell");
    hold_floor(
        "streaming UMAC at 1 KiB keeps pace with one-shot",
        &umac_1k_paths,
        || mac_cell(&config, &umac_mac, &packets[i_1k]),
        |samples| {
            let ratios = paired_ratios(&samples[1], &samples[0]);
            let (med, best) = (median(&ratios), ratios[0]);
            let figures = format!("median paired ratio {med:.3}, best {best:.3}");
            if med <= med_bar || best <= best_bar {
                Ok(figures)
            } else {
                Err(figures)
            }
        },
    );

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
        median(&paired_ratios(&samples[0], &samples[lane])) * pkts
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
    let mut doc = harness.to_json(
        "mac_throughput",
        seed,
        Json::obj([
            (
                "payload_sizes",
                Json::arr(SIZES.iter().map(|&s| (s as u64).to_json())),
            ),
            (
                "message_lens",
                Json::arr(msg_lens.iter().map(|&l| (l as u64).to_json())),
            ),
            ("arms", Json::arr(ARMS.iter().map(|a| a.to_json()))),
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
    );
    if let Json::Obj(pairs) = &mut doc {
        let points = pairs
            .iter_mut()
            .find(|(k, _)| k == "points")
            .map(|(_, v)| v)
            .expect("document has points");
        if let Json::Arr(points) = points {
            assert_eq!(points.len(), results.len());
            for ((point, m), &ppi) in points.iter_mut().zip(&results).zip(&pkts_per_iter) {
                let gbps = m.bytes_per_sec().unwrap_or(0.0) * 8.0 / 1e9;
                if let Json::Obj(fields) = point {
                    fields.push(("gbps".to_string(), gbps.to_json()));
                    fields.push((
                        "pkts_per_sec".to_string(),
                        (ppi as f64 * 1e9 / m.mean_ns).to_json(),
                    ));
                    fields.push((
                        "vs_link_rate_2_5gbps".to_string(),
                        (gbps / LINK_RATE_GBPS).to_json(),
                    ));
                }
            }
        }
    }
    let path = write_bench_json("mac_throughput", &doc).expect("write BENCH_mac_throughput.json");
    println!("wrote {}", path.display());
}
