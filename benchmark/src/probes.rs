//! The probe pass: inner layers the driver never calls directly, timed
//! through their public functions on inputs the workload produced.
//!
//! Each probe replays captured wire images (or a seeded stream) in passes
//! until at least [`PROBE_MIN`] has been spent and reports the median
//! pass, per unit of work. Probes run only in the traced run; the timed
//! run never pays for them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ib_crypto::toyrsa::generate_keypair;
use ib_crypto::{crc16_iba, Crc32, Umac};
use ib_mgmt::enforcement::{DptEnforcer, IfEnforcer, PartitionEnforcer, SifEnforcer};
use ib_mgmt::keymgmt::{KeyEnvelope, KeyEpoch, SecretKey};
use ib_packet::types::{Lid, PKey};
use ib_packet::Packet;
use ib_runtime::{Rng, Seed};
use ib_security::{ChannelSecurity, ReplayWindow, SecureChannel};
use ib_sim::event::{EventQueue, BUCKET_WIDTH_PS};
use ib_sm::wire::{mad_packet, parse_mad_packet};
use ib_sm::SmMessage;

use crate::gen::derive;
use crate::rc::{self, Capture};
use crate::stats::median;

/// Least time spent per probe.
const PROBE_MIN: Duration = Duration::from_millis(50);
/// Least passes per probe, so the median is one.
const MIN_PASSES: usize = 3;
/// Packets per `admit_many` / `poll_batch` burst.
const BURST: usize = 32;

/// Median nanoseconds per unit over repeated passes. A pass returns the
/// time it spent in the measured calls and the units it processed; its
/// own set-up (fresh channels, fresh endpoints) stays outside.
fn ns_per_unit(mut pass: impl FnMut() -> (Duration, u64)) -> f64 {
    let mut samples = Vec::new();
    let mut spent = Duration::ZERO;
    while spent < PROBE_MIN || samples.len() < MIN_PASSES {
        let (took, units) = pass();
        spent += took.max(Duration::from_nanos(1));
        samples.push(took.as_nanos() as f64 / units.max(1) as f64);
    }
    median(&samples)
}

/// Time one closure call as a pass over `units` units.
fn timed(units: u64, f: impl FnOnce()) -> (Duration, u64) {
    let start = Instant::now();
    f();
    (start.elapsed(), units)
}

/// The probes of an RC workload: the captured data-direction wire images
/// replayed through `ib-crypto`, `ib-packet`, `ib-security` and the batch
/// receive path of `ib-transport`.
pub fn rc_probes(capture: &Capture, seed: u64) -> Vec<(&'static str, f64)> {
    let images = &capture.data;
    assert!(!images.is_empty(), "the warm-up captured no wire image");
    let n = images.len() as u64;
    let bytes: u64 = images.iter().map(|i| i.len() as u64).sum();
    let secret = rc::secret_for(seed);
    let mut packets: Vec<Packet> = images
        .iter()
        .map(|i| Packet::parse(i).expect("captured images are clean"))
        .collect();
    let mut out = Vec::new();

    // ---- ib-crypto: the byte kernels at the workload's packet size.
    out.push((
        "ib_crypto.crc16_ns_per_byte",
        ns_per_unit(|| {
            timed(bytes, || {
                for i in images {
                    black_box(crc16_iba(black_box(i)));
                }
            })
        }),
    ));
    out.push((
        "ib_crypto.crc32_ns_per_byte",
        ns_per_unit(|| {
            timed(bytes, || {
                for i in images {
                    black_box(Crc32::new().update_auto(black_box(i)).finalize());
                }
            })
        }),
    ));
    let umac = Umac::new(&secret.0);
    out.push((
        "ib_crypto.umac_tag_ns_per_pkt",
        ns_per_unit(|| {
            timed(n, || {
                for (k, i) in images.iter().enumerate() {
                    black_box(umac.tag32(k as u64, black_box(i)));
                }
            })
        }),
    ));
    out.push((
        "ib_crypto.umac_tag_x4_ns_per_pkt",
        ns_per_unit(|| {
            let quads = images.chunks_exact(4);
            let units = quads.len() as u64 * 4;
            timed(units, || {
                for (k, q) in quads.enumerate() {
                    let k = k as u64 * 4;
                    black_box(umac.tag32_x4(
                        [k, k + 1, k + 2, k + 3],
                        [&q[0][..], &q[1][..], &q[2][..], &q[3][..]],
                    ));
                }
            })
        }),
    ));

    // ---- ib-packet: serialize, parse, and the two CRCs over a packet.
    let mut buf = Vec::new();
    out.push((
        "ib_packet.write_ns_per_pkt",
        ns_per_unit(|| {
            timed(n, || {
                for p in &packets {
                    p.write_into(&mut buf);
                    black_box(&buf);
                }
            })
        }),
    ));
    let mut shell = packets[0].clone();
    out.push((
        "ib_packet.parse_ns_per_pkt",
        ns_per_unit(|| {
            timed(n, || {
                for i in images {
                    black_box(shell.parse_into(black_box(i))).expect("clean image");
                }
            })
        }),
    ));
    out.push((
        "ib_packet.vcrc_ns_per_pkt",
        ns_per_unit(|| {
            timed(n, || {
                for p in &packets {
                    black_box(p.compute_vcrc());
                }
            })
        }),
    ));
    out.push((
        "ib_packet.icrc_ns_per_pkt",
        ns_per_unit(|| {
            timed(n, || {
                for p in &packets {
                    black_box(p.compute_icrc());
                }
            })
        }),
    ));

    // ---- ib-security: seal, admission (one by one and in bursts), and
    // the replay window alone. Admission needs a fresh window per pass so
    // every PSN is first-time.
    let channel = || {
        SecureChannel::new(
            ChannelSecurity::AuthReplay,
            rc::PKEY,
            secret,
            rc::REPLAY_WINDOW,
        )
    };
    let sealer = channel();
    out.push((
        "ib_security.seal_ns_per_pkt",
        ns_per_unit(|| {
            timed(n, || {
                for p in &mut packets {
                    sealer.seal(p).expect("keyed channel");
                }
            })
        }),
    ));
    out.push((
        "ib_security.admit_ns_per_pkt",
        ns_per_unit(|| {
            let mut rx = channel();
            let pass = timed(n, || {
                for p in &packets {
                    black_box(rx.admit(p)).expect("captured stream verifies");
                }
            });
            assert_eq!(rx.stats.fresh, n, "every captured PSN admits fresh");
            pass
        }),
    ));
    let mut verdicts = Vec::new();
    out.push((
        "ib_security.admit_many_ns_per_pkt",
        ns_per_unit(|| {
            let mut rx = channel();
            let pass = timed(n, || {
                for burst in packets.chunks(BURST) {
                    rx.admit_many(burst, &mut verdicts);
                    black_box(&verdicts);
                }
            });
            assert_eq!(rx.stats.fresh, n, "batch admission admits the same stream");
            pass
        }),
    ));
    out.push((
        "ib_security.replay_offer_ns",
        ns_per_unit(|| {
            let mut window = ReplayWindow::new(rc::REPLAY_WINDOW);
            timed(n, || {
                for p in &packets {
                    black_box(window.offer_psn(p.bth.psn.0));
                }
            })
        }),
    ));

    // ---- ib-transport: the same bursts through the one-dispatch
    // receive path, on a fresh responder per pass.
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    let mut replies: Vec<Vec<u8>> = Vec::new();
    out.push((
        "ib_transport.rx_batch_ns_per_pkt",
        ns_per_unit(|| {
            let mut b = rc::endpoint(ChannelSecurity::AuthReplay, seed, false);
            let mut delivered = 0u64;
            let start = Instant::now();
            for burst in refs.chunks(BURST) {
                b.poll_batch(0, burst, &mut replies);
                delivered += b.take_delivered().len() as u64;
                for reply in replies.drain(..) {
                    b.recycle(reply);
                }
            }
            let took = start.elapsed();
            assert_eq!(delivered, n, "the batch path delivers the captured stream");
            (took, n)
        }),
    ));
    out
}

/// `ib_sim::event`'s calendar queue under the classic hold model: a
/// steady population of pending events, each pop followed by one push a
/// random increment ahead.
pub fn sched_ns_per_op(seed: u64) -> f64 {
    const POPULATION: usize = 4096;
    const HOLDS: u64 = 200_000;
    // Increments of up to 64 buckets keep most pushes on the wheel, as
    // wire events are in the engine.
    let span = 64 * BUCKET_WIDTH_PS;
    let mut rng = Rng::from_seed(Seed(derive(seed, 0x5343_4844)));
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..POPULATION {
        queue.push(rng.gen_range(0..span), i as u64);
    }
    ns_per_unit(|| {
        timed(HOLDS, || {
            for _ in 0..HOLDS {
                let (at, ev) = queue.pop().expect("population is constant");
                queue.push(at + 1 + rng.gen_range(0..span), black_box(ev));
            }
        })
    })
}

/// `PartitionEnforcer::check` of the three designs on a seeded stream of
/// 99 % valid / 1 % invalid P_Keys arriving on an edge port.
pub fn enforcement_probes(seed: u64) -> Vec<(&'static str, f64)> {
    const STREAM: usize = 8192;
    const PORTS: usize = 5;
    const EDGE_PORT: usize = 4;
    let valid: Vec<PKey> = (0..4).map(|p| PKey(0x8001 + p)).collect();
    let invalid = PKey(0x7ABC);
    let mut rng = Rng::from_seed(Seed(derive(seed, 0x5046_4C54)));
    let stream: Vec<PKey> = (0..STREAM)
        .map(|_| {
            if rng.gen_bool(0.01) {
                invalid
            } else {
                valid[rng.gen_range(0..valid.len())]
            }
        })
        .collect();
    let mut port_keys: Vec<Option<Vec<PKey>>> = vec![None; PORTS];
    port_keys[EDGE_PORT] = Some(valid.clone());
    let mut sif = SifEnforcer::new(PORTS, u64::MAX, 8);
    // The SM has programmed the port after a trap: the filter is live.
    sif.register_invalid(0, EDGE_PORT, invalid);

    let probe = |enforcer: &mut dyn PartitionEnforcer| {
        ns_per_unit(|| {
            timed(STREAM as u64, || {
                for (now, &pkey) in stream.iter().enumerate() {
                    black_box(enforcer.check(now as u64, EDGE_PORT, true, Lid(5), pkey));
                }
            })
        })
    };
    vec![
        (
            "ib_mgmt.dpt_check_ns",
            probe(&mut DptEnforcer::new(valid.iter().copied())),
        ),
        (
            "ib_mgmt.if_check_ns",
            probe(&mut IfEnforcer::new(port_keys)),
        ),
        ("ib_mgmt.sif_check_ns", probe(&mut sif)),
    ]
}

/// The key plane's two per-MAD costs: recognising a key-update MAD in a
/// wire image, and opening its envelope with the node's private key.
pub fn key_plane_probes(seed: u64) -> Vec<(&'static str, f64)> {
    const CALLS: u64 = 2048;
    let (public, private) = generate_keypair(derive(seed, 0x4B50_4C4E));
    let envelope = KeyEnvelope::seal(&SecretKey::from_seed(derive(seed, 1)), &public);
    let update = SmMessage::KeyUpdate {
        term: 3,
        pkey: rc::PKEY,
        epoch: KeyEpoch(2),
        envelope: envelope.clone(),
    };
    let wire = mad_packet(Lid(1), Lid(9), &update.encode(77)).to_bytes();
    assert!(
        parse_mad_packet(&wire).is_some(),
        "the key-update MAD parses"
    );
    vec![
        (
            "ib_sm.mad_parse_ns",
            ns_per_unit(|| {
                timed(CALLS, || {
                    for _ in 0..CALLS {
                        black_box(parse_mad_packet(black_box(&wire)));
                    }
                })
            }),
        ),
        (
            "ib_sm.envelope_open_ns",
            ns_per_unit(|| {
                timed(CALLS, || {
                    for _ in 0..CALLS {
                        black_box(black_box(&envelope).open(&private));
                    }
                })
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    #[test]
    fn rc_probes_emit_every_named_metric_once() {
        let spec = rc::RcSpec {
            payload_len: 128,
            messages: 640,
        };
        let mut cap = Capture::default();
        rc::run(
            &spec,
            ChannelSecurity::AuthReplay,
            21,
            1,
            &mut Tracer::off(),
            Some(&mut cap),
        );
        let probes = rc_probes(&cap, 21);
        let mut names: Vec<&str> = probes.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 13);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13, "no metric twice");
        assert!(probes.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn global_probes_measure_something() {
        assert!(sched_ns_per_op(1) > 0.0);
        assert_eq!(enforcement_probes(1).len(), 3);
        assert!(key_plane_probes(1).iter().all(|(_, v)| *v > 0.0));
    }
}
