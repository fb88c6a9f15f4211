//! The fig_rekey disruption experiment: many concurrent RC flows cross
//! the mesh while the replicated key plane rotates the partition secret
//! underneath them.
//!
//! The loop is `ib_transport::cosim`'s (see its module docs for the step
//! order and why polling only the woken endpoints is exact); this module
//! configures it with a paced fleet and supplies the hosts that are not
//! RC endpoints, as one `KeyPlane`:
//!
//! * **SM replicas** ([`SmReplica`]) on the first `replicas` nodes,
//!   heartbeating and rotating over VL-15 MADs posted through the same
//!   [`Simulator::post_host`] path the data plane uses. Each holds its
//!   own `SubnetManager` (`ib_mgmt::sm`): one partition whose members are
//!   the flows' endpoints in node order, every node's public key, and
//!   the agreed epoch-0 secret, installed rather than minted. Key updates
//!   reach each member CA as toy-RSA envelopes; the key plane opens them
//!   with the node's private key and installs the epoch into every
//!   endpoint resident on that node ([`SecureRcEndpoint::install_epoch`]).
//! * **A leader-kill fault** — at `kill_leader_at` the current leader
//!   goes silent; the staggered election elects the next rank, whose
//!   healing rotation supersedes any partially distributed epoch.
//!   Recovery is measured from the kill to the instant the new leader's
//!   distribution is fully acked, and the run does not end before it.
//!
//! The third actor is the driver's own tap, used as a **stale-epoch
//! attacker**: it captures data packets at one victim QP and re-injects
//! them after `stale_delay`. Chosen longer than `rotation_period +
//! grace`, every re-injection names a retired epoch and must be rejected
//! by the epoch layer (counted in `rejected_stale_epoch`), never admitted
//! fresh.
//!
//! Re-keying is *lazy*: senders stamp the newest installed epoch on each
//! (re)transmission, receivers honour the previous epoch for the grace
//! window, and packets caught mid-rotation heal through ordinary RC
//! retransmission — so 100% eventual delivery holds through rotations
//! and failover. Everything is bit-deterministic in `seed`;
//! `tests/golden/lock/rekey.txt` pins 1024 reports, and the unit tests
//! bound the driver's poll count by the run's activity.

use ib_crypto::toyrsa::{generate_keypair, PrivateKey};
use ib_mgmt::partition::PartitionConfig;
use ib_mgmt::{KeyEpoch, SecretKey, SubnetManager};
use ib_packet::mad::Mad;
use ib_packet::types::{Lid, PKey, Qpn};
use ib_packet::WireView;
use ib_runtime::{Json, Seed, ToJson};
use ib_security::channel::ChannelStats;
use ib_security::ChannelSecurity;
use ib_sim::time::{ps_to_us, MS, US};
use ib_sim::{HostDelivery, SimConfig, SimTime, Simulator};
use ib_transport::cosim::{Cosim, Flow, Host, Tap, Workload};
use ib_transport::{RcConfig, RdmaOp, SecureRcEndpoint};

use crate::replica::{PeerReplica, ReplicaConfig, ReplicaStats, SmReplica};
use crate::wire::{mad_of, mad_packet, SmMessage, MGMT_VL, SM_QPN};

/// The single partition every flow lives in.
const REKEY_PKEY: PKey = PKey(0x8001);

/// First data QPN; flow `i` uses `REKEY_QPN0 + i`.
const REKEY_QPN0: u32 = 8;

/// Virtual lane the data flows ride (MADs always ride VL 15).
const VL: u8 = 1;
/// Replay-window depth.
const REPLAY_WINDOW: u32 = 64;
/// Goodput-timeline bucket width.
const BUCKET: SimTime = 100 * US;
/// Safety valve: give up past this simulated instant.
const MAX_SIM_TIME: SimTime = 500 * MS;

/// Everything one fig_rekey point needs to reproduce itself.
#[derive(Debug, Clone)]
pub struct RekeyConfig {
    /// Master seed: fabric, secrets, keypairs.
    pub seed: u64,
    /// Security arm of the data channels.
    pub security: ChannelSecurity,
    /// Concurrent RC flows (each one requester + one responder QP).
    pub flows: usize,
    /// Messages each flow posts.
    pub messages: usize,
    /// Payload bytes per message (≥ 8; the first 8 carry the index).
    pub payload_len: usize,
    /// Pacing between a flow's posts (spreads traffic across rotations).
    pub post_interval: SimTime,
    /// SM replica-group size; replicas live on nodes `0..replicas`.
    pub replicas: usize,
    /// Leader rotates the partition secret this often (0 = never).
    pub rotation_period: SimTime,
    /// Receive-side grace window: how long the previous epoch still
    /// verifies after the next one is installed (0 = hard cutover).
    pub grace: SimTime,
    /// Kill the current leader at this instant (0 = no fault).
    pub kill_leader_at: SimTime,
    /// Attacker captures every n-th data packet at the victim (0 = off).
    pub stale_every: u64,
    /// Capture-to-reinjection delay; set beyond `rotation_period +
    /// grace` so replays arrive under a retired epoch.
    pub stale_delay: SimTime,
    /// Transport knobs shared by all flows.
    pub rc: RcConfig,
    /// The fabric underneath (mesh size, background load, faults).
    pub sim: SimConfig,
}

impl Default for RekeyConfig {
    fn default() -> Self {
        RekeyConfig {
            seed: 1,
            security: ChannelSecurity::AuthReplay,
            flows: 8,
            messages: 24,
            payload_len: 256,
            post_interval: 25 * US,
            replicas: 3,
            rotation_period: 150 * US,
            grace: 100 * US,
            kill_leader_at: 0,
            stale_every: 4,
            stale_delay: 600 * US,
            rc: RcConfig::default(),
            sim: SimConfig::default(),
        }
    }
}

impl RekeyConfig {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("security", self.security.label().to_json()),
            ("flows", (self.flows as u64).to_json()),
            ("messages", (self.messages as u64).to_json()),
            ("payload_len", (self.payload_len as u64).to_json()),
            ("post_interval_ps", self.post_interval.to_json()),
            ("replicas", (self.replicas as u64).to_json()),
            ("rotation_period_ps", self.rotation_period.to_json()),
            ("grace_ps", self.grace.to_json()),
            ("kill_leader_at_ps", self.kill_leader_at.to_json()),
            ("stale_every", self.stale_every.to_json()),
            ("stale_delay_ps", self.stale_delay.to_json()),
            ("vl", u64::from(VL).to_json()),
            ("rc", self.rc.to_json()),
            ("replay_window", REPLAY_WINDOW.to_json()),
            ("bucket_ps", BUCKET.to_json()),
            ("max_sim_time_ps", MAX_SIM_TIME.to_json()),
            ("sim", self.sim.to_json()),
        ])
    }
}

/// One fig_rekey data point.
#[derive(Debug, Clone)]
pub struct RekeyReport {
    /// Unique messages completed across all flows.
    pub delivered: u64,
    /// Messages posted across all flows.
    pub expected: u64,
    /// Any endpoint exhausted its retries.
    pub failed: bool,
    /// Run hit `MAX_SIM_TIME` before completing. A run the limit stops
    /// after every message was delivered and acknowledged (a stale packet
    /// still pending, say) reports `false`.
    pub timed_out: bool,
    /// Instant the last flow completed (excludes the drain tail), µs.
    pub(crate) completion_us: f64,
    /// Unique completed payload bits over the completion time.
    pub goodput_gbps: f64,
    /// Rotations leaders performed (bring-up leader + successors).
    pub rotations: u64,
    /// Highest epoch any CA node installed.
    pub final_epoch: u64,
    /// Key-update MADs leaders sent (including resends).
    pub key_updates_tx: u64,
    /// Key-update acks leaders received.
    pub(crate) key_update_acks_rx: u64,
    /// Replica-mirroring MADs leaders sent.
    pub(crate) replicates_tx: u64,
    /// Heartbeat MADs sent.
    pub(crate) heartbeats_tx: u64,
    /// Leader-claim MADs sent.
    pub(crate) claims_tx: u64,
    /// Elections won (0 unless the leader was killed).
    pub takeovers: u64,
    /// Leaders killed by fault injection.
    pub leader_kills: u64,
    /// Observed changes of the acting leader.
    pub(crate) leader_changes: u64,
    /// Kill-to-fully-redistributed time (0 if no kill), µs.
    pub time_to_recover_us: f64,
    /// Unique deliveries per `BUCKET`-wide time slot.
    pub(crate) buckets: Vec<u64>,
    /// Bucket width, µs.
    pub(crate) bucket_us: f64,
    /// min/mean delivery rate over interior buckets (1.0 = no dip).
    pub goodput_dip_frac: f64,
    /// Stale packets the attacker re-injected.
    pub stale_injected: u64,
    /// Attacker packets admitted fresh — must stay 0.
    pub stale_admitted: u64,
    /// Packets rejected because their epoch was retired (past grace).
    pub rejected_stale_epoch: u64,
    /// Packets rejected because their epoch was not yet installed
    /// (receiver ahead of sender; healed by retransmission).
    pub rejected_future_epoch: u64,
    /// Packets failing MAC/ICRC outright.
    pub rejected_auth: u64,
    /// Packets behind the PSN replay window.
    pub rejected_stale_psn: u64,
    /// Duplicates the replay windows suppressed.
    pub dup_suppressed: u64,
    /// Requester-side retransmissions across all flows.
    pub retransmits: u64,
    /// Completions whose payload failed verification.
    pub payload_mismatches: u64,
    /// Already-completed messages surfaced again.
    pub duplicates_delivered: u64,
    /// VL-15 management datagrams the fabric delivered.
    pub mgmt_delivered: u64,
    /// Total packets the fabric generated.
    pub(crate) fabric_generated: u64,
}

impl RekeyReport {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("delivered", self.delivered.to_json()),
            ("expected", self.expected.to_json()),
            ("failed", self.failed.to_json()),
            ("timed_out", self.timed_out.to_json()),
            ("completion_us", self.completion_us.to_json()),
            ("goodput_gbps", self.goodput_gbps.to_json()),
            ("rotations", self.rotations.to_json()),
            ("final_epoch", self.final_epoch.to_json()),
            ("key_updates_tx", self.key_updates_tx.to_json()),
            ("key_update_acks_rx", self.key_update_acks_rx.to_json()),
            ("replicates_tx", self.replicates_tx.to_json()),
            ("heartbeats_tx", self.heartbeats_tx.to_json()),
            ("claims_tx", self.claims_tx.to_json()),
            ("takeovers", self.takeovers.to_json()),
            ("leader_kills", self.leader_kills.to_json()),
            ("leader_changes", self.leader_changes.to_json()),
            ("time_to_recover_us", self.time_to_recover_us.to_json()),
            (
                "buckets",
                Json::arr(self.buckets.iter().map(|b| b.to_json())),
            ),
            ("bucket_us", self.bucket_us.to_json()),
            ("goodput_dip_frac", self.goodput_dip_frac.to_json()),
            ("stale_injected", self.stale_injected.to_json()),
            ("stale_admitted", self.stale_admitted.to_json()),
            ("rejected_stale_epoch", self.rejected_stale_epoch.to_json()),
            (
                "rejected_future_epoch",
                self.rejected_future_epoch.to_json(),
            ),
            ("rejected_auth", self.rejected_auth.to_json()),
            ("rejected_stale_psn", self.rejected_stale_psn.to_json()),
            ("dup_suppressed", self.dup_suppressed.to_json()),
            ("retransmits", self.retransmits.to_json()),
            ("payload_mismatches", self.payload_mismatches.to_json()),
            ("duplicates_delivered", self.duplicates_delivered.to_json()),
            ("mgmt_delivered", self.mgmt_delivered.to_json()),
            ("fabric_generated", self.fabric_generated.to_json()),
        ])
    }
}

/// The hosts of the run that are not RC endpoints: the SM replica group,
/// the fault that kills its leader, and every CA's key-update handler.
struct KeyPlane {
    replicas: Vec<SmReplica>,
    /// Per-node toy-RSA private keys a CA opens its key updates with.
    node_keys: Vec<PrivateKey>,
    /// Highest epoch each CA node installed.
    node_epoch: Vec<KeyEpoch>,
    /// 0 = no fault.
    kill_leader_at: SimTime,
    killed_at: Option<SimTime>,
    term_at_kill: u64,
    recovered_at: Option<SimTime>,
    last_leader: Option<u8>,
    leader_changes: u64,
    mad_out: Vec<(usize, Mad)>,
}

/// Post the MADs a host on node `from` queued in `out`.
fn send_mads(out: &mut Vec<(usize, Mad)>, from: usize, sim: &mut Simulator) {
    for (dst, mad) in out.drain(..) {
        let pkt = mad_packet(Lid::of_node(from), Lid::of_node(dst), &mad);
        sim.post_host(from, dst, MGMT_VL, pkt.to_bytes());
    }
}

impl Host for KeyPlane {
    fn speak(&mut self, now: SimTime, sim: &mut Simulator) {
        if self.kill_leader_at > 0 && self.killed_at.is_none() && now >= self.kill_leader_at {
            if let Some(l) = self.replicas.iter_mut().find(|r| r.is_leader()) {
                self.term_at_kill = l.term();
                l.kill();
                self.killed_at = Some(now);
            }
        }
        for r in &mut self.replicas {
            r.poll(now, &mut self.mad_out);
            send_mads(&mut self.mad_out, r.node(), sim);
        }
        // Leadership observation + recovery detection.
        if let Some(l) = self.replicas.iter().find(|r| r.is_leader()) {
            if self.last_leader != Some(l.id()) {
                self.leader_changes += u64::from(self.last_leader.is_some());
                self.last_leader = Some(l.id());
            }
            if self.killed_at.is_some()
                && self.recovered_at.is_none()
                && l.term() > self.term_at_kill
                && l.rotations() > 0
                && l.distribution_complete()
            {
                self.recovered_at = Some(now);
            }
        }
    }

    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        let kill = Some(self.kill_leader_at).filter(|&t| t > now && self.killed_at.is_none());
        self.replicas
            .iter()
            .filter_map(SmReplica::next_deadline)
            .chain(kill)
            .min()
    }

    /// Everything addressed to QP0 is the management plane's: MADs to a
    /// replica's node go to the replica; on a member CA a `KeyUpdate`
    /// re-keys every endpoint resident on the node and is acked. A MAD
    /// whose SLID names no node of the fabric is dropped unread: its ack
    /// would have nowhere to go.
    fn offer(
        &mut self,
        d: &HostDelivery,
        pkt: &WireView,
        sim: &mut Simulator,
        flows: &mut [Flow],
    ) -> bool {
        if pkt.bth.dest_qp != SM_QPN {
            return false;
        }
        let Some((src_node, mad)) = mad_of(pkt) else {
            return true;
        };
        if src_node >= sim.topology().num_nodes() {
            return true;
        }
        if let Some(rep) = self.replicas.get_mut(d.node) {
            rep.handle(d.at, src_node, &mad, &mut self.mad_out);
            send_mads(&mut self.mad_out, d.node, sim);
        } else if let Some(SmMessage::KeyUpdate {
            pkey,
            epoch,
            envelope,
            ..
        }) = SmMessage::decode(&mad)
        {
            if let Some(secret) = envelope.open(&self.node_keys[d.node]) {
                for f in flows.iter_mut() {
                    if f.src == d.node {
                        f.a.install_epoch(d.at, epoch, secret);
                    }
                    if f.dst == d.node {
                        f.b.install_epoch(d.at, epoch, secret);
                    }
                }
                self.node_epoch[d.node] = self.node_epoch[d.node].max(epoch);
                let ack = SmMessage::KeyUpdateAck {
                    pkey,
                    epoch,
                    node: d.node as u16,
                };
                self.mad_out.push((src_node, ack.encode(0)));
                send_mads(&mut self.mad_out, d.node, sim);
            }
        }
        true
    }

    /// For the kill arm, the run also waits out the election + re-key.
    fn settled(&self) -> bool {
        self.killed_at.is_none() || self.recovered_at.is_some()
    }
}

/// Run one fig_rekey point (see module docs).
pub fn run_rekey_sim(cfg: &RekeyConfig) -> RekeyReport {
    let (run, plane) = run_driver(cfg);
    report(cfg, &run, &plane)
}

/// Build the fleet and the key plane and run them to the end.
fn run_driver(cfg: &RekeyConfig) -> (Cosim, KeyPlane) {
    assert!(
        (1..=8).contains(&cfg.replicas),
        "replica group must be 1..=8"
    );
    let nodes = cfg.sim.num_nodes();
    let ca_nodes = nodes - cfg.replicas;
    assert!(ca_nodes >= 2, "need at least two CA nodes for flows");
    assert!(cfg.flows >= 1, "need at least one flow");

    let mut sim_cfg = cfg.sim.clone();
    sim_cfg.seed = Seed(cfg.seed);

    // --- Key material ------------------------------------------------
    // Epoch-0 partition secret, agreed at bring-up; per-node toy-RSA
    // keypairs the SM seals key updates to.
    let secret0 = SecretKey::from_seed(cfg.seed ^ 0x005E_C2E7);
    let (node_public, node_keys): (Vec<_>, Vec<_>) = (0..nodes)
        .map(|n| generate_keypair(cfg.seed ^ ((n as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))))
        .unzip();

    // --- Data-plane flows --------------------------------------------
    let specs: Vec<(usize, usize, RdmaOp, SimTime)> = (0..cfg.flows)
        .map(|i| {
            let src = cfg.replicas + (i % ca_nodes);
            let mut dst = cfg.replicas + ((i + 1 + i / ca_nodes) % ca_nodes);
            if dst == src {
                dst = cfg.replicas + ((dst - cfg.replicas + 1) % ca_nodes);
            }
            // Each flow's pacing phase is offset within one interval.
            let offset = cfg.post_interval * i as SimTime / cfg.flows as SimTime;
            (src, dst, RdmaOp::Send, offset)
        })
        .collect();
    let make = |qpn, lid, peer, node: &_| {
        let mut ep = SecureRcEndpoint::on_node(
            cfg.security,
            REKEY_PKEY,
            secret0,
            REPLAY_WINDOW,
            cfg.rc,
            lid,
            peer,
            qpn,
            node,
        );
        ep.set_epoch_grace(cfg.grace);
        ep
    };

    // --- SM replica group --------------------------------------------
    // Each replica holds its own copy of the subnet: the partition's
    // members are every flow's endpoints, in node order; every node's
    // public key is on file; the epoch-0 secret is installed, not minted.
    let sim = Simulator::new(sim_cfg);
    let attachments: Vec<(usize, usize)> = (0..nodes)
        .map(|n| sim.topology().host_attachment(n))
        .collect();
    let mut members: Vec<usize> = specs.iter().flat_map(|s| [s.0, s.1]).collect();
    members.sort_unstable();
    members.dedup();
    let replicas: Vec<SmReplica> = (0..cfg.replicas)
        .map(|id| {
            let mut sm =
                SubnetManager::new(attachments.clone(), cfg.seed ^ ((id as u64 + 1) << 40));
            for (node, public) in node_public.iter().enumerate() {
                sm.register_public_key(node, *public);
            }
            sm.define_partition(PartitionConfig {
                pkey: REKEY_PKEY,
                members: members.clone(),
            });
            sm.keys.install_version(REKEY_PKEY, KeyEpoch::ZERO, secret0);
            let peers = (0..cfg.replicas)
                .filter(|&p| p != id)
                .map(|p| PeerReplica {
                    id: p as u8,
                    node: p,
                })
                .collect();
            let rcfg = ReplicaConfig {
                id: id as u8,
                node: id,
                rotation_period: cfg.rotation_period,
            };
            SmReplica::new(rcfg, peers, sm, node_keys[id])
        })
        .collect();

    // --- Stale-epoch attacker: taps flow 0 at its responder -----------
    let (victim_src, victim, ..) = specs[0];
    let attack_node = (cfg.replicas..nodes)
        .find(|&n| n != victim && n != victim_src)
        .unwrap_or(victim_src);
    let tap = Tap {
        node: victim,
        qpn: Qpn(REKEY_QPN0),
        every: cfg.stale_every,
        delay: cfg.stale_delay,
        inject_from: attack_node,
    };

    let load = Workload {
        qpn0: REKEY_QPN0,
        vl: VL,
        messages: cfg.messages,
        payload_len: cfg.payload_len,
        post_interval: cfg.post_interval,
        bucket: BUCKET,
        max_sim_time: MAX_SIM_TIME,
    };
    let mut plane = KeyPlane {
        replicas,
        node_keys,
        node_epoch: vec![KeyEpoch::ZERO; nodes],
        kill_leader_at: cfg.kill_leader_at,
        killed_at: None,
        term_at_kill: 0,
        recovered_at: None,
        last_leader: None,
        leader_changes: 0,
        mad_out: Vec::new(),
    };
    let mut run = Cosim::new(sim, load, tap, specs, make);
    run.run(&mut plane);
    (run, plane)
}

/// Read the [`RekeyReport`] off a finished run.
fn report(cfg: &RekeyConfig, run: &Cosim, plane: &KeyPlane) -> RekeyReport {
    let buckets = run.ledger.buckets.clone();
    let interior = if buckets.len() >= 4 {
        &buckets[1..buckets.len() - 1]
    } else {
        &buckets[..]
    };
    let mean = interior.iter().sum::<u64>() as f64 / interior.len().max(1) as f64;
    let slowest = interior.iter().min().copied().unwrap_or(0);
    let channels = |stat: fn(&ChannelStats) -> u64| -> u64 {
        let both = run
            .flows
            .iter()
            .flat_map(|f| [f.a.channel(), f.b.channel()]);
        both.map(|c| stat(&c.stats)).sum()
    };
    let endpoints = |stat: fn(&Flow) -> u64| -> u64 { run.flows.iter().map(stat).sum() };
    let replicas = |stat: fn(&ReplicaStats) -> u64| -> u64 {
        plane.replicas.iter().map(|r| stat(&r.stats)).sum()
    };
    let fabric = run.sim.stats();
    RekeyReport {
        delivered: run.ledger.delivered,
        expected: (cfg.flows * cfg.messages) as u64,
        failed: run.failed,
        timed_out: run.timed_out,
        completion_us: ps_to_us(run.completion_ps()),
        goodput_gbps: run.goodput_gbps(),
        rotations: replicas(|s| s.rotations),
        final_epoch: u64::from(plane.node_epoch.iter().max().map_or(0, |e| e.0)),
        key_updates_tx: replicas(|s| s.key_updates_tx),
        key_update_acks_rx: replicas(|s| s.key_update_acks_rx),
        replicates_tx: replicas(|s| s.replicates_tx),
        heartbeats_tx: replicas(|s| s.heartbeats_tx),
        claims_tx: replicas(|s| s.claims_tx),
        takeovers: replicas(|s| s.takeovers),
        leader_kills: u64::from(plane.killed_at.is_some()),
        leader_changes: plane.leader_changes,
        time_to_recover_us: match (plane.killed_at, plane.recovered_at) {
            (Some(k), Some(r)) => ps_to_us(r.saturating_sub(k)),
            _ => 0.0,
        },
        buckets,
        bucket_us: ps_to_us(BUCKET),
        goodput_dip_frac: if mean > 0.0 {
            slowest as f64 / mean
        } else {
            1.0
        },
        stale_injected: run.replays_injected,
        stale_admitted: endpoints(|f| f.b.stats.dup_admitted_fresh) + run.ledger.duplicates,
        rejected_stale_epoch: channels(|s| s.rejected_stale_epoch),
        rejected_future_epoch: channels(|s| s.rejected_future_epoch),
        rejected_auth: channels(|s| s.rejected_auth),
        rejected_stale_psn: channels(|s| s.rejected_stale),
        dup_suppressed: endpoints(|f| f.a.stats.dup_suppressed + f.b.stats.dup_suppressed),
        retransmits: endpoints(|f| f.a.retransmits()),
        payload_mismatches: run.ledger.mismatches,
        duplicates_delivered: run.ledger.duplicates,
        mgmt_delivered: fabric.mgmt_delivered,
        fabric_generated: fabric.generated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_mgmt::keymgmt::KeyEnvelope;
    use ib_packet::Packet;

    fn base() -> RekeyConfig {
        let mut cfg = RekeyConfig {
            flows: 4,
            messages: 16,
            payload_len: 128,
            post_interval: 20 * US,
            rotation_period: 120 * US,
            grace: 80 * US,
            stale_every: 3,
            stale_delay: 400 * US,
            ..RekeyConfig::default()
        };
        cfg.sim.duration = 2 * MS;
        cfg.sim.warmup = 200 * US;
        cfg
    }

    #[test]
    fn rotation_under_load_delivers_everything() {
        let r = run_rekey_sim(&base());
        assert_eq!(r.delivered, r.expected, "100% eventual delivery");
        assert!(!r.failed && !r.timed_out);
        assert_eq!(r.payload_mismatches, 0);
        assert!(r.rotations >= 1, "the leader rotated under load");
        assert!(r.final_epoch >= 1, "CAs installed a rotated epoch");
        assert_eq!(r.stale_admitted, 0, "no stale-epoch admissions");
        assert!(r.mgmt_delivered > 0, "MADs crossed the fabric");
        assert!(r.heartbeats_tx > 0);
    }

    #[test]
    fn stale_attacker_is_rejected_by_the_epoch_layer() {
        let mut cfg = base();
        // Delay far beyond rotation + grace: every replay names a
        // retired epoch by the time it lands.
        cfg.stale_delay = 600 * US;
        cfg.stale_every = 2;
        let r = run_rekey_sim(&cfg);
        assert_eq!(r.delivered, r.expected);
        assert!(r.stale_injected > 0, "attacker was active");
        assert_eq!(r.stale_admitted, 0);
        assert!(
            r.rejected_stale_epoch > 0,
            "replays died at the epoch check, not just the PSN window"
        );
    }

    #[test]
    fn leader_kill_elects_successor_and_recovers() {
        let mut cfg = base();
        cfg.messages = 32;
        cfg.kill_leader_at = 200 * US;
        let r = run_rekey_sim(&cfg);
        assert_eq!(r.delivered, r.expected, "failover never loses messages");
        assert!(!r.failed && !r.timed_out);
        assert_eq!(r.leader_kills, 1);
        assert!(r.takeovers >= 1, "a successor claimed the term");
        assert!(r.leader_changes >= 1);
        assert!(
            r.time_to_recover_us > 0.0,
            "re-key completed after the kill"
        );
        assert_eq!(r.stale_admitted, 0);
    }

    #[test]
    fn zero_grace_hard_cutover_still_delivers() {
        let mut cfg = base();
        cfg.grace = 0;
        let r = run_rekey_sim(&cfg);
        assert_eq!(r.delivered, r.expected, "retransmission heals cutover");
        assert!(!r.failed && !r.timed_out);
    }

    #[test]
    fn same_seed_same_report_and_json_round_trips() {
        let mut cfg = base();
        cfg.seed = 42;
        let text = cfg.to_json().to_string();
        let parsed = Json::parse(&text).expect("config JSON parses");
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(parsed.to_string(), text, "writer/parser agree");

        let a = run_rekey_sim(&cfg).to_json().to_string();
        let b = run_rekey_sim(&cfg).to_json().to_string();
        assert_eq!(a, b, "bit-identical across same-seed runs");
        let parsed = Json::parse(&a).expect("report JSON parses");
        assert_eq!(parsed.to_string(), a);

        cfg.seed = 43;
        let c = run_rekey_sim(&cfg).to_json().to_string();
        assert_ne!(a, c, "seed steers everything");
    }

    /// The complexity gate: the loop's work follows what happened in the
    /// run, not the size of the fleet. A lossless message costs about four
    /// polls (the post, the data arrival, the ACK arrival, one timer);
    /// a sweep over every endpoint on every step costs `2 * flows * steps`
    /// (30 M at 512 flows). Counts are deterministic, so no host drift
    /// can flake this.
    #[test]
    fn polls_follow_activity_not_fleet_size() {
        for flows in [128, 512] {
            let mut cfg = RekeyConfig {
                flows,
                messages: 12,
                post_interval: 800 * US,
                replicas: 5,
                rotation_period: 2 * MS,
                grace: 2 * MS,
                kill_leader_at: 3 * MS,
                stale_every: 2,
                stale_delay: 12 * MS,
                ..RekeyConfig::default()
            };
            cfg.sim.duration = 2 * MS;
            cfg.sim.warmup = 200 * US;
            let (run, plane) = run_driver(&cfg);
            let r = report(&cfg, &run, &plane);
            assert_eq!(r.delivered, r.expected, "{flows} flows");
            assert!(!r.failed && !r.timed_out, "{flows} flows");
            assert!(
                run.polls <= 4 * run.steps,
                "{flows} flows: {} polls in {} steps",
                run.polls,
                run.steps
            );
            assert!(
                run.polls <= 8 * r.expected,
                "{flows} flows: {} polls for {} messages",
                run.polls,
                r.expected
            );
            assert!(r.rotations >= 20, "{flows} flows: the key plane rotated");
            // Keyed MACs still cached beyond each channel's live key
            // versions, summed over all channels.
            let stale_macs: usize = run
                .flows
                .iter()
                .flat_map(|f| [f.a.channel(), f.b.channel()])
                .map(|c| c.cached_macs().saturating_sub(c.live_key_versions()))
                .sum();
            assert_eq!(stale_macs, 0, "{flows} flows: retired keys' MACs evicted");
            // Each member CA derives each epoch's keyed MAC once, however
            // many endpoints it carries (one per endpoint would be 5 560
            // at 512 flows).
            let mut members: Vec<usize> = run.flows.iter().flat_map(|f| [f.src, f.dst]).collect();
            members.sort_unstable();
            members.dedup();
            let bound = members.len() as u64 * (r.final_epoch + 1);
            assert!(
                run.mac_derivations() <= bound,
                "{flows} flows: {} keyed-MAC derivations, bound {bound}",
                run.mac_derivations()
            );
        }
    }

    /// A sealed `ReplicateKey` to a replica and a sealed `KeyUpdate` to a
    /// member CA, both from SLID 0x0100 on the 16-node mesh: each would be
    /// acked toward a node the fabric does not have, which routing cannot
    /// reach. Both are dropped and nothing is posted.
    #[test]
    fn mads_from_outside_the_fabric_are_dropped() {
        let cfg = base();
        let (mut run, mut plane) = run_driver(&cfg);
        assert_eq!(run.sim.topology().num_nodes(), 16);
        let member = cfg.replicas;
        let secret = SecretKey::from_seed(7);
        let directory = &plane.replicas[0].sm;
        let sealed = |node| KeyEnvelope::seal(&secret, &directory.public_key(node).unwrap());
        let epoch = KeyEpoch(1000);
        let mads = [
            (
                0,
                SmMessage::ReplicateKey {
                    term: 1,
                    pkey: REKEY_PKEY,
                    epoch,
                    envelope: sealed(0),
                },
            ),
            (
                member,
                SmMessage::KeyUpdate {
                    term: 1,
                    pkey: REKEY_PKEY,
                    epoch,
                    envelope: sealed(member),
                },
            ),
        ];
        for (node, msg) in mads {
            let pkt = mad_packet(Lid(0x0100), Lid(node as u16 + 1), &msg.encode(1));
            let d = HostDelivery {
                at: run.sim.now(),
                node,
                bytes: pkt.to_bytes(),
            };
            let generated = run.sim.stats().generated;
            let view = Packet::parse_view(&d.bytes).expect("clean image");
            assert!(plane.offer(&d, &view, &mut run.sim, &mut run.flows));
            assert_eq!(run.sim.stats().generated, generated, "nothing posted");
        }
        assert!(
            plane.node_epoch.iter().all(|&e| e < epoch),
            "no key installed"
        );
    }
}
