//! One subnet-manager replica: deterministic ranked leader election,
//! epoch key rotation, and reliable key distribution with ack-driven
//! resends.
//!
//! The election is a staggered bully: replica `r`'s election timeout is
//! `ELECTION_TIMEOUT + r × STAGGER`, so after the leader dies the
//! lowest-rank live replica times out first, bumps the term, and claims
//! leadership; everyone else sees the claim (or the first heartbeat)
//! before their own timeout fires and adopts it. Ties are impossible
//! because ranks are unique and a claim for an equal term only wins if
//! the claimant's rank is lower. With timers driven by simulation time
//! and all peers iterated in rank order, the whole protocol is
//! bit-deterministic.
//!
//! The state a replica replicates is one [`SubnetManager`]: the
//! partitions it rotates and their members, the CA public-key directory
//! key versions are sealed from, and the `PartitionKeyManager` the
//! versions live in. A key update goes to the rotated partition's
//! members in their definition order, and a replicated version to every
//! peer in rank order, so no send follows a hash map's order.
//!
//! A new leader cannot know how far its predecessor's rotation got, so
//! its first act is a fresh rotation of every partition it manages —
//! superseding any partially distributed epoch rather than trying to
//! reconstruct it. Distribution is at-least-once: the leader resends
//! `SM_KEY_REPLICATE` / `SM_KEY_UPDATE` MADs until each follower and
//! member CA acks, which tolerates management-datagram loss on the
//! fabric.

use ib_crypto::toyrsa::PrivateKey;
use ib_mgmt::keymgmt::KeyEnvelope;
use ib_mgmt::{KeyEpoch, SecretKey, SubnetManager};
use ib_packet::mad::Mad;
use ib_packet::types::PKey;
use ib_sim::time::US;
use ib_sim::SimTime;

use crate::wire::SmMessage;

/// Leader: beacon period.
const HEARTBEAT_INTERVAL: SimTime = 50 * US;
/// Follower: silence tolerated before claiming, before staggering.
const ELECTION_TIMEOUT: SimTime = 200 * US;
/// Extra timeout per rank unit — serializes would-be claimants.
const STAGGER: SimTime = 100 * US;
/// Leader: resend unacked key distribution this often.
const RESEND_INTERVAL: SimTime = 100 * US;

/// Identity and rotation knobs for one replica (the other timers are
/// fixed constants). The seed its keys are minted from is its
/// `SubnetManager`'s, and must differ between replicas so successive
/// leaders never re-mint the same secret.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicaConfig {
    /// Election rank and identity; rank 0 is the bring-up leader. The
    /// replica of rank `r` lives on HCA node `r` ([`node_of`]).
    pub(crate) id: u8,
    /// Leader: rotate every partition this often (0 disables rotation).
    pub(crate) rotation_period: SimTime,
}

/// The HCA node the replica of rank `id` lives on: replicas occupy the
/// first nodes of the fabric, in rank order.
pub(crate) fn node_of(id: u8) -> usize {
    usize::from(id)
}

/// Counters one replica accumulates (all messages it originated).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReplicaStats {
    pub(crate) heartbeats_tx: u64,
    pub(crate) claims_tx: u64,
    pub(crate) replicates_tx: u64,
    pub(crate) replicate_acks_rx: u64,
    pub(crate) key_updates_tx: u64,
    pub(crate) key_update_acks_rx: u64,
    pub(crate) rotations: u64,
    pub(crate) takeovers: u64,
}

/// One in-flight key distribution: the newest epoch of one partition and
/// who still has to ack it.
#[derive(Debug)]
struct Distribution {
    pkey: PKey,
    epoch: KeyEpoch,
    secret: SecretKey,
    /// Per-[`SmReplica::peers`] index: follower mirrored the version.
    peer_acked: Vec<bool>,
    /// The partition's members that have not yet installed the version,
    /// in definition order.
    unacked: Vec<usize>,
    last_send: SimTime,
}

impl Distribution {
    /// Complete when every member CA acked. Follower mirroring is best
    /// effort on top (resent while the distribution is live) but must
    /// not gate completion: a killed replica would otherwise pin its
    /// successor's distribution open forever.
    fn complete(&self) -> bool {
        self.unacked.is_empty()
    }
}

/// One subnet-manager replica (see module docs).
#[derive(Debug)]
pub(crate) struct SmReplica {
    cfg: ReplicaConfig,
    /// The replicated state: partitions, members, directory, key versions.
    pub(crate) sm: SubnetManager,
    privkey: PrivateKey,
    /// The other replicas' ranks, in rank order. The public key a
    /// replicated version is sealed to is the peer's node's, in the SM's
    /// directory.
    peers: Vec<u8>,
    term: u64,
    leader: Option<u8>,
    alive: bool,
    last_heartbeat_rx: SimTime,
    last_heartbeat_tx: SimTime,
    next_rotation: Option<SimTime>,
    dist: Vec<Distribution>,
    tid: u64,
    /// Message counters, readable by harnesses.
    pub(crate) stats: ReplicaStats,
}

impl SmReplica {
    /// A replica at bring-up, managing every partition `sm` defines with
    /// the epoch-0 secrets installed in it: everyone agrees rank 0 leads
    /// term 0, and only rank 0 arms its rotation timer.
    pub(crate) fn new(
        cfg: ReplicaConfig,
        peers: Vec<u8>,
        sm: SubnetManager,
        privkey: PrivateKey,
    ) -> Self {
        let next_rotation = (cfg.id == 0 && cfg.rotation_period > 0).then_some(cfg.rotation_period);
        SmReplica {
            sm,
            privkey,
            peers,
            term: 0,
            leader: Some(0),
            alive: true,
            last_heartbeat_rx: 0,
            last_heartbeat_tx: 0,
            next_rotation,
            dist: Vec::new(),
            tid: u64::from(cfg.id) << 56,
            stats: ReplicaStats::default(),
            cfg,
        }
    }

    /// Fault injection: this replica stops speaking and listening.
    pub(crate) fn kill(&mut self) {
        self.alive = false;
    }

    /// Whether this replica currently believes it leads.
    pub(crate) fn is_leader(&self) -> bool {
        self.alive && self.leader == Some(self.cfg.id)
    }

    pub(crate) fn term(&self) -> u64 {
        self.term
    }

    /// Rank of the leader this replica follows (or itself).
    #[cfg(test)]
    pub(crate) fn leader(&self) -> Option<u8> {
        self.leader
    }

    pub(crate) fn id(&self) -> u8 {
        self.cfg.id
    }

    pub(crate) fn node(&self) -> usize {
        node_of(self.cfg.id)
    }

    /// Leader only: every started distribution is fully acked.
    pub(crate) fn distribution_complete(&self) -> bool {
        self.dist.iter().all(Distribution::complete)
    }

    /// Rotations this replica performed as leader.
    pub(crate) fn rotations(&self) -> u64 {
        self.stats.rotations
    }

    fn next_tid(&mut self) -> u64 {
        self.tid += 1;
        self.tid
    }

    fn effective_timeout(&self) -> SimTime {
        ELECTION_TIMEOUT + STAGGER * SimTime::from(self.cfg.id)
    }

    /// Earliest instant this replica next needs the clock to reach
    /// (heartbeat, rotation, resend, or election timeout).
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        if !self.alive {
            return None;
        }
        if self.is_leader() {
            let mut t = self.last_heartbeat_tx + HEARTBEAT_INTERVAL;
            if let Some(r) = self.next_rotation {
                t = t.min(r);
            }
            for d in &self.dist {
                if !d.complete() {
                    t = t.min(d.last_send + RESEND_INTERVAL);
                }
            }
            Some(t)
        } else {
            Some(self.last_heartbeat_rx + self.effective_timeout())
        }
    }

    /// Adopt `(term, id)` if it beats what we currently follow: a higher
    /// term always wins, an equal term wins only for a lower rank.
    fn observe_leader(&mut self, now: SimTime, term: u64, id: u8) {
        let beats = term > self.term
            || (term == self.term && self.leader.is_none_or(|cur| id < cur))
            || (term == self.term && self.leader == Some(id));
        if beats {
            if self.is_leader() && id != self.cfg.id {
                // Stepped down: stop rotating until elected again.
                self.next_rotation = None;
            }
            self.term = term;
            self.leader = Some(id);
            self.last_heartbeat_rx = now;
        }
    }

    /// Rotate every managed partition to a fresh epoch and start
    /// distributing it (sealed per recipient).
    fn rotate_all(&mut self, now: SimTime, out: &mut Vec<(usize, Mad)>) {
        for p in 0..self.sm.partitions().len() {
            let pkey = self.sm.partitions()[p].pkey;
            let Some((epoch, secret)) = self.sm.keys.rotate(pkey) else {
                continue;
            };
            self.stats.rotations += 1;
            // Newest epoch supersedes any partial older distribution of
            // the same partition.
            self.dist.retain(|d| d.pkey != pkey);
            self.dist.push(Distribution {
                pkey,
                epoch,
                secret,
                peer_acked: vec![false; self.peers.len()],
                unacked: self.sm.partitions()[p].members.clone(),
                last_send: now,
            });
            self.send_distribution(self.dist.len() - 1, out);
        }
    }

    /// (Re)send the unacked portion of distribution `idx`.
    fn send_distribution(&mut self, idx: usize, out: &mut Vec<(usize, Mad)>) {
        let term = self.term;
        let (pkey, epoch, secret) = {
            let d = &self.dist[idx];
            (d.pkey, d.epoch, d.secret)
        };
        for p in 0..self.peers.len() {
            if self.dist[idx].peer_acked[p] {
                continue;
            }
            let node = node_of(self.peers[p]);
            let msg = SmMessage::ReplicateKey {
                term,
                pkey,
                epoch,
                envelope: self.seal_to(node, &secret),
            };
            let tid = self.next_tid();
            out.push((node, msg.encode(tid)));
            self.stats.replicates_tx += 1;
        }
        for m in 0..self.dist[idx].unacked.len() {
            let node = self.dist[idx].unacked[m];
            let msg = SmMessage::KeyUpdate {
                term,
                pkey,
                epoch,
                envelope: self.seal_to(node, &secret),
            };
            let tid = self.next_tid();
            out.push((node, msg.encode(tid)));
            self.stats.key_updates_tx += 1;
        }
    }

    /// `secret` sealed to `node`'s public key from the SM's directory.
    fn seal_to(&self, node: usize, secret: &SecretKey) -> KeyEnvelope {
        let key = self
            .sm
            .public_key(node)
            .expect("a recipient's key is on file");
        KeyEnvelope::seal(secret, &key)
    }

    /// Become leader of the next term: claim it, beacon immediately, and
    /// heal with a fresh rotation (we cannot know how far the dead
    /// leader's distribution got).
    fn take_over(&mut self, now: SimTime, out: &mut Vec<(usize, Mad)>) {
        self.term += 1;
        self.leader = Some(self.cfg.id);
        self.last_heartbeat_rx = now;
        self.stats.takeovers += 1;
        let claim = SmMessage::LeaderClaim {
            term: self.term,
            claimant: self.cfg.id,
        };
        for p in self.peers.clone() {
            let tid = self.next_tid();
            out.push((node_of(p), claim.encode(tid)));
            self.stats.claims_tx += 1;
        }
        self.beacon(now, out);
        if self.cfg.rotation_period > 0 {
            self.dist.clear();
            self.rotate_all(now, out);
            self.next_rotation = Some(now + self.cfg.rotation_period);
        }
    }

    fn beacon(&mut self, now: SimTime, out: &mut Vec<(usize, Mad)>) {
        self.last_heartbeat_tx = now;
        let hb = SmMessage::Heartbeat {
            term: self.term,
            leader: self.cfg.id,
        };
        for p in self.peers.clone() {
            let tid = self.next_tid();
            out.push((node_of(p), hb.encode(tid)));
            self.stats.heartbeats_tx += 1;
        }
    }

    /// Drive timers at `now`; outgoing MADs are pushed as
    /// `(destination node, mad)` pairs.
    pub(crate) fn poll(&mut self, now: SimTime, out: &mut Vec<(usize, Mad)>) {
        if !self.alive {
            return;
        }
        if self.is_leader() {
            if now.saturating_sub(self.last_heartbeat_tx) >= HEARTBEAT_INTERVAL {
                self.beacon(now, out);
            }
            if let Some(t) = self.next_rotation {
                if now >= t {
                    self.rotate_all(now, out);
                    self.next_rotation = Some(now + self.cfg.rotation_period);
                }
            }
            for idx in 0..self.dist.len() {
                if !self.dist[idx].complete()
                    && now.saturating_sub(self.dist[idx].last_send) >= RESEND_INTERVAL
                {
                    self.dist[idx].last_send = now;
                    self.send_distribution(idx, out);
                }
            }
        } else if now.saturating_sub(self.last_heartbeat_rx) >= self.effective_timeout() {
            self.take_over(now, out);
        }
    }

    /// Handle an SM-plane MAD delivered to this replica's node.
    /// `src_node` is the sender's node index (from the packet SLID).
    pub(crate) fn handle(
        &mut self,
        now: SimTime,
        src_node: usize,
        mad: &Mad,
        out: &mut Vec<(usize, Mad)>,
    ) {
        if !self.alive {
            return;
        }
        let Some(msg) = SmMessage::decode(mad) else {
            return;
        };
        match msg {
            SmMessage::Heartbeat { term, leader } => self.observe_leader(now, term, leader),
            SmMessage::LeaderClaim { term, claimant } => self.observe_leader(now, term, claimant),
            SmMessage::ReplicateKey {
                term,
                pkey,
                epoch,
                envelope,
            } => {
                let Some(secret) = envelope.open(&self.privkey) else {
                    return;
                };
                self.sm.keys.install_version(pkey, epoch, secret);
                let ack = SmMessage::ReplicateAck {
                    term,
                    pkey,
                    epoch,
                    replica: self.cfg.id,
                };
                let tid = self.next_tid();
                out.push((src_node, ack.encode(tid)));
            }
            SmMessage::ReplicateAck {
                pkey,
                epoch,
                replica,
                ..
            } => {
                self.stats.replicate_acks_rx += 1;
                if let Some(p) = self.peers.iter().position(|&p| p == replica) {
                    for d in &mut self.dist {
                        if d.pkey == pkey && d.epoch == epoch {
                            d.peer_acked[p] = true;
                        }
                    }
                }
            }
            SmMessage::KeyUpdateAck { pkey, epoch, node } => {
                self.stats.key_update_acks_rx += 1;
                for d in &mut self.dist {
                    if d.pkey == pkey && d.epoch == epoch {
                        d.unacked.retain(|&m| m != usize::from(node));
                    }
                }
            }
            // CA-side message; a replica is never a re-keyed member.
            SmMessage::KeyUpdate { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_crypto::toyrsa::generate_keypair;
    use ib_mgmt::partition::PartitionConfig;

    const PKEY: PKey = PKey(0x8001);

    /// Build a 3-replica group with one CA member; returns replicas and
    /// the member's private key.
    fn group() -> (Vec<SmReplica>, PrivateKey) {
        let keypairs: Vec<_> = (0..3u64).map(|i| generate_keypair(100 + i)).collect();
        let (member_pub, member_priv) = generate_keypair(999);
        let secret0 = SecretKey::from_seed(0xBEEF);
        let replicas = (0..3u8)
            .map(|id| {
                let peers = (0..3u8).filter(|&p| p != id).collect();
                let cfg = ReplicaConfig {
                    id,
                    rotation_period: 300 * US,
                };
                // Replicas on nodes 0-2, the member CA on node 8.
                let mut sm = SubnetManager::new(vec![(0, 0); 9], 1000 + u64::from(id));
                for (node, (public, _)) in keypairs.iter().enumerate() {
                    sm.register_public_key(node, *public);
                }
                sm.register_public_key(8, member_pub);
                sm.define_partition(PartitionConfig {
                    pkey: PKEY,
                    members: vec![8],
                });
                sm.keys.install_version(PKEY, KeyEpoch::ZERO, secret0);
                SmReplica::new(cfg, peers, sm, keypairs[id as usize].1)
            })
            .collect();
        (replicas, member_priv)
    }

    /// Deliver every queued MAD instantly (zero-latency bus) until quiet;
    /// the member CA acks every key update. Returns the member's last
    /// installed (epoch, secret).
    fn settle(
        replicas: &mut [SmReplica],
        now: SimTime,
        member_priv: &PrivateKey,
    ) -> Option<(KeyEpoch, SecretKey)> {
        let mut installed = None;
        let mut queue: Vec<(usize, usize, Mad)> = Vec::new(); // (src, dst, mad)
        let mut out = Vec::new();
        for r in replicas.iter_mut() {
            r.poll(now, &mut out);
            let src = r.node();
            queue.extend(out.drain(..).map(|(dst, mad)| (src, dst, mad)));
        }
        for _ in 0..64 {
            if queue.is_empty() {
                break;
            }
            let mut next = Vec::new();
            for (src, dst, mad) in queue.drain(..) {
                if let Some(r) = replicas.iter_mut().find(|r| r.node() == dst) {
                    r.handle(now, src, &mad, &mut out);
                    queue_from(dst, &mut out, &mut next);
                } else if dst == 8 {
                    // The member CA: install and ack.
                    if let Some(SmMessage::KeyUpdate {
                        pkey,
                        epoch,
                        envelope,
                        ..
                    }) = SmMessage::decode(&mad)
                    {
                        let secret = envelope.open(member_priv).unwrap();
                        installed = Some((epoch, secret));
                        let ack = SmMessage::KeyUpdateAck {
                            pkey,
                            epoch,
                            node: 8,
                        };
                        next.push((8, src, ack.encode(0)));
                    }
                }
            }
            queue = next;
        }
        installed
    }

    fn queue_from(src: usize, out: &mut Vec<(usize, Mad)>, queue: &mut Vec<(usize, usize, Mad)>) {
        queue.extend(out.drain(..).map(|(dst, mad)| (src, dst, mad)));
    }

    #[test]
    fn rank_zero_leads_at_bring_up_and_rotates_on_schedule() {
        let (mut reps, member_priv) = group();
        assert!(reps[0].is_leader());
        assert!(!reps[1].is_leader());
        let period = reps[0].cfg.rotation_period;
        // Before the period: heartbeats only, no rotation.
        settle(&mut reps, period - 1, &member_priv);
        assert_eq!(reps[0].rotations(), 0);
        // At the period: epoch 1 minted, replicated, and acked.
        let (epoch, secret) = settle(&mut reps, period, &member_priv).expect("member re-keyed");
        assert_eq!(epoch, KeyEpoch(1));
        assert_eq!(reps[0].rotations(), 1);
        assert!(reps[0].distribution_complete());
        // Followers mirrored the version.
        for r in &reps[1..] {
            assert_eq!(
                r.sm.keys.current(PKEY).map(|(e, _)| e),
                Some(KeyEpoch(1)),
                "rank {}",
                r.id()
            );
            assert_eq!(r.sm.keys.secret_at(PKEY, KeyEpoch(1)), Some(secret));
        }
    }

    #[test]
    fn leader_death_elects_next_rank_and_heals_with_fresh_epoch() {
        let (mut reps, member_priv) = group();
        let period = reps[0].cfg.rotation_period;
        settle(&mut reps, period, &member_priv); // epoch 1 distributed
        reps[0].kill();
        // Rank 1 times out first (stagger) and takes over.
        let timeout = ELECTION_TIMEOUT + STAGGER;
        let t = period + timeout;
        let (epoch, _) = settle(&mut reps, t, &member_priv).expect("takeover rotation");
        assert!(reps[1].is_leader());
        assert!(!reps[2].is_leader(), "rank 2 adopted rank 1's claim");
        assert_eq!(reps[2].leader(), Some(1));
        assert_eq!(epoch, KeyEpoch(2), "healing rotation supersedes epoch 1");
        assert!(reps[1].term() > 0);
        assert_eq!(reps[1].stats.takeovers, 1);
    }

    #[test]
    fn unacked_distribution_is_resent() {
        let (mut reps, _member_priv) = group();
        let period = reps[0].cfg.rotation_period;
        let mut out = Vec::new();
        reps[0].poll(period, &mut out); // rotation fires, acks never arrive
        let first = reps[0].stats.key_updates_tx;
        assert!(first > 0);
        assert!(!reps[0].distribution_complete());
        reps[0].poll(period + RESEND_INTERVAL, &mut out);
        assert!(reps[0].stats.key_updates_tx > first, "resend fired");
    }

    #[test]
    fn successive_leaders_never_remint_the_same_secret() {
        let (mut reps, member_priv) = group();
        let period = reps[0].cfg.rotation_period;
        let (_, s1) = settle(&mut reps, period, &member_priv).unwrap();
        reps[0].kill();
        let timeout = ELECTION_TIMEOUT + STAGGER;
        let (_, s2) = settle(&mut reps, period + timeout, &member_priv).unwrap();
        assert_ne!(s1, s2, "a distinct SM seed per replica prevents reuse");
    }
}
