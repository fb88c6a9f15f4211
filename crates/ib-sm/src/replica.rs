//! One subnet-manager replica: deterministic ranked leader election,
//! epoch key rotation, and reliable key distribution with ack-driven
//! resends.
//!
//! The election is a staggered bully: replica `r`'s election timeout is
//! `election_timeout + r × stagger`, so after the leader dies the
//! lowest-rank live replica times out first, bumps the term, and claims
//! leadership; everyone else sees the claim (or the first heartbeat)
//! before their own timeout fires and adopts it. Ties are impossible
//! because ranks are unique and a claim for an equal term only wins if
//! the claimant's rank is lower. With timers driven by simulation time
//! and all peers iterated in rank order, the whole protocol is
//! bit-deterministic.
//!
//! A new leader cannot know how far its predecessor's rotation got, so
//! its first act is a fresh rotation of every partition it manages —
//! superseding any partially distributed epoch rather than trying to
//! reconstruct it. Distribution is at-least-once: the leader resends
//! `SM_KEY_REPLICATE` / `SM_KEY_UPDATE` MADs until each follower and
//! member CA acks, which tolerates management-datagram loss on the
//! fabric.

use ib_crypto::toyrsa::{PrivateKey, PublicKey};
use ib_mgmt::keymgmt::KeyEnvelope;
use ib_mgmt::{KeyEpoch, PartitionKeyManager, SecretKey};
use ib_packet::mad::Mad;
use ib_packet::types::PKey;
use ib_sim::time::US;
use ib_sim::SimTime;

use crate::wire::SmMessage;

/// A fellow replica, as seen from one replica's configuration.
#[derive(Debug, Clone)]
pub struct PeerReplica {
    /// Election rank (lower wins); doubles as the replica's identity.
    pub id: u8,
    /// HCA node index the peer lives on.
    pub node: usize,
    /// Public key replicated key versions are sealed to.
    pub pubkey: PublicKey,
}

/// A channel adapter the key plane re-keys on rotation.
#[derive(Debug, Clone)]
pub struct CaMember {
    /// HCA node index.
    pub node: usize,
    /// Public key `SM_KEY_UPDATE` envelopes are sealed to.
    pub pubkey: PublicKey,
}

/// Timer and identity knobs for one replica.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaConfig {
    /// Election rank / identity; rank 0 is the bring-up leader.
    pub id: u8,
    /// HCA node index this replica lives on.
    pub node: usize,
    /// Seed for this replica's own key minting (must differ between
    /// replicas so successive leaders never re-mint the same secret).
    pub key_seed: u64,
    /// Leader: beacon period.
    pub heartbeat_interval: SimTime,
    /// Follower: silence tolerated before claiming, before staggering.
    pub election_timeout: SimTime,
    /// Extra timeout per rank unit — serializes would-be claimants.
    pub stagger: SimTime,
    /// Leader: rotate every partition this often (0 disables rotation).
    pub rotation_period: SimTime,
    /// Leader: resend unacked key distribution this often.
    pub resend_interval: SimTime,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            id: 0,
            node: 0,
            key_seed: 1,
            heartbeat_interval: 50 * US,
            election_timeout: 200 * US,
            stagger: 100 * US,
            rotation_period: 300 * US,
            resend_interval: 100 * US,
        }
    }
}

/// Counters one replica accumulates (all messages it originated).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaStats {
    pub heartbeats_tx: u64,
    pub claims_tx: u64,
    pub replicates_tx: u64,
    pub replicate_acks_rx: u64,
    pub key_updates_tx: u64,
    pub key_update_acks_rx: u64,
    pub rotations: u64,
    pub takeovers: u64,
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
    /// Per-[`SmReplica::members`] index: CA installed the version.
    member_acked: Vec<bool>,
    last_send: SimTime,
}

impl Distribution {
    /// Complete when every member CA acked. Follower mirroring is best
    /// effort on top (resent while the distribution is live) but must
    /// not gate completion: a killed replica would otherwise pin its
    /// successor's distribution open forever.
    fn complete(&self) -> bool {
        self.member_acked.iter().all(|&a| a)
    }
}

/// One subnet-manager replica (see module docs).
#[derive(Debug)]
pub struct SmReplica {
    cfg: ReplicaConfig,
    keys: PartitionKeyManager,
    privkey: PrivateKey,
    peers: Vec<PeerReplica>,
    members: Vec<CaMember>,
    pkeys: Vec<PKey>,
    term: u64,
    leader: Option<u8>,
    alive: bool,
    last_heartbeat_rx: SimTime,
    last_heartbeat_tx: SimTime,
    next_rotation: Option<SimTime>,
    dist: Vec<Distribution>,
    tid: u64,
    /// Message counters, readable by harnesses.
    pub stats: ReplicaStats,
}

impl SmReplica {
    /// A replica at bring-up: everyone agrees rank 0 leads term 0, and
    /// only rank 0 arms its rotation timer.
    pub fn new(
        cfg: ReplicaConfig,
        peers: Vec<PeerReplica>,
        members: Vec<CaMember>,
        privkey: PrivateKey,
    ) -> Self {
        let next_rotation = (cfg.id == 0 && cfg.rotation_period > 0).then_some(cfg.rotation_period);
        SmReplica {
            keys: PartitionKeyManager::new(cfg.key_seed),
            privkey,
            peers,
            members,
            pkeys: Vec::new(),
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

    /// Register a managed partition with its agreed epoch-0 secret
    /// (distributed out of band at fabric bring-up).
    pub fn bootstrap_partition(&mut self, pkey: PKey, secret: SecretKey) {
        self.keys.install_version(pkey, KeyEpoch::ZERO, secret);
        if !self.pkeys.contains(&pkey) {
            self.pkeys.push(pkey);
        }
    }

    /// Fault injection: this replica stops speaking and listening.
    pub fn kill(&mut self) {
        self.alive = false;
    }

    /// Whether this replica currently believes it leads.
    pub fn is_leader(&self) -> bool {
        self.alive && self.leader == Some(self.cfg.id)
    }

    pub fn term(&self) -> u64 {
        self.term
    }

    /// Rank of the leader this replica follows (or itself).
    pub fn leader(&self) -> Option<u8> {
        self.leader
    }

    pub fn id(&self) -> u8 {
        self.cfg.id
    }

    pub fn node(&self) -> usize {
        self.cfg.node
    }

    /// Leader only: every started distribution is fully acked.
    pub fn distribution_complete(&self) -> bool {
        self.dist.iter().all(Distribution::complete)
    }

    /// Rotations this replica performed as leader.
    pub fn rotations(&self) -> u64 {
        self.stats.rotations
    }

    fn next_tid(&mut self) -> u64 {
        self.tid += 1;
        self.tid
    }

    fn effective_timeout(&self) -> SimTime {
        self.cfg.election_timeout + self.cfg.stagger * SimTime::from(self.cfg.id)
    }

    /// Earliest instant this replica next needs the clock to reach
    /// (heartbeat, rotation, resend, or election timeout).
    pub fn next_deadline(&self) -> Option<SimTime> {
        if !self.alive {
            return None;
        }
        if self.is_leader() {
            let mut t = self.last_heartbeat_tx + self.cfg.heartbeat_interval;
            if let Some(r) = self.next_rotation {
                t = t.min(r);
            }
            for d in &self.dist {
                if !d.complete() {
                    t = t.min(d.last_send + self.cfg.resend_interval);
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
        for pkey in self.pkeys.clone() {
            let Some((epoch, secret)) = self.keys.rotate(pkey) else {
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
                member_acked: vec![false; self.members.len()],
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
            let peer = self.peers[p].clone();
            let msg = SmMessage::ReplicateKey {
                term,
                pkey,
                epoch,
                envelope: KeyEnvelope::seal(&secret, &peer.pubkey),
            };
            let tid = self.next_tid();
            out.push((peer.node, msg.encode(tid)));
            self.stats.replicates_tx += 1;
        }
        for m in 0..self.members.len() {
            if self.dist[idx].member_acked[m] {
                continue;
            }
            let member = self.members[m].clone();
            let msg = SmMessage::KeyUpdate {
                term,
                pkey,
                epoch,
                envelope: KeyEnvelope::seal(&secret, &member.pubkey),
            };
            let tid = self.next_tid();
            out.push((member.node, msg.encode(tid)));
            self.stats.key_updates_tx += 1;
        }
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
            out.push((p.node, claim.encode(tid)));
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
            out.push((p.node, hb.encode(tid)));
            self.stats.heartbeats_tx += 1;
        }
    }

    /// Drive timers at `now`; outgoing MADs are pushed as
    /// `(destination node, mad)` pairs.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<(usize, Mad)>) {
        if !self.alive {
            return;
        }
        if self.is_leader() {
            if now.saturating_sub(self.last_heartbeat_tx) >= self.cfg.heartbeat_interval {
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
                    && now.saturating_sub(self.dist[idx].last_send) >= self.cfg.resend_interval
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
    pub fn handle(
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
                self.keys.install_version(pkey, epoch, secret);
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
                if let Some(p) = self.peers.iter().position(|p| p.id == replica) {
                    for d in &mut self.dist {
                        if d.pkey == pkey && d.epoch == epoch {
                            d.peer_acked[p] = true;
                        }
                    }
                }
            }
            SmMessage::KeyUpdateAck { pkey, epoch, node } => {
                self.stats.key_update_acks_rx += 1;
                if let Some(m) = self
                    .members
                    .iter()
                    .position(|m| m.node == usize::from(node))
                {
                    for d in &mut self.dist {
                        if d.pkey == pkey && d.epoch == epoch {
                            d.member_acked[m] = true;
                        }
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

    const PKEY: PKey = PKey(0x8001);

    /// Build a 3-replica group with one CA member; returns replicas and
    /// the member's private key.
    fn group() -> (Vec<SmReplica>, PrivateKey) {
        let keypairs: Vec<_> = (0..3u64).map(|i| generate_keypair(100 + i)).collect();
        let (member_pub, member_priv) = generate_keypair(999);
        let member = CaMember {
            node: 8,
            pubkey: member_pub,
        };
        let secret0 = SecretKey::from_seed(0xBEEF);
        let replicas = (0..3u8)
            .map(|id| {
                let peers = (0..3u8)
                    .filter(|&p| p != id)
                    .map(|p| PeerReplica {
                        id: p,
                        node: p as usize,
                        pubkey: keypairs[p as usize].0,
                    })
                    .collect();
                let cfg = ReplicaConfig {
                    id,
                    node: id as usize,
                    key_seed: 1000 + u64::from(id),
                    ..ReplicaConfig::default()
                };
                let mut r =
                    SmReplica::new(cfg, peers, vec![member.clone()], keypairs[id as usize].1);
                r.bootstrap_partition(PKEY, secret0);
                r
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
                r.keys.current(PKEY).map(|(e, _)| e),
                Some(KeyEpoch(1)),
                "rank {}",
                r.id()
            );
            assert_eq!(r.keys.secret_at(PKEY, KeyEpoch(1)), Some(secret));
        }
    }

    #[test]
    fn leader_death_elects_next_rank_and_heals_with_fresh_epoch() {
        let (mut reps, member_priv) = group();
        let period = reps[0].cfg.rotation_period;
        settle(&mut reps, period, &member_priv); // epoch 1 distributed
        reps[0].kill();
        // Rank 1 times out first (stagger) and takes over.
        let timeout = reps[1].cfg.election_timeout + reps[1].cfg.stagger;
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
        let resend = reps[0].cfg.resend_interval;
        reps[0].poll(period + resend, &mut out);
        assert!(reps[0].stats.key_updates_tx > first, "resend fired");
    }

    #[test]
    fn successive_leaders_never_remint_the_same_secret() {
        let (mut reps, member_priv) = group();
        let period = reps[0].cfg.rotation_period;
        let (_, s1) = settle(&mut reps, period, &member_priv).unwrap();
        reps[0].kill();
        let timeout = reps[1].cfg.election_timeout + reps[1].cfg.stagger;
        let (_, s2) = settle(&mut reps, period + timeout, &member_priv).unwrap();
        assert_ne!(s1, s2, "distinct key_seed per replica prevents reuse");
    }
}
