//! RC transport knobs, emitted as JSON so experiment configs embed them
//! next to the [`ib_sim::SimConfig`] they ride with.

use ib_runtime::{Json, ToJson};
use ib_sim::time::{MS, US};
use ib_sim::SimTime;

/// Loss-recovery strategy ablation (the fig_rdma comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetransmitMode {
    /// IBA's native behavior: a NAK or timeout rewinds to the oldest
    /// unacknowledged PSN and everything from there is resent.
    GoBackN,
    /// A NAK resends only the missing PSN; the receiver buffers
    /// ahead-of-expected packets (admitting them through the replay
    /// window out of order) and delivers once the gap heals.
    SelectiveRepeat,
}

impl RetransmitMode {
    /// Stable label for JSON / tables.
    pub fn label(self) -> &'static str {
        match self {
            RetransmitMode::GoBackN => "gbn",
            RetransmitMode::SelectiveRepeat => "sr",
        }
    }
}

/// Initial retransmission timeout, ps.
pub(crate) const RTO: SimTime = 100 * US;
/// Cap on the exponentially backed-off RTO, ps.
pub(crate) const RTO_MAX: SimTime = 2 * MS;
const _: () = assert!(RTO < RTO_MAX);
/// Coalesced ACKs: a straggler is acknowledged after this delay, ps.
pub(crate) const ACK_DELAY: SimTime = 10 * US;

/// Reliable-connection transport parameters (the timers are the
/// constants above).
///
/// There is no receive-buffer budget: a delivered SEND waits in the
/// responder's queue until [`crate::endpoint::SecureRcEndpoint::take_delivered`]
/// drains it, so the responder never answers receiver-not-ready.
///
/// The one security-critical field is [`window`](RcConfig::window): it
/// must not exceed the receive channel's replay-window depth, or a
/// genuine retransmit could age out of the window and be rejected as
/// stale. [`crate::endpoint::SecureRcEndpoint::new`] asserts this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcConfig {
    /// Maximum unacknowledged packets in flight (send window).
    pub window: u32,
    /// Consecutive timeouts without forward progress before the QP goes
    /// to the error (dead) state.
    pub max_retries: u32,
    /// Coalesce ACKs: acknowledge every n-th in-order packet immediately
    /// (and any straggler after `ACK_DELAY`).
    pub ack_coalesce: u32,
    /// First PSN of the connection.
    pub initial_psn: u32,
    /// Path MTU in bytes: messages longer than this are segmented into
    /// First/Middle/Last packets sharing one MSN.
    pub mtu: usize,
    /// Loss-recovery strategy.
    pub retransmit: RetransmitMode,
}

impl Default for RcConfig {
    fn default() -> Self {
        RcConfig {
            window: 32,
            max_retries: 10,
            ack_coalesce: 4,
            initial_psn: 0,
            mtu: 1024,
            retransmit: RetransmitMode::GoBackN,
        }
    }
}

impl RcConfig {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("window", self.window.to_json()),
            ("rto_ps", RTO.to_json()),
            ("rto_max_ps", RTO_MAX.to_json()),
            ("max_retries", self.max_retries.to_json()),
            ("ack_coalesce", self.ack_coalesce.to_json()),
            ("ack_delay_ps", ACK_DELAY.to_json()),
            ("initial_psn", self.initial_psn.to_json()),
            ("mtu", (self.mtu as u64).to_json()),
            ("retransmit", self.retransmit.label().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fit_replay_window() {
        let cfg = RcConfig::default();
        assert!(cfg.window <= 64, "send window must fit the replay window");
        assert!(cfg.ack_coalesce >= 1);
    }

    #[test]
    fn json_round_trip() {
        let cfg = RcConfig {
            window: 16,
            initial_psn: 0xFF_FFF0,
            mtu: 512,
            retransmit: RetransmitMode::SelectiveRepeat,
            ..RcConfig::default()
        };
        let text = cfg.to_json().to_string();
        let parsed = Json::parse(&text).expect("config JSON parses");
        assert_eq!(
            parsed.get("initial_psn").and_then(Json::as_u64),
            Some(0xFF_FFF0)
        );
        assert_eq!(parsed.get("retransmit").and_then(Json::as_str), Some("sr"));
        assert_eq!(parsed.to_string(), text, "writer/parser agree");
    }
}
