//! Self-monitoring: the compact health digest each daemon samples about
//! itself, gossips piggybacked on SWIM traffic, and serves merged at
//! `GET /v1/cluster/health`.
//!
//! The digest is deliberately tiny (tens of bytes, hard-capped by
//! [`HEALTH_DIGEST_MAX_BYTES`]) because it rides on *every* outgoing
//! failure-detector message — the same zero-extra-messages trick trace
//! contexts use. It is also wire-versioned with an explicit payload
//! length, so a newer daemon can append fields without breaking older
//! peers: decoders read the fields they know and skip the rest.

use std::time::Duration;

use moara_wire::{take, Wire, WireError};

/// Current digest wire version. Version 0 is reserved as invalid so a
/// zeroed buffer can never parse as a digest.
pub const HEALTH_WIRE_VERSION: u8 = 1;

/// Hard cap on an encoded digest. SWIM messages are latency-critical
/// (a fat piggyback would show up as probe jitter), so a digest that
/// would exceed this is dropped rather than attached — enforced by the
/// sampler, asserted in tests.
pub const HEALTH_DIGEST_MAX_BYTES: usize = 160;

/// Sentinel for [`HealthSummary::cache_hit_bp`]: the result cache is
/// disabled or has served no lookups yet.
pub const CACHE_RATIO_NONE: u16 = u16::MAX;

/// One daemon's self-sampled health snapshot.
///
/// Everything here is either a gauge ("how things stand right now") or
/// a monotone counter ("how many times since boot") — peers render it
/// directly and the alert engine diffs counters across samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthSummary {
    /// The sampling node.
    pub node: u32,
    /// Its SWIM incarnation at sampling time (a restart shows as a jump).
    pub incarnation: u64,
    /// Seconds since the daemon booted.
    pub uptime_s: u64,
    /// Event-loop tick work-time p99 in microseconds (sleep
    /// excluded), the single best "is this daemon degrading" number.
    pub tick_p99_us: u64,
    /// Ticks whose work time crossed `--stall-threshold-ms` since boot.
    pub stalled_ticks: u64,
    /// Gateway jobs accepted by reactor shards but not yet drained by
    /// the event loop (the GwJob channel depth).
    pub queued_jobs: u32,
    /// HTTP connections currently registered with reactor shards.
    pub open_conns: u32,
    /// SSE watch streams currently parked on the reactor.
    pub open_streams: u32,
    /// Standing watches fronted by this daemon.
    pub watches: u32,
    /// Standing-subscription entries hosted on this node's trees.
    pub sub_entries: u32,
    /// Result-cache hit ratio in basis points (0–10000), or
    /// [`CACHE_RATIO_NONE`] when the cache is off or unused.
    pub cache_hit_bp: u16,
    /// Resident set size in bytes (`/proc/self/statm`).
    pub rss_bytes: u64,
    /// Open file descriptors (`/proc/self/fd`).
    pub open_fds: u32,
    /// Queries submitted here still waiting for their outcome.
    pub queries_inflight: u32,
    /// Alert rules currently firing on this daemon.
    pub alerts_firing: u32,
}

impl HealthSummary {
    /// Result-cache hit ratio as a percentage, if known.
    pub fn cache_hit_pct(&self) -> Option<f64> {
        (self.cache_hit_bp != CACHE_RATIO_NONE).then(|| f64::from(self.cache_hit_bp) / 100.0)
    }
}

impl Wire for HealthSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        HEALTH_WIRE_VERSION.encode(out);
        // Explicit payload length: older decoders skip fields a newer
        // sampler appended.
        let payload_len = self.encoded_len() - 3;
        (payload_len as u16).encode(out);
        self.node.encode(out);
        self.incarnation.encode(out);
        self.uptime_s.encode(out);
        self.tick_p99_us.encode(out);
        self.stalled_ticks.encode(out);
        self.queued_jobs.encode(out);
        self.open_conns.encode(out);
        self.open_streams.encode(out);
        self.watches.encode(out);
        self.sub_entries.encode(out);
        self.cache_hit_bp.encode(out);
        self.rss_bytes.encode(out);
        self.open_fds.encode(out);
        self.queries_inflight.encode(out);
        self.alerts_firing.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let version = u8::decode(buf)?;
        if version == 0 {
            return Err(WireError::Invalid("health digest version"));
        }
        let payload_len = u16::decode(buf)? as usize;
        let mut payload = take(buf, payload_len)?;
        let p = &mut payload;
        Ok(HealthSummary {
            node: Wire::decode(p)?,
            incarnation: Wire::decode(p)?,
            uptime_s: Wire::decode(p)?,
            tick_p99_us: Wire::decode(p)?,
            stalled_ticks: Wire::decode(p)?,
            queued_jobs: Wire::decode(p)?,
            open_conns: Wire::decode(p)?,
            open_streams: Wire::decode(p)?,
            watches: Wire::decode(p)?,
            sub_entries: Wire::decode(p)?,
            cache_hit_bp: Wire::decode(p)?,
            rss_bytes: Wire::decode(p)?,
            open_fds: Wire::decode(p)?,
            queries_inflight: Wire::decode(p)?,
            alerts_firing: Wire::decode(p)?,
            // Remaining payload bytes belong to a newer version: skipped.
        })
    }
    fn encoded_len(&self) -> usize {
        1 + 2 // version + payload length
            + 4 + 8 + 8 + 8 + 8 // node..stalled_ticks
            + 4 + 4 + 4 + 4 + 4 // queued_jobs..sub_entries
            + 2 + 8 + 4 + 4 + 4 // cache_hit_bp..alerts_firing
    }
}

/// How fresh a peer's digest is, as served in the merged health table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthStatus {
    /// A recent digest is held.
    Ok = 0,
    /// The member is believed alive but its digest is old or absent
    /// (partitioned, or gossip has not reached us yet).
    Stale = 1,
    /// The member's failure was confirmed by SWIM.
    Dead = 2,
}

impl HealthStatus {
    /// Stable lowercase name (JSON, `moara-cli top`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Stale => "stale",
            HealthStatus::Dead => "dead",
        }
    }
}

impl Wire for HealthStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u8).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => HealthStatus::Ok,
            1 => HealthStatus::Stale,
            2 => HealthStatus::Dead,
            _ => return Err(WireError::Invalid("health status tag")),
        })
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

/// One row of the merged cluster-health table: a member, how fresh our
/// knowledge of it is, and its last digest (if any ever arrived).
#[derive(Clone, Debug, PartialEq)]
pub struct PeerHealthRow {
    /// The member.
    pub node: u32,
    /// Digest freshness / liveness.
    pub status: HealthStatus,
    /// Milliseconds since its digest arrived; `u64::MAX` when no digest
    /// was ever received.
    pub age_ms: u64,
    /// The last digest received (the serving daemon's own row carries a
    /// fresh local sample).
    pub summary: Option<HealthSummary>,
}

impl Wire for PeerHealthRow {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.status.encode(out);
        self.age_ms.encode(out);
        self.summary.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(PeerHealthRow {
            node: Wire::decode(buf)?,
            status: Wire::decode(buf)?,
            age_ms: Wire::decode(buf)?,
            summary: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        4 + 1 + 8 + self.summary.encoded_len()
    }
}

/// One firing alert, as carried on the control plane (`moara-cli top`)
/// and rendered at `GET /v1/alerts`.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertWire {
    /// The rule that fired.
    pub rule: String,
    /// The metric key the rule watches.
    pub metric: String,
    /// The observed value that crossed the threshold.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// Seconds the alert has been firing.
    pub since_s: u64,
}

impl Wire for AlertWire {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rule.encode(out);
        self.metric.encode(out);
        self.value.encode(out);
        self.threshold.encode(out);
        self.since_s.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(AlertWire {
            rule: Wire::decode(buf)?,
            metric: Wire::decode(buf)?,
            value: Wire::decode(buf)?,
            threshold: Wire::decode(buf)?,
            since_s: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.rule.encoded_len() + self.metric.encoded_len() + 8 + 8 + 8
    }
}

/// How long after its last digest a live member is reported `ok` before
/// flipping to `stale`, as a multiple of the SWIM probe period (digests
/// ride probe traffic, so freshness is naturally period-scaled).
pub fn stale_after(swim_period: Duration) -> Duration {
    (swim_period * 10).max(Duration::from_secs(2))
}

/// Resident set size in bytes, from `/proc/self/statm` (0 where
/// unreadable — non-Linux hosts, locked-down containers).
pub fn rss_bytes() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|pages| pages.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// Open file descriptors, from `/proc/self/fd` (0 where unreadable).
pub fn open_fds() -> u32 {
    std::fs::read_dir("/proc/self/fd").map_or(0, |dir| dir.count() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HealthSummary {
        HealthSummary {
            node: 3,
            incarnation: 2,
            uptime_s: 61,
            tick_p99_us: 800,
            stalled_ticks: 1,
            queued_jobs: 4,
            open_conns: 120,
            open_streams: 7,
            watches: 9,
            sub_entries: 31,
            cache_hit_bp: 9_250,
            rss_bytes: 48 * 1024 * 1024,
            open_fds: 64,
            queries_inflight: 2,
            alerts_firing: 1,
        }
    }

    #[test]
    fn digest_roundtrips_and_stays_under_the_cap() {
        let s = sample();
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.encoded_len());
        assert!(bytes.len() <= HEALTH_DIGEST_MAX_BYTES, "{}", bytes.len());
        assert_eq!(HealthSummary::from_bytes(&bytes).unwrap(), s);
        for cut in 0..bytes.len() {
            assert!(HealthSummary::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn digest_decode_skips_unknown_newer_fields() {
        let s = sample();
        // A "newer" sampler appended 6 extra payload bytes: bump the
        // payload length and splice them in.
        let mut bytes = s.to_bytes();
        let old_len = u16::from_le_bytes([bytes[1], bytes[2]]);
        let new_len = (old_len + 6).to_le_bytes();
        bytes[1] = new_len[0];
        bytes[2] = new_len[1];
        bytes.extend_from_slice(&[0xAA; 6]);
        assert_eq!(HealthSummary::from_bytes(&bytes).unwrap(), s);
        // Version 0 is rejected outright.
        bytes[0] = 0;
        assert_eq!(
            HealthSummary::from_bytes(&bytes),
            Err(WireError::Invalid("health digest version"))
        );
    }

    #[test]
    fn cache_ratio_sentinel_means_unknown() {
        let mut s = sample();
        assert_eq!(s.cache_hit_pct(), Some(92.5));
        s.cache_hit_bp = CACHE_RATIO_NONE;
        assert_eq!(s.cache_hit_pct(), None);
    }

    #[test]
    fn health_rows_and_alerts_roundtrip() {
        let rows = vec![
            PeerHealthRow {
                node: 0,
                status: HealthStatus::Ok,
                age_ms: 0,
                summary: Some(sample()),
            },
            PeerHealthRow {
                node: 1,
                status: HealthStatus::Stale,
                age_ms: 12_500,
                summary: Some(sample()),
            },
            PeerHealthRow {
                node: 2,
                status: HealthStatus::Dead,
                age_ms: u64::MAX,
                summary: None,
            },
        ];
        for r in &rows {
            assert_eq!(PeerHealthRow::from_bytes(&r.to_bytes()).unwrap(), *r);
        }
        let a = AlertWire {
            rule: "dead_members".into(),
            metric: "dead_members".into(),
            value: 1.0,
            threshold: 0.0,
            since_s: 3,
        };
        assert_eq!(AlertWire::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn proc_samplers_read_this_process() {
        // This test process certainly holds open fds and resident pages.
        assert!(open_fds() > 0);
        assert!(rss_bytes() > 0);
    }

    #[test]
    fn staleness_scales_with_probe_period() {
        assert_eq!(
            stale_after(Duration::from_millis(100)),
            Duration::from_secs(2)
        );
        assert_eq!(stale_after(Duration::from_secs(1)), Duration::from_secs(10));
    }
}
