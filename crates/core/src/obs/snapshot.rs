//! Epoch-boundary state snapshots: the `introspect()` gauges of every
//! stateful component, folded into one `Copy` struct.
//!
//! [`StorageStack`](crate::stack::StorageStack) samples a
//! [`StateSnapshot`] at every iCache epoch boundary (the request that
//! closes an epoch of `SystemConfig::icache.epoch_requests`, as the
//! iCache counts it) plus once at the end of the replay, and emits it
//! as [`StackEvent::Snapshot`] through the observer chain. Sampling is
//! allocation-free: the per-crate `introspect()` methods copy counters
//! and fixed-size histograms, never owned buffers —
//! `crates/core/tests/alloc.rs` pins this.
//!
//! [`StackEvent::Snapshot`]: crate::obs::StackEvent::Snapshot

use crate::obs::json::Json;
use pod_dedup::DedupState;
use pod_icache::ICacheState;

/// All component gauges sampled at one epoch boundary. Entirely
/// integer-valued (fractions in per-mille), so it is `Copy + Eq` like
/// every other event payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateSnapshot {
    /// 0-based snapshot sequence number within the replay.
    pub seq: u64,
    /// Requests processed when the snapshot was taken.
    pub requests: u64,
    /// iCache gauges: partition split, ghosts, cost-benefit inputs.
    pub icache: ICacheState,
    /// Dedup-engine gauges: Index table, Map table, scan backlog.
    pub dedup: DedupState,
    /// Shared-tier index target (bytes) last applied by the serving
    /// engine's shared tier; 0 when no [`ServePolicy`] is active. Off
    /// the wire when zero, so policy-free trace output is
    /// byte-identical to pre-policy recordings.
    ///
    /// [`ServePolicy`]: crate::config::ServePolicy
    pub tier_target_bytes: u64,
}

/// The flat JSON field list of a snapshot, in emission order:
/// `(key, getter)`. One table drives the writer, the parser and the
/// schema test, so the three cannot drift apart.
macro_rules! snapshot_scalars {
    ($m:ident) => {
        $m! {
            seq => seq, requests => requests,
            index_bytes => icache.index_bytes, read_bytes => icache.read_bytes,
            index_pm => icache.index_per_mille,
            icache_epochs => icache.epochs, repartitions => icache.repartitions,
            read_len => icache.read_len, read_cap => icache.read_capacity,
            read_evictions => icache.read_evictions,
            ghost_read_len => icache.ghost_read.len,
            ghost_read_cap => icache.ghost_read.capacity,
            ghost_read_hits => icache.ghost_read.hits,
            ghost_index_len => icache.ghost_index.len,
            ghost_index_cap => icache.ghost_index.capacity,
            ghost_index_hits => icache.ghost_index.hits,
            epoch_ghost_read_hits => icache.epoch_ghost_read_hits,
            epoch_ghost_index_hits => icache.epoch_ghost_index_hits,
            benefit_read_us => icache.benefit_read_us,
            benefit_index_us => icache.benefit_index_us,
            idx_entries => dedup.index.entries, idx_cap => dedup.index.capacity,
            idx_hits => dedup.index.hits, idx_misses => dedup.index.misses,
            idx_inserts => dedup.index.inserts, idx_evictions => dedup.index.evictions,
            mapped => dedup.map.mapped,
            unique_blocks => dedup.map.unique_blocks,
            shared_blocks => dedup.map.shared_blocks,
            redirected => dedup.map.redirected,
            nvram_entries => dedup.map.nvram_entries,
            nvram_bytes => dedup.map.nvram_bytes,
            journal_entries => dedup.map.journal_entries,
            ov_cap => dedup.map.overflow.capacity, ov_used => dedup.map.overflow.used,
            ov_frontier => dedup.map.overflow.frontier,
            ov_holes => dedup.map.overflow.holes,
            ov_hole_blocks => dedup.map.overflow.hole_blocks,
            ov_frag_pm => dedup.map.overflow.frag_per_mille,
            scan_backlog => dedup.scan_backlog,
            disk_index_entries => dedup.disk_index_entries
        }
    };
}

impl StateSnapshot {
    /// Append the snapshot's fields (no surrounding braces, no leading
    /// or trailing comma) to `out`: every scalar gauge plus the two
    /// 8-bucket histograms `heat` and `fan_in`.
    pub fn push_json_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        macro_rules! emit {
            ($($key:ident => $($path:ident).+),+) => {
                let mut first = true;
                $(
                    if !std::mem::replace(&mut first, false) { out.push(','); }
                    let _ = write!(out, concat!("\"", stringify!($key), "\":{}"),
                        self.$($path).+);
                )+
            };
        }
        snapshot_scalars!(emit);
        for (key, hist) in [
            ("heat", &self.dedup.index.heat),
            ("fan_in", &self.dedup.map.fan_in),
        ] {
            let _ = write!(out, ",\"{key}\":[");
            for (i, b) in hist.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push(']');
        }
        // The tier gauge is omitted when inactive (zero) so policy-free
        // output matches pre-policy recordings byte for byte; the
        // parser defaults it to zero when absent.
        if self.tier_target_bytes != 0 {
            let _ = write!(out, ",\"tier_target_bytes\":{}", self.tier_target_bytes);
        }
    }

    /// Parse a snapshot back from a parsed JSON object carrying the
    /// fields [`push_json_fields`](Self::push_json_fields) wrote
    /// (extra fields are ignored; missing or malformed ones error).
    pub fn from_json_obj(v: &Json) -> Result<StateSnapshot, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("bad snapshot field {k:?}"))
        };
        let hist = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64_array)
                .ok_or_else(|| format!("bad snapshot histogram {k:?}"))
        };
        let mut snap = StateSnapshot::default();
        macro_rules! read {
            ($($key:ident => $($path:ident).+),+) => {
                $( snap.$($path).+ = num(stringify!($key))?; )+
            };
        }
        snapshot_scalars!(read);
        snap.dedup.index.heat = hist("heat")?;
        snap.dedup.map.fan_in = hist("fan_in")?;
        // Optional tier gauge: absent in policy-free and pre-policy
        // recordings, where it is zero by definition.
        snap.tier_target_bytes = v
            .get("tier_target_bytes")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json;

    fn sample() -> StateSnapshot {
        let mut s = StateSnapshot {
            seq: 3,
            requests: 1200,
            ..Default::default()
        };
        s.icache.index_bytes = 5 << 20;
        s.icache.read_bytes = 3 << 20;
        s.icache.index_per_mille = 625;
        s.icache.epochs = 4;
        s.icache.repartitions = 2;
        s.icache.read_len = 700;
        s.icache.read_capacity = 768;
        s.icache.read_evictions = 41;
        s.icache.ghost_read.len = 12;
        s.icache.ghost_read.capacity = 2048;
        s.icache.ghost_read.hits = 9;
        s.icache.ghost_index.len = 5;
        s.icache.ghost_index.capacity = 131072;
        s.icache.ghost_index.hits = 17;
        s.icache.epoch_ghost_read_hits = 2;
        s.icache.epoch_ghost_index_hits = 6;
        s.icache.benefit_read_us = 16_000;
        s.icache.benefit_index_us = 144_000;
        s.dedup.index.entries = 100;
        s.dedup.index.capacity = 81920;
        s.dedup.index.hits = 55;
        s.dedup.index.misses = 44;
        s.dedup.index.inserts = 99;
        s.dedup.index.evictions = 1;
        s.dedup.index.heat = [1, 2, 3, 4, 5, 6, 7, 8];
        s.dedup.map.mapped = 640;
        s.dedup.map.unique_blocks = 500;
        s.dedup.map.shared_blocks = 60;
        s.dedup.map.redirected = 80;
        s.dedup.map.nvram_entries = 80;
        s.dedup.map.nvram_bytes = 1600;
        s.dedup.map.journal_entries = 85;
        s.dedup.map.fan_in = [500, 40, 20, 0, 0, 0, 0, 0];
        s.dedup.map.overflow.capacity = 4096;
        s.dedup.map.overflow.used = 30;
        s.dedup.map.overflow.frontier = 64;
        s.dedup.map.overflow.holes = 3;
        s.dedup.map.overflow.hole_blocks = 34;
        s.dedup.map.overflow.frag_per_mille = 8;
        s.dedup.scan_backlog = 7;
        s.dedup.disk_index_entries = 2345;
        s
    }

    #[test]
    fn tier_gauges_round_trip_and_stay_off_the_wire_when_zero() {
        let mut s = sample();
        let mut line = String::from("{");
        s.push_json_fields(&mut line);
        line.push('}');
        assert!(
            !line.contains("tier_"),
            "an inactive tier gauge must not serialize: {line}"
        );
        s.tier_target_bytes = 3 << 20;
        let mut line = String::from("{");
        s.push_json_fields(&mut line);
        line.push('}');
        assert!(line.ends_with(",\"tier_target_bytes\":3145728}"), "{line}");
        let v = json::parse(&line).expect("valid JSON");
        let back = StateSnapshot::from_json_obj(&v).expect("parse back");
        assert_eq!(back, s, "lossless round trip with the tier gauge");
        // Older recordings also carry a locality share after the
        // target; the key is ignored and does not survive a rewrite.
        let old = line.replace('}', ",\"tier_share_pm\":1750}");
        let v = json::parse(&old).expect("valid JSON");
        let back = StateSnapshot::from_json_obj(&v).expect("old line parses");
        assert_eq!(back, s, "the share key is ignored");
        let mut again = String::from("{");
        back.push_json_fields(&mut again);
        again.push('}');
        assert_eq!(again, line, "re-serialised without the share key");
    }

    #[test]
    fn fields_round_trip_through_json() {
        let snap = sample();
        let mut line = String::from("{");
        snap.push_json_fields(&mut line);
        line.push('}');
        let v = json::parse(&line).expect("valid JSON");
        let back = StateSnapshot::from_json_obj(&v).expect("parse back");
        assert_eq!(back, snap, "lossless round trip of {line}");
    }

    #[test]
    fn default_round_trips_too() {
        let snap = StateSnapshot::default();
        let mut line = String::from("{");
        snap.push_json_fields(&mut line);
        line.push('}');
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(StateSnapshot::from_json_obj(&v).expect("parse"), snap);
    }

    #[test]
    fn missing_or_malformed_fields_error() {
        let v = json::parse(r#"{"seq":1}"#).expect("parse");
        assert!(StateSnapshot::from_json_obj(&v).is_err(), "missing fields");
        let mut line = String::from("{");
        sample().push_json_fields(&mut line);
        line.push('}');
        let short = line.replace("\"heat\":[1,2,3,4,5,6,7,8]", "\"heat\":[1,2]");
        let v = json::parse(&short).expect("parse");
        assert!(
            StateSnapshot::from_json_obj(&v).is_err(),
            "truncated histogram rejected"
        );
    }
}
