//! Built-in observer sinks: per-layer histograms and the epoch-granular
//! trace recorder behind `pod replay --trace-out`, with the one codec
//! of its JSONL wire schema ([`TraceRecorder::write_jsonl`] and its
//! inverse [`TraceRecorder::read_jsonl`]).

use crate::metrics::LatencyHistogram;
use crate::obs::json::{self, push_str_escaped, Json};
use crate::obs::{Layer, StackEvent, StackObserver, StateSnapshot};
use pod_dedup::ClassKind;
use std::io::Write;

/// One [`LatencyHistogram`] per stack layer, fed by
/// [`StackEvent::LayerLatency`]. Fixed-size storage: recording never
/// allocates, so the histograms can ride the replay hot path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerHistograms {
    cache: LatencyHistogram,
    dedup: LatencyHistogram,
    disk: LatencyHistogram,
}

impl LayerHistograms {
    /// Empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram for `layer`.
    pub fn layer(&self, layer: Layer) -> &LatencyHistogram {
        match layer {
            Layer::Cache => &self.cache,
            Layer::Dedup => &self.dedup,
            Layer::Disk => &self.disk,
        }
    }

    fn layer_mut(&mut self, layer: Layer) -> &mut LatencyHistogram {
        match layer {
            Layer::Cache => &mut self.cache,
            Layer::Dedup => &mut self.dedup,
            Layer::Disk => &mut self.disk,
        }
    }

    /// Total recorded samples across all layers.
    pub fn total(&self) -> u64 {
        Layer::ALL.iter().map(|&l| self.layer(l).total()).sum()
    }

    /// Parse the `hist_<layer>` bucket arrays of a summary line: all
    /// three (28 buckets each) or none.
    fn from_json_obj(v: &Json) -> Result<Option<Self>, String> {
        let arrays = Layer::ALL.map(|layer| v.get(&format!("hist_{}", layer.name())));
        if arrays.iter().all(Option::is_none) {
            return Ok(None);
        }
        let mut hists = Self::new();
        for (layer, arr) in Layer::ALL.into_iter().zip(arrays) {
            let buckets = arr
                .and_then(Json::as_u64_array)
                .ok_or("hist_* arrays come all three or none, 28 buckets each")?;
            *hists.layer_mut(layer) = LatencyHistogram::from_buckets(buckets);
        }
        Ok(Some(hists))
    }
}

impl StackObserver for LayerHistograms {
    fn on_event(&mut self, ev: &StackEvent) {
        if let StackEvent::LayerLatency { layer, us } = *ev {
            self.layer_mut(layer).record(us);
        }
    }
}

/// An [`EpochRow`]'s counters in wire order: the one table behind
/// [`EpochRow::push_fields`], the summing and
/// [`EpochRow::from_json_obj`], so the three cannot drift apart.
///
/// Keys before the `;` are written on every row and required on read;
/// `= 0` marks the two that read as 0 when absent (they arrived with
/// the fault layer, after the first recordings). Each bracketed group
/// after the `;` is written only when its first counter is nonzero —
/// QoS tallies exist only under a serve policy and host time only
/// under profiling, so other recordings keep the older wire format —
/// and reads as 0 when absent.
macro_rules! epoch_counters {
    ($m:ident) => {
        $m! {
            requests, reads, read_hits, frag_sum, frag_reads,
            writes, cat1, cat2, cat3, unique,
            deduped_blocks, written_blocks, repartitions, swap_blocks,
            scans, scanned_chunks, faults = 0, recoveries = 0,
            cache_us, dedup_us, disk_us;
            [throttle_waits, throttle_wait_us],
            [quota_evictions, quota_evicted_fps],
            [host_ns]
        }
    };
}

/// A `u64` member of a JSONL object; `default` is what an absent key
/// reads as (`None`: the key is required).
fn counter(v: &Json, key: &str, default: Option<u64>) -> Result<u64, String> {
    match v.get(key) {
        None => default.ok_or_else(|| format!("missing \"{key}\"")),
        Some(n) => n.as_u64().ok_or_else(|| format!("bad \"{key}\"")),
    }
}

/// The optional `tenant` member of a JSONL line.
fn tenant_of(v: &Json) -> Result<Option<u16>, String> {
    v.get("tenant")
        .map(|t| {
            t.as_u64()
                .and_then(|t| u16::try_from(t).ok())
                .ok_or_else(|| "bad \"tenant\"".to_string())
        })
        .transpose()
}

/// One epoch's aggregated activity — a row of the JSONL trace (which
/// keys are written when: the `epoch_counters!` table in this module).
///
/// All counts are totals within the epoch. Disk time is attributed at
/// job completion (see [`StackEvent::LayerLatency`]), so it
/// concentrates in the drain row; per-layer *shares* belong in the
/// summary, the epochs carry the workload mix over time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochRow {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Requests completed in this epoch.
    pub requests: u64,
    /// Read requests.
    pub reads: u64,
    /// Reads fully served from cache.
    pub read_hits: u64,
    /// Physical fragments over missed reads.
    pub frag_sum: u64,
    /// Missed reads (fragmentation denominator).
    pub frag_reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Cat-1 (fully redundant sequential) writes.
    pub cat1: u64,
    /// Cat-2 (scattered partial) writes.
    pub cat2: u64,
    /// Cat-3 (contiguous partial) writes.
    pub cat3: u64,
    /// Unique writes.
    pub unique: u64,
    /// Chunks eliminated from the write stream.
    pub deduped_blocks: u64,
    /// Chunks actually written.
    pub written_blocks: u64,
    /// iCache repartitions.
    pub repartitions: u64,
    /// Swap-region blocks charged.
    pub swap_blocks: u64,
    /// Background scan passes.
    pub scans: u64,
    /// Chunks examined by background passes.
    pub scanned_chunks: u64,
    /// Faults injected by the fault layer.
    pub faults: u64,
    /// Recoveries (retries + crash-recovery passes).
    pub recoveries: u64,
    /// µs attributed to the cache layer.
    pub cache_us: u64,
    /// µs attributed to the dedup layer.
    pub dedup_us: u64,
    /// µs attributed to the disks.
    pub disk_us: u64,
    /// Requests delayed by a tenant rate limit.
    pub throttle_waits: u64,
    /// Total simulated delay added by rate limiting, µs.
    pub throttle_wait_us: u64,
    /// Quota/tier index shrinks that evicted fingerprints.
    pub quota_evictions: u64,
    /// Fingerprints evicted by quota/tier shrinks.
    pub quota_evicted_fps: u64,
    /// Host wall-clock nanoseconds attributed within the epoch;
    /// nonzero only when host profiling is on.
    pub host_ns: u64,
    /// Last state snapshot sampled within the epoch, if any. Serialized
    /// as a nested `"snap"` object in the JSONL row; the summary row
    /// carries the final snapshot of the replay.
    pub snap: Option<StateSnapshot>,
    /// Issuing tenant when the recorder is tenant-scoped (serve mode).
    /// `None` on single-stack replays: the row serializes without a
    /// `tenant` key, so pre-multi-tenant traces are byte-identical.
    pub tenant: Option<u16>,
}

impl EpochRow {
    /// Fold one event into the row's tallies; a
    /// [`StackEvent::Snapshot`] becomes the row's `snap`.
    #[inline]
    pub fn absorb(&mut self, ev: &StackEvent) {
        match *ev {
            StackEvent::ReadLookup { hit, .. } => {
                self.reads += 1;
                if hit {
                    self.read_hits += 1;
                }
            }
            StackEvent::ReadFragments { fragments, .. } => {
                self.frag_sum += fragments;
                self.frag_reads += 1;
            }
            StackEvent::WriteClassified {
                category,
                deduped_blocks,
                written_blocks,
                ..
            } => {
                self.writes += 1;
                self.deduped_blocks += deduped_blocks as u64;
                self.written_blocks += written_blocks as u64;
                match category {
                    ClassKind::FullyRedundantSequential => self.cat1 += 1,
                    ClassKind::ScatteredPartial => self.cat2 += 1,
                    ClassKind::ContiguousPartial => self.cat3 += 1,
                    ClassKind::Unique => self.unique += 1,
                }
            }
            StackEvent::Repartition { swap_blocks, .. } => {
                self.repartitions += 1;
                self.swap_blocks += swap_blocks;
            }
            StackEvent::BackgroundScan { scanned_chunks, .. } => {
                self.scans += 1;
                self.scanned_chunks += scanned_chunks;
            }
            StackEvent::FaultInjected { .. } => self.faults += 1,
            StackEvent::Recovered { .. } => self.recoveries += 1,
            StackEvent::LayerLatency { layer, us } => match layer {
                Layer::Cache => self.cache_us += us,
                Layer::Dedup => self.dedup_us += us,
                Layer::Disk => self.disk_us += us,
            },
            StackEvent::ThrottleWait { us, .. } => {
                self.throttle_waits += 1;
                self.throttle_wait_us += us;
            }
            StackEvent::QuotaEviction { victims, .. } => {
                self.quota_evictions += 1;
                self.quota_evicted_fps += victims;
            }
            StackEvent::Snapshot { snap } => self.snap = Some(snap),
            StackEvent::HostPhase { ns, .. } => self.host_ns += ns,
            StackEvent::RequestDone { .. } => self.requests += 1,
            StackEvent::Finished => {}
        }
    }

    /// Reads fully served from cache over all reads (0 when none).
    pub fn read_hit_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_hits as f64 / self.reads as f64
        }
    }

    /// Mean physical fragments per missed read (1.0 = never
    /// fragmented, and when no read missed).
    pub fn read_fragmentation(&self) -> f64 {
        if self.frag_reads == 0 {
            1.0
        } else {
            self.frag_sum as f64 / self.frag_reads as f64
        }
    }

    /// µs attributed to `layer`.
    pub fn layer_us(&self, layer: Layer) -> u64 {
        match layer {
            Layer::Cache => self.cache_us,
            Layer::Dedup => self.dedup_us,
            Layer::Disk => self.disk_us,
        }
    }

    /// `layer`'s share of the µs attributed to all layers (0 when
    /// none).
    pub fn layer_share(&self, layer: Layer) -> f64 {
        let total: u64 = Layer::ALL.iter().map(|&l| self.layer_us(l)).sum();
        if total == 0 {
            0.0
        } else {
            self.layer_us(layer) as f64 / total as f64
        }
    }

    /// Add `other`'s counters to this row, as
    /// [`checked_add`](Self::checked_add) does. Live tallies stay far
    /// below `u64::MAX` (2^64 µs is 584,000 years).
    pub(crate) fn add(&mut self, other: &EpochRow) {
        self.checked_add(other)
            .expect("row counters sum within u64");
    }

    /// Add `other`'s counters to this row (its snapshot and tenant
    /// win when set); `None` when a sum overflows `u64`.
    fn checked_add(&mut self, other: &EpochRow) -> Option<()> {
        macro_rules! sum {
            ($($key:ident $(= $d:literal)?),+; $([$($opt:ident),+]),+) => {
                $( self.$key = self.$key.checked_add(other.$key)?; )+
                $($( self.$opt = self.$opt.checked_add(other.$opt)?; )+)+
            };
        }
        epoch_counters!(sum);
        if other.snap.is_some() {
            self.snap = other.snap;
        }
        if other.tenant.is_some() {
            self.tenant = other.tenant;
        }
        Some(())
    }

    fn push_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        if let Some(tenant) = self.tenant {
            let _ = write!(out, r#""tenant":{tenant},"#);
        }
        macro_rules! emit {
            ($($key:ident $(= $d:literal)?),+; $([$lead:ident $(, $rest:ident)*]),+) => {
                let mut first = true;
                $(
                    if !std::mem::replace(&mut first, false) { out.push(','); }
                    let _ = write!(out, concat!("\"", stringify!($key), "\":{}"), self.$key);
                )+
                $(
                    if self.$lead > 0 {
                        let _ = write!(out, concat!(",\"", stringify!($lead), "\":{}"), self.$lead);
                        $( let _ = write!(out, concat!(",\"", stringify!($rest), "\":{}"), self.$rest); )*
                    }
                )+
            };
        }
        epoch_counters!(emit);
        if let Some(snap) = &self.snap {
            out.push_str(r#","snap":{"#);
            snap.push_json_fields(out);
            out.push('}');
        }
    }

    /// Parse a row back from a JSONL epoch or summary line: the inverse
    /// of what the writer puts after the line's `type` (and `epoch`)
    /// keys — the counters, the optional `tenant` and the optional
    /// nested `snap`. `epoch` is left 0; extra keys are ignored.
    pub fn from_json_obj(v: &Json) -> Result<EpochRow, String> {
        let mut row = EpochRow {
            tenant: tenant_of(v)?,
            ..EpochRow::default()
        };
        macro_rules! read {
            ($($key:ident $(= $d:literal)?),+; $([$($opt:ident),+]),+) => {
                $( row.$key = counter(v, stringify!($key), None $(.or(Some($d)))?)?; )+
                $($( row.$opt = counter(v, stringify!($opt), Some(0))?; )+)+
            };
        }
        epoch_counters!(read);
        if let Some(snap) = v.get("snap") {
            row.snap = Some(StateSnapshot::from_json_obj(snap).map_err(|e| format!("snap: {e}"))?);
        }
        Ok(row)
    }
}

/// Epoch-granular time-series recorder: aggregates the event stream
/// into one [`EpochRow`] per `epoch_requests` completed requests, so
/// the exported trace is bounded by the epoch count, not the request
/// count.
///
/// The row buffer is pre-sized from the expected request count at
/// construction; recording then stays allocation-free in the steady
/// state (a pathological trace that outgrows the estimate merely grows
/// the vector — correctness never depends on the hint).
#[derive(Debug)]
pub struct TraceRecorder {
    scheme: String,
    trace: String,
    epoch_requests: u64,
    rows: Vec<EpochRow>,
    cur: EpochRow,
    cur_requests: u64,
    tenant: Option<u16>,
}

impl TraceRecorder {
    /// Build a recorder closing an epoch every `epoch_requests`
    /// requests (floored at 1), pre-sized for `expected_requests`.
    pub fn new(
        scheme: impl Into<String>,
        trace: impl Into<String>,
        epoch_requests: u64,
        expected_requests: usize,
    ) -> Self {
        let epoch_requests = epoch_requests.max(1);
        let expected_epochs = expected_requests / epoch_requests as usize + 2;
        Self {
            scheme: scheme.into(),
            trace: trace.into(),
            epoch_requests,
            rows: Vec::with_capacity(expected_epochs),
            cur: EpochRow::default(),
            cur_requests: 0,
            tenant: None,
        }
    }

    /// Scope this recorder to one tenant (serve mode): the meta header
    /// and every row it writes carry a `tenant` field. Untagged
    /// recorders serialize exactly as before, so old traces and the
    /// golden stats fixtures are untouched.
    pub fn with_tenant(mut self, tenant: u16) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// The tenant this recorder is scoped to, if any.
    pub fn tenant(&self) -> Option<u16> {
        self.tenant
    }

    /// Scheme label carried into the trace header.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Trace label carried into the trace header.
    pub fn trace(&self) -> &str {
        &self.trace
    }

    /// Requests per epoch.
    pub fn epoch_requests(&self) -> u64 {
        self.epoch_requests
    }

    /// The closed epoch rows, in time order. Complete only after the
    /// stack emitted [`StackEvent::Finished`].
    pub fn rows(&self) -> &[EpochRow] {
        &self.rows
    }

    /// Sum of every closed row — the whole-replay totals.
    pub fn totals(&self) -> EpochRow {
        // Live tallies stay far below u64::MAX (2^64 µs is 584,000
        // years), and `read_jsonl` rejects rows whose sum overflows.
        self.checked_totals().expect("epoch rows sum within u64")
    }

    fn checked_totals(&self) -> Option<EpochRow> {
        let mut total = EpochRow::default();
        for row in &self.rows {
            total.checked_add(row)?;
        }
        total.epoch = self.rows.len() as u64;
        total.tenant = self.tenant;
        Some(total)
    }

    fn flush(&mut self) {
        self.cur.epoch = self.rows.len() as u64;
        self.cur.tenant = self.tenant;
        self.rows.push(self.cur);
        self.cur = EpochRow::default();
        self.cur_requests = 0;
    }

    /// Serialize the recording as JSONL: a `meta` header, one `epoch`
    /// row per closed epoch, and a `summary` row with the totals plus
    /// (when given) the per-layer histogram buckets.
    pub fn write_jsonl(
        &self,
        out: &mut dyn Write,
        hists: Option<&LayerHistograms>,
    ) -> std::io::Result<()> {
        let mut line = String::new();
        line.push_str(r#"{"type":"meta","version":1,"scheme":"#);
        push_str_escaped(&mut line, &self.scheme);
        line.push_str(r#","trace":"#);
        push_str_escaped(&mut line, &self.trace);
        if let Some(tenant) = self.tenant {
            line.push_str(&format!(r#","tenant":{tenant}"#));
        }
        line.push_str(&format!(
            r#","epoch_requests":{},"epochs":{}}}"#,
            self.epoch_requests,
            self.rows.len()
        ));
        writeln!(out, "{line}")?;

        for row in &self.rows {
            line.clear();
            line.push_str(&format!(r#"{{"type":"epoch","epoch":{},"#, row.epoch));
            row.push_fields(&mut line);
            line.push('}');
            writeln!(out, "{line}")?;
        }

        let totals = self.totals();
        line.clear();
        line.push_str(r#"{"type":"summary","#);
        totals.push_fields(&mut line);
        if let Some(hists) = hists {
            for layer in Layer::ALL {
                line.push_str(&format!(r#","hist_{}":["#, layer.name()));
                let buckets = hists.layer(layer).buckets();
                for (i, b) in buckets.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    line.push_str(&b.to_string());
                }
                line.push(']');
            }
        }
        line.push('}');
        writeln!(out, "{line}")
    }

    /// Read a JSONL recording back: the exact inverse of
    /// [`write_jsonl`](Self::write_jsonl), one recorder (with the
    /// summary's histograms, if any) per section. The one reader of the
    /// wire schema, and it accepts what the writer produces and nothing
    /// less: a meta line opens every section and a summary closes it;
    /// epochs number 0, 1, … and match the meta line's tenant and epoch
    /// count; the summary is the checked sum of the rows; the `hist_*`
    /// arrays come all three or none. Row keys follow
    /// [`EpochRow::from_json_obj`]; blank lines are skipped.
    pub fn read_jsonl(
        jsonl: &str,
    ) -> Result<Vec<(TraceRecorder, Option<LayerHistograms>)>, String> {
        let mut sections = Vec::new();
        // The open section and the epoch count its meta line announced.
        let mut open: Option<(TraceRecorder, u64)> = None;
        let no_summary = |rec: &TraceRecorder| {
            format!("section {}/{} has no summary line", rec.scheme, rec.trace)
        };
        for (i, line) in jsonl.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", i + 1);
            let v = json::parse(line).map_err(at)?;
            let kind = v.get("type").and_then(Json::as_str);
            match (kind, open.take()) {
                (Some("meta"), Some((rec, _))) => return Err(no_summary(&rec)),
                (Some("meta"), None) => open = Some(Self::from_meta(&v).map_err(at)?),
                (Some("epoch"), Some((mut rec, epochs))) => {
                    let mut row = EpochRow::from_json_obj(&v).map_err(at)?;
                    row.epoch = counter(&v, "epoch", None).map_err(at)?;
                    if row.epoch != rec.rows.len() as u64 {
                        return Err(at(format!("epoch {} out of order", row.epoch)));
                    }
                    if row.tenant != rec.tenant {
                        return Err(at("epoch row of another tenant".into()));
                    }
                    rec.rows.push(row);
                    open = Some((rec, epochs));
                }
                (Some("summary"), Some((rec, epochs))) => {
                    let mut summary = EpochRow::from_json_obj(&v).map_err(at)?;
                    summary.epoch = rec.rows.len() as u64;
                    if summary.epoch != epochs {
                        return Err(at(format!(
                            "meta line announces {epochs} epochs, section has {}",
                            summary.epoch
                        )));
                    }
                    let totals = rec.checked_totals().ok_or_else(|| {
                        at("epoch rows overflow a u64 counter when summed".into())
                    })?;
                    if summary != totals {
                        return Err(at("summary is not the sum of the epoch rows".into()));
                    }
                    sections.push((rec, LayerHistograms::from_json_obj(&v).map_err(at)?));
                }
                (Some(kind @ ("epoch" | "summary")), None) => {
                    return Err(at(format!("{kind} before meta")))
                }
                (Some(other), _) => return Err(at(format!("unknown type \"{other}\""))),
                (None, _) => return Err(at("missing \"type\"".into())),
            }
        }
        if let Some((rec, _)) = &open {
            return Err(no_summary(rec));
        }
        if sections.is_empty() {
            return Err("trace contains no meta line".into());
        }
        Ok(sections)
    }

    /// An empty recorder from a meta line, and the epoch count the line
    /// announces.
    fn from_meta(v: &Json) -> Result<(Self, u64), String> {
        if counter(v, "version", None)? != 1 {
            return Err("unsupported \"version\"".into());
        }
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing \"{key}\""))
        };
        let mut rec = Self::new(text("scheme")?, text("trace")?, 1, 0);
        rec.epoch_requests = counter(v, "epoch_requests", None)?;
        rec.tenant = tenant_of(v)?;
        Ok((rec, counter(v, "epochs", None)?))
    }
}

impl StackObserver for TraceRecorder {
    fn on_event(&mut self, ev: &StackEvent) {
        if matches!(ev, StackEvent::Finished) {
            if self.cur_requests > 0 || self.cur != EpochRow::default() {
                self.flush();
            }
            return;
        }
        self.cur.absorb(ev);
        if let StackEvent::RequestDone { .. } = ev {
            self.cur_requests += 1;
            if self.cur_requests == self.epoch_requests {
                self.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::tests::repartition;

    fn req_done() -> StackEvent {
        StackEvent::RequestDone {
            write: false,
            measured: true,
        }
    }

    #[test]
    fn histograms_record_per_layer() {
        let mut h = LayerHistograms::new();
        h.on_event(&StackEvent::LayerLatency {
            layer: Layer::Cache,
            us: 20,
        });
        h.on_event(&StackEvent::LayerLatency {
            layer: Layer::Disk,
            us: 4_000,
        });
        h.on_event(&repartition(5)); // ignored
        assert_eq!(h.layer(Layer::Cache).total(), 1);
        assert_eq!(h.layer(Layer::Dedup).total(), 0);
        assert_eq!(h.layer(Layer::Disk).total(), 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn recorder_closes_epochs_on_request_boundaries() {
        let mut r = TraceRecorder::new("POD", "t", 2, 10);
        for i in 0..5 {
            r.on_event(&StackEvent::ReadLookup {
                hit: i % 2 == 0,
                measured: true,
            });
            r.on_event(&req_done());
        }
        r.on_event(&StackEvent::Finished);
        // 5 requests, 2 per epoch: rows of 2, 2, 1.
        assert_eq!(r.rows().len(), 3);
        assert_eq!(r.rows()[0].requests, 2);
        assert_eq!(r.rows()[2].requests, 1);
        assert_eq!(r.rows()[2].epoch, 2);
        let totals = r.totals();
        assert_eq!(totals.requests, 5);
        assert_eq!(totals.reads, 5);
        assert_eq!(totals.read_hits, 3);
    }

    #[test]
    fn recorder_flushes_eventless_tail_only_if_dirty() {
        let mut r = TraceRecorder::new("POD", "t", 4, 4);
        r.on_event(&req_done());
        r.on_event(&req_done());
        r.on_event(&req_done());
        r.on_event(&req_done());
        // Epoch closed exactly at the boundary; a clean Finished must
        // not append an empty row.
        r.on_event(&StackEvent::Finished);
        assert_eq!(r.rows().len(), 1);
        // But post-request drain activity (e.g. disk latency) gets its
        // own row.
        let mut r2 = TraceRecorder::new("POD", "t", 4, 4);
        r2.on_event(&req_done());
        r2.on_event(&StackEvent::LayerLatency {
            layer: Layer::Disk,
            us: 99,
        });
        r2.on_event(&StackEvent::Finished);
        assert_eq!(r2.rows().len(), 1);
        assert_eq!(r2.rows()[0].disk_us, 99);
    }

    #[test]
    fn jsonl_has_meta_epochs_and_summary() {
        let mut r = TraceRecorder::new("Select-Dedupe", "mail \"x\"", 1, 2);
        r.on_event(&StackEvent::WriteClassified {
            category: ClassKind::FullyRedundantSequential,
            deduped_blocks: 4,
            written_blocks: 0,
            removed: true,
            disk_index_lookups: 0,
            measured: true,
        });
        r.on_event(&StackEvent::RequestDone {
            write: true,
            measured: true,
        });
        r.on_event(&StackEvent::Finished);

        let mut hists = LayerHistograms::new();
        hists.on_event(&StackEvent::LayerLatency {
            layer: Layer::Dedup,
            us: 37,
        });

        let mut buf = Vec::new();
        r.write_jsonl(&mut buf, Some(&hists)).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 3, "meta + 1 epoch + summary:\n{text}");

        // Every line reads back with the one reader.
        let (back, back_hists) = &TraceRecorder::read_jsonl(&text).expect("reads back")[0];
        assert_eq!(back.trace(), "mail \"x\"", "escaped label round-trips");
        assert_eq!(back.rows()[0].cat1, 1);
        assert_eq!(back_hists.as_ref(), Some(&hists));
    }

    #[test]
    fn snapshot_rides_epoch_rows_and_summary() {
        let mut r = TraceRecorder::new("POD", "t", 2, 4);
        let mut snap = StateSnapshot {
            seq: 0,
            requests: 2,
            ..Default::default()
        };
        snap.icache.index_per_mille = 500;
        r.on_event(&req_done());
        r.on_event(&StackEvent::Snapshot { snap });
        r.on_event(&req_done());
        // Second epoch has no snapshot of its own.
        r.on_event(&req_done());
        r.on_event(&StackEvent::Finished);
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0].snap, Some(snap));
        assert_eq!(r.rows()[1].snap, None);
        // Totals (→ summary row) inherit the last snapshot seen.
        assert_eq!(r.totals().snap, Some(snap));

        let mut buf = Vec::new();
        r.write_jsonl(&mut buf, None).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(
            text.matches(r#""snap":{"#).count(),
            2,
            "epoch 0 and summary"
        );
        let back = &TraceRecorder::read_jsonl(&text).expect("reads back")[0].0;
        assert_eq!(
            back.rows(),
            r.rows(),
            "snapshot round-trips through the rows"
        );
    }

    #[test]
    fn epoch_requests_floor() {
        let r = TraceRecorder::new("s", "t", 0, 100);
        assert_eq!(r.epoch_requests(), 1);
    }

    #[test]
    fn tenant_scoped_recorder_tags_meta_and_rows() {
        let mut r = TraceRecorder::new("POD", "mail#2", 1, 4).with_tenant(2);
        assert_eq!(r.tenant(), Some(2));
        r.on_event(&req_done());
        r.on_event(&StackEvent::Finished);
        assert_eq!(r.rows()[0].tenant, Some(2));
        assert_eq!(r.totals().tenant, Some(2));

        let mut buf = Vec::new();
        r.write_jsonl(&mut buf, None).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let v = crate::obs::json::parse(line).expect("valid line");
            assert_eq!(
                v.get("tenant").and_then(|t| t.as_u64()),
                Some(2),
                "line {i} carries the tenant tag: {line}"
            );
        }
    }

    #[test]
    fn qos_tallies_serialize_only_when_nonzero() {
        // Policy-free rows: no QoS keys at all (pre-QoS wire format).
        let mut r = TraceRecorder::new("POD", "mail", 1, 4);
        r.on_event(&req_done());
        r.on_event(&StackEvent::Finished);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf, None).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(!text.contains("throttle"), "{text}");
        assert!(!text.contains("quota"), "{text}");

        // Throttled + quota-evicted rows carry the tallies.
        let mut r = TraceRecorder::new("POD", "mail#1", 1, 4).with_tenant(1);
        r.on_event(&StackEvent::ThrottleWait { us: 120 });
        r.on_event(&StackEvent::QuotaEviction {
            victims: 16,
            index_bytes: 4096,
        });
        r.on_event(&req_done());
        r.on_event(&StackEvent::Finished);
        assert_eq!(r.rows()[0].throttle_waits, 1);
        assert_eq!(r.rows()[0].throttle_wait_us, 120);
        assert_eq!(r.rows()[0].quota_evictions, 1);
        assert_eq!(r.rows()[0].quota_evicted_fps, 16);
        let totals = r.totals();
        assert_eq!(totals.throttle_waits, 1);
        assert_eq!(totals.quota_evicted_fps, 16);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf, None).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let back = &TraceRecorder::read_jsonl(&text).expect("reads back")[0].0;
        assert_eq!(back.rows(), r.rows(), "QoS tallies round-trip");
    }

    #[test]
    fn host_ns_serializes_only_when_nonzero() {
        // Unprofiled rows: no host key at all (pre-profiler format).
        let mut r = TraceRecorder::new("POD", "mail", 1, 4);
        r.on_event(&req_done());
        r.on_event(&StackEvent::Finished);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf, None).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(!text.contains("host_ns"), "{text}");

        // Profiled rows accumulate and serialize the tally.
        let mut r = TraceRecorder::new("POD", "mail", 1, 4);
        r.on_event(&StackEvent::HostPhase {
            phase: crate::prof::ProfPhase::CacheLookup,
            ns: 900,
        });
        r.on_event(&StackEvent::HostPhase {
            phase: crate::prof::ProfPhase::DiskRun,
            ns: 100,
        });
        r.on_event(&req_done());
        r.on_event(&StackEvent::Finished);
        assert_eq!(r.rows()[0].host_ns, 1_000);
        assert_eq!(r.totals().host_ns, 1_000);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf, None).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains(r#""host_ns":1000"#), "{text}");
        let back = &TraceRecorder::read_jsonl(&text).expect("reads back")[0].0;
        assert_eq!(back.rows(), r.rows(), "host time round-trips");
    }

    #[test]
    fn untagged_recorder_output_has_no_tenant_key() {
        // The pre-multi-tenant wire format is preserved bit for bit.
        let mut r = TraceRecorder::new("POD", "mail", 1, 4);
        r.on_event(&req_done());
        r.on_event(&StackEvent::Finished);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf, None).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(
            !text.contains("tenant"),
            "untagged recording must not mention tenants:\n{text}"
        );
    }

    /// A small tagged recording with histograms, as JSONL lines.
    fn recorded_lines() -> Vec<String> {
        let mut r = TraceRecorder::new("POD", "mail", 1, 4).with_tenant(3);
        r.on_event(&req_done());
        r.on_event(&req_done());
        r.on_event(&StackEvent::Finished);
        let mut hists = LayerHistograms::new();
        for layer in Layer::ALL {
            hists.on_event(&StackEvent::LayerLatency { layer, us: 5 });
        }
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf, Some(&hists)).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        text.lines().map(str::to_owned).collect()
    }

    #[test]
    fn reader_accepts_what_the_writer_produces_and_nothing_less() {
        let lines = recorded_lines();
        let read = |lines: &[String]| TraceRecorder::read_jsonl(&lines.join("\n"));
        // Keys that predate the fault layer read as 0; extra keys are
        // ignored.
        let old: Vec<String> = lines
            .iter()
            .map(|l| l.replace(r#","faults":0,"recoveries":0"#, r#","meteor":1"#))
            .collect();
        assert_eq!(read(&old).expect("old rows").len(), 1);

        let edit = |i: usize, from: &str, to: &str| {
            let mut lines = lines.clone();
            assert!(lines[i].contains(from), "{from} in {}", lines[i]);
            lines[i] = lines[i].replacen(from, to, 1);
            read(&lines).expect_err(&format!("{from} -> {to}"))
        };
        assert!(edit(1, r#""writes":"#, r#""writes_":"#).contains(r#"missing "writes""#));
        assert!(edit(2, r#""epoch":1"#, r#""epoch":2"#).contains("out of order"));
        assert!(edit(2, r#""tenant":3"#, r#""tenant":4"#).contains("tenant"));
        assert!(edit(0, r#""epochs":2"#, r#""epochs":3"#).contains("announces"));
        assert!(edit(3, r#""requests":2"#, r#""requests":3"#).contains("not the sum"));
        assert!(edit(3, r#""hist_disk":"#, r#""hist_x":"#).contains("all three or none"));
        assert!(edit(3, r#""hist_disk":[0,"#, r#""hist_disk":["#).contains("28 buckets"));
        assert!(edit(0, r#""version":1"#, r#""version":2"#).contains("version"));

        let cut = &lines[..3];
        assert!(read(cut).expect_err("no summary").contains("no summary"));
        assert!(read(&cut[1..])
            .expect_err("meta")
            .contains("epoch before meta"));
        assert_eq!(read(&[]).expect_err("empty"), "trace contains no meta line");
    }

    /// Each row holds 2^53, the largest integer the JSON reader takes;
    /// 2,048 of them sum past `u64::MAX`. The reader must say so, not
    /// overflow (a panic in a debug build).
    #[test]
    fn rows_summing_past_u64_are_an_error_not_an_overflow() {
        const ROWS: u64 = 2_048;
        let lines = recorded_lines();
        let mut doc = vec![lines[0].replace(r#""epochs":2"#, &format!(r#""epochs":{ROWS}"#))];
        doc.extend((0..ROWS).map(|epoch| {
            lines[1]
                .replace(r#""epoch":0"#, &format!(r#""epoch":{epoch}"#))
                .replace(
                    r#""requests":1,"#,
                    &format!(r#""requests":{},"#, 1u64 << 53),
                )
        }));
        doc.push(lines[3].clone());
        let err = TraceRecorder::read_jsonl(&doc.join("\n")).expect_err("overflowing sum");
        assert!(err.contains("overflow"), "{err}");
    }
}
