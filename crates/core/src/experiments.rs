//! Experiment drivers: one function per table/figure of the paper.
//!
//! Every function returns structured rows and can render itself as CSV;
//! the `pod-bench` crate's `figures` binary prints them all. Each driver
//! takes a `scale` (1.0 = the paper's full trace sizes; tests and CI use
//! small fractions — the *shapes* are scale-stable because the generator
//! and cache pressure scale together) and a base seed for determinism.

use crate::config::SystemConfig;
use crate::obs::{LayerHistograms, TraceRecorder};
use crate::pool::Executor;
use crate::runner::ReplayReport;
use crate::scheme::Scheme;
use pod_trace::stats::{redundancy_breakdown, size_redundancy, TraceStats};
use pod_trace::{Trace, TraceProfile};
use pod_types::PodResult;

/// Default seed used by the published artifacts.
pub const DEFAULT_SEED: u64 = 42;

/// Generate the three paper traces at `scale`.
pub fn paper_traces(scale: f64, seed: u64) -> Vec<Trace> {
    TraceProfile::paper_traces()
        .into_iter()
        .map(|p| p.scaled(scale).generate(seed))
        .collect()
}

/// Run one scheme over one trace with the paper config, surfacing
/// configuration and replay errors.
pub fn run_scheme(scheme: Scheme, trace: &Trace, cfg: &SystemConfig) -> PodResult<ReplayReport> {
    scheme.builder().config(cfg.clone()).trace(trace).run()
}

/// Run several schemes over one trace on the bounded executor.
///
/// Results come back in `schemes` order regardless of executor width,
/// so reports are byte-identical for any `--jobs` setting. The first
/// error (in `schemes` order) wins.
pub fn run_schemes(
    schemes: &[Scheme],
    trace: &Trace,
    cfg: &SystemConfig,
) -> PodResult<Vec<ReplayReport>> {
    Executor::new()
        .map(schemes, |&scheme| run_scheme(scheme, trace, cfg))
        .into_iter()
        .collect()
}

/// Like [`run_schemes`], but every replay carries a full observer
/// chain: an epoch-granular [`TraceRecorder`] (`epoch_requests` = 0
/// picks ~64 epochs automatically) and per-layer [`LayerHistograms`].
/// The sinks are extracted inside the executor closure, so only plain
/// data crosses threads; results come back in `schemes` order.
pub fn run_schemes_recorded(
    schemes: &[Scheme],
    trace: &Trace,
    cfg: &SystemConfig,
    epoch_requests: u64,
) -> PodResult<Vec<(ReplayReport, TraceRecorder, LayerHistograms)>> {
    Executor::new()
        .map(schemes, |&scheme| {
            let (report, mut chain) = scheme
                .builder()
                .config(cfg.clone())
                .trace(trace)
                .observer(LayerHistograms::new())
                .record(epoch_requests)
                .run_observed()?;
            let hists = chain
                .take_sink::<LayerHistograms>()
                .expect("histograms attached above");
            let recorder = chain
                .take_sink::<TraceRecorder>()
                .expect("recorder attached above");
            Ok((report, recorder, hists))
        })
        .into_iter()
        .collect()
}

// ---------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------

/// Table II: trace characteristics.
pub fn table2(scale: f64, seed: u64) -> Vec<TraceStats> {
    paper_traces(scale, seed)
        .iter()
        .map(TraceStats::compute)
        .collect()
}

/// Render Table II as CSV.
pub fn table2_csv(rows: &[TraceStats]) -> String {
    let mut s = String::from("trace,requests,write_ratio,avg_req_kib\n");
    for r in rows {
        s.push_str(&format!(
            "{},{},{:.3},{:.1}\n",
            r.name, r.n_requests, r.write_ratio, r.mean_request_kib
        ));
    }
    s
}

// ---------------------------------------------------------------------
// Fig. 1 — I/O redundancy by request size
// ---------------------------------------------------------------------

/// One trace's Fig. 1 panel.
#[derive(Debug, Clone)]
pub struct Fig1Panel {
    /// Trace name.
    pub trace: String,
    /// `(size KiB, total, redundant)` bars.
    pub buckets: Vec<(u64, u64, u64)>,
}

/// Fig. 1: distribution of I/O redundancy among request sizes.
pub fn fig1(scale: f64, seed: u64) -> Vec<Fig1Panel> {
    paper_traces(scale, seed)
        .iter()
        .map(|t| Fig1Panel {
            trace: t.name.clone(),
            buckets: size_redundancy(t)
                .into_iter()
                .map(|b| (b.kib, b.total, b.redundant))
                .collect(),
        })
        .collect()
}

/// Render Fig. 1 as CSV.
pub fn fig1_csv(panels: &[Fig1Panel]) -> String {
    let mut s = String::from("trace,size_kib,total,redundant\n");
    for p in panels {
        for &(kib, total, red) in &p.buckets {
            s.push_str(&format!("{},{},{},{}\n", p.trace, kib, total, red));
        }
    }
    s
}

// ---------------------------------------------------------------------
// Fig. 2 — I/O vs capacity redundancy
// ---------------------------------------------------------------------

/// One trace's Fig. 2 bars.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Trace name.
    pub trace: String,
    /// I/O redundancy (% of write data).
    pub io_redundancy_pct: f64,
    /// Capacity redundancy (% of write data).
    pub capacity_redundancy_pct: f64,
}

/// Fig. 2: I/O redundancy vs capacity redundancy per trace.
pub fn fig2(scale: f64, seed: u64) -> Vec<Fig2Row> {
    paper_traces(scale, seed)
        .iter()
        .map(|t| {
            let b = redundancy_breakdown(t);
            Fig2Row {
                trace: t.name.clone(),
                io_redundancy_pct: b.io_redundancy_pct(),
                capacity_redundancy_pct: b.capacity_redundancy_pct(),
            }
        })
        .collect()
}

/// Render Fig. 2 as CSV.
pub fn fig2_csv(rows: &[Fig2Row]) -> String {
    let mut s = String::from("trace,io_redundancy_pct,capacity_redundancy_pct,gap\n");
    for r in rows {
        s.push_str(&format!(
            "{},{:.1},{:.1},{:.1}\n",
            r.trace,
            r.io_redundancy_pct,
            r.capacity_redundancy_pct,
            r.io_redundancy_pct - r.capacity_redundancy_pct
        ));
    }
    s
}

// ---------------------------------------------------------------------
// Fig. 3 — read/write response time vs index-cache share
// ---------------------------------------------------------------------

/// One point of the Fig. 3 sweep.
#[derive(Debug, Clone)]
pub struct Fig3Point {
    /// Index-cache share of the memory budget.
    pub index_fraction: f64,
    /// Mean read response time, ms.
    pub read_ms: f64,
    /// Mean write response time, ms.
    pub write_ms: f64,
}

/// Fig. 3: sweep the fixed index/read split under Full-Dedupe on the
/// mail trace ("driven by the original mail trace", §II-B).
pub fn fig3(scale: f64, seed: u64) -> PodResult<Vec<Fig3Point>> {
    let trace = TraceProfile::mail().scaled(scale).generate(seed);
    let fractions = [0.2, 0.3, 0.5, 0.7, 0.8];
    Executor::new()
        .map(&fractions, |&f| {
            let mut cfg = SystemConfig::paper_default();
            cfg.index_fraction = f;
            // The §II-B motivation experiment uses a plain
            // deduplication-based system: every RAM-index miss pays
            // an in-disk lookup (no page-cache absorption), and the
            // memory budget is sized so the sweep range straddles the
            // workload's hot fingerprint set (the paper's 14-day-warmed
            // index dwarfed memory; see DESIGN.md substitutions).
            cfg.index_page_fault_rate = 1;
            cfg.memory_scale = 0.01;
            let rep = run_scheme(Scheme::FullDedupe, &trace, &cfg)?;
            Ok(Fig3Point {
                index_fraction: f,
                read_ms: rep.reads.mean_ms(),
                write_ms: rep.writes.mean_ms(),
            })
        })
        .into_iter()
        .collect()
}

/// Render Fig. 3 as CSV.
pub fn fig3_csv(points: &[Fig3Point]) -> String {
    let mut s = String::from("index_fraction,read_ms,write_ms\n");
    for p in points {
        s.push_str(&format!(
            "{:.0}%,{:.2},{:.2}\n",
            p.index_fraction * 100.0,
            p.read_ms,
            p.write_ms
        ));
    }
    s
}

// ---------------------------------------------------------------------
// Table I — qualitative scheme comparison, verified quantitatively
// ---------------------------------------------------------------------

/// One measured row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Scheme name.
    pub scheme: String,
    /// Capacity saved vs Native (%).
    pub capacity_saving_pct: f64,
    /// Overall response-time improvement vs Native (%).
    pub performance_gain_pct: f64,
    /// Small (≤ 8 KiB) write requests eliminated (%).
    pub small_writes_removed_pct: f64,
    /// Large write requests eliminated (%).
    pub large_writes_removed_pct: f64,
    /// Cache partitioning strategy.
    pub cache_strategy: &'static str,
}

/// Table I: run every implemented scheme — including Post-Process and
/// I/O-Dedup — on the web-vm trace and measure the columns the paper
/// presents qualitatively.
pub fn table1(scale: f64, seed: u64) -> PodResult<Vec<Table1Row>> {
    let cfg = SystemConfig::paper_default();
    let trace = TraceProfile::web_vm().scaled(scale).generate(seed);
    let schemes = Scheme::extended();
    let reports = run_schemes(&schemes, &trace, &cfg)?;
    let native_cap = reports[0].capacity_used_blocks.max(1) as f64;
    let native_rt = reports[0].overall.mean_us().max(1e-9);
    Ok(schemes
        .iter()
        .zip(reports.iter())
        .map(|(scheme, rep)| Table1Row {
            scheme: rep.scheme.clone(),
            capacity_saving_pct: 100.0 - rep.capacity_used_blocks as f64 * 100.0 / native_cap,
            performance_gain_pct: 100.0 - rep.overall.mean_us() * 100.0 / native_rt,
            small_writes_removed_pct: rep.counters.removed_small_pct(),
            large_writes_removed_pct: rep.counters.removed_large_pct(),
            cache_strategy: if scheme.adaptive_icache() {
                "dynamic/adaptive"
            } else if scheme.dedups() {
                "static"
            } else {
                "none"
            },
        })
        .collect())
}

/// Render Table I as CSV.
pub fn table1_csv(rows: &[Table1Row]) -> String {
    let mut s = String::from(
        "scheme,capacity_saving_pct,performance_gain_pct,small_writes_removed_pct,large_writes_removed_pct,cache_strategy\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{},{:.1},{:.1},{:.1},{:.1},{}\n",
            r.scheme,
            r.capacity_saving_pct,
            r.performance_gain_pct,
            r.small_writes_removed_pct,
            r.large_writes_removed_pct,
            r.cache_strategy
        ));
    }
    s
}

// ---------------------------------------------------------------------
// Figs. 8–11 — the scheme comparison
// ---------------------------------------------------------------------

/// Every scheme's report for every trace: the raw material of
/// Figs. 8, 9(a), 9(b), 10 and 11.
#[derive(Debug, Clone)]
pub struct SchemeComparison {
    /// Reports indexed `[trace][scheme]` in `Scheme::all()` order.
    pub reports: Vec<Vec<ReplayReport>>,
}

/// Run the full comparison (all five schemes × the three traces).
pub fn scheme_comparison(scale: f64, seed: u64) -> PodResult<SchemeComparison> {
    let cfg = SystemConfig::paper_default();
    let traces = paper_traces(scale, seed);
    let reports = traces
        .iter()
        .map(|t| run_schemes(&Scheme::all(), t, &cfg))
        .collect::<PodResult<_>>()?;
    Ok(SchemeComparison { reports })
}

impl SchemeComparison {
    fn native(&self, trace_idx: usize) -> &ReplayReport {
        &self.reports[trace_idx][0]
    }

    /// The report for `scheme` on trace `trace_idx`.
    pub fn report(&self, trace_idx: usize, scheme: Scheme) -> &ReplayReport {
        let si = Scheme::all()
            .iter()
            .position(|s| *s == scheme)
            .expect("known scheme");
        &self.reports[trace_idx][si]
    }

    /// Fig. 8: overall response time normalized to Native (%).
    pub fn fig8_csv(&self) -> String {
        self.normalized_csv(|r| r.overall.mean_us())
    }

    /// Fig. 9(a): write response time normalized to Native (%).
    pub fn fig9a_csv(&self) -> String {
        self.normalized_csv(|r| r.writes.mean_us())
    }

    /// Fig. 9(b): read response time normalized to Native (%).
    pub fn fig9b_csv(&self) -> String {
        self.normalized_csv(|r| r.reads.mean_us())
    }

    /// Fig. 10: storage capacity used normalized to Native (%).
    pub fn fig10_csv(&self) -> String {
        self.normalized_csv(|r| r.capacity_used_blocks as f64)
    }

    /// Fig. 11: percentage of write requests removed, including POD.
    pub fn fig11_csv(&self) -> String {
        let mut s = String::from("trace,Full-Dedupe,iDedup,Select-Dedupe,POD\n");
        for per_trace in &self.reports {
            s.push_str(&per_trace[0].trace);
            for scheme in [
                Scheme::FullDedupe,
                Scheme::IDedup,
                Scheme::SelectDedupe,
                Scheme::Pod,
            ] {
                let si = Scheme::all()
                    .iter()
                    .position(|x| *x == scheme)
                    .expect("known");
                s.push_str(&format!(",{:.1}", per_trace[si].writes_removed_pct()));
            }
            s.push('\n');
        }
        s
    }

    /// POD-vs-Select detail: what the adaptive iCache buys on top of the
    /// fixed split (paper §IV-C).
    pub fn pod_vs_select_csv(&self) -> String {
        let mut s = String::from(
            "trace,select_overall_ms,pod_overall_ms,select_removed_pct,pod_removed_pct,select_read_hit,pod_read_hit,pod_repartitions,pod_final_index_frac\n",
        );
        for (ti, per_trace) in self.reports.iter().enumerate() {
            let sel = self.report(ti, Scheme::SelectDedupe);
            let pod = self.report(ti, Scheme::Pod);
            s.push_str(&format!(
                "{},{:.3},{:.3},{:.1},{:.1},{:.3},{:.3},{},{:.2}\n",
                per_trace[0].trace,
                sel.overall.mean_ms(),
                pod.overall.mean_ms(),
                sel.writes_removed_pct(),
                pod.writes_removed_pct(),
                sel.read_cache_hit_rate,
                pod.read_cache_hit_rate,
                pod.icache_repartitions,
                pod.final_index_fraction,
            ));
        }
        s
    }

    /// Tail latency (p95/p99) per scheme and trace — queue relief shows
    /// up even more strongly in the tail than in the mean.
    pub fn tail_latency_csv(&self) -> String {
        let mut s = String::from("trace,scheme,p50_ms,p95_ms,p99_ms,max_ms\n");
        for per_trace in &self.reports {
            for rep in per_trace {
                let [p50, p95, p99] = rep.overall.percentiles(&[50.0, 95.0, 99.0]);
                s.push_str(&format!(
                    "{},{},{:.2},{:.2},{:.2},{:.2}\n",
                    rep.trace,
                    rep.scheme,
                    p50 as f64 / 1e3,
                    p95 as f64 / 1e3,
                    p99 as f64 / 1e3,
                    rep.overall.max_us() as f64 / 1e3,
                ));
            }
        }
        s
    }

    /// §IV-D2: peak NVRAM (Map table) per trace for Select-Dedupe/POD.
    pub fn overhead_csv(&self) -> String {
        let mut s = String::from("trace,select_nvram_mb,pod_nvram_mb\n");
        for (ti, per_trace) in self.reports.iter().enumerate() {
            let select = self.report(ti, Scheme::SelectDedupe);
            let pod = self.report(ti, Scheme::Pod);
            s.push_str(&format!(
                "{},{:.2},{:.2}\n",
                per_trace[0].trace,
                select.nvram_peak_bytes as f64 / (1024.0 * 1024.0),
                pod.nvram_peak_bytes as f64 / (1024.0 * 1024.0),
            ));
        }
        s
    }

    fn normalized_csv(&self, metric: impl Fn(&ReplayReport) -> f64) -> String {
        let mut s = String::from("trace,Native,Full-Dedupe,iDedup,Select-Dedupe\n");
        for (ti, per_trace) in self.reports.iter().enumerate() {
            let base = metric(self.native(ti)).max(1e-9);
            s.push_str(&per_trace[0].trace);
            for rep in per_trace.iter().take(4) {
                s.push_str(&format!(",{:.1}", metric(rep) * 100.0 / base));
            }
            s.push('\n');
        }
        s
    }
}

// ---------------------------------------------------------------------
// Sensitivity sweeps (ablations of DESIGN.md's design choices)
// ---------------------------------------------------------------------

/// One row of a parameter sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Parameter value (rendered).
    pub param: String,
    /// Mean overall response time, ms.
    pub overall_ms: f64,
    /// Mean read response time, ms.
    pub read_ms: f64,
    /// Mean write response time, ms.
    pub write_ms: f64,
    /// Write requests removed, %.
    pub removed_pct: f64,
    /// Capacity used, MiB.
    pub capacity_mib: f64,
}

impl SweepRow {
    fn from_report(param: String, rep: &ReplayReport) -> Self {
        Self {
            param,
            overall_ms: rep.overall.mean_ms(),
            read_ms: rep.reads.mean_ms(),
            write_ms: rep.writes.mean_ms(),
            removed_pct: rep.writes_removed_pct(),
            capacity_mib: rep.capacity_used_mib(),
        }
    }
}

/// Render a sweep as CSV.
pub fn sweep_csv(param_name: &str, rows: &[SweepRow]) -> String {
    let mut s = format!("{param_name},overall_ms,read_ms,write_ms,removed_pct,capacity_mib\n");
    for r in rows {
        s.push_str(&format!(
            "{},{:.3},{:.3},{:.3},{:.1},{:.1}\n",
            r.param, r.overall_ms, r.read_ms, r.write_ms, r.removed_pct, r.capacity_mib
        ));
    }
    s
}

fn sweep<P: Clone + Send + Sync + std::fmt::Debug>(
    trace: &Trace,
    params: &[P],
    configure: impl Fn(&P) -> (Scheme, SystemConfig) + Sync,
) -> PodResult<Vec<SweepRow>> {
    Executor::new()
        .map(params, |p| {
            let (scheme, cfg) = configure(p);
            let rep = run_scheme(scheme, trace, &cfg)?;
            Ok(SweepRow::from_report(format!("{p:?}"), &rep))
        })
        .into_iter()
        .collect()
}

/// Ablation: Select-Dedupe duplicate-run threshold T (paper fixes 3).
/// Lower T dedups more aggressively (more fragmentation risk); higher T
/// forfeits small-write elimination.
pub fn threshold_sweep(scale: f64, seed: u64) -> PodResult<Vec<SweepRow>> {
    let trace = TraceProfile::web_vm().scaled(scale).generate(seed);
    sweep(&trace, &[1usize, 2, 3, 5, 8, 16], |&t| {
        let mut cfg = SystemConfig::paper_default();
        cfg.select_threshold = t;
        (Scheme::SelectDedupe, cfg)
    })
}

/// Ablation: per-disk queue discipline under the Native baseline.
pub fn scheduler_sweep(scale: f64, seed: u64) -> PodResult<Vec<SweepRow>> {
    use pod_disk::SchedulerKind;
    let trace = TraceProfile::mail().scaled(scale).generate(seed);
    sweep(
        &trace,
        &[
            SchedulerKind::Fifo,
            SchedulerKind::Sstf,
            SchedulerKind::Elevator,
        ],
        |&sched| {
            let mut cfg = SystemConfig::paper_default();
            cfg.scheduler = sched;
            (Scheme::Native, cfg)
        },
    )
}

/// Ablation: DRAM budget sensitivity of POD (memory_scale multiples of
/// the paper's per-trace budget).
pub fn memory_sweep(scale: f64, seed: u64) -> PodResult<Vec<SweepRow>> {
    let trace = TraceProfile::mail().scaled(scale).generate(seed);
    sweep(&trace, &[0.01f64, 0.02, 0.03, 0.06, 0.12], |&m| {
        let mut cfg = SystemConfig::paper_default();
        cfg.memory_scale = m;
        (Scheme::Pod, cfg)
    })
}

// ---------------------------------------------------------------------
// Restore (read-back) experiment — §II's motivation numbers
// ---------------------------------------------------------------------

/// One scheme's restore measurement.
#[derive(Debug, Clone)]
pub struct RestoreRow {
    /// Scheme name.
    pub scheme: String,
    /// Mean restore-read response, ms.
    pub restore_ms: f64,
    /// Mean physical fragments per restore read (read amplification).
    pub fragmentation: f64,
}

/// §II: "the restore (read) times with deduplication are much higher
/// than those without deduplication, by an average of 2.9x and up to
/// 4.2x" — measured on VM disk images (the authors' SAR work \[18\]).
/// Reproduce that setting: provision a fleet of near-identical VM
/// images through each scheme's write path, then restore one clone with
/// a sequential full-image read sweep. Deduplication remaps the clone
/// onto the golden copy plus scattered private blocks, so the restore
/// pays extra seeks; Native reads one contiguous region.
pub fn restore_experiment(scale: f64, seed: u64) -> PodResult<Vec<RestoreRow>> {
    use pod_trace::VmFleetConfig;
    use pod_types::{IoRequest, Lba, SimTime};
    let fleet = VmFleetConfig {
        n_vms: 8,
        image_blocks: ((8_192.0 * scale * 20.0) as u64).clamp(1_024, 65_536),
        mutation_rate: 0.03,
    };
    let writes = fleet.generate(seed);
    let image = fleet.image_blocks;
    let last = writes.duration().as_micros();

    // Restore clone #3: stream its whole region in 1 MiB reads, paced
    // generously and starting long after provisioning so the write
    // backlog has fully drained (we measure media behaviour, not queue
    // contamination).
    let mut requests = writes.requests.clone();
    let region = 3 * image;
    let mut at = last + 300_000_000;
    let mut off = 0u64;
    while off < image {
        let len = 256.min(image - off) as u32;
        requests.push(IoRequest::read(
            SimTime::from_micros(at),
            Lba::new(region + off),
            len,
        ));
        at += 500_000;
        off += len as u64;
    }
    let trace = Trace {
        name: "vm-restore".into(),
        requests,
        memory_budget_bytes: writes.memory_budget_bytes,
    };

    let schemes = [Scheme::Native, Scheme::FullDedupe, Scheme::SelectDedupe];
    let mut cfg = SystemConfig::paper_default();
    // Restore reads are cold by definition: measure the media, not the cache.
    cfg.memory_scale = 0.001;
    let reports = run_schemes(&schemes, &trace, &cfg)?;
    Ok(reports
        .iter()
        .map(|rep| RestoreRow {
            scheme: rep.scheme.clone(),
            restore_ms: rep.reads.mean_ms(),
            fragmentation: rep.read_fragmentation,
        })
        .collect())
}

/// Render the restore experiment as CSV (normalized to Native).
pub fn restore_csv(rows: &[RestoreRow]) -> String {
    let base = rows
        .iter()
        .find(|r| r.scheme == "Native")
        .map(|r| r.restore_ms)
        .unwrap_or(1.0)
        .max(1e-9);
    let mut s = String::from("scheme,restore_ms,normalized,fragmentation\n");
    for r in rows {
        s.push_str(&format!(
            "{},{:.3},{:.2},{:.2}\n",
            r.scheme,
            r.restore_ms,
            r.restore_ms / base,
            r.fragmentation
        ));
    }
    s
}

// ---------------------------------------------------------------------
// Load-sensitivity sweep
// ---------------------------------------------------------------------

/// Load sweep: compress the mail trace's inter-arrival times and watch
/// Native collapse while POD absorbs the load (write elimination relieves
/// the queues — the §IV-B mechanism, made explicit).
pub fn load_sweep(scale: f64, seed: u64) -> PodResult<Vec<SweepRow>> {
    let base = TraceProfile::mail().scaled(scale).generate(seed);
    let factors = [2.0f64, 1.0, 0.5, 0.25];
    let mut rows = Vec::new();
    for &f in &factors {
        let trace = base.scale_time(f);
        let cfg = SystemConfig::paper_default();
        let reports = run_schemes(&[Scheme::Native, Scheme::Pod], &trace, &cfg)?;
        for (rep, label) in reports.iter().zip(["native", "pod"]) {
            let param = format!("x{:.2}-{label}", 1.0 / f);
            rows.push(SweepRow::from_report(param, rep));
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Consolidated (multi-tenant) Cloud experiment
// ---------------------------------------------------------------------

/// Consolidate the three paper workloads onto one array — the paper's
/// titular Cloud deployment — and compare the schemes on the merged
/// stream.
pub fn consolidated_comparison(scale: f64, seed: u64) -> PodResult<Vec<ReplayReport>> {
    let tenants: Vec<Trace> = TraceProfile::paper_traces()
        .into_iter()
        .enumerate()
        .map(|(i, p)| p.scaled(scale).generate(seed + i as u64))
        .collect();
    let merged = pod_trace::merge_tenants(&tenants);
    let cfg = SystemConfig::paper_default();
    run_schemes(
        &[
            Scheme::Native,
            Scheme::IDedup,
            Scheme::SelectDedupe,
            Scheme::Pod,
        ],
        &merged,
        &cfg,
    )
}

/// Render the consolidated comparison as CSV (normalized to Native).
pub fn consolidated_csv(reports: &[ReplayReport]) -> String {
    let base = reports
        .first()
        .map(|r| r.overall.mean_us())
        .unwrap_or(1.0)
        .max(1e-9);
    let base_cap = reports
        .first()
        .map(|r| r.capacity_used_blocks)
        .unwrap_or(1)
        .max(1);
    let mut s = String::from("scheme,overall_ms,normalized_pct,removed_pct,capacity_pct\n");
    for r in reports {
        s.push_str(&format!(
            "{},{:.3},{:.1},{:.1},{:.1}\n",
            r.scheme,
            r.overall.mean_ms(),
            r.overall.mean_us() * 100.0 / base,
            r.writes_removed_pct(),
            r.capacity_used_blocks as f64 * 100.0 / base_cap as f64,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: f64 = 0.004;

    #[test]
    fn table2_matches_paper_shape() {
        let rows = table2(SCALE, DEFAULT_SEED);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].name, "web-vm");
        for r in &rows {
            assert!(r.write_ratio > 0.6, "{}: writes dominate", r.name);
        }
        let csv = table2_csv(&rows);
        assert!(csv.contains("web-vm"));
        assert!(csv.lines().count() == 4);
    }

    #[test]
    fn fig1_small_writes_have_high_redundancy() {
        // Slightly larger scale than the other tests: redundancy ratios
        // need enough history to escape the cold start.
        let panels = fig1(0.012, DEFAULT_SEED);
        assert_eq!(panels.len(), 3);
        for p in &panels {
            let (.., total, red) = (p.buckets[0].0, p.buckets[0].1, p.buckets[0].2);
            assert!(total > 0, "{}: 4K bucket populated", p.trace);
            assert!(
                red as f64 / total as f64 > 0.25,
                "{}: small writes redundant ({red}/{total})",
                p.trace
            );
        }
        assert!(fig1_csv(&panels).contains("mail,4,"));
    }

    #[test]
    fn fig2_io_exceeds_capacity_redundancy() {
        let rows = fig2(SCALE, DEFAULT_SEED);
        for r in &rows {
            assert!(
                r.io_redundancy_pct > r.capacity_redundancy_pct,
                "{}: io {} vs cap {}",
                r.trace,
                r.io_redundancy_pct,
                r.capacity_redundancy_pct
            );
        }
        assert!(fig2_csv(&rows).starts_with("trace,"));
    }

    /// §II-B: "a larger index cache is beneficial to the write
    /// performance and a larger read cache is beneficial to the read
    /// performance" — on the sweep's endpoints.
    #[test]
    fn fig3_endpoints_trade_reads_for_writes() {
        let points = fig3(0.02, 42).expect("replay");
        let (small_index, big_index) = (&points[0], &points[points.len() - 1]);
        assert_eq!(small_index.index_fraction, 0.2);
        assert_eq!(big_index.index_fraction, 0.8);
        assert!(
            big_index.write_ms <= small_index.write_ms,
            "larger index cache must help writes: {points:?}"
        );
        assert!(
            small_index.read_ms <= big_index.read_ms,
            "larger read cache must help reads: {points:?}"
        );
    }

    #[test]
    fn table1_matches_paper_claims() {
        let rows = table1(0.01, DEFAULT_SEED).expect("replay");
        assert_eq!(rows.len(), 7);
        let get = |name: &str| rows.iter().find(|r| r.scheme == name).expect(name);
        let (native, full, idedup, select, pod, post, iodedup) = (
            get("Native"),
            get("Full-Dedupe"),
            get("iDedup"),
            get("Select-Dedupe"),
            get("POD"),
            get("Post-Process"),
            get("I/O-Dedup"),
        );
        // Capacity saving: Full, iDedup, Post-Process, POD save; I/O-Dedup
        // and Native do not.
        for r in [full, idedup, post, pod] {
            assert!(r.capacity_saving_pct > 1.0, "{} saves capacity", r.scheme);
        }
        assert!(native.capacity_saving_pct.abs() < 1e-9);
        assert!(
            iodedup.capacity_saving_pct.abs() < 5.0,
            "I/O-Dedup barely saves"
        );
        // Small-write elimination: POD yes, iDedup/Post/IODedup no.
        assert!(pod.small_writes_removed_pct > 10.0);
        assert!(select.small_writes_removed_pct > 10.0);
        assert!(idedup.small_writes_removed_pct < 5.0);
        assert_eq!(post.small_writes_removed_pct, 0.0);
        assert_eq!(iodedup.small_writes_removed_pct, 0.0);
        // Performance: POD and I/O-Dedup improve on Native; Post-Process
        // does not meaningfully (no I/O-path savings).
        assert!(pod.performance_gain_pct > 10.0);
        assert!(
            iodedup.performance_gain_pct > 0.0,
            "content cache helps reads"
        );
        assert!(post.performance_gain_pct < pod.performance_gain_pct);
        // Cache strategies.
        assert_eq!(pod.cache_strategy, "dynamic/adaptive");
        assert_eq!(select.cache_strategy, "static");
        assert_eq!(native.cache_strategy, "none");
        // CSV renders one line per scheme plus header.
        assert_eq!(table1_csv(&rows).lines().count(), 8);
    }

    #[test]
    fn consolidated_cloud_comparison_holds_headlines() {
        let reports = consolidated_comparison(0.004, DEFAULT_SEED).expect("replay");
        assert_eq!(reports.len(), 4);
        let native = &reports[0];
        let pod = &reports[3];
        assert!(pod.overall.mean_us() < native.overall.mean_us());
        assert!(pod.writes_removed_pct() > 20.0);
        assert!(pod.capacity_used_blocks < native.capacity_used_blocks);
        let csv = consolidated_csv(&reports);
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("POD"));
    }

    #[test]
    fn restore_shows_dedup_read_amplification() {
        let rows = restore_experiment(0.01, DEFAULT_SEED).expect("replay");
        assert_eq!(rows.len(), 3);
        let get = |n: &str| rows.iter().find(|r| r.scheme == n).expect(n);
        let native = get("Native");
        let full = get("Full-Dedupe");
        let select = get("Select-Dedupe");
        assert!(
            (native.fragmentation - 1.0).abs() < 1e-9,
            "native never fragments"
        );
        assert!(
            full.restore_ms > native.restore_ms * 1.3,
            "Full-Dedupe restores slower (paper: 2.9x avg): {:.2} vs {:.2}",
            full.restore_ms,
            native.restore_ms
        );
        // On near-identical image fleets Select dedups the same long
        // sequential runs as Full, so both pay the restore penalty; the
        // factor may wobble with where mutations land.
        assert!(
            select.restore_ms <= full.restore_ms * 1.7,
            "Select's restore stays in Full's band: {:.2} vs {:.2}",
            select.restore_ms,
            full.restore_ms
        );
        assert!(
            full.fragmentation > 1.2,
            "clone restore crosses remap boundaries"
        );
        assert!(restore_csv(&rows).contains("Native"));
    }

    #[test]
    fn load_sweep_pod_absorbs_load_better() {
        let rows = load_sweep(0.008, DEFAULT_SEED).expect("replay");
        assert_eq!(rows.len(), 8);
        // At the highest load (last pair), POD's advantage over Native is
        // at least as large as at the lowest load (first pair).
        let adv = |native: &SweepRow, pod: &SweepRow| native.overall_ms / pod.overall_ms.max(1e-9);
        let low = adv(&rows[0], &rows[1]);
        let high = adv(&rows[6], &rows[7]);
        assert!(
            high >= low * 0.8,
            "POD should hold its advantage under load: low {low:.2} high {high:.2}"
        );
        assert!(high > 1.5, "POD clearly ahead under heavy load: {high:.2}");
    }

    #[test]
    fn threshold_sweep_shape() {
        let rows = threshold_sweep(0.01, DEFAULT_SEED).expect("replay");
        assert_eq!(rows.len(), 6);
        // Lower thresholds remove at least roughly as many writes as
        // higher ones (layout feedback makes this noisy by a point or
        // two, so the check allows slack while catching inversions).
        for w in rows.windows(2) {
            assert!(
                w[0].removed_pct >= w[1].removed_pct - 2.0,
                "removal should not increase with T: {w:?}"
            );
        }
        let t1 = rows.first().expect("rows").removed_pct;
        let t16 = rows.last().expect("rows").removed_pct;
        assert!(t1 >= t16, "T=1 removes at least as much as T=16");
        let csv = sweep_csv("threshold", &rows);
        assert_eq!(csv.lines().count(), 7);
    }

    #[test]
    fn recorded_runs_return_matching_sinks() {
        let trace = TraceProfile::mail().scaled(SCALE).generate(DEFAULT_SEED);
        let cfg = SystemConfig::paper_default();
        let schemes = [Scheme::Native, Scheme::Pod];
        let rows = run_schemes_recorded(&schemes, &trace, &cfg, 200).expect("replay");
        assert_eq!(rows.len(), 2);
        for ((report, recorder, hists), scheme) in rows.iter().zip(schemes) {
            assert_eq!(recorder.scheme(), scheme.name());
            assert_eq!(recorder.totals().requests, trace.len() as u64);
            assert!(hists.total() > 0, "{scheme}: layer latencies recorded");
            // The recorder's write mix matches the report's counters.
            assert_eq!(
                recorder.totals().cat1,
                report.stack.all.cat1,
                "{scheme}: Cat-1 totals agree"
            );
        }
        // Native never dedups; POD removes Cat-1 writes.
        assert_eq!(rows[0].1.totals().cat1, 0);
        assert!(rows[1].1.totals().cat1 > 0);
    }

    #[test]
    fn scheduler_sweep_runs_all_disciplines() {
        let rows = scheduler_sweep(0.004, DEFAULT_SEED).expect("replay");
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.overall_ms > 0.0, "{}: nonzero latency", r.param);
        }
    }

    #[test]
    fn memory_sweep_more_memory_never_hurts_much() {
        let rows = memory_sweep(0.01, DEFAULT_SEED).expect("replay");
        assert_eq!(rows.len(), 5);
        let smallest = rows.first().expect("rows").overall_ms;
        let largest = rows.last().expect("rows").overall_ms;
        assert!(
            largest <= smallest * 1.10,
            "12x memory should not be slower: {largest:.2} vs {smallest:.2}"
        );
    }

    #[test]
    fn comparison_reproduces_headline_shapes() {
        let cmp = scheme_comparison(SCALE, DEFAULT_SEED).expect("replay");
        for (ti, trace_name) in ["web-vm", "homes", "mail"].iter().enumerate() {
            let native = cmp.report(ti, Scheme::Native);
            let select = cmp.report(ti, Scheme::SelectDedupe);
            let idedup = cmp.report(ti, Scheme::IDedup);
            // Select-Dedupe beats Native and iDedup on overall RT.
            assert!(
                select.overall.mean_us() < native.overall.mean_us(),
                "{trace_name}: Select {} vs Native {}",
                select.overall.mean_us(),
                native.overall.mean_us()
            );
            assert!(
                select.overall.mean_us() <= idedup.overall.mean_us() * 1.02,
                "{trace_name}: Select {} vs iDedup {}",
                select.overall.mean_us(),
                idedup.overall.mean_us()
            );
            // Select removes more writes than iDedup.
            assert!(
                select.writes_removed_pct() > idedup.writes_removed_pct(),
                "{trace_name}: removal {} vs {}",
                select.writes_removed_pct(),
                idedup.writes_removed_pct()
            );
        }
        // CSV renderers produce a row per trace.
        assert_eq!(cmp.fig8_csv().lines().count(), 4);
        assert_eq!(cmp.fig11_csv().lines().count(), 4);
        assert!(cmp.overhead_csv().contains("mail"));
    }
}
