//! `pod-cli serve` — drive K tenant streams through the sharded
//! serving engine and report per-tenant + aggregate results.
//!
//! Output discipline: **stdout carries only the deterministic report**
//! (a pure function of scheme, config and tenant traces), so CI can
//! `diff` it across `--jobs` and `--shards`. Topology, shard wall-clock
//! spans and the rate projected along the critical path go to stderr.

use crate::args::CliArgs;
use crate::cmd_replay::render_verify;
use crate::CliResult;
use pod_core::serve::{ServeBuilder, ServeReport};
use pod_trace::tenant_trace;
use std::io::Write;

pub fn run(args: &CliArgs, out: &mut dyn Write) -> CliResult {
    args.apply_jobs();
    if args.trace_path.is_some() && args.tenants > 1 {
        return Err(
            "--trace is one tenant's stream; --tenants > 1 needs a generated profile".into(),
        );
    }
    let builder = ServeBuilder::new(args.scheme)
        .config(args.system_config()?)
        .shards(args.shards)
        .verify(args.verify);
    // A generated fleet is made tenant by tenant on the shard workers,
    // each trace only while its tenant is served; a `--trace` file is
    // one tenant, loaded here.
    let loaded;
    let (mut builder, tenants) = if args.trace_path.is_some() {
        loaded = [args.load_trace()?];
        (builder.tenants(&loaded), loaded.len())
    } else {
        let profile = args.resolve_profile()?.scaled(args.scale);
        let seed = args.seed;
        let make = move |i| tenant_trace(&profile, seed, i);
        (builder.tenants_with(args.tenants, make), args.tenants)
    };
    eprintln!(
        "serving {tenants} tenants over {} shards through {} ...",
        args.shards, args.scheme
    );
    let t0 = std::time::Instant::now();
    if let Some(jobs) = args.jobs {
        builder = builder.jobs(jobs);
    }
    if args.trace_out.is_some() {
        builder = builder.record(args.epoch_requests);
    }
    let (rep, recorders) = builder.run_recorded().map_err(|e| e.to_string())?;
    eprintln!(
        "done in {:?} ({} requests)",
        t0.elapsed(),
        rep.total_requests()
    );

    if let Some(path) = &args.trace_out {
        let mut file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        for rec in &recorders {
            rec.write_jsonl(&mut file, None)
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        eprintln!("wrote {} tenant-tagged sections to {path}", recorders.len());
    }

    write!(out, "{}", render_report(&rep))?;
    // `--verify`: one oracle block per tenant, after the report text
    // (which must stay as it is: the harness compares it).
    for t in &rep.tenants {
        if let Some(integ) = &t.report.integrity {
            writeln!(out, "\ntenant {}\n{}", t.tenant, render_verify(integ))?;
        }
    }

    // Wall-clock accounting: the only non-deterministic output.
    for s in &rep.shard_stats {
        eprintln!(
            "shard {}: tenants {:?}, {} requests, busy {:.3} s",
            s.shard,
            s.tenants,
            s.requests,
            s.busy_us as f64 / 1e6
        );
    }
    eprintln!(
        "projected {:.0} requests/s along the critical path (busiest shard {:.3} s)",
        rep.jobs_per_sec(),
        rep.critical_path_us() as f64 / 1e6
    );
    for t in &rep.tenants {
        if let Some(integ) = t.report.integrity.as_ref().filter(|i| !i.passed()) {
            return Err(format!(
                "integrity verification failed: tenant {}: {}",
                t.tenant,
                integ.summary()
            )
            .into());
        }
    }
    Ok(())
}

/// Render the deterministic serve report. Contains no shard count, no
/// worker width and no wall-clock time — byte-identical for the same
/// scheme, config and tenant traces regardless of run topology.
pub fn render_report(rep: &ServeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mib = |blocks: u64| blocks as f64 * 4096.0 / (1024.0 * 1024.0);
    writeln!(
        out,
        "== serve: {} / {} tenants ==\n",
        rep.scheme,
        rep.tenants.len()
    )
    .expect("write to string");
    writeln!(
        out,
        "tenant  trace            requests  removed%  saved MiB   mean ms   p95 ms   p99 ms  cap MiB"
    )
    .expect("write to string");
    for t in &rep.tenants {
        let r = &t.report;
        let [p95, p99] = r.overall.percentiles(&[95.0, 99.0]);
        writeln!(
            out,
            "{:>6}  {:<16} {:>9} {:>9.1} {:>10.1} {:>9.2} {:>8.2} {:>8.2} {:>8.1}",
            t.tenant,
            r.trace,
            r.overall.count(),
            r.writes_removed_pct(),
            mib(r.counters.deduped_blocks),
            r.overall.mean_ms(),
            p95 as f64 / 1e3,
            p99 as f64 / 1e3,
            r.capacity_used_mib(),
        )
        .expect("write to string");
    }
    let a = &rep.aggregate;
    let removed_pct = a.counters.removed_pct();
    let [p95, p99] = a.overall.percentiles(&[95.0, 99.0]);
    writeln!(
        out,
        "{:>6}  {:<16} {:>9} {:>9.1} {:>10.1} {:>9.2} {:>8.2} {:>8.2} {:>8.1}",
        "all",
        "-",
        a.overall.count(),
        removed_pct,
        mib(a.counters.deduped_blocks),
        a.overall.mean_ms(),
        p95 as f64 / 1e3,
        p99 as f64 / 1e3,
        mib(a.capacity_used_blocks),
    )
    .expect("write to string");
    writeln!(
        out,
        "\naggregate: {} writes removed ({:.1}%), {} blocks eliminated, {} written",
        a.counters.removed_requests,
        removed_pct,
        a.counters.deduped_blocks,
        a.counters.written_blocks
    )
    .expect("write to string");
    writeln!(
        out,
        "aggregate latency (ms): reads mean {:.2} p99 {:.2}   writes mean {:.2} p99 {:.2}",
        a.reads.mean_ms(),
        a.reads.percentile_us(99.0) as f64 / 1e3,
        a.writes.mean_ms(),
        a.writes.percentile_us(99.0) as f64 / 1e3,
    )
    .expect("write to string");
    writeln!(
        out,
        "aggregate NVRAM peak {:.2} KiB   read-cache hit {:.1}%",
        a.nvram_peak_bytes as f64 / 1024.0,
        a.stack.measured_reads.read_hit_rate() * 100.0,
    )
    .expect("write to string");
    // QoS section: present only when a serve policy attributed capacity
    // (legacy runs stay byte-identical).
    if !a.tenant_capacity.is_empty() {
        writeln!(
            out,
            "\ntenant  throttles   wait s  evictions  evicted fp  logical MiB  physical MiB"
        )
        .expect("write to string");
        for t in &rep.tenants {
            let s = &t.report.stack.all;
            let cap = a
                .tenant_capacity
                .iter()
                .find(|c| c.tenant == t.tenant)
                .copied()
                .unwrap_or_default();
            writeln!(
                out,
                "{:>6} {:>10} {:>8.1} {:>10} {:>11} {:>12.1} {:>13.1}",
                t.tenant,
                s.throttle_waits,
                s.throttle_wait_us as f64 / 1e6,
                s.quota_evictions,
                s.quota_evicted_fps,
                mib(cap.logical_blocks),
                t.report.capacity_used_mib(),
            )
            .expect("write to string");
        }
        writeln!(
            out,
            "fleet: {} unique blocks ({:.1} MiB) across {} tenants",
            a.fleet_unique_blocks,
            mib(a.fleet_unique_blocks),
            a.tenant_capacity.len(),
        )
        .expect("write to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_core::prelude::*;

    #[test]
    fn report_text_is_topology_free_and_deterministic() {
        let tenants =
            pod_trace::derive_tenants(&pod_trace::TraceProfile::mail().scaled(0.002), 4, 3);
        let serve = |shards: usize, jobs: usize| {
            ServeBuilder::new(Scheme::Pod)
                .config(SystemConfig::test_default())
                .tenants(&tenants)
                .shards(shards)
                .jobs(jobs)
                .run()
                .expect("serve")
        };
        let text = render_report(&serve(1, 1));
        assert!(text.contains("== serve: POD / 4 tenants =="), "{text}");
        assert!(text.contains("mail#3"), "per-tenant rows present");
        assert!(!text.contains("shard"), "no topology on stdout");
        // No policy: the QoS section stays off the page entirely.
        assert!(!text.contains("fleet:"), "{text}");
        assert!(!text.contains("throttles"), "{text}");
        // Byte-identical across worker width and shard count.
        assert_eq!(text, render_report(&serve(2, 2)));
        assert_eq!(text, render_report(&serve(4, 8)));
    }

    #[test]
    fn policy_report_renders_qos_and_stays_topology_free() {
        let tenants =
            pod_trace::derive_tenants(&pod_trace::TraceProfile::mail().scaled(0.002), 4, 3);
        let mut cfg = SystemConfig::test_default();
        cfg.policy = Some(ServePolicy::parse("tier:2,rate:40,burst:4,quota:1").expect("policy"));
        let serve = |shards: usize, jobs: usize| {
            ServeBuilder::new(Scheme::Pod)
                .config(cfg.clone())
                .tenants(&tenants)
                .shards(shards)
                .jobs(jobs)
                .run()
                .expect("serve")
        };
        let text = render_report(&serve(1, 1));
        assert!(text.contains("throttles"), "QoS table present: {text}");
        assert!(text.contains("fleet:"), "fleet capacity line: {text}");
        assert!(!text.contains("shard"), "no topology on stdout");
        // The QoS columns are as topology-free as the base report.
        assert_eq!(text, render_report(&serve(2, 2)));
        assert_eq!(text, render_report(&serve(4, 8)));
    }
}
