//! Metamorphic relations: transforms of a trace that no report may
//! notice.
//!
//! A fingerprint only says which chunks are equal, so renaming every
//! fingerprint through a fixed bijection keeps every duplicate a
//! duplicate and every unique chunk unique. The simulated clock only
//! measures differences, so moving every arrival by the same hour
//! moves every submission and completion with it. Either way every
//! scheme must report the same response samples, capacity, NVRAM peak,
//! hit rate, fragmentation, repartitions, final index share, engine
//! and stack counters and disk statistics, to the bit.
//!
//! A serve tenant owns its whole stack and the shared tier's slice
//! divides by the fleet's size, not by who is in it, so handing the
//! same traces to different tenant ids moves no trace's report either —
//! nor does generating each trace on its shard worker instead of up
//! front.

use pod::core::serve::{ServeBuilder, ServeReport};
use pod::core::ServePolicy;
use pod::prelude::*;
use pod::trace::{derive_tenants, tenant_trace};

/// The profiles' scale: large enough that every scheme's index and read
/// cache evict and POD repartitions, small enough for a debug build.
const SCALE: f64 = 0.02;
const SEED: u64 = 42;
const HOUR_US: u64 = 3_600_000_000;

/// A bijection on 16-byte fingerprints: each 8-byte half multiplied by
/// an odd constant (invertible mod 2^64), then masked.
fn rename(fp: Fingerprint) -> Fingerprint {
    let mut out = [0u8; 16];
    for (dst, src) in out.chunks_exact_mut(8).zip(fp.as_bytes().chunks_exact(8)) {
        let half = u64::from_le_bytes(src.try_into().expect("8 bytes"));
        let renamed = half.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5A5A_C3C3_0F0F_9696;
        dst.copy_from_slice(&renamed.to_le_bytes());
    }
    Fingerprint(out)
}

/// `trace` with `f` applied to every request.
fn transformed(trace: &Trace, f: impl Fn(&mut IoRequest)) -> Trace {
    let mut out = trace.clone();
    out.requests.iter_mut().for_each(f);
    out
}

/// Every report field the relations cover, rendered exactly: `Debug`
/// prints each float in its shortest round-tripping form. The timeline
/// is left out: its windows are laid from time zero, so a shift moves
/// it by construction.
fn fields(r: &ReplayReport) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\ncapacity {} nvram {} hit {:?} frag {:?}\n\
         epochs {} repartitions {} index {:?}\n{:?}\n{:?}",
        r.overall.samples(),
        r.reads.samples(),
        r.writes.samples(),
        r.counters,
        r.capacity_used_blocks,
        r.nvram_peak_bytes,
        r.read_cache_hit_rate,
        r.read_fragmentation,
        r.icache_epochs,
        r.icache_repartitions,
        r.final_index_fraction,
        r.stack,
        r.disk,
    )
}

fn replay(scheme: Scheme, trace: &Trace) -> ReplayReport {
    scheme
        .builder()
        .config(SystemConfig::paper_default())
        .trace(trace)
        .run()
        .expect("replay")
}

#[test]
fn renamed_fingerprints_and_shifted_arrivals_leave_every_report_field_unchanged() {
    for profile in [
        TraceProfile::web_vm(),
        TraceProfile::homes(),
        TraceProfile::mail(),
    ] {
        let trace = profile.scaled(SCALE).generate(SEED);
        let renamed = transformed(&trace, |r| {
            r.chunks.iter_mut().for_each(|fp| *fp = rename(*fp));
        });
        let shifted = transformed(&trace, |r| {
            r.arrival += SimDuration::from_micros(HOUR_US);
        });
        for scheme in Scheme::all() {
            let base = replay(scheme, &trace);
            assert!(base.overall.count() > 0, "{scheme} on {}", trace.name);
            let want = fields(&base);
            assert_eq!(
                fields(&replay(scheme, &renamed)),
                want,
                "{scheme} on {}: renamed fingerprints",
                trace.name
            );
            let got = replay(scheme, &shifted);
            assert_eq!(
                fields(&got),
                want,
                "{scheme} on {}: arrivals shifted by an hour",
                trace.name
            );
        }
    }
}

/// The QoS policy CI cross-checks: shared tier, rate limit and quota.
const POLICY: &str = "tier:2,rate:40,burst:4,quota:1";

fn policy_config(policy: Option<&str>) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.policy = policy.map(|p| ServePolicy::parse(p).expect("policy"));
    cfg
}

/// One tenant's report fields, its trace's name and its capacity
/// attribution.
fn tenant_fields(rep: &ServeReport, tenant: usize) -> String {
    let t = &rep.tenants[tenant];
    let capacity = rep.aggregate.tenant_capacity.get(tenant);
    format!(
        "{} {:?}\n{}",
        t.report.trace,
        capacity.map(|c| c.logical_blocks),
        fields(&t.report)
    )
}

#[test]
fn permuting_tenant_ids_leaves_every_traces_serve_report_unchanged() {
    let profile = TraceProfile::mail().scaled(0.01);
    // Tenant `i` serves trace `perm[i]`: (3i + 1) mod 8 moves every one.
    let perm: Vec<usize> = (0..8).map(|i| (3 * i + 1) % 8).collect();
    for policy in [None, Some(POLICY)] {
        let serve = |map: &[usize]| {
            ServeBuilder::new(Scheme::Pod)
                .config(policy_config(policy))
                .tenants_with(map.len(), |i| tenant_trace(&profile, SEED, map[i]))
                .shards(2)
                .jobs(2)
                .run()
                .expect("serve")
        };
        let identity: Vec<usize> = (0..8).collect();
        let base = serve(&identity);
        let permuted = serve(&perm);
        for (tenant, &trace) in perm.iter().enumerate() {
            assert_eq!(
                tenant_fields(&permuted, tenant),
                tenant_fields(&base, trace),
                "policy {policy:?}: trace {trace} served as tenant {tenant}"
            );
        }
        assert_eq!(
            permuted.aggregate.fleet_unique_blocks, base.aggregate.fleet_unique_blocks,
            "policy {policy:?}"
        );
        if policy.is_some() {
            let throttled = base.aggregate.stack.all.throttle_waits;
            assert!(throttled > 0, "the rate limit binds");
        }
    }
}

#[test]
fn a_generated_fleet_serves_as_its_traces_do() {
    let profile = TraceProfile::mail().scaled(0.005);
    let cfg = policy_config(Some(POLICY));
    let traces = derive_tenants(&profile, 4, SEED);
    // Every tenant field, each recorder's JSONL and the fleet view.
    let render = |(rep, recorders): (ServeReport, Vec<TraceRecorder>)| {
        let mut out: Vec<String> = (0..rep.tenants.len())
            .map(|t| tenant_fields(&rep, t))
            .collect();
        for rec in &recorders {
            let mut jsonl = Vec::new();
            rec.write_jsonl(&mut jsonl, None).expect("write to memory");
            out.push(String::from_utf8(jsonl).expect("utf8"));
        }
        out.push(format!(
            "fleet {} {:?}",
            rep.aggregate.fleet_unique_blocks,
            rep.aggregate.overall.samples()
        ));
        out
    };
    let want = render(
        ServeBuilder::new(Scheme::Pod)
            .config(cfg.clone())
            .tenants(&traces)
            .record(0)
            .run_recorded()
            .expect("serve"),
    );
    assert_eq!(want.len(), 2 * traces.len() + 1);
    for shards in [1, 2, 4] {
        for jobs in [1, 2] {
            let got = render(
                ServeBuilder::new(Scheme::Pod)
                    .config(cfg.clone())
                    .tenants_with(traces.len(), |i| tenant_trace(&profile, SEED, i))
                    .shards(shards)
                    .jobs(jobs)
                    .record(0)
                    .run_recorded()
                    .expect("serve"),
            );
            assert_eq!(got, want, "shards {shards}, jobs {jobs}");
        }
    }
}
