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

use pod::prelude::*;

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
