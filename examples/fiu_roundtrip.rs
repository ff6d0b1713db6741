//! FIU-format round trip: export a synthetic trace in the FIU SyLab
//! text dialect, parse it back, reconstruct the original multi-block
//! requests (§IV-A's methodology), and replay both through POD to show
//! they are equivalent.
//!
//! This is the path a user with the *real* FIU traces follows: parse →
//! reconstruct → replay.
//!
//! ```text
//! cargo run --release --example fiu_roundtrip
//! ```

use pod::prelude::*;
use pod::trace::fiu;
use pod::trace::reconstruct::{split_into_records, trace_from_records};

fn main() -> PodResult<()> {
    let original = TraceProfile::homes().scaled(0.01).generate(7);
    println!(
        "original trace: {} requests ({} writes)",
        original.len(),
        original.write_count()
    );

    // Export: one text line per 4 KiB block, as the FIU tracer emits.
    let records = split_into_records(&original);
    let text = fiu::format_records(&records);
    println!(
        "exported {} per-block records ({} KiB of text)",
        records.len(),
        text.len() / 1024
    );
    println!("first lines:");
    for line in text.lines().take(3) {
        println!("  {line}");
    }

    // Import: parse and reconstruct original requests by timestamp, LBA
    // and length.
    let parsed = fiu::parse_str(&text).expect("well-formed trace text");
    let parsed: Vec<fiu::RecordRef> = parsed.iter().map(fiu::BlockRecord::borrowed).collect();
    let rebuilt = trace_from_records("homes-rebuilt", &parsed, original.memory_budget_bytes);
    println!(
        "\nreconstructed {} requests (original had {})",
        rebuilt.len(),
        original.len()
    );
    assert_eq!(rebuilt.len(), original.len(), "reconstruction is lossless");

    // Equivalence check: identical replay results.
    let cfg = SystemConfig::paper_default();
    let a = Scheme::Pod
        .builder()
        .config(cfg.clone())
        .trace(&original)
        .run()?;
    let b = Scheme::Pod.builder().config(cfg).trace(&rebuilt).run()?;
    println!(
        "\nreplay(original): mean {:.3} ms, removed {:.1}%",
        a.overall.mean_ms(),
        a.writes_removed_pct()
    );
    println!(
        "replay(rebuilt):  mean {:.3} ms, removed {:.1}%",
        b.overall.mean_ms(),
        b.writes_removed_pct()
    );
    assert_eq!(
        a.overall.mean_us(),
        b.overall.mean_us(),
        "round-tripped trace must replay identically"
    );
    println!("\nround trip is exact: the FIU import path is replay-equivalent.");
    Ok(())
}
