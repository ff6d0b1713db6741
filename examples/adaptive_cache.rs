//! Drive the iCache directly through alternating write and read bursts
//! and watch the partition adapt — the §III-C mechanism in isolation.
//!
//! ```text
//! cargo run --release --example adaptive_cache
//! ```

use pod::icache::{ICache, ICacheConfig};
use pod::types::{Lba, BLOCK_BYTES};

const MB: u64 = 1024 * 1024;

fn bar(fraction: f64, width: usize) -> String {
    let filled = ((fraction * width as f64).round() as usize).min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

fn main() {
    let total = 8 * MB;
    let mut icache = ICache::new(ICacheConfig {
        epoch_requests: 500,
        ..ICacheConfig::adaptive(total)
    });

    println!("iCache over {} MiB, epoch = 500 requests", total / MB);
    println!("phase          epoch  index|read split            ghost hits (idx/read)");

    for (phase, is_write_burst) in [
        ("write burst", true),
        ("write burst", true),
        ("read burst", false),
        ("read burst", false),
        ("write burst", true),
        ("read burst", false),
    ]
    .iter()
    .enumerate()
    .map(|(i, (n, w))| ((i, *n), *w))
    {
        let (phase_idx, phase_name) = phase;
        for i in 0..500u64 {
            if is_write_burst {
                // Hot fingerprints cycling beyond the index capacity:
                // each write misses the index table and hits the ghost
                // index behind it, signalling "a bigger index would
                // dedup more".
                icache.on_ghost_index_hits(1);
            } else {
                // Reads sweeping a set larger than the read cache: misses
                // probe the ghost read cache.
                let lba = Lba::new((phase_idx as u64 * 1_000_000 + i * 7) % 50_000);
                if !icache.read_lookup(lba) {
                    icache.read_fill(lba);
                }
            }
            if let Some(rp) = icache.note_request(is_write_burst) {
                let frac = rp.index_bytes as f64 / total as f64;
                println!(
                    "{:<13} {:>6}  [{}] {:>4.0}% index  ({} blocks swapped, {})",
                    phase_name,
                    icache.epochs(),
                    bar(frac, 24),
                    frac * 100.0,
                    rp.swap_blocks,
                    if rp.index_grew {
                        "index grew"
                    } else {
                        "read grew"
                    }
                );
            }
        }
    }

    println!(
        "\nfinal partition: index {:.1} MiB / read {:.1} MiB ({} repartitions over {} epochs)",
        icache.index_bytes() as f64 / MB as f64,
        icache.read_bytes() as f64 / MB as f64,
        icache.repartitions(),
        icache.epochs()
    );
    println!(
        "read cache now holds up to {} blocks",
        icache.read_bytes() / BLOCK_BYTES
    );
}
