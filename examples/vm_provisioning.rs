//! VM fleet provisioning — the Cloud scenario the paper's §III-A calls
//! out: "virtual machine images that are mostly identical but differ in
//! a few data blocks".
//!
//! Provisions a fleet of near-identical VM images through Native and
//! POD, then restores one clone, showing all three effects at once:
//! write elimination, capacity savings, and the restore-fragmentation
//! trade the paper's §II motivates.
//!
//! ```text
//! cargo run --release --example vm_provisioning
//! ```

use pod::prelude::*;
use pod::trace::VmFleetConfig;
use pod_core::experiments::{restore_csv, restore_experiment, run_schemes};

fn main() {
    // Eight VMs from a 32 MiB golden image (the default fleet).
    let fleet = VmFleetConfig {
        mutation_rate: 0.03,
        ..VmFleetConfig::default()
    };
    let trace = fleet.generate(42);
    println!(
        "provisioning {} VMs from a {} MiB golden image ({} write requests, 3% mutated blocks)\n",
        fleet.n_vms,
        fleet.image_blocks * 4 / 1024,
        trace.len()
    );

    let cfg = SystemConfig::paper_default();
    let reports = run_schemes(&[Scheme::Native, Scheme::Pod], &trace, &cfg).expect("replay");
    println!(
        "{:<10} {:>14} {:>11} {:>10}",
        "scheme", "prov. mean(ms)", "removed%", "cap(MiB)"
    );
    for rep in &reports {
        println!(
            "{:<10} {:>14.2} {:>11.1} {:>10.1}",
            rep.scheme,
            rep.writes.mean_ms(),
            rep.writes_removed_pct(),
            rep.capacity_used_mib()
        );
    }
    let native_cap = reports[0].capacity_used_mib();
    let pod_cap = reports[1].capacity_used_mib();
    println!(
        "\nPOD stores the fleet in {:.1}% of Native's space — clones dedup onto the\n\
         golden image, and whole provisioning writes vanish from the I/O path.",
        pod_cap / native_cap * 100.0
    );

    println!("\nrestoring one clone (sequential full-image read-back):");
    print!(
        "{}",
        restore_csv(&restore_experiment(0.05, 42).expect("replay"))
    );
    println!(
        "\nThe restore penalty (paper §II: 2.9x average, up to 4.2x) is why POD's\n\
         Select-Dedupe refuses *scattered* dedup on primary workloads — on identical\n\
         image fleets the big sequential runs are still worth deduplicating."
    );
}
