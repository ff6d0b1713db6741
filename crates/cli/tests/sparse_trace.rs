//! A real trace is sparse over the array, and a replay of one costs
//! memory for the regions it touches, not for the array.
//!
//! Four FIU rows spread over 80 M blocks (two writes of one hash, one of
//! another, and a read) replay through POD under `--verify` in a child
//! limited to 1 GiB of address space, and the integrity oracle finds no
//! divergent block. The chunk store keeps its block records in pages
//! allocated as regions are first written; flat per-block tables over
//! this array would need about 5 GB and fail the allocation.

mod common;

use common::scratch;
use std::process::Command;

const SHA: &str = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
const OTHER: &str = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08";

/// Address space the replay may map, KiB (`ulimit -v`).
const ADDRESS_SPACE_KIB: u64 = 1 << 20;

#[test]
fn a_sparse_trace_replays_in_under_1_gib_of_address_space() {
    let dir = scratch("sparse");
    let trace = dir.join("sparse.fiu");
    let rows = [
        format!("1000 1 p 0 1 W 8 0 {SHA}"),
        format!("2000 1 p 40000000 1 W 8 0 {SHA}"),
        format!("3000 1 p 80000000 1 W 8 0 {OTHER}"),
        "4000 1 p 40000000 1 R 8 0 *".to_string(),
    ];
    std::fs::write(&trace, rows.join("\n") + "\n").expect("write the trace");

    // The limit is set in a shell that then becomes the replay, so it
    // binds that child alone.
    let script = format!(
        "ulimit -v {ADDRESS_SPACE_KIB}; \
         exec \"$0\" replay --scheme pod --trace \"$1\" --verify"
    );
    let out = Command::new("sh")
        .arg("-c")
        .arg(script)
        .arg(env!("CARGO_BIN_EXE_pod-cli"))
        .arg(&trace)
        .output()
        .expect("spawn sh");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("divergent        0"), "{stdout}");
}
