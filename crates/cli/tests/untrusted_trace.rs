//! A crafted FIU file makes `pod-cli replay --trace` fail with an
//! `error:` line naming the bad line — it used to abort on a 128 GiB
//! allocation (oversized block count) or wrap the address space
//! (`lba` at `u64::MAX`).

use std::process::Command;

const SHA: &str = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";

#[test]
fn crafted_fiu_lines_are_parse_errors_not_aborts() {
    let crafted = [
        ("nblocks", format!("1 1 p 0 4294967295 W 8 0 {SHA}")),
        ("lba", format!("1 1 p 18446744073709551615 1 W 8 0 {SHA}")),
    ];
    for (what, line) in crafted {
        let path =
            std::env::temp_dir().join(format!("pod-crafted-{what}-{}.fiu", std::process::id()));
        // The bad line is the third of the file.
        std::fs::write(&path, format!("# crafted\n0 1 p 0 1 W 8 0 {SHA}\n{line}\n"))
            .expect("write the crafted file");
        let out = Command::new(env!("CARGO_BIN_EXE_pod-cli"))
            .args(["replay", "--scheme", "pod", "--trace"])
            .arg(&path)
            .output()
            .expect("spawn pod-cli");
        std::fs::remove_file(&path).expect("remove the crafted file");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert!(stderr.starts_with("error: parsing "), "{what}: {stderr}");
        assert!(
            stderr.contains("trace parse error at line 3"),
            "{what}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked") && !stderr.contains("allocation"),
            "{what}: {stderr}"
        );
    }
}
