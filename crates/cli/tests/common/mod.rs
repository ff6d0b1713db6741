//! What the binary's integration tests share: spawning the built
//! `pod-cli`, scratch directories and the golden fixtures.
//!
//! Regenerate a fixture after an intentional format change with
//! `POD_UPDATE_GOLDEN=1 cargo test -p pod-cli`.

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every scheme, by its `--scheme` name.
pub const SCHEMES: [&str; 7] = [
    "native", "full", "idedup", "select", "pod", "post", "iodedup",
];

/// Run the built `pod-cli` with `args`.
pub fn pod_cli<S: AsRef<OsStr>>(args: impl IntoIterator<Item = S>) -> Output {
    pod_cli_in(Path::new("."), args)
}

/// [`pod_cli`] run in `dir`.
pub fn pod_cli_in<S: AsRef<OsStr>>(dir: &Path, args: impl IntoIterator<Item = S>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pod-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn pod-cli")
}

/// The stdout of a run that must exit 0, but the lines naming the wall
/// time it took (`done in ...`).
pub fn untimed(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.contains("done in"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// [`untimed`] stdout of `pod-cli args...`.
pub fn pod_cli_ok(args: &[&str]) -> String {
    untimed(&pod_cli(args))
}

/// A new, empty scratch directory of this process.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pod-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// `path` as a `&str` argument.
pub fn arg(path: &Path) -> &str {
    path.to_str().expect("a UTF-8 path")
}

/// `rendered` must equal the committed fixture `tests/golden/<name>`;
/// under `POD_UPDATE_GOLDEN` it becomes the fixture instead.
pub fn assert_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name);
    if std::env::var_os("POD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let expected =
        std::fs::read_to_string(&path).expect("the fixture (POD_UPDATE_GOLDEN writes it)");
    let line = rendered
        .lines()
        .zip(expected.lines())
        .position(|(a, b)| a != b);
    assert!(
        rendered == expected,
        "{name} diverged at line {:?} (1-based; None: one is a prefix of the other):\n{rendered}",
        line.map(|i| i + 1)
    );
}
