//! Running one `pod-cli` process: wall clock, exit status, peak RSS.
//!
//! Children are started by a small [`Launcher`] process, not by the
//! harness itself, so that their peak RSS is their own.

use crate::workload::OUT_DIR;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// What one child process left behind.
pub struct ChildRun {
    /// Spawn → reaped, seconds (taken inside the launcher).
    pub wall_s: f64,
    /// Peak resident set (the kernel's `ru_maxrss`, i.e. `VmHWM`), MiB.
    pub peak_rss_mib: f64,
    pub exit_ok: bool,
    pub stdout: String,
}

/// Linux `struct rusage` on 64-bit targets: two `timeval`s followed by
/// fourteen `long`s, of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `pid` and return `(exited with status 0, ru_maxrss KiB)`.
fn reap(pid: u32) -> std::io::Result<(bool, i64)> {
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `wait4` is the libc function std already links; `status`
    // and `usage` are live, writable and laid out as the kernel's
    // 64-bit Linux ABI expects (checked by the size assertion below),
    // and `pid` is a child this process spawned and has not yet reaped,
    // so the call cannot reap anything std still tracks.
    let got = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
    if got != pid as i32 {
        return Err(std::io::Error::last_os_error());
    }
    // WIFEXITED && WEXITSTATUS == 0 is exactly "status word is zero".
    Ok((status == 0, usage.ru_maxrss))
}

const _: () = assert!(std::mem::size_of::<Rusage>() == 144);

/// Spawn `program args…` with stdout and stderr sent to the two files,
/// wait for it, and return `(wall ns, ru_maxrss KiB, exited with 0)`.
fn spawn_and_reap(
    program: &str,
    args: &[&str],
    stdout: &str,
    stderr: &str,
) -> Result<(u128, i64, bool), String> {
    let create = |p: &str| File::create(p).map_err(|e| format!("creating {p}: {e}"));
    let (out, err) = (create(stdout)?, create(stderr)?);
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawning {program}: {e}"))?;
    // Reaped here with wait4 (for the rusage) instead of `Child::wait`;
    // dropping the handle afterwards neither waits nor kills.
    let (exit_ok, maxrss_kib) = reap(child.id()).map_err(|e| format!("waiting for child: {e}"))?;
    Ok((started.elapsed().as_nanos(), maxrss_kib, exit_ok))
}

/// Field separator of the launcher's request lines.
const SEP: char = '\x1f';

/// Body of the launcher process: for each request line on stdin
/// (`stdout file, stderr file, program, args…`, separated by [`SEP`]),
/// run the program and answer `wall_ns maxrss_kib exit_ok` — or
/// `error: …` — on stdout. Ends at end of input.
pub fn launcher_main() {
    let mut line = String::new();
    while std::io::stdin().read_line(&mut line).is_ok_and(|n| n > 0) {
        let fields: Vec<&str> = line.trim_end_matches('\n').split(SEP).collect();
        match fields.as_slice() {
            [stdout, stderr, program, args @ ..] => {
                match spawn_and_reap(program, args, stdout, stderr) {
                    Ok((wall_ns, maxrss_kib, exit_ok)) => {
                        println!("{wall_ns} {maxrss_kib} {}", u8::from(exit_ok))
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            _ => println!("error: malformed request"),
        }
        line.clear();
    }
}

/// A small helper process that starts the `pod-cli` children.
///
/// A child's `ru_maxrss` starts from its parent's resident set at fork
/// time (the kernel carries the old address space's high-water mark
/// across `exec`), so a child forked by the harness itself — which
/// holds whole traces and runs the engine in-process — would report the
/// harness's memory, not its own. The launcher is this executable
/// started again, before anything is loaded, with a resident set of a
/// couple of MiB; children forked from it report their own peak.
pub struct Launcher {
    process: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
    pod_cli: PathBuf,
}

impl Launcher {
    /// Start the launcher. Call this before loading any input.
    pub fn start(pod_cli: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let mut process = Command::new(exe)
            .arg("--launcher")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the launcher: {e}"))?;
        Ok(Self {
            requests: process.stdin.take(),
            replies: BufReader::new(process.stdout.take().expect("piped")),
            process,
            pod_cli: pod_cli.to_path_buf(),
        })
    }

    /// Run `pod-cli argv…` from the working directory with stdout and
    /// stderr sent to `benchmark/out/<tag>.{stdout,stderr}`, wait for
    /// it, and read its stdout back.
    pub fn run(&mut self, argv: &[String], tag: &str) -> Result<ChildRun, String> {
        let stdout_path = format!("{OUT_DIR}/{tag}.stdout");
        let mut request = format!(
            "{stdout_path}{SEP}{OUT_DIR}/{tag}.stderr{SEP}{}",
            self.pod_cli.display()
        );
        for arg in argv {
            request.push(SEP);
            request.push_str(arg);
        }
        request.push('\n');
        let requests = self.requests.as_mut().expect("open until drop");
        requests
            .write_all(request.as_bytes())
            .and_then(|()| requests.flush())
            .map_err(|e| format!("asking the launcher: {e}"))?;
        let mut reply = String::new();
        self.replies
            .read_line(&mut reply)
            .map_err(|e| format!("reading the launcher's reply: {e}"))?;
        let numbers: Vec<u64> = reply
            .split_whitespace()
            .map_while(|f| f.parse().ok())
            .collect();
        let &[wall_ns, maxrss_kib, exit_ok] = numbers.as_slice() else {
            return Err(format!("launcher: {}", reply.trim()));
        };
        let stdout = std::fs::read_to_string(&stdout_path)
            .map_err(|e| format!("reading {stdout_path}: {e}"))?;
        Ok(ChildRun {
            wall_s: wall_ns as f64 / 1e9,
            peak_rss_mib: maxrss_kib as f64 / 1024.0,
            exit_ok: exit_ok == 1,
            stdout,
        })
    }
}

impl Drop for Launcher {
    /// End of input stops the launcher; wait until it has ended.
    fn drop(&mut self) {
        drop(self.requests.take());
        let _ = self.process.wait();
    }
}

/// The child's stdout with its one wall-clock line removed, so that
/// repetitions can be compared byte for byte. `replay` prints
/// `done in <duration>` on stdout (`serve` keeps it on stderr); nothing
/// else is stripped.
pub fn normalise_stdout(stdout: &str) -> String {
    stdout
        .split_inclusive('\n')
        .filter(|line| !line.starts_with("done in "))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Head of a real `pod-cli replay --scheme pod --profile mail
    /// --scale 0.05 --seed 42` run.
    const REPLAY_STDOUT: &str = "\
replaying 16407 requests of `mail` through POD ...
done in 88.146313ms

response time (ms):    mean      p50      p95      p99      max
  overall              11.08     5.09    44.40    78.65   219.17
  reads                 7.58     5.31    21.84    36.39    75.81
  writes               11.87     1.03    47.23    83.84   219.17

writes removed 56.0%   deduped blocks 91015   capacity used 170.0 MiB
write classification: 7051 Cat-1, 1263 Cat-2, 2370 Cat-3, 2583 unique
";

    /// Head of a real `pod-cli serve --tenants 8 --shards 2 --jobs 2
    /// --profile mail --scale 0.0125 --seed 42 --policy …` run: stdout
    /// carries no wall-clock line (`serve` keeps `done in` on stderr).
    const SERVE_STDOUT: &str = "\
== serve: POD / 8 tenants ==

tenant  trace            requests  removed%  saved MiB   mean ms   p95 ms   p99 ms  cap MiB
     0  mail                  3487      58.3       83.1      8.19    32.15    55.30     39.7
     1  mail#1                3487      56.7       87.9      9.00    34.73    67.50     40.7
";

    #[test]
    fn normaliser_strips_exactly_the_done_in_line() {
        let got = normalise_stdout(REPLAY_STDOUT);
        let want = REPLAY_STDOUT.replace("done in 88.146313ms\n", "");
        assert_eq!(got, want);
        assert_eq!(got.lines().count(), REPLAY_STDOUT.lines().count() - 1);
        // A different duration normalises to the same bytes.
        let other = REPLAY_STDOUT.replace("88.146313ms", "1.2s");
        assert_eq!(normalise_stdout(&other), got);
    }

    #[test]
    fn normaliser_leaves_everything_else_alone() {
        assert_eq!(normalise_stdout(SERVE_STDOUT), SERVE_STDOUT);
        // Only a line that *starts* with the marker goes; a missing
        // final newline is preserved.
        let tricky = "  done in 3s\nall done in time\nlast";
        assert_eq!(normalise_stdout(tricky), tricky);
        assert_eq!(normalise_stdout(""), "");
    }
}
