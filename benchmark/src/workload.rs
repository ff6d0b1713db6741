//! The four benchmark workloads and their inputs.
//!
//! Sizes are written at paper scale and divided by `div`: 4 for the
//! benchmark proper (the contract's time cap does not fit paper-scale
//! processes), 20 for `--quick`. `TraceProfile::scaled` shrinks request
//! count, working set and DRAM budget together, so cache pressure — the
//! property the workloads were chosen for — is the same at every size.

use pod_trace::fiu;
use pod_trace::reconstruct::split_into_records;
use pod_trace::TraceProfile;
use std::path::{Path, PathBuf};

/// Directory (relative to the repository root, which is the harness's
/// working directory) holding generated inputs and outputs.
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `pod-cli replay`: one trace through one stack.
    Replay,
    /// `pod-cli serve`: a tenant fleet through the sharded engine.
    Serve,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One line on why the workload exists (mirrored in BENCHMARK.json).
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mail-pod",
        kind: Kind::Replay,
        why: "paper headline: write-heavy redundant mail trace through full POD, cache far smaller than data; pod-dedup and pod-icache do most of the work",
    },
    Workload {
        name: "webvm-native",
        kind: Kind::Replay,
        why: "bypass case: no index, read cache or iCache, every write reaches the array; pod-disk and pod-trace shares are largest; cache/index changes must not move it",
    },
    Workload {
        name: "readmix-fiu",
        kind: Kind::Replay,
        why: "read-back case from an FIU text file: 11% writes, working set fits the cache, oracle and recorders attached; parser, read-hit path and observers show here only",
    },
    Workload {
        name: "fleet-serve",
        kind: Kind::Serve,
        why: "8 tenants on 2 shards and 2 worker threads under a QoS policy that throttles ~23% of requests; serve, pool, MergedStream interleave and shared tier",
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The child's full argument vector (subcommand first). `--seed`
    /// reaches the program only as its own `--seed` flag or as the
    /// generated FIU file.
    pub fn argv(&self, seed: u64, div: u32) -> Vec<String> {
        let d = div as f64;
        let text = match self.name {
            "mail-pod" => format!(
                "replay --scheme pod --profile mail --scale {} --seed {seed}",
                1.0 / d
            ),
            "webvm-native" => format!(
                "replay --scheme native --profile web-vm --scale {} --seed {seed}",
                4.0 / d
            ),
            "readmix-fiu" => format!(
                "replay --scheme pod --trace {} --memory {} --verify --trace-out {OUT_DIR}/readmix.jsonl",
                fiu_path(seed).display(),
                (1024 / div).max(1)
            ),
            "fleet-serve" => format!(
                "serve --tenants 8 --shards 2 --jobs 2 --profile mail --scale {} --seed {seed} \
                 --policy tier:8,rate:150,burst:64,quota:1",
                0.25 / d
            ),
            other => unreachable!("unknown workload {other}"),
        };
        text.split_whitespace().map(str::to_string).collect()
    }

    pub fn needs_fiu(&self) -> bool {
        self.name == "readmix-fiu"
    }
}

/// The harness-owned read-back profile: web-vm's sizes and redundancy
/// with the burst model turned over to ~11 % writes, a 512 MiB working
/// set and 8× the request count (all ÷ `div`).
pub fn readmix_profile(div: u32) -> TraceProfile {
    let mut p = TraceProfile::web_vm();
    p.name = "readmix".into();
    p.burst.write_phase_fraction = 0.36;
    p.burst.write_phase_write_prob = 0.28;
    p.burst.read_phase_write_prob = 0.02;
    p.n_requests = 154_105 * 8 / div as usize;
    p.working_set_blocks = (131_072 / div as u64).max(1_024);
    p
}

pub fn fiu_path(seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("readmix-{seed}.fiu"))
}

/// Size and digest of a materialised FIU file, so two runs can show
/// they replayed the same bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FiuInfo {
    pub bytes: u64,
    pub fnv64: u64,
    pub regenerated: bool,
}

/// FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Write the read-back workload's FIU file for `seed`, unless `force`
/// is off and a file stamped with the same size divisor, byte count and
/// digest is already there.
pub fn materialise_fiu(seed: u64, div: u32, force: bool) -> Result<FiuInfo, String> {
    let path = fiu_path(seed);
    let stamp_path = path.with_extension("fiu.stamp");
    if !force {
        if let (Ok(body), Ok(stamp)) = (std::fs::read(&path), std::fs::read_to_string(&stamp_path))
        {
            let info = FiuInfo {
                bytes: body.len() as u64,
                fnv64: fnv64(&body),
                regenerated: false,
            };
            if stamp == stamp_text(div, &info) {
                return Ok(info);
            }
        }
    }
    // One seed's file is ~40 MiB; keep only the one in use.
    for entry in std::fs::read_dir(OUT_DIR).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let other_seed = name.ends_with(".fiu") && Path::new(OUT_DIR).join(&name) != path;
        if other_seed {
            let _ = std::fs::remove_file(entry.path());
            let _ = std::fs::remove_file(entry.path().with_extension("fiu.stamp"));
        }
    }
    let trace = readmix_profile(div).generate(seed);
    let text = fiu::format_records(&split_into_records(&trace));
    let info = FiuInfo {
        bytes: text.len() as u64,
        fnv64: fnv64(text.as_bytes()),
        regenerated: true,
    };
    std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    std::fs::write(&stamp_path, stamp_text(div, &info))
        .map_err(|e| format!("writing {}: {e}", stamp_path.display()))?;
    Ok(info)
}

fn stamp_text(div: u32, info: &FiuInfo) -> String {
    format!("div={div} bytes={} fnv64={:016x}\n", info.bytes, info.fnv64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_cli::args::CliArgs;

    #[test]
    fn every_child_argv_parses_with_the_programs_own_parser() {
        for w in WORKLOADS {
            for div in [4, 20] {
                let argv = w.argv(42, div);
                let args = CliArgs::parse(&argv[1..]).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                args.system_config().expect("valid config");
                assert_eq!(argv[0] == "serve", w.kind == Kind::Serve);
            }
        }
    }

    #[test]
    fn sizes_divide_paper_scale() {
        assert!(by_name("mail-pod")
            .unwrap()
            .argv(7, 4)
            .contains(&"0.25".to_string()));
        assert!(by_name("webvm-native")
            .unwrap()
            .argv(7, 4)
            .contains(&"1".to_string()));
        assert!(by_name("fleet-serve")
            .unwrap()
            .argv(7, 4)
            .contains(&"0.0625".to_string()));
        let p = readmix_profile(4);
        assert_eq!(p.n_requests, 308_210);
        assert_eq!(p.working_set_blocks, 32_768);
        p.validate().expect("valid profile");
        assert!((p.expected_write_ratio() - 0.11).abs() < 0.01);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
