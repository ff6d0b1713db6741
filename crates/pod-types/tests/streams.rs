//! Known answers for every deterministic stream the workspace draws
//! from. Generated traces, fault plans and property-test cases are all
//! functions of these streams, so a change to any one draw moves every
//! figure; this table makes such a change fail here first.

use pod_types::rng::{Rng, SplitMix64};
use proptest::TestRng;

/// The draws each case names.
fn draws(case: &str) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(42);
    match case {
        "next_u64, seed 0" => {
            let mut rng = Rng::seed_from_u64(0);
            (0..8).map(|_| rng.next_u64()).collect()
        }
        "next_u64, seed 42" => (0..8).map(|_| rng.next_u64()).collect(),
        "f64" => vec![rng.f64().to_bits()],
        "0..10u8" => (0..8).map(|_| rng.below(10) as u8 as u64).collect(),
        "0..22usize" => (0..8).map(|_| rng.below(22) as usize as u64).collect(),
        "5..10u8" => (0..8).map(|_| (5 + rng.below(5) as u8) as u64).collect(),
        "1000..u64::MAX" => (0..4)
            .map(|_| 1_000 + rng.below(u64::MAX - 1_000))
            .collect(),
        "bool(0.1)" => (0..40).map(|_| rng.bool(0.1) as u64).collect(),
        // `FaultyBackend`'s stream: SplitMix64 from the plan seed mixed
        // once with the golden ratio.
        "fault stream, seed 0" => fault_stream(0),
        "fault stream, seed 7" => fault_stream(7),
        "TestRng::deterministic(\"x\")" => {
            let mut t = TestRng::deterministic("x");
            (0..3).map(|_| t.rng().next_u64()).collect()
        }
        _ => unreachable!("unknown case {case}"),
    }
}

fn fault_stream(seed: u64) -> Vec<u64> {
    let mut s = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..6).map(|_| s.next_u64()).collect()
}

#[rustfmt::skip]
const KNOWN: [(&str, &[u64]); 11] = [
    ("next_u64, seed 0", &[0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc, 0x02eebf8c3bbe5e1a, 0x7eca04ebaf4a5eea, 0x0543c37757f08d9a, 0xdb7490c75ab5026e, 0xd87343e6464bc959]),
    ("next_u64, seed 42", &[0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c, 0xb37d9f600cd835b8, 0xcb231c3874846a73, 0x968d9f004e50de7d, 0x201718ff221a3556, 0x9ae94e070ed8cb46]),
    ("f64", &[0x3fea0ec9a9e88ecd]),
    ("0..10u8", &[8, 3, 9, 7, 7, 5, 1, 6]),
    ("0..22usize", &[17, 7, 21, 15, 17, 12, 2, 13]),
    ("5..10u8", &[9, 6, 9, 8, 8, 7, 5, 8]),
    ("1000..u64::MAX", &[0xd0764d4f44766957, 0x519e4174576f3a39, 0xfbe07cfb0c24ed9b, 0xb37d9f600cd836e2]),
    ("bool(0.1)", &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("fault stream, seed 0", &[0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec, 0x1b39896a51a8749b, 0x53cb9f0c747ea2ea, 0x2c829abe1f4532e1]),
    ("fault stream, seed 7", &[0xec779c3693f88501, 0xfed9eeb4936de39d, 0x6f9fb04b092bd30a, 0x260ffb0260bbbe5f, 0x082cfe8866fac366, 0x7a5f67e38e997e3f]),
    ("TestRng::deterministic(\"x\")", &[0xde0483f8262bc980, 0xb261df5b45b51dd0, 0xd36880bf0ac76326]),
];

#[test]
fn streams_match_their_known_answers() {
    for (case, want) in KNOWN {
        assert_eq!(draws(case), want, "{case}");
    }
}
