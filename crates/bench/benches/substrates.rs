//! Microbenches for the substrate crates: hashing, caches, index table,
//! chunk store, RAID planning, the event engine (alone and under the
//! paper array's job mixes), and the trace input stage. These
//! establish that the simulator itself is fast enough that replay
//! results measure the *modelled* system, not harness overhead.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pod_cache::GhostedLru;
use pod_core::pool::default_width;
use pod_dedup::index::IndexEntry;
use pod_dedup::{ChunkStore, IndexTable, INDEX_ENTRY_BYTES};
use pod_disk::engine::isolated_latency;
use pod_disk::{ArraySim, DiskSpec, RaidConfig, RaidGeometry, SchedulerKind};
use pod_trace::reconstruct::{split_into_records, FiuLoader};
use pod_trace::{fiu, TraceProfile};
use pod_types::hash::fnv1a_64;
use pod_types::rng::splitmix64;
use pod_types::{Fingerprint, IoRequest, Lba, Pba, SimTime};
use std::hint::black_box;

fn bench_hashing(c: &mut Criterion) {
    let chunk = vec![0xA5u8; 4096];
    let mut g = c.benchmark_group("hash");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("fnv1a_4k", |b| b.iter(|| fnv1a_64(black_box(&chunk))));
    g.finish();
}

fn bench_caches(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_ops");
    g.bench_function("lru_insert_get", |b| {
        b.iter_batched(
            || GhostedLru::<u64, u64>::new(1_024, 0),
            |mut cache| {
                for i in 0..4_096u64 {
                    cache.insert(i, i);
                    black_box(cache.get_mut(&(i / 2)));
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
    // The one above is L1-resident (1,024 `u64` entries) and says
    // nothing about the tables a replay lives in. These run at the
    // benchmark's scale: `mail-pod`'s unique-chunk sequence through a
    // full 32,768-entry fingerprint index and its 65,536-entry ghost,
    // `readmix-fiu`'s hit path over 65,536 cached blocks, and
    // `mail-pod`'s write-allocate fills.
    g.bench_function("index_lru_churn", |b| {
        const INDEX: u64 = 32_768;
        const GHOST: u64 = 65_536;
        let fp = Fingerprint::from_content_id;
        let entry = |id| IndexEntry {
            pba: Pba::new(id),
            count: 0,
        };
        b.iter_batched(
            || {
                // The first 65,536 ids end in the ghost, the next 32,768
                // in the index.
                let mut index = GhostedLru::new(INDEX as usize, GHOST as usize);
                for id in 0..GHOST + INDEX {
                    index.insert(fp(id), entry(id));
                }
                index
            },
            |mut index| {
                for id in GHOST + INDEX..2 * (GHOST + INDEX) {
                    let fp = fp(id);
                    // Query miss; the upsert evicts the LRU entry into
                    // the ghost, which drops its tail; the ghost probe
                    // that follows misses.
                    if index.get_mut(&fp).is_none() {
                        index.upsert(fp, entry(id), |e, new| e.pba = new.pba);
                        black_box(index.probe_ghost(&fp));
                    }
                }
                index
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("read_hit_promote", |b| {
        const BLOCKS: u64 = 65_536;
        b.iter_batched(
            || {
                let mut cache = GhostedLru::<u64, ()>::new(BLOCKS as usize, 0);
                for lba in 0..BLOCKS {
                    cache.insert(lba, ());
                }
                cache
            },
            |mut cache| {
                // An odd multiplier permutes 0..2^16: every block is hit
                // once, in an order that defeats the prefetcher.
                for i in 0..BLOCKS {
                    let lba = i.wrapping_mul(0x9E37_79B1) % BLOCKS;
                    black_box(cache.lookup(&lba));
                }
                cache
            },
            BatchSize::LargeInput,
        )
    });
    // `mail-pod`'s write-allocate shape: runs of 9 blocks filled into a
    // 624-block read cache whose ghost remembers 960, over 16,384 blocks,
    // so nearly every fill evicts into the ghost and a few meet their
    // own ghost. Reported per filled block.
    const RUNS: u64 = 4_096;
    g.throughput(Throughput::Elements(RUNS * 9));
    g.bench_function("read_allocate_churn", |b| {
        b.iter_batched(
            || {
                let mut cache = GhostedLru::<u64, ()>::new(624, 960);
                for key in 0..624 + 960 {
                    cache.insert((1 << 40) + key, ());
                }
                cache
            },
            |mut cache| {
                for run in 0..RUNS {
                    let first = splitmix64(run) % 16_384;
                    for key in first..first + 9 {
                        cache.insert(key, ());
                    }
                }
                cache
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_index_table(c: &mut Criterion) {
    c.bench_function("index_table_query_insert", |b| {
        b.iter_batched(
            || IndexTable::with_byte_budget(8_192 * INDEX_ENTRY_BYTES),
            |mut t| {
                for i in 0..16_384u64 {
                    let fp = Fingerprint::from_content_id(i % 12_288);
                    if t.query(&fp).is_none() {
                        t.insert(fp, Pba::new(i));
                    }
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
}

/// The Map table on its own, so "the table got faster" is separable
/// from "the engine got faster". Two address streams over a warm store
/// (every block written once up front, so pages exist and writes land
/// in place): sequential blocks, which is what back-to-back 8-block
/// requests are to the store, and one block per 4,096-block table page
/// — the worst case for a block-indexed table.
fn bench_chunk_store(c: &mut Criterion) {
    let fp = Fingerprint::from_content_id;
    let mut g = c.benchmark_group("chunk_store");
    for (stream, stride, blocks) in [("seq", 1u64, 65_536u64), ("strided", 4_096, 512)] {
        let span = blocks * stride;
        let mut store = ChunkStore::new(2 * span, 4_096).expect("a small store");
        for i in 0..blocks {
            store
                .write_unique(Lba::new(i * stride), fp(i), None)
                .expect("in range");
        }
        g.throughput(Throughput::Elements(blocks));
        let mut pass = 0;
        g.bench_function(format!("write_unique_{stream}"), |b| {
            b.iter(|| {
                pass += 1;
                for i in 0..blocks {
                    let content = fp(pass * blocks + i);
                    let pba = store.write_unique(Lba::new(i * stride), content, None);
                    black_box(pba.expect("in range"));
                }
            })
        });
        // The engine's per-duplicate-chunk pair: validate the candidate
        // block's content, then remap a far LBA onto it. Each pass moves
        // every far LBA one target along, so every call releases one
        // block and claims another.
        g.bench_function(format!("dedup_to_content_at_{stream}"), |b| {
            b.iter(|| {
                pass += 1;
                for i in 0..blocks {
                    let target = Pba::new((i + pass) % blocks * stride);
                    if black_box(store.content_at(target)).is_some() {
                        store
                            .dedup_to(Lba::new(span + i * stride), target)
                            .expect("live target");
                    }
                }
            })
        });
    }
    g.finish();
}

/// The planners as the event engine runs them: into phase buffers
/// reused from job to job, cleared before each plan.
fn bench_raid_planning(c: &mut Criterion) {
    let g5 = RaidGeometry::new(RaidConfig::paper_raid5());
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut write = |b: &mut criterion::Bencher, pba: u64, nblocks: u32| {
        b.iter(|| {
            reads.clear();
            writes.clear();
            g5.plan_write_into(black_box(Pba::new(pba)), nblocks, &mut reads, &mut writes);
            black_box((reads.len(), writes.len()))
        })
    };
    let mut g = c.benchmark_group("raid_plan");
    g.bench_function("small_write_rmw", |b| write(b, 12_345, 4));
    g.bench_function("full_stripe_write", |b| write(b, 0, 48));
    let mut ops = Vec::new();
    g.bench_function("large_read", |b| {
        b.iter(|| {
            ops.clear();
            g5.plan_read_into(black_box(Pba::new(777)), 128, &mut ops);
            black_box(ops.len())
        })
    });
    g.finish();
}

fn bench_event_engine(c: &mut Criterion) {
    c.bench_function("array_sim_1000_jobs", |b| {
        b.iter_batched(
            || {
                ArraySim::new(
                    RaidGeometry::new(RaidConfig::paper_raid5()),
                    DiskSpec::test_disk(),
                    SchedulerKind::Fifo,
                )
            },
            |mut sim| {
                for i in 0..1_000u64 {
                    let at = SimTime::from_micros(i * 50);
                    if i % 3 == 0 {
                        sim.submit_write(at, Pba::new((i * 13) % 8_000), 4);
                    } else {
                        sim.submit_read(at, Pba::new((i * 7) % 8_000), 8);
                    }
                }
                sim.run_to_idle();
                sim
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("isolated_rmw_latency", |b| {
        b.iter_batched(
            || {
                ArraySim::new(
                    RaidGeometry::new(RaidConfig::paper_raid5()),
                    DiskSpec::wd1600aajs(),
                    SchedulerKind::Fifo,
                )
            },
            |mut sim| isolated_latency(&mut sim, SimTime::ZERO, Pba::new(100_000), 4, true),
            BatchSize::SmallInput,
        )
    });
}

/// The paper array (4-disk RAID-5 over WD1600AAJS members) under three
/// canonical job mixes, in jobs per second. Each run drives the array
/// the way a replay does: `run_until` each arrival, submit, drain at the
/// end. Arrivals are spaced above the mix's worst-case service time
/// (~21 ms for one op: full seek plus half a revolution; an RMW is two
/// dependent phases), the primary-storage regime where the disks keep
/// up. Job counts are trace-replay sized, so per-job storage shows.
fn bench_array_mixes(c: &mut Criterion) {
    type Submit = fn(&mut ArraySim, SimTime, u64, u64);
    let mixes: [(&str, u64, u64, Submit); 3] = [
        // Scattered 4 KiB reads: the dedup-index / Cat-3 lookup shape.
        ("random-4k", 2_000_000, 25_000, |sim, at, i, cap| {
            sim.submit_read(at, Pba::new(splitmix64(i) % cap), 1);
        }),
        // Back-to-back 64-block sequential reads: streaming scans that
        // fan one stripe-width op out to every member.
        ("seq-extent", 500_000, 8_000, |sim, at, i, cap| {
            sim.submit_read(at, Pba::new(i * 64 % (cap - 64)), 64);
        }),
        // Scattered small writes: the RAID-5 read-modify-write path POD's
        // Cat-1 traffic hits; `| 1` keeps them off stripe-unit alignment.
        ("raid5-rmw", 400_000, 50_000, |sim, at, i, cap| {
            sim.submit_write(at, Pba::new((splitmix64(i ^ 0xDEAD) % (cap - 8)) | 1), 4);
        }),
    ];
    let mut g = c.benchmark_group("array_mix");
    for (name, jobs, spacing_us, submit) in mixes {
        g.throughput(Throughput::Elements(jobs));
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    ArraySim::new(
                        RaidGeometry::new(RaidConfig::paper_raid5()),
                        DiskSpec::wd1600aajs(),
                        SchedulerKind::Fifo,
                    )
                },
                |mut sim| {
                    let cap = sim.data_capacity_blocks();
                    for i in 0..jobs {
                        let at = SimTime::from_micros(i * spacing_us);
                        sim.run_until(at);
                        submit(&mut sim, at, i, cap);
                    }
                    sim.run_to_idle();
                    sim
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// `text` through a loader of `width`, fed in the blocks `pod-cli
/// --trace` reads: `FiuLoader::BLOCK_BYTES`, cut after the last `\n`.
fn load_fiu(text: &str, width: usize) -> Vec<IoRequest> {
    let mut loader = FiuLoader::new(width);
    let mut rest = text;
    while !rest.is_empty() {
        let block = &rest.as_bytes()[..rest.len().min(FiuLoader::BLOCK_BYTES)];
        let end = match block.iter().rposition(|&b| b == b'\n') {
            Some(nl) if block.len() < rest.len() => nl + 1,
            _ => rest.len(),
        };
        loader.feed(&rest[..end]).expect("well-formed text");
        rest = &rest[end..];
    }
    loader.finish()
}

/// The input stage: what runs before the first request is replayed.
/// Generation is per request (`Elements`); the FIU load and writer are
/// per byte of trace text. The load runs sequentially (width 1) and at
/// the width `pod-cli` uses (`default_width()`).
fn bench_trace(c: &mut Criterion) {
    let profile = TraceProfile::web_vm().scaled(0.25);
    let trace = profile.generate(42);
    let records = split_into_records(&trace);
    let text = fiu::format_records(&records);
    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("generate_webvm_0.25", |b| {
        b.iter(|| profile.generate(black_box(42)))
    });
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("fiu_load_width_1", |b| {
        b.iter(|| load_fiu(black_box(&text), 1))
    });
    let width = default_width();
    if width > 1 {
        g.bench_function(format!("fiu_load_width_{width}"), |b| {
            b.iter(|| load_fiu(black_box(&text), width))
        });
    }
    g.bench_function("fiu_format", |b| {
        b.iter(|| fiu::format_records(black_box(&records)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_hashing,
    bench_caches,
    bench_index_table,
    bench_chunk_store,
    bench_raid_planning,
    bench_event_engine,
    bench_array_mixes,
    bench_trace
);
criterion_main!(benches);
