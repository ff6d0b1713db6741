//! Steady-state allocation discipline of the replay hot path **with a
//! full observer chain attached**.
//!
//! A counting global allocator wraps the system allocator; after warmup
//! passes populate the dedup engine, the read cache and every
//! pre-sized buffer, repeating the same working set through
//! `StorageStack::process_request` must perform **zero** heap
//! allocations — while the stack fans every [`StackEvent`] out to the
//! built-in counters, a [`LayerHistograms`] sink, an epoch-closing
//! [`TraceRecorder`], a custom observer and the host wall-clock
//! profiler (a `ProfSink` attached, which turns its timers on). This
//! is the zero-allocation contract `pod_core::obs` documents:
//! observation is counter bumps into fixed-size storage, never
//! per-event boxing.
//!
//! That working set fits its budget, so nothing is ever evicted and no
//! read misses. A second phase repeats the measurement where a replay
//! actually lives: a 1 MiB budget under a working set sixteen times the
//! read cache and four times the index, so the index, the read cache
//! and both ghosts evict on nearly every block and every read goes to
//! disk. Handing a victim to its ghost and planning a read miss must
//! not allocate either.
//!
//! The eviction phase runs three times: profiled at an executor width
//! of 1, which keeps the simulated array inline, then profiled and not
//! at a width of 2, which puts the array on a thread of its own. The
//! counter is process-wide, so the window covers both the replay thread
//! filling the disk log, the profiler's timers around each hand-over
//! included, and the worker applying it.
//!
//! A third phase runs POD, whose partition adapts, under a working set
//! that makes it repartition twice a pass: every epoch of writes hits
//! the ghost index and grows the index, every epoch of reads hits the
//! ghost read cache and grows the read cache. Each repartition shrinks
//! one side into its ghost, resizes the index and charges the swap
//! traffic; none of it may allocate.
//!
//! A fourth phase drives the warm working set through the replay
//! loop's throttled path: a one-tenant serve run under a token bucket
//! that delays nearly every request. A throttled request enters the
//! stack at its admission instant, read in place from the trace; a
//! sink reads the counter at every `RequestDone`, and no pass after
//! warm-up may allocate.
//!
//! The file holds a single test on purpose — the counter is
//! process-global, and a lone test keeps the measurement window free of
//! harness or sibling-test traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pod_core::obs::{LayerHistograms, ObserverChain, TraceRecorder};
use pod_core::stack::disk_on_own_thread;
use pod_core::{
    ProfSink, Scheme, ServeBuilder, ServePolicy, StackEvent, StackObserver, StorageStack,
    SystemConfig,
};
use pod_trace::Trace;
use pod_types::{Fingerprint, IoRequest, Lba, SimTime};

/// Counts every allocation and reallocation made through the global
/// allocator. Deallocations are deliberately not counted: freeing is
/// also forbidden on the hot path, but a free without a matching alloc
/// cannot happen, so counting acquisitions covers both directions.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A custom observer with fixed-size state: tallies events by kind.
#[derive(Default)]
struct EventTally {
    writes: u64,
    reads: u64,
    latencies: u64,
    snapshots: u64,
    done: u64,
}

impl StackObserver for EventTally {
    fn on_event(&mut self, ev: &StackEvent) {
        match ev {
            StackEvent::WriteClassified { .. } => self.writes += 1,
            StackEvent::ReadLookup { .. } => self.reads += 1,
            StackEvent::LayerLatency { .. } => self.latencies += 1,
            StackEvent::Snapshot { .. } => self.snapshots += 1,
            StackEvent::RequestDone { .. } => self.done += 1,
            _ => {}
        }
    }
}

/// A small repeating working set: eight 8-block writes at distinct
/// offsets (content keyed off the block address, so every revisit
/// dedupes against the first pass) followed by reads of the same
/// ranges (cache hits once warm). Arrivals are rewritten each pass so
/// simulated time always moves forward.
fn working_set() -> Vec<IoRequest> {
    let mut set = Vec::new();
    for i in 0..8u64 {
        let lba = i * 64;
        let chunks = (0..8)
            .map(|b| Fingerprint::from_content_id(1_000 + lba + b))
            .collect();
        set.push(IoRequest::write(
            SimTime::from_micros(0),
            Lba::new(lba),
            chunks,
        ));
    }
    for i in 0..8u64 {
        set.push(IoRequest::read(
            SimTime::from_micros(0),
            Lba::new(i * 64),
            8,
        ));
    }
    set
}

/// One pass over the working set: bump arrivals monotonically, advance
/// the disks, process. Everything here is the replay loop's steady
/// state; nothing in this function may allocate once warm.
fn run_set(
    stack: &mut StorageStack,
    set: &mut [IoRequest],
    gap_us: u64,
    clock: &mut u64,
    idx: &mut usize,
) {
    for req in set.iter_mut() {
        *clock += gap_us;
        req.arrival = SimTime::from_micros(*clock);
        stack.run_until(req.arrival);
        stack
            .process_request(*idx, req, true)
            .expect("write path stays in bounds");
        *idx += 1;
    }
}

/// Fewest allocations seen in any one of up to 8 runs of `window`.
///
/// The counter is process-global, so harness threads can leak the odd
/// allocation into a window, and an amortized vector (the stack's
/// per-request `pending` list) may double inside one. A hot-path (or
/// per-event) allocation repeats in every window; those do not — so
/// callers require one clean window out of several rather than exactly
/// one clean run.
fn fewest_allocations_in_8_windows(mut window: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..8 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        window();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        best = best.min(after - before);
        if best == 0 {
            break;
        }
    }
    best
}

/// Blocks, requests and content generations of the eviction phase:
/// 256 eight-block writes and as many reads over 2,048 distinct blocks,
/// every pass writing the next of 16 content generations (32,768
/// distinct contents in rotation).
const EVICT_REQUESTS: u64 = 256;
const EVICT_BLOCKS: u64 = EVICT_REQUESTS * 8;
const EVICT_GENERATIONS: u64 = 16;
/// Every request of this phase reaches the disks, which recycle a
/// job's buffers when it completes: arrivals are spaced so the array
/// keeps up and its queues (and buffer pools) stay bounded.
const EVICT_GAP_US: u64 = 50_000;

fn eviction_working_set() -> Vec<IoRequest> {
    let at = SimTime::from_micros(0);
    let mut set = Vec::new();
    for i in 0..EVICT_REQUESTS {
        let chunks = vec![Fingerprint::ZERO; 8];
        set.push(IoRequest::write(at, Lba::new(i * 8), chunks));
    }
    for i in 0..EVICT_REQUESTS {
        set.push(IoRequest::read(at, Lba::new(i * 8), 8));
    }
    set
}

/// Stamp generation `pass % 16` of every block's content into the
/// writes, in place.
fn rotate_contents(set: &mut [IoRequest], pass: u64) {
    let generation = pass % EVICT_GENERATIONS;
    for req in set.iter_mut().filter(|r| r.op.is_write()) {
        let first = req.lba.raw();
        for (b, chunk) in req.chunks.iter_mut().enumerate() {
            let id = 1_000_000 + generation * EVICT_BLOCKS + first + b as u64;
            *chunk = Fingerprint::from_content_id(id);
        }
    }
}

/// The second phase: the same contract under eviction, with
/// Select-Dedupe's static partition. At the 1 MiB floor the read cache holds 128
/// blocks, the index 8,192 entries and the ghosts 256 and 16,384; the
/// working set overruns all four, so every written chunk misses the
/// index and evicts from it and its ghost, every write-allocated or
/// fetched block evicts from the read cache and its ghost, and every
/// read misses. At an executor `width` of 1 the array runs inline; at
/// 2 it runs on its own thread.
fn replay_under_eviction_is_allocation_free(width: usize, profiled: bool) {
    let mut set = eviction_working_set();
    let trace = Trace {
        name: "alloc-probe-evicting".into(),
        requests: set.clone(),
        memory_budget_bytes: 1 << 20,
    };
    let mut cfg = SystemConfig::test_default();
    cfg.memory_bytes = Some(1 << 20);
    pod_core::pool::set_default_width(width);
    assert_eq!(disk_on_own_thread(), width >= 2);
    let mut chain = ObserverChain::new();
    chain.push(LayerHistograms::new());
    chain.push(TraceRecorder::new(
        "Select-Dedupe",
        &trace.name,
        64,
        1 << 20,
    ));
    if profiled {
        chain.push(ProfSink::new());
    }
    let mut stack =
        StorageStack::with_observer(&Scheme::SelectDedupe.stack_spec(), &cfg, &trace, chain)
            .expect("valid stack");

    let mut clock = 0u64;
    let mut idx = 0usize;
    let mut pass = 0u64;
    let best = {
        let mut run_passes = |n: u64| {
            for _ in 0..n {
                rotate_contents(&mut set, pass);
                run_set(&mut stack, &mut set, EVICT_GAP_US, &mut clock, &mut idx);
                pass += 1;
            }
        };
        // Warmup: 12 passes fill the ghost index, 16 complete a content
        // rotation; 33 also leave `pending` (one entry per request, 512
        // a pass) just past its doubling at 16,384 entries, so the next
        // is 16,384 requests away and seven of the eight 4-pass windows
        // fit before it.
        run_passes(33);
        fewest_allocations_in_8_windows(|| run_passes(4))
    };

    assert_eq!(
        best, 0,
        "steady-state process_request under eviction at width {width}, profiled {profiled}, \
         allocated at least {best} times in every one of 8 windows of 4 \
         passes over 2,048 blocks against a 1 MiB budget"
    );

    // The windows measured what they claim to: all four lists are full
    // and turning over, nothing deduplicated, every read went to disk.
    let caches = stack.icache().introspect(stack.engine().index().ghost());
    let index = stack.engine().index().introspect();
    assert_eq!((caches.read_len, caches.ghost_read.len), (128, 256));
    assert_eq!((index.entries, caches.ghost_index.len), (8_192, 16_384));
    assert_eq!(index.evictions, (pass * EVICT_BLOCKS) - 8_192);
    assert_eq!(index.hits, 0);
    stack.finish().expect("finish");
    let counters = *stack.into_observer().counters();
    assert_eq!(counters.all.unique, idx as u64 / 2, "nothing deduped");
    assert_eq!(counters.measured_reads.reads, idx as u64 / 2);
    assert_eq!(counters.measured_reads.read_hits, 0, "every read missed");
}

/// Requests of one repartition pass: an epoch of eight-block writes,
/// then an epoch of eight-block reads (the test config's epochs are 200
/// requests, so epochs and passes stay aligned).
const REPART_EPOCH: u64 = 200;
/// Content generations of the writes: 10 × 1,600 blocks = 16,000
/// distinct contents in rotation, more than the index ever holds (8,192
/// or 9,011 entries) and fewer than it and its 16,384-entry ghost do, so
/// every written chunk misses the index and hits the ghost index.
const REPART_GENERATIONS: u64 = 10;
/// Read ranges: 30 eight-block ranges, 240 blocks cycled, more than the
/// read cache ever holds (128 or 140 blocks) and fewer than it and its
/// 256-block ghost do, so every read block after the first cycle misses
/// the cache and hits the ghost.
const REPART_READ_RANGES: u64 = 30;

fn repartition_working_set() -> Vec<IoRequest> {
    let at = SimTime::from_micros(0);
    let mut set = Vec::new();
    for i in 0..REPART_EPOCH {
        let chunks = vec![Fingerprint::ZERO; 8];
        set.push(IoRequest::write(at, Lba::new(i * 8), chunks));
    }
    for i in 0..REPART_EPOCH {
        let lba = Lba::new(i % REPART_READ_RANGES * 8);
        set.push(IoRequest::read(at, lba, 8));
    }
    set
}

/// The third phase: POD's adaptive partition moving inside the
/// measured windows.
fn replay_while_repartitioning_is_allocation_free(width: usize, profiled: bool) {
    let mut set = repartition_working_set();
    let trace = Trace {
        name: "alloc-probe-repartitioning".into(),
        requests: set.clone(),
        memory_budget_bytes: 1 << 20,
    };
    let mut cfg = SystemConfig::test_default();
    cfg.memory_bytes = Some(1 << 20);
    assert_eq!(cfg.icache.epoch_requests, REPART_EPOCH);
    pod_core::pool::set_default_width(width);
    let mut chain = ObserverChain::new();
    chain.push(LayerHistograms::new());
    chain.push(TraceRecorder::new("POD", &trace.name, 64, 1 << 20));
    if profiled {
        chain.push(ProfSink::new());
    }
    let mut stack = StorageStack::with_observer(&Scheme::Pod.stack_spec(), &cfg, &trace, chain)
        .expect("valid stack");

    let mut clock = 0u64;
    let mut idx = 0usize;
    let mut pass = 0u64;
    let mut run_passes = |stack: &mut StorageStack, n: u64| {
        for _ in 0..n {
            let generation = pass % REPART_GENERATIONS;
            for req in set.iter_mut().filter(|r| r.op.is_write()) {
                let first = req.lba.raw();
                for (b, chunk) in req.chunks.iter_mut().enumerate() {
                    let id = 1_000_000 + generation * REPART_EPOCH * 8 + first + b as u64;
                    *chunk = Fingerprint::from_content_id(id);
                }
            }
            run_set(stack, &mut set, EVICT_GAP_US, &mut clock, &mut idx);
            pass += 1;
        }
    };
    // Warmup: 20 passes fill the ghost index; 41 leave `pending` (one
    // entry per request, all of which reach the disks) just past its
    // doubling at 16,384 entries, so the next is 40 passes away.
    const WARMUP: u64 = 41;
    run_passes(&mut stack, WARMUP);
    let repartitions = stack.icache().repartitions();
    let best = fewest_allocations_in_8_windows(|| run_passes(&mut stack, 4));
    let passes = pass - WARMUP;

    assert_eq!(
        best, 0,
        "steady-state process_request while POD repartitions at width {width}, profiled \
         {profiled}, allocated at least {best} times in every one of 8 windows of 4 passes"
    );

    // The windows measured what they claim to: the partition moved
    // twice a pass, and both ghosts were busy and hit.
    assert_eq!(stack.icache().repartitions() - repartitions, 2 * passes);
    let caches = stack.icache().introspect(stack.engine().index().ghost());
    assert!(caches.ghost_index.len > 8_192, "{:?}", caches.ghost_index);
    assert!(
        caches.epoch_ghost_read_hits > 0,
        "the last epoch read the ghost"
    );
    assert!(caches.ghost_index.hits >= (pass - 20) * REPART_EPOCH * 8);
    stack.finish().expect("finish");
}

/// The allocation counter at each `RequestDone` of the throttled
/// phase, in request order. Reserved before the run, so recording a
/// reading never allocates.
static DONE_AT: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Records the counter into [`DONE_AT`] at every `RequestDone`.
struct CountAtDone;

impl StackObserver for CountAtDone {
    fn on_event(&mut self, ev: &StackEvent) {
        if let StackEvent::RequestDone { .. } = ev {
            let count = ALLOCATIONS.load(Ordering::Relaxed);
            DONE_AT.lock().expect("probe lock").push(count);
        }
    }
}

/// Passes of the throttled phase over the working set, the first
/// [`THROTTLE_WARMUP`] of which warm it.
const THROTTLE_PASSES: usize = 200;
const THROTTLE_WARMUP: usize = 100;

/// The fourth phase: `runner::drive`'s throttled path. Requests arrive
/// every 200 µs, 5,000 a second, against a bucket of 1,000 a second
/// and a burst of 4, so once the burst is spent every request waits
/// and enters the stack at its admission instant. Every pass after
/// warm-up, from the last `RequestDone` of one pass to the last of the
/// next, must make zero allocations.
fn throttled_replay_is_allocation_free() {
    let set = working_set();
    let mut requests = Vec::with_capacity(set.len() * THROTTLE_PASSES);
    let mut clock = 0u64;
    for _ in 0..THROTTLE_PASSES {
        for req in &set {
            clock += 200;
            let mut req = req.clone();
            req.arrival = SimTime::from_micros(clock);
            requests.push(req);
        }
    }
    let n = requests.len();
    let tenants = [Trace {
        name: "alloc-probe-throttled".into(),
        requests,
        memory_budget_bytes: 64 << 20,
    }];
    let mut cfg = SystemConfig::test_default();
    cfg.policy = Some(ServePolicy::parse("rate:1000,burst:4").expect("policy"));
    pod_core::pool::set_default_width(1);
    DONE_AT.lock().expect("probe lock").reserve(n);
    let report = ServeBuilder::new(Scheme::Pod)
        .config(cfg)
        .tenants(&tenants)
        .jobs(1)
        .observer(|_| {
            let mut chain = ObserverChain::new();
            chain.push(CountAtDone);
            chain
        })
        .run()
        .expect("serve");

    // The path under test ran: every measured pass was throttled.
    let waits = report.aggregate.stack.all.throttle_waits;
    assert!(
        waits as usize >= (THROTTLE_PASSES - THROTTLE_WARMUP) * set.len(),
        "only {waits} of {n} requests waited"
    );
    let done_at = DONE_AT.lock().expect("probe lock");
    assert_eq!(done_at.len(), n, "one reading per request");
    let pass_ends: Vec<u64> = done_at
        .iter()
        .skip(set.len() - 1)
        .step_by(set.len())
        .copied()
        .collect();
    let per_pass: Vec<u64> = pass_ends.windows(2).map(|w| w[1] - w[0]).collect();
    let steady = &per_pass[THROTTLE_WARMUP - 1..];
    let dirty = steady.iter().filter(|&&a| a > 0).count();
    assert_eq!(
        dirty,
        0,
        "{dirty} of {} throttled passes after warm-up allocated, up to {} times",
        steady.len(),
        steady.iter().max().unwrap_or(&0)
    );
}

#[test]
fn steady_state_replay_with_full_observer_chain_is_allocation_free() {
    let mut set = working_set();
    let trace = Trace {
        name: "alloc-probe".into(),
        requests: set.clone(),
        memory_budget_bytes: 64 << 20,
    };
    let cfg = SystemConfig::test_default();
    // The array inline, as on a one-core host; the eviction phase below
    // also covers it on a thread of its own.
    pod_core::pool::set_default_width(1);
    // The `ProfSink` below turns host profiling on: the hot path
    // additionally reads the monotonic clock and emits `HostPhase`
    // events, all of which must also be allocation-free.
    // The full chain: built-in counters (always on) + per-layer
    // histograms + an epoch-closing recorder (pre-sized far beyond the
    // requests this test issues) + a custom tally + the host profiler.
    let recorder = TraceRecorder::new("POD", &trace.name, 64, 1 << 20);
    let mut chain = ObserverChain::new();
    chain.push(LayerHistograms::new());
    chain.push(recorder);
    chain.push(EventTally::default());
    chain.push(ProfSink::new());
    let mut stack = StorageStack::with_observer(&Scheme::Pod.stack_spec(), &cfg, &trace, chain)
        .expect("valid stack");

    let mut clock = 0u64;
    let mut idx = 0usize;
    // Warmup: the first pass writes unique data and grows every table;
    // the rest settle cache order and amortized vector capacities well
    // past what the measured windows will push.
    for _ in 0..600 {
        run_set(&mut stack, &mut set, 200, &mut clock, &mut idx);
    }

    let best = fewest_allocations_in_8_windows(|| {
        for _ in 0..32 {
            run_set(&mut stack, &mut set, 200, &mut clock, &mut idx);
        }
    });

    assert_eq!(
        best, 0,
        "steady-state process_request with a 5-sink observer chain and \
         host profiling on allocated at least {best} times in every one \
         of 8 windows of 32 replays of a warm working set"
    );

    // The chain really was live the whole time: every sink saw the
    // event stream.
    stack.finish().expect("finish");
    let mut chain = stack.into_observer();
    let counters = *chain.counters();
    assert_eq!(counters.all.writes, idx as u64 / 2);
    let tally: EventTally = chain.take_sink().expect("tally attached");
    assert_eq!(tally.writes, counters.all.writes);
    assert_eq!(tally.done, idx as u64);
    // Snapshots were sampled at every epoch boundary — inside the
    // measured windows too (several epochs elapse per window with the
    // test config), so the zero-allocation result above covers the
    // whole introspection path.
    assert_eq!(tally.snapshots, counters.snapshots);
    assert!(
        tally.snapshots >= idx as u64 / cfg.icache.epoch_requests,
        "expected a snapshot per {}-request epoch, saw {} over {} requests",
        cfg.icache.epoch_requests,
        tally.snapshots,
        idx
    );
    let hists: LayerHistograms = chain.take_sink().expect("histograms attached");
    assert!(hists.total() > 0);
    let rec: TraceRecorder = chain.take_sink().expect("recorder attached");
    assert_eq!(rec.totals().requests, idx as u64);
    assert!(
        rec.totals().host_ns > 0,
        "host time rode the recorded epochs"
    );
    let prof = chain
        .take_sink::<ProfSink>()
        .expect("profiler attached")
        .into_profile();
    assert!(!prof.is_empty(), "profiler saw the replay");
    assert!(
        prof.phase(pod_core::ProfPhase::DedupClassify).count >= idx as u64 / 2,
        "every write was timed"
    );

    replay_under_eviction_is_allocation_free(1, true);
    replay_under_eviction_is_allocation_free(2, true);
    replay_under_eviction_is_allocation_free(2, false);
    replay_while_repartitioning_is_allocation_free(1, true);
    replay_while_repartitioning_is_allocation_free(2, false);
    throttled_replay_is_allocation_free();
}
