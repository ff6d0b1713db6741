//! `pod-cli monitor` — replay a trace with a live in-terminal
//! dashboard fed by the epoch [`StateSnapshot`](pod_core::StateSnapshot)
//! stream.
//!
//! A [`MonitorSink`] rides the observer chain and folds events into
//! [`EpochRow`]s, the trace recorder's rows: every
//! [`StackEvent::Snapshot`] closes a row (which keeps that snapshot)
//! and, in live mode, redraws the frame with an ANSI clear. With
//! `--headless` no live frames are drawn; the final frame is printed
//! once after the replay, so CI and golden tests get a deterministic
//! dump of the same dashboard.
//!
//! The frame is built entirely from replayed state — no wall-clock
//! time — so the same trace, seed and config always render the same
//! text.

use crate::args::CliArgs;
use crate::cmd_stats::{pct, sparkline};
use crate::CliResult;
use pod_core::obs::{EpochRow, StackEvent, StackObserver};
use std::fmt::Write as _;
use std::io::Write;

/// Observer that folds the event stream into one [`EpochRow`] per
/// epoch, closed at each snapshot, and optionally redraws the
/// dashboard live.
pub struct MonitorSink {
    live: bool,
    scheme: String,
    trace: String,
    /// One row per closed epoch; each carries the snapshot that closed
    /// it.
    epochs: Vec<EpochRow>,
    /// Activity since the last snapshot.
    open: EpochRow,
    /// Activity over the whole replay.
    total: EpochRow,
    /// The error that ended the live redraws; [`run`] returns it once
    /// the replay is done.
    stdout_err: Option<std::io::Error>,
}

impl MonitorSink {
    /// `live = false` suppresses the in-place redraws (`--headless`).
    pub fn new(live: bool, scheme: impl Into<String>, trace: impl Into<String>) -> Self {
        Self {
            live,
            scheme: scheme.into(),
            trace: trace.into(),
            epochs: Vec::new(),
            open: EpochRow::default(),
            total: EpochRow::default(),
            stdout_err: None,
        }
    }

    /// Render the dashboard for the current state. Deterministic: the
    /// frame contains only replayed counters, never wall-clock time.
    pub fn render_frame(&self) -> String {
        let mut out = String::new();
        writeln!(out, "== monitor — {} / {} ==", self.scheme, self.trace).expect("write");
        let Some(last) = self.epochs.last().and_then(|row| row.snap) else {
            writeln!(out, "no snapshots yet").expect("write");
            return out;
        };
        let snaps = || self.epochs.iter().filter_map(|row| row.snap);
        let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
        let ic = &last.icache;
        writeln!(
            out,
            "snapshot {} @ {} requests   {} epochs, {} repartitions\n",
            last.seq, last.requests, ic.epochs, ic.repartitions
        )
        .expect("write");

        let split: Vec<u64> = snaps().map(|s| s.icache.index_per_mille).collect();
        writeln!(
            out,
            "partition split \u{2030}  {}  index {:.1} MiB / read {:.1} MiB",
            sparkline(&split),
            mib(ic.index_bytes),
            mib(ic.read_bytes)
        )
        .expect("write");
        let ghost_idx: Vec<u64> = snaps().map(|s| s.icache.epoch_ghost_index_hits).collect();
        let ghost_read: Vec<u64> = snaps().map(|s| s.icache.epoch_ghost_read_hits).collect();
        writeln!(
            out,
            "ghost hits/epoch   index {} ({} total)   read {} ({} total)",
            sparkline(&ghost_idx),
            ic.ghost_index.hits,
            sparkline(&ghost_read),
            ic.ghost_read.hits
        )
        .expect("write");
        writeln!(
            out,
            "cost-benefit \u{b5}s    index {} vs read {}\n",
            ic.benefit_index_us, ic.benefit_read_us
        )
        .expect("write");

        let last_epoch = self.epochs.last().copied().unwrap_or_default();
        for (label, mix) in [
            ("write mix (epoch)", last_epoch),
            ("write mix (total)", self.total),
        ] {
            writeln!(
                out,
                "{label}  Cat-1 {:>5.1}%  Cat-2 {:>5.1}%  Cat-3 {:>5.1}%  unique {:>5.1}%  ({} writes)",
                pct(mix.cat1, mix.writes),
                pct(mix.cat2, mix.writes),
                pct(mix.cat3, mix.writes),
                pct(mix.unique, mix.writes),
                mix.writes,
            )
            .expect("write");
        }
        writeln!(
            out,
            "chunks             {} eliminated, {} written\n",
            self.total.deduped_blocks, self.total.written_blocks
        )
        .expect("write");

        let idx = &last.dedup.index;
        let map = &last.dedup.map;
        writeln!(
            out,
            "index heat  {}  ({}/{} entries, {} hits / {} misses)",
            sparkline(&idx.heat),
            idx.entries,
            idx.capacity,
            idx.hits,
            idx.misses
        )
        .expect("write");
        writeln!(
            out,
            "map fan-in  {}  ({} mapped, {} shared, {} redirected)",
            sparkline(&map.fan_in),
            map.mapped,
            map.shared_blocks,
            map.redirected
        )
        .expect("write");
        writeln!(
            out,
            "overflow    {}/{} blocks, fragmentation {}\u{2030}   scan backlog {}",
            map.overflow.used,
            map.overflow.capacity,
            map.overflow.frag_per_mille,
            last.dedup.scan_backlog
        )
        .expect("write");
        out
    }
}

impl StackObserver for MonitorSink {
    fn on_event(&mut self, ev: &StackEvent) {
        self.open.absorb(ev);
        self.total.absorb(ev);
        if let StackEvent::Snapshot { .. } = ev {
            self.epochs.push(std::mem::take(&mut self.open));
            if self.live && self.stdout_err.is_none() {
                // Clear screen, home cursor, redraw. The frames share
                // the process's stdout with the lines `run` writes.
                let frame = self.render_frame();
                if let Err(e) = write!(std::io::stdout(), "\x1b[2J\x1b[H{frame}") {
                    self.stdout_err = Some(e);
                }
            }
        }
    }
}

pub fn run(args: &CliArgs, out: &mut dyn Write) -> CliResult {
    args.apply_jobs();
    let trace = args.load_trace()?;
    let cfg = args.system_config()?;
    let sink = MonitorSink::new(!args.headless, args.scheme.to_string(), trace.name.clone());
    let (rep, mut chain) = args
        .scheme
        .builder()
        .config(cfg)
        .trace(&trace)
        .profile(args.prof)
        .observer(sink)
        .run_observed()
        .map_err(|e| e.to_string())?;
    let mut sink: MonitorSink = chain.take_sink().expect("monitor sink attached above");
    if let Some(e) = sink.stdout_err.take() {
        return Err(e.into());
    }
    if sink.live {
        // Leave the last live frame on screen and append the footer.
        writeln!(out, "replay finished")?;
    } else {
        write!(out, "{}", sink.render_frame())?;
    }
    writeln!(
        out,
        "snapshots {}   writes removed {:.1}%   mean response {:.2} ms",
        rep.stack.snapshots,
        rep.writes_removed_pct(),
        rep.overall.mean_ms()
    )?;
    // `--prof` only: host wall-clock line. The dashboard frame itself
    // stays deterministic — real time never enters the rendered state.
    if let Some(prof) = &rep.profile {
        writeln!(
            out,
            "host time {:.1} ms:{}",
            prof.total_ns() as f64 / 1e6,
            prof.layer_shares()
                .iter()
                .map(|(l, s)| format!(" {l} {:.1}%", s * 100.0))
                .collect::<String>(),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_core::StateSnapshot;
    use pod_dedup::ClassKind;

    fn snap(seq: u64, index_pm: u64) -> StateSnapshot {
        let mut s = StateSnapshot {
            seq,
            requests: (seq + 1) * 100,
            ..Default::default()
        };
        s.icache.index_per_mille = index_pm;
        s.icache.epochs = seq + 1;
        s
    }

    #[test]
    fn empty_sink_renders_placeholder() {
        let sink = MonitorSink::new(false, "POD", "t");
        let frame = sink.render_frame();
        assert!(frame.contains("no snapshots yet"), "{frame}");
    }

    #[test]
    fn sink_accumulates_epochs_and_mix() {
        let mut sink = MonitorSink::new(false, "POD", "mail");
        sink.on_event(&StackEvent::WriteClassified {
            category: ClassKind::FullyRedundantSequential,
            deduped_blocks: 8,
            written_blocks: 0,
            removed: true,
            disk_index_lookups: 0,
            measured: true,
        });
        sink.on_event(&StackEvent::Snapshot { snap: snap(0, 500) });
        sink.on_event(&StackEvent::WriteClassified {
            category: ClassKind::Unique,
            deduped_blocks: 0,
            written_blocks: 4,
            removed: false,
            disk_index_lookups: 1,
            measured: true,
        });
        sink.on_event(&StackEvent::Snapshot { snap: snap(1, 625) });

        assert_eq!(sink.epochs.len(), 2);
        let mix = |r: &EpochRow| [r.cat1, r.cat2, r.cat3, r.unique];
        assert_eq!(mix(&sink.epochs[0]), [1, 0, 0, 0]);
        assert_eq!(mix(&sink.epochs[1]), [0, 0, 0, 1]);
        assert_eq!(
            sink.epochs[1].snap,
            Some(snap(1, 625)),
            "a row carries its snapshot"
        );
        assert_eq!(mix(&sink.total), [1, 0, 0, 1]);
        assert_eq!(
            (sink.total.deduped_blocks, sink.total.written_blocks),
            (8, 4)
        );

        let frame = sink.render_frame();
        assert!(frame.contains("snapshot 1 @ 200 requests"), "{frame}");
        assert!(frame.contains("8 eliminated, 4 written"), "{frame}");
        // Epoch mix is the *last* epoch (all unique), totals are 50/50.
        assert!(
            frame.contains(
                "write mix (epoch)  Cat-1   0.0%  Cat-2   0.0%  Cat-3   0.0%  unique 100.0%"
            ),
            "{frame}"
        );
        assert!(frame.contains("write mix (total)  Cat-1  50.0%"), "{frame}");
    }
}
