//! The one resource model every schedule places rounds on: the DMA
//! engine that moves a round's inputs in and its outputs out, and the
//! accelerator chain that executes it, two serially reused resources.
//! The clean fold ([`crate::stream`]) and the event core
//! ([`crate::online`]) differ only in *when* they load, execute and
//! drain, never in what a step costs.

use crate::des::Time;
use crate::stream::StreamOutcome;
use std::collections::VecDeque;

/// How a schedule shares the DMA engine between rounds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// A round's outputs drain right after it executes, and the next
    /// round loads only after that: the DMA engine stays out of
    /// execution, so nothing ever overlaps.
    Serial,
    /// Round `r+1`'s inputs load and round `r-1`'s outputs drain while
    /// round `r` computes.
    DoubleBuffered,
}

impl Mode {
    /// Double-buffered when `overlap` is asked for and every stage keeps
    /// a spare PLM set (`m >= 2·k_i`), serial otherwise.
    pub(crate) fn pick(overlap: bool, ks: &[usize], m: usize) -> Mode {
        if overlap && ks.iter().all(|&k| m >= 2 * k) {
            Mode::DoubleBuffered
        } else {
            Mode::Serial
        }
    }
}

/// Free ticks of the two resources and the totals a stream reports.
/// Callers read the round's constants; only the methods below change
/// state, so transfers start in time order (`dma_free` never moves
/// back), which the running overlap relies on.
pub(crate) struct Resources {
    pub(crate) mode: Mode,
    /// Fault-free input, execution and output ticks of one round, and
    /// their sum ([`RoundTicks::total`](sysgen::RoundTicks::total)).
    pub(crate) t_in: u64,
    exec: u64,
    t_out: u64,
    pub(crate) round_ticks: u64,
    dma_free: Time,
    chain_free: Time,
    exec_ticks: u64,
    transfer_ticks: u64,
    makespan: Time,
    /// Ticks both resources were busy, summed as transfers are placed.
    overlapped_ticks: u64,
    /// Chain busy intervals that end after the last transfer started,
    /// in time order. A chain interval placed later starts after every
    /// transfer placed so far, so a transfer is compared with these
    /// only. After a transient failure no drain follows the lost round,
    /// so the next loads run while several rounds still wait to
    /// execute: more than one interval can be open.
    open: VecDeque<(Time, Time)>,
}

impl Resources {
    /// Free resources for rounds of `(t_in, exec, t_out)` ticks
    /// ([`RoundTicks::ticks`](sysgen::RoundTicks::ticks)), all that
    /// a schedule reads of a round.
    pub(crate) fn new(mode: Mode, (t_in, exec, t_out): (Time, Time, Time)) -> Resources {
        Resources {
            mode,
            t_in,
            exec,
            t_out,
            round_ticks: t_in + exec + t_out,
            dma_free: 0,
            chain_free: 0,
            exec_ticks: 0,
            transfer_ticks: 0,
            makespan: 0,
            overlapped_ticks: 0,
            open: VecDeque::new(),
        }
    }

    /// First tick the DMA engine is free.
    pub(crate) fn dma_free(&self) -> Time {
        self.dma_free
    }

    /// Occupy the DMA engine for `ticks` from `start`, or from when it
    /// is free if that is later, and add the overlap with the chain;
    /// returns the tick the transfer ends. This loads a round's inputs
    /// (`ticks` doubled by a stall) and, through [`Resources::drain`],
    /// moves its outputs out. Transfers start in time order, so the walk
    /// stays linear in the schedule's length.
    pub(crate) fn transfer(&mut self, start: Time, ticks: u64) -> Time {
        let start = start.max(self.dma_free);
        let end = start + ticks;
        while self.open.front().is_some_and(|&(_, done)| done <= start) {
            self.open.pop_front();
        }
        for &(lo, hi) in self.open.iter().take_while(|&&(lo, _)| lo < end) {
            self.overlapped_ticks += hi.min(end) - lo.max(start);
        }
        self.dma_free = end;
        self.transfer_ticks += ticks;
        self.settle(end);
        end
    }

    /// Tick at which a round whose inputs are in at `in_done` would
    /// finish executing.
    pub(crate) fn exec_done(&self, in_done: Time) -> Time {
        in_done.max(self.chain_free) + self.exec
    }

    /// Execute a round whose inputs are in at `in_done`; returns the
    /// tick its outputs are ready.
    pub(crate) fn execute(&mut self, in_done: Time) -> Time {
        let done = self.exec_done(in_done);
        self.chain_free = done;
        self.exec_ticks += self.exec;
        self.settle(done);
        match self.mode {
            Mode::Serial => self.dma_free = done,
            Mode::DoubleBuffered => self.open.push_back((done - self.exec, done)),
        }
        done
    }

    /// Tick at which outputs ready at `ready` would be drained.
    pub(crate) fn drain_done(&self, ready: Time) -> Time {
        ready.max(self.dma_free) + self.t_out
    }

    /// Drain the outputs ready at `ready`; returns the tick they are out.
    pub(crate) fn drain(&mut self, ready: Time) -> Time {
        self.transfer(ready, self.t_out)
    }

    /// The board failed at `fail_at` with a round in flight: the round
    /// bills nothing, and the DMA engine is next free at the failure.
    pub(crate) fn abort_at(&mut self, fail_at: Time) {
        debug_assert!(fail_at >= self.dma_free, "transfers start in time order");
        self.dma_free = fail_at;
        self.settle(fail_at);
    }

    /// End of the last thing resolved so far.
    pub(crate) fn makespan(&self) -> Time {
        self.makespan
    }

    /// Something was resolved at `at`: the schedule lasts at least that
    /// long.
    pub(crate) fn settle(&mut self, at: Time) {
        self.makespan = self.makespan.max(at);
    }

    /// Place `rounds` identical serial rounds back to back from `start`
    /// by multiplication (the closed-tick fast-forward).
    pub(crate) fn repeat_serial(&mut self, start: Time, rounds: u64) {
        let end = start + rounds * self.round_ticks;
        self.exec_ticks += rounds * self.exec;
        self.transfer_ticks += rounds * (self.t_in + self.t_out);
        self.dma_free = end;
        self.chain_free = end;
        self.settle(end);
    }

    /// Write the stream's tick totals and mode into `out`.
    pub(crate) fn close(self, out: &mut StreamOutcome) {
        out.exec_ticks = self.exec_ticks;
        out.transfer_ticks = self.transfer_ticks;
        out.overlapped_ticks = self.overlapped_ticks;
        out.makespan_ticks = self.makespan;
        out.double_buffered = self.mode == Mode::DoubleBuffered;
    }
}
