//! A worker's slice of the trace: an ascending run of stamped steps held
//! in fixed-size chunks.
//!
//! A worker records the attempt it is running into a small buffer it
//! reuses (`service::Recorder::steps`) and [`seal`](TraceRun::seal)s that
//! buffer into its run when the attempt ends. A chunk is allocated at its
//! final size and never regrows, so a long run costs no reallocation
//! copies and no doubling slack; and because the stamps are drawn by one
//! thread from one monotone counter the run is strictly ascending, which
//! is all [`slp_core::Schedule::from_sequenced_runs`] needs to merge the
//! workers' runs without sorting — freeing each chunk as it passes over
//! it.

use slp_core::ScheduledStep;

/// A step with the global sequence stamp it was granted under.
pub(crate) type Stamped = (u64, ScheduledStep);

/// Entries per chunk: 64 KiB of 32-byte entries — a hundred-odd
/// attempts, so sealing allocates rarely; under the allocator's mmap
/// threshold, so a chunk is a heap allocation and not a system call; and
/// small enough that the unfilled tail of a worker's last chunk is
/// noise. A constant, not a knob: nothing a caller can observe depends
/// on it.
const CHUNK: usize = 2048;

/// One worker's sealed steps, in stamp order. Every chunk but the last
/// is full.
#[derive(Default)]
pub(crate) struct TraceRun {
    chunks: Vec<Vec<Stamped>>,
}

impl TraceRun {
    /// Moves a finished attempt's steps onto the end of the run, leaving
    /// `attempt` empty (capacity kept) for the next one.
    pub fn seal(&mut self, attempt: &mut Vec<Stamped>) {
        let mut rest = attempt.as_slice();
        while !rest.is_empty() {
            if self.chunks.last().is_none_or(|open| open.len() == CHUNK) {
                self.chunks.push(Vec::with_capacity(CHUNK));
            }
            let open = self.chunks.last_mut().expect("an open chunk");
            let (fits, more) = rest.split_at(rest.len().min(CHUNK - open.len()));
            open.extend_from_slice(fits);
            rest = more;
        }
        attempt.clear();
    }

    /// The run as the chunk sequence the merge consumes.
    pub fn into_chunks(self) -> Vec<Vec<Stamped>> {
        self.chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{EntityId, Step, TxId};

    #[test]
    fn sealing_fills_every_chunk_but_the_last_and_keeps_the_steps_in_order() {
        let entry = |stamp: u64| (stamp, ScheduledStep::new(TxId(1), Step::read(EntityId(0))));
        let mut run = TraceRun::default();
        let mut attempt = Vec::new();
        let mut stamp = 0u64;
        // Attempt sizes that straddle, exactly meet and overshoot a chunk
        // boundary — and an empty attempt.
        for size in [0, CHUNK - 1, 2, 0, CHUNK - 1, CHUNK * 2 + 3] {
            attempt.extend((stamp..stamp + size as u64).map(entry));
            stamp += size as u64;
            run.seal(&mut attempt);
            assert!(attempt.is_empty());
        }
        let chunks = run.into_chunks();
        let (last, full) = chunks.split_last().expect("steps were sealed");
        assert!(full.iter().all(|chunk| chunk.len() == CHUNK));
        assert!(!last.is_empty() && last.len() <= CHUNK);
        assert!(chunks.iter().flatten().map(|&(s, _)| s).eq(0..stamp));
    }
}
