//! Structured event tracing for cycle attribution.
//!
//! Every simulated-cycle charge the [`Machine`](crate::Machine) makes
//! lands in exactly one [`TimeBuckets`] bucket, through the private
//! `Ledger`; the trace layer mirrors each of those charges as a typed
//! [`TraceRecord`] — what happened ([`TraceEvent`]), when (the
//! simulated-cycle timestamp *before* the charge), how many cycles it
//! cost and which bucket they went to. A machine with no sink attached
//! pays only an `Option` check per charge, so tracing is free when
//! disabled and the golden cycle fixtures are unaffected either way.
//!
//! The bundled [`RingTrace`] sink keeps the most recent records in a
//! bounded ring *and* never-dropped per-bucket cycle sums, so a full
//! run's attribution can be reconstructed from the sink and reconciled
//! against [`TimeBuckets::total()`] — the property the `trace_audit`
//! test suite checks with random op streams.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

use mtlb_types::{Cycles, PhysAddr, ShadowAddr, VirtAddr};

use crate::report::TimeBuckets;

/// The attribution bucket a charge landed in — one variant per field
/// of [`TimeBuckets`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Instruction execution and single-cycle cache accesses.
    User,
    /// Software TLB miss handling.
    TlbMiss,
    /// Memory stalls (fills and writebacks) on user accesses.
    MemStall,
    /// Explicit kernel services.
    Kernel,
    /// Shadow page fault service.
    Fault,
}

impl Bucket {
    /// All buckets, in `TimeBuckets` field order.
    pub const ALL: [Bucket; 5] = [
        Bucket::User,
        Bucket::TlbMiss,
        Bucket::MemStall,
        Bucket::Kernel,
        Bucket::Fault,
    ];

    /// Stable index of this bucket in [`Bucket::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Bucket::User => 0,
            Bucket::TlbMiss => 1,
            Bucket::MemStall => 2,
            Bucket::Kernel => 3,
            Bucket::Fault => 4,
        }
    }

    /// Short display name (matches the `RunReport` display labels).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Bucket::User => "user",
            Bucket::TlbMiss => "tlb-miss",
            Bucket::MemStall => "mem-stall",
            Bucket::Kernel => "kernel",
            Bucket::Fault => "fault",
        }
    }
}

/// What a traced charge was for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A batch of instructions executed.
    Execute {
        /// Instructions in the batch.
        instructions: u64,
    },
    /// A data or instruction access hit the cache pipeline (the
    /// single-cycle access charge).
    CacheAccess {
        /// Virtual address accessed.
        va: VirtAddr,
        /// True for stores.
        write: bool,
    },
    /// A fast-forwarded run of same-page, cache-resident accesses (and
    /// optionally interleaved instructions), charged in bulk. The cycle
    /// total equals `accesses + instructions`, exactly what the per-item
    /// slow path would have charged to the user bucket one event at a
    /// time.
    BatchedRun {
        /// Items (loop iterations) fast-forwarded in this run.
        items: u64,
        /// Memory accesses replayed (`items × lanes`).
        accesses: u64,
        /// Instructions replayed (`items × instructions-per-item`).
        instructions: u64,
    },
    /// The CPU TLB missed and the software handler ran (data side).
    TlbMiss {
        /// Faulting virtual address.
        va: VirtAddr,
    },
    /// The CPU TLB missed on an instruction fetch.
    ItlbMiss {
        /// Faulting fetch address.
        va: VirtAddr,
    },
    /// A cache miss was filled over the bus.
    CacheFill {
        /// Bus-physical line address filled.
        pa: PhysAddr,
    },
    /// A dirty victim line was written back over the bus.
    CacheWriteback {
        /// Bus-physical line address written back.
        pa: PhysAddr,
    },
    /// A shadow page fault was serviced (swap-in path).
    ShadowFault {
        /// Faulting shadow address.
        shadow: ShadowAddr,
    },
    /// Kernel boot.
    Boot,
    /// A `map_region` service.
    MapRegion {
        /// Region start.
        start: VirtAddr,
        /// Region length in bytes.
        len: u64,
    },
    /// A `remap` service (superpage promotion).
    Remap {
        /// Region start.
        start: VirtAddr,
        /// Region length in bytes.
        len: u64,
        /// Superpages created.
        superpages: u64,
    },
    /// An `sbrk` service.
    Sbrk {
        /// Heap increment in bytes.
        increment: u64,
    },
    /// An explicit superpage swap-out.
    SwapOutSuperpage {
        /// Base pages written to swap.
        pages_written: u64,
    },
    /// A superpage demotion back to 4 KB mappings.
    Demote,
    /// A no-copy page recoloring.
    Recolor,
    /// A context switch.
    ContextSwitch {
        /// Pid switched to.
        pid: u64,
    },
    /// Inter-processor TLB shootdowns delivered to the remote cores
    /// after a kernel service invalidated local translations.
    Shootdown {
        /// Shootdown requests in the batch.
        requests: u64,
        /// Remote cores each request was delivered to.
        remote_cores: u64,
    },
    /// A bus-arbitration stall: the bus transaction came from a
    /// different core than the previous one.
    MtlbContention {
        /// Core that won the bus.
        core: u64,
    },
}

/// The machine's cycle ledger: the time buckets and the optional trace
/// sink that mirrors every charge into them.
///
/// The fields are private to this module, so [`charge`](Ledger::charge)
/// is the only way a simulated cycle enters a bucket. That is what makes
/// trace-reconstructed totals and the debug attribution audit exact: a
/// bucket write anywhere else does not compile.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    buckets: TimeBuckets,
    /// `None` costs one branch per charge.
    sink: Option<Box<dyn TraceSink>>,
}

impl Ledger {
    /// Adds `cycles` to `bucket`, mirroring the charge to the attached
    /// sink (if any). The event is a closure so that with no sink
    /// attached — the overwhelmingly common case — constructing it
    /// costs nothing.
    #[inline]
    pub(crate) fn charge(
        &mut self,
        bucket: Bucket,
        cycles: Cycles,
        event: impl FnOnce() -> TraceEvent,
    ) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(&TraceRecord {
                at: self.buckets.total(),
                cycles,
                bucket,
                event: event(),
            });
        }
        match bucket {
            Bucket::User => self.buckets.user += cycles,
            Bucket::TlbMiss => self.buckets.tlb_miss += cycles,
            Bucket::MemStall => self.buckets.mem_stall += cycles,
            Bucket::Kernel => self.buckets.kernel += cycles,
            Bucket::Fault => self.buckets.fault += cycles,
        }
    }

    /// Total cycles charged since construction or the last
    /// [`reset`](Ledger::reset).
    #[inline]
    pub(crate) fn total(&self) -> Cycles {
        self.buckets.total()
    }

    /// The buckets as they stand.
    pub(crate) fn buckets(&self) -> TimeBuckets {
        self.buckets
    }

    /// Zeroes every bucket; the sink stays attached.
    pub(crate) fn reset(&mut self) {
        self.buckets = TimeBuckets::default();
    }

    /// Attaches a sink; subsequent charges are recorded into it.
    pub(crate) fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches and returns the sink, if one was attached.
    pub(crate) fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }
}

/// One traced charge: event, timestamp, cost and attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated-cycle timestamp — the machine's total cycle count at
    /// the moment the charge was made (i.e. *before* adding `cycles`).
    pub at: Cycles,
    /// Cycles charged.
    pub cycles: Cycles,
    /// Bucket the cycles were attributed to.
    pub bucket: Bucket,
    /// What the charge was for.
    pub event: TraceEvent,
}

/// A consumer of [`TraceRecord`]s, attachable to a
/// [`Machine`](crate::Machine).
///
/// `Debug` is a supertrait so an attached sink never breaks the
/// machine's own `Debug`; `as_any` lets callers downcast a sink they
/// take back (e.g. to [`RingTrace`]) without the machine knowing the
/// concrete type.
pub trait TraceSink: fmt::Debug {
    /// Called once per cycle charge.
    fn record(&mut self, rec: &TraceRecord);
    /// Downcast support for retrieving a concrete sink.
    fn as_any(&self) -> &dyn Any;
}

/// A bounded-memory [`TraceSink`]: the most recent records in a ring
/// plus never-dropped per-bucket totals.
///
/// The ring answers "what happened around cycle X" questions for the
/// tail of a run; the totals reconstruct full-run attribution however
/// long the run was, which is what the audit property test compares
/// against [`TimeBuckets::total()`].
#[derive(Clone, Debug)]
pub struct RingTrace {
    capacity: usize,
    ring: VecDeque<TraceRecord>,
    dropped: u64,
    bucket_cycles: [Cycles; 5],
    events: u64,
}

impl RingTrace {
    /// A ring keeping the last `capacity` records.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RingTrace {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
            bucket_cycles: [Cycles::ZERO; 5],
            events: 0,
        }
    }

    /// The retained (most recent) records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Records evicted from the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total records ever seen (retained + dropped).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Never-dropped cycle total attributed to `bucket`.
    #[must_use]
    pub fn bucket_cycles(&self, bucket: Bucket) -> Cycles {
        self.bucket_cycles[bucket.index()]
    }

    /// Never-dropped cycle total across all buckets — reconstructs the
    /// machine's total runtime from the trace alone.
    #[must_use]
    pub fn total_cycles(&self) -> Cycles {
        let mut total = Cycles::ZERO;
        for c in self.bucket_cycles {
            total += c;
        }
        total
    }
}

impl TraceSink for RingTrace {
    fn record(&mut self, rec: &TraceRecord) {
        self.events += 1;
        self.bucket_cycles[rec.bucket.index()] += rec.cycles;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(*rec);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, cycles: u64, bucket: Bucket) -> TraceRecord {
        TraceRecord {
            at: Cycles::new(at),
            cycles: Cycles::new(cycles),
            bucket,
            event: TraceEvent::Execute { instructions: 1 },
        }
    }

    #[test]
    fn ring_bounds_memory_but_sums_everything() {
        let mut t = RingTrace::new(2);
        t.record(&rec(0, 5, Bucket::User));
        t.record(&rec(5, 7, Bucket::Kernel));
        t.record(&rec(12, 3, Bucket::User));
        assert_eq!(t.records().count(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.events(), 3);
        assert_eq!(t.bucket_cycles(Bucket::User), Cycles::new(8));
        assert_eq!(t.bucket_cycles(Bucket::Kernel), Cycles::new(7));
        assert_eq!(t.total_cycles(), Cycles::new(15));
        // Oldest retained record is the second one.
        assert_eq!(t.records().next().unwrap().at, Cycles::new(5));
    }

    #[test]
    fn zero_capacity_ring_still_accumulates() {
        let mut t = RingTrace::new(0);
        t.record(&rec(0, 9, Bucket::Fault));
        assert_eq!(t.records().count(), 0);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.total_cycles(), Cycles::new(9));
    }

    #[test]
    fn bucket_index_roundtrips() {
        for (i, b) in Bucket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
        assert_eq!(Bucket::TlbMiss.name(), "tlb-miss");
    }
}
