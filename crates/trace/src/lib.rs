//! Compact record/replay traces of [`Machine`] op
//! streams, and the co-run mirror.
//!
//! [`corun_with`] is the one interleaving loop, and the part of this
//! crate sweeps use: it mirrors whatever drives core 0 (a live workload)
//! onto the other cores of the machine, op by op, as relocated copies,
//! so a co-run needs no recorded trace. [`apply_op`] is the only place a
//! mirrored or decoded op becomes machine calls.
//!
//! The MTR1 codec is the rest. A run recorded through an attached
//! [`TraceWriter`] (it implements [`OpSink`]) becomes a self-describing
//! byte buffer: a small header naming the workload, its scale and its
//! recorded outcome, followed by every [`MachineOp`] the workload
//! issued, delta/varint-encoded. [`replay`] drives those ops back
//! through a fresh machine's *public* API, reproducing the exact address
//! stream — and therefore, because simulated timing depends only on
//! addresses and shapes, a byte-identical
//! [`RunReport`](mtlb_sim::RunReport). No sweep records or replays: the
//! workloads are deterministic programs, so a live run *is* the op
//! stream. The codec is reached only by the repo benchmark's probes
//! (the `trace.*` metrics) and by tests, and nothing reads or writes
//! trace files.
//!
//! What replay does **not** reproduce is data: stores write zeros, so
//! guest-memory contents and workload checksums differ from the live
//! run. The header carries the live run's checksum and verification
//! flag instead, so a replaying driver can report the recorded outcome.
//! A zero store to an untouched guest page backs no host page, so
//! replayed stores materialise no guest memory: what a replay holds is
//! what the kernel writes itself (page-table and MMC-table entries), a
//! fraction of the live run's footprint.
//!
//! # Format
//!
//! All multi-byte integers are LEB128 varints
//! ([`mtlb_types::varint`]); virtual addresses are ZigZag deltas
//! against a running previous-address register, so the sequential and
//! strided streams real workloads produce cost one or two bytes per
//! access.
//!
//! ```text
//! magic      4 bytes  "MTR1"
//! name       uvarint length + that many UTF-8 bytes
//! scale      1 byte   (0 = test scale, 1 = paper scale)
//! checksum   8 bytes  little-endian u64 (recorded outcome)
//! verified   1 byte   (0 / 1)
//! op count   uvarint
//! ops        op count × (tag byte + tag-specific varint fields)
//! ```
//!
//! Decoding is panic-free: corrupt, truncated or oversized input yields
//! a [`TraceError`], never a panic or an unbounded allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type
    )
)]

use std::any::Any;
use std::fmt;

use mtlb_sim::{Machine, MachineOp, OpSink, Scalar};
use mtlb_types::varint::{get_ivarint, get_uvarint, put_ivarint, put_uvarint};
use mtlb_types::{Fault, Prot, VirtAddr, Vpn, PAGE_SIZE};

/// File magic: "MTR1" (MTLB Trace, format 1).
pub const MAGIC: [u8; 4] = *b"MTR1";

/// Caps the single-allocation size replay will perform for one block
/// op, so a corrupt trace cannot request an absurd buffer.
const MAX_BLOCK_LEN: u64 = 1 << 30;

/// Why a trace failed to decode or replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not begin with [`MAGIC`].
    BadMagic,
    /// The buffer ended (or a varint was malformed) at byte `at`.
    Truncated {
        /// Byte offset at which decoding failed.
        at: usize,
    },
    /// The header's workload name is not valid UTF-8.
    BadName,
    /// An op tag byte no decoder exists for.
    UnknownTag {
        /// The unrecognised tag value.
        tag: u8,
        /// Byte offset of the tag.
        at: usize,
    },
    /// Bytes remain after the declared op count was decoded.
    TrailingBytes {
        /// Byte offset of the first excess byte.
        at: usize,
    },
    /// A block op declared a length beyond the replay allocation cap.
    OversizedBlock {
        /// The declared length.
        len: u64,
    },
    /// A stream op's lane base is not aligned to the lane's access size.
    MisalignedStream {
        /// The offending lane base.
        base: VirtAddr,
        /// The lane's access size in bytes.
        size: u64,
    },
    /// A scalar `Read`/`Write` op whose access size is not 1, 2, 4 or 8
    /// bytes.
    BadScalarSize {
        /// The declared size.
        size: u64,
        /// Byte offset of the size field when decoding; the op's index
        /// in the stream when [`apply_op`] rejects a hand-built op.
        at: u64,
    },
    /// A `PageBits`, `DemoteSuperpage` or `SwapOutSuperpage` op names a
    /// page outside every shadow superpage of the running process.
    NotInSuperpage {
        /// The named page.
        vpn: Vpn,
    },
    /// A `RecolorPage` op asks for a color the cache does not have, or
    /// names a page that is not mapped to a real frame, or runs on a
    /// machine with no MTLB to translate the shadow page it installs.
    NotRecolorable {
        /// The named page.
        vpn: Vpn,
        /// The requested color.
        color: u64,
    },
    /// A `MapRegion` region, or a `LoadProgram` text segment, that is
    /// empty, starts off a page boundary or inside the kernel's reserved
    /// window, or overlaps a mapped page.
    Unmappable {
        /// The region start.
        start: VirtAddr,
        /// The region length in bytes.
        len: u64,
    },
    /// Replaying op number `op_index` (0-based) faulted on the target
    /// machine — the trace was recorded against an incompatible
    /// machine state or is corrupt.
    ReplayFault {
        /// Index of the faulting op in the stream.
        op_index: u64,
        /// The fault the machine raised.
        fault: Fault,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceError::BadMagic => write!(f, "not an MTR1 trace (bad magic)"),
            TraceError::Truncated { at } => write!(f, "trace truncated at byte {at}"),
            TraceError::BadName => write!(f, "trace workload name is not UTF-8"),
            TraceError::UnknownTag { tag, at } => {
                write!(f, "unknown op tag {tag:#04x} at byte {at}")
            }
            TraceError::TrailingBytes { at } => {
                write!(f, "trailing bytes after final op (byte {at})")
            }
            TraceError::OversizedBlock { len } => {
                write!(f, "block op length {len} exceeds replay cap")
            }
            TraceError::MisalignedStream { base, size } => {
                write!(f, "stream lane base {base} is not {size}-byte aligned")
            }
            TraceError::BadScalarSize { size, at } => {
                write!(
                    f,
                    "scalar access of {size} bytes at {at} (want 1, 2, 4 or 8)"
                )
            }
            TraceError::NotInSuperpage { vpn } => write!(f, "vpn {vpn} is not in a superpage"),
            TraceError::NotRecolorable { vpn, color } => {
                write!(f, "cannot recolor vpn {vpn} to {color}")
            }
            TraceError::Unmappable { start, len } => write!(f, "cannot map {len} bytes at {start}"),
            TraceError::ReplayFault { op_index, fault } => {
                write!(f, "replay faulted at op {op_index}: {fault:?}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The self-describing prefix of a trace: which run this is and what
/// the live run's outcome was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Workload name (e.g. `"em3d"`).
    pub name: String,
    /// Scale discriminant — `0` for test scale, `1` for paper scale.
    /// Kept as a raw byte so this crate stays independent of the
    /// workloads crate; the bench layer owns the mapping.
    pub scale: u8,
    /// The live run's outcome checksum (replay cannot regenerate it —
    /// replayed stores write zeros).
    pub checksum: u64,
    /// Whether the live run verified its own output.
    pub verified: bool,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// A streaming [`OpSink`] that encodes each recorded op into the MTR1
/// body format; [`finish`](TraceWriter::finish) prepends the header.
#[derive(Debug, Default)]
pub struct TraceWriter {
    body: Vec<u8>,
    ops: u64,
    last_va: u64,
}

/// The wire-field tuple `(tag, va, vb, arg, instr)` of an op: how each
/// [`MachineOp`] maps onto the MTR1 field slots. The values are
/// exactly what [`TraceReader`] hands back: raw address bits, sizes
/// widened to `u64`, protection bits and boolean flags as integers.
fn wire_fields(op: &MachineOp) -> (u8, u64, u64, u64, u64) {
    match *op {
        MachineOp::Execute { n } => (0, 0, 0, n, 0),
        MachineOp::Read { va, size } => (1, va.get(), 0, u64::from(size), 0),
        MachineOp::Write { va, size } => (2, va.get(), 0, u64::from(size), 0),
        MachineOp::ReadBlock { va, len, instr } => (3, va.get(), 0, len, instr),
        MachineOp::WriteBlock { va, len, instr } => (4, va.get(), 0, len, instr),
        MachineOp::StreamReadU32 { base, count, instr } => (5, base.get(), 0, count, instr),
        MachineOp::StreamWriteU32 { base, count, instr } => (6, base.get(), 0, count, instr),
        MachineOp::StreamWritePairU32 { a, b, count, instr } => (7, a.get(), b.get(), count, instr),
        MachineOp::StreamWriteU32F64 { a, b, count, instr } => (8, a.get(), b.get(), count, instr),
        MachineOp::MapRegion { start, len, prot } => {
            (9, start.get(), 0, len, u64::from(prot.bits()))
        }
        MachineOp::Remap { start, len } => (10, start.get(), 0, len, 0),
        MachineOp::Sbrk { increment } => (11, 0, 0, increment, 0),
        MachineOp::SwapOutSuperpage { vpn } => (12, 0, 0, vpn.index(), 0),
        MachineOp::DemoteSuperpage { vpn } => (13, 0, 0, vpn.index(), 0),
        MachineOp::PageBits { vpn } => (14, 0, 0, vpn.index(), 0),
        MachineOp::SpawnProcess => (15, 0, 0, 0, 0),
        MachineOp::SwitchProcess { pid } => (16, 0, 0, pid, 0),
        MachineOp::RecolorPage { vpn, color } => (17, 0, 0, vpn.index(), color),
        MachineOp::LoadProgram { len, remap_text } => (18, 0, 0, len, u64::from(remap_text)),
        MachineOp::ResetStats => (19, 0, 0, 0, 0),
    }
}

impl TraceWriter {
    /// An empty writer, ready to attach via
    /// [`Machine::set_op_sink`](mtlb_sim::Machine::set_op_sink).
    #[must_use]
    pub fn new() -> Self {
        TraceWriter::default()
    }

    /// Ops encoded so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Seals the trace: header (with the live run's outcome) followed
    /// by the encoded op stream. The header is inserted in front of the
    /// body in the writer's own buffer, so a large trace is never held
    /// twice.
    #[must_use]
    pub fn finish(self, name: &str, scale: u8, checksum: u64, verified: bool) -> Vec<u8> {
        let mut header = Vec::with_capacity(MAGIC.len() + name.len() + 24);
        header.extend_from_slice(&MAGIC);
        put_uvarint(&mut header, name.len() as u64);
        header.extend_from_slice(name.as_bytes());
        header.push(scale);
        header.extend_from_slice(&checksum.to_le_bytes());
        header.push(u8::from(verified));
        put_uvarint(&mut header, self.ops);
        let mut out = self.body;
        out.reserve_exact(header.len());
        out.splice(0..0, header);
        out
    }

    fn put_va(&mut self, raw: u64) {
        put_ivarint(&mut self.body, raw.wrapping_sub(self.last_va) as i64);
        self.last_va = raw;
    }

    /// Encodes one op: what recording it through an attached writer
    /// does, for callers that hold ops rather than a machine.
    pub fn push(&mut self, op: &MachineOp) {
        self.ops += 1;
        let (tag, va, vb, arg, instr) = wire_fields(op);
        self.body.push(tag);
        // Field layout per tag group mirrors `TraceReader::next_op`.
        match tag {
            0 | 11..=14 | 16 => put_uvarint(&mut self.body, arg),
            1 | 2 | 10 => {
                self.put_va(va);
                put_uvarint(&mut self.body, arg);
            }
            3..=6 | 9 => {
                self.put_va(va);
                put_uvarint(&mut self.body, arg);
                put_uvarint(&mut self.body, instr);
            }
            7 | 8 => {
                self.put_va(va);
                self.put_va(vb);
                put_uvarint(&mut self.body, arg);
                put_uvarint(&mut self.body, instr);
            }
            15 | 19 => {}
            17 => {
                put_uvarint(&mut self.body, arg);
                put_uvarint(&mut self.body, instr);
            }
            _ => {
                debug_assert_eq!(tag, 18);
                put_uvarint(&mut self.body, arg);
                self.body.push(instr as u8);
            }
        }
    }
}

impl OpSink for TraceWriter {
    fn record(&mut self, _: &mut Machine, op: &MachineOp) {
        self.push(op);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A pull decoder over an MTR1 buffer: parses the header eagerly,
/// yields ops one at a time.
#[derive(Debug)]
pub struct TraceReader<'a> {
    buf: &'a [u8],
    pos: usize,
    last_va: u64,
    remaining: u64,
    header: TraceHeader,
}

impl<'a> TraceReader<'a> {
    /// Parses the header; op decoding is deferred to
    /// [`next_op`](TraceReader::next_op).
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`], [`TraceError::Truncated`] or
    /// [`TraceError::BadName`] on a corrupt header.
    pub fn new(buf: &'a [u8]) -> Result<Self, TraceError> {
        let magic = buf.get(..MAGIC.len()).ok_or(TraceError::BadMagic)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut pos = MAGIC.len();
        let name_len = get_uvarint(buf, &mut pos).ok_or(TraceError::Truncated { at: pos })?;
        let name_len = usize::try_from(name_len).map_err(|_| TraceError::Truncated { at: pos })?;
        let name_end = pos
            .checked_add(name_len)
            .ok_or(TraceError::Truncated { at: pos })?;
        let name_bytes = buf
            .get(pos..name_end)
            .ok_or(TraceError::Truncated { at: pos })?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| TraceError::BadName)?
            .to_owned();
        pos = name_end;
        let scale = *buf.get(pos).ok_or(TraceError::Truncated { at: pos })?;
        pos += 1;
        let sum_end = pos + 8;
        let sum_bytes = buf
            .get(pos..sum_end)
            .ok_or(TraceError::Truncated { at: pos })?;
        let mut sum = [0u8; 8];
        sum.copy_from_slice(sum_bytes);
        let checksum = u64::from_le_bytes(sum);
        pos = sum_end;
        let verified = *buf.get(pos).ok_or(TraceError::Truncated { at: pos })? != 0;
        pos += 1;
        let remaining = get_uvarint(buf, &mut pos).ok_or(TraceError::Truncated { at: pos })?;
        Ok(TraceReader {
            buf,
            pos,
            last_va: 0,
            remaining,
            header: TraceHeader {
                name,
                scale,
                checksum,
                verified,
            },
        })
    }

    /// The parsed header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Ops not yet decoded.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Consumes the reader, keeping only the header.
    #[must_use]
    pub fn into_header(self) -> TraceHeader {
        self.header
    }

    #[inline]
    fn uvar(&mut self) -> Result<u64, TraceError> {
        get_uvarint(self.buf, &mut self.pos).ok_or(TraceError::Truncated { at: self.pos })
    }

    #[inline]
    fn get_va(&mut self) -> Result<VirtAddr, TraceError> {
        let delta =
            get_ivarint(self.buf, &mut self.pos).ok_or(TraceError::Truncated { at: self.pos })?;
        self.last_va = self.last_va.wrapping_add(delta as u64);
        Ok(VirtAddr::new(self.last_va))
    }

    #[inline]
    fn get_vpn(&mut self) -> Result<Vpn, TraceError> {
        Ok(Vpn::new(self.uvar()?))
    }

    /// A scalar access size: one of the four widths the machine has an
    /// accessor for, anything else is a corrupt trace.
    #[inline]
    fn get_size(&mut self) -> Result<u8, TraceError> {
        let at = self.pos as u64;
        match self.uvar()? {
            size @ (1 | 2 | 4 | 8) => Ok(size as u8),
            size => Err(TraceError::BadScalarSize { size, at }),
        }
    }

    /// Decodes the next op, `Ok(None)` once the declared op count is
    /// exhausted (at which point any trailing bytes are an error).
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`], [`TraceError::UnknownTag`],
    /// [`TraceError::BadScalarSize`] or [`TraceError::TrailingBytes`] on
    /// a corrupt body.
    #[inline]
    pub fn next_op(&mut self) -> Result<Option<MachineOp>, TraceError> {
        if self.remaining == 0 {
            if self.pos != self.buf.len() {
                return Err(TraceError::TrailingBytes { at: self.pos });
            }
            return Ok(None);
        }
        self.remaining -= 1;
        let tag_at = self.pos;
        let tag = *self
            .buf
            .get(self.pos)
            .ok_or(TraceError::Truncated { at: self.pos })?;
        self.pos += 1;
        let op = match tag {
            0 => MachineOp::Execute { n: self.uvar()? },
            1 => {
                let va = self.get_va()?;
                let size = self.get_size()?;
                MachineOp::Read { va, size }
            }
            2 => {
                let va = self.get_va()?;
                let size = self.get_size()?;
                MachineOp::Write { va, size }
            }
            3 => {
                let va = self.get_va()?;
                let len = self.uvar()?;
                let instr = self.uvar()?;
                MachineOp::ReadBlock { va, len, instr }
            }
            4 => {
                let va = self.get_va()?;
                let len = self.uvar()?;
                let instr = self.uvar()?;
                MachineOp::WriteBlock { va, len, instr }
            }
            5 => {
                let base = self.get_va()?;
                let count = self.uvar()?;
                let instr = self.uvar()?;
                MachineOp::StreamReadU32 { base, count, instr }
            }
            6 => {
                let base = self.get_va()?;
                let count = self.uvar()?;
                let instr = self.uvar()?;
                MachineOp::StreamWriteU32 { base, count, instr }
            }
            7 => {
                let a = self.get_va()?;
                let b = self.get_va()?;
                let count = self.uvar()?;
                let instr = self.uvar()?;
                MachineOp::StreamWritePairU32 { a, b, count, instr }
            }
            8 => {
                let a = self.get_va()?;
                let b = self.get_va()?;
                let count = self.uvar()?;
                let instr = self.uvar()?;
                MachineOp::StreamWriteU32F64 { a, b, count, instr }
            }
            9 => {
                let start = self.get_va()?;
                let len = self.uvar()?;
                let prot = Prot::from_bits_truncate(self.uvar()? as u8);
                MachineOp::MapRegion { start, len, prot }
            }
            10 => {
                let start = self.get_va()?;
                let len = self.uvar()?;
                MachineOp::Remap { start, len }
            }
            11 => MachineOp::Sbrk {
                increment: self.uvar()?,
            },
            12 => MachineOp::SwapOutSuperpage {
                vpn: self.get_vpn()?,
            },
            13 => MachineOp::DemoteSuperpage {
                vpn: self.get_vpn()?,
            },
            14 => MachineOp::PageBits {
                vpn: self.get_vpn()?,
            },
            15 => MachineOp::SpawnProcess,
            16 => MachineOp::SwitchProcess { pid: self.uvar()? },
            17 => {
                let vpn = self.get_vpn()?;
                let color = self.uvar()?;
                MachineOp::RecolorPage { vpn, color }
            }
            18 => {
                let len = self.uvar()?;
                let remap_text = *self
                    .buf
                    .get(self.pos)
                    .ok_or(TraceError::Truncated { at: self.pos })?
                    != 0;
                self.pos += 1;
                MachineOp::LoadProgram { len, remap_text }
            }
            19 => MachineOp::ResetStats,
            tag => return Err(TraceError::UnknownTag { tag, at: tag_at }),
        };
        Ok(Some(op))
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Drives every op in `bytes` through `machine`'s public API, in
/// stream order: the plain decode loop.
///
/// Data values are not part of the format: replayed stores write
/// zeros. Because simulated timing depends only on the address stream,
/// the machine's [`report`](mtlb_sim::Machine::report) after a replay
/// is byte-identical to the live run's — but guest-memory contents are
/// not, which is why the returned [`TraceHeader`] carries the live
/// run's recorded outcome.
///
/// # Errors
///
/// Any decode error, or [`TraceError::ReplayFault`] if an op faults —
/// which means the trace does not match the machine's configuration
/// or initial state.
pub fn replay(machine: &mut Machine, bytes: &[u8]) -> Result<TraceHeader, TraceError> {
    let mut reader = TraceReader::new(bytes)?;
    let mut op_index = 0;
    while let Some(op) = reader.next_op()? {
        apply_op(machine, &op, op_index)?;
        op_index += 1;
    }
    Ok(reader.into_header())
}

/// Runs `drive` on core 0 of `machine` as instance 0 of an
/// `instances`-way co-run, and mirrors every op it issues onto cores
/// 1..`instances`, each running its own fresh process and applying the
/// op [`relocated`](MachineOp::relocated) into that process's window.
/// The interleaving is round-robin at the op boundary: core 0's op *i*,
/// then its copies on cores 1, 2, …, then core 0's op *i + 1*. Nothing
/// is recorded or held: the mirror sees each op as core 0 issues it.
///
/// `drive` is anything that runs a workload on the machine, such as a
/// live workload (instance 0 then computes and checks its real output).
/// With one instance nothing is mirrored and no core switch happens.
/// The mirror is the machine's op sink for the co-run (it replaces any
/// sink attached) and `drive` must leave it in place; it is detached
/// when `drive` returns.
///
/// # Errors
///
/// The first mirrored op that fails [`apply_op`] stops the mirror —
/// instance 0 runs on to the end — and its error is returned in place
/// of `drive`'s value.
///
/// # Panics
///
/// When `instances` exceeds the machine's cores (in
/// [`set_active_core`](Machine::set_active_core)).
pub fn corun_with<T>(
    machine: &mut Machine,
    instances: usize,
    drive: impl FnOnce(&mut Machine) -> T,
) -> Result<T, TraceError> {
    let mut deltas = Vec::with_capacity(instances.saturating_sub(1));
    for core in 1..instances {
        let pid = machine.spawn_process();
        deltas.push(Machine::process_heap_base(pid).get() - Machine::process_heap_base(0).get());
        machine.set_active_core(core);
        apply_op(machine, &MachineOp::SwitchProcess { pid: pid as u64 }, 0)?;
    }
    machine.set_active_core(0);
    machine.set_op_sink(Box::new(Mirror {
        deltas,
        pending: None,
        op_index: 0,
        error: None,
    }));
    let value = drive(machine);
    let mirror = machine
        .take_op_sink()
        .and_then(|sink| sink.into_any().downcast::<Mirror>().ok());
    let Some(mut mirror) = mirror else {
        return Ok(value);
    };
    mirror.flush(machine);
    mirror.error.map_or(Ok(value), Err)
}

/// The [`OpSink`] behind [`corun_with`]. Core 0's op is held until
/// core 0 issues the next one — by then it has run — and only then
/// applied on the other cores, so each core sees the op stream in
/// order and core 0 leads every round.
#[derive(Debug)]
struct Mirror {
    /// Per mirrored core (1, 2, …), how far its process's window sits
    /// above instance 0's.
    deltas: Vec<u64>,
    /// Core 0's latest op, not yet mirrored.
    pending: Option<MachineOp>,
    /// The pending op's index in core 0's stream.
    op_index: u64,
    /// The first mirrored op's failure; once set, mirroring stops.
    error: Option<TraceError>,
}

impl Mirror {
    /// Applies the pending op's relocated copies on the mirrored cores,
    /// then makes core 0 active again.
    #[inline]
    fn flush(&mut self, machine: &mut Machine) {
        let Some(op) = self.pending.take() else {
            return;
        };
        let op_index = self.op_index;
        self.op_index += 1;
        if self.error.is_some() {
            return;
        }
        for (core, &delta) in (1..).zip(&self.deltas) {
            if let Some(op) = op.relocated(delta) {
                machine.set_active_core(core);
                if let Err(e) = apply_op(machine, &op, op_index) {
                    self.error = Some(e);
                    break;
                }
            }
        }
        machine.set_active_core(0);
    }
}

impl OpSink for Mirror {
    fn record(&mut self, machine: &mut Machine, op: &MachineOp) {
        self.flush(machine);
        self.pending = Some(*op);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Drives a single decoded op through `machine`'s public API — the
/// per-op step of [`replay`] and of [`corun_with`]'s mirror, exposed
/// for drivers that hold ops rather than MTR1 bytes. `op_index` only labels
/// the error.
///
/// # Errors
///
/// [`TraceError::ReplayFault`] if the op faults;
/// [`TraceError::BadScalarSize`] for a scalar op of a width no
/// [`Scalar`] has. A well-formed op the machine's API would reject by
/// panicking (a live caller's bug, but here just a bad trace) is checked
/// against the machine's read-only state first and returns its own
/// variant instead ([`TraceError::OversizedBlock`] through
/// [`TraceError::Unmappable`]). Running out of a resource (a huge
/// `MapRegion`) is not checked.
#[inline]
pub fn apply_op(machine: &mut Machine, op: &MachineOp, op_index: u64) -> Result<(), TraceError> {
    let lane = |base: VirtAddr, size: u64| {
        if base.is_aligned(size) {
            Ok(())
        } else {
            Err(TraceError::MisalignedStream { base, size })
        }
    };
    let result: Result<(), Fault> = match *op {
        MachineOp::Execute { n } => machine.try_execute(n),
        MachineOp::Read { va, size } | MachineOp::Write { va, size } => {
            let write = matches!(op, MachineOp::Write { .. });
            match size {
                1 => scalar::<u8>(machine, va, write),
                2 => scalar::<u16>(machine, va, write),
                4 => scalar::<u32>(machine, va, write),
                8 => scalar::<u64>(machine, va, write),
                _ => {
                    return Err(TraceError::BadScalarSize {
                        size: u64::from(size),
                        at: op_index,
                    })
                }
            }
        }
        MachineOp::ReadBlock { va, len, instr } => {
            if len > MAX_BLOCK_LEN {
                return Err(TraceError::OversizedBlock { len });
            }
            let mut buf = vec![0u8; len as usize];
            machine.try_read_block(va, &mut buf, instr)
        }
        MachineOp::WriteBlock { va, len, instr } => {
            if len > MAX_BLOCK_LEN {
                return Err(TraceError::OversizedBlock { len });
            }
            let data = vec![0u8; len as usize];
            machine.try_write_block(va, &data, instr)
        }
        MachineOp::StreamReadU32 { base, count, instr } => {
            lane(base, 4)?;
            machine.try_stream_read_u32(base, count, instr, |_, _| {})
        }
        MachineOp::StreamWriteU32 { base, count, instr } => {
            lane(base, 4)?;
            machine.try_stream_write_u32(base, count, instr, |_| 0)
        }
        MachineOp::StreamWritePairU32 { a, b, count, instr } => {
            lane(a, 4)?;
            lane(b, 4)?;
            machine.try_stream_write_u32_pair(a, b, count, instr, |_| (0, 0))
        }
        MachineOp::StreamWriteU32F64 { a, b, count, instr } => {
            lane(a, 4)?;
            lane(b, 8)?;
            machine.try_stream_write_u32_f64(a, b, count, instr, |_| (0, 0.0))
        }
        MachineOp::MapRegion { start, len, prot } => {
            mappable(machine, start, len)?;
            machine.map_region(start, len, prot);
            Ok(())
        }
        MachineOp::Remap { start, len } => {
            let _ = machine.remap(start, len);
            Ok(())
        }
        MachineOp::Sbrk { increment } => {
            let _ = machine.sbrk(increment);
            Ok(())
        }
        MachineOp::SwapOutSuperpage { vpn } => {
            in_superpage(machine, vpn)?;
            let _ = machine.swap_out_superpage(vpn);
            Ok(())
        }
        MachineOp::DemoteSuperpage { vpn } => {
            in_superpage(machine, vpn)?;
            machine.demote_superpage(vpn);
            Ok(())
        }
        MachineOp::PageBits { vpn } => {
            in_superpage(machine, vpn)?;
            let _ = machine.page_bits(vpn);
            Ok(())
        }
        MachineOp::SpawnProcess => {
            let _ = machine.spawn_process();
            Ok(())
        }
        MachineOp::SwitchProcess { pid } => machine.try_switch_process(pid as usize),
        MachineOp::RecolorPage { vpn, color } => {
            recolorable(machine, vpn, color)?;
            machine.recolor_page(vpn, color);
            Ok(())
        }
        MachineOp::LoadProgram { len, remap_text } => {
            mappable(machine, machine.program_base(), len)?;
            machine.load_program(len, remap_text);
            Ok(())
        }
        MachineOp::ResetStats => {
            machine.reset_stats();
            Ok(())
        }
    };
    result.map_err(|fault| TraceError::ReplayFault { op_index, fault })
}

/// One replayed scalar access of width `T`; a store writes zero.
#[inline]
fn scalar<T: Scalar>(machine: &mut Machine, va: VirtAddr, write: bool) -> Result<(), Fault> {
    if write {
        machine.try_write(va, T::from_bits(0))
    } else {
        machine.try_read::<T>(va).map(drop)
    }
}

/// `Ok` when mapping `[start, start + len)` cannot panic: the region
/// is non-empty, page-aligned, above the kernel's reserved window, and
/// maps no page yet.
fn mappable(machine: &Machine, start: VirtAddr, len: u64) -> Result<(), TraceError> {
    let kernel = machine.kernel();
    let ok = len > 0
        && start.is_aligned(PAGE_SIZE)
        && start.get() >= kernel.layout().reserved_bytes
        && kernel
            .aspace()
            .pages_in(start.vpn(), len.div_ceil(PAGE_SIZE))
            .next()
            .is_none();
    ok.then_some(())
        .ok_or(TraceError::Unmappable { start, len })
}

/// `Ok` when recoloring `vpn` to `color` cannot panic, now or on the
/// page's next access: the color exists, the page is real-backed, and
/// an MTLB will translate the shadow page it gets.
fn recolorable(machine: &Machine, vpn: Vpn, color: u64) -> Result<(), TraceError> {
    let cfg = machine.config();
    let ok = color < cfg.cache.page_colors()
        && cfg.mmc.mtlb.is_some()
        && machine
            .kernel()
            .aspace()
            .page(vpn)
            .is_some_and(|page| page.backing.is_real());
    ok.then_some(())
        .ok_or(TraceError::NotRecolorable { vpn, color })
}

/// `Ok` when `vpn` lies inside a shadow superpage of the running
/// process.
fn in_superpage(machine: &Machine, vpn: Vpn) -> Result<(), TraceError> {
    let ok = machine.kernel().aspace().superpage_of(vpn).is_some();
    ok.then_some(()).ok_or(TraceError::NotInSuperpage { vpn })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<MachineOp> {
        vec![
            MachineOp::LoadProgram {
                len: 4096,
                remap_text: false,
            },
            MachineOp::MapRegion {
                start: VirtAddr::new(0x1000_0000),
                len: 64 * 1024,
                prot: Prot::RW,
            },
            MachineOp::Remap {
                start: VirtAddr::new(0x1000_0000),
                len: 64 * 1024,
            },
            MachineOp::Write {
                va: VirtAddr::new(0x1000_2468),
                size: 4,
            },
            MachineOp::Read {
                va: VirtAddr::new(0x1000_2468),
                size: 4,
            },
            MachineOp::Execute { n: 1000 },
            MachineOp::StreamWriteU32 {
                base: VirtAddr::new(0x1000_0000),
                count: 256,
                instr: 2,
            },
            MachineOp::ResetStats,
        ]
    }

    fn encode(ops: &[MachineOp]) -> Vec<u8> {
        let mut w = TraceWriter::new();
        for op in ops {
            w.push(op);
        }
        w.finish("sample", 0, 0xdead_beef, true)
    }

    #[test]
    fn round_trips_a_sample_stream() {
        let ops = sample_ops();
        let bytes = encode(&ops);
        let mut r = TraceReader::new(&bytes).unwrap();
        assert_eq!(
            r.header(),
            &TraceHeader {
                name: "sample".into(),
                scale: 0,
                checksum: 0xdead_beef,
                verified: true,
            }
        );
        let mut decoded = Vec::new();
        while let Some(op) = r.next_op().unwrap() {
            decoded.push(op);
        }
        assert_eq!(decoded, ops);
    }

    #[test]
    fn sequential_addresses_encode_compactly() {
        let mut w = TraceWriter::new();
        for i in 0..1000u64 {
            w.push(&MachineOp::Read {
                va: VirtAddr::new(0x1000_0000 + i * 4),
                size: 4,
            });
        }
        let bytes = w.finish("seq", 1, 0, false);
        // Tag + one-byte delta + one-byte size ≈ 3 bytes/op after the
        // first; a raw fixed-width encoding would cost ≥ 9.
        assert!(bytes.len() < 1000 * 4, "got {} bytes", bytes.len());
    }

    #[test]
    fn rejects_corrupt_input() {
        assert_eq!(TraceReader::new(b"nope").unwrap_err(), TraceError::BadMagic);
        assert_eq!(TraceReader::new(b"MTR").unwrap_err(), TraceError::BadMagic);
        let good = encode(&sample_ops());
        // Truncation anywhere must error, never panic.
        for cut in 0..good.len() {
            let _ =
                TraceReader::new(&good[..cut]).map(|mut r| while let Ok(Some(_)) = r.next_op() {});
        }
        // Trailing garbage is detected.
        let mut padded = good.clone();
        padded.push(0);
        let mut r = TraceReader::new(&padded).unwrap();
        let err = loop {
            match r.next_op() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("trailing byte not detected"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TraceError::TrailingBytes { .. }));
        // An unknown tag is rejected.
        let mut w = TraceWriter::new();
        w.push(&MachineOp::SpawnProcess);
        let mut bytes = w.finish("x", 0, 0, false);
        let tag_at = bytes.len() - 1;
        bytes[tag_at] = 0xff;
        let mut r = TraceReader::new(&bytes).unwrap();
        assert!(matches!(
            r.next_op().unwrap_err(),
            TraceError::UnknownTag { tag: 0xff, .. }
        ));
    }

    #[test]
    fn replay_reproduces_cycles_not_data() {
        use mtlb_sim::MachineConfig;

        let cfg = MachineConfig::paper_mtlb(64);
        // Live run, recorded.
        let mut live = Machine::new(cfg.clone());
        live.set_op_sink(Box::new(TraceWriter::new()));
        let base = VirtAddr::new(0x1000_0000);
        live.map_region(base, 64 * 1024, Prot::RW);
        let _ = live.remap(base, 64 * 1024);
        for i in 0..2048u64 {
            live.try_write::<u32>(base + i * 4, i as u32).unwrap();
        }
        for i in 0..2048u64 {
            assert_eq!(live.try_read::<u32>(base + i * 4).unwrap(), i as u32);
        }
        live.try_execute(10_000).unwrap();
        let live_report = live.report();
        let writer = live
            .take_op_sink()
            .unwrap()
            .into_any()
            .downcast::<TraceWriter>()
            .unwrap();
        let bytes = writer.finish("smoke", 0, 77, true);

        // Replay through a fresh machine.
        let mut fresh = Machine::new(cfg);
        let header = replay(&mut fresh, &bytes).unwrap();
        assert_eq!(header.checksum, 77);
        let replay_report = fresh.report();
        assert_eq!(live_report.to_json(), replay_report.to_json());
        // Data is NOT reproduced: the replayed stores wrote zeros.
        assert_eq!(fresh.try_read::<u32>(base + 40).unwrap(), 0);
    }

    #[test]
    fn replay_faults_on_incompatible_machine() {
        use mtlb_sim::MachineConfig;

        let mut w = TraceWriter::new();
        w.push(&MachineOp::Read {
            va: VirtAddr::new(0x4000_0000),
            size: 4,
        });
        let bytes = w.finish("bad", 0, 0, false);
        let mut m = Machine::new(MachineConfig::paper_mtlb(64));
        assert!(matches!(
            replay(&mut m, &bytes),
            Err(TraceError::ReplayFault { op_index: 0, .. })
        ));
    }
}
