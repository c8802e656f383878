//! The checkpoint codec: a checker's resumable state as bytes, and back,
//! in the layout documented on `IncrementalChecker::checkpoint_bytes`.

use super::witness::WitnessPath;
use super::{CheckerStats, Core};
use crate::history::{ArenaRead, InternedHistory};
use crate::search::SearchOutcome;
use drv_lang::wire::{
    put_invocation_id, put_response_id, put_u32, put_u64, take_invocation, take_response, Reader,
};
use drv_lang::{CodecError, EventAction, ProcId};
use drv_spec::SequentialSpec;

/// Format version of the checkpoint payload.  Bump when the layout changes;
/// restore rejects versions it does not know and still reads version 1.
const CHECKPOINT_VERSION: u8 = 2;

/// Why a serialized checker checkpoint could not be restored.
///
/// Restoration is defensive by design: checkpoints cross a crash boundary,
/// so every structural claim in the payload is re-validated against the
/// re-fed history and the sequential specification before it is trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The payload bytes were malformed: truncated, a bad tag, an inflated
    /// count, or non-UTF-8 text.
    Codec(CodecError),
    /// The checkpoint was written by an incompatible format version.
    BadVersion(u8),
    /// The flags byte carries bits this version does not define.
    BadFlags(u8),
    /// The witness or frontier references an operation the serialized
    /// history does not contain.
    UnknownOp {
        /// Process of the dangling reference.
        proc: usize,
        /// Per-process operation index of the dangling reference.
        local_index: u32,
    },
    /// The serialized witness does not replay legally on the specification
    /// (the checkpoint belongs to a different spec or config).
    IllegalWitness {
        /// Linearization position at which the replay became illegal.
        position: usize,
    },
    /// The blocked set names a process the history does not have, or is not
    /// in ascending order.
    BadProcess {
        /// The offending process.
        proc: usize,
    },
    /// Bytes remained after the checkpoint decoded completely.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// A delta extends a checker that has read `base` symbols, and this one
    /// has read another number: it belongs after a checkpoint that was not
    /// restored (or not the last one).
    BaseMismatch {
        /// Symbols the delta's base state had read.
        base: usize,
        /// Symbols the receiving checker has read.
        consumed: usize,
    },
}

impl From<CodecError> for CheckpointError {
    fn from(err: CodecError) -> Self {
        CheckpointError::Codec(err)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Codec(err) => write!(f, "malformed checkpoint: {err}"),
            CheckpointError::BadVersion(version) => {
                write!(f, "unsupported checkpoint version {version}")
            }
            CheckpointError::BadFlags(flags) => {
                write!(f, "undefined checkpoint flag bits {flags:#04x}")
            }
            CheckpointError::UnknownOp { proc, local_index } => write!(
                f,
                "checkpoint references unknown operation (proc {proc}, index {local_index})"
            ),
            CheckpointError::IllegalWitness { position } => write!(
                f,
                "checkpoint witness replays illegally at position {position}"
            ),
            CheckpointError::BadProcess { proc } => {
                write!(f, "checkpoint blocks process {proc} out of range or order")
            }
            CheckpointError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after checkpoint")
            }
            CheckpointError::BaseMismatch { base, consumed } => write!(
                f,
                "checkpoint delta extends {base} symbols, the checker has read {consumed}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Codec(err) => Some(err),
            _ => None,
        }
    }
}

impl<S: SequentialSpec> Core<S> {
    /// The one checkpoint encoder (layout in the docs of
    /// [`super::IncrementalChecker::checkpoint_bytes`]): the symbols from position
    /// `base` on and the witness from entry `keep` on, both relative to a
    /// checker that has read `base` symbols and holds this witness's first
    /// `keep` entries.  `(0, 0)` is the full form.
    pub(super) fn encode(&self, arena: &mut ArenaRead<'_>, base: usize, keep: usize) -> Vec<u8> {
        let interner = arena.interner();
        let symbols = self.history.symbols_consumed() - base;
        // Sized for register traffic (a symbol is 6 or 14 bytes, a witness
        // entry 9 or 17, a frontier entry 8) so that a long history is
        // written without regrowing the buffer a dozen times.
        let (witness_len, frontier_len) = match &self.witness {
            Some(witness) => (witness.order.len() - keep, 0),
            None => (0, self.frontier.len()),
        };
        let blocked_len = self.standing_no.as_ref().map_or(0, Vec::len);
        let mut buf = Vec::with_capacity(
            96 + 10 * symbols + 13 * witness_len + 8 * frontier_len + 4 * blocked_len,
        );
        buf.push(CHECKPOINT_VERSION);
        let mut flags = 0u8;
        if self.latched_inconsistent {
            flags |= 1;
        }
        if self.witness.is_some() {
            flags |= 2;
        }
        if self.standing_no.is_some() {
            flags |= 4 | 8;
        }
        buf.push(flags);
        for value in [
            self.stats.checks,
            self.stats.fast_path,
            self.stats.splices,
            0,
            self.stats.dfs_runs,
            self.stats.dfs_nodes,
            self.stats.rebuilds,
            self.stats.latched,
        ] {
            put_u64(&mut buf, value);
        }
        put_u32(&mut buf, self.history.process_count() as u32);
        put_u32(&mut buf, base as u32);
        put_u32(&mut buf, symbols as u32);
        // Each entry goes in as one fixed-size append (`put_invocation_id`).
        for (proc, action) in self.history.word_from(base) {
            let [p0, p1, p2, p3] = (proc.0 as u32).to_le_bytes();
            match action {
                EventAction::Invoke(id) => {
                    put_invocation_id(&mut buf, [p0, p1, p2, p3, 1], id, interner);
                }
                EventAction::Respond(id) => {
                    put_response_id(&mut buf, [p0, p1, p2, p3, 2], id, interner);
                }
            }
        }
        match &self.witness {
            Some(witness) => {
                put_u32(&mut buf, keep as u32);
                put_u32(&mut buf, witness_len as u32);
                for (id, resp) in &witness.order[keep..] {
                    let record = self.history.record(*id);
                    let [p0, p1, p2, p3] = (record.proc.0 as u32).to_le_bytes();
                    let [i0, i1, i2, i3] = record.local_index.to_le_bytes();
                    let head = [p0, p1, p2, p3, i0, i1, i2, i3];
                    put_response_id(&mut buf, head, *resp, interner);
                }
            }
            // While a witness is alive the frontier is its order; only the
            // stored copy is ever written.
            None => {
                put_u32(&mut buf, frontier_len as u32);
                for id in &self.frontier {
                    let record = self.history.record(*id);
                    put_u32(&mut buf, record.proc.0 as u32);
                    put_u32(&mut buf, record.local_index);
                }
            }
        }
        if let Some(blocked) = &self.standing_no {
            put_u32(&mut buf, blocked.iter().filter(|b| **b).count() as u32);
            for (proc, _) in blocked.iter().enumerate().filter(|(_, b)| **b) {
                put_u32(&mut buf, proc as u32);
            }
        }
        buf
    }

    /// The delta since the mark, which then moves here.
    pub(super) fn checkpoint_delta(&mut self, arena: &mut ArenaRead<'_>) -> Vec<u8> {
        let base = self.mark;
        let keep = self.witness.as_ref().map_or(0, |witness| witness.clean);
        let bytes = self.encode(arena, base, keep);
        self.mark = self.history.symbols_consumed();
        if let Some(witness) = &mut self.witness {
            witness.clean = witness.order.len();
        }
        bytes
    }

    pub(super) fn restore_bytes(
        &mut self,
        arena: &mut ArenaRead<'_>,
        bytes: &[u8],
    ) -> Result<(), CheckpointError> {
        let mut reader = Reader::new(bytes);
        let version = reader.u8("checkpoint version")?;
        // Version 1 is the full form an earlier build wrote, with three
        // fields version 2 dropped: read and skipped.
        let v1 = match version {
            1 => true,
            CHECKPOINT_VERSION => false,
            _ => return Err(CheckpointError::BadVersion(version)),
        };
        let flags = reader.u8("checkpoint flags")?;
        // The blocked set belongs to a standing NO.
        if flags & !15 != 0 || flags & 12 == 8 {
            return Err(CheckpointError::BadFlags(flags));
        }
        if v1 {
            reader.u32("checkpoint epoch")?;
        }
        let mut counters = [0u64; 8];
        for (slot, counter) in counters.iter_mut().enumerate() {
            if v1 && slot == 5 {
                // A stats slot version 1 wrote as 0.
                reader.u64("checkpoint stats")?;
            }
            *counter = reader.u64("checkpoint stats")?;
        }
        let processes = reader.u32("checkpoint processes")? as usize;
        let base = if v1 {
            0
        } else {
            reader.u32("checkpoint base")? as usize
        };
        // Base 0 replaces the state; any other base must be exactly what
        // this checker has read, and the payload extends it.
        let consumed = self.history.symbols_consumed();
        let held = if base == 0 {
            self.history = InternedHistory::new(processes);
            None
        } else if base == consumed {
            self.history.adopt_processes(processes);
            self.witness.take()
        } else {
            return Err(CheckpointError::BaseMismatch { base, consumed });
        };
        self.witness = None;
        self.invoked = None;
        self.frontier = Vec::new();
        // Each symbol costs at least proc (4) + tag (1) + one payload byte.
        let symbol_count = reader.count(6, "checkpoint symbols")?;
        // Re-feed the history directly, bypassing witness maintenance: the
        // serialized witness and frontier already encode its outcome.
        for _ in 0..symbol_count {
            let proc = ProcId(reader.u32("checkpoint symbol proc")? as usize);
            let action = match reader.u8("checkpoint symbol tag")? {
                1 => EventAction::Invoke(arena.invocation(&take_invocation(&mut reader)?)),
                2 => EventAction::Respond(arena.response(&take_response(&mut reader)?)),
                tag => {
                    return Err(CheckpointError::Codec(CodecError::BadTag {
                        what: "checkpoint symbol tag",
                        tag,
                    }))
                }
            };
            self.history.push(proc, action);
        }
        if flags & 2 != 0 {
            // The entries the payload leaves to the held witness.
            let keep = if v1 {
                0
            } else {
                reader.u32("checkpoint witness keep")? as usize
            };
            let held_len = held.as_ref().map_or(0, |witness| witness.order.len());
            if keep > held_len {
                return Err(CheckpointError::Codec(CodecError::LengthOverflow {
                    what: "checkpoint witness keep",
                    claimed: keep as u64,
                    admissible: held_len as u64,
                }));
            }
            // Each witness entry: proc (4) + index (4) + one response byte.
            let entries = reader.count(9, "checkpoint witness")?;
            let mut order = Vec::with_capacity(entries);
            for _ in 0..entries {
                let proc = ProcId(reader.u32("checkpoint witness proc")? as usize);
                let local_index = reader.u32("checkpoint witness index")?;
                let response = take_response(&mut reader)?;
                let op =
                    self.history
                        .op_at(proc, local_index)
                        .ok_or(CheckpointError::UnknownOp {
                            proc: proc.0,
                            local_index,
                        })?;
                order.push((op, arena.response(&response)));
            }
            // Recompute the states after the kept entries by replay: a
            // crossed checkpoint (wrong spec, wrong config) must surface as
            // an error, not a panic.
            let mut witness = held.unwrap_or_else(|| WitnessPath::new(self.spec.initial()));
            let states = self
                .replay(arena.interner(), &witness.states[keep], &order, &mut 0)
                .map_err(|index| CheckpointError::IllegalWitness {
                    position: keep + index,
                })?;
            witness.splice(keep, witness.order.len() - keep, &order, states);
            witness.clean = witness.order.len();
            self.witness = Some(witness);
        }
        // Version 2 writes the frontier only while no witness is alive;
        // version 1 also wrote a live witness's order as one, which is
        // validated and not kept.
        let stored = self.witness.is_none();
        if v1 || stored {
            let frontier_entries = reader.count(8, "checkpoint frontier")?;
            let mut frontier = Vec::with_capacity(if stored { frontier_entries } else { 0 });
            for _ in 0..frontier_entries {
                let proc = ProcId(reader.u32("checkpoint frontier proc")? as usize);
                let local_index = reader.u32("checkpoint frontier index")?;
                let op =
                    self.history
                        .op_at(proc, local_index)
                        .ok_or(CheckpointError::UnknownOp {
                            proc: proc.0,
                            local_index,
                        })?;
                if stored {
                    frontier.push(op);
                }
            }
            self.frontier = frontier;
        }
        let mut blocked = Vec::new();
        if flags & 8 != 0 {
            let processes = self.history.process_count();
            blocked = vec![false; processes];
            let entries = reader.count(4, "checkpoint blocked processes")?;
            let mut previous = None;
            for _ in 0..entries {
                let proc = reader.u32("checkpoint blocked process")? as usize;
                if proc >= processes || previous.is_some_and(|previous| proc <= previous) {
                    return Err(CheckpointError::BadProcess { proc });
                }
                blocked[proc] = true;
                previous = Some(proc);
            }
        }
        if !reader.is_empty() {
            return Err(CheckpointError::TrailingBytes {
                remaining: reader.remaining(),
            });
        }
        self.latched_inconsistent = flags & 1 != 0;
        if flags & 12 == 4 {
            // A standing NO written before the blocked set was: the search
            // that refutes the history derives it.  Like the witness replay
            // above, it is not counted.
            if let SearchOutcome::NotFound { blocked: derived } =
                self.search(arena, &self.frontier, &mut 0)
            {
                blocked = derived;
            }
        }
        self.standing_no = (flags & 4 != 0).then_some(blocked);
        self.rebuild_orphans(arena);
        self.cached = None;
        self.mark = self.history.symbols_consumed();
        let [checks, fast_path, splices, _retired, dfs_runs, dfs_nodes, rebuilds, latched] =
            counters;
        self.stats = CheckerStats {
            checks,
            fast_path,
            splices,
            dfs_runs,
            dfs_nodes,
            rebuilds,
            latched,
            unknown: 0,
        };
        Ok(())
    }
}
