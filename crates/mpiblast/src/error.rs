//! The one failure vocabulary both programs report in.
//!
//! mpiBLAST and pioBLAST differ in how data moves, not in how a run
//! fails, so both rank bodies return [`PioError`]: a lost or failed
//! worker, a dead master, an abort, a malformed message, a setup or
//! database read that failed ([`InputError`]), or a report write that
//! could not land.

use std::fmt;

use parafs::StoreError;

/// Why a rank of a pioBLAST or mpiBLAST run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PioError {
    /// A worker left the run — killed, or returned its own error without
    /// saying so — and nobody asked to recover. Reported by the master
    /// when it sweeps liveness (pioBLAST's point-to-point lowering
    /// without `Recover`, mpiBLAST with `fault_detection`).
    WorkerDied {
        /// The dead rank.
        rank: usize,
    },
    /// A worker could not load a fragment it was assigned and said so
    /// before giving up (mpiBLAST).
    WorkerFailed {
        /// The failed worker's rank.
        rank: usize,
        /// The worker's own error, as text.
        what: String,
    },
    /// Every worker died; recovery has nobody left to reassign to.
    AllWorkersDied,
    /// The master died (reported by surviving workers).
    MasterDied,
    /// The master told this worker to abandon the run.
    Aborted,
    /// A malformed or out-of-place message.
    Protocol(String),
    /// The input stage failed to read or materialize a fragment, or a
    /// setup file (alias, query FASTA, index) failed to read or decode.
    Input(InputError),
    /// The output stage could not land its bytes (e.g. a full file
    /// system): the run degrades to a typed error instead of aborting.
    Output(StoreError),
    /// The configuration combines knobs the runtime does not support
    /// (rejected up front by `PioBlastConfig::validate`, on every rank).
    UnsupportedConfig(String),
}

impl From<InputError> for PioError {
    fn from(e: InputError) -> PioError {
        PioError::Input(e)
    }
}

/// Bytes off the wire that do not decode are a protocol error.
impl From<seqfmt::codec::CodecError> for PioError {
    fn from(e: seqfmt::codec::CodecError) -> PioError {
        PioError::Protocol(e.to_string())
    }
}

impl fmt::Display for PioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PioError::WorkerDied { rank } => write!(f, "worker rank {rank} died"),
            PioError::WorkerFailed { rank, what } => {
                write!(f, "worker rank {rank} failed: {what}")
            }
            PioError::AllWorkersDied => write!(f, "every worker died"),
            PioError::MasterDied => write!(f, "master died"),
            PioError::Aborted => write!(f, "run aborted by the master"),
            PioError::Protocol(what) => write!(f, "protocol error: {what}"),
            PioError::Input(e) => write!(f, "input stage failed: {e}"),
            PioError::Output(e) => write!(f, "output stage failed: {e}"),
            PioError::UnsupportedConfig(what) => {
                write!(f, "unsupported configuration: {what}")
            }
        }
    }
}

impl std::error::Error for PioError {}

/// Why the input stage failed: a setup read, a fragment read (or, in
/// mpiBLAST, its copy to private storage), or bytes that do not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputError {
    /// The requested file range is not covered by the runs read.
    Uncovered {
        /// Requested absolute file offset.
        offset: u64,
        /// Requested length in bytes.
        len: u64,
    },
    /// A database or setup file could not be read, or an mpiBLAST
    /// fragment copied.
    Store(StoreError),
    /// The read bytes do not form a consistent fragment.
    Fragment(String),
    /// A setup file (alias, query FASTA, volume or fragment index)
    /// failed to decode.
    Malformed(String),
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::Uncovered { offset, len } => {
                write!(
                    f,
                    "range [{offset}, {offset}+{len}) not covered by read spans"
                )
            }
            InputError::Store(e) => write!(f, "database file access failed: {e}"),
            InputError::Fragment(msg) => write!(f, "inconsistent fragment: {msg}"),
            InputError::Malformed(msg) => write!(f, "malformed input: {msg}"),
        }
    }
}

impl std::error::Error for InputError {}

impl From<StoreError> for InputError {
    fn from(e: StoreError) -> InputError {
        InputError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_errors_convert_into_input_errors() {
        let e: InputError = StoreError::NotFound {
            path: "db/x.idx".into(),
        }
        .into();
        assert!(e.to_string().contains("database file access failed"));
        let e = InputError::Uncovered { offset: 8, len: 14 };
        assert!(e.to_string().contains("not covered"));
    }
}
