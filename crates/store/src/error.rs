//! The typed failure surface of the store: every malformed journal byte
//! sequence decodes to a [`StoreError`] (or is salvaged by the torn-tail
//! scan), never to a panic — `tests/journal_fuzz.rs` drives seeded
//! corruption through every decoder to hold the line.

use drv_lang::frame::WireError;
use drv_lang::CodecError;
use std::fmt;
use std::io;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file I/O failed.
    Io(io::Error),
    /// A journal frame failed wire-level decoding (bad magic, CRC
    /// mismatch, truncation, oversized length, …).
    Wire(WireError),
    /// A checkpoint record's inner payload is structurally invalid.
    BadCheckpoint {
        /// What was wrong.
        what: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "journal I/O: {err}"),
            StoreError::Wire(err) => write!(f, "journal frame: {err}"),
            StoreError::BadCheckpoint { what } => {
                write!(f, "invalid checkpoint record: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            StoreError::Wire(err) => Some(err),
            StoreError::BadCheckpoint { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        StoreError::Io(err)
    }
}

impl From<WireError> for StoreError {
    fn from(err: WireError) -> Self {
        StoreError::Wire(err)
    }
}

impl From<CodecError> for StoreError {
    fn from(err: CodecError) -> Self {
        StoreError::Wire(WireError::Payload(err))
    }
}
