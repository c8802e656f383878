//! Attributing a worker thread's panic.

use crate::ObjectId;

/// A worker thread of a parallel run panicked.
///
/// Joining a panicked `std::thread` hands back only an opaque payload; this
/// type pins down *which* worker died and what it said, so a crash in a
/// 64-worker engine or an `n`-process threaded run is attributable.  Shared
/// by `drv-core`'s threaded runtime (where `worker` is the monitor process
/// index) and the `drv-engine` checker pool (where it is the pool worker
/// index, and `object` names the object whose monitor panicked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the worker that panicked (process index in a threaded run,
    /// pool worker index in `drv-engine`).
    pub worker: usize,
    /// What kind of worker it was, e.g. `"monitor process"`.
    pub role: &'static str,
    /// The panic payload, downcast to a string when possible.
    pub message: String,
    /// The object whose work the panic unwound out of, when it was one
    /// object's: its monitor's creation, feeding or checkpoint, or the
    /// journal's checkpoint or tombstone of it.  `None` in `drv-core`'s
    /// threaded runtime and for a panic outside any object's work.
    pub object: Option<ObjectId>,
}

impl WorkerPanic {
    /// Builds the error from a `JoinHandle::join` error payload, attributed
    /// to no object.
    #[must_use]
    pub fn from_payload(
        role: &'static str,
        worker: usize,
        payload: Box<dyn std::any::Any + Send>,
    ) -> Self {
        let message = if let Some(text) = payload.downcast_ref::<&'static str>() {
            (*text).to_string()
        } else if let Some(text) = payload.downcast_ref::<String>() {
            text.clone()
        } else {
            "non-string panic payload".to_string()
        };
        WorkerPanic {
            worker,
            role,
            message,
            object: None,
        }
    }
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} panicked", self.role, self.worker)?;
        if let Some(object) = self.object {
            write!(f, " on {object}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for WorkerPanic {}
