//! Shared fixtures of the wait-state tests (`parked_wakeups.rs`,
//! `router_flush.rs`): a monitor the test can wedge inside its callback, and
//! a polling wait on an observable condition.

// Each test binary uses its own subset.
#![allow(dead_code)]

use drv_core::{ObjectMonitor, ObjectMonitorFactory, Verdict};
use drv_lang::{ObjectId, Symbol};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub const DEADLINE: Duration = Duration::from_secs(30);

/// A gate the test holds closed to wedge an engine worker inside a monitor
/// callback — keeping the event in `backlog()` (and `max_pending` occupied)
/// for as long as the test needs.
#[derive(Default)]
pub struct Gate {
    open: Mutex<bool>,
    released: Condvar,
    arrivals: AtomicUsize,
}

impl Gate {
    /// A gate that never holds anybody.
    pub fn opened() -> Arc<Gate> {
        let gate = Gate::default();
        *gate.open.lock().expect("gate") = true;
        Arc::new(gate)
    }

    pub fn release(&self) {
        *self.open.lock().expect("gate") = true;
        self.released.notify_all();
    }

    /// Monitor callbacks that have reached the gate so far (held or not).
    pub fn arrivals(&self) -> usize {
        self.arrivals.load(Ordering::SeqCst)
    }

    fn wait_open(&self) {
        self.arrivals.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate");
        while !*open {
            open = self.released.wait(open).expect("gate");
        }
    }
}

struct GatedMonitor(Arc<Gate>);

impl ObjectMonitor for GatedMonitor {
    fn on_symbol(&mut self, _symbol: &Symbol) -> Verdict {
        self.0.wait_open();
        Verdict::Yes
    }
}

/// Monitors that answer `Yes` to every symbol once their gate lets them:
/// each object waits at its own gate if it was given one, at the shared
/// gate otherwise.
pub struct GatedFactory {
    shared: Arc<Gate>,
    own: Vec<(ObjectId, Arc<Gate>)>,
}

impl GatedFactory {
    pub fn new(shared: Arc<Gate>) -> Self {
        GatedFactory { shared, own: Vec::new() }
    }

    #[must_use]
    pub fn with_gate(mut self, object: ObjectId, gate: Arc<Gate>) -> Self {
        self.own.push((object, gate));
        self
    }
}

impl ObjectMonitorFactory for GatedFactory {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("gated")
    }
    fn create(&self, object: ObjectId) -> Box<dyn ObjectMonitor> {
        let gate = self
            .own
            .iter()
            .find(|(own, _)| *own == object)
            .map_or(&self.shared, |(_, gate)| gate);
        Box::new(GatedMonitor(Arc::clone(gate)))
    }
}

/// Polls `done` until it holds or `timeout` elapses; returns whether it held.
pub fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    done()
}
