//! The five workloads, the one fixed deployment they all run against, and
//! the inputs (streams + reference verdicts) built from `--seed`.

use crate::gen::{self, Shape};
use drv_core::{CheckerMonitorFactory, ObjectMonitorFactory, RoutingMonitorFactory, Verdict};
use drv_engine::{sequential_reference, EngineConfig, EngineReport, VerdictEvent};
use drv_lang::{ObjectId, Symbol};
use drv_net::{MonitorServer, ServerConfig};
use drv_spec::Register;
use drv_store::{serve_durable_with, FsyncPolicy, Store, StoreConfig};
use drv_telemetry::Telemetry;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

// The fixed deployment: constants, not flags — a number from this
// benchmark always means this configuration (README: "Why these settings").
pub const CONNECTIONS: usize = 2;
const PROCESSES: usize = 2;
const MAX_STATES: usize = 200_000;
pub const WORKERS: usize = 1;
pub const WINDOW: u64 = 4096;
pub const BATCH: usize = 256;
const OVERLAP: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Each connection sends its next batch as soon as credit allows.
    Closed,
    /// 1-event frames on a fixed schedule at `run::PACED_RATES[0]`, then the rest of
    /// the stream closed-loop.
    Paced,
    /// `recover()` over the journal of a crash that took the first
    /// `recovery::JOURNALED` of every stream, then the rest of the stream
    /// through the recovered engine, in-process.
    Recover,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Loop,
    pub shape: Shape,
    /// The ~1/50-size shape `--smoke` (and the unit tests) run.
    pub smoke: Shape,
    pub why: &'static str,
}

const fn shape(objects: usize, ops: usize, stale_every: usize) -> Shape {
    Shape {
        connections: CONNECTIONS,
        objects,
        ops,
        overlap: OVERLAP,
        stale_every,
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "wide-batch256",
        kind: Loop::Closed,
        shape: shape(1024, 150, 0),
        smoke: shape(20, 150, 0),
        why: "Short histories on many objects: framing, scatter, routing and the journal do the work, the checker little.",
    },
    Workload {
        name: "deep-history",
        kind: Loop::Closed,
        shape: shape(2, 12_000, 0),
        smoke: shape(2, 1_200, 0),
        why: "Few objects with 12 000-operation histories: the checker's per-event cost and per-object state dominate.",
    },
    Workload {
        name: "violations-batch256",
        kind: Loop::Closed,
        shape: shape(256, 150, 100),
        smoke: shape(8, 150, 100),
        why: "1 % stale reads: DFS fallback and latched NO instead of the splice fast path; both verdict polarities cross the wire.",
    },
    Workload {
        name: "paced-batch1",
        kind: Loop::Paced,
        shape: shape(512, 150, 0),
        smoke: shape(20, 150, 0),
        why: "Open loop of 1-event frames at a fixed rate: per-frame cost and waits set the verdict latency, the checker idles.",
    },
    Workload {
        name: "recover",
        kind: Loop::Recover,
        shape: shape(16, 3_000, 0),
        smoke: shape(2, 1_000, 0),
        why: "Crash recovery: journal scan, checkpoint restore and suffix replay, the read direction of what the others append; then the rest of the stream through the recovered engine.",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Even object ids are checked for linearizability, odd ones for
/// sequential consistency, over the register specification.
pub fn factory() -> Arc<dyn ObjectMonitorFactory> {
    let lin = Arc::new(
        CheckerMonitorFactory::linearizability(Register::new(), PROCESSES)
            .with_max_states(MAX_STATES),
    ) as Arc<dyn ObjectMonitorFactory>;
    let sc = Arc::new(
        CheckerMonitorFactory::sequential_consistency(Register::new(), PROCESSES)
            .with_max_states(MAX_STATES),
    ) as Arc<dyn ObjectMonitorFactory>;
    Arc::new(RoutingMonitorFactory::new(
        "mixed LIN/SC",
        move |object: ObjectId| {
            if object.0.is_multiple_of(2) {
                Arc::clone(&lin)
            } else {
                Arc::clone(&sc)
            }
        },
    ))
}

pub fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig::new(workers).with_max_pending(WINDOW as usize * CONNECTIONS)
}

pub fn store_config() -> StoreConfig {
    StoreConfig::new().with_fsync(FsyncPolicy::Never)
}

/// A fresh durable server on an ephemeral loopback port, journaling to
/// `journal` (which must not exist yet).
pub fn serve(journal: &Path, telemetry: Arc<Telemetry>) -> (MonitorServer, Arc<Store>) {
    let (server, store, _) = serve_durable_with(
        ("127.0.0.1", 0),
        journal,
        store_config(),
        engine_config(WORKERS),
        factory(),
        ServerConfig::new().with_window(WINDOW),
        telemetry,
    )
    .expect("journal opens and loopback binds");
    (server, store)
}

/// What one run is measured on: the per-connection streams and, per
/// connection and object, the verdicts `sequential_reference` gives.
pub struct Input {
    pub shape: Shape,
    pub streams: Vec<Vec<(ObjectId, Symbol)>>,
    /// `reference[conn][object index][seq]`.
    pub reference: Vec<Vec<Vec<Verdict>>>,
    pub reference_s: f64,
}

impl Input {
    pub fn build(seed: u64, shape: Shape) -> Input {
        let streams: Vec<Vec<(ObjectId, Symbol)>> = (0..shape.connections)
            .map(|conn| gen::connection_stream(seed, conn, &shape))
            .collect();

        let start = Instant::now();
        let factory = factory();
        let reference: Vec<Vec<Vec<Verdict>>> = streams
            .iter()
            .map(|stream| {
                sequential_reference(factory.as_ref(), stream)
                    .into_values()
                    .collect()
            })
            .collect();
        let reference_s = start.elapsed().as_secs_f64();
        Input {
            shape,
            streams,
            reference,
            reference_s,
        }
    }

    pub fn events(&self) -> usize {
        self.shape.events()
    }

    pub fn digest(&self) -> u64 {
        gen::verdict_digest(
            self.reference
                .iter()
                .enumerate()
                .flat_map(|(conn, objects)| {
                    objects.iter().enumerate().map(move |(index, verdicts)| {
                        (gen::object_id(conn, index), verdicts.as_slice())
                    })
                }),
        )
    }

    /// `positions` of every connection's stream cut into frames of `batch`
    /// events, connections interleaved frame by frame: `(connection, frame)`.
    pub fn frames(
        &self,
        positions: Range<usize>,
        batch: usize,
    ) -> impl Iterator<Item = (usize, &[(ObjectId, Symbol)])> {
        positions.clone().step_by(batch).flat_map(move |start| {
            let range = start..(start + batch).min(positions.end);
            self.streams
                .iter()
                .enumerate()
                .map(move |(conn, stream)| (conn, &stream[range.clone()]))
        })
    }

    /// The whole of every connection's stream, as positions.
    pub fn all(&self) -> Range<usize> {
        0..self.shape.events_per_connection()
    }

    /// The verdict sequence number each object of a connection is owed next
    /// once the stream positions before `position` have been answered.
    pub fn next_seq_at(&self, position: usize) -> Vec<u64> {
        let objects = self.shape.objects;
        (0..objects)
            .map(|object| (position / objects + usize::from(object < position % objects)) as u64)
            .collect()
    }

    /// Checks one received verdict of connection `conn`: it must be the
    /// next one owed for its object (`next_seq`, per object index) and
    /// equal the reference.  Returns the event's stream position and
    /// advances `next_seq`; `None` for a duplicated, reordered, foreign or
    /// different verdict.
    pub fn accept(&self, conn: usize, next_seq: &mut [u64], event: &VerdictEvent) -> Option<usize> {
        // Invert `gen::object_id`; a foreign object wraps to a huge index.
        let object =
            usize::try_from(event.object.0.wrapping_sub(gen::object_id(conn, 0).0)).ok()?;
        let expected = self.reference[conn]
            .get(object)?
            .get(usize::try_from(event.seq).ok()?)?;
        if event.seq != next_seq[object] || *expected != event.verdict {
            return None;
        }
        next_seq[object] += 1;
        Some(event.seq as usize * self.shape.objects + object)
    }

    /// Events of the objects whose stream in `report` differs from the
    /// reference.
    pub fn report_mismatches(&self, report: &EngineReport) -> usize {
        let objects = self
            .reference
            .iter()
            .enumerate()
            .flat_map(|(conn, objects)| {
                objects
                    .iter()
                    .enumerate()
                    .map(move |(index, expected)| (gen::object_id(conn, index), expected))
            });
        objects
            .filter(|(object, expected)| report.verdicts(*object) != Some(expected.as_slice()))
            .map(|(_, expected)| expected.len())
            .sum()
    }

    /// `(yes, no)` verdict counts of the reference.
    pub fn polarity(&self) -> (usize, usize) {
        let all = || self.reference.iter().flatten().flatten();
        (
            all().filter(|v| matches!(v, Verdict::Yes)).count(),
            all().filter(|v| matches!(v, Verdict::No)).count(),
        )
    }
}

/// Seed-1 digests of the reference verdict streams, recorded in
/// `digests.txt` as `<workload> <full|smoke> <hex digest>`.
pub fn recorded_digest(workload: &str, smoke: bool) -> Option<u64> {
    let size = if smoke { "smoke" } else { "full" };
    include_str!("digests.txt").lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next()? == workload && fields.next()? == size)
            .then(|| u64::from_str_radix(fields.next()?, 16).ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_inputs_match_their_recorded_digests() {
        // Seed 1 at smoke size: a change to the generator or to the oracle
        // (`sequential_reference`, the checkers) fails here under tier-1.
        for workload in WORKLOADS {
            let input = Input::build(1, workload.smoke);
            assert_eq!(
                Some(input.digest()),
                recorded_digest(workload.name, true),
                "{}: digest {:016x}",
                workload.name,
                input.digest()
            );
            assert_eq!(input.events(), workload.smoke.events());
        }
    }

    #[test]
    fn violations_have_both_polarities_and_the_others_only_yes() {
        for workload in WORKLOADS {
            let (yes, no) = Input::build(1, workload.smoke).polarity();
            assert!(yes > 0, "{}", workload.name);
            assert_eq!(no > 0, workload.shape.stale_every > 0, "{}", workload.name);
        }
    }

    #[test]
    fn workload_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
