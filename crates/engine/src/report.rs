//! What a finished engine run hands back: per-object verdict streams, the
//! aggregated engine-level verdict, and the pool's operational counters.

use drv_core::Verdict;
use drv_lang::ObjectId;
use std::collections::BTreeMap;
use std::fmt;

/// The verdict stream of one monitored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectReport {
    /// One verdict per ingested symbol, in stream order: the verdict with
    /// subscription `seq` s is at index s.  Across evictions the monitors'
    /// streams concatenate, each fresh monitor starting from scratch.
    pub verdicts: Vec<Verdict>,
    /// Name of the object's first monitor.
    pub monitor: String,
}

impl ObjectReport {
    /// The verdict after the last ingested symbol ([`Verdict::Maybe`]`(0)`
    /// for an object that never received an event).
    #[must_use]
    pub fn final_verdict(&self) -> Verdict {
        self.verdicts.last().copied().unwrap_or(Verdict::Maybe(0))
    }
}

/// The engine-level verdict: the final per-object verdicts, aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateVerdict {
    /// Objects whose final verdict is YES.
    pub yes: usize,
    /// Objects whose final verdict is NO.
    pub no: usize,
    /// Objects whose final verdict is inconclusive.
    pub maybe: usize,
    /// NO as soon as any object is NO, otherwise MAYBE as soon as any object
    /// is inconclusive, otherwise YES (an empty engine is vacuously YES).
    pub overall: Verdict,
}

impl fmt::Display for AggregateVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} yes / {} no / {} maybe)",
            self.overall, self.yes, self.no, self.maybe
        )
    }
}

/// Operational counters of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Shards the object space was split into.
    pub shards: usize,
    /// Events processed.
    pub events: u64,
    /// Shard claims (each drains a batch of queued events).
    pub batches: u64,
    /// Shard claims that were stolen from another worker's deque.
    pub steals: u64,
    /// Monitors retired before end-of-stream by `evict` markers (a marker
    /// for an unknown or already retired object does not count).  Their
    /// objects' verdict streams stay whole in the report.
    pub evicted: u64,
    /// Times a worker came back out of the park wait.  Stays flat while
    /// the pool is idle: parking is untimed (epoch-ticketed), not polled.
    pub park_wakeups: u64,
}

/// Everything a finished [`crate::MonitoringEngine`] run produced.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-object verdict streams, keyed (and therefore ordered) by object.
    pub objects: BTreeMap<ObjectId, ObjectReport>,
    /// The pool's operational counters.
    pub stats: EngineStats,
}

impl EngineReport {
    /// The verdict stream of `object`, if it ever received an event.
    #[must_use]
    pub fn verdicts(&self, object: ObjectId) -> Option<&[Verdict]> {
        self.objects.get(&object).map(|report| &report.verdicts[..])
    }

    /// Aggregates the final per-object verdicts into the engine-level
    /// verdict.
    #[must_use]
    pub fn aggregate(&self) -> AggregateVerdict {
        let mut yes = 0;
        let mut no = 0;
        let mut maybe = 0;
        for report in self.objects.values() {
            match report.final_verdict() {
                Verdict::Yes => yes += 1,
                Verdict::No => no += 1,
                Verdict::Maybe(_) => maybe += 1,
            }
        }
        let overall = if no > 0 {
            Verdict::No
        } else if maybe > 0 {
            Verdict::Maybe(0)
        } else {
            Verdict::Yes
        };
        AggregateVerdict {
            yes,
            no,
            maybe,
            overall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(verdicts: Vec<Verdict>) -> ObjectReport {
        ObjectReport {
            verdicts,
            monitor: "test".to_string(),
        }
    }

    #[test]
    fn aggregate_prefers_no_over_maybe_over_yes() {
        let mut objects = BTreeMap::new();
        objects.insert(ObjectId(0), report(vec![Verdict::Yes]));
        objects.insert(ObjectId(1), report(vec![Verdict::Yes, Verdict::Maybe(0)]));
        let mut engine_report = EngineReport {
            objects,
            stats: EngineStats::default(),
        };
        assert_eq!(engine_report.aggregate().overall, Verdict::Maybe(0));
        engine_report
            .objects
            .insert(ObjectId(2), report(vec![Verdict::No]));
        let aggregate = engine_report.aggregate();
        assert_eq!(aggregate.overall, Verdict::No);
        assert_eq!((aggregate.yes, aggregate.no, aggregate.maybe), (1, 1, 1));
        assert!(aggregate.to_string().contains("NO"));
    }

    #[test]
    fn empty_engine_is_vacuously_yes() {
        let engine_report = EngineReport {
            objects: BTreeMap::new(),
            stats: EngineStats::default(),
        };
        assert_eq!(engine_report.aggregate().overall, Verdict::Yes);
        assert!(engine_report.verdicts(ObjectId(0)).is_none());
    }

    #[test]
    fn eventless_object_is_inconclusive() {
        assert_eq!(report(Vec::new()).final_verdict(), Verdict::Maybe(0));
    }
}
