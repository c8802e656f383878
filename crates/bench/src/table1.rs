//! The Table 1 reproduction harness.
//!
//! Table 1 of the paper classifies seven distributed languages against the
//! four decidability notions SD, WD, PSD and PWD.  The harness regenerates
//! the table experimentally:
//!
//! * **✓ cells** (possibility results) run the corresponding monitor from the
//!   paper against correct *and* fault-injected behaviours, over several
//!   seeded schedules, and check that every run satisfies the decidability
//!   notion (via [`drv_core::decidability`]).
//! * **✗ cells** (impossibility results) execute the corresponding proof
//!   construction — the Lemma 5.1 indistinguishable pair, the Lemma 5.2/6.2
//!   prefix extensions, the Lemma 6.5 alternation, or the Theorem 5.2
//!   real-time-obliviousness counterexample — and check that it indeed
//!   refutes the notion for the monitors at hand.
//!
//! The produced [`Table1Report`] renders as a text table in the same layout
//! as the paper's and records, per cell, how the verdict was obtained.

use crate::witnesses::{appendix_a_ledger_witness, counter_witness, register_witness};
use drv_adversary::{
    AtomicObject, Behavior, ForkingLedger, LossyCounter, NonMonotoneCounter, OverCounter,
    ReplicatedCounter, ReplicatedLedger, ScriptedBehavior, StaleReadRegister,
};
use drv_consistency::languages::{
    ec_led, lin_led, lin_reg, sc_led, sc_reg, sec_count, wec_count,
};
use drv_core::decidability::{Decider, Notion};
use drv_core::impossibility::{lemma_5_1, lemma_5_2, lemma_6_2, lemma_6_5};
use drv_core::monitor::{ConstantFamily, MonitorFamily};
use drv_core::monitors::{
    EcLedgerGuessFamily, PredictiveFamily, SecCountFamily, WecCountFamily,
};
use drv_core::runtime::{run, RunConfig, Schedule};
use drv_core::transform::WadAllFamily;
use drv_lang::{oblivious_counterexample, Invocation, Language, ObjectKind, ProcId, Response,
    SymbolSampler, Word, WordBuilder};
use drv_spec::{Ledger, Register};
use std::fmt;
use std::sync::Arc;

/// Parameters of a Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Number of monitor processes for the counter cells.
    pub counter_processes: usize,
    /// Iterations per process for the counter cells.
    pub counter_iterations: usize,
    /// Number of monitor processes for the register/ledger cells.
    pub object_processes: usize,
    /// Iterations per process for the register/ledger cells (these cells run
    /// the Figure 8 consistency check every iteration, so they are the
    /// expensive ones).
    pub object_iterations: usize,
    /// Schedule seeds; each possibility cell is run once per seed and
    /// behaviour.
    pub seeds: Vec<u64>,
    /// Tail fraction used to interpret "finitely many NO" on finite runs.
    pub tail_fraction: f64,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            counter_processes: 3,
            counter_iterations: 60,
            object_processes: 3,
            object_iterations: 24,
            seeds: vec![1, 2, 3],
            tail_fraction: 0.75,
        }
    }
}

impl Table1Config {
    /// A reduced configuration for quick runs (benches, smoke tests).
    #[must_use]
    pub fn quick() -> Self {
        Table1Config {
            counter_processes: 2,
            counter_iterations: 40,
            object_processes: 2,
            object_iterations: 14,
            seeds: vec![1, 2],
            tail_fraction: 0.75,
        }
    }
}

/// One cell of the reproduced table.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Language (row) name.
    pub language: String,
    /// Decidability notion (column).
    pub notion: Notion,
    /// The paper's claim: `true` = decidable (✓), `false` = undecidable (✗).
    pub expected_decidable: bool,
    /// What the harness observed.
    pub observed_decidable: bool,
    /// Number of runs / constructions the verdict is based on.
    pub runs: usize,
    /// How the verdict was obtained.
    pub detail: String,
}

impl CellResult {
    /// Whether the observation matches the paper.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.expected_decidable == self.observed_decidable
    }
}

/// The reproduced table.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// All 7 × 4 cells, in row-major order.
    pub cells: Vec<CellResult>,
}

impl Table1Report {
    /// Whether every cell matches the paper's Table 1.
    #[must_use]
    pub fn matches_paper(&self) -> bool {
        self.cells.iter().all(CellResult::matches)
    }

    /// The cells that disagree with the paper.
    #[must_use]
    pub fn mismatches(&self) -> Vec<&CellResult> {
        self.cells.iter().filter(|c| !c.matches()).collect()
    }

    /// The cell for a `(language, notion)` pair.
    #[must_use]
    pub fn cell(&self, language: &str, notion: Notion) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.language == language && c.notion == notion)
    }

    /// Renders the table in the layout of the paper's Table 1.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>6} {:>6} {:>6} {:>6}\n",
            "Language / Property", "SD", "WD", "PSD", "PWD"
        ));
        let rows: Vec<&str> = {
            let mut seen = Vec::new();
            for cell in &self.cells {
                if !seen.contains(&cell.language.as_str()) {
                    seen.push(cell.language.as_str());
                }
            }
            seen
        };
        for row in rows {
            out.push_str(&format!("{row:<28}"));
            for notion in Notion::TABLE1 {
                let mark = match self.cell(row, notion) {
                    Some(cell) => {
                        let symbol = if cell.observed_decidable { "✓" } else { "✗" };
                        if cell.matches() {
                            symbol.to_string()
                        } else {
                            format!("{symbol}!")
                        }
                    }
                    None => "·".to_string(),
                };
                out.push_str(&format!(" {mark:>6}"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A behaviour factory (behaviours are stateful, so each run needs a fresh
/// one).
type BehaviorFactory = Box<dyn Fn() -> Box<dyn Behavior>>;

/// Runs one possibility cell: every `(seed, behaviour)` run must satisfy the
/// notion.
fn possibility_cell(
    language_name: &str,
    language: Arc<dyn Language>,
    notion: Notion,
    family: &dyn MonitorFamily,
    behaviors: Vec<BehaviorFactory>,
    configs: &[RunConfig],
    tail_fraction: f64,
) -> CellResult {
    let decider = Decider::new(Arc::clone(&language)).with_tail_fraction(tail_fraction);
    let mut runs = 0usize;
    let mut failures = Vec::new();
    for config in configs {
        for make_behavior in &behaviors {
            let trace = run(config, family, make_behavior());
            runs += 1;
            match decider.evaluate(&trace, notion) {
                Ok(evaluation) if evaluation.holds => {}
                Ok(evaluation) => failures.push(format!(
                    "{} on {}: {}",
                    family.name(),
                    trace.behavior_name(),
                    evaluation
                )),
                Err(err) => failures.push(format!("sketch error: {err}")),
            }
        }
    }
    let observed = failures.is_empty();
    CellResult {
        language: language_name.to_string(),
        notion,
        expected_decidable: true,
        observed_decidable: observed,
        runs,
        detail: if observed {
            format!("{} satisfied {notion} on all {runs} runs", family.name())
        } else {
            failures.join("; ")
        },
    }
}

/// Builds an impossibility cell from a refutation flag.
fn impossibility_cell(
    language_name: &str,
    notion: Notion,
    refuted: bool,
    runs: usize,
    detail: String,
) -> CellResult {
    CellResult {
        language: language_name.to_string(),
        notion,
        expected_decidable: false,
        observed_decidable: !refuted,
        runs,
        detail,
    }
}

fn counter_configs(config: &Table1Config, timed: bool) -> Vec<RunConfig> {
    config
        .seeds
        .iter()
        .map(|&seed| {
            let run_config = RunConfig::new(config.counter_processes, config.counter_iterations)
                .with_schedule(Schedule::Random { seed })
                .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
                .with_sampler_seed(seed.wrapping_mul(31))
                .stop_mutators_after(config.counter_iterations / 2);
            if timed {
                run_config.timed()
            } else {
                run_config
            }
        })
        .collect()
}

fn object_configs(config: &Table1Config, kind: ObjectKind, n: usize) -> Vec<RunConfig> {
    config
        .seeds
        .iter()
        .map(|&seed| {
            RunConfig::new(n, config.object_iterations)
                .timed()
                .with_schedule(Schedule::Random { seed })
                .with_sampler(SymbolSampler::new(kind).with_mutator_ratio(0.5))
                .with_sampler_seed(seed.wrapping_mul(7))
        })
        .collect()
}

/// A deliberately non-sequentially-consistent register word (reads observe
/// two writes of the same process in reverse order), used to exercise the
/// negative direction of the SC cells.
fn non_sc_register_word(rounds: usize) -> Word {
    let mut builder = WordBuilder::new();
    for r in 0..rounds as u64 {
        builder = builder
            .op(ProcId(0), Invocation::Write(10 * r + 1), Response::Ack)
            .op(ProcId(0), Invocation::Write(10 * r + 2), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(10 * r + 2))
            .op(ProcId(1), Invocation::Read, Response::Value(10 * r + 1));
    }
    builder.build()
}

/// Runs the scripted non-SC word through a family and evaluates a predictive
/// notion on it (used as an extra run for the SC possibility cells).
fn scripted_timed_run(family: &dyn MonitorFamily, word: &Word, n: usize) -> drv_core::ExecutionTrace {
    let config = RunConfig::new(n, word.len())
        .timed()
        .with_schedule(Schedule::WordScript(word.clone()));
    run(
        &config,
        family,
        Box::new(ScriptedBehavior::from_word(word, n)),
    )
}

/// Reproduces Table 1.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn reproduce_table1(config: &Table1Config) -> Table1Report {
    let mut cells = Vec::new();
    let tail = config.tail_fraction;
    let n_obj = config.object_processes;

    // ───────────────────────── LIN_REG / SC_REG ─────────────────────────
    let pair_families: Vec<Box<dyn MonitorFamily>> = vec![
        Box::new(ConstantFamily::always_yes()),
        Box::new(WecCountFamily::new()),
    ];
    for (row, language) in [
        ("LIN_REG", Arc::new(lin_reg(2)) as Arc<dyn Language>),
        ("SC_REG", Arc::new(sc_reg(2)) as Arc<dyn Language>),
    ] {
        // SD / WD ✗: Lemma 5.1 + the register obliviousness witness.
        let refuted_all = pair_families
            .iter()
            .all(|family| lemma_5_1(family.as_ref(), 6).refutes_decidability(language.as_ref()));
        let (witness, split) = register_witness(2);
        let oblivious_refuted =
            oblivious_counterexample(language.as_ref(), 2, &witness, split).is_some();
        for notion in [Notion::Strong, Notion::Weak] {
            cells.push(impossibility_cell(
                row,
                notion,
                refuted_all && oblivious_refuted,
                pair_families.len() + 1,
                format!(
                    "Lemma 5.1 pair fools {} monitor families; Theorem 5.2 witness found (not real-time oblivious)",
                    pair_families.len()
                ),
            ));
        }
    }

    // LIN_REG PSD / PWD ✓: the Figure 8 monitor.
    let lin_reg_family = PredictiveFamily::linearizable(Register::new());
    let register_behaviors = || -> Vec<BehaviorFactory> {
        vec![
            Box::new(|| Box::new(AtomicObject::new(Register::new())) as Box<dyn Behavior>),
            Box::new(|| Box::new(StaleReadRegister::new(3, 2)) as Box<dyn Behavior>),
        ]
    };
    let reg_configs = object_configs(config, ObjectKind::Register, n_obj);
    for notion in [Notion::PredictiveStrong, Notion::PredictiveWeak] {
        cells.push(possibility_cell(
            "LIN_REG",
            Arc::new(lin_reg(n_obj)),
            notion,
            &lin_reg_family,
            register_behaviors(),
            &reg_configs,
            tail,
        ));
    }

    // SC_REG PSD / PWD ✓: the SC variant of Figure 8, plus a scripted
    // non-SC run to exercise the negative direction.
    let sc_reg_family = PredictiveFamily::sequentially_consistent(Register::new());
    for notion in [Notion::PredictiveStrong, Notion::PredictiveWeak] {
        let mut cell = possibility_cell(
            "SC_REG",
            Arc::new(sc_reg(n_obj)),
            notion,
            &sc_reg_family,
            register_behaviors(),
            &reg_configs,
            tail,
        );
        let word = non_sc_register_word(3);
        let trace = scripted_timed_run(&sc_reg_family, &word, 2);
        let decider = Decider::new(Arc::new(sc_reg(2)) as Arc<dyn Language>).with_tail_fraction(tail);
        cell.runs += 1;
        if let Ok(evaluation) = decider.evaluate(&trace, notion) {
            if !evaluation.holds {
                cell.observed_decidable = false;
                cell.detail = format!("scripted non-SC run: {evaluation}");
            }
        }
        cells.push(cell);
    }

    // ───────────────────────── LIN_LED / SC_LED / EC_LED ─────────────────
    let (ledger_witness, ledger_split) = appendix_a_ledger_witness(2);
    for (row, language) in [
        ("LIN_LED", Arc::new(lin_led(2)) as Arc<dyn Language>),
        ("SC_LED", Arc::new(sc_led(2)) as Arc<dyn Language>),
        ("EC_LED", Arc::new(ec_led()) as Arc<dyn Language>),
    ] {
        let report = oblivious_counterexample(language.as_ref(), 2, &ledger_witness, ledger_split);
        for notion in [Notion::Strong, Notion::Weak] {
            cells.push(impossibility_cell(
                row,
                notion,
                report.is_some(),
                1,
                "Theorem 5.2: the Appendix A history yields a real-time obliviousness counterexample"
                    .to_string(),
            ));
        }
    }

    // LIN_LED / SC_LED PSD & PWD ✓.
    let ledger_behaviors = || -> Vec<BehaviorFactory> {
        vec![
            Box::new(|| Box::new(AtomicObject::new(Ledger::new())) as Box<dyn Behavior>),
            Box::new(|| Box::new(ReplicatedLedger::new(3)) as Box<dyn Behavior>),
            Box::new(|| Box::new(ForkingLedger::new()) as Box<dyn Behavior>),
        ]
    };
    let led_configs = object_configs(config, ObjectKind::Ledger, 2);
    let lin_led_family = PredictiveFamily::linearizable(Ledger::new());
    let sc_led_family = PredictiveFamily::sequentially_consistent(Ledger::new());
    for notion in [Notion::PredictiveStrong, Notion::PredictiveWeak] {
        cells.push(possibility_cell(
            "LIN_LED",
            Arc::new(lin_led(2)),
            notion,
            &lin_led_family,
            ledger_behaviors(),
            &led_configs,
            tail,
        ));
        cells.push(possibility_cell(
            "SC_LED",
            Arc::new(sc_led(2)),
            notion,
            &sc_led_family,
            ledger_behaviors(),
            &led_configs,
            tail,
        ));
    }

    // EC_LED PSD / PWD ✗: the Lemma 6.5 alternation.
    let ec_outcome = lemma_6_5(&EcLedgerGuessFamily::new(), &ec_led(), 3, 3);
    for notion in [Notion::PredictiveStrong, Notion::PredictiveWeak] {
        cells.push(impossibility_cell(
            "EC_LED",
            notion,
            ec_outcome.demonstrates_unbounded_no_bursts(),
            ec_outcome.alternations,
            format!(
                "Lemma 6.5 alternation: {} NO bursts in {} alternations on a member input (tight)",
                ec_outcome.no_bursts, ec_outcome.alternations
            ),
        ));
    }

    // ───────────────────────── WEC_COUNT ─────────────────────────
    // SD ✗: Lemma 5.2.
    let wec_sd = lemma_5_2(&WecCountFamily::new(), &wec_count(), 6, 6);
    cells.push(impossibility_cell(
        "WEC_COUNT",
        Notion::Strong,
        wec_sd.refutes_strong_decidability(),
        2,
        "Lemma 5.2 prefix extension replays the NO on a member input".to_string(),
    ));
    // WD ✓: Figure 3 ∘ Figure 5.
    let wec_family = WadAllFamily::new(WecCountFamily::new());
    let counter_behaviors = || -> Vec<BehaviorFactory> {
        vec![
            Box::new(|| Box::new(AtomicObject::new(drv_spec::Counter::new())) as Box<dyn Behavior>),
            Box::new(|| Box::new(ReplicatedCounter::new(3)) as Box<dyn Behavior>),
            Box::new(|| Box::new(LossyCounter::new(2)) as Box<dyn Behavior>),
            Box::new(|| Box::new(NonMonotoneCounter::new(3)) as Box<dyn Behavior>),
        ]
    };
    cells.push(possibility_cell(
        "WEC_COUNT",
        Arc::new(wec_count()),
        Notion::Weak,
        &wec_family,
        counter_behaviors(),
        &counter_configs(config, false),
        tail,
    ));
    // PSD ✗: Lemma 6.2.
    let wec_psd = lemma_6_2(&WecCountFamily::new(), &wec_count(), 6, 6);
    cells.push(impossibility_cell(
        "WEC_COUNT",
        Notion::PredictiveStrong,
        wec_psd.refutes_predictive_strong_decidability(),
        2,
        "Lemma 6.2 tight prefix extension: the replayed NO is not sketch-justified".to_string(),
    ));
    // PWD ✓: Figure 3 ∘ Figure 5 against Aτ.
    cells.push(possibility_cell(
        "WEC_COUNT",
        Arc::new(wec_count()),
        Notion::PredictiveWeak,
        &wec_family,
        counter_behaviors(),
        &counter_configs(config, true),
        tail,
    ));

    // ───────────────────────── SEC_COUNT ─────────────────────────
    // SD ✗: Lemma 5.2 (the same construction, read against SEC_COUNT).
    let sec_sd = lemma_5_2(&WecCountFamily::new(), &sec_count(), 6, 6);
    cells.push(impossibility_cell(
        "SEC_COUNT",
        Notion::Strong,
        sec_sd.refutes_strong_decidability(),
        2,
        "Lemma 5.2 prefix extension replays the NO on a member input".to_string(),
    ));
    // WD ✗: Theorem 5.2 (SEC_COUNT is not real-time oblivious).
    let (sec_witness, sec_split) = counter_witness(2);
    let sec_oblivious = oblivious_counterexample(&sec_count(), 2, &sec_witness, sec_split);
    cells.push(impossibility_cell(
        "SEC_COUNT",
        Notion::Weak,
        sec_oblivious.is_some(),
        1,
        "Theorem 5.2: clause (4) makes SEC_COUNT real-time sensitive".to_string(),
    ));
    // PSD ✗: Lemma 6.2 with the Figure 9 monitor.
    let sec_psd = lemma_6_2(&SecCountFamily::new(), &sec_count(), 6, 6);
    cells.push(impossibility_cell(
        "SEC_COUNT",
        Notion::PredictiveStrong,
        sec_psd.refutes_predictive_strong_decidability(),
        2,
        "Lemma 6.2 tight prefix extension: the replayed NO is not sketch-justified".to_string(),
    ));
    // PWD ✓: Figure 3 ∘ Figure 9 against Aτ.
    let sec_family = WadAllFamily::new(SecCountFamily::new());
    let sec_behaviors = || -> Vec<BehaviorFactory> {
        vec![
            Box::new(|| Box::new(AtomicObject::new(drv_spec::Counter::new())) as Box<dyn Behavior>),
            Box::new(|| Box::new(ReplicatedCounter::new(2)) as Box<dyn Behavior>),
            Box::new(|| Box::new(OverCounter::new(2)) as Box<dyn Behavior>),
        ]
    };
    cells.push(possibility_cell(
        "SEC_COUNT",
        Arc::new(sec_count()),
        Notion::PredictiveWeak,
        &sec_family,
        sec_behaviors(),
        &counter_configs(config, true),
        tail,
    ));

    // Order the cells row-major in the paper's row order.
    let row_order = [
        "LIN_REG", "SC_REG", "LIN_LED", "SC_LED", "EC_LED", "WEC_COUNT", "SEC_COUNT",
    ];
    cells.sort_by_key(|cell| {
        let row = row_order
            .iter()
            .position(|r| *r == cell.language)
            .unwrap_or(usize::MAX);
        let column = Notion::TABLE1
            .iter()
            .position(|n| *n == cell.notion)
            .unwrap_or(usize::MAX);
        (row, column)
    });
    Table1Report { cells }
}

/// Wall-clock of one Table 1 object cell under both checking strategies.
///
/// Produced by [`time_object_cells`]; `holds` is the PSD evaluation under
/// the incremental path (it must match the from-scratch one — the engine is
/// a pure speedup).
#[derive(Debug, Clone)]
pub struct ObjectCellTiming {
    /// Cell label, e.g. `"LIN_REG"`.
    pub cell: String,
    /// Total wall-clock of the cell's runs under
    /// [`CheckStrategy::FromScratch`].
    pub scratch: std::time::Duration,
    /// Total wall-clock of the same runs under
    /// [`CheckStrategy::Incremental`].
    pub incremental: std::time::Duration,
    /// Total wall-clock of checking the cell's execution words through
    /// `drv-engine` (one object per run, all runs ingested concurrently),
    /// when `table1 --engine [N]` requested it.  This times the *checking
    /// deployment* the engine replaces — a central service consuming the
    /// raw x(E) streams — so it excludes the simulator/adversary machinery
    /// the scratch/incremental columns include.
    pub engine: Option<std::time::Duration>,
    /// Like [`ObjectCellTiming::engine`], but ingesting through the
    /// production path — `submit_batch` over 256-event `EventBatch`es — so
    /// the paper-facing table shows the batched deployment next to the
    /// per-event one.
    pub engine_batched: Option<std::time::Duration>,
    /// Whether predictive strong decidability held on every run (it must,
    /// under either strategy).
    pub holds: bool,
}

impl ObjectCellTiming {
    /// `scratch / incremental`.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.scratch.as_secs_f64() / self.incremental.as_secs_f64().max(1e-12)
    }
}

#[allow(clippy::too_many_arguments)]
fn time_one_cell<S: drv_spec::SequentialSpec + Clone + 'static>(
    cell: &str,
    language: &Arc<dyn Language>,
    spec: &S,
    family: &PredictiveFamily<S>,
    configs: &[RunConfig],
    behaviors: &dyn Fn() -> Vec<BehaviorFactory>,
    tail_fraction: f64,
    engine_workers: Option<usize>,
) -> ObjectCellTiming {
    use drv_core::monitors::{CheckStrategy, Criterion};
    use drv_core::{CheckerMonitorFactory, ObjectMonitorFactory};
    use drv_engine::{EngineConfig, MonitoringEngine};
    use drv_lang::ObjectId;
    use std::time::Instant;

    let decider = Decider::new(Arc::clone(language)).with_tail_fraction(tail_fraction);
    let mut timings = [std::time::Duration::ZERO; 2];
    let mut holds = true;
    let mut words: Vec<Word> = Vec::new();
    for (slot, strategy) in [
        (0, CheckStrategy::FromScratch),
        (1, CheckStrategy::Incremental),
    ] {
        let mut traces = Vec::new();
        // Only the monitored runs are on the clock; the PSD evaluation is a
        // post-hoc analysis the monitors never perform.
        let start = Instant::now();
        for run_config in configs {
            for make_behavior in behaviors() {
                traces.push(run(
                    run_config,
                    &family.clone().with_strategy(strategy),
                    make_behavior(),
                ));
            }
        }
        timings[slot] = start.elapsed();
        if strategy == CheckStrategy::Incremental {
            for trace in &traces {
                holds &= decider
                    .evaluate(trace, Notion::PredictiveStrong)
                    .map(|evaluation| evaluation.holds)
                    .unwrap_or(false);
            }
            if engine_workers.is_some() {
                words = traces.iter().map(|trace| trace.word().clone()).collect();
            }
        }
    }
    // The engine columns: every run's execution word becomes one object
    // stream, all ingested concurrently by a shared engine — once through
    // the per-event `submit` path and once through the batched production
    // path (`submit_batch` over 256-event batches).
    let make_factory = || -> Arc<dyn ObjectMonitorFactory> {
        let processes = words
            .iter()
            .flat_map(Word::procs)
            .map(|proc| proc.0 + 1)
            .max()
            .unwrap_or(1);
        match family.criterion() {
            Criterion::Linearizable => Arc::new(
                CheckerMonitorFactory::linearizability(spec.clone(), processes)
                    .with_max_states(200_000),
            ),
            Criterion::SequentiallyConsistent => Arc::new(
                CheckerMonitorFactory::sequential_consistency(spec.clone(), processes)
                    .with_max_states(200_000),
            ),
        }
    };
    let engine = engine_workers.map(|workers| {
        let start = Instant::now();
        let engine = MonitoringEngine::new(EngineConfig::new(workers), make_factory());
        for (index, word) in words.iter().enumerate() {
            for symbol in word.symbols() {
                engine.submit(ObjectId(index as u64), symbol);
            }
        }
        let report = engine.finish().expect("no engine worker panicked");
        let elapsed = start.elapsed();
        assert_eq!(report.objects.len(), words.len());
        elapsed
    });
    let engine_batched = engine_workers.map(|workers| {
        const BATCH: usize = 256;
        let events: Vec<(ObjectId, drv_lang::Symbol)> = words
            .iter()
            .enumerate()
            .flat_map(|(index, word)| {
                word.symbols()
                    .iter()
                    .map(move |symbol| (ObjectId(index as u64), symbol.clone()))
            })
            .collect();
        let start = Instant::now();
        let engine = MonitoringEngine::new(EngineConfig::new(workers), make_factory());
        engine.submit_stream(&events, BATCH);
        let report = engine.finish().expect("no engine worker panicked");
        let elapsed = start.elapsed();
        assert_eq!(report.objects.len(), words.len());
        elapsed
    });
    ObjectCellTiming {
        cell: cell.to_string(),
        scratch: timings[0],
        incremental: timings[1],
        engine,
        engine_batched,
        holds,
    }
}

/// Times the expensive Table 1 cells — the four register/ledger rows whose
/// monitors run a consistency check every iteration — under the from-scratch
/// and the incremental checking strategy (`table1 --fast` prints the result).
#[must_use]
pub fn time_object_cells(config: &Table1Config) -> Vec<ObjectCellTiming> {
    time_object_cells_with_engine(config, None)
}

/// [`time_object_cells`], optionally adding a `drv-engine` column: each
/// cell's execution words are re-checked through a sharded engine with the
/// given worker count (`table1 --engine [N]` prints the result).
#[must_use]
pub fn time_object_cells_with_engine(
    config: &Table1Config,
    engine_workers: Option<usize>,
) -> Vec<ObjectCellTiming> {
    let n_obj = config.object_processes;
    let reg_configs = object_configs(config, ObjectKind::Register, n_obj);
    let led_configs = object_configs(config, ObjectKind::Ledger, 2);

    let register_behaviors = || -> Vec<BehaviorFactory> {
        vec![
            Box::new(|| Box::new(AtomicObject::new(Register::new())) as Box<dyn Behavior>),
            Box::new(|| Box::new(StaleReadRegister::new(3, 2)) as Box<dyn Behavior>),
        ]
    };
    let ledger_behaviors = || -> Vec<BehaviorFactory> {
        vec![
            Box::new(|| Box::new(AtomicObject::new(Ledger::new())) as Box<dyn Behavior>),
            Box::new(|| Box::new(ReplicatedLedger::new(3)) as Box<dyn Behavior>),
            Box::new(|| Box::new(ForkingLedger::new()) as Box<dyn Behavior>),
        ]
    };

    let tail = config.tail_fraction;
    vec![
        time_one_cell(
            "LIN_REG",
            &(Arc::new(lin_reg(n_obj)) as Arc<dyn Language>),
            &Register::new(),
            &PredictiveFamily::linearizable(Register::new()),
            &reg_configs,
            &register_behaviors,
            tail,
            engine_workers,
        ),
        time_one_cell(
            "SC_REG",
            &(Arc::new(sc_reg(n_obj)) as Arc<dyn Language>),
            &Register::new(),
            &PredictiveFamily::sequentially_consistent(Register::new()),
            &reg_configs,
            &register_behaviors,
            tail,
            engine_workers,
        ),
        time_one_cell(
            "LIN_LED",
            &(Arc::new(lin_led(2)) as Arc<dyn Language>),
            &Ledger::new(),
            &PredictiveFamily::linearizable(Ledger::new()),
            &led_configs,
            &ledger_behaviors,
            tail,
            engine_workers,
        ),
        time_one_cell(
            "SC_LED",
            &(Arc::new(sc_led(2)) as Arc<dyn Language>),
            &Ledger::new(),
            &PredictiveFamily::sequentially_consistent(Ledger::new()),
            &led_configs,
            &ledger_behaviors,
            tail,
            engine_workers,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table_matches_the_paper() {
        let report = reproduce_table1(&Table1Config::quick());
        assert_eq!(report.cells.len(), 28);
        let mismatches: Vec<String> = report
            .mismatches()
            .iter()
            .map(|c| format!("{} {}: {}", c.language, c.notion, c.detail))
            .collect();
        assert!(
            report.matches_paper(),
            "cells disagree with the paper:\n{}",
            mismatches.join("\n")
        );
        let rendered = report.render();
        assert!(rendered.contains("WEC_COUNT"));
        assert!(rendered.contains('✓'));
        assert!(rendered.contains('✗'));
        assert!(report.cell("LIN_REG", Notion::Strong).is_some());
        assert!(!report
            .cell("LIN_REG", Notion::Strong)
            .unwrap()
            .observed_decidable);
        assert!(report
            .cell("SEC_COUNT", Notion::PredictiveWeak)
            .unwrap()
            .observed_decidable);
        assert!(format!("{report}").contains("Language"));
    }
}
