//! The [`SequentialSpec`] trait and helpers for validating sequential words.

use crate::{Counter, Ledger, Queue, Register, Stack};
use drv_lang::{Action, Invocation, ObjectKind, Response, Word};
use std::fmt;
use std::hash::Hash;

/// A deterministic, total sequential object specification.
///
/// The object is a state machine: [`SequentialSpec::initial`] gives the
/// initial state and [`SequentialSpec::apply`] maps a state and an invocation
/// to the successor state and the response the sequential object returns.
///
/// `apply` returns `None` when the invocation does not belong to the object's
/// alphabet (e.g. `inc()` applied to a register); this is how checkers detect
/// alphabet mismatches early.
pub trait SequentialSpec: Send + Sync {
    /// The type of object states.  States must be hashable so checkers can
    /// memoize explored configurations.
    type State: Clone + Eq + Hash + fmt::Debug + Send + Sync;

    /// Human-readable object name (e.g. `"register"`).
    fn name(&self) -> String;

    /// The [`ObjectKind`] whose alphabet this object uses.
    fn kind(&self) -> ObjectKind;

    /// The initial state of the object.
    fn initial(&self) -> Self::State;

    /// Applies an invocation to a state, producing the successor state and the
    /// response.  Returns `None` when the invocation is not part of this
    /// object's alphabet.
    ///
    /// An invocation with `!is_mutator()` (an observer: `read`, `get`) returns
    /// the state it was given.  Checkers rely on it: an observer can be
    /// deleted from a legal sequential word, or inserted with the response
    /// `apply` gives it there, without changing what follows.
    fn apply(
        &self,
        state: &Self::State,
        invocation: &Invocation,
    ) -> Option<(Self::State, Response)>;

    /// Checks whether `(invocation, response)` is a legal step from `state`,
    /// returning the successor state when it is.
    ///
    /// A legal observed response leads to the state `apply` gives: when this
    /// returns `Some(next)`, `apply(state, invocation)` returns `next` too,
    /// whatever response it pairs it with.  Checkers rely on it: a history
    /// whose pending operation was linearized with the response `apply`
    /// gives reaches no state more once the operation answers.
    ///
    /// The default implementation applies the invocation and compares the
    /// produced response with the observed one, which is correct for
    /// deterministic objects.
    fn step_if_legal(
        &self,
        state: &Self::State,
        invocation: &Invocation,
        response: &Response,
    ) -> Option<Self::State> {
        let (next, expected) = self.apply(state, invocation)?;
        if &expected == response {
            Some(next)
        } else {
            None
        }
    }

    /// An invocation without which `(invocation, response)` is never a
    /// step: `Some(x)` promises that in every legal sequential word that
    /// takes this step, an earlier step invokes `x`.
    ///
    /// Checkers rely on it: a history holding a complete operation with this
    /// invocation and response, and no operation (pending or complete, of any
    /// process) that invokes `x`, is neither linearizable nor sequentially
    /// consistent, and that is known without a search.  The default, `None`,
    /// promises nothing and is always sound.
    fn producer(&self, invocation: &Invocation, response: &Response) -> Option<Invocation> {
        let _ = (invocation, response);
        None
    }
}

/// Blanket implementation so `&S` can be used wherever a spec is expected.
impl<S: SequentialSpec + ?Sized> SequentialSpec for &S {
    type State = S::State;

    fn name(&self) -> String {
        (**self).name()
    }
    fn kind(&self) -> ObjectKind {
        (**self).kind()
    }
    fn initial(&self) -> Self::State {
        (**self).initial()
    }
    fn apply(
        &self,
        state: &Self::State,
        invocation: &Invocation,
    ) -> Option<(Self::State, Response)> {
        (**self).apply(state, invocation)
    }
    fn step_if_legal(
        &self,
        state: &Self::State,
        invocation: &Invocation,
        response: &Response,
    ) -> Option<Self::State> {
        (**self).step_if_legal(state, invocation, response)
    }
    fn producer(&self, invocation: &Invocation, response: &Response) -> Option<Invocation> {
        (**self).producer(invocation, response)
    }
}

/// Error produced when validating a sequential word against a specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The word is not sequential: an invocation is not immediately followed
    /// by its matching response.
    NotSequential {
        /// Position of the offending symbol.
        position: usize,
    },
    /// An invocation outside the object's alphabet was found.
    ForeignInvocation {
        /// Position of the offending symbol.
        position: usize,
    },
    /// A response does not match what the sequential object would return.
    IllegalResponse {
        /// Position of the offending response symbol.
        position: usize,
        /// The response the specification expected.
        expected: Response,
        /// The response observed in the word.
        observed: Response,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NotSequential { position } => {
                write!(f, "word is not sequential at position {position}")
            }
            ValidationError::ForeignInvocation { position } => {
                write!(
                    f,
                    "invocation at position {position} is outside the object alphabet"
                )
            }
            ValidationError::IllegalResponse {
                position,
                expected,
                observed,
            } => write!(
                f,
                "response at position {position} is {observed}, specification expects {expected}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks that a *sequential* word (globally alternating invocation/response,
/// each response immediately following its invocation) is legal for the
/// specification, i.e. the word is a valid sequential history of the object.
///
/// # Errors
///
/// Returns the first [`ValidationError`] encountered.
pub fn is_legal_sequential_word<S: SequentialSpec>(
    spec: &S,
    word: &Word,
) -> Result<(), ValidationError> {
    let mut state = spec.initial();
    let symbols = word.symbols();
    let mut i = 0;
    while i < symbols.len() {
        let inv_symbol = &symbols[i];
        let Action::Invoke(invocation) = &inv_symbol.action else {
            return Err(ValidationError::NotSequential { position: i });
        };
        // A trailing pending invocation is allowed (it has no response yet).
        let Some(resp_symbol) = symbols.get(i + 1) else {
            return Ok(());
        };
        let Action::Respond(response) = &resp_symbol.action else {
            return Err(ValidationError::NotSequential { position: i + 1 });
        };
        if resp_symbol.proc != inv_symbol.proc {
            return Err(ValidationError::NotSequential { position: i + 1 });
        }
        let (next, expected) = spec
            .apply(&state, invocation)
            .ok_or(ValidationError::ForeignInvocation { position: i })?;
        if &expected != response {
            return Err(ValidationError::IllegalResponse {
                position: i + 1,
                expected,
                observed: response.clone(),
            });
        }
        state = next;
        i += 2;
    }
    Ok(())
}

/// Runs a sequence of invocations from the initial state, returning the
/// responses the sequential object produces, or `None` if an invocation is
/// outside the alphabet.
#[must_use]
pub fn run_invocations<S: SequentialSpec>(
    spec: &S,
    invocations: &[Invocation],
) -> Option<Vec<Response>> {
    let mut state = spec.initial();
    let mut responses = Vec::with_capacity(invocations.len());
    for invocation in invocations {
        let (next, response) = spec.apply(&state, invocation)?;
        responses.push(response);
        state = next;
    }
    Some(responses)
}

/// A dynamically-dispatched handle on any of the built-in specifications.
///
/// The enum form is convenient for workloads that are parameterized by
/// [`ObjectKind`] (e.g. the Table 1 harness) without making every consumer
/// generic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecObject {
    /// A read/write register.
    Register,
    /// An `inc`/`read` counter.
    Counter,
    /// An `append`/`get` ledger.
    Ledger,
    /// A FIFO queue.
    Queue,
    /// A LIFO stack.
    Stack,
}

impl SpecObject {
    /// The [`ObjectKind`] of this specification.
    #[must_use]
    pub fn kind(&self) -> ObjectKind {
        match self {
            SpecObject::Register => ObjectKind::Register,
            SpecObject::Counter => ObjectKind::Counter,
            SpecObject::Ledger => ObjectKind::Ledger,
            SpecObject::Queue => ObjectKind::Queue,
            SpecObject::Stack => ObjectKind::Stack,
        }
    }
}

/// The universal state used by [`SpecObject`]'s [`SequentialSpec`]
/// implementation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SpecState {
    /// Register contents.
    Register(u64),
    /// Counter value.
    Counter(u64),
    /// Ledger contents.
    Ledger(Vec<u64>),
    /// Queue contents (front first).
    Queue(Vec<u64>),
    /// Stack contents (bottom first).
    Stack(Vec<u64>),
}

impl SequentialSpec for SpecObject {
    type State = SpecState;

    fn name(&self) -> String {
        self.kind().to_string()
    }

    fn kind(&self) -> ObjectKind {
        SpecObject::kind(self)
    }

    fn initial(&self) -> SpecState {
        match self {
            SpecObject::Register => SpecState::Register(0),
            SpecObject::Counter => SpecState::Counter(0),
            SpecObject::Ledger => SpecState::Ledger(Vec::new()),
            SpecObject::Queue => SpecState::Queue(Vec::new()),
            SpecObject::Stack => SpecState::Stack(Vec::new()),
        }
    }

    fn apply(&self, state: &SpecState, invocation: &Invocation) -> Option<(SpecState, Response)> {
        match (self, state, invocation) {
            (SpecObject::Register, SpecState::Register(_), Invocation::Write(x)) => {
                Some((SpecState::Register(*x), Response::Ack))
            }
            (SpecObject::Register, SpecState::Register(v), Invocation::Read) => {
                Some((state.clone(), Response::Value(*v)))
            }
            (SpecObject::Counter, SpecState::Counter(v), Invocation::Inc) => {
                Some((SpecState::Counter(v + 1), Response::Ack))
            }
            (SpecObject::Counter, SpecState::Counter(v), Invocation::Read) => {
                Some((state.clone(), Response::Value(*v)))
            }
            (SpecObject::Ledger, SpecState::Ledger(s), Invocation::Append(r)) => {
                let mut next = s.clone();
                next.push(*r);
                Some((SpecState::Ledger(next), Response::Ack))
            }
            (SpecObject::Ledger, SpecState::Ledger(s), Invocation::Get) => {
                Some((state.clone(), Response::Sequence(s.clone())))
            }
            (SpecObject::Queue, SpecState::Queue(q), Invocation::Enqueue(x)) => {
                let mut next = q.clone();
                next.push(*x);
                Some((SpecState::Queue(next), Response::Ack))
            }
            (SpecObject::Queue, SpecState::Queue(q), Invocation::Dequeue) => {
                if q.is_empty() {
                    Some((state.clone(), Response::MaybeValue(None)))
                } else {
                    let mut next = q.clone();
                    let head = next.remove(0);
                    Some((SpecState::Queue(next), Response::MaybeValue(Some(head))))
                }
            }
            (SpecObject::Stack, SpecState::Stack(s), Invocation::Push(x)) => {
                let mut next = s.clone();
                next.push(*x);
                Some((SpecState::Stack(next), Response::Ack))
            }
            (SpecObject::Stack, SpecState::Stack(s), Invocation::Pop) => {
                if s.is_empty() {
                    Some((state.clone(), Response::MaybeValue(None)))
                } else {
                    let mut next = s.clone();
                    let top = next.pop();
                    Some((SpecState::Stack(next), Response::MaybeValue(top)))
                }
            }
            _ => None,
        }
    }

    /// The producer of the concrete specification this handle stands for.
    fn producer(&self, invocation: &Invocation, response: &Response) -> Option<Invocation> {
        match self {
            SpecObject::Register => Register::new().producer(invocation, response),
            SpecObject::Counter => Counter::new().producer(invocation, response),
            SpecObject::Ledger => Ledger::new().producer(invocation, response),
            SpecObject::Queue => Queue::new().producer(invocation, response),
            SpecObject::Stack => Stack::new().producer(invocation, response),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drv_lang::{ProcId, WordBuilder};

    #[test]
    fn run_invocations_counter() {
        let responses = run_invocations(
            &SpecObject::Counter,
            &[Invocation::Inc, Invocation::Inc, Invocation::Read],
        )
        .expect("alphabet ok");
        assert_eq!(
            responses,
            vec![Response::Ack, Response::Ack, Response::Value(2)]
        );
    }

    #[test]
    fn run_invocations_rejects_foreign() {
        assert!(run_invocations(&SpecObject::Register, &[Invocation::Inc]).is_none());
    }

    #[test]
    fn legal_sequential_word_register() {
        let w = WordBuilder::new()
            .op(ProcId(0), Invocation::Write(3), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(3))
            .build();
        assert!(is_legal_sequential_word(&SpecObject::Register, &w).is_ok());
    }

    #[test]
    fn illegal_response_is_reported() {
        let w = WordBuilder::new()
            .op(ProcId(0), Invocation::Write(3), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(9))
            .build();
        let err = is_legal_sequential_word(&SpecObject::Register, &w).unwrap_err();
        assert_eq!(
            err,
            ValidationError::IllegalResponse {
                position: 3,
                expected: Response::Value(3),
                observed: Response::Value(9),
            }
        );
        assert!(err.to_string().contains("position 3"));
    }

    #[test]
    fn non_sequential_word_is_reported() {
        let w = WordBuilder::new()
            .invoke(ProcId(0), Invocation::Write(3))
            .invoke(ProcId(1), Invocation::Read)
            .respond(ProcId(0), Response::Ack)
            .respond(ProcId(1), Response::Value(3))
            .build();
        assert!(matches!(
            is_legal_sequential_word(&SpecObject::Register, &w),
            Err(ValidationError::NotSequential { position: 1 })
        ));
    }

    #[test]
    fn trailing_pending_invocation_is_ok() {
        let w = WordBuilder::new()
            .op(ProcId(0), Invocation::Write(3), Response::Ack)
            .invoke(ProcId(1), Invocation::Read)
            .build();
        assert!(is_legal_sequential_word(&SpecObject::Register, &w).is_ok());
    }

    #[test]
    fn foreign_invocation_is_reported() {
        let w = WordBuilder::new()
            .op(ProcId(0), Invocation::Inc, Response::Ack)
            .build();
        assert!(matches!(
            is_legal_sequential_word(&SpecObject::Register, &w),
            Err(ValidationError::ForeignInvocation { position: 0 })
        ));
    }

    #[test]
    fn queue_and_stack_semantics() {
        let q = run_invocations(
            &SpecObject::Queue,
            &[
                Invocation::Enqueue(1),
                Invocation::Enqueue(2),
                Invocation::Dequeue,
                Invocation::Dequeue,
                Invocation::Dequeue,
            ],
        )
        .unwrap();
        assert_eq!(q[2], Response::MaybeValue(Some(1)));
        assert_eq!(q[3], Response::MaybeValue(Some(2)));
        assert_eq!(q[4], Response::MaybeValue(None));

        let s = run_invocations(
            &SpecObject::Stack,
            &[
                Invocation::Push(1),
                Invocation::Push(2),
                Invocation::Pop,
                Invocation::Pop,
                Invocation::Pop,
            ],
        )
        .unwrap();
        assert_eq!(s[2], Response::MaybeValue(Some(2)));
        assert_eq!(s[3], Response::MaybeValue(Some(1)));
        assert_eq!(s[4], Response::MaybeValue(None));
    }

    #[test]
    fn ledger_semantics() {
        let l = run_invocations(
            &SpecObject::Ledger,
            &[
                Invocation::Append(10),
                Invocation::Get,
                Invocation::Append(20),
                Invocation::Get,
            ],
        )
        .unwrap();
        assert_eq!(l[1], Response::Sequence(vec![10]));
        assert_eq!(l[3], Response::Sequence(vec![10, 20]));
    }

    #[test]
    fn spec_object_metadata() {
        assert_eq!(SpecObject::Register.kind(), ObjectKind::Register);
        assert_eq!(SpecObject::Ledger.name(), "ledger");
        assert_eq!(
            SequentialSpec::kind(&SpecObject::Counter),
            ObjectKind::Counter
        );
    }

    #[test]
    fn step_if_legal_default() {
        let spec = SpecObject::Counter;
        let s0 = spec.initial();
        let s1 = spec
            .step_if_legal(&s0, &Invocation::Inc, &Response::Ack)
            .expect("inc is legal");
        assert!(spec
            .step_if_legal(&s1, &Invocation::Read, &Response::Value(0))
            .is_none());
        assert!(spec
            .step_if_legal(&s1, &Invocation::Read, &Response::Value(1))
            .is_some());
    }

    /// Walks `spec` through seeded random invocations and checks, at every
    /// state reached, that each observer of the whole alphabet is either
    /// foreign to the object or leaves the state as it was.  Returns how
    /// many times an observer applied.
    fn observers_applied_without_moving<S: SequentialSpec>(spec: &S, seed: u64) -> usize {
        let alphabet = |arg: u64| {
            [
                Invocation::Write(arg),
                Invocation::Read,
                Invocation::Inc,
                Invocation::Append(arg),
                Invocation::Get,
                Invocation::Enqueue(arg),
                Invocation::Dequeue,
                Invocation::Push(arg),
                Invocation::Pop,
                Invocation::Custom("probe".into(), arg),
            ]
        };
        // splitmix64: the crate has no random-number dependency.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut applied = 0;
        for _walk in 0..32 {
            let mut state = spec.initial();
            for _step in 0..16 {
                for invocation in alphabet(0).iter().filter(|i| !i.is_mutator()) {
                    if let Some((after, _)) = spec.apply(&state, invocation) {
                        assert_eq!(after, state, "{} moved on {invocation}", spec.name());
                        applied += 1;
                    }
                }
                let choices = alphabet(next() % 4);
                let choice = &choices[(next() % choices.len() as u64) as usize];
                if let Some((after, _)) = spec.apply(&state, choice) {
                    state = after;
                }
            }
        }
        applied
    }

    #[test]
    fn observers_return_the_state_they_were_given() {
        // Neither vacuous nor optimistic: the built-in observers are
        // classified as such, and an invocation nobody knows is not.
        assert!(!Invocation::Read.is_mutator() && !Invocation::Get.is_mutator());
        assert!(Invocation::Custom("probe".into(), 0).is_mutator());
        assert!(Invocation::Dequeue.is_mutator() && Invocation::Pop.is_mutator());
        use crate::{Counter, Ledger, Queue, Register, Stack};
        assert!(observers_applied_without_moving(&Register::new(), 1) > 0);
        assert!(observers_applied_without_moving(&Counter::new(), 2) > 0);
        assert!(observers_applied_without_moving(&Ledger::new(), 3) > 0);
        // Queues and stacks have no observer: everything they accept moves.
        assert_eq!(observers_applied_without_moving(&Queue::new(), 4), 0);
        assert_eq!(observers_applied_without_moving(&Stack::new(), 5), 0);
        for (seed, object) in [
            SpecObject::Register,
            SpecObject::Counter,
            SpecObject::Ledger,
            SpecObject::Queue,
            SpecObject::Stack,
        ]
        .into_iter()
        .enumerate()
        {
            let applied = observers_applied_without_moving(&object, 6 + seed as u64);
            let has_observer = !matches!(object, SpecObject::Queue | SpecObject::Stack);
            assert_eq!(applied > 0, has_observer, "{object:?}");
            // The blanket impl forwards `apply`, so the law carries over.
            assert_eq!(
                observers_applied_without_moving(&&object, 6 + seed as u64),
                applied
            );
        }
    }

    #[test]
    fn producers_forward_through_the_enum_and_references() {
        let steps = [
            (Invocation::Read, Response::Value(2)),
            (Invocation::Read, Response::Value(0)),
            (Invocation::Dequeue, Response::MaybeValue(Some(2))),
            (Invocation::Pop, Response::MaybeValue(Some(2))),
            (Invocation::Get, Response::Sequence(vec![2])),
        ];
        let expected = [
            Some(Invocation::Write(2)),
            None,
            Some(Invocation::Enqueue(2)),
            Some(Invocation::Push(2)),
            None,
        ];
        let named = |(invocation, response): &(Invocation, Response)| {
            [
                Register::new().producer(invocation, response),
                Counter::new().producer(invocation, response),
                Ledger::new().producer(invocation, response),
                Queue::new().producer(invocation, response),
                Stack::new().producer(invocation, response),
            ]
        };
        let objects = [
            SpecObject::Register,
            SpecObject::Counter,
            SpecObject::Ledger,
            SpecObject::Queue,
            SpecObject::Stack,
        ];
        for (step, expected) in steps.iter().zip(expected) {
            let (invocation, response) = step;
            let by_name = named(step);
            assert_eq!(
                by_name.iter().flatten().next(),
                expected.as_ref(),
                "{step:?}"
            );
            for (object, by_name) in objects.iter().zip(by_name) {
                assert_eq!(object.producer(invocation, response), by_name, "{object:?}");
                assert_eq!(
                    (&object).producer(invocation, response),
                    by_name,
                    "&{object:?}"
                );
            }
        }
    }

    #[test]
    fn reference_blanket_impl() {
        let spec = &SpecObject::Register;
        assert_eq!(spec.name(), "register");
        let s0 = spec.initial();
        assert!(spec.apply(&s0, &Invocation::Read).is_some());
    }
}
