//! The correctness gate: every served answer against `Engine::infer` on
//! fresh in-process sessions, and a seeded sample against the interpreter.

use sc_serve::engine::Engine;
use sc_serve::interpreter::Inference;
use servebench::{frame, splitmix64};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// One served answer: `(model, frame, argmax, logits)`.
pub type Served<'a> = (u16, u64, u16, &'a [f64]);

/// Outcome of the gate.
pub struct Gate {
    /// Served answers compared.
    pub checked: usize,
    /// Answers that differed from `Engine::infer` in any bit.
    pub mismatched: usize,
    /// Answers also compared with `Interpreter::infer`.
    pub interpreter_checked: usize,
    /// Of those, answers that differed.
    pub interpreter_mismatched: usize,
}

impl Gate {
    /// Whether every compared answer matched.
    pub fn passed(&self) -> bool {
        self.mismatched == 0 && self.interpreter_mismatched == 0
    }
}

/// Bit-for-bit equality of a served answer with a reference inference.
pub fn same_answer(expected: &Inference, argmax: u16, logits: &[f64]) -> bool {
    usize::from(argmax) == expected.argmax
        && logits.len() == expected.logits.len()
        && logits
            .iter()
            .zip(&expected.logits)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Recomputes every distinct `(model, frame)` with `Engine::infer` on fresh
/// sessions without unit fan-out, `threads` at a time.
fn reference_answers(
    engines: &[Arc<Engine>],
    seed: u64,
    keys: &[(u16, u64)],
    threads: usize,
) -> Result<HashMap<(u16, u64), Inference>, String> {
    let chunks: Vec<Result<Vec<_>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut sessions: Vec<_> = engines
                        .iter()
                        .map(|engine| {
                            let mut session = engine.new_session();
                            session.set_unit_fan_out(false);
                            session
                        })
                        .collect();
                    keys.iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&(model, frame_index)| {
                            let (image, _) = frame(seed, frame_index);
                            let m = usize::from(model);
                            engines[m]
                                .infer(&mut sessions[m], &image)
                                .map(|inference| ((model, frame_index), inference))
                                .map_err(|e| e.to_string())
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference thread panicked"))
            .collect()
    });
    let mut answers = HashMap::new();
    for chunk in chunks {
        answers.extend(chunk?);
    }
    Ok(answers)
}

/// Checks every served answer; `threads` bounds the recomputation.
pub fn check(
    engines: &[Arc<Engine>],
    seed: u64,
    served: &[Served<'_>],
    threads: usize,
) -> Result<Gate, String> {
    let keys: Vec<(u16, u64)> = served
        .iter()
        .map(|&(model, frame_index, _, _)| (model, frame_index))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let expected = reference_answers(engines, seed, &keys, threads)?;
    let mismatched = served
        .iter()
        .filter(|&&(model, frame_index, argmax, logits)| {
            !same_answer(&expected[&(model, frame_index)], argmax, logits)
        })
        .count();
    // One seeded answer per model must also match the reference
    // interpreter (slow: it regenerates every weight stream per call).
    let mut interpreter_checked = 0;
    let mut interpreter_mismatched = 0;
    for (model, engine) in engines.iter().enumerate() {
        let of_model: Vec<_> = served
            .iter()
            .filter(|s| usize::from(s.0) == model)
            .collect();
        if of_model.is_empty() {
            continue;
        }
        let pick = of_model[(splitmix64(seed ^ model as u64) % of_model.len() as u64) as usize];
        let (image, _) = frame(seed, pick.1);
        let reference = engine
            .interpreter()
            .infer(&image)
            .map_err(|e| e.to_string())?;
        interpreter_checked += 1;
        if !same_answer(&reference, pick.2, pick.3) {
            interpreter_mismatched += 1;
        }
    }
    Ok(Gate {
        checked: served.len(),
        mismatched,
        interpreter_checked,
        interpreter_mismatched,
    })
}
