//! Cross-plugin consistency: a *right-linear* grammar denotes a regular
//! language, so the Earley-based CFG monitor and the derivative-based ERE
//! monitor must classify every trace identically — two completely
//! different recognizer implementations checking each other. Each test
//! runs the counterexample proptest once recorded for this file, then a
//! fixed battery of seeds; a failure names its case.

use rv_heap::SplitMix64;
use rv_logic::cfg::{CfgMonitor, Grammar, Production, Symbol};
use rv_logic::ere::Ere;
use rv_logic::event::{Alphabet, EventId};
use rv_logic::verdict::Verdict;

const EVENTS: u16 = 2;
const CASES: u64 = 96;

fn alphabet() -> Alphabet {
    Alphabet::from_names(&["a", "b"])
}

/// A random regular expression built from the operators that translate
/// directly to right-linear rules: events, concatenation, union, star.
#[derive(Clone, Debug)]
enum Reg {
    Event(u16),
    Concat(Box<Reg>, Box<Reg>),
    Union(Box<Reg>, Box<Reg>),
    Star(Box<Reg>),
}

/// A random `Reg` of depth at most `depth`.
fn random_reg(rng: &mut SplitMix64, depth: u32) -> Reg {
    if depth == 0 || rng.chance(0.3) {
        return Reg::Event(rng.gen_range(EVENTS.into()) as u16);
    }
    let op = rng.gen_range(3);
    let mut sub = || Box::new(random_reg(rng, depth - 1));
    match op {
        0 => Reg::Concat(sub(), sub()),
        1 => Reg::Union(sub(), sub()),
        _ => Reg::Star(sub()),
    }
}

/// The counterexample proptest shrank and recorded for this file, then
/// one random `Reg` per seed in `0..CASES`; each comes with a label.
fn regs() -> impl Iterator<Item = (String, Reg)> {
    let event = |e| Box::new(Reg::Event(e));
    let recorded = Reg::Union(event(0), Box::new(Reg::Star(event(1))));
    std::iter::once(("recorded reg".to_owned(), recorded)).chain(
        (0..CASES).map(|seed| (format!("seed {seed}"), random_reg(&mut SplitMix64::new(seed), 3))),
    )
}

fn to_ere(r: &Reg) -> Ere {
    match r {
        Reg::Event(e) => Ere::event(EventId(*e)),
        Reg::Concat(a, b) => to_ere(a).concat(to_ere(b)),
        Reg::Union(a, b) => Ere::union([to_ere(a), to_ere(b)]),
        Reg::Star(a) => to_ere(a).star(),
    }
}

/// Builds grammar rules for `r` such that nonterminal `start` derives
/// exactly `L(r) · L(cont)`, where `cont` is a continuation nonterminal
/// (or ε when `cont` is `None`). Standard regex→right-linear translation.
struct GrammarBuilder {
    names: Vec<String>,
    productions: Vec<Production>,
}

impl GrammarBuilder {
    fn fresh(&mut self) -> u32 {
        let id = self.names.len() as u32;
        self.names.push(format!("N{id}"));
        id
    }

    /// Emits rules so that `start ⇒* w · (cont or ε)` for every `w ∈ L(r)`.
    fn emit(&mut self, r: &Reg, start: u32, cont: Option<u32>) {
        match r {
            Reg::Event(e) => {
                let mut rhs = vec![Symbol::T(EventId(*e))];
                if let Some(k) = cont {
                    rhs.push(Symbol::Nt(k));
                }
                self.productions.push(Production { lhs: start, rhs });
            }
            Reg::Concat(a, b) => {
                let mid = self.fresh();
                self.emit(a, start, Some(mid));
                self.emit(b, mid, cont);
            }
            Reg::Union(a, b) => {
                self.emit(a, start, cont);
                self.emit(b, start, cont);
            }
            Reg::Star(a) => {
                // A dedicated loop-head nonterminal, so the loop cannot
                // capture other alternatives that share `start`:
                //   start → head;  head → cont/ε;  body returns to head.
                let head = self.fresh();
                self.productions.push(Production { lhs: start, rhs: vec![Symbol::Nt(head)] });
                let exit = match cont {
                    Some(k) => vec![Symbol::Nt(k)],
                    None => vec![],
                };
                self.productions.push(Production { lhs: head, rhs: exit });
                self.emit(a, head, Some(head));
            }
        }
    }
}

fn to_grammar(r: &Reg, case: &str) -> Grammar {
    let mut b = GrammarBuilder { names: vec!["S".to_owned()], productions: Vec::new() };
    b.emit(r, 0, None);
    Grammar::new(&b.names, 0, b.productions)
        .unwrap_or_else(|e| panic!("{case}: translated grammar is ill-formed: {e:?}"))
}

fn traces(max_len: usize) -> Vec<Vec<EventId>> {
    let mut all = vec![vec![]];
    let mut layer = vec![vec![]];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for t in &layer {
            for e in 0..EVENTS {
                let mut t2 = t.clone();
                t2.push(EventId(e));
                next.push(t2);
            }
        }
        all.extend(next.iter().cloned());
        layer = next;
    }
    all
}

#[test]
fn earley_and_derivatives_agree_on_regular_languages() {
    let al = alphabet();
    for (case, r) in regs() {
        let dfa = to_ere(&r).compile(&al, 10_000).unwrap_or_else(|e| panic!("{case}: {e:?}"));
        let grammar = to_grammar(&r, &case);
        let cfg = CfgMonitor::compile(&grammar, &al).unwrap_or_else(|e| panic!("{case}: {e:?}"));
        for trace in traces(5) {
            let via_dfa = dfa.classify(&trace);
            let via_earley = cfg.classify(&trace);
            // Match verdicts must agree exactly. Fail verdicts may differ
            // in *timing* precision: the DFA knows the whole language,
            // while the Earley chart reports fail only when the prefix is
            // not viable — both are sound, so compare match and the
            // fail/unknown downgrade direction.
            assert_eq!(
                via_dfa == Verdict::Match,
                via_earley == Verdict::Match,
                "{case}: membership differs on {trace:?} for {r:?}"
            );
            if via_earley == Verdict::Fail {
                assert_eq!(
                    via_dfa,
                    Verdict::Fail,
                    "{case}: Earley failed a viable prefix {trace:?} for {r:?}"
                );
            }
        }
    }
}

#[test]
fn reduced_grammars_have_the_viable_prefix_property() {
    // For every trace the DFA calls Fail, the Earley monitor must also
    // fail no later than the DFA's fail point plus zero (reduction
    // guarantees emptiness of the chart exactly at non-viability).
    let al = alphabet();
    for (case, r) in regs() {
        let dfa = to_ere(&r).compile(&al, 10_000).unwrap_or_else(|e| panic!("{case}: {e:?}"));
        let grammar = to_grammar(&r, &case);
        let cfg = CfgMonitor::compile(&grammar, &al).unwrap_or_else(|e| panic!("{case}: {e:?}"));
        for trace in traces(4) {
            if dfa.classify(&trace) == Verdict::Fail {
                assert_eq!(
                    cfg.classify(&trace),
                    Verdict::Fail,
                    "{case}: chart stayed alive on non-viable {trace:?} for {r:?}"
                );
            }
        }
    }
}
