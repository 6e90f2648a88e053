//! Seeded property tests for the ERE plugin: the compiled DFA must agree
//! with the algebraic semantics of extended regular expressions on random
//! expressions and random traces. Each test runs a fixed battery of
//! seeds; a failure names the seed that reproduces it.

use rv_heap::SplitMix64;
use rv_logic::dfa::Dfa;
use rv_logic::ere::Ere;
use rv_logic::event::{Alphabet, EventId};
use rv_logic::verdict::Verdict;

const EVENTS: u16 = 3;

fn alphabet() -> Alphabet {
    Alphabet::from_names(&["a", "b", "c"])
}

/// One generator per seed in `0..cases`, paired with its seed.
fn seeds(cases: u64) -> impl Iterator<Item = (u64, SplitMix64)> {
    (0..cases).map(|seed| (seed, SplitMix64::new(seed)))
}

/// A random ERE of depth at most `depth`.
fn random_ere(rng: &mut SplitMix64, depth: u32) -> Ere {
    if depth == 0 || rng.chance(0.3) {
        return match rng.gen_range(3) {
            0 => Ere::event(EventId(rng.gen_range(EVENTS.into()) as u16)),
            1 => Ere::epsilon(),
            _ => Ere::empty(),
        };
    }
    let op = rng.gen_range(6);
    let mut sub = || random_ere(rng, depth - 1);
    match op {
        0 => sub().concat(sub()),
        1 => Ere::union([sub(), sub()]),
        2 => Ere::inter([sub(), sub()]),
        3 => sub().star(),
        4 => sub().plus(),
        _ => sub().not(),
    }
}

fn ere(rng: &mut SplitMix64) -> Ere {
    random_ere(rng, 4)
}

fn trace(rng: &mut SplitMix64) -> Vec<EventId> {
    let len = rng.gen_range(8);
    (0..len).map(|_| EventId(rng.gen_range(EVENTS.into()) as u16)).collect()
}

fn compile(ere: &Ere, seed: u64) -> Dfa {
    ere.compile(&alphabet(), 10_000).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"))
}

/// Membership via iterated derivatives — the definitional semantics.
fn member(ere: &Ere, trace: &[EventId]) -> bool {
    let mut cur = ere.clone();
    for &e in trace {
        cur = cur.derivative(e);
    }
    cur.nullable()
}

#[test]
fn dfa_match_agrees_with_derivative_semantics() {
    for (seed, mut rng) in seeds(256) {
        let (ere, trace) = (ere(&mut rng), trace(&mut rng));
        let dfa = compile(&ere, seed);
        let dfa_match = dfa.classify(&trace) == Verdict::Match;
        assert_eq!(dfa_match, member(&ere, &trace), "seed {seed}");
    }
}

#[test]
fn union_is_disjunction() {
    for (seed, mut rng) in seeds(256) {
        let (a, b, trace) = (ere(&mut rng), ere(&mut rng), trace(&mut rng));
        let u = Ere::union([a.clone(), b.clone()]);
        assert_eq!(member(&u, &trace), member(&a, &trace) || member(&b, &trace), "seed {seed}");
    }
}

#[test]
fn intersection_is_conjunction() {
    for (seed, mut rng) in seeds(256) {
        let (a, b, trace) = (ere(&mut rng), ere(&mut rng), trace(&mut rng));
        let i = Ere::inter([a.clone(), b.clone()]);
        assert_eq!(member(&i, &trace), member(&a, &trace) && member(&b, &trace), "seed {seed}");
    }
}

#[test]
fn complement_is_negation() {
    for (seed, mut rng) in seeds(256) {
        let (a, trace) = (ere(&mut rng), trace(&mut rng));
        assert_eq!(member(&a.clone().not(), &trace), !member(&a, &trace), "seed {seed}");
    }
}

#[test]
fn plus_is_concat_star() {
    for (seed, mut rng) in seeds(256) {
        let (a, trace) = (ere(&mut rng), trace(&mut rng));
        let plus = a.clone().plus();
        let via_star = a.clone().concat(a.star());
        assert_eq!(member(&plus, &trace), member(&via_star, &trace), "seed {seed}");
    }
}

#[test]
fn fail_verdict_is_permanent() {
    for (seed, mut rng) in seeds(256) {
        let (ere, trace, suffix) = (ere(&mut rng), trace(&mut rng), trace(&mut rng));
        let dfa = compile(&ere, seed);
        if dfa.classify(&trace) == Verdict::Fail {
            let mut extended = trace.clone();
            extended.extend(suffix);
            assert_eq!(dfa.classify(&extended), Verdict::Fail, "seed {seed}");
        }
    }
}

#[test]
fn fail_verdict_is_semantically_justified() {
    // Fail ⇒ no extension up to length 4 matches (a bounded check of
    // "may never match again").
    for (seed, mut rng) in seeds(256) {
        let (ere, trace) = (ere(&mut rng), trace(&mut rng));
        let dfa = compile(&ere, seed);
        if dfa.classify(&trace) == Verdict::Fail {
            let mut stack: Vec<Vec<EventId>> = vec![trace.clone()];
            for _ in 0..4 {
                let mut next = Vec::new();
                for t in &stack {
                    assert_ne!(dfa.classify(t), Verdict::Match, "seed {seed}: trace {t:?}");
                    for e in 0..EVENTS {
                        let mut t2 = t.clone();
                        t2.push(EventId(e));
                        next.push(t2);
                    }
                }
                stack = next;
            }
        }
    }
}

#[test]
fn unknown_verdict_has_a_bounded_witness_or_deep_future() {
    // ? ⇒ some extension can still match: check that the DFA's
    // can-reach analysis agrees with a bounded search of depth equal
    // to the state count (pumping bound).
    for (seed, mut rng) in seeds(256) {
        let (ere, trace) = (ere(&mut rng), trace(&mut rng));
        let dfa = compile(&ere, seed);
        if dfa.classify(&trace) == Verdict::Unknown {
            let bound = dfa.state_count() as usize + 1;
            let mut found = false;
            let mut frontier = vec![trace.clone()];
            'outer: for _ in 0..bound {
                let mut next = Vec::new();
                for t in &frontier {
                    if dfa.classify(t) == Verdict::Match {
                        found = true;
                        break 'outer;
                    }
                    for e in 0..EVENTS {
                        let mut t2 = t.clone();
                        t2.push(EventId(e));
                        next.push(t2);
                    }
                }
                frontier = next;
                // Keep the search exhaustive but small: dedup the
                // frontier by DFA state.
                let mut seen = std::collections::HashSet::new();
                frontier.retain(|t| {
                    let mut s = dfa.initial();
                    for &e in t {
                        s = dfa.step(s, e);
                    }
                    seen.insert(s)
                });
            }
            assert!(found, "seed {seed}: ? verdict but no match within the pumping bound");
        }
    }
}

#[test]
fn minimization_preserves_verdicts_on_random_eres() {
    for (seed, mut rng) in seeds(128) {
        let (ere, trace) = (ere(&mut rng), trace(&mut rng));
        let dfa = compile(&ere, seed);
        let min = rv_logic::minimize::minimize(&dfa);
        assert!(min.state_count() <= dfa.state_count(), "seed {seed}");
        assert_eq!(dfa.classify(&trace), min.classify(&trace), "seed {seed}");
    }
}

#[test]
fn minimization_preserves_coenable_sets_on_random_eres() {
    use rv_logic::verdict::GoalSet;
    for (seed, mut rng) in seeds(128) {
        let dfa = compile(&ere(&mut rng), seed);
        let min = rv_logic::minimize::minimize(&dfa);
        assert_eq!(dfa.coenable(GoalSet::MATCH), min.coenable(GoalSet::MATCH), "seed {seed}");
    }
}
