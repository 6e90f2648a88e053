//! Seeded property tests for the LTL plugin: classical equivalences must
//! hold verdict-for-verdict on the compiled monitors, and monitoring
//! verdicts must behave monotonically (fail/match are absorbing). Each
//! test runs a fixed battery of seeds; a failure names the seed that
//! reproduces it.

use rv_heap::SplitMix64;
use rv_logic::dfa::Dfa;
use rv_logic::event::{Alphabet, EventId};
use rv_logic::ltl::Ltl;
use rv_logic::verdict::Verdict;

const EVENTS: u16 = 3;
const CASES: u64 = 128;

fn alphabet() -> Alphabet {
    Alphabet::from_names(&["p", "q", "r"])
}

/// One generator per seed in `0..CASES`, paired with its seed.
fn seeds() -> impl Iterator<Item = (u64, SplitMix64)> {
    (0..CASES).map(|seed| (seed, SplitMix64::new(seed)))
}

fn event(rng: &mut SplitMix64) -> EventId {
    EventId(rng.gen_range(EVENTS.into()) as u16)
}

/// A random *future-only* formula of depth at most `depth` (past
/// operators are covered separately: negation under past is
/// value-level, not dualized).
fn random_future(rng: &mut SplitMix64, depth: u32) -> Ltl {
    if depth == 0 || rng.chance(0.3) {
        return match rng.gen_range(3) {
            0 => Ltl::Event(event(rng)),
            1 => Ltl::True,
            _ => Ltl::False,
        };
    }
    let op = rng.gen_range(9);
    let mut sub = || random_future(rng, depth - 1);
    match op {
        0 => sub().negated(),
        1 => sub().and(sub()),
        2 => sub().or(sub()),
        3 => sub().implies(sub()),
        4 => Ltl::Next(Box::new(sub())),
        5 => Ltl::Until(Box::new(sub()), Box::new(sub())),
        6 => Ltl::Release(Box::new(sub()), Box::new(sub())),
        7 => sub().always(),
        _ => sub().eventually(),
    }
}

fn future_ltl(rng: &mut SplitMix64) -> Ltl {
    random_future(rng, 4)
}

/// A random past-time body over atoms, of depth at most `depth`.
fn random_past(rng: &mut SplitMix64, depth: u32) -> Ltl {
    if depth == 0 || rng.chance(0.3) {
        return Ltl::Event(event(rng));
    }
    let op = rng.gen_range(7);
    let mut sub = || random_past(rng, depth - 1);
    match op {
        0 => sub().negated(),
        1 => sub().and(sub()),
        2 => sub().or(sub()),
        3 => sub().prev(),
        4 => Ltl::Since(Box::new(sub()), Box::new(sub())),
        5 => Ltl::Once(Box::new(sub())),
        _ => Ltl::Historically(Box::new(sub())),
    }
}

/// A safety wrapper around a past body: `[](atom => past-body)`.
fn past_ltl(rng: &mut SplitMix64) -> Ltl {
    let atom = Ltl::Event(event(rng));
    atom.implies(random_past(rng, 3)).always()
}

fn trace(rng: &mut SplitMix64) -> Vec<EventId> {
    let len = rng.gen_range(7);
    (0..len).map(|_| event(rng)).collect()
}

fn compile(f: &Ltl, seed: u64) -> Dfa {
    f.compile(&alphabet(), 20_000).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"))
}

fn verdicts_agree(lhs: &Ltl, rhs: &Ltl, trace: &[EventId], seed: u64) {
    let (dl, dr) = (compile(lhs, seed), compile(rhs, seed));
    assert_eq!(dl.classify(trace), dr.classify(trace), "seed {seed}: trace {trace:?}");
}

#[test]
fn double_negation() {
    for (seed, mut rng) in seeds() {
        let (f, trace) = (future_ltl(&mut rng), trace(&mut rng));
        verdicts_agree(&f.clone().negated().negated(), &f, &trace, seed);
    }
}

#[test]
fn until_release_duality() {
    for (seed, mut rng) in seeds() {
        let (a, b, trace) = (future_ltl(&mut rng), future_ltl(&mut rng), trace(&mut rng));
        let lhs = Ltl::Until(Box::new(a.clone()), Box::new(b.clone())).negated();
        let rhs = Ltl::Release(Box::new(a.negated()), Box::new(b.negated()));
        verdicts_agree(&lhs, &rhs, &trace, seed);
    }
}

#[test]
fn always_eventually_duality() {
    for (seed, mut rng) in seeds() {
        let (f, trace) = (future_ltl(&mut rng), trace(&mut rng));
        let lhs = f.clone().always().negated();
        let rhs = f.negated().eventually();
        verdicts_agree(&lhs, &rhs, &trace, seed);
    }
}

#[test]
fn eventually_is_true_until() {
    for (seed, mut rng) in seeds() {
        let (f, trace) = (future_ltl(&mut rng), trace(&mut rng));
        let lhs = f.clone().eventually();
        let rhs = Ltl::Until(Box::new(Ltl::True), Box::new(f));
        verdicts_agree(&lhs, &rhs, &trace, seed);
    }
}

#[test]
fn always_is_false_release() {
    for (seed, mut rng) in seeds() {
        let (f, trace) = (future_ltl(&mut rng), trace(&mut rng));
        let lhs = f.clone().always();
        let rhs = Ltl::Release(Box::new(Ltl::False), Box::new(f));
        verdicts_agree(&lhs, &rhs, &trace, seed);
    }
}

#[test]
fn de_morgan() {
    for (seed, mut rng) in seeds() {
        let (a, b, trace) = (future_ltl(&mut rng), future_ltl(&mut rng), trace(&mut rng));
        let lhs = a.clone().and(b.clone()).negated();
        let rhs = a.negated().or(b.negated());
        verdicts_agree(&lhs, &rhs, &trace, seed);
    }
}

#[test]
fn verdicts_are_absorbing() {
    for (seed, mut rng) in seeds() {
        let (f, trace, e) = (future_ltl(&mut rng), trace(&mut rng), event(&mut rng));
        let d = compile(&f, seed);
        let v = d.classify(&trace);
        if v == Verdict::Fail || v == Verdict::Match {
            let mut t2 = trace.clone();
            t2.push(e);
            assert_eq!(d.classify(&t2), v, "seed {seed}");
        }
    }
}

#[test]
fn past_safety_formulas_compile_and_are_absorbing() {
    for (seed, mut rng) in seeds() {
        let (f, trace, e) = (past_ltl(&mut rng), trace(&mut rng), event(&mut rng));
        let d = compile(&f, seed);
        if d.classify(&trace) == Verdict::Fail {
            let mut t2 = trace.clone();
            t2.push(e);
            assert_eq!(d.classify(&t2), Verdict::Fail, "seed {seed}");
        }
    }
}

#[test]
fn once_is_true_since() {
    // <*>p ≡ true S p, checked through the []( r => · ) safety wrapper.
    let p = Ltl::Event(EventId(0));
    let r = Ltl::Event(EventId(2));
    let lhs = r.clone().implies(Ltl::Once(Box::new(p.clone()))).always();
    let rhs = r.implies(Ltl::Since(Box::new(Ltl::True), Box::new(p))).always();
    for (seed, mut rng) in seeds() {
        let trace = trace(&mut rng);
        verdicts_agree(&lhs, &rhs, &trace, seed);
    }
}

#[test]
fn historically_dual_of_once() {
    // [*]p ≡ ¬<*>¬p under the safety wrapper.
    let p = Ltl::Event(EventId(0));
    let r = Ltl::Event(EventId(2));
    let lhs = r.clone().implies(Ltl::Historically(Box::new(p.clone()))).always();
    let rhs = r.implies(Ltl::Once(Box::new(p.negated())).negated()).always();
    for (seed, mut rng) in seeds() {
        let trace = trace(&mut rng);
        verdicts_agree(&lhs, &rhs, &trace, seed);
    }
}
