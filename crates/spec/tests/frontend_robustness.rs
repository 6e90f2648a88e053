//! Robustness of the spec-language front end: the lexer, parser, and
//! compiler must never panic — every input either compiles or produces a
//! spanned diagnostic — and diagnostics must point inside the source.
//! Each test runs a fixed battery of seeds; a failure names the seed that
//! reproduces it.

use rv_heap::SplitMix64;
use rv_spec::{parse, CompiledSpec};
use std::panic::AssertUnwindSafe;

const CASES: u64 = 512;

/// Runs `case` once per seed in `0..CASES`. A panic inside the front end
/// is the failure these tests look for, so it is re-raised with the seed
/// (the original message is printed above it).
fn for_each_seed(case: impl Fn(u64, &mut SplitMix64)) {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        std::panic::catch_unwind(AssertUnwindSafe(|| case(seed, &mut rng)))
            .unwrap_or_else(|_| panic!("seed {seed}: panicked (message above)"));
    }
}

/// Up to `max` characters: mostly ASCII (control characters included),
/// the rest any Unicode scalar value. Never a newline.
fn random_text(rng: &mut SplitMix64, max: usize) -> String {
    let len = rng.gen_range(max + 1);
    let mut out = String::with_capacity(len);
    while out.chars().count() < len {
        let c = if rng.chance(0.75) {
            char::from(rng.gen_range(0x80) as u8)
        } else {
            match char::from_u32(rng.gen_range(0x11_0000) as u32) {
                Some(c) => c,
                None => continue,
            }
        };
        if c != '\n' {
            out.push(c);
        }
    }
    out
}

/// Between `min` and `max - 1` tokens drawn from `vocab`, space-joined.
fn token_soup(rng: &mut SplitMix64, vocab: &[&str], min: usize, max: usize) -> String {
    let len = min + rng.gen_range(max - min);
    let tokens: Vec<&str> = (0..len).map(|_| vocab[rng.gen_range(vocab.len())]).collect();
    tokens.join(" ")
}

/// Arbitrary text: never panic, always a value or a diagnostic.
#[test]
fn never_panics_on_arbitrary_input() {
    for_each_seed(|seed, rng| {
        let input = random_text(rng, 200);
        if let Err(diag) = CompiledSpec::from_source(&input) {
            assert!(diag.span.start <= input.len() + 1, "seed {seed}: span past the input");
            assert!(!diag.message.is_empty(), "seed {seed}: empty diagnostic");
            // Rendering against the source must not panic either.
            let _ = diag.render(&input);
        }
    });
}

/// Structured-ish inputs built from the language's own tokens: a much
/// denser source of near-miss programs than uniform text.
#[test]
fn never_panics_on_token_soup() {
    const VOCAB: [&str; 42] = [
        "event", "fsm", "ere", "ltl", "cfg", "report", "epsilon", "P", "C", "c", "a", "b", "(",
        ")", "{", "}", "[", "]", ",", ";", ":", "@", "->", "=>", "|", "||", "&", "&&", "*", "+",
        "~", "!", "[]", "<>", "(*)", "<*>", "[*]", "U", "S", "R", "X", "\"msg\"",
    ];
    for_each_seed(|_, rng| {
        let input = token_soup(rng, &VOCAB, 0, 60);
        if let Err(diag) = CompiledSpec::from_source(&input) {
            let _ = diag.render(&input);
        }
    });
}

/// Valid skeleton with a fuzzed ERE body: the parser must accept or
/// reject without panicking, and accepted specs must re-parse after
/// printing.
#[test]
fn fuzzed_ere_bodies_round_trip_when_valid() {
    const VOCAB: [&str; 10] = ["a", "b", "epsilon", "(", ")", "|", "&", "*", "+", "~"];
    for_each_seed(|seed, rng| {
        let body = token_soup(rng, &VOCAB, 1, 20);
        let src = format!("P(C c) {{ event a(c); event b(c); ere: {body} @match {{ }} }}");
        if let Ok(ast) = parse(&src) {
            let printed = rv_spec::print(&ast);
            let reparsed = parse(&printed);
            assert!(
                reparsed.is_ok(),
                "seed {seed}: printed form failed to re-parse:\n{printed}\n{:?}",
                reparsed.err()
            );
        }
    });
}
