//! Semantic analysis and compilation of parsed specs into runnable
//! property artifacts.
//!
//! Compilation resolves names, validates the property blocks, compiles each
//! block through the matching `rv-logic` plugin, derives the goal set from
//! the handlers, and runs the coenable analysis — producing everything the
//! parametric engine needs (§4): the event definition `D`, a monitor
//! factory, and the minimized ALIVENESS formula.

use std::collections::{HashMap, HashSet};

use rv_logic::cfg::{CfgMonitor, Grammar, Production, Symbol};
use rv_logic::coenable::CoenableSets;
use rv_logic::ere::Ere;
use rv_logic::fsm::FsmSpec;
use rv_logic::ltl::Ltl;
use rv_logic::{
    Aliveness, Alphabet, AnyFormalism, EventDef, EventId, GoalSet, ParamId, ParamSet, Verdict,
    MAX_PARAMS,
};

use crate::ast::{
    EreAst, FormalismKind, HandlerDecl, LtlAst, PropertyBlock, PropertyBody, SpecAst,
};
use crate::parser::parse;
use crate::span::{Diagnostic, Span};

/// Cap on DFA sizes produced by the ERE/LTL plugins. Real properties are
/// tiny; this only guards against pathological inputs.
const MAX_DFA_STATES: usize = 50_000;

/// A fully compiled specification: the shared event/parameter layer plus
/// one compiled property per block.
#[derive(Clone, Debug)]
pub struct CompiledSpec {
    /// Spec name.
    pub name: String,
    /// Declared parameter class names, by [`ParamId`].
    pub param_classes: Vec<String>,
    /// The event alphabet (ids follow declaration order).
    pub alphabet: Alphabet,
    /// The event definition `D`.
    pub event_def: EventDef,
    /// For each event (by id), its parameters in *declaration order* —
    /// the contract callers use to construct bindings positionally.
    pub event_params: Vec<Vec<ParamId>>,
    /// One compiled property per block, in source order.
    pub properties: Vec<CompiledProperty>,
}

/// One compiled property block.
#[derive(Clone, Debug)]
pub struct CompiledProperty {
    /// Which plugin produced it.
    pub kind: FormalismKind,
    /// The runnable monitor structure.
    pub formalism: AnyFormalism,
    /// Verdicts of interest (derived from the handlers).
    pub goal: GoalSet,
    /// Handlers, with the verdict that fires each.
    pub handlers: Vec<CompiledHandler>,
    /// The §3 coenable sets (`None` when the plugin cannot provide them
    /// for this goal — e.g. CFG with a `fail` goal; the engine then falls
    /// back to all-params-dead collection for this property).
    pub coenable: Option<CoenableSets>,
    /// The compiled ALIVENESS formula of §4.2.2.
    pub aliveness: Option<Aliveness>,
}

/// One compiled handler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledHandler {
    /// The verdict that fires this handler.
    pub on: Verdict,
    /// The handler's name in the source (`match`, `error`, …).
    pub name: String,
    /// The `report` message, if any.
    pub message: Option<String>,
}

impl CompiledSpec {
    /// Parses and compiles a spec from source text.
    ///
    /// # Errors
    ///
    /// Returns the first lexical, syntactic, or semantic [`Diagnostic`].
    pub fn from_source(source: &str) -> Result<CompiledSpec, Diagnostic> {
        compile(&parse(source)?)
    }
}

/// Compiles a parsed spec.
///
/// # Errors
///
/// Returns the first semantic [`Diagnostic`]: duplicate or undeclared
/// names, empty blocks, handler/goal mismatches, or plugin-level errors
/// (nondeterministic FSM, empty CFG language, oversized DFA, …).
pub fn compile(ast: &SpecAst) -> Result<CompiledSpec, Diagnostic> {
    // Parameters.
    if ast.params.is_empty() {
        return Err(Diagnostic::new(ast.name_span, "spec declares no parameters"));
    }
    if let Some(extra) = ast.params.get(MAX_PARAMS) {
        return Err(Diagnostic::new(
            extra.span,
            format!(
                "spec declares {} parameters; a binding holds at most {MAX_PARAMS}",
                ast.params.len()
            ),
        ));
    }
    let mut param_ids: HashMap<&str, ParamId> = HashMap::new();
    for (i, p) in ast.params.iter().enumerate() {
        if param_ids.insert(&p.name, ParamId(i as u8)).is_some() {
            return Err(Diagnostic::new(p.span, format!("duplicate parameter `{}`", p.name)));
        }
    }

    // Events.
    if ast.events.is_empty() {
        return Err(Diagnostic::new(ast.name_span, "spec declares no events"));
    }
    let mut alphabet = Alphabet::new();
    let mut params_of: Vec<ParamSet> = Vec::new();
    let mut event_params: Vec<Vec<ParamId>> = Vec::new();
    for ev in &ast.events {
        if alphabet.lookup(&ev.name).is_some() {
            return Err(Diagnostic::new(ev.span, format!("duplicate event `{}`", ev.name)));
        }
        alphabet.intern(&ev.name);
        let mut set = ParamSet::EMPTY;
        let mut seen = HashSet::new();
        for p in &ev.params {
            let id = *param_ids.get(p.as_str()).ok_or_else(|| {
                Diagnostic::new(
                    ev.span,
                    format!("event `{}` binds undeclared parameter `{p}`", ev.name),
                )
            })?;
            if !seen.insert(id) {
                return Err(Diagnostic::new(
                    ev.span,
                    format!("event `{}` binds parameter `{p}` twice", ev.name),
                ));
            }
            set = set.with(id);
        }
        event_params.push(ev.params.iter().map(|p| param_ids[p.as_str()]).collect());
        params_of.push(set);
    }
    let param_names: Vec<&str> = ast.params.iter().map(|p| p.name.as_str()).collect();
    let event_def = EventDef::new(&alphabet, &param_names, params_of);

    // Property blocks.
    if ast.blocks.is_empty() {
        return Err(Diagnostic::new(ast.name_span, "spec has no property block"));
    }
    let mut properties = Vec::new();
    for block in &ast.blocks {
        properties.push(compile_block(block, &alphabet, &event_def)?);
    }

    Ok(CompiledSpec {
        name: ast.name.clone(),
        param_classes: ast.params.iter().map(|p| p.class.clone()).collect(),
        alphabet,
        event_def,
        event_params,
        properties,
    })
}

fn compile_block(
    block: &PropertyBlock,
    alphabet: &Alphabet,
    event_def: &EventDef,
) -> Result<CompiledProperty, Diagnostic> {
    if block.handlers.is_empty() {
        return Err(Diagnostic::new(
            block.span,
            "property block has no handler, so it could never report anything",
        ));
    }
    let (formalism, goal, handlers) = match &block.body {
        PropertyBody::Fsm(states) => compile_fsm(block, states, alphabet)?,
        PropertyBody::Ere(e) => {
            let ere = lower_ere(e, alphabet)?;
            let dfa = ere.compile(alphabet, MAX_DFA_STATES).map_err(|err| {
                Diagnostic::new(block.span, format!("ere compilation failed: {err}"))
            })?;
            let dfa = rv_logic::minimize::minimize(&dfa);
            let (goal, handlers) =
                named_goal(&block.handlers, &[("match", Verdict::Match), ("fail", Verdict::Fail)])?;
            (AnyFormalism::Dfa(dfa), goal, handlers)
        }
        PropertyBody::Ltl(f) => {
            let ltl = lower_ltl(f, alphabet)?;
            let dfa = ltl.compile(alphabet, MAX_DFA_STATES).map_err(|err| {
                Diagnostic::new(block.span, format!("ltl compilation failed: {err}"))
            })?;
            let dfa = rv_logic::minimize::minimize(&dfa);
            let (goal, handlers) = named_goal(
                &block.handlers,
                &[("violation", Verdict::Fail), ("validation", Verdict::Match)],
            )?;
            (AnyFormalism::Dfa(dfa), goal, handlers)
        }
        PropertyBody::Cfg(rules) => {
            let grammar = lower_cfg(rules, alphabet)?;
            let monitor = CfgMonitor::compile(&grammar, alphabet).map_err(|err| {
                Diagnostic::new(block.span, format!("cfg compilation failed: {err}"))
            })?;
            let (goal, handlers) =
                named_goal(&block.handlers, &[("match", Verdict::Match), ("fail", Verdict::Fail)])?;
            (AnyFormalism::Cfg(monitor), goal, handlers)
        }
    };
    use rv_logic::Formalism as _;
    let coenable = formalism.coenable(goal);
    let aliveness = coenable.as_ref().map(|c| c.lift(event_def).aliveness());
    Ok(CompiledProperty { kind: block.kind, formalism, goal, handlers, coenable, aliveness })
}

/// FSM handlers are named after states; handler states report `Match`.
fn compile_fsm(
    block: &PropertyBlock,
    states: &[crate::ast::FsmStateAst],
    alphabet: &Alphabet,
) -> Result<(AnyFormalism, GoalSet, Vec<CompiledHandler>), Diagnostic> {
    let state_names: HashSet<&str> = states.iter().map(|s| s.name.as_str()).collect();
    let mut goal_states: HashSet<&str> = HashSet::new();
    let mut handlers = Vec::new();
    for h in &block.handlers {
        if !state_names.contains(h.name.as_str()) {
            return Err(Diagnostic::new(
                h.span,
                format!("fsm handler `@{}` names no state of the machine", h.name),
            ));
        }
        goal_states.insert(&h.name);
        handlers.push(CompiledHandler {
            on: Verdict::Match,
            name: h.name.clone(),
            message: h.message.clone(),
        });
    }
    let mut spec = FsmSpec::new();
    for st in states {
        let verdict =
            if goal_states.contains(st.name.as_str()) { Verdict::Match } else { Verdict::Unknown };
        let transitions: Vec<(&str, &str)> =
            st.transitions.iter().map(|(e, t)| (e.as_str(), t.as_str())).collect();
        spec.state(&st.name, verdict, &transitions);
    }
    let dfa = spec.compile(alphabet).map_err(|err| {
        // Re-attach the span of the offending state when we can find it.
        let span = states
            .iter()
            .find(|s| err.to_string().contains(&format!("`{}`", s.name)))
            .map_or(block.span, |s| s.span);
        Diagnostic::new(span, format!("fsm compilation failed: {err}"))
    })?;
    Ok((AnyFormalism::Dfa(dfa), GoalSet::MATCH, handlers))
}

/// Resolves handler names against the plugin's verdict table and merges the
/// goal set.
fn named_goal(
    decls: &[HandlerDecl],
    table: &[(&str, Verdict)],
) -> Result<(GoalSet, Vec<CompiledHandler>), Diagnostic> {
    let mut goal = GoalSet::empty();
    let mut handlers = Vec::new();
    for h in decls {
        let verdict =
            table.iter().find(|(n, _)| *n == h.name).map(|(_, v)| *v).ok_or_else(|| {
                let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
                Diagnostic::new(
                    h.span,
                    format!(
                        "unknown handler `@{}`; this plugin supports {}",
                        h.name,
                        names.join(", ")
                    ),
                )
            })?;
        goal = goal.with(verdict);
        handlers.push(CompiledHandler {
            on: verdict,
            name: h.name.clone(),
            message: h.message.clone(),
        });
    }
    Ok((goal, handlers))
}

fn resolve_event(name: &str, span: Span, alphabet: &Alphabet) -> Result<EventId, Diagnostic> {
    alphabet.lookup(name).ok_or_else(|| Diagnostic::new(span, format!("undeclared event `{name}`")))
}

fn lower_ere(ast: &EreAst, alphabet: &Alphabet) -> Result<Ere, Diagnostic> {
    Ok(match ast {
        EreAst::Event(name, span) => Ere::event(resolve_event(name, *span, alphabet)?),
        EreAst::Epsilon(_) => Ere::epsilon(),
        EreAst::Concat(a, b) => lower_ere(a, alphabet)?.concat(lower_ere(b, alphabet)?),
        EreAst::Union(a, b) => Ere::union([lower_ere(a, alphabet)?, lower_ere(b, alphabet)?]),
        EreAst::Inter(a, b) => Ere::inter([lower_ere(a, alphabet)?, lower_ere(b, alphabet)?]),
        EreAst::Star(a) => lower_ere(a, alphabet)?.star(),
        EreAst::Plus(a) => lower_ere(a, alphabet)?.plus(),
        EreAst::Not(a) => lower_ere(a, alphabet)?.not(),
    })
}

fn lower_ltl(ast: &LtlAst, alphabet: &Alphabet) -> Result<Ltl, Diagnostic> {
    Ok(match ast {
        LtlAst::Event(name, span) => Ltl::Event(resolve_event(name, *span, alphabet)?),
        LtlAst::True(_) => Ltl::True,
        LtlAst::False(_) => Ltl::False,
        LtlAst::Not(a) => lower_ltl(a, alphabet)?.negated(),
        LtlAst::And(a, b) => lower_ltl(a, alphabet)?.and(lower_ltl(b, alphabet)?),
        LtlAst::Or(a, b) => lower_ltl(a, alphabet)?.or(lower_ltl(b, alphabet)?),
        LtlAst::Implies(a, b) => lower_ltl(a, alphabet)?.implies(lower_ltl(b, alphabet)?),
        LtlAst::Always(a) => lower_ltl(a, alphabet)?.always(),
        LtlAst::Eventually(a) => lower_ltl(a, alphabet)?.eventually(),
        LtlAst::Next(a) => Ltl::Next(Box::new(lower_ltl(a, alphabet)?)),
        LtlAst::Until(a, b) => {
            Ltl::Until(Box::new(lower_ltl(a, alphabet)?), Box::new(lower_ltl(b, alphabet)?))
        }
        LtlAst::Release(a, b) => {
            Ltl::Release(Box::new(lower_ltl(a, alphabet)?), Box::new(lower_ltl(b, alphabet)?))
        }
        LtlAst::Prev(a) => lower_ltl(a, alphabet)?.prev(),
        LtlAst::Since(a, b) => {
            Ltl::Since(Box::new(lower_ltl(a, alphabet)?), Box::new(lower_ltl(b, alphabet)?))
        }
        LtlAst::Once(a) => Ltl::Once(Box::new(lower_ltl(a, alphabet)?)),
        LtlAst::Historically(a) => Ltl::Historically(Box::new(lower_ltl(a, alphabet)?)),
    })
}

fn lower_cfg(rules: &[crate::ast::RuleAst], alphabet: &Alphabet) -> Result<Grammar, Diagnostic> {
    // Nonterminals are the left-hand sides, in first-appearance order; the
    // first is the start symbol ("the first symbol seen is always assumed
    // the start symbol").
    let mut nt_index: HashMap<&str, u32> = HashMap::new();
    let mut nt_names: Vec<&str> = Vec::new();
    for r in rules {
        if !nt_index.contains_key(r.lhs.as_str()) {
            nt_index.insert(&r.lhs, nt_names.len() as u32);
            nt_names.push(&r.lhs);
        }
    }
    let mut productions = Vec::new();
    for r in rules {
        let lhs = nt_index[r.lhs.as_str()];
        for alt in &r.alts {
            let mut rhs = Vec::with_capacity(alt.len());
            for sym in alt {
                if let Some(&nt) = nt_index.get(sym.as_str()) {
                    rhs.push(Symbol::Nt(nt));
                } else if let Some(e) = alphabet.lookup(sym) {
                    rhs.push(Symbol::T(e));
                } else {
                    return Err(Diagnostic::new(
                        r.span,
                        format!("`{sym}` is neither a nonterminal nor a declared event"),
                    ));
                }
            }
            productions.push(Production { lhs, rhs });
        }
    }
    Grammar::new(&nt_names, 0, productions)
        .map_err(|err| Diagnostic::new(rules[0].span, format!("invalid grammar: {err}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_logic::Formalism as _;

    const UNSAFE_ITER_SRC: &str = r#"
        UnsafeIter(Collection c, Iterator i) {
            event create(c, i);
            event update(c);
            event next(i);
            ere: update* create next* update+ next
            @match { report "improper Concurrent Modification found!"; }
        }
    "#;

    #[test]
    fn compiles_unsafe_iter_with_the_papers_coenable_sets() {
        let spec = CompiledSpec::from_source(UNSAFE_ITER_SRC).unwrap();
        assert_eq!(spec.name, "UnsafeIter");
        assert_eq!(spec.param_classes, vec!["Collection", "Iterator"]);
        let prop = &spec.properties[0];
        assert_eq!(prop.goal, GoalSet::MATCH);
        let co = prop.coenable.as_ref().unwrap();
        let update = spec.alphabet.lookup("update").unwrap();
        assert_eq!(co.of(update).len(), 3, "the §3 worked example");
        // ALIVENESS(update) minimizes to live_i.
        let aliveness = prop.aliveness.as_ref().unwrap();
        let i = spec.event_def.lookup_param("i").unwrap();
        assert_eq!(aliveness.masks(update), &[ParamSet::singleton(i)]);
    }

    #[test]
    fn compiles_figure_2_both_blocks() {
        let spec = CompiledSpec::from_source(crate::parser::HASNEXT_SRC).unwrap();
        assert_eq!(spec.properties.len(), 2);
        let fsm = &spec.properties[0];
        let ltl = &spec.properties[1];
        assert_eq!(fsm.goal, GoalSet::MATCH);
        assert_eq!(ltl.goal, GoalSet::FAIL);
        // Both blocks agree on the bad trace `next`.
        let next = spec.alphabet.lookup("next").unwrap();
        for (prop, bad) in [(fsm, Verdict::Match), (ltl, Verdict::Fail)] {
            let mut st = prop.formalism.initial_state();
            assert_eq!(prop.formalism.step(&mut st, next), bad);
        }
        assert_eq!(fsm.handlers[0].name, "error");
        assert_eq!(fsm.handlers[0].on, Verdict::Match);
        assert_eq!(ltl.handlers[0].on, Verdict::Fail);
        assert_eq!(fsm.handlers[0].message.as_deref(), Some("improper Iterator use found!"));
    }

    #[test]
    fn compiles_figure_4_cfg_with_fail_goal() {
        let src = r#"
            SafeLock(Lock l, Thread t) {
                event acquire(l, t);
                event release(l, t);
                event begin(t);
                event end(t);
                cfg: S -> S begin S end | S acquire S release | epsilon
                @fail { report "improper Lock use found!"; }
            }
        "#;
        let spec = CompiledSpec::from_source(src).unwrap();
        let prop = &spec.properties[0];
        assert_eq!(prop.goal, GoalSet::FAIL);
        // CFG coenable is only defined for {match}: engine falls back.
        assert!(prop.coenable.is_none());
        // The monitor itself still works.
        let acq = spec.alphabet.lookup("acquire").unwrap();
        let rel = spec.alphabet.lookup("release").unwrap();
        let mut st = prop.formalism.initial_state();
        assert_eq!(prop.formalism.step(&mut st, acq), Verdict::Unknown);
        assert_eq!(prop.formalism.step(&mut st, rel), Verdict::Match);
    }

    #[test]
    fn cfg_match_goal_gets_coenable_sets() {
        let src = r#"
            Balanced(Lock l) {
                event acquire(l);
                event release(l);
                cfg: S -> S acquire S release | epsilon
                @match { }
            }
        "#;
        let spec = CompiledSpec::from_source(src).unwrap();
        let prop = &spec.properties[0];
        assert!(prop.coenable.is_some());
        let acq = spec.alphabet.lookup("acquire").unwrap();
        let rel = spec.alphabet.lookup("release").unwrap();
        // Every continuation after acquire contains release.
        for s in prop.coenable.as_ref().unwrap().of(acq).sets() {
            assert!(s.contains(rel));
        }
    }

    #[test]
    fn rejects_undeclared_event_in_pattern() {
        let err =
            CompiledSpec::from_source("P(C c) { event a(c); ere: a zap @match {} }").unwrap_err();
        assert!(err.message.contains("undeclared event `zap`"), "{}", err.message);
    }

    #[test]
    fn rejects_undeclared_param_in_event() {
        let err = CompiledSpec::from_source("P(C c) { event a(x); ere: a @match {} }").unwrap_err();
        assert!(err.message.contains("undeclared parameter `x`"), "{}", err.message);
    }

    #[test]
    fn rejects_duplicate_params_and_events() {
        let err =
            CompiledSpec::from_source("P(C c, D c) { event a(c); ere: a @match {} }").unwrap_err();
        assert!(err.message.contains("duplicate parameter"), "{}", err.message);
        let err = CompiledSpec::from_source("P(C c) { event a(c); event a(c); ere: a @match {} }")
            .unwrap_err();
        assert!(err.message.contains("duplicate event"), "{}", err.message);
    }

    #[test]
    fn rejects_handlerless_block() {
        let err = CompiledSpec::from_source("P(C c) { event a(c); ere: a }").unwrap_err();
        assert!(err.message.contains("no handler"), "{}", err.message);
    }

    #[test]
    fn rejects_unknown_handler_name() {
        let err = CompiledSpec::from_source("P(C c) { event a(c); ere: a @boom {} }").unwrap_err();
        assert!(err.message.contains("unknown handler `@boom`"), "{}", err.message);
    }

    #[test]
    fn rejects_fsm_handler_for_missing_state() {
        let err = CompiledSpec::from_source("P(C c) { event a(c); fsm: s0 [ a -> s0 ] @nope {} }")
            .unwrap_err();
        assert!(err.message.contains("names no state"), "{}", err.message);
    }

    #[test]
    fn rejects_event_binding_param_twice() {
        let err =
            CompiledSpec::from_source("P(C c) { event a(c, c); ere: a @match {} }").unwrap_err();
        assert!(err.message.contains("twice"), "{}", err.message);
    }

    #[test]
    fn diagnostics_render_with_position() {
        let src = "P(C c) {\n  event a(c);\n  ere: a zap\n  @match {}\n}";
        let err = CompiledSpec::from_source(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.starts_with("3:"), "{rendered}");
    }
}
