//! DRAT-style proof logging and an independent proof checker.
//!
//! The solver (see [`Solver::start_proof_log`](crate::Solver::start_proof_log))
//! can record every clause addition and deletion it performs — learned clauses,
//! probing units, subsumption/strengthening rewrites, variable-elimination
//! resolvents, and database reductions — into a [`ProofLog`]. The log is a
//! checkable artifact: [`check`] replays it with an independent unit-propagation
//! engine and verifies that every added lemma is a *reverse unit propagation*
//! (RUP) consequence of the clauses that precede it, and that the log ends in a
//! root-level conflict (a refutation). [`trim`] additionally tracks which
//! lemmas the refutation actually depends on and drops the rest.
//!
//! The checker shares no search code with the solver: it has its own watched
//! literal scheme, its own trail, and no heuristics, so a bug in the solver's
//! propagation, clause GC, or inprocessing cannot also hide in the checker.
//!
//! # Trust story
//!
//! An `Unsat` answer from [`Solver::solve_with_assumptions`](crate::Solver::solve_with_assumptions)
//! is certified when `check(&log, &assumptions)` succeeds: the log's axiom
//! events reproduce the clause database the query ran against, every lemma is
//! RUP with respect to the preceding events, and unit propagation from the
//! assumption literals derives a conflict. Deletion events are advisory — the
//! checker may ignore any of them without losing soundness, because keeping
//! extra implied clauses only strengthens unit propagation.
//!
//! # Examples
//!
//! ```
//! use sat::{Solver, SatResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var().positive();
//! let y = solver.new_var().positive();
//! solver.start_proof_log();
//! solver.add_clause([x, y]);
//! solver.add_clause([x, !y]);
//! solver.add_clause([!x, y]);
//! solver.add_clause([!x, !y]);
//! assert!(matches!(solver.solve(), SatResult::Unsat));
//! let log = solver.take_proof_log().unwrap();
//! let report = sat::drat::check(&log, &[]).unwrap();
//! assert_eq!(report.axioms, 4);
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::lit::{LBool, Lit};

/// Kind of a single proof-log event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofStep {
    /// An original problem clause, part of the formula being refuted.
    Axiom,
    /// A derived lemma; must be a RUP consequence of the preceding events.
    Add,
    /// Deletion of a previously present clause (advisory; may be ignored).
    Delete,
}

/// One event header in the flat event stream.
#[derive(Debug, Clone, Copy)]
struct EventHeader {
    step: ProofStep,
    start: u32,
    len: u32,
}

/// A DRAT-style proof log: a flat sequence of clause addition/deletion events.
///
/// Axiom events reproduce the clause database at the time logging started plus
/// every clause added afterwards through [`Solver::add_clause`](crate::Solver::add_clause);
/// `Add` events record derived lemmas (learned clauses, probing units,
/// strengthenings, elimination resolvents); `Delete` events record clauses the
/// solver dropped. Storage is flat (one literal pool plus fixed-size headers)
/// so cloning and serializing certificates stays cheap.
#[derive(Debug, Clone, Default)]
pub struct ProofLog {
    lits: Vec<Lit>,
    events: Vec<EventHeader>,
    axioms: usize,
    lemmas: usize,
    deletions: usize,
}

impl ProofLog {
    /// Creates an empty proof log.
    pub fn new() -> Self {
        ProofLog::default()
    }

    /// Appends one event to the log.
    pub fn push(&mut self, step: ProofStep, lits: &[Lit]) {
        let start = u32::try_from(self.lits.len()).expect("proof log literal pool overflow");
        let len = u32::try_from(lits.len()).expect("proof log clause too long");
        self.lits.extend_from_slice(lits);
        self.events.push(EventHeader { step, start, len });
        match step {
            ProofStep::Axiom => self.axioms += 1,
            ProofStep::Add => self.lemmas += 1,
            ProofStep::Delete => self.deletions += 1,
        }
    }

    /// Total number of events in the log.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of axiom (original clause) events.
    pub fn num_axioms(&self) -> usize {
        self.axioms
    }

    /// Number of derived-lemma events.
    pub fn num_lemmas(&self) -> usize {
        self.lemmas
    }

    /// Number of deletion events.
    pub fn num_deletions(&self) -> usize {
        self.deletions
    }

    /// Total number of literals stored across all events.
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// Approximate in-memory size of the log in bytes.
    pub fn size_bytes(&self) -> usize {
        self.lits.len() * std::mem::size_of::<Lit>()
            + self.events.len() * std::mem::size_of::<EventHeader>()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The literals of event `i`.
    fn event_lits(&self, i: usize) -> &[Lit] {
        let h = self.events[i];
        &self.lits[h.start as usize..(h.start + h.len) as usize]
    }

    /// Iterates over events as `(step, literals)` pairs in log order.
    pub fn events(&self) -> impl Iterator<Item = (ProofStep, &[Lit])> + '_ {
        self.events.iter().map(move |h| {
            let lits = &self.lits[h.start as usize..(h.start + h.len) as usize];
            (h.step, lits)
        })
    }

    /// Renders the axiom events as a DIMACS CNF document.
    pub fn to_dimacs(&self) -> String {
        let mut max_var = 0i64;
        for (step, lits) in self.events() {
            if step == ProofStep::Axiom {
                for l in lits {
                    max_var = max_var.max(l.to_dimacs().abs());
                }
            }
        }
        let mut out = format!("p cnf {} {}\n", max_var, self.axioms);
        for (step, lits) in self.events() {
            if step == ProofStep::Axiom {
                for l in lits {
                    out.push_str(&l.to_dimacs().to_string());
                    out.push(' ');
                }
                out.push_str("0\n");
            }
        }
        out
    }

    /// Renders the lemma and deletion events in textual DRAT format.
    pub fn to_drat(&self) -> String {
        let mut out = String::new();
        for (step, lits) in self.events() {
            match step {
                ProofStep::Axiom => continue,
                ProofStep::Add => {}
                ProofStep::Delete => out.push_str("d "),
            }
            for l in lits {
                out.push_str(&l.to_dimacs().to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }
}

/// Statistics from a successful proof check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Axiom events inserted.
    pub axioms: usize,
    /// Lemma events whose RUP check was performed.
    pub lemmas_checked: usize,
    /// Deletion events processed (matched or ignored).
    pub deletions: usize,
    /// Unit propagations performed by the checker.
    pub propagations: u64,
    /// Index of the event during which the refutation was found, or `None`
    /// when the assumption literals alone were contradictory.
    pub refutation_event: Option<usize>,
    /// Events after the refutation that were not replayed.
    pub skipped_events: usize,
}

/// Reasons a proof log can fail to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Lemma at this event index is not a RUP consequence of the preceding
    /// events.
    NotRup {
        /// Index of the offending event in the log.
        event: usize,
    },
    /// The whole log replayed without ever reaching a root-level conflict.
    NoRefutation,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::NotRup { event } => {
                write!(f, "lemma at event {event} is not a RUP consequence")
            }
            CheckError::NoRefutation => write!(f, "proof log ends without a refutation"),
        }
    }
}

impl std::error::Error for CheckError {}

const NO_REASON: u32 = u32::MAX;
/// Clause-origin marker for assumption units (not tied to a log event).
const ASSUMPTION_EVENT: u32 = u32::MAX;
/// Marks an event that stored or removed no clause, and ends a chain of the
/// deletion index.
const NO_CLAUSE: u32 = u32::MAX;
/// Tag bit of a [`Watcher`] whose clause has exactly two literals.
const BINARY: u32 = 1 << 31;

/// One entry of a literal's watch list.
#[derive(Clone, Copy)]
struct Watcher {
    /// Clause id, with [`BINARY`] set for two-literal clauses.
    cref: u32,
    /// A literal of the clause that is tested before the clause is read:
    /// while it is true the clause is satisfied and the watcher stays put.
    /// For a binary clause it is the other literal, so the clause propagates
    /// or conflicts without touching the literal pool.
    blocker: Lit,
}

/// Outcome of inserting a clause into the checker database.
enum Insert {
    Ok,
    /// Root-level conflict: the formula so far is refuted. Under dependency
    /// tracking the clauses involved are left in `Checker::deps`.
    Refuted,
}

/// Finds the stored clause a deletion event names. Built only for logs that
/// contain deletions.
struct DeletionIndex {
    /// FNV signature of a clause's sorted literal codes → the newest stored
    /// clause with that signature.
    heads: HashMap<u64, u32>,
    /// Per clause: the next older clause with the same signature, or
    /// [`NO_CLAUSE`]. Dead clauses stay chained and are skipped.
    next: Vec<u32>,
}

struct Checker {
    /// Literals of every stored clause, back to back.
    pool: Vec<Lit>,
    /// Per clause: offset and length of its literals in `pool`.
    spans: Vec<(u32, u32)>,
    /// Per clause: neither deleted nor retracted.
    alive: Vec<bool>,
    /// Per clause: the log event that stored it, or [`ASSUMPTION_EVENT`].
    event: Vec<u32>,
    /// Per clause: bit `i` is set once the watcher on literal `i` was dropped
    /// lazily while the clause was dead, so [`Checker::revive`] can re-attach
    /// exactly the missing watchers.
    dropped: Vec<u8>,
    /// Literal-code-indexed watch lists: a clause sits in the lists of its
    /// first two literals.
    watches: Vec<Vec<Watcher>>,
    /// Literal-code-indexed truth values.
    values: Vec<LBool>,
    /// Per variable: the clause that propagated it, or [`NO_REASON`].
    reason: Vec<u32>,
    trail: Vec<Lit>,
    qhead: usize,
    index: Option<DeletionIndex>,
    track_deps: bool,
    /// Clauses behind the last conflict or RUP check (under `track_deps`).
    deps: Vec<u32>,
    // Scratch buffers reused across events.
    seen: Vec<bool>,
    stack: Vec<usize>,
    visited: Vec<usize>,
    codes: Vec<u32>,
    propagations: u64,
}

fn clause_signature(sorted_codes: &[u32]) -> u64 {
    // FNV-1a over the sorted literal codes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in sorted_codes {
        h ^= u64::from(c);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fills `codes` with the sorted, deduplicated literal codes of `lits` and
/// returns their signature.
fn sorted_signature(codes: &mut Vec<u32>, lits: &[Lit]) -> u64 {
    codes.clear();
    codes.extend(lits.iter().map(|l| l.0));
    codes.sort_unstable();
    codes.dedup();
    clause_signature(codes)
}

/// Pool range of a clause's `(start, len)`.
fn pool_range((start, len): (u32, u32)) -> std::ops::Range<usize> {
    start as usize..(start + len) as usize
}

impl Checker {
    fn new(num_vars: usize, track_deps: bool, with_index: bool) -> Self {
        Checker {
            pool: Vec::new(),
            spans: Vec::new(),
            alive: Vec::new(),
            event: Vec::new(),
            dropped: Vec::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            values: vec![LBool::Undef; 2 * num_vars],
            reason: vec![NO_REASON; num_vars],
            trail: Vec::new(),
            qhead: 0,
            index: with_index.then(|| DeletionIndex {
                heads: HashMap::new(),
                next: Vec::new(),
            }),
            track_deps,
            deps: Vec::new(),
            seen: vec![false; if track_deps { num_vars } else { 0 }],
            stack: Vec::new(),
            visited: Vec::new(),
            codes: Vec::new(),
            propagations: 0,
        }
    }

    fn lits(&self, cid: u32) -> &[Lit] {
        &self.pool[pool_range(self.spans[cid as usize])]
    }

    fn value(&self, l: Lit) -> LBool {
        self.values[l.code()]
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        self.values[l.code()] = LBool::True;
        self.values[(!l).code()] = LBool::False;
        self.reason[l.var().index()] = reason;
        self.trail.push(l);
    }

    /// Pops the trail back to `len` assignments, un-assigning everything
    /// above it. Callers only unwind to fully propagated states.
    fn unwind_to(&mut self, len: usize) {
        for &l in &self.trail[len..] {
            self.values[l.code()] = LBool::Undef;
            self.values[(!l).code()] = LBool::Undef;
            self.reason[l.var().index()] = NO_REASON;
        }
        self.trail.truncate(len);
        self.qhead = len;
    }

    /// Whether the clause is the reason of a root assignment (MiniSat's
    /// locked test). Only a watched literal can have been propagated by the
    /// clause: the first one of a long clause, either one of a binary clause.
    fn is_reason(&self, cid: u32) -> bool {
        self.lits(cid)[..2]
            .iter()
            .any(|l| self.reason[l.var().index()] == cid)
    }

    /// Propagates to fixpoint; returns the conflicting clause id if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let false_lit = !self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let (mut i, mut j) = (0, 0);
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.values[w.blocker.code()] == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cid = w.cref & !BINARY;
                if !self.alive[cid as usize] {
                    // Dead: drop the watcher lazily, remembering which one.
                    let bit = if self.lits(cid)[0] == false_lit { 1 } else { 2 };
                    self.dropped[cid as usize] |= bit;
                    continue;
                }
                if w.cref & BINARY != 0 {
                    ws[j] = w;
                    j += 1;
                    if self.values[w.blocker.code()] == LBool::False {
                        conflict = Some(cid);
                        break;
                    }
                    self.enqueue(w.blocker, cid);
                    continue;
                }
                let c = &mut self.pool[pool_range(self.spans[cid as usize])];
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                let first = c[0];
                let kept = Watcher {
                    cref: cid,
                    blocker: first,
                };
                if first != w.blocker && self.values[first.code()] == LBool::True {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                for k in 2..c.len() {
                    let cand = c[k];
                    if self.values[cand.code()] != LBool::False {
                        c.swap(1, k);
                        self.watches[cand.code()].push(kept);
                        continue 'watchers;
                    }
                }
                ws[j] = kept;
                j += 1;
                if self.values[first.code()] == LBool::False {
                    conflict = Some(cid);
                    break;
                }
                self.enqueue(first, cid);
            }
            // Keep the watchers a conflict left unvisited.
            let rest = ws.len() - i;
            ws.copy_within(i.., j);
            ws.truncate(j + rest);
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Sets `deps` to clause `cid` plus every clause reachable from its
    /// literals through reason chains. A no-op unless `track_deps`.
    fn deps_of_clause(&mut self, cid: u32) {
        if !self.track_deps {
            return;
        }
        self.deps.clear();
        self.deps.push(cid);
        let lits = &self.pool[pool_range(self.spans[cid as usize])];
        self.stack.extend(lits.iter().map(|l| l.var().index()));
        self.close_deps();
    }

    /// Sets `deps` to the clauses behind the root assignment of `l`. A no-op
    /// unless `track_deps`.
    fn deps_of_lit(&mut self, l: Lit) {
        if !self.track_deps {
            return;
        }
        self.deps.clear();
        self.stack.push(l.var().index());
        self.close_deps();
    }

    /// Follows reason chains from the variables on `stack`, appending every
    /// reason clause to `deps`.
    fn close_deps(&mut self) {
        while let Some(v) = self.stack.pop() {
            if self.seen[v] {
                continue;
            }
            self.seen[v] = true;
            self.visited.push(v);
            let r = self.reason[v];
            if r != NO_REASON {
                self.deps.push(r);
                let lits = &self.pool[pool_range(self.spans[r as usize])];
                self.stack.extend(lits.iter().map(|l| l.var().index()));
            }
        }
        for &v in &self.visited {
            self.seen[v] = false;
        }
        self.visited.clear();
    }

    /// Marks the log events of the clauses in `deps`.
    fn mark_deps(&self, marked: &mut [bool]) {
        for &c in &self.deps {
            let e = self.event[c as usize];
            if e != ASSUMPTION_EVENT {
                marked[e as usize] = true;
            }
        }
    }

    /// Appends a clause to the store and returns its id.
    fn store(&mut self, lits: &[Lit], event: u32) -> u32 {
        let cid = u32::try_from(self.spans.len()).expect("checker clause count overflow");
        assert!(cid < BINARY, "checker clause count overflow");
        let start = u32::try_from(self.pool.len()).expect("checker literal pool overflow");
        let len = u32::try_from(lits.len()).expect("checker clause too long");
        self.pool.extend_from_slice(lits);
        self.spans.push((start, len));
        self.alive.push(true);
        self.event.push(event);
        self.dropped.push(0);
        if let Some(index) = &mut self.index {
            index.next.push(NO_CLAUSE);
        }
        cid
    }

    /// Inserts a clause at root level, propagating any resulting units.
    ///
    /// `lits` must already be deduplicated and tautology-free.
    fn insert(&mut self, lits: &[Lit], event: u32) -> Insert {
        // Positions of the first two non-false literals, and their count.
        let mut open = [0usize; 2];
        let mut num_open = 0;
        for (k, &l) in lits.iter().enumerate() {
            match self.value(l) {
                // Permanently satisfied at root; it can never propagate.
                LBool::True => return Insert::Ok,
                LBool::Undef => {
                    if num_open < 2 {
                        open[num_open] = k;
                    }
                    num_open += 1;
                }
                LBool::False => {}
            }
        }
        let cid = self.store(lits, event);
        match num_open {
            0 => {
                // Conflicting at root (also covers the empty clause).
                self.deps_of_clause(cid);
                Insert::Refuted
            }
            1 => {
                self.enqueue(lits[open[0]], cid);
                match self.propagate() {
                    Some(conflict) => {
                        self.deps_of_clause(conflict);
                        Insert::Refuted
                    }
                    None => Insert::Ok,
                }
            }
            _ => {
                // Watch the two non-false literals: move them to the front.
                let start = self.spans[cid as usize].0 as usize;
                let c = &mut self.pool[start..start + lits.len()];
                c.swap(0, open[0]);
                c.swap(1, open[1]);
                let (w0, w1) = (c[0], c[1]);
                let cref = if lits.len() == 2 { cid | BINARY } else { cid };
                self.watches[w0.code()].push(Watcher { cref, blocker: w1 });
                self.watches[w1.code()].push(Watcher { cref, blocker: w0 });
                if let Some(index) = &mut self.index {
                    let sig = sorted_signature(&mut self.codes, lits);
                    let older = index.heads.insert(sig, cid).unwrap_or(NO_CLAUSE);
                    index.next[cid as usize] = older;
                }
                Insert::Ok
            }
        }
    }

    /// RUP check of `lits` against the current database; on success the
    /// clauses used are left in `deps` (under `track_deps`).
    fn check_rup(&mut self, lits: &[Lit]) -> bool {
        // A lemma with a root-satisfied literal is trivially implied.
        if let Some(&l) = lits.iter().find(|&&l| self.value(l) == LBool::True) {
            self.deps_of_lit(l);
            return true;
        }
        let saved = self.trail.len();
        debug_assert_eq!(self.qhead, saved);
        for &l in lits {
            if self.value(l) == LBool::Undef {
                // A temporary assumption: no reason, undone below.
                self.values[l.code()] = LBool::False;
                self.values[(!l).code()] = LBool::True;
                self.trail.push(!l);
            }
        }
        let conflict = self.propagate();
        if let Some(c) = conflict {
            self.deps_of_clause(c);
        }
        self.unwind_to(saved);
        conflict.is_some()
    }

    /// Handles a deletion event: marks the newest live, unlocked clause with
    /// the same literal set dead and returns it. Unit, unmatched and
    /// reason-locked deletions are ignored (sound: keeping implied clauses
    /// only strengthens propagation).
    fn delete(&mut self, lits: &[Lit]) -> Option<u32> {
        let index = self.index.as_ref()?;
        let sig = sorted_signature(&mut self.codes, lits);
        if self.codes.len() <= 1 {
            return None;
        }
        let mut cid = *index.heads.get(&sig)?;
        while cid != NO_CLAUSE {
            let c = self.lits(cid);
            let same = c.len() == self.codes.len()
                && c.iter().all(|l| self.codes.binary_search(&l.0).is_ok());
            if same && self.alive[cid as usize] && !self.is_reason(cid) {
                self.alive[cid as usize] = false;
                return Some(cid);
            }
            cid = index.next[cid as usize];
        }
        None
    }

    /// Brings a deleted clause back, re-attaching the watchers dropped while
    /// it was dead. Only called by the backward sweep at the state the
    /// clause was deleted in, where its literal order is still the one it
    /// was deleted with, so both watches are valid again.
    fn revive(&mut self, cid: u32) {
        self.alive[cid as usize] = true;
        let dropped = std::mem::take(&mut self.dropped[cid as usize]);
        let lits = self.lits(cid);
        let (w0, w1) = (lits[0], lits[1]);
        let cref = if lits.len() == 2 { cid | BINARY } else { cid };
        if dropped & 1 != 0 {
            self.watches[w0.code()].push(Watcher { cref, blocker: w1 });
        }
        if dropped & 2 != 0 {
            self.watches[w1.code()].push(Watcher { cref, blocker: w0 });
        }
    }
}

/// Deduplicates literals in place (order-preserving); returns `true` when the
/// clause is a tautology (contains a literal and its negation).
fn dedup_clause(lits: &mut Vec<Lit>) -> bool {
    let mut out = 0;
    for i in 0..lits.len() {
        let l = lits[i];
        let prior = &lits[..out];
        if prior.contains(&l) {
            continue;
        }
        if prior.contains(&!l) {
            return true;
        }
        lits[out] = l;
        out += 1;
    }
    lits.truncate(out);
    false
}

fn max_var_index(log: &ProofLog, assumptions: &[Lit]) -> usize {
    let mut n = 0usize;
    for l in &log.lits {
        n = n.max(l.var().index() + 1);
    }
    for l in assumptions {
        n = n.max(l.var().index() + 1);
    }
    n
}

fn event_id(i: usize) -> u32 {
    u32::try_from(i).expect("proof log event index overflow")
}

/// Inserts the assumption literals as unit clauses — the certificate claims
/// "axioms AND assumptions" is unsatisfiable. Returns `true` when the
/// assumptions alone are contradictory.
fn assume(checker: &mut Checker, assumptions: &[Lit]) -> bool {
    for (k, &a) in assumptions.iter().enumerate() {
        if assumptions[..k].contains(&a) {
            continue;
        }
        if let Insert::Refuted = checker.insert(&[a], ASSUMPTION_EVENT) {
            return true;
        }
    }
    false
}

fn run_check(log: &ProofLog, assumptions: &[Lit]) -> Result<CheckReport, CheckError> {
    let num_vars = max_var_index(log, assumptions);
    let mut checker = Checker::new(num_vars, false, log.num_deletions() > 0);
    let mut report = CheckReport::default();
    let mut refuted: Option<Option<usize>> = assume(&mut checker, assumptions).then_some(None);
    let mut lits = Vec::new();
    for i in 0..log.num_events() {
        if refuted.is_some() {
            break;
        }
        let step = log.events[i].step;
        match step {
            ProofStep::Delete => {
                report.deletions += 1;
                checker.delete(log.event_lits(i));
                continue;
            }
            ProofStep::Axiom => report.axioms += 1,
            ProofStep::Add => report.lemmas_checked += 1,
        }
        lits.clear();
        lits.extend_from_slice(log.event_lits(i));
        if dedup_clause(&mut lits) {
            // Tautologies are valid and inert; skip them.
            continue;
        }
        if step == ProofStep::Add && !checker.check_rup(&lits) {
            return Err(CheckError::NotRup { event: i });
        }
        if let Insert::Refuted = checker.insert(&lits, event_id(i)) {
            refuted = Some(Some(i));
            report.skipped_events = log.num_events() - i - 1;
        }
    }

    report.propagations = checker.propagations;
    match refuted {
        Some(event) => {
            report.refutation_event = event;
            Ok(report)
        }
        None => Err(CheckError::NoRefutation),
    }
}

/// What the backward checking of [`mark_dependencies`] found and spent.
struct Marking {
    /// Per event: whether the refutation transitively depends on it.
    marked: Vec<bool>,
    /// The refutation event, `None` when the assumptions alone were
    /// contradictory.
    refutation_event: Option<usize>,
    rup_checks: u64,
    deletions_applied: u64,
    propagations: u64,
}

/// Marks the events the refutation transitively depends on (backward
/// checking, as in DRAT-trim).
///
/// The forward pass *inserts* every clause without RUP-checking it and
/// applies deletions exactly as [`check`] does — reason-locked clauses are
/// kept — recording which clause each event stored or deleted and the trail
/// height before it. The backward sweep then walks the events in reverse,
/// restoring the database and trail each event saw: it unwinds the trail,
/// retracts the clause an event stored (a lemma must not justify itself) and
/// revives the clause a deletion removed. A lemma is RUP-checked, against the
/// clauses live at its own event, only if something later depends on it;
/// its own dependencies are marked in turn. Lemmas and axioms the refutation
/// never touches are neither checked nor kept.
fn mark_dependencies(log: &ProofLog, assumptions: &[Lit]) -> Result<Marking, CheckError> {
    let num_events = log.num_events();
    let num_vars = max_var_index(log, assumptions);
    let mut checker = Checker::new(num_vars, true, log.num_deletions() > 0);
    let mut event_clause = vec![NO_CLAUSE; num_events];
    let mut trail_before = vec![0u32; num_events];
    let mut marked = vec![false; num_events];
    let mut deletions_applied = 0;
    let mut refuted: Option<Option<usize>> = assume(&mut checker, assumptions).then_some(None);
    let mut lits = Vec::new();
    for i in 0..num_events {
        if refuted.is_some() {
            break;
        }
        trail_before[i] = u32::try_from(checker.trail.len()).expect("trail overflow");
        if log.events[i].step == ProofStep::Delete {
            if let Some(cid) = checker.delete(log.event_lits(i)) {
                event_clause[i] = cid;
                deletions_applied += 1;
            }
            continue;
        }
        lits.clear();
        lits.extend_from_slice(log.event_lits(i));
        if dedup_clause(&mut lits) {
            continue;
        }
        let clauses_before = checker.spans.len();
        let inserted = checker.insert(&lits, event_id(i));
        if checker.spans.len() > clauses_before {
            // `store` bounds clause ids below `BINARY`.
            event_clause[i] = clauses_before as u32;
        }
        if let Insert::Refuted = inserted {
            refuted = Some(Some(i));
        }
    }

    let Some(refutation_event) = refuted else {
        return Err(CheckError::NoRefutation);
    };
    checker.mark_deps(&mut marked);
    let mut rup_checks = 0;
    if let Some(re) = refutation_event {
        marked[re] = true;
        for i in (0..=re).rev() {
            checker.unwind_to(trail_before[i] as usize);
            let step = log.events[i].step;
            let cid = event_clause[i];
            if cid != NO_CLAUSE {
                if step == ProofStep::Delete {
                    checker.revive(cid);
                } else {
                    checker.alive[cid as usize] = false;
                }
            }
            if marked[i] && step == ProofStep::Add {
                lits.clear();
                lits.extend_from_slice(log.event_lits(i));
                if dedup_clause(&mut lits) {
                    continue;
                }
                rup_checks += 1;
                if !checker.check_rup(&lits) {
                    return Err(CheckError::NotRup { event: i });
                }
                checker.mark_deps(&mut marked);
            }
        }
    }
    Ok(Marking {
        marked,
        refutation_event,
        rup_checks,
        deletions_applied,
        propagations: checker.propagations,
    })
}

/// Verifies a proof log: every lemma must be a RUP consequence of the events
/// preceding it, and unit propagation from the axioms plus the `assumptions`
/// (inserted as unit clauses) must derive a root-level conflict.
///
/// On success the certificate establishes that the conjunction of the axiom
/// clauses and the assumption literals is unsatisfiable.
///
/// # Examples
///
/// ```
/// use sat::drat::{ProofLog, ProofStep, check};
/// use sat::{Lit, Var};
///
/// let x = Var::from_index(0).positive();
/// let y = Var::from_index(1).positive();
/// let mut log = ProofLog::new();
/// log.push(ProofStep::Axiom, &[x, y]);
/// log.push(ProofStep::Axiom, &[x, !y]);
/// log.push(ProofStep::Axiom, &[!x, y]);
/// log.push(ProofStep::Axiom, &[!x, !y]);
/// log.push(ProofStep::Add, &[x]); // RUP: assuming !x propagates y and !y.
/// let report = check(&log, &[]).unwrap();
/// assert_eq!(report.lemmas_checked, 1);
/// ```
pub fn check(log: &ProofLog, assumptions: &[Lit]) -> Result<CheckReport, CheckError> {
    run_check(log, assumptions)
}

/// Returns a trimmed copy of the log that keeps only the events the
/// refutation transitively depends on, together with the [`CheckReport`] of
/// checking the trimmed log.
///
/// Trimming uses *backward checking*: a forward pass inserts every clause
/// without RUP-checking it, applies deletions and locates the refutation,
/// then a backward sweep RUP-checks exactly the lemmas in the refutation's
/// dependency cone, each against the clauses live at its own event. Both
/// unused lemmas *and unused axioms* are dropped — the kept axioms are an
/// unsatisfiable core, and a core being unsatisfiable implies the full axiom
/// set is. This makes trimming much cheaper than [`check`] on logs where the
/// refutation touches a small fraction of the events, and it shrinks proof
/// certificates by orders of magnitude. The trimmed log keeps no deletions.
///
/// The trimmed log is re-verified with [`check`] under the same assumptions
/// before being returned, so a successful `trim` *is* a successful check:
/// the returned report is the trimmed log's. Note that an unused corrupt
/// lemma is dropped rather than rejected; run [`check`] on the full log when
/// the goal is to validate every event.
///
/// The call is wrapped in a `sat.drat.trim` telemetry span carrying the
/// log's `events`, the `kept` events, the backward sweep's `rup_checks`, the
/// `deletions_applied` by the forward pass, and the checker `propagations`
/// of the forward pass, the sweep and the re-check.
pub fn trim(log: &ProofLog, assumptions: &[Lit]) -> Result<(ProofLog, CheckReport), CheckError> {
    let mut span = obs::span("sat.drat.trim");
    span.attr_u64("events", log.num_events() as u64);
    let marking = mark_dependencies(log, assumptions)?;
    span.attr_u64("rup_checks", marking.rup_checks);
    span.attr_u64("deletions_applied", marking.deletions_applied);
    let mut trimmed = ProofLog::new();
    let end = marking.refutation_event.map_or(0, |re| re + 1);
    for i in 0..end {
        let step = log.events[i].step;
        if marking.marked[i] && step != ProofStep::Delete {
            trimmed.push(step, log.event_lits(i));
        }
    }
    span.attr_u64("kept", trimmed.num_events() as u64);
    let report = run_check(&trimmed, assumptions)?;
    span.attr_u64("propagations", marking.propagations + report.propagations);
    Ok((trimmed, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;
    use crate::solver::Solver;
    use crate::SatResult;

    fn lit(i: usize, positive: bool) -> Lit {
        let v = Var::from_index(i);
        if positive {
            v.positive()
        } else {
            v.negative()
        }
    }

    #[test]
    fn manual_log_checks_and_trims() {
        let x = lit(0, true);
        let y = lit(1, true);
        let z = lit(2, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[x, !y]);
        log.push(ProofStep::Axiom, &[!x, y]);
        log.push(ProofStep::Axiom, &[!x, !y]);
        // Useless but valid lemma over a fresh variable.
        log.push(ProofStep::Add, &[x, z]);
        // Deriving x refutes together with the !x clauses.
        log.push(ProofStep::Add, &[x]);
        let report = check(&log, &[]).unwrap();
        assert_eq!(report.axioms, 4);
        assert_eq!(report.lemmas_checked, 2);
        assert_eq!(report.refutation_event, Some(5));

        let (trimmed, _) = trim(&log, &[]).unwrap();
        assert_eq!(trimmed.num_axioms(), 4);
        // The [x, z] lemma is unused and must be dropped.
        assert_eq!(trimmed.num_lemmas(), 1);
        check(&trimmed, &[]).unwrap();
    }

    #[test]
    fn non_rup_lemma_rejected() {
        let x = lit(0, true);
        let y = lit(1, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Add, &[x]);
        assert_eq!(check(&log, &[]), Err(CheckError::NotRup { event: 1 }));
    }

    #[test]
    fn satisfiable_log_has_no_refutation() {
        let x = lit(0, true);
        let y = lit(1, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        assert_eq!(check(&log, &[]), Err(CheckError::NoRefutation));
    }

    #[test]
    fn contradictory_assumptions_refute_immediately() {
        let x = lit(0, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, lit(1, true)]);
        let report = check(&log, &[x, !x]).unwrap();
        assert_eq!(report.refutation_event, None);
    }

    #[test]
    fn assumption_falsified_by_axioms() {
        let x = lit(0, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[!x]);
        let report = check(&log, &[x]).unwrap();
        assert_eq!(report.refutation_event, Some(0));
    }

    #[test]
    fn deletion_events_are_processed() {
        let x = lit(0, true);
        let y = lit(1, true);
        let mut log = ProofLog::new();
        // Two copies of [x, y]; deleting one leaves the other, so the
        // refutation still goes through.
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[x, !y]);
        log.push(ProofStep::Axiom, &[!x, y]);
        log.push(ProofStep::Axiom, &[!x, !y]);
        log.push(ProofStep::Delete, &[x, y]);
        log.push(ProofStep::Add, &[x]);
        let report = check(&log, &[]).unwrap();
        assert_eq!(report.deletions, 1);
        assert_eq!(report.refutation_event, Some(6));
    }

    /// `a`..`f` as positive literals over variables 0..6.
    fn vars6() -> [Lit; 6] {
        [0, 1, 2, 3, 4, 5].map(|i| lit(i, true))
    }

    #[test]
    fn lemma_needing_a_clause_deleted_before_it_is_rejected() {
        let [x, y, ..] = vars6();
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[x, !y]);
        log.push(ProofStep::Axiom, &[!x, y]);
        log.push(ProofStep::Axiom, &[!x, !y]);
        // `x` is RUP only through [x, !y], which is gone by then.
        log.push(ProofStep::Delete, &[!y, x]);
        log.push(ProofStep::Add, &[x]);
        assert_eq!(check(&log, &[]), Err(CheckError::NotRup { event: 5 }));
        assert_eq!(
            trim(&log, &[]).map(|_| ()),
            Err(CheckError::NotRup { event: 5 })
        );
    }

    #[test]
    fn clause_deleted_after_the_lemma_that_needs_it_is_kept() {
        let [x, y, u, v, ..] = vars6();
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[x, !y]);
        // Under x these four are the full 2-variable contradiction over u, v,
        // which unit propagation alone does not refute.
        log.push(ProofStep::Axiom, &[!x, u, v]);
        log.push(ProofStep::Axiom, &[!x, u, !v]);
        log.push(ProofStep::Axiom, &[!x, !u, v]);
        log.push(ProofStep::Axiom, &[!x, !u, !v]);
        log.push(ProofStep::Add, &[x]);
        log.push(ProofStep::Delete, &[x, !y]);
        log.push(ProofStep::Add, &[u]);
        let report = check(&log, &[]).unwrap();
        assert_eq!(report.refutation_event, Some(8));
        let (trimmed, _) = trim(&log, &[]).unwrap();
        let kept: Vec<(ProofStep, Vec<Lit>)> =
            trimmed.events().map(|(s, l)| (s, l.to_vec())).collect();
        assert!(
            kept.contains(&(ProofStep::Axiom, vec![x, !y])),
            "the lemma x needs [x, !y], live at its event: {kept:?}"
        );
        assert_eq!(trimmed.num_lemmas(), 2);
        assert_eq!(trimmed.num_deletions(), 0);
    }

    /// The log of the re-attachment tests: `[a, b]` is deleted after the
    /// lemma `x` that needs it, then the root units `!a` and `!b` visit both
    /// of its watchers while it is dead, which drops them.
    fn reattach_log() -> ProofLog {
        let [a, b, x, ..] = vars6();
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[a, b]);
        log.push(ProofStep::Axiom, &[!a, x]);
        log.push(ProofStep::Axiom, &[!b, x]);
        log.push(ProofStep::Add, &[x]);
        log.push(ProofStep::Delete, &[a, b]);
        log.push(ProofStep::Axiom, &[!a]);
        log.push(ProofStep::Axiom, &[!b]);
        log.push(ProofStep::Axiom, &[!x]);
        log
    }

    #[test]
    fn dead_clause_loses_its_watchers_and_revival_reattaches_them() {
        let [a, b, ..] = vars6();
        let log = reattach_log();
        let mut checker = Checker::new(3, true, true);
        for i in [0, 1, 2, 3, 5, 6] {
            if i == 5 {
                assert_eq!(checker.delete(log.event_lits(4)), Some(0));
            }
            assert!(matches!(
                checker.insert(log.event_lits(i), i as u32),
                Insert::Ok
            ));
        }
        assert_eq!(checker.dropped[0], 0b11, "both watchers of [a, b] dropped");
        checker.revive(0);
        assert_eq!(checker.dropped[0], 0);
        for l in [a, b] {
            let watchers = checker.watches[l.code()].iter();
            assert_eq!(watchers.filter(|w| w.cref & !BINARY == 0).count(), 1);
        }
    }

    #[test]
    fn trim_reattaches_clauses_deleted_after_their_use() {
        let [a, b, ..] = vars6();
        let log = reattach_log();
        assert_eq!(check(&log, &[]).unwrap().refutation_event, Some(7));
        let (trimmed, _) = trim(&log, &[]).unwrap();
        let kept: Vec<(ProofStep, Vec<Lit>)> =
            trimmed.events().map(|(s, l)| (s, l.to_vec())).collect();
        assert_eq!(kept.len(), 5, "{kept:?}");
        assert_eq!(kept[0], (ProofStep::Axiom, vec![a, b]));
    }

    #[test]
    fn reason_locked_clauses_survive_deletion() {
        let [x, y, ..] = vars6();
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x]);
        log.push(ProofStep::Axiom, &[!x, y]); // the root reason of y
        log.push(ProofStep::Delete, &[!x, y]);
        log.push(ProofStep::Axiom, &[!y]);
        assert_eq!(check(&log, &[]).unwrap().refutation_event, Some(3));
        let (trimmed, _) = trim(&log, &[]).unwrap();
        assert_eq!(trimmed.num_axioms(), 3);
    }

    #[test]
    fn solver_unsat_log_checks_end_to_end() {
        let mut solver = Solver::new();
        let vars: Vec<Lit> = (0..3).map(|_| solver.new_var().positive()).collect();
        solver.start_proof_log();
        // 4 pigeons, 3 holes style small instance: all sign combinations over
        // three variables, forcing UNSAT after search.
        for mask in 0..8u32 {
            let clause: Vec<Lit> = vars
                .iter()
                .enumerate()
                .map(|(i, &l)| if mask & (1 << i) != 0 { l } else { !l })
                .collect();
            solver.add_clause(clause);
        }
        assert!(matches!(solver.solve(), SatResult::Unsat));
        let log = solver.take_proof_log().unwrap();
        let report = check(&log, &[]).unwrap();
        assert_eq!(report.axioms, 8);
        let (trimmed, _) = trim(&log, &[]).unwrap();
        let report2 = check(&trimmed, &[]).unwrap();
        assert!(report2.lemmas_checked <= report.lemmas_checked);
    }

    #[test]
    fn to_dimacs_and_drat_render() {
        let x = lit(0, true);
        let y = lit(1, false);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Add, &[x]);
        log.push(ProofStep::Delete, &[x, y]);
        let dimacs = log.to_dimacs();
        assert!(dimacs.contains("p cnf 2 1"));
        assert!(dimacs.contains("1 -2 0"));
        let drat = log.to_drat();
        assert!(drat.contains("1 0"));
        assert!(drat.contains("d 1 -2 0"));
    }

    #[test]
    fn size_accounting() {
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[lit(0, true), lit(1, true)]);
        log.push(ProofStep::Add, &[lit(0, true)]);
        assert_eq!(log.num_events(), 2);
        assert_eq!(log.num_lits(), 3);
        assert!(log.size_bytes() > 0);
        assert!(!log.is_empty());
    }
}
