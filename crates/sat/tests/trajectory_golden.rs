//! Golden trajectory of the CDCL search.
//!
//! A fixed, SplitMix64-seeded incremental session — random 3-SAT batches
//! solved under assumptions, a tiny learned-clause budget that forces
//! database reduction and arena collection, enough conflicts to cross the
//! `1e100` activity rescale, chronological backtracking, vivification and a
//! simplifier rebuild — must take exactly the recorded search path. The pinned counters
//! are the exact values of the reference implementation, so any change to
//! clause storage, watch-list order, the decision heap or the assignment
//! layout that alters a single decision shows up here. Storage-level
//! refactors of the solver must leave every number unchanged; a deliberate
//! change to the search heuristics re-records them.

use rtl::SplitMix64;
use sat::{Lit, SatResult, SearchConfig, Solver, SolverStats, Var};

const NUM_VARS: usize = 170;

/// A clause over `width` distinct variables with random polarities.
fn random_clause(rng: &mut SplitMix64, width: usize) -> Vec<Lit> {
    let mut clause: Vec<Lit> = Vec::with_capacity(width);
    while clause.len() < width {
        let v = Var::from_index(rng.gen_u64_below(NUM_VARS as u64) as usize);
        if clause.iter().all(|l| l.var() != v) {
            clause.push(Lit::new(v, rng.gen_bool()));
        }
    }
    clause
}

/// Runs the pinned session; returns the final stats, the verdict of every
/// solve (`S`, `U`, `?`) and the proof-log event count.
fn run_session() -> (SolverStats, String, usize) {
    let mut rng = SplitMix64::new(0x7a1e_c70e_5eed);
    let mut s = Solver::new();
    s.reserve_vars(NUM_VARS);
    s.set_learnt_budget(24);
    // A short chronological-backtracking threshold so that path runs too.
    s.set_search_config(SearchConfig {
        chrono_threshold: 6,
        ..SearchConfig::default()
    });
    s.start_proof_log();
    let mut verdicts = String::new();
    for round in 0..18 {
        for _ in 0..46 {
            let width = if rng.gen_u64_below(8) == 0 { 4 } else { 3 };
            let clause = random_clause(&mut rng, width);
            s.add_clause(clause);
        }
        for _ in 0..3 {
            let count = rng.gen_u64_below(4) as usize;
            let assumptions: Vec<Lit> = random_clause(&mut rng, count);
            verdicts.push(match s.solve_with_assumptions(&assumptions) {
                SatResult::Sat(_) => 'S',
                SatResult::Unsat => 'U',
                SatResult::Unknown => '?',
            });
        }
        if round % 3 == 2 {
            s.vivify(5_000);
        }
        if round == 7 {
            // Freeze everything so later batches may mention any variable;
            // probing, subsumption and the extract/rebuild still run.
            for v in 0..NUM_VARS {
                s.freeze_var(Var::from_index(v));
            }
            s.simplify();
        }
        s.debug_validate()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
    let events = s.proof_log().map_or(0, |p| p.num_events());
    (s.stats(), verdicts, events)
}

#[test]
fn incremental_session_takes_the_recorded_search_path() {
    let (stats, verdicts, events) = run_session();
    assert_eq!(
        stats,
        SolverStats {
            decisions: 33_007,
            propagations: 1_088_956,
            conflicts: 23_639,
            restarts: 112,
            rephasings: 6,
            chrono_backtracks: 12,
            vivified_clauses: 29,
            shared_clause_imports: 0,
            learnt_clauses: 8_179,
            deleted_clauses: 15_459,
            arena_collections: 14,
            budget_exhaustions: 0,
            cancellations: 0,
        }
    );
    assert_eq!(
        verdicts,
        "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSUUU"
    );
    assert_eq!(events, 39_984, "proof-log event count");
}
