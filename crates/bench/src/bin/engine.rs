//! Runs the parallel incremental UPEC engine over the scenario registry and
//! prints the aggregated report — the "sweep everything" entry point.
//!
//! ```text
//! cargo run --release -p bench --bin engine [-- --threads N] [id ...]
//! ```
//!
//! Without arguments every registered scenario is scanned at its default
//! formal geometry. Scenario ids (e.g. `orc pmp-lock`) restrict the sweep.
//! Exits 2 on a malformed command line, 1 on an unknown id or a verdict
//! that deviates from the registry's expectation.

use std::time::Instant;
use upec::scenarios::{self, ScenarioInstance, ScenarioSpec};
use upec::{EngineOptions, UpecEngine};

/// The parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    /// Worker-thread count (`None`: the engine's default).
    threads: Option<usize>,
    /// Scenario ids to scan (empty: the whole registry).
    ids: Vec<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        threads: None,
        ids: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let value = args.next().ok_or("--threads needs a value")?;
                let threads = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or_else(|| {
                        format!("--threads expects a positive integer, got `{value}`")
                    })?;
                parsed.threads = Some(threads);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            id => parsed.ids.push(id.to_string()),
        }
    }
    Ok(parsed)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("engine: {e}\nusage: engine [--threads N] [id ...]");
        std::process::exit(2);
    });

    let specs: Vec<ScenarioSpec> = if args.ids.is_empty() {
        scenarios::registry()
    } else {
        args.ids
            .iter()
            .map(|id| {
                scenarios::by_id(id).unwrap_or_else(|| {
                    eprintln!("unknown scenario `{id}`; registered ids:");
                    for s in scenarios::registry() {
                        eprintln!("  {:<18} {}", s.id, s.title);
                    }
                    std::process::exit(1);
                })
            })
            .collect()
    };

    let mut options = EngineOptions::new();
    if let Some(t) = args.threads {
        options = options.with_threads(t);
    }
    println!(
        "UPEC engine: {} scenarios, {} threads\n",
        specs.len(),
        options.threads
    );
    println!(
        "{:<18} {:<34} {:<30} {:>9}",
        "id", "title", "paper ref", "windows"
    );
    for spec in &specs {
        println!(
            "{:<18} {:<34} {:<30} {:>4}..={}",
            spec.id, spec.title, spec.paper_ref, spec.start_window, spec.max_window
        );
    }
    println!();

    let start = Instant::now();
    let results =
        UpecEngine::new(options).run_instances(specs.into_iter().map(ScenarioInstance::base));
    for r in &results {
        println!("{}", r.summary());
    }
    println!(
        "{} scenarios in {:.2?}, {} total conflicts",
        results.len(),
        start.elapsed(),
        results.iter().map(|r| r.conflicts).sum::<u64>()
    );
    let mismatches: Vec<_> = results
        .iter()
        .filter(|r| !r.matches_expectation())
        .collect();
    if mismatches.is_empty() {
        println!("\nAll scenarios match their registered expectations.");
    } else {
        println!("\nWARNING: some scenarios deviate from their registered expectations:");
        for r in mismatches {
            println!(
                "  {:<18} expected {:?}, got {:?}",
                r.instance.id(),
                r.instance.expected,
                r.verdict
            );
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_threads_and_ids() {
        assert_eq!(
            parse("--threads 2 orc pmp-lock"),
            Ok(Args {
                threads: Some(2),
                ids: vec!["orc".into(), "pmp-lock".into()],
            })
        );
        assert_eq!(
            parse(""),
            Ok(Args {
                threads: None,
                ids: Vec::new(),
            })
        );
    }

    #[test]
    fn rejects_a_missing_or_malformed_thread_count() {
        assert!(parse("--threads").is_err());
        assert!(parse("--threads two orc").is_err());
        assert!(parse("--threads 0").is_err());
    }

    #[test]
    fn rejects_unknown_flags_instead_of_reading_them_as_ids() {
        assert!(parse("--stripes 2").is_err());
        assert!(parse("orc --bogus").is_err());
    }
}
