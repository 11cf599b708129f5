//! The paper driver: every table, figure, the chaos campaign and the
//! ablations, each distinct simulated month run once.
//!
//!   paper                      # everything, in table order (17 months)
//!   paper fig5 table4          # just these (still table order; 1 month)
//!   paper chaos                # baseline + campaign months
//!   paper headline --scale 3000 --downloads 4000
//!
//! Plans the selected entries of `netsession_bench::paper::EXPERIMENTS`
//! (entries whose months have equal configs share one simulation), then
//! for each entry writes `results/<name>.txt` (plus `alerts.{txt,json}`
//! for `chaos`) and echoes the text to stdout. The standard month's
//! telemetry lands in `results/paper.{metrics,trace}.json`, the campaign
//! month's in `results/chaos.{metrics,trace}.json`. Each entry runs at its
//! committed scale (30k/40k; ablations 12k/15k) unless a flag overrides
//! it. Paths are relative to the working directory: run from the repo root
//! to refresh the committed artifacts, anywhere else to leave them be.

use netsession_bench::paper::{plan, select};
use netsession_bench::runner::{parse_args_from, write_file};
use std::path::Path;

fn main() -> std::io::Result<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (flags, selected) = parse_args_from(&argv)
        .and_then(|(flags, names)| Ok((flags, select(&names)?)))
        .unwrap_or_else(|e| {
            eprintln!("paper: {e}");
            eprintln!("usage: paper [--scale <peers>] [--downloads <n>] [--seed <s>] [name…]");
            std::process::exit(2)
        });
    let plan = plan(&selected, &flags);
    eprintln!(
        "# paper: entries={} months={}",
        plan.entries.len(),
        plan.runs.len()
    );
    plan.execute(|file, text, echo| {
        write_file(&Path::new("results").join(file), text.as_bytes())?;
        if echo {
            print!("{text}");
        }
        Ok(())
    })
}
