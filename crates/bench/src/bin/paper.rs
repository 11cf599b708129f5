//! The paper driver: one simulated month, every table and figure.
//!
//!   paper                      # all of E1–E20, in table order
//!   paper fig5 table4          # just these (still table order)
//!   paper headline --scale 3000 --downloads 4000
//!
//! Runs `HybridSim` once on the standard config, then for each selected
//! entry of `netsession_bench::paper::EXPERIMENTS` writes
//! `results/<name>.txt` and echoes it to stdout. The run's telemetry lands
//! in one sidecar pair, `results/paper.{metrics,trace}.json`. Paths are
//! relative to the working directory: run from the repo root to refresh
//! the committed artifacts (default scale), anywhere else to leave them be.

use netsession_bench::paper::select;
use netsession_bench::runner::{
    parse_args_from, run_default, usage_exit, write_result, write_sidecars,
};

fn main() -> std::io::Result<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, selected) = parse_args_from(&argv)
        .and_then(|(args, names)| Ok((args, select(&names)?)))
        .unwrap_or_else(|e| usage_exit("paper", " [name…]", &e));
    eprintln!("# paper: peers={} downloads={}", args.peers, args.downloads);
    let out = run_default(&args);
    write_sidecars("paper", &out.metrics, &out.trace)?;
    for (name, render) in selected {
        let text = render(&out);
        write_result(name, "txt", text.as_bytes())?;
        print!("{text}");
    }
    Ok(())
}
