//! Shared experiment plumbing: argument parsing and the standard run.

use netsession_hybrid::{HybridSim, ScenarioConfig, SimOutput};
use netsession_obs::{MetricsRegistry, TraceSink};
use netsession_world::population::PopulationConfig;
use netsession_world::workload::WorkloadConfig;

/// Command-line knobs shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct ExperimentArgs {
    /// Peer population size.
    pub peers: usize,
    /// Downloads over the month.
    pub downloads: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            peers: 30_000,
            downloads: 40_000,
            seed: 20121001,
        }
    }
}

/// Parse `--scale <peers>`, `--downloads <n>`, `--seed <s>` and positional
/// experiment names (in any order) from the arguments after the program
/// name.
pub fn parse_args_from(argv: &[String]) -> Result<(ExperimentArgs, Vec<String>), String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: {v:?} is not a number"))
    }
    let mut args = ExperimentArgs::default();
    let mut names = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.peers = value(a, it.next())?,
            "--downloads" => args.downloads = value(a, it.next())?,
            "--seed" => args.seed = value(a, it.next())?,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => names.push(a.clone()),
        }
    }
    Ok((args, names))
}

/// Print `msg` and the shared usage line (plus the binary's positional
/// `names` grammar, if it takes any) to stderr and exit 2.
pub fn usage_exit(bin: &str, names: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    eprintln!("usage: {bin} [--scale <peers>] [--downloads <n>] [--seed <s>]{names}");
    std::process::exit(2)
}

/// This process's arguments for a binary that takes the shared flags and
/// no positional names, announced on stderr; anything else exits 2 with
/// the usage line.
pub fn parse_flags_or_exit(bin: &str) -> ExperimentArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args_from(&argv) {
        Ok((args, names)) if names.is_empty() => args,
        Ok((_, names)) => usage_exit(bin, "", &format!("unexpected argument {}", names[0])),
        Err(e) => usage_exit(bin, "", &e),
    };
    eprintln!("# {bin}: peers={} downloads={}", args.peers, args.downloads);
    args
}

/// Build the standard scenario config for experiment args.
pub fn config_for(args: &ExperimentArgs) -> ScenarioConfig {
    ScenarioConfig {
        seed: args.seed,
        population: PopulationConfig {
            peers: args.peers,
            ases: (args.peers / 50).clamp(120, 2_000),
            ..PopulationConfig::default()
        },
        objects: (args.downloads / 12).clamp(250, 20_000),
        workload: WorkloadConfig {
            downloads: args.downloads,
            ..WorkloadConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

/// Run the standard scenario.
pub fn run_default(args: &ExperimentArgs) -> SimOutput {
    HybridSim::run_config(config_for(args))
}

/// Render a fraction as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Write `bytes` to `path` (creating its directory) and announce the path
/// on stderr. The error names the path; callers propagate it and exit
/// non-zero rather than leave a stale file.
pub fn write_file(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let write = || {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, bytes)
    };
    write().map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    eprintln!("# wrote {}", path.display());
    Ok(())
}

/// [`write_file`] to `results/<name>.<ext>` (relative to the working
/// directory). Separate files keep experiment stdout byte-identical
/// run-to-run.
pub fn write_result(name: &str, ext: &str, bytes: &[u8]) -> std::io::Result<()> {
    write_file(
        &std::path::Path::new("results").join(format!("{name}.{ext}")),
        bytes,
    )
}

/// Peak resident set (VmHWM) of this process in KiB, when /proc is
/// available.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Write a run's telemetry pair: `results/<name>.metrics.json` (the full
/// snapshot, volatile wall-clock section included) and
/// `results/<name>.trace.json` (the sampled download traces as Chrome
/// trace-event JSON for Perfetto and `trace_explain`; deterministic — same
/// seed, same bytes).
pub fn write_sidecars(
    name: &str,
    metrics: &MetricsRegistry,
    trace: &TraceSink,
) -> std::io::Result<()> {
    write_result(
        name,
        "metrics.json",
        metrics.full_snapshot_json().as_bytes(),
    )?;
    write_result(name, "trace.json", trace.export_chrome_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_are_standard_scale() {
        let a = ExperimentArgs::default();
        assert_eq!(a.peers, 30_000);
        assert_eq!(a.downloads, 40_000);
    }

    #[test]
    fn config_scales_dependents() {
        let a = ExperimentArgs {
            peers: 5_000,
            downloads: 2_000,
            seed: 1,
        };
        let c = config_for(&a);
        assert_eq!(c.population.peers, 5_000);
        assert_eq!(c.workload.downloads, 2_000);
        assert!(c.population.ases >= 100);
        assert!(c.objects >= 250);
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn names_interleave_with_flags() {
        let (a, names) = parse_args_from(&argv(
            "fig5 --scale 2000 table4 --seed 7 --downloads 3000 fig2",
        ))
        .unwrap();
        assert_eq!((a.peers, a.downloads, a.seed), (2_000, 3_000, 7));
        assert_eq!(names, ["fig5", "table4", "fig2"]);
        let (a, names) = parse_args_from(&[]).unwrap();
        assert_eq!(a.seed, ExperimentArgs::default().seed);
        assert!(names.is_empty());
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        let err = |s: &str| parse_args_from(&argv(s)).unwrap_err();
        assert_eq!(err("--scale 2000 --seed"), "--seed needs a value");
        assert_eq!(err("fig5 --sweep 1"), "unknown flag --sweep");
        assert_eq!(
            err("--downloads lots"),
            "--downloads: \"lots\" is not a number"
        );
        assert_eq!(err("--scale -5"), "--scale: \"-5\" is not a number");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.714), "71.4%");
    }
}
