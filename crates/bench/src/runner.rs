//! Shared experiment plumbing: argument parsing, the standard config and
//! result files.

use netsession_hybrid::ScenarioConfig;
use netsession_world::population::PopulationConfig;
use netsession_world::workload::WorkloadConfig;

/// The scale and seed of one standard scenario.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentArgs {
    /// Peer population size.
    pub peers: usize,
    /// Downloads over the month.
    pub downloads: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentArgs {
    /// The committed scale of the figures, tables and the chaos campaign.
    pub const FIGURES: ExperimentArgs = ExperimentArgs {
        peers: 30_000,
        downloads: 40_000,
        seed: 20121001,
    };
    /// The committed scale of the ablations A1–A6 (up to five months each).
    pub const ABLATIONS: ExperimentArgs = ExperimentArgs {
        peers: 12_000,
        downloads: 15_000,
        ..Self::FIGURES
    };
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        Self::FIGURES
    }
}

/// `--scale`, `--downloads` and `--seed` as given on the command line; an
/// absent flag leaves an experiment's committed value in place.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overrides {
    /// `--scale <peers>`.
    pub peers: Option<usize>,
    /// `--downloads <n>`.
    pub downloads: Option<usize>,
    /// `--seed <s>`.
    pub seed: Option<u64>,
}

impl Overrides {
    /// `committed` with every given flag applied.
    pub fn over(&self, committed: ExperimentArgs) -> ExperimentArgs {
        ExperimentArgs {
            peers: self.peers.unwrap_or(committed.peers),
            downloads: self.downloads.unwrap_or(committed.downloads),
            seed: self.seed.unwrap_or(committed.seed),
        }
    }
}

/// The value `v` that follows `flag` on a command line, parsed as `T`, or
/// the message naming what is wrong with it (missing, or not a number; a
/// `String` value always parses).
pub fn flag_value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: {v:?} is not a number"))
}

/// Parse `--scale <peers>`, `--downloads <n>`, `--seed <s>` and positional
/// experiment names (in any order) from the arguments after the program
/// name.
pub fn parse_args_from(argv: &[String]) -> Result<(Overrides, Vec<String>), String> {
    let mut flags = Overrides::default();
    let mut names = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => flags.peers = Some(flag_value(a, it.next())?),
            "--downloads" => flags.downloads = Some(flag_value(a, it.next())?),
            "--seed" => flags.seed = Some(flag_value(a, it.next())?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => names.push(a.clone()),
        }
    }
    Ok((flags, names))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_are_figure_scale_and_flags_override_per_field() {
        let a = ExperimentArgs::default();
        assert_eq!((a.peers, a.downloads), (30_000, 40_000));
        let flags = Overrides {
            downloads: Some(9),
            ..Overrides::default()
        };
        let a = flags.over(ExperimentArgs::ABLATIONS);
        assert_eq!((a.peers, a.downloads, a.seed), (12_000, 9, 20121001));
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
        assert_eq!(
            (a.peers, a.downloads, a.seed),
            (Some(2_000), Some(3_000), Some(7))
        );
        assert_eq!(names, ["fig5", "table4", "fig2"]);
        assert_eq!(
            parse_args_from(&[]).unwrap(),
            (Overrides::default(), vec![])
        );
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
