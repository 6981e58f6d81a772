//! The command-line flags the sweep binaries share, and the writing of
//! what an observed run collected.
//!
//! A malformed value is an error, never a silent fallback to the
//! default: `--seed abc` must not run seed 2024, and `--threads 0` must
//! not quietly pick another thread count.

use marsim::runner::{
    self, flag_value, merged_metrics, merged_trace_json, ObserveConfig, Observed,
};

/// The flags shared by `edge_offload`, `fleet_sweep`, `stadium_sweep`
/// and `explore`, parsed strictly:
///
/// | flag | meaning | default |
/// |---|---|---|
/// | `--smoke` | a CI-sized grid (the sweeps; `explore` rejects it) | off |
/// | `--seed N` | master seed; job seeds derive from it | 2024 |
/// | `--threads T` | worker threads, `T ≥ 1` | `HBO_THREADS`, else all cores |
/// | `--trace PATH` | write the merged Chrome trace JSON to `PATH` | off |
/// | `--metrics PATH` | write the merged Prometheus exposition to `PATH` | off |
/// | `--trace-sample K` | keep Chrome detail for `K` head-sampled jobs | every job |
///
/// Any other argument is an error (`unknown flag`), unless the binary
/// reads it itself (`fleet_sweep --warm`, `explore`'s own flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// `--smoke`.
    pub smoke: bool,
    /// `--seed`.
    pub seed: u64,
    /// `--threads`, else [`runner::THREADS_ENV`], else the machine's
    /// available parallelism ([`runner::threads`]).
    pub threads: usize,
    /// `--trace`.
    pub trace: Option<String>,
    /// `--metrics`.
    pub metrics: Option<String>,
    /// `--trace-sample`.
    pub trace_sample: Option<usize>,
}

/// The shared flags that take a value.
const VALUE_FLAGS: [&str; 5] = [
    "--seed",
    "--threads",
    "--trace",
    "--metrics",
    "--trace-sample",
];

impl SweepArgs {
    /// Parses `argv` (without the program name) and the thread-count
    /// variable's value `threads_env`. Besides the six flags and their
    /// values, `argv` may hold only the value-less flags in `own`, which
    /// the binary reads itself. The error names the unknown flag, or the
    /// flag or the variable and the value.
    pub fn parse(argv: &[String], threads_env: Option<&str>, own: &[&str]) -> Result<Self, String> {
        let (shared, rest) = Self::split(argv);
        if let Some(a) = rest
            .iter()
            .find(|a| *a != "--smoke" && !own.contains(&a.as_str()))
        {
            return Err(format!("unknown flag {a}"));
        }
        Ok(SweepArgs {
            smoke: rest.iter().any(|a| a == "--smoke"),
            seed: flag_value(&shared, "--seed")?.unwrap_or(2024),
            threads: runner::threads(&shared, threads_env)?,
            trace: flag_value(&shared, "--trace")?,
            metrics: flag_value(&shared, "--metrics")?,
            trace_sample: flag_value(&shared, "--trace-sample")?,
        })
    }

    /// Splits `argv` into the shared flags that take a value, each with
    /// its value, and every other argument, both in order.
    pub fn split(argv: &[String]) -> (Vec<String>, Vec<String>) {
        let (mut shared, mut rest) = (Vec::new(), Vec::new());
        let mut args = argv.iter().cloned();
        while let Some(a) = args.next() {
            if VALUE_FLAGS.contains(&a.as_str()) {
                shared.push(a);
                shared.extend(args.next());
            } else {
                rest.push(a);
            }
        }
        (shared, rest)
    }

    /// [`SweepArgs::parse`] of the process's own arguments and
    /// environment, for a binary's `main`: on an error, prints it and
    /// exits with status 2.
    pub fn from_env(own: &[&str]) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&argv, runner::threads_env().as_deref(), own).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// The observation these flags ask for.
    pub fn observe(&self) -> ObserveConfig {
        ObserveConfig {
            traced: self.trace.is_some(),
            trace_sample: self.trace_sample,
            metrics: self.metrics.is_some(),
        }
    }

    /// Writes what `jobs` collected, merged in job order: the Chrome
    /// trace to `--trace` (one `pid` per traced job, named by `name`),
    /// and the exposition to `--metrics` when any job was metered.
    pub fn write_exports<R>(&self, jobs: &[Observed<R>], name: impl Fn(usize, &R) -> String) {
        if let Some(path) = &self.trace {
            write_or_exit("trace", path, &merged_trace_json(jobs, name));
        }
        if let (Some(path), Some(metrics)) = (&self.metrics, merged_metrics(jobs)) {
            write_or_exit("metrics", path, &metrics.render_prometheus());
        }
    }
}

/// Writes the `what` export to `path` and says so on stderr; exits with
/// status 1 when the file cannot be written.
fn write_or_exit(what: &str, path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("{what} written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn absent_flag_is_none() {
        let a = SweepArgs::parse(&argv(&["--smoke"]), Some("3"), &[]).unwrap();
        assert_eq!(
            a,
            SweepArgs {
                smoke: true,
                seed: 2024,
                threads: 3,
                trace: None,
                metrics: None,
                trace_sample: None,
            }
        );
        assert!(!a.observe().traced && !a.observe().metrics);
    }

    #[test]
    fn well_formed_values_parse() {
        let a = SweepArgs::parse(
            &argv(&[
                "--seed",
                "7",
                "--threads",
                "2",
                "--trace",
                "t.json",
                "--metrics",
                "m.txt",
                "--trace-sample",
                "4",
            ]),
            Some("abc"),
            &[],
        )
        .unwrap();
        assert_eq!((a.seed, a.threads), (7, 2));
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert_eq!(a.metrics.as_deref(), Some("m.txt"));
        let observe = a.observe();
        assert!(observe.traced && observe.metrics);
        assert_eq!(observe.trace_sample, Some(4));
    }

    #[test]
    fn malformed_values_name_the_flag_and_the_value() {
        for (args, env, name, value) in [
            (&["--seed", "abc"][..], None, "--seed", "abc"),
            (
                &["--trace-sample", "two"][..],
                None,
                "--trace-sample",
                "two",
            ),
            (&["--threads", "x"][..], None, "--threads", "x"),
            (&["--threads", "0"][..], None, "--threads", "0"),
            (&[][..], Some("0"), runner::THREADS_ENV, "0"),
            (&[][..], Some("abc"), runner::THREADS_ENV, "abc"),
        ] {
            let err = SweepArgs::parse(&argv(args), env, &[]).unwrap_err();
            assert!(err.starts_with(name), "{err}");
            assert!(err.contains(&format!("\"{value}\"")), "{err}");
        }
    }

    #[test]
    fn a_trailing_flag_without_a_value_is_an_error() {
        assert_eq!(
            SweepArgs::parse(&argv(&["--smoke", "--seed"]), None, &[]),
            Err("--seed: missing value".to_string())
        );
    }

    #[test]
    fn unknown_flags_are_errors_unless_the_binary_reads_them() {
        for (args, own, unknown) in [
            (&["--smok"][..], &[][..], "--smok"),
            (&["--smoke", "--bogus-flag"][..], &[][..], "--bogus-flag"),
            (&["--seed", "7", "8"][..], &[][..], "8"),
            (&["--warm"][..], &[][..], "--warm"),
            (
                &["--warm", "--baselines"][..],
                &["--warm"][..],
                "--baselines",
            ),
        ] {
            assert_eq!(
                SweepArgs::parse(&argv(args), None, own),
                Err(format!("unknown flag {unknown}"))
            );
        }
        let a = SweepArgs::parse(&argv(&["--warm", "--seed", "7"]), Some("1"), &["--warm"]);
        assert_eq!(a.map(|a| a.seed), Ok(7));
        assert_eq!(
            SweepArgs::split(&argv(&["SC1-CF1", "--seed", "7", "--smoke", "--trace"])),
            (
                argv(&["--seed", "7", "--trace"]),
                argv(&["SC1-CF1", "--smoke"])
            )
        );
    }
}
