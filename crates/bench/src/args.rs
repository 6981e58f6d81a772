//! Command-line flag values for the sweep binaries.
//!
//! A malformed value is an error, never a silent fallback to the
//! default: `--seed abc` must not run seed 2024, and `--threads 0` must
//! not quietly pick another thread count.

use std::fmt::Display;
use std::str::FromStr;

/// The value after `flag` in `argv`, parsed as `T`.
///
/// Returns `Ok(None)` when `flag` is absent, and an error naming the flag
/// and the value when the value is missing or does not parse.
pub fn flag_value<T>(argv: &[String], flag: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    let Some(i) = argv.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = argv
        .get(i + 1)
        .ok_or_else(|| format!("{flag}: missing value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|e| format!("{flag}: invalid value {value:?} ({e})"))
}

/// [`flag_value`] for a binary's `main`: on an error, prints it and exits
/// with status 2.
pub fn flag_or_exit<T>(argv: &[String], flag: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    flag_value(argv, flag).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroUsize;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn absent_flag_is_none() {
        let a = argv(&["--smoke"]);
        assert_eq!(flag_value::<u64>(&a, "--seed"), Ok(None));
    }

    #[test]
    fn well_formed_values_parse() {
        let a = argv(&[
            "--smoke",
            "--seed",
            "7",
            "--threads",
            "2",
            "--trace",
            "t.json",
        ]);
        assert_eq!(flag_value::<u64>(&a, "--seed"), Ok(Some(7)));
        assert_eq!(
            flag_value::<NonZeroUsize>(&a, "--threads"),
            Ok(NonZeroUsize::new(2))
        );
        assert_eq!(
            flag_value::<String>(&a, "--trace"),
            Ok(Some("t.json".to_string()))
        );
    }

    #[test]
    fn malformed_values_name_the_flag_and_the_value() {
        for (args, flag, value) in [
            (["--seed", "abc"], "--seed", "abc"),
            (["--trace-sample", "two"], "--trace-sample", "two"),
            (["--threads", "x"], "--threads", "x"),
            (["--threads", "0"], "--threads", "0"),
        ] {
            let a = argv(&args);
            let err = if flag == "--threads" {
                flag_value::<NonZeroUsize>(&a, flag).unwrap_err()
            } else {
                flag_value::<u64>(&a, flag).unwrap_err()
            };
            assert!(err.starts_with(flag), "{err}");
            assert!(err.contains(&format!("\"{value}\"")), "{err}");
        }
    }

    #[test]
    fn a_trailing_flag_without_a_value_is_an_error() {
        let a = argv(&["--smoke", "--seed"]);
        assert_eq!(
            flag_value::<u64>(&a, "--seed"),
            Err("--seed: missing value".to_string())
        );
    }
}
