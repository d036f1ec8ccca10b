//! The one command-line reader behind every binary of the workspace.
//!
//! A binary declares its flags: each valued flag with the noun its errors
//! use (`("--seed", "an integer")`), and its switches. [`Args::read`] walks
//! the arguments once, refuses any other `--flag`, and keeps every value a
//! valued flag was given; the typed reads then take the last one. [`parse`]
//! is the entry point and [`exit`] the one exit rule:
//!
//! * `--help` or `-h` prints the binary's usage to stderr and exits 0;
//! * a refusal prints `error: <why>` and then the usage to stderr and
//!   exits 2.
//!
//! Every refusal reads the same way: `unknown argument `X`` for an
//! undeclared flag, `X needs <what>` for a flag missing its value, and
//! `X needs <what>, got `v`` for a value that does not parse or is out of
//! range (a zero count included).

use std::str::FromStr;

/// Why a command line was not read into values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `--help` or `-h`: answer with the usage.
    Help,
    /// A malformed command line, and why.
    Refused(String),
}

impl From<String> for Stop {
    fn from(why: String) -> Stop {
        Stop::Refused(why)
    }
}

impl From<&str> for Stop {
    fn from(why: &str) -> Stop {
        Stop::Refused(why.into())
    }
}

/// For readers that return `String` errors: `--help` reads as one.
impl From<Stop> for String {
    fn from(stop: Stop) -> String {
        match stop {
            Stop::Help => "`--help` asks for the usage".into(),
            Stop::Refused(why) => why,
        }
    }
}

/// End the process for `stop`: `--help` prints `usage` to stderr and
/// exits 0; a refusal prints `error: <why>` and `usage` to stderr and
/// exits 2.
pub fn exit(usage: &str, stop: Stop) -> ! {
    if let Stop::Refused(why) = &stop {
        eprintln!("error: {why}");
    }
    eprintln!("{usage}");
    std::process::exit(if stop == Stop::Help { 0 } else { 2 })
}

/// Read this process's arguments (after the program name) with `read`,
/// or end the process by [`exit`]'s rule.
pub fn parse<T>(usage: &str, read: impl FnOnce(Vec<String>) -> Result<T, Stop>) -> T {
    read(std::env::args().skip(1).collect()).unwrap_or_else(|stop| exit(usage, stop))
}

/// A command line read against its declared flags (by default, one
/// without arguments).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Positional arguments in order ([`Args::with_positionals`] only).
    pub pos: Vec<String>,
    /// `(flag, what, value)` for each value given, in order.
    values: Vec<(&'static str, &'static str, String)>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Read `argv`, which takes flags only: each `(flag, what)` in
    /// `valued` takes the next argument as its value, each of `switches`
    /// stands alone, and anything else is an unknown argument.
    pub fn read(
        argv: impl IntoIterator<Item = String>,
        valued: &[(&'static str, &'static str)],
        switches: &[&'static str],
    ) -> Result<Args, Stop> {
        let a = Args::with_positionals(argv, valued, switches)?;
        match a.pos.first() {
            Some(arg) => Err(format!("unknown argument `{arg}`").into()),
            None => Ok(a),
        }
    }

    /// As [`Args::read`], but an argument that does not start with `--`
    /// is positional.
    pub fn with_positionals(
        argv: impl IntoIterator<Item = String>,
        valued: &[(&'static str, &'static str)],
        switches: &[&'static str],
    ) -> Result<Args, Stop> {
        let mut a = Args::default();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help);
            } else if let Some(&(flag, what)) = valued.iter().find(|(f, _)| *f == arg) {
                let value = it.next().ok_or(format!("{flag} needs {what}"))?;
                a.values.push((flag, what, value));
            } else if let Some(&switch) = switches.iter().find(|s| **s == arg) {
                a.switches.push(switch);
            } else if arg.starts_with("--") {
                return Err(format!("unknown argument `{arg}`").into());
            } else {
                a.pos.push(arg);
            }
        }
        Ok(a)
    }

    /// Exactly `N` positional arguments.
    pub fn files<const N: usize>(&self) -> Result<[String; N], String> {
        self.pos
            .clone()
            .try_into()
            .map_err(|got: Vec<String>| format!("expected {N} argument(s), got {}", got.len()))
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// Each value given for `flag`, in order, read by `read`; a value
    /// `read` refuses reads `flag needs <what>, got `v``.
    fn each<'a, T>(
        &'a self,
        flag: &'a str,
        read: impl Fn(&str) -> Option<T> + 'a,
    ) -> impl DoubleEndedIterator<Item = Result<T, String>> + 'a {
        let given = self.values.iter().filter(move |(f, ..)| *f == flag);
        given.map(move |(f, what, v)| read(v).ok_or(format!("{f} needs {what}, got `{v}`")))
    }

    /// Every value given for `flag`, in order, each read by `read`.
    pub fn all<T>(&self, flag: &str, read: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
        self.each(flag, read).collect()
    }

    /// The last value given for `flag`, read by `read`; `None` when absent.
    pub fn value<T>(
        &self,
        flag: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.each(flag, read).next_back().transpose()
    }

    /// `flag`'s last value, parsed.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag, |v| v.parse().ok())
    }

    /// `flag` as a count of at least one: zero is refused, not raised.
    pub fn count(&self, flag: &str) -> Result<Option<u64>, String> {
        self.value(flag, |v| v.parse().ok().filter(|&n| n > 0))
    }

    /// `flag` as a finite number of at least zero.
    pub fn non_negative(&self, flag: &str) -> Result<Option<f64>, String> {
        self.value(flag, |v| {
            v.parse().ok().filter(|x: &f64| x.is_finite() && *x >= 0.0)
        })
    }

    /// `flag` as non-negative fractional seconds, in nanoseconds.
    pub fn secs(&self, flag: &str) -> Result<Option<u64>, String> {
        Ok(self.non_negative(flag)?.map(|s| (s * 1e9).round() as u64))
    }

    /// `flag` as a whole number of `unit_ns`-nanosecond units (of at least
    /// one when `positive`) whose nanoseconds fit in a `u64`.
    pub fn duration(
        &self,
        flag: &str,
        unit_ns: u64,
        positive: bool,
    ) -> Result<Option<u64>, String> {
        match if positive {
            self.count(flag)?
        } else {
            self.get(flag)?
        } {
            Some(n) if n.checked_mul(unit_ns).is_none() => {
                Err(format!("{flag} {n} overflows 64-bit nanoseconds"))
            }
            n => Ok(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALUED: &[(&str, &str)] = &[
        ("--n", "a positive integer"),
        ("--at", "non-negative seconds"),
    ];

    fn read(argv: &[&str]) -> Result<Args, Stop> {
        Args::with_positionals(argv.iter().map(|s| s.to_string()), VALUED, &["--all"])
    }

    #[test]
    fn reads_positionals_values_and_switches() {
        let a = read(&["f", "--n", "3", "--all", "g", "--n", "5"]).unwrap();
        assert_eq!(a.pos, ["f", "g"]);
        assert!(a.has("--all"));
        assert_eq!(a.count("--n"), Ok(Some(5)), "the last value wins");
        assert_eq!(a.all("--n", |v| v.parse::<u64>().ok()), Ok(vec![3, 5]));
        assert_eq!(a.secs("--at"), Ok(None));
    }

    #[test]
    fn help_stops_the_read_without_exiting() {
        assert_eq!(read(&["--n", "1", "-h"]).unwrap_err(), Stop::Help);
        assert_eq!(read(&["--help"]).unwrap_err(), Stop::Help);
        // A value is a value, even one that looks like a flag.
        assert!(read(&["--n", "--help"]).is_ok());
    }

    #[test]
    fn refusals_share_one_wording() {
        let refused = |argv: &[&str]| match read(argv) {
            Err(Stop::Refused(why)) => why,
            other => panic!("{argv:?} read as {other:?}"),
        };
        assert_eq!(refused(&["--bogus"]), "unknown argument `--bogus`");
        assert_eq!(refused(&["--n"]), "--n needs a positive integer");
        let a = read(&["--n", "0", "--at", "-1"]).unwrap();
        assert_eq!(
            a.count("--n").unwrap_err(),
            "--n needs a positive integer, got `0`"
        );
        assert_eq!(
            a.secs("--at").unwrap_err(),
            "--at needs non-negative seconds, got `-1`"
        );
        let a = read(&["--n", "18446744073709551615"]).unwrap();
        assert_eq!(
            a.duration("--n", 1_000, true).unwrap_err(),
            "--n 18446744073709551615 overflows 64-bit nanoseconds"
        );
        let flags_only = Args::read(["x".to_string()], VALUED, &[]);
        assert_eq!(flags_only.unwrap_err(), Stop::from("unknown argument `x`"));
    }
}
