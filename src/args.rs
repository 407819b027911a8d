//! The flag parser shared by `csq` and `csqd`.
//!
//! A command lists its flags in a table and pulls them with
//! [`Args::next_flag`] in argv order, applying each as it comes, so of
//! two bad flags the first in argv order is the one reported. The
//! parser enforces the rules every command shares: an unknown `--flag`
//! or one positional too many is a usage error, a flag without its
//! value is a one-line failure naming the value it expects, and a
//! [`Flag::Positional`] (`--demo`, the built-in graph) is a positional
//! argument.

use cs_eql::{ExecOptions, ResultCacheMode};
use std::fmt::Display;
use std::process::ExitCode;
use std::time::Duration;

/// Why a command stopped before doing its work.
#[derive(Debug)]
pub enum CliError {
    /// The arguments do not fit the command: print its usage, exit 2.
    Usage,
    /// A one-line `error:` message, exit 1.
    Fail(String),
}

impl<E: Display> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::Fail(e.to_string())
    }
}

/// Maps a command's outcome to the process exit code: a usage error
/// prints `usage` and exits 2, a failure prints one `error:` line and
/// exits 1.
pub fn exit(outcome: Result<ExitCode, CliError>, usage: &str) -> ExitCode {
    match outcome {
        Ok(code) => code,
        Err(CliError::Usage) => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
        Err(CliError::Fail(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The noun of a flag whose value is a number ([`Arg::number`]).
pub const NUMBER: &str = "a number";

/// One entry of a command's flag table.
#[derive(Debug, Clone, Copy)]
pub enum Flag {
    /// A flag without a value.
    Switch(&'static str),
    /// A flag and its value, named by a noun in errors (`a file path`,
    /// [`NUMBER`]). A noun of words joined by `|` (`on|off`) lists the
    /// accepted values ([`Arg::choice`]).
    Value(&'static str, &'static str),
    /// A positional argument spelled like a flag.
    Positional(&'static str),
}

/// One flag as given on the command line.
#[derive(Debug, Clone, Copy)]
pub struct Arg<'a> {
    /// The flag's name.
    pub flag: &'static str,
    noun: &'static str,
    /// The value that followed the flag (empty for a switch).
    pub value: &'a str,
}

impl Arg<'_> {
    fn bad(&self) -> CliError {
        let Arg { flag, noun, value } = self;
        CliError::Fail(format!("{flag} expects {noun}, got {value:?}"))
    }

    /// The value as a number of type `T`.
    pub fn number<T: std::str::FromStr>(&self) -> Result<T, CliError> {
        self.value.parse().map_err(|_| self.bad())
    }

    /// The value, if it is one of the `|`-separated words of the noun.
    pub fn choice(&self) -> Result<&str, CliError> {
        let listed = self.noun.split('|').any(|w| w == self.value);
        listed.then_some(self.value).ok_or_else(|| self.bad())
    }
}

/// A left-to-right scan of a command's arguments against its flag
/// table.
#[derive(Debug)]
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    table: &'static [Flag],
    max_positionals: usize,
    /// The positional arguments seen so far, in order.
    pub positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// A scan of `argv` that accepts the flags of `table` and at most
    /// `max_positionals` positional arguments.
    pub fn new(argv: &'a [String], table: &'static [Flag], max_positionals: usize) -> Self {
        Args {
            rest: argv.iter(),
            table,
            max_positionals,
            positionals: Vec::new(),
        }
    }

    /// Adds a positional argument given through a flag (`--graph FILE`).
    pub fn push_positional(&mut self, arg: &'a str) -> Result<(), CliError> {
        if self.positionals.len() == self.max_positionals {
            return Err(CliError::Usage);
        }
        self.positionals.push(arg);
        Ok(())
    }

    /// The next flag in argv order, collecting the positional arguments
    /// before it; `None` at the end of the arguments.
    pub fn next_flag(&mut self) -> Result<Option<Arg<'a>>, CliError> {
        while let Some(word) = self.rest.next() {
            let (flag, noun) = match self.table.iter().find(|f| f.name() == word) {
                Some(&Flag::Switch(flag)) => (flag, ""),
                Some(&Flag::Value(flag, noun)) => (flag, noun),
                None if word.starts_with("--") => return Err(CliError::Usage),
                Some(Flag::Positional(_)) | None => {
                    self.push_positional(word)?;
                    continue;
                }
            };
            let value = match noun {
                "" => "",
                _ => self.rest.next().ok_or_else(|| {
                    CliError::Fail(format!("{flag} expects {noun}, but none was given"))
                })?,
            };
            return Ok(Some(Arg { flag, noun, value }));
        }
        Ok(None)
    }
}

impl Flag {
    fn name(&self) -> &'static str {
        match *self {
            Flag::Switch(name) | Flag::Value(name, _) | Flag::Positional(name) => name,
        }
    }
}

/// Applies one of the execution-option flags that `csq` and `csqd`
/// share; any other flag is a usage error. `--result-cache off`
/// disables the result cache and any other accepted word enables it.
pub fn exec_flag(opts: &mut ExecOptions, arg: &Arg<'_>) -> Result<(), CliError> {
    match arg.flag {
        "--algorithm" => opts.default_algorithm = arg.value.parse()?,
        "--timeout" => opts.default_timeout = Some(Duration::from_millis(arg.number()?)),
        "--timeout-ms" => opts.deadline = Some(Duration::from_millis(arg.number()?)),
        "--result-cache" if arg.choice()? == "off" => opts.result_cache = ResultCacheMode::Off,
        "--result-cache" => opts.result_cache = ResultCacheMode::On,
        _ => return Err(CliError::Usage),
    }
    Ok(())
}
