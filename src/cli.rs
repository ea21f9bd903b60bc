//! The argv reader `commgen` and every `commbench` verb parse with: a
//! cursor that hands out flags and their values, and words the three
//! diagnostics all of them share.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// Cursor over one argument vector.
pub struct Argv<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Argv<'a> {
    /// Start before the first argument.
    pub fn new(argv: &'a [String]) -> Argv<'a> {
        Argv {
            rest: argv.iter(),
            flag: "",
        }
    }

    /// Step to the next argument — the flag the methods below then speak
    /// of — or `None` when none is left.
    pub fn flag(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value: the argument after it.
    pub fn value(&mut self) -> Result<String, String> {
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| format!("missing value for {}", self.flag))
    }

    /// The current flag's value, parsed.
    pub fn parsed<T>(&mut self) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let flag = self.flag;
        self.value()?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    }

    /// The current flag's value as a path.
    pub fn path(&mut self) -> Result<PathBuf, String> {
        self.value().map(PathBuf::from)
    }

    /// The rejection of a flag the verb does not know.
    pub fn unknown(&self) -> String {
        format!("unknown argument {} (try --help)", self.flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn hands_out_flags_values_and_the_shared_diagnostics() {
        let args = argv("--ranks 8 -o out.st --run --ranks x --frob --ranks");
        let mut a = Argv::new(&args);
        assert_eq!(a.flag(), Some("--ranks"));
        assert_eq!(a.parsed::<usize>(), Ok(8));
        assert_eq!(a.flag(), Some("-o"));
        assert_eq!(a.path(), Ok(PathBuf::from("out.st")));
        assert_eq!(a.flag(), Some("--run"));
        assert_eq!(a.flag(), Some("--ranks"));
        assert_eq!(
            a.parsed::<usize>().unwrap_err(),
            "bad --ranks: invalid digit found in string"
        );
        assert_eq!(a.flag(), Some("--frob"));
        assert_eq!(a.unknown(), "unknown argument --frob (try --help)");
        assert_eq!(a.flag(), Some("--ranks"));
        assert_eq!(a.value().unwrap_err(), "missing value for --ranks");
        assert_eq!(a.flag(), None);
    }
}
