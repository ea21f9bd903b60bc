//! The argv reader `commgen` and every `commbench` verb parse with: a
//! cursor that hands out flags and their values, and words the three
//! diagnostics all of them share. Also the one reader and writer of whole
//! trace files both binaries use, the format named by the extension.

use scalatrace::Trace;
use std::fmt::Display;
use std::path::{Path, PathBuf};
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

/// The on-disk format of a whole trace file.
#[derive(Clone, Copy)]
enum TraceFormat {
    /// `.st`: the ScalaTrace-style text view.
    Text,
    /// `.stbs`: the lossless binary STBS file.
    Binary,
}

/// `.st` is the text format, `.stbs` the binary one; anything else is
/// ambiguous.
fn format_of(path: &Path) -> Result<TraceFormat, String> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("st") => Ok(TraceFormat::Text),
        Some("stbs") => Ok(TraceFormat::Binary),
        _ => Err(format!(
            "cannot infer trace format of {} (expected a .st or .stbs extension)",
            path.display()
        )),
    }
}

/// `path`, provided its extension names a trace format: what a flag taking
/// a trace file checks at parse time.
pub fn trace_path(path: PathBuf) -> Result<PathBuf, String> {
    format_of(&path)?;
    Ok(path)
}

/// `a.stbs (STBS v1, 3027 B)`: a trace file, its format and its size.
fn describe(format: TraceFormat, path: &Path, bytes: &[u8]) -> String {
    let format = match format {
        TraceFormat::Text => "text".to_string(),
        TraceFormat::Binary => match scalatrace::frame::peek_version(bytes) {
            Some(v) => format!("STBS v{v}"),
            None => "STBS".to_string(),
        },
    };
    format!("{} ({format}, {} B)", path.display(), bytes.len())
}

/// Read a whole trace in the format its extension names — any version of
/// the binary one — and say what the file was.
pub fn read_trace(path: &Path) -> Result<(Trace, String), String> {
    let format = format_of(path)?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let trace = match format {
        TraceFormat::Text => scalatrace::text::from_text(&String::from_utf8_lossy(&bytes))
            .map_err(|e| format!("cannot parse trace {}: {e}", path.display()))?,
        TraceFormat::Binary => scalatrace::stream::trace_from_bytes(&bytes)
            .map_err(|e| format!("cannot decode trace {}: {e}", path.display()))?,
    };
    Ok((trace, describe(format, path, &bytes)))
}

/// Write a whole trace in the format the extension names — the newest
/// version of the binary one — and say what the file is.
pub fn write_trace(path: &Path, trace: &Trace) -> Result<String, String> {
    let format = format_of(path)?;
    let bytes = match format {
        TraceFormat::Text => scalatrace::text::to_text(trace).into_bytes(),
        TraceFormat::Binary => scalatrace::stream::trace_to_bytes(trace),
    };
    std::fs::write(path, &bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(describe(format, path, &bytes))
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
