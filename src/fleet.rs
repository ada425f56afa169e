//! Shared plumbing for the `ftc-server` / `ftc-client` binaries: a tiny
//! flag parser, deterministic dataset staging, and hand-rolled JSON
//! emission (the serde shim has no serializer, and the bench output is a
//! flat document anyway).
//!
//! Everything here is pure and unit-tested; the binaries stay thin
//! wrappers that wire these helpers to a [`ftc_wire::TcpTransport`].

use ftc_storage::Pfs;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parsed command line: `--key value` pairs plus bare `--flag` switches.
///
/// The binaries have a dozen options between them; pulling in an argument
/// parser for that would be the only registry dependency in the tree, so
/// this stays hand-rolled. Unknown keys are an error (callers list what
/// they accept), which catches typos like `--peer` for `--peers`.
#[derive(Debug, Default)]
pub struct Args {
    vals: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse `argv` (without the program name). `keys` take a value,
    /// `switches` do not. Errors on unknown options, a missing value, or
    /// a positional argument.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        keys: &[&str],
        switches: &[&str],
    ) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument: {arg}"));
            };
            if switches.contains(&name) {
                out.flags.push(name.to_string());
            } else if keys.contains(&name) {
                match it.next() {
                    Some(v) => {
                        out.vals.insert(name.to_string(), v);
                    }
                    None => return Err(format!("--{name} needs a value")),
                }
            } else {
                return Err(format!("unknown option: --{name}"));
            }
        }
        Ok(out)
    }

    /// The value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.vals.get(key).map(String::as_str)
    }

    /// The value of `--key`, or an error naming it.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    /// Parse `--key` as `T`, with a default when absent.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Whether the bare `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Deterministic dataset paths: `{prefix}/f00000 … f{count-1:05}`.
///
/// Every process in a fleet derives the identical list independently, so
/// no staging coordination (or shared filesystem) is needed: the bytes of
/// each file are a pure function of its path via
/// [`synth_bytes`](ftc_storage::synth_bytes).
pub fn dataset_paths(prefix: &str, count: usize) -> Vec<String> {
    (0..count).map(|i| format!("{prefix}/f{i:05}")).collect()
}

/// Declare the synthetic dataset on `pfs` and return the paths. Nothing
/// is generated here: each file is generated by its first read, so a
/// process holds only the files it reads.
pub fn stage_dataset(pfs: &Pfs, prefix: &str, count: usize, size: usize) -> Vec<String> {
    let paths = dataset_paths(prefix, count);
    for p in &paths {
        pfs.declare(p, size);
    }
    paths
}

/// A flat JSON document builder — objects, arrays, strings, numbers.
/// Covers exactly what `BENCH_tcp_loopback.json` and the client summary
/// need; nested values are composed by splicing pre-rendered JSON.
#[derive(Debug, Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    /// Start an empty object.
    pub fn obj() -> Self {
        Json::default()
    }

    /// Add a string field (escaped).
    pub fn s(mut self, key: &str, val: &str) -> Self {
        self.fields.push((key.to_string(), json_string(val)));
        self
    }

    /// Add an integer field.
    pub fn u(mut self, key: &str, val: u64) -> Self {
        self.fields.push((key.to_string(), val.to_string()));
        self
    }

    /// Add a float field (rendered with two decimals — throughput and
    /// rates, not identities).
    pub fn f(mut self, key: &str, val: f64) -> Self {
        self.fields.push((key.to_string(), format!("{val:.2}")));
        self
    }

    /// Add a pre-rendered JSON value (object, array) verbatim.
    pub fn raw(mut self, key: &str, val: String) -> Self {
        self.fields.push((key.to_string(), val));
        self
    }

    /// Render the object.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", json_string(k));
        }
        out.push('}');
        out
    }
}

/// Render a list of pre-rendered JSON values as an array.
pub fn json_array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// Escape a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_storage::{synth_bytes, verify_synth};

    #[test]
    fn args_parse_values_flags_and_errors() {
        let a = Args::parse(
            ["--node", "2", "--prom", "--peers", "a:1,b:2"]
                .iter()
                .map(|s| s.to_string()),
            &["node", "peers"],
            &["prom"],
        )
        .expect("parse");
        assert_eq!(a.get("node"), Some("2"));
        assert_eq!(a.required("peers").expect("peers"), "a:1,b:2");
        assert!(a.flag("prom"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.parsed_or("node", 0u32).expect("u32"), 2);
        assert_eq!(a.parsed_or("missing", 7u32).expect("default"), 7);

        assert!(Args::parse(["--bogus".into()], &["node"], &[]).is_err());
        assert!(Args::parse(["--node".into()], &["node"], &[]).is_err());
        assert!(Args::parse(["stray".into()], &["node"], &[]).is_err());
        assert!(Args::parse(["--node".into(), "x".into()], &["node"], &[])
            .expect("parse")
            .parsed_or("node", 0u32)
            .is_err());
    }

    #[test]
    fn staged_dataset_is_deterministic_and_verifiable() {
        let pfs = Pfs::in_memory();
        let paths = stage_dataset(&pfs, "train", 4, 512);
        assert_eq!(paths.len(), 4);
        assert_eq!(paths[0], "train/f00000");
        // A second process staging independently produces identical bytes.
        for p in &paths {
            let data = pfs.read(p).expect("staged");
            assert_eq!(data, synth_bytes(p, 512));
            assert!(verify_synth(p, &data));
        }
    }

    #[test]
    fn json_renders_escaped_flat_documents() {
        let doc = Json::obj()
            .s("name", "a\"b\\c\n")
            .u("reads", 31)
            .f("rps", 1234.5)
            .raw("sizes", json_array(&["1".into(), "2".into()]))
            .render();
        assert_eq!(
            doc,
            r#"{"name": "a\"b\\c\n", "reads": 31, "rps": 1234.50, "sizes": [1, 2]}"#
        );
    }
}
