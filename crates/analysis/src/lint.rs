//! Repo-specific source lints, enforced in CI alongside clippy.
//!
//! Seven rules, each encoding a convention this codebase adopted after
//! real incidents (panicking boot paths mid-campaign, a catch-all arm
//! that silently diverted NoFT reads to the PFS, an unjustified
//! `Relaxed` snapshot that could report more completions than
//! initiations, bare wall-clock calls that made whole subsystems
//! impossible to run deterministically in virtual time, recovery
//! tunables scattered as magic numbers that no one module owned, the
//! unbounded serve queue that the overload-armor PR replaced with
//! admission control, and the per-hop value copies that the zero-copy
//! data-plane PR removed):
//!
//! * **unwrap** — no `.unwrap()` / `.expect(` in non-test library code.
//!   Typed errors or destructuring `let-else` are required; a deliberate
//!   exception carries a `lint:allow(unwrap)` comment on the same or one
//!   of the three preceding lines.
//! * **err-catchall** — no `Err(_) =>` / `Err(..) =>` arms: fallback
//!   logic must name the failure it handles, or carry a
//!   `lint:allow(err-catchall)` waiver comment.
//! * **ordering** — every atomic-ordering choice (`Ordering::Relaxed`,
//!   `::Acquire`, …) needs a justification comment containing
//!   `ordering:` within the ten preceding lines.
//! * **wall-clock** — in the protocol crates (`crates/net`, `crates/core`,
//!   `crates/storage`, `crates/obs`) and the umbrella `src/`, no direct
//!   `Instant::now(` / `SystemTime::now(` / `thread::sleep(` /
//!   `.elapsed(`: time must flow through the injected
//!   `ftc_time::ClockHandle`, so the entire stack stays runnable on a
//!   `VirtualClock`. The clock crate itself and the non-protocol crates
//!   (DES simulator, training driver, slurm shim, this crate) are exempt;
//!   a deliberate exception carries `lint:allow(wall-clock)`.
//! * **policy-const** — in `crates/core` and the umbrella `src/`, the
//!   recovery-policy tunables (`recache_rate`, `recache_burst`,
//!   `replication`) must not be initialised from numeric literals outside
//!   `policy.rs`: every tunable flows through the named defaults in
//!   `ftc_core::policy`, so one module states all of them. A deliberate
//!   exception (e.g. a sabotage harness zeroing the bucket) carries
//!   `lint:allow(policy-const)`.
//! * **bounded-queue** — in the protocol ingress layers (`crates/net`,
//!   `crates/wire`, `crates/core`), no unbounded queue construction:
//!   `VecDeque::new(` and unbounded channel constructors (`channel()`,
//!   `unbounded()`) are banned outside test code. Overload protection is
//!   only as good as its weakest ingress point — one unbounded buffer
//!   upstream of the admission queue turns load-shedding into
//!   load-hiding. Every queue names its bound (`with_capacity` + an
//!   enforced cap, a bounded channel) or carries a
//!   `lint:allow(bounded-queue)` waiver stating what bounds it.
//! * **hot-path-alloc** — in the serving read-path files (client, server,
//!   single-flight, the value/cache/index/object stores, the wire codec),
//!   no copying constructors on value bytes: `.to_vec()`, `Vec::from(`,
//!   and path-qualified `::copy_from_slice(` are banned. The zero-copy
//!   data plane hands `ValueBuf` windows (refcount bumps) between tiers;
//!   one stray `.to_vec()` on the reply path silently reintroduces a
//!   per-read allocation that no test catches but every benchmark pays
//!   for. A deliberate copy (the `ValueBuf::to_vec` escape hatch itself,
//!   `detach`'s right-sizing copy, a conversion at a boundary that must
//!   own its bytes) carries a `lint:allow(hot-path-alloc)` waiver naming
//!   why the copy is required.
//!
//! There is no `syn` in this build environment, so the scanner is a
//! hand-rolled lexer: it strips line/block comments (keeping their text
//! for waiver and justification lookup), string/char literals (raw
//! strings included), and whole `#[cfg(test)]` items (brace-balanced), and
//! then pattern-matches on what remains. That is conservative enough for
//! this repo's idiom and has no false positives on the current tree —
//! which the `workspace_is_lint_clean` test pins.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (`"unwrap"`, `"err-catchall"`, `"ordering"`,
    /// `"wall-clock"`, `"policy-const"`, `"bounded-queue"`,
    /// `"hot-path-alloc"`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Lines a waiver comment may precede its waived code by.
const WAIVER_LOOKBACK: usize = 3;
/// Lines a justification comment may precede an atomic ordering by.
const ORDERING_LOOKBACK: usize = 10;

/// Path prefixes (repo-relative) where the `wall-clock` rule applies:
/// the protocol layers that must run identically on wall and virtual
/// clocks. `crates/time` (the clock layer itself) and the non-protocol
/// crates are deliberately absent.
const WALL_CLOCK_SCOPE: &[&str] = &[
    "crates/core/",
    "crates/net/",
    "crates/obs/",
    "crates/storage/",
    // The TCP backend is inherently wall-bound (socket deadlines, accept
    // polls) — but it is scoped, not exempted: every wall-clock call in
    // `crates/wire` must carry an explicit `lint:allow(wall-clock)`
    // waiver naming its reason, so new ones are a review decision.
    "crates/wire/",
    "src/",
];

/// Calls the `wall-clock` rule bans inside [`WALL_CLOCK_SCOPE`].
const WALL_CLOCK_CALLS: &[&str] = &[
    "Instant::now(",
    "SystemTime::now(",
    "thread::sleep(",
    ".elapsed(",
];

/// True when `label` (a repo-relative path) falls under the wall-clock
/// rule's scope.
fn wall_clock_scoped(label: &Path) -> bool {
    let l = label.to_string_lossy().replace('\\', "/");
    WALL_CLOCK_SCOPE.iter().any(|p| l.starts_with(p))
}

/// An aliased import of a banned wall-clock symbol — the evasion
/// `use std::time::Instant as I;` + `I::now()` that the plain substring
/// list misses. Collected in a pre-pass over the whole file (the alias
/// may be declared far from its call sites).
struct WallClockAlias {
    /// What the alias renames, for the finding message.
    origin: &'static str,
    /// The call pattern to scan for (`I::now(` / `nap(`).
    needle: String,
}

/// Scan `use` declarations for aliases of the banned wall-clock symbols.
/// Handles the two spellings that occur in practice: a single renamed
/// item (`use std::time::Instant as I;`) and a renamed item inside a
/// brace list (`use std::time::{Duration, Instant as I};`).
fn collect_wall_clock_aliases(code: &[String]) -> Vec<WallClockAlias> {
    const RENAMABLE: &[(&str, &[(&str, &str)])] = &[
        (
            "std::time::",
            &[
                ("Instant", "std::time::Instant"),
                ("SystemTime", "std::time::SystemTime"),
            ],
        ),
        ("std::thread::", &[("sleep", "std::thread::sleep")]),
    ];
    let mut out = Vec::new();
    for line in code {
        let Some(use_pos) = line.find("use ") else {
            continue;
        };
        let stmt = &line[use_pos + 4..];
        for &(module, items) in RENAMABLE {
            let Some(pos) = stmt.find(module) else {
                continue;
            };
            let rest = &stmt[pos + module.len()..];
            // Single item or brace list; either way the interesting part
            // ends at `}` or `;`.
            let list = rest
                .strip_prefix('{')
                .unwrap_or(rest)
                .split(['}', ';'])
                .next()
                .unwrap_or("");
            for item in list.split(',') {
                let Some((name, alias)) = item.split_once(" as ") else {
                    continue;
                };
                let (name, alias) = (name.trim(), alias.trim());
                if alias.is_empty() || !alias.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                if let Some(&(_, origin)) = items.iter().find(|&&(n, _)| n == name) {
                    let needle = if name == "sleep" {
                        format!("{alias}(")
                    } else {
                        format!("{alias}::now(")
                    };
                    out.push(WallClockAlias { origin, needle });
                }
            }
        }
    }
    out
}

/// First aliased wall-clock call on the line, with a left word boundary
/// so `kidnap(` never matches a `sleep as nap` alias.
fn find_aliased_call<'a>(code: &str, aliases: &'a [WallClockAlias]) -> Option<&'a WallClockAlias> {
    for a in aliases {
        let mut search = 0;
        while let Some(pos) = code[search..].find(a.needle.as_str()) {
            let start = search + pos;
            search = start + a.needle.len();
            if start > 0 {
                let prev = code.as_bytes()[start - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            return Some(a);
        }
    }
    None
}

/// Path prefixes (repo-relative) where the `bounded-queue` rule applies:
/// the layers requests flow through before admission control can shed
/// them. The umbrella `src/` and the non-protocol crates are exempt —
/// harness-side collections are workload-bounded by construction.
const BOUNDED_QUEUE_SCOPE: &[&str] = &["crates/core/", "crates/net/", "crates/wire/"];

/// Constructors the `bounded-queue` rule bans inside
/// [`BOUNDED_QUEUE_SCOPE`]: the unbounded deque, and unbounded channel
/// constructors (`ftc_time::ClockHandle::channel()`, `mpsc::channel()`,
/// crossbeam's `unbounded()`).
const BOUNDED_QUEUE_CALLS: &[&str] = &["VecDeque::new(", "channel()", "unbounded()"];

/// True when `label` falls under the bounded-queue rule's scope.
fn bounded_queue_scoped(label: &Path) -> bool {
    let l = label.to_string_lossy().replace('\\', "/");
    BOUNDED_QUEUE_SCOPE.iter().any(|p| l.starts_with(p))
}

/// Exact files (repo-relative) where the `hot-path-alloc` rule applies:
/// the serving read path, where every per-read allocation multiplies by
/// request rate. Deliberately a file list, not a prefix list — the miss
/// path (`pfs.rs`, where synthesis allocates by nature) copies
/// legitimately and stays out of scope.
const HOT_PATH_ALLOC_SCOPE: &[&str] = &[
    "crates/core/src/client.rs",
    "crates/core/src/overload.rs",
    "crates/core/src/proto.rs",
    "crates/core/src/server.rs",
    "crates/core/src/singleflight.rs",
    "crates/storage/src/value.rs",
    "crates/storage/src/nvme.rs",
    "crates/storage/src/index.rs",
    "crates/storage/src/object.rs",
    "crates/wire/src/codec.rs",
    "crates/wire/src/frame.rs",
    "crates/wire/src/tcp.rs",
];

/// Copying constructors the `hot-path-alloc` rule bans inside
/// [`HOT_PATH_ALLOC_SCOPE`]. `::copy_from_slice(` is matched
/// path-qualified so the method *definition* in `value.rs` does not
/// trip its own rule.
const HOT_PATH_ALLOC_CALLS: &[&str] = &[".to_vec()", "Vec::from(", "::copy_from_slice("];

/// True when `label` is one of the hot-path files.
fn hot_path_alloc_scoped(label: &Path) -> bool {
    let l = label.to_string_lossy().replace('\\', "/");
    HOT_PATH_ALLOC_SCOPE.iter().any(|p| l == *p)
}

/// Path prefixes where the `policy-const` rule applies: the core crate
/// (where the tunables are consumed) and the umbrella harness. The file
/// that *defines* the tunables is exempt by name.
const POLICY_CONST_SCOPE: &[&str] = &["crates/core/", "src/"];

/// The recovery-policy tunables the `policy-const` rule guards.
const POLICY_CONST_FIELDS: &[&str] = &["recache_rate", "recache_burst", "replication"];

/// True when `label` falls under the policy-const rule's scope.
fn policy_const_scoped(label: &Path) -> bool {
    let l = label.to_string_lossy().replace('\\', "/");
    POLICY_CONST_SCOPE.iter().any(|p| l.starts_with(p)) && !l.ends_with("policy.rs")
}

/// `recache_rate: 50_000.0` / `replication: 2` … — a policy tunable
/// initialised from a numeric literal in place. Type ascriptions
/// (`replication: u32`) and named constants do not match.
fn has_policy_const(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    for field in POLICY_CONST_FIELDS {
        let mut search = 0;
        while let Some(pos) = code[search..].find(field) {
            let start = search + pos;
            search = start + field.len();
            // Word boundary on the left: `max_replication` must not match.
            if start > 0 {
                let prev = bytes[start - 1] as char;
                if prev.is_alphanumeric() || prev == '_' {
                    continue;
                }
            }
            let rest = code[start + field.len()..].trim_start();
            let Some(rest) = rest.strip_prefix(':') else {
                continue;
            };
            // `::` is a path segment, not a field init.
            if rest.starts_with(':') {
                continue;
            }
            if rest.trim_start().starts_with(|c: char| c.is_ascii_digit()) {
                return Some(field);
            }
        }
    }
    None
}

/// Lint every library source file under `root` (the workspace root).
///
/// Scope: `crates/*/src/**.rs` — excluding `crates/bench` (experiment
/// binaries exit on broken preconditions by design) — plus the root
/// `src/`. Shims are stand-ins for external crates and are not held to
/// repo conventions.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<LintFinding>> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "bench"))
        .collect();
    crate_dirs.sort();
    let mut src_dirs: Vec<PathBuf> = crate_dirs.iter().map(|c| c.join("src")).collect();
    src_dirs.push(root.join("src"));

    for dir in src_dirs {
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for file in files {
            let source = fs::read_to_string(&file)?;
            let label = file.strip_prefix(root).unwrap_or(&file);
            findings.extend(lint_source(label, &source));
        }
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one source file. `label` is used in findings (typically the
/// repo-relative path).
pub fn lint_source(label: &Path, source: &str) -> Vec<LintFinding> {
    let lexed = lex(source);
    let mut findings = Vec::new();
    let wall_scoped = wall_clock_scoped(label);
    let wall_aliases = if wall_scoped {
        collect_wall_clock_aliases(&lexed.code)
    } else {
        Vec::new()
    };
    let policy_scoped = policy_const_scoped(label);
    let bounded_scoped = bounded_queue_scoped(label);
    let hot_scoped = hot_path_alloc_scoped(label);

    let waived = |rule: &str, line_idx: usize| -> bool {
        let marker = format!("lint:allow({rule})");
        let lo = line_idx.saturating_sub(WAIVER_LOOKBACK);
        lexed.comments[lo..=line_idx]
            .iter()
            .any(|c| c.contains(&marker))
    };

    for (i, code) in lexed.code.iter().enumerate() {
        if lexed.in_test[i] {
            continue;
        }
        let line_no = i + 1;

        if (code.contains(".unwrap()") || code.contains(".expect(")) && !waived("unwrap", i) {
            findings.push(LintFinding {
                file: label.to_path_buf(),
                line: line_no,
                rule: "unwrap",
                message: "unwrap()/expect() in non-test code; return a typed \
                          error or destructure, or waive with lint:allow(unwrap)"
                    .into(),
            });
        }

        if has_err_catchall(code) && !waived("err-catchall", i) {
            findings.push(LintFinding {
                file: label.to_path_buf(),
                line: line_no,
                rule: "err-catchall",
                message: "catch-all Err arm; name the failure being handled, \
                          or waive with lint:allow(err-catchall)"
                    .into(),
            });
        }

        if wall_scoped {
            if let Some(call) = WALL_CLOCK_CALLS.iter().find(|c| code.contains(*c)) {
                if !waived("wall-clock", i) {
                    findings.push(LintFinding {
                        file: label.to_path_buf(),
                        line: line_no,
                        rule: "wall-clock",
                        message: format!(
                            "direct wall-clock call `{call}..)` in a protocol layer; \
                             go through the injected ftc_time::ClockHandle, or waive \
                             with lint:allow(wall-clock)"
                        ),
                    });
                }
            } else if let Some(a) = find_aliased_call(code, &wall_aliases) {
                if !waived("wall-clock", i) {
                    findings.push(LintFinding {
                        file: label.to_path_buf(),
                        line: line_no,
                        rule: "wall-clock",
                        message: format!(
                            "aliased wall-clock call `{}..)` ({} renamed by a `use .. as` \
                             import) in a protocol layer; go through the injected \
                             ftc_time::ClockHandle, or waive with lint:allow(wall-clock)",
                            a.needle, a.origin
                        ),
                    });
                }
            }
        }

        if bounded_scoped {
            if let Some(call) = BOUNDED_QUEUE_CALLS.iter().find(|c| code.contains(*c)) {
                if !waived("bounded-queue", i) {
                    findings.push(LintFinding {
                        file: label.to_path_buf(),
                        line: line_no,
                        rule: "bounded-queue",
                        message: format!(
                            "unbounded queue construction `{call}..)` in a protocol \
                             ingress layer; name the bound (with_capacity + an enforced \
                             cap, or a bounded channel), or waive with \
                             lint:allow(bounded-queue) stating what bounds it"
                        ),
                    });
                }
            }
        }

        if hot_scoped {
            if let Some(call) = HOT_PATH_ALLOC_CALLS.iter().find(|c| code.contains(*c)) {
                if !waived("hot-path-alloc", i) {
                    findings.push(LintFinding {
                        file: label.to_path_buf(),
                        line: line_no,
                        rule: "hot-path-alloc",
                        message: format!(
                            "copying allocation `{call}..)` on the serving read path; \
                             hand a ValueBuf window (clone is a refcount bump) instead, \
                             or waive with lint:allow(hot-path-alloc) naming why the \
                             copy is required"
                        ),
                    });
                }
            }
        }

        if policy_scoped {
            if let Some(field) = has_policy_const(code) {
                if !waived("policy-const", i) {
                    findings.push(LintFinding {
                        file: label.to_path_buf(),
                        line: line_no,
                        rule: "policy-const",
                        message: format!(
                            "hard-coded recovery-policy tunable `{field}`; route it \
                             through the named defaults in ftc_core::policy, or waive \
                             with lint:allow(policy-const)"
                        ),
                    });
                }
            }
        }

        if mentions_atomic_ordering(code) {
            let lo = i.saturating_sub(ORDERING_LOOKBACK);
            let justified = lexed.comments[lo..=i]
                .iter()
                .any(|c| c.contains("ordering:"));
            if !justified {
                findings.push(LintFinding {
                    file: label.to_path_buf(),
                    line: line_no,
                    rule: "ordering",
                    message: "atomic Ordering choice without a nearby \
                              `ordering:` justification comment"
                        .into(),
                });
            }
        }
    }
    findings
}

/// `Err(_) =>` or `Err(..) =>`, tolerating interior whitespace.
fn has_err_catchall(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(pos) = code[search..].find("Err") {
        let start = search + pos;
        search = start + 3;
        let rest = code[start + 3..].trim_start();
        let Some(inner) = rest.strip_prefix('(') else {
            continue;
        };
        let inner = inner.trim_start();
        let after = if let Some(r) = inner.strip_prefix("..") {
            r
        } else if let Some(r) = inner.strip_prefix('_') {
            // `_x` is a named-but-unused binding; only a bare `_` is a
            // catch-all.
            if r.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
                continue;
            }
            r
        } else {
            continue;
        };
        // Word-boundary on the left: `MyErr(_)` must not match.
        if start > 0 {
            let prev = bytes[start - 1] as char;
            if prev.is_alphanumeric() || prev == '_' || prev == ':' {
                continue;
            }
        }
        if after.trim_start().starts_with(')') {
            return true;
        }
    }
    false
}

/// `Ordering::<atomic variant>` — `cmp::Ordering::Less` etc. stay exempt.
fn mentions_atomic_ordering(code: &str) -> bool {
    let mut search = 0;
    while let Some(pos) = code[search..].find("Ordering::") {
        let start = search + pos + "Ordering::".len();
        search = start;
        let rest = &code[start..];
        if ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"]
            .iter()
            .any(|v| rest.starts_with(v))
        {
            return true;
        }
    }
    false
}

/// Per-line lexing result.
struct Lexed {
    /// Source lines with comments, strings, and char literals blanked.
    code: Vec<String>,
    /// Comment text per line (line + block, concatenated).
    comments: Vec<String>,
    /// Whether the line belongs to a `#[cfg(test)]` item.
    in_test: Vec<bool>,
}

fn lex(source: &str) -> Lexed {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut code = vec![String::new()];
    let mut comments = vec![String::new()];
    let mut mode = Mode::Code;
    let mut chars = source.chars().peekable();

    while let Some(c) = chars.next() {
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            code.push(String::new());
            comments.push(String::new());
            continue;
        }
        let line_code = code.last_mut().expect("lines start non-empty"); // lint:allow(unwrap) in own source: invariant-true by construction
        let line_comment = comments.last_mut().expect("lines start non-empty"); // lint:allow(unwrap)
        match mode {
            Mode::Code => match c {
                '/' if chars.peek() == Some(&'/') => {
                    chars.next();
                    mode = Mode::LineComment;
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    mode = Mode::BlockComment(1);
                }
                '"' => {
                    line_code.push(' ');
                    mode = Mode::Str;
                }
                'r' | 'b' => {
                    // Possible raw-string head: r", r#", br", rb#"…
                    let mut lookahead = chars.clone();
                    let mut hashes = 0u32;
                    let mut saw_quote = false;
                    // Allow one more prefix letter (br / rb).
                    if matches!(lookahead.peek(), Some('r' | 'b')) {
                        lookahead.next();
                    }
                    while lookahead.peek() == Some(&'#') {
                        hashes += 1;
                        lookahead.next();
                    }
                    if lookahead.peek() == Some(&'"') {
                        saw_quote = true;
                    }
                    if saw_quote {
                        // Consume up to and including the opening quote.
                        while let Some(&n) = chars.peek() {
                            chars.next();
                            if n == '"' {
                                break;
                            }
                        }
                        line_code.push(' ');
                        mode = Mode::RawStr(hashes);
                    } else {
                        line_code.push(c);
                    }
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let mut lookahead = chars.clone();
                    match lookahead.next() {
                        Some('\\') => {
                            line_code.push(' ');
                            mode = Mode::Char;
                        }
                        Some(_) if lookahead.next() == Some('\'') => {
                            line_code.push(' ');
                            mode = Mode::Char;
                        }
                        _ => line_code.push(c), // lifetime: keep as code
                    }
                }
                _ => line_code.push(c),
            },
            Mode::LineComment => line_comment.push(c),
            Mode::BlockComment(depth) => match c {
                '*' if chars.peek() == Some(&'/') => {
                    chars.next();
                    if depth == 1 {
                        mode = Mode::Code;
                    } else {
                        mode = Mode::BlockComment(depth - 1);
                    }
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    mode = Mode::BlockComment(depth + 1);
                }
                _ => line_comment.push(c),
            },
            Mode::Str => match c {
                '\\' => {
                    chars.next();
                }
                '"' => mode = Mode::Code,
                _ => {}
            },
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let mut lookahead = chars.clone();
                    let mut n = 0;
                    while n < hashes && lookahead.peek() == Some(&'#') {
                        lookahead.next();
                        n += 1;
                    }
                    if n == hashes {
                        for _ in 0..hashes {
                            chars.next();
                        }
                        mode = Mode::Code;
                    }
                }
            }
            Mode::Char => match c {
                '\\' => {
                    chars.next();
                }
                '\'' => mode = Mode::Code,
                _ => {}
            },
        }
    }

    let in_test = mark_test_items(&code);
    Lexed {
        code,
        comments,
        in_test,
    }
}

/// Mark every line belonging to a `#[cfg(test)]`-gated item, by
/// brace-balancing from the attribute to the end of the item it gates.
fn mark_test_items(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].replace(' ', "").contains("#[cfg(test)]") {
            // From here, skip until the gated item's braces balance out.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < code.len() {
                in_test[j] = true;
                for ch in code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(src: &str) -> Vec<LintFinding> {
        lint_source(Path::new("test.rs"), src)
    }

    fn rules(findings: &[LintFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_unwrap_in_plain_code() {
        let f = lint_str("fn f() { let x = g().unwrap(); }\n");
        assert_eq!(rules(&f), vec!["unwrap"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn expect_is_flagged_too() {
        let f = lint_str("fn f() { g().expect(\"boom\"); }\n");
        assert_eq!(rules(&f), vec!["unwrap"]);
    }

    #[test]
    fn unwrap_inside_cfg_test_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { g().unwrap(); }\n}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn unwrap_in_string_or_comment_is_fine() {
        let src = "fn f() { let s = \".unwrap()\"; } // .unwrap() here too\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn waiver_comment_suppresses_unwrap() {
        let src = "// lint:allow(unwrap): established invariant\nfn f() { g().unwrap(); }\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn waiver_must_be_near() {
        let mut src = String::from("// lint:allow(unwrap)\n");
        src.push_str(&"\n".repeat(WAIVER_LOOKBACK + 1));
        src.push_str("fn f() { g().unwrap(); }\n");
        assert_eq!(rules(&lint_str(&src)), vec!["unwrap"]);
    }

    #[test]
    fn err_catchall_variants_are_flagged() {
        assert_eq!(
            rules(&lint_str("match r { Ok(_) => {} Err(_) => {} }\n")),
            vec!["err-catchall"]
        );
        assert_eq!(
            rules(&lint_str("match r { Ok(_) => {} Err(..) => {} }\n")),
            vec!["err-catchall"]
        );
        assert_eq!(
            rules(&lint_str("match r { Ok(_) => {} Err( _ ) => {} }\n")),
            vec!["err-catchall"]
        );
    }

    #[test]
    fn named_err_bindings_are_fine() {
        assert!(lint_str("match r { Ok(_) => {} Err(e) => handle(e) }\n").is_empty());
        assert!(lint_str("match r { Ok(_) => {} Err(_ignored) => {} }\n").is_empty());
        // Enum variants that merely end in Err must not match.
        assert!(lint_str("match r { MyErr(_) => {} other => {} }\n").is_empty());
    }

    #[test]
    fn ordering_without_justification_is_flagged() {
        let f = lint_str("fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n");
        assert_eq!(rules(&f), vec!["ordering"]);
    }

    #[test]
    fn ordering_with_nearby_justification_is_fine() {
        let src =
            "// ordering: Relaxed - monotone statistic\nfn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn cmp_ordering_is_exempt() {
        assert!(lint_str("fn f() -> Ordering { Ordering::Less }\n").is_empty());
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "fn f() { let s = r#\"x.unwrap() \"quoted\" \"#; }\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_derail_the_lexer() {
        // If 'a opened a char literal the following unwrap would be
        // swallowed as literal content and missed.
        let src = "fn f<'a>(x: &'a T) { x.get().unwrap(); }\n";
        assert_eq!(rules(&lint_str(src)), vec!["unwrap"]);
    }

    #[test]
    fn char_literals_are_blanked() {
        let src = "fn f() { let c = '\"'; let s = \".unwrap()\"; }\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner */ still comment .unwrap() */ fn f() {}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn wall_clock_calls_are_flagged_in_protocol_crates() {
        for call in [
            "Instant::now()",
            "SystemTime::now()",
            "std::thread::sleep(d)",
            "t0.elapsed()",
        ] {
            let src = format!("fn f() {{ let _ = {call}; }}\n");
            let f = lint_source(Path::new("crates/core/src/client.rs"), &src);
            assert_eq!(rules(&f), vec!["wall-clock"], "call {call}");
        }
    }

    #[test]
    fn wall_clock_rule_is_scoped_to_protocol_layers() {
        let src = "fn f() { let t = Instant::now(); }\n";
        // The clock layer and the non-protocol crates own their use of
        // wall time.
        for exempt in [
            "crates/time/src/lib.rs",
            "crates/sim/src/lib.rs",
            "crates/train/src/lib.rs",
            "test.rs",
        ] {
            assert!(
                lint_source(Path::new(exempt), src).is_empty(),
                "{exempt} must be exempt"
            );
        }
        assert_eq!(
            rules(&lint_source(Path::new("src/chaos.rs"), src)),
            vec!["wall-clock"]
        );
    }

    #[test]
    fn wall_clock_in_tests_or_comments_is_fine() {
        let test_gated = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n";
        assert!(lint_source(Path::new("crates/net/src/transport.rs"), test_gated).is_empty());
        let comment = "fn f() {} // Instant::now() would be wrong here\n";
        assert!(lint_source(Path::new("crates/net/src/transport.rs"), comment).is_empty());
    }

    #[test]
    fn wall_clock_waiver_suppresses() {
        let src =
            "// lint:allow(wall-clock): process boot stamp, never virtualized\nfn f() { let t = Instant::now(); }\n";
        assert!(lint_source(Path::new("crates/core/src/server.rs"), src).is_empty());
    }

    #[test]
    fn wall_clock_fully_qualified_paths_are_flagged() {
        // Evasion regression: spelling the full path instead of importing
        // must not slip past the substring list.
        for call in [
            "std::time::SystemTime::now()",
            "std::time::Instant::now()",
            "::std::thread::sleep(d)",
        ] {
            let src = format!("fn f() {{ let _ = {call}; }}\n");
            let f = lint_source(Path::new("crates/net/src/transport.rs"), &src);
            assert_eq!(rules(&f), vec!["wall-clock"], "call {call}");
        }
    }

    #[test]
    fn wall_clock_aliased_instant_import_is_flagged() {
        // Evasion regression: `use .. as` renames hide the symbol from
        // the direct substring list; the alias pre-pass must catch it.
        let src = "use std::time::Instant as I;\nfn f() { let t = I::now(); }\n";
        let f = lint_source(Path::new("crates/core/src/client.rs"), src);
        assert_eq!(rules(&f), vec!["wall-clock"]);
        assert!(
            f[0].message.contains("std::time::Instant"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn wall_clock_aliased_brace_list_import_is_flagged() {
        let src = "use std::time::{Duration, SystemTime as St};\nfn f() { let t = St::now(); }\n";
        let f = lint_source(Path::new("crates/obs/src/timeline.rs"), src);
        assert_eq!(rules(&f), vec!["wall-clock"]);
        assert!(
            f[0].message.contains("std::time::SystemTime"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn wall_clock_aliased_sleep_is_flagged_with_word_boundary() {
        let src = "use std::thread::sleep as nap;\nfn f(d: Duration) { nap(d); }\n";
        let f = lint_source(Path::new("src/chaos.rs"), src);
        assert_eq!(rules(&f), vec!["wall-clock"]);
        // A lookalike identifier ending in the alias must not match.
        let src = "use std::thread::sleep as nap;\nfn f(d: Duration) { kidnap(d); }\n";
        assert!(lint_source(Path::new("src/chaos.rs"), src).is_empty());
    }

    #[test]
    fn wall_clock_aliases_respect_scope_and_waivers() {
        let src = "use std::time::Instant as I;\nfn f() { let t = I::now(); }\n";
        // Out-of-scope crates may alias freely.
        assert!(lint_source(Path::new("crates/sim/src/lib.rs"), src).is_empty());
        // The waiver works on aliased calls like on direct ones.
        let waived = "use std::time::Instant as I;\n// lint:allow(wall-clock): boot stamp\nfn f() { let t = I::now(); }\n";
        assert!(lint_source(Path::new("crates/core/src/client.rs"), waived).is_empty());
        // Aliasing something harmless must not arm the rule.
        let harmless = "use std::time::Duration as D;\nfn f(d: D) { let _ = d; }\n";
        assert!(lint_source(Path::new("crates/core/src/client.rs"), harmless).is_empty());
    }

    #[test]
    fn policy_const_literal_is_flagged_in_scope() {
        let src = "fn f() { let c = RecoveryConfig { recache_rate: 100.0, ..d }; }\n";
        let f = lint_source(Path::new("crates/core/src/recovery.rs"), src);
        assert_eq!(rules(&f), vec!["policy-const"]);
        let src = "fn f() { let c = FtConfig { replication: 2, ..q }; }\n";
        assert_eq!(
            rules(&lint_source(Path::new("src/chaos.rs"), src)),
            vec!["policy-const"]
        );
    }

    #[test]
    fn policy_const_defining_files_are_exempt() {
        let src = "pub const X: f64 = 1.0; fn f() { let c = C { recache_burst: 512 }; }\n";
        assert!(lint_source(Path::new("crates/core/src/policy.rs"), src).is_empty());
        // Out-of-scope crates own their literals.
        assert!(lint_source(Path::new("crates/sim/src/lib.rs"), src).is_empty());
    }

    #[test]
    fn policy_const_ignores_types_constants_and_lookalikes() {
        for src in [
            "pub struct C { pub replication: u32 }\n",
            "fn f() { C { replication: DEFAULT_REPLICATION } }\n",
            "fn f() { C { max_replication: 3 } }\n",
            "fn f() { crate::policy::replication::tune() }\n",
        ] {
            assert!(
                lint_source(Path::new("crates/core/src/client.rs"), src).is_empty(),
                "{src}"
            );
        }
    }

    #[test]
    fn policy_const_waiver_suppresses() {
        let src = "// lint:allow(policy-const): sabotage mode starves the bucket\nfn f() { C { recache_rate: 0.0 } }\n";
        assert!(lint_source(Path::new("src/chaos.rs"), src).is_empty());
    }

    #[test]
    fn bounded_queue_constructors_are_flagged_in_scope() {
        for call in [
            "VecDeque::new()",
            "clock.channel()",
            "mpsc::channel()",
            "crossbeam::channel::unbounded()",
        ] {
            let src = format!("fn f() {{ let q = {call}; }}\n");
            for scoped in [
                "crates/core/src/server.rs",
                "crates/net/src/transport.rs",
                "crates/wire/src/tcp.rs",
            ] {
                let f = lint_source(Path::new(scoped), &src);
                assert_eq!(rules(&f), vec!["bounded-queue"], "{call} in {scoped}");
            }
        }
    }

    #[test]
    fn bounded_queue_rule_is_scoped_and_waivable() {
        let src = "fn f() { let q: VecDeque<u8> = VecDeque::new(); }\n";
        // Harness and non-protocol crates own their collections.
        for exempt in ["src/chaos.rs", "crates/sim/src/lib.rs", "test.rs"] {
            assert!(
                lint_source(Path::new(exempt), src).is_empty(),
                "{exempt} must be exempt"
            );
        }
        // Bounded construction does not match.
        let bounded = "fn f(cap: usize) { let q = VecDeque::with_capacity(cap); }\n";
        assert!(lint_source(Path::new("crates/core/src/server.rs"), bounded).is_empty());
        // A waiver naming the bound suppresses.
        let waived = "// lint:allow(bounded-queue): cap enforced at push_deadline\nfn f() { let q = VecDeque::new(); }\n";
        assert!(lint_source(Path::new("crates/wire/src/tcp.rs"), waived).is_empty());
        // Test code is exempt like everywhere else.
        let test_gated = "#[cfg(test)]\nmod tests {\n    fn f() { let q = VecDeque::new(); }\n}\n";
        assert!(lint_source(Path::new("crates/net/src/transport.rs"), test_gated).is_empty());
    }

    #[test]
    fn hot_path_alloc_copies_are_flagged_in_scope() {
        for call in [
            "bytes.to_vec()",
            "Vec::from(slice)",
            "ValueBuf::copy_from_slice(body)",
            "Bytes::copy_from_slice(body)",
        ] {
            let src = format!("fn f() {{ let v = {call}; }}\n");
            for scoped in [
                "crates/core/src/server.rs",
                "crates/storage/src/nvme.rs",
                "crates/wire/src/codec.rs",
            ] {
                let f = lint_source(Path::new(scoped), &src);
                assert_eq!(rules(&f), vec!["hot-path-alloc"], "{call} in {scoped}");
            }
        }
    }

    #[test]
    fn hot_path_alloc_is_file_scoped_and_waivable() {
        let src = "fn f(b: &[u8]) { let v = b.to_vec(); }\n";
        // Miss path, synthesis, harness, and non-protocol crates copy freely.
        for exempt in [
            "crates/storage/src/pfs.rs",
            "crates/storage/src/synth.rs",
            "crates/core/src/recovery.rs",
            "src/chaos.rs",
            "test.rs",
        ] {
            assert!(
                lint_source(Path::new(exempt), src).is_empty(),
                "{exempt} must be exempt"
            );
        }
        // The definition of `copy_from_slice` itself does not match the
        // path-qualified needle.
        let def = "pub fn copy_from_slice(data: &[u8]) -> Self { Self::of(data) }\n";
        assert!(lint_source(Path::new("crates/storage/src/value.rs"), def).is_empty());
        // A waiver naming the reason suppresses.
        let waived = "// lint:allow(hot-path-alloc): detach right-sizes a partial window\nfn f(b: &[u8]) { let v = b.to_vec(); }\n";
        assert!(lint_source(Path::new("crates/storage/src/value.rs"), waived).is_empty());
        // Test code is exempt like everywhere else.
        let test_gated =
            "#[cfg(test)]\nmod tests {\n    fn f(b: &[u8]) { let v = b.to_vec(); }\n}\n";
        assert!(lint_source(Path::new("crates/core/src/client.rs"), test_gated).is_empty());
    }

    #[test]
    fn workspace_is_lint_clean() {
        // The repo enforces its own conventions: the full library tree
        // must produce zero findings (CI runs the same check via the
        // ftc-analysis binary).
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/analysis has a workspace root two levels up");
        let findings = lint_workspace(root).expect("lint walk");
        assert!(
            findings.is_empty(),
            "workspace has lint findings:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
