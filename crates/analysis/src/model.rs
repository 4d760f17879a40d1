//! The lightweight per-function source model shared by the concurrency
//! (`CC…`) and resource-bound (`RB…`) analyses.
//!
//! The parser here is deliberately token-level: no full Rust grammar,
//! just comment/string stripping (so patterns never fire inside text),
//! brace tracking (so every line belongs to exactly one innermost
//! function) and pattern extraction tuned to this codebase's conventions.
//! What it recovers per function:
//!
//! - **lock sites** — `lock()` / `read()` / `write()` acquisitions (the
//!   reader/writer forms only in files that mention `RwLock`), each with a
//!   normalized *lock path* (the receiver expression, `self.`-stripped,
//!   argument lists collapsed to `()` and index expressions to `[_]`),
//!   the guard binding kind and a conservative guard scope;
//! - **call sites** — identifiers applied to an argument list, resolved
//!   later by bare name against every workspace function (a documented
//!   over-approximation);
//! - **spawn sites and `Arc<Mutex<_>>` clones** — the raw material for
//!   the cross-thread sharing rule;
//! - **collection mutations** — grow (`push`/`insert`/`extend`…) and
//!   shrink (`pop`/`remove`/`clear`…) calls with normalized receiver
//!   paths, feeding the resource-bound rules (`RB…`).
//!
//! Known over-approximations are documented in `DESIGN.md` §12–§13: calls
//! resolve by bare name (all same-named functions are deemed callees),
//! lock identity is `(file, path)` so a lock reached through a local
//! alias becomes a distinct node, and guard scopes extend to the end of
//! the binding's block even when the guard is moved or dropped early by
//! means other than a literal `drop(guard)`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use pruneperf_profiler::sweep;

/// How a lock guard is bound at its acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardBinding {
    /// `let name = …` (including `let mut name`): the guard lives until
    /// the end of the enclosing block or an explicit `drop(name)`.
    Named(String),
    /// `let _ = …`: the guard drops immediately — an empty critical
    /// section, almost always a bug (`CC006`).
    Discarded,
    /// No `let`: a temporary, live to the end of its statement.
    Temporary,
}

/// Which accessor acquired the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex::lock`.
    Lock,
    /// `RwLock::read`.
    Read,
    /// `RwLock::write`.
    Write,
}

impl LockKind {
    /// The accessor name as written in source.
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Lock => "lock",
            LockKind::Read => "read",
            LockKind::Write => "write",
        }
    }
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Normalized receiver path (`shards[_]`, `shard()`, `attempts`).
    pub path: String,
    /// Accessor used.
    pub kind: LockKind,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Column (0-based char index) of the accessor's `.`.
    pub col: usize,
    /// How the resulting guard is bound.
    pub binding: GuardBinding,
    /// Last 1-based line on which the guard may still be live.
    pub scope_end: usize,
    /// The guard is consumed by a bare `.unwrap()` / `.expect(…)`.
    pub unwrapped: bool,
    /// The acquisition uses the poison-recovery idiom
    /// (`unwrap_or_else(PoisonError::into_inner)`) or otherwise handles
    /// the `Err` case.
    pub poison_handled: bool,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (`shard`, `cost`, `ordered_parallel_map`).
    pub name: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Column (0-based char index) of the callee identifier.
    pub col: usize,
    /// For a method call `recv.name(…)` with a simple identifier
    /// receiver: that identifier. Lets the concurrency rules recognize
    /// calls on a lock guard itself (methods on the *guarded data*, e.g.
    /// `table.clear()` on a `MutexGuard<HashMap<…>>`), which can never
    /// reach a workspace lock.
    pub recv: Option<String>,
    /// The call is written as a bare `name(…)` — not `recv.name(…)` and
    /// not a `Path::name(…)` qualified call. Only a bare call (or a
    /// `self.name(…)` method call) can be direct self-recursion; a
    /// `Vec::new()` inside `fn new` cannot (`RB004`).
    pub bare: bool,
}

/// Whether a collection mutation grows or shrinks its receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutKind {
    /// `push`, `insert`, `extend`, … — the receiver gets bigger.
    Grow,
    /// `pop`, `remove`, `clear`, `truncate`, … — the receiver can shrink.
    Shrink,
}

/// One collection mutation (`recv.push(…)`, `recv.clear()`, …).
#[derive(Debug, Clone)]
pub struct MutSite {
    /// Normalized receiver path (lock-path rules: `self.`-stripped,
    /// `(…)` → `()`, `[i]` → `[_]`).
    pub path: String,
    /// The receiver was written with a `self.` prefix — a struct field,
    /// i.e. state that outlives the call.
    pub self_prefixed: bool,
    /// Grow or shrink.
    pub kind: MutKind,
    /// The method name (`push`, `insert`, `clear`, …).
    pub method: String,
    /// 1-based line of the call.
    pub line: usize,
}

/// The per-function model the analyses consume.
#[derive(Debug, Clone)]
pub struct FunctionModel {
    /// Workspace-relative `/`-separated file path.
    pub file: String,
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based last line of the body.
    pub end_line: usize,
    /// Every call site, in source order.
    pub calls: Vec<CallSite>,
    /// Every lock acquisition, in source order.
    pub locks: Vec<LockSite>,
    /// Lines containing a `spawn(` call.
    pub spawn_lines: Vec<usize>,
    /// Lines cloning a tracked `Arc<Mutex<_>>` / `Arc<RwLock<_>>` value.
    pub arc_mutex_clone_lines: Vec<usize>,
    /// The raw body carries a `// lock-order:` doc marker.
    pub has_lock_order_doc: bool,
    /// Every collection grow/shrink call, in source order.
    pub mutations: Vec<MutSite>,
    /// The body mentions a depth/fuel/budget-style identifier — weak
    /// evidence that a recursion is bounded (`RB004`).
    pub has_depth_bound_token: bool,
    /// `(line, key)` pairs for `// lint: allow(key)` markers inside the
    /// body, for the keys in [`CC_MARKER_KEYS`] and [`RB_MARKER_KEYS`].
    pub allow_marks: Vec<(usize, String)>,
}

/// The suppression-marker keys the concurrency rules honor. The keys in
/// [`EXTRACTION_MARKER_KEYS`] are honored at extraction time instead and
/// never reach the model.
pub const CC_MARKER_KEYS: &[&str] = &[
    "lock-order",
    "guard-call",
    "guard-fanout",
    "lock-unwrap",
    "discard-guard",
];

/// The suppression-marker keys the resource-bound rules honor through
/// the model; RB003's `cache-bound` is in [`EXTRACTION_MARKER_KEYS`].
pub const RB_MARKER_KEYS: &[&str] = &["grow", "unbounded-channel", "recursion-bound"];

/// The suppression-marker keys honored while a file is modeled, so a
/// marked site never reaches the model: `cache-bound` on a cache struct's
/// declaration (`RB003`).
pub const EXTRACTION_MARKER_KEYS: &[&str] = &["cache-bound"];

impl FunctionModel {
    /// A `lint: allow(key)` marker on `line` or the line above?
    pub fn allows(&self, line: usize, key: &str) -> bool {
        self.allow_marks
            .iter()
            .any(|(l, k)| k == key && (*l == line || *l + 1 == line))
    }
}

/// Per-file facts that live outside any function body.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Workspace-relative `/`-separated file path.
    pub file: String,
    /// `(line, name)` for every declared struct whose name contains
    /// `Cache` or `Memo` and carries no `lint: allow(cache-bound)`
    /// marker — the candidates for the capacity-policy rule (`RB003`).
    pub cache_structs: Vec<(usize, String)>,
    /// The file mentions an explicit capacity policy
    /// (`max_entries`, `max_capacity`, `capacity_limit`, `evict`).
    pub has_capacity_tokens: bool,
}

/// The whole-workspace model: every first-party function, in file-then-
/// line order.
#[derive(Debug, Clone, Default)]
pub struct SourceModel {
    /// Every modeled function.
    pub functions: Vec<FunctionModel>,
    /// Per-file facts, in file order.
    pub facts: Vec<FileFacts>,
    /// Files scanned.
    pub files: usize,
}

/// Builds the model for every first-party source file under `root`.
///
/// A *workspace* root (contains `crates/`) scans `src/**/*.rs` plus
/// `crates/*/src/**/*.rs`; any other directory is a *fixture* tree and
/// every `.rs` file under it is modeled. Test regions (everything from a
/// column-0 `#[cfg(test)]` down) are excluded.
///
/// Per-file parsing fans out over `jobs` workers with input-ordered
/// reduction, so the model — and every report derived from it — is
/// byte-identical at any worker count.
///
/// # Errors
///
/// Returns any I/O error from walking or reading the tree, and
/// [`io::ErrorKind::NotFound`] when no `.rs` file is found under `root`.
pub fn build_model(root: &Path, jobs: usize) -> io::Result<SourceModel> {
    let inputs = read_sources(root)?;
    let per_file = sweep::ordered_parallel_map(&inputs, jobs, |(rel, content)| {
        (model_file(rel, content), file_facts(rel, content))
    });
    let mut functions: Vec<FunctionModel> = Vec::new();
    let mut facts: Vec<FileFacts> = Vec::with_capacity(inputs.len());
    for (fns, fact) in per_file {
        functions.extend(fns);
        facts.push(fact);
    }
    functions.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    facts.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(SourceModel {
        functions,
        facts,
        files: inputs.len(),
    })
}

/// Reads every first-party `.rs` file under `root` (workspace or fixture
/// layout), sorted by relative path. A root with no `.rs` file under it
/// (a mistyped path, or a binary run outside its checkout) is the error
/// [`io::ErrorKind::NotFound`]: a tree the analyses cannot see must not
/// pass them.
fn read_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let workspace = root.join("crates").is_dir();
    let mut files: Vec<PathBuf> = Vec::new();
    if workspace {
        collect_rs(&root.join("src"), &mut files)?;
        let mut crate_dirs: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(root.join("crates"))? {
            let p = entry?.path();
            if p.is_dir() {
                crate_dirs.push(p);
            }
        }
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs(&dir.join("src"), &mut files)?;
        }
    } else {
        collect_rs(root, &mut files)?;
    }
    let mut inputs: Vec<(String, String)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push((rel, fs::read_to_string(path)?));
    }
    if inputs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "no .rs file found under it",
        ));
    }
    inputs.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(inputs)
}

/// Recursively collects `.rs` files (sorted per directory; missing
/// directories are fine).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// `// lint: allow(key)` on this line?
fn marker_allows(raw_line: &str, key: &str) -> bool {
    let Some(idx) = raw_line.find("lint: allow(") else {
        return false;
    };
    if !raw_line[..idx].contains("//") {
        return false;
    }
    raw_line[idx + "lint: allow(".len()..]
        .split(')')
        .next()
        .is_some_and(|k| k.trim() == key)
}

/// Blanks comments and string/char literal contents, preserving the line
/// structure, so pattern matching never fires inside text.
fn strip_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 0usize;
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and byte) string literals: [b] r #* " … " #*
        if c == 'r' || c == 'b' {
            let prev_ident = i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_');
            if !prev_ident {
                let mut j = i;
                if b[j] == 'b' && j + 1 < n && (b[j + 1] == 'r' || b[j + 1] == '"') {
                    j += 1;
                }
                if j < n && b[j] == 'r' {
                    let mut k = j + 1;
                    let mut hashes = 0;
                    while k < n && b[k] == '#' {
                        hashes += 1;
                        k += 1;
                    }
                    if k < n && b[k] == '"' {
                        // Blank through the matching closing quote+hashes.
                        for &c in &b[i..=k] {
                            out.push(blank(c));
                        }
                        i = k + 1;
                        while i < n {
                            if b[i] == '"'
                                && b[i + 1..]
                                    .iter()
                                    .take(hashes)
                                    .filter(|&&h| h == '#')
                                    .count()
                                    == hashes
                            {
                                for &c in &b[i..(i + 1 + hashes).min(n)] {
                                    out.push(blank(c));
                                }
                                i += 1 + hashes;
                                break;
                            }
                            out.push(blank(b[i]));
                            i += 1;
                        }
                        continue;
                    }
                } else if j < n && b[j] == '"' && j > i {
                    // b"…" byte string: fall through to the string case at j.
                    out.push(' ');
                    i = j;
                    // handled by the '"' branch below on the next iteration
                    continue;
                }
            }
        }
        // Plain string literal.
        if c == '"' {
            out.push(' ');
            i += 1;
            while i < n && b[i] != '"' {
                if b[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            if i < n {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let lifetime = i + 1 < n
                && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                && (i + 2 >= n || b[i + 2] != '\'');
            if lifetime {
                out.push('\'');
                i += 1;
                continue;
            }
            out.push(' ');
            i += 1;
            while i < n && b[i] != '\'' {
                if b[i] == '\\' && i + 1 < n {
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            if i < n {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// A marker on line `i` (0-based) or the line directly above suppresses
/// the finding.
fn allowed(raw_lines: &[&str], i: usize, key: &str) -> bool {
    marker_allows(raw_lines.get(i).copied().unwrap_or(""), key)
        || (i > 0 && marker_allows(raw_lines[i - 1], key))
}

/// One function's span recovered by the brace scanner.
struct FnSpan {
    name: String,
    start_line: usize, // 1-based
    end_line: usize,   // 1-based, inclusive
}

/// Recovers every function span in the stripped text via brace tracking.
///
/// A `fn` keyword arms a pending declaration; the body opens at the first
/// `{` reached with the declaration's parentheses balanced (a `;` first
/// means a trait method without a body). Bodies nest; every span closes
/// when its opening depth is restored.
fn function_spans(stripped: &str) -> Vec<FnSpan> {
    let b: Vec<char> = stripped.chars().collect();
    let n = b.len();
    let mut spans: Vec<FnSpan> = Vec::new();
    let mut open: Vec<(String, usize, usize)> = Vec::new(); // name, start_line, open_depth
    let mut pending: Option<(String, usize, i32)> = None; // name, line, paren depth
    let mut depth = 0usize;
    let mut line = 1usize;
    let mut i = 0usize;
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if ident(c) {
            let start = i;
            while i < n && ident(b[i]) {
                i += 1;
            }
            let word: String = b[start..i].iter().collect();
            let prev = start.checked_sub(1).map(|j| b[j]);
            let word_bounded = prev.is_none_or(|p| !ident(p));
            if word == "fn" && word_bounded && pending.is_none() {
                // Capture the following identifier as the function name.
                let mut j = i;
                while j < n && b[j].is_whitespace() {
                    if b[j] == '\n' {
                        line += 1;
                    }
                    j += 1;
                }
                let name_start = j;
                while j < n && ident(b[j]) {
                    j += 1;
                }
                if j > name_start {
                    let name: String = b[name_start..j].iter().collect();
                    pending = Some((name, line, 0));
                }
                i = j;
            }
            continue;
        }
        match c {
            '(' => {
                if let Some((_, _, d)) = pending.as_mut() {
                    *d += 1;
                }
            }
            ')' => {
                if let Some((_, _, d)) = pending.as_mut() {
                    *d -= 1;
                }
            }
            ';' if pending.as_ref().is_some_and(|(_, _, d)| *d == 0) => {
                pending = None; // bodyless trait method
            }
            '{' => {
                if let Some((name, fn_line, d)) = pending.take() {
                    if d == 0 {
                        open.push((name, fn_line, depth));
                    } else {
                        pending = Some((name, fn_line, d));
                    }
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if let Some((name, start_line, _)) = open.pop_if(|(_, _, od)| *od == depth) {
                    spans.push(FnSpan {
                        name,
                        start_line,
                        end_line: line,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    spans.sort_by_key(|s| (s.start_line, std::cmp::Reverse(s.end_line)));
    spans
}

/// Brace depth at the start of each (stripped) line, 0-based index.
fn line_start_depths(stripped: &str) -> Vec<usize> {
    let mut depths = Vec::new();
    let mut depth = 0usize;
    for l in stripped.lines() {
        depths.push(depth);
        for c in l.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    depths
}

/// The innermost function span owning each 1-based line, as an index into
/// `spans` (sorted by start line, outer-before-inner on ties).
fn innermost_owner(spans: &[FnSpan], line: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, s) in spans.iter().enumerate() {
        if s.start_line <= line && line <= s.end_line {
            let better = match best {
                None => true,
                Some(b) => spans[b].start_line <= s.start_line,
            };
            if better {
                best = Some(i);
            }
        }
    }
    best
}

/// Names bound to `Arc<Mutex<…>>` / `Arc<RwLock<…>>` values in the file:
/// `name: Arc<Mutex<…>>` fields/params and `let name = Arc::new(Mutex…`
/// bindings.
fn arc_mutex_names(code_lines: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    for line in code_lines {
        for pat in [
            "Arc<Mutex<",
            "Arc<RwLock<",
            "Arc::new(Mutex::new",
            "Arc::new(RwLock::new",
        ] {
            for (idx, _) in line.match_indices(pat) {
                let prefix = line[..idx].trim_end();
                let prefix = prefix.trim_end_matches([':', '=']).trim_end();
                let name: String = prefix
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !name.is_empty()
                    && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && !matches!(name.as_str(), "let" | "mut" | "pub")
                    && !names.contains(&name)
                {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// Builds the per-function models for one file.
pub(crate) fn model_file(rel: &str, raw: &str) -> Vec<FunctionModel> {
    let stripped = strip_code(raw);
    let raw_lines: Vec<&str> = raw.lines().collect();
    let code_lines: Vec<&str> = stripped.lines().collect();
    // Everything from a column-0 `#[cfg(test)]` onward is test code.
    let test_start = raw_lines
        .iter()
        .position(|l| l.trim_end() == "#[cfg(test)]" && !l.starts_with(char::is_whitespace))
        .unwrap_or(raw_lines.len());
    let spans: Vec<FnSpan> = function_spans(&stripped)
        .into_iter()
        .filter(|s| s.start_line <= test_start)
        .collect();
    let depths = line_start_depths(&stripped);
    let has_rwlock = stripped.contains("RwLock");
    let arc_names = arc_mutex_names(&code_lines);
    let arc_clone_pats: Vec<(String, String)> = arc_names
        .iter()
        .map(|name| (format!("{name}.clone()"), format!("Arc::clone(&{name})")))
        .collect();

    let mut models: Vec<FunctionModel> = spans
        .iter()
        .map(|s| FunctionModel {
            file: rel.to_string(),
            name: s.name.clone(),
            line: s.start_line,
            end_line: s.end_line.min(test_start),
            calls: Vec::new(),
            locks: Vec::new(),
            spawn_lines: Vec::new(),
            arc_mutex_clone_lines: Vec::new(),
            has_lock_order_doc: false,
            mutations: Vec::new(),
            has_depth_bound_token: false,
            allow_marks: Vec::new(),
        })
        .collect();

    for (i, line) in code_lines.iter().enumerate().take(test_start) {
        let lineno = i + 1;
        // Attribute each line to its innermost owner only, so an inner
        // fn's sites are not double-counted against the outer fn.
        let Some(owner) = innermost_owner(&spans, lineno) else {
            continue;
        };
        let m = &mut models[owner];
        if raw_lines[i].contains("// lock-order:") {
            m.has_lock_order_doc = true;
        }
        for key in CC_MARKER_KEYS.iter().chain(RB_MARKER_KEYS) {
            if marker_allows(raw_lines[i], key) {
                m.allow_marks.push((lineno, (*key).to_string()));
            }
        }
        extract_calls(line, lineno, &mut m.calls);
        extract_locks(
            &code_lines,
            &depths,
            i,
            has_rwlock,
            spans[owner].end_line,
            &mut m.locks,
        );
        extract_mutations(line, lineno, &mut m.mutations);
        if !m.has_depth_bound_token && has_depth_bound_token(line) {
            m.has_depth_bound_token = true;
        }
        for (col, _) in line.match_indices("spawn") {
            let before = line[..col].chars().next_back();
            let after = line[col + "spawn".len()..].trim_start().chars().next();
            let bounded = before.is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
            if bounded && after == Some('(') {
                m.spawn_lines.push(lineno);
            }
        }
        for (clone_pat, arc_clone_pat) in &arc_clone_pats {
            if line.contains(clone_pat) || line.contains(arc_clone_pat) {
                m.arc_mutex_clone_lines.push(lineno);
            }
        }
    }
    models
}

/// Extracts the per-file facts that live outside function bodies.
pub(crate) fn file_facts(rel: &str, raw: &str) -> FileFacts {
    let stripped = strip_code(raw);
    let raw_lines: Vec<&str> = raw.lines().collect();
    let test_start = raw_lines
        .iter()
        .position(|l| l.trim_end() == "#[cfg(test)]" && !l.starts_with(char::is_whitespace))
        .unwrap_or(raw_lines.len());
    let mut facts = FileFacts {
        file: rel.to_string(),
        ..FileFacts::default()
    };
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    for (i, line) in stripped.lines().enumerate().take(test_start) {
        for tok in ["max_entries", "max_capacity", "capacity_limit", "evict"] {
            for (idx, _) in line.match_indices(tok) {
                let before = if idx == 0 {
                    None
                } else {
                    line[..idx].chars().next_back()
                };
                let after = line[idx + tok.len()..].chars().next();
                if before.is_none_or(|c| !ident(c)) && after.is_none_or(|c| !ident(c)) {
                    facts.has_capacity_tokens = true;
                }
            }
        }
        for (idx, _) in line.match_indices("struct ") {
            let before = line[..idx].chars().next_back();
            if before.is_some_and(ident) {
                continue;
            }
            let name: String = line[idx + "struct ".len()..]
                .chars()
                .take_while(|c| ident(*c))
                .collect();
            if (name.contains("Cache") || name.contains("Memo"))
                && !allowed(&raw_lines, i, "cache-bound")
            {
                facts.cache_structs.push((i + 1, name));
            }
        }
    }
    facts
}

/// Rust keywords and declaration heads that look like calls but are not.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "else", "move", "in", "as",
    "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod", "crate", "super", "Self", "self",
];

/// Extracts `name(…)` call sites from one stripped line.
fn extract_calls(line: &str, lineno: usize, out: &mut Vec<CallSite>) {
    let b: Vec<char> = line.chars().collect();
    let n = b.len();
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0usize;
    while i < n {
        if !(b[i].is_alphabetic() || b[i] == '_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && ident(b[i]) {
            i += 1;
        }
        let word: String = b[start..i].iter().collect();
        let prev = start.checked_sub(1).map(|j| b[j]);
        if prev.is_some_and(ident) {
            continue;
        }
        // Skip whitespace between the name and a candidate `(`.
        let mut j = i;
        while j < n && b[j] == ' ' {
            j += 1;
        }
        let next = b.get(j).copied();
        if next == Some('!') {
            continue; // macro — handled by panic extraction
        }
        if next != Some('(') {
            continue;
        }
        // `fn name(` is the declaration, not a call.
        let before = line[..start].trim_end();
        if before.ends_with("fn") {
            continue;
        }
        if NON_CALL_WORDS.contains(&word.as_str()) {
            continue;
        }
        // `recv.name(` with a simple identifier receiver.
        let recv = if prev == Some('.') && start >= 2 {
            let mut s = start - 1;
            while s > 0 && ident(b[s - 1]) {
                s -= 1;
            }
            let r: String = b[s..start - 1].iter().collect();
            let r_prev = s.checked_sub(1).map(|j| b[j]);
            if r.is_empty() || r_prev == Some('.') {
                None
            } else {
                Some(r)
            }
        } else {
            None
        };
        out.push(CallSite {
            name: word,
            line: lineno,
            col: start,
            recv,
            bare: prev != Some('.') && prev != Some(':'),
        });
    }
}

/// Extracts lock acquisitions from (stripped) line `i`, resolving guard
/// bindings and scopes against the whole file.
fn extract_locks(
    code_lines: &[&str],
    depths: &[usize],
    i: usize,
    has_rwlock: bool,
    fn_end: usize,
    out: &mut Vec<LockSite>,
) {
    let line = code_lines[i];
    let pats: &[(&str, LockKind)] = if has_rwlock {
        &[
            (".lock()", LockKind::Lock),
            (".read()", LockKind::Read),
            (".write()", LockKind::Write),
        ]
    } else {
        &[(".lock()", LockKind::Lock)]
    };
    for (pat, kind) in pats {
        for (col, _) in line.match_indices(pat) {
            let path = lock_path(line, col);
            if path.is_empty() {
                continue;
            }
            // The statement suffix directly after the accessor decides
            // unwrap vs poison handling (look ahead up to 2 more lines for
            // a wrapped chain).
            let mut suffix = line[col + pat.len()..].to_string();
            for extra in code_lines.iter().skip(i + 1).take(2) {
                if suffix.trim_end().ends_with(';') {
                    break;
                }
                suffix.push(' ');
                suffix.push_str(extra.trim());
            }
            let s = suffix.trim_start();
            let unwrapped = s.starts_with(".unwrap()") || s.starts_with(".expect(");
            let poison_handled = (suffix.contains("unwrap_or_else")
                && suffix.contains("into_inner"))
                || suffix.trim_start().starts_with(".ok()")
                || line[..col].contains("if let Ok(")
                || line[..col].contains("while let Ok(")
                || line[..col].contains("match ");
            let binding = guard_binding(line, col);
            let scope_end = match &binding {
                GuardBinding::Discarded => i + 1,
                GuardBinding::Temporary => statement_end(code_lines, i, fn_end),
                GuardBinding::Named(name) => named_scope_end(code_lines, depths, i, name, fn_end),
            };
            out.push(LockSite {
                path,
                kind: *kind,
                line: i + 1,
                col,
                binding,
                scope_end,
                unwrapped,
                poison_handled,
            });
        }
    }
}

/// Walks left from the accessor's `.` to recover the receiver path:
/// identifier segments joined by `.`, argument lists collapsed to `()`,
/// index expressions to `[_]`, with any `self.` prefix stripped.
fn lock_path(line: &str, dot_col: usize) -> String {
    receiver_path(line, dot_col).0
}

/// [`lock_path`], but also reports whether the receiver was written with
/// a `self.` prefix (a struct field — state that outlives the call).
fn receiver_path(line: &str, dot_col: usize) -> (String, bool) {
    let b: Vec<char> = line.chars().collect();
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot_col; // points at the accessor's '.'
    loop {
        if j == 0 {
            break;
        }
        let c = b[j - 1];
        if c == ')' || c == ']' {
            let (open, close, repr) = if c == ')' {
                ('(', ')', "()")
            } else {
                ('[', ']', "[_]")
            };
            let mut depth = 0usize;
            let mut k = j;
            while k > 0 {
                let ch = b[k - 1];
                if ch == close {
                    depth += 1;
                } else if ch == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            if k == 0 {
                break;
            }
            // Consume the identifier before the group, if any.
            let mut s = k - 1;
            while s > 0 && ident(b[s - 1]) {
                s -= 1;
            }
            let name: String = b[s..k - 1].iter().collect();
            parts.push(format!("{name}{repr}"));
            j = s;
        } else if ident(c) {
            let mut s = j;
            while s > 0 && ident(b[s - 1]) {
                s -= 1;
            }
            parts.push(b[s..j].iter().collect());
            j = s;
        } else if c == '.' {
            j -= 1;
        } else {
            break;
        }
    }
    parts.reverse();
    let mut path = parts.join(".");
    let mut self_prefixed = false;
    if let Some(rest) = path.strip_prefix("self.") {
        path = rest.to_string();
        self_prefixed = true;
    }
    (path, self_prefixed)
}

/// Resolves how the guard produced at `col` on `line` is bound.
fn guard_binding(line: &str, col: usize) -> GuardBinding {
    let before = &line[..col];
    let Some(let_idx) = before.rfind("let ") else {
        return GuardBinding::Temporary;
    };
    let Some(eq_idx) = before[let_idx..].find('=') else {
        return GuardBinding::Temporary;
    };
    let pat = before[let_idx + 4..let_idx + eq_idx].trim();
    let pat = pat.strip_prefix("mut ").unwrap_or(pat);
    // `if let Ok(g) = …` binds through a pattern: treat the inner name.
    let pat = pat
        .strip_prefix("Ok(")
        .and_then(|p| p.strip_suffix(')'))
        .unwrap_or(pat);
    if pat == "_" {
        return GuardBinding::Discarded;
    }
    // Strip a type ascription (`let t: Type =`).
    let pat = pat.split(':').next().unwrap_or(pat).trim();
    if !pat.is_empty() && pat.chars().all(|c| c.is_alphanumeric() || c == '_') {
        GuardBinding::Named(pat.to_string())
    } else {
        GuardBinding::Temporary
    }
}

/// Last 1-based line of the statement starting on 0-based line `i`.
fn statement_end(code_lines: &[&str], i: usize, fn_end: usize) -> usize {
    for (j, l) in code_lines.iter().enumerate().skip(i) {
        if j + 1 >= fn_end {
            break;
        }
        if l.contains(';') {
            return j + 1;
        }
    }
    fn_end
}

/// Last 1-based line on which a named guard bound on 0-based line `i` can
/// still be live: the end of the enclosing block, or an earlier explicit
/// `drop(name)`.
fn named_scope_end(
    code_lines: &[&str],
    depths: &[usize],
    i: usize,
    name: &str,
    fn_end: usize,
) -> usize {
    let bind_depth = depths.get(i).copied().unwrap_or(0);
    let drop_pat = format!("drop({name})");
    let stop = code_lines.len().min(fn_end);
    for (j, line) in code_lines.iter().enumerate().take(stop).skip(i + 1) {
        if line.contains(&drop_pat) {
            return j + 1;
        }
        if depths.get(j).copied().unwrap_or(0) < bind_depth {
            return j; // the closing line itself ends the block
        }
    }
    fn_end
}

/// Methods that grow a collection receiver.
const GROW_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "push_str",
    "insert",
    "extend",
    "append",
];

/// Methods that can shrink a collection receiver (eviction evidence).
const SHRINK_METHODS: &[&str] = &[
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "swap_remove",
    "shift_remove",
    "clear",
    "truncate",
    "drain",
    "retain",
    "split_off",
    "dedup",
];

/// Extracts collection grow/shrink calls from one stripped line.
fn extract_mutations(line: &str, lineno: usize, out: &mut Vec<MutSite>) {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let b: Vec<char> = line.chars().collect();
    for (dot, _) in line.match_indices('.') {
        let mut j = dot + 1;
        while j < b.len() && ident(b[j]) {
            j += 1;
        }
        if j == dot + 1 || b.get(j) != Some(&'(') {
            continue;
        }
        let method: String = b[dot + 1..j].iter().collect();
        let kind = if GROW_METHODS.contains(&method.as_str()) {
            MutKind::Grow
        } else if SHRINK_METHODS.contains(&method.as_str()) {
            MutKind::Shrink
        } else {
            continue;
        };
        let (path, self_prefixed) = receiver_path(line, dot);
        if path.is_empty() {
            continue;
        }
        out.push(MutSite {
            path,
            self_prefixed,
            kind,
            method,
            line: lineno,
        });
    }
}

/// Identifier segments that count as recursion-bound evidence (`RB004`):
/// a `depth`/`fuel`/`budget`-style name anywhere in the body suggests the
/// recursion carries an explicit bound.
const DEPTH_TOKENS: &[&str] = &[
    "depth",
    "fuel",
    "remaining",
    "limit",
    "hops",
    "budget",
    "retries",
    "attempts",
    "ttl",
];

/// Does the stripped line mention a depth-bound-style identifier segment?
fn has_depth_bound_token(line: &str) -> bool {
    let mut cur = String::new();
    for c in line.chars().chain(std::iter::once(' ')) {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            if cur.split('_').any(|seg| DEPTH_TOKENS.contains(&seg)) {
                return true;
            }
            cur.clear();
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> Vec<FunctionModel> {
        model_file("crates/x/src/lib.rs", src)
    }

    #[test]
    fn function_spans_nest_and_skip_trait_decls() {
        let src = "\
trait T {
    fn decl(&self) -> u32;
}

fn outer() {
    fn inner() {
        let x = 1;
    }
    inner();
}
";
        let m = model(src);
        let names: Vec<&str> = m.iter().map(|f| f.name.as_str()).collect();
        assert!(
            names.contains(&"outer") && names.contains(&"inner"),
            "{names:?}"
        );
        assert!(!names.contains(&"decl"), "{names:?}");
        let outer = m.iter().find(|f| f.name == "outer").unwrap();
        assert_eq!((outer.line, outer.end_line), (5, 10));
    }

    #[test]
    fn lines_attribute_to_the_innermost_function() {
        let src = "\
fn outer() {
    fn inner() {
        helper();
    }
}
";
        let m = model(src);
        let inner = m.iter().find(|f| f.name == "inner").unwrap();
        let outer = m.iter().find(|f| f.name == "outer").unwrap();
        assert_eq!(inner.calls.len(), 1);
        assert!(outer.calls.is_empty(), "{outer:?}");
    }

    #[test]
    fn lock_paths_normalize_receivers() {
        let src = "\
fn f(&self) {
    let table = self.shards[i].lock();
    let s = self.shard(digest).lock();
    let a = attempts.lock();
    drop(table);
}
";
        let m = model(src);
        let locks = &m[0].locks;
        let paths: Vec<&str> = locks.iter().map(|l| l.path.as_str()).collect();
        assert_eq!(paths, ["shards[_]", "shard()", "attempts"], "{locks:?}");
        assert!(matches!(locks[0].binding, GuardBinding::Named(ref n) if n == "table"));
        // `drop(table)` ends the first guard's scope on line 5.
        assert_eq!(locks[0].scope_end, 5);
    }

    #[test]
    fn guard_bindings_and_poison_idiom_are_recognized() {
        let src = "\
fn f(&self) {
    let g = self.m.lock().unwrap();
    let h = self.m.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = self.m.lock();
    self.m.lock().unwrap_or_else(PoisonError::into_inner).clear();
}
";
        let m = model(src);
        let locks = &m[0].locks;
        assert!(locks[0].unwrapped && !locks[0].poison_handled);
        assert!(!locks[1].unwrapped && locks[1].poison_handled);
        assert!(matches!(locks[2].binding, GuardBinding::Discarded));
        assert!(matches!(locks[3].binding, GuardBinding::Temporary));
        assert!(locks[3].poison_handled);
    }

    #[test]
    fn read_write_only_count_in_rwlock_files() {
        let no_rwlock = "fn f(r: &R) { let x = r.read(); }\n";
        assert!(model(no_rwlock)[0].locks.is_empty());
        let with_rwlock = "fn f(r: &RwLock<u32>) { let x = r.read(); let y = r.write(); }\n";
        let locks = &model(with_rwlock)[0].locks;
        assert_eq!(locks.len(), 2);
        assert_eq!(locks[0].kind, LockKind::Read);
        assert_eq!(locks[1].kind, LockKind::Write);
    }

    #[test]
    fn calls_extract_with_boundaries() {
        let src = "fn f() { helper(); obj.method(x); if cond() { } a::b::path_call(); }\n";
        let calls = &model(src)[0].calls;
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["helper", "method", "cond", "path_call"],
            "{names:?}"
        );
    }

    #[test]
    fn stripper_blanks_comments_and_literals() {
        let src = "let x = \"Instant::now()\"; // Instant::now()\nlet y = 'a'; let l: &'static str = s;\n/* multi\nline */ let z = 1;\n";
        let s = strip_code(src);
        assert!(!s.contains("Instant"), "{s}");
        assert!(s.contains("let x ="));
        assert!(s.contains("let z = 1;"));
        assert!(s.contains("&'static str"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn stripper_handles_raw_strings() {
        let src = "let p = r#\"thread_rng()\"#;\nlet q = r\"SystemTime::now()\";\nnext();\n";
        let s = strip_code(src);
        assert!(!s.contains("thread_rng"), "{s}");
        assert!(!s.contains("SystemTime"), "{s}");
        assert!(s.contains("next();"));
    }

    #[test]
    fn markers_suppress_by_key() {
        assert!(marker_allows(
            "self.v.push(1); // lint: allow(grow) — seeded above",
            "grow"
        ));
        assert!(!marker_allows(
            "self.v.push(1); // lint: allow(grow)",
            "cache-bound"
        ));
        assert!(!marker_allows("self.v.push(1); // allow(grow)", "grow"));
    }

    #[test]
    fn spawn_and_arc_mutex_clones_are_tracked() {
        let src = "\
fn f() {
    let shared: Arc<Mutex<u32>> = Arc::new(Mutex::new(0));
    let clone = shared.clone();
    std::thread::spawn(move || drop(clone));
}
";
        let m = model(src);
        assert_eq!(m[0].spawn_lines, vec![4]);
        assert_eq!(m[0].arc_mutex_clone_lines, vec![3]);
        assert!(!m[0].has_lock_order_doc);
    }

    #[test]
    fn test_regions_are_excluded() {
        let src = "\
fn live() { helper(); }

#[cfg(test)]
mod tests {
    fn test_helper() { other(); }
}
";
        let m = model(src);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "live");
    }

    #[test]
    fn build_model_orders_functions_deterministically() {
        let dir = std::env::temp_dir().join("pruneperf-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.rs"), "fn beta() {}\n").unwrap();
        std::fs::write(dir.join("a.rs"), "fn alpha() {}\nfn gamma() {}\n").unwrap();
        let m1 = build_model(&dir, 1).unwrap();
        let m8 = build_model(&dir, 8).unwrap();
        let names: Vec<&str> = m1.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["alpha", "gamma", "beta"]);
        assert_eq!(m1.files, 2);
        assert_eq!(
            names,
            m8.functions
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutations_record_receiver_kind_and_self_prefix() {
        let src = "\
fn f(&mut self, v: &mut Vec<u32>) {
    self.jobs.push(1);
    v.push(2);
    self.jobs.clear();
}
";
        let f = &model(src)[0];
        let rows: Vec<(&str, bool, MutKind)> = f
            .mutations
            .iter()
            .map(|m| (m.path.as_str(), m.self_prefixed, m.kind))
            .collect();
        assert_eq!(
            rows,
            [
                ("jobs", true, MutKind::Grow),
                ("v", false, MutKind::Grow),
                ("jobs", true, MutKind::Shrink)
            ],
            "{rows:?}"
        );
    }

    #[test]
    fn depth_tokens_are_recorded() {
        let src = "\
fn f(n: usize) {
    let mut out = Vec::with_capacity(n);
    out.push(n);
}
fn g(depth_left: u32) { g(depth_left - 1); }
";
        let m = model(src);
        assert!(!m[0].has_depth_bound_token);
        assert!(m[1].has_depth_bound_token);
    }

    #[test]
    fn file_facts_find_cache_structs_and_capacity_tokens() {
        let plain = "pub struct LatencyCache {\n    shards: Vec<Shard>,\n}\n";
        let facts = file_facts("lib.rs", plain);
        assert_eq!(facts.cache_structs, [(1, "LatencyCache".to_string())]);
        assert!(!facts.has_capacity_tokens);

        let bounded = "pub struct KernelMemo { max_entries: usize }\n";
        let facts = file_facts("lib.rs", bounded);
        assert!(facts.has_capacity_tokens);

        let marked = "\
// lint: allow(cache-bound) — bounded by construction
pub struct GridCache { rows: Vec<Row> }
";
        assert!(file_facts("lib.rs", marked).cache_structs.is_empty());
    }
}
