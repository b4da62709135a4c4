//! The rule catalog and the finding sink with `simlint::allow` support.
//!
//! Every rule is a plain function registered in the [`RULES`] table —
//! adding a rule is writing one function, one table row, and one golden
//! fixture. A rule is either a [`Check::File`] pass over one
//! [`FileView`] (PR 8's lexical rules) or a [`Check::Workspace`] pass
//! over the [`Workspace`] item model, reporting into per-file sinks —
//! that is how the cross-file determinism rules join call graphs while
//! still honouring file-local suppression. Rules report through
//! [`Sink::report`], which consults the file's
//! `// simlint::allow(<rule>): <reason>` annotations: an allow on the
//! finding's line or the line directly above suppresses it (and is
//! marked used; unused or malformed allows become findings themselves).

use crate::items::{ItemKind, Workspace};
use crate::lexer::{find_token, has_token, is_ident_char, Line};
use std::collections::BTreeSet;

/// One lint finding, printed as `file:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier from the catalog.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Path of the enclosing item (`doh::driver::Driver::resolve`), or
    /// the file's module path for file-level findings. Carried by the
    /// JSON output; the text format omits it to stay byte-compatible
    /// with the PR 8 golden corpus.
    pub item: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{} {} {}", self.file, self.line, self.rule, self.message)
    }
}

/// A scrubbed file plus the path-derived facts rules scope on.
pub struct FileView {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Scrubbed lines, 0-indexed (findings report 1-based).
    pub lines: Vec<Line>,
}

impl FileView {
    fn has_component(&self, name: &str) -> bool {
        self.rel.split('/').any(|c| c == name)
    }

    /// Wall-clock timing harnesses live under a `benches/` directory.
    pub fn is_bench(&self) -> bool {
        self.has_component("benches")
    }

    /// Binaries and examples own stdout.
    pub fn is_bin_or_example(&self) -> bool {
        self.has_component("bin")
            || self.has_component("examples")
            || self.rel.ends_with("/main.rs")
    }

    /// Integration tests (a `tests/` path component).
    pub fn is_test_path(&self) -> bool {
        self.has_component("tests")
    }

    /// The determinism-critical crates `no-bare-unwrap-in-core` covers.
    pub fn is_core_crate(&self) -> bool {
        ["crates/netsim/src/", "crates/doh/src/", "crates/httpsim/src/"]
            .iter()
            .any(|p| self.rel.starts_with(p))
    }

    /// Is line `i` exempt as test code (unit-test mod or tests/ file)?
    fn test_line(&self, i: usize) -> bool {
        self.is_test_path() || self.lines[i].in_test
    }
}

/// How a rule runs: over one file's lines, or over the whole-workspace
/// item model with one sink per file.
pub enum Check {
    /// A lexical pass over a single scrubbed file.
    File(fn(&FileView, &mut Sink)),
    /// A structural pass over the [`Workspace`] item model. `sinks` is
    /// parallel to [`Workspace::views`].
    Workspace(fn(&Workspace, &mut [Sink])),
}

/// One row of the catalog.
pub struct Rule {
    /// The identifier used in findings and `simlint::allow(...)`.
    pub name: &'static str,
    /// One-line description for `--list-rules` and the README table.
    pub summary: &'static str,
    /// The check itself.
    pub check: Check,
}

/// The rule catalog. Order is the report order within a line.
pub const RULES: &[Rule] = &[
    Rule {
        name: "no-wall-clock",
        summary: "Instant::now / SystemTime::now / .elapsed() outside benches/ — \
                  simulated code reads time from Sim::now()",
        check: Check::File(no_wall_clock),
    },
    Rule {
        name: "no-unordered-iteration",
        summary: "iterating, draining or collecting from a HashMap/HashSet in non-test \
                  code — keyed lookup is legal, ordered traversal needs BTreeMap or a sort",
        check: Check::File(no_unordered_iteration),
    },
    Rule {
        name: "no-thread-outside-sweep",
        summary: "std::thread / atomics outside bench::sweep — parallelism is confined \
                  to the sweep runner",
        check: Check::File(no_thread_outside_sweep),
    },
    Rule {
        name: "no-print-in-lib",
        summary: "println!/eprintln! in library code — stdout belongs to src/bin, \
                  examples and benches",
        check: Check::File(no_print_in_lib),
    },
    Rule {
        name: "no-bare-unwrap-in-core",
        summary: ".unwrap() in netsim/doh/httpsim non-test code without an invariant \
                  comment on the same or previous line",
        check: Check::File(no_bare_unwrap_in_core),
    },
    Rule {
        name: "seed-discipline",
        summary: "a literal or misnamed seed fed to SimRng::new / split / split_rng in \
                  non-test code — seeds and stream labels are named *_SEED / *_STREAM \
                  constants",
        check: Check::File(seed_discipline),
    },
    Rule {
        name: "wake-via-driver",
        summary: "Sim wake scheduling (schedule_app, next_wake*) called or reachable \
                  from doh endpoint code outside the driver — wakes route through the \
                  Driver registry",
        check: Check::Workspace(wake_via_driver),
    },
    Rule {
        name: "no-float-accumulation",
        summary: "f64 accumulation (+=, .sum(), .fold()) in bench::stats / bench::report \
                  outside the blessed fixed-order helpers (mean, bootstrap_ci)",
        check: Check::Workspace(no_float_accumulation),
    },
    Rule {
        name: "stable-sort-for-reports",
        summary: "sort_unstable_by / sort_unstable_by_key in report-feeding crates — \
                  equal keys land in arbitrary order; use the stable sort_by forms",
        check: Check::Workspace(stable_sort_for_reports),
    },
    Rule {
        name: "shim-expiry",
        summary: "a #[deprecated] item without a well-formed `remove-by: PR <n>` marker \
                  in its doc/comment block — shims must name their removal deadline",
        check: Check::Workspace(shim_expiry),
    },
];

/// Is `name` a catalog rule (valid in `simlint::allow`)?
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

// ------------------------------------------------------------------
// The allow sink
// ------------------------------------------------------------------

#[derive(Debug)]
struct Allow {
    line: usize, // 0-based
    rule: String,
    has_reason: bool,
    used: bool,
}

/// Collects one file's findings, applying `simlint::allow` suppression.
/// Owns its file's path so workspace rules can report into any file's
/// sink without carrying the view.
pub struct Sink {
    rel: String,
    allows: Vec<Allow>,
    findings: Vec<Finding>,
}

impl Sink {
    /// Parses the allows out of a file's comment channel.
    pub fn new(view: &FileView) -> Sink {
        let mut allows = Vec::new();
        for (i, line) in view.lines.iter().enumerate() {
            let mut rest = line.comment.as_str();
            while let Some(pos) = rest.find("simlint::allow") {
                rest = &rest[pos + "simlint::allow".len()..];
                let Some(inner) = rest.strip_prefix('(') else { continue };
                let Some(close) = inner.find(')') else { continue };
                let rule = inner[..close].trim().to_string();
                let tail = inner[close + 1..].trim_start();
                let has_reason = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
                allows.push(Allow { line: i, rule, has_reason, used: false });
                rest = &inner[close + 1..];
            }
        }
        Sink { rel: view.rel.clone(), allows, findings: Vec::new() }
    }

    /// Reports a finding at 0-based line `i`, unless an allow for `rule`
    /// sits on that line or the one above.
    pub fn report(&mut self, i: usize, rule: &'static str, message: String) {
        let allowed = self
            .allows
            .iter_mut()
            .find(|a| a.rule == rule && a.has_reason && (a.line == i || a.line + 1 == i));
        if let Some(a) = allowed {
            a.used = true;
            return;
        }
        self.findings.push(Finding {
            file: self.rel.clone(),
            line: i + 1,
            rule,
            message,
            item: String::new(),
        });
    }

    /// Emits the meta-findings (malformed / unknown / unused allows) and
    /// returns everything sorted by line, then rule.
    pub fn finish(mut self) -> Vec<Finding> {
        for a in &self.allows {
            let (rule, message) = if !is_rule(&a.rule) {
                ("allow-syntax", format!("unknown rule {:?} in simlint::allow", a.rule))
            } else if !a.has_reason {
                (
                    "allow-syntax",
                    format!(
                        "simlint::allow({}) needs a reason: `// simlint::allow({}): <why>`",
                        a.rule, a.rule
                    ),
                )
            } else if !a.used {
                (
                    "unused-allow",
                    format!(
                        "simlint::allow({}) suppresses nothing on this or the next line",
                        a.rule
                    ),
                )
            } else {
                continue;
            };
            self.findings.push(Finding {
                file: self.rel.clone(),
                line: a.line + 1,
                rule,
                message,
                item: String::new(),
            });
        }
        self.findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        self.findings
    }
}

// ------------------------------------------------------------------
// The rules
// ------------------------------------------------------------------

fn no_wall_clock(view: &FileView, sink: &mut Sink) {
    if view.is_bench() {
        return;
    }
    for (i, line) in view.lines.iter().enumerate() {
        for pat in ["Instant::now", "SystemTime::now"] {
            if has_token(&line.code, pat) {
                sink.report(
                    i,
                    "no-wall-clock",
                    format!("wall clock `{pat}` outside benches/ — use Sim::now()"),
                );
            }
        }
        if line.code.contains(".elapsed(") {
            sink.report(
                i,
                "no-wall-clock",
                "wall clock `.elapsed()` outside benches/ — use Sim::now() arithmetic".to_string(),
            );
        }
    }
}

/// Methods whose call on a hash collection observes its random order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

fn no_unordered_iteration(view: &FileView, sink: &mut Sink) {
    // Pass 1: names declared (or annotated) as HashMap/HashSet anywhere
    // in the file's non-test code — fields, lets, parameters.
    let mut tracked: BTreeSet<String> = BTreeSet::new();
    for (i, line) in view.lines.iter().enumerate() {
        if view.test_line(i) {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = find_token(&line.code, ty, from) {
                if let Some(name) = binding_name(&line.code[..pos]) {
                    tracked.insert(name);
                }
                from = pos + ty.len();
            }
        }
    }
    // Pass 2: order-observing uses of a tracked name.
    for (i, line) in view.lines.iter().enumerate() {
        if view.test_line(i) {
            continue;
        }
        for name in &tracked {
            if let Some(method) = iterating_call(&line.code, name) {
                sink.report(
                    i,
                    "no-unordered-iteration",
                    format!(
                        "`{name}` is a HashMap/HashSet; `.{method}()` observes random \
                         order — use a BTreeMap or sort first"
                    ),
                );
            }
            if for_loop_over(&line.code, name) {
                sink.report(
                    i,
                    "no-unordered-iteration",
                    format!(
                        "`{name}` is a HashMap/HashSet; `for … in` observes random \
                         order — use a BTreeMap or sort first"
                    ),
                );
            }
        }
    }
}

/// Given the code before a `HashMap`/`HashSet` token, the identifier the
/// collection is bound to: `conns: HashMap<…>` → `conns`,
/// `let seen = HashSet::new()` → `seen`. `None` for positions that bind
/// nothing (return types, turbofish, …).
fn binding_name(before: &str) -> Option<String> {
    let mut s = before;
    // Strip reference sigils and a path prefix: `&mut std::collections::HashMap`.
    loop {
        s = s.trim_end();
        if let Some(stripped) = s.strip_suffix("::") {
            s = stripped.trim_end_matches(is_ident_char);
        } else if let Some(stripped) = s.strip_suffix('&') {
            s = stripped;
        } else if s.ends_with("mut") && !ends_in_longer_ident(s, "mut") {
            s = &s[..s.len() - 3];
        } else {
            break;
        }
    }
    let s = if let Some(stripped) = s.strip_suffix(':') {
        // `name: HashMap<…>` — a field, let, or parameter annotation.
        stripped
    } else if let Some(stripped) = s.strip_suffix('=') {
        let stripped = stripped.trim_end();
        // `name = HashMap::new()`, not `==`, `>=`, `<=`.
        if stripped.ends_with(['=', '>', '<', '!']) {
            return None;
        }
        stripped
    } else {
        return None;
    };
    let s = s.trim_end();
    let name: String = s
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

fn ends_in_longer_ident(s: &str, suffix: &str) -> bool {
    s.len() > suffix.len()
        && s[..s.len() - suffix.len()].chars().next_back().is_some_and(is_ident_char)
}

/// The iterating method, if `code` contains `name.<iter-method>(`.
fn iterating_call(code: &str, name: &str) -> Option<&'static str> {
    let mut from = 0;
    while let Some(pos) = find_token(code, name, from) {
        let after = code[pos + name.len()..].trim_start();
        if let Some(rest) = after.strip_prefix('.') {
            let rest = rest.trim_start();
            for &m in ITER_METHODS {
                if let Some(tail) = rest.strip_prefix(m) {
                    if tail.trim_start().starts_with('(') {
                        return Some(m);
                    }
                }
            }
        }
        from = pos + name.len();
    }
    None
}

/// Is there a `for … in … name` loop header on this line?
fn for_loop_over(code: &str, name: &str) -> bool {
    let Some(for_pos) = find_token(code, "for", 0) else { return false };
    let Some(in_pos) = find_token(code, "in", for_pos + 3) else { return false };
    find_token(code, name, in_pos + 2).is_some()
}

fn no_thread_outside_sweep(view: &FileView, sink: &mut Sink) {
    // benches/ are wall-clock harnesses (already outside the
    // determinism domain, cf. no-wall-clock) and may query core counts;
    // everything else threads only through the sweep runner.
    if view.rel == "crates/bench/src/sweep.rs" || view.is_bench() {
        return;
    }
    for (i, line) in view.lines.iter().enumerate() {
        for pat in ["std::thread", "std::sync::atomic"] {
            if has_token(&line.code, pat) {
                sink.report(
                    i,
                    "no-thread-outside-sweep",
                    format!(
                        "`{pat}` outside bench::sweep — the simulator is single-threaded \
                             by design; parallelism lives in the sweep runner"
                    ),
                );
            }
        }
        if let Some(atomic) = atomic_type_token(&line.code) {
            sink.report(
                i,
                "no-thread-outside-sweep",
                format!(
                    "atomic type `{atomic}` outside bench::sweep — shared mutable state \
                         belongs in the sweep runner"
                ),
            );
        }
    }
}

/// The first `Atomic*` type token on the line (`AtomicUsize`, `AtomicBool`, …).
fn atomic_type_token(code: &str) -> Option<String> {
    let mut from = 0;
    while let Some(pos) = find_token_prefix(code, "Atomic", from) {
        let tail: String = code[pos..].chars().take_while(|&c| is_ident_char(c)).collect();
        if tail.len() > "Atomic".len() {
            return Some(tail);
        }
        from = pos + "Atomic".len();
    }
    None
}

/// Like [`find_token`] but only the *left* boundary is checked, so the
/// pattern may be an identifier prefix.
fn find_token_prefix(code: &str, pat: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(off) = code[start..].find(pat) {
        let pos = start + off;
        if code[..pos].chars().next_back().map_or(true, |c| !is_ident_char(c)) {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}

fn no_print_in_lib(view: &FileView, sink: &mut Sink) {
    if view.is_bin_or_example() || view.is_bench() || view.is_test_path() {
        return;
    }
    for (i, line) in view.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in ["println!", "eprintln!", "print!", "eprint!"] {
            if has_token(&line.code, pat) {
                sink.report(
                    i,
                    "no-print-in-lib",
                    format!(
                        "`{pat}` in library code — stdout/stderr belong to src/bin, \
                             examples and benches"
                    ),
                );
            }
        }
    }
}

fn no_bare_unwrap_in_core(view: &FileView, sink: &mut Sink) {
    if !view.is_core_crate() {
        return;
    }
    for (i, line) in view.lines.iter().enumerate() {
        if view.test_line(i) || !line.code.contains(".unwrap()") {
            continue;
        }
        let has_comment = |l: &Line| !l.comment.trim().is_empty() || !l.doc.trim().is_empty();
        let documented = has_comment(line) || (i > 0 && has_comment(&view.lines[i - 1]));
        if !documented {
            sink.report(
                i,
                "no-bare-unwrap-in-core",
                "bare `.unwrap()` in a core crate — state the invariant in a comment \
                 on this or the previous line, or use `.expect(\"…\")`"
                    .to_string(),
            );
        }
    }
}

/// The leading token of the first argument after an open paren: a
/// digit-leading literal (`42`, `0xBEEF`) or the last segment of an
/// identifier path (`SiteModel::RANK_STREAM` → `RANK_STREAM`). `None`
/// for anything else — closures, string/char separators (already
/// scrubbed to bare quotes), references.
fn leading_arg_token(after_paren: &str) -> Option<String> {
    let rest = after_paren.trim_start();
    let first = rest.chars().next()?;
    if !is_ident_char(first) {
        return None;
    }
    let path: String = rest.chars().take_while(|&c| is_ident_char(c) || c == ':').collect();
    let last = path.rsplit("::").next().unwrap_or(&path).trim_matches(':');
    if last.is_empty() {
        None
    } else {
        Some(last.to_string())
    }
}

/// An ALL_CAPS constant name (at least one uppercase letter; only
/// uppercase, digits and underscores).
fn is_screaming(tok: &str) -> bool {
    tok.chars().any(|c| c.is_ascii_uppercase())
        && tok.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Seeds and stream labels decide every simulated byte, so they must be
/// auditable at the call site: a literal `42` fed to `SimRng::new`, or a
/// constant whose name hides that it is a seed, is how two subsystems
/// end up sharing a stream by accident. Outside test code the first
/// argument of `SimRng::new` / `.split` / `.split_rng` must be a named
/// `*_SEED` / `*_STREAM` constant (or a runtime variable such as a sweep
/// seed, which lowercase names are).
fn seed_discipline(view: &FileView, sink: &mut Sink) {
    for (i, line) in view.lines.iter().enumerate() {
        if view.test_line(i) {
            continue;
        }
        for (api, method) in [("SimRng::new", false), ("split_rng", true), ("split", true)] {
            let mut from = 0;
            while let Some(pos) = find_token(&line.code, api, from) {
                from = pos + api.len();
                if method && !line.code[..pos].trim_end().ends_with('.') {
                    continue;
                }
                let Some(args) = line.code[from..].trim_start().strip_prefix('(') else {
                    continue;
                };
                let Some(tok) = leading_arg_token(args) else { continue };
                if tok.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    sink.report(
                        i,
                        "seed-discipline",
                        format!(
                            "literal seed `{tok}` passed to `{api}` — name it as a \
                             `*_SEED`/`*_STREAM` constant"
                        ),
                    );
                } else if is_screaming(&tok)
                    && !(tok.ends_with("_SEED")
                        || tok.ends_with("_STREAM")
                        || tok == "SEED"
                        || tok == "STREAM")
                {
                    sink.report(
                        i,
                        "seed-discipline",
                        format!(
                            "seed constant `{tok}` passed to `{api}` — rename it to end \
                             in `_SEED` or `_STREAM` so the stream is auditable"
                        ),
                    );
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// The workspace rules (v2): structural checks over the item model
// ------------------------------------------------------------------

/// The `Sim` wake-scheduling entry points `wake-via-driver` guards.
const WAKE_APIS: &[&str] = &["schedule_app", "schedule_app_in", "next_wake", "next_wake_owned"];

/// The one file whose wake calls are blessed: the `Driver` registry and
/// its event loops.
const DRIVER_FILE: &str = "crates/doh/src/driver.rs";

/// Does this call path name a wake API (`sim.next_wake_owned()`,
/// `Sim::schedule_app(...)`)?
fn is_wake_call(path: &str) -> bool {
    let last = path.rsplit("::").next().unwrap_or(path);
    WAKE_APIS.contains(&last)
}

/// Wakes must route through the `Driver` registry: any `Sim` wake call
/// made — or transitively reachable over resolvable calls — from
/// `crates/doh/src/` code outside `driver.rs` is a finding. The
/// reachability join is what the PR 8 lexical pass could not express:
/// it needs to know which `fn` a line lives in and what that `fn` calls.
fn wake_via_driver(ws: &Workspace, sinks: &mut [Sink]) {
    let exempt = |fi: usize| ws.views[fi].rel == DRIVER_FILE || ws.views[fi].is_test_path();
    // Pass 1: the tainted set — every non-exempt Fn that calls a wake
    // API directly, grown to a fixpoint through resolvable calls.
    // Exempt items never taint, so calling the driver's own pump
    // helpers stays legal.
    let mut tainted: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if exempt(fi) {
            continue;
        }
        for (ii, item) in file.items.iter().enumerate() {
            if item.kind == ItemKind::Fn
                && item
                    .calls
                    .iter()
                    .any(|c| !ws.views[fi].lines[c.line].in_test && is_wake_call(&c.path))
            {
                tainted.insert((fi, ii));
            }
        }
    }
    loop {
        let mut grew = false;
        for (fi, file) in ws.files.iter().enumerate() {
            if exempt(fi) {
                continue;
            }
            for (ii, item) in file.items.iter().enumerate() {
                if item.kind != ItemKind::Fn || tainted.contains(&(fi, ii)) {
                    continue;
                }
                let reaches = item.calls.iter().any(|c| {
                    !ws.views[fi].lines[c.line].in_test
                        && ws.resolve(fi, Some(item), c).is_some_and(|hit| tainted.contains(&hit))
                });
                if reaches {
                    tainted.insert((fi, ii));
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    // Pass 2: findings at the call sites in doh endpoint code.
    for (fi, file) in ws.files.iter().enumerate() {
        let view = &ws.views[fi];
        if !view.rel.starts_with("crates/doh/src/") || exempt(fi) {
            continue;
        }
        for item in file.items.iter().filter(|i| i.kind == ItemKind::Fn) {
            for call in &item.calls {
                if view.lines[call.line].in_test {
                    continue;
                }
                if is_wake_call(&call.path) {
                    sinks[fi].report(
                        call.line,
                        "wake-via-driver",
                        format!(
                            "direct Sim wake call `{}` outside doh::driver — endpoints \
                             rearm through the Driver registry",
                            call.path
                        ),
                    );
                } else if let Some((tfi, tii)) = ws.resolve(fi, Some(item), call) {
                    if tainted.contains(&(tfi, tii)) {
                        sinks[fi].report(
                            call.line,
                            "wake-via-driver",
                            format!(
                                "`{}` reaches Sim wake scheduling via `{}` — route the \
                                 wake through doh::driver",
                                call.path, ws.files[tfi].items[tii].path
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The files `no-float-accumulation` covers and the helpers whose
/// iteration order is pinned to slice order (reviewed by hand, and the
/// fleet-scale byte tests pin their output).
const FLOAT_SCOPE: &[&str] = &["crates/bench/src/stats.rs", "crates/bench/src/report.rs"];
const FLOAT_BLESSED: &[&str] = &["mean", "bootstrap_ci"];
const FLOAT_PATTERNS: &[&str] = &["+=", ".sum::<", ".sum()", ".fold(", ".product("];

/// Float addition is not associative, so *where* an accumulation
/// iterates decides report bytes. All summation in `bench::stats` /
/// `bench::report` must live in the blessed fixed-order helpers.
fn no_float_accumulation(ws: &Workspace, sinks: &mut [Sink]) {
    for (fi, view) in ws.views.iter().enumerate() {
        if !FLOAT_SCOPE.contains(&view.rel.as_str()) {
            continue;
        }
        for (i, line) in view.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some(pat) = FLOAT_PATTERNS.iter().find(|p| line.code.contains(*p)) else {
                continue;
            };
            let blessed = ws.item_at(fi, i).is_some_and(|item| {
                item.kind == ItemKind::Fn && FLOAT_BLESSED.contains(&item.name.as_str())
            });
            if !blessed {
                sinks[fi].report(
                    i,
                    "no-float-accumulation",
                    format!(
                        "`{pat}` accumulates outside the blessed fixed-order helpers \
                         ({}) — summation order is report-visible; extend a blessed \
                         helper instead",
                        FLOAT_BLESSED.join(", ")
                    ),
                );
            }
        }
    }
}

/// The crates whose sorts can reach `Report` rows.
const REPORT_FEEDING: &[&str] = &["crates/workload/src/", "crates/bench/src/", "crates/doh/src/"];

/// `sort_unstable_by{,_key}` leaves equal keys in arbitrary order; in a
/// report-feeding crate that is a byte-determinism hazard. Plain
/// `.sort_unstable()` on a total order stays legal — with a full key
/// there is nothing for instability to reorder.
fn stable_sort_for_reports(ws: &Workspace, sinks: &mut [Sink]) {
    for (fi, view) in ws.views.iter().enumerate() {
        if !REPORT_FEEDING.iter().any(|p| view.rel.starts_with(p)) || view.is_bench() {
            continue;
        }
        for (i, line) in view.lines.iter().enumerate() {
            if view.test_line(i) {
                continue;
            }
            for (pat, stable) in
                [("sort_unstable_by_key", "sort_by_key"), ("sort_unstable_by", "sort_by")]
            {
                if line.code.contains(&format!(".{pat}(")) {
                    let item = ws.enclosing_path(fi, i);
                    sinks[fi].report(
                        i,
                        "stable-sort-for-reports",
                        format!(
                            "`.{pat}()` in `{item}` — equal keys land in arbitrary \
                             order and can reach report rows; use the stable \
                             `.{stable}()` or key on the whole element"
                        ),
                    );
                    break;
                }
            }
        }
    }
}

/// Is `text` (starting at `remove-by`) a well-formed
/// `remove-by: PR <digits>` marker?
fn well_formed_remove_by(text: &str) -> bool {
    text.strip_prefix("remove-by")
        .and_then(|r| r.trim_start().strip_prefix(':'))
        .and_then(|r| r.trim_start().strip_prefix("PR"))
        .map(|r| r.trim_start())
        .is_some_and(|r| r.chars().next().is_some_and(|c| c.is_ascii_digit()))
}

/// Every `#[deprecated]` item must carry a `remove-by: PR <n>` marker in
/// its doc/comment block, so shims name the PR that deletes them instead
/// of rotting. Malformed markers are findings too.
fn shim_expiry(ws: &Workspace, sinks: &mut [Sink]) {
    for (fi, file) in ws.files.iter().enumerate() {
        let view = &ws.views[fi];
        if view.is_test_path() {
            continue;
        }
        for item in &file.items {
            if !item.deprecated || view.lines[item.start].in_test {
                continue;
            }
            let mut marker: Option<(usize, String)> = None;
            for i in item.doc_start..=item.start {
                let l = &view.lines[i];
                for chan in [l.comment.as_str(), l.doc.as_str()] {
                    if let Some(pos) = chan.find("remove-by") {
                        marker = Some((i, chan[pos..].to_string()));
                    }
                }
            }
            match marker {
                None => sinks[fi].report(
                    item.start,
                    "shim-expiry",
                    format!(
                        "deprecated item `{}` has no `remove-by: PR <n>` marker — \
                         name the PR that deletes this shim",
                        item.path
                    ),
                ),
                Some((i, text)) if !well_formed_remove_by(&text) => sinks[fi].report(
                    i,
                    "shim-expiry",
                    format!(
                        "malformed expiry marker for `{}` — write `remove-by: PR <n>`",
                        item.path
                    ),
                ),
                Some(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        crate::lint_files(vec![(rel.to_string(), src.to_string())])
    }

    #[test]
    fn wall_clock_is_legal_in_benches() {
        let src = "use std::time::Instant;\nfn main() { let t = Instant::now(); t.elapsed(); }\n";
        assert!(run("crates/bench/benches/transports.rs", src).is_empty());
        assert_eq!(run("crates/netsim/src/sim.rs", src).len(), 2);
    }

    #[test]
    fn binding_names_are_extracted_from_decl_shapes() {
        assert_eq!(binding_name("    conns: ").as_deref(), Some("conns"));
        assert_eq!(binding_name("let seen = ").as_deref(), Some("seen"));
        assert_eq!(binding_name("let seen: std::collections::").as_deref(), Some("seen"));
        assert_eq!(binding_name("fn f(m: &mut ").as_deref(), Some("m"));
        assert_eq!(binding_name("fn f() -> ").as_deref(), None);
        assert_eq!(binding_name("if x == ").as_deref(), None);
    }

    #[test]
    fn keyed_lookup_is_legal_iteration_is_not() {
        let src = "use std::collections::HashMap;\n\
                   struct S { conns: HashMap<u32, u32> }\n\
                   impl S {\n\
                   fn get(&self) -> Option<&u32> { self.conns.get(&1) }\n\
                   fn bad(&self) { for c in self.conns.values() { use_it(c); } }\n\
                   }\n";
        let found = run("crates/doh/src/x.rs", src);
        // `.values()` and the `for … in` heuristic both fire on line 5.
        assert!(found.iter().all(|f| f.line == 5 && f.rule == "no-unordered-iteration"));
        assert!(!found.is_empty());
    }

    #[test]
    fn hash_iteration_in_unit_tests_is_exempt() {
        let src = "struct S;\n#[cfg(test)]\nmod tests {\n\
                   fn t() { let seen: std::collections::HashSet<u32> = it.collect(); \
                   for x in seen.iter() { check(x); } }\n}\n";
        assert!(run("crates/workload/src/lib.rs", src).is_empty());
    }

    #[test]
    fn threads_and_atomics_are_confined_to_the_sweep_runner() {
        let src = "use std::thread;\nuse std::sync::atomic::{AtomicUsize, Ordering};\n";
        assert!(run("crates/bench/src/sweep.rs", src).is_empty());
        let found = run("crates/bench/src/stats.rs", src);
        assert_eq!(found.iter().filter(|f| f.rule == "no-thread-outside-sweep").count(), 3);
    }

    #[test]
    fn prints_are_legal_in_bins_examples_and_tests() {
        let src = "fn f() { println!(\"x\"); }\n";
        assert!(run("crates/bench/src/bin/fig3.rs", src).is_empty());
        assert!(run("examples/quickstart.rs", src).is_empty());
        assert!(run("tests/transport_matrix.rs", src).is_empty());
        assert_eq!(run("crates/bench/src/report.rs", src).len(), 1);
    }

    #[test]
    fn unwrap_needs_an_invariant_comment_only_in_core_crates() {
        let bare = "fn f() { x().unwrap(); }\n";
        let documented =
            "fn f() {\n    // invariant: x is Some after setup\n    x().unwrap();\n}\n";
        assert_eq!(run("crates/netsim/src/tcp.rs", bare).len(), 1);
        assert!(run("crates/netsim/src/tcp.rs", documented).is_empty());
        assert!(run("crates/bench/src/stats.rs", bare).is_empty(), "bench is not a core crate");
    }

    #[test]
    fn literal_seeds_are_flagged_outside_tests() {
        let src = "pub fn f(sim: &mut Sim, rng: &mut SimRng) {\n\
                   \x20   let a = SimRng::new(42);\n\
                   \x20   let b = rng.split(0xBEEF);\n\
                   \x20   let c = sim.split_rng(7);\n}\n";
        let found = run("crates/workload/src/lib.rs", src);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().all(|f| f.rule == "seed-discipline"));
        assert!(found[1].message.contains("0xBEEF"));
    }

    #[test]
    fn named_seed_constants_and_runtime_seeds_are_legal() {
        let src = "pub fn f(sim: &mut Sim, rng: &mut SimRng, seed: u64) {\n\
                   \x20   let a = SimRng::new(BOOT_SEED);\n\
                   \x20   let b = rng.split(Self::RANK_STREAM);\n\
                   \x20   let c = sim.split_rng(seed);\n}\n";
        assert!(run("crates/workload/src/lib.rs", src).is_empty());
    }

    #[test]
    fn misnamed_seed_constants_are_flagged() {
        let src = "pub fn f(rng: &mut SimRng) -> SimRng {\n    rng.split(LANE_COUNT)\n}\n";
        let found = run("crates/workload/src/lib.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("seed-discipline", 2));
        assert!(found[0].message.contains("LANE_COUNT"));
    }

    #[test]
    fn string_splits_and_test_seeds_do_not_trip_seed_discipline() {
        let strings = "pub fn f(s: &str) -> Option<&str> {\n    s.split(\"::\").next()\n}\n";
        assert!(run("crates/workload/src/lib.rs", strings).is_empty());
        let test_code = "fn mk() -> SimRng { SimRng::new(7) }\n";
        assert!(run("crates/workload/tests/seeds.rs", test_code).is_empty());
        let unit = "#[cfg(test)]\nmod tests {\n    fn mk() -> SimRng { SimRng::new(7) }\n}\n";
        assert!(run("crates/workload/src/lib.rs", unit).is_empty());
    }

    #[test]
    fn allows_suppress_mark_used_and_surface_when_unused_or_malformed() {
        let src = "// simlint::allow(no-print-in-lib): CLI front-end owns stdout\n\
                   fn f() { println!(\"ok\"); }\n\
                   // simlint::allow(no-print-in-lib): nothing here\n\
                   fn g() {}\n\
                   // simlint::allow(no-print-in-lib)\n\
                   fn h() { println!(\"missing reason does not suppress\"); }\n\
                   // simlint::allow(not-a-rule): whatever\n";
        let found = run("crates/doh/src/zone.rs", src);
        let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            vec!["unused-allow", "allow-syntax", "no-print-in-lib", "allow-syntax"],
            "{found:?}"
        );
    }

    fn multi_run(files: &[(&str, &str)]) -> Vec<Finding> {
        crate::lint_files(files.iter().map(|(r, s)| (r.to_string(), s.to_string())).collect())
    }

    #[test]
    fn direct_wakes_outside_the_driver_are_flagged() {
        let src = "pub fn on_wake(sim: &mut Sim) {\n    sim.schedule_app(5, 1);\n}\n";
        let found = run("crates/doh/src/doh2.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("wake-via-driver", 2));
        assert!(run("crates/doh/src/driver.rs", src).is_empty(), "the driver file is blessed");
        assert!(run("crates/netsim/src/sim.rs", src).is_empty(), "only doh code is scoped");
    }

    #[test]
    fn transitive_wakes_are_flagged_at_the_reaching_call() {
        let endpoint = "use crate::util::rearm;\n\
                        pub fn on_wake(sim: &mut Sim) {\n    rearm(sim);\n}\n";
        let util = "pub fn rearm(sim: &mut Sim) {\n    sim.schedule_app_in(3, 1);\n}\n";
        let found =
            multi_run(&[("crates/doh/src/doh2.rs", endpoint), ("crates/doh/src/util.rs", util)]);
        let wake: Vec<&Finding> = found.iter().filter(|f| f.rule == "wake-via-driver").collect();
        assert_eq!(wake.len(), 2, "{found:?}");
        assert!(wake.iter().any(|f| f.file.ends_with("doh2.rs")
            && f.line == 3
            && f.message.contains("doh::util::rearm")));
        assert!(wake.iter().any(|f| f.file.ends_with("util.rs") && f.line == 2));
    }

    #[test]
    fn calls_into_driver_pump_helpers_stay_legal() {
        let endpoint = "use crate::driver::drain_routed;\n\
                        pub fn pump(sim: &mut Sim) {\n    drain_routed(sim);\n}\n";
        let driver = "pub fn drain_routed(sim: &mut Sim) {\n    sim.next_wake_owned();\n}\n";
        let found =
            multi_run(&[("crates/doh/src/lib.rs", endpoint), ("crates/doh/src/driver.rs", driver)]);
        assert!(
            found.iter().all(|f| f.rule != "wake-via-driver"),
            "driver items must not taint their callers: {found:?}"
        );
    }

    #[test]
    fn float_accumulation_is_confined_to_blessed_helpers() {
        let src = "pub fn mean(xs: &[f64]) -> f64 {\n    xs.iter().sum::<f64>() / 2.0\n}\n\
                   pub fn rogue(xs: &[f64]) -> f64 {\n    let mut t = 0.0;\n    \
                   for x in xs {\n        t += x;\n    }\n    t\n}\n";
        let found = run("crates/bench/src/stats.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("no-float-accumulation", 7));
        assert!(run("crates/bench/src/sweep.rs", src).is_empty(), "only stats/report scoped");
    }

    #[test]
    fn keyed_unstable_sorts_are_flagged_in_report_feeding_crates() {
        let src = "pub fn rows(v: &mut Vec<(u64, u32)>) {\n    \
                   v.sort_unstable_by_key(|r| r.0);\n    v.sort_unstable();\n}\n";
        let found = run("crates/workload/src/lib.rs", src);
        assert_eq!(found.len(), 1, "plain sort_unstable is legal: {found:?}");
        assert_eq!(found[0].rule, "stable-sort-for-reports");
        assert!(found[0].message.contains("workload::rows"));
        assert!(run("crates/netsim/src/sim.rs", src).is_empty(), "netsim is not report-feeding");
    }

    #[test]
    fn deprecated_items_need_a_well_formed_expiry_marker() {
        let missing = "#[deprecated(note = \"old\")]\npub fn shim() {}\n";
        let found = run("crates/doh/src/lib.rs", missing);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("shim-expiry", 2));

        let malformed = "/// Old. remove-by: next release\n\
                         #[deprecated(note = \"old\")]\npub fn shim() {}\n";
        let found = run("crates/doh/src/lib.rs", malformed);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("malformed"));

        let ok = "/// Old. remove-by: PR 11.\n\
                  #[deprecated(note = \"old\")]\npub fn shim() {}\n";
        assert!(run("crates/doh/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn findings_carry_their_enclosing_item_path() {
        let src = "impl S {\n    fn f(&self) {\n        let t = Instant::now();\n    }\n}\n";
        let found = run("crates/doh/src/dot.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].item, "doh::dot::S::f");
    }
}
