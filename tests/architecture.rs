//! Twelve structural rules, checked on the source: one scheduling
//! kernel, one measurement estate, one drive loop, no scan in the pod
//! controllers (nor a copy or a pointer a watcher did not ask for), one
//! execution model, an operator that watches two stores, one
//! description of a replay (`elastic_hpc::scenario`) for the
//! cross-engine tests, the bench sweeps and the examples, one lock policy,
//! no dependency a package's sources never name, one entry point
//! for the paper's artifacts, no public function or constant that
//! only its own file names, and one counting surface. Each test runs its
//! rule on the tree as it is, then with one recorded mutation spliced
//! into a real file, and asserts that the rule fires. Most rules read
//! [`code`]: a file without its comments, literals and `#[cfg(test)]`
//! items.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::PathBuf;

const ENGINE: &str = "crates/sim/src/engine.rs";
const OPERATOR: &str = "crates/core/src/operator.rs";
const EXECUTOR: &str = "crates/core/src/executor.rs";
const HARNESS: &str = "crates/core/src/harness.rs";
const API: &str = "crates/kube/src/api.rs";
const MODEL: &str = "crates/workload/src/model.rs";
const SYNC: &str = "crates/metrics/src/sync.rs";
const RUNTIME: &str = "crates/charm/src/runtime.rs";

const HOOKS: &str = "on_submit|on_complete|on_timer|on_fault|apply_action|fail_slots|restore_slots|on_flaky|on_success|backoff_for|from_outcomes|wasted_core_seconds";
const KNOBS: &str = "_STRICT|bench_fresh|bench_gate|_MAX_JOBS|_MAX_SHARDS";
const KERNEL: &str = "{path} decides something the kernel owns (crates/core/src/kernel.rs)";
const GATES: &str =
    "wall-clock gate machinery belongs to benchmark/, counters to tests/replay_counters.rs";
const TICKS: &str = "{path} ticks the operator itself; the drive loop calls settle()";
const ORDER: &str = "the engines share one within-instant order (elastic_core::kernel::EventClass)";
const KUBELET: &str = "the kubelet scans the pod store; read Pod::BY_STAGE (Store::for_each_in)";
const SCANS: &str =
    "the scheduler scans the pod store {n} times; the placement pass is the only scan";
const NOTIFY: &str = "Store::notify deep-copies per watcher; send Arc::clone(stored)";
const UNFILTERED: &str =
    "Store::notify clones before the watcher's filter is asked; call (w.accepts) first";
const NAME_SET: &str =
    "a store index files names in a BTreeSet again; it is a linked list per key through the slots";
const ADVANCE: &str = "one integrator: Progress::advance in crates/workload/src/model.rs";
const INTEGRATES: &str = "{path} integrates progress itself; that is hpc_workload::model::Progress";
const WATCHES: &str =
    "{path} watches other stores than the jobs and the pods; post what it must be told instead";
// `\x20` spells the space, so a grep for the DES config literal over
// the tree finds `src/scenario.rs` alone.
const SCAFFOLD: &str =
    "fn bundled_trace(|fn replay_des(|fn replay_operator(|SimConfig\x20{|SimConfig::|simulate(";
const SETUP: &str =
    "{path} builds its own replay scaffolding; describe it as an elastic_hpc::scenario::Scenario";
const LOCKING: &str = "PoisonError|.lock()|.read()|.write()";
const POLICY: &str = "{path} decides what a poisoned lock means; take it through hpc_metrics::sync";
const UNUSED: &str = "{path} declares a dependency its package's sources never name; drop it";
const BINS: &str = "crates/bench/src/bin/";
const REPRODUCE: &str = "crates/bench/src/bin/reproduce.rs";
const ENTRY_POINTS: &str =
    "{path} is a second entry point; add the artifact to elastic_bench::ARTIFACTS instead";
const ARGV: &str = "{path} reads the command line; reproduce parses it once into Options";
const UNCALLED: &str =
    "no other file names these public items; make them private, test-only, or delete them";
const STALE: &str = "these allowlisted items have a caller now, or are gone; drop their entries";
const SHAPE: &str =
    "{path} defines its own counter shape; add to an hpc_metrics::Counters and expose counters()";
const UNLOCKED: &str = "{path} counts outside the store lock; bump a StoreInner field under it";
/// The public count shapes rule 12 lets stand, with the reason.
const OWN_SHAPES: [(&str, &str); 2] = [
    (
        "FaultStats",
        "a RunMetrics field, which both engines' replays are compared by",
    ),
    (
        "IngestStats",
        "frozen benchmark/ reads its fields; it moves with ROADMAP direction 14",
    ),
];
/// The public items rule 11 lets stand without a caller, with the reason.
const CALLERLESS: [(&str, &str); 4] = [
    (
        "write_swf",
        "the SWF parser's round-trip oracle; ROADMAP 3a's regression files will use it",
    ),
    (
        "write_workload",
        "the SWF writer's entry point for a whole workload, with write_swf",
    ),
    (
        "workload_records",
        "the SWF writer's record builder, with write_swf",
    ),
    (
        "from_anchors",
        "called only by the code `reproduce calibrate` prints for pasting",
    ),
];

type Verdict = Result<(), String>;
/// A file's text by its path from the repository root.
type Read<'a> = &'a dyn Fn(&str) -> String;

fn disk(path: &str) -> String {
    String::from_utf8_lossy(&fs::read(root(path)).expect(path)).into()
}

fn root(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

/// Every file under `dirs`, by path from the repository root.
fn files(dirs: &[&str]) -> Vec<String> {
    let mut dirs: Vec<String> = dirs.iter().map(|d| d.to_string()).collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(root(&dir)).into_iter().flatten().flatten() {
            let path = format!("{dir}/{}", entry.file_name().to_string_lossy());
            let is_dir = entry.file_type().is_ok_and(|t| t.is_dir());
            (if is_dir { &mut dirs } else { &mut files }).push(path);
        }
    }
    files
}

/// `src` with its comments, string and char literals, and then its
/// `#[cfg(test)]` items blanked; newlines stay, so line numbers hold.
fn code(src: &str) -> String {
    let mut c: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < c.len() {
        if let Some(end) = skipped_end(&c, i) {
            blank(&mut c[i..end]);
            i = end;
        } else {
            // A whole word at once: the `r` or `b` ending one is no prefix.
            i += run(&c, i, |x| x.is_alphanumeric() || x == '_').max(1);
        }
    }
    while let Some(attr) = find(&c, "#[cfg(test)]", 0) {
        let end = item_end(&c, attr);
        blank(&mut c[attr..end]);
    }
    c.into_iter().collect()
}

/// If a comment or a string or char literal (`"…"`, `b"…"`, `r#"…"#`,
/// `'x'`, `'\n'`) starts at `i`, the index just past it. Any other `'`
/// opens a lifetime or a label.
fn skipped_end(c: &[char], i: usize) -> Option<usize> {
    if starts(c, i, "//") || starts(c, i, "/*") {
        let close = if c[i + 1] == '/' { "\n" } else { "*/" };
        return Some(find(c, close, i + 2).map_or(c.len(), |k| k + close.len()));
    }
    let prefix = run(c, i, |x| x == 'b' || x == 'r').min(2);
    let raw = c[i..i + prefix].contains(&'r');
    let hashes = run(c, i + prefix, |x| raw && x == '#');
    let (open, close) = (i + prefix + hashes, format!("\"{}", "#".repeat(hashes)));
    let escaped =
        |k: usize| !raw && c[..k].iter().rev().take_while(|&&x| x == '\\').count() % 2 == 1;
    let end = match c.get(open) {
        Some('"') => (open + 1..c.len()).find(|&k| starts(c, k, &close) && !escaped(k)),
        Some('\'') if c.get(open + 1) == Some(&'\\') => find(c, "'", open + 3),
        Some('\'') if c.get(open + 2) == Some(&'\'') => Some(open + 2),
        _ => None,
    };
    end.map(|k| k + close.len())
}

/// `code` split around `fn name`: (only that fn, all but that fn).
fn carve(code: &str, name: &str) -> (String, String) {
    let c: Vec<char> = code.chars().collect();
    let start = find(&c, &format!("fn {name}("), 0).expect(name);
    let end = item_end(&c, start);
    let (mut only, mut rest) = (c.clone(), c);
    blank(&mut only[..start]);
    blank(&mut only[end..]);
    blank(&mut rest[start..end]);
    (only.into_iter().collect(), rest.into_iter().collect())
}

/// The index just past the item that starts at `from`: its balanced
/// `{ … }`, or a `;` outside every bracket, whichever closes first.
fn item_end(c: &[char], from: usize) -> usize {
    let mut depth = 0;
    for (k, x) in c.iter().enumerate().skip(from) {
        match x {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' => depth -= 1,
            '}' if depth == 1 => return k + 1,
            '}' => depth -= 1,
            ';' if depth == 0 => return k + 1,
            _ => {}
        }
    }
    c.len()
}

fn run(c: &[char], from: usize, part: impl Fn(char) -> bool) -> usize {
    c[from..].iter().take_while(|&&x| part(x)).count()
}

fn starts(c: &[char], i: usize, pat: &str) -> bool {
    pat.chars().zip(i..).all(|(x, k)| c.get(k) == Some(&x))
}

fn find(c: &[char], pat: &str, from: usize) -> Option<usize> {
    (from..c.len()).find(|&i| starts(c, i, pat))
}

fn blank(c: &mut [char]) {
    c.iter_mut().filter(|x| **x != '\n').for_each(|x| *x = ' ');
}

fn any_of(alternatives: &'static str) -> impl Fn(&str) -> bool + Copy {
    move |line| alternatives.split('|').any(|a| line.contains(a))
}

/// Fails with `message` (`{path}` filled in) and every `path:line` of
/// `text` that `hit` matches.
fn deny(path: &str, text: &str, hit: impl Fn(&str) -> bool, message: &str) -> Verdict {
    let hits = text.lines().zip(1..).filter(|(l, _)| hit(l));
    let hits: Vec<_> = hits.map(|(l, n)| format!("{path}:{n}: {l}")).collect();
    if hits.is_empty() {
        return Ok(());
    }
    let message = message.replace("{path}", path);
    Err(format!("{message}\n{}", hits.join("\n")))
}

/// Neither engine adapter names a policy hook or a kernel primitive.
fn one_kernel(read: Read) -> Verdict {
    deny(ENGINE, &code(&read(ENGINE)), any_of(HOOKS), KERNEL)?;
    let operator = carve(&code(&read(OPERATOR)), "rebuild_view").1;
    deny(OPERATOR, &operator, any_of(HOOKS), KERNEL)
}

/// No knob of a second, wall-clock gate estate, except in this file.
fn one_measurement_estate(read: Read) -> Verdict {
    let paths = files(&["crates", "tests", "examples", "src", ".claude"]);
    for path in paths.iter().filter(|p| *p != "tests/architecture.rs") {
        deny(path, &read(path), any_of(KNOBS), GATES)?;
    }
    Ok(())
}

/// The harnesses settle, never tick; no engine orders an instant itself.
fn one_drive_loop(read: Read) -> Verdict {
    for path in [HARNESS, "crates/serving/src/harness.rs"] {
        deny(path, &code(&read(path)), any_of(".tick()"), TICKS)?;
    }
    let own_order = any_of("order those two differently");
    for path in files(&["crates"]) {
        deny(&path, &read(&path), own_order, ORDER)?;
    }
    Ok(())
}

/// The pod controllers read indexes, and a watch event is a pointer,
/// cloned only for a watcher whose filter accepts it.
fn no_scan_in_the_pod_controllers(read: Read) -> Verdict {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let scan = |l: &str| {
        l.match_indices("for_each(")
            .any(|(i, _)| !l[..i].ends_with(word))
    };
    let kubelet = "crates/kube/src/kubelet.rs";
    deny(kubelet, &code(&read(kubelet)), scan, KUBELET)?;
    let scheduler = code(&read("crates/kube/src/scheduler.rs"));
    let scans = scheduler.matches("pods.for_each(").count();
    if scans > 1 {
        return Err(SCANS.replace("{n}", &scans.to_string()));
    }
    let api = code(&read(API));
    let notify = carve(&api, "notify").0;
    deny(API, &notify, any_of(".clone()"), NOTIFY)?;
    let unfiltered = &notify[..notify.find("(w.accepts)(").unwrap_or(notify.len())];
    deny(API, unfiltered, any_of("clone("), UNFILTERED)?;
    deny(API, &api, any_of("BTreeSet<Arc<str>>"), NAME_SET)
}

/// No engine integrates a modeled job's progress; `Progress` does.
fn one_execution_model(read: Read) -> Verdict {
    for path in [ENGINE, EXECUTOR, OPERATOR] {
        deny(path, &code(&read(path)), integrates, INTEGRATES)?;
    }
    for path in files(&["crates/sim/src", "crates/core/src", "crates/workload/src"]) {
        let defs = read(&path).matches("fn advance(").count();
        if defs != usize::from(path == MODEL) {
            return Err(format!("{ADVANCE}\n{path}"));
        }
    }
    Ok(())
}

/// The operator subscribes to the CharmJob and pod stores, and nothing
/// else: two `list_watch` / `list_watch_where` / `watch` calls.
fn the_operator_watches_two_stores(read: Read) -> Verdict {
    let operator = code(&read(OPERATOR));
    let calls = [".list_watch(", ".list_watch_where(", ".watch("];
    let subscribes = |l: &str| calls.iter().map(|c| l.matches(c).count()).sum::<usize>();
    if operator.lines().map(subscribes).sum::<usize>() == 2 {
        return Ok(());
    }
    deny(OPERATOR, &operator, |l| subscribes(l) > 0, WATCHES)?;
    Err(WATCHES.replace("{path}", OPERATOR))
}

/// Outside `src/scenario.rs`, no root test, bench sweep or example
/// loads the bundled trace, defines its own engine replay, builds a
/// `SimConfig` (a literal or a `SimConfig::` constructor) or calls
/// `simulate`: each describes its replay as a `Scenario` and takes the
/// engine `elastic_hpc::scenario` builds from it. The trace's path is a
/// literal, so it is looked for in the raw text.
fn one_differential_harness(read: Read) -> Verdict {
    let paths = files(&["tests", "crates/bench/src", "examples"]);
    let own = |p: &&String| p.ends_with(".rs") && *p != "tests/architecture.rs";
    for path in paths.iter().filter(own) {
        deny(path, &code(&read(path)), any_of(SCAFFOLD), SETUP)?;
        deny(path, &read(path), any_of("sample.swf"), SETUP)?;
    }
    Ok(())
}

/// Every lock in the crates' sources is taken through
/// `hpc_metrics::sync`, the one module that says what a poisoned lock
/// means: no other file names `PoisonError` or calls an argument-less
/// `.lock()`, `.read()` or `.write()` outside its tests.
fn one_lock_policy(read: Read) -> Verdict {
    let source = |p: &&String| p.contains("/src/") && p.ends_with(".rs") && *p != SYNC;
    for path in files(&["crates"]).iter().filter(source) {
        deny(path, &code(&read(path)), any_of(LOCKING), POLICY)?;
    }
    Ok(())
}

/// Every dependency the root and `crates/*` manifests declare, under
/// `[dependencies]` or `[dev-dependencies]`, is named in its package's
/// `src`, `tests`, `benches` or `examples` as `name::`, `use name` or
/// `extern crate name` (with `-` read as `_`). Doc comments and test
/// modules count: a dev-dependency may be used only there.
fn no_unused_dependency(read: Read) -> Verdict {
    let members = files(&["crates"]).into_iter();
    let members = members.filter(|p| p.ends_with("/Cargo.toml") && p.matches('/').count() == 2);
    for manifest in std::iter::once("Cargo.toml".to_string()).chain(members) {
        let package = manifest.trim_end_matches("Cargo.toml");
        let dirs = ["src", "tests", "benches", "examples"].map(|d| format!("{package}{d}"));
        let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
        let rust = files(&dirs).into_iter().filter(|p| p.ends_with(".rs"));
        let sources: String = rust.map(|p| read(&p)).collect();
        let unused = |line: &str| {
            let name = line.split_once('=').map_or("", |(name, _)| name.trim());
            !name.is_empty() && !names(&sources, &name.replace('-', "_"))
        };
        deny(&manifest, &dependencies(&read(&manifest)), unused, UNUSED)?;
    }
    Ok(())
}

/// The paper's artifacts run from one binary: `crates/bench/src/bin`
/// holds only `reproduce.rs`, and no other file of `paths` reads the
/// command line. The listing is an argument so that a test can add a
/// file to it.
fn one_reproduction_entry_point(paths: &[String], read: Read) -> Verdict {
    for path in paths.iter().filter(|p| *p != REPRODUCE) {
        if path.starts_with(BINS) {
            return Err(ENTRY_POINTS.replace("{path}", path));
        }
        deny(path, &code(&read(path)), any_of("env::args"), ARGV)?;
    }
    Ok(())
}

/// Every `pub fn` and `pub const` whose name `crates/*/src` and the
/// root crate's `src` define once is named in the code of another file of `paths` (a `pub use`
/// is no caller), unless `allowed` lists it with its reason; an entry
/// of `allowed` that is called or no longer defined fails too. The
/// listing and the allowlist are arguments so that a test can swap them.
fn public_items_have_callers(paths: &[String], read: Read, allowed: &[(&str, &str)]) -> Verdict {
    let sources: Vec<(&String, String)> = paths
        .iter()
        .filter(|p| p.ends_with(".rs"))
        .map(|p| (p, without_reexports(&code(&read(p)))))
        .collect();
    let words: Vec<HashSet<&str>> = sources.iter().map(|(_, c)| words(c)).collect();
    let mut defined: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (i, (path, code)) in sources.iter().enumerate() {
        let crate_src = path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
        if crate_src || path.starts_with("src/") {
            for (line, n) in code.lines().zip(1..) {
                for name in public_names(line) {
                    defined.entry(name).or_default().push((i, n));
                }
            }
        }
    }
    let called = |name: &str| match defined.get(name).map(Vec::as_slice) {
        Some(&[(file, _)]) => (0..sources.len()).any(|i| i != file && words[i].contains(name)),
        _ => true,
    };
    let stale: Vec<&str> = allowed
        .iter()
        .map(|(name, _)| *name)
        .filter(|n| called(n))
        .collect();
    if !stale.is_empty() {
        return Err(format!("{STALE}\n{}", stale.join("\n")));
    }
    let mut uncalled: Vec<String> = defined
        .iter()
        .filter(|(name, _)| !called(name) && !allowed.iter().any(|(a, _)| a == *name))
        .map(|(name, sites)| format!("{}:{}: {name}", sources[sites[0].0].0, sites[0].1))
        .collect();
    if uncalled.is_empty() {
        return Ok(());
    }
    uncalled.sort_unstable();
    Err(format!("{UNCALLED}\n{}", uncalled.join("\n")))
}

/// Rule 11 on the tree: the product's sources against every Rust file
/// of the repository that could call them, frozen `benchmark/` too.
fn every_public_item_has_a_caller(read: Read) -> Verdict {
    let dirs = [
        "crates",
        "src",
        "tests",
        "examples",
        "benchmark/src",
        "benchmark/tests",
    ];
    public_items_have_callers(&files(&dirs), read, &CALLERLESS)
}

/// Rule 12: every count goes through `hpc_metrics::Counters`. No
/// `pub struct` of the crates' sources is a shape of its own (a name
/// ending in `Stats`, `Dispatches` or `Indexes`) unless `OWN_SHAPES`
/// lists it, and the kube store counts under its lock: its code names
/// no `AtomicU64`.
fn one_counting_surface(read: Read) -> Verdict {
    let source = |p: &&String| p.contains("/src/") && p.ends_with(".rs");
    let own = |l: &str| counter_shape(l).is_some_and(|n| OWN_SHAPES.iter().all(|(a, _)| *a != n));
    for path in files(&["crates"]).iter().filter(source) {
        deny(path, &code(&read(path)), own, SHAPE)?;
    }
    deny(API, &code(&read(API)), any_of("AtomicU64"), UNLOCKED)
}

/// The name a line of code defines as a `pub struct`, if it ends in
/// `Stats`, `Dispatches` or `Indexes`.
fn counter_shape(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub struct ")?;
    let name = rest.split(|c: char| !c.is_alphanumeric()).next()?;
    let shapes = ["Stats", "Dispatches", "Indexes"];
    shapes.iter().any(|s| name.ends_with(s)).then_some(name)
}

/// The names a line of code defines as `pub fn`, `pub const fn` or
/// `pub const`.
fn public_names(line: &str) -> Vec<&str> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut names = Vec::new();
    for (i, _) in line.match_indices("pub ") {
        if line[..i].ends_with(word) {
            continue;
        }
        let rest = line[i + 4..].trim_start();
        let (constant, rest) = rest
            .strip_prefix("const ")
            .map_or((false, rest), |r| (true, r));
        let (function, rest) = rest
            .strip_prefix("fn ")
            .map_or((false, rest), |r| (true, r));
        let name = &rest[..rest.find(|c| !word(c)).unwrap_or(rest.len())];
        if (constant || function) && !name.is_empty() {
            names.push(name);
        }
    }
    names
}

/// `code` with every `pub use …;` item blanked: a re-export calls nothing.
fn without_reexports(code: &str) -> String {
    let mut c: Vec<char> = code.chars().collect();
    let mut from = 0;
    while let Some(at) = find(&c, "pub use ", from) {
        from = item_end(&c, at);
        blank(&mut c[at..from]);
    }
    c.into_iter().collect()
}

/// The identifiers of `code`.
fn words(code: &str) -> HashSet<&str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .collect()
}

/// `manifest` with every line outside `[dependencies]` and
/// `[dev-dependencies]` blanked, so line numbers hold.
fn dependencies(manifest: &str) -> String {
    let mut listed = false;
    let mut kept = Vec::new();
    for line in manifest.lines() {
        if line.starts_with('[') {
            listed = line == "[dependencies]" || line == "[dev-dependencies]";
        }
        let declares = listed && !line.starts_with(['[', '#']);
        kept.push(if declares { line } else { "" });
    }
    kept.join("\n")
}

/// `src` names the crate `name` as `name::`, `use name` or
/// `extern crate name`.
fn names(src: &str, name: &str) -> bool {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    src.match_indices(name).any(|(i, _)| {
        let (before, after) = (&src[..i], &src[i + name.len()..]);
        let whole = !before.ends_with(word) && !after.starts_with(word);
        let used = after.starts_with("::") || before.ends_with("use ");
        whole && (used || before.ends_with("extern crate "))
    })
}

/// A rate times an elapsed time: `* (now - `, `* x.as_secs()`,
/// `as_secs() *`, or a relaunch's `total_iters.saturating_sub`.
fn integrates(line: &str) -> bool {
    let after = |i: usize| line[i..].trim_start_matches(' ');
    let lower = |c: char| c.is_ascii_lowercase() || "_.()".contains(c);
    let path = |s: &str| s[..s.find(|c| !lower(c)).unwrap_or(s.len())].to_string();
    let times = |s: &str| s.starts_with("(now - ") || path(s).contains(".as_secs()");
    let secs_times = |(i, _)| after(i + 9).starts_with('*');
    line.match_indices('*').any(|(i, _)| times(after(i + 1)))
        || line.match_indices("as_secs()").any(secs_times)
        || line.contains("total_iters.saturating_sub")
}

/// Asserts `rule` holds on the files on disk and fails with `message`
/// once `path` reads `mutated`; returns the failure.
fn rail(rule: fn(Read) -> Verdict, path: &str, mutated: &str, message: &str) -> String {
    rule(&disk).unwrap_or_else(|broken| panic!("{broken}"));
    let read = |p: &str| if p == path { mutated.into() } else { disk(p) };
    let broken = rule(&read).expect_err("the rule let its mutation through");
    let message = message.replace("{path}", path);
    assert!(broken.starts_with(&message), "{broken}");
    broken
}

#[test]
fn one_kernel_rule() {
    // The operator calls a policy hook, right above the skipped `rebuild_view`.
    let hook = "fn admit(&mut self) {\n        self.policy.on_submit(&self.view, now);\n    }\n    pub fn rebuild_view(";
    let mutated = disk(OPERATOR).replacen("pub fn rebuild_view(", hook, 1);
    rail(one_kernel, OPERATOR, &mutated, KERNEL);
}

#[test]
fn a_test_module_mid_file_hides_nothing_after_it() {
    // The engine's tests (they name `wasted_core_seconds`) moved above
    // `simulate`, then a hook call: a reader that drops from the test
    // attribute to the end of the file misses the call.
    let engine = disk(ENGINE);
    let (body, tests) = engine.split_at(engine.find("#[cfg(test)]").expect("engine tests"));
    let call = tests.to_owned() + "fn admit() { policy.on_submit(now) }\npub fn simulate(";
    let mutated = body.replacen("pub fn simulate(", &call, 1);
    let broken = rail(one_kernel, ENGINE, &mutated, KERNEL);
    assert!(!broken.contains("wasted_core_seconds"), "{broken}");
}

#[test]
fn one_measurement_estate_rule() {
    let knob = "const STRICT: bool = option_env!(\"REPLAY_STRICT\").is_some();\nuse std::";
    let (path, anchor) = ("tests/replay_counters.rs", "use std::");
    let mutated = disk(path).replacen(anchor, knob, 1);
    rail(one_measurement_estate, path, &mutated, GATES);
}

#[test]
fn one_drive_loop_rule() {
    // The literal triple tick comes back in place of `settle()`.
    let ticks = "for _ in 0..3 {\n            op.tick();\n        }";
    let mutated = disk(HARNESS).replacen("op.settle();", ticks, 1);
    rail(one_drive_loop, HARNESS, &mutated, TICKS);
}

/// The body of `Store::notify`'s `retain`: the filter, then the send.
const SEND: &str =
    "!(w.accepts)(kind, &stored.obj) || w.tx.send(kind.event(Arc::clone(stored))).is_ok()";

#[test]
fn no_scan_in_the_pod_controllers_rule() {
    // Every watcher gets its own deep copy of the stored object.
    let copy = "kind.event(Arc::new((**stored).clone()))";
    let mutated = disk(API).replacen("kind.event(Arc::clone(stored))", copy, 1);
    rail(no_scan_in_the_pod_controllers, API, &mutated, NOTIFY);
}

#[test]
fn notify_asks_the_filter_before_it_clones() {
    // The event is built for every watcher, and only then filtered.
    let eager = "let event = kind.event(Arc::clone(stored));\n            \
                 !(w.accepts)(kind, &stored.obj) || w.tx.send(event).is_ok()";
    let mutated = disk(API).replacen(SEND, eager, 1);
    rail(no_scan_in_the_pod_controllers, API, &mutated, UNFILTERED);
    // Or never filtered at all.
    let unfiltered = "w.tx.send(kind.event(Arc::clone(stored))).is_ok()";
    let mutated = disk(API).replacen(SEND, unfiltered, 1);
    rail(no_scan_in_the_pod_controllers, API, &mutated, UNFILTERED);
}

#[test]
fn one_execution_model_rule() {
    // The executor integrates a checkpointed job's work itself.
    let own = "self.done += self.rate * (now - self.last).as_secs();";
    let mutated = disk(EXECUTOR).replacen("self.progress.advance(now);", own, 1);
    rail(one_execution_model, EXECUTOR, &mutated, INTEGRATES);
}

#[test]
fn the_operator_watches_two_stores_rule() {
    // A third store comes back beside the job and pod watches.
    let pods = "let (_, pods_rx) = plane.pods.list_watch_where(pod_started);";
    let third = format!("{pods}\n        let (_, maps_rx) = plane.configmaps.list_watch();");
    let mutated = disk(OPERATOR).replacen(pods, &third, 1);
    rail(the_operator_watches_two_stores, OPERATOR, &mutated, WATCHES);
}

#[test]
fn one_differential_harness_rule() {
    // `fault_replay` grows its own DES replay again.
    let anchor = "/// The acceptance criterion of the fault layer";
    let own = format!("fn replay_des() -> RunMetrics {{\n    todo!()\n}}\n\n{anchor}");
    let path = "tests/fault_replay.rs";
    let mutated = disk(path).replacen(anchor, &own, 1);
    rail(one_differential_harness, path, &mutated, SETUP);
    // Or names the trace file, if only in a comment.
    let path = "tests/trace_replay.rs";
    let mutated = disk(path).replacen("SWF trace", "SWF trace (tests/data/sample.swf)", 1);
    rail(one_differential_harness, path, &mutated, SETUP);
    // Or a bench sweep writes its DES config by hand again.
    let path = "crates/bench/src/traces.rs";
    let call = "run(&scenario, Engine::Des)";
    let own = "let cfg = SimConfig\x20{\n        capacity: CAPACITY,\n        \
               policy: Box::new(policy()),\n        scaling: ScalingModel::default(),\n        \
               overhead: OverheadModel::default(),\n        cancellations: Vec::new(),\n    };\n    \
               simulate(&cfg, &scenario.workload).metrics";
    let mutated = disk(path).replacen(call, own, 1);
    let broken = rail(one_differential_harness, path, &mutated, SETUP);
    let hits: Vec<&str> = broken.lines().skip(1).collect();
    assert!(hits[0].ends_with("let cfg = SimConfig\x20{"), "{broken}");
    assert!(
        hits[1].ends_with("simulate(&cfg, &scenario.workload).metrics"),
        "{broken}"
    );
    // Or a root test replays the paper's testbed through its own
    // config, as `evicted_restart` did.
    let path = "tests/evicted_restart.rs";
    let own = "SimConfig::paper_default(Box::new(policy()))";
    let mutated = disk(path).replacen("sim_config(&scenario)", own, 1);
    let broken = rail(one_differential_harness, path, &mutated, SETUP);
    assert_eq!(broken.lines().count(), 2, "{broken}");
}

#[test]
fn one_lock_policy_rule() {
    // The store recovers a poisoned guard again, as the old shim did.
    let recover = "self.inner.lock().unwrap_or_else(PoisonError::into_inner)";
    let mutated = disk(API).replacen("locked(&self.inner)", recover, 1);
    rail(one_lock_policy, API, &mutated, POLICY);
}

#[test]
fn no_unused_dependency_rule() {
    // The pod store's crate takes a dependency it never calls.
    let path = "crates/kube/Cargo.toml";
    let unused = "[dev-dependencies]\nrand_chacha = { path = \"../../vendor/rand_chacha\" }";
    let mutated = disk(path).replacen("[dev-dependencies]", unused, 1);
    let broken = rail(no_unused_dependency, path, &mutated, UNUSED);
    assert!(broken.contains(&format!("{path}:")), "{broken}");
}

#[test]
fn one_reproduction_entry_point_rule() {
    let listed = files(&["crates/bench/src"]);
    one_reproduction_entry_point(&listed, &disk).unwrap_or_else(|broken| panic!("{broken}"));
    // The Fig. 7 binary comes back with its own flag parsing.
    let path = "crates/bench/src/bin/fig7_submission_gap.rs";
    let main = "fn main() {\n    let seeds = std::env::args().nth(2);\n}\n";
    let read = |p: &str| if p == path { main.into() } else { disk(p) };
    let readded = [listed.clone(), vec![path.to_string()]].concat();
    let broken = one_reproduction_entry_point(&readded, &read).expect_err("a second binary");
    assert_eq!(broken, ENTRY_POINTS.replace("{path}", path));
    // Or the library reads a flag from argv again.
    let lib = "crates/bench/src/lib.rs";
    let flag =
        "pub fn has_flag(flag: &str) -> bool {\n    std::env::args().any(|a| a == flag)\n}\n";
    let mutated = format!("{flag}{}", disk(lib));
    let read = |p: &str| if p == lib { mutated.clone() } else { disk(p) };
    let broken = one_reproduction_entry_point(&listed, &read).expect_err("argv in the library");
    assert!(broken.starts_with(&ARGV.replace("{path}", lib)), "{broken}");
    assert!(broken.contains(&format!("{lib}:2:")), "{broken}");
}

#[test]
fn the_reader_drops_comments_literals_and_test_items() {
    let src = "let s = \"} // {\"; let c = '}'; let r = br#\"#[cfg(test)] \"x\"\"#; // gone\n\
               #[cfg(test)]\nmod t { fn x<'a>(s: &'a str) -> char { '{' } }\n\
               /* gone */ fn b(x: [u8; 2]) -> char { '\\'' }\n";
    let out = code(src).split_whitespace().collect::<Vec<_>>().join(" ");
    let expected = "let s = ; let c = ; let r = ; fn b(x: [u8; 2]) -> char { }";
    assert_eq!(out, expected);
}

#[test]
fn every_public_item_has_a_caller_rule() {
    // The deleted ASCII bar comes back, and nothing calls it.
    let path = "crates/metrics/src/ascii.rs";
    let readded = "\npub fn bar(value: f64, max: f64, width: usize) -> String {\n    todo!()\n}\n";
    let mutated = format!("{}{readded}", disk(path));
    let broken = rail(every_public_item_has_a_caller, path, &mutated, UNCALLED);
    assert!(
        broken.contains(&format!("{path}:")) && broken.ends_with(": bar"),
        "{broken}"
    );
    // The trace sweep stops compressing arrivals; the only other mention
    // of the knob left is that file's doc comment.
    let path = "crates/bench/src/traces.rs";
    let call = "base.clone().compress_arrivals(factor)";
    let mutated = disk(path).replacen(call, "base.clone()", 1);
    let broken = rail(every_public_item_has_a_caller, path, &mutated, UNCALLED);
    assert!(broken.contains("crates/workload/src/spec.rs:"), "{broken}");
    assert!(broken.ends_with(": compress_arrivals"), "{broken}");
    // The root crate's own modules count: a scenario builder nothing
    // calls.
    let path = "src/scenario.rs";
    let builder =
        "\npub fn with_quantum(scenario: Scenario, quantum: usize) -> Scenario {\n    todo!()\n}\n";
    let mutated = format!("{}{builder}", disk(path));
    let broken = rail(every_public_item_has_a_caller, path, &mutated, UNCALLED);
    assert!(
        broken.contains(&format!("{path}:")) && broken.ends_with(": with_quantum"),
        "{broken}"
    );
}

#[test]
fn one_counting_surface_rule() {
    // The charm runtime's counter struct comes back.
    let anchor = "/// Freshly constructed chares grouped by destination PE";
    let stats = format!("pub struct RtStats {{\n    messages: AtomicU64,\n}}\n\n{anchor}");
    let mutated = disk(RUNTIME).replacen(anchor, &stats, 1);
    let broken = rail(one_counting_surface, RUNTIME, &mutated, SHAPE);
    assert!(broken.ends_with("pub struct RtStats {"), "{broken}");
    // Or the store counts its scans beside its lock again.
    let inner = "    inner: Arc<Mutex<StoreInner<T>>>,\n";
    let beside = format!("{inner}    full_scans: Arc<AtomicU64>,\n");
    let mutated = disk(API).replacen(inner, &beside, 1);
    rail(one_counting_surface, API, &mutated, UNLOCKED);
}

/// A product file that defines `lonely` and `LIMIT`, and a test file
/// that reads `other`; the verdict of rule 11 on the two.
fn lonely(other: &str, allowed: &[(&str, &str)]) -> Verdict {
    let product = "pub fn lonely() {}\npub const LIMIT: u32 = 1;\n";
    let paths = ["crates/x/src/lib.rs".to_string(), "tests/t.rs".to_string()];
    let read = |p: &str| String::from(if p == paths[0] { product } else { other });
    public_items_have_callers(&paths, &read, allowed)
}

#[test]
fn a_doc_comment_a_literal_or_a_reexport_is_no_caller() {
    let uncalled =
        format!("{UNCALLED}\ncrates/x/src/lib.rs:1: lonely\ncrates/x/src/lib.rs:2: LIMIT");
    for mention in [
        "/// Calls [`lonely`] up to [`LIMIT`] times.\nfn f() {}\n",
        "fn f() -> &'static str {\n    \"lonely(LIMIT)\"\n}\n",
        "pub use x::{\n    lonely,\n    LIMIT,\n};\n",
        "#[cfg(test)]\nmod tests {\n    fn f() -> u32 {\n        x::lonely();\n        x::LIMIT\n    }\n}\n",
    ] {
        assert_eq!(lonely(mention, &[]), Err(uncalled.clone()), "{mention}");
    }
    let call = "use x::lonely;\nfn f() -> u32 {\n    lonely();\n    x::LIMIT\n}\n";
    assert_eq!(lonely(call, &[]), Ok(()));
}

#[test]
fn an_allowlist_entry_must_be_defined_and_uncalled() {
    let reason = [("lonely", "a reason"), ("LIMIT", "a reason")];
    assert_eq!(lonely("", &reason), Ok(()));
    let stale = format!("{STALE}\nlonely");
    assert_eq!(
        lonely("fn f() {\n    x::lonely();\n}\n", &reason),
        Err(stale)
    );
    let gone = [
        ("lonely", "a reason"),
        ("LIMIT", "a reason"),
        ("gone", "a reason"),
    ];
    assert_eq!(lonely("", &gone), Err(format!("{STALE}\ngone")));
}
