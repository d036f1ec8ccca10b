//! The token check of `powifi_lint::rules` over the workspace, with its
//! positive and negative fixtures inline, and the lint-level wiring that
//! lets the fixture library in `src/lib.rs` speak for the sim crates.

use powifi_lint::rules::check;
use powifi_lint::{classify, SIM_CRATES};
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn r4_positive_and_negative() {
    for bad in [
        "if energy_j == 0.0 {}",
        "acc != -1.5",
        "if 1e-9 == x {}",
        "x==2f64",
        "a == 2.5e3 * b",
    ] {
        assert_eq!(check("crates/rf/src/a.rs", bad).len(), 1, "{bad}");
    }
    for good in [
        "energy_ns == 0 || acc.abs() < 1e-12",
        "a.0 == b.1",
        "n == 1.max(m)",
        "x <= 0.5 && y >= 1.5",
        "0x1e == n",
        "let s = \"x == 0.0\"; // or y != 1.5",
    ] {
        assert!(check("crates/rf/src/a.rs", good).is_empty(), "{good}");
    }
}

const BOXED_HANDLERS: [&str; 3] = [
    "pub type Callback = Box<dyn FnMut(&mut World)>;",
    "    pub fire: Box< dyn FnOnce(&mut World, &mut Queue) >,",
    "let hook: Box<dyn Fn()> = make();",
];

#[test]
fn r8_positive_and_negative() {
    for bad in BOXED_HANDLERS {
        assert_eq!(check("crates/mac/src/a.rs", bad).len(), 1, "{bad}");
    }
    for good in [
        "q.post_at(world.now, MacEvent::ArbFire { sta });",
        "let boxed = Box::new(Payload::default());",
        "let sink: Box<dyn Sink> = make_sink();",
        "// Box<dyn Fn()> in a comment",
        "let s = \"Box<dyn Fn()>\";",
    ] {
        assert!(check("crates/mac/src/a.rs", good).is_empty(), "{good}");
    }
}

/// deploy and bench wire experiments, not per-event logic.
#[test]
fn r8_is_exempt_in_deploy() {
    for bad in BOXED_HANDLERS {
        assert!(check("crates/deploy/src/home.rs", bad).is_empty(), "{bad}");
        assert!(check("crates/bench/src/runner.rs", bad).is_empty(), "{bad}");
        assert!(
            !check("crates/sim/src/conformance.rs", bad).is_empty(),
            "{bad}"
        );
    }
}

#[test]
fn r9_positive_and_negative() {
    let city = "crates/deploy/src/city/runtime.rs";
    for bad in [
        "static mut EPOCH_TALLY: u64 = 0;",
        "static SHARED_TABLE: Mutex<Vec<u64>> = Mutex::new(Vec::new());",
        "thread_local! { static T: u8 = 0; }",
        "let scratch: RefCell<Vec<u64>> = RefCell::new(Vec::new());",
        "use std::cell::{Cell, UnsafeCell};",
        "let n = AtomicU64::new(0);",
        "let t = RwLock::new(table);",
    ] {
        assert_eq!(check(city, bad).len(), 1, "{bad}");
        assert!(check("crates/deploy/src/home.rs", bad).is_empty(), "{bad}");
    }
    for good in [
        "fn name(&self) -> &'static str {",
        "let mut tbl = lock(&table);",
        "barrier.wait();",
        "let cell_of = cells[i]; // a static RefCell here would be shared",
        "let s = \"static RefCell\";",
    ] {
        assert!(check(city, good).is_empty(), "{good}");
    }
}

#[test]
fn test_trees_are_fully_exempt() {
    let src = "pub fn f() {}\n\
               impl X {\n    #[cfg(test)]\n    fn helper() { let h: Box<dyn Fn()> = mk(); }\n}\n\
               #[cfg(test)]\nmod tests {\n    fn t() { let h: Box<dyn Fn()> = mk(); }\n}\n";
    let found = check("crates/sim/src/a.rs", src);
    assert_eq!(
        found,
        ["crates/sim/src/a.rs:4: R8 `Box<dyn Fn…>` in a hot crate"]
    );
}

/// Every `.rs` file under `crates/`, relative to the workspace root.
fn workspace_files() -> Vec<(String, PathBuf)> {
    let root = root();
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    files
        .into_iter()
        .map(|f| {
            let rel = f.strip_prefix(&root).unwrap().to_string_lossy();
            (rel.replace('\\', "/"), f)
        })
        .collect()
}

#[test]
fn library_code_is_clean() {
    let found: Vec<String> = workspace_files()
        .iter()
        .flat_map(|(rel, file)| check(rel, &fs::read_to_string(file).unwrap()))
        .collect();
    assert!(
        found.is_empty(),
        "token check findings:\n{}",
        found.join("\n")
    );
}

/// The fixtures prove the rules only for code linted like them: every sim
/// crate carries the fixture library's `forbid(unsafe_code)` and lint
/// levels.
#[test]
fn sim_crates_carry_the_fixture_lint_levels() {
    let root = root();
    let read = |rel: &str| fs::read_to_string(root.join(rel)).unwrap();
    let fixtures = read("crates/lint/src/lib.rs");
    let levels: Vec<&str> = fixtures
        .lines()
        .filter(|l| l.starts_with("#![forbid(") || l.starts_with("#![cfg_attr(not(test), warn("))
        .collect();
    assert_eq!(levels.len(), 6, "{levels:?}");
    for krate in SIM_CRATES {
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        for line in &levels {
            assert!(
                lib.lines().any(|l| l == *line),
                "crates/{krate}/src/lib.rs lacks {line}"
            );
        }
    }
}

/// R14 holds in the checkpoint code (`ckpt*.rs`, or under a `ckpt/`
/// directory) of every crate's library: a sim crate's lint levels cover
/// its own, and a checkpoint file of any other crate turns the disallowed
/// types and methods back on with the line the R14 fixtures carry. No
/// other file carries that line.
#[test]
fn r14_covers_ckpt_files_in_every_crate_and_nothing_else() {
    let r14 = "#![warn(clippy::disallowed_methods, clippy::disallowed_types)]";
    let fixtures = fs::read_to_string(root().join("crates/lint/src/lib.rs")).unwrap();
    assert!(fixtures.contains(&format!("    {r14}")));
    let mut opted_in = 0;
    for (rel, file) in workspace_files() {
        let ctx = classify(&rel).unwrap();
        let name = rel.rsplit('/').next().unwrap();
        let is_ckpt = ctx.is_library && (name.starts_with("ckpt") || rel.contains("/ckpt/"));
        let carries = fs::read_to_string(&file).unwrap().lines().any(|l| l == r14);
        assert_eq!(carries, is_ckpt && !ctx.is_sim, "{rel}");
        opted_in += usize::from(carries);
    }
    assert!(opted_in > 0);
}
