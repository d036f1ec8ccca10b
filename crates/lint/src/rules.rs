//! The rules no clippy lint can see, checked line by line over code that
//! [`lexer::code_lines`] has stripped of comments and literals:
//!
//! * R4 `float-eq`: no `==`/`!=` against a float literal in any sim crate.
//!   `clippy::float_cmp` catches typed comparisons but exempts zero.
//! * R8 `no-hot-path-alloc`: no `Box<dyn Fn…>` in core, harvest, mac, net
//!   and sim.
//! * R9 `shard-isolation`: no static, thread-local, cell, atomic or
//!   `RwLock` anywhere in `crates/deploy/src/city/`.

use crate::{classify, lexer};

const SHARED_STATE: [&str; 7] = [
    "static",
    "thread_local",
    "Cell",
    "RefCell",
    "UnsafeCell",
    "RwLock",
    "Atomic",
];

/// R8: a boxed closure type, also behind leading auto-trait bounds or a
/// `std::ops::`/`core::ops::` path (`Box<dyn Send + std::ops::FnMut()>`).
fn boxed_fn(line: &str) -> bool {
    let squeezed: String = line.chars().filter(|x| !x.is_whitespace()).collect();
    squeezed.split("Box<dyn").skip(1).any(|mut rest| {
        while let Some(r) = ["Send+", "Sync+", "Unpin+"]
            .iter()
            .find_map(|bound| rest.strip_prefix(bound))
        {
            rest = r;
        }
        ["std::ops::", "core::ops::"]
            .iter()
            .find_map(|path| rest.strip_prefix(path))
            .unwrap_or(rest)
            .starts_with("Fn")
    })
}

/// R9: the first shared-state identifier on the line (lifetimes excluded).
fn shared_state(line: &str) -> Option<&str> {
    let mut rest = line;
    while let Some(start) = rest.find(|x: char| x.is_alphabetic() || x == '_') {
        let lifetime = rest[..start].ends_with('\'');
        let tail = &rest[start..];
        let end = tail
            .find(|x: char| !(x.is_alphanumeric() || x == '_'))
            .unwrap_or(tail.len());
        let id = &tail[..end];
        let hit = SHARED_STATE
            .iter()
            .any(|s| id == *s || (*s == "Atomic" && id.starts_with(s)));
        if hit && !lifetime {
            return Some(id);
        }
        rest = &tail[end..];
    }
    None
}

/// Findings in one file, as `path:line: rule`; `path` is relative to the
/// workspace root and decides which rules apply (none outside the library
/// code of a sim crate).
pub fn check(path: &str, src: &str) -> Vec<String> {
    let Some(ctx) = classify(path).filter(|c| c.is_library && c.is_sim) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (n, line) in lexer::code_lines(src) {
        let at = format!("{path}:{n}");
        let comparisons = lexer::comparisons(&line);
        if comparisons
            .iter()
            .any(|(l, r)| lexer::is_float(l) || lexer::is_float(r))
        {
            out.push(format!("{at}: R4 `==` against a float literal"));
        }
        if ctx.is_hot && boxed_fn(&line) {
            out.push(format!("{at}: R8 `Box<dyn Fn…>` in a hot crate"));
        }
        if let Some(id) = shared_state(&line).filter(|_| ctx.is_city) {
            out.push(format!("{at}: R9 `{id}` in the city runtime"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HOT_CRATES, SIM_CRATES};

    const CITY: &str = "crates/deploy/src/city/runtime.rs";

    #[test]
    fn r4_fires_on_float_literal_equality() {
        let src = "fn f(x: f64, n: u64) {\n    if x == 0.0 {}\n    if x != -1.5 {}\n    \
                   if 2.0 == x {}\n    if n == 0 {}\n}\n";
        let f = check("crates/net/src/a.rs", src);
        assert_eq!(
            f,
            (2..=4)
                .map(|n| format!("crates/net/src/a.rs:{n}: R4 `==` against a float literal"))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn r8_fires_on_boxed_handlers() {
        for bad in [
            "let h: Box<dyn FnMut(&mut W)> = mk();",
            "let g: Box<dyn Fn()> = mk();",
            "fire: Box < dyn  FnOnce(&mut World) >,",
            "handlers: Vec<Box<dyn Fn(u8) -> u8>>,",
            "let p: Box<dyn std::ops::Fn()> = mk();",
            "let c: Box<dyn core::ops::FnMut(u8)> = mk();",
            "let s: Box<dyn Send + FnMut()> = mk();",
        ] {
            assert!(boxed_fn(bad), "{bad}");
        }
        // Typed posting, `Box::new` and non-Fn trait objects are not
        // handler boxes.
        for good in [
            "q.post_at(t, ev); q.post_in(d, ev);",
            "let b = Box::new(3);",
            "let s: Box<dyn Sink> = mk();",
        ] {
            assert!(!boxed_fn(good), "{good}");
        }
    }

    /// Of the sim crates, deploy, rf and sensors build worlds or models once
    /// per experiment, not once per event.
    #[test]
    fn r8_is_exempt_in_cold_crates() {
        let src = "fn f() { let h: Box<dyn FnOnce()> = mk(); }";
        for krate in SIM_CRATES {
            let f = check(&format!("crates/{krate}/src/a.rs"), src);
            assert_eq!(f.len(), usize::from(HOT_CRATES.contains(&krate)), "{krate}");
        }
    }

    #[test]
    fn r9_fires_on_worker_shared_state() {
        let src = "use std::sync::Mutex;\n\
                   static mut EPOCHS: u64 = 0;\n\
                   thread_local! { static T: u8 = 0; }\n\
                   pub fn run(jobs: usize) {\n\
                     let table: Mutex<Vec<u64>> = Mutex::new(Vec::new());\n\
                     let tally = AtomicU64::new(0);\n\
                     std::thread::scope(|s| {\n\
                       s.spawn(|| table.lock());\n\
                     });\n\
                   }\n";
        let f = check(CITY, src);
        // `table.lock()` is clippy's: `Mutex::lock` is a disallowed method.
        assert_eq!(
            f,
            [
                format!("{CITY}:2: R9 `static` in the city runtime"),
                format!("{CITY}:3: R9 `thread_local` in the city runtime"),
                format!("{CITY}:6: R9 `AtomicU64` in the city runtime"),
            ]
        );
    }

    /// The workers go through the runtime's `lock()` helper and barriers
    /// only; the helper's own `m.lock()` is clippy's to see.
    #[test]
    fn r9_blesses_the_export_table_protocol() {
        let src = "use std::sync::{Barrier, Mutex, MutexGuard};\n\
                   fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap() }\n\
                   fn name(&self) -> &'static str { \"static RefCell\" }\n\
                   pub fn run(jobs: usize) {\n\
                     let table: Mutex<Vec<u64>> = Mutex::new(Vec::new());\n\
                     let barrier = Barrier::new(jobs);\n\
                     std::thread::scope(|s| {\n\
                       s.spawn(|| { lock(&table)[0] += 1; barrier.wait(); });\n\
                     });\n\
                   }\n";
        assert_eq!(check(CITY, src), Vec::<String>::new());
    }

    #[test]
    fn r9_flags_refcell_captures_and_is_city_scoped() {
        let src = "use std::cell::RefCell;\n\
                   pub fn run() {\n\
                     let flag: RefCell<bool> = RefCell::new(false);\n\
                     std::thread::scope(|s| {\n\
                       s.spawn(|| { let f = flag; });\n\
                     });\n\
                   }\n";
        assert_eq!(
            check(CITY, src),
            [
                format!("{CITY}:1: R9 `RefCell` in the city runtime"),
                format!("{CITY}:3: R9 `RefCell` in the city runtime"),
            ]
        );
        // Outside the city runtime the rule is silent.
        assert!(check("crates/deploy/src/home.rs", src).is_empty());
        assert!(check("crates/deploy/src/citybuild.rs", src).is_empty());
    }

    /// R4 holds in every sim crate, R8 in the hot ones, R9 in the city
    /// tree; bench, the fixture library, bins and test files are free.
    #[test]
    fn scope_respects_crates() {
        let src = "if x == 0.5 {}\nlet h: Box<dyn Fn()> = mk();\nstatic N: u64 = 0;\n";
        let rules = |path: &str| -> Vec<String> {
            let f = check(path, src);
            f.iter()
                .filter_map(|f| f.split(' ').nth(1))
                .map(String::from)
                .collect()
        };
        assert_eq!(rules(CITY), ["R4", "R9"]);
        assert_eq!(rules("crates/mac/src/world.rs"), ["R4", "R8"]);
        assert_eq!(rules("crates/rf/src/lib.rs"), ["R4"]);
        for free in [
            "crates/bench/src/runner.rs",
            "crates/lint/src/lib.rs",
            "crates/mac/src/bin/tool.rs",
            "crates/deploy/src/main.rs",
            "crates/deploy/tests/city.rs",
        ] {
            assert!(check(free, src).is_empty(), "{free}");
        }
    }

    #[test]
    fn cfg_not_test_is_still_checked() {
        let src = "#[cfg(not(test))]\nstatic N: AtomicU64 = AtomicU64::new(0);\n\
                   #[cfg(test)]\nstatic T: u8 = 0;\n";
        assert_eq!(
            check(CITY, src),
            [format!("{CITY}:2: R9 `static` in the city runtime")]
        );
    }
}
