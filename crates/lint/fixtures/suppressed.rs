// Fixture: every violation here carries a justified allow — zero findings.
use std::collections::HashMap; // powifi-lint: allow(R1) — fixture exercising same-line allow

// powifi-lint: allow(unwrap) — fixture exercising slug + standalone comment
// spanning multiple lines before the guarded statement.
pub fn head(xs: &[u32]) -> u32 {
    *xs.first().unwrap() // powifi-lint: allow(R3) — fixture
}

pub fn exact(x: f64) -> bool {
    // powifi-lint: allow(float-eq) — fixture: sentinel compare
    x == -1.0
}

pub fn audit(world: &mut World) {
    // powifi-lint: allow(R8) — fixture: one hook per run, cold path
    let hook: Box<dyn FnMut(&mut World)> = make_hook();
    world.install(hook);
}

pub fn replay_probe(rng: &mut SimRng) -> SimRng {
    // powifi-lint: allow(rng-stream-discipline) — fixture: deliberate twin
    // stream for a divergence probe
    rng.clone()
}

pub fn dispatch_legacy(w: &mut World, ev: MacEvent) {
    match ev {
        MacEvent::ArbFire(m) => fire(w, m),
        // powifi-lint: allow(R11) — fixture: legacy kinds routed elsewhere
        _ => {}
    }
}

pub fn peek(p: *const u8) -> u8 {
    // powifi-lint: allow(unsafe-in-sim) — fixture: p is checked non-null
    unsafe { core::ptr::read(p) }
}
