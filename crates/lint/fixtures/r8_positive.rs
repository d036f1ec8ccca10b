// Fixture: R8 must fire — boxed handlers on the hot path. Every event that
// carries one of these heap-allocates its handler; under saturation that is
// one malloc per frame, per retry, per tick.
pub type Callback = Box<dyn FnMut(&mut World)>;

pub struct Timer {
    pub at: SimTime,
    pub fire: Box<dyn FnOnce(&mut World, &mut Queue)>,
}
