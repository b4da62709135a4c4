//! The benchmark's only wall-clock read. The simulator runs on simulated
//! time; host time is what this benchmark measures, so it is read here
//! and nowhere else.

use std::time::Instant;

/// The current host instant.
// clippy.toml bans wall-clock reads across the workspace; measuring host
// time is this package's purpose.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // simlint::allow(no-wall-clock): the host-time benchmark's one clock read
    Instant::now()
}

/// Host seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}
