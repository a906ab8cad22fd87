//! `fpna-obs` — observability for the FPNA simulator stack.
//!
//! Three pillars, all always-compiled and **off by default**, plus the
//! JSON module they and the rest of the workspace share:
//!
//! * [`counters`] — global event counters (heap push/pop, pool
//!   recycling, route lookups, wire bytes) behind a single
//!   `AtomicBool`. The disabled path is one predictable-branch load;
//!   callers on hot loops cache the flag once per run and flush local
//!   tallies at the end.
//! * [`trace`] — span/instant records on the **simulated** timeline,
//!   exported as Chrome trace-event JSON that Perfetto opens directly.
//!   Events buffer per thread and export in a canonical order, so the
//!   rendered trace is a pure function of `(seed, config)` regardless
//!   of worker-thread scheduling.
//! * [`profile`] — wall-clock phase statistics (scoped spans plus
//!   log2-bucketed histograms such as heap-pop time per offered-load
//!   level), aggregated into a JSON report under `target/obs/`.
//! * [`json`] — the workspace's one JSON reader/writer: a value model
//!   with deterministic key order, a depth-bounded parser, and the
//!   string escaper the streamed trace and profile exports use. Sweep
//!   specs, shard files, manifests and the bench baseline go through
//!   it.
//!
//! The cardinal rule: enabling any pillar must not perturb simulation
//! results. Nothing here feeds back into seeds, orderings, or event
//! timestamps; a property test in `fpna-collectives` holds the stack
//! to bitwise identity with observability on vs off.

pub mod counters;
pub mod json;
pub mod profile;
pub mod trace;
