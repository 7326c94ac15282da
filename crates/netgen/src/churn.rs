//! Seed-deterministic population churn for dynamic-network experiments.
//!
//! A [`ChurnProcess`] owns the stochastic state of one trial's station
//! lifecycle and emits one [`ChurnDelta`] per epoch:
//!
//! * **departures** — every live station dies independently with
//!   probability `1 / mean_lifetime` per epoch (geometric lifetimes, the
//!   memoryless "crash at any moment" regime);
//! * **arrivals** — a Poisson-distributed number of stations join per
//!   epoch (`arrival_rate` expected), each at a uniform position of the
//!   process's [`Bounds`] box. Arrivals first *rejoin* dead stations in
//!   ascending index order (the station returns at a fresh random
//!   position — a teleporting rejoin — with its protocol memory intact),
//!   and only spawn brand-new indices once no tombstones are left, so the
//!   index space grows only when the population genuinely exceeds every
//!   previous high-water mark.
//!
//! Like every generator in this crate, the schedule is **deterministic
//! given a seed**: the whole state lives in this struct, so equal seeds
//! replay equal churn schedules — the seeded churn schedule is a
//! first-class, replayable input of a scenario. `step_into` fills a
//! caller-owned delta, so steady-state epochs perform no heap
//! allocations once the buffers reach their high-water marks.
//!
//! # Example
//!
//! ```
//! use sinr_netgen::churn::{ChurnModel, ChurnProcess};
//! use sinr_netgen::uniform;
//! use sinr_phy::ChurnDelta;
//!
//! let pts = uniform::square(50, 4.0, 7);
//! let model = ChurnModel { arrival_rate: 1.5, mean_lifetime: 10.0 };
//! let mut churn = ChurnProcess::over_deployment(model, &pts, 42);
//! let mut alive = vec![true; 50];
//! let mut delta = ChurnDelta::new();
//! churn.step_into(&alive, &mut delta);
//! for &k in &delta.kills {
//!     alive[k] = false; // mirror what `Network::apply_churn` would do
//! }
//! assert!(delta.kills.iter().all(|&k| k < 50));
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sinr_geometry::MetricPoint;
use sinr_phy::ChurnDelta;

use crate::mobility::Bounds;

/// Parameters of the per-epoch station lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Expected number of arrivals per epoch (Poisson-distributed; `0`
    /// disables arrivals).
    pub arrival_rate: f64,
    /// Expected station lifetime in epochs: each live station dies with
    /// probability `1 / mean_lifetime` per epoch. Must be at least 1 — a
    /// zero (or sub-epoch) lifetime would kill stations faster than
    /// epochs resolve.
    pub mean_lifetime: f64,
}

impl ChurnModel {
    /// Checks the model parameters, returning a description of the first
    /// problem: a negative or non-finite arrival rate, or a non-finite or
    /// sub-1 (including zero) mean lifetime. Builder surfaces call this
    /// to fail fast at `Scenario::build`; [`ChurnProcess::new`] panics on
    /// the same conditions.
    ///
    /// # Errors
    ///
    /// The human-readable description of the invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.arrival_rate.is_finite() && self.arrival_rate >= 0.0) {
            return Err(format!(
                "churn arrival rate must be finite and non-negative, got {}",
                self.arrival_rate
            ));
        }
        if !(self.mean_lifetime.is_finite() && self.mean_lifetime >= 1.0) {
            return Err(format!(
                "churn mean lifetime must be at least one epoch, got {}",
                self.mean_lifetime
            ));
        }
        Ok(())
    }
}

/// Per-trial churn state: one epoch of departures and arrivals per
/// [`ChurnProcess::step_into`] call.
///
/// The schedule is a pure function of `(model, bounds, seed, liveness
/// history)` — and the liveness history is itself determined by the
/// schedule, so one seed pins the whole lifecycle.
#[derive(Debug, Clone)]
pub struct ChurnProcess<P: MetricPoint> {
    model: ChurnModel,
    bounds: Bounds,
    rng: SmallRng,
    /// A station arrivals must never kill and never rejoin-relocate (a
    /// broadcast source, typically). `usize::MAX` protects nobody.
    protected: usize,
    /// Dead-index scratch, reused across epochs.
    dead: Vec<usize>,
    _point: std::marker::PhantomData<fn() -> P>,
}

impl<P: MetricPoint> ChurnProcess<P> {
    /// Churn state over an explicit arrival domain.
    ///
    /// # Panics
    ///
    /// Panics on invalid model parameters, or when the box dimensionality
    /// differs from the point type's.
    pub fn new(model: ChurnModel, bounds: Bounds, seed: u64) -> Self {
        if let Err(e) = model.validate() {
            panic!("{e}");
        }
        assert_eq!(
            bounds.axes(),
            P::AXES,
            "bounds dimensionality must match the point type"
        );
        ChurnProcess {
            model,
            bounds,
            rng: SmallRng::seed_from_u64(seed),
            protected: usize::MAX,
            dead: Vec::new(),
            _point: std::marker::PhantomData,
        }
    }

    /// Churn state whose arrivals land in the bounding box of the initial
    /// deployment — the default domain of generated topologies.
    ///
    /// # Panics
    ///
    /// As [`ChurnProcess::new`]; additionally panics on an empty
    /// deployment.
    pub fn over_deployment(model: ChurnModel, points: &[P], seed: u64) -> Self {
        ChurnProcess::new(model, Bounds::of_points(points), seed)
    }

    /// Protects `station` from ever being killed (a broadcast source
    /// whose death would make the dissemination goal undefined).
    #[must_use]
    pub fn protect(mut self, station: usize) -> Self {
        self.protected = station;
        self
    }

    /// The model in effect.
    pub fn model(&self) -> ChurnModel {
        self.model
    }

    /// The arrival domain.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Generates one epoch of churn into `delta` (cleared first):
    /// departures in ascending station order, then arrivals — rejoins of
    /// the lowest dead indices first, spawns once no tombstones remain.
    /// Stations that die this epoch are not rejoin candidates in the same
    /// epoch (they just left). Performs no heap allocations once the
    /// delta and the internal scratch reach their high-water marks.
    ///
    /// `alive` is the network's current liveness (one flag per station,
    /// [`sinr_phy::Network::alive`]).
    pub fn step_into(&mut self, alive: &[bool], delta: &mut ChurnDelta<P>) {
        delta.clear();
        // Tombstones from *previous* epochs are the rejoin pool. The
        // protected station is excluded: it can only be dead if an
        // external force (a fault-injecting adversary) took it down, and
        // a rejoin here would teleport it to a random position —
        // relocating a broadcast source mid-run would silently change
        // the dissemination goal.
        self.dead.clear();
        self.dead.extend(
            alive
                .iter()
                .enumerate()
                .filter(|&(i, &a)| !a && i != self.protected)
                .map(|(i, _)| i),
        );
        // Departures: geometric lifetime, visited in index order so the
        // RNG stream — and therefore the schedule — is deterministic.
        let p_die = 1.0 / self.model.mean_lifetime;
        for (i, &a) in alive.iter().enumerate() {
            if !a || i == self.protected {
                continue;
            }
            if self.rng.gen_range(0.0..1.0) < p_die {
                delta.kills.push(i);
            }
        }
        // Arrivals: Poisson count, then rejoin-before-spawn placement at
        // uniform positions of the domain.
        let arrivals = poisson(&mut self.rng, self.model.arrival_rate);
        let mut next_dead = 0usize;
        for _ in 0..arrivals {
            let pos = P::from_coords(self.sample());
            if next_dead < self.dead.len() {
                delta.rejoins.push((self.dead[next_dead], pos));
                next_dead += 1;
            } else {
                delta.spawns.push(pos);
            }
        }
    }

    /// A uniform point of the arrival domain, in fixed-width coordinates
    /// (the same draw [`crate::mobility::Bounds`] uses for waypoints).
    fn sample(&mut self) -> [f64; 3] {
        self.bounds.sample(&mut self.rng)
    }
}

/// A Poisson(`lambda`) draw — exact, allocation-free, and deterministic
/// on the in-tree RNG, valid for **any** finite non-negative rate.
///
/// Knuth's multiplicative method compares a running product of uniforms
/// against `exp(-lambda)`, which underflows to `0.0` for `lambda` ≳ 709
/// and would silently cap the count near ~750. Poisson variables are
/// additive, so large rates are split into chunks small enough for the
/// method and the independent draws summed. Chunks of ≤ 256 keep
/// `exp(-chunk)` comfortably inside the normal range; the cost stays
/// `O(lambda)` uniform draws either way.
fn poisson(rng: &mut SmallRng, lambda: f64) -> u64 {
    const CHUNK: f64 = 256.0;
    let mut total = 0u64;
    let mut remaining = lambda;
    while remaining > CHUNK {
        total += poisson_chunk(rng, CHUNK);
        remaining -= CHUNK;
    }
    total + poisson_chunk(rng, remaining)
}

/// Knuth's method for one in-range chunk (`lambda` ≤ 256).
fn poisson_chunk(rng: &mut SmallRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform;
    use sinr_geometry::Point2;

    fn model() -> ChurnModel {
        ChurnModel {
            arrival_rate: 2.0,
            mean_lifetime: 5.0,
        }
    }

    /// Replays a whole schedule: steps the process `epochs` times,
    /// folding each delta into the liveness flags the way
    /// `Network::apply_churn` would.
    fn schedule(seed: u64, epochs: usize) -> Vec<ChurnDelta<Point2>> {
        let pts = uniform::square(40, 3.0, 9);
        let mut proc = ChurnProcess::over_deployment(model(), &pts, seed);
        let mut alive = vec![true; 40];
        let mut out = Vec::new();
        for _ in 0..epochs {
            let mut delta = ChurnDelta::new();
            proc.step_into(&alive, &mut delta);
            for &k in &delta.kills {
                alive[k] = false;
            }
            for &(r, _) in &delta.rejoins {
                alive[r] = true;
            }
            alive.resize(alive.len() + delta.spawns.len(), true);
            out.push(delta);
        }
        out
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        assert_eq!(schedule(5, 12), schedule(5, 12));
        assert_ne!(schedule(5, 12), schedule(6, 12));
    }

    #[test]
    fn deltas_are_well_formed_against_liveness() {
        let pts = uniform::square(30, 3.0, 3);
        let mut proc = ChurnProcess::over_deployment(model(), &pts, 11);
        let mut alive = vec![true; 30];
        let mut delta = ChurnDelta::new();
        for epoch in 0..30 {
            proc.step_into(&alive, &mut delta);
            for &k in &delta.kills {
                assert!(alive[k], "epoch {epoch}: kill of dead station {k}");
                alive[k] = false;
            }
            for &(r, p) in &delta.rejoins {
                assert!(!alive[r], "epoch {epoch}: rejoin of live station {r}");
                assert!((0.0..=3.0).contains(&p.x) && (0.0..=3.0).contains(&p.y));
                alive[r] = true;
            }
            for p in &delta.spawns {
                assert!((0.0..=3.0).contains(&p.x) && (0.0..=3.0).contains(&p.y));
                alive.push(true);
            }
        }
        let live = alive.iter().filter(|&&a| a).count();
        assert!(live > 0, "the population should not die out at these rates");
    }

    #[test]
    fn rejoins_fill_tombstones_before_spawns_grow_the_index_space() {
        // High arrival rate, long lifetimes: tombstones refill quickly.
        let pts = uniform::square(10, 2.0, 1);
        let mut proc = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 4.0,
                mean_lifetime: 3.0,
            },
            &pts,
            2,
        );
        let mut alive = vec![true; 10];
        let mut delta = ChurnDelta::new();
        let mut saw_rejoin = false;
        for _ in 0..40 {
            proc.step_into(&alive, &mut delta);
            if !delta.spawns.is_empty() {
                // Spawns only happen when every pre-epoch tombstone was
                // refilled by a rejoin first.
                let dead_before: usize = alive.iter().filter(|&&a| !a).count();
                assert_eq!(delta.rejoins.len(), dead_before, "spawn with free slots");
            }
            saw_rejoin |= !delta.rejoins.is_empty();
            for &k in &delta.kills {
                alive[k] = false;
            }
            for &(r, _) in &delta.rejoins {
                alive[r] = true;
            }
            alive.resize(alive.len() + delta.spawns.len(), true);
        }
        assert!(saw_rejoin, "these rates must exercise the rejoin path");
    }

    #[test]
    fn protected_station_never_dies() {
        let pts = uniform::square(12, 2.0, 4);
        let mut proc = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 0.0,
                mean_lifetime: 1.0, // everyone dies every epoch…
            },
            &pts,
            7,
        )
        .protect(3);
        let mut alive = vec![true; 12];
        let mut delta = ChurnDelta::new();
        proc.step_into(&alive, &mut delta);
        assert!(!delta.kills.contains(&3), "…except the protected station");
        assert_eq!(delta.kills.len(), 11);
        for &k in &delta.kills {
            alive[k] = false;
        }
        proc.step_into(&alive, &mut delta);
        assert!(delta.kills.is_empty(), "only the protected station lives");
    }

    #[test]
    fn protected_station_is_never_rejoin_relocated() {
        // A dead *protected* station (killed by an external adversary,
        // not by this process) must not be handed out as a rejoin slot —
        // that would teleport a broadcast source to a random position.
        let pts = uniform::square(6, 2.0, 4);
        let mut proc = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 8.0, // plenty of arrivals every epoch
                mean_lifetime: 1e18,
            },
            &pts,
            9,
        )
        .protect(2);
        let mut alive = vec![true; 6];
        alive[2] = false; // adversary-induced source death
        alive[4] = false;
        let mut delta = ChurnDelta::new();
        proc.step_into(&alive, &mut delta);
        assert!(
            delta.rejoins.iter().all(|&(r, _)| r != 2),
            "protected tombstone handed out as a rejoin slot"
        );
        assert!(
            delta.rejoins.iter().any(|&(r, _)| r == 4),
            "unprotected tombstones still rejoin"
        );
    }

    #[test]
    fn kill_everything_schedule_is_survivable() {
        // The degenerate adversarial input: lifetime 1.0 and no
        // protection kills the whole population in one epoch; stepping
        // the process over an all-dead population must stay well-formed
        // (no kills of dead stations, rejoins only of tombstones) rather
        // than panic mid-run.
        let pts = uniform::square(8, 2.0, 6);
        let mut proc = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 3.0,
                mean_lifetime: 1.0,
            },
            &pts,
            1,
        );
        let mut alive = vec![true; 8];
        let mut delta = ChurnDelta::new();
        proc.step_into(&alive, &mut delta);
        assert_eq!(delta.kills.len(), 8, "everyone dies at lifetime 1");
        for &k in &delta.kills {
            alive[k] = false;
        }
        for _ in 0..10 {
            proc.step_into(&alive, &mut delta);
            for &k in &delta.kills {
                assert!(alive[k]);
                alive[k] = false;
            }
            for &(r, _) in &delta.rejoins {
                assert!(!alive[r]);
                alive[r] = true;
            }
            alive.resize(alive.len() + delta.spawns.len(), true);
        }
    }

    #[test]
    fn zero_area_bounds_box_arrivals_are_well_defined() {
        // A degenerate deployment where every station sits at one point:
        // the arrival domain collapses to a zero-area box. `Bounds::
        // sample` draws from inclusive ranges, so arrivals land exactly
        // on the point instead of panicking on an empty range.
        let pts = vec![Point2::new(1.5, 2.5); 4];
        let mut proc = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 5.0,
                mean_lifetime: 2.0,
            },
            &pts,
            3,
        );
        let alive = vec![true; 4];
        let mut delta = ChurnDelta::new();
        for _ in 0..5 {
            proc.step_into(&alive, &mut delta);
            for &(_, p) in &delta.rejoins {
                assert_eq!(p, Point2::new(1.5, 2.5));
            }
            for p in &delta.spawns {
                assert_eq!(*p, Point2::new(1.5, 2.5));
            }
        }
    }

    #[test]
    fn zero_rates_freeze_the_population() {
        let pts = uniform::square(20, 2.0, 8);
        // mean_lifetime can't be infinite-proof here, but a huge lifetime
        // with zero arrivals must (almost) always produce empty deltas;
        // make it deterministic by checking many epochs of rate 0 only.
        let mut proc = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 0.0,
                mean_lifetime: 1e18,
            },
            &pts,
            5,
        );
        let alive = vec![true; 20];
        let mut delta = ChurnDelta::new();
        for _ in 0..50 {
            proc.step_into(&alive, &mut delta);
            assert!(delta.is_empty());
        }
    }

    #[test]
    fn poisson_mean_is_close_to_lambda() {
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 20_000;
        let total: u64 = (0..trials).map(|_| poisson(&mut rng, 2.5)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean = {mean}");
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn poisson_survives_rates_beyond_exp_underflow() {
        // exp(-lambda) underflows to 0 above lambda ≈ 709; the chunked
        // draw must keep the mean, not cap near ~750.
        let mut rng = SmallRng::seed_from_u64(5);
        let lambda = 5_000.0;
        let trials = 60;
        let total: u64 = (0..trials).map(|_| poisson(&mut rng, lambda)).sum();
        let mean = total as f64 / trials as f64;
        assert!(
            (mean - lambda).abs() < lambda * 0.02,
            "mean = {mean} for lambda = {lambda}"
        );
    }

    #[test]
    fn validate_reports_the_bad_parameter() {
        assert!(model().validate().is_ok());
        let err = ChurnModel {
            arrival_rate: -1.0,
            mean_lifetime: 5.0,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("arrival rate"), "{err}");
        let err = ChurnModel {
            arrival_rate: 1.0,
            mean_lifetime: 0.0,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("lifetime"), "{err}");
        let err = ChurnModel {
            arrival_rate: f64::NAN,
            mean_lifetime: 5.0,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("arrival rate"), "{err}");
    }

    #[test]
    #[should_panic]
    fn zero_lifetime_rejected_at_construction() {
        let pts = vec![Point2::origin(), Point2::new(1.0, 1.0)];
        let _ = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 1.0,
                mean_lifetime: 0.0,
            },
            &pts,
            0,
        );
    }
}
