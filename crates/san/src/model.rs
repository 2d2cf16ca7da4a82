//! The SAN formalism: places, markings, activities.

use std::fmt;

use crate::gate::{Effect, Predicate};

/// Index of a place in a [`SanModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlaceId(pub(crate) usize);

/// Index of an activity in a [`SanModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActivityId(pub(crate) usize);

/// A marking: the token count of every place.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Marking(Vec<u32>);

impl Marking {
    /// Token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` belongs to a different model.
    #[must_use]
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.0[place.0]
    }

    /// Sets the token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` belongs to a different model.
    pub fn set_tokens(&mut self, place: PlaceId, tokens: u32) {
        self.0[place.0] = tokens;
    }

    /// Adds tokens to `place`.
    pub fn add_tokens(&mut self, place: PlaceId, tokens: u32) {
        self.0[place.0] += tokens;
    }

    /// Removes tokens from `place`, saturating at zero.
    pub fn remove_tokens(&mut self, place: PlaceId, tokens: u32) {
        self.0[place.0] = self.0[place.0].saturating_sub(tokens);
    }
}

/// The firing-time distribution of a timed activity.
pub enum Delay {
    /// Exponential with a marking-dependent rate. A rate of zero (or less)
    /// in some marking disables the activity there.
    Exponential(Box<dyn Fn(&Marking) -> f64 + Send + Sync>),
    /// A fixed delay (UltraSAN's deterministic activity). Supported by the
    /// simulator; the CTMC path rejects it (see [`crate::phase_type`] for
    /// the Erlang workaround).
    Deterministic(f64),
}

impl Delay {
    /// An exponential delay with constant rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    #[must_use]
    pub fn exponential_rate(rate: f64) -> Delay {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Delay::Exponential(Box::new(move |_| rate))
    }

    /// An exponential delay whose rate depends on the marking.
    #[must_use]
    pub fn exponential_with(rate: impl Fn(&Marking) -> f64 + Send + Sync + 'static) -> Delay {
        Delay::Exponential(Box::new(rate))
    }

    /// A deterministic delay.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not strictly positive and finite.
    #[must_use]
    pub fn deterministic(time: f64) -> Delay {
        assert!(time.is_finite() && time > 0.0, "time must be positive");
        Delay::Deterministic(time)
    }
}

impl fmt::Debug for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Delay::Exponential(_) => write!(f, "Exponential(<rate fn>)"),
            Delay::Deterministic(t) => write!(f, "Deterministic({t})"),
        }
    }
}

pub(crate) struct Activity {
    pub(crate) name: String,
    pub(crate) delay: Delay,
    pub(crate) enabled: Predicate,
    pub(crate) effect: Effect,
}

impl fmt::Debug for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Activity")
            .field("name", &self.name)
            .field("delay", &self.delay)
            .finish()
    }
}

/// A complete stochastic activity network.
#[derive(Debug)]
pub struct SanModel {
    place_names: Vec<String>,
    initial: Marking,
    pub(crate) activities: Vec<Activity>,
}

impl SanModel {
    /// The initial marking.
    #[must_use]
    pub fn initial_marking(&self) -> Marking {
        self.initial.clone()
    }

    /// Name of a place.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn place_name(&self, place: PlaceId) -> &str {
        &self.place_names[place.0]
    }

    /// Name of an activity.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn activity_name(&self, activity: ActivityId) -> &str {
        &self.activities[activity.0].name
    }

    /// Whether `activity` is enabled in `marking` (predicate holds and, for
    /// exponential delays, the rate is positive).
    #[must_use]
    pub fn is_enabled(&self, activity: ActivityId, marking: &Marking) -> bool {
        let a = &self.activities[activity.0];
        if !(a.enabled)(marking) {
            return false;
        }
        match &a.delay {
            Delay::Exponential(rate) => rate(marking) > 0.0,
            _ => true,
        }
    }

    /// Ids of all activities enabled in `marking`.
    #[must_use]
    pub fn enabled_activities(&self, marking: &Marking) -> Vec<ActivityId> {
        (0..self.activities.len())
            .map(ActivityId)
            .filter(|&a| self.is_enabled(a, marking))
            .collect()
    }

    /// Applies `activity`'s completion effect to `marking`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn fire(&self, activity: ActivityId, marking: &mut Marking) {
        (self.activities[activity.0].effect)(marking);
    }
}

/// Incremental construction of a [`SanModel`].
///
/// See the [crate-level example](crate) for usage.
#[derive(Default)]
pub struct SanBuilder {
    place_names: Vec<String>,
    initial: Vec<u32>,
    activities: Vec<Activity>,
}

impl fmt::Debug for SanBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SanBuilder")
            .field("places", &self.place_names.len())
            .field("activities", &self.activities.len())
            .finish()
    }
}

impl SanBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        SanBuilder::default()
    }

    /// Adds a place with an initial token count.
    pub fn add_place(&mut self, name: impl Into<String>, initial: u32) -> PlaceId {
        self.place_names.push(name.into());
        self.initial.push(initial);
        PlaceId(self.place_names.len() - 1)
    }

    /// Adds a timed activity with its enabling predicate and completion
    /// effect (input/output gates in SAN terminology).
    pub fn add_activity(
        &mut self,
        name: impl Into<String>,
        delay: Delay,
        enabled: impl Fn(&Marking) -> bool + Send + Sync + 'static,
        effect: impl Fn(&mut Marking) + Send + Sync + 'static,
    ) -> ActivityId {
        self.activities.push(Activity {
            name: name.into(),
            delay,
            enabled: Box::new(enabled),
            effect: Box::new(effect),
        });
        ActivityId(self.activities.len() - 1)
    }

    /// Finalizes the model.
    ///
    /// # Panics
    ///
    /// Panics if the model has no places or no activities.
    #[must_use]
    pub fn build(self) -> SanModel {
        assert!(!self.place_names.is_empty(), "model needs places");
        assert!(!self.activities.is_empty(), "model needs activities");
        SanModel {
            place_names: self.place_names,
            initial: Marking(self.initial),
            activities: self.activities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (SanModel, PlaceId) {
        let mut b = SanBuilder::new();
        let p = b.add_place("tokens", 2);
        b.add_activity(
            "drain",
            Delay::exponential_with(move |m| f64::from(m.tokens(p))),
            move |m| m.tokens(p) > 0,
            move |m| m.remove_tokens(p, 1),
        );
        (b.build(), p)
    }

    #[test]
    fn marking_accessors() {
        let (model, p) = toy();
        let mut m = model.initial_marking();
        assert_eq!(m.tokens(p), 2);
        m.add_tokens(p, 3);
        assert_eq!(m.tokens(p), 5);
        m.remove_tokens(p, 10);
        assert_eq!(m.tokens(p), 0, "removal saturates");
        m.set_tokens(p, 7);
    }

    #[test]
    fn enabled_follows_predicate_and_rate() {
        let (model, p) = toy();
        let mut m = model.initial_marking();
        assert_eq!(model.enabled_activities(&m).len(), 1);
        m.set_tokens(p, 0);
        assert!(model.enabled_activities(&m).is_empty());
    }

    #[test]
    fn zero_rate_disables_exponential() {
        let mut b = SanBuilder::new();
        let p = b.add_place("p", 0);
        let a = b.add_activity(
            "a",
            Delay::exponential_with(move |m| f64::from(m.tokens(p))),
            |_| true,
            |_| {},
        );
        let model = b.build();
        assert!(!model.is_enabled(a, &model.initial_marking()));
    }

    #[test]
    fn fire_applies_effect() {
        let (model, p) = toy();
        let mut m = model.initial_marking();
        model.fire(ActivityId(0), &mut m);
        assert_eq!(m.tokens(p), 1);
    }

    #[test]
    fn names_are_kept() {
        let (model, _) = toy();
        assert_eq!(model.place_name(PlaceId(0)), "tokens");
        assert_eq!(model.activity_name(ActivityId(0)), "drain");
    }

    #[test]
    fn delay_constructors_validate() {
        assert!(std::panic::catch_unwind(|| Delay::exponential_rate(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| Delay::deterministic(-1.0)).is_err());
    }

    #[test]
    fn debug_formats() {
        let (model, _) = toy();
        assert!(format!("{model:?}").contains("SanModel"));
        assert!(format!("{:?}", Delay::deterministic(3.0)).contains("Deterministic"));
    }
}
