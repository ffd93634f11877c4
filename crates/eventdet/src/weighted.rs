//! Observation construction with reliability weights — the paper's
//! future-work experiment made concrete.
//!
//! An event report either carries GPS (trust it fully) or does not — then
//! the only spatial attribute left is the author's *profile location*, and
//! the paper's whole point is that its trustworthiness varies by Top-k
//! group: a Top-1 user's profile is where they actually tweet from; a
//! None-group user's profile is somewhere they never tweet from. The
//! builder turns reports into [`Observation`]s accordingly.

use std::collections::HashMap;

use stir_core::{AnalysisResult, ReliabilityWeights, TopKGroup};
use stir_geoindex::Point;
use stir_geokr::{DistrictId, Gazetteer};

use crate::estimator::Observation;

/// A raw event report before weighting.
#[derive(Clone, Copy, Debug)]
pub struct RawReport {
    /// Reporting user.
    pub user: u64,
    /// Report time (window seconds).
    pub timestamp: u64,
    /// GPS fix, when the client attached one.
    pub gps: Option<Point>,
}

/// Builds weighted observations from raw reports.
pub struct ObservationBuilder<'g> {
    gazetteer: &'g Gazetteer,
    weights: ReliabilityWeights,
    groups: HashMap<u64, TopKGroup>,
    profile_district: HashMap<u64, DistrictId>,
    /// Weight for profile-derived observations of users outside the
    /// analysed cohort (no grouping information at all).
    pub unknown_user_weight: f64,
}

impl<'g> ObservationBuilder<'g> {
    /// Builds from a completed reliability analysis. `floor` is the minimum
    /// group weight (see [`ReliabilityWeights::from_cohort`]).
    pub fn from_analysis(gazetteer: &'g Gazetteer, analysis: &AnalysisResult, floor: f64) -> Self {
        let weights = ReliabilityWeights::from_cohort(&analysis.users, floor);
        let mut groups = HashMap::with_capacity(analysis.users.len());
        let mut profile_district = HashMap::with_capacity(analysis.kept_profiles.len());
        // Every well-defined profile is usable as a (possibly unreliable)
        // position source — that is how Twitris/Toretter consumed profiles.
        for (&user, (state, county)) in analysis.kept_profiles.iter() {
            if let Some(id) = resolve_profile(gazetteer, state, county) {
                profile_district.insert(user, id);
            }
        }
        for u in &analysis.users {
            groups.insert(u.user, u.group());
            if let Some(id) = resolve_profile(gazetteer, &u.state_profile, &u.county_profile) {
                profile_district.insert(u.user, id);
            }
        }
        ObservationBuilder {
            gazetteer,
            weights,
            groups,
            profile_district,
            unknown_user_weight: floor,
        }
    }

    /// Builds with explicit weights and per-user metadata (tests,
    /// ablations).
    pub fn with_weights(
        gazetteer: &'g Gazetteer,
        weights: ReliabilityWeights,
        groups: HashMap<u64, TopKGroup>,
        profile_district: HashMap<u64, DistrictId>,
    ) -> Self {
        ObservationBuilder {
            gazetteer,
            weights,
            groups,
            profile_district,
            unknown_user_weight: 0.05,
        }
    }

    /// Replaces the weight profile (e.g. [`ReliabilityWeights::uniform`]
    /// for the unweighted baseline) keeping the user metadata.
    pub fn with_weight_profile(mut self, weights: ReliabilityWeights) -> Self {
        self.weights = weights;
        self
    }

    /// The weight profile currently in use.
    pub fn weights(&self) -> &ReliabilityWeights {
        &self.weights
    }

    /// Converts raw reports to observations:
    ///
    /// * GPS report → the fix at weight 1.0.
    /// * No GPS, known profile district → the district centroid at the
    ///   user's group weight (or `unknown_user_weight` without a group).
    /// * No GPS, no profile district → dropped.
    pub fn build(&self, reports: &[RawReport]) -> Vec<Observation> {
        let mut out = Vec::with_capacity(reports.len());
        for r in reports {
            if let Some(p) = r.gps {
                out.push(Observation {
                    point: p,
                    weight: 1.0,
                    timestamp: r.timestamp,
                });
                continue;
            }
            let Some(&district) = self.profile_district.get(&r.user) else {
                continue;
            };
            let weight = match self.groups.get(&r.user) {
                Some(&g) => self.weights.weight(g),
                None => self.unknown_user_weight,
            };
            if weight <= 0.0 {
                continue;
            }
            out.push(Observation {
                point: self.gazetteer.district(district).centroid,
                weight,
                timestamp: r.timestamp,
            });
        }
        out
    }
}

fn resolve_profile(gazetteer: &Gazetteer, state: &str, county: &str) -> Option<DistrictId> {
    gazetteer
        .find_by_name_en(county)
        .iter()
        .copied()
        .find(|&id| gazetteer.district(id).province.name_en() == state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaz() -> &'static Gazetteer {
        Box::leak(Box::new(Gazetteer::load()))
    }

    fn builder(g: &'static Gazetteer) -> ObservationBuilder<'static> {
        let yangcheon = g.find_by_name_en("Yangcheon-gu")[0];
        let gangnam = g.find_by_name_en("Gangnam-gu")[0];
        let mut groups = HashMap::new();
        groups.insert(1, TopKGroup::Top1);
        groups.insert(2, TopKGroup::None);
        let mut profile = HashMap::new();
        profile.insert(1, yangcheon);
        profile.insert(2, gangnam);
        let weights = ReliabilityWeights::fixed([0.8, 0.5, 0.3, 0.2, 0.15, 0.1, 0.02]);
        ObservationBuilder::with_weights(g, weights, groups, profile)
    }

    #[test]
    fn gps_reports_are_full_weight() {
        let g = gaz();
        let b = builder(g);
        let obs = b.build(&[RawReport {
            user: 1,
            timestamp: 10,
            gps: Some(Point::new(37.5, 127.0)),
        }]);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].weight, 1.0);
    }

    #[test]
    fn profile_reports_weighted_by_group() {
        let g = gaz();
        let b = builder(g);
        let obs = b.build(&[
            RawReport {
                user: 1,
                timestamp: 0,
                gps: None,
            }, // Top-1 → 0.8
            RawReport {
                user: 2,
                timestamp: 0,
                gps: None,
            }, // None → 0.02
        ]);
        assert_eq!(obs.len(), 2);
        assert!((obs[0].weight - 0.8).abs() < 1e-12);
        assert!((obs[1].weight - 0.02).abs() < 1e-12);
        // Positions are the profile centroids.
        let yangcheon = g.find_by_name_en("Yangcheon-gu")[0];
        assert_eq!(obs[0].point, g.district(yangcheon).centroid);
    }

    #[test]
    fn unknown_users_without_gps_use_default_or_drop() {
        let g = gaz();
        let b = builder(g);
        // User 99 has no profile district recorded → dropped.
        let obs = b.build(&[RawReport {
            user: 99,
            timestamp: 0,
            gps: None,
        }]);
        assert!(obs.is_empty());
    }

    #[test]
    fn uniform_profile_restores_unweighted_behaviour() {
        let g = gaz();
        let b = builder(g).with_weight_profile(ReliabilityWeights::uniform());
        let obs = b.build(&[RawReport {
            user: 2,
            timestamp: 0,
            gps: None,
        }]);
        assert_eq!(obs[0].weight, 1.0);
    }
}
