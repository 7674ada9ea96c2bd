//! Canonical domain model.
//!
//! A single source of truth for the synthesized World Cup data. The three
//! benchmark data models (v1, v2, v3) are *views* of this model produced
//! by the ETL in [`mod@crate::load`]; all three therefore contain the same
//! information — the property that makes FootballDB the first
//! multi-schema Text-to-SQL benchmark (Table 8, "Multi-Schema").

use crate::schema::DataModel;
use sqlengine::Database;
use std::fmt;
use std::sync::OnceLock;

/// Knockout/group rounds a match can belong to.
pub const ROUNDS: [&str; 7] = [
    "Group Stage",
    "Round of 16",
    "Quarter-final",
    "Semi-final",
    "Third-place play-off",
    "Final",
    "First Round",
];

/// A national team.
#[derive(Debug, Clone)]
pub struct NationalTeam {
    pub team_id: i64,
    pub teamname: String,
    /// Three-letter code derived from the name.
    pub team_code: String,
    pub confederation: String,
    pub founded_year: i64,
    pub fifa_ranking: i64,
    pub first_appearance_year: i64,
    /// Informal name used by v3's NL-alignment columns.
    pub nickname: String,
}

/// A World Cup edition.
#[derive(Debug, Clone)]
pub struct WorldCup {
    pub world_cup_id: i64,
    pub year: i64,
    pub host_country: String,
    pub start_date: String,
    pub end_date: String,
    pub num_teams: i64,
    pub total_attendance: i64,
    pub matches_played: i64,
    pub goals_scored: i64,
    /// Final standings, as team ids.
    pub winner: i64,
    pub runner_up: i64,
    pub third: i64,
    pub fourth: i64,
    /// All participating team ids (includes the top four).
    pub participants: Vec<i64>,
}

/// A stadium.
#[derive(Debug, Clone)]
pub struct Stadium {
    pub stadium_id: i64,
    pub name: String,
    pub city: String,
    pub country: String,
    pub capacity: i64,
    pub opened_year: i64,
}

/// One match.
#[derive(Debug, Clone)]
pub struct Match {
    pub match_id: i64,
    pub world_cup_id: i64,
    pub stadium_id: i64,
    pub home_team_id: i64,
    pub away_team_id: i64,
    pub match_date: String,
    pub round: String,
    pub home_goals: i64,
    pub away_goals: i64,
    pub attendance: i64,
    pub referee: String,
    pub half_time_home_goals: i64,
    pub half_time_away_goals: i64,
    /// Penalty shoot-out goals, when the match went to penalties.
    pub home_penalty_goals: i64,
    pub away_penalty_goals: i64,
}

impl Match {
    /// 'W'/'L'/'D' from the home team's perspective, counting penalty
    /// shoot-outs.
    pub fn home_result(&self) -> &'static str {
        use std::cmp::Ordering::*;
        match (
            self.home_goals,
            self.away_goals,
            self.home_penalty_goals,
            self.away_penalty_goals,
        ) {
            (h, a, _, _) if h > a => "W",
            (h, a, _, _) if h < a => "L",
            (_, _, hp, ap) => match hp.cmp(&ap) {
                Greater => "W",
                Less => "L",
                Equal => "D",
            },
        }
    }
}

/// A league.
#[derive(Debug, Clone)]
pub struct League {
    pub league_id: i64,
    pub name: String,
    pub country: String,
    pub division: i64,
    pub founded_year: i64,
    pub confederation: String,
}

/// A club.
#[derive(Debug, Clone)]
pub struct Club {
    pub club_id: i64,
    pub name: String,
    pub country: String,
    pub city: String,
    pub league_id: i64,
    pub founded_year: i64,
    pub stadium_name: String,
}

/// A player.
#[derive(Debug, Clone)]
pub struct Player {
    pub player_id: i64,
    pub full_name: String,
    pub nickname: String,
    pub date_of_birth: String,
    pub country: String,
    pub position: String,
    pub height_cm: i64,
    pub preferred_foot: String,
    pub caps: i64,
    /// Current club.
    pub club_id: i64,
}

/// A tournament squad membership (player listed for a team at one cup).
#[derive(Debug, Clone)]
pub struct SquadMember {
    pub squad_id: i64,
    pub world_cup_id: i64,
    pub team_id: i64,
    pub player_id: i64,
    pub shirt_number: i64,
    pub role: String,
}

/// A match appearance (player on the pitch or bench for one match).
#[derive(Debug, Clone)]
pub struct Appearance {
    pub appearance_id: i64,
    pub match_id: i64,
    pub player_id: i64,
    pub team_id: i64,
    pub started: bool,
    pub minutes_played: i64,
}

/// A goal event.
#[derive(Debug, Clone)]
pub struct Goal {
    pub goal_id: i64,
    pub match_id: i64,
    pub player_id: i64,
    pub team_id: i64,
    pub minute: i64,
    pub own_goal: bool,
    pub penalty: bool,
}

/// A card event.
#[derive(Debug, Clone)]
pub struct Card {
    pub card_id: i64,
    pub match_id: i64,
    pub player_id: i64,
    pub minute: i64,
    pub card_type: String,
}

/// A national-team coach (with the team they coached most recently).
#[derive(Debug, Clone)]
pub struct Coach {
    pub coach_id: i64,
    pub name: String,
    pub country: String,
    pub date_of_birth: String,
    pub team_id: i64,
}

/// A player's career spell at a club.
#[derive(Debug, Clone)]
pub struct ClubSpell {
    pub spell_id: i64,
    pub player_id: i64,
    pub club_id: i64,
    pub from_year: i64,
    pub to_year: i64,
    pub appearances: i64,
}

/// The fully synthesized domain.
///
/// A domain is read-only once [`generate`](crate::generate) returns.
/// Its entity fields are public to read; [`load`](crate::load()) builds
/// each data model's database from them once, keeps it, and hands out
/// clones of it, so an entity edited after a load would not reach the
/// rows later loads return. `Clone` copies the entities and none of the
/// loaded databases, so a cloned domain loads afresh; `Debug` prints
/// the entities only.
#[derive(Clone, Default)]
pub struct Domain {
    pub teams: Vec<NationalTeam>,
    pub world_cups: Vec<WorldCup>,
    pub stadiums: Vec<Stadium>,
    pub matches: Vec<Match>,
    pub leagues: Vec<League>,
    pub clubs: Vec<Club>,
    pub players: Vec<Player>,
    pub squads: Vec<SquadMember>,
    pub appearances: Vec<Appearance>,
    pub goals: Vec<Goal>,
    pub cards: Vec<Card>,
    pub coaches: Vec<Coach>,
    pub club_spells: Vec<ClubSpell>,
    /// Each data model's database, built by its first load.
    pub(crate) loaded: Loaded,
}

/// One database per data model, each built at most once. Derived
/// state: a clone starts empty.
#[derive(Default)]
pub(crate) struct Loaded([OnceLock<Database>; 3]);

impl Loaded {
    /// `model`'s database, built by `build` unless a load built it
    /// before. Threads racing on an unbuilt model wait for one build.
    pub(crate) fn get_or_init(
        &self,
        model: DataModel,
        build: impl FnOnce() -> Database,
    ) -> &Database {
        self.0[model as usize].get_or_init(build)
    }
}

impl Clone for Loaded {
    fn clone(&self) -> Loaded {
        Loaded::default()
    }
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Domain")
            .field("teams", &self.teams)
            .field("world_cups", &self.world_cups)
            .field("stadiums", &self.stadiums)
            .field("matches", &self.matches)
            .field("leagues", &self.leagues)
            .field("clubs", &self.clubs)
            .field("players", &self.players)
            .field("squads", &self.squads)
            .field("appearances", &self.appearances)
            .field("goals", &self.goals)
            .field("cards", &self.cards)
            .field("coaches", &self.coaches)
            .field("club_spells", &self.club_spells)
            .finish_non_exhaustive()
    }
}

impl Domain {
    /// Looks up a team by id. Panics on unknown ids — the generator
    /// guarantees referential integrity.
    pub fn team(&self, id: i64) -> &NationalTeam {
        &self.teams[(id - 1) as usize]
    }

    pub fn team_by_name(&self, name: &str) -> Option<&NationalTeam> {
        self.teams.iter().find(|t| t.teamname == name)
    }

    pub fn cup_by_year(&self, year: i64) -> Option<&WorldCup> {
        self.world_cups.iter().find(|c| c.year == year)
    }

    /// Total entity count across all collections (Table 2's #Rows is
    /// computed from the loaded databases, but this gives a quick check).
    pub fn entity_count(&self) -> usize {
        self.teams.len()
            + self.world_cups.len()
            + self.stadiums.len()
            + self.matches.len()
            + self.leagues.len()
            + self.clubs.len()
            + self.players.len()
            + self.squads.len()
            + self.appearances.len()
            + self.goals.len()
            + self.cards.len()
            + self.coaches.len()
            + self.club_spells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loaded_databases_are_neither_cloned_nor_printed() {
        let d = Domain::default();
        d.loaded
            .get_or_init(DataModel::V1, || Database::new(DataModel::V1.catalog()));
        assert!(d.loaded.0[0].get().is_some());
        assert!(d.clone().loaded.0.iter().all(|l| l.get().is_none()));
        let printed = format!("{d:?}");
        assert!(printed.ends_with("club_spells: [], .. }"), "{printed}");
    }

    #[test]
    fn home_result_logic() {
        let mut m = Match {
            match_id: 1,
            world_cup_id: 1,
            stadium_id: 1,
            home_team_id: 1,
            away_team_id: 2,
            match_date: "2014-07-08".into(),
            round: "Semi-final".into(),
            home_goals: 1,
            away_goals: 7,
            attendance: 58000,
            referee: "R".into(),
            half_time_home_goals: 0,
            half_time_away_goals: 5,
            home_penalty_goals: 0,
            away_penalty_goals: 0,
        };
        assert_eq!(m.home_result(), "L");
        m.home_goals = 7;
        m.away_goals = 1;
        assert_eq!(m.home_result(), "W");
        m.home_goals = 1;
        m.away_goals = 1;
        assert_eq!(m.home_result(), "D");
        m.home_penalty_goals = 4;
        m.away_penalty_goals = 3;
        assert_eq!(m.home_result(), "W");
    }
}
