//! ETL: canonical domain → database instance per data model.
//!
//! All three instances carry identical information; only the shape
//! differs. Boolean columns are stored as `'True'`/`'False'` text,
//! matching the paper's Listing 1 (`T1.winner = 'True'`).

use crate::model::Domain;
use crate::schema::DataModel;
use sqlengine::{Database, Value};

fn b(v: bool) -> Value {
    Value::text(if v { "True" } else { "False" })
}

/// The database instance of `model` for the domain.
///
/// The domain builds each model's instance on its first load and keeps
/// it; every load returns a clone. So the returned database shares its
/// rows with every other load of `model` on this domain, and with each
/// morphed database [`load_morphed`](crate::load_morphed) migrates from
/// v1, while its indexes, query memo and probe counters start empty. An
/// insert copies the table's rows first, so no load sees another's
/// writes. Two domains, even two clones of one, share no rows.
pub fn load(domain: &Domain, model: DataModel) -> Database {
    domain
        .loaded
        .get_or_init(model, || build(domain, model))
        .clone()
}

/// Builds `model`'s instance from the domain's entities.
fn build(domain: &Domain, model: DataModel) -> Database {
    let mut db = Database::new(model.catalog());
    load_shared(&mut db, domain, model);
    match model {
        DataModel::V1 => load_v1(&mut db, domain),
        DataModel::V2 => load_v2(&mut db, domain),
        DataModel::V3 => load_v3(&mut db, domain),
    }
    db
}

/// Builds all three instances.
pub fn load_all(domain: &Domain) -> [(DataModel, Database); 3] {
    [
        (DataModel::V1, load(domain, DataModel::V1)),
        (DataModel::V2, load(domain, DataModel::V2)),
        (DataModel::V3, load(domain, DataModel::V3)),
    ]
}

fn load_shared(db: &mut Database, d: &Domain, model: DataModel) {
    for t in &d.teams {
        let mut row = vec![
            Value::Int(t.team_id),
            Value::text(&t.teamname),
            Value::text(&t.team_code),
            Value::text(&t.confederation),
            Value::Int(t.founded_year),
            Value::Int(t.fifa_ranking),
            Value::Int(t.first_appearance_year),
        ];
        if model == DataModel::V3 {
            row.push(Value::text(&t.nickname));
        }
        db.insert("national_team", row).unwrap();
    }
    for s in &d.stadiums {
        db.insert(
            "stadium",
            vec![
                Value::Int(s.stadium_id),
                Value::text(&s.name),
                Value::text(&s.city),
                Value::text(&s.country),
                Value::Int(s.capacity),
                Value::Int(s.opened_year),
            ],
        )
        .unwrap();
    }
    for l in &d.leagues {
        db.insert(
            "league",
            vec![
                Value::Int(l.league_id),
                Value::text(&l.name),
                Value::text(&l.country),
                Value::Int(l.division),
                Value::Int(l.founded_year),
                Value::text(&l.confederation),
            ],
        )
        .unwrap();
    }
    for c in &d.clubs {
        db.insert(
            "club",
            vec![
                Value::Int(c.club_id),
                Value::text(&c.name),
                Value::text(&c.country),
                Value::text(&c.city),
                Value::Int(c.league_id),
                Value::Int(c.founded_year),
                Value::text(&c.stadium_name),
            ],
        )
        .unwrap();
    }
    for p in &d.players {
        db.insert(
            "player",
            vec![
                Value::Int(p.player_id),
                Value::text(&p.full_name),
                Value::text(&p.nickname),
                Value::text(&p.date_of_birth),
                Value::text(&p.country),
                Value::text(&p.position),
                Value::Int(p.height_cm),
                Value::text(&p.preferred_foot),
                Value::Int(p.caps),
                Value::Int(p.club_id),
            ],
        )
        .unwrap();
    }
    for s in &d.squads {
        db.insert(
            "squad",
            vec![
                Value::Int(s.squad_id),
                Value::Int(s.world_cup_id),
                Value::Int(s.team_id),
                Value::Int(s.player_id),
                Value::Int(s.shirt_number),
                Value::text(&s.role),
            ],
        )
        .unwrap();
    }
    for a in &d.appearances {
        db.insert(
            "appearance",
            vec![
                Value::Int(a.appearance_id),
                Value::Int(a.match_id),
                Value::Int(a.player_id),
                Value::Int(a.team_id),
                b(a.started),
                Value::Int(a.minutes_played),
            ],
        )
        .unwrap();
    }
    for g in &d.goals {
        db.insert(
            "goal",
            vec![
                Value::Int(g.goal_id),
                Value::Int(g.match_id),
                Value::Int(g.player_id),
                Value::Int(g.team_id),
                Value::Int(g.minute),
                b(g.own_goal),
                b(g.penalty),
            ],
        )
        .unwrap();
    }
    for c in &d.cards {
        db.insert(
            "card",
            vec![
                Value::Int(c.card_id),
                Value::Int(c.match_id),
                Value::Int(c.player_id),
                Value::Int(c.minute),
                Value::text(&c.card_type),
            ],
        )
        .unwrap();
    }
    for c in &d.coaches {
        db.insert(
            "coach",
            vec![
                Value::Int(c.coach_id),
                Value::text(&c.name),
                Value::text(&c.country),
                Value::text(&c.date_of_birth),
                Value::Int(c.team_id),
            ],
        )
        .unwrap();
    }
    for s in &d.club_spells {
        db.insert(
            "player_club",
            vec![
                Value::Int(s.spell_id),
                Value::Int(s.player_id),
                Value::Int(s.club_id),
                Value::Int(s.from_year),
                Value::Int(s.to_year),
                Value::Int(s.appearances),
            ],
        )
        .unwrap();
    }
}

fn load_v1(db: &mut Database, d: &Domain) {
    for c in &d.world_cups {
        db.insert(
            "world_cup",
            vec![
                Value::Int(c.world_cup_id),
                Value::Int(c.year),
                Value::text(&c.host_country),
                Value::text(&c.start_date),
                Value::text(&c.end_date),
                Value::Int(c.num_teams),
                Value::Int(c.total_attendance),
                Value::Int(c.matches_played),
                Value::Int(c.goals_scored),
                Value::Int(c.winner),
                Value::Int(c.runner_up),
                Value::Int(c.third),
                Value::Int(c.fourth),
            ],
        )
        .unwrap();
    }
    for m in &d.matches {
        db.insert(
            "match",
            vec![
                Value::Int(m.match_id),
                Value::Int(m.world_cup_id),
                Value::Int(m.stadium_id),
                Value::Int(m.home_team_id),
                Value::Int(m.away_team_id),
                Value::text(&m.match_date),
                Value::text(&m.round),
                Value::Int(m.home_goals),
                Value::Int(m.away_goals),
                Value::Int(m.attendance),
                Value::text(&m.referee),
                Value::Int(m.half_time_home_goals),
                Value::Int(m.half_time_away_goals),
            ],
        )
        .unwrap();
    }
}

fn world_cup_row_v2(c: &crate::model::WorldCup) -> Vec<Value> {
    vec![
        Value::Int(c.world_cup_id),
        Value::Int(c.year),
        Value::text(&c.host_country),
        Value::text(&c.start_date),
        Value::text(&c.end_date),
        Value::Int(c.num_teams),
        Value::Int(c.total_attendance),
        Value::Int(c.matches_played),
        Value::Int(c.goals_scored),
    ]
}

fn match_row_v2(m: &crate::model::Match) -> Vec<Value> {
    vec![
        Value::Int(m.match_id),
        Value::Int(m.world_cup_id),
        Value::Int(m.stadium_id),
        Value::text(&m.match_date),
        Value::text(&m.round),
        Value::Int(m.attendance),
        Value::text(&m.referee),
    ]
}

fn load_v2(db: &mut Database, d: &Domain) {
    for c in &d.world_cups {
        db.insert("world_cup", world_cup_row_v2(c)).unwrap();
        for (team, prize) in [
            (c.winner, "winner"),
            (c.runner_up, "runner-up"),
            (c.third, "third"),
            (c.fourth, "fourth"),
        ] {
            db.insert(
                "world_cup_result",
                vec![
                    Value::Int(c.world_cup_id),
                    Value::Int(team),
                    Value::text(prize),
                ],
            )
            .unwrap();
        }
    }
    for m in &d.matches {
        db.insert("match", match_row_v2(m)).unwrap();
        db.insert(
            "plays_as_home",
            vec![
                Value::Int(m.match_id * 2 - 1),
                Value::Int(m.match_id),
                Value::Int(m.home_team_id),
                Value::Int(m.home_goals),
            ],
        )
        .unwrap();
        db.insert(
            "plays_as_away",
            vec![
                Value::Int(m.match_id * 2),
                Value::Int(m.match_id),
                Value::Int(m.away_team_id),
                Value::Int(m.away_goals),
            ],
        )
        .unwrap();
    }
}

fn load_v3(db: &mut Database, d: &Domain) {
    for c in &d.world_cups {
        db.insert("world_cup", world_cup_row_v2(c)).unwrap();
        for (team, prize) in [
            (c.winner, 0usize),
            (c.runner_up, 1),
            (c.third, 2),
            (c.fourth, 3),
        ] {
            let mut flags = [false; 4];
            flags[prize] = true;
            db.insert(
                "world_cup_result",
                vec![
                    Value::Int(c.world_cup_id),
                    Value::Int(team),
                    Value::text(&d.team(team).teamname),
                    b(flags[0]),
                    b(flags[1]),
                    b(flags[2]),
                    b(flags[3]),
                ],
            )
            .unwrap();
        }
    }
    for m in &d.matches {
        let year = d.world_cups[(m.world_cup_id - 1) as usize].year;
        let mut row = match_row_v2(m);
        row.push(Value::Int(year));
        db.insert("match", row).unwrap();
        let home = d.team(m.home_team_id);
        let away = d.team(m.away_team_id);
        let home_result = m.home_result();
        let away_result = match home_result {
            "W" => "L",
            "L" => "W",
            _ => "D",
        };
        for (team, opp, role, tn, on, g, og, res, pg) in [
            (
                m.home_team_id,
                m.away_team_id,
                "home",
                &home.teamname,
                &away.teamname,
                m.home_goals,
                m.away_goals,
                home_result,
                m.home_penalty_goals,
            ),
            (
                m.away_team_id,
                m.home_team_id,
                "away",
                &away.teamname,
                &home.teamname,
                m.away_goals,
                m.home_goals,
                away_result,
                m.away_penalty_goals,
            ),
        ] {
            db.insert(
                "plays_match",
                vec![
                    Value::text(format!("{}-{}", m.match_id, team)),
                    Value::Int(m.match_id),
                    Value::Int(team),
                    Value::Int(opp),
                    Value::text(role),
                    Value::text(tn),
                    Value::text(on),
                    Value::Int(g),
                    Value::Int(og),
                    Value::text(res),
                    Value::Int(pg),
                ],
            )
            .unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use sqlengine::{execute_sql, CacheStats, IndexStats};

    fn domain() -> Domain {
        generate(7)
    }

    /// Where each table's rows sit, in catalog order. Empty vectors
    /// share a dangling pointer, so every table must have rows.
    fn row_ptrs(db: &Database) -> Vec<*const Vec<Value>> {
        db.catalog()
            .tables
            .iter()
            .map(|t| {
                let rows = db.rows(&t.name).expect("catalog table");
                assert!(!rows.is_empty(), "{} is empty", t.name);
                rows.as_ptr()
            })
            .collect()
    }

    #[test]
    fn loads_of_one_domain_share_rows_and_nothing_derived() {
        let d = domain();
        for model in DataModel::ALL {
            assert_eq!(
                row_ptrs(&load(&d, model)),
                row_ptrs(&load(&d, model)),
                "{model}"
            );
        }
        let (a, b) = (load(&d, DataModel::V1), load(&d, DataModel::V1));
        let sql = "SELECT name FROM stadium WHERE stadium_id = 3";
        a.query_cache().execute_cached(&a, sql).unwrap();
        a.query_cache().execute_cached(&a, sql).unwrap();
        assert!(a.index_stats().builds > 0 && a.index_stats().probes > 0);
        assert_eq!(a.query_cache().stats().hits, 1);
        assert_eq!(b.index_stats(), IndexStats::default());
        assert_eq!(b.cached_index_count(), 0);
        assert_eq!(b.query_cache().stats(), CacheStats::default());
        // A later load starts as cold as the first did.
        let c = load(&d, DataModel::V1);
        assert_eq!(c.index_stats(), IndexStats::default());
        assert_eq!(c.query_cache().stats(), CacheStats::default());
    }

    #[test]
    fn domains_and_their_clones_share_no_rows() {
        let d = domain();
        let v1 = load(&d, DataModel::V1);
        let shared = row_ptrs(&v1);
        for other in [domain(), d.clone()] {
            let v1_again = load(&other, DataModel::V1);
            assert!(row_ptrs(&v1_again).iter().all(|p| !shared.contains(p)));
            for t in &v1.catalog().tables {
                assert_eq!(v1_again.rows(&t.name), v1.rows(&t.name), "{}", t.name);
            }
        }
    }

    #[test]
    fn an_insert_into_one_load_reaches_no_other() {
        let d = domain();
        let mut written = load(&d, DataModel::V1);
        let mut row = written.rows("stadium").unwrap()[0].clone();
        row[0] = sqlengine::Value::Int(-1);
        written.insert("stadium", row).unwrap();
        let fresh = load(&d, DataModel::V1);
        assert_eq!(written.row_count("stadium"), fresh.row_count("stadium") + 1);
        assert_ne!(
            written.rows("stadium").unwrap().as_ptr(),
            fresh.rows("stadium").unwrap().as_ptr()
        );
        assert_eq!(
            written.rows("player").unwrap().as_ptr(),
            fresh.rows("player").unwrap().as_ptr()
        );
    }

    #[test]
    fn v1_loads_and_satisfies_fks() {
        let d = domain();
        let db = load(&d, DataModel::V1);
        assert_eq!(db.row_count("world_cup"), 22);
        assert_eq!(db.row_count("match"), 964);
        let violations = db.check_foreign_keys();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn v2_and_v3_satisfy_fks() {
        let d = domain();
        for m in [DataModel::V2, DataModel::V3] {
            let db = load(&d, m);
            let violations = db.check_foreign_keys();
            assert!(violations.is_empty(), "{m}: {violations:?}");
        }
    }

    #[test]
    fn row_deltas_match_paper_shape() {
        let d = domain();
        let v1 = load(&d, DataModel::V1);
        let v2 = load(&d, DataModel::V2);
        let v3 = load(&d, DataModel::V3);
        // v2 adds two bridge rows per match plus 4 result rows per cup:
        // exactly +2,016 rows over v1 — the same delta as Table 2.
        assert_eq!(v2.total_rows() - v1.total_rows(), 2 * 964 + 4 * 22);
        assert_eq!(v2.total_rows() - v1.total_rows(), 2016);
        // v3 replaces the two bridges with plays_match (2 rows/match).
        assert_eq!(v3.row_count("plays_match"), 2 * 964);
    }

    #[test]
    fn paper_listing1_queries_agree_across_models() {
        // "How many times did England win the world cup?" — Listing 1.
        let d = domain();
        let v1 = load(&d, DataModel::V1);
        let v3 = load(&d, DataModel::V3);
        let r1 = execute_sql(
            &v1,
            "SELECT count(*) FROM world_cup AS T1 \
             JOIN national_team AS T2 ON T1.winner = T2.team_id \
             WHERE T2.teamname = 'England'",
        )
        .unwrap();
        let r3 = execute_sql(
            &v3,
            "SELECT count(*) FROM world_cup_result AS T1 \
             JOIN national_team AS T2 ON T1.team_id = T2.team_id \
             WHERE T2.teamname = 'England' AND T1.winner = 'True'",
        )
        .unwrap();
        assert!(r1.matches(&r3));
        assert_eq!(r1.rows[0][0], sqlengine::Value::Int(1)); // 1966
    }

    #[test]
    fn figure4_queries_agree_across_models() {
        // "What was the score between Germany and Brazil in 2014?"
        let d = domain();
        let v1 = load(&d, DataModel::V1);
        let v2 = load(&d, DataModel::V2);
        let v3 = load(&d, DataModel::V3);
        let r1 = execute_sql(
            &v1,
            "SELECT T1.home_team_goals, T1.away_team_goals FROM match AS T1 \
             JOIN national_team AS T2 ON T1.home_team_id = T2.team_id \
             JOIN national_team AS T3 ON T1.away_team_id = T3.team_id \
             JOIN world_cup AS T4 ON T1.world_cup_id = T4.world_cup_id \
             WHERE T2.teamname = 'Germany' AND T3.teamname = 'Brazil' AND T4.year = 2014 \
             UNION \
             SELECT T1.home_team_goals, T1.away_team_goals FROM match AS T1 \
             JOIN national_team AS T2 ON T1.home_team_id = T2.team_id \
             JOIN national_team AS T3 ON T1.away_team_id = T3.team_id \
             JOIN world_cup AS T4 ON T1.world_cup_id = T4.world_cup_id \
             WHERE T2.teamname = 'Brazil' AND T3.teamname = 'Germany' AND T4.year = 2014",
        )
        .unwrap();
        let r2 = execute_sql(
            &v2,
            "SELECT h.goals, a.goals FROM match AS m \
             JOIN plays_as_home AS h ON m.match_id = h.match_id \
             JOIN plays_as_away AS a ON m.match_id = a.match_id \
             JOIN national_team AS t1 ON h.team_id = t1.team_id \
             JOIN national_team AS t2 ON a.team_id = t2.team_id \
             JOIN world_cup AS w ON m.world_cup_id = w.world_cup_id \
             WHERE t1.teamname = 'Germany' AND t2.teamname = 'Brazil' AND w.year = 2014 \
             UNION \
             SELECT a.goals, h.goals FROM match AS m \
             JOIN plays_as_home AS h ON m.match_id = h.match_id \
             JOIN plays_as_away AS a ON m.match_id = a.match_id \
             JOIN national_team AS t1 ON h.team_id = t1.team_id \
             JOIN national_team AS t2 ON a.team_id = t2.team_id \
             JOIN world_cup AS w ON m.world_cup_id = w.world_cup_id \
             WHERE t1.teamname = 'Brazil' AND t2.teamname = 'Germany' AND w.year = 2014",
        )
        .unwrap();
        let r3 = execute_sql(
            &v3,
            "SELECT pm.goals, pm.opponent_goals FROM plays_match AS pm \
             JOIN match AS m ON pm.match_id = m.match_id \
             WHERE pm.teamname = 'Germany' AND pm.opponent_teamname = 'Brazil' AND m.year = 2014",
        )
        .unwrap();
        assert!(r1.matches(&r2), "v1 vs v2:\n{r1}\nvs\n{r2}");
        assert!(r1.matches(&r3), "v1 vs v3:\n{r1}\nvs\n{r3}");
        assert_eq!(r1.len(), 1);
    }

    #[test]
    fn v3_plays_match_is_symmetric() {
        let d = domain();
        let v3 = load(&d, DataModel::V3);
        let home = execute_sql(
            &v3,
            "SELECT count(*) FROM plays_match WHERE team_role = 'home'",
        )
        .unwrap();
        let away = execute_sql(
            &v3,
            "SELECT count(*) FROM plays_match WHERE team_role = 'away'",
        )
        .unwrap();
        assert!(home.matches(&away));
    }

    #[test]
    fn prize_text_in_v2_uses_runner_up_term() {
        // The lexical problem: the prize column literally says
        // 'runner-up' while users say 'second place'.
        let d = domain();
        let v2 = load(&d, DataModel::V2);
        let rs = execute_sql(
            &v2,
            "SELECT count(*) FROM world_cup_result WHERE prize = 'runner-up'",
        )
        .unwrap();
        assert_eq!(rs.rows[0][0], sqlengine::Value::Int(22));
    }
}
