//! The serve workload's request mix, generated from the benchmark seed.
//!
//! A session is a list of rounds. In each round both connections send
//! ten lines: nine point queries (`characterize` or `evaluate`) and one
//! heavy request. Connection 0's heavy request is a `search`, connection
//! 1's a `sweep`, so the mix is 90% points, 5% search and 5% sweep in
//! every round, whatever the seed. Keeping every search on one
//! connection also keeps their order fixed, which the search response
//! depends on (its `bounds_computed` counts plane floors the daemon had
//! not memoized yet). Half the points of a round sit on the study's
//! eight-temperature ladder (cache hits after the seeding session), half
//! on a 0.1 K grid off it (misses that reuse warm geometries and grow
//! the cache and the run registry). The session ends with one `status`.

use coldtall_rng::SmallRng;

/// Technology names as the protocol spells them.
const TECHS: [&str; 5] = ["sram", "edram", "pcm", "stt", "rram"];
/// Die counts the study models.
const DIES: [u8; 4] = [1, 2, 4, 8];
/// The study temperature ladder, in tenths of a kelvin.
const LADDER_TENTHS: [u32; 8] = [770, 1270, 1770, 2270, 2770, 3270, 3500, 3870];
/// Point queries per connection per round.
const POINTS_PER_CONN: usize = 9;

/// What a request line asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Array characteristics of one design point.
    Characterize,
    /// One design point under one benchmark's traffic.
    Evaluate,
    /// Branch-and-bound Pareto search over a study region.
    Search,
    /// The full study sweep.
    Sweep,
    /// Engine status.
    Status,
}

impl Kind {
    /// The protocol's `cmd` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Characterize => "characterize",
            Self::Evaluate => "evaluate",
            Self::Search => "search",
            Self::Sweep => "sweep",
            Self::Status => "status",
        }
    }

    /// Whether this is a point query.
    #[must_use]
    pub fn is_point(self) -> bool {
        matches!(self, Self::Characterize | Self::Evaluate)
    }
}

/// One request line of the session.
#[derive(Debug, Clone)]
pub struct Line {
    /// The JSON request, without the trailing newline.
    pub text: String,
    /// What it asks for.
    pub kind: Kind,
    /// For point queries: whether the temperature is on the ladder.
    pub on_ladder: bool,
}

/// A scripted session: per round, the lines of connection 0 and 1.
#[derive(Debug, Clone)]
pub struct Session {
    /// Each round's lines, per connection.
    pub rounds: Vec<[Vec<Line>; 2]>,
    /// The final `status` request, sent on connection 0 after the last
    /// round.
    pub status: Line,
}

impl Session {
    /// Every line in the order an in-process replay handles them: each
    /// round's connection-0 lines, then its connection-1 lines, then the
    /// final status.
    pub fn lines_in_order(&self) -> impl Iterator<Item = &Line> {
        self.rounds
            .iter()
            .flat_map(|[a, b]| a.iter().chain(b.iter()))
            .chain(std::iter::once(&self.status))
    }

    /// Lines sent, the final status included.
    #[must_use]
    pub fn line_count(&self) -> usize {
        self.rounds
            .iter()
            .map(|[a, b]| a.len() + b.len())
            .sum::<usize>()
            + 1
    }

    /// The generated mix's shape: per-kind counts and the on-ladder
    /// share of point queries.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut counts = [0usize; 5];
        let (mut on, mut points) = (0usize, 0usize);
        for line in self.lines_in_order() {
            counts[line.kind as usize] += 1;
            if line.kind.is_point() {
                points += 1;
                on += usize::from(line.on_ladder);
            }
        }
        format!(
            "characterize {} evaluate {} search {} sweep {} status {}; points on-ladder {on} off-ladder {}",
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4],
            points - on
        )
    }
}

/// Generates a session of `rounds` rounds from `seed`.
#[must_use]
pub fn session(seed: u64, rounds: usize) -> Session {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next_id = 0u64;
    let mut id = || {
        next_id += 1;
        next_id
    };
    let mut out = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut ladder = [true, false].repeat(POINTS_PER_CONN);
        shuffle(&mut rng, &mut ladder);
        let mut conns: [Vec<Line>; 2] = [Vec::new(), Vec::new()];
        for (conn, lines) in conns.iter_mut().enumerate() {
            for &on_ladder in &ladder[conn * POINTS_PER_CONN..(conn + 1) * POINTS_PER_CONN] {
                lines.push(point(&mut rng, id(), on_ladder));
            }
            let heavy = if conn == 0 {
                search(&mut rng, id())
            } else {
                simple(Kind::Sweep, id())
            };
            let at = rng.gen_range(0..lines.len() as u64 + 1) as usize;
            lines.insert(at, heavy);
        }
        out.push(conns);
    }
    Session {
        rounds: out,
        status: simple(Kind::Status, id()),
    }
}

fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len() as u64) as usize]
}

fn simple(kind: Kind, id: u64) -> Line {
    Line {
        text: format!("{{\"cmd\":\"{}\",\"id\":{id}}}", kind.name()),
        kind,
        on_ladder: false,
    }
}

/// Renders a temperature in tenths of a kelvin as a JSON number.
fn kelvin(tenths: u32) -> String {
    if tenths.is_multiple_of(10) {
        format!("{}", tenths / 10)
    } else {
        format!("{}.{}", tenths / 10, tenths % 10)
    }
}

/// A valid point query: volatile technologies stay 2D, eNVMs take any
/// tentpole and die count, temperatures stay inside 60-400 K.
fn point(rng: &mut SmallRng, id: u64, on_ladder: bool) -> Line {
    let tech = *pick(rng, &TECHS);
    let mut fields = format!("\"tech\":\"{tech}\"");
    if !matches!(tech, "sram" | "edram") {
        let tentpole = *pick(rng, &["optimistic", "pessimistic"]);
        let dies = *pick(rng, &DIES);
        fields.push_str(&format!(",\"tentpole\":\"{tentpole}\",\"dies\":{dies}"));
    }
    let tenths = if on_ladder {
        *pick(rng, &LADDER_TENTHS)
    } else {
        loop {
            let t = 600 + rng.gen_range(0..3401) as u32;
            if !LADDER_TENTHS.contains(&t) {
                break t;
            }
        }
    };
    fields.push_str(&format!(",\"temp\":{}", kelvin(tenths)));
    let kind = if rng.gen_bool(0.5) {
        let bench = pick(rng, coldtall::workloads::spec2017()).name;
        fields.push_str(&format!(",\"bench\":\"{bench}\""));
        Kind::Evaluate
    } else {
        Kind::Characterize
    };
    Line {
        text: format!("{{\"cmd\":\"{}\",\"id\":{id},{fields}}}", kind.name()),
        kind,
        on_ladder,
    }
}

/// A search over a non-empty study region (optional technology and
/// die-count filters) with optional latency and area caps.
fn search(rng: &mut SmallRng, id: u64) -> Line {
    let mut fields = String::new();
    let tech = rng.gen_bool(0.5).then(|| *pick(rng, &TECHS));
    let dies = match tech {
        Some("edram") => None,
        _ => rng.gen_bool(0.5).then(|| *pick(rng, &DIES)),
    };
    if let Some(tech) = tech {
        fields.push_str(&format!(",\"tech\":\"{tech}\""));
    }
    if let Some(dies) = dies {
        fields.push_str(&format!(",\"dies\":{dies}"));
    }
    if rng.gen_bool(0.5) {
        fields.push_str(&format!(",\"max_latency\":{}", pick(rng, &[1.5, 2.0, 3.0])));
    }
    if rng.gen_bool(0.5) {
        fields.push_str(&format!(",\"max_area\":{}", pick(rng, &[10.0, 20.0, 40.0])));
    }
    Line {
        text: format!("{{\"cmd\":\"search\",\"id\":{id}{fields}}}"),
        kind: Kind::Search,
        on_ladder: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall::core::Request;
    use coldtall::serve::parse_request;

    fn texts(session: &Session) -> Vec<String> {
        session.lines_in_order().map(|l| l.text.clone()).collect()
    }

    #[test]
    fn same_seed_same_session() {
        assert_eq!(texts(&session(7, 6)), texts(&session(7, 6)));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(texts(&session(7, 6)), texts(&session(8, 6)));
    }

    #[test]
    fn every_round_has_the_fixed_mix() {
        let s = session(42, 5);
        for [a, b] in &s.rounds {
            assert_eq!(a.len(), POINTS_PER_CONN + 1);
            assert_eq!(b.len(), POINTS_PER_CONN + 1);
            assert_eq!(a.iter().filter(|l| l.kind == Kind::Search).count(), 1);
            assert_eq!(b.iter().filter(|l| l.kind == Kind::Sweep).count(), 1);
            let on = a
                .iter()
                .chain(b)
                .filter(|l| l.kind.is_point() && l.on_ladder)
                .count();
            assert_eq!(on, POINTS_PER_CONN);
        }
        assert_eq!(s.line_count(), 5 * 20 + 1);
        assert_eq!(s.status.kind, Kind::Status);
    }

    #[test]
    fn emits_only_valid_design_points() {
        for seed in 0..20 {
            for line in session(seed, 4).lines_in_order() {
                let parsed = parse_request(&line.text)
                    .unwrap_or_else(|e| panic!("{} does not parse: {e}", line.text));
                assert_eq!(parsed.request.kind(), line.kind.name());
                let point = match &parsed.request {
                    Request::Characterize { point } | Request::Evaluate { point, .. } => point,
                    _ => continue,
                };
                let t = point.temperature_kelvin;
                assert!((60.0..=400.0).contains(&t), "{t} K outside 60-400 K");
                let ladder = LADDER_TENTHS.iter().any(|&l| f64::from(l) / 10.0 == t);
                assert_eq!(ladder, line.on_ladder, "{}", line.text);
                if matches!(point.tech.as_str(), "sram" | "edram") {
                    assert_eq!(point.dies, 1, "stacked volatile point {}", line.text);
                }
                point
                    .to_config()
                    .unwrap_or_else(|e| panic!("{} is not a valid point: {e}", line.text));
            }
        }
    }

    #[test]
    fn search_regions_are_never_empty() {
        for seed in 0..50 {
            for line in session(seed, 3).lines_in_order() {
                let parsed = parse_request(&line.text).expect("generated lines parse");
                if line.kind == Kind::Search {
                    let region = crate::serve::request_configs(&parsed.request);
                    assert!(!region.is_empty(), "empty search region in {}", line.text);
                }
            }
        }
    }
}
