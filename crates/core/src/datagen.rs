//! Deterministic synthetic data generators for examples, tests, and the
//! benchmark harness (DESIGN.md substitutions: the paper's social-media and
//! web-log workloads are regenerated with seeded generators using the exact
//! Figure 3 schemas).

use asterix_adm::temporal;
use asterix_adm::{Object, Point, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic generator state.
pub struct DataGen {
    rng: StdRng,
}

const FIRST_NAMES: &[&str] = &[
    "Margarita", "Emory", "Nicholas", "Von", "Willis", "Suzanna", "Nila", "Marcos", "Woodrow",
    "Bram", "Nicole", "Isbel",
];
const LAST_NAMES: &[&str] = &[
    "Stoddard", "Unk", "Stroh", "Sien", "Wynne", "Tillson", "Allen", "Umbel", "Zoller", "Newell",
    "Leger", "Bergin",
];
const ORGS: &[&str] = &[
    "Codetechno", "geomedia", "Newcom", "Mathtech", "itlab", "Tranzap", "Codehow", "physcane",
    "Newphase", "Technohow",
];
const WORDS: &[&str] = &[
    "love", "like", "dislike", "hate", "can't", "stand", "the", "its", "verizon", "samsung",
    "apple", "sprint", "motorola", "tmobile", "at&t", "platform", "speed", "voice", "command",
    "shortcut", "menu", "plan", "network", "wireless", "signal", "reachability", "customization",
    "customer", "service", "price", "plans", "3G", "touch", "screen",
];
const VERBS: &[&str] = &["GET", "POST", "PUT", "DELETE"];
const PATHS: &[&str] = &["/home", "/feed", "/profile", "/msg", "/search", "/settings"];

/// Epoch ms of 2012-01-01, the generators' time origin.
pub fn epoch_2012() -> i64 {
    // fallback is the same constant the parse yields: 2012-01-01 in epoch ms
    temporal::parse_datetime("2012-01-01T00:00:00").unwrap_or(1_325_376_000_000)
}

impl DataGen {
    /// Seeded generator (same seed → same data).
    pub fn new(seed: u64) -> Self {
        DataGen { rng: StdRng::seed_from_u64(seed) }
    }

    fn pick<'a>(&mut self, items: &'a [&'a str]) -> &'a str {
        items[self.rng.gen_range(0..items.len())]
    }

    /// One GleambookUserType record (Figure 3(a) schema).
    pub fn user(&mut self, id: i64) -> Value {
        let n_friends = self.rng.gen_range(0..20);
        let friends: Vec<Value> = (0..n_friends)
            .map(|_| Value::Int(self.rng.gen_range(1..10_000)))
            .collect();
        let n_jobs = self.rng.gen_range(0..3);
        let jobs: Vec<Value> = (0..n_jobs)
            .map(|_| {
                let start = epoch_2012()
                    - self.rng.gen_range(0..3_000) * temporal::MILLIS_PER_DAY;
                let mut o = Object::new();
                o.set("organizationName", Value::from(self.pick(ORGS)));
                o.set(
                    "startDate",
                    Value::Date((start / temporal::MILLIS_PER_DAY) as i32),
                );
                if self.rng.gen_bool(0.3) {
                    o.set(
                        "endDate",
                        Value::Date(
                            ((start + 200 * temporal::MILLIS_PER_DAY) / temporal::MILLIS_PER_DAY)
                                as i32,
                        ),
                    );
                }
                Value::Object(o)
            })
            .collect();
        let first = self.pick(FIRST_NAMES);
        let last = self.pick(LAST_NAMES);
        let since = epoch_2012() + self.rng.gen_range(0..1_800) * temporal::MILLIS_PER_DAY;
        let mut o = Object::new();
        o.set("id", Value::Int(id));
        o.set("alias", Value::from(format!("{}{id}", first.to_lowercase())));
        o.set("name", Value::from(format!("{first} {last}")));
        o.set("userSince", Value::DateTime(since));
        o.set("friendIds", Value::Multiset(friends));
        o.set("employment", Value::Array(jobs));
        Value::Object(o)
    }

    /// One GleambookMessageType record (Figure 3(a) schema).
    pub fn message(&mut self, message_id: i64, n_users: i64) -> Value {
        let len = self.rng.gen_range(3..12);
        let text: Vec<&str> = (0..len).map(|_| self.pick(WORDS)).collect();
        let mut o = Object::new();
        o.set("messageId", Value::Int(message_id));
        o.set("authorId", Value::Int(self.rng.gen_range(1..=n_users.max(1))));
        if self.rng.gen_bool(0.3) {
            o.set("inResponseTo", Value::Int(self.rng.gen_range(0..message_id.max(1))));
        }
        if self.rng.gen_bool(0.8) {
            o.set(
                "senderLocation",
                Value::Point(Point::new(
                    self.rng.gen_range(-124.0..-66.0),
                    self.rng.gen_range(24.0..49.0),
                )),
            );
        }
        o.set("message", Value::from(format!(" {}", text.join(" "))));
        Value::Object(o)
    }

    /// One access-log line in Figure 3(b)'s delimited format
    /// (`ip|time|user|verb|path|stat|size`).
    pub fn access_log_line(&mut self, user_alias: &str, t_ms: i64) -> String {
        format!(
            "{}.{}.{}.{}|{}|{}|{}|{}|{}|{}",
            self.rng.gen_range(1..255),
            self.rng.gen_range(0..255),
            self.rng.gen_range(0..255),
            self.rng.gen_range(1..255),
            temporal::format_datetime(t_ms),
            user_alias,
            self.pick(VERBS),
            self.pick(PATHS),
            if self.rng.gen_bool(0.9) { 200 } else { 404 },
            self.rng.gen_range(64..65_536),
        )
    }

    /// Uniform random point in `[0, extent)²`.
    pub fn uniform_point(&mut self, extent: f64) -> Point {
        Point::new(self.rng.gen_range(0.0..extent), self.rng.gen_range(0.0..extent))
    }

    /// Point from a mixture of Gaussian clusters plus a uniform background —
    /// the skewed spatial workload of the §V-B study (experiment E2).
    pub fn clustered_point(&mut self, extent: f64, clusters: usize) -> Point {
        if self.rng.gen_bool(0.2) {
            return self.uniform_point(extent);
        }
        let c = self.rng.gen_range(0..clusters.max(1)) as f64;
        let step = extent / clusters.max(1) as f64;
        let (cx, cy) = (c * step + step / 2.0, (c * 31.0) % extent);
        let sigma = extent / 40.0;
        let gauss = |rng: &mut StdRng| {
            // Box-Muller
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let x = (cx + gauss(&mut self.rng) * sigma).clamp(0.0, extent - f64::EPSILON);
        let y = (cy + gauss(&mut self.rng) * sigma).clamp(0.0, extent - f64::EPSILON);
        Point::new(x, y)
    }

    /// A random i64 in range (workload helper).
    pub fn int(&mut self, lo: i64, hi: i64) -> i64 {
        self.rng.gen_range(lo..hi)
    }

    /// A random f64 in range.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// A random boolean with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// `len` random letters and digits: text no symbol table shortens much,
    /// for workloads about pages and sizes.
    pub fn noise(&mut self, len: usize) -> String {
        const ALPHANUMERIC: &[u8] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
        (0..len).map(|_| char::from(ALPHANUMERIC[self.rng.gen_range(0..ALPHANUMERIC.len())])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::types::gleambook_types;
    use asterix_adm::validate::cast_object;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<Value> = {
            let mut g = DataGen::new(7);
            (1..20).map(|i| g.user(i)).collect()
        };
        let b: Vec<Value> = {
            let mut g = DataGen::new(7);
            (1..20).map(|i| g.user(i)).collect()
        };
        assert_eq!(a, b);
        let c = DataGen::new(8).user(1);
        assert_ne!(a[0], c);
    }

    #[test]
    fn users_conform_to_figure3_type() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookUserType").unwrap();
        let mut g = DataGen::new(1);
        for i in 1..100 {
            let u = g.user(i);
            cast_object(&u, ty, &reg).unwrap_or_else(|e| panic!("user {i}: {e}"));
        }
    }

    #[test]
    fn messages_conform_to_figure3_type() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookMessageType").unwrap();
        let mut g = DataGen::new(2);
        for i in 1..100 {
            let m = g.message(i, 50);
            // in declaration order already: the write path casts it borrowed
            let cast = cast_object(&m, ty, &reg).unwrap_or_else(|e| panic!("message {i}: {e}"));
            assert!(matches!(cast, std::borrow::Cow::Borrowed(c) if *c == m), "message {i} was copied");
        }
    }

    #[test]
    fn access_log_lines_parse_as_figure3b() {
        let reg = gleambook_types();
        let ty = reg.get("AccessLogType").unwrap().clone();
        let mut g = DataGen::new(3);
        let lines: Vec<String> = (0..50)
            .map(|i| g.access_log_line(&format!("user{i}"), epoch_2012() + i * 60_000))
            .collect();
        let path = std::env::temp_dir().join(format!(
            "asterix-datagen-test-{}.txt",
            std::process::id()
        ));
        std::fs::write(&path, lines.join("\n")).unwrap();
        let cfg = crate::external::ExternalConfig {
            path: path.to_string_lossy().into_owned(),
            format: crate::external::Format::DelimitedText,
            delimiter: '|',
        };
        let recs = crate::external::read_external(&cfg, Some(&ty), &reg).unwrap();
        assert_eq!(recs.len(), 50);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn clustered_points_are_skewed() {
        let mut g = DataGen::new(4);
        let pts: Vec<Point> = (0..2_000).map(|_| g.clustered_point(1000.0, 4)).collect();
        assert!(pts.iter().all(|p| p.x >= 0.0 && p.x < 1000.0));
        // skew check: some 100x100 cell holds far more than the uniform share
        let mut counts = [0usize; 100];
        for p in &pts {
            let cell = (p.x / 100.0) as usize + 10 * (p.y / 100.0) as usize;
            counts[cell.min(99)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 2 * (2_000 / 100), "max cell {max} not skewed");
    }
}
