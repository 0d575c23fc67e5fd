//! ADM temporal types: `date`, `time`, `datetime`, `duration`, and the
//! interval-binning support added for the multitasking study (paper §V-D:
//! "They needed to time-bin their data into various sized bins and to deal
//! with the possibility that a given user activity might span bins").
//!
//! Representations follow AsterixDB: `date` = days since the Unix epoch,
//! `time` = milliseconds since midnight, `datetime` = milliseconds since the
//! epoch, `duration` = a calendar part (months) plus a chronological part
//! (milliseconds). Civil-date math uses the proleptic Gregorian calendar.

use crate::error::{AdmError, Result};
use std::fmt;

pub const MILLIS_PER_SECOND: i64 = 1_000;
pub const MILLIS_PER_MINUTE: i64 = 60 * MILLIS_PER_SECOND;
pub const MILLIS_PER_HOUR: i64 = 60 * MILLIS_PER_MINUTE;
pub const MILLIS_PER_DAY: i64 = 24 * MILLIS_PER_HOUR;

/// ADM `duration`: ISO-8601 style, split into a calendar component (months,
/// whose length in days varies) and an exact chronological component (ms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Duration {
    /// Years*12 + months.
    pub months: i32,
    /// Days/hours/minutes/seconds collapsed to milliseconds.
    pub millis: i64,
}

impl Duration {
    /// A duration of exactly `ms` milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Duration { months: 0, millis: ms }
    }

    /// A duration of `d` days.
    pub const fn from_days(d: i64) -> Self {
        Duration { months: 0, millis: d * MILLIS_PER_DAY }
    }

    /// A calendar duration of `m` months.
    pub const fn from_months(m: i32) -> Self {
        Duration { months: m, millis: 0 }
    }

    /// Parses an ISO-8601 duration literal such as `P30D`, `PT1H30M`,
    /// `P1Y2M3DT4H5M6.789S`, or a negative `-P1D`.
    ///
    /// Extension: because ADM durations carry independent calendar and
    /// chronological components, a sign (`+`/`-`) directly before the `T`
    /// separator gives the time section its own sign — e.g. `-P1M+T0.001S`
    /// is one millisecond short of minus-one-month. Plain ISO strings behave
    /// exactly as ISO specifies.
    pub fn parse(s: &str) -> Result<Duration> {
        let err = |m: &str| AdmError::Temporal(format!("bad duration {s:?}: {m}"));
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        let body = body.strip_prefix('P').ok_or_else(|| err("must start with P"))?;
        let mut months: i64 = 0;
        let mut millis: i64 = 0; // calendar-section days/weeks, in ms
        let mut tmillis: i64 = 0; // time-section (after T), in ms
        let mut in_time = false;
        // Absolute sign of the time section when the mixed-sign extension's
        // explicit `+T`/`-T` is used; otherwise the section inherits the
        // literal's overall sign.
        let mut time_sign: Option<i64> = None;
        let mut chars = body.char_indices().peekable();
        let bytes = body.as_bytes();
        let mut saw_component = false;
        while let Some((i, c)) = chars.next() {
            if c == 'T' {
                in_time = true;
                continue;
            }
            if (c == '+' || c == '-') && !in_time {
                // mixed-sign extension: the sign applies to the T section
                match chars.next() {
                    Some((_, 'T')) => {
                        in_time = true;
                        time_sign = Some(if c == '-' { -1 } else { 1 });
                        continue;
                    }
                    _ => return Err(err("sign must directly precede 'T'")),
                }
            }
            if !c.is_ascii_digit() {
                return Err(err("expected digit"));
            }
            // scan the number (possibly fractional for seconds)
            let mut j = i;
            let mut saw_dot = false;
            while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'.') {
                if bytes[j] == b'.' {
                    saw_dot = true;
                }
                j += 1;
            }
            let num_str = &body[i..j];
            // advance the char iterator past the number
            while matches!(chars.peek(), Some(&(k, _)) if k < j) {
                chars.next();
            }
            let unit = chars.next().ok_or_else(|| err("missing unit"))?.1;
            saw_component = true;
            if saw_dot && unit != 'S' {
                return Err(err("fraction only allowed on seconds"));
            }
            let whole: f64 = num_str.parse().map_err(|_| err("bad number"))?;
            match (in_time, unit) {
                (false, 'Y') => months += (whole as i64) * 12,
                (false, 'M') => months += whole as i64,
                (false, 'W') => millis += (whole as i64) * 7 * MILLIS_PER_DAY,
                (false, 'D') => millis += (whole as i64) * MILLIS_PER_DAY,
                (true, 'H') => tmillis += (whole as i64) * MILLIS_PER_HOUR,
                (true, 'M') => tmillis += (whole as i64) * MILLIS_PER_MINUTE,
                (true, 'S') => tmillis += (whole * MILLIS_PER_SECOND as f64).round() as i64,
                _ => return Err(err("unit in wrong section")),
            }
        }
        if !saw_component {
            return Err(err("empty duration"));
        }
        let sign: i64 = if neg { -1 } else { 1 };
        Ok(Duration {
            months: (months * sign) as i32,
            millis: millis * sign + tmillis * time_sign.unwrap_or(sign),
        })
    }

    /// True when both components are zero.
    pub fn is_zero(&self) -> bool {
        self.months == 0 && self.millis == 0
    }

    /// Negation.
    pub fn neg(&self) -> Duration {
        Duration { months: -self.months, millis: -self.millis }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "PT0S");
        }
        // Mixed-sign durations (calendar and time parts disagree) use the
        // documented `±P...±T...` extension so printing round-trips exactly.
        let mixed = self.months != 0 && self.millis != 0 && (self.months < 0) != (self.millis < 0);
        let neg = if self.months != 0 { self.months < 0 } else { self.millis < 0 };
        let months = self.months.unsigned_abs();
        let mut ms = self.millis.unsigned_abs();
        if neg {
            write!(f, "-")?;
        }
        write!(f, "P")?;
        let (y, m) = (months / 12, months % 12);
        if y > 0 {
            write!(f, "{y}Y")?;
        }
        if m > 0 {
            write!(f, "{m}M")?;
        }
        let days = ms / MILLIS_PER_DAY as u64;
        ms %= MILLIS_PER_DAY as u64;
        // In the mixed case everything chronological goes after ±T (days are
        // exact multiples of hours, so this is lossless).
        if days > 0 && !mixed {
            write!(f, "{days}D")?;
        }
        if mixed {
            ms += days * MILLIS_PER_DAY as u64;
            write!(f, "{}T", if self.millis < 0 { '-' } else { '+' })?;
        }
        if ms > 0 {
            if !mixed {
                write!(f, "T")?;
            }
            let h = ms / MILLIS_PER_HOUR as u64;
            ms %= MILLIS_PER_HOUR as u64;
            let min = ms / MILLIS_PER_MINUTE as u64;
            ms %= MILLIS_PER_MINUTE as u64;
            let s = ms / MILLIS_PER_SECOND as u64;
            let frac = ms % MILLIS_PER_SECOND as u64;
            if h > 0 {
                write!(f, "{h}H")?;
            }
            if min > 0 {
                write!(f, "{min}M")?;
            }
            if s > 0 || frac > 0 {
                if frac > 0 {
                    write!(f, "{s}.{frac:03}S")?;
                } else {
                    write!(f, "{s}S")?;
                }
            }
        }
        Ok(())
    }
}

/// Converts a civil date to days since the Unix epoch
/// (Howard Hinnant's `days_from_civil` algorithm).
pub fn civil_to_days(year: i32, month: u32, day: u32) -> i32 {
    let y = if month <= 2 { year - 1 } else { year } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let m = month as i64;
    let d = day as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146_097 + doe - 719_468) as i32
}

/// Converts days since the Unix epoch back to a civil `(year, month, day)`.
pub fn days_to_civil(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

/// Days in a given month of a given year.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

fn parse_fixed_u32(s: &str, what: &str) -> Result<u32> {
    s.parse::<u32>()
        .map_err(|_| AdmError::Temporal(format!("bad {what} field {s:?}")))
}

/// Parses `YYYY-MM-DD` into epoch days.
pub fn parse_date(s: &str) -> Result<i32> {
    let err = || AdmError::Temporal(format!("bad date literal {s:?}"));
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let mut it = body.splitn(3, '-');
    let y: i32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    let m = parse_fixed_u32(it.next().ok_or_else(err)?, "month")?;
    let d = parse_fixed_u32(it.next().ok_or_else(err)?, "day")?;
    if m == 0 || m > 12 || d == 0 || d > days_in_month(y, m) {
        return Err(err());
    }
    Ok(civil_to_days(if neg { -y } else { y }, m, d))
}

/// Parses `HH:MM:SS[.mmm]` into milliseconds since midnight.
pub fn parse_time(s: &str) -> Result<i32> {
    let err = || AdmError::Temporal(format!("bad time literal {s:?}"));
    let mut it = s.splitn(3, ':');
    let h = parse_fixed_u32(it.next().ok_or_else(err)?, "hour")?;
    let m = parse_fixed_u32(it.next().ok_or_else(err)?, "minute")?;
    let sec_part = it.next().ok_or_else(err)?;
    let (sec_str, ms) = match sec_part.split_once('.') {
        Some((sec, frac)) => {
            let mut frac = frac.to_string();
            while frac.len() < 3 {
                frac.push('0');
            }
            (sec, parse_fixed_u32(&frac[..3], "millis")?)
        }
        None => (sec_part, 0),
    };
    let sec = parse_fixed_u32(sec_str, "second")?;
    if h > 23 || m > 59 || sec > 59 {
        return Err(err());
    }
    Ok((h as i64 * MILLIS_PER_HOUR
        + m as i64 * MILLIS_PER_MINUTE
        + sec as i64 * MILLIS_PER_SECOND
        + ms as i64) as i32)
}

/// Parses `YYYY-MM-DDTHH:MM:SS[.mmm][Z]` into epoch milliseconds.
pub fn parse_datetime(s: &str) -> Result<i64> {
    let body = s.strip_suffix('Z').unwrap_or(s);
    let (date_part, time_part) = body
        .split_once('T')
        .ok_or_else(|| AdmError::Temporal(format!("bad datetime literal {s:?} (missing 'T')")))?;
    let days = parse_date(date_part)?;
    let ms = parse_time(time_part)?;
    Ok(days as i64 * MILLIS_PER_DAY + ms as i64)
}

/// Formats epoch days as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = days_to_civil(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Formats millis-since-midnight as `HH:MM:SS[.mmm]`.
pub fn format_time(mut ms: i32) -> String {
    let h = ms / MILLIS_PER_HOUR as i32;
    ms %= MILLIS_PER_HOUR as i32;
    let m = ms / MILLIS_PER_MINUTE as i32;
    ms %= MILLIS_PER_MINUTE as i32;
    let s = ms / MILLIS_PER_SECOND as i32;
    let frac = ms % MILLIS_PER_SECOND as i32;
    if frac > 0 {
        format!("{h:02}:{m:02}:{s:02}.{frac:03}")
    } else {
        format!("{h:02}:{m:02}:{s:02}")
    }
}

/// Formats epoch milliseconds as an ISO datetime.
pub fn format_datetime(ms: i64) -> String {
    let days = ms.div_euclid(MILLIS_PER_DAY) as i32;
    let tod = ms.rem_euclid(MILLIS_PER_DAY) as i32;
    format!("{}T{}", format_date(days), format_time(tod))
}

/// Adds a duration to an epoch-millisecond datetime, handling the calendar
/// component correctly (month-end clamping, as in `2020-01-31 + P1M`).
pub fn datetime_add(ms: i64, dur: &Duration) -> i64 {
    let mut out = ms;
    if dur.months != 0 {
        let days = out.div_euclid(MILLIS_PER_DAY) as i32;
        let tod = out.rem_euclid(MILLIS_PER_DAY);
        let (y, m, d) = days_to_civil(days);
        let total = y as i64 * 12 + (m as i64 - 1) + dur.months as i64;
        let ny = total.div_euclid(12) as i32;
        let nm = (total.rem_euclid(12) + 1) as u32;
        let nd = d.min(days_in_month(ny, nm));
        out = civil_to_days(ny, nm, nd) as i64 * MILLIS_PER_DAY + tod;
    }
    out + dur.millis
}

/// One time bin `[start, end)` produced by [`interval_bin`] / [`overlap_bins`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bin {
    pub start: i64,
    pub end: i64,
}

impl Bin {
    /// Length of the overlap between this bin and the activity `[s, e)`, in ms.
    pub fn overlap_with(&self, s: i64, e: i64) -> i64 {
        (self.end.min(e) - self.start.max(s)).max(0)
    }
}

/// `interval_bin(t, anchor, bin_size)`: the bin containing instant `t`, where
/// bins are `bin_size`-long and aligned to `anchor`. This is AsterixDB's
/// `interval-bin` function, the temporal feature the §V-D user study needed.
/// Calendar bin sizes (months) produce calendar-aligned bins.
pub fn interval_bin(t: i64, anchor: i64, bin: &Duration) -> Result<Bin> {
    if bin.months != 0 && bin.millis != 0 {
        return Err(AdmError::Temporal(
            "bin duration must be either calendar-only or time-only".into(),
        ));
    }
    if bin.months != 0 {
        let months = bin.months as i64;
        let (ay, am, _) = days_to_civil(anchor.div_euclid(MILLIS_PER_DAY) as i32);
        let (ty, tm, _) = days_to_civil(t.div_euclid(MILLIS_PER_DAY) as i32);
        let anchor_m = ay as i64 * 12 + am as i64 - 1;
        let t_m = ty as i64 * 12 + tm as i64 - 1;
        let idx = (t_m - anchor_m).div_euclid(months);
        let start_m = anchor_m + idx * months;
        let end_m = start_m + months;
        let to_ms = |total: i64| {
            let y = total.div_euclid(12) as i32;
            let m = (total.rem_euclid(12) + 1) as u32;
            civil_to_days(y, m, 1) as i64 * MILLIS_PER_DAY
        };
        // Month bins start at month boundaries; refine start so t >= start.
        let mut start = to_ms(start_m);
        let mut end = to_ms(end_m);
        if t < start {
            let prev = start_m - months;
            end = start;
            start = to_ms(prev);
        }
        Ok(Bin { start, end })
    } else {
        let size = bin.millis;
        if size <= 0 {
            return Err(AdmError::Temporal("bin duration must be positive".into()));
        }
        let idx = (t - anchor).div_euclid(size);
        let start = anchor + idx * size;
        Ok(Bin { start, end: start + size })
    }
}

/// All bins overlapped by the activity interval `[start, end)` — the §V-D
/// requirement that "a given user activity might span bins (so they needed to
/// allocate portions of such an activity to the relevant bins)".
pub fn overlap_bins(start: i64, end: i64, anchor: i64, bin: &Duration) -> Result<Vec<Bin>> {
    if end < start {
        return Err(AdmError::Temporal("interval end before start".into()));
    }
    let mut out = Vec::new();
    let mut b = interval_bin(start, anchor, bin)?;
    loop {
        out.push(b);
        if b.end >= end {
            break;
        }
        b = interval_bin(b.end, anchor, bin)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_roundtrip_epoch() {
        assert_eq!(civil_to_days(1970, 1, 1), 0);
        assert_eq!(days_to_civil(0), (1970, 1, 1));
        assert_eq!(civil_to_days(2017, 1, 1), 17167);
        for days in [-1000, -1, 0, 1, 365, 17167, 20000] {
            let (y, m, d) = days_to_civil(days);
            assert_eq!(civil_to_days(y, m, d), days);
        }
    }

    #[test]
    fn date_time_datetime_parse_format_roundtrip() {
        let d = parse_date("2017-01-20").unwrap();
        assert_eq!(format_date(d), "2017-01-20");
        let t = parse_time("13:45:30.250").unwrap();
        assert_eq!(format_time(t), "13:45:30.250");
        let dt = parse_datetime("2017-01-01T00:00:00").unwrap();
        assert_eq!(format_datetime(dt), "2017-01-01T00:00:00");
        assert_eq!(dt, 17167 * MILLIS_PER_DAY);
        assert!(parse_date("2017-02-30").is_err());
        assert!(parse_time("25:00:00").is_err());
        assert!(parse_datetime("2017-01-01 00:00:00").is_err());
    }

    #[test]
    fn duration_parse_and_display() {
        assert_eq!(Duration::parse("P30D").unwrap(), Duration::from_days(30));
        assert_eq!(
            Duration::parse("PT1H30M").unwrap(),
            Duration::from_millis(MILLIS_PER_HOUR + 30 * MILLIS_PER_MINUTE)
        );
        let d = Duration::parse("P1Y2M3DT4H5M6.789S").unwrap();
        assert_eq!(d.months, 14);
        assert_eq!(
            d.millis,
            3 * MILLIS_PER_DAY + 4 * MILLIS_PER_HOUR + 5 * MILLIS_PER_MINUTE + 6789
        );
        assert_eq!(Duration::parse("-P1D").unwrap(), Duration::from_days(-1));
        assert_eq!(format!("{}", Duration::from_days(30)), "P30D");
        // display round-trips
        for s in ["P30D", "PT1H30M", "P1Y2M3DT4H5M6.789S", "-P1D", "PT0S"] {
            let d = Duration::parse(s).unwrap();
            assert_eq!(Duration::parse(&format!("{d}")).unwrap(), d, "{s}");
        }
        assert!(Duration::parse("30D").is_err());
        assert!(Duration::parse("P").is_err());
    }

    #[test]
    fn duration_mixed_sign_extension() {
        let d = Duration { months: -1, millis: 1 };
        let s = format!("{d}");
        assert_eq!(Duration::parse(&s).unwrap(), d, "mixed-sign roundtrip via {s}");
        let e = Duration { months: 2, millis: -MILLIS_PER_HOUR };
        let s2 = format!("{e}");
        assert_eq!(Duration::parse(&s2).unwrap(), e, "{s2}");
        assert_eq!(Duration::parse("-P1M+T0.001S").unwrap(), d);
        assert!(Duration::parse("P1M+1D").is_err(), "sign must precede T");
    }

    #[test]
    fn datetime_arithmetic_month_clamp() {
        let jan31 = parse_datetime("2020-01-31T12:00:00").unwrap();
        let plus1m = datetime_add(jan31, &Duration::from_months(1));
        assert_eq!(format_datetime(plus1m), "2020-02-29T12:00:00");
        let minus30d = datetime_add(jan31, &Duration::from_days(30).neg());
        assert_eq!(format_datetime(minus30d), "2020-01-01T12:00:00");
    }

    #[test]
    fn interval_bin_fixed_size() {
        let anchor = parse_datetime("2020-01-01T00:00:00").unwrap();
        let hour = Duration::from_millis(MILLIS_PER_HOUR);
        let t = parse_datetime("2020-01-01T05:30:00").unwrap();
        let b = interval_bin(t, anchor, &hour).unwrap();
        assert_eq!(format_datetime(b.start), "2020-01-01T05:00:00");
        assert_eq!(format_datetime(b.end), "2020-01-01T06:00:00");
        // before the anchor
        let t2 = parse_datetime("2019-12-31T23:10:00").unwrap();
        let b2 = interval_bin(t2, anchor, &hour).unwrap();
        assert_eq!(format_datetime(b2.start), "2019-12-31T23:00:00");
    }

    #[test]
    fn interval_bin_calendar_months() {
        let anchor = parse_datetime("2020-01-01T00:00:00").unwrap();
        let month = Duration::from_months(1);
        let t = parse_datetime("2020-03-15T08:00:00").unwrap();
        let b = interval_bin(t, anchor, &month).unwrap();
        assert_eq!(format_datetime(b.start), "2020-03-01T00:00:00");
        assert_eq!(format_datetime(b.end), "2020-04-01T00:00:00");
    }

    #[test]
    fn overlap_bins_spanning_activity() {
        // The §V-D scenario: an activity spanning three hourly bins gets a
        // portion allocated to each.
        let anchor = 0;
        let hour = Duration::from_millis(MILLIS_PER_HOUR);
        let s = 30 * MILLIS_PER_MINUTE; // 00:30
        let e = 2 * MILLIS_PER_HOUR + 15 * MILLIS_PER_MINUTE; // 02:15
        let bins = overlap_bins(s, e, anchor, &hour).unwrap();
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].overlap_with(s, e), 30 * MILLIS_PER_MINUTE);
        assert_eq!(bins[1].overlap_with(s, e), MILLIS_PER_HOUR);
        assert_eq!(bins[2].overlap_with(s, e), 15 * MILLIS_PER_MINUTE);
        let total: i64 = bins.iter().map(|b| b.overlap_with(s, e)).sum();
        assert_eq!(total, e - s, "portions must sum to the activity length");
    }

    #[test]
    fn bin_errors() {
        assert!(interval_bin(0, 0, &Duration { months: 1, millis: 5 }).is_err());
        assert!(interval_bin(0, 0, &Duration::from_millis(0)).is_err());
        assert!(overlap_bins(10, 5, 0, &Duration::from_days(1)).is_err());
    }
}
