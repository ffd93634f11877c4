//! A mock of the Yahoo Open API reverse-geocoding endpoint the paper used
//! (§III-B, Fig. 5), including its XML response format and a parser for it.
//!
//! The paper reads the `<state>` and `<county>` elements out of a
//! `<location>` block. The mock renders exactly that shape, and the analysis
//! pipeline can be configured to round-trip every lookup through the XML
//! layer so the same serialize/parse path the authors exercised stays under
//! test. The endpoint also models the practical constraints of a 2011-era
//! free API tier: per-day quota and per-request latency accounting, plus —
//! through a seeded [`FaultPlan`] — the failure modes that dominated real
//! geocoding at scale: dropped requests, latency spikes, garbled XML and
//! spurious rate-limit responses.
//!
//! All accounting is atomic ([`AtomicU64`], the `ReverseStats` pattern), so
//! the endpoint is `Sync` and the multi-threaded geocode stage can drive the
//! XML path directly; the quota slot is acquired with a compare-and-swap, so
//! the daily limit is exact under any interleaving — never oversold by a
//! racing thread.

use std::sync::atomic::{AtomicU64, Ordering};

use stir_geoindex::Point;

use crate::error::GeocodeError;
use crate::gazetteer::Gazetteer;
use crate::location::LocationRecord;
use crate::reverse::ReverseGeocoder;
use crate::service::{Fault, FaultPlan};

/// Simulated wait before a client gives up on a dropped request when no
/// explicit deadline is configured on the endpoint.
const DROP_WAIT_MS: u64 = 1_000;

/// Escapes the five XML special characters.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

fn xml_unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Renders the Fig. 5 response for a resolved location.
pub fn render_response(query: Point, rec: Option<&LocationRecord>) -> String {
    let mut xml = String::with_capacity(512);
    xml.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    xml.push_str("<ResultSet version=\"1.0\">\n");
    let found = usize::from(rec.is_some());
    xml.push_str(&format!("  <Found>{found}</Found>\n"));
    xml.push_str("  <Result>\n");
    xml.push_str(&format!("    <latitude>{:.6}</latitude>\n", query.lat));
    xml.push_str(&format!("    <longitude>{:.6}</longitude>\n", query.lon));
    if let Some(rec) = rec {
        xml.push_str("    <location>\n");
        xml.push_str(&format!(
            "      <country>{}</country>\n",
            xml_escape(&rec.country)
        ));
        xml.push_str(&format!(
            "      <state>{}</state>\n",
            xml_escape(&rec.state)
        ));
        xml.push_str(&format!(
            "      <county>{}</county>\n",
            xml_escape(&rec.county)
        ));
        xml.push_str(&format!("      <town>{}</town>\n", xml_escape(&rec.town)));
        xml.push_str("    </location>\n");
    }
    xml.push_str("  </Result>\n");
    xml.push_str("</ResultSet>\n");
    xml
}

/// Extracts the text content of the first `<tag>…</tag>` in `xml`.
fn element_text<'a>(xml: &'a str, tag: &str) -> Option<&'a str> {
    let open = format!("<{tag}>");
    let close = format!("</{tag}>");
    let start = xml.find(&open)? + open.len();
    let end = xml[start..].find(&close)? + start;
    Some(&xml[start..end])
}

/// Parses a Fig. 5 response back into a [`LocationRecord`]. The XML does
/// not carry the district id, so `district` is `None` here;
/// [`YahooPlaceFinder::lookup`] reattaches it from the gazetteer's
/// `(state, county)` index after parsing. Returns `Ok(None)` for a
/// well-formed response with `<Found>0</Found>`.
pub fn parse_response(xml: &str) -> Result<Option<LocationRecord>, GeocodeError> {
    let found = element_text(xml, "Found").ok_or_else(|| GeocodeError::from("missing <Found>"))?;
    match found.trim() {
        "0" => Ok(None),
        "1" => {
            let location = element_text(xml, "location")
                .ok_or_else(|| GeocodeError::from("missing <location>"))?;
            let field = |tag: &str| -> Result<String, GeocodeError> {
                element_text(location, tag)
                    .map(|s| xml_unescape(s.trim()))
                    .ok_or_else(|| GeocodeError::from(format!("missing <{tag}>")))
            };
            Ok(Some(LocationRecord {
                country: field("country")?,
                state: field("state")?,
                county: field("county")?,
                town: field("town")?,
                district: None,
            }))
        }
        other => Err(GeocodeError::MalformedResponse(format!(
            "bad <Found> value {other:?}"
        ))),
    }
}

/// Deterministically garbles a well-formed response: the opening `<Found>`
/// tag is misspelled, so the parser fails with a missing-element error —
/// the shape a truncated or proxy-mangled 2011 response actually took.
fn garble(xml: &str) -> String {
    xml.replacen("<Found>", "<F0und>", 1)
}

/// The mock endpoint: quota-limited, latency-accounted reverse geocoding
/// that answers in the Fig. 5 XML format.
///
/// `Sync` by construction: every counter is an [`AtomicU64`], and the daily
/// quota slot is acquired by compare-and-swap, so concurrent callers can
/// never drive the accepted-request count past the limit (the regression
/// suite hammers this with 8 threads). An optional [`FaultPlan`] injects
/// deterministic drop/delay/malformed/quota faults by attempt index, and an
/// optional per-call deadline turns injected latency into
/// [`GeocodeError::Timeout`] — the endpoint is where latency is simulated,
/// so the deadline is enforced here on behalf of the resilient decorator
/// that configures it.
pub struct YahooPlaceFinder<'g> {
    geocoder: ReverseGeocoder<'g>,
    daily_quota: u64,
    latency_ms_per_request: u64,
    deadline_ms: Option<u64>,
    faults: Option<FaultPlan>,
    /// Accepted requests in the current simulated day.
    requests: AtomicU64,
    /// All `request_xml` calls ever — the fault-schedule index.
    attempts: AtomicU64,
    simulated_ms: AtomicU64,
    // Outcome counters for the service-layer traffic report.
    calls: AtomicU64,
    call_resolved: AtomicU64,
    call_misses: AtomicU64,
    call_errors: AtomicU64,
}

impl<'g> YahooPlaceFinder<'g> {
    /// An endpoint with the 2011-era free-tier defaults: 50,000 requests per
    /// day, ~120 ms per request.
    pub fn new(gazetteer: &'g Gazetteer) -> Self {
        Self::with_limits(gazetteer, 50_000, 120)
    }

    /// An endpoint with explicit quota/latency parameters.
    pub fn with_limits(gazetteer: &'g Gazetteer, daily_quota: u64, latency_ms: u64) -> Self {
        YahooPlaceFinder {
            geocoder: ReverseGeocoder::assemble(gazetteer),
            daily_quota,
            latency_ms_per_request: latency_ms,
            deadline_ms: None,
            faults: None,
            requests: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            simulated_ms: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            call_resolved: AtomicU64::new(0),
            call_misses: AtomicU64::new(0),
            call_errors: AtomicU64::new(0),
        }
    }

    /// Attaches a seeded fault schedule; requests are faulted by attempt
    /// index, so the schedule is deterministic for a given plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets a per-call deadline: any request whose simulated latency
    /// (including injected delay) exceeds it fails with
    /// [`GeocodeError::Timeout`] after burning exactly `deadline_ms` of
    /// simulated wall clock.
    pub fn with_deadline(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Issues one reverse-geocoding request, returning the raw XML response.
    pub fn request_xml(&self, p: Point) -> Result<String, GeocodeError> {
        let idx = self.attempts.fetch_add(1, Ordering::Relaxed);
        let fault = self.faults.as_ref().and_then(|f| f.decide(idx));
        if fault == Some(Fault::QuotaExceeded) {
            // A spurious rate-limit burst: the request is refused before a
            // quota slot is consumed, exactly like a transient 403.
            return Err(GeocodeError::QuotaExceeded(self.daily_quota));
        }
        // Exact slot acquisition: the CAS either claims slot r < quota or
        // fails — two racing threads can never both take the last slot.
        if self
            .requests
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                (r < self.daily_quota).then_some(r + 1)
            })
            .is_err()
        {
            return Err(GeocodeError::QuotaExceeded(self.daily_quota));
        }
        if fault == Some(Fault::Drop) {
            // The response never arrives; the client waits out its deadline
            // (or the default drop wait) and gives up.
            let waited = self.deadline_ms.unwrap_or(DROP_WAIT_MS);
            self.simulated_ms.fetch_add(waited, Ordering::Relaxed);
            return Err(GeocodeError::Timeout { waited_ms: waited });
        }
        let mut latency = self.latency_ms_per_request;
        if fault == Some(Fault::Delay) {
            latency += self.faults.as_ref().map_or(0, |f| f.delay_ms);
        }
        if let Some(deadline) = self.deadline_ms {
            if latency > deadline {
                self.simulated_ms.fetch_add(deadline, Ordering::Relaxed);
                return Err(GeocodeError::Timeout {
                    waited_ms: deadline,
                });
            }
        }
        self.simulated_ms.fetch_add(latency, Ordering::Relaxed);
        let rec = self.geocoder.lookup(p);
        let xml = render_response(p, rec.as_ref());
        if fault == Some(Fault::MalformedXml) {
            return Ok(garble(&xml));
        }
        Ok(xml)
    }

    /// Issues a request and parses the response — the full round trip the
    /// paper's pipeline performed per GPS tweet. The district id (which the
    /// XML cannot carry) is reattached from the gazetteer's unique
    /// `(state, county)` index, so records from this path are as complete
    /// as the local geocoder's.
    pub fn lookup(&self, p: Point) -> Result<Option<LocationRecord>, GeocodeError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let out = self
            .request_xml(p)
            .and_then(|xml| parse_response(&xml))
            .map(|opt| {
                opt.map(|mut rec| {
                    rec.district = self
                        .geocoder
                        .gazetteer()
                        .find_district(&rec.state, &rec.county);
                    rec
                })
            });
        match &out {
            Ok(Some(_)) => self.call_resolved.fetch_add(1, Ordering::Relaxed),
            Ok(None) => self.call_misses.fetch_add(1, Ordering::Relaxed),
            Err(_) => {
                self.call_errors.fetch_add(1, Ordering::Relaxed);
                // Errors fold into misses so the traffic identity
                // `lookups == resolved + fallbacks + misses` holds for the
                // raw endpoint too (it has no fallback chain).
                self.call_misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        out
    }

    /// Accepted requests in the current simulated day.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// All `request_xml` calls ever issued (the fault-schedule index),
    /// including refused and faulted ones.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// The configured daily quota.
    pub fn daily_quota(&self) -> u64 {
        self.daily_quota
    }

    /// Lookup outcome counters: `(calls, resolved, misses, errors)`, where
    /// errored calls are counted under both `misses` and `errors`.
    pub(crate) fn call_outcomes(&self) -> (u64, u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.call_resolved.load(Ordering::Relaxed),
            self.call_misses.load(Ordering::Relaxed),
            self.call_errors.load(Ordering::Relaxed),
        )
    }

    /// Traffic counters of the geocoder behind the endpoint
    /// (`cache_hits` counts the lookups its district atlas answered
    /// without the polygon walk).
    pub fn geocoder_stats(&self) -> crate::ReverseStats {
        self.geocoder.stats()
    }

    /// Total simulated wall-clock cost of the traffic, in milliseconds.
    pub fn simulated_ms(&self) -> u64 {
        self.simulated_ms.load(Ordering::Relaxed)
    }

    /// Resets the daily counter (a new simulated day).
    pub fn reset_quota(&self) {
        self.requests.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_xml_preserves_state_county() {
        let g = Gazetteer::load();
        let api = YahooPlaceFinder::new(&g);
        let p = Point::new(37.517, 127.047);
        let rec = api.lookup(p).unwrap().expect("gangnam resolves");
        assert_eq!(rec.state, "Seoul");
        assert_eq!(rec.county, "Gangnam-gu");
        assert_eq!(rec.country, "South Korea");
        // The XML drops the id; lookup() reattaches it from the gazetteer,
        // and it must agree with the direct resolution of the same point.
        assert_eq!(rec.district, g.resolve_point(p));
        assert!(rec.district.is_some());
    }

    #[test]
    fn response_shape_matches_fig5() {
        let g = Gazetteer::load();
        let api = YahooPlaceFinder::new(&g);
        let xml = api.request_xml(Point::new(37.517, 127.047)).unwrap();
        for tag in [
            "<ResultSet",
            "<Found>1</Found>",
            "<location>",
            "<country>",
            "<state>",
            "<county>",
            "<town>",
        ] {
            assert!(xml.contains(tag), "missing {tag} in:\n{xml}");
        }
    }

    #[test]
    fn not_found_renders_and_parses() {
        let g = Gazetteer::load();
        let api = YahooPlaceFinder::new(&g);
        let xml = api.request_xml(Point::new(35.68, 139.69)).unwrap();
        assert!(xml.contains("<Found>0</Found>"));
        assert_eq!(parse_response(&xml).unwrap(), None);
    }

    #[test]
    fn quota_is_enforced() {
        let g = Gazetteer::load();
        let api = YahooPlaceFinder::with_limits(&g, 3, 100);
        let p = Point::new(37.517, 127.047);
        for _ in 0..3 {
            assert!(api.lookup(p).is_ok());
        }
        assert_eq!(api.lookup(p), Err(GeocodeError::QuotaExceeded(3)));
        api.reset_quota();
        assert!(api.lookup(p).is_ok());
        assert_eq!(api.simulated_ms(), 400);
    }

    #[test]
    fn escaping_roundtrips() {
        let rec = LocationRecord {
            country: "A&B <Co>".into(),
            state: "\"S\"".into(),
            county: "C'ty".into(),
            town: "T".into(),
            district: None,
        };
        let xml = render_response(Point::new(37.0, 127.0), Some(&rec));
        let back = parse_response(&xml).unwrap().unwrap();
        assert_eq!(back.country, "A&B <Co>");
        assert_eq!(back.state, "\"S\"");
        assert_eq!(back.county, "C'ty");
    }

    #[test]
    fn malformed_responses_are_rejected() {
        assert!(parse_response("<nope/>").is_err());
        assert!(parse_response("<Found>1</Found>").is_err());
        assert!(parse_response("<Found>9</Found>").is_err());
    }

    #[test]
    fn drop_fault_times_out_and_burns_quota() {
        let g = Gazetteer::load();
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::default()
        };
        let api = YahooPlaceFinder::with_limits(&g, 10, 120).with_fault_plan(plan);
        let out = api.lookup(Point::new(37.517, 127.047));
        assert_eq!(
            out,
            Err(GeocodeError::Timeout {
                waited_ms: DROP_WAIT_MS
            })
        );
        // The request was issued before it vanished: the quota slot is gone
        // and the client's deadline wait is on the simulated clock.
        assert_eq!(api.requests(), 1);
        assert_eq!(api.simulated_ms(), DROP_WAIT_MS);
    }

    #[test]
    fn delay_fault_beyond_deadline_times_out() {
        let g = Gazetteer::load();
        let plan = FaultPlan {
            delay_rate: 1.0,
            delay_ms: 900,
            ..FaultPlan::default()
        };
        let api = YahooPlaceFinder::with_limits(&g, 10, 120)
            .with_fault_plan(plan)
            .with_deadline(500);
        // 120 ms base + 900 ms injected > 500 ms deadline → timeout after
        // exactly the deadline.
        assert_eq!(
            api.lookup(Point::new(37.517, 127.047)),
            Err(GeocodeError::Timeout { waited_ms: 500 })
        );
        assert_eq!(api.simulated_ms(), 500);
        // Without the fault the same request fits the deadline.
        let quiet = YahooPlaceFinder::with_limits(&g, 10, 120).with_deadline(500);
        assert!(quiet.lookup(Point::new(37.517, 127.047)).unwrap().is_some());
        assert_eq!(quiet.simulated_ms(), 120);
    }

    #[test]
    fn malformed_fault_garbles_the_response() {
        let g = Gazetteer::load();
        let plan = FaultPlan {
            malformed_rate: 1.0,
            ..FaultPlan::default()
        };
        let api = YahooPlaceFinder::with_limits(&g, 10, 0).with_fault_plan(plan);
        let xml = api.request_xml(Point::new(37.517, 127.047)).unwrap();
        assert!(!xml.contains("<Found>"));
        assert!(matches!(
            parse_response(&xml),
            Err(GeocodeError::MalformedResponse(_))
        ));
    }

    #[test]
    fn quota_fault_is_spurious_and_burns_nothing() {
        let g = Gazetteer::load();
        let plan = FaultPlan {
            quota_rate: 1.0,
            ..FaultPlan::default()
        };
        let api = YahooPlaceFinder::with_limits(&g, 10, 120).with_fault_plan(plan);
        assert_eq!(
            api.lookup(Point::new(37.517, 127.047)),
            Err(GeocodeError::QuotaExceeded(10))
        );
        assert_eq!(api.requests(), 0, "spurious 403 must not consume a slot");
        assert_eq!(api.simulated_ms(), 0);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_plan() {
        let g = Gazetteer::load();
        let plan = FaultPlan {
            drop_rate: 0.3,
            seed: 42,
            ..FaultPlan::default()
        };
        let outcomes = |api: &YahooPlaceFinder| -> Vec<bool> {
            (0..100)
                .map(|_| api.lookup(Point::new(37.517, 127.047)).is_ok())
                .collect()
        };
        let a = YahooPlaceFinder::with_limits(&g, u64::MAX, 0).with_fault_plan(plan);
        let b = YahooPlaceFinder::with_limits(&g, u64::MAX, 0).with_fault_plan(plan);
        assert_eq!(outcomes(&a), outcomes(&b));
        let hits = outcomes(&a).iter().filter(|ok| !*ok).count();
        assert!(hits > 0, "a 30% schedule must fault somewhere in 100 calls");
    }
}
