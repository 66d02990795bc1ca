//! Synthetic `request_log` records.
//!
//! Generates realistic application-log rows for the evaluation: per-tenant
//! IP pools, a fixed API surface, long-tailed latencies, a small failure
//! rate, and log lines whose text correlates with the other fields (so
//! full-text queries like `log CONTAINS 'timeout'` select meaningful rows).

use crate::spec::WorkloadSpec;
use crate::zipf::Zipfian;
use logstore_types::{LogRecord, TenantId, Timestamp, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The API surface log lines reference.
pub const APIS: &[&str] = &[
    "/api/v1/users",
    "/api/v1/orders",
    "/api/v1/products",
    "/api/v1/search",
    "/api/v1/login",
    "/api/v1/payments",
    "/api/v2/metrics",
    "/healthz",
];

const STATUS_WORDS: &[&str] = &["ok", "accepted", "cached", "redirected"];
const FAIL_WORDS: &[&str] = &["timeout", "refused", "error", "unavailable"];

/// Tenant-scoped address formatting: a /16 per tenant, so different
/// tenants never share addresses (tenant isolation is observable in the
/// data itself).
pub fn format_ip(tenant: TenantId, idx: u32) -> String {
    let mut ip = String::with_capacity(15);
    push_ip(&mut ip, tenant, idx);
    ip
}

/// Appends [`format_ip`]'s address: `10.<tenant % 250>.<idx / 250>.<idx % 250 + 1>`.
fn push_ip(out: &mut String, tenant: TenantId, idx: u32) {
    out.push_str("10.");
    push_decimal(out, tenant.raw() % 250);
    out.push('.');
    push_decimal(out, u64::from(idx / 250));
    out.push('.');
    push_decimal(out, u64::from(idx % 250 + 1));
}

/// Appends the decimal digits of `v`: what `format!("{v}")` writes,
/// without the formatting machinery (the generator runs on the
/// benchmark's producers, beside the engine it measures).
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// The dominant ("session") address of `tenant` around `ts` — the address
/// the generator emits for 80% of that tenant's records in the ~10-minute
/// window containing `ts`. Query harnesses use this to build realistic
/// selective filters.
pub fn session_ip(tenant: TenantId, ts: Timestamp, ips_per_tenant: u32) -> String {
    let bucket = (ts.millis().div_euclid(600_000)) as u64;
    let h = bucket
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(tenant.raw().wrapping_mul(0xd134_2543_de82_ef95));
    format_ip(tenant, ((h >> 33) % u64::from(ips_per_tenant.max(1))) as u32)
}

/// Deterministic record generator.
pub struct LogRecordGenerator {
    rng: StdRng,
    /// Distinct source IPs per tenant.
    ips_per_tenant: u32,
    /// Probability that a request failed.
    fail_rate: f64,
}

impl LogRecordGenerator {
    /// Creates a generator with paper-ish defaults (32 IPs/tenant, 2% fail).
    pub fn new(seed: u64) -> Self {
        LogRecordGenerator { rng: StdRng::seed_from_u64(seed), ips_per_tenant: 32, fail_rate: 0.02 }
    }

    /// Overrides the per-tenant IP pool size.
    pub fn with_ips_per_tenant(mut self, n: u32) -> Self {
        self.ips_per_tenant = n.max(1);
        self
    }

    /// Generates one record for `tenant` at `ts`.
    pub fn record(&mut self, tenant: TenantId, ts: Timestamp) -> LogRecord {
        // Client activity is bursty: within a ~10-minute session window one
        // address dominates a tenant's traffic, with a 20% background of
        // other clients. This temporal clustering is what makes per-field
        // indexes + block skipping effective on real logs (a given IP's
        // records concentrate in a few column blocks).
        let ip = if self.rng.gen_bool(0.2) {
            let idx = self.rng.gen_range(0..self.ips_per_tenant);
            format_ip(tenant, idx)
        } else {
            session_ip(tenant, ts, self.ips_per_tenant)
        };
        let api = APIS[self.rng.gen_range(0..APIS.len())];
        // Long-tailed latency: mostly fast, occasional stragglers.
        let base: f64 = self.rng.gen_range(1.0..20.0);
        let tail: f64 =
            if self.rng.gen_bool(0.05) { self.rng.gen_range(100.0..2000.0) } else { 0.0 };
        let latency = (base + tail) as u64;
        let fail = self.rng.gen_bool(self.fail_rate);
        let word = if fail {
            FAIL_WORDS[self.rng.gen_range(0..FAIL_WORDS.len())]
        } else {
            STATUS_WORDS[self.rng.gen_range(0..STATUS_WORDS.len())]
        };
        // "{GET|FAIL} {api} from {ip} in {latency}ms status={word}"
        let mut log = String::with_capacity(64);
        log.push_str(if fail { "FAIL " } else { "GET " });
        log.push_str(api);
        log.push_str(" from ");
        log.push_str(&ip);
        log.push_str(" in ");
        push_decimal(&mut log, latency);
        log.push_str("ms status=");
        log.push_str(word);
        LogRecord::new(
            tenant,
            ts,
            vec![
                Value::Str(ip),
                Value::Str(api.to_owned()),
                Value::I64(latency as i64),
                Value::Bool(fail),
                Value::Str(log),
            ],
        )
    }

    /// Generates a time-ordered history: `count` records between `start`
    /// and `end`, tenants drawn from `spec`'s Zipfian.
    pub fn history(
        &mut self,
        spec: &WorkloadSpec,
        count: usize,
        start: Timestamp,
        end: Timestamp,
    ) -> Vec<LogRecord> {
        let z: Zipfian = spec.sampler();
        let span = (end - start).max(1);
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let ts = start + (span * i as i64 / count.max(1) as i64);
            let tenant = spec.sample_tenant(&z, &mut self.rng);
            out.push(self.record(tenant, ts));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_types::TableSchema;

    #[test]
    fn records_match_schema() {
        let schema = TableSchema::request_log();
        let mut g = LogRecordGenerator::new(1);
        for i in 0..100 {
            let r = g.record(TenantId(i % 5 + 1), Timestamp(i as i64));
            r.validate(&schema).unwrap();
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = LogRecordGenerator::new(7).record(TenantId(1), Timestamp(0));
        let b = LogRecordGenerator::new(7).record(TenantId(1), Timestamp(0));
        assert_eq!(a, b);
    }

    #[test]
    fn tenants_have_disjoint_ip_space() {
        let mut g = LogRecordGenerator::new(2);
        let r1 = g.record(TenantId(1), Timestamp(0));
        let r2 = g.record(TenantId(2), Timestamp(0));
        let ip1 = r1.fields[0].as_str().unwrap();
        let ip2 = r2.fields[0].as_str().unwrap();
        assert!(ip1.starts_with("10.1."));
        assert!(ip2.starts_with("10.2."));
    }

    #[test]
    fn fail_flag_correlates_with_log_text() {
        let mut g = LogRecordGenerator::new(3);
        let mut saw_fail = false;
        for i in 0..2000 {
            let r = g.record(TenantId(1), Timestamp(i));
            let fail = r.fields[3].as_bool().unwrap();
            let log = r.fields[4].as_str().unwrap();
            if fail {
                saw_fail = true;
                assert!(log.starts_with("FAIL"), "failed request log: {log}");
            } else {
                assert!(log.starts_with("GET"));
            }
        }
        assert!(saw_fail, "2000 records at 2% fail rate should include failures");
    }

    /// FNV-1a over every field of `records`: tenant, ts and each value
    /// with its type.
    fn fingerprint(records: &[LogRecord]) -> u64 {
        let mut bytes = Vec::new();
        for r in records {
            bytes.extend_from_slice(&r.tenant_id.raw().to_le_bytes());
            bytes.extend_from_slice(&r.ts.millis().to_le_bytes());
            for field in &r.fields {
                match field {
                    Value::Str(s) => {
                        bytes.push(b's');
                        bytes.extend_from_slice(&(s.len() as u64).to_le_bytes());
                        bytes.extend_from_slice(s.as_bytes());
                    }
                    Value::I64(v) => {
                        bytes.push(b'i');
                        bytes.extend_from_slice(&v.to_le_bytes());
                    }
                    Value::Bool(b) => bytes.extend_from_slice(&[b'b', u8::from(*b)]),
                    other => panic!("the generator made {other:?}"),
                }
            }
        }
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// The generator's output, pinned: the same seed makes the same bytes,
    /// field for field, however the fields are built.
    #[test]
    fn records_and_histories_keep_their_bytes() {
        let spec = WorkloadSpec::new(40, 0.99);
        let mut seen = Vec::new();
        for seed in [5, 2980] {
            let mut g = LogRecordGenerator::new(seed);
            let records: Vec<LogRecord> = (0..10_000)
                .map(|i| g.record(TenantId(i % 300 + 1), Timestamp(i as i64 * 977)))
                .collect();
            let history = g.history(&spec, 10_000, Timestamp(0), Timestamp(172_800_000));
            seen.push((fingerprint(&records), fingerprint(&history)));
        }
        let expected = [
            (0x260b_00c6_eb21_3f92, 0x787a_01d7_6f6b_f343),
            (0x50ce_9782_87a2_aedf, 0xd3e7_68fb_a45b_0221),
        ];
        assert_eq!(seen, expected, "{seen:x?}");
    }

    #[test]
    fn history_is_time_ordered_and_skewed() {
        let spec = WorkloadSpec::new(100, 0.99);
        let mut g = LogRecordGenerator::new(4);
        let history = g.history(&spec, 5000, Timestamp(0), Timestamp(1_000_000));
        assert_eq!(history.len(), 5000);
        assert!(history.windows(2).all(|w| w[0].ts <= w[1].ts));
        let tenant1 = history.iter().filter(|r| r.tenant_id == TenantId(1)).count();
        let tenant90 = history.iter().filter(|r| r.tenant_id == TenantId(90)).count();
        assert!(tenant1 > 5 * tenant90.max(1), "t1={tenant1} t90={tenant90}");
    }
}
