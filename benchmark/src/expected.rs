//! Recorded output digests: every check the benchmark makes of a
//! program's output compares an FNV-1a digest against `expected/`.

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;

use pruneperf_backends::hash::fnv1a;
use pruneperf_profiler::sweep;
use pruneperf_serve::{PlanRequest, PlanService};

use crate::inputs::{self, PlanKey, SEARCH_SEED_POOL};
use crate::proc::{repo_root, run_child, Binaries};

/// Removes the per-connection `"id":N,` field, the one part of a plan
/// response that depends on arrival order rather than on the request.
fn strip_id(body: &str) -> String {
    let Some(at) = body.find("\"id\":") else {
        return body.to_string();
    };
    let rest = &body[at + 5..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let tail = rest[digits..].strip_prefix(',').unwrap_or(&rest[digits..]);
    format!("{}{tail}", &body[..at])
}

/// Digest of a plan response body, id stripped.
fn body_digest(body: &str) -> u64 {
    fnv1a(strip_id(body).as_bytes())
}

/// What one recorded search seed produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchExpect {
    pub digest: u64,
    pub evaluated: u64,
    pub archived: u64,
}

/// Every recorded digest.
pub struct Expected {
    serve: HashMap<String, u64>,
    search: HashMap<u64, SearchExpect>,
    repro: u64,
}

fn dir() -> PathBuf {
    repo_root().join("benchmark/expected")
}

fn read_tsv(name: &str) -> Result<Vec<Vec<String>>, String> {
    let path = dir().join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(|l| l.split('\t').map(str::to_string).collect())
        .collect())
}

fn hex(field: Option<&String>) -> Result<u64, String> {
    field
        .and_then(|f| u64::from_str_radix(f, 16).ok())
        .ok_or_else(|| format!("bad digest field {field:?}"))
}

fn count(field: Option<&String>) -> Result<u64, String> {
    field
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("bad count field {field:?}"))
}

impl Expected {
    /// Loads `expected/`.
    pub fn load() -> Result<Expected, String> {
        let mut serve = HashMap::new();
        for row in read_tsv("serve.tsv")? {
            let body = row.get(1).ok_or("serve.tsv row without a body")?;
            serve.insert(body.clone(), hex(row.first())?);
        }
        let mut search = HashMap::new();
        for row in read_tsv("search.tsv")? {
            let expect = SearchExpect {
                digest: hex(row.get(1))?,
                evaluated: count(row.get(2))?,
                archived: count(row.get(3))?,
            };
            search.insert(count(row.first())?, expect);
        }
        let repro = hex(read_tsv("repro.tsv")?.first().and_then(|r| r.first()))?;
        Ok(Expected {
            serve,
            search,
            repro,
        })
    }

    /// `true` when `body` is the recorded response to `key`.
    pub fn serve_ok(&self, key: &PlanKey, body: &str) -> bool {
        self.serve.get(&key.body()) == Some(&body_digest(body))
    }

    /// The recorded front of one search seed.
    pub fn search(&self, seed: u64) -> Option<SearchExpect> {
        self.search.get(&seed).copied()
    }

    /// `true` when `stdout` is the recorded `repro all` output.
    pub fn repro_ok(&self, stdout: &[u8]) -> bool {
        fnv1a(stdout) == self.repro
    }
}

/// The counts a search front reports, read from the header of its JSON
/// (the front itself runs to megabytes, so it is not parsed).
fn search_counts(json: &[u8]) -> Result<(u64, u64), String> {
    let text = std::str::from_utf8(json).map_err(|_| "search output is not UTF-8")?;
    let field = |k: &str| {
        let key = format!("\"{k}\": ");
        text.find(&key)
            .map(|at| &text[at + key.len()..])
            .and_then(|rest| rest[..rest.find(',')?].parse().ok())
            .ok_or_else(|| format!("search output lacks '{k}'"))
    };
    Ok((field("evaluated")?, field("archived")?))
}

/// Regenerates `expected/` from the current code: plan bodies through the
/// daemon's own `PlanService`, search fronts and `repro all` through the
/// built binaries.
pub fn record(bins: &Binaries) -> Result<String, String> {
    let bodies: BTreeSet<String> = inputs::hot_universe()
        .iter()
        .chain(&inputs::churn_universe())
        .map(PlanKey::body)
        .collect();
    let bodies: Vec<String> = bodies.into_iter().collect();
    let service = PlanService::new(0);
    let digests = sweep::ordered_parallel_map(&bodies, 2, |body| {
        let req = PlanRequest::parse(body)?;
        Ok::<_, String>(body_digest(&service.handle(&req).render(0, false)))
    });
    let mut serve = String::new();
    for (body, digest) in bodies.iter().zip(digests) {
        serve.push_str(&format!("{:016x}\t{body}\n", digest?));
    }

    let mut search = String::new();
    for seed in 0..SEARCH_SEED_POOL {
        let run = run_child(&bins.pruneperf, &inputs::search_args(seed))?;
        if !run.ok {
            return Err(format!("search seed {seed} failed"));
        }
        let (evaluated, archived) = search_counts(&run.stdout)?;
        search.push_str(&format!(
            "{seed}\t{:016x}\t{evaluated}\t{archived}\n",
            fnv1a(&run.stdout)
        ));
    }

    let args = inputs::repro_args();
    let repro = run_child(&bins.repro, &args)?;
    if !repro.ok {
        return Err("repro all failed".to_string());
    }
    let repro = format!("{:016x}\trepro {}\n", fnv1a(&repro.stdout), args.join(" "));

    std::fs::create_dir_all(dir()).map_err(|e| format!("cannot create expected/: {e}"))?;
    for (name, text) in [
        ("serve.tsv", &serve),
        ("search.tsv", &search),
        ("repro.tsv", &repro),
    ] {
        std::fs::write(dir().join(name), text).map_err(|e| format!("cannot write {name}: {e}"))?;
    }
    Ok(format!(
        "recorded {} plan bodies, {SEARCH_SEED_POOL} search fronts and repro all\n",
        bodies.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stripped_wherever_they_sit() {
        assert_eq!(
            strip_id(r#"{"status":"ok","id":42,"network":"alexnet"}"#),
            r#"{"status":"ok","network":"alexnet"}"#
        );
        assert_eq!(
            body_digest(r#"{"status":"ok","id":0,"x":1}"#),
            body_digest(r#"{"status":"ok","id":977,"x":1}"#)
        );
        assert_eq!(strip_id("{\"status\":\"ok\"}"), "{\"status\":\"ok\"}");
    }

    #[test]
    fn search_counts_come_from_the_front_json() {
        let json = br#"{"version": 1, "evaluated": 60547, "archived": 7552, "front": []}"#;
        assert_eq!(search_counts(json).unwrap(), (60547, 7552));
        assert!(search_counts(b"{}").is_err());
    }

    #[test]
    fn every_drawable_key_has_a_recorded_digest() {
        let expected = Expected::load().unwrap();
        for key in inputs::hot_universe()
            .iter()
            .chain(&inputs::churn_universe())
        {
            assert!(expected.serve.contains_key(&key.body()), "{}", key.body());
        }
        for seed in 0..SEARCH_SEED_POOL {
            assert!(expected.search(seed).is_some());
        }
    }
}
