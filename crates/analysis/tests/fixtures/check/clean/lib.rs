//! A tree that exercises locks, fan-out, the fallible surface, loops and
//! long-lived state while violating no CC/PN/RB rule: consistent lock
//! order, poison recovery, guards dropped before calls, error returns
//! instead of panics, a local collection grown in a loop, a bounded
//! cache with an eviction path, and fuel-bounded recursion.

use std::sync::{Mutex, PoisonError};

pub struct Clean {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Clean {
    pub fn a_then_b(&self) -> u32 {
        let ga = self.a.lock().unwrap_or_else(PoisonError::into_inner);
        let gb = self.b.lock().unwrap_or_else(PoisonError::into_inner);
        *ga + *gb
    }

    pub fn also_a_then_b(&self) -> u32 {
        let ga = self.a.lock().unwrap_or_else(PoisonError::into_inner);
        let gb = self.b.lock().unwrap_or_else(PoisonError::into_inner);
        *ga * *gb
    }

    pub fn snapshot_then_work(&self) -> u32 {
        let snapshot = {
            let ga = self.a.lock().unwrap_or_else(PoisonError::into_inner);
            *ga
        };
        expensive(snapshot)
    }
}

fn expensive(n: u32) -> u32 {
    n.saturating_mul(3)
}

pub fn try_cost(v: &[u32]) -> Result<u32, ()> {
    let first = v.first().copied().ok_or(())?;
    let denom = v.len() as u32;
    Ok(first.checked_div(denom).unwrap_or(0))
}

pub fn cost(rows: &[u32]) -> u32 {
    let mut doubled = Vec::with_capacity(rows.len());
    for r in rows {
        doubled.push(r * 2);
    }
    doubled.iter().sum()
}

pub struct BoundedCache {
    rows: Vec<u64>,
    max_entries: usize,
}

impl BoundedCache {
    pub fn put(&mut self, v: u64) {
        if self.rows.len() == self.max_entries {
            self.rows.pop();
        }
        self.rows.push(v);
    }
}

pub fn try_deep_cost(v: &[u32]) -> Result<u32, ()> {
    descend(v, 64)
}

fn descend(v: &[u32], fuel: u32) -> Result<u32, ()> {
    if fuel == 0 {
        return Err(());
    }
    match v.split_first() {
        None => Ok(0),
        Some((first, rest)) => Ok(first + descend(rest, fuel - 1)?),
    }
}
